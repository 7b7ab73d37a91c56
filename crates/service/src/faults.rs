//! Deterministic, seeded fault injection for robustness testing.
//!
//! The service's robustness tests (the chaos scenario among them) need
//! the daemon to misbehave *on demand* and *reproducibly*: a worker that
//! panics mid-job, a queue pickup that stalls, a solve that suddenly takes
//! much longer, a prepared-formula build that blows up inside the
//! single-flight cache slot. A [`FaultPlan`] injects exactly those faults
//! at seed-determined points, so a failing chaos run can be replayed
//! bit-for-bit.
//!
//! The server calls a hook only when [`crate::ServiceConfig::fault_plan`]
//! is set, which the `serve` binary never does: a daemon without a plan
//! pays one `None` check per hook site.
//!
//! Faults are **period + phase** driven, per hook: hook invocation `n`
//! fires when `n % period == phase`, with the phase drawn from a
//! [`prng::SplitMix64`] stream over the plan's seed. Different seeds move
//! the faults around relative to the workload; the same seed reproduces
//! them exactly. A period of 0 disables that fault.

use prng::SplitMix64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Which faults to inject and how often.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Phase seed: same seed + same workload = same faults.
    pub seed: u64,
    /// Every `stall_period`-th worker pickup sleeps before executing
    /// (simulates a descheduled / wedged worker). 0 disables.
    pub stall_period: u64,
    /// How long a stalled pickup sleeps.
    pub stall_ms: u64,
    /// Every `panic_period`-th job execution panics mid-flight. 0 disables.
    pub panic_period: u64,
    /// Every `delay_period`-th job execution sleeps first (simulates a
    /// pathological solve). 0 disables.
    pub delay_period: u64,
    /// How long a delayed execution sleeps.
    pub delay_ms: u64,
    /// Every `build_panic_period`-th prepared-formula build panics inside
    /// the cache's single-flight slot (exercises poisoned-slot eviction).
    /// 0 disables.
    pub build_panic_period: u64,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            seed: 0,
            stall_period: 0,
            stall_ms: 50,
            panic_period: 0,
            delay_period: 0,
            delay_ms: 50,
            build_panic_period: 0,
        }
    }
}

/// A live fault-injection plan shared with a running server (see
/// [`crate::ServiceConfig::fault_plan`]). Thread-safe; the counters let a
/// chaos harness assert that faults actually fired.
#[derive(Debug)]
pub struct FaultPlan {
    config: FaultConfig,
    /// Seed-derived phases for the stall/panic/delay/build hooks.
    phases: [u64; 4],
    pickups: AtomicU64,
    executes: AtomicU64,
    builds: AtomicU64,
    injected_stalls: AtomicU64,
    injected_panics: AtomicU64,
    injected_delays: AtomicU64,
    injected_build_panics: AtomicU64,
}

impl FaultPlan {
    /// Builds a plan; the seed fixes each fault's phase within its period.
    pub fn new(config: FaultConfig) -> FaultPlan {
        let mut rng = SplitMix64::seed_from_u64(config.seed);
        let phase = |rng: &mut SplitMix64, period: u64| {
            if period == 0 {
                0
            } else {
                rng.next_u64() % period
            }
        };
        let phases = [
            phase(&mut rng, config.stall_period),
            phase(&mut rng, config.panic_period),
            phase(&mut rng, config.delay_period),
            phase(&mut rng, config.build_panic_period),
        ];
        FaultPlan {
            config,
            phases,
            pickups: AtomicU64::new(0),
            executes: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            injected_stalls: AtomicU64::new(0),
            injected_panics: AtomicU64::new(0),
            injected_delays: AtomicU64::new(0),
            injected_build_panics: AtomicU64::new(0),
        }
    }

    fn fires(n: u64, period: u64, phase: u64) -> bool {
        period != 0 && n % period == phase
    }

    /// Hook: a worker picked a job off the queue. May sleep (stall).
    pub fn worker_pickup(&self) {
        let n = self.pickups.fetch_add(1, Ordering::Relaxed);
        if Self::fires(n, self.config.stall_period, self.phases[0]) {
            self.injected_stalls.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(self.config.stall_ms));
        }
    }

    /// Hook: a worker is about to execute a job. May sleep (slow solve) or
    /// panic (worker fault — the server must catch it, answer the client
    /// with a structured error, and keep the worker alive).
    pub fn execute_start(&self) {
        let n = self.executes.fetch_add(1, Ordering::Relaxed);
        if Self::fires(n, self.config.delay_period, self.phases[2]) {
            self.injected_delays.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(self.config.delay_ms));
        }
        if Self::fires(n, self.config.panic_period, self.phases[1]) {
            self.injected_panics.fetch_add(1, Ordering::Relaxed);
            panic!("injected fault: worker panic");
        }
    }

    /// Hook: a prepared-formula build is starting inside the cache's
    /// single-flight slot. May panic (exercises poisoned-slot eviction).
    pub fn build_start(&self) {
        let n = self.builds.fetch_add(1, Ordering::Relaxed);
        if Self::fires(n, self.config.build_panic_period, self.phases[3]) {
            self.injected_build_panics.fetch_add(1, Ordering::Relaxed);
            panic!("injected fault: build panic");
        }
    }

    /// Total faults injected so far, by kind:
    /// `(stalls, panics, delays, build_panics)`.
    pub fn injected(&self) -> (u64, u64, u64, u64) {
        (
            self.injected_stalls.load(Ordering::Relaxed),
            self.injected_panics.load(Ordering::Relaxed),
            self.injected_delays.load(Ordering::Relaxed),
            self.injected_build_panics.load(Ordering::Relaxed),
        )
    }

    /// Total faults injected so far, summed over kinds.
    pub fn injected_total(&self) -> u64 {
        let (a, b, c, d) = self.injected();
        a + b + c + d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_periods_never_fire() {
        let plan = FaultPlan::new(FaultConfig::default());
        for _ in 0..100 {
            plan.worker_pickup();
            plan.execute_start();
            plan.build_start();
        }
        assert_eq!(plan.injected_total(), 0);
    }

    #[test]
    fn periodic_faults_fire_deterministically() {
        let config = FaultConfig {
            seed: 7,
            stall_period: 4,
            stall_ms: 0,
            delay_period: 3,
            delay_ms: 0,
            ..FaultConfig::default()
        };
        let run = || {
            let plan = FaultPlan::new(config);
            for _ in 0..24 {
                plan.worker_pickup();
                plan.execute_start();
            }
            plan.injected()
        };
        let first = run();
        assert_eq!(first.0, 6, "24 pickups / period 4");
        assert_eq!(first.2, 8, "24 executes / period 3");
        assert_eq!(first, run(), "same seed, same faults");
    }

    #[test]
    fn injected_panics_carry_a_recognizable_message() {
        let plan = FaultPlan::new(FaultConfig {
            panic_period: 1,
            ..FaultConfig::default()
        });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.execute_start()))
            .unwrap_err();
        let message = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(message.contains("injected fault"));
        assert_eq!(plan.injected().1, 1);
    }
}
