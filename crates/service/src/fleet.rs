//! Fleet-level robustness: content-addressed routing across replicas with
//! transparent failover.
//!
//! One daemon process is a single point of failure no matter how gracefully
//! it sheds load. This module scales the service *out*: a [`FleetClient`]
//! spreads jobs across N independent replicas (each its own process, port
//! and `--store-dir`) and survives any one of them dying mid-stream.
//!
//! # Rendezvous hashing
//!
//! Routing is **content-addressed**: a job's [routing key](routing_key) is
//! a stable hash of its program text and options fingerprint, and
//! [`route`] orders the replicas by rendezvous (highest-random-weight)
//! score for that key. The first replica in the order is the job's *home*;
//! repeat requests for the same program therefore always land on the same
//! replica, whose prepared-formula cache is already warm. Rendezvous
//! hashing gives minimal disruption for free: when a replica leaves, only
//! the keys homed on it move (to their second choice) — every other key's
//! order is unchanged, so no warm cache is abandoned.
//!
//! # Failover
//!
//! When the home replica is unreachable, resets mid-request, or sheds the
//! job (`overloaded` / `shutting_down`), the client fails over to the next
//! replica in the key's hash order — after the first pass with a jittered
//! exponential backoff, so a brown-out does not get hammered in lockstep
//! by every client. Deterministic errors (a parse error, an arity
//! mismatch) are **not** failed over: every replica runs the same
//! deterministic solver, so a second opinion would cost a rebuild and
//! return the identical answer. For the same reason the reports a fleet
//! delivers are byte-identical to a single daemon's — routing chooses
//! *where* the job runs, never *what* it answers.
//!
//! A replica that failed is marked down for a cooldown and skipped by
//! later requests until the cooldown lapses (or a [health
//! probe](FleetClient::probe) sees it answer again) — without the mark,
//! every request homed on a dead replica would pay a full connect timeout
//! before failing over.

use crate::client::{Client, ClientConfig, ClientError, Outcome};
use crate::counters::Exposition;
use crate::json::Json;
use crate::protocol::Job;
use minic::StableHasher;
use prng::SplitMix64;
use std::time::{Duration, Instant};

/// The content-addressed routing key of a job: a stable hash of the
/// program text and the options fingerprint — everything that decides
/// *which prepared formula* serves the job, nothing that doesn't (inputs,
/// deadline, client identity). Jobs that share a prepared formula share a
/// home replica, so the fleet concentrates warmth instead of diluting it
/// N ways.
pub fn routing_key(job: &Job) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(&job.program);
    h.write_u64(job.options_fingerprint());
    h.finish()
}

/// Rendezvous (highest-random-weight) score of one replica for one key.
fn rendezvous_score(replica: &str, key: u64) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(replica);
    h.write_u64(key);
    h.finish()
}

/// Replica indices ordered by rendezvous score for `key`, best first. The
/// first entry is the key's home; the rest are its failover order. Scoring
/// hashes the replica *address string*, not its index, so reordering or
/// extending the replica list never remaps keys whose home stays listed.
pub fn route(replicas: &[String], key: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..replicas.len()).collect();
    // Ties (astronomically unlikely) break on the address string so the
    // order stays deterministic across clients.
    order.sort_by_key(|&i| (std::cmp::Reverse(rendezvous_score(&replicas[i], key)), i));
    order
}

/// Configuration of a [`FleetClient`].
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Replica addresses, e.g. `["127.0.0.1:7001", "127.0.0.1:7002"]`.
    /// Order is irrelevant to routing (addresses are hashed, not indexed).
    pub replicas: Vec<String>,
    /// Per-replica transport knobs. The fleet layer owns failover *across*
    /// replicas; per-replica `retries` here govern how hard one replica is
    /// tried before the fleet moves on (0 = fail over immediately).
    pub client: ClientConfig,
    /// How long a failed replica is skipped before requests try it again.
    pub down_cooldown: Duration,
    /// Base of the jittered exponential backoff between failover passes:
    /// pass `n` (n ≥ 1) sleeps `backoff_base * 2^(n-1)` plus up to one
    /// `backoff_base` of jitter. The first pass never sleeps — failover to
    /// a healthy replica should cost milliseconds, not a backoff.
    pub backoff_base: Duration,
    /// Seed of the jitter stream (deterministic failover in tests).
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            replicas: Vec::new(),
            client: ClientConfig::default(),
            down_cooldown: Duration::from_millis(500),
            backoff_base: Duration::from_millis(25),
            seed: 0,
        }
    }
}

/// Counters a chaos harness (and [`FleetClient::metrics_text`]) reads.
#[derive(Clone, Debug, Default)]
pub struct FleetStats {
    /// Jobs submitted through this client.
    pub requests: u64,
    /// Jobs that ultimately got an answer (possibly after failover).
    pub delivered: u64,
    /// Attempts that moved on to another replica after a retryable
    /// failure. One request can count several failovers.
    pub failovers: u64,
    /// Times a replica was marked down (entered its cooldown).
    pub down_marks: u64,
    /// Jobs served per replica, indexed like `FleetConfig::replicas`.
    pub served_by: Vec<u64>,
}

/// One replica's client-side state inside a [`FleetClient`].
#[derive(Debug)]
struct Replica {
    addr: String,
    /// Lazily dialed, dropped on any failure so the next attempt redials.
    connection: Option<Client>,
    /// While set and in the future, the replica is skipped.
    down_until: Option<Instant>,
}

/// A client that routes jobs across a fleet of replicas by rendezvous
/// hashing and transparently fails over when a replica is down or
/// shedding. Single-threaded like [`Client`]: open one per thread.
#[derive(Debug)]
pub struct FleetClient {
    replicas: Vec<Replica>,
    config: FleetConfig,
    jitter: SplitMix64,
    stats: FleetStats,
}

impl FleetClient {
    /// Builds a fleet client. Connections are dialed lazily, so this never
    /// blocks — a fleet where every replica is still booting is fine.
    ///
    /// # Panics
    ///
    /// Panics if `config.replicas` is empty: a fleet of zero replicas can
    /// route nothing, and failing per-request would just defer the panic.
    pub fn new(config: FleetConfig) -> FleetClient {
        assert!(
            !config.replicas.is_empty(),
            "a fleet needs at least one replica address"
        );
        let replicas = config
            .replicas
            .iter()
            .map(|addr| Replica {
                addr: addr.clone(),
                connection: None,
                down_until: None,
            })
            .collect::<Vec<_>>();
        let served_by = vec![0; replicas.len()];
        let jitter = SplitMix64::seed_from_u64(config.seed);
        FleetClient {
            replicas,
            config,
            jitter,
            stats: FleetStats {
                served_by,
                ..FleetStats::default()
            },
        }
    }

    /// The counters so far.
    pub fn stats(&self) -> &FleetStats {
        &self.stats
    }

    /// Index of the replica a job with this `key` is homed on right now.
    pub fn home_of(&self, key: u64) -> usize {
        let addrs: Vec<String> = self.replicas.iter().map(|r| r.addr.clone()).collect();
        route(&addrs, key)[0]
    }

    /// `true` while the replica's down-cooldown has not lapsed.
    fn is_down(replica: &Replica) -> bool {
        replica
            .down_until
            .is_some_and(|until| Instant::now() < until)
    }

    /// Marks a replica down and drops its (possibly broken) connection.
    fn mark_down(&mut self, index: usize) {
        self.replicas[index].connection = None;
        self.replicas[index].down_until = Some(Instant::now() + self.config.down_cooldown);
        self.stats.down_marks += 1;
    }

    /// Runs `op` against replica `index`, dialing first if needed.
    fn on_replica<T>(
        &mut self,
        index: usize,
        op: impl FnOnce(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        if self.replicas[index].connection.is_none() {
            let client = Client::connect_with(
                self.replicas[index].addr.as_str(),
                self.config.client.clone(),
            )?;
            self.replicas[index].connection = Some(client);
        }
        op(self.replicas[index]
            .connection
            .as_mut()
            .expect("connection just dialed"))
    }

    /// Whether an error is worth trying on another replica. Transport
    /// failures and load sheds are — another replica may well answer.
    /// Deterministic server errors are not: replicas run the same solver,
    /// so the answer would be identical. A blown client-side deadline is
    /// final either way.
    fn retryable(error: &ClientError) -> bool {
        match error {
            ClientError::Io(_) => true,
            // A malformed/truncated response line usually means the peer
            // died mid-write; a healthy replica never produces one.
            ClientError::Protocol(_) => true,
            ClientError::Server { kind, .. } => kind == "overloaded" || kind == "shutting_down",
            ClientError::DeadlineExceeded { .. } => false,
        }
    }

    /// Routes one job: home replica first, then the rest of its hash order,
    /// for up to `passes` passes with jittered exponential backoff between
    /// passes. Replicas inside their down-cooldown are skipped on the first
    /// pass but retried on later passes (they are the only hope left).
    fn call_routed<T>(
        &mut self,
        key: u64,
        mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        const PASSES: u32 = 3;
        let addrs: Vec<String> = self.replicas.iter().map(|r| r.addr.clone()).collect();
        let order = route(&addrs, key);
        self.stats.requests += 1;
        let mut last_error: Option<ClientError> = None;
        for pass in 0..PASSES {
            if pass > 0 {
                let base = self.config.backoff_base;
                let jitter_ms = if base.as_millis() == 0 {
                    0
                } else {
                    self.jitter.gen_range(0..=base.as_millis() as u64)
                };
                std::thread::sleep(
                    base * 2u32.saturating_pow(pass - 1) + Duration::from_millis(jitter_ms),
                );
            }
            for &index in &order {
                if pass == 0 && Self::is_down(&self.replicas[index]) {
                    continue;
                }
                match self.on_replica(index, &mut op) {
                    Ok(value) => {
                        self.replicas[index].down_until = None;
                        self.stats.delivered += 1;
                        self.stats.served_by[index] += 1;
                        return Ok(value);
                    }
                    Err(err) if Self::retryable(&err) => {
                        self.mark_down(index);
                        self.stats.failovers += 1;
                        last_error = Some(err);
                    }
                    Err(err) => return Err(err),
                }
            }
        }
        Err(last_error.unwrap_or_else(|| {
            ClientError::Protocol("no replica was eligible for the request".to_string())
        }))
    }

    /// Localizes `job` on its home replica, failing over down the key's
    /// hash order when the home is dead or shedding. The report is
    /// byte-identical to a single daemon's answer (modulo timing fields):
    /// replicas are deterministic and routing never changes the job.
    ///
    /// # Errors
    ///
    /// The last replica's error once every pass is exhausted, or
    /// immediately for non-retryable (deterministic) errors.
    pub fn localize(&mut self, job: Job) -> Result<Outcome, ClientError> {
        let key = routing_key(&job);
        self.call_routed(key, move |client| client.localize(job.clone()))
    }

    /// Batch-localizes `job` with the same routing and failover as
    /// [`FleetClient::localize`].
    ///
    /// # Errors
    ///
    /// See [`FleetClient::localize`].
    pub fn batch(&mut self, job: Job) -> Result<Outcome, ClientError> {
        let key = routing_key(&job);
        self.call_routed(key, move |client| client.batch(job.clone()))
    }

    /// Health-probes every replica. A replica that answers has its down
    /// mark cleared (no waiting out the cooldown); one that fails is
    /// marked down. Returns each replica's full health report (`None` for
    /// the unreachable ones), indexed like the configured addresses.
    pub fn probe(&mut self) -> Vec<Option<Json>> {
        (0..self.replicas.len())
            .map(
                |index| match self.on_replica(index, Client::health_report) {
                    Ok(report) => {
                        self.replicas[index].down_until = None;
                        Some(report)
                    }
                    Err(_) => {
                        self.mark_down(index);
                        None
                    }
                },
            )
            .collect()
    }

    /// Number of replicas currently *not* marked down.
    pub fn replicas_up(&self) -> usize {
        self.replicas.iter().filter(|r| !Self::is_down(r)).count()
    }

    /// The fleet's client-side counters in Prometheus text exposition
    /// format — same shape as the daemon's own `metrics` op, with a
    /// `bugassist_fleet_` prefix, ready for a scraper sidecar.
    pub fn metrics_text(&self) -> String {
        let mut out = Exposition::default();
        out.sample("bugassist_fleet_replicas", "gauge", self.replicas.len());
        out.sample("bugassist_fleet_replicas_up", "gauge", self.replicas_up());
        out.sample(
            "bugassist_fleet_requests_total",
            "counter",
            self.stats.requests,
        );
        out.sample(
            "bugassist_fleet_delivered_total",
            "counter",
            self.stats.delivered,
        );
        out.sample(
            "bugassist_fleet_failovers_total",
            "counter",
            self.stats.failovers,
        );
        out.sample(
            "bugassist_fleet_down_marks_total",
            "counter",
            self.stats.down_marks,
        );
        for (replica, served) in self.replicas.iter().zip(&self.stats.served_by) {
            let name = format!(
                "bugassist_fleet_served_total{{replica=\"{}\"}}",
                replica.addr
            );
            out.sample(&name, "counter", served);
        }
        out.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{i}:7000")).collect()
    }

    #[test]
    fn routing_is_deterministic_and_covers_the_fleet() {
        let replicas = addrs(3);
        let mut homed = vec![0u64; 3];
        for key in 0..600u64 {
            let order = route(&replicas, key);
            assert_eq!(order, route(&replicas, key), "same key, same order");
            // Every order is a permutation of all replicas.
            let mut seen = order.clone();
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 1, 2]);
            homed[order[0]] += 1;
        }
        // Rendezvous spreads homes roughly evenly; a degenerate hash would
        // pile everything on one replica.
        for &count in &homed {
            assert!((100..=300).contains(&count), "skewed homes: {homed:?}");
        }
    }

    #[test]
    fn removing_a_replica_only_remaps_its_own_keys() {
        // The minimal-disruption property that makes rendezvous hashing
        // worth having over `key % n`: dropping replica C moves only the
        // keys homed on C (to their second choice); everyone else keeps
        // their warm home.
        let full = addrs(3);
        let survivors = full[..2].to_vec();
        for key in 0..400u64 {
            let before = route(&full, key);
            let after = route(&survivors, key);
            if before[0] == 2 {
                // Homed on the removed replica: falls to its second choice.
                assert_eq!(after[0], before[1], "key {key} must fail to #2");
            } else {
                assert_eq!(after[0], before[0], "key {key} must not move");
            }
        }
    }

    #[test]
    fn routing_hashes_addresses_not_indices() {
        // Reordering the replica list must not remap anything: the score
        // depends on the address string alone.
        let forward = addrs(3);
        let mut reversed = forward.clone();
        reversed.reverse();
        for key in 0..200u64 {
            let home_fwd = &forward[route(&forward, key)[0]];
            let home_rev = &reversed[route(&reversed, key)[0]];
            assert_eq!(home_fwd, home_rev);
        }
    }

    #[test]
    fn routing_key_is_content_addressed() {
        let mut job = Job::new(
            "int main(int x) {\nreturn x;\n}",
            "main",
            crate::JobSpec::Assertions,
            vec![vec![1]],
        );
        let base = routing_key(&job);
        // Inputs, deadline and identity never move a job off its warm home.
        job.inputs = vec![vec![2], vec![3]];
        job.deadline_ms = Some(100);
        job.client_id = Some("tenant".to_string());
        assert_eq!(routing_key(&job), base);
        // The program and the options do.
        let mut other_program = job.clone();
        other_program.program = "int main(int x) {\nreturn x + 1;\n}".to_string();
        assert_ne!(routing_key(&other_program), base);
        let mut other_options = job;
        other_options.options.width = 16;
        assert_ne!(routing_key(&other_options), base);
    }
}
