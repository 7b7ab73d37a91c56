//! What a workload run produced, and how it becomes the end-to-end metrics.

use crate::stats;

/// Percentile reported as the latency tail.
pub const TAIL_PCT: usize = 95;

/// The timed phase of one workload run.
#[derive(Clone, Debug, Default)]
pub struct Measured {
    /// Whole passes over the workload's inputs (plan replays, summed over
    /// clients, for the service workload).
    pub passes: usize,
    /// Wall-clock seconds of the timed passes.
    pub seconds: f64,
    /// Latency of every timed operation, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that failed, were refused or were shed.
    pub failed: usize,
    /// Operations answered correctly within the workload's latency limit.
    pub within_slo: usize,
    /// Full-enumeration verdicts that blamed the injected line.
    pub detected: usize,
    /// Full-enumeration verdicts checked for detection.
    pub detect_total: usize,
    /// Correctness violations, one line each.
    pub mismatches: Vec<String>,
}

impl Measured {
    /// Counts one timed operation: its latency and its outcome.
    pub fn record(&mut self, latency_ms: f64, ok: bool, slo_ms: f64) {
        self.latencies_ms.push(latency_ms);
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        } else if latency_ms <= slo_ms {
            self.within_slo += 1;
        }
    }

    /// Adds another run's counts and mismatches (not its timings).
    pub fn add_counts(&mut self, other: Measured) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.within_slo += other.within_slo;
        self.detected += other.detected;
        self.detect_total += other.detect_total;
        self.mismatches.extend(other.mismatches);
    }

    /// Whether the run may stop: at least two passes (so a report can be
    /// compared with its previous pass) and `min_samples` operations.
    pub fn enough(&self, min_samples: usize) -> bool {
        self.passes >= 2 && self.latencies_ms.len() >= min_samples
    }
}

/// A metric value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of a run. `setup_s` is the median of the
/// repeated set-ups; throughput, latencies and ratios count every timed
/// operation.
pub fn end_to_end(measured: &Measured, setup_s: &[f64], rss_mb: f64) -> Vec<Metric> {
    let sorted = stats::sorted(&measured.latencies_ms);
    let attempted = measured.attempted as f64;
    vec![
        Metric {
            name: "setup_s",
            value: stats::median(setup_s),
            unit: "s",
        },
        Metric {
            name: "verdicts_per_s",
            value: stats::ratio(measured.latencies_ms.len() as f64, measured.seconds),
            unit: "1/s",
        },
        Metric {
            name: "latency_p50_ms",
            value: stats::percentile(&sorted, 50),
            unit: "ms",
        },
        Metric {
            name: "latency_p95_ms",
            value: stats::percentile(&sorted, TAIL_PCT),
            unit: "ms",
        },
        Metric {
            name: "detect_rate",
            value: stats::ratio(measured.detected as f64, measured.detect_total as f64),
            unit: "ratio",
        },
        Metric {
            name: "within_slo",
            value: stats::ratio(measured.within_slo as f64, attempted),
            unit: "ratio",
        },
        Metric {
            name: "peak_rss_mb",
            value: rss_mb,
            unit: "MB",
        },
    ]
}

/// How much slower the traced loop ran than the untraced one, in percent
/// of the untraced mean latency.
pub fn overhead_pct(untraced: &Measured, traced: &Measured) -> f64 {
    let mean = |m: &Measured| stats::mean(&m.latencies_ms);
    100.0 * (mean(traced) / mean(untraced) - 1.0)
}

/// Failed operations over attempted ones (reported beside the JSON result;
/// it is 0 on a healthy build, so it is not a bounded metric).
pub fn error_rate(measured: &Measured) -> f64 {
    stats::ratio(measured.failed as f64, measured.attempted as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_miss_the_slo_and_count_as_errors() {
        let mut m = Measured {
            passes: 2,
            seconds: 4.0,
            ..Measured::default()
        };
        for (latency, ok) in [(5.0, true), (20.0, true), (1.0, false), (3.0, true)] {
            m.record(latency, ok, 10.0);
        }
        assert_eq!((m.attempted, m.failed, m.within_slo), (4, 1, 2));
        assert!(m.enough(4) && !m.enough(5));
        assert_eq!(error_rate(&m), 0.25);
        let metrics = end_to_end(&m, &[3.0, 1.0, 2.0], 12.5);
        let get = |name: &str| metrics.iter().find(|x| x.name == name).unwrap().value;
        assert_eq!(get("setup_s"), 2.0);
        assert_eq!(get("verdicts_per_s"), 1.0);
        assert_eq!(get("within_slo"), 0.5);
        assert_eq!(get("latency_p50_ms"), 3.0);
        assert_eq!(get("latency_p95_ms"), 20.0);
        assert_eq!(get("peak_rss_mb"), 12.5);
        let slower = Measured {
            latencies_ms: vec![6.25, 25.0, 1.25, 3.75],
            ..Measured::default()
        };
        assert_eq!(overhead_pct(&m, &slower), 25.0);
    }

    #[test]
    fn one_pass_is_not_enough() {
        let mut m = Measured {
            passes: 1,
            ..Measured::default()
        };
        m.record(1.0, true, 10.0);
        assert!(!m.enough(1));
        m.passes = 2;
        assert!(m.enough(1));
    }
}
