//! The daemon's counter registry: every counter the `stats`, `metrics` and
//! `health` endpoints expose is one row of [`ROWS`].
//!
//! A row names its `stats` section and key, its Prometheus sample (name,
//! optional label and kind) and where its value comes from: an atomic the
//! registry owns ([`Own`]), a per-solve total folded from each job's
//! [`LocalizerStats`], or a read of the cache, store or queue. `stats` and
//! `metrics` are loops over the same table, so the two can never disagree
//! on a name or a value; adding a counter means adding one row (plus, for
//! an owned atomic, its [`Own`] variant and the line that bumps it).

use crate::cache::CacheStats;
use crate::json::Json;
use crate::queue::JobQueue;
use crate::server::QueuedJob;
use bugassist::LocalizerStats;
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use store::StoreStats;

/// Values the server keeps itself, one atomic each.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Own {
    LocalizeRequests,
    ReviseRequests,
    /// Revise requests whose delta-prepare reused the pre-edit bit-blast.
    ReviseReuses,
    /// Revise requests answered from a recorded report, without solving.
    ReviseSolveSkips,
    BatchRequests,
    /// Inputs of any op answered from a recorded report, without solving.
    ReportReplays,
    ErrorResponses,
    /// Deadline jobs rejected at admission.
    JobsShed,
    /// Jobs whose deadline expired while queued.
    JobsExpired,
    /// EWMA of job execution wall-clock, feeding admission control.
    AvgExecMs,
    /// Worker panics converted into `internal_error` responses.
    WorkerPanics,
    AnalyzeRequests,
}

impl Own {
    /// One past the last variant.
    const COUNT: usize = Own::AnalyzeRequests as usize + 1;
}

/// How a row renders: a Prometheus counter or gauge with its sample name
/// (labels inline), or a `stats`-only flag (a 0/1 value shown as a JSON
/// bool).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Kind {
    Counter(&'static str),
    Gauge(&'static str),
    Flag,
}

/// Where a row's value comes from.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Source {
    Owned(Own),
    /// Summed over every solved job's stats.
    Total(fn(&LocalizerStats) -> u64),
    /// Maximum over every solved job's stats.
    Peak(fn(&LocalizerStats) -> u64),
    /// Read from the live cache, store or queue.
    Read(fn(&View) -> u64),
}

/// One registry row: `stats` section and key, rendering, source.
#[derive(Debug)]
pub(crate) struct Row {
    section: &'static str,
    key: &'static str,
    kind: Kind,
    source: Source,
}

const fn row(section: &'static str, key: &'static str, kind: Kind, source: Source) -> Row {
    Row {
        section,
        key,
        kind,
        source,
    }
}

use Kind::{Counter, Flag, Gauge};
use Own::*;
use Source::{Owned, Peak, Read, Total};

/// Every counter, in `stats` order. Metric samples of one family are
/// grouped under its first row when rendered.
#[rustfmt::skip]
static ROWS: &[Row] = &[
    row("requests", "localize", Counter(r#"bugassist_requests_total{op="localize"}"#), Owned(LocalizeRequests)),
    row("requests", "revise", Counter(r#"bugassist_requests_total{op="revise"}"#), Owned(ReviseRequests)),
    row("requests", "revise_reuses", Counter("bugassist_revise_reuses_total"), Owned(ReviseReuses)),
    row("requests", "revise_solve_skips", Counter("bugassist_revise_solve_skips_total"), Owned(ReviseSolveSkips)),
    row("requests", "batch", Counter(r#"bugassist_requests_total{op="batch"}"#), Owned(BatchRequests)),
    row("requests", "report_replays", Counter("bugassist_report_replays_total"), Owned(ReportReplays)),
    row("requests", "errors", Counter("bugassist_error_responses_total"), Owned(ErrorResponses)),
    row("cache", "hits", Counter("bugassist_cache_hits_total"), Read(|v| v.cache.hits)),
    row("cache", "misses", Counter("bugassist_cache_misses_total"), Read(|v| v.cache.misses)),
    row("cache", "evictions", Counter("bugassist_cache_evictions_total"), Read(|v| v.cache.evictions)),
    row("cache", "poisoned", Counter("bugassist_cache_poisoned_total"), Read(|v| v.cache.poisoned)),
    row("cache", "entries", Gauge("bugassist_cache_entries"), Read(|v| v.cache.entries as u64)),
    row("cache", "capacity", Gauge("bugassist_cache_capacity"), Read(|v| v.cache_capacity as u64)),
    row("queue", "capacity", Gauge("bugassist_queue_capacity"), Read(|v| v.queue.capacity() as u64)),
    row("queue", "depth", Gauge("bugassist_queue_depth"), Read(|v| v.queue.depth() as u64)),
    row("queue", "enqueued", Counter("bugassist_queue_enqueued_total"), Read(|v| v.queue.enqueued())),
    row("queue", "shed", Counter("bugassist_jobs_shed_total"), Owned(JobsShed)),
    row("queue", "expired", Counter("bugassist_jobs_expired_total"), Owned(JobsExpired)),
    row("queue", "avg_exec_ms", Gauge("bugassist_queue_avg_exec_ms"), Owned(AvgExecMs)),
    row("queue", "active_lanes", Gauge("bugassist_fair_queue_active_lanes"), Read(|v| v.queue.active_lanes() as u64)),
    row("queue", "max_lane_depth", Gauge("bugassist_fair_queue_max_lane_depth"), Read(|v| v.queue.max_lane_depth() as u64)),
    row("queue", "fair_share", Gauge("bugassist_fair_queue_fair_share"), Read(|v| v.queue.fair_share() as u64)),
    row("robustness", "worker_panics", Counter("bugassist_worker_panics_total"), Owned(WorkerPanics)),
    row("solver", "sat_calls", Counter("bugassist_solver_sat_calls_total"), Total(|s| s.sat_calls)),
    row("solver", "cores", Counter("bugassist_solver_cores_total"), Total(|s| s.cores)),
    row("solver", "reduce_dbs", Counter("bugassist_solver_reduce_dbs_total"), Total(|s| s.reduce_dbs)),
    row("solver", "arena_bytes_peak", Gauge("bugassist_solver_arena_bytes_peak"), Peak(|s| s.arena_bytes)),
    row("formula", "vars_eliminated", Counter("bugassist_formula_vars_eliminated_total"), Total(|s| s.vars_eliminated)),
    row("formula", "clauses_subsumed", Counter("bugassist_formula_clauses_subsumed_total"), Total(|s| s.clauses_subsumed)),
    row("formula", "word_nodes_folded", Counter("bugassist_formula_word_nodes_folded_total"), Total(|s| s.word_nodes_folded)),
    row("formula", "word_cse_hits", Counter("bugassist_formula_word_cse_hits_total"), Total(|s| s.word_cse_hits)),
    row("formula", "bits_narrowed", Counter("bugassist_formula_bits_narrowed_total"), Total(|s| s.bits_narrowed)),
    row("analysis", "analyze_requests", Counter("bugassist_analysis_requests_total"), Owned(AnalyzeRequests)),
    row("analysis", "lines_pruned", Counter("bugassist_analysis_lines_pruned_total"), Total(|s| s.lines_pruned)),
    row("analysis", "lint_warnings", Counter("bugassist_analysis_lint_warnings_total"), Total(|s| s.lint_warnings)),
    row("store", "enabled", Flag, Read(|v| u64::from(v.store_enabled))),
    row("store", "hits", Counter("bugassist_store_hits_total"), Read(|v| v.store.hits)),
    row("store", "misses", Counter("bugassist_store_misses_total"), Read(|v| v.store.misses)),
    row("store", "writes", Counter("bugassist_store_writes_total"), Read(|v| v.store.writes)),
    row("store", "bytes_written", Counter("bugassist_store_bytes_written_total"), Read(|v| v.store.bytes_written)),
    row("store", "write_errors", Counter("bugassist_store_write_errors_total"), Read(|v| v.store.write_errors)),
    row("store", "corrupt_records", Counter("bugassist_store_corrupt_records_total"), Read(|v| v.store.corrupt_records)),
    row("store", "restore_ms", Gauge("bugassist_store_restore_milliseconds"), Read(|v| v.store.restore_ms)),
    row("store", "restored_entries", Gauge("bugassist_store_restored_entries"), Read(|v| v.store.restored_entries)),
];

/// The live state the [`Source::Read`] rows read, captured once per render.
/// The store reads all zeros when no store is configured.
pub(crate) struct View<'a> {
    pub(crate) cache: CacheStats,
    pub(crate) cache_capacity: usize,
    pub(crate) store_enabled: bool,
    pub(crate) store: StoreStats,
    pub(crate) queue: &'a JobQueue<QueuedJob>,
}

/// The registry's atomics: the [`Own`] counters and one cell per row for
/// the per-solve totals.
#[derive(Debug)]
pub(crate) struct Counters {
    own: [AtomicU64; Own::COUNT],
    totals: Vec<AtomicU64>,
}

impl Counters {
    pub(crate) fn new() -> Counters {
        Counters {
            own: std::array::from_fn(|_| AtomicU64::new(0)),
            totals: ROWS.iter().map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub(crate) fn add(&self, counter: Own, n: u64) {
        self.own[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn get(&self, counter: Own) -> u64 {
        self.own[counter as usize].load(Ordering::Relaxed)
    }

    pub(crate) fn set(&self, counter: Own, value: u64) {
        self.own[counter as usize].store(value, Ordering::Relaxed);
    }

    /// Folds one job's stats into every per-solve row.
    pub(crate) fn add_stats(&self, stats: &LocalizerStats) {
        for (row, cell) in ROWS.iter().zip(&self.totals) {
            match row.source {
                Total(field) => cell.fetch_add(field(stats), Ordering::Relaxed),
                Peak(field) => cell.fetch_max(field(stats), Ordering::Relaxed),
                Owned(_) | Read(_) => continue,
            };
        }
    }

    /// Every row with its current value, in table order.
    fn values<'r>(&'r self, view: &'r View) -> impl Iterator<Item = (&'static Row, u64)> + 'r {
        ROWS.iter().zip(&self.totals).map(|(row, cell)| {
            let value = match row.source {
                Owned(counter) => self.get(counter),
                Total(_) | Peak(_) => cell.load(Ordering::Relaxed),
                Read(read) => read(view),
            };
            (row, value)
        })
    }

    /// The `stats` sections, one JSON object per section in table order.
    pub(crate) fn stats_sections(&self, view: &View) -> Vec<(&'static str, Json)> {
        let mut sections: Vec<(&'static str, Vec<(&str, Json)>)> = Vec::new();
        for (row, value) in self.values(view) {
            let value = match row.kind {
                Flag => Json::Bool(value != 0),
                _ => Json::from(value),
            };
            match sections.last_mut() {
                Some((section, fields)) if *section == row.section => fields.push((row.key, value)),
                _ => sections.push((row.section, vec![(row.key, value)])),
            }
        }
        sections
            .into_iter()
            .map(|(section, fields)| (section, Json::obj(fields)))
            .collect()
    }

    /// Appends every counter and gauge row to a Prometheus exposition.
    pub(crate) fn write_metrics(&self, view: &View, out: &mut Exposition) {
        for (row, value) in self.values(view) {
            match row.kind {
                Counter(name) => out.sample(name, "counter", value),
                Gauge(name) => out.sample(name, "gauge", value),
                Flag => {}
            }
        }
    }
}

/// A Prometheus text exposition: each metric family gets one `# TYPE`
/// line followed by all of its samples, in order of first appearance.
#[derive(Debug, Default)]
pub(crate) struct Exposition {
    families: Vec<(String, String)>,
}

impl Exposition {
    /// Adds one sample. `name` may carry labels (`family{label="v"}`);
    /// the family's kind is the one its first sample declared.
    pub(crate) fn sample(&mut self, name: &str, kind: &str, value: impl fmt::Display) {
        let family = name.split('{').next().unwrap_or(name);
        let at = match self.families.iter().position(|(f, _)| f == family) {
            Some(at) => at,
            None => {
                let header = format!("# TYPE {family} {kind}\n");
                self.families.push((family.to_string(), header));
                self.families.len() - 1
            }
        };
        let _ = writeln!(self.families[at].1, "{name} {value}");
    }

    /// The exposition text.
    pub(crate) fn finish(self) -> String {
        self.families.into_iter().map(|(_, text)| text).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A row added out of place would split its `stats` section in two or
    /// repeat a key or a sample.
    #[test]
    fn rows_keep_sections_contiguous_and_names_unique() {
        let mut closed: Vec<&str> = Vec::new();
        for (i, row) in ROWS.iter().enumerate() {
            if i > 0 && ROWS[i - 1].section != row.section {
                closed.push(ROWS[i - 1].section);
            }
            assert!(!closed.contains(&row.section), "{} split", row.section);
            for other in &ROWS[..i] {
                assert!(
                    (other.section, other.key) != (row.section, row.key),
                    "{}.{} twice",
                    row.section,
                    row.key
                );
                if let (Counter(a) | Gauge(a), Counter(b) | Gauge(b)) = (other.kind, row.kind) {
                    assert_ne!(a, b, "sample {a} twice");
                }
            }
        }
    }
}
