//! The localization daemon: `TcpListener`, connection threads, a fixed
//! worker pool behind the bounded job queue, and graceful shutdown.
//!
//! ```text
//!  clients ──TCP──▶ acceptor ──▶ connection threads (1/conn, read lines)
//!                                     │ health/stats/metrics/analyze/shutdown:
//!                                     │   answered inline
//!                                     ▼ localize/batch/revise
//!                               JobQueue (bounded, Mutex+Condvar)  ◀─ backpressure
//!                                     ▼
//!                               worker pool (N threads)
//!                                     │ prepare: memory ─miss─▶ revise with its
//!                                     │   pre-edit entry in memory: derive
//!                                     │   (relabel-reuse or rebuild); else
//!                                     │   store ─miss─▶ cold build
//!                                     │ replay: inputs with a report recorded
//!                                     │   on the entry answer from it; the
//!                                     │   rest go to Localizer::localize_batch
//!                                     ▼
//!                               reply channel ──▶ connection thread ──▶ client
//! ```
//!
//! * **One response line per request line**, written by the connection's own
//!   thread — responses to one connection are never interleaved, whatever
//!   the worker pool is doing.
//! * **Backpressure**: when a client's queue lane holds its fair share of
//!   `queue_capacity` jobs, the connection thread blocks in
//!   [`JobQueue::push`] and stops reading its socket; the kernel's TCP
//!   window does the rest.
//! * **Graceful shutdown** (the `shutdown` op or [`Server::shutdown`]):
//!   the queue closes, workers drain every accepted job, open sockets are
//!   shut down to unblock readers, and every thread is joined — no accepted
//!   request is ever dropped without a response.

use crate::cache::{BuildError, PreparedCache, PreparedEntry};
use crate::counters::{Counters, Exposition, Own, View};
use crate::faults::FaultPlan;
use crate::json::Json;
use crate::persist;
use crate::protocol::{
    parse_request, ranked_to_json, report_to_json, stats_to_json, Envelope, Job, Request,
};
use crate::queue::{JobQueue, TryPushError};
use bugassist::{
    Budget, LocalizationReport, LocalizeError, Localizer, LocalizerStats, RankedReport,
};
use minic::Program;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Address to bind, e.g. `127.0.0.1:0` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads executing localization jobs.
    pub workers: usize,
    /// Capacity of the prepared-localizer cache, in entries.
    pub cache_capacity: usize,
    /// Bound of the job queue; pushes beyond it block (backpressure).
    pub queue_capacity: usize,
    /// Deadline applied to jobs that don't carry their own `deadline_ms`.
    /// `None` (the default) keeps such jobs unbudgeted — the legacy
    /// blocking-backpressure behaviour.
    pub default_deadline_ms: Option<u64>,
    /// Upper clamp on any job's deadline; a client asking for more gets
    /// this much. `None` = no clamp.
    pub max_deadline_ms: Option<u64>,
    /// Conflict cap handed to every budgeted solve (per MAX-SAT solve, i.e.
    /// per rank of a localization). `None` = unlimited.
    pub conflict_cap: Option<u64>,
    /// Maximum accepted request-line length in bytes; longer lines get a
    /// structured `request_too_large` error and the connection is closed.
    /// Jobs ship whole programs inline, so the default (1 MiB) is generous.
    pub max_request_bytes: usize,
    /// Socket read timeout per connection. `None` (default) lets idle
    /// clients sit forever; set it to bound how long a wedged or trickling
    /// client can pin a connection thread.
    pub read_timeout_ms: Option<u64>,
    /// Socket write timeout per connection: bounds how long a client that
    /// stopped draining its socket can block a response write.
    pub write_timeout_ms: Option<u64>,
    /// Deterministic fault-injection plan (chaos testing); see
    /// [`crate::faults`]. `None` (the default, and all `serve` ever uses)
    /// skips every hook.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Directory of the persistent prepared-formula store (`crates/store`).
    /// `None` (the default) disables the disk tier entirely. When set, the
    /// daemon restores every valid record into the in-memory cache on boot
    /// and writes every fresh build through asynchronously.
    pub store_dir: Option<String>,
    /// Whether boot eagerly restores every store record into the in-memory
    /// cache (the default). With `false` the disk tier is consulted lazily,
    /// per request — a restarted daemon's first hit for a previously-seen
    /// program then answers with `tier:"store"` (the `serve --no-restore`
    /// setting); large stores also boot faster this way.
    pub restore_on_boot: bool,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            cache_capacity: 64,
            queue_capacity: 2 * workers,
            default_deadline_ms: None,
            max_deadline_ms: None,
            conflict_cap: None,
            max_request_bytes: 1 << 20,
            read_timeout_ms: None,
            write_timeout_ms: None,
            fault_plan: None,
            store_dir: None,
            restore_on_boot: true,
        }
    }
}

/// The most recently completed job, surfaced by the stats endpoint.
#[derive(Clone, Debug)]
struct LastJob {
    op: &'static str,
    cache: &'static str,
    /// Delta classification of the preparation (revise jobs; "-" otherwise).
    delta: &'static str,
    build_ms: u128,
    stats: LocalizerStats,
}

/// How [`ServerState::prepare`] obtained a job's prepared entry.
struct Prepared {
    entry: Arc<PreparedEntry>,
    /// Found in memory, or built by a concurrent request for the same key.
    hit: bool,
    /// The tier that produced the entry: `"memory"`, `"store"` or `"built"`.
    tier: &'static str,
    /// Milliseconds this request spent building or deriving the entry.
    build_ms: u128,
    /// The revise delta label (`"-"` for localize and batch).
    delta: &'static str,
    /// Whether a revise reused the pre-edit bit-blasted preparation.
    reused: bool,
}

/// One job's solver stats: the per-localizer constants (formula,
/// word-level and static-analysis counters) of its first solved report plus
/// the per-call counters of every solved report. Replayed reports did no
/// solver work and are left out, so a job that solved nothing folds to
/// zeros.
fn solved_stats(solved: &[LocalizationReport]) -> LocalizerStats {
    let Some((first, rest)) = solved.split_first() else {
        return LocalizerStats::default();
    };
    let mut merged = first.stats;
    for report in rest {
        merged.maxsat_calls += report.stats.maxsat_calls;
        merged.sat_calls += report.stats.sat_calls;
        merged.cores += report.stats.cores;
        merged.reduce_dbs += report.stats.reduce_dbs;
        merged.arena_bytes = merged.arena_bytes.max(report.stats.arena_bytes);
        merged.elapsed_ms += report.stats.elapsed_ms;
    }
    merged
}

/// The machine-readable `kind` of a localizer error: a rejected program is
/// a type or lint error by its diagnostic's kind.
fn localize_error_kind(error: &LocalizeError) -> &'static str {
    match error {
        LocalizeError::Rejected(d) if d.kind == analysis::DiagnosticKind::Type => "type_error",
        LocalizeError::Rejected(_) => "lint_error",
        LocalizeError::Encode(_) => "encode_error",
        LocalizeError::ArityMismatch { .. } => "arity_mismatch",
    }
}

impl From<LocalizeError> for BuildError {
    /// A failed localizer build: its kind, and the message after the kind
    /// in words (`type error: …`).
    fn from(error: LocalizeError) -> BuildError {
        let kind = localize_error_kind(&error);
        BuildError {
            kind,
            message: format!("{}: {error}", kind.replace('_', " ")),
        }
    }
}

/// Which queued operation a job performs.
#[derive(Clone, Copy, Debug)]
enum JobKind {
    /// One failing input, one report.
    Localize,
    /// Many failing inputs, one merged ranking.
    Batch,
    /// One failing input over an edited program, delta-prepared against the
    /// cached pre-edit entry.
    Revise {
        /// Cache key of the pre-edit entry.
        prev_key: u64,
    },
}

/// One queued localization job plus the channel its response goes back on.
#[derive(Debug)]
pub(crate) struct QueuedJob {
    id: u64,
    kind: JobKind,
    job: Job,
    /// Absolute wall-clock deadline (admission time + effective
    /// `deadline_ms`), `None` for unbudgeted jobs. Checked again at
    /// dequeue: a job whose deadline passed while queued is answered with
    /// `deadline_exceeded` instead of solved.
    deadline: Option<Instant>,
    reply: mpsc::Sender<String>,
}

/// What the write-through channel carries: the cache key and the freshly
/// built entry (encoding happens on the writer thread, off the request
/// path).
type StoreWrite = (u64, Arc<PreparedEntry>);

#[derive(Debug)]
struct ServerState {
    cache: PreparedCache,
    /// The disk-backed second cache tier; `None` when no `store_dir` was
    /// configured.
    store: Option<Arc<store::Store>>,
    /// Feeds freshly built entries to the asynchronous write-through
    /// thread. Shutdown drops the sender so the writer drains its backlog
    /// and exits.
    store_writer: Mutex<Option<mpsc::Sender<StoreWrite>>>,
    queue: JobQueue<QueuedJob>,
    started: Instant,
    shutdown: AtomicBool,
    /// The bound address, so shutdown can wake the blocking accept loop
    /// with a throwaway connection.
    local_addr: SocketAddr,
    workers: usize,
    /// Budget / robustness knobs, copied from the [`ServiceConfig`].
    default_deadline_ms: Option<u64>,
    max_deadline_ms: Option<u64>,
    conflict_cap: Option<u64>,
    max_request_bytes: usize,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    faults: Option<Arc<FaultPlan>>,
    /// Every counter `stats`, `metrics` and `health` expose.
    counters: Counters,
    last_job: Mutex<Option<LastJob>>,
    /// Number of live connection threads, with a condvar for shutdown to
    /// wait on (connection threads are detached, never joined).
    connections: Mutex<usize>,
    connections_done: Condvar,
    /// Reader halves of open connections, so shutdown can unblock them.
    streams: Mutex<Vec<(u64, TcpStream)>>,
}

impl ServerState {
    /// Starts the graceful shutdown sequence: flag set, queue closed (the
    /// workers drain what was accepted), acceptor woken out of its blocking
    /// `accept` by a throwaway connection. Idempotent; used by both the
    /// wire `shutdown` op and [`Server::trigger_shutdown`].
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
        let _ = TcpStream::connect(self.local_addr);
    }

    fn error_line(&self, id: u64, kind: &'static str, message: impl std::fmt::Display) -> String {
        self.counters.add(Own::ErrorResponses, 1);
        Json::obj(vec![
            ("id", Json::from(id)),
            ("ok", Json::Bool(false)),
            ("kind", Json::str(kind)),
            ("error", Json::str(message.to_string())),
        ])
        .to_string()
    }

    /// The live state the registry's read rows sample.
    fn view(&self) -> View<'_> {
        View {
            cache: self.cache.stats(),
            cache_capacity: self.cache.capacity(),
            store_enabled: self.store.is_some(),
            store: self.store.as_ref().map(|s| s.stats()).unwrap_or_default(),
            queue: &self.queue,
        }
    }

    /// The `health` wire response. Beyond liveness it carries the load
    /// signals a load balancer or operator reads to spot a struggling
    /// daemon — queue depth/capacity, active fair-queue lanes, shed/expired
    /// totals and the shed *rate* (sheds per admission attempt) — plus the
    /// store tier's status so a restarted daemon can be seen coming back
    /// warm. The shape is pinned by
    /// `health_reports_queue_shed_and_store_status`.
    fn health_line(&self, id: u64) -> String {
        let view = self.view();
        let shed = self.counters.get(Own::JobsShed);
        let attempts = view.queue.enqueued() + shed;
        let shed_rate = if attempts == 0 {
            0.0
        } else {
            shed as f64 / attempts as f64
        };
        Json::obj(vec![
            ("id", Json::from(id)),
            ("ok", Json::Bool(true)),
            ("op", Json::str("health")),
            ("status", Json::str("ok")),
            ("uptime_ms", Json::from(self.started.elapsed().as_millis())),
            ("workers", Json::from(self.workers)),
            ("queue_depth", Json::from(view.queue.depth())),
            ("queue_capacity", Json::from(view.queue.capacity())),
            ("active_lanes", Json::from(view.queue.active_lanes())),
            ("shed", Json::from(shed)),
            ("expired", Json::from(self.counters.get(Own::JobsExpired))),
            ("shed_rate", Json::Float(shed_rate)),
            (
                "store",
                Json::obj(vec![
                    ("enabled", Json::Bool(view.store_enabled)),
                    ("restored_entries", Json::from(view.store.restored_entries)),
                    ("restore_ms", Json::from(view.store.restore_ms)),
                    ("writes", Json::from(view.store.writes)),
                ]),
            ),
        ])
        .to_string()
    }

    fn stats_line(&self, id: u64) -> String {
        let last_job = match &*self.last_job.lock().expect("last_job poisoned") {
            None => Json::Null,
            Some(last) => {
                let Json::Obj(stats) = stats_to_json(&last.stats) else {
                    unreachable!("stats_to_json renders an object")
                };
                let head = [
                    ("op", Json::str(last.op)),
                    ("cache", Json::str(last.cache)),
                    ("delta", Json::str(last.delta)),
                    ("build_ms", Json::from(last.build_ms)),
                ];
                Json::Obj(
                    head.into_iter()
                        .map(|(key, value)| (key.to_string(), value))
                        .chain(stats)
                        .collect(),
                )
            }
        };
        let mut fields = vec![
            ("id", Json::from(id)),
            ("ok", Json::Bool(true)),
            ("op", Json::str("stats")),
            ("uptime_ms", Json::from(self.started.elapsed().as_millis())),
            ("version", Json::str(env!("CARGO_PKG_VERSION"))),
        ];
        fields.extend(self.counters.stats_sections(&self.view()));
        fields.push(("last_job", last_job));
        Json::obj(fields).to_string()
    }

    /// The registry's counters and gauges in the Prometheus text exposition
    /// format (one `# TYPE` line per metric, `_total`-suffixed counters,
    /// unsuffixed gauges), after the build-info and uptime gauges, shipped
    /// back as the response's `text` field.
    fn metrics_line(&self, id: u64) -> String {
        let mut out = Exposition::default();
        let build_info = format!(
            "bugassist_build_info{{version=\"{}\"}}",
            env!("CARGO_PKG_VERSION")
        );
        out.sample(&build_info, "gauge", 1);
        let uptime = self.started.elapsed().as_millis() as f64 / 1000.0;
        out.sample("bugassist_uptime_seconds", "gauge", format!("{uptime:.3}"));
        self.counters.write_metrics(&self.view(), &mut out);
        Json::obj(vec![
            ("id", Json::from(id)),
            ("ok", Json::Bool(true)),
            ("op", Json::str("metrics")),
            ("text", Json::str(out.finish())),
        ])
        .to_string()
    }

    /// Answers the `analyze` op: parse, lint, ship the structured
    /// diagnostics. Runs inline on the connection thread (like `health`
    /// and `stats`) — linting is pure dataflow over the AST, orders of
    /// magnitude cheaper than any encoding, so it never queues behind
    /// localization jobs.
    fn analyze_line(&self, id: u64, program: &str, width: usize) -> String {
        let program = match minic::parse_program(program) {
            Ok(program) => program,
            Err(e) => return self.error_line(id, "parse_error", format!("parse error: {e}")),
        };
        self.counters.add(Own::AnalyzeRequests, 1);
        let diagnostics = analysis::lint_program(&program, width);
        // Lint warnings observed here join the per-solve totals.
        self.counters.add_stats(&LocalizerStats {
            lint_warnings: diagnostics
                .iter()
                .filter(|d| d.severity == analysis::Severity::Warning)
                .count() as u64,
            ..LocalizerStats::default()
        });
        let items: Vec<Json> = diagnostics
            .iter()
            .map(|d| {
                Json::obj(vec![
                    ("line", Json::from(u64::from(d.line.number()))),
                    ("kind", Json::str(d.kind.as_str())),
                    ("severity", Json::str(d.severity.as_str())),
                    ("message", Json::str(d.message.clone())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("id", Json::from(id)),
            ("ok", Json::Bool(true)),
            ("op", Json::str("analyze")),
            ("width", Json::from(width)),
            ("diagnostics", Json::Arr(items)),
        ])
        .to_string()
    }

    /// Fetches the prepared entry for a job, along the one route every job
    /// takes. Memory first. On a miss, a revise whose pre-edit entry
    /// (`prev_key`) is in memory derives from it
    /// ([`Localizer::reprepare_classified`]), reusing the preparation
    /// whenever the edit provably cannot change it. Every other miss tries
    /// the persistent store, then a cold build ([`Localizer::new`], which
    /// checks the program: a hit means a structurally identical AST already
    /// checked clean). A derive whose edit only relabels lines records the
    /// pre-edit report, remapped, on the new entry, for the replay step to
    /// serve. The answer is identical on every route; only the cost differs.
    fn prepare(
        &self,
        job: &Job,
        program: &Program,
        key: u64,
        prev_key: Option<u64>,
    ) -> Result<Prepared, BuildError> {
        let revise = prev_key.is_some();
        let prev = prev_key.and_then(|prev_key| self.cache.lookup(prev_key));
        // The defaults describe a hit: nothing was built, and a revise
        // reused everything.
        let mut tier = "built";
        let mut build_ms = 0;
        let (mut delta, mut reused) = if revise {
            ("cache_hit", true)
        } else {
            ("-", false)
        };
        let (result, hit) = self.cache.get_or_build(key, || {
            if let Some(prev) = &prev {
                let started = Instant::now();
                let segments = minic::segment_program(program);
                let class = minic::classify_edit(&prev.segments, &segments);
                // The core re-checks every edit that changes structure, so
                // a revise fails exactly like a cold build would.
                let (localizer, how, map) = prev.localizer.reprepare_classified(
                    &class,
                    program,
                    &job.entry,
                    &job.bmc_spec(),
                    &job.localizer_config(),
                )?;
                (delta, reused) = (how.label(), how.reused());
                let input = &job.inputs[0];
                let remapped = map.and_then(|map| {
                    let report = prev.cached_report(input)?;
                    Some(localizer.remap_report(&report, &map))
                });
                let localizer = Arc::new(localizer);
                let entry = PreparedEntry::with_segments(program.clone(), segments, job, localizer);
                if let Some(report) = remapped {
                    entry.record_report(input, &report);
                }
                build_ms = started.elapsed().as_millis();
                return Ok(entry);
            }
            if revise {
                // The pre-edit entry is gone (evicted, never built, or a
                // bogus key): a revision of nothing is a plain miss.
                (delta, reused) = ("prev_missing", false);
            }
            // A record written through by an earlier build, possibly of a
            // previous daemon process.
            if let Some(store) = &self.store {
                let fingerprint = job.options_fingerprint();
                let restored = store
                    .load(key, fingerprint)
                    .and_then(|payload| persist::decode_record(store, key, fingerprint, &payload));
                if let Some(entry) = restored {
                    tier = "store";
                    return Ok(entry);
                }
            }
            let started = Instant::now();
            if let Some(faults) = &self.faults {
                faults.build_start();
            }
            let localizer = Localizer::new(
                program,
                &job.entry,
                &job.bmc_spec(),
                &job.localizer_config(),
            )?;
            let entry = PreparedEntry::new(program.clone(), job, Arc::new(localizer));
            build_ms = started.elapsed().as_millis();
            Ok(entry)
        });
        Ok(Prepared {
            tier: if hit { "memory" } else { tier },
            entry: result?,
            hit,
            build_ms,
            delta,
            reused,
        })
    }

    /// Executes one queued job and returns its response line.
    fn execute(&self, queued: &QueuedJob) -> String {
        if let Some(faults) = &self.faults {
            faults.execute_start();
        }
        let op: &'static str = match queued.kind {
            JobKind::Localize => "localize",
            JobKind::Batch => "batch",
            JobKind::Revise { .. } => "revise",
        };
        let program = match minic::parse_program(&queued.job.program) {
            Ok(program) => program,
            Err(e) => {
                return self.error_line(queued.id, "parse_error", format!("parse error: {e}"))
            }
        };
        // Concrete pre-flight: run each failing input through the cheap
        // interpreter before paying the symbolic encoding. Any genuine
        // violation (assertion, bounds, wrong return) proceeds — that is
        // the bug being localized — but a *step-budget* stop means a
        // runaway loop or recursion the encoder would choke on just as
        // badly, so it surfaces as a structured error instead.
        let interp_config = bmc::InterpConfig {
            width: queued.job.options.width,
            ..bmc::InterpConfig::default()
        };
        for input in &queued.job.inputs {
            let outcome = bmc::run_program(&program, &queued.job.entry, input, &[], interp_config);
            if let Some(violation) = outcome.violation {
                if violation.kind == bmc::ViolationKind::StepLimit {
                    return self.error_line(
                        queued.id,
                        "step_budget_exhausted",
                        format!(
                            "input {:?} exhausted the interpreter step budget \
                             ({} steps) at {}: the program likely diverges",
                            input, interp_config.max_steps, violation.line
                        ),
                    );
                }
            }
        }
        let key = queued.job.cache_key(&program);
        let prev_key = match queued.kind {
            JobKind::Revise { prev_key } => Some(prev_key),
            _ => None,
        };
        let Prepared {
            entry,
            hit,
            tier,
            build_ms,
            delta,
            reused,
        } = match self.prepare(&queued.job, &program, key, prev_key) {
            Ok(prepared) => prepared,
            Err(e) => return self.error_line(queued.id, e.kind, e.message),
        };
        // Asynchronous write-through, the store's only writer: a freshly
        // built entry (cold, or derived by a revise; never one that was
        // served from memory or from the store itself) goes to the writer
        // thread; the request path never touches the disk. Failed or
        // panicked builds return above, so only successful entries can ever
        // be persisted.
        if tier == "built" {
            if let Some(tx) = &*self.store_writer.lock().expect("store_writer poisoned") {
                let _ = tx.send((key, Arc::clone(&entry)));
            }
        }
        let cache: &'static str = if hit { "hit" } else { "miss" };
        // The job's remaining budget: whatever is left of its wall-clock
        // deadline (build time already counted — the deadline is absolute)
        // plus the server-wide conflict cap.
        let budget = Budget {
            deadline: queued.deadline,
            conflict_cap: self.conflict_cap,
        };

        // The replay step, whichever tier served the entry: an input with a
        // report recorded on it is answered from that report, which is
        // complete and so satisfies any budget. Only the rest are solved,
        // and their complete reports are recorded.
        let inputs = &queued.job.inputs;
        let recorded: Vec<Option<LocalizationReport>> = inputs
            .iter()
            .map(|input| entry.cached_report(input))
            .collect();
        let unrecorded: Vec<Vec<i64>> = inputs
            .iter()
            .zip(&recorded)
            .filter(|(_, report)| report.is_none())
            .map(|(input, _)| input.clone())
            .collect();
        let replays = (inputs.len() - unrecorded.len()) as u64;
        let localizer = &entry.localizer;
        let solved = match unrecorded.as_slice() {
            [] => Ok(Vec::new()),
            [input] => localizer.localize_budgeted(input, budget).map(|r| vec![r]),
            many => localizer
                .localize_batch_budgeted(many, budget)
                .map(|ranked| ranked.per_test),
        };
        let solved = match solved {
            Err(e) => return self.error_line(queued.id, localize_error_kind(&e), e),
            Ok(solved) => solved,
        };
        for (input, report) in unrecorded.iter().zip(&solved) {
            entry.record_report(input, report);
        }
        let stats = solved_stats(&solved);
        let mut solved = solved.into_iter();
        let reports: Vec<LocalizationReport> = recorded
            .into_iter()
            .map(|report| {
                report.unwrap_or_else(|| solved.next().expect("one report per unrecorded input"))
            })
            .collect();

        let (payload_key, payload) = match queued.kind {
            JobKind::Batch => {
                self.counters.add(Own::BatchRequests, 1);
                let ranked = RankedReport::from_reports(reports);
                ("ranked", ranked_to_json(&ranked))
            }
            JobKind::Revise { .. } => {
                self.counters.add(Own::ReviseRequests, 1);
                self.counters.add(Own::ReviseReuses, u64::from(reused));
                self.counters.add(Own::ReviseSolveSkips, replays);
                ("report", report_to_json(&reports[0]))
            }
            JobKind::Localize => {
                self.counters.add(Own::LocalizeRequests, 1);
                ("report", report_to_json(&reports[0]))
            }
        };
        self.counters.add(Own::ReportReplays, replays);
        self.counters.add_stats(&stats);
        *self.last_job.lock().expect("last_job poisoned") = Some(LastJob {
            op,
            cache,
            delta,
            build_ms,
            stats,
        });

        let mut pairs = vec![
            ("id", Json::from(queued.id)),
            ("ok", Json::Bool(true)),
            ("op", Json::str(op)),
            ("cache", Json::str(cache)),
            // Which tier satisfied the preparation: "memory", "store" (the
            // disk tier; restart-warm) or "built" (a cold build).
            ("tier", Json::str(tier)),
            ("build_ms", Json::from(build_ms)),
            // The prepared entry's key: clients chain it into the next
            // revise's prev_key.
            ("key", Json::from(key)),
        ];
        if let JobKind::Revise { .. } = queued.kind {
            pairs.push(("delta", Json::str(delta)));
            pairs.push(("reused", Json::Bool(reused)));
        }
        // `false` when the single-input report was replayed rather than
        // enumerated, so its `stats` are the original solve's.
        if !matches!(queued.kind, JobKind::Batch) {
            pairs.push(("solved", Json::Bool(replays == 0)));
        }
        pairs.push((payload_key, payload));
        Json::obj(pairs).to_string()
    }
}

/// Decrements the live-connection count (and unregisters the stream) even
/// if the handler unwinds.
struct ConnectionGuard<'a> {
    state: &'a ServerState,
    conn_id: u64,
}

impl Drop for ConnectionGuard<'_> {
    fn drop(&mut self) {
        self.state
            .streams
            .lock()
            .expect("streams poisoned")
            .retain(|(id, _)| *id != self.conn_id);
        let mut live = self.state.connections.lock().expect("connections poisoned");
        *live -= 1;
        self.state.connections_done.notify_all();
    }
}

/// Admits one job to the bounded queue and waits for the worker pool's
/// response line.
///
/// Two admission regimes, chosen by whether the job has an effective
/// deadline (its own `deadline_ms`, else the server default, clamped to the
/// server max):
///
/// * **No deadline** — the legacy backpressure path: a full queue blocks
///   this connection thread (and, through TCP, the client) until a slot
///   frees.
/// * **Deadline** — the job must *never* block the reader. If the queue is
///   full, or the estimated queue wait (depth × average execution time ÷
///   workers) already eats the whole budget, the job is **shed** with a
///   structured `overloaded` error — the client learns immediately and can
///   retry elsewhere/later, instead of waiting out a deadline that the
///   daemon already knows it will miss.
fn enqueue_and_wait(state: &ServerState, id: u64, kind: JobKind, job: Job) -> String {
    let deadline_ms = match (
        job.deadline_ms.or(state.default_deadline_ms),
        state.max_deadline_ms,
    ) {
        (Some(requested), Some(max)) => Some(requested.min(max)),
        (requested, _) => requested,
    };
    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    // Fair-queue lane: jobs sharing a client_id share a lane; anonymous
    // traffic shares the default lane. (See `queue` module docs.)
    let lane = job.client_id.clone().unwrap_or_default();
    let (reply, receive) = mpsc::channel();
    let queued = QueuedJob {
        id,
        kind,
        job,
        deadline,
        reply,
    };
    let pushed = match deadline_ms {
        None => state
            .queue
            .push(&lane, queued)
            .map_err(|_| state.error_line(id, "shutting_down", "server is shutting down")),
        Some(budget_ms) => {
            // Round-robin serves every active lane once per pass, so a job
            // joining a lane with `d` waiting jobs sits behind roughly
            // `d × active_lanes` pops — never more than the whole queue.
            // With one lane this degrades to the plain depth estimate.
            let lane_depth = state.queue.lane_depth(&lane) as u64;
            let active_lanes = state.queue.active_lanes().max(1) as u64;
            let est_jobs_ahead =
                (lane_depth.saturating_mul(active_lanes)).min(state.queue.depth() as u64);
            let est_wait_ms = est_jobs_ahead.saturating_mul(state.counters.get(Own::AvgExecMs))
                / state.workers.max(1) as u64;
            if est_wait_ms >= budget_ms.max(1) {
                state.counters.add(Own::JobsShed, 1);
                Err(state.error_line(
                    id,
                    "overloaded",
                    format!(
                        "estimated queue wait {est_wait_ms}ms exceeds the job's \
                         {budget_ms}ms deadline; shedding"
                    ),
                ))
            } else {
                state.queue.try_push(&lane, queued).map_err(|e| match e {
                    TryPushError::Full(_) => {
                        state.counters.add(Own::JobsShed, 1);
                        state.error_line(
                            id,
                            "overloaded",
                            "job queue is full; shedding instead of queueing past the deadline",
                        )
                    }
                    TryPushError::Closed(_) => {
                        state.error_line(id, "shutting_down", "server is shutting down")
                    }
                })
            }
        }
    };
    match pushed {
        Err(response) => response,
        Ok(()) => receive
            .recv()
            .unwrap_or_else(|_| state.error_line(id, "internal_error", "worker terminated")),
    }
}

/// One inbound request line, read under a byte cap.
enum LineRead {
    /// A complete line (terminator stripped).
    Line(String),
    /// The line exceeded the cap before its `\n` arrived. The rest of the
    /// connection's input stream is unframed garbage, so the caller answers
    /// `request_too_large` and closes.
    TooLong,
    /// The line's bytes were not UTF-8.
    BadUtf8,
    /// EOF, read timeout, or I/O error: drop the connection.
    Closed,
}

/// Reads one `\n`-terminated line, giving up as soon as more than `cap`
/// bytes accumulate without a terminator. Unlike `BufRead::lines`, a
/// client that streams an endless (or merely huge) line can only ever make
/// the server buffer `cap + BufReader-chunk` bytes.
fn read_capped_line<R: BufRead>(reader: &mut R, cap: usize) -> LineRead {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Err(_) => return LineRead::Closed,
            Ok([]) if buf.is_empty() => return LineRead::Closed,
            // EOF mid-line: surface the partial line (parity with
            // `BufRead::lines`); the response write will fail harmlessly
            // if the peer is really gone.
            Ok([]) => break,
            Ok(chunk) => chunk,
        };
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                buf.extend_from_slice(&chunk[..pos]);
                reader.consume(pos + 1);
                break;
            }
            None => {
                let len = chunk.len();
                buf.extend_from_slice(chunk);
                reader.consume(len);
            }
        }
        if buf.len() > cap {
            return LineRead::TooLong;
        }
    }
    if buf.len() > cap {
        return LineRead::TooLong;
    }
    match String::from_utf8(buf) {
        Ok(line) => LineRead::Line(line),
        Err(_) => LineRead::BadUtf8,
    }
}

fn handle_connection(state: &ServerState, stream: TcpStream, conn_id: u64) {
    let _guard = ConnectionGuard { state, conn_id };
    // Socket timeouts bound how long a wedged peer can pin this thread:
    // a trickling writer trips the read timeout, a non-draining reader
    // trips the write timeout; either way the connection is dropped.
    let _ = stream.set_read_timeout(state.read_timeout);
    let _ = stream.set_write_timeout(state.write_timeout);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let mut reader = BufReader::new(read_half);
    loop {
        let line = match read_capped_line(&mut reader, state.max_request_bytes) {
            LineRead::Closed => break,
            LineRead::TooLong => {
                // The tail of the oversized line is still in flight, so
                // this connection's framing is unrecoverable: answer once,
                // then close.
                let response = state.error_line(
                    0,
                    "request_too_large",
                    format!(
                        "request line exceeds the {}-byte limit",
                        state.max_request_bytes
                    ),
                );
                let _ = writer.write_all(format!("{response}\n").as_bytes());
                break;
            }
            LineRead::BadUtf8 => {
                let response =
                    state.error_line(0, "parse_error", "request line is not valid UTF-8");
                if writer
                    .write_all(format!("{response}\n").as_bytes())
                    .is_err()
                {
                    break;
                }
                continue;
            }
            LineRead::Line(line) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        let mut stop_after_reply = false;
        let response = match parse_request(&line) {
            Err(e) => state.error_line(0, "parse_error", e),
            Ok(Envelope { id, request }) => match request {
                Request::Health => state.health_line(id),
                Request::Stats => state.stats_line(id),
                Request::Metrics => state.metrics_line(id),
                Request::Analyze { program, width } => state.analyze_line(id, &program, width),
                Request::Shutdown => {
                    state.begin_shutdown();
                    stop_after_reply = true;
                    Json::obj(vec![
                        ("id", Json::from(id)),
                        ("ok", Json::Bool(true)),
                        ("op", Json::str("shutdown")),
                    ])
                    .to_string()
                }
                Request::Localize(job) => enqueue_and_wait(state, id, JobKind::Localize, job),
                Request::Revise { job, prev_key } => {
                    enqueue_and_wait(state, id, JobKind::Revise { prev_key }, job)
                }
                Request::Batch(job) => enqueue_and_wait(state, id, JobKind::Batch, job),
            },
        };
        if writer
            .write_all(format!("{response}\n").as_bytes())
            .is_err()
        {
            break;
        }
        if stop_after_reply {
            break;
        }
    }
}

/// A running localization daemon. Dropping the handle without calling
/// [`Server::shutdown`] leaves the daemon running detached.
#[derive(Debug)]
pub struct Server {
    state: Arc<ServerState>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// The asynchronous write-through thread, when a store is configured.
    store_writer: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the worker pool and the acceptor, and returns
    /// immediately.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, or the failure to create the store
    /// directory when `store_dir` is configured.
    pub fn start(config: ServiceConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let store = match &config.store_dir {
            None => None,
            Some(dir) => Some(Arc::new(store::Store::open(dir)?)),
        };
        let state = Arc::new(ServerState {
            cache: PreparedCache::new(config.cache_capacity),
            store: store.clone(),
            store_writer: Mutex::new(None),
            queue: JobQueue::new(config.queue_capacity),
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            local_addr,
            workers,
            default_deadline_ms: config.default_deadline_ms,
            max_deadline_ms: config.max_deadline_ms,
            conflict_cap: config.conflict_cap,
            max_request_bytes: config.max_request_bytes,
            read_timeout: config.read_timeout_ms.map(Duration::from_millis),
            write_timeout: config.write_timeout_ms.map(Duration::from_millis),
            faults: config.fault_plan.clone(),
            counters: Counters::new(),
            last_job: Mutex::new(None),
            connections: Mutex::new(0),
            connections_done: Condvar::new(),
            streams: Mutex::new(Vec::new()),
        });

        // Restore-on-boot: best-effort preload of every valid record into
        // the in-memory cache, so the first request after a restart is a
        // plain cache hit — no rebuild, no bit-blast, byte-identical
        // reports. Corrupt or undecodable records are counted and deleted;
        // nothing on this path can fail the boot. Gated by
        // `restore_on_boot`: with it off, the disk tier is consulted
        // lazily per request instead (`tier:"store"` answers).
        if let Some(store) = store.as_ref().filter(|_| config.restore_on_boot) {
            let restore_started = Instant::now();
            let mut restored = 0u64;
            for (key, fingerprint, payload) in store.scan() {
                if let Some(entry) = persist::decode_record(store, key, fingerprint, &payload) {
                    state.cache.insert(key, Arc::new(entry));
                    restored += 1;
                }
            }
            store.note_restore(restore_started.elapsed().as_millis() as u64, restored);
        }

        // The write-through thread: serializes and persists entries off the
        // request path. Save errors are counted by the store, never
        // surfaced to a client.
        let store_writer_handle = store.as_ref().map(|store| {
            let store = Arc::clone(store);
            let (tx, rx) = mpsc::channel::<(u64, Arc<PreparedEntry>)>();
            *state.store_writer.lock().expect("store_writer poisoned") = Some(tx);
            std::thread::Builder::new()
                .name("service-store-writer".to_string())
                .spawn(move || {
                    while let Ok((key, entry)) = rx.recv() {
                        if let Some(payload) = persist::encode_entry(&entry) {
                            let _ = store.save(key, persist::entry_fingerprint(&entry), &payload);
                        }
                    }
                })
                .expect("spawn store writer")
        });

        let worker_handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|i| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("service-worker-{i}"))
                    .spawn(move || {
                        // Drains the queue even after close: every accepted
                        // job gets a response before the pool exits.
                        while let Some(job) = state.queue.pop() {
                            if let Some(faults) = &state.faults {
                                faults.worker_pickup();
                            }
                            // A deadline that expired while the job sat in
                            // the queue: answer, don't solve. The client's
                            // budget is already gone — spending solver time
                            // on it would only delay jobs that can still
                            // make theirs.
                            let response = if job
                                .deadline
                                .is_some_and(|deadline| Instant::now() >= deadline)
                            {
                                state.counters.add(Own::JobsExpired, 1);
                                state.error_line(
                                    job.id,
                                    "deadline_exceeded",
                                    "deadline expired while the job was queued",
                                )
                            } else {
                                let started = Instant::now();
                                // A panicking job (a solver bug, or an
                                // injected fault) must cost exactly one
                                // response, never the worker thread: catch
                                // the unwind, answer with a structured
                                // `internal_error`, keep serving. Poisoned
                                // cache slots are evicted by the cache's own
                                // catch_unwind (see `cache::get_or_build`).
                                let outcome =
                                    catch_unwind(AssertUnwindSafe(|| state.execute(&job)));
                                let exec_ms = started.elapsed().as_millis() as u64;
                                // EWMA (3:1 old:new) feeding the admission
                                // controller's queue-wait estimate. Races
                                // between workers just blend samples.
                                let old = state.counters.get(Own::AvgExecMs);
                                let avg = if old == 0 {
                                    exec_ms
                                } else {
                                    (3 * old + exec_ms) / 4
                                };
                                state.counters.set(Own::AvgExecMs, avg);
                                match outcome {
                                    Ok(response) => response,
                                    Err(panic) => {
                                        state.counters.add(Own::WorkerPanics, 1);
                                        let message = panic
                                            .downcast_ref::<&str>()
                                            .map(|s| s.to_string())
                                            .or_else(|| panic.downcast_ref::<String>().cloned())
                                            .unwrap_or_else(|| "unknown panic".to_string());
                                        state.error_line(
                                            job.id,
                                            "internal_error",
                                            format!("job execution panicked: {message}"),
                                        )
                                    }
                                }
                            };
                            // A disconnected client is not an error.
                            let _ = job.reply.send(response);
                        }
                    })
                    .expect("spawn worker")
            })
            .collect();

        let acceptor = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("service-acceptor".to_string())
                .spawn(move || {
                    let mut next_conn_id = 0u64;
                    for stream in listener.incoming() {
                        if state.shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else {
                            // Typically fd exhaustion (EMFILE): back off
                            // instead of spinning at 100% CPU until the
                            // in-flight connections release descriptors.
                            std::thread::sleep(std::time::Duration::from_millis(10));
                            continue;
                        };
                        let conn_id = next_conn_id;
                        next_conn_id += 1;
                        if let Ok(clone) = stream.try_clone() {
                            state
                                .streams
                                .lock()
                                .expect("streams poisoned")
                                .push((conn_id, clone));
                        }
                        *state.connections.lock().expect("connections poisoned") += 1;
                        let handler_state = Arc::clone(&state);
                        // Detached: the ConnectionGuard accounts for exit —
                        // and must also run if the thread never starts, or
                        // wait() would count a connection that isn't there.
                        let spawned = std::thread::Builder::new()
                            .name(format!("service-conn-{conn_id}"))
                            .spawn(move || handle_connection(&handler_state, stream, conn_id));
                        if spawned.is_err() {
                            drop(ConnectionGuard {
                                state: &state,
                                conn_id,
                            });
                        }
                    }
                })
                .expect("spawn acceptor")
        };

        Ok(Server {
            state,
            local_addr,
            acceptor: Some(acceptor),
            workers: worker_handles,
            store_writer: store_writer_handle,
        })
    }

    /// The address the daemon is listening on (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Signals shutdown without blocking: closes the queue and wakes the
    /// acceptor. Idempotent; also triggered by the wire `shutdown` op.
    pub fn trigger_shutdown(&self) {
        self.state.begin_shutdown();
    }

    /// Blocks until the daemon has fully stopped: acceptor joined, every
    /// accepted job answered, all connection and worker threads gone.
    /// Call after [`Server::trigger_shutdown`] (or after a client sent the
    /// `shutdown` op — this also waits for that).
    pub fn wait(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            acceptor.join().expect("acceptor panicked");
        }
        // Drain the worker pool FIRST: the queue is closed, so the workers
        // finish every accepted job and every blocked connection thread
        // receives (and writes) its response. Only then unblock the idle
        // connection readers by shutting their sockets — never the other
        // way around, or in-flight requests would lose their responses.
        for worker in self.workers.drain(..) {
            worker.join().expect("worker panicked");
        }
        // The workers are drained, so nothing sends any more: hang up the
        // channel so the writer drains its backlog and exits. Every entry
        // the cache holds is on disk by then — built ones were written
        // through, the rest came from the store.
        *self
            .state
            .store_writer
            .lock()
            .expect("store_writer poisoned") = None;
        if let Some(writer) = self.store_writer.take() {
            writer.join().expect("store writer panicked");
        }
        // The writer has drained; release the store-directory lock so a
        // successor process (or an in-process restart in tests) can claim
        // the directory. Detached connection threads may briefly outlive
        // this, but they never touch the store.
        if let Some(store) = &self.state.store {
            store.unlock();
        }
        for (_, stream) in self.state.streams.lock().expect("streams poisoned").iter() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let mut live = self.state.connections.lock().expect("connections poisoned");
        while *live > 0 {
            live = self
                .state
                .connections_done
                .wait(live)
                .expect("connections poisoned");
        }
        drop(live);
    }

    /// Graceful shutdown: [`Server::trigger_shutdown`] + [`Server::wait`].
    pub fn shutdown(self) {
        self.trigger_shutdown();
        self.wait();
    }
}
