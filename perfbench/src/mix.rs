//! `service_mix`: the in-process daemon (`Server::start` with the default
//! configuration plus a store directory) driven closed loop by two client
//! connections. Each client follows its own seeded request sequence mixing:
//!
//! - repeats of a hot TCAS set, answered from the memory tier;
//! - a tail of pre-stored programs, larger than the cache, answered from
//!   the store tier;
//! - first requests of fresh variants, built cold and written through to
//!   the store asynchronously;
//! - `revise` edits of a hot program: line shifts (relabelled, solve
//!   skipped) and semantic edits (rebuilt and solved).
//!
//! Each client replays its plan once per pass until the run's time is up.
//! Variants are TCAS versions with blank lines prepended: a new cache key,
//! the same answer with every line shifted. Every answer is checked after
//! the run against an in-process `Localizer` report of the same program,
//! shifted by the variant's blank lines.

use crate::catalog::{self, Case, FailingTest, TCAS_SETS};
use crate::report::{Measured, Metric};
use crate::trace::{Recording, Tracer};
use crate::{stats, Args};
use bugassist::{LocalizationReport, Localizer, Suspect};
use minic::ast::Line;
use prng::SplitMix64;
use service::protocol::{canonicalize, report_to_json};
use service::{Client, Job, JobSpec, PreparedEntry, Server, ServiceConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Client connections driving the daemon.
pub const CLIENTS: usize = 2;

/// Programs in the hot set. A TCAS verdict takes 15–85 ms depending on the
/// version, and hot requests are the largest share, so the set is large
/// enough that the seed's choice of versions does not set the median.
pub const HOT: usize = 8;

/// Latency limit of one service answer.
pub const SLO_MS: f64 = 250.0;

/// Directory (under the working directory) holding the daemon's stores.
pub const SCRATCH_DIR: &str = ".perfbench-tmp";

/// What a request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Repeat of a hot program.
    Hot,
    /// A pre-stored tail program.
    Tail,
    /// A never-seen variant.
    Fresh,
    /// `revise` of a hot program by a pure line shift.
    ReviseShift,
    /// `revise` of a hot program into another version.
    ReviseSemantic,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Hot => "service.hot",
            Kind::Tail => "service.tail",
            Kind::Fresh => "service.fresh",
            Kind::ReviseShift => "service.revise_shift",
            Kind::ReviseSemantic => "service.revise_semantic",
        }
    }

    /// Per-layer metric of the kind's median latency.
    fn p50_metric(self) -> &'static str {
        match self {
            Kind::Hot => "service.hot_p50_ms",
            Kind::Tail => "service.tail_p50_ms",
            Kind::Fresh => "service.fresh_p50_ms",
            Kind::ReviseShift => "service.revise_shift_p50_ms",
            Kind::ReviseSemantic => "service.revise_semantic_p50_ms",
        }
    }
}

/// Requests of each kind in one client's pass: 45% hot, 20% tail, 15%
/// fresh and 20% revise. The revises split two line shifts to one semantic
/// edit, the ratio of loadgen's edit-stream scenario; the other shares are
/// assumed (the repository holds no recorded traffic), which is why every
/// kind's latency is also reported on its own. Exact counts per pass keep
/// the mix the same for every seed.
const PASS_MIX: [(Kind, usize); 5] = [
    (Kind::Hot, 27),
    (Kind::Tail, 12),
    (Kind::Fresh, 9),
    (Kind::ReviseShift, 8),
    (Kind::ReviseSemantic, 4),
];

/// A job identity: TCAS case, failing test and blank lines prepended.
pub type JobRef = (usize, usize, usize);

/// The service job for a case's test with `shift` blank lines prepended,
/// with the Table 1 options.
pub fn job(case: &Case, test: &FailingTest, shift: usize) -> Job {
    let mut job = Job::new(
        format!("{}{}", "\n".repeat(shift), case.text),
        case.entry,
        JobSpec::ReturnEquals(test.golden),
        vec![test.input.clone()],
    );
    job.options.width = case.encode.width;
    job.options.unwind = case.encode.unwind;
    job.options.max_inline_depth = case.encode.max_inline_depth;
    job.options.max_suspect_sets = TCAS_SETS;
    job.options.trusted_lines = case.trusted.iter().map(|l| l.0 + shift as u32).collect();
    job
}

/// A daemon, its store directory and the inputs of the request mix.
#[derive(Debug)]
pub struct State {
    server: Option<Server>,
    dir: PathBuf,
    /// The TCAS catalogue of this seed.
    pub cases: Vec<Case>,
    hot: Vec<JobRef>,
    hot_keys: Vec<u64>,
    tail: Vec<JobRef>,
    seed: u64,
}

impl Drop for State {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn scratch_dir(seed: u64) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    PathBuf::from(SCRATCH_DIR).join(format!(
        "store-{}-{seed}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The daemon's configuration: the defaults, with a store directory.
fn daemon_config(dir: &std::path::Path) -> ServiceConfig {
    ServiceConfig {
        store_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServiceConfig::default()
    }
}

/// Pre-stored programs cycled through by the tail requests: a quarter more
/// than the default cache holds. Fresh builds and revises insert entries
/// into every shard between two requests for the same tail program, so it
/// has always been evicted by then and is answered from the store.
pub fn tail_len() -> usize {
    let capacity = ServiceConfig::default().cache_capacity;
    capacity + capacity / 4
}

/// Pre-stores the tail, starts the daemon (which restores the store on
/// boot, as by default) and serves the hot set once.
pub fn setup(seed: u64, tracer: &Tracer) -> Result<State, String> {
    let cases = catalog::tcas_cases(seed)?;
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5E41_11CE);
    let mut order: Vec<usize> = (0..cases.len()).collect();
    catalog::shuffle(&mut order, &mut rng);
    let hot: Vec<JobRef> = order[..HOT].iter().map(|&c| (c, 0, 0)).collect();
    let tail: Vec<JobRef> = (0..tail_len())
        .map(|i| (order[i % order.len()], 0, 1 + i / order.len()))
        .collect();

    let dir = scratch_dir(seed);
    let _ = std::fs::remove_dir_all(&dir);
    {
        let store = store::Store::open(&dir).map_err(|e| format!("store: {e}"))?;
        for &(c, t, shift) in &tail {
            let (case, test) = (&cases[c], &cases[c].failing[t]);
            let job = job(case, test, shift);
            let program = minic::parse_program(&job.program).map_err(|e| e.to_string())?;
            let localizer = tracer
                .span("core.new", || {
                    Localizer::new(
                        &program,
                        case.entry,
                        &job.bmc_spec(),
                        &job.localizer_config(),
                    )
                })
                .map_err(|e| format!("{}: {e}", case.name))?;
            tracer.span("core.prepare", || localizer.warm());
            let key = job.cache_key(&program);
            let entry = PreparedEntry::new(program, &job, Arc::new(localizer));
            let payload = service::persist::encode_entry(&entry).ok_or("entry is not warm")?;
            store
                .save(key, job.options_fingerprint(), &payload)
                .map_err(|e| format!("store save: {e}"))?;
        }
    }
    let server = Server::start(daemon_config(&dir)).map_err(|e| format!("daemon: {e}"))?;
    let mut state = State {
        server: Some(server),
        dir,
        cases,
        hot,
        hot_keys: Vec::new(),
        tail,
        seed,
    };
    let mut client = Client::connect(state.addr()).map_err(|e| e.to_string())?;
    for &(c, t, shift) in &state.hot {
        let case = &state.cases[c];
        let outcome = client
            .localize(job(case, &case.failing[t], shift))
            .map_err(|e| format!("hot {}: {e}", case.name))?;
        state.hot_keys.push(outcome.key);
    }
    Ok(state)
}

impl State {
    fn addr(&self) -> std::net::SocketAddr {
        self.server.as_ref().expect("daemon runs").local_addr()
    }

    /// Catalogue indices of the hot set's programs.
    pub fn hot_cases(&self) -> Vec<usize> {
        self.hot.iter().map(|j| j.0).collect()
    }
}

/// One answered (or failed) request.
#[derive(Debug)]
struct Record {
    kind: Kind,
    job: JobRef,
    latency_ms: f64,
    /// Canonical report, the tier that served it and its build
    /// milliseconds, or the error.
    answer: Result<(String, String, u64), String>,
}

/// One request of a client's per-pass plan.
#[derive(Clone, Copy, Debug)]
struct Step {
    kind: Kind,
    /// Which hot program a hot request or a revise refers to.
    hot: usize,
}

/// A client's seeded plan, replayed every pass, and its positions in the
/// tail, in the catalogue (fresh and semantic-revise programs, so that the
/// passes cycle through every version) and in the fresh-variant numbering.
#[derive(Debug)]
struct Sequence {
    plan: Vec<Step>,
    client: usize,
    tail_next: usize,
    case_next: usize,
    variants: usize,
}

impl Sequence {
    fn new(state: &State, client: usize) -> Sequence {
        let mut rng =
            SplitMix64::seed_from_u64(state.seed.wrapping_mul(31).wrapping_add(client as u64));
        let mut kinds: Vec<Kind> = PASS_MIX
            .iter()
            .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
            .collect();
        catalog::shuffle(&mut kinds, &mut rng);
        // Each kind takes the hot programs in turn.
        let mut turns = [client; PASS_MIX.len()];
        let plan = kinds
            .into_iter()
            .map(|kind| {
                let turn = &mut turns[kind as usize];
                *turn += 1;
                Step {
                    kind,
                    hot: *turn % state.hot.len(),
                }
            })
            .collect();
        Sequence {
            plan,
            client,
            tail_next: client,
            case_next: client * state.cases.len() / CLIENTS,
            variants: 0,
        }
    }

    /// The next catalogue program in turn, other than `skip`.
    fn next_case(&mut self, state: &State, skip: Option<usize>) -> usize {
        loop {
            let case = self.case_next % state.cases.len();
            self.case_next += 1;
            if Some(case) != skip {
                return case;
            }
        }
    }

    /// A never-used shift for this client (disjoint from the tail's, which
    /// are at most the tail's length).
    fn fresh_shift(&mut self) -> usize {
        self.variants += 1;
        tail_len() + 1 + self.variants * CLIENTS + self.client
    }

    /// The job and, for a revise, the pre-edit key of one planned step.
    fn request(&mut self, state: &State, step: Step) -> (JobRef, Option<u64>) {
        let hot_key = state.hot_keys[step.hot];
        match step.kind {
            Kind::Hot => (state.hot[step.hot], None),
            Kind::Tail => {
                let r = state.tail[self.tail_next % state.tail.len()];
                self.tail_next += CLIENTS;
                (r, None)
            }
            Kind::Fresh => {
                let case = self.next_case(state, None);
                ((case, 0, self.fresh_shift()), None)
            }
            Kind::ReviseShift => {
                let (c, t, _) = state.hot[step.hot];
                ((c, t, self.fresh_shift()), Some(hot_key))
            }
            Kind::ReviseSemantic => {
                let case = self.next_case(state, Some(state.hot[step.hot].0));
                ((case, 0, self.fresh_shift()), Some(hot_key))
            }
        }
    }
}

/// One client's closed loop: its plan once per pass, until `seconds` have
/// passed and the clients together have sent `min_requests`. Returns the
/// records and the number of passes.
fn client_loop(
    state: &State,
    client: &mut Client,
    seq: &mut Sequence,
    sent: &AtomicUsize,
    started: Instant,
    (seconds, min_requests): (f64, usize),
    tracer: &Tracer,
) -> (Vec<Record>, usize) {
    let mut records = Vec::new();
    let mut passes = 0;
    loop {
        for step in seq.plan.clone() {
            let (job_ref, prev_key) = seq.request(state, step);
            let (c, t, shift) = job_ref;
            let case = &state.cases[c];
            let request = job(case, &case.failing[t], shift);
            let t0 = Instant::now();
            let result = tracer.span(step.kind.span(), || match prev_key {
                None => client.localize(request),
                Some(prev) => client.revise(request, prev).map(|r| r.outcome),
            });
            let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
            records.push(Record {
                kind: step.kind,
                job: job_ref,
                latency_ms,
                answer: result
                    .map(|o| (canonicalize(&o.body).to_string(), o.tier, o.build_ms))
                    .map_err(|e| e.to_string()),
            });
        }
        passes += 1;
        let total = sent.fetch_add(seq.plan.len(), Ordering::SeqCst) + seq.plan.len();
        if started.elapsed().as_secs_f64() >= seconds && total >= min_requests {
            return (records, passes);
        }
    }
}

/// What one [`drive`] produced: every record, the wall-clock seconds from
/// the first request until both clients stopped, the passes summed over the
/// clients, and each client's trace.
struct Driven {
    records: Vec<Record>,
    seconds: f64,
    passes: usize,
    recordings: Vec<Recording>,
}

/// Runs both clients.
fn drive(
    state: &State,
    seqs: &mut [Sequence],
    seconds: f64,
    min_requests: usize,
    trace: bool,
) -> Result<Driven, String> {
    let mut clients = seqs
        .iter()
        .map(|_| Client::connect(state.addr()).map_err(|e| e.to_string()))
        .collect::<Result<Vec<Client>, String>>()?;
    let sent = AtomicUsize::new(0);
    let started = Instant::now();
    let results: Vec<(Vec<Record>, usize, Recording)> = std::thread::scope(|scope| {
        let handles: Vec<_> = seqs
            .iter_mut()
            .zip(clients.iter_mut())
            .map(|(seq, client)| {
                let sent = &sent;
                scope.spawn(move || {
                    let tracer = Tracer::new(trace);
                    let (records, passes) = client_loop(
                        state,
                        client,
                        seq,
                        sent,
                        started,
                        (seconds, min_requests),
                        &tracer,
                    );
                    (records, passes, tracer.finish())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let seconds = started.elapsed().as_secs_f64();
    let mut driven = Driven {
        records: Vec::new(),
        seconds,
        passes: 0,
        recordings: Vec::new(),
    };
    for (records, passes, recording) in results {
        driven.records.extend(records);
        driven.passes += passes;
        driven.recordings.push(recording);
    }
    Ok(driven)
}

/// The in-process report of an unshifted job: `Localizer::new` on the
/// program text, then `localize`.
fn reference(state: &State, (c, t): (usize, usize)) -> Result<LocalizationReport, String> {
    let case = &state.cases[c];
    let job = job(case, &case.failing[t], 0);
    let program = minic::parse_program(&job.program).map_err(|e| e.to_string())?;
    Localizer::new(
        &program,
        &job.entry,
        &job.bmc_spec(),
        &job.localizer_config(),
    )
    .and_then(|localizer| localizer.localize(&job.inputs[0]))
    .map_err(|e| e.to_string())
}

/// `report` with every blamed line moved down by `shift`: the report of
/// the same program with `shift` blank lines prepended.
fn shifted(report: &LocalizationReport, shift: usize) -> LocalizationReport {
    let by = |l: &Line| Line(l.0 + shift as u32);
    LocalizationReport {
        suspects: report
            .suspects
            .iter()
            .map(|s| Suspect {
                lines: s.lines.iter().map(by).collect(),
                ..s.clone()
            })
            .collect(),
        suspect_lines: report.suspect_lines.iter().map(by).collect(),
        ..report.clone()
    }
}

/// Checks every record of a drive against the in-process report of its
/// job. The unshifted references are computed on [`CLIENTS`] threads; a
/// variant's reference is its program's, shifted.
fn verify(state: &State, driven: &Driven) -> Measured {
    let records = &driven.records;
    let mut programs: Vec<(usize, usize)> = records.iter().map(|r| (r.job.0, r.job.1)).collect();
    programs.sort_unstable();
    programs.dedup();
    let references: BTreeMap<(usize, usize), Result<LocalizationReport, String>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = programs
                .chunks(programs.len().div_ceil(CLIENTS).max(1))
                .map(|chunk| {
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .map(|&p| (p, reference(state, p)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("reference thread panicked"))
                .collect()
        });
    let mut measured = Measured {
        passes: driven.passes,
        seconds: driven.seconds,
        ..Measured::default()
    };
    for record in records {
        let (c, t, shift) = record.job;
        let ok = match (&record.answer, &references[&(c, t)]) {
            (Err(e), _) => {
                measured.mismatches.push(format!(
                    "{:?} {:?}: request failed: {e}",
                    record.kind, record.job
                ));
                false
            }
            (Ok(_), Err(e)) => {
                measured
                    .mismatches
                    .push(format!("{:?}: reference failed: {e}", record.job));
                false
            }
            (Ok((canonical, _, _)), Ok(report)) => {
                let want = shifted(report, shift);
                measured.detect_total += 1;
                if state.cases[c]
                    .faulty_lines
                    .iter()
                    .any(|l| want.blames_line(Line(l.0 + shift as u32)))
                {
                    measured.detected += 1;
                }
                let same = canonicalize(&report_to_json(&want)).to_string() == *canonical;
                if !same {
                    measured.mismatches.push(format!(
                        "{:?} {:?}: service report differs from the in-process report",
                        record.kind, record.job
                    ));
                }
                same
            }
        };
        measured.record(record.latency_ms, ok, SLO_MS);
    }
    measured
}

fn count(records: &[Record], tier: &str) -> f64 {
    records
        .iter()
        .filter(|r| matches!(&r.answer, Ok((_, t, _)) if t == tier))
        .count() as f64
}

/// The daemon's `stats` op.
fn daemon_stats(state: &State) -> Result<service::Json, String> {
    Client::connect(state.addr())
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("stats: {e}"))
}

/// Count, median and p95 latency of each request kind, in milliseconds.
fn kind_latencies(records: &[Record]) -> Vec<(Kind, usize, f64, f64)> {
    PASS_MIX
        .iter()
        .map(|&(kind, _)| {
            let latencies: Vec<f64> = records
                .iter()
                .filter(|r| r.kind == kind)
                .map(|r| r.latency_ms)
                .collect();
            if latencies.is_empty() {
                return (kind, 0, 0.0, 0.0);
            }
            let sorted = stats::sorted(&latencies);
            (
                kind,
                sorted.len(),
                stats::percentile(&sorted, 50),
                stats::percentile(&sorted, crate::report::TAIL_PCT),
            )
        })
        .collect()
}

/// Service-layer metrics of the measured requests: tier counts, build time
/// and each kind's median latency from the answers; cache, revise and
/// queue counters from the difference of the `stats` op before and after
/// them.
fn service_metrics(
    records: &[Record],
    before: &service::Json,
    after: &service::Json,
) -> Vec<Metric> {
    let read = |stats: &service::Json, path: &[&str]| {
        path.iter()
            .try_fold(stats, |v, k| v.get(k))
            .and_then(service::Json::as_f64)
            .unwrap_or(0.0)
    };
    let get = |path: &[&str]| read(after, path) - read(before, path);
    let hits = get(&["cache", "hits"]);
    let misses = get(&["cache", "misses"]);
    let by_kind = kind_latencies(records)
        .into_iter()
        .map(|(kind, _, p50, _)| Metric {
            name: kind.p50_metric(),
            value: p50,
            unit: "ms",
        });
    let builds: Vec<f64> = records
        .iter()
        .filter_map(|r| match &r.answer {
            Ok((_, tier, build_ms)) if tier == "built" => Some(*build_ms as f64),
            _ => None,
        })
        .collect();
    vec![
        Metric {
            name: "service.tier_memory",
            value: count(records, "memory"),
            unit: "count",
        },
        Metric {
            name: "service.tier_store",
            value: count(records, "store"),
            unit: "count",
        },
        Metric {
            name: "service.tier_built",
            value: count(records, "built"),
            unit: "count",
        },
        Metric {
            name: "service.build_ms",
            value: stats::mean(&builds),
            unit: "ms",
        },
        Metric {
            name: "cache.hit_rate",
            value: stats::ratio(hits, hits + misses),
            unit: "ratio",
        },
        Metric {
            name: "service.revise_solve_skipped",
            value: get(&["requests", "revise_solve_skips"]),
            unit: "count",
        },
        Metric {
            name: "queue.shed",
            value: get(&["queue", "shed"]),
            unit: "count",
        },
    ]
    .into_iter()
    .chain(by_kind)
    .collect()
}

/// The timed phase: untraced (or untraced then traced, half the seconds
/// each, in trace mode), verification, and the daemon's counters. Prints
/// each request kind's latency to stderr. Shuts the daemon down.
pub fn measure(
    state: State,
    args: &Args,
    tracer: &Tracer,
) -> Result<(Measured, Option<f64>, Vec<Metric>), String> {
    let mut seqs: Vec<Sequence> = (0..CLIENTS).map(|c| Sequence::new(&state, c)).collect();
    let min = stats::min_samples_for(crate::report::TAIL_PCT);
    let mut plain = None;
    let (driven, before) = if args.trace {
        let untraced = drive(&state, &mut seqs, args.seconds / 2.0, 1, false)?;
        plain = Some(verify(&state, &untraced));
        let before = daemon_stats(&state)?;
        let mut driven = drive(&state, &mut seqs, args.seconds / 2.0, 1, true)?;
        for recording in std::mem::take(&mut driven.recordings) {
            tracer.absorb(recording);
        }
        (driven, before)
    } else {
        let before = daemon_stats(&state)?;
        (drive(&state, &mut seqs, args.seconds, min, false)?, before)
    };
    let metrics = service_metrics(&driven.records, &before, &daemon_stats(&state)?);
    for (kind, n, p50, p95) in kind_latencies(&driven.records) {
        eprintln!(
            "{:<28} n={n:<5} p50={p50:.3} ms p95={p95:.3} ms",
            kind.span()
        );
    }
    let mut measured = verify(&state, &driven);
    let overhead = plain.map(|plain| {
        let overhead = crate::report::overhead_pct(&plain, &measured);
        measured.add_counts(plain);
        overhead
    });
    drop(state);
    Ok((measured, overhead, metrics))
}
