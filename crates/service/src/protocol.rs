//! The newline-delimited JSON wire protocol of the localization service.
//!
//! One request per line, one response per line, both single JSON objects.
//! Eight operations:
//!
//! | `op`        | payload                                  | response payload      |
//! |-------------|------------------------------------------|-----------------------|
//! | `localize`  | a [`Job`] with exactly one failing input | `report`, `key`       |
//! | `revise`    | a [`Job`] + `prev_key` of the pre-edit cache entry | `report`, `key`, `delta`, `reused` |
//! | `batch`     | a [`Job`] with any number of inputs      | `ranked`, `key`       |
//! | `analyze`   | `program` (+ optional `width`)           | `diagnostics`: the static lint findings |
//! | `health`    | —                                        | `status`, `uptime_ms` |
//! | `stats`     | —                                        | cache/queue/solver/store counters |
//! | `metrics`   | —                                        | `text`: the same counters as Prometheus text exposition |
//! | `shutdown`  | —                                        | acknowledgement; daemon drains and exits |
//!
//! `localize`/`batch`/`revise` responses carry `key` — the cache key of the
//! prepared entry that served them. A client in an edit loop passes it back
//! as `prev_key` on its next `revise`, and the daemon diffs the new source
//! against that entry's cached AST segments to reuse whatever the edit left
//! intact (`delta` names the classification, `reused` says whether the
//! bit-blasted preparation was carried over without re-encoding).
//!
//! A `localize` request looks like
//!
//! ```json
//! {"id":1,"op":"localize","program":"int main(int x) {\nint y = x + 2;\nreturn y;\n}",
//!  "entry":"main","spec":{"return_equals":4},"inputs":[[5]],
//!  "width":8,"unwind":8,"max_suspect_sets":16,"granularity":"line"}
//! ```
//!
//! and a successful response like (`stats` abridged)
//!
//! ```json
//! {"id":1,"ok":true,"op":"localize","cache":"miss","tier":"built","build_ms":0,
//!  "key":1250637076531559860,
//!  "report":{"suspects":[{"lines":[3],"unwindings":[null],"rank":0,"cost":1},
//!                        {"lines":[2],"unwindings":[null],"rank":1,"cost":1}],
//!            "suspect_lines":[2,3],
//!            "stats":{"maxsat_calls":2,"sat_calls":4,"cores":2,"soft_clauses":2,
//!                     "hard_clauses":20,"variables":46,"elapsed_ms":0,
//!                     "reduce_dbs":0,"arena_bytes":336},
//!            "complete":true}}
//! ```
//!
//! A `revise` request is a `localize` request plus `"prev_key"` (the `key`
//! of the pre-edit response); its response additionally carries `"delta"`
//! (the edit classification), `"reused"` (pre-edit bit-blast carried over)
//! and `"solved"` (`false` when the answer was served by remapping the
//! remembered pre-edit report instead of re-running MAX-SAT).
//!
//! Failures are `{"id":…,"ok":false,"kind":"…","error":"…"}` — `kind` is a
//! small machine-readable vocabulary (`parse_error`, `type_error`,
//! `encode_error`, `step_budget_exhausted`, `overloaded`,
//! `deadline_exceeded`, `request_too_large`, `shutting_down`,
//! `internal_error`, …), `error` the human-readable message. The `id` is an
//! opaque client-chosen correlation token echoed back verbatim.
//!
//! Jobs may carry `"deadline_ms"`, a wall-clock budget measured from
//! admission: the daemon sheds the job (`kind":"overloaded"`) instead of
//! queueing it past its deadline, and a solve that outlives the budget
//! returns the ranks proven so far marked `"complete":false`.
//!
//! A `"strategy"` key is still accepted, as `"fu_malik"` only: Fu–Malik is
//! the one MAX-SAT algorithm, so the key selects nothing and no request
//! this module writes carries it.
//!
//! Everything here is pure data transformation (no I/O), shared by the
//! server, the blocking client, the tests and the load generator — both
//! directions of every message are exercised by the same code, so the two
//! sides cannot drift apart.

use crate::json::Json;
use bmc::{EncodeConfig, Spec};
use bugassist::{
    Granularity, LocalizationReport, LocalizerConfig, LocalizerStats, RankedReport, Suspect,
};
use minic::{ast::Line, StableHasher};
use std::fmt;
use std::ops::RangeInclusive;

/// Default blame granularity / solver knobs for jobs that omit them.
pub const DEFAULT_MAX_SUSPECT_SETS: usize = 16;

/// One localization job: a program, a specification and failing inputs.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// MinC source text of the program under analysis.
    pub program: String,
    /// Entry function name.
    pub entry: String,
    /// What "correct" means for this program.
    pub spec: JobSpec,
    /// Failing test inputs; `localize` uses exactly one, `batch` any number.
    pub inputs: Vec<Vec<i64>>,
    /// Encoding and solver knobs.
    pub options: JobOptions,
    /// Per-job wall-clock budget in milliseconds, measured from admission.
    /// `None` asks for the server's default (which may be "unlimited"). A
    /// budgeted job is never queued past its deadline (the daemon sheds it
    /// with an `overloaded` error instead) and a solve that outlives it
    /// comes back as an *anytime* report marked `"complete":false` rather
    /// than an error. Deliberately **not** part of [`Job::cache_key`]: the
    /// prepared localizer is deadline-independent.
    pub deadline_ms: Option<u64>,
    /// Optional client identity for per-client fair queuing: jobs sharing a
    /// `client_id` share one queue lane; unidentified traffic shares the
    /// default lane. Like `deadline_ms`, deliberately **not** part of
    /// [`Job::cache_key`] or [`Job::options_fingerprint`] — who asked has
    /// no bearing on the answer, so replicas stay byte-identical and cache
    /// entries are shared across clients.
    pub client_id: Option<String>,
}

impl Job {
    /// A job over the given source with default options.
    pub fn new(
        program: impl Into<String>,
        entry: impl Into<String>,
        spec: JobSpec,
        inputs: Vec<Vec<i64>>,
    ) -> Job {
        Job {
            program: program.into(),
            entry: entry.into(),
            spec,
            inputs,
            options: JobOptions::default(),
            deadline_ms: None,
            client_id: None,
        }
    }

    /// The stable cache key of this job's *prepared localizer*: everything
    /// that affects `Localizer::new` + preparation is mixed in — the
    /// structural [`minic::ast_hash()`](minic::ast_hash()) of the parsed
    /// program, the entry, the
    /// spec, and every option — while the failing inputs are deliberately
    /// left out (one prepared localizer serves any input).
    pub fn cache_key(&self, program: &minic::Program) -> u64 {
        let mut h = StableHasher::new();
        minic::hash_program(&mut h, program);
        self.hash_params(&mut h);
        h.finish()
    }

    /// A stable fingerprint of everything in the cache key *except* the
    /// program: entry, spec and every option. Persistent store records are
    /// keyed by [`Job::cache_key`] and stamped with this fingerprint, so a
    /// record written under one set of options can never satisfy a lookup
    /// made under another even across hashing-scheme changes — the lookup
    /// degrades to a corrupt-record miss instead.
    pub fn options_fingerprint(&self) -> u64 {
        let mut h = StableHasher::new();
        self.hash_params(&mut h);
        h.finish()
    }

    /// Mixes the entry, the spec and every option into `h`.
    fn hash_params(&self, h: &mut StableHasher) {
        h.write_str(&self.entry);
        match self.spec {
            JobSpec::Assertions => h.write_u8(1),
            JobSpec::ReturnEquals(v) => {
                h.write_u8(2);
                h.write_i64(v);
            }
        }
        let o = &self.options;
        h.write_usize(o.width);
        h.write_usize(o.unwind);
        h.write_usize(o.max_inline_depth);
        h.write_u8(match o.granularity {
            Granularity::Line => 1,
            Granularity::StatementInstance => 2,
        });
        h.write_u8(u8::from(o.loop_weighting));
        h.write_usize(o.max_suspect_sets);
        h.write_usize(o.trusted_lines.len());
        for line in &o.trusted_lines {
            h.write_u64(u64::from(*line));
        }
    }

    /// The [`LocalizerConfig`] these options describe; everything they do
    /// not name (the word-level passes, simplification, static pruning)
    /// keeps its default.
    pub fn localizer_config(&self) -> LocalizerConfig {
        let o = &self.options;
        LocalizerConfig {
            encode: EncodeConfig {
                width: o.width,
                unwind: o.unwind,
                max_inline_depth: o.max_inline_depth,
                ..EncodeConfig::default()
            },
            max_suspect_sets: o.max_suspect_sets,
            granularity: o.granularity,
            loop_weighting: o.loop_weighting,
            trusted_lines: o.trusted_lines.iter().map(|&l| Line(l)).collect(),
            ..LocalizerConfig::default()
        }
    }

    /// The [`Spec`] this job's specification describes.
    pub fn bmc_spec(&self) -> Spec {
        match self.spec {
            JobSpec::Assertions => Spec::Assertions,
            JobSpec::ReturnEquals(v) => Spec::ReturnEquals(v),
        }
    }
}

/// The specification a failing run violates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobSpec {
    /// The program's `assert(...)` statements plus implicit bounds checks.
    Assertions,
    /// The entry function must return this golden output.
    ReturnEquals(i64),
}

/// Encoding and solver options of a [`Job`]: the [`LocalizerConfig`]
/// fields that change a report. The report-invariant switches
/// (`LocalizerConfig::simplify`, `LocalizerConfig::static_prune`,
/// `EncodeConfig::word_passes`) are in-process test oracles and stay at
/// their defaults on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobOptions {
    /// Bit width of the symbolic encoding (2 to 64).
    pub width: usize,
    /// Loop unwinding bound.
    pub unwind: usize,
    /// Maximum function-inlining depth.
    pub max_inline_depth: usize,
    /// Blame granularity.
    pub granularity: Granularity,
    /// Weight soft clauses by loop iteration (Sec. 5.2).
    pub loop_weighting: bool,
    /// Maximum CoMSSes enumerated per failing input.
    pub max_suspect_sets: usize,
    /// Line numbers that must never be blamed.
    pub trusted_lines: Vec<u32>,
}

impl Default for JobOptions {
    fn default() -> JobOptions {
        let base = LocalizerConfig::default();
        JobOptions {
            width: 8,
            unwind: base.encode.unwind,
            max_inline_depth: base.encode.max_inline_depth,
            granularity: base.granularity,
            loop_weighting: base.loop_weighting,
            max_suspect_sets: DEFAULT_MAX_SUSPECT_SETS,
            trusted_lines: Vec::new(),
        }
    }
}

/// A parsed request line: the client's correlation id plus the operation.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// Client-chosen correlation token, echoed back in the response.
    pub id: u64,
    /// The requested operation.
    pub request: Request,
}

/// The operations of the protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Localize one failing input of a job.
    Localize(Job),
    /// Localize one failing input of an *edited* program, delta-preparing
    /// against the cached pre-edit entry identified by `prev_key`.
    Revise {
        /// The job over the edited source.
        job: Job,
        /// `key` from a previous `localize`/`revise`/`batch` response for
        /// the pre-edit version of the program.
        prev_key: u64,
    },
    /// Localize every input of a job and merge into a frequency ranking.
    Batch(Job),
    /// Run the static lint pass over a program and return its structured
    /// diagnostics without encoding or solving anything; never queued.
    Analyze {
        /// MinC source text to lint.
        program: String,
        /// Encoding width the truncation lint checks constants against.
        width: usize,
    },
    /// Liveness probe; never queued.
    Health,
    /// Cache / queue / solver counters; never queued.
    Stats,
    /// The same counters in Prometheus text exposition format; never queued.
    Metrics,
    /// Drain and stop the daemon.
    Shutdown,
}

impl Request {
    /// The `op` string of this request on the wire.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Localize(_) => "localize",
            Request::Revise { .. } => "revise",
            Request::Batch(_) => "batch",
            Request::Analyze { .. } => "analyze",
            Request::Health => "health",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Shutdown => "shutdown",
        }
    }
}

/// Error produced while decoding a message.
#[derive(Clone, Debug, PartialEq)]
pub struct ProtocolError(pub String);

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

fn bad(message: impl Into<String>) -> ProtocolError {
    ProtocolError(message.into())
}

// --- request encoding --------------------------------------------------

fn spec_to_json(spec: JobSpec) -> Json {
    match spec {
        JobSpec::Assertions => Json::str("assertions"),
        JobSpec::ReturnEquals(v) => Json::obj(vec![("return_equals", Json::Int(v))]),
    }
}

fn job_fields(job: &Job, pairs: &mut Vec<(String, Json)>) {
    let o = &job.options;
    let push = |pairs: &mut Vec<(String, Json)>, k: &str, v: Json| {
        pairs.push((k.to_string(), v));
    };
    push(pairs, "program", Json::str(job.program.clone()));
    push(pairs, "entry", Json::str(job.entry.clone()));
    push(pairs, "spec", spec_to_json(job.spec));
    push(
        pairs,
        "inputs",
        Json::Arr(
            job.inputs
                .iter()
                .map(|input| Json::Arr(input.iter().map(|&v| Json::Int(v)).collect()))
                .collect(),
        ),
    );
    push(pairs, "width", Json::from(o.width));
    push(pairs, "unwind", Json::from(o.unwind));
    push(pairs, "max_inline_depth", Json::from(o.max_inline_depth));
    push(
        pairs,
        "granularity",
        Json::str(match o.granularity {
            Granularity::Line => "line",
            Granularity::StatementInstance => "statement_instance",
        }),
    );
    push(pairs, "loop_weighting", Json::Bool(o.loop_weighting));
    push(pairs, "max_suspect_sets", Json::from(o.max_suspect_sets));
    push(
        pairs,
        "trusted_lines",
        Json::Arr(
            o.trusted_lines
                .iter()
                .map(|&l| Json::from(u64::from(l)))
                .collect(),
        ),
    );
    if let Some(deadline_ms) = job.deadline_ms {
        push(pairs, "deadline_ms", Json::from(deadline_ms));
    }
    if let Some(client_id) = &job.client_id {
        push(pairs, "client_id", Json::str(client_id.clone()));
    }
}

/// Serializes a request envelope to its wire line (no trailing newline).
pub fn encode_request(envelope: &Envelope) -> String {
    let mut pairs: Vec<(String, Json)> = vec![
        ("id".to_string(), Json::from(envelope.id)),
        ("op".to_string(), Json::str(envelope.request.op())),
    ];
    match &envelope.request {
        Request::Localize(job) | Request::Batch(job) => job_fields(job, &mut pairs),
        Request::Revise { job, prev_key } => {
            job_fields(job, &mut pairs);
            pairs.push(("prev_key".to_string(), Json::from(*prev_key)));
        }
        Request::Analyze { program, width } => {
            pairs.push(("program".to_string(), Json::str(program.clone())));
            pairs.push(("width".to_string(), Json::from(*width)));
        }
        Request::Health | Request::Stats | Request::Metrics | Request::Shutdown => {}
    }
    Json::Obj(pairs).to_string()
}

// --- request decoding --------------------------------------------------

fn parse_spec(value: &Json) -> Result<JobSpec, ProtocolError> {
    match value {
        Json::Str(s) if s == "assertions" => Ok(JobSpec::Assertions),
        Json::Obj(_) => value
            .get("return_equals")
            .and_then(Json::as_i64)
            .map(JobSpec::ReturnEquals)
            .ok_or_else(|| bad("spec object must carry an integer return_equals")),
        _ => Err(bad("spec must be \"assertions\" or {\"return_equals\": N}")),
    }
}

fn parse_usize(value: &Json, field: &str) -> Result<usize, ProtocolError> {
    value
        .as_u64()
        .and_then(|v| usize::try_from(v).ok())
        .ok_or_else(|| bad(format!("{field} must be a non-negative integer")))
}

/// A non-negative integer in `range`, named by `field` in the error.
fn parse_in(
    value: &Json,
    field: &str,
    range: RangeInclusive<usize>,
) -> Result<usize, ProtocolError> {
    let v = parse_usize(value, field)?;
    if !range.contains(&v) {
        let (lo, hi) = range.into_inner();
        return Err(bad(format!("{field} must be in {lo}..={hi}")));
    }
    Ok(v)
}

/// The encoding width both `localize`-style jobs and `analyze` accept.
fn parse_width(value: &Json) -> Result<usize, ProtocolError> {
    parse_in(value, "width", 2..=64)
}

/// The largest `unwind` and `max_inline_depth` a job may ask for. The
/// encoding grows with each (about linearly for one loop, multiplied by
/// nesting), so the bound keeps one request from exhausting the host.
const MAX_UNROLL: usize = 64;

fn parse_job(value: &Json) -> Result<Job, ProtocolError> {
    let program = value
        .get("program")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing string field program"))?
        .to_string();
    let entry = value
        .get("entry")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing string field entry"))?
        .to_string();
    let spec = parse_spec(value.get("spec").ok_or_else(|| bad("missing field spec"))?)?;
    let inputs_json = value
        .get("inputs")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("missing array field inputs"))?;
    let mut inputs = Vec::with_capacity(inputs_json.len());
    for input in inputs_json {
        let values = input
            .as_arr()
            .ok_or_else(|| bad("each input must be an array of integers"))?;
        inputs.push(
            values
                .iter()
                .map(|v| v.as_i64().ok_or_else(|| bad("inputs must be integers")))
                .collect::<Result<Vec<i64>, ProtocolError>>()?,
        );
    }

    let mut options = JobOptions::default();
    if let Some(v) = value.get("width") {
        options.width = parse_width(v)?;
    }
    if let Some(v) = value.get("unwind") {
        options.unwind = parse_in(v, "unwind", 0..=MAX_UNROLL)?;
    }
    if let Some(v) = value.get("max_inline_depth") {
        options.max_inline_depth = parse_in(v, "max_inline_depth", 0..=MAX_UNROLL)?;
    }
    if let Some(v) = value.get("granularity") {
        options.granularity = match v.as_str() {
            Some("line") => Granularity::Line,
            Some("statement_instance") => Granularity::StatementInstance,
            _ => return Err(bad("granularity must be line or statement_instance")),
        };
    }
    if let Some(v) = value.get("loop_weighting") {
        options.loop_weighting = v
            .as_bool()
            .ok_or_else(|| bad("loop_weighting must be a boolean"))?;
    }
    if let Some(v) = value.get("max_suspect_sets") {
        options.max_suspect_sets = parse_usize(v, "max_suspect_sets")?;
    }
    if value
        .get("strategy")
        .is_some_and(|v| v.as_str() != Some("fu_malik"))
    {
        return Err(bad("strategy must be fu_malik"));
    }
    // Retired knobs that changed answers are accepted only at the value
    // that reproduces today's report.
    if value
        .get("static_priors")
        .is_some_and(|v| v.as_bool() != Some(false))
    {
        return Err(bad("static_priors must be false"));
    }
    if value
        .get("base_weight")
        .is_some_and(|v| v.as_u64() != Some(1))
    {
        return Err(bad("base_weight must be 1"));
    }
    if let Some(v) = value.get("trusted_lines") {
        let lines = v
            .as_arr()
            .ok_or_else(|| bad("trusted_lines must be an array"))?;
        options.trusted_lines = lines
            .iter()
            .map(|l| {
                l.as_u64()
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| bad("trusted_lines entries must be line numbers"))
            })
            .collect::<Result<Vec<u32>, ProtocolError>>()?;
    }

    let deadline_ms = match value.get("deadline_ms") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| bad("deadline_ms must be a non-negative integer"))?,
        ),
    };

    let client_id = match value.get("client_id") {
        None => None,
        Some(v) => Some(
            v.as_str()
                .ok_or_else(|| bad("client_id must be a string"))?
                .to_string(),
        ),
    };

    Ok(Job {
        program,
        entry,
        spec,
        inputs,
        options,
        deadline_ms,
        client_id,
    })
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a [`ProtocolError`] describing the first malformed field.
pub fn parse_request(line: &str) -> Result<Envelope, ProtocolError> {
    let value = Json::parse(line).map_err(|e| bad(e.to_string()))?;
    let id = match value.get("id") {
        None => 0,
        Some(v) => v
            .as_u64()
            .ok_or_else(|| bad("id must be a non-negative integer"))?,
    };
    let op = value
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing string field op"))?;
    let request = match op {
        "localize" => {
            let job = parse_job(&value)?;
            if job.inputs.len() != 1 {
                return Err(bad(format!(
                    "localize takes exactly one input vector, got {}",
                    job.inputs.len()
                )));
            }
            Request::Localize(job)
        }
        "revise" => {
            let job = parse_job(&value)?;
            if job.inputs.len() != 1 {
                return Err(bad(format!(
                    "revise takes exactly one input vector, got {}",
                    job.inputs.len()
                )));
            }
            let prev_key = value
                .get("prev_key")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("revise needs the non-negative integer field prev_key"))?;
            Request::Revise { job, prev_key }
        }
        "batch" => Request::Batch(parse_job(&value)?),
        "analyze" => {
            let program = value
                .get("program")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("missing string field program"))?
                .to_string();
            let width = match value.get("width") {
                None => JobOptions::default().width,
                Some(v) => parse_width(v)?,
            };
            Request::Analyze { program, width }
        }
        "health" => Request::Health,
        "stats" => Request::Stats,
        "metrics" => Request::Metrics,
        "shutdown" => Request::Shutdown,
        other => return Err(bad(format!("unknown op {other:?}"))),
    };
    Ok(Envelope { id, request })
}

// --- report serialization ----------------------------------------------

fn suspect_to_json(suspect: &Suspect) -> Json {
    Json::obj(vec![
        (
            "lines",
            Json::Arr(
                suspect
                    .lines
                    .iter()
                    .map(|l| Json::from(u64::from(l.0)))
                    .collect(),
            ),
        ),
        (
            "unwindings",
            Json::Arr(
                suspect
                    .unwindings
                    .iter()
                    .map(|u| match u {
                        None => Json::Null,
                        Some(k) => Json::from(*k),
                    })
                    .collect(),
            ),
        ),
        ("rank", Json::from(suspect.rank)),
        ("cost", Json::from(suspect.cost)),
    ])
}

/// Serializes a localizer's per-request counters: a report's `stats`
/// object, and the body of the daemon's `last_job`.
pub(crate) fn stats_to_json(stats: &LocalizerStats) -> Json {
    Json::obj(vec![
        ("maxsat_calls", Json::from(stats.maxsat_calls)),
        ("sat_calls", Json::from(stats.sat_calls)),
        ("cores", Json::from(stats.cores)),
        ("soft_clauses", Json::from(stats.soft_clauses)),
        ("hard_clauses", Json::from(stats.hard_clauses)),
        ("variables", Json::from(stats.variables)),
        ("elapsed_ms", Json::from(stats.elapsed_ms)),
        ("reduce_dbs", Json::from(stats.reduce_dbs)),
        ("arena_bytes", Json::from(stats.arena_bytes)),
        (
            "hard_clauses_pre_simplify",
            Json::from(stats.hard_clauses_pre_simplify),
        ),
        ("clauses_subsumed", Json::from(stats.clauses_subsumed)),
        ("vars_eliminated", Json::from(stats.vars_eliminated)),
        ("simplify_ms", Json::from(stats.simplify_ms)),
        ("word_nodes", Json::from(stats.word_nodes)),
        ("word_nodes_folded", Json::from(stats.word_nodes_folded)),
        ("word_cse_hits", Json::from(stats.word_cse_hits)),
        ("bits_narrowed", Json::from(stats.bits_narrowed)),
        ("lines_pruned", Json::from(stats.lines_pruned)),
        ("prune_ms", Json::from(stats.prune_ms)),
        ("lint_warnings", Json::from(stats.lint_warnings)),
    ])
}

/// Serializes a localization report, per-request solver counters included.
pub fn report_to_json(report: &LocalizationReport) -> Json {
    Json::obj(vec![
        (
            "suspects",
            Json::Arr(report.suspects.iter().map(suspect_to_json).collect()),
        ),
        (
            "suspect_lines",
            Json::Arr(
                report
                    .suspect_lines
                    .iter()
                    .map(|l| Json::from(u64::from(l.0)))
                    .collect(),
            ),
        ),
        ("stats", stats_to_json(&report.stats)),
        // `complete` is semantic content, not timing: canonicalize() keeps
        // it, so an anytime report can never be byte-identical to the exact
        // one unless it actually reproduced the full enumeration.
        ("complete", Json::Bool(report.complete)),
    ])
}

/// Serializes a ranked (batch) report.
pub fn ranked_to_json(ranked: &RankedReport) -> Json {
    Json::obj(vec![
        (
            "ranking",
            Json::Arr(
                ranked
                    .ranking
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("line", Json::from(u64::from(r.line.0))),
                            ("count", Json::from(r.count)),
                            ("frequency", Json::Float(r.frequency)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("max_count", Json::from(ranked.max_count)),
        (
            "per_test",
            Json::Arr(ranked.per_test.iter().map(report_to_json).collect()),
        ),
    ])
}

/// Rewrites a report/ranked JSON tree with every timing field (`elapsed_ms`,
/// `simplify_ms`, `prune_ms`) zeroed, leaving all semantic content intact.
/// Serializing
/// the result gives a *canonical* byte string: two runs of the same job —
/// through the daemon or directly through [`bugassist::Localizer`] — must
/// produce identical canonical bytes, which is exactly what the service
/// equivalence tests compare.
pub fn canonicalize(value: &Json) -> Json {
    match value {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .map(|(k, v)| {
                    if k == "elapsed_ms" || k == "simplify_ms" || k == "prune_ms" {
                        (k.clone(), Json::Int(0))
                    } else {
                        (k.clone(), canonicalize(v))
                    }
                })
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(canonicalize).collect()),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_job() -> Job {
        let mut job = Job::new(
            "int main(int x) {\nint y = x + 2;\nreturn y;\n}",
            "main",
            JobSpec::ReturnEquals(4),
            vec![vec![5], vec![7]],
        );
        job.options.trusted_lines = vec![3];
        job
    }

    #[test]
    fn requests_roundtrip() {
        for request in [
            Request::Localize(Job {
                inputs: vec![vec![5]],
                ..sample_job()
            }),
            Request::Localize(Job {
                inputs: vec![vec![5]],
                deadline_ms: Some(1500),
                client_id: Some("tenant-a".to_string()),
                ..sample_job()
            }),
            // prev_key beyond i64::MAX: cache keys are avalanche-mixed u64s,
            // so the wire must carry all 64 bits losslessly.
            Request::Revise {
                job: Job {
                    inputs: vec![vec![5]],
                    ..sample_job()
                },
                prev_key: u64::MAX - 12345,
            },
            Request::Batch(sample_job()),
            Request::Analyze {
                program: "int main(int x) {\nint y;\nreturn y;\n}".to_string(),
                width: 16,
            },
            Request::Health,
            Request::Stats,
            Request::Metrics,
            Request::Shutdown,
        ] {
            let envelope = Envelope { id: 42, request };
            let line = encode_request(&envelope);
            assert!(!line.contains('\n'), "wire lines must be single lines");
            let parsed = parse_request(&line).expect("round-trips");
            assert_eq!(parsed, envelope);
        }
    }

    #[test]
    fn omitted_options_take_defaults() {
        for line in [
            r#"{"op":"localize","program":"int main(int x) { return x; }","entry":"main","spec":"assertions","inputs":[[1]]}"#,
            // A key that names no option is ignored, retired knobs included.
            r#"{"op":"localize","program":"int main(int x) { return x; }","entry":"main","spec":"assertions","inputs":[[1]],"portfolio":true}"#,
            r#"{"op":"localize","program":"int main(int x) { return x; }","entry":"main","spec":"assertions","inputs":[[1]],"gate_cache":false}"#,
            r#"{"op":"localize","program":"int main(int x) { return x; }","entry":"main","spec":"assertions","inputs":[[1]],"word_passes":false,"simplify":false,"static_prune":false}"#,
            // The one strategy, uniform weights and no prior, as older
            // clients still name them.
            r#"{"op":"localize","program":"int main(int x) { return x; }","entry":"main","spec":"assertions","inputs":[[1]],"strategy":"fu_malik"}"#,
            r#"{"op":"localize","program":"int main(int x) { return x; }","entry":"main","spec":"assertions","inputs":[[1]],"static_priors":false,"base_weight":1}"#,
        ] {
            let envelope = parse_request(line).expect("parses");
            assert_eq!(envelope.id, 0);
            let Request::Localize(job) = envelope.request else {
                panic!("wrong op");
            };
            assert_eq!(job.options, JobOptions::default());
            assert_eq!(job.spec, JobSpec::Assertions);
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for line in [
            "not json",
            r#"{"op":"explode"}"#,
            r#"{"op":"localize"}"#,
            r#"{"op":"localize","program":"p","entry":"main","spec":"assertions","inputs":[[1],[2]]}"#,
            r#"{"op":"localize","program":"p","entry":"main","spec":"bogus","inputs":[[1]]}"#,
            r#"{"op":"localize","program":"p","entry":"main","spec":"assertions","inputs":[[1]],"strategy":"zchaff"}"#,
            r#"{"op":"batch","program":"p","entry":"main","spec":"assertions","inputs":[["x"]]}"#,
            // revise without prev_key, and with too many inputs.
            r#"{"op":"revise","program":"p","entry":"main","spec":"assertions","inputs":[[1]]}"#,
            r#"{"op":"revise","program":"p","entry":"main","spec":"assertions","inputs":[[1],[2]],"prev_key":3}"#,
        ] {
            assert!(parse_request(line).is_err(), "should reject: {line}");
        }
        // A retired answer-changing knob at any other value, a width the
        // encoder cannot represent, and an unrolling bound large enough
        // for one request to exhaust the host are bad requests naming the
        // valid values.
        for (field, message) in [
            (r#""strategy":"portfolio""#, "strategy must be fu_malik"),
            (
                r#""strategy":"linear_sat_unsat""#,
                "strategy must be fu_malik",
            ),
            (r#""static_priors":true"#, "static_priors must be false"),
            (r#""static_priors":0"#, "static_priors must be false"),
            (r#""base_weight":2"#, "base_weight must be 1"),
            (r#""base_weight":0"#, "base_weight must be 1"),
            (r#""width":0"#, "width must be in 2..=64"),
            (r#""width":1"#, "width must be in 2..=64"),
            (r#""width":65"#, "width must be in 2..=64"),
            (r#""unwind":65"#, "unwind must be in 0..=64"),
            (r#""unwind":8000"#, "unwind must be in 0..=64"),
            (
                r#""max_inline_depth":65"#,
                "max_inline_depth must be in 0..=64",
            ),
            (
                r#""max_inline_depth":-1"#,
                "max_inline_depth must be a non-negative integer",
            ),
        ] {
            let line = format!(
                r#"{{"op":"localize","program":"p","entry":"main","spec":"assertions","inputs":[[1]],{field}}}"#
            );
            assert_eq!(
                parse_request(&line),
                Err(ProtocolError(message.to_string())),
                "{field}"
            );
        }
        // The bounds themselves are accepted.
        let line = r#"{"op":"localize","program":"p","entry":"main","spec":"assertions","inputs":[[1]],"unwind":64,"max_inline_depth":0}"#;
        let Request::Localize(job) = parse_request(line).expect("bounds accepted").request else {
            panic!("wrong op");
        };
        assert_eq!((job.options.unwind, job.options.max_inline_depth), (64, 0));
        // analyze checks its width the same way, so a width that localize
        // rejects cannot switch the truncation lint off.
        for width in [0, 1, 65] {
            let line = format!(r#"{{"op":"analyze","program":"p","width":{width}}}"#);
            assert_eq!(
                parse_request(&line),
                Err(ProtocolError("width must be in 2..=64".to_string())),
                "analyze width {width}"
            );
        }
    }

    #[test]
    fn cache_key_separates_programs_options_and_specs() {
        let job = sample_job();
        let program = minic::parse_program(&job.program).unwrap();
        let base = job.cache_key(&program);

        // Same job, re-parsed program with different formatting: same key.
        let noisy =
            minic::parse_program("int main( int x ) {\nint y = x+2; // c\nreturn y;\n}").unwrap();
        assert_eq!(job.cache_key(&noisy), base);

        // Inputs are not part of the key: one prepared localizer serves all.
        let mut other_inputs = job.clone();
        other_inputs.inputs = vec![vec![99]];
        assert_eq!(other_inputs.cache_key(&program), base);

        // Neither is the deadline: the prepared localizer is budget-blind,
        // so a budgeted retry of the same job hits the same entry.
        let mut budgeted = job.clone();
        budgeted.deadline_ms = Some(250);
        assert_eq!(budgeted.cache_key(&program), base);

        // Nor the client identity: who asked has no bearing on the answer,
        // so every tenant (and every fleet replica) shares one entry.
        let mut identified = job.clone();
        identified.client_id = Some("tenant-a".to_string());
        assert_eq!(identified.cache_key(&program), base);
        assert_eq!(identified.options_fingerprint(), job.options_fingerprint());

        // Any option, entry or spec change must change the key.
        let mut width = job.clone();
        width.options.width = 16;
        let mut spec = job.clone();
        spec.spec = JobSpec::Assertions;
        let mut gran = job.clone();
        gran.options.granularity = Granularity::StatementInstance;
        let mut unwind = job.clone();
        unwind.options.unwind += 1;
        let mut inline = job.clone();
        inline.options.max_inline_depth += 1;
        let mut weighting = job.clone();
        weighting.options.loop_weighting = !weighting.options.loop_weighting;
        let mut sets = job.clone();
        sets.options.max_suspect_sets += 1;
        let mut trusted = job.clone();
        trusted.options.trusted_lines = vec![];
        for changed in [
            &width, &spec, &gran, &unwind, &inline, &weighting, &sets, &trusted,
        ] {
            assert_ne!(changed.cache_key(&program), base);
        }
    }

    #[test]
    fn options_fingerprint_ignores_program_but_not_options() {
        let job = sample_job();
        let base = job.options_fingerprint();

        // A different program, same options: same fingerprint (the program
        // is covered by the store key, not the fingerprint).
        let mut other_program = job.clone();
        other_program.program = "int main(int x) { return x; }".to_string();
        assert_eq!(other_program.options_fingerprint(), base);

        // Inputs and deadline are not part of the prepared formula either.
        let mut other_inputs = job.clone();
        other_inputs.inputs = vec![vec![99]];
        other_inputs.deadline_ms = Some(100);
        assert_eq!(other_inputs.options_fingerprint(), base);

        // Entry, spec and every option change the fingerprint.
        let mut entry = job.clone();
        entry.entry = "other".to_string();
        let mut spec = job.clone();
        spec.spec = JobSpec::Assertions;
        let mut width = job.clone();
        width.options.width = 16;
        let mut unwind = job.clone();
        unwind.options.unwind += 1;
        let mut inline = job.clone();
        inline.options.max_inline_depth += 1;
        let mut gran = job.clone();
        gran.options.granularity = Granularity::StatementInstance;
        let mut weighting = job.clone();
        weighting.options.loop_weighting = !weighting.options.loop_weighting;
        let mut sets = job.clone();
        sets.options.max_suspect_sets += 1;
        let mut trusted = job.clone();
        trusted.options.trusted_lines = vec![];
        for changed in [
            &entry, &spec, &width, &unwind, &inline, &gran, &weighting, &sets, &trusted,
        ] {
            assert_ne!(changed.options_fingerprint(), base);
        }
    }

    #[test]
    fn canonicalize_zeroes_only_timing() {
        let value = Json::parse(
            r#"{"stats":{"elapsed_ms":12,"simplify_ms":3,"prune_ms":7,"maxsat_calls":2,"lines_pruned":4},"nested":[{"elapsed_ms":9}]}"#,
        )
        .unwrap();
        let canonical = canonicalize(&value);
        assert_eq!(
            canonical.to_string(),
            r#"{"stats":{"elapsed_ms":0,"simplify_ms":0,"prune_ms":0,"maxsat_calls":2,"lines_pruned":4},"nested":[{"elapsed_ms":0}]}"#
        );
    }

    #[test]
    fn job_config_mirrors_options() {
        let job = sample_job();
        let config = job.localizer_config();
        assert_eq!(config.encode.width, 8);
        assert_eq!(config.trusted_lines, vec![Line(3)]);
        assert_eq!(config.max_suspect_sets, DEFAULT_MAX_SUSPECT_SETS);
        assert!(matches!(job.bmc_spec(), Spec::ReturnEquals(4)));
    }
}
