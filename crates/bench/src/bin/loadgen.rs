//! Load generator for the localization service: spins the daemon up
//! in-process, drives it with concurrent clients over a mixed
//! TCAS + mutated-minic program set, and records throughput, p50/p99
//! latency, cold- vs warm-cache latency and the cache hit rate to
//! `BENCH_service.json`.
//!
//! Usage: `cargo run -p bench --bin loadgen --release [output.json]
//! [--samples N] [--quick] [--chaos] [--restart] [--chaos-kill]
//! [--replicas N]`
//!
//! * `--samples N` — warm rounds each client plays over the program set
//!   (every round touches every program once).
//! * `--quick` — CI smoke mode: fewer clients and a smaller program set,
//!   enough to exercise daemon, cache, queue and client end to end.
//! * `--chaos` — run only the fault-injection scenario: a daemon with
//!   deterministic injected worker panics/stalls/delays plus abusive
//!   raw-socket clients, asserting a goodput floor and byte-identical
//!   canonical reports for every successfully answered job.
//! * `--restart` — run only the restart-recovery scenario: one daemon
//!   lifetime builds cold and writes through to a persistent store, a
//!   second lifetime on the same directory restores on boot and must serve
//!   every first request without a rebuild, byte-identically, at a
//!   >1.5x speedup over the cold builds.
//! * `--chaos-kill` — run only the fleet scenario: `--replicas N` daemons
//!   (own store dirs) behind a rendezvous-routing [`service::FleetClient`];
//!   one replica is crashed abruptly mid-stream. Asserts fleet goodput
//!   ≥ 0.90, byte-identical reports versus a single reference daemon, and
//!   that the restarted replica's first repeat request answers from its
//!   store (`tier:"store"`). Records fleet throughput, failover latency
//!   and restart recovery time.
//! * `--replicas N` — fleet size of the chaos-kill scenario (default 3).
//!
//! The headline number is the **cold/warm ratio**: a cold request pays
//! parse → typecheck → unroll → bit-blast → selector-template construction
//! before its first MAX-SAT call; a warm request starts solving immediately
//! against the cached prepared formula. That gap is exactly what a
//! long-lived daemon exists to eliminate (per-test re-building dominated
//! the LocFaults-style deployments this subsystem answers).
//!
//! The **edit-stream** scenario measures the `revise` op: N clients each
//! play a developer in an edit loop, applying k single-line edits to their
//! own program (two line-shift edits for every semantic edit — the realistic
//! mix where most saves only move code around) and re-localizing after each
//! via `revise`. A twin chain applies the *same* edit sequence to a
//! structurally identical program family through plain `localize` — every
//! edited version is a brand-new cache key, so each step pays a full cold
//! build. The ratio of the two chains is the value of delta preparation.

use service::fleet::routing_key;
use service::protocol::canonicalize;
use service::{
    Client, ClientConfig, ClientError, FaultConfig, FaultPlan, FleetClient, FleetConfig, Job,
    JobSpec, Json, Server, ServiceConfig,
};
use siemens::{tcas_trusted_lines, tcas_versions, TCAS_ENTRY, TCAS_SOURCE};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    output: String,
    samples: usize,
    quick: bool,
    chaos_only: bool,
    restart_only: bool,
    chaos_kill_only: bool,
    replicas: usize,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        output: "BENCH_service.json".to_string(),
        samples: 5,
        quick: false,
        chaos_only: false,
        restart_only: false,
        chaos_kill_only: false,
        replicas: 3,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--samples" => {
                parsed.samples = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .expect("--samples needs a positive integer");
            }
            "--quick" => parsed.quick = true,
            "--chaos" => parsed.chaos_only = true,
            "--restart" => parsed.restart_only = true,
            "--chaos-kill" => parsed.chaos_kill_only = true,
            "--replicas" => {
                parsed.replicas = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 2)
                    .expect("--replicas needs an integer >= 2");
            }
            other if other.starts_with("--") => {
                panic!(
                    "unknown flag {other:?}; usage: [output.json] [--samples N] \
                     [--quick] [--chaos] [--restart] [--chaos-kill] [--replicas N]"
                )
            }
            other => parsed.output = other.to_string(),
        }
    }
    parsed
}

/// A family of distinct small faulty programs (each constant delta yields a
/// different AST, hence a different cache entry).
fn minic_job(delta: i64) -> Job {
    Job::new(
        format!(
            "int main(int x) {{\nint y = x + {};\nint z = y * 1;\nreturn z;\n}}",
            2 + delta
        ),
        "main",
        JobSpec::ReturnEquals(4),
        vec![vec![3]],
    )
}

/// A build-heavy job: a long straight-line body (one wrong constant at the
/// top) whose symbolic encoding dwarfs its MAX-SAT solve. This is where the
/// prepared-formula cache pays off hardest — the cold request bit-blasts
/// `lines` statements, the warm request only re-solves.
fn wide_minic_job(lines: usize) -> Job {
    let mut source = String::from("int main(int x) {\nint y = x + 2;\n");
    for _ in 0..lines {
        source.push_str("y = y + 1;\n");
    }
    source.push_str("return y;\n}");
    // Golden function is x + 1 + lines; with the faulty `+ 2` every input
    // fails, and the cheapest CoMSS blames the wrong constant.
    let mut job = Job::new(
        source,
        "main",
        JobSpec::ReturnEquals(1 + lines as i64),
        vec![vec![0]],
    );
    job.options.max_suspect_sets = 2;
    job
}

/// TCAS v1 with an actual failing vector against its golden output — the
/// paper's Table 1 workload, as a service request.
fn tcas_job() -> Job {
    let version = tcas_versions().into_iter().next().expect("v1 exists");
    let faulty = version.build(TCAS_SOURCE);
    let pool = siemens::tcas_test_vectors(120, 2011);
    let interp = siemens::tcas_interp_config();
    let failing = pool
        .iter()
        .find(|input| {
            let outcome = bmc::run_program(&faulty, TCAS_ENTRY, input, &[], interp);
            outcome.result != Some(siemens::tcas_golden_output(input)) || !outcome.is_ok()
        })
        .expect("v1 has a failing vector");
    let golden = siemens::tcas_golden_output(failing);
    let mut job = Job::new(
        minic::pretty_program(&faulty),
        TCAS_ENTRY,
        JobSpec::ReturnEquals(golden),
        vec![failing.clone()],
    );
    job.options.width = 16;
    job.options.unwind = 6;
    job.options.max_inline_depth = 8;
    job.options.max_suspect_sets = 4;
    job.options.trusted_lines = tcas_trusted_lines().iter().map(|l| l.0).collect();
    job
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx]
}

/// Hardware threads available to this process, recorded in the output so a
/// timing names the parallelism it ran with.
fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The code the output measured: `git describe --always --dirty` of the
/// working directory (a `-dirty` suffix marks uncommitted edits on top of
/// that revision), or `"unknown"` outside a git checkout.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |rev| rev.trim().to_string())
}

/// One version of an edit-stream program: a build-heavy straight-line
/// `main` calling a `helper`, with `blanks` inserted blank lines (the
/// line-shift edits) and `sem` as the helper's constant (the semantic
/// edits). `family` disambiguates per-client and revise-vs-cold chains so
/// their cache keys never collide.
fn edit_stream_source(family: i64, blanks: usize, sem: i64, body_lines: usize) -> String {
    let mut source = format!(
        "int helper(int a) {{\nreturn a + {sem};\n}}\nint main(int x) {{\n{}int y = helper(x) + {};\n",
        "\n".repeat(blanks),
        2 + family,
    );
    for _ in 0..body_lines {
        source.push_str("y = y + 1;\n");
    }
    source.push_str("return y;\n}");
    source
}

fn edit_stream_job(family: i64, blanks: usize, sem: i64, body_lines: usize) -> Job {
    // The golden function would return 4; this family never does, so every
    // version has a failing run to localize.
    let mut job = Job::new(
        edit_stream_source(family, blanks, sem, body_lines),
        "main",
        JobSpec::ReturnEquals(4),
        vec![vec![3]],
    );
    job.options.max_suspect_sets = 2;
    job
}

struct EditStreamResult {
    revise_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    reused: usize,
    rebuilds: usize,
}

/// One client's edit loop: a cold base request, then `edits` single-line
/// edits re-localized via `revise`, then the same edit sequence replayed
/// cold through `localize` on a twin program family.
fn edit_stream_client(
    addr: std::net::SocketAddr,
    client_index: i64,
    edits: usize,
    body_lines: usize,
) -> EditStreamResult {
    let mut client = Client::connect(addr).expect("connects");
    let family = client_index * 10;
    let twin = family + 1_000_000;

    // Edit i: every third edit changes the helper's constant (semantic,
    // forces a re-encode); the rest insert a blank line (pure line shift,
    // reused via relabeling).
    let geometry = |edit: usize| {
        let sems = edit / 3;
        (edit - sems, 2 + sems as i64)
    };

    let base = client
        .localize(edit_stream_job(family, 0, 2, body_lines))
        .expect("edit-stream base localize");
    let mut key = base.key;
    let mut revise_ms = Vec::with_capacity(edits);
    let (mut reused, mut rebuilds) = (0usize, 0usize);
    for edit in 1..=edits {
        let (blanks, sem) = geometry(edit);
        let job = edit_stream_job(family, blanks, sem, body_lines);
        let started = Instant::now();
        let outcome = client.revise(job, key).expect("revise");
        revise_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let line_shift_edit = edit % 3 != 0;
        assert_eq!(
            outcome.reused, line_shift_edit,
            "edit {edit} classified {} unexpectedly",
            outcome.delta
        );
        if outcome.reused {
            reused += 1;
        } else {
            rebuilds += 1;
        }
        key = outcome.outcome.key;
    }

    // The control chain: same sizes, same edit sequence, no delta reuse —
    // every version is a fresh program, built cold.
    client
        .localize(edit_stream_job(twin, 0, 2, body_lines))
        .expect("twin base localize");
    let mut cold_ms = Vec::with_capacity(edits);
    for edit in 1..=edits {
        let (blanks, sem) = geometry(edit);
        let job = edit_stream_job(twin, blanks, sem, body_lines);
        let started = Instant::now();
        let outcome = client.localize(job).expect("cold edited localize");
        cold_ms.push(started.elapsed().as_secs_f64() * 1e3);
        assert!(!outcome.cache_hit, "every edited twin is a new program");
    }

    EditStreamResult {
        revise_ms,
        cold_ms,
        reused,
        rebuilds,
    }
}

/// One measured overload run: `clients` synchronous clients hammering one
/// pre-warmed program against a deliberately undersized daemon.
struct OverloadOutcome {
    requests: usize,
    ok: usize,
    /// `overloaded` rejections (admission control shed the job).
    shed: usize,
    /// `deadline_exceeded` answers (the deadline died in the queue).
    expired: usize,
    ok_p50_ms: f64,
    ok_p99_ms: f64,
    /// p99 over *every* answer, sheds included — the client-visible worst
    /// case. Shed answers return in microseconds, which is the point.
    answer_p99_ms: f64,
    wall_s: f64,
}

impl OverloadOutcome {
    fn to_json(&self) -> Json {
        let round3 = |v: f64| Json::Float((v * 1e3).round() / 1e3);
        Json::obj(vec![
            ("requests", Json::from(self.requests)),
            ("ok", Json::from(self.ok)),
            ("shed", Json::from(self.shed)),
            ("expired", Json::from(self.expired)),
            (
                "shed_rate",
                Json::Float(
                    ((self.shed + self.expired) as f64 / self.requests.max(1) as f64 * 1e4).round()
                        / 1e4,
                ),
            ),
            ("ok_p50_ms", round3(self.ok_p50_ms)),
            ("ok_p99_ms", round3(self.ok_p99_ms)),
            ("answer_p99_ms", round3(self.answer_p99_ms)),
            ("wall_s", round3(self.wall_s)),
        ])
    }
}

/// Drives one warm program at 2x worker capacity (4 synchronous clients per
/// worker, so roughly two jobs are always waiting per running one) and
/// measures what the daemon does with the excess. With a server-side
/// default deadline the admission controller sheds (`overloaded` in
/// microseconds); without one the queue blocks the reader and every
/// request eventually completes, at the price of fat tail latency.
fn overload_run(
    job: &Job,
    clients: usize,
    per_client: usize,
    deadline_ms: Option<u64>,
) -> OverloadOutcome {
    let server = Server::start(ServiceConfig {
        workers: 2,
        queue_capacity: 2,
        default_deadline_ms: deadline_ms,
        ..ServiceConfig::default()
    })
    .expect("daemon starts");
    let addr = server.local_addr();
    {
        // Warm the prepared entry so every measured request is solve-only.
        let mut client = Client::connect(addr).expect("connects");
        client.localize(job.clone()).expect("overload warm build");
    }
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let job = job.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connects");
                let mut ok_ms: Vec<f64> = Vec::with_capacity(per_client);
                let mut answer_ms: Vec<f64> = Vec::with_capacity(per_client);
                let (mut shed, mut expired) = (0usize, 0usize);
                for _ in 0..per_client {
                    let t = Instant::now();
                    let result = client.localize(job.clone());
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    answer_ms.push(ms);
                    match result {
                        Ok(_) => ok_ms.push(ms),
                        Err(err) if err.kind() == Some("overloaded") => shed += 1,
                        Err(err) if err.kind() == Some("deadline_exceeded") => expired += 1,
                        Err(err) => panic!("unexpected overload error: {err}"),
                    }
                }
                (ok_ms, answer_ms, shed, expired)
            })
        })
        .collect();
    let mut ok_ms: Vec<f64> = Vec::new();
    let mut answer_ms: Vec<f64> = Vec::new();
    let (mut shed, mut expired) = (0usize, 0usize);
    for handle in handles {
        let (o, a, s, e) = handle.join().expect("overload client panicked");
        ok_ms.extend(o);
        answer_ms.extend(a);
        shed += s;
        expired += e;
    }
    let wall_s = started.elapsed().as_secs_f64();
    server.shutdown();
    let sort = |v: &mut Vec<f64>| v.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    sort(&mut ok_ms);
    sort(&mut answer_ms);
    OverloadOutcome {
        requests: answer_ms.len(),
        ok: ok_ms.len(),
        shed,
        expired,
        ok_p50_ms: if ok_ms.is_empty() {
            0.0
        } else {
            percentile(&ok_ms, 0.50)
        },
        ok_p99_ms: if ok_ms.is_empty() {
            0.0
        } else {
            percentile(&ok_ms, 0.99)
        },
        answer_p99_ms: percentile(&answer_ms, 0.99),
        wall_s,
    }
}

/// The chaos scenario: a daemon with a seeded [`FaultPlan`] (worker
/// panics, pickup stalls, solve delays, build panics) plus four abusive
/// raw-socket clients (garbage line, truncated request, oversized line,
/// slow trickler), all while retrying good clients demand byte-identical
/// canonical answers for their unaffected jobs. Asserts the goodput floor
/// and that no fault killed a worker or wedged the daemon.
fn chaos_run(quick: bool) -> Json {
    let variants: Vec<Job> = (0..if quick { 3 } else { 5 })
        .map(|d| minic_job(d as i64 + 1))
        .collect();

    // Fault-free canonical answers, from a pristine daemon.
    let mut expected: Vec<String> = Vec::new();
    {
        let server = Server::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        })
        .expect("clean daemon starts");
        let mut client = Client::connect(server.local_addr()).expect("connects");
        for job in &variants {
            let outcome = client.localize(job.clone()).expect("clean localize");
            expected.push(canonicalize(&outcome.body).to_string());
        }
        server.shutdown();
    }

    let plan = Arc::new(FaultPlan::new(FaultConfig {
        seed: 2011,
        stall_period: 5,
        stall_ms: 30,
        panic_period: 7,
        delay_period: 3,
        delay_ms: 20,
        build_panic_period: 4,
        crash_after_executes: 0,
    }));
    let server = Server::start(ServiceConfig {
        workers: 2,
        queue_capacity: 4,
        max_request_bytes: 1 << 16,
        read_timeout_ms: Some(250),
        write_timeout_ms: Some(250),
        fault_plan: Some(Arc::clone(&plan)),
        ..ServiceConfig::default()
    })
    .expect("chaos daemon starts");
    let addr = server.local_addr();

    // Abusive clients: each mode violates the protocol a different way.
    // None of them may wedge a connection thread or take the daemon down.
    let abusers: Vec<_> = (0..4u8)
        .map(|mode| {
            std::thread::spawn(move || {
                use std::io::{Read, Write};
                for _ in 0..3 {
                    let Ok(mut socket) = std::net::TcpStream::connect(addr) else {
                        continue;
                    };
                    let _ = socket.set_read_timeout(Some(Duration::from_millis(600)));
                    match mode {
                        // Garbage that is not JSON.
                        0 => drop(socket.write_all(b"this is not json\n")),
                        // A request cut off mid-object, then a hard close.
                        1 => drop(socket.write_all(b"{\"op\":\"localize\",\"progr")),
                        // A line far past max_request_bytes.
                        2 => {
                            let _ = socket.write_all(&vec![b'x'; 1 << 17]);
                            let _ = socket.write_all(b"\n");
                        }
                        // A trickler: half a request, then silence past the
                        // server's read timeout.
                        _ => {
                            let _ = socket.write_all(b"{\"op\"");
                            std::thread::sleep(Duration::from_millis(400));
                            let _ = socket.write_all(b":\"health\",\"id\":1}\n");
                        }
                    }
                    // Drain whatever the server answers (or the reset).
                    let mut sink = [0u8; 512];
                    while matches!(socket.read(&mut sink), Ok(n) if n > 0) {}
                }
            })
        })
        .collect();

    // Good clients: retry transport failures and sheds, never accept a
    // wrong answer.
    let rounds: usize = if quick { 4 } else { 10 };
    let good_clients = 4usize;
    let goods: Vec<_> = (0..good_clients)
        .map(|c| {
            let variants = variants.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect_with(
                    addr,
                    ClientConfig {
                        connect_timeout: Some(Duration::from_secs(5)),
                        request_timeout: Some(Duration::from_secs(30)),
                        retries: 4,
                        retry_base: Duration::from_millis(20),
                        seed: c as u64,
                    },
                )
                .expect("connects");
                let (mut sent, mut ok, mut failed) = (0usize, 0usize, 0usize);
                for _ in 0..rounds {
                    for (i, job) in variants.iter().enumerate() {
                        sent += 1;
                        match client.localize(job.clone()) {
                            Ok(outcome) => {
                                assert_eq!(
                                    canonicalize(&outcome.body).to_string(),
                                    expected[i],
                                    "chaos corrupted an unaffected job's answer"
                                );
                                ok += 1;
                            }
                            // Structured, known failure classes only: an
                            // injected panic surfaces as internal_error, an
                            // exhausted retry budget as Io. Anything else
                            // is a robustness bug.
                            Err(ClientError::Io(_)) => failed += 1,
                            Err(err)
                                if matches!(
                                    err.kind(),
                                    Some("internal_error")
                                        | Some("overloaded")
                                        | Some("deadline_exceeded")
                                ) =>
                            {
                                failed += 1
                            }
                            Err(err) => panic!("unexpected chaos error: {err}"),
                        }
                    }
                }
                (sent, ok, failed)
            })
        })
        .collect();

    let (mut sent, mut ok, mut failed) = (0usize, 0usize, 0usize);
    for handle in goods {
        let (s, o, f) = handle.join().expect("good chaos client panicked");
        sent += s;
        ok += o;
        failed += f;
    }
    for handle in abusers {
        handle.join().expect("abusive chaos client panicked");
    }

    let (stalls, panics, delays, build_panics) = plan.injected();
    assert!(
        plan.injected_total() > 0,
        "the chaos run injected no faults at all — the scenario is vacuous"
    );
    let goodput = ok as f64 / sent.max(1) as f64;
    assert!(
        goodput >= 0.5,
        "goodput {goodput:.3} fell below the 0.5 floor ({ok}/{sent} ok)"
    );

    // The daemon must still be fully alive after the storm.
    let mut client = Client::connect(addr).expect("connects after chaos");
    client.health().expect("health after chaos");
    let stats = client.stats().expect("stats after chaos");
    let worker_panics = stats
        .get("robustness")
        .and_then(|r| r.get("worker_panics"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let poisoned = stats
        .get("cache")
        .and_then(|c| c.get("poisoned"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let shed = stats
        .get("queue")
        .and_then(|q| q.get("shed"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    server.shutdown();

    Json::obj(vec![
        ("clients", Json::from(good_clients)),
        ("abusers", Json::from(4u64)),
        ("rounds", Json::from(rounds)),
        ("requests", Json::from(sent)),
        ("ok", Json::from(ok)),
        ("failed", Json::from(failed)),
        ("goodput", Json::Float((goodput * 1e4).round() / 1e4)),
        ("byte_identical_ok_responses", Json::Bool(true)),
        (
            "faults_injected",
            Json::obj(vec![
                ("stalls", Json::from(stalls)),
                ("worker_panics", Json::from(panics)),
                ("delays", Json::from(delays)),
                ("build_panics", Json::from(build_panics)),
            ]),
        ),
        (
            "server",
            Json::obj(vec![
                ("worker_panics", Json::from(worker_panics)),
                ("cache_slots_poisoned", Json::from(poisoned)),
                ("jobs_shed", Json::from(shed)),
            ]),
        ),
    ])
}

/// The restart-recovery scenario: a first daemon lifetime builds the
/// program set cold and writes the prepared formulas through to a
/// persistent store directory; a second lifetime on the same directory
/// restores them on boot. Asserts that every first post-restart request is
/// served from the restored store (a cache hit, zero rebuild milliseconds),
/// that its report is byte-identical to the cold lifetime's, and that the
/// disk-warm total beats the cold total by more than 1.5x.
fn restart_run(quick: bool) -> Json {
    let store_dir =
        std::env::temp_dir().join(format!("bugassist-loadgen-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store_config = || ServiceConfig {
        workers: 2,
        store_dir: Some(store_dir.to_string_lossy().into_owned()),
        ..ServiceConfig::default()
    };
    let mut jobs: Vec<Job> = vec![wide_minic_job(if quick { 40 } else { 120 })];
    jobs.extend((0..if quick { 2 } else { 4 }).map(|d| minic_job(d as i64 + 1)));
    if !quick {
        jobs.push(tcas_job());
    }

    // Lifetime A: cold builds, asynchronous write-through.
    let server = Server::start(store_config()).expect("first daemon starts");
    let mut expected: Vec<String> = Vec::with_capacity(jobs.len());
    let mut cold_ms: Vec<f64> = Vec::with_capacity(jobs.len());
    {
        let mut client = Client::connect(server.local_addr()).expect("connects");
        for job in &jobs {
            let started = Instant::now();
            let outcome = client.localize(job.clone()).expect("cold localize");
            cold_ms.push(started.elapsed().as_secs_f64() * 1e3);
            assert_eq!(outcome.tier, "built", "first lifetime builds cold");
            expected.push(canonicalize(&outcome.body).to_string());
        }
        // The writer thread persists off the request path; wait until every
        // program's record has landed before shutting the daemon down.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let stats = client.stats().expect("stats");
            let writes = stats
                .get("store")
                .and_then(|s| s.get("writes"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            if writes >= jobs.len() as u64 {
                break;
            }
            assert!(Instant::now() < deadline, "write-through stalled: {stats}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    server.shutdown();

    // Lifetime B: restore-on-boot, then first requests with no rebuild.
    let server = Server::start(store_config()).expect("second daemon starts");
    let mut client = Client::connect(server.local_addr()).expect("reconnects");
    let stats = client.stats().expect("stats");
    let store_section = stats.get("store").expect("store section").clone();
    let restored = store_section
        .get("restored_entries")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let restore_ms = store_section
        .get("restore_ms")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert_eq!(
        restored,
        jobs.len() as u64,
        "restore-on-boot must recover every persisted record: {stats}"
    );
    let mut disk_warm_ms: Vec<f64> = Vec::with_capacity(jobs.len());
    for (job, expected) in jobs.iter().zip(&expected) {
        let started = Instant::now();
        let outcome = client.localize(job.clone()).expect("post-restart localize");
        disk_warm_ms.push(started.elapsed().as_secs_f64() * 1e3);
        assert!(
            outcome.cache_hit && outcome.tier == "memory",
            "the first post-restart request must be served from the restored \
             store, not rebuilt (cache_hit {}, tier {})",
            outcome.cache_hit,
            outcome.tier
        );
        assert_eq!(outcome.build_ms, 0, "no rebuild after restart");
        assert_eq!(
            &canonicalize(&outcome.body).to_string(),
            expected,
            "post-restart report must be byte-identical to the cold one"
        );
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);

    let cold_total: f64 = cold_ms.iter().sum();
    let disk_warm_total: f64 = disk_warm_ms.iter().sum();
    let speedup = cold_total / disk_warm_total;
    assert!(
        speedup > 1.5,
        "disk-warm restart (total {disk_warm_total:.3}ms) must beat cold \
         builds (total {cold_total:.3}ms) by more than 1.5x, got {speedup:.3}x"
    );
    let round3 = |v: f64| Json::Float((v * 1e3).round() / 1e3);
    Json::obj(vec![
        ("programs", Json::from(jobs.len())),
        ("restore_ms", Json::from(restore_ms)),
        ("restored_entries", Json::from(restored)),
        ("cold_total_ms", round3(cold_total)),
        ("disk_warm_total_ms", round3(disk_warm_total)),
        ("disk_warm_vs_cold_speedup", round3(speedup)),
        ("byte_identical_reports", Json::Bool(true)),
        ("store_counters_at_boot", store_section),
    ])
}

/// The fleet chaos-kill scenario: `replicas` daemons (each with its own
/// store directory) behind rendezvous-routing [`FleetClient`]s, one replica
/// crashed abruptly once a third of the request stream has completed.
/// Asserts the 0.90 goodput floor, byte-identical reports versus a single
/// reference daemon, at least one recorded failover, and that the restarted
/// replica's first repeat request is served from its store (`tier:"store"`,
/// with lazy restore). Records throughput, failover latency and restart
/// recovery time.
fn fleet_run(quick: bool, replicas: usize) -> Json {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let programs = if quick { 4 } else { 10 };
    let jobs: Vec<Job> = (0..programs).map(|d| minic_job(d as i64 + 50)).collect();

    // Reference answers from one pristine single daemon: whatever the fleet
    // does, every delivered report must match these bytes.
    let mut expected: Vec<String> = Vec::with_capacity(jobs.len());
    {
        let server = Server::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        })
        .expect("reference daemon starts");
        let mut client = Client::connect(server.local_addr()).expect("connects");
        for job in &jobs {
            let outcome = client.localize(job.clone()).expect("reference localize");
            expected.push(canonicalize(&outcome.body).to_string());
        }
        server.shutdown();
    }
    let expected = Arc::new(expected);
    let jobs = Arc::new(jobs);

    // The fleet: every replica owns its own store directory.
    let dirs: Vec<std::path::PathBuf> = (0..replicas)
        .map(|i| {
            let dir = std::env::temp_dir().join(format!(
                "bugassist-loadgen-fleet-{}-{i}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        })
        .collect();
    let replica_config = |i: usize, addr: String, restore_on_boot: bool| ServiceConfig {
        addr,
        workers: 2,
        store_dir: Some(dirs[i].to_string_lossy().into_owned()),
        restore_on_boot,
        ..ServiceConfig::default()
    };
    let mut servers: Vec<Option<Server>> = (0..replicas)
        .map(|i| {
            Some(
                Server::start(replica_config(i, "127.0.0.1:0".to_string(), true))
                    .expect("replica starts"),
            )
        })
        .collect();
    let addrs: Vec<String> = servers
        .iter()
        .map(|s| s.as_ref().unwrap().local_addr().to_string())
        .collect();
    let fleet_config = |seed: u64| FleetConfig {
        replicas: addrs.clone(),
        down_cooldown: Duration::from_millis(250),
        backoff_base: Duration::from_millis(10),
        seed,
        ..FleetConfig::default()
    };

    // Warm pass: land every program on its home replica, byte-identically,
    // and pick the victim (job 0's home). Its asynchronous write-through
    // must finish before the crash so the restart has records to serve.
    let mut warm = FleetClient::new(fleet_config(0));
    for (job, want) in jobs.iter().zip(expected.iter()) {
        let outcome = warm.localize(job.clone()).expect("warm fleet localize");
        assert_eq!(&canonicalize(&outcome.body).to_string(), want);
    }
    let victim = warm.home_of(routing_key(&jobs[0]));
    let victim_homed = jobs
        .iter()
        .filter(|job| warm.home_of(routing_key(job)) == victim)
        .count() as u64;
    {
        let mut health = Client::connect(addrs[victim].as_str()).expect("connects");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let report = health.health_report().expect("health");
            let writes = report
                .get("store")
                .and_then(|s| s.get("writes"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            if writes >= victim_homed {
                break;
            }
            assert!(Instant::now() < deadline, "write-through stalled: {report}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    // The measured stream, with the kill mid-way: `clients` fleet clients
    // play `rounds` rounds over the program set; once a third of the
    // requests have completed, the victim is crashed abruptly (no drain,
    // no snapshot) under the survivors' feet.
    let clients = if quick { 2 } else { 4 };
    let rounds = if quick { 4 } else { 10 };
    let total = clients * rounds * jobs.len();
    let completed = Arc::new(AtomicUsize::new(0));
    let stream_started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let jobs = Arc::clone(&jobs);
            let expected = Arc::clone(&expected);
            let completed = Arc::clone(&completed);
            let config = fleet_config(c as u64 + 1);
            std::thread::spawn(move || {
                let mut fleet = FleetClient::new(config);
                let (mut sent, mut ok, mut failed) = (0usize, 0usize, 0usize);
                for _ in 0..rounds {
                    for (i, job) in jobs.iter().enumerate() {
                        sent += 1;
                        match fleet.localize(job.clone()) {
                            Ok(outcome) => {
                                assert_eq!(
                                    canonicalize(&outcome.body).to_string(),
                                    expected[i],
                                    "fleet delivered a non-identical report"
                                );
                                ok += 1;
                            }
                            Err(_) => failed += 1,
                        }
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                (sent, ok, failed, fleet.stats().failovers)
            })
        })
        .collect();
    while completed.load(Ordering::Relaxed) < total / 3 {
        assert!(
            stream_started.elapsed() < Duration::from_secs(120),
            "fleet stream stalled before the kill"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let killed_at_requests = completed.load(Ordering::Relaxed);
    servers[victim].take().expect("victim running").crash();
    let (mut sent, mut ok, mut failed, mut failovers) = (0usize, 0usize, 0usize, 0u64);
    for handle in handles {
        let (s, o, f, fo) = handle.join().expect("fleet client panicked");
        sent += s;
        ok += o;
        failed += f;
        failovers += fo;
    }
    let wall_s = stream_started.elapsed().as_secs_f64();
    let goodput = ok as f64 / sent.max(1) as f64;
    assert!(
        goodput >= 0.90,
        "fleet goodput {goodput:.3} fell below the 0.90 floor ({ok}/{sent} ok)"
    );
    assert!(
        failovers >= 1,
        "killing a home replica mid-stream must record failovers"
    );

    // Failover latency, isolated: a fresh client whose first attempt lands
    // on the dead home and must discover the failure and re-route.
    let failover_latency_ms = {
        let mut probe = FleetClient::new(fleet_config(99));
        let started = Instant::now();
        let outcome = probe.localize(jobs[0].clone()).expect("failover answers");
        assert_eq!(&canonicalize(&outcome.body).to_string(), &expected[0]);
        started.elapsed().as_secs_f64() * 1e3
    };

    // Restart recovery: the victim comes back on its old address and store
    // directory with lazy restore; its first repeat request must answer
    // from the disk tier, byte-identically — no rebuild.
    let restart_started = Instant::now();
    let restarted = {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Server::start(replica_config(victim, addrs[victim].clone(), false)) {
                Ok(server) => break server,
                Err(e)
                    if e.kind() == std::io::ErrorKind::AddrInUse && Instant::now() < deadline =>
                {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) => panic!("victim restart failed: {e}"),
            }
        }
    };
    let first_repeat_tier = {
        let mut direct = Client::connect(addrs[victim].as_str()).expect("reconnects");
        let outcome = direct.localize(jobs[0].clone()).expect("restarted answers");
        assert_eq!(
            outcome.tier, "store",
            "restarted replica must serve its first repeat request from the store"
        );
        assert_eq!(&canonicalize(&outcome.body).to_string(), &expected[0]);
        outcome.tier
    };
    let restart_recovery_ms = restart_started.elapsed().as_secs_f64() * 1e3;

    restarted.shutdown();
    for server in servers.into_iter().flatten() {
        server.shutdown();
    }
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }

    let round3 = |v: f64| Json::Float((v * 1e3).round() / 1e3);
    Json::obj(vec![
        ("replicas", Json::from(replicas)),
        ("programs", Json::from(jobs.len())),
        ("clients", Json::from(clients)),
        ("rounds", Json::from(rounds)),
        ("requests", Json::from(sent)),
        ("ok", Json::from(ok)),
        ("failed", Json::from(failed)),
        ("goodput", Json::Float((goodput * 1e4).round() / 1e4)),
        ("killed_replica", Json::from(victim)),
        ("killed_at_requests", Json::from(killed_at_requests)),
        ("failovers", Json::from(failovers)),
        ("byte_identical_reports", Json::Bool(true)),
        ("throughput_rps", round3(sent as f64 / wall_s)),
        ("failover_latency_ms", round3(failover_latency_ms)),
        (
            "restart",
            Json::obj(vec![
                ("recovery_ms", round3(restart_recovery_ms)),
                ("first_repeat_tier", Json::str(first_repeat_tier)),
            ]),
        ),
    ])
}

fn main() {
    let Args {
        output,
        samples,
        quick,
        chaos_only,
        restart_only,
        chaos_kill_only,
        replicas,
    } = parse_args();
    if chaos_kill_only {
        eprintln!("chaos-kill mode: {replicas}-replica fleet, one replica crashed mid-stream");
        let fleet = fleet_run(quick, replicas);
        let report = Json::obj(vec![
            ("benchmark", Json::str("localization_service_fleet")),
            ("quick", Json::Bool(quick)),
            ("fleet", fleet),
        ]);
        let pretty = report.pretty();
        std::fs::write(&output, &pretty).expect("write benchmark json");
        eprintln!("wrote {output}");
        println!("{pretty}");
        return;
    }
    if restart_only {
        eprintln!("restart-only mode: persistent store recovery across a daemon restart");
        let persistence = restart_run(quick);
        let report = Json::obj(vec![
            ("benchmark", Json::str("localization_service_restart")),
            ("quick", Json::Bool(quick)),
            ("persistence", persistence),
        ]);
        let pretty = report.pretty();
        std::fs::write(&output, &pretty).expect("write benchmark json");
        eprintln!("wrote {output}");
        println!("{pretty}");
        return;
    }
    if chaos_only {
        eprintln!("chaos-only mode: seeded fault injection + abusive clients");
        let chaos = chaos_run(quick);
        let report = Json::obj(vec![
            ("benchmark", Json::str("localization_service_chaos")),
            ("quick", Json::Bool(quick)),
            ("chaos", chaos),
        ]);
        let pretty = report.pretty();
        std::fs::write(&output, &pretty).expect("write benchmark json");
        eprintln!("wrote {output}");
        println!("{pretty}");
        return;
    }
    let clients = if quick { 2 } else { 4 };
    let minic_variants = if quick { 2 } else { 6 };

    let mut jobs: Vec<Job> = vec![tcas_job(), wide_minic_job(if quick { 40 } else { 120 })];
    jobs.extend((0..minic_variants).map(|d| minic_job(d as i64 + 1)));
    let jobs = Arc::new(jobs);
    let programs = jobs.len();

    // Capacity must hold every key this run creates (base programs plus
    // each edit-stream client's revise and cold-twin chains, ~90 in full
    // mode): an LRU eviction of a client's latest entry mid-chain would
    // turn its next line-shift revise into `prev_missing` and flake the
    // per-edit classification asserts. This benchmark measures prepare and
    // solve reuse, not eviction — the eviction path has its own tests.
    let config = ServiceConfig {
        cache_capacity: 256,
        cache_shards: 4,
        ..ServiceConfig::default()
    };
    let workers = config.workers;
    let queue_capacity = config.queue_capacity;
    let cache_capacity = config.cache_capacity;
    let server = Server::start(config).expect("daemon starts");
    let addr = server.local_addr();
    eprintln!(
        "daemon on {addr}: {workers} workers, queue {queue_capacity}, \
         {programs} programs, {clients} clients x {samples} warm rounds"
    );

    // --- cold phase: first request per program pays the full build -------
    let mut cold_ms: Vec<f64> = Vec::with_capacity(programs);
    let mut build_ms: Vec<u64> = Vec::with_capacity(programs);
    {
        let mut client = Client::connect(addr).expect("connects");
        for job in jobs.iter() {
            let started = Instant::now();
            let outcome = client.localize(job.clone()).expect("cold localize");
            cold_ms.push(started.elapsed().as_secs_f64() * 1e3);
            assert!(!outcome.cache_hit, "first request must be a miss");
            build_ms.push(outcome.build_ms);
        }
    }
    let cold_mean_ms = cold_ms.iter().sum::<f64>() / cold_ms.len() as f64;

    // --- warm phase: concurrent clients over the now-cached programs ------
    let warm_started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let jobs = Arc::clone(&jobs);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connects");
                let mut latencies_ms = Vec::with_capacity(samples * jobs.len());
                for round in 0..samples {
                    for i in 0..jobs.len() {
                        let j = (c + round + i) % jobs.len();
                        let started = Instant::now();
                        let outcome = client.localize(jobs[j].clone()).expect("warm localize");
                        latencies_ms.push(started.elapsed().as_secs_f64() * 1e3);
                        assert!(outcome.cache_hit, "warm request must hit the cache");
                    }
                }
                latencies_ms
            })
        })
        .collect();
    let mut warm_ms: Vec<f64> = Vec::new();
    for handle in handles {
        warm_ms.extend(handle.join().expect("client thread panicked"));
    }
    let warm_wall_s = warm_started.elapsed().as_secs_f64();
    warm_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let warm_requests = warm_ms.len();
    let warm_p50 = percentile(&warm_ms, 0.50);
    let warm_p99 = percentile(&warm_ms, 0.99);
    let warm_mean = warm_ms.iter().sum::<f64>() / warm_requests as f64;
    let throughput_rps = warm_requests as f64 / warm_wall_s;

    // --- uncontended warm phase: per-program repeat-request latency -------
    // The apples-to-apples comparison against the cold phase (which also
    // ran uncontended): same client, same pipeline, only the cache state
    // differs. Median of `samples + 2` repeats per program.
    let mut warm_single_ms: Vec<f64> = Vec::with_capacity(programs);
    {
        let mut client = Client::connect(addr).expect("connects");
        for job in jobs.iter() {
            let mut repeats: Vec<f64> = (0..samples + 2)
                .map(|_| {
                    let started = Instant::now();
                    let outcome = client.localize(job.clone()).expect("warm localize");
                    assert!(outcome.cache_hit);
                    started.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            repeats.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
            warm_single_ms.push(percentile(&repeats, 0.50));
        }
    }
    let cold_total: f64 = cold_ms.iter().sum();
    let warm_total: f64 = warm_single_ms.iter().sum();

    // --- server-side cache counters (snapshotted before the edit stream,
    // so the hit rate reflects the cold/warm workload above; the edit
    // stream's revisions are deliberate misses) ---------------------------
    let mut client = Client::connect(addr).expect("connects");
    let stats = client.stats().expect("stats");
    let cache = stats.get("cache").expect("cache section").clone();
    let hits = cache.get("hits").and_then(Json::as_u64).unwrap_or(0);
    let misses = cache.get("misses").and_then(Json::as_u64).unwrap_or(0);
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;

    // --- edit-stream phase: k single-line edits per client, revise vs a
    // cold twin chain ------------------------------------------------------
    let edit_clients: usize = if quick { 2 } else { 3 };
    let edits_per_client: usize = if quick { 5 } else { 12 };
    let edit_body_lines: usize = if quick { 30 } else { 80 };
    let edit_handles: Vec<_> = (0..edit_clients)
        .map(|c| {
            std::thread::spawn(move || {
                edit_stream_client(addr, c as i64, edits_per_client, edit_body_lines)
            })
        })
        .collect();
    let mut revise_ms: Vec<f64> = Vec::new();
    let mut edited_cold_ms: Vec<f64> = Vec::new();
    let (mut revise_reused, mut revise_rebuilds) = (0usize, 0usize);
    for handle in edit_handles {
        let result = handle.join().expect("edit-stream client panicked");
        revise_ms.extend(result.revise_ms);
        edited_cold_ms.extend(result.cold_ms);
        revise_reused += result.reused;
        revise_rebuilds += result.rebuilds;
    }
    let revise_total: f64 = revise_ms.iter().sum();
    let edited_cold_total: f64 = edited_cold_ms.iter().sum();
    let revise_mean = revise_total / revise_ms.len() as f64;
    let edited_cold_mean = edited_cold_total / edited_cold_ms.len() as f64;

    // Queue/solver totals come from a *final* snapshot so the recorded
    // artifact covers every request of the run, edit stream included.
    let stats = client.stats().expect("final stats");
    let solver = stats.get("solver").expect("solver section").clone();
    let queue = stats.get("queue").expect("queue section").clone();
    // Formula-diet totals (preprocessor removals, word-level folds) across
    // every solved job of the run; a dead diet pipeline fails the bench.
    let formula = stats.get("formula").expect("formula section").clone();
    assert!(
        formula.get("vars_eliminated").and_then(Json::as_u64) > Some(0),
        "the CNF simplifier eliminated nothing across the whole run: {formula:?}"
    );
    // Static-analysis totals (soft selectors hardened by the relevance
    // prune, lint warnings observed) across every solved job of the run.
    let analysis = stats.get("analysis").expect("analysis section").clone();
    server.shutdown();

    // The edit loop's reason to exist: re-localizing after an edit through
    // revise must beat rebuilding the edited program cold.
    assert!(
        revise_total < edited_cold_total,
        "revise chain (total {revise_total:.3}ms) must beat the cold edited \
         chain (total {edited_cold_total:.3}ms)"
    );

    // The daemon's whole reason to exist: repeat requests must be
    // measurably faster than first requests (per program, uncontended, so
    // the only difference is the prepared-formula cache).
    assert!(
        warm_total < cold_total,
        "warm per-program medians (total {warm_total:.3}ms) must beat cold \
         first-request latencies (total {cold_total:.3}ms)"
    );

    // --- overload phase: 2x-capacity load, with vs without admission -----
    let overload_clients = if quick { 6 } else { 8 };
    let overload_per_client = if quick { 3 } else { 8 };
    let overload_job = tcas_job();
    eprintln!("overload: {overload_clients} clients x {overload_per_client} requests, 2 workers");
    let with_admission = overload_run(
        &overload_job,
        overload_clients,
        overload_per_client,
        Some(300),
    );
    let without_admission =
        overload_run(&overload_job, overload_clients, overload_per_client, None);
    assert_eq!(
        without_admission.shed + without_admission.expired,
        0,
        "unbudgeted jobs must never be shed — backpressure blocks instead"
    );

    // --- chaos phase ------------------------------------------------------
    eprintln!("chaos: seeded fault injection + abusive clients");
    let chaos = chaos_run(quick);

    // --- persistence phase: restart recovery from the disk tier ----------
    eprintln!("persistence: restart recovery from the disk-backed store");
    let persistence = restart_run(quick);

    // --- fleet phase: chaos-kill across replicas --------------------------
    eprintln!("fleet: {replicas}-replica chaos-kill with failover and warm restart");
    let fleet = fleet_run(quick, replicas);

    let report = Json::obj(vec![
        ("benchmark", Json::str("localization_service_loadgen")),
        ("hardware_threads", Json::from(hardware_threads())),
        ("git_revision", Json::str(git_revision())),
        (
            "config",
            Json::obj(vec![
                ("workers", Json::from(workers)),
                ("queue_capacity", Json::from(queue_capacity)),
                ("cache_capacity", Json::from(cache_capacity)),
                ("clients", Json::from(clients)),
                ("warm_rounds_per_client", Json::from(samples)),
                ("programs", Json::from(programs)),
                ("quick", Json::Bool(quick)),
            ]),
        ),
        (
            "cold",
            Json::obj(vec![
                ("mean_ms", Json::Float((cold_mean_ms * 1e3).round() / 1e3)),
                ("total_ms", Json::Float((cold_total * 1e3).round() / 1e3)),
                (
                    "per_program_ms",
                    Json::Arr(
                        cold_ms
                            .iter()
                            .map(|&ms| Json::Float((ms * 1e3).round() / 1e3))
                            .collect(),
                    ),
                ),
                (
                    "server_build_ms",
                    Json::Arr(build_ms.iter().map(|&ms| Json::from(ms)).collect()),
                ),
            ]),
        ),
        (
            "warm_uncontended",
            Json::obj(vec![
                ("total_ms", Json::Float((warm_total * 1e3).round() / 1e3)),
                (
                    "per_program_p50_ms",
                    Json::Arr(
                        warm_single_ms
                            .iter()
                            .map(|&ms| Json::Float((ms * 1e3).round() / 1e3))
                            .collect(),
                    ),
                ),
                (
                    "speedup_vs_cold",
                    Json::Float(((cold_total / warm_total) * 1e3).round() / 1e3),
                ),
            ]),
        ),
        (
            "warm_concurrent",
            Json::obj(vec![
                ("requests", Json::from(warm_requests)),
                ("p50_ms", Json::Float((warm_p50 * 1e3).round() / 1e3)),
                ("p99_ms", Json::Float((warm_p99 * 1e3).round() / 1e3)),
                ("mean_ms", Json::Float((warm_mean * 1e3).round() / 1e3)),
                (
                    "throughput_rps",
                    Json::Float((throughput_rps * 1e3).round() / 1e3),
                ),
            ]),
        ),
        (
            "cache",
            Json::obj(vec![
                ("hit_rate", Json::Float((hit_rate * 1e4).round() / 1e4)),
                ("counters", cache),
            ]),
        ),
        (
            "edit_stream",
            Json::obj(vec![
                ("clients", Json::from(edit_clients)),
                ("edits_per_client", Json::from(edits_per_client)),
                ("body_lines", Json::from(edit_body_lines)),
                (
                    "revise",
                    Json::obj(vec![
                        ("total_ms", Json::Float((revise_total * 1e3).round() / 1e3)),
                        ("mean_ms", Json::Float((revise_mean * 1e3).round() / 1e3)),
                        ("reused", Json::from(revise_reused)),
                        ("rebuilds", Json::from(revise_rebuilds)),
                    ]),
                ),
                (
                    "cold_rebuild",
                    Json::obj(vec![
                        (
                            "total_ms",
                            Json::Float((edited_cold_total * 1e3).round() / 1e3),
                        ),
                        (
                            "mean_ms",
                            Json::Float((edited_cold_mean * 1e3).round() / 1e3),
                        ),
                    ]),
                ),
                (
                    "revise_speedup_vs_cold",
                    Json::Float(((edited_cold_total / revise_total) * 1e3).round() / 1e3),
                ),
            ]),
        ),
        (
            "overload",
            Json::obj(vec![
                ("workers", Json::from(2u64)),
                ("queue_capacity", Json::from(2u64)),
                ("clients", Json::from(overload_clients)),
                ("requests_per_client", Json::from(overload_per_client)),
                ("deadline_ms", Json::from(300u64)),
                ("with_admission", with_admission.to_json()),
                ("without_admission", without_admission.to_json()),
            ]),
        ),
        ("chaos", chaos),
        ("persistence", persistence),
        ("fleet", fleet),
        ("queue", queue),
        ("solver", solver),
        ("formula", formula),
        ("analysis", analysis),
    ]);
    let pretty = report.pretty();
    std::fs::write(&output, &pretty).expect("write benchmark json");
    eprintln!("wrote {output}");
    println!("{pretty}");
}
