//! The daemon under load, at quick sizes: warm repeat requests against
//! cold first requests, an edit loop through `revise` against cold
//! rebuilds of the same edits, overload at twice the worker capacity with
//! and without admission control, and a seeded fault plan running next to
//! abusive raw-socket clients.
//!
//! Speed is measured by `perfbench`; the timing checks here only pin the
//! orderings the daemon exists for (a warm request beats a cold one, a
//! revise beats a rebuild), on workloads whose gap is a whole build.

use service::protocol::canonicalize;
use service::{
    Client, ClientConfig, ClientError, FaultConfig, FaultPlan, Job, JobSpec, Json, Server,
    ServiceConfig,
};
use siemens::{tcas_trusted_lines, tcas_versions, TCAS_ENTRY, TCAS_SOURCE};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn canonical(body: &Json) -> String {
    canonicalize(body).to_string()
}

fn elapsed_ms(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

fn stat(stats: &Json, section: &str, field: &str) -> u64 {
    stats
        .get(section)
        .and_then(|s| s.get(field))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats.{section}.{field} missing: {stats}"))
}

/// A family of distinct small faulty programs (each delta is its own AST,
/// hence its own cache entry).
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
/// top) whose encoding dwarfs its MAX-SAT solve.
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

/// TCAS v1 with a failing vector against its golden output: the paper's
/// Table 1 workload as one service request.
fn tcas_job() -> Job {
    let version = tcas_versions().into_iter().next().expect("v1 exists");
    let faulty = version.build(TCAS_SOURCE);
    let interp = siemens::tcas_interp_config();
    let failing = siemens::tcas_test_vectors(120, 2011)
        .into_iter()
        .find(|input| {
            let outcome = bmc::run_program(&faulty, TCAS_ENTRY, input, &[], interp);
            outcome.result != Some(siemens::tcas_golden_output(input)) || !outcome.is_ok()
        })
        .expect("v1 has a failing vector");
    let mut job = Job::new(
        minic::pretty_program(&faulty),
        TCAS_ENTRY,
        JobSpec::ReturnEquals(siemens::tcas_golden_output(&failing)),
        vec![failing],
    );
    job.options.width = 16;
    job.options.unwind = 6;
    job.options.max_inline_depth = 8;
    job.options.max_suspect_sets = 4;
    job.options.trusted_lines = tcas_trusted_lines().iter().map(|l| l.0).collect();
    job
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    samples[samples.len() / 2]
}

/// The first request per program builds; every repeat, from concurrent
/// clients or one, hits the prepared formula without rebuilding, and the
/// repeats together take less time than the first requests.
#[test]
fn warm_requests_hit_the_cache_and_beat_cold_builds() {
    let jobs = Arc::new(vec![
        tcas_job(),
        wide_minic_job(40),
        minic_job(1),
        minic_job(2),
    ]);
    let server = Server::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    })
    .expect("daemon starts");
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connects");
    let mut cold_ms = Vec::with_capacity(jobs.len());
    let mut expected = Vec::with_capacity(jobs.len());
    for job in jobs.iter() {
        let started = Instant::now();
        let outcome = client.localize(job.clone()).expect("cold localize");
        cold_ms.push(elapsed_ms(started));
        assert!(!outcome.cache_hit, "the first request must be a miss");
        assert_eq!(outcome.tier, "built");
        expected.push(canonical(&outcome.body));
    }
    let expected = Arc::new(expected);

    // Two concurrent clients, each starting at a different program.
    let handles: Vec<_> = (0..2)
        .map(|c| {
            let jobs = Arc::clone(&jobs);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connects");
                for round in 0..2 {
                    for i in 0..jobs.len() {
                        let j = (c + round + i) % jobs.len();
                        let outcome = client.localize(jobs[j].clone()).expect("warm localize");
                        assert!(outcome.cache_hit, "a warm request must hit the cache");
                        assert_eq!(outcome.build_ms, 0, "a warm request never rebuilds");
                        assert_eq!(canonical(&outcome.body), expected[j]);
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("warm client panicked");
    }

    // Uncontended repeats, like the cold phase: only the cache state
    // differs. The median of three per program.
    let warm_ms: Vec<f64> = jobs
        .iter()
        .map(|job| {
            median(
                (0..3)
                    .map(|_| {
                        let started = Instant::now();
                        let outcome = client.localize(job.clone()).expect("warm localize");
                        assert!(outcome.cache_hit);
                        assert_eq!(outcome.build_ms, 0);
                        elapsed_ms(started)
                    })
                    .collect(),
            )
        })
        .collect();
    server.shutdown();

    let cold_total: f64 = cold_ms.iter().sum();
    let warm_total: f64 = warm_ms.iter().sum();
    assert!(
        warm_total < cold_total,
        "warm per-program medians (total {warm_total:.3}ms) must beat cold \
         first requests (total {cold_total:.3}ms)"
    );
}

/// One version of an edit-stream program: a build-heavy `main` calling a
/// `helper`, with `blanks` blank lines inserted (the line-shift edits) and
/// `sem` as the helper's constant (the semantic edits). `family` keeps the
/// revise chain's and the cold chain's cache keys apart.
fn edit_stream_job(family: i64, blanks: usize, sem: i64) -> Job {
    let mut source = format!(
        "int helper(int a) {{\nreturn a + {sem};\n}}\nint main(int x) {{\n{}int y = helper(x) + {};\n",
        "\n".repeat(blanks),
        2 + family,
    );
    for _ in 0..30 {
        source.push_str("y = y + 1;\n");
    }
    source.push_str("return y;\n}");
    // The golden function would return 4; this family never does, so every
    // version has a failing run to localize.
    let mut job = Job::new(source, "main", JobSpec::ReturnEquals(4), vec![vec![3]]);
    job.options.max_suspect_sets = 2;
    job
}

/// An edit loop: every third edit changes the helper's constant, the rest
/// insert a blank line. Re-localizing each version through `revise` reuses
/// the line shifts and rebuilds the semantic edits; a twin chain replays
/// the same edits through `localize`, where every version is a new program.
/// Each revise step runs right before its cold twin, so a busy host slows
/// both chains alike.
#[test]
fn revise_chain_beats_cold_rebuilds_of_the_same_edits() {
    const EDITS: usize = 5;
    let server = Server::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    })
    .expect("daemon starts");
    let addr = server.local_addr();

    let handles: Vec<_> = (0..2i64)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connects");
                let (family, twin) = (c * 10, c * 10 + 1_000_000);
                let geometry = |edit: usize| (edit - edit / 3, 2 + (edit / 3) as i64);
                let mut key = client
                    .localize(edit_stream_job(family, 0, 2))
                    .expect("base localize")
                    .key;
                client
                    .localize(edit_stream_job(twin, 0, 2))
                    .expect("twin base localize");
                let (mut revise_ms, mut cold_ms) = (0.0, 0.0);
                for edit in 1..=EDITS {
                    let (blanks, sem) = geometry(edit);

                    let started = Instant::now();
                    let revised = client
                        .revise(edit_stream_job(family, blanks, sem), key)
                        .expect("revise");
                    revise_ms += elapsed_ms(started);
                    let line_shift = edit % 3 != 0;
                    assert_eq!(
                        revised.reused, line_shift,
                        "edit {edit} classified as {}",
                        revised.delta
                    );
                    key = revised.outcome.key;

                    let started = Instant::now();
                    let cold = client
                        .localize(edit_stream_job(twin, blanks, sem))
                        .expect("cold edited localize");
                    cold_ms += elapsed_ms(started);
                    assert!(!cold.cache_hit, "every edited twin is a new program");
                }
                (revise_ms, cold_ms)
            })
        })
        .collect();
    let (mut revise_total, mut cold_total) = (0.0, 0.0);
    for handle in handles {
        let (revise_ms, cold_ms) = handle.join().expect("edit-stream client panicked");
        revise_total += revise_ms;
        cold_total += cold_ms;
    }
    server.shutdown();
    assert!(
        revise_total < cold_total,
        "revise chain (total {revise_total:.3}ms) must beat the cold edited \
         chain (total {cold_total:.3}ms)"
    );
}

/// Six synchronous clients, three requests each, against one warm TCAS
/// program on 2 workers and a 2-slot queue: twice the worker capacity.
/// Every answer is the warm one or, only when `default_deadline_ms` opts
/// the jobs into admission control, an `overloaded` or
/// `deadline_exceeded` error. Returns the daemon's `stats` afterwards.
fn overload_run(default_deadline_ms: Option<u64>) -> Json {
    let job = tcas_job();
    let server = Server::start(ServiceConfig {
        workers: 2,
        queue_capacity: 2,
        default_deadline_ms,
        ..ServiceConfig::default()
    })
    .expect("daemon starts");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connects");
    let expected = canonical(&client.localize(job.clone()).expect("warm-up").body);

    let handles: Vec<_> = (0..6)
        .map(|_| {
            let job = job.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connects");
                for _ in 0..3 {
                    match client.localize(job.clone()) {
                        // A budgeted answer may be cut short (an anytime
                        // prefix), so only unbudgeted ones must match.
                        Ok(outcome) if default_deadline_ms.is_none() => {
                            assert_eq!(canonical(&outcome.body), expected);
                        }
                        Ok(_) => {}
                        Err(err)
                            if default_deadline_ms.is_some()
                                && matches!(
                                    err.kind(),
                                    Some("overloaded" | "deadline_exceeded")
                                ) => {}
                        Err(err) => panic!("unexpected overload error: {err}"),
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("overload client panicked");
    }
    let stats = client.stats().expect("stats");
    server.shutdown();
    stats
}

/// With no deadline nothing opts into admission control: the queue blocks
/// readers instead of shedding, and every request completes with the warm
/// answer.
#[test]
fn overload_without_a_deadline_blocks_and_sheds_nothing() {
    let stats = overload_run(None);
    assert_eq!(
        stat(&stats, "queue", "shed") + stat(&stats, "queue", "expired"),
        0,
        "unbudgeted jobs must never be shed: backpressure blocks instead: {stats}"
    );
}

/// With a server-side default deadline every job is budgeted: the excess
/// may be shed or expire, but only with those two structured errors.
#[test]
fn overload_with_a_default_deadline_fails_only_by_shedding() {
    overload_run(Some(300));
}

/// Raw-socket clients that each break the protocol a different way: a line
/// that is not JSON, a request cut off mid-object, a line past
/// `max_request_bytes`, and a trickler that stalls past the read timeout.
fn abusive_client(addr: std::net::SocketAddr, mode: u8) {
    use std::io::{Read, Write};
    for _ in 0..3 {
        let Ok(mut socket) = std::net::TcpStream::connect(addr) else {
            continue;
        };
        let _ = socket.set_read_timeout(Some(Duration::from_millis(600)));
        match mode {
            0 => drop(socket.write_all(b"this is not json\n")),
            1 => drop(socket.write_all(b"{\"op\":\"localize\",\"progr")),
            2 => {
                let _ = socket.write_all(&vec![b'x'; 1 << 17]);
                let _ = socket.write_all(b"\n");
            }
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
}

/// A seeded fault plan (pickup stalls, solve delays, worker and build
/// panics) next to four abusive clients, while retrying good clients
/// demand the fault-free answer. Faults may fail a job only with a known
/// error class, never corrupt an answer or take the daemon down.
#[test]
fn chaos_keeps_answers_byte_identical_and_the_daemon_alive() {
    let variants: Vec<Job> = (1..=3).map(minic_job).collect();

    let expected: Vec<String> = {
        let server = Server::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        })
        .expect("fault-free daemon starts");
        let mut client = Client::connect(server.local_addr()).expect("connects");
        let answers = variants
            .iter()
            .map(|job| canonical(&client.localize(job.clone()).expect("clean localize").body))
            .collect();
        server.shutdown();
        answers
    };

    let plan = Arc::new(FaultPlan::new(FaultConfig {
        seed: 2011,
        stall_period: 5,
        stall_ms: 30,
        panic_period: 7,
        delay_period: 3,
        delay_ms: 20,
        build_panic_period: 4,
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

    let abusers: Vec<_> = (0..4u8)
        .map(|mode| std::thread::spawn(move || abusive_client(addr, mode)))
        .collect();
    let goods: Vec<_> = (0..4u64)
        .map(|seed| {
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
                        seed,
                    },
                )
                .expect("connects");
                let (mut sent, mut ok) = (0usize, 0usize);
                for _ in 0..4 {
                    for (job, want) in variants.iter().zip(&expected) {
                        sent += 1;
                        match client.localize(job.clone()) {
                            Ok(outcome) => {
                                assert_eq!(
                                    &canonical(&outcome.body),
                                    want,
                                    "chaos corrupted an unaffected job's answer"
                                );
                                ok += 1;
                            }
                            // An injected panic surfaces as internal_error,
                            // an exhausted retry budget as Io.
                            Err(ClientError::Io(_)) => {}
                            Err(err)
                                if matches!(
                                    err.kind(),
                                    Some("internal_error" | "overloaded" | "deadline_exceeded")
                                ) => {}
                            Err(err) => panic!("unexpected chaos error: {err}"),
                        }
                    }
                }
                (sent, ok)
            })
        })
        .collect();

    let (mut sent, mut ok) = (0usize, 0usize);
    for handle in goods {
        let (s, o) = handle.join().expect("good chaos client panicked");
        sent += s;
        ok += o;
    }
    for handle in abusers {
        handle.join().expect("abusive chaos client panicked");
    }

    assert!(
        plan.injected_total() > 0,
        "the chaos run injected no faults at all: {:?}",
        plan.injected()
    );
    let goodput = ok as f64 / sent as f64;
    assert!(
        goodput >= 0.5,
        "goodput {goodput:.3} fell below the 0.5 floor ({ok}/{sent} ok)"
    );
    Client::connect(addr)
        .expect("connects after chaos")
        .health()
        .expect("health after chaos");
    server.shutdown();
}
