//! End-to-end tests of the localization daemon: protocol equivalence with
//! the direct [`bugassist::Localizer`] API, concurrency under a mixed
//! TCAS + mutated-minic workload, forced cache eviction, and graceful
//! shutdown.

use bugassist::Localizer;
use service::protocol::{canonicalize, ranked_to_json, report_to_json};
use service::{Client, ClientError, Job, JobSpec, Json, Server, ServiceConfig};
use siemens::{tcas_trusted_lines, tcas_versions, TCAS_ENTRY, TCAS_SOURCE};
use std::sync::Arc;

/// The canonical (timing-zeroed) serialization the daemon must reproduce
/// byte for byte, computed by running the job directly.
fn expected_canonical(job: &Job) -> String {
    let program = minic::parse_program(&job.program).expect("job program parses");
    let localizer = Localizer::new(
        &program,
        &job.entry,
        &job.bmc_spec(),
        &job.localizer_config(),
    )
    .expect("job encodes");
    if job.inputs.len() == 1 {
        let report = localizer.localize(&job.inputs[0]).expect("localizes");
        canonicalize(&report_to_json(&report)).to_string()
    } else {
        let ranked = localizer
            .localize_batch(&job.inputs)
            .expect("batch localizes");
        canonicalize(&ranked_to_json(&ranked)).to_string()
    }
}

fn canonical(body: &Json) -> String {
    canonicalize(body).to_string()
}

/// A small faulty program family: the base constant on line 2 is mutated
/// per variant, so each variant is a distinct program with a distinct
/// cache entry and a distinct (but deterministic) localization answer.
fn mutated_minic_job(delta: i64) -> Job {
    let base =
        minic::parse_program("int main(int x) {\nint y = x + 2;\nint z = y * 1;\nreturn z;\n}")
            .expect("base parses");
    let mutated = minic::apply_mutation(
        &base,
        &minic::Mutation::BumpConstant {
            line: minic::Line(2),
            occurrence: 0,
            delta,
        },
    )
    .expect("mutation applies");
    // Golden function is x + 1, so inputs where x + 2 + delta != x + 1 fail.
    Job::new(
        minic::pretty_program(&mutated),
        "main",
        JobSpec::ReturnEquals(4),
        vec![vec![3]],
    )
}

/// The TCAS version-1 localize job the paper's Table 1 row starts from.
fn tcas_job(inputs: Vec<Vec<i64>>, golden: i64) -> Job {
    let version = tcas_versions().into_iter().next().expect("v1 exists");
    let faulty = version.build(TCAS_SOURCE);
    let mut job = Job::new(
        minic::pretty_program(&faulty),
        TCAS_ENTRY,
        JobSpec::ReturnEquals(golden),
        inputs,
    );
    job.options.width = 16;
    job.options.unwind = 6;
    job.options.max_inline_depth = 8;
    job.options.max_suspect_sets = 4;
    job.options.trusted_lines = tcas_trusted_lines().iter().map(|l| l.0).collect();
    job
}

/// Failing TCAS v1 vectors sharing one golden output (largest such group).
fn tcas_failing_vectors() -> (Vec<Vec<i64>>, i64) {
    use std::collections::BTreeMap;
    let version = tcas_versions().into_iter().next().expect("v1 exists");
    let faulty = version.build(TCAS_SOURCE);
    let pool = siemens::tcas_test_vectors(300, 2011);
    let interp = siemens::tcas_interp_config();
    let mut by_golden: BTreeMap<i64, Vec<Vec<i64>>> = BTreeMap::new();
    for input in &pool {
        let golden = siemens::tcas_golden_output(input);
        let outcome = bmc::run_program(&faulty, TCAS_ENTRY, input, &[], interp);
        if outcome.result != Some(golden) || !outcome.is_ok() {
            by_golden.entry(golden).or_default().push(input.clone());
        }
    }
    let (&golden, vectors) = by_golden
        .iter()
        .max_by_key(|(_, v)| v.len())
        .expect("v1 has failing vectors");
    assert!(vectors.len() >= 2, "need >= 2 failing vectors");
    (vectors.iter().take(3).cloned().collect(), golden)
}

#[test]
fn concurrent_mixed_workload_matches_direct_localizer() {
    let (tcas_inputs, tcas_golden) = tcas_failing_vectors();
    // The mixed workload: one TCAS job plus three mutated-minic variants.
    let jobs: Vec<Job> = vec![
        tcas_job(vec![tcas_inputs[0].clone()], tcas_golden),
        mutated_minic_job(1),
        mutated_minic_job(2),
        mutated_minic_job(-3),
    ];
    let expected: Arc<Vec<String>> = Arc::new(jobs.iter().map(expected_canonical).collect());
    let jobs = Arc::new(jobs);

    // All four programs fit without evictions, so the hit/miss arithmetic
    // below is exact.
    let server = Server::start(ServiceConfig {
        workers: 4,
        cache_capacity: 8,
        queue_capacity: 4,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr();

    // N client threads hammer the daemon; each thread starts at a different
    // job offset so distinct programs are always in flight simultaneously.
    const CLIENTS: usize = 6;
    const ROUNDS: usize = 3;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let jobs = Arc::clone(&jobs);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connects");
                for round in 0..ROUNDS {
                    for i in 0..jobs.len() {
                        let j = (c + round + i) % jobs.len();
                        let outcome = client.localize(jobs[j].clone()).expect("localizes");
                        assert_eq!(
                            canonical(&outcome.body),
                            expected[j],
                            "client {c} round {round} job {j} got a wrong or \
                             interleaved response"
                        );
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread panicked");
    }

    // 6 clients × 3 rounds × 4 jobs against 4 distinct programs: the
    // single-flight cache builds each program exactly once, every other
    // request is a hit (possibly one that waited on the builder).
    let mut client = Client::connect(addr).expect("connects");
    let stats = client.stats().expect("stats");
    let cache = stats.get("cache").expect("cache section");
    let hits = cache.get("hits").and_then(Json::as_u64).expect("hits");
    let misses = cache.get("misses").and_then(Json::as_u64).expect("misses");
    let entries = cache
        .get("entries")
        .and_then(Json::as_u64)
        .expect("entries");
    assert_eq!(misses, 4, "one single-flight build per distinct program");
    assert_eq!(hits, (CLIENTS * ROUNDS * 4 - 4) as u64);
    assert_eq!(entries, 4, "one entry per distinct program");
    let localized = stats
        .get("requests")
        .and_then(|r| r.get("localize"))
        .and_then(Json::as_u64)
        .expect("localize counter");
    assert_eq!(localized, (CLIENTS * ROUNDS * 4) as u64);
    server.shutdown();
}

#[test]
fn batch_endpoint_is_byte_identical_to_localize_batch() {
    let (tcas_inputs, tcas_golden) = tcas_failing_vectors();
    let tcas = tcas_job(tcas_inputs, tcas_golden);
    let minic_batch = Job {
        inputs: vec![vec![3], vec![5], vec![9]],
        ..mutated_minic_job(1)
    };

    let server = Server::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    for job in [tcas, minic_batch] {
        let expected = expected_canonical(&job);
        let cold = client.batch(job.clone()).expect("cold batch");
        assert!(!cold.cache_hit);
        assert_eq!(canonical(&cold.body), expected);
        // And again from the warm cache: same bytes, no rebuild.
        let warm = client.batch(job).expect("warm batch");
        assert!(warm.cache_hit);
        assert_eq!(warm.build_ms, 0);
        assert_eq!(canonical(&warm.body), expected);
    }
    server.shutdown();
}

#[test]
fn forced_eviction_with_capacity_one_stays_correct() {
    // Two programs alternating through a one-entry cache: every request
    // evicts the other program's prepared localizer, and answers must stay
    // byte-identical throughout.
    let jobs = Arc::new(vec![mutated_minic_job(1), mutated_minic_job(2)]);
    let expected: Arc<Vec<String>> = Arc::new(jobs.iter().map(expected_canonical).collect());

    let server = Server::start(ServiceConfig {
        workers: 2,
        cache_capacity: 1,
        queue_capacity: 2,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr();

    let handles: Vec<_> = (0..2)
        .map(|c| {
            let jobs = Arc::clone(&jobs);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connects");
                for round in 0..4 {
                    let j = (c + round) % 2;
                    let outcome = client.localize(jobs[j].clone()).expect("localizes");
                    assert_eq!(canonical(&outcome.body), expected[j]);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread panicked");
    }

    let mut client = Client::connect(addr).expect("connects");
    let stats = client.stats().expect("stats");
    let cache = stats.get("cache").expect("cache section");
    assert_eq!(cache.get("capacity").and_then(Json::as_u64), Some(1));
    let evictions = cache
        .get("evictions")
        .and_then(Json::as_u64)
        .expect("evictions");
    assert!(
        evictions >= 2,
        "alternating programs must evict: {evictions}"
    );
    server.shutdown();
}

/// A two-function program for the edit-loop tests: `main` calls `helper`,
/// plus an uncalled `scratch` function for dead-code edits. The golden
/// function is `x + 1`, so `helper(x) + 2 = 2x + 2` fails for `x = 3`.
fn edit_base_src() -> String {
    "int scratch(int a) {\nreturn a - 1;\n}\nint helper(int a) {\nreturn a + a;\n}\nint main(int x) {\nint y = helper(x) + 2;\nreturn y;\n}".to_string()
}

fn edit_job(source: String) -> Job {
    Job::new(source, "main", JobSpec::ReturnEquals(4), vec![vec![3]])
}

#[test]
fn revise_matches_cold_rebuild_byte_for_byte_across_edit_classes() {
    let server = Server::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");

    // Cold request for the base program: establishes the chain's first key.
    let base = edit_job(edit_base_src());
    let cold = client.localize(base.clone()).expect("cold localize");
    assert!(!cold.cache_hit);
    assert_eq!(canonical(&cold.body), expected_canonical(&base));

    // Edit 1 — a blank line inside main: pure line shift. The revise must
    // reuse the bit-blasted preparation and still answer exactly like a
    // cold rebuild of the edited source.
    let shifted =
        edit_job(edit_base_src().replace("int main(int x) {\nint y", "int main(int x) {\n\nint y"));
    let rev1 = client.revise(shifted.clone(), cold.key).expect("revise 1");
    assert_eq!(rev1.delta, "line_shift");
    assert!(rev1.reused, "line shift must not re-encode");
    assert!(
        !rev1.solved,
        "line shift must serve the remapped pre-edit report without solving"
    );
    assert!(!rev1.outcome.cache_hit, "new key, delta-built");
    assert_eq!(canonical(&rev1.outcome.body), expected_canonical(&shifted));
    // The blame moved with the shift: the report differs from the pre-edit
    // one in lines (sanity check that this is not just a cache hit).
    assert_ne!(canonical(&rev1.outcome.body), canonical(&cold.body));

    // Edit 2 — dead-code edit on top of the shifted version: `scratch` is
    // never called from main, so everything is still reused.
    let dead = edit_job(shifted.program.replace("return a - 1;", "return a - 2;"));
    let rev2 = client
        .revise(dead.clone(), rev1.outcome.key)
        .expect("revise 2");
    assert_eq!(rev2.delta, "dead_function");
    assert!(rev2.reused);
    assert!(!rev2.solved, "dead-code edits replay the report too");
    assert_eq!(canonical(&rev2.outcome.body), expected_canonical(&dead));

    // Edit 3 — semantic edit in the reachable helper: full re-encode, same
    // bytes as a cold build of that source.
    let semantic = edit_job(dead.program.replace("return a + a;", "return a + a + 1;"));
    let rev3 = client
        .revise(semantic.clone(), rev2.outcome.key)
        .expect("revise 3");
    assert_eq!(rev3.delta, "function_rebuild");
    assert!(!rev3.reused);
    assert!(rev3.solved, "a semantic edit must actually re-solve");
    assert_eq!(canonical(&rev3.outcome.body), expected_canonical(&semantic));

    // Re-revising an already-served source is a plain cache hit.
    let rev4 = client
        .revise(semantic.clone(), rev3.outcome.key)
        .expect("revise 4");
    assert_eq!(rev4.delta, "cache_hit");
    assert!(rev4.reused);
    assert!(
        !rev4.solved,
        "an undo to a served version replays its report"
    );
    assert!(rev4.outcome.cache_hit);
    assert_eq!(rev4.outcome.key, rev3.outcome.key);
    assert_eq!(canonical(&rev4.outcome.body), expected_canonical(&semantic));

    // A bogus prev_key degrades to a cold build, never an error.
    let fresh = edit_job(
        semantic
            .program
            .replace("return a + a + 1;", "return a + a + 2;"),
    );
    let rev5 = client.revise(fresh.clone(), 0xdead_beef).expect("revise 5");
    assert_eq!(rev5.delta, "prev_missing");
    assert!(!rev5.reused);
    assert!(rev5.solved);
    assert_eq!(canonical(&rev5.outcome.body), expected_canonical(&fresh));

    // The stats endpoint accounts for the whole chain.
    let stats = client.stats().expect("stats");
    let requests = stats.get("requests").expect("requests");
    assert_eq!(requests.get("revise").and_then(Json::as_u64), Some(5));
    // line_shift + dead_function + cache_hit reused; the rebuilds did not.
    assert_eq!(
        requests.get("revise_reuses").and_then(Json::as_u64),
        Some(3)
    );
    // ... and those same three never ran the MAX-SAT enumeration.
    assert_eq!(
        requests.get("revise_solve_skips").and_then(Json::as_u64),
        Some(3)
    );
    let last = stats.get("last_job").expect("last_job");
    assert_eq!(last.get("op").and_then(Json::as_str), Some("revise"));
    assert_eq!(
        last.get("delta").and_then(Json::as_str),
        Some("prev_missing")
    );

    // A dead store in the dead function: reused and replayed, but the
    // report carries the edited program's lint-warning count.
    let dead_store =
        edit_job(edit_base_src().replace("return a - 1;", "int w = a;\nreturn a - 1;"));
    let rev6 = client
        .revise(dead_store.clone(), cold.key)
        .expect("revise 6");
    assert_eq!(rev6.delta, "dead_function");
    assert_eq!(
        canonical(&rev6.outcome.body),
        expected_canonical(&dead_store)
    );
    server.shutdown();
}

#[test]
fn revise_resolves_when_a_shifted_statement_lands_on_a_trusted_line() {
    // Pre-edit, trusted line 3 is blank — it hardens nothing. The edit
    // deletes the blank, so the statement from line 4 now sits on the
    // trusted line 3 and a cold build must never blame it. Serving the
    // remapped pre-edit report (where that statement was untrusted and
    // blamable) would silently break both the byte-identity guarantee and
    // the trusted-lines contract, so the revise must detect the effective
    // trusted-selector change and actually re-solve.
    let mut before = Job::new(
        "int main(int x) {\nint y = x + 2;\n\nint z = y + 0;\nreturn z;\n}".to_string(),
        "main",
        JobSpec::ReturnEquals(4),
        vec![vec![3]],
    );
    before.options.trusted_lines = vec![3];
    let mut after = Job::new(
        "int main(int x) {\nint y = x + 2;\nint z = y + 0;\nreturn z;\n}".to_string(),
        "main",
        JobSpec::ReturnEquals(4),
        vec![vec![3]],
    );
    after.options.trusted_lines = vec![3];

    let server = Server::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let cold = client.localize(before.clone()).expect("cold localize");
    assert_eq!(canonical(&cold.body), expected_canonical(&before));
    // Pre-edit, line 4 ("int z = ...") is blamable.
    let pre_lines = cold
        .body
        .get("suspect_lines")
        .and_then(Json::as_arr)
        .unwrap();
    assert!(pre_lines.contains(&Json::Int(4)), "{pre_lines:?}");

    let rev = client.revise(after.clone(), cold.key).expect("revise");
    assert_eq!(rev.delta, "line_shift", "still a pure line shift");
    assert!(rev.reused, "the bit-blast is still reusable");
    assert!(
        rev.solved,
        "the effective trusted set changed: the report must be re-solved, not remapped"
    );
    assert_eq!(canonical(&rev.outcome.body), expected_canonical(&after));
    let post_lines = rev
        .outcome
        .body
        .get("suspect_lines")
        .and_then(Json::as_arr)
        .unwrap();
    assert!(
        !post_lines.contains(&Json::Int(3)),
        "trusted line 3 blamed after revise: {post_lines:?}"
    );
    server.shutdown();
}

#[test]
fn revise_reports_cold_build_errors_verbatim() {
    let server = Server::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let base = edit_job(edit_base_src());
    let cold = client.localize(base.clone()).expect("cold localize");

    // An edit that breaks the *dead* function's types: a cold build of this
    // source fails typecheck, so the revise must too — reuse paths never
    // skip an error a cold rebuild would report.
    let broken = edit_job(edit_base_src().replace("return a - 1;", "return nosuchvar;"));
    let err = client.revise(broken, cold.key).expect_err("must fail");
    assert!(
        matches!(&err, ClientError::Server { kind, message }
            if kind == "type_error" && message.contains("type error")),
        "{err:?}"
    );

    // Reads every execution leaves undefined, in the dead function and in
    // the live helper: the revise fails with exactly the kind and message
    // a cold build on a fresh server reports.
    for (before, after) in [
        ("return a - 1;", "int z;\nreturn z;"),
        ("return a + a;", "int z;\nreturn z + a;"),
    ] {
        let edited = edit_job(edit_base_src().replace(before, after));
        let revised = client
            .revise(edited.clone(), cold.key)
            .expect_err("revise must fail");
        let fresh = Server::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .expect("fresh server starts");
        let built = Client::connect(fresh.local_addr())
            .expect("connects")
            .localize(edited)
            .expect_err("cold build must fail");
        fresh.shutdown();
        let kind_and_message = |err: &ClientError| match err {
            ClientError::Server { kind, message } => (kind.clone(), message.clone()),
            other => panic!("not a server error: {other:?}"),
        };
        assert_eq!(kind_and_message(&built).0, "lint_error", "{built:?}");
        assert_eq!(kind_and_message(&revised), kind_and_message(&built));
    }

    // Options changed alongside the edit: the old preparation answers a
    // different question, so the revise silently falls back to a cold
    // build with the new options.
    let mut wider =
        edit_job(edit_base_src().replace("int main(int x) {\nint y", "int main(int x) {\n\nint y"));
    wider.options.width = 16;
    let rev = client.revise(wider.clone(), cold.key).expect("revise");
    assert_eq!(rev.delta, "options_changed");
    assert!(!rev.reused);
    assert_eq!(canonical(&rev.outcome.body), expected_canonical(&wider));
    server.shutdown();
}

#[test]
fn health_stats_and_error_paths() {
    let server = Server::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");

    // Health answers inline, before any job has run.
    client.health().expect("health");

    // A garbage program is a server-side error, not a hang or a crash.
    let garbage = Job::new("int main( {", "main", JobSpec::Assertions, vec![vec![1]]);
    let err = client.localize(garbage).expect_err("must fail");
    assert!(
        matches!(&err, ClientError::Server { kind, .. } if kind == "parse_error"),
        "{err:?}"
    );

    // An arity mismatch travels back as an error string too.
    let wrong_arity = Job::new(
        "int main(int x) { return x; }",
        "main",
        JobSpec::ReturnEquals(0),
        vec![vec![1, 2]],
    );
    let err = client.localize(wrong_arity).expect_err("must fail");
    assert!(
        matches!(&err, ClientError::Server { kind, .. } if kind == "arity_mismatch"),
        "{err:?}"
    );

    // The connection survives errors; a good job still works, and the stats
    // endpoint surfaces the per-request solver counters of that job.
    let good = mutated_minic_job(1);
    client.localize(good).expect("localizes after errors");
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats
            .get("requests")
            .and_then(|r| r.get("errors"))
            .and_then(Json::as_u64),
        Some(2)
    );
    let last_job = stats.get("last_job").expect("last_job");
    assert_eq!(last_job.get("op").and_then(Json::as_str), Some("localize"));
    for field in [
        "reduce_dbs",
        "arena_bytes",
        "elapsed_ms",
        "vars_eliminated",
        "clauses_subsumed",
        "simplify_ms",
    ] {
        assert!(
            last_job.get(field).and_then(Json::as_u64).is_some(),
            "last_job must carry {field}"
        );
    }
    assert!(last_job.get("prepare_ms").is_none(), "{last_job}");
    let solver = stats.get("solver").expect("solver totals");
    assert!(
        solver
            .get("arena_bytes_peak")
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );
    let formula = stats.get("formula").expect("formula totals");
    assert!(formula.get("vars_eliminated").and_then(Json::as_u64) > Some(0));
    server.shutdown();
}

#[test]
fn wire_level_raw_lines_work_without_the_client() {
    // Talk to the daemon with nothing but a socket and hand-written JSON:
    // documents (and pins) the wire format the README shows.
    use std::io::{BufRead, BufReader, Write};
    let server = Server::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let stream = std::net::TcpStream::connect(server.local_addr()).expect("connects");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;

    writer
        .write_all(
            concat!(
                r#"{"id":7,"op":"localize","program":"int main(int x) {\nint y = x + 2;\nreturn y;\n}","#,
                r#""entry":"main","spec":{"return_equals":4},"inputs":[[5]],"width":8}"#,
                "\n"
            )
            .as_bytes(),
        )
        .expect("writes");
    let mut line = String::new();
    reader.read_line(&mut line).expect("reads");
    let response = Json::parse(line.trim_end()).expect("response parses");
    assert_eq!(response.get("id").and_then(Json::as_i64), Some(7));
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(response.get("cache").and_then(Json::as_str), Some("miss"));
    let lines = response
        .get("report")
        .and_then(|r| r.get("suspect_lines"))
        .and_then(Json::as_arr)
        .expect("suspect lines");
    assert!(
        lines.contains(&Json::Int(2)),
        "line 2 is the bug: {response}"
    );

    // Unparseable request lines get an error response, not a dropped
    // connection.
    writer.write_all(b"this is not json\n").expect("writes");
    let mut line = String::new();
    reader.read_line(&mut line).expect("reads");
    let response = Json::parse(line.trim_end()).expect("response parses");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));

    // A width the bit-vector encoding cannot represent is a parse error
    // naming the valid range; it never reaches (and panics) a worker.
    for width in [1, 65] {
        let request = format!(
            r#"{{"id":8,"op":"localize","program":"int main(int x) {{ return x; }}","entry":"main","spec":"assertions","inputs":[[1]],"width":{width}}}"#
        );
        writer
            .write_all(format!("{request}\n").as_bytes())
            .expect("writes");
        let mut line = String::new();
        reader.read_line(&mut line).expect("reads");
        let response = Json::parse(line.trim_end()).expect("response parses");
        assert_eq!(
            response.get("kind").and_then(Json::as_str),
            Some("parse_error"),
            "{response}"
        );
        assert_eq!(
            response.get("error").and_then(Json::as_str),
            Some("protocol error: width must be in 2..=64")
        );
    }
    let stats = Client::connect(server.local_addr())
        .expect("connects")
        .stats()
        .expect("stats");
    assert_eq!(
        stats
            .get("robustness")
            .and_then(|r| r.get("worker_panics"))
            .and_then(Json::as_u64),
        Some(0)
    );
    server.shutdown();
}

#[test]
fn shutdown_op_drains_and_stops_the_daemon() {
    let server = Server::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connects");
    client.localize(mutated_minic_job(1)).expect("localizes");
    client.shutdown().expect("acknowledged");
    // wait() returns only after the drain completes; afterwards the port
    // no longer accepts work.
    server.wait();
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut late) => {
            assert!(late.health().is_err(), "daemon must be gone");
        }
    }
}

#[test]
fn budgeted_job_returns_anytime_or_exact_and_never_pollutes_the_replay_cache() {
    let (inputs, golden) = tcas_failing_vectors();
    let server = Server::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");

    // Warm the prepared entry with a different failing input, so the
    // budgeted request below spends its deadline on the solve, not the
    // bit-blast build.
    let warm = tcas_job(vec![inputs[1].clone()], golden);
    client.localize(warm).expect("warm build");

    let exact_job = tcas_job(vec![inputs[0].clone()], golden);
    let expected = expected_canonical(&exact_job);
    let exact_suspects = Json::parse(&expected)
        .expect("expected parses")
        .get("suspects")
        .and_then(Json::as_arr)
        .expect("exact suspects")
        .len();

    let mut budgeted = exact_job.clone();
    budgeted.deadline_ms = Some(25);
    match client.localize(budgeted) {
        Ok(out) => {
            let complete = out
                .body
                .get("complete")
                .and_then(Json::as_bool)
                .expect("report carries the complete flag");
            if complete {
                // The deadline was generous enough after all: the answer
                // must be the exact canonical report, bit for bit.
                assert_eq!(canonical(&out.body), expected);
            } else {
                // A cut enumeration reports a prefix: never more ranks
                // than the optimum run found.
                let suspects = out
                    .body
                    .get("suspects")
                    .and_then(Json::as_arr)
                    .expect("suspects")
                    .len();
                assert!(
                    suspects <= exact_suspects,
                    "anytime run reported {suspects} ranks, exact run {exact_suspects}"
                );
            }
        }
        // The deadline may expire while the job is queued; that is a
        // structured answer, not a hang.
        Err(err) => assert_eq!(err.kind(), Some("deadline_exceeded"), "{err:?}"),
    }

    // Regression: the cut solve must not have left a truncated report in
    // the replay cache — an unbudgeted request of the same input returns
    // the exact canonical report.
    let full = client.localize(exact_job).expect("full localize");
    assert_eq!(canonical(&full.body), expected);
    assert_eq!(
        full.body.get("complete").and_then(Json::as_bool),
        Some(true)
    );
    server.shutdown();
}

/// A solver counter or request counter from a `stats` answer.
fn stat(stats: &Json, section: &str, key: &str) -> u64 {
    stats
        .get(section)
        .and_then(|s| s.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats has no {section}.{key}: {stats}"))
}

#[test]
fn a_repeated_localize_is_answered_from_the_recorded_report() {
    let server = Server::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let job = mutated_minic_job(1);

    let first = client.localize(job.clone()).expect("first localize");
    assert_eq!(first.solved, Some(true));
    assert_eq!(canonical(&first.body), expected_canonical(&job));
    let before = client.stats().expect("stats");

    let second = client.localize(job).expect("repeated localize");
    assert_eq!(second.solved, Some(false));
    assert!(second.cache_hit);
    assert_eq!(second.tier, "memory");
    // The recorded report itself, down to the original solve's timings.
    assert_eq!(second.body.to_string(), first.body.to_string());

    let after = client.stats().expect("stats");
    assert_eq!(
        stat(&after, "solver", "sat_calls"),
        stat(&before, "solver", "sat_calls"),
        "a replay runs no solver"
    );
    assert_eq!(stat(&after, "requests", "report_replays"), 1);
    assert_eq!(stat(&after, "requests", "localize"), 2);
    server.shutdown();
}

#[test]
fn a_partly_replayed_batch_solves_only_its_unrecorded_inputs() {
    let job = Job {
        inputs: vec![vec![3], vec![5]],
        ..mutated_minic_job(1)
    };
    let (a, b) = (job.inputs[0].clone(), job.inputs[1].clone());
    // What `b`'s solve alone costs: the solver is deterministic.
    let program = minic::parse_program(&job.program).expect("parses");
    let b_sat_calls = Localizer::new(
        &program,
        &job.entry,
        &job.bmc_spec(),
        &job.localizer_config(),
    )
    .expect("encodes")
    .localize(&b)
    .expect("localizes")
    .stats
    .sat_calls;

    let cold_server = Server::start(ServiceConfig::default()).expect("cold daemon");
    let cold = Client::connect(cold_server.local_addr())
        .expect("connects")
        .batch(job.clone())
        .expect("cold batch");
    cold_server.shutdown();

    let server = Server::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let single = client
        .localize(Job {
            inputs: vec![a],
            ..job.clone()
        })
        .expect("localize a");
    assert_eq!(single.solved, Some(true));
    let before = client.stats().expect("stats");
    let batch = client.batch(job.clone()).expect("batch [a, b]");
    let after = client.stats().expect("stats");

    assert_eq!(batch.solved, None, "a batch carries no solved flag");
    assert_eq!(canonical(&batch.body), canonical(&cold.body));
    assert_eq!(canonical(&batch.body), expected_canonical(&job));
    assert_eq!(
        stat(&after, "solver", "sat_calls") - stat(&before, "solver", "sat_calls"),
        b_sat_calls,
        "only b was solved"
    );
    assert_eq!(stat(&after, "requests", "report_replays"), 1);
    // last_job folds only the solved test: one SAT call per core plus one
    // per MAX-SAT call, as for any solve.
    let last_job = after.get("last_job").expect("last_job");
    let last = |key: &str| last_job.get(key).and_then(Json::as_u64).expect(key);
    assert_eq!(last("sat_calls"), b_sat_calls);
    assert_eq!(last("sat_calls"), last("cores") + last("maxsat_calls"));
    server.shutdown();
}

#[test]
fn an_entry_served_from_the_store_tier_solves_once_then_replays() {
    let dir = std::env::temp_dir().join(format!(
        "bugassist-service-test-store-replay-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServiceConfig {
        workers: 1,
        store_dir: Some(dir.to_string_lossy().into_owned()),
        restore_on_boot: false,
        ..ServiceConfig::default()
    };
    let job = mutated_minic_job(1);

    // First lifetime: a cold build, written through before shutdown ends.
    let server = Server::start(config.clone()).expect("first daemon");
    let built = Client::connect(server.local_addr())
        .expect("connects")
        .localize(job.clone())
        .expect("cold localize");
    server.shutdown();
    assert_eq!(built.tier, "built");

    // Second lifetime: store records hold no reports, so the first request
    // solves on the restored entry and the second replays.
    let server = Server::start(config).expect("second daemon");
    let mut client = Client::connect(server.local_addr()).expect("reconnects");
    let restored = client.localize(job.clone()).expect("store-tier localize");
    let repeated = client.localize(job).expect("repeated localize");
    let stats = client.stats().expect("stats");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(restored.tier, "store");
    assert_eq!(restored.solved, Some(true));
    assert_eq!(repeated.tier, "memory");
    assert_eq!(repeated.solved, Some(false));
    assert_eq!(repeated.body.to_string(), restored.body.to_string());
    assert_eq!(canonical(&restored.body), canonical(&built.body));
    assert_eq!(stat(&stats, "requests", "report_replays"), 1);
}

/// `main` returning `x` inside `depth` parentheses: the statement opens one
/// nesting level and each parenthesis one more.
fn parenthesized_return(depth: usize) -> String {
    format!(
        "int main(int x) {{\nint y = {}x{};\nreturn y;\n}}",
        "(".repeat(depth),
        ")".repeat(depth)
    )
}

#[test]
fn nesting_bombs_are_parse_errors_and_the_daemon_survives() {
    use std::io::{BufRead, BufReader, Write};
    let server = Server::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .expect("server starts");

    // A JSON bomb: 20 KB of `[`, far under the request-size cap.
    let stream = std::net::TcpStream::connect(server.local_addr()).expect("connects");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writer
        .write_all(format!("{}\n", "[".repeat(20_000)).as_bytes())
        .expect("writes");
    let mut line = String::new();
    reader.read_line(&mut line).expect("reads");
    let response = Json::parse(line.trim_end()).expect("response parses");
    assert_eq!(
        response.get("kind").and_then(Json::as_str),
        Some("parse_error"),
        "{response}"
    );

    // MinC bombs: parsed by a worker (localize) and by the connection
    // thread itself (analyze).
    let mut client = Client::connect(server.local_addr()).expect("connects");
    for depth in [minic::MAX_NESTING, 1_000] {
        let bomb = parenthesized_return(depth);
        let job = Job::new(
            bomb.clone(),
            "main",
            JobSpec::ReturnEquals(4),
            vec![vec![3]],
        );
        let err = client.localize(job).expect_err("too deep to localize");
        assert_eq!(err.kind(), Some("parse_error"), "{err:?}");
        let err = client.analyze(bomb, 8).expect_err("too deep to analyze");
        assert_eq!(err.kind(), Some("parse_error"), "{err:?}");
    }
    client.health().expect("the daemon still answers");
    server.shutdown();
}

#[test]
fn a_program_at_the_nesting_limit_localizes_on_a_worker() {
    let program = parenthesized_return(minic::MAX_NESTING - 1);
    let job = Job::new(
        program.clone(),
        "main",
        JobSpec::ReturnEquals(4),
        vec![vec![3]],
    );
    let server = Server::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    client.analyze(program, 8).expect("lints at the limit");
    let out = client
        .localize(job.clone())
        .expect("localizes at the limit");
    server.shutdown();
    assert_eq!(canonical(&out.body), expected_canonical(&job));
    let lines = out
        .body
        .get("suspect_lines")
        .and_then(Json::as_arr)
        .unwrap();
    assert!(lines.contains(&Json::Int(2)), "{lines:?}");
}

#[test]
fn oversized_request_line_is_rejected_with_a_structured_error() {
    use std::io::{BufRead, BufReader, Read, Write};
    let server = Server::start(ServiceConfig {
        workers: 1,
        max_request_bytes: 1024,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connects");
    stream.write_all(&vec![b'x'; 8192]).expect("writes");
    stream.write_all(b"\n").expect("writes");
    let mut reader = BufReader::new(stream.try_clone().expect("clones"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("reads");
    let response = Json::parse(line.trim_end()).expect("response parses");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        response.get("kind").and_then(Json::as_str),
        Some("request_too_large")
    );
    // The oversized line destroyed the connection's framing, so the server
    // answers once and closes. Closing with unread bytes in the receive
    // buffer makes the kernel send RST, so the client sees either a clean
    // EOF or a connection reset — never more data.
    let mut rest = Vec::new();
    match reader.read_to_end(&mut rest) {
        Ok(n) => assert_eq!(n, 0, "connection must be closed after rejection"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e:?}"),
    }
    server.shutdown();
}

#[test]
fn saturated_queue_sheds_budgeted_jobs_instead_of_blocking() {
    let (inputs, golden) = tcas_failing_vectors();
    let server = Server::start(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr();
    let mut job = tcas_job(vec![inputs[0].clone()], golden);
    // A generous deadline opts the job into admission control without ever
    // expiring mid-test.
    job.deadline_ms = Some(120_000);
    let expected = expected_canonical(&job);

    // Four no-retry clients race one worker and one queue slot: the first
    // two win, the rest must be shed immediately with `overloaded`.
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let job = job.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connects");
                client.localize(job)
            })
        })
        .collect();
    // The retrying client starts only once the racers have saturated the
    // worker and the slot (two sheds), or have all been answered: started
    // with them, its first request could take the slot and shed every
    // racer.
    let mut probe = Client::connect(addr).expect("connects");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let stats = probe.stats().expect("stats");
        let racers_shed = stats
            .get("queue")
            .and_then(|q| q.get("shed"))
            .and_then(Json::as_u64)
            .expect("queue.shed");
        if racers_shed >= 2 || handles.iter().all(|h| h.is_finished()) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "racers neither shed nor finished: {stats}"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    // A fifth client retries with backoff: the shed is transient, so it
    // must eventually get the real answer.
    let retrying = {
        let job = job.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect_with(
                addr,
                service::ClientConfig {
                    retries: 12,
                    retry_base: std::time::Duration::from_millis(100),
                    seed: 42,
                    ..service::ClientConfig::default()
                },
            )
            .expect("connects");
            client.localize(job)
        })
    };
    let mut ok = 0u64;
    let mut shed = 0u64;
    for handle in handles {
        match handle.join().expect("client thread must not panic") {
            Ok(out) => {
                assert_eq!(canonical(&out.body), expected);
                ok += 1;
            }
            Err(err) => {
                assert_eq!(err.kind(), Some("overloaded"), "{err:?}");
                shed += 1;
            }
        }
    }
    assert_eq!(ok + shed, 4);
    assert!(ok >= 1, "at least the first admitted job completes");
    let out = retrying
        .join()
        .expect("retry thread must not panic")
        .expect("retries ride out the overload");
    assert_eq!(canonical(&out.body), expected);

    let stats = probe.stats().expect("stats");
    let stats_shed = stats
        .get("queue")
        .and_then(|q| q.get("shed"))
        .and_then(Json::as_u64)
        .expect("queue.shed");
    assert!(
        stats_shed >= shed,
        "stats undercount sheds: {stats_shed} < {shed}"
    );
    server.shutdown();
}

#[test]
fn injected_worker_panics_become_structured_errors_and_the_worker_survives() {
    use service::{FaultConfig, FaultPlan};
    let plan = Arc::new(FaultPlan::new(FaultConfig {
        seed: 11,
        panic_period: 2,
        ..FaultConfig::default()
    }));
    let server = Server::start(ServiceConfig {
        workers: 1,
        fault_plan: Some(Arc::clone(&plan)),
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let job = mutated_minic_job(1);
    let expected = expected_canonical(&job);
    let mut oks = 0;
    let mut panics = 0;
    for _ in 0..4 {
        match client.localize(job.clone()) {
            Ok(out) => {
                // Jobs the fault missed are answered byte-identically to a
                // fault-free daemon.
                assert_eq!(canonical(&out.body), expected);
                oks += 1;
            }
            Err(err) => {
                assert_eq!(err.kind(), Some("internal_error"), "{err:?}");
                panics += 1;
            }
        }
    }
    assert_eq!(
        (oks, panics),
        (2, 2),
        "a period-2 panic fault fires on exactly alternate executes"
    );
    assert_eq!(plan.injected().1, 2);
    // The single worker caught both panics and is still serving.
    client.health().expect("daemon alive after worker panics");
    server.shutdown();
}

/// A program exercising every dataflow lint at width 8: an uninitialized
/// read (warning-grade: `u` is assigned on one branch), a dead store,
/// unreachable code, a constant branch and a truncated constant.
const LINT_WITNESS: &str = "int main(int x) {\nint u;\nint dead = 5;\ndead = x;\nif (0 > 1) {\nu = 300;\n}\nreturn u + x;\n}";

#[test]
fn analyze_op_returns_all_five_dataflow_lint_kinds() {
    let server = Server::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");

    let diags = client.analyze(LINT_WITNESS, 8).expect("analyze");
    let Json::Arr(items) = &diags else {
        panic!("diagnostics is not an array: {diags}");
    };
    let kinds: Vec<&str> = items
        .iter()
        .map(|d| d.get("kind").and_then(Json::as_str).expect("kind"))
        .collect();
    for kind in [
        "uninit_read",
        "dead_store",
        "unreachable",
        "constant_branch",
        "truncation",
    ] {
        assert!(kinds.contains(&kind), "missing {kind} in {diags}");
    }
    // Every diagnostic is fully structured, and lines come back sorted.
    let mut last_line = 0;
    for d in items {
        let line = d.get("line").and_then(Json::as_u64).expect("line");
        assert!(line >= last_line, "diagnostics unsorted: {diags}");
        last_line = line;
        for field in ["severity", "message"] {
            assert!(d.get(field).and_then(Json::as_str).is_some(), "{diags}");
        }
    }
    // An unparsable program is a structured parse error, not a hang.
    let err = client.analyze("int main( {", 8).expect_err("parse fails");
    assert_eq!(err.kind(), Some("parse_error"), "{err:?}");

    // The analyze counter made it to the stats endpoint.
    let stats = client.stats().expect("stats");
    let analyzed = stats
        .get("analysis")
        .and_then(|a| a.get("analyze_requests"))
        .and_then(Json::as_u64)
        .expect("analysis.analyze_requests");
    assert_eq!(analyzed, 1, "parse failures are not analyze requests");
    server.shutdown();
}

#[test]
fn definite_uninit_read_fails_the_build_with_lint_error() {
    let server = Server::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    // `y` is read by every execution but never written: the encoding would
    // be meaningless, so the build fails fast instead of solving garbage.
    let job = Job::new(
        "int main(int x) {\nint y;\nreturn y;\n}",
        "main",
        JobSpec::ReturnEquals(4),
        vec![vec![3]],
    );
    let err = client.localize(job).expect_err("lint gate fires");
    assert_eq!(err.kind(), Some("lint_error"), "{err:?}");
    server.shutdown();
}

#[test]
fn static_prune_counters_surface_in_stats() {
    // Line 3 computes `w`, which the returned value never depends on: the
    // relevance prune hardens its selector, and the dead store is counted
    // as a lint warning. A batch of the same program must count them just
    // like a single localize (each on a fresh server, so nothing carries).
    let job = Job::new(
        "int main(int x) {\nint y = x + 2;\nint w = x * 3;\nreturn y;\n}",
        "main",
        JobSpec::ReturnEquals(4),
        vec![vec![3], vec![1]],
    );
    for batch in [false, true] {
        let server = Server::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .expect("server starts");
        let mut client = Client::connect(server.local_addr()).expect("connects");
        if batch {
            client.batch(job.clone()).expect("batch localizes");
        } else {
            let mut single = job.clone();
            single.inputs.truncate(1);
            client.localize(single).expect("localizes");
        }
        let stats = client.stats().expect("stats");
        let analysis = stats.get("analysis").expect("analysis section");
        let pruned = analysis
            .get("lines_pruned")
            .and_then(Json::as_u64)
            .expect("lines_pruned");
        let warnings = analysis
            .get("lint_warnings")
            .and_then(Json::as_u64)
            .expect("lint_warnings");
        assert!(pruned > 0, "the irrelevant line was pruned: {stats}");
        assert!(warnings > 0, "the dead store was counted: {stats}");
        // The per-job counters ride along on last_job too.
        let last = stats.get("last_job").expect("last_job");
        assert!(
            last.get("lines_pruned").and_then(Json::as_u64).unwrap_or(0) > 0,
            "{stats}"
        );
        server.shutdown();
    }
}

/// The `health` wire shape is a contract: load balancers and operators
/// parse it, so the exact key set (and the `store` sub-object's) is
/// pinned here. Adding a field is an API change that must edit this test.
#[test]
fn health_reports_queue_shed_and_store_status() {
    let server = Server::start(ServiceConfig {
        workers: 1,
        queue_capacity: 4,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    client.localize(mutated_minic_job(1)).expect("localizes");

    let report = client.health_report().expect("health");
    let keys: Vec<&str> = report
        .as_obj()
        .expect("health is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "id",
            "ok",
            "op",
            "status",
            "uptime_ms",
            "workers",
            "queue_depth",
            "queue_capacity",
            "active_lanes",
            "shed",
            "expired",
            "shed_rate",
            "store",
        ],
        "health key set changed — update the health consumers first"
    );
    let store_keys: Vec<&str> = report
        .get("store")
        .and_then(Json::as_obj)
        .expect("health.store is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        store_keys,
        ["enabled", "restored_entries", "restore_ms", "writes"]
    );

    // Value sanity on a freshly started storeless daemon.
    assert_eq!(report.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(report.get("workers").and_then(Json::as_u64), Some(1));
    assert_eq!(report.get("queue_capacity").and_then(Json::as_u64), Some(4));
    assert_eq!(report.get("queue_depth").and_then(Json::as_u64), Some(0));
    assert_eq!(report.get("active_lanes").and_then(Json::as_u64), Some(0));
    assert_eq!(report.get("shed").and_then(Json::as_u64), Some(0));
    assert_eq!(report.get("expired").and_then(Json::as_u64), Some(0));
    assert_eq!(report.get("shed_rate").and_then(Json::as_f64), Some(0.0));
    let store = report.get("store").expect("store");
    assert_eq!(store.get("enabled").and_then(Json::as_bool), Some(false));
    assert_eq!(store.get("writes").and_then(Json::as_u64), Some(0));
    server.shutdown();
}

/// Dotted paths of every leaf of a JSON object, in document order.
fn leaf_paths(value: &Json, prefix: &str, out: &mut Vec<String>) {
    for (key, child) in value.as_obj().expect("an object") {
        let path = if prefix.is_empty() {
            key.clone()
        } else {
            format!("{prefix}.{key}")
        };
        match child {
            Json::Obj(_) => leaf_paths(child, &path, out),
            _ => out.push(path),
        }
    }
}

/// `stats` and `metrics` render one counter set: the stats key paths and
/// the Prometheus sample names are pinned, and every counter exposed by
/// both answers with the same value in both after a fixed request mix.
#[test]
fn stats_and_metrics_render_one_counter_set() {
    let server = Server::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");

    let job = mutated_minic_job(1);
    let cold = client.localize(job.clone()).expect("cold localize");
    assert!(!cold.cache_hit);
    assert!(client.localize(job.clone()).expect("warm").cache_hit);
    let mut shifted = job.clone();
    shifted.program = job.program.replacen('\n', "\n\n", 1);
    let revised = client.revise(shifted, cold.key).expect("revise");
    assert!(revised.reused && !revised.solved);
    client
        .batch(Job::new(
            "int main(int x) {\nint y = x + 2;\nint w = x * 3;\nreturn y;\n}",
            "main",
            JobSpec::ReturnEquals(4),
            vec![vec![3], vec![1]],
        ))
        .expect("batch");
    client
        .analyze("int main(int x) {\nint w = x * 3;\nreturn x;\n}", 8)
        .expect("analyze");
    let garbage = Job::new("int main( {", "main", JobSpec::Assertions, vec![vec![1]]);
    let err = client.localize(garbage).expect_err("parse error");
    assert_eq!(err.kind(), Some("parse_error"));

    let stats = client.stats().expect("stats");
    let text = client.metrics().expect("metrics");

    let mut paths = Vec::new();
    leaf_paths(&stats, "", &mut paths);
    paths.retain(|p| p != "last_job" && !p.starts_with("last_job."));
    assert_eq!(
        paths,
        [
            "id",
            "ok",
            "op",
            "uptime_ms",
            "version",
            "requests.localize",
            "requests.revise",
            "requests.revise_reuses",
            "requests.revise_solve_skips",
            "requests.batch",
            "requests.report_replays",
            "requests.errors",
            "cache.hits",
            "cache.misses",
            "cache.evictions",
            "cache.poisoned",
            "cache.entries",
            "cache.capacity",
            "queue.capacity",
            "queue.depth",
            "queue.enqueued",
            "queue.shed",
            "queue.expired",
            "queue.avg_exec_ms",
            "queue.active_lanes",
            "queue.max_lane_depth",
            "queue.fair_share",
            "robustness.worker_panics",
            "solver.sat_calls",
            "solver.cores",
            "solver.reduce_dbs",
            "solver.arena_bytes_peak",
            "formula.vars_eliminated",
            "formula.clauses_subsumed",
            "formula.word_nodes_folded",
            "formula.word_cse_hits",
            "formula.bits_narrowed",
            "analysis.analyze_requests",
            "analysis.lines_pruned",
            "analysis.lint_warnings",
            "store.enabled",
            "store.hits",
            "store.misses",
            "store.writes",
            "store.bytes_written",
            "store.write_errors",
            "store.corrupt_records",
            "store.restore_ms",
            "store.restored_entries",
        ]
    );

    // Every stats counter that has a Prometheus sample, with that sample.
    let pairs = [
        (
            "requests.localize",
            r#"bugassist_requests_total{op="localize"}"#,
        ),
        (
            "requests.revise",
            r#"bugassist_requests_total{op="revise"}"#,
        ),
        ("requests.batch", r#"bugassist_requests_total{op="batch"}"#),
        ("requests.report_replays", "bugassist_report_replays_total"),
        ("requests.revise_reuses", "bugassist_revise_reuses_total"),
        (
            "requests.revise_solve_skips",
            "bugassist_revise_solve_skips_total",
        ),
        ("requests.errors", "bugassist_error_responses_total"),
        ("cache.hits", "bugassist_cache_hits_total"),
        ("cache.misses", "bugassist_cache_misses_total"),
        ("cache.evictions", "bugassist_cache_evictions_total"),
        ("cache.poisoned", "bugassist_cache_poisoned_total"),
        ("cache.entries", "bugassist_cache_entries"),
        ("cache.capacity", "bugassist_cache_capacity"),
        ("queue.capacity", "bugassist_queue_capacity"),
        ("queue.depth", "bugassist_queue_depth"),
        ("queue.enqueued", "bugassist_queue_enqueued_total"),
        ("queue.shed", "bugassist_jobs_shed_total"),
        ("queue.expired", "bugassist_jobs_expired_total"),
        ("queue.avg_exec_ms", "bugassist_queue_avg_exec_ms"),
        ("queue.active_lanes", "bugassist_fair_queue_active_lanes"),
        (
            "queue.max_lane_depth",
            "bugassist_fair_queue_max_lane_depth",
        ),
        ("queue.fair_share", "bugassist_fair_queue_fair_share"),
        ("robustness.worker_panics", "bugassist_worker_panics_total"),
        ("solver.sat_calls", "bugassist_solver_sat_calls_total"),
        ("solver.cores", "bugassist_solver_cores_total"),
        ("solver.reduce_dbs", "bugassist_solver_reduce_dbs_total"),
        (
            "solver.arena_bytes_peak",
            "bugassist_solver_arena_bytes_peak",
        ),
        (
            "formula.vars_eliminated",
            "bugassist_formula_vars_eliminated_total",
        ),
        (
            "formula.clauses_subsumed",
            "bugassist_formula_clauses_subsumed_total",
        ),
        (
            "formula.word_nodes_folded",
            "bugassist_formula_word_nodes_folded_total",
        ),
        (
            "formula.word_cse_hits",
            "bugassist_formula_word_cse_hits_total",
        ),
        (
            "formula.bits_narrowed",
            "bugassist_formula_bits_narrowed_total",
        ),
        (
            "analysis.analyze_requests",
            "bugassist_analysis_requests_total",
        ),
        (
            "analysis.lines_pruned",
            "bugassist_analysis_lines_pruned_total",
        ),
        (
            "analysis.lint_warnings",
            "bugassist_analysis_lint_warnings_total",
        ),
        ("store.hits", "bugassist_store_hits_total"),
        ("store.misses", "bugassist_store_misses_total"),
        ("store.writes", "bugassist_store_writes_total"),
        ("store.bytes_written", "bugassist_store_bytes_written_total"),
        ("store.write_errors", "bugassist_store_write_errors_total"),
        (
            "store.corrupt_records",
            "bugassist_store_corrupt_records_total",
        ),
        ("store.restore_ms", "bugassist_store_restore_milliseconds"),
        ("store.restored_entries", "bugassist_store_restored_entries"),
    ];

    let samples: std::collections::BTreeMap<&str, &str> = text
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| line.rsplit_once(' ').expect("sample has a value"))
        .collect();
    let build_info = concat!(
        "bugassist_build_info{version=\"",
        env!("CARGO_PKG_VERSION"),
        "\"}"
    );
    let mut expected: Vec<&str> = pairs.iter().map(|&(_, sample)| sample).collect();
    expected.extend([build_info, "bugassist_uptime_seconds"]);
    expected.sort_unstable();
    assert_eq!(samples.keys().copied().collect::<Vec<_>>(), expected);

    let count = |path: &str| {
        path.split('.')
            .try_fold(&stats, |v, key| v.get(key))
            .and_then(Json::as_u64)
    };
    for (path, sample) in pairs {
        assert!(paths.iter().any(|p| p == path), "{path} is a stats path");
        assert!(count(path).is_some(), "stats {path} is a number: {stats}");
        assert_eq!(
            samples[sample].parse::<u64>().ok(),
            count(path),
            "{path} vs {sample}"
        );
    }

    // The mix above is what the request counters saw.
    assert_eq!(count("requests.localize"), Some(2));
    assert_eq!(count("requests.revise"), Some(1));
    assert_eq!(count("requests.revise_solve_skips"), Some(1));
    assert_eq!(count("requests.batch"), Some(1));
    // The warm localize and the revise's remap answered without a solve.
    assert_eq!(count("requests.report_replays"), Some(2));
    assert_eq!(count("requests.errors"), Some(1));
    assert_eq!(count("analysis.analyze_requests"), Some(1));
    // The last solve was the batch: its merged stats sum every test's SAT
    // calls and cores, one SAT call per core plus one per MAX-SAT call.
    let last_job = stats.get("last_job").expect("last_job");
    assert_eq!(last_job.get("op").and_then(Json::as_str), Some("batch"));
    let last = |key: &str| last_job.get(key).and_then(Json::as_u64);
    assert!(last("cores") > Some(0), "{stats}");
    assert_eq!(
        last("sat_calls"),
        Some(last("cores").unwrap() + last("maxsat_calls").unwrap())
    );
    assert!(count("solver.sat_calls") > last("sat_calls"));
    server.shutdown();
}

/// The client's retry backoff must respect the job's own `deadline_ms`:
/// retrying past the point where the answer could still arrive in budget
/// only burns the caller's time. Against a daemon that hangs up on every
/// attempt, an uncapped 8-retry schedule at 100 ms base would sleep ~25 s;
/// the cap surfaces `deadline_exceeded` within the job's ~250 ms budget.
#[test]
fn client_retries_never_outlive_the_jobs_own_deadline() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().expect("addr");
    // Accept and instantly hang up, forever: every attempt is a transport
    // error. The thread dies with the test process.
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            drop(conn);
        }
    });

    let mut client = Client::connect_with(
        addr,
        service::ClientConfig {
            retries: 8,
            retry_base: std::time::Duration::from_millis(100),
            seed: 7,
            ..service::ClientConfig::default()
        },
    )
    .expect("connects");
    let mut job = mutated_minic_job(1);
    job.deadline_ms = Some(250);
    let started = std::time::Instant::now();
    let err = client.localize(job).expect_err("no daemon ever answers");
    let elapsed = started.elapsed();
    assert_eq!(err.kind(), Some("deadline_exceeded"), "{err:?}");
    assert!(
        matches!(&err, ClientError::DeadlineExceeded { last_error } if !last_error.is_empty()),
        "{err:?}"
    );
    assert!(
        elapsed < std::time::Duration::from_secs(5),
        "retry loop blew past the deadline: {elapsed:?}"
    );
}

/// Fair-queuing regression: one greedy tenant flooding distinct cold-build
/// jobs from six connections cannot shed or starve three polite tenants on
/// their own lanes. Polite jobs must all succeed (zero sheds) with a
/// bounded p99, whatever happens to the greedy lane.
#[test]
fn a_greedy_client_cannot_shed_or_starve_the_polite_ones() {
    let server = Server::start(ServiceConfig {
        workers: 1,
        queue_capacity: 16,
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr();

    // The greedy tenant: six connections sharing one client_id, every job
    // a distinct program (a cold build), re-submitting the moment each
    // response lands. Sheds hit only this lane and must say `overloaded`.
    let greedy: Vec<_> = (0..6)
        .map(|t: i64| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connects");
                let mut sheds = 0u64;
                for i in 0..6 {
                    let mut job = mutated_minic_job(1000 + t * 6 + i);
                    job.client_id = Some("greedy".to_string());
                    job.deadline_ms = Some(120_000);
                    match client.localize(job) {
                        Ok(_) => {}
                        Err(err) => {
                            assert_eq!(err.kind(), Some("overloaded"), "{err:?}");
                            sheds += 1;
                        }
                    }
                }
                sheds
            })
        })
        .collect();

    // Three polite tenants: one sequential connection each on their own
    // lane (first job a cold build, the rest cache hits).
    let polite: Vec<_> = (0..3)
        .map(|p: i64| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connects");
                let mut latencies = Vec::new();
                for _ in 0..12 {
                    let mut job = mutated_minic_job(-(10 + p));
                    job.client_id = Some(format!("polite-{p}"));
                    job.deadline_ms = Some(120_000);
                    let started = std::time::Instant::now();
                    client
                        .localize(job)
                        .expect("polite jobs are never shed under a greedy flood");
                    latencies.push(started.elapsed());
                }
                latencies
            })
        })
        .collect();

    let mut latencies: Vec<std::time::Duration> = polite
        .into_iter()
        .flat_map(|h| h.join().expect("polite thread must not panic"))
        .collect();
    let greedy_sheds: u64 = greedy
        .into_iter()
        .map(|h| h.join().expect("greedy thread must not panic"))
        .sum();
    latencies.sort();
    let p99 = latencies[(latencies.len() * 99).div_ceil(100) - 1];
    assert!(
        p99 < std::time::Duration::from_secs(2),
        "polite p99 {p99:?} under greedy flood (greedy sheds: {greedy_sheds})"
    );
    server.shutdown();
}
