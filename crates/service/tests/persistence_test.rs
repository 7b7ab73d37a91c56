//! End-to-end tests of the persistent prepared-formula store: restart
//! recovery, evict-to-disk coherence, corruption handling, write-through
//! hygiene and the Prometheus metrics exposition.

use service::{Client, Job, JobSpec, Json, Server, ServiceConfig};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A self-deleting scratch directory for store files.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "bugassist-persistence-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self) -> String {
        self.0.to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn store_config(dir: &TempDir) -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        store_dir: Some(dir.path()),
        ..ServiceConfig::default()
    }
}

fn minic_job(delta: i64) -> Job {
    let source = format!("int main(int x) {{\nint y = x + {delta};\nint z = y * 2;\nreturn z;\n}}");
    Job::new(source, "main", JobSpec::ReturnEquals(0), vec![vec![3]])
}

/// A build-heavy job: a long straight-line body whose encoding dwarfs its
/// MAX-SAT solve, so a restored entry saves a whole build.
fn wide_minic_job(lines: usize) -> Job {
    let mut source = String::from("int main(int x) {\nint y = x + 2;\n");
    for _ in 0..lines {
        source.push_str("y = y + 1;\n");
    }
    source.push_str("return y;\n}");
    let mut job = Job::new(
        source,
        "main",
        JobSpec::ReturnEquals(1 + lines as i64),
        vec![vec![0]],
    );
    job.options.max_suspect_sets = 2;
    job
}

fn canonical(body: &Json) -> String {
    service::protocol::canonicalize(body).to_string()
}

fn store_stat(stats: &Json, field: &str) -> u64 {
    stats
        .get("store")
        .and_then(|s| s.get(field))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats.store.{field} missing: {stats}"))
}

/// Polls `stats` until the store has persisted at least `writes` records
/// (write-through is asynchronous, off the request path).
fn wait_for_writes(client: &mut Client, writes: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.stats().expect("stats");
        if store_stat(&stats, "writes") >= writes {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "write-through never persisted {writes} records: {stats}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// First daemon lifetime on `dir`: builds every job cold, waits for the
/// write-through to persist them all, and shuts down. Returns each job's
/// canonical report and the summed request milliseconds.
fn build_and_persist(dir: &TempDir, jobs: &[Job]) -> (Vec<String>, f64) {
    let server = Server::start(store_config(dir)).expect("first daemon");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let mut expected = Vec::with_capacity(jobs.len());
    let mut cold_ms = 0.0;
    for job in jobs {
        let started = Instant::now();
        let out = client.localize(job.clone()).expect("localizes");
        cold_ms += started.elapsed().as_secs_f64() * 1e3;
        assert!(!out.cache_hit);
        assert_eq!(out.tier, "built");
        expected.push(canonical(&out.body));
    }
    wait_for_writes(&mut client, jobs.len() as u64);
    server.shutdown();
    (expected, cold_ms)
}

#[test]
fn restart_recovers_warm_entries_byte_identically() {
    let dir = TempDir::new("restart");
    let jobs = [wide_minic_job(80), minic_job(2), minic_job(5)];

    // First daemon lifetime: cold builds, asynchronous write-through.
    let (expected, cold_total) = build_and_persist(&dir, &jobs);

    // Second daemon lifetime, same directory: restore-on-boot preloads the
    // cache, so the first request per program is already warm — no
    // rebuild, and a byte-identical report.
    let server = Server::start(store_config(&dir)).expect("second daemon");
    let mut client = Client::connect(server.local_addr()).expect("reconnects");
    let stats = client.stats().expect("stats");
    assert_eq!(
        store_stat(&stats, "restored_entries"),
        jobs.len() as u64,
        "restore-on-boot recovers every persisted entry: {stats}"
    );
    assert!(
        stats
            .get("store")
            .and_then(|s| s.get("restore_ms"))
            .is_some(),
        "restore time is surfaced: {stats}"
    );
    assert_eq!(
        stats.get("version").and_then(Json::as_str),
        Some(env!("CARGO_PKG_VERSION")),
        "stats reports the build version: {stats}"
    );
    let mut disk_warm_total = 0.0;
    for (job, expected) in jobs.iter().zip(&expected) {
        let started = Instant::now();
        let out = client
            .localize(job.clone())
            .expect("localizes post-restart");
        disk_warm_total += started.elapsed().as_secs_f64() * 1e3;
        assert!(out.cache_hit, "restored entry serves as a plain cache hit");
        assert_eq!(out.tier, "memory");
        assert_eq!(out.build_ms, 0, "no rebuild after restart");
        assert_eq!(&canonical(&out.body), expected, "byte-identical report");
    }
    server.shutdown();
    assert!(
        cold_total > 1.5 * disk_warm_total,
        "disk-warm restart (total {disk_warm_total:.3}ms) must beat the cold \
         builds (total {cold_total:.3}ms) by more than 1.5x"
    );
}

/// `serve --no-restore`: a restart that skips the boot scan serves each
/// program's first request from the disk tier (`tier:"store"`), without a
/// rebuild and byte-identically to the first lifetime.
#[test]
fn restart_without_restore_on_boot_answers_first_requests_from_the_store() {
    let dir = TempDir::new("lazy-restart");
    let jobs = [minic_job(2), minic_job(5)];
    let (expected, _) = build_and_persist(&dir, &jobs);

    let server = Server::start(ServiceConfig {
        restore_on_boot: false,
        ..store_config(&dir)
    })
    .expect("second daemon");
    let mut client = Client::connect(server.local_addr()).expect("reconnects");
    assert_eq!(
        store_stat(&client.stats().expect("stats"), "restored_entries"),
        0
    );
    for (job, expected) in jobs.iter().zip(&expected) {
        let out = client
            .localize(job.clone())
            .expect("localizes post-restart");
        assert!(!out.cache_hit, "nothing was restored into memory");
        assert_eq!(out.tier, "store");
        assert_eq!(out.build_ms, 0, "store-served entries never rebuild");
        assert_eq!(&canonical(&out.body), expected, "byte-identical report");
    }
    server.shutdown();
}

#[test]
fn revise_against_a_restored_entry_relabels_it() {
    let dir = TempDir::new("revise-restored");
    let base = minic_job(2);

    // First lifetime: build the base program and write it through.
    let server = Server::start(store_config(&dir)).expect("first daemon");
    let key = {
        let mut client = Client::connect(server.local_addr()).expect("connects");
        let out = client.localize(base.clone()).expect("localizes");
        assert_eq!(out.tier, "built");
        wait_for_writes(&mut client, 1);
        out.key
    };
    server.shutdown();

    // Second lifetime: the base entry comes back from the store, with no
    // trace CNF and no remembered report. A blank line inside main is a
    // pure line shift, so the revise relabels the restored template and
    // solves it.
    let mut shifted = base.clone();
    shifted.program = base
        .program
        .replace("int main(int x) {\n", "int main(int x) {\n\n");
    let server = Server::start(store_config(&dir)).expect("second daemon");
    let revised = {
        let mut client = Client::connect(server.local_addr()).expect("reconnects");
        let stats = client.stats().expect("stats");
        assert_eq!(store_stat(&stats, "restored_entries"), 1, "{stats}");
        client.revise(shifted.clone(), key).expect("revises")
    };
    server.shutdown();
    assert_eq!(revised.delta, "line_shift");
    assert!(revised.reused, "a line shift reuses the restored entry");
    assert!(revised.solved, "a restored entry remembers no report");

    // Byte-identical to a cold build of the edited program.
    let cold_server = Server::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .expect("cold daemon");
    let cold = Client::connect(cold_server.local_addr())
        .expect("connects")
        .localize(shifted)
        .expect("cold localize");
    cold_server.shutdown();
    assert_eq!(cold.tier, "built");
    assert_eq!(canonical(&revised.outcome.body), canonical(&cold.body));
}

/// A revise-derived entry reaches the disk through write-through alone, so
/// it survives a restart like a cold build does.
#[test]
fn a_revise_derived_entry_survives_a_restart() {
    let dir = TempDir::new("revise-restart");
    let base = minic_job(2);
    let mut shifted = base.clone();
    shifted.program = base
        .program
        .replace("int main(int x) {\n", "int main(int x) {\n\n");

    // First lifetime: build the base program, then derive the shifted one
    // from it without a build, and shut down.
    let server = Server::start(store_config(&dir)).expect("first daemon");
    let revised = {
        let mut client = Client::connect(server.local_addr()).expect("connects");
        let cold = client.localize(base).expect("localizes");
        assert_eq!(cold.tier, "built");
        client.revise(shifted.clone(), cold.key).expect("revises")
    };
    server.shutdown();
    assert_eq!(revised.delta, "line_shift");
    assert!(revised.reused && !revised.solved, "{revised:?}");
    assert_eq!(revised.outcome.tier, "built");

    // Second lifetime: the derived entry comes back on boot.
    let server = Server::start(store_config(&dir)).expect("second daemon");
    let mut client = Client::connect(server.local_addr()).expect("reconnects");
    let stats = client.stats().expect("stats");
    assert_eq!(store_stat(&stats, "restored_entries"), 2, "{stats}");
    let out = client.localize(shifted).expect("localizes post-restart");
    server.shutdown();
    assert_eq!(out.tier, "memory");
    assert_eq!(out.build_ms, 0, "no rebuild after restart");
    assert_eq!(canonical(&out.body), canonical(&revised.outcome.body));
}

#[test]
fn evicted_entry_is_served_from_the_store_tier() {
    let dir = TempDir::new("evict");
    let config = ServiceConfig {
        workers: 1,
        cache_capacity: 1,
        ..store_config(&dir)
    };
    let server = Server::start(config).expect("daemon");
    let mut client = Client::connect(server.local_addr()).expect("connects");

    let first = minic_job(2);
    let cold = client.localize(first.clone()).expect("cold build");
    assert_eq!(cold.tier, "built");
    wait_for_writes(&mut client, 1);

    // A second program evicts the first from the capacity-1 memory tier.
    let evictor = client.localize(minic_job(5)).expect("evicting build");
    assert_eq!(evictor.tier, "built");

    // The evicted entry is still served — from disk, without a rebuild.
    let back = client.localize(first).expect("post-eviction request");
    assert!(!back.cache_hit, "the memory tier genuinely evicted it");
    assert_eq!(back.tier, "store");
    assert_eq!(back.build_ms, 0, "store-served entries never rebuild");
    assert_eq!(canonical(&back.body), canonical(&cold.body));
    let stats = client.stats().expect("stats");
    assert!(store_stat(&stats, "hits") >= 1, "{stats}");
    server.shutdown();
}

#[test]
fn revise_with_an_evicted_pre_edit_entry_is_served_from_the_store() {
    let dir = TempDir::new("revise-evicted");
    let config = ServiceConfig {
        workers: 1,
        cache_capacity: 1,
        ..store_config(&dir)
    };
    let server = Server::start(config).expect("daemon");
    let mut client = Client::connect(server.local_addr()).expect("connects");

    // The edited program is built and written through first.
    let edited = minic_job(2);
    assert_eq!(
        client.localize(edited.clone()).expect("builds").tier,
        "built"
    );
    wait_for_writes(&mut client, 1);
    // The pre-edit program evicts it, and is evicted in turn.
    let pre_edit = client.localize(minic_job(5)).expect("pre-edit build");
    client.localize(minic_job(7)).expect("evicting build");

    let revised = client
        .revise(edited.clone(), pre_edit.key)
        .expect("revises");
    server.shutdown();
    assert!(!revised.outcome.cache_hit, "the memory tier evicted it");
    assert_eq!(revised.outcome.tier, "store");
    assert_eq!(
        revised.outcome.build_ms, 0,
        "store-served entries never rebuild"
    );
    assert_eq!(revised.delta, "prev_missing");
    assert!(!revised.reused);
    assert!(revised.solved, "a restored entry remembers no report");

    let cold_server = Server::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .expect("cold daemon");
    let cold = Client::connect(cold_server.local_addr())
        .expect("connects")
        .localize(edited)
        .expect("cold localize");
    cold_server.shutdown();
    assert_eq!(cold.tier, "built");
    assert_eq!(canonical(&revised.outcome.body), canonical(&cold.body));
}

/// `store.bytes_written` counts whole records, so it equals the size of the
/// record files on disk when every key was written once, and divided by
/// `store.writes` it is the mean record size.
#[test]
fn bytes_written_equals_the_record_files_on_disk() {
    let dir = TempDir::new("bytes");
    let server = Server::start(store_config(&dir)).expect("daemon");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let jobs = [wide_minic_job(20), minic_job(2), minic_job(5)];
    for job in &jobs {
        client.localize(job.clone()).expect("localizes");
    }
    wait_for_writes(&mut client, jobs.len() as u64);
    let stats = client.stats().expect("stats");
    server.shutdown();
    assert_eq!(store_stat(&stats, "writes"), jobs.len() as u64, "{stats}");
    let on_disk: u64 = std::fs::read_dir(&dir.0)
        .expect("store dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "rec"))
        .map(|p| std::fs::metadata(p).expect("record metadata").len())
        .sum();
    assert!(on_disk > 0);
    assert_eq!(store_stat(&stats, "bytes_written"), on_disk, "{stats}");
}

#[test]
fn failed_builds_are_never_written_through() {
    let dir = TempDir::new("failed");
    let server = Server::start(store_config(&dir)).expect("daemon");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    // `y` is undeclared: the build fails its typecheck.
    let bad = Job::new(
        "int main(int x) {\nreturn y;\n}",
        "main",
        JobSpec::ReturnEquals(0),
        vec![vec![1]],
    );
    let err = client.localize(bad).expect_err("type error");
    assert_eq!(err.kind(), Some("type_error"), "{err:?}");
    // One good build, so there is a write to wait for — proving the writer
    // thread ran and still never saw the failed build.
    client.localize(minic_job(2)).expect("good build");
    wait_for_writes(&mut client, 1);
    let stats = client.stats().expect("stats");
    assert_eq!(store_stat(&stats, "writes"), 1, "{stats}");
    server.shutdown();
    let records = std::fs::read_dir(&dir.0)
        .expect("store dir")
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|ext| ext == "rec")
        })
        .count();
    assert_eq!(records, 1, "only the successful build reached the disk");
}

/// A build that *panics* poisons its single-flight slot; the poisoned slot
/// must never reach the store either.
#[test]
fn panicked_builds_are_never_written_through() {
    use service::{FaultConfig, FaultPlan};
    use std::sync::Arc;
    let dir = TempDir::new("poisoned");
    let plan = Arc::new(FaultPlan::new(FaultConfig {
        seed: 7,
        build_panic_period: 1, // every build panics
        ..FaultConfig::default()
    }));
    let config = ServiceConfig {
        fault_plan: Some(plan),
        ..store_config(&dir)
    };
    let server = Server::start(config).expect("daemon");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let err = client.localize(minic_job(2)).expect_err("build panics");
    assert_eq!(err.kind(), Some("internal_error"), "{err:?}");
    let stats = client.stats().expect("stats");
    assert_eq!(store_stat(&stats, "writes"), 0, "{stats}");
    server.shutdown();
    let empty = std::fs::read_dir(&dir.0)
        .expect("store dir")
        .next()
        .is_none();
    assert!(empty, "a poisoned build left a record behind");
}

#[test]
fn corrupt_records_degrade_to_clean_boot_misses() {
    let dir = TempDir::new("corrupt");

    // Record 1: valid framing (magic, CRC) around an undecodable payload.
    let raw = store::Store::open(dir.path()).expect("store opens");
    raw.save(0x1234, 0x5678, b"not a prepared entry")
        .expect("saves");
    // Record 2: a truncated file (torn write).
    std::fs::write(dir.0.join(format!("{:016x}.rec", 0x9999u64)), b"bgast")
        .expect("writes truncated record");
    drop(raw);

    let server = Server::start(store_config(&dir)).expect("daemon boots anyway");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let stats = client.stats().expect("stats");
    assert_eq!(store_stat(&stats, "restored_entries"), 0, "{stats}");
    assert_eq!(
        store_stat(&stats, "corrupt_records"),
        2,
        "both corruption classes were counted: {stats}"
    );
    // The daemon is fully functional: the corrupt records were misses, not
    // errors, and fresh builds proceed normally.
    let out = client.localize(minic_job(2)).expect("serves normally");
    assert_eq!(out.tier, "built");
    server.shutdown();
}

/// A record of an older payload layout (version 7 carried the trace's
/// grouped CNF) is counted and rebuilt, never misread.
#[test]
fn previous_payload_version_is_a_counted_miss() {
    let dir = TempDir::new("payload-version");
    let job = minic_job(2);
    {
        let server = Server::start(store_config(&dir)).expect("daemon starts");
        let mut client = Client::connect(server.local_addr()).expect("connects");
        assert_eq!(client.localize(job.clone()).expect("builds").tier, "built");
        wait_for_writes(&mut client, 1);
        server.shutdown();
    }
    let program = minic::parse_program(&job.program).expect("parses");
    let (key, fingerprint) = (job.cache_key(&program), job.options_fingerprint());
    let raw = store::Store::open(dir.path()).expect("store opens");
    let mut payload = raw.load(key, fingerprint).expect("record written");
    assert_eq!(payload[0], service::persist::PAYLOAD_VERSION);
    payload[0] = service::persist::PAYLOAD_VERSION - 1;
    raw.save(key, fingerprint, &payload).expect("saves");
    drop(raw);

    let server = Server::start(store_config(&dir)).expect("daemon boots anyway");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let stats = client.stats().expect("stats");
    assert_eq!(store_stat(&stats, "restored_entries"), 0, "{stats}");
    assert_eq!(store_stat(&stats, "corrupt_records"), 1, "{stats}");
    assert_eq!(client.localize(job).expect("rebuilds").tier, "built");
    server.shutdown();
}

/// Structural validity: every line is a `# TYPE` comment or a
/// `name[{labels}] value` sample whose name a `# TYPE` declared. Each name
/// is declared once, each name-and-labels sample appears once, and every
/// declaration has at least one sample.
fn assert_valid_prometheus(text: &str) {
    let mut declared: Vec<(String, usize)> = Vec::new();
    let mut samples: Vec<&str> = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("type line has a name");
            let kind = parts.next().expect("type line has a kind");
            assert!(
                kind == "counter" || kind == "gauge",
                "unknown metric kind in {line:?}"
            );
            assert!(
                declared.iter().all(|(d, _)| d != name),
                "second # TYPE line for {name}"
            );
            declared.push((name.to_string(), 0));
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment {line:?}");
        let (name_part, value) = line.rsplit_once(' ').expect("sample has a value");
        let name = name_part.split('{').next().unwrap();
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name in {line:?}"
        );
        let (_, count) = declared
            .iter_mut()
            .find(|(d, _)| d == name)
            .unwrap_or_else(|| panic!("sample {line:?} has no # TYPE declaration"));
        *count += 1;
        assert!(
            !samples.contains(&name_part),
            "duplicate sample {name_part}"
        );
        samples.push(name_part);
        assert!(value.parse::<f64>().is_ok(), "unparsable value in {line:?}");
    }
    for (name, count) in declared {
        assert!(count > 0, "# TYPE {name} has no sample");
    }
}

#[test]
fn prometheus_validator_rejects_duplicates_and_empty_families() {
    assert_valid_prometheus("# TYPE a counter\na 1\n# TYPE b gauge\nb{x=\"1\"} 2\nb{x=\"2\"} 3\n");
    for bad in [
        "# TYPE a counter\na 1\n# TYPE a counter\na{x=\"1\"} 2\n",
        "# TYPE a counter\na 1\na 2\n",
        "# TYPE a counter\na 1\n# TYPE b gauge\n",
    ] {
        let rejected = std::panic::catch_unwind(|| assert_valid_prometheus(bad)).is_err();
        assert!(rejected, "validator accepted {bad:?}");
    }
}

#[test]
fn metrics_exposition_is_valid_prometheus_text() {
    let dir = TempDir::new("metrics");
    let server = Server::start(store_config(&dir)).expect("daemon");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    client.localize(minic_job(2)).expect("one request");
    let text = client.metrics().expect("metrics");
    assert_valid_prometheus(&text);

    // Coverage: one representative metric per required family.
    for family in [
        "bugassist_requests_total{op=\"localize\"} 1",
        "bugassist_queue_depth",
        "bugassist_fair_queue_active_lanes",
        "bugassist_fair_queue_max_lane_depth",
        "bugassist_fair_queue_fair_share",
        "bugassist_cache_misses_total 1",
        "bugassist_worker_panics_total 0",
        "bugassist_formula_vars_eliminated_total",
        "bugassist_analysis_requests_total",
        "bugassist_analysis_lines_pruned_total",
        "bugassist_analysis_lint_warnings_total",
        "bugassist_store_writes_total",
        "bugassist_store_bytes_written_total",
        "bugassist_build_info{version=",
    ] {
        assert!(text.contains(family), "metrics lack {family:?}:\n{text}");
    }
    server.shutdown();
}

/// Two daemons pointed at the same `--store-dir` is an operator error the
/// second must refuse at startup with a structured message, and a graceful
/// shutdown releases the directory.
#[test]
fn a_second_replica_on_the_same_store_dir_is_refused_at_startup() {
    let dir = TempDir::new("shared-store");

    let first = Server::start(store_config(&dir)).expect("first replica owns the dir");
    let err = Server::start(store_config(&dir))
        .expect_err("second replica on the same store dir must be refused");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
    let message = err.to_string();
    assert!(
        message.contains("locked by live process") && message.contains("--store-dir"),
        "startup error must name the hazard and the fix: {message}"
    );

    // Graceful shutdown releases the lock; the directory is reusable.
    first.shutdown();
    let second = Server::start(store_config(&dir)).expect("dir reusable after shutdown");
    second.shutdown();
}
