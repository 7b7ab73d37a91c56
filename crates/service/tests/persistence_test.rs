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

#[test]
fn restart_recovers_warm_entries_byte_identically() {
    let dir = TempDir::new("restart");
    let jobs = [minic_job(2), minic_job(5)];

    // First daemon lifetime: cold builds, asynchronous write-through.
    let server = Server::start(store_config(&dir)).expect("first daemon");
    let mut expected = Vec::new();
    {
        let mut client = Client::connect(server.local_addr()).expect("connects");
        for job in &jobs {
            let out = client.localize(job.clone()).expect("localizes");
            assert!(!out.cache_hit);
            assert_eq!(out.tier, "built");
            expected.push(canonical(&out.body));
        }
        wait_for_writes(&mut client, jobs.len() as u64);
    }
    server.shutdown();

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
    for (job, expected) in jobs.iter().zip(&expected) {
        let out = client
            .localize(job.clone())
            .expect("localizes post-restart");
        assert!(out.cache_hit, "restored entry serves as a plain cache hit");
        assert_eq!(out.tier, "memory");
        assert_eq!(out.build_ms, 0, "no rebuild after restart");
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

#[test]
fn evicted_entry_is_served_from_the_store_tier() {
    let dir = TempDir::new("evict");
    let config = ServiceConfig {
        workers: 1,
        cache_capacity: 1,
        cache_shards: 1,
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
        "bugassist_build_info{version=",
    ] {
        assert!(text.contains(family), "metrics lack {family:?}:\n{text}");
    }
    server.shutdown();
}

/// The fleet client's own exposition goes through the same structural
/// validator: a chaos harness scrapes it next to the per-replica text.
#[test]
fn fleet_metrics_exposition_is_valid_prometheus_text() {
    let dir = TempDir::new("fleet-metrics");
    let server = Server::start(store_config(&dir)).expect("daemon");
    let addr = server.local_addr().to_string();
    let mut fleet = service::FleetClient::new(service::FleetConfig {
        replicas: vec![addr],
        ..service::FleetConfig::default()
    });
    fleet.localize(minic_job(3)).expect("fleet serves");
    fleet.probe();
    let text = fleet.metrics_text();
    assert_valid_prometheus(&text);

    for family in [
        "bugassist_fleet_replicas 1",
        "bugassist_fleet_replicas_up 1",
        "bugassist_fleet_requests_total 1",
        "bugassist_fleet_delivered_total 1",
        "bugassist_fleet_failovers_total 0",
        "bugassist_fleet_down_marks_total 0",
        "bugassist_fleet_served_total{replica=",
    ] {
        assert!(
            text.contains(family),
            "fleet metrics lack {family:?}:\n{text}"
        );
    }
    server.shutdown();
}
