//! Layer probes of the traced run and the per-layer metrics.
//!
//! Each probe times one public entry point of one workspace crate on the
//! workload's own programs, from outside the crate:
//!
//! - `minic::parse_program`, `bmc::word_trace`, `bmc::encode_program`,
//!   `analysis::prunable_lines`, `analysis::lint_program`;
//! - `Localizer::new` and `Localizer::warm`, and `sat::simplify` on the
//!   unsimplified template with the frozen set the localizer uses;
//! - rank 0 rebuilt from `Localizer::export_prepared` plus the test's input
//!   units, the property and the hardened selectors, loaded into a fresh
//!   `sat::Solver` and solved with `MaxSatSolver::solve` — the replay must
//!   equal the report's rank 0;
//! - sequential `localize` calls against one `localize_batch`;
//! - `service::Json` serialize and parse of a report body, a store record
//!   read with `store::Store::load` and decoded with
//!   `service::persist::decode_entry`, and `health` round trips to a daemon.

use crate::catalog::{Case, FailingTest};
use crate::report::{Measured, Metric};
use crate::trace::{self, Recording, Tracer};
use crate::{mix, stats, warm};
use bugassist::{LocalizationReport, Localizer, LocalizerConfig};
use maxsat::{MaxSatInstance, MaxSatSolver, Strategy};
use minic::ast::Line;
use sat::bytes::{ByteReader, ByteWriter};
use sat::{CnfFormula, Lit};
use std::hint::black_box;
use std::sync::Arc;

/// Repetitions of the microsecond-scale service probes.
const MICRO_REPS: usize = 200;

/// Failing tests per program in the batch-speedup probe.
const BATCH_TESTS: usize = 4;

/// The part of a prepared template the rank-0 replay needs.
struct Template {
    /// `(selector, blamed lines, weight)` in template order.
    selectors: Vec<(Lit, Vec<Line>, u64)>,
    hard: CnfFormula,
    num_vars: usize,
}

/// Reads a localizer's prepared template back through its public byte
/// encoding (`PreparedTemplate::encode`).
fn template(localizer: &Localizer) -> Result<Template, String> {
    let prepared = localizer.export_prepared().ok_or("localizer is not warm")?;
    let mut w = ByteWriter::new();
    prepared.encode(&mut w);
    let bytes = w.into_bytes();
    let mut r = ByteReader::new(&bytes);
    let decode = |r: &mut ByteReader<'_>| -> Result<Template, sat::bytes::DecodeError> {
        let mut selectors = Vec::new();
        for _ in 0..r.read_usize()? {
            let lit = Lit::from_code(r.read_usize()?);
            let lines = (0..r.read_usize()?)
                .map(|_| r.read_u32().map(Line))
                .collect::<Result<Vec<Line>, _>>()?;
            for _ in 0..r.read_usize()? {
                r.read_u64()?; // unwinding
            }
            selectors.push((lit, lines, r.read_u64()?));
        }
        let hard = CnfFormula::decode(r)?;
        let num_vars = r.read_usize()?;
        Ok(Template {
            selectors,
            hard,
            num_vars,
        })
    };
    decode(&mut r).map_err(|e| e.to_string())
}

/// Front end, analysis, construction and simplification of one program.
fn front_end(case: &Case, test: &FailingTest, tracer: &Tracer) -> Result<(), String> {
    let spec = Case::spec(test);
    let program = tracer
        .span("minic.parse", || minic::parse_program(&case.text))
        .map_err(|e| e.to_string())?;
    tracer
        .span("bmc.word_trace", || {
            bmc::word_trace(&program, case.entry, &spec, &case.encode).map(black_box)
        })
        .map_err(|e| e.to_string())?;
    let encoded = tracer
        .span("bmc.encode", || {
            bmc::encode_program(&program, case.entry, &spec, &case.encode)
        })
        .map_err(|e| e.to_string())?;
    tracer.count("bmc.word_nodes", encoded.stats.word_nodes as f64);
    tracer.count("bitblast.gates_emitted", encoded.stats.gates_emitted as f64);
    tracer.count("bmc.clauses", encoded.stats.clauses as f64);
    let pruned = tracer.span("analysis.prune", || {
        analysis::prunable_lines(&program, case.entry, analysis::Criterion::ReturnValue)
    });
    tracer.count("analysis.lines_pruned", pruned.len() as f64);
    tracer.span("analysis.lint", || {
        black_box(analysis::lint_program(&program, case.encode.width))
    });

    // `sat::simplify` on the template a `simplify: false` localizer builds,
    // freezing what the localizer freezes: selectors, input bits, property.
    let raw = Localizer::new(
        &program,
        case.entry,
        &spec,
        &LocalizerConfig {
            simplify: false,
            ..case.config(case.full_sets)
        },
    )
    .map_err(|e| e.to_string())?;
    raw.warm();
    let t = template(&raw)?;
    let mut frozen: Vec<sat::Var> = t.selectors.iter().map(|s| s.0.var()).collect();
    for (_, bits) in &raw.trace().inputs {
        frozen.extend(bits.bits().iter().map(|b| b.var()));
    }
    frozen.push(raw.trace().property.var());
    let simplified = tracer.span("sat.simplify", || {
        sat::simplify(&t.hard, &frozen, &sat::SimplifyConfig::default())
    });
    tracer.count("sat.hard_clauses", simplified.cnf.num_clauses() as f64);
    tracer.count(
        "sat.vars_eliminated",
        simplified.stats.vars_eliminated as f64,
    );
    Ok(())
}

/// Rebuilds rank 0 of `report` from the localizer's exported template and
/// solves it with the MAX-SAT layer directly. Returns a mismatch line when
/// the replay disagrees with the report.
fn replay_rank0(
    case: &Case,
    localizer: &Localizer,
    input: &[i64],
    report: &LocalizationReport,
    tracer: &Tracer,
) -> Result<Option<String>, String> {
    let t = template(localizer)?;
    let pruned =
        analysis::prunable_lines(&case.program, case.entry, analysis::Criterion::ReturnValue);
    let hardened = |lines: &[Line]| {
        lines.iter().any(|l| case.trusted.contains(l))
            || (!lines.is_empty() && lines.iter().all(|l| pruned.binary_search(l).is_ok()))
    };
    let mut instance = MaxSatInstance::from_hard(t.hard);
    instance.ensure_vars(t.num_vars);
    for lit in localizer.trace().input_assumption_lits(input) {
        instance.add_hard(vec![lit]);
    }
    instance.add_hard(vec![localizer.trace().property]);
    for (lit, lines, _) in &t.selectors {
        if hardened(lines) {
            instance.add_hard(vec![*lit]);
        }
    }
    let mut soft_lines: Vec<&[Line]> = Vec::new();
    for (lit, lines, weight) in &t.selectors {
        if !hardened(lines) {
            instance.add_soft_unit(*lit, *weight);
            soft_lines.push(lines);
        }
    }
    // Loading the hard clauses the way the Fu–Malik strategy does.
    tracer.span("sat.load", || {
        let mut solver = sat::Solver::new();
        solver.ensure_vars(instance.num_vars());
        for clause in instance.hard().iter() {
            solver.add_clause(clause.lits().iter().copied());
        }
        black_box(solver)
    });
    let mut solver = MaxSatSolver::new(Strategy::FuMalik);
    let result = tracer.span("maxsat.solve", || solver.solve(&instance));
    let st = solver.stats();
    tracer.count("maxsat.sat_calls", st.sat_calls as f64);
    tracer.count("maxsat.cores", st.cores as f64);
    tracer.count("maxsat.conflicts", st.conflicts as f64);
    let replayed = result.into_optimum().and_then(|solution| {
        if solution.falsified.is_empty() {
            return None;
        }
        let mut lines: Vec<Line> = solution
            .falsified
            .iter()
            .flat_map(|id| soft_lines[id.index()].iter().copied())
            .collect();
        lines.sort();
        Some((lines, solution.cost))
    });
    let expected = report.suspects.first().map(|s| {
        let mut lines = s.lines.clone();
        lines.sort();
        (lines, s.cost)
    });
    Ok((replayed != expected).then(|| {
        format!(
            "{} {input:?}: MAX-SAT replay of rank 0 gives {replayed:?}, the report {expected:?}",
            case.name
        )
    }))
}

/// Sequential `localize` seconds and one `localize_batch`'s seconds over
/// the same failing tests. The sequential calls are recorded as
/// `localize_span`.
fn batch_seconds(
    localizer: &Localizer,
    tests: &[Vec<i64>],
    localize_span: &'static str,
    tracer: &Tracer,
) -> Result<(f64, f64), String> {
    let started = std::time::Instant::now();
    for input in tests {
        let report = tracer
            .span(localize_span, || localizer.localize(input))
            .map_err(|e| e.to_string())?;
        if localize_span == "core.localize" {
            tracer.count("core.maxsat_calls", report.stats.maxsat_calls as f64);
        }
    }
    let sequential = started.elapsed().as_secs_f64();
    let started = std::time::Instant::now();
    tracer
        .span("core.localize_batch", || localizer.localize_batch(tests))
        .map_err(|e| e.to_string())?;
    Ok((sequential, started.elapsed().as_secs_f64()))
}

/// Probes every core-and-below layer on `(case, test)` pairs; returns the
/// batch speedup. Full-enumeration `localize` calls are recorded as
/// `localize_span`, so a workload whose loop times another configuration
/// keeps its own `core.localize` figure.
fn core_probes(
    pairs: &[(&Case, &FailingTest)],
    localize_span: &'static str,
    tracer: &Tracer,
    measured: &mut Measured,
) -> Result<Metric, String> {
    let (mut sequential, mut batched) = (0.0, 0.0);
    for &(case, test) in pairs {
        front_end(case, test, tracer)?;
        let localizer = tracer
            .span("core.new", || {
                Localizer::new(
                    &case.program,
                    case.entry,
                    &Case::spec(test),
                    &case.config(case.full_sets),
                )
            })
            .map_err(|e| e.to_string())?;
        tracer.span("core.prepare", || localizer.warm());
        let report = localizer.localize(&test.input).map_err(|e| e.to_string())?;
        if let Some(mismatch) = replay_rank0(case, &localizer, &test.input, &report, tracer)? {
            measured.mismatches.push(mismatch);
        }
        let tests: Vec<Vec<i64>> = case
            .failing
            .iter()
            .filter(|t| t.golden == test.golden)
            .take(BATCH_TESTS)
            .map(|t| t.input.clone())
            .collect();
        let (s, b) = batch_seconds(&localizer, &tests, localize_span, tracer)?;
        sequential += s;
        batched += b;
    }
    Ok(Metric {
        name: "core.batch_speedup",
        value: stats::ratio(sequential, batched),
        unit: "x",
    })
}

/// JSON, persistence, store and health probes on one TCAS job.
fn service_layer_probes(case: &Case, test: &FailingTest, tracer: &Tracer) -> Result<(), String> {
    let job = mix::job(case, test, 0);
    let localizer = Localizer::new(
        &case.program,
        case.entry,
        &job.bmc_spec(),
        &job.localizer_config(),
    )
    .map_err(|e| e.to_string())?;
    localizer.warm();
    let report = localizer.localize(&test.input).map_err(|e| e.to_string())?;
    let body = service::protocol::report_to_json(&report);
    let mut text = String::new();
    for _ in 0..MICRO_REPS {
        text = tracer.span("json.serialize", || body.to_string());
    }
    for _ in 0..MICRO_REPS {
        tracer
            .span("json.parse", || service::Json::parse(&text))
            .map_err(|e| e.to_string())?;
    }

    let dir =
        std::path::PathBuf::from(mix::SCRATCH_DIR).join(format!("probe-{}", std::process::id()));
    let key = job.cache_key(&case.program);
    let fingerprint = job.options_fingerprint();
    let entry = service::PreparedEntry::new(case.program.clone(), &job, Arc::new(localizer));
    let payload = service::persist::encode_entry(&entry).ok_or("entry is not warm")?;
    let stored = (|| {
        let store = store::Store::open(&dir).map_err(|e| e.to_string())?;
        store
            .save(key, fingerprint, &payload)
            .map_err(|e| e.to_string())?;
        for _ in 0..MICRO_REPS {
            let loaded = tracer
                .span("store.load", || store.load(key, fingerprint))
                .ok_or("stored record did not load")?;
            tracer
                .span("persist.decode", || service::persist::decode_entry(&loaded))
                .map_err(|e| e.to_string())?;
        }
        Ok::<(), String>(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    stored?;

    let server =
        service::Server::start(service::ServiceConfig::default()).map_err(|e| e.to_string())?;
    let pinged = (|| {
        let mut client =
            service::Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
        for _ in 0..MICRO_REPS {
            tracer
                .span("service.health", || client.health())
                .map_err(|e| e.to_string())?;
        }
        Ok::<(), String>(())
    })();
    server.shutdown();
    pinged
}

/// Layer probes of `tcas_warm`: every TCAS version in the run.
pub fn warm_probes(
    state: &warm::State,
    tracer: &Tracer,
    measured: &mut Measured,
) -> Result<Vec<Metric>, String> {
    let pairs: Vec<(&Case, &FailingTest)> = state
        .warm
        .iter()
        .map(|w| (&state.cases[w.case], &w.tests[0]))
        .collect();
    let speedup = core_probes(&pairs, "core.localize", tracer, measured)?;
    service_layer_probes(pairs[0].0, pairs[0].1, tracer)?;
    Ok(vec![speedup])
}

/// Layer probes of `cold_first_verdict`: every program in the run.
pub fn cold_probes(
    state: &crate::cold::State,
    tracer: &Tracer,
    measured: &mut Measured,
) -> Result<Vec<Metric>, String> {
    let pairs: Vec<(&Case, &FailingTest)> = state.cases.iter().zip(&state.tests).collect();
    let speedup = core_probes(&pairs, "probe.localize", tracer, measured)?;
    service_layer_probes(pairs[0].0, pairs[0].1, tracer)?;
    Ok(vec![speedup])
}

/// Layer probes of `service_mix`: the hot set's programs.
pub fn service_probes(
    cases: &[Case],
    hot: &[usize],
    tracer: &Tracer,
    measured: &mut Measured,
) -> Result<Vec<Metric>, String> {
    let pairs: Vec<(&Case, &FailingTest)> = hot
        .iter()
        .map(|&c| (&cases[c], &cases[c].failing[0]))
        .collect();
    let speedup = core_probes(&pairs, "core.localize", tracer, measured)?;
    service_layer_probes(pairs[0].0, pairs[0].1, tracer)?;
    Ok(vec![speedup])
}

/// Every per-layer metric, in `BENCHMARK.json` order: span means in
/// microseconds, count means per call, the two derived figures, and the
/// metrics the probes and the service loop measured directly (`extra`;
/// those a workload does not exercise read 0).
pub fn per_layer(recording: &Recording, extra: &[Metric]) -> Vec<Metric> {
    let spans = trace::totals(&recording.spans);
    let us = |name: &str| spans.get(name).map_or(0.0, |t| t.mean_us());
    let count = |name: &str| recording.counts.get(name).map_or(0.0, |v| stats::mean(v));
    let direct = |name: &str| {
        extra
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let localize_us = us("core.localize");
    let maxsat_calls = count("core.maxsat_calls");
    let (encode_us, word_trace_us) = (us("bmc.encode"), us("bmc.word_trace"));
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    vec![
        m("core.localize_us", localize_us, "us"),
        m("core.maxsat_calls", maxsat_calls, "count"),
        m("core.rank_us", rank_us(localize_us, maxsat_calls), "us"),
        m("maxsat.solve_us", us("maxsat.solve"), "us"),
        m("maxsat.sat_calls", count("maxsat.sat_calls"), "count"),
        m("maxsat.cores", count("maxsat.cores"), "count"),
        m("maxsat.conflicts", count("maxsat.conflicts"), "count"),
        m("sat.load_us", us("sat.load"), "us"),
        m("core.batch_speedup", direct("core.batch_speedup"), "x"),
        m("core.new_us", us("core.new"), "us"),
        m("core.prepare_us", us("core.prepare"), "us"),
        m("sat.simplify_us", us("sat.simplify"), "us"),
        m("sat.hard_clauses", count("sat.hard_clauses"), "count"),
        m("sat.vars_eliminated", count("sat.vars_eliminated"), "count"),
        m("minic.parse_us", us("minic.parse"), "us"),
        m("bmc.word_trace_us", word_trace_us, "us"),
        m("bmc.encode_us", encode_us, "us"),
        m(
            "bitblast.lower_us",
            lower_us(encode_us, word_trace_us),
            "us",
        ),
        m("bmc.word_nodes", count("bmc.word_nodes"), "count"),
        m(
            "bitblast.gates_emitted",
            count("bitblast.gates_emitted"),
            "count",
        ),
        m("bmc.clauses", count("bmc.clauses"), "count"),
        m("analysis.prune_us", us("analysis.prune"), "us"),
        m("analysis.lint_us", us("analysis.lint"), "us"),
        m(
            "analysis.lines_pruned",
            count("analysis.lines_pruned"),
            "count",
        ),
        m("service.health_rtt_us", us("service.health"), "us"),
        m("json.parse_us", us("json.parse"), "us"),
        m("json.serialize_us", us("json.serialize"), "us"),
        m("service.build_ms", direct("service.build_ms"), "ms"),
        m(
            "service.tier_memory",
            direct("service.tier_memory"),
            "count",
        ),
        m("service.tier_store", direct("service.tier_store"), "count"),
        m("service.tier_built", direct("service.tier_built"), "count"),
        m("cache.hit_rate", direct("cache.hit_rate"), "ratio"),
        m(
            "service.revise_solve_skipped",
            direct("service.revise_solve_skipped"),
            "count",
        ),
        m("queue.shed", direct("queue.shed"), "count"),
        m("store.load_us", us("store.load"), "us"),
        m("persist.decode_us", us("persist.decode"), "us"),
        m("service.hot_p50_ms", direct("service.hot_p50_ms"), "ms"),
        m("service.tail_p50_ms", direct("service.tail_p50_ms"), "ms"),
        m("service.fresh_p50_ms", direct("service.fresh_p50_ms"), "ms"),
        m(
            "service.revise_shift_p50_ms",
            direct("service.revise_shift_p50_ms"),
            "ms",
        ),
        m(
            "service.revise_semantic_p50_ms",
            direct("service.revise_semantic_p50_ms"),
            "ms",
        ),
    ]
}

/// Bit-blasting time: `encode_program` runs `word_trace`'s work and then
/// lowers the word DAG to CNF, so the lowering is the difference.
pub fn lower_us(encode_us: f64, word_trace_us: f64) -> f64 {
    encode_us - word_trace_us
}

/// Mean time per MAX-SAT rank of a `localize` call.
pub fn rank_us(localize_us: f64, maxsat_calls: f64) -> f64 {
    stats::ratio(localize_us, maxsat_calls)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Span;

    #[test]
    fn derived_layer_times() {
        assert_eq!(lower_us(900.0, 150.0), 750.0);
        assert_eq!(rank_us(24_000.0, 12.0), 2_000.0);
        assert_eq!(rank_us(5.0, 0.0), 0.0);
    }

    #[test]
    fn per_layer_reads_span_means_counts_and_derivations() {
        let span = |name, start_ns, end_ns| Span {
            name,
            start_ns,
            end_ns,
            parent: None,
        };
        let mut recording = Recording {
            spans: vec![
                span("bmc.word_trace", 0, 1_000),
                span("bmc.word_trace", 0, 3_000),
                span("bmc.encode", 0, 10_000),
                span("core.localize", 0, 40_000),
            ],
            ..Recording::default()
        };
        recording.counts.insert("core.maxsat_calls", vec![3.0, 5.0]);
        let extra = [Metric {
            name: "core.batch_speedup",
            value: 1.5,
            unit: "x",
        }];
        let metrics = per_layer(&recording, &extra);
        let get = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(get("bmc.word_trace_us"), 2.0);
        assert_eq!(get("bitblast.lower_us"), 8.0);
        assert_eq!(get("core.maxsat_calls"), 4.0);
        assert_eq!(get("core.rank_us"), 10.0);
        assert_eq!(get("core.batch_speedup"), 1.5);
        assert_eq!(get("queue.shed"), 0.0);
    }
}
