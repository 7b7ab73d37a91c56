//! Records baseline wall-clock numbers for `Localizer::localize` on the TCAS
//! suite — each MAX-SAT strategy alone vs. batched localization — and
//! writes them to `BENCH_localization.json` so future PRs have a
//! performance trajectory to compare against.
//!
//! Usage: `cargo run -p bench --bin localization_bench --release [output.json] [--samples N]`
//!
//! `--samples 1` is the CI quick mode: one timed run per benchmark, enough
//! to exercise the whole pipeline without dominating the workflow.

use bench::micro::BenchGroup;
use bench::workloads::{git_revision, hardware_threads, parse_output_and_samples, selector_chain};
use bmc::{EncodeConfig, Spec};
use bugassist::{Localizer, LocalizerConfig};
use maxsat::Strategy;
use siemens::{tcas_trusted_lines, tcas_versions, TCAS_ENTRY, TCAS_SOURCE};
use std::collections::BTreeMap;

const DEFAULT_SAMPLES: usize = 9;

fn encode_config() -> EncodeConfig {
    EncodeConfig {
        width: 16,
        unwind: 6,
        max_inline_depth: 8,
        ..EncodeConfig::default()
    }
}

fn localizer_config(strategy: Strategy) -> LocalizerConfig {
    LocalizerConfig {
        encode: encode_config(),
        strategy,
        max_suspect_sets: 4,
        trusted_lines: tcas_trusted_lines(),
        ..LocalizerConfig::default()
    }
}

/// Minimum wall-clock milliseconds over `SAMPLES` timed runs of `label`
/// through the shared [`BenchGroup`] harness. The minimum is the
/// noise-robust estimator here: scheduler interference only ever adds time,
/// and measurements on small shared machines are otherwise dominated by it.
fn time_ms<R>(group: &mut BenchGroup, label: &str, f: impl FnMut() -> R) -> f64 {
    group.bench(label, f).min.as_secs_f64() * 1e3
}

fn main() {
    let (output, samples) = parse_output_and_samples("BENCH_localization.json", DEFAULT_SAMPLES);
    let version = tcas_versions().into_iter().next().expect("v1 exists");
    let faulty = version.build(TCAS_SOURCE);
    let pool = siemens::tcas_test_vectors(300, 2011);
    let interp = siemens::tcas_interp_config();

    // Failing vectors, grouped by golden output (one Localizer spec each);
    // the batch benchmark needs >= 4 failing tests sharing a spec.
    let mut by_golden: BTreeMap<i64, Vec<Vec<i64>>> = BTreeMap::new();
    for input in &pool {
        let golden = siemens::tcas_golden_output(input);
        let outcome = bmc::run_program(&faulty, TCAS_ENTRY, input, &[], interp);
        if outcome.result != Some(golden) || !outcome.is_ok() {
            by_golden.entry(golden).or_default().push(input.clone());
        }
    }
    let (&golden, failing) = by_golden
        .iter()
        .max_by_key(|(_, v)| v.len())
        .expect("v1 has failing vectors");
    assert!(
        failing.len() >= 4,
        "need >= 4 failing tests with a shared golden output, got {}",
        failing.len()
    );
    let batch: Vec<Vec<i64>> = failing.iter().take(6).cloned().collect();
    let probe = &batch[0];
    let mut group = BenchGroup::new("localization_bench", samples);
    eprintln!(
        "TCAS v1: {} failing vectors with golden output {golden}; probing with {probe:?}",
        failing.len()
    );

    // --- formula-diet counters: encode size before/after the two stages ----
    // Printed in every mode (including CI's `--samples 1` quick mode) and
    // *asserted*: silently disabled gate folds or CNF simplifier fail the
    // build instead of quietly regressing the formula size.
    let spec = Spec::ReturnEquals(golden);
    let diet = {
        let config = localizer_config(Strategy::FuMalik);
        let localizer = Localizer::new(&faulty, TCAS_ENTRY, &spec, &config).expect("TCAS encodes");
        localizer.warm();
        let report = localizer.localize(probe).expect("localization succeeds");
        let stats = report.stats;
        let encode = localizer.trace().stats;
        assert!(
            encode.gates_folded > 0,
            "encoder reported no folded gates on TCAS"
        );
        assert!(
            stats.vars_eliminated > 0 && stats.hard_clauses < stats.hard_clauses_pre_simplify,
            "CNF simplifier reported no reduction on TCAS: {stats:?}"
        );
        let mut raw_config = localizer_config(Strategy::FuMalik);
        raw_config.simplify = false;
        let raw = Localizer::new(&faulty, TCAS_ENTRY, &spec, &raw_config).expect("TCAS encodes");
        raw.warm();
        let raw_report = raw.localize(probe).expect("localization succeeds");
        for (label, value) in [
            ("encode_gates_emitted", encode.gates_emitted),
            ("encode_gates_folded", encode.gates_folded),
            ("variables", stats.variables as u64),
            ("hard_clauses_raw", raw_report.stats.hard_clauses as u64),
            (
                "hard_clauses_pre_simplify",
                stats.hard_clauses_pre_simplify as u64,
            ),
            ("hard_clauses_simplified", stats.hard_clauses as u64),
            ("clauses_subsumed", stats.clauses_subsumed),
            ("vars_eliminated", stats.vars_eliminated),
            ("simplify_ms", stats.simplify_ms as u64),
        ] {
            group.counter(label, value);
        }
        format!(
            "  \"formula_diet\": {{\n    \"encode_gates_emitted\": {},\n    \"encode_gates_folded\": {},\n    \"variables\": {},\n    \"hard_clauses_raw\": {},\n    \"hard_clauses_pre_simplify\": {},\n    \"hard_clauses_simplified\": {},\n    \"clauses_subsumed\": {},\n    \"vars_eliminated\": {},\n    \"simplify_ms\": {},\n    \"hard_clause_reduction\": {:.3}\n  }},",
            encode.gates_emitted,
            encode.gates_folded,
            stats.variables,
            raw_report.stats.hard_clauses,
            stats.hard_clauses_pre_simplify,
            stats.hard_clauses,
            stats.clauses_subsumed,
            stats.vars_eliminated,
            stats.simplify_ms,
            1.0 - stats.hard_clauses as f64 / raw_report.stats.hard_clauses as f64,
        )
    };

    // --- word-level pre-bit-blast passes: gate count before any CNF --------
    // Encode TCAS with the word-level passes on (default) and off, and
    // *assert* a reduction in gates emitted before CNF: a silently disabled
    // word layer fails the build instead of quietly fattening the formula.
    let word = {
        let on = bmc::encode_program(&faulty, TCAS_ENTRY, &spec, &encode_config())
            .expect("TCAS encodes");
        let mut off_config = encode_config();
        off_config.word_passes = false;
        let off =
            bmc::encode_program(&faulty, TCAS_ENTRY, &spec, &off_config).expect("TCAS encodes");
        assert!(
            on.stats.gates_emitted < off.stats.gates_emitted,
            "word-level passes reported no pre-bit-blast reduction on TCAS: \
             {} gates with passes on vs {} off",
            on.stats.gates_emitted,
            off.stats.gates_emitted
        );
        assert!(
            on.stats.word_nodes_folded > 0 && on.stats.word_cse_hits > 0,
            "word-level counters are dead on TCAS: {:?}",
            on.stats
        );
        let reduction = 1.0 - on.stats.gates_emitted as f64 / off.stats.gates_emitted as f64;
        for (label, value) in [
            ("word_nodes", on.stats.word_nodes),
            ("word_nodes_folded", on.stats.word_nodes_folded),
            ("word_cse_hits", on.stats.word_cse_hits),
            ("bits_narrowed", on.stats.bits_narrowed),
            ("gates_emitted_word_on", on.stats.gates_emitted),
            ("gates_emitted_word_off", off.stats.gates_emitted),
        ] {
            group.counter(label, value);
        }
        format!(
            "  \"word_level\": {{\n    \"word_nodes\": {},\n    \"word_nodes_folded\": {},\n    \"word_cse_hits\": {},\n    \"bits_narrowed\": {},\n    \"gates_emitted_on\": {},\n    \"gates_emitted_off\": {},\n    \"clauses_on\": {},\n    \"clauses_off\": {},\n    \"gate_reduction\": {reduction:.3}\n  }},",
            on.stats.word_nodes,
            on.stats.word_nodes_folded,
            on.stats.word_cse_hits,
            on.stats.bits_narrowed,
            on.stats.gates_emitted,
            off.stats.gates_emitted,
            on.stats.clauses,
            off.stats.clauses,
        )
    };

    // --- static relevance prune: soft clauses before/after hardening -------
    // Runs in every mode (including CI's `--samples 1` quick mode) and
    // *asserted*: the prune must harden at least one TCAS selector, and the
    // instance-size arithmetic must balance exactly — a silently disabled
    // (or unsound) prune fails the build.
    let prune = {
        let on_config = localizer_config(Strategy::FuMalik);
        let mut off_config = localizer_config(Strategy::FuMalik);
        off_config.static_prune = false;
        let on = Localizer::new(&faulty, TCAS_ENTRY, &spec, &on_config).expect("TCAS encodes");
        let off = Localizer::new(&faulty, TCAS_ENTRY, &spec, &off_config).expect("TCAS encodes");
        let on_report = on.localize(probe).expect("localization succeeds");
        let off_report = off.localize(probe).expect("localization succeeds");
        assert!(
            on_report.stats.lines_pruned > 0,
            "static prune hardened no TCAS selectors: {:?}",
            on_report.stats
        );
        assert_eq!(
            on_report.stats.soft_clauses + on_report.stats.lines_pruned as usize,
            off_report.stats.soft_clauses,
            "prune arithmetic does not balance on TCAS"
        );
        assert_eq!(
            (&on_report.suspects, &on_report.suspect_lines),
            (&off_report.suspects, &off_report.suspect_lines),
            "pruning changed the TCAS report"
        );
        for (label, value) in [
            ("lines_pruned", on_report.stats.lines_pruned),
            ("soft_clauses_pruned", on_report.stats.soft_clauses as u64),
            (
                "soft_clauses_unpruned",
                off_report.stats.soft_clauses as u64,
            ),
            ("prune_ms", on_report.stats.prune_ms as u64),
        ] {
            group.counter(label, value);
        }
        format!(
            "  \"static_prune\": {{\n    \"lines_pruned\": {},\n    \"soft_clauses_pruned\": {},\n    \"soft_clauses_unpruned\": {},\n    \"soft_reduction\": {:.3},\n    \"prune_ms\": {},\n    \"lint_warnings\": {}\n  }},",
            on_report.stats.lines_pruned,
            on_report.stats.soft_clauses,
            off_report.stats.soft_clauses,
            1.0 - on_report.stats.soft_clauses as f64 / off_report.stats.soft_clauses as f64,
            on_report.stats.prune_ms,
            on_report.stats.lint_warnings,
        )
    };

    // --- single-extraction comparison: each strategy alone -----------------
    let mut strategy_ms: Vec<(String, f64)> = Vec::new();
    for (label, strategy) in [
        ("fu_malik", Strategy::FuMalik),
        ("linear_sat_unsat", Strategy::LinearSatUnsat),
    ] {
        let config = localizer_config(strategy);
        let localizer = Localizer::new(&faulty, TCAS_ENTRY, &spec, &config).expect("TCAS encodes");
        let ms = time_ms(&mut group, &format!("localize_{label}"), || {
            let report = localizer.localize(probe).expect("localization succeeds");
            assert!(!report.suspect_lines.is_empty());
        });
        strategy_ms.push((label.to_string(), ms));
    }

    // Underlying SAT-solver work counters for one FuMalik run on a chain
    // instance shaped like a BugAssist encoding: how many incremental calls,
    // conflicts, learnt-database reductions and arena bytes the MAX-SAT loop
    // costs.
    let chain = selector_chain(120);
    let mut fm = maxsat::MaxSatSolver::new(Strategy::FuMalik);
    let _ = fm.solve(&chain);
    let fm_stats = fm.stats();
    group.counter("fu_malik_chain120_sat_calls", fm_stats.sat_calls);
    group.counter("fu_malik_chain120_conflicts", fm_stats.conflicts);
    group.counter("fu_malik_chain120_reduce_dbs", fm_stats.reduce_dbs);
    group.counter(
        "fu_malik_chain120_removed_learnts",
        fm_stats.removed_learnts,
    );
    group.counter("fu_malik_chain120_arena_bytes", fm_stats.arena_bytes);

    // --- batched vs sequential over the shared-spec failing tests ----------
    let config = localizer_config(Strategy::FuMalik);
    let localizer = Localizer::new(&faulty, TCAS_ENTRY, &spec, &config).expect("TCAS encodes");
    let sequential_ms = time_ms(&mut group, "sequential_loop_of_6", || {
        for input in &batch {
            let report = localizer.localize(input).expect("localization succeeds");
            assert!(!report.suspect_lines.is_empty());
        }
    });
    let batched_ms = time_ms(&mut group, "localize_batch_of_6", || {
        let ranked = localizer.localize_batch(&batch).expect("batch succeeds");
        assert_eq!(ranked.per_test.len(), batch.len());
    });

    let hardware_threads = hardware_threads();
    let git_revision = git_revision();
    let strategy_json: Vec<String> = strategy_ms
        .iter()
        .map(|(label, ms)| format!("    \"{label}_ms\": {ms:.3}"))
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"tcas_v1_localization\",\n  \"pool\": {{\"size\": 300, \"seed\": 2011}},\n  \"encode\": {{\"width\": 16, \"unwind\": 6}},\n  \"max_suspect_sets\": 4,\n  \"samples_per_measurement\": {samples},\n  \"hardware_threads\": {hardware_threads},\n  \"git_revision\": \"{git_revision}\",\n{diet}\n{word}\n{prune}\n  \"single_extraction\": {{\n{}\n  }},\n  \"fu_malik_chain120_solver\": {{\n    \"sat_calls\": {},\n    \"conflicts\": {},\n    \"reduce_dbs\": {},\n    \"removed_learnts\": {},\n    \"arena_bytes\": {}\n  }},\n  \"batch\": {{\n    \"failing_tests\": {},\n    \"sequential_loop_ms\": {sequential_ms:.3},\n    \"localize_batch_ms\": {batched_ms:.3},\n    \"speedup\": {:.3}\n  }}\n}}\n",
        strategy_json.join(",\n"),
        fm_stats.sat_calls,
        fm_stats.conflicts,
        fm_stats.reduce_dbs,
        fm_stats.removed_learnts,
        fm_stats.arena_bytes,
        batch.len(),
        sequential_ms / batched_ms,
    );
    std::fs::write(&output, &json).expect("write benchmark json");
    eprintln!("wrote {output}");
    println!("{json}");
}
