//! Solver-level micro-benchmarks for the CDCL hot paths (propagation,
//! conflict analysis, learnt-clause accumulation) and writes the numbers to
//! `BENCH_solver.json` so the arena/reduction work has a recorded
//! before/after trajectory.
//!
//! Usage: `cargo run -p bench --bin solver_bench --release [output.json] [--samples N]`

use bench::micro::BenchGroup;
use bench::workloads::{
    git_revision, hardware_threads, parse_output_and_samples, pigeonhole, random_3sat_batch,
    selector_chain,
};
use sat::{Lit, SatResult, Solver, Var};

const DEFAULT_SAMPLES: usize = 15;

fn time_ms<R>(group: &mut BenchGroup, label: &str, f: impl FnMut() -> R) -> f64 {
    group.bench(label, f).min.as_secs_f64() * 1e3
}

fn main() {
    let (output, samples) = parse_output_and_samples("BENCH_solver.json", DEFAULT_SAMPLES);
    let mut group = BenchGroup::new("solver_bench", samples);
    let mut results: Vec<(String, f64)> = Vec::new();

    let ms = time_ms(&mut group, "pigeonhole_7_into_6_unsat", || {
        let mut solver = pigeonhole(7, 6);
        assert_eq!(solver.solve(), SatResult::Unsat);
    });
    results.push(("pigeonhole_7_into_6_unsat_ms".into(), ms));

    let batch = random_3sat_batch(20, 40, 0x5EED);
    let ms = time_ms(&mut group, "random3sat_40v_x20", || {
        let mut sat_count = 0usize;
        for cnf in &batch {
            let mut solver = Solver::from_formula(cnf);
            if solver.solve() == SatResult::Sat {
                sat_count += 1;
            }
        }
        assert!(sat_count > 0);
    });
    results.push(("random3sat_40v_x20_ms".into(), ms));

    // FuMalik on the chain mirrors the localization inner loop: many
    // incremental SAT calls on one growing solver.
    let chain = selector_chain(150);
    let ms = time_ms(&mut group, "fu_malik_chain_150", || {
        let solution = maxsat::solve(&chain, maxsat::Strategy::FuMalik)
            .into_optimum()
            .expect("satisfiable");
        assert_eq!(solution.cost, 1);
    });
    results.push(("fu_malik_chain_150_ms".into(), ms));

    // One instrumented (untimed) pass per workload surfaces the solver's
    // work counters — propagations, conflicts, database reductions, arena
    // footprint — so the perf numbers are explainable.
    let mut counters: Vec<(String, u64)> = Vec::new();
    {
        let mut total = sat::SolverStats::default();
        for cnf in &batch {
            let mut solver = Solver::from_formula(cnf);
            let _ = solver.solve();
            let stats = solver.stats();
            total.propagations += stats.propagations;
            total.conflicts += stats.conflicts;
            total.reduce_dbs += stats.reduce_dbs;
            total.removed_learnts += stats.removed_learnts;
            total.arena_bytes += stats.arena_bytes;
        }
        for (label, value) in [
            ("random3sat_propagations", total.propagations),
            ("random3sat_conflicts", total.conflicts),
            ("random3sat_reduce_dbs", total.reduce_dbs),
            ("random3sat_removed_learnts", total.removed_learnts),
            ("random3sat_arena_bytes", total.arena_bytes),
        ] {
            group.counter(label, value);
            counters.push((label.to_string(), value));
        }
    }
    {
        let mut solver = maxsat::MaxSatSolver::new(maxsat::Strategy::FuMalik);
        let _ = solver.solve(&chain);
        let stats = solver.stats();
        for (label, value) in [
            ("fu_malik_chain_sat_calls", stats.sat_calls),
            ("fu_malik_chain_conflicts", stats.conflicts),
            ("fu_malik_chain_reduce_dbs", stats.reduce_dbs),
            ("fu_malik_chain_removed_learnts", stats.removed_learnts),
            ("fu_malik_chain_arena_bytes", stats.arena_bytes),
        ] {
            group.counter(label, value);
            counters.push((label.to_string(), value));
        }
    }

    // Encode-size counters for the formula diet, measured on a bit-blast of
    // the TCAS resolution logic: gates folded, and the vars/clauses of the
    // encode before and after simplification. Printed in quick mode too, so
    // CI logs always show the current formula sizes.
    {
        let program = siemens::tcas_program();
        let encode = bmc::EncodeConfig {
            width: 16,
            unwind: 6,
            max_inline_depth: 8,
            ..bmc::EncodeConfig::default()
        };
        let spec = bmc::Spec::Assertions;
        let encoded = bmc::encode_program(&program, siemens::TCAS_ENTRY, &spec, &encode)
            .expect("TCAS encodes");
        let mut frozen: Vec<sat::Var> = vec![encoded.property.var()];
        for (_, bv) in &encoded.inputs {
            frozen.extend(bv.bits().iter().map(|b| b.var()));
        }
        let simplified = sat::simplify(
            encoded.cnf.formula(),
            &frozen,
            &sat::SimplifyConfig::default(),
        );
        assert!(
            encoded.stats.gates_folded > 0 && simplified.stats.vars_eliminated > 0,
            "formula diet inactive on the TCAS encode"
        );
        for (label, value) in [
            ("tcas_encode_vars", encoded.stats.variables as u64),
            ("tcas_encode_clauses", encoded.stats.clauses as u64),
            (
                "tcas_encode_clauses_simplified",
                simplified.stats.clauses_after as u64,
            ),
            ("tcas_encode_gates_folded", encoded.stats.gates_folded),
            (
                "tcas_simplify_vars_eliminated",
                simplified.stats.vars_eliminated,
            ),
            (
                "tcas_simplify_clauses_subsumed",
                simplified.stats.clauses_subsumed,
            ),
        ] {
            group.counter(label, value);
            counters.push((label.to_string(), value));
        }
    }

    let ms = time_ms(&mut group, "incremental_assumption_sweep", || {
        // One persistent solver, 60 selector-guarded implications, solved
        // under rotating assumption sets: the FuMalik call pattern.
        let mut solver = Solver::new();
        let vals: Vec<Var> = (0..61).map(|_| solver.new_var()).collect();
        let sels: Vec<Var> = (0..60).map(|_| solver.new_var()).collect();
        solver.add_clause([vals[0].positive()]);
        solver.add_clause([vals[60].negative()]);
        for i in 0..60 {
            solver.add_clause([
                sels[i].negative(),
                vals[i].negative(),
                vals[i + 1].positive(),
            ]);
        }
        let all: Vec<Lit> = sels.iter().map(|s| s.positive()).collect();
        assert_eq!(solver.solve_assuming(&all), SatResult::Unsat);
        for drop in 0..60 {
            let assumptions: Vec<Lit> = sels
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != drop)
                .map(|(_, s)| s.positive())
                .collect();
            assert_eq!(solver.solve_assuming(&assumptions), SatResult::Sat);
        }
    });
    results.push(("incremental_assumption_sweep_ms".into(), ms));

    let body: Vec<String> = results
        .iter()
        .map(|(k, v)| format!("    \"{k}\": {v:.3}"))
        .collect();
    let counter_body: Vec<String> = counters
        .iter()
        .map(|(k, v)| format!("    \"{k}\": {v}"))
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"solver_micro\",\n  \"samples_per_measurement\": {samples},\n  \"hardware_threads\": {},\n  \"git_revision\": \"{}\",\n  \"current\": {{\n{}\n  }},\n  \"solver_counters\": {{\n{}\n  }}\n}}\n",
        hardware_threads(),
        git_revision(),
        body.join(",\n"),
        counter_body.join(",\n")
    );
    std::fs::write(&output, &json).expect("write benchmark json");
    eprintln!("wrote {output}");
    println!("{json}");
}
