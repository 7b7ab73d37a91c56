//! Micro-benchmarks for the solver substrates (SAT, MAX-SAT, bit-blasting)
//! — the engineering the paper's scalability rests on. Run with
//! `cargo bench -p bench --bench solver_benches`.

use bench::micro::BenchGroup;
use bench::workloads::{pigeonhole, selector_chain};
use maxsat::{solve, Strategy};
use sat::{SatResult, Solver};

fn bench_sat() {
    let mut group = BenchGroup::new("sat", 20);
    group.bench("pigeonhole_7_into_6_unsat", || {
        let mut solver = pigeonhole(7, 6);
        assert_eq!(solver.solve(), SatResult::Unsat);
    });
    group.bench("pigeonhole_8_into_8_sat", || {
        let mut solver = pigeonhole(8, 8);
        assert_eq!(solver.solve(), SatResult::Sat);
    });
    // Same analyze-heavy workload with the learnt database forced through
    // aggressive reduce/GC cycles: measures the reduction machinery itself.
    group.bench("pigeonhole_7_into_6_forced_reduction", || {
        let mut solver = pigeonhole(7, 6);
        solver.set_reduce_base(Some(16));
        assert_eq!(solver.solve(), SatResult::Unsat);
    });
    let mut solver = pigeonhole(7, 6);
    let _ = solver.solve();
    let stats = solver.stats();
    group.counter("pigeonhole_7_into_6_conflicts", stats.conflicts);
    group.counter("pigeonhole_7_into_6_reduce_dbs", stats.reduce_dbs);
    group.counter("pigeonhole_7_into_6_removed_learnts", stats.removed_learnts);
    group.counter("pigeonhole_7_into_6_arena_bytes", stats.arena_bytes);
}

fn bench_maxsat() {
    let mut group = BenchGroup::new("maxsat_strategies", 20);
    for strategy in [Strategy::FuMalik, Strategy::LinearSatUnsat] {
        let inst = selector_chain(60);
        group.bench(&format!("{strategy:?}_chain_60"), || {
            let solution = solve(&inst, strategy).into_optimum().expect("satisfiable");
            assert_eq!(solution.cost, 1);
        });
    }
}

fn bench_bitblast() {
    let mut group = BenchGroup::new("bitblast", 20);
    group.bench("encode_and_solve_16bit_factorization", || {
        let mut enc = bitblast::Encoder::new(16);
        let x = enc.fresh_bv();
        let y = enc.fresh_bv();
        let product = enc.bv_mul(&x, &y);
        let target = enc.const_bv(221);
        let three = enc.const_bv(3);
        let eq = enc.bv_eq(&product, &target);
        let x_big = enc.bv_sgt(&x, &three);
        let y_big = enc.bv_sgt(&y, &three);
        enc.assert_true(eq);
        enc.assert_true(x_big);
        enc.assert_true(y_big);
        let mut solver = Solver::from_formula(enc.cnf().formula());
        assert_eq!(solver.solve(), SatResult::Sat);
    });
}

fn main() {
    bench_sat();
    bench_maxsat();
    bench_bitblast();
}
