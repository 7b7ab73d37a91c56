//! Randomized tests cross-checking the CDCL solver against the brute-force
//! reference oracle on random small instances (seeded, so every run and every
//! platform sees the same instances).

use prng::SplitMix64;
use sat::reference::brute_force_satisfiable;
use sat::{CnfFormula, Lit, SatResult, Solver, Var};

/// Generates a random CNF over `num_vars` variables with up to `max_clauses`
/// clauses of 1–3 literals.
fn random_cnf(rng: &mut SplitMix64, num_vars: usize, max_clauses: usize) -> CnfFormula {
    let mut cnf = CnfFormula::with_vars(num_vars);
    for _ in 0..rng.gen_range(0..=max_clauses) {
        let len = rng.gen_range(1usize..=3);
        let lits: Vec<Lit> = (0..len)
            .map(|_| Var::from_index(rng.gen_range(0..num_vars)).lit(rng.gen_bool(0.5)))
            .collect();
        cnf.add_clause(lits);
    }
    cnf
}

#[test]
fn cdcl_agrees_with_brute_force() {
    let mut rng = SplitMix64::seed_from_u64(0xC0FFEE);
    for case in 0..128 {
        let cnf = random_cnf(&mut rng, 8, 30);
        let mut solver = Solver::from_formula(&cnf);
        let result = solver.solve();
        let reference = brute_force_satisfiable(&cnf);
        match result {
            SatResult::Sat => {
                assert!(
                    reference.is_some(),
                    "case {case}: CDCL SAT but reference UNSAT"
                );
                assert!(
                    cnf.eval(&solver.model()),
                    "case {case}: model does not satisfy formula"
                );
            }
            SatResult::Unsat => {
                assert!(
                    reference.is_none(),
                    "case {case}: CDCL UNSAT but reference SAT"
                );
            }
        }
    }
}

#[test]
fn assumption_core_is_sound() {
    let mut rng = SplitMix64::seed_from_u64(0xBEEF);
    for case in 0..128 {
        let cnf = random_cnf(&mut rng, 7, 20);
        // Assume the first three variables with random polarities; if UNSAT,
        // the reported core must itself be inconsistent with the formula.
        let assumptions: Vec<Lit> = (0..3)
            .map(|i| Var::from_index(i).lit(rng.gen_bool(0.5)))
            .collect();
        let mut solver = Solver::from_formula(&cnf);
        solver.ensure_vars(7);
        if solver.solve_assuming(&assumptions) == SatResult::Unsat {
            let core = solver.unsat_core().to_vec();
            assert!(
                core.iter().all(|l| assumptions.contains(l)),
                "case {case}: core {core:?} not a subset of assumptions {assumptions:?}"
            );
            // Adding the core literals as units must make the formula UNSAT.
            let mut check = cnf.clone();
            for lit in &core {
                check.add_unit(*lit);
            }
            assert!(
                brute_force_satisfiable(&check).is_none(),
                "case {case}: core is not actually conflicting"
            );
        }
    }
}

#[test]
fn incremental_solving_is_consistent() {
    let mut rng = SplitMix64::seed_from_u64(0xABCD);
    for case in 0..128 {
        let cnf = random_cnf(&mut rng, 6, 15);
        // Solving twice, or solving after a failed assumption call, must give
        // the same satisfiability answer as a fresh solver.
        let mut fresh = Solver::from_formula(&cnf);
        let expected = fresh.solve();

        let mut solver = Solver::from_formula(&cnf);
        solver.ensure_vars(6);
        let _ = solver.solve_assuming(&[Var::from_index(0).positive()]);
        let _ = solver.solve_assuming(&[Var::from_index(0).negative()]);
        assert_eq!(solver.solve(), expected, "case {case}");
    }
}

/// A random literal over the first `num_vars` variables.
fn random_lit(rng: &mut SplitMix64, num_vars: usize) -> Lit {
    Var::from_index(rng.gen_range(0..num_vars)).lit(rng.gen_bool(0.5))
}

/// Checks one `solve_assuming` answer against brute force on `cnf` plus the
/// assumptions as units: the verdict agrees, a model satisfies the formula
/// and every assumption, and a core is a subset of the assumptions that is
/// unsatisfiable on its own.
fn check_answer(
    solver: &Solver,
    cnf: &CnfFormula,
    assumptions: &[Lit],
    result: SatResult,
    at: &str,
) {
    let mut constrained = cnf.clone();
    for &lit in assumptions {
        constrained.add_unit(lit);
    }
    let reference = brute_force_satisfiable(&constrained);
    match result {
        SatResult::Sat => {
            assert!(reference.is_some(), "{at}: SAT but brute force UNSAT");
            let model = solver.model();
            assert!(
                constrained.eval(&model),
                "{at}: model violates formula or assumptions"
            );
        }
        SatResult::Unsat => {
            assert!(reference.is_none(), "{at}: UNSAT but brute force SAT");
            let core = solver.unsat_core().to_vec();
            assert!(
                core.iter().all(|l| assumptions.contains(l)),
                "{at}: core {core:?} not within {assumptions:?}"
            );
            let mut check = cnf.clone();
            for &lit in &core {
                check.add_unit(lit);
            }
            assert!(
                brute_force_satisfiable(&check).is_none(),
                "{at}: core {core:?} is satisfiable"
            );
        }
    }
}

/// Sequences of calls on one solver whose assumption lists share, extend,
/// shorten and change the previous call's prefix, with clauses and
/// variables added between calls: every answer must match brute force.
///
/// With `padding > 0` the initial formula's seven variables are scattered
/// over `7 + padding` indices, so `padding` variables start in no clause.
/// Assumptions and later clauses draw from every index, so a padded
/// variable may be assumed, or first mentioned after a solve. In every
/// model, a variable that no clause and no assumption mentions is `false`.
fn incremental_sweep(seed: u64, cases: usize, padding: usize) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    for case in 0..cases {
        let mut cnf = random_cnf(&mut rng, 7, 18);
        if padding > 0 {
            cnf = scatter(&cnf, 7 + padding, &mut rng);
        }
        let mut solver = Solver::from_formula(&cnf);
        solver.ensure_vars(cnf.num_vars());
        let mut assumptions: Vec<Lit> = Vec::new();
        for step in 0..24 {
            let num_vars = cnf.num_vars();
            match rng.gen_range(0u32..8) {
                // Same assumptions as last call.
                0 => {}
                // Extend the prefix.
                1 | 2 => {
                    for _ in 0..rng.gen_range(1usize..=3) {
                        assumptions.push(random_lit(&mut rng, num_vars));
                    }
                }
                // Shorten it.
                3 => {
                    let keep = rng.gen_range(0..=assumptions.len());
                    assumptions.truncate(keep);
                }
                // Change one position, keeping what precedes it.
                4 if !assumptions.is_empty() => {
                    let at = rng.gen_range(0..assumptions.len());
                    assumptions[at] = random_lit(&mut rng, num_vars);
                }
                // A clause added between calls.
                5 => {
                    let len = rng.gen_range(1usize..=3);
                    let lits: Vec<Lit> = (0..len).map(|_| random_lit(&mut rng, num_vars)).collect();
                    solver.add_clause(lits.iter().copied());
                    cnf.add_clause(lits);
                }
                // A fresh variable, sometimes tied to the formula at once.
                6 if num_vars < 10 => {
                    let fresh = solver.new_var();
                    assert_eq!(cnf.new_var(), fresh);
                    if rng.gen_bool(0.5) {
                        let lits =
                            vec![fresh.lit(rng.gen_bool(0.5)), random_lit(&mut rng, num_vars)];
                        solver.add_clause(lits.iter().copied());
                        cnf.add_clause(lits);
                    }
                }
                _ => {
                    assumptions = (0..rng.gen_range(0usize..=4))
                        .map(|_| random_lit(&mut rng, num_vars))
                        .collect()
                }
            }
            let result = solver.solve_assuming(&assumptions);
            let at = format!("case {case}, step {step}");
            check_answer(&solver, &cnf, &assumptions, result, &at);
            if result == SatResult::Sat {
                let model = solver.model();
                let mut mentioned = vec![false; cnf.num_vars()];
                for lit in cnf.iter().flat_map(|c| c.iter()).chain(&assumptions) {
                    mentioned[lit.var().index()] = true;
                }
                for (v, _) in mentioned.iter().enumerate().filter(|(_, &m)| !m) {
                    assert!(!model[v], "{at}: x{v} is in no clause yet reads true");
                }
            }
        }
    }
}

/// `cnf` with its variables moved to distinct random indices below `total`.
fn scatter(cnf: &CnfFormula, total: usize, rng: &mut SplitMix64) -> CnfFormula {
    let mut slots: Vec<usize> = (0..total).collect();
    for i in (1..total).rev() {
        slots.swap(i, rng.gen_range(0..=i));
    }
    let mut scattered = CnfFormula::with_vars(total);
    for clause in cnf.iter() {
        scattered.add_clause(
            clause
                .iter()
                .map(|l| Var::from_index(slots[l.var().index()]).lit(l.is_positive())),
        );
    }
    scattered
}

#[test]
fn incremental_calls_match_brute_force() {
    incremental_sweep(0x5EC5, 96, 0);
}

/// The incremental sweep with variables that no clause mentions: the solver
/// never decides them, yet answers, models and cores must not change.
#[test]
fn incremental_calls_with_padded_variables_match_brute_force() {
    incremental_sweep(0x9AD5, 96, 3);
}

/// The padded sweep over twenty times as many cases; run with
/// `cargo test --release -p sat -- --ignored`.
#[test]
#[ignore]
fn incremental_calls_with_padded_variables_match_brute_force_long() {
    incremental_sweep(0x9AD5, 20 * 96, 3);
}

/// With ordered decisions the model is the lexicographically best one over
/// the `decide_first` literals (true before false, earlier literals first)
/// among the models of the formula and the assumptions.
#[test]
fn ordered_decisions_give_the_lexicographic_optimum() {
    let mut rng = SplitMix64::seed_from_u64(0x0D0E);
    for case in 0..128 {
        let cnf = random_cnf(&mut rng, 8, 24);
        let assumptions: Vec<Lit> = (0..rng.gen_range(0usize..=2))
            .map(|_| random_lit(&mut rng, 8))
            .collect();
        let decide_first: Vec<Lit> = (0..rng.gen_range(1usize..=6))
            .map(|_| random_lit(&mut rng, 8))
            .collect();
        let mut solver = Solver::from_formula(&cnf);
        let result = solver.solve_assuming_budgeted(&assumptions, &decide_first, None, None);
        let mut constrained = cnf.clone();
        for &lit in &assumptions {
            constrained.add_unit(lit);
        }
        let value = |model: &[bool], lit: Lit| model[lit.var().index()] == lit.is_positive();
        let best = sat::reference::enumerate_models(&constrained)
            .into_iter()
            .map(|m| {
                decide_first
                    .iter()
                    .map(|&l| value(&m, l))
                    .collect::<Vec<bool>>()
            })
            .max();
        match result.expect("unbudgeted") {
            SatResult::Sat => {
                let model = solver.model();
                assert!(constrained.eval(&model), "case {case}: bad model");
                let got: Vec<bool> = decide_first.iter().map(|&l| value(&model, l)).collect();
                assert_eq!(Some(got), best, "case {case}: {decide_first:?}");
            }
            SatResult::Unsat => assert_eq!(best, None, "case {case}: UNSAT but models exist"),
        }
    }
}
