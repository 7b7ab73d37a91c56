//! The greedy canonical refinement, kept as the test oracle of the one-call
//! refinement in [`MaxSatSolver::canonicalize`].
//!
//! The greedy walks the soft clauses in [`SoftId`] order on the warm solver
//! and pins each one satisfied when it can be: for free when the current
//! witness model already satisfies it, otherwise by one SAT call under the
//! final assumptions plus the pins so far. A SAT answer installs a better
//! witness; an UNSAT answer proves the soft falsified in every model that
//! agrees on the pinned prefix. It reaches the same lexicographic optimum
//! as the one-call refinement, with up to one SAT call per soft clause.

use super::{pin, truncate_model, Budget, Lit, MaxSatInstance, MaxSatSolver, SatResult, Solver};

/// The greedy walk under `base_assumptions`, starting from a witness found
/// by one SAT call. Returns `None` only when the budget runs out.
pub(super) fn canonicalize(
    maxsat: &mut MaxSatSolver,
    solver: &mut Solver,
    instance: &MaxSatInstance,
    base_assumptions: &[Lit],
    budget: Budget,
) -> Option<Vec<bool>> {
    maxsat.stats.sat_calls += 1;
    let first = maxsat.sat_call(solver, base_assumptions, &[], budget)?;
    assert!(first.is_sat(), "the optimum's assumptions have a model");
    let mut witness = truncate_model(solver, instance.num_vars());
    let mut assumptions = base_assumptions.to_vec();
    for soft in instance.soft_clauses() {
        if soft.clause.is_empty() {
            continue; // Unconditionally falsified; nothing to pin.
        }
        assumptions.push(pin(solver, &soft.clause));
        if soft.clause.eval(&witness) {
            continue;
        }
        maxsat.stats.sat_calls += 1;
        match maxsat.sat_call(solver, &assumptions, &[], budget)? {
            SatResult::Sat => witness = truncate_model(solver, instance.num_vars()),
            SatResult::Unsat => {
                // Falsified in every model consistent with the prefix; the
                // witness already falsifies it, so it stays a model of the
                // remaining assumptions.
                assumptions.pop();
            }
        }
    }
    Some(witness)
}

#[cfg(test)]
mod tests {
    use crate::{Budget, MaxSatInstance, MaxSatResult, MaxSatSolver, Strategy};
    use prng::SplitMix64;
    use sat::{Lit, Var};

    /// `(cost, falsified ids)` of a solve with the one-call
    /// refinement and of the same solve with the greedy oracle.
    fn both_refinements(
        instance: &MaxSatInstance,
        strategy: Strategy,
        budget: Budget,
    ) -> [Option<(u64, Vec<usize>)>; 2] {
        [false, true].map(|greedy| {
            let mut solver = MaxSatSolver::new(strategy);
            solver.greedy_oracle = greedy;
            solver.set_budget(budget);
            let result: MaxSatResult = solver.solve(instance);
            result.into_solution().map(|(sol, _)| {
                let ids = sol.falsified.iter().map(|id| id.index()).collect();
                (sol.cost, ids)
            })
        })
    }

    fn random_clause(rng: &mut SplitMix64, num_vars: usize) -> Vec<Lit> {
        (0..rng.gen_range(1usize..=3))
            .map(|_| Var::from_index(rng.gen_range(0..num_vars)).lit(rng.gen_bool(0.5)))
            .collect()
    }

    #[test]
    fn one_call_refinement_matches_the_greedy_on_random_instances() {
        let mut rng = SplitMix64::seed_from_u64(0x6EED);
        for case in 0..160 {
            let num_vars = rng.gen_range(4usize..=9);
            let mut inst = MaxSatInstance::new();
            inst.ensure_vars(num_vars);
            for _ in 0..rng.gen_range(0usize..=6) {
                inst.add_hard(random_clause(&mut rng, num_vars));
            }
            for _ in 0..rng.gen_range(1usize..=10) {
                let weight = rng.gen_range(1u64..=5);
                inst.add_soft(random_clause(&mut rng, num_vars), weight);
            }
            for strategy in [Strategy::FuMalik, Strategy::LinearSatUnsat] {
                let [one_call, greedy] = both_refinements(&inst, strategy, Budget::UNLIMITED);
                assert_eq!(one_call, greedy, "case {case}, {strategy:?}: {inst:?}");
            }
        }
    }

    /// Linear search cut short by a conflict cap refines its incumbent under
    /// the totalizer bound at the incumbent's cost: the anytime path. Weighted
    /// pigeonhole instances (one pigeon too many) with extra random soft
    /// units take enough conflicts for small caps to cut them at different
    /// points.
    #[test]
    fn one_call_refinement_matches_the_greedy_on_the_anytime_path() {
        let mut rng = SplitMix64::seed_from_u64(0xA171);
        let mut anytime = 0;
        for case in 0..12 {
            let pigeons = rng.gen_range(5usize..=6);
            let holes = pigeons - 1;
            let at = |p: usize, h: usize| Var::from_index(p * holes + h).positive();
            let mut inst = MaxSatInstance::new();
            inst.ensure_vars(pigeons * holes);
            for h in 0..holes {
                for p in 0..pigeons {
                    for q in p + 1..pigeons {
                        inst.add_hard(vec![!at(p, h), !at(q, h)]);
                    }
                }
            }
            for p in 0..pigeons {
                let weight = rng.gen_range(1u64..=4);
                inst.add_soft((0..holes).map(|h| at(p, h)).collect::<Vec<_>>(), weight);
            }
            for _ in 0..rng.gen_range(0usize..=4) {
                let lit = at(rng.gen_range(0..pigeons), rng.gen_range(0..holes));
                inst.add_soft(vec![!lit], 1);
            }
            for cap in [0, 2, 8, 32, 128] {
                let budget = Budget {
                    deadline: None,
                    conflict_cap: Some(cap),
                };
                let mut probe = MaxSatSolver::new(Strategy::LinearSatUnsat);
                probe.set_budget(budget);
                if matches!(probe.solve(&inst), MaxSatResult::Anytime(_)) {
                    anytime += 1;
                }
                let [one_call, greedy] = both_refinements(&inst, Strategy::LinearSatUnsat, budget);
                assert_eq!(one_call, greedy, "case {case}, cap {cap}: {inst:?}");
            }
        }
        assert!(anytime >= 20, "only {anytime} runs took the anytime path");
    }
}
