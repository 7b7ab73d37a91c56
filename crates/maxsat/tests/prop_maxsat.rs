//! Randomized tests: the MAX-SAT solver must agree with the exhaustive
//! brute-force optimum on random small instances, and its reported CoMSS
//! must be a genuine minimum-weight correction set. Seeded PRNG keeps every
//! run deterministic.

use maxsat::{solve, MaxSatInstance};
use prng::SplitMix64;
use sat::reference::brute_force_max_sat;
use sat::{Clause, CnfFormula, Lit, Var};

#[derive(Debug, Clone)]
struct RandomInstance {
    hard: Vec<Vec<(usize, bool)>>,
    soft: Vec<(Vec<(usize, bool)>, u64)>,
    num_vars: usize,
}

fn random_clause(rng: &mut SplitMix64, num_vars: usize) -> Vec<(usize, bool)> {
    let len = rng.gen_range(1usize..=3);
    (0..len)
        .map(|_| (rng.gen_range(0..num_vars), rng.gen_bool(0.5)))
        .collect()
}

fn random_instance(rng: &mut SplitMix64, num_vars: usize) -> RandomInstance {
    let hard = (0..rng.gen_range(0usize..=4))
        .map(|_| random_clause(rng, num_vars))
        .collect();
    let soft = (0..rng.gen_range(1usize..=6))
        .map(|_| (random_clause(rng, num_vars), rng.gen_range(1u64..=4)))
        .collect();
    RandomInstance {
        hard,
        soft,
        num_vars,
    }
}

fn to_instance(raw: &RandomInstance) -> (MaxSatInstance, CnfFormula, Vec<(Clause, u64)>) {
    let to_lits = |lits: &[(usize, bool)]| -> Vec<Lit> {
        lits.iter()
            .map(|&(v, s)| Var::from_index(v).lit(s))
            .collect()
    };
    let mut inst = MaxSatInstance::new();
    inst.ensure_vars(raw.num_vars);
    let mut hard = CnfFormula::with_vars(raw.num_vars);
    for clause in &raw.hard {
        let lits = to_lits(clause);
        inst.add_hard(lits.clone());
        hard.add_clause(lits);
    }
    let mut soft = Vec::new();
    for (clause, weight) in &raw.soft {
        let lits = to_lits(clause);
        inst.add_soft(lits.clone(), *weight);
        soft.push((Clause::new(lits), *weight));
    }
    (inst, hard, soft)
}

#[test]
fn strategies_match_brute_force_optimum() {
    let mut rng = SplitMix64::seed_from_u64(2011);
    for case in 0..96 {
        let raw = random_instance(&mut rng, 6);
        let (inst, hard, soft) = to_instance(&raw);
        let reference = brute_force_max_sat(&hard, &soft);
        match (&reference, solve(&inst).optimum()) {
            (None, None) => {}
            (Some((best_weight, _)), Some(sol)) => {
                let total: u64 = soft.iter().map(|(_, w)| *w).sum();
                let expected_cost = total - best_weight;
                assert_eq!(
                    sol.cost, expected_cost,
                    "case {case}: cost mismatch on {raw:?}"
                );
                // The model must satisfy all hard clauses and pay exactly cost.
                assert_eq!(inst.cost_of(&sol.model), Some(sol.cost), "case {case}");
            }
            (r, s) => panic!(
                "case {case}: disagreement: reference {:?}, solver {:?}",
                r.is_some(),
                s.is_some()
            ),
        }
    }
}

#[test]
fn comss_is_a_correction_set() {
    let mut rng = SplitMix64::seed_from_u64(4242);
    for _ in 0..96 {
        let raw = random_instance(&mut rng, 6);
        let (inst, hard, _) = to_instance(&raw);
        if let Some(sol) = solve(&inst).into_optimum() {
            // Removing the CoMSS clauses and keeping the rest as hard must be
            // satisfiable.
            let mut check = hard.clone();
            for (i, soft) in inst.soft_clauses().iter().enumerate() {
                if !sol.falsified.iter().any(|id| id.index() == i) {
                    check.add_clause(soft.clause.clone());
                }
            }
            assert!(
                sat::reference::brute_force_satisfiable(&check).is_some(),
                "MSS (complement of reported CoMSS) is not satisfiable: {raw:?}"
            );
        }
    }
}

/// The brute-force canonical CoMSS: among the assignments satisfying every
/// hard clause at the least falsified weight, the falsified set that keeps
/// the lowest soft ids satisfied (the lexicographically least falsified
/// indicator vector). `None` when the hard clauses are unsatisfiable.
fn brute_force_canonical(
    hard: &CnfFormula,
    soft: &[(Clause, u64)],
    n: usize,
) -> Option<Vec<usize>> {
    let mut best: Option<(u64, Vec<bool>)> = None;
    for bits in 0u64..(1u64 << n) {
        let assignment: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
        if !hard.eval(&assignment) {
            continue;
        }
        let falsified: Vec<bool> = soft.iter().map(|(c, _)| !c.eval(&assignment)).collect();
        let cost: u64 = soft
            .iter()
            .zip(&falsified)
            .filter(|(_, &f)| f)
            .map(|((_, w), _)| *w)
            .sum();
        let key = (cost, falsified);
        if best.as_ref().is_none_or(|b| key < *b) {
            best = Some(key);
        }
    }
    best.map(|(_, falsified)| (0..falsified.len()).filter(|&i| falsified[i]).collect())
}

#[test]
fn falsified_set_is_the_brute_force_canonical_comss() {
    let mut rng = SplitMix64::seed_from_u64(0x1CA5);
    for case in 0..128 {
        let raw = random_instance(&mut rng, 6);
        let (inst, hard, soft) = to_instance(&raw);
        let expected = brute_force_canonical(&hard, &soft, raw.num_vars);
        let got = solve(&inst).into_optimum().map(|sol| {
            sol.falsified
                .iter()
                .map(|id| id.index())
                .collect::<Vec<_>>()
        });
        assert_eq!(got, expected, "case {case}: {raw:?}");
    }
}
