//! Brute-force reference procedures used to cross-check the CDCL solver and
//! the MAX-SAT engine in tests and property-based tests.
//!
//! These are exponential-time and only intended for small instances
//! (≤ ~20 variables).

use crate::cnf::CnfFormula;

/// Exhaustively searches for a satisfying assignment.
///
/// Returns `Some(model)` (one Boolean per variable) if the formula is
/// satisfiable and `None` otherwise.
///
/// # Panics
///
/// Panics if the formula has more than 26 variables (the search would take
/// too long to be useful as a test oracle).
///
/// # Examples
///
/// ```
/// use sat::{CnfFormula, reference::brute_force_satisfiable};
/// let mut cnf = CnfFormula::new();
/// let a = cnf.new_var().positive();
/// cnf.add_clause(vec![a]);
/// assert_eq!(brute_force_satisfiable(&cnf), Some(vec![true]));
/// cnf.add_clause(vec![!a]);
/// assert_eq!(brute_force_satisfiable(&cnf), None);
/// ```
pub fn brute_force_satisfiable(formula: &CnfFormula) -> Option<Vec<bool>> {
    let n = formula.num_vars();
    assert!(
        n <= 26,
        "brute force oracle limited to 26 variables, got {n}"
    );
    for bits in 0u64..(1u64 << n) {
        let assignment: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
        if formula.eval(&assignment) {
            return Some(assignment);
        }
    }
    None
}

/// Exhaustively enumerates *every* satisfying assignment of the formula, in
/// ascending bit order. Used by the simplifier tests to compare the model
/// sets of a formula before and after preprocessing (projected onto the
/// frozen variables).
///
/// # Panics
///
/// Panics if the formula has more than 20 variables.
pub fn enumerate_models(formula: &CnfFormula) -> Vec<Vec<bool>> {
    let n = formula.num_vars();
    assert!(
        n <= 20,
        "model enumeration limited to 20 variables, got {n}"
    );
    (0u64..(1u64 << n))
        .map(|bits| (0..n).map(|i| bits >> i & 1 == 1).collect::<Vec<bool>>())
        .filter(|assignment| formula.eval(assignment))
        .collect()
}

/// Exhaustively computes the maximum number of clauses of `soft` that can be
/// satisfied by an assignment that satisfies every clause of `hard`.
///
/// Returns `None` if the hard clauses alone are unsatisfiable, otherwise
/// `Some((best_weight, model))` where `best_weight` is the maximum total
/// weight of satisfied soft clauses.
///
/// # Panics
///
/// Panics if more than 26 variables are involved.
pub fn brute_force_max_sat(
    hard: &CnfFormula,
    soft: &[(crate::cnf::Clause, u64)],
) -> Option<(u64, Vec<bool>)> {
    let mut n = hard.num_vars();
    for (clause, _) in soft {
        for lit in clause.iter() {
            n = n.max(lit.var().index() + 1);
        }
    }
    assert!(
        n <= 26,
        "brute force oracle limited to 26 variables, got {n}"
    );
    let mut best: Option<(u64, Vec<bool>)> = None;
    for bits in 0u64..(1u64 << n) {
        let assignment: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
        if !hard.iter().all(|c| c.eval(&assignment)) {
            continue;
        }
        let weight: u64 = soft
            .iter()
            .filter(|(c, _)| c.eval(&assignment))
            .map(|(_, w)| *w)
            .sum();
        if best.as_ref().is_none_or(|(bw, _)| weight > *bw) {
            best = Some((weight, assignment));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Clause;
    use crate::types::Lit;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn satisfiable_and_unsatisfiable() {
        let mut cnf = CnfFormula::new();
        cnf.add_clause(vec![lit(1), lit(2)]);
        cnf.add_clause(vec![lit(-1)]);
        let model = brute_force_satisfiable(&cnf).expect("satisfiable");
        assert!(cnf.eval(&model));
        cnf.add_clause(vec![lit(-2)]);
        assert!(brute_force_satisfiable(&cnf).is_none());
    }

    #[test]
    fn max_sat_counts_optimum() {
        // Hard: x1. Soft: (!x1) weight 1, (x2) weight 2, (!x2) weight 3.
        let mut hard = CnfFormula::new();
        hard.add_clause(vec![lit(1)]);
        let soft = vec![
            (Clause::new(vec![lit(-1)]), 1),
            (Clause::new(vec![lit(2)]), 2),
            (Clause::new(vec![lit(-2)]), 3),
        ];
        let (best, model) = brute_force_max_sat(&hard, &soft).expect("hard part satisfiable");
        assert_eq!(best, 3);
        assert!(model[0]);
        assert!(!model[1]);
    }

    #[test]
    fn max_sat_unsat_hard_returns_none() {
        let mut hard = CnfFormula::new();
        hard.add_clause(vec![lit(1)]);
        hard.add_clause(vec![lit(-1)]);
        assert!(brute_force_max_sat(&hard, &[]).is_none());
    }
}
