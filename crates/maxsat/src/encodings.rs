//! CNF encodings of at-most-one and exactly-one constraints.
//!
//! The core-guided MAX-SAT algorithm (Fu–Malik / WPM1) needs an
//! *exactly-one* constraint over the relaxation variables introduced for each
//! unsatisfiable core: pairwise for small cores, the sequential (Sinz)
//! ladder for larger ones.

use sat::{Lit, Solver};

/// Largest input size still encoded pairwise by [`encode_at_most_one`];
/// larger sets get the linear sequential (Sinz) ladder.
pub const PAIRWISE_AT_MOST_ONE_MAX: usize = 6;

/// Adds clauses enforcing *at most one* of `lits` is true.
///
/// Uses the pairwise encoding for small inputs and the sequential (Sinz)
/// encoding otherwise.
pub fn encode_at_most_one(solver: &mut Solver, lits: &[Lit]) {
    if lits.len() <= 1 {
        return;
    }
    if lits.len() <= PAIRWISE_AT_MOST_ONE_MAX {
        for i in 0..lits.len() {
            for j in (i + 1)..lits.len() {
                solver.add_clause([!lits[i], !lits[j]]);
            }
        }
    } else {
        // Sequential encoding: s_i means "one of lits[0..=i] is true".
        let s: Vec<Lit> = (0..lits.len() - 1)
            .map(|_| solver.new_var().positive())
            .collect();
        solver.add_clause([!lits[0], s[0]]);
        for i in 1..lits.len() - 1 {
            solver.add_clause([!lits[i], s[i]]);
            solver.add_clause([!s[i - 1], s[i]]);
            solver.add_clause([!lits[i], !s[i - 1]]);
        }
        solver.add_clause([!lits[lits.len() - 1], !s[lits.len() - 2]]);
    }
}

/// Adds clauses enforcing *exactly one* of `lits` is true.
pub fn encode_exactly_one(solver: &mut Solver, lits: &[Lit]) {
    assert!(
        !lits.is_empty(),
        "exactly-one over an empty set is unsatisfiable"
    );
    solver.add_clause(lits.iter().copied());
    encode_at_most_one(solver, lits);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat::SatResult;

    fn fresh(solver: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| solver.new_var().positive()).collect()
    }

    fn count_true(solver: &Solver, lits: &[Lit]) -> usize {
        lits.iter()
            .filter(|&&l| solver.model_value(l) == Some(true))
            .count()
    }

    #[test]
    fn at_most_one_pairwise() {
        let mut solver = Solver::new();
        let xs = fresh(&mut solver, 4);
        encode_at_most_one(&mut solver, &xs);
        solver.add_clause([xs[0]]);
        assert_eq!(solver.solve(), SatResult::Sat);
        assert_eq!(count_true(&solver, &xs), 1);
        solver.add_clause([xs[2]]);
        assert_eq!(solver.solve(), SatResult::Unsat);
    }

    #[test]
    fn at_most_one_sequential() {
        let mut solver = Solver::new();
        let xs = fresh(&mut solver, 12);
        encode_at_most_one(&mut solver, &xs);
        solver.add_clause([xs[3]]);
        assert_eq!(solver.solve(), SatResult::Sat);
        assert_eq!(count_true(&solver, &xs), 1);
        solver.add_clause([xs[9]]);
        assert_eq!(solver.solve(), SatResult::Unsat);
    }

    /// Pins the pairwise/sequential switchover by its size signature, so a
    /// regression to quadratic pairwise on large cores (or to the
    /// aux-variable-hungry ladder on tiny ones) fails loudly: pairwise adds
    /// `n·(n−1)/2` clauses and **no** variables; the Sinz ladder adds `n−1`
    /// variables and `3n−4` clauses.
    #[test]
    fn at_most_one_encoding_switchover_is_pinned() {
        // At the threshold: still pairwise. (Retuning the constant is an
        // intentional event.)
        let mut solver = Solver::new();
        let xs = fresh(&mut solver, PAIRWISE_AT_MOST_ONE_MAX);
        let (vars_before, clauses_before) = (solver.num_vars(), solver.num_clauses());
        encode_at_most_one(&mut solver, &xs);
        assert_eq!(solver.num_vars(), vars_before, "pairwise adds no aux vars");
        assert_eq!(solver.num_clauses(), clauses_before + 15, "C(6,2) clauses");

        // Just above: sequential.
        let mut solver = Solver::new();
        let xs = fresh(&mut solver, PAIRWISE_AT_MOST_ONE_MAX + 1);
        let (vars_before, clauses_before) = (solver.num_vars(), solver.num_clauses());
        encode_at_most_one(&mut solver, &xs);
        assert_eq!(solver.num_vars(), vars_before + 6, "n−1 ladder vars");
        assert_eq!(solver.num_clauses(), clauses_before + 17, "3n−4 clauses");

        // Far above, the ladder's linear size is what keeps Fu–Malik's
        // per-core exactly-one constraints small: 50 literals cost 146
        // clauses instead of the pairwise 1225.
        let mut solver = Solver::new();
        let xs = fresh(&mut solver, 50);
        let clauses_before = solver.num_clauses();
        encode_at_most_one(&mut solver, &xs);
        assert_eq!(solver.num_clauses(), clauses_before + 146);
    }

    #[test]
    fn exactly_one_forces_one() {
        let mut solver = Solver::new();
        let xs = fresh(&mut solver, 5);
        encode_exactly_one(&mut solver, &xs);
        assert_eq!(solver.solve(), SatResult::Sat);
        assert_eq!(count_true(&solver, &xs), 1);
    }

    #[test]
    fn empty_encodings_are_noops() {
        let mut solver = Solver::new();
        encode_at_most_one(&mut solver, &[]);
        assert_eq!(solver.num_clauses(), 0);
        assert_eq!(solver.solve(), SatResult::Sat);
    }
}
