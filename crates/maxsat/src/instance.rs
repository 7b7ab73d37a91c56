//! Weighted partial MAX-SAT instances.

use sat::{Clause, CnfFormula, Lit};

/// Identifier of a soft clause within a [`MaxSatInstance`] (its insertion
/// index).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SoftId(pub usize);

impl SoftId {
    /// Returns the underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A soft clause together with its weight.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SoftClause {
    /// The clause itself.
    pub clause: Clause,
    /// Penalty paid when the clause is falsified. Must be positive.
    pub weight: u64,
}

/// A weighted partial MAX-SAT instance: hard clauses that must hold, and soft
/// clauses with weights whose total falsified weight is to be minimized.
///
/// This is the interface between the BugAssist trace-formula construction
/// (which marks the test input, the assertion and TF1 as hard and the
/// selector units TF2 as soft — Sec. 3.4 of the paper) and the MAX-SAT
/// engine.
///
/// # Examples
///
/// ```
/// use maxsat::MaxSatInstance;
/// use sat::Lit;
/// let mut inst = MaxSatInstance::new();
/// let x = inst.new_var().positive();
/// inst.add_hard(vec![x]);
/// let s = inst.add_soft(vec![!x], 1);
/// assert_eq!(inst.num_soft(), 1);
/// assert_eq!(inst.soft(s).weight, 1);
/// # let _ : Lit = x;
/// ```
#[derive(Clone, Debug, Default)]
pub struct MaxSatInstance {
    hard: CnfFormula,
    soft: Vec<SoftClause>,
}

impl MaxSatInstance {
    /// Creates an empty instance.
    pub fn new() -> MaxSatInstance {
        MaxSatInstance::default()
    }

    /// Creates an instance whose hard part is the given formula.
    pub fn from_hard(hard: CnfFormula) -> MaxSatInstance {
        MaxSatInstance {
            hard,
            soft: Vec::new(),
        }
    }

    /// Allocates a fresh variable in the shared variable pool.
    pub fn new_var(&mut self) -> sat::Var {
        self.hard.new_var()
    }

    /// Ensures that at least `n` variables exist.
    pub fn ensure_vars(&mut self, n: usize) {
        self.hard.ensure_vars(n);
    }

    /// Number of variables in the pool.
    pub fn num_vars(&self) -> usize {
        self.hard.num_vars()
    }

    /// Adds a hard clause, copying its literals into the hard formula's
    /// literal buffer.
    pub fn add_hard<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        self.hard.add_clause(lits);
    }

    /// Adds a soft clause with the given weight and returns its identifier.
    ///
    /// # Panics
    ///
    /// Panics if `weight == 0` (zero-weight clauses carry no information).
    pub fn add_soft<C: Into<Clause>>(&mut self, clause: C, weight: u64) -> SoftId {
        assert!(weight > 0, "soft clauses must have positive weight");
        let clause = clause.into();
        for lit in clause.iter() {
            self.hard.ensure_vars(lit.var().index() + 1);
        }
        let id = SoftId(self.soft.len());
        self.soft.push(SoftClause { clause, weight });
        id
    }

    /// Adds a unit soft clause — the common case in BugAssist, where each
    /// statement's selector variable becomes one soft unit.
    pub fn add_soft_unit(&mut self, lit: Lit, weight: u64) -> SoftId {
        self.add_soft(vec![lit], weight)
    }

    /// Removes every soft clause, keeping the hard part and the variable
    /// pool; the next soft clause added gets `SoftId(0)` again.
    pub fn clear_soft(&mut self) {
        self.soft.clear();
    }

    /// The hard part of the instance.
    pub fn hard(&self) -> &CnfFormula {
        &self.hard
    }

    /// The soft clauses in insertion order.
    pub fn soft_clauses(&self) -> &[SoftClause] {
        &self.soft
    }

    /// Returns the soft clause with the given identifier.
    ///
    /// # Panics
    ///
    /// Panics if the identifier does not belong to this instance.
    pub fn soft(&self, id: SoftId) -> &SoftClause {
        &self.soft[id.0]
    }

    /// Number of soft clauses.
    pub fn num_soft(&self) -> usize {
        self.soft.len()
    }

    /// Number of hard clauses.
    pub fn num_hard(&self) -> usize {
        self.hard.num_clauses()
    }

    /// Sum of all soft weights (an upper bound on any solution cost).
    pub fn total_soft_weight(&self) -> u64 {
        self.soft.iter().map(|s| s.weight).sum()
    }

    /// Evaluates the cost (total weight of falsified soft clauses) of a total
    /// assignment, or `None` if the assignment violates a hard clause.
    pub fn cost_of(&self, assignment: &[bool]) -> Option<u64> {
        if !self.hard.iter().all(|c| c.eval(assignment)) {
            return None;
        }
        Some(
            self.soft
                .iter()
                .filter(|s| !s.clause.eval(assignment))
                .map(|s| s.weight)
                .sum(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn build_and_inspect() {
        let mut inst = MaxSatInstance::new();
        inst.add_hard(vec![lit(1), lit(2)]);
        let a = inst.add_soft(vec![lit(-1)], 2);
        let b = inst.add_soft_unit(lit(-2), 3);
        assert_eq!(inst.num_hard(), 1);
        assert_eq!(inst.num_soft(), 2);
        assert_eq!(inst.total_soft_weight(), 5);
        assert_eq!(inst.soft(a).weight, 2);
        assert_eq!(inst.soft(b).clause.lits(), &[lit(-2)]);
        assert_eq!(inst.num_vars(), 2);
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn zero_weight_rejected() {
        let mut inst = MaxSatInstance::new();
        inst.add_soft(vec![lit(1)], 0);
    }

    #[test]
    fn cost_of_assignment() {
        let mut inst = MaxSatInstance::new();
        inst.add_hard(vec![lit(1)]);
        inst.add_soft(vec![lit(-1)], 2);
        inst.add_soft(vec![lit(2)], 5);
        assert_eq!(inst.cost_of(&[true, true]), Some(2));
        assert_eq!(inst.cost_of(&[true, false]), Some(7));
        assert_eq!(inst.cost_of(&[false, true]), None);
    }
}
