//! Plain CNF formula container, independent of any solver state.
//!
//! [`CnfFormula`] is the interchange type of the workspace: the bit-blaster
//! produces one, the MAX-SAT engine consumes one, and the [`crate::Solver`]
//! can be loaded from one.

use crate::types::{Lit, Var};
use std::fmt;

/// A clause: a disjunction of literals.
///
/// This is a thin newtype over `Vec<Lit>` used by [`CnfFormula`]; the solver
/// keeps its own packed clause representation internally.
///
/// # Examples
///
/// ```
/// use sat::{Clause, Var};
/// let a = Var::from_index(0).positive();
/// let b = Var::from_index(1).negative();
/// let clause = Clause::new(vec![a, b]);
/// assert_eq!(clause.len(), 2);
/// assert!(clause.contains(a));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Clause {
    lits: Vec<Lit>,
}

impl Clause {
    /// Creates a clause from the given literals.
    pub fn new(lits: Vec<Lit>) -> Clause {
        Clause { lits }
    }

    /// Returns the literals of this clause.
    pub fn lits(&self) -> &[Lit] {
        &self.lits
    }

    /// Number of literals.
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// Returns `true` if the clause is empty (i.e. unsatisfiable).
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// Returns `true` if the clause contains the literal.
    pub fn contains(&self, lit: Lit) -> bool {
        self.lits.contains(&lit)
    }

    /// Returns `true` if the clause contains both a literal and its negation.
    pub fn is_tautology(&self) -> bool {
        let mut sorted = self.lits.clone();
        sorted.sort_unstable();
        sorted.dedup();
        sorted
            .windows(2)
            .any(|w| w[0].var() == w[1].var() && w[0] != w[1])
    }

    /// Evaluates the clause under a total assignment indexed by variable.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.lits
            .iter()
            .any(|l| assignment[l.var().index()] == l.is_positive())
    }

    /// Iterates over the literals.
    pub fn iter(&self) -> std::slice::Iter<'_, Lit> {
        self.lits.iter()
    }
}

impl From<Vec<Lit>> for Clause {
    fn from(lits: Vec<Lit>) -> Clause {
        Clause::new(lits)
    }
}

impl From<&[Lit]> for Clause {
    fn from(lits: &[Lit]) -> Clause {
        Clause::new(lits.to_vec())
    }
}

impl<'a> IntoIterator for &'a Clause {
    type Item = &'a Lit;
    type IntoIter = std::slice::Iter<'a, Lit>;
    fn into_iter(self) -> Self::IntoIter {
        self.lits.iter()
    }
}

impl IntoIterator for Clause {
    type Item = Lit;
    type IntoIter = std::vec::IntoIter<Lit>;
    fn into_iter(self) -> Self::IntoIter {
        self.lits.into_iter()
    }
}

impl FromIterator<Lit> for Clause {
    fn from_iter<T: IntoIterator<Item = Lit>>(iter: T) -> Clause {
        Clause::new(iter.into_iter().collect())
    }
}

impl fmt::Debug for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, l) in self.lits.iter().enumerate() {
            if i > 0 {
                write!(f, " ∨ ")?;
            }
            write!(f, "{l:?}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, l) in self.lits.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, " 0")
    }
}

/// A formula in conjunctive normal form: a variable pool plus a set of
/// clauses.
///
/// # Examples
///
/// ```
/// use sat::CnfFormula;
/// let mut cnf = CnfFormula::new();
/// let a = cnf.new_var().positive();
/// let b = cnf.new_var().positive();
/// cnf.add_clause(vec![a, b]);
/// cnf.add_clause(vec![!a]);
/// assert_eq!(cnf.num_vars(), 2);
/// assert_eq!(cnf.num_clauses(), 2);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct CnfFormula {
    num_vars: usize,
    clauses: Vec<Clause>,
}

impl CnfFormula {
    /// Creates an empty formula with no variables and no clauses.
    pub fn new() -> CnfFormula {
        CnfFormula::default()
    }

    /// Creates a formula with `num_vars` pre-allocated variables.
    pub fn with_vars(num_vars: usize) -> CnfFormula {
        CnfFormula {
            num_vars,
            clauses: Vec::new(),
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Ensures that at least `n` variables exist.
    pub fn ensure_vars(&mut self, n: usize) {
        self.num_vars = self.num_vars.max(n);
    }

    /// Number of variables in the pool.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Returns `true` if the formula has no clauses.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Total number of literal occurrences across all clauses — the size
    /// estimate [`crate::Solver::from_formula`] uses to pre-allocate its
    /// clause arena in one shot.
    pub fn num_literals(&self) -> usize {
        self.clauses.iter().map(|c| c.len()).sum()
    }

    /// Adds a clause given as anything convertible to a [`Clause`].
    ///
    /// Variables mentioned by the clause are added to the pool if needed.
    pub fn add_clause<C: Into<Clause>>(&mut self, clause: C) {
        let clause = clause.into();
        for lit in clause.iter() {
            self.ensure_vars(lit.var().index() + 1);
        }
        self.clauses.push(clause);
    }

    /// Adds a unit clause.
    pub fn add_unit(&mut self, lit: Lit) {
        self.add_clause(vec![lit]);
    }

    /// Returns the clauses of the formula.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Iterates over the clauses.
    pub fn iter(&self) -> std::slice::Iter<'_, Clause> {
        self.clauses.iter()
    }

    /// Evaluates the whole formula under a total assignment indexed by
    /// variable. Returns `true` iff every clause is satisfied.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() < self.num_vars()`.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        assert!(assignment.len() >= self.num_vars);
        self.clauses.iter().all(|c| c.eval(assignment))
    }

    /// Appends all clauses of `other`, keeping variable indices as they are
    /// (the caller is responsible for making the pools compatible).
    pub fn extend_from(&mut self, other: &CnfFormula) {
        self.ensure_vars(other.num_vars);
        self.clauses.extend(other.clauses.iter().cloned());
    }
}

impl IntoIterator for CnfFormula {
    type Item = Clause;
    type IntoIter = std::vec::IntoIter<Clause>;
    fn into_iter(self) -> Self::IntoIter {
        self.clauses.into_iter()
    }
}

impl Extend<Clause> for CnfFormula {
    fn extend<T: IntoIterator<Item = Clause>>(&mut self, iter: T) {
        for c in iter {
            self.add_clause(c);
        }
    }
}

impl FromIterator<Clause> for CnfFormula {
    fn from_iter<T: IntoIterator<Item = Clause>>(iter: T) -> CnfFormula {
        let mut cnf = CnfFormula::new();
        cnf.extend(iter);
        cnf
    }
}

impl fmt::Debug for CnfFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CnfFormula")
            .field("num_vars", &self.num_vars)
            .field("clauses", &self.clauses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn clause_basics() {
        let c = Clause::new(vec![lit(1), lit(-2)]);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert!(c.contains(lit(1)));
        assert!(!c.contains(lit(2)));
        assert_eq!(format!("{c}"), "1 -2 0");
    }

    #[test]
    fn clause_eval() {
        let c = Clause::new(vec![lit(1), lit(-2)]);
        assert!(c.eval(&[true, true]));
        assert!(c.eval(&[false, false]));
        assert!(!c.eval(&[false, true]));
    }

    #[test]
    fn tautology_detection() {
        assert!(Clause::new(vec![lit(1), lit(-1)]).is_tautology());
        assert!(!Clause::new(vec![lit(1), lit(2)]).is_tautology());
        assert!(!Clause::new(vec![]).is_tautology());
    }

    #[test]
    fn formula_var_tracking() {
        let mut cnf = CnfFormula::new();
        cnf.add_clause(vec![lit(5)]);
        assert_eq!(cnf.num_vars(), 5);
        let v = cnf.new_var();
        assert_eq!(v.index(), 5);
        assert_eq!(cnf.num_vars(), 6);
    }

    #[test]
    fn formula_eval() {
        let mut cnf = CnfFormula::new();
        cnf.add_clause(vec![lit(1), lit(2)]);
        cnf.add_clause(vec![lit(-1)]);
        assert!(cnf.eval(&[false, true]));
        assert!(!cnf.eval(&[true, true]));
        assert!(!cnf.eval(&[false, false]));
    }

    #[test]
    fn formula_extend_and_collect() {
        let clauses = vec![Clause::new(vec![lit(1)]), Clause::new(vec![lit(2), lit(3)])];
        let cnf: CnfFormula = clauses.into_iter().collect();
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.num_vars(), 3);

        let mut other = CnfFormula::new();
        other.extend_from(&cnf);
        assert_eq!(other.num_clauses(), 2);
        assert_eq!(other.num_vars(), 3);
    }
}
