//! Plain CNF formula container, independent of any solver state.
//!
//! [`CnfFormula`] is the interchange type of the workspace: the bit-blaster
//! produces one, the simplifier rewrites one, a prepared localizer keeps
//! one as its selector-relaxed trace formula, the store persists one and
//! the [`crate::Solver`] is loaded from one.
//!
//! A formula is laid out flat: every clause's literals sit back to back in
//! one `Vec<Lit>`, and a second vector records where each clause ends. A
//! formula of any size is therefore two heap allocations, not one per
//! clause, and [`CnfFormula::iter`] hands out borrowed [`ClauseView`]s into
//! that buffer. The byte encoding ([`CnfFormula::encode`]) writes clause by
//! clause and does not depend on this layout.
//!
//! An owned [`Clause`] remains for clauses built one at a time, such as the
//! soft clauses of a MAX-SAT instance.

use crate::types::{Lit, Var};
use std::fmt;

/// An owned clause: a disjunction of literals.
///
/// A [`CnfFormula`] does not store `Clause`s; it keeps all its literals in
/// one buffer and lends out [`ClauseView`]s. `Clause` is for clauses that
/// live on their own, such as soft clauses. The solver keeps its own packed
/// clause representation internally.
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

    /// Evaluates the clause under a total assignment indexed by variable.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        eval(&self.lits, assignment)
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

impl fmt::Debug for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        debug_lits(&self.lits, f)
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

/// A clause of a [`CnfFormula`], borrowed from the formula's literal
/// buffer.
///
/// # Examples
///
/// ```
/// use sat::{CnfFormula, Lit};
/// let mut cnf = CnfFormula::new();
/// let a = cnf.new_var().positive();
/// cnf.add_clause([a, !a]);
/// let clause = cnf.iter().next().unwrap();
/// assert_eq!(clause.lits(), &[a, !a]);
/// assert!(clause.eval(&[false]));
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct ClauseView<'a> {
    lits: &'a [Lit],
}

impl<'a> ClauseView<'a> {
    /// Returns the literals of this clause.
    pub fn lits(self) -> &'a [Lit] {
        self.lits
    }

    /// Number of literals.
    pub fn len(self) -> usize {
        self.lits.len()
    }

    /// Returns `true` if the clause is empty (i.e. unsatisfiable).
    pub fn is_empty(self) -> bool {
        self.lits.is_empty()
    }

    /// Evaluates the clause under a total assignment indexed by variable.
    pub fn eval(self, assignment: &[bool]) -> bool {
        eval(self.lits, assignment)
    }

    /// Iterates over the literals.
    pub fn iter(self) -> std::slice::Iter<'a, Lit> {
        self.lits.iter()
    }
}

impl<'a> IntoIterator for ClauseView<'a> {
    type Item = &'a Lit;
    type IntoIter = std::slice::Iter<'a, Lit>;
    fn into_iter(self) -> Self::IntoIter {
        self.lits.iter()
    }
}

impl fmt::Debug for ClauseView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        debug_lits(self.lits, f)
    }
}

fn eval(lits: &[Lit], assignment: &[bool]) -> bool {
    lits.iter()
        .any(|l| assignment[l.var().index()] == l.is_positive())
}

fn debug_lits(lits: &[Lit], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "(")?;
    for (i, l) in lits.iter().enumerate() {
        if i > 0 {
            write!(f, " ∨ ")?;
        }
        write!(f, "{l:?}")?;
    }
    write!(f, ")")
}

/// A formula in conjunctive normal form: a variable pool plus a sequence of
/// clauses, stored flat (see the module docs).
///
/// # Examples
///
/// ```
/// use sat::CnfFormula;
/// let mut cnf = CnfFormula::new();
/// let a = cnf.new_var().positive();
/// let b = cnf.new_var().positive();
/// cnf.add_clause(vec![a, b]);
/// cnf.add_clause([!a]);
/// assert_eq!(cnf.num_vars(), 2);
/// assert_eq!(cnf.num_clauses(), 2);
/// assert_eq!(cnf.num_literals(), 3);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct CnfFormula {
    num_vars: usize,
    /// Every clause's literals, back to back, in clause order.
    lits: Vec<Lit>,
    /// `ends[i]` is the offset in `lits` one past clause `i`'s last literal.
    ends: Vec<u32>,
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
            ..CnfFormula::default()
        }
    }

    /// Creates a formula with `num_vars` variables and room for
    /// `num_clauses` clauses of `num_literals` literals in total, so a
    /// producer that knows its output size fills it without regrowing.
    pub fn with_capacity(num_vars: usize, num_clauses: usize, num_literals: usize) -> CnfFormula {
        CnfFormula {
            num_vars,
            lits: Vec::with_capacity(num_literals),
            ends: Vec::with_capacity(num_clauses),
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
        self.ends.len()
    }

    /// Returns `true` if the formula has no clauses.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total number of literal occurrences across all clauses.
    pub fn num_literals(&self) -> usize {
        self.lits.len()
    }

    /// Appends a clause, copying its literals onto the end of the buffer.
    ///
    /// Variables mentioned by the clause are added to the pool if needed.
    ///
    /// # Panics
    ///
    /// Panics if the formula would hold more than `u32::MAX` literals.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        let start = self.lits.len();
        self.lits.extend(lits);
        if let Some(max) = self.lits[start..].iter().map(|l| l.var().index()).max() {
            self.ensure_vars(max + 1);
        }
        let end = u32::try_from(self.lits.len()).expect("CNF exceeds u32 literal offsets");
        self.ends.push(end);
    }

    /// Adds a unit clause.
    pub fn add_unit(&mut self, lit: Lit) {
        self.add_clause([lit]);
    }

    /// Iterates over the clauses in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = ClauseView<'_>> + '_ {
        (0..self.ends.len()).map(move |i| {
            let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
            ClauseView {
                lits: &self.lits[start..self.ends[i] as usize],
            }
        })
    }

    /// Evaluates the whole formula under a total assignment indexed by
    /// variable. Returns `true` iff every clause is satisfied.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() < self.num_vars()`.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        assert!(assignment.len() >= self.num_vars);
        self.iter().all(|c| c.eval(assignment))
    }
}

impl fmt::Debug for CnfFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CnfFormula")
            .field("num_vars", &self.num_vars)
            .field("clauses", &self.iter().collect::<Vec<_>>())
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
    fn flat_clauses_come_back_in_order() {
        let mut cnf = CnfFormula::with_capacity(0, 4, 5);
        cnf.add_clause([lit(1)]);
        cnf.add_clause(Vec::new());
        cnf.add_clause([lit(2), lit(-3)].into_iter().chain([lit(4)]));
        cnf.add_unit(lit(-1));
        let clauses: Vec<&[Lit]> = cnf.iter().map(ClauseView::lits).collect();
        assert_eq!(
            clauses,
            [&[lit(1)][..], &[], &[lit(2), lit(-3), lit(4)], &[lit(-1)]]
        );
        assert_eq!(cnf.iter().len(), 4);
        assert_eq!(
            (cnf.num_vars(), cnf.num_clauses(), cnf.num_literals()),
            (4, 4, 5)
        );
    }
}
