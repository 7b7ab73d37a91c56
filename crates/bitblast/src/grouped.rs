//! CNF with clause provenance groups.
//!
//! The BugAssist reduction (Sec. 3.4 of the paper) needs to know, for every
//! CNF clause, which program statement it came from: clauses of the same
//! statement are enabled and disabled together through one selector variable.
//! [`GroupedCnf`] is a plain CNF paired with an optional [`GroupId`] per
//! clause; clauses with no group are "infrastructure" (constant definitions,
//! input constraints, assertions) and will always be hard. The literals live
//! in the formula's one flat buffer and the groups in a column beside it, so
//! emitting a clause copies its literals and allocates nothing of its own.

use sat::{ClauseView, CnfFormula, Lit, Var};

/// Identifier of a clause group (one group ≈ one program statement instance).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GroupId(pub usize);

impl GroupId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A CNF formula in which every clause optionally belongs to a group.
///
/// # Examples
///
/// ```
/// use bitblast::{GroupedCnf, GroupId};
/// let mut cnf = GroupedCnf::new();
/// let x = cnf.new_var().positive();
/// cnf.add_clause(vec![x], Some(GroupId(0)));
/// cnf.add_clause(vec![!x], None);
/// assert_eq!(cnf.num_clauses(), 2);
/// assert_eq!(cnf.group_of(0), Some(GroupId(0)));
/// assert_eq!(cnf.group_of(1), None);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GroupedCnf {
    formula: CnfFormula,
    groups: Vec<Option<GroupId>>,
}

impl GroupedCnf {
    /// Creates an empty grouped CNF.
    pub fn new() -> GroupedCnf {
        GroupedCnf::default()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        self.formula.new_var()
    }

    /// Ensures at least `n` variables exist.
    pub fn ensure_vars(&mut self, n: usize) {
        self.formula.ensure_vars(n);
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.formula.num_vars()
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.formula.num_clauses()
    }

    /// Adds a clause belonging to `group` (or to no group).
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I, group: Option<GroupId>) {
        self.formula.add_clause(lits);
        self.groups.push(group);
    }

    /// The underlying plain formula.
    pub fn formula(&self) -> &CnfFormula {
        &self.formula
    }

    /// The group of the `i`-th clause.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn group_of(&self, i: usize) -> Option<GroupId> {
        self.groups[i]
    }

    /// Iterates over `(clause, group)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ClauseView<'_>, Option<GroupId>)> {
        self.formula.iter().zip(self.groups.iter().copied())
    }

    /// Number of clauses belonging to the given group.
    pub fn clauses_in_group(&self, group: GroupId) -> usize {
        self.groups.iter().filter(|g| **g == Some(group)).count()
    }

    /// Evaluates the whole formula under a total assignment.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.formula.eval(assignment)
    }

    /// Adds a literal that is constrained (group-less) to be true, useful for
    /// encoding constants.
    pub fn add_true_lit(&mut self) -> Lit {
        let lit = self.new_var().positive();
        self.add_clause([lit], None);
        lit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_are_tracked_per_clause() {
        let mut cnf = GroupedCnf::new();
        let a = cnf.new_var().positive();
        let b = cnf.new_var().positive();
        cnf.add_clause(vec![a, b], Some(GroupId(3)));
        cnf.add_clause(vec![!a], Some(GroupId(3)));
        cnf.add_clause(vec![b], Some(GroupId(5)));
        cnf.add_clause(vec![a, !b], None);
        assert_eq!(cnf.clauses_in_group(GroupId(3)), 2);
        assert_eq!(cnf.clauses_in_group(GroupId(5)), 1);
        assert_eq!(cnf.iter().filter(|(_, g)| g.is_none()).count(), 1);
    }

    #[test]
    fn true_lit_is_forced() {
        let mut cnf = GroupedCnf::new();
        let t = cnf.add_true_lit();
        let mut solver = sat::Solver::from_formula(cnf.formula());
        assert_eq!(solver.solve(), sat::SatResult::Sat);
        assert_eq!(solver.model_value(t), Some(true));
    }
}
