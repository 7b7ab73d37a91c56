//! CNF with clause provenance groups.
//!
//! The BugAssist reduction (Sec. 3.4 of the paper) needs to know, for every
//! CNF clause, which program statement it came from: clauses of the same
//! statement are enabled and disabled together through one selector variable.
//! [`GroupedCnf`] is a plain CNF paired with an optional [`GroupId`] per
//! clause; clauses with no group are "infrastructure" (constant definitions,
//! input constraints, assertions) and will always be hard.

use sat::{Clause, CnfFormula, Lit, Var};

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
    pub fn add_clause<C: Into<Clause>>(&mut self, clause: C, group: Option<GroupId>) {
        self.formula.add_clause(clause);
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
    pub fn iter(&self) -> impl Iterator<Item = (&Clause, Option<GroupId>)> {
        self.formula.iter().zip(self.groups.iter().copied())
    }

    /// All distinct groups that occur, in ascending order.
    pub fn groups(&self) -> Vec<GroupId> {
        let mut gs: Vec<GroupId> = self.groups.iter().flatten().copied().collect();
        gs.sort();
        gs.dedup();
        gs
    }

    /// Number of clauses belonging to the given group.
    pub fn clauses_in_group(&self, group: GroupId) -> usize {
        self.groups.iter().filter(|g| **g == Some(group)).count()
    }

    /// Evaluates the whole formula under a total assignment.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.formula.eval(assignment)
    }

    /// Evaluates only the clauses of the given group.
    pub fn eval_group(&self, group: GroupId, assignment: &[bool]) -> bool {
        self.iter()
            .filter(|(_, g)| *g == Some(group))
            .all(|(c, _)| c.eval(assignment))
    }

    /// Adds a literal that is constrained (group-less) to be true, useful for
    /// encoding constants.
    pub fn add_true_lit(&mut self) -> Lit {
        let lit = self.new_var().positive();
        self.add_clause(vec![lit], None);
        lit
    }
}

/// Consumes the formula clause by clause, each with its group.
impl IntoIterator for GroupedCnf {
    type Item = (Clause, Option<GroupId>);
    type IntoIter = std::iter::Zip<std::vec::IntoIter<Clause>, std::vec::IntoIter<Option<GroupId>>>;
    fn into_iter(self) -> Self::IntoIter {
        self.formula.into_iter().zip(self.groups)
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
        assert_eq!(cnf.groups(), vec![GroupId(3), GroupId(5)]);
        assert_eq!(cnf.clauses_in_group(GroupId(3)), 2);
        assert_eq!(cnf.clauses_in_group(GroupId(5)), 1);
        assert_eq!(cnf.iter().filter(|(_, g)| g.is_none()).count(), 1);
    }

    #[test]
    fn eval_group_checks_only_that_group() {
        let mut cnf = GroupedCnf::new();
        let a = cnf.new_var().positive();
        let b = cnf.new_var().positive();
        cnf.add_clause(vec![a], Some(GroupId(0)));
        cnf.add_clause(vec![b], Some(GroupId(1)));
        // a true, b false: group 0 holds, group 1 does not, whole formula fails.
        assert!(cnf.eval_group(GroupId(0), &[true, false]));
        assert!(!cnf.eval_group(GroupId(1), &[true, false]));
        assert!(!cnf.eval(&[true, false]));
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
