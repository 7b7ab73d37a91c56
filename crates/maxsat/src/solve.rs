//! The core-guided MAX-SAT algorithm.
//!
//! [`MaxSatSolver`] runs the algorithm of Fu & Malik in its weighted WPM1
//! variant, which is what the MSUnCORE solver used by the BugAssist paper
//! implements: repeatedly ask a SAT solver for an unsatisfiable core over the
//! soft clauses' selectors, relax each clause of the core with a fresh
//! relaxation variable, constrain the relaxation variables of the core to
//! exactly one, and pay the minimum weight of the core. A unit soft clause
//! is its own selector — its literal is assumed directly, as in RC2 — so a
//! fresh selector appears only when a core relaxes a clause.
//!
//! The returned [`MaxSatSolution`] carries the **CoMSS** (the set of soft
//! clauses falsified by the optimal model) that BugAssist interprets as a
//! candidate error localization. Every optimum is the **canonical** one —
//! the equal-cost solution keeping the lowest [`SoftId`]s satisfied — so the
//! reported CoMSS is a function of the instance's semantics, identical
//! across different CNF representations of the same projection (hash-consed
//! or not, preprocessed or not). No extra SAT call refines it: every call of
//! the loop decides the soft clauses satisfied in [`SoftId`] order before any
//! other decision, so the model of the loop's one satisfiable call is
//! already the canonical optimum. A solve with `k` cores is `k + 1` SAT
//! calls.

use crate::budget::Budget;
use crate::encodings::encode_exactly_one;
use crate::instance::{MaxSatInstance, SoftId};
use sat::{Lit, SatResult, Solver, SolverStats};

#[cfg(test)]
mod greedy_oracle;

/// The MAX-SAT algorithm, named by [`MaxSatSolver::new`]. Fu–Malik / WPM1
/// is the only one; the enum stays so that `MaxSatSolver::new` keeps the
/// signature the out-of-workspace `perfbench` package calls it with.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub enum Strategy {
    /// Core-guided Fu–Malik / WPM1 (mirrors MSUnCORE).
    #[default]
    FuMalik,
}

/// An optimal solution to a weighted partial MAX-SAT instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MaxSatSolution {
    /// Total weight of falsified soft clauses (the optimum cost).
    pub cost: u64,
    /// A model of the hard clauses achieving that cost, indexed by variable.
    pub model: Vec<bool>,
    /// The soft clauses falsified by `model` — the complement of a maximum
    /// satisfiable subset (CoMSS). Sorted by identifier.
    pub falsified: Vec<SoftId>,
}

impl MaxSatSolution {
    /// The soft clauses satisfied by the model (the MSS), as identifiers.
    pub fn satisfied(&self, instance: &MaxSatInstance) -> Vec<SoftId> {
        (0..instance.num_soft())
            .map(SoftId)
            .filter(|id| !self.falsified.contains(id))
            .collect()
    }
}

/// Result of solving a weighted partial MAX-SAT instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MaxSatResult {
    /// The hard clauses are satisfiable; an optimal solution is attached.
    Optimum(MaxSatSolution),
    /// The solve's [`Budget`] expired before the canonical optimum was
    /// found; nothing can be reported.
    Expired,
    /// The hard clauses alone are unsatisfiable; no assignment exists.
    HardUnsat,
}

impl MaxSatResult {
    /// Returns the optimal solution; `None` for every other outcome.
    pub fn optimum(&self) -> Option<&MaxSatSolution> {
        match self {
            MaxSatResult::Optimum(sol) => Some(sol),
            _ => None,
        }
    }

    /// Consumes the result and returns the optimal solution, or `None`.
    pub fn into_optimum(self) -> Option<MaxSatSolution> {
        match self {
            MaxSatResult::Optimum(sol) => Some(sol),
            _ => None,
        }
    }

    /// Returns `true` iff the hard part was unsatisfiable.
    pub fn is_hard_unsat(&self) -> bool {
        matches!(self, MaxSatResult::HardUnsat)
    }

    /// `true` for definitive answers ([`MaxSatResult::Optimum`] and
    /// [`MaxSatResult::HardUnsat`]); `false` when the budget cut the solve
    /// short.
    pub fn is_complete(&self) -> bool {
        matches!(self, MaxSatResult::Optimum(_) | MaxSatResult::HardUnsat)
    }
}

/// Statistics about a MAX-SAT solving run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaxSatStats {
    /// Number of calls made to the underlying SAT solver.
    pub sat_calls: u64,
    /// Number of unsatisfiable cores processed.
    pub cores: u64,
    /// Number of SAT-solver variables at the end of the run.
    pub final_vars: usize,
    /// Number of SAT-solver conflicts this solve spent.
    pub conflicts: u64,
    /// Number of learnt-clause database reductions during this solve.
    pub reduce_dbs: u64,
    /// Number of learnt clauses deleted by this solve's reductions.
    pub removed_learnts: u64,
    /// Final size of the SAT solver's clause arena in bytes.
    pub arena_bytes: u64,
}

impl MaxSatStats {
    /// Copies the end-of-run solver counters out of the underlying SAT
    /// solver: its variable count and arena size, and the conflicts and
    /// reductions spent since `start`, the counters when this solve began
    /// (the solver's own counters are cumulative across solves).
    fn capture_solver(&mut self, solver: &Solver, start: &SolverStats) {
        let stats = solver.stats();
        self.final_vars = solver.num_vars();
        self.conflicts = stats.conflicts - start.conflicts;
        self.reduce_dbs = stats.reduce_dbs - start.reduce_dbs;
        self.removed_learnts = stats.removed_learnts - start.removed_learnts;
        self.arena_bytes = stats.arena_bytes;
    }
}

/// A weighted partial MAX-SAT solver running Fu–Malik / WPM1.
///
/// # Examples
///
/// ```
/// use maxsat::{MaxSatInstance, MaxSatSolver, Strategy};
/// let mut inst = MaxSatInstance::new();
/// let x = inst.new_var().positive();
/// let y = inst.new_var().positive();
/// inst.add_hard(vec![x, y]);
/// inst.add_soft(vec![!x], 1);
/// inst.add_soft(vec![!y], 1);
/// let solution = MaxSatSolver::new(Strategy::FuMalik)
///     .solve(&inst)
///     .into_optimum()
///     .expect("hard part is satisfiable");
/// assert_eq!(solution.cost, 1);
/// assert_eq!(solution.falsified.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct MaxSatSolver {
    stats: MaxSatStats,
    /// Refine the loop's model with the greedy per-soft walk instead of
    /// deciding the pins inside the loop: the test oracle of the folded
    /// refinement (see `greedy_oracle.rs`).
    #[cfg(test)]
    greedy_oracle: bool,
    /// Resource limits applied to every solve (see
    /// [`MaxSatSolver::set_budget`]). Unlimited by default.
    budget: Budget,
    /// The SAT solver's counters when the current solve began: the conflict
    /// cap and the reported counters are measured from here.
    start: SolverStats,
}

impl Default for MaxSatSolver {
    fn default() -> MaxSatSolver {
        MaxSatSolver::new(Strategy::FuMalik)
    }
}

impl MaxSatSolver {
    /// Creates a solver. [`Strategy::FuMalik`] is the only strategy.
    pub fn new(_strategy: Strategy) -> MaxSatSolver {
        MaxSatSolver {
            stats: MaxSatStats::default(),
            #[cfg(test)]
            greedy_oracle: false,
            budget: Budget::UNLIMITED,
            start: SolverStats::default(),
        }
    }

    /// Installs the [`Budget`] (wall-clock deadline and/or conflict cap)
    /// applied to every subsequent solve. With a budget in place a solve
    /// that runs out before its canonical optimum returns
    /// [`MaxSatResult::Expired`] — never an error. Pass
    /// [`Budget::UNLIMITED`] to restore unbounded solving.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Statistics from the most recent solve.
    pub fn stats(&self) -> MaxSatStats {
        self.stats
    }

    /// Solves the instance to optimality — or, under a [`Budget`], to the
    /// best answer the budget allows (see [`MaxSatSolver::set_budget`]).
    /// Loads the hard clauses into a fresh SAT solver and runs
    /// [`MaxSatSolver::solve_loaded`] on it.
    pub fn solve(&mut self, instance: &MaxSatInstance) -> MaxSatResult {
        let mut solver = Solver::from_formula(instance.hard());
        self.solve_loaded(&mut solver, instance)
    }

    /// Solves the instance on a SAT solver that already holds its hard
    /// part, so a caller solving a sequence of instances that share one
    /// growing hard part (the localizer's suspect enumeration) loads it once
    /// and keeps the learnt clauses across solves. `solver` holds the hard
    /// part; `instance` carries the soft clauses and the variable count.
    /// Hard clauses in `instance` are optional and never loaded: when
    /// present they must also be in `solver`, and debug builds check the
    /// optimum's model against them. Between solves the caller may add hard
    /// clauses to `solver` and replace the soft clauses; the variable pool
    /// of `instance` must not grow after the first solve, since later
    /// variables belong to the solves.
    ///
    /// A unit soft clause adds nothing to `solver` unless a core relaxes
    /// it: its literal is the assumption. Every clause a solve does add
    /// mentions variables created by that same solve (selectors of longer
    /// soft clauses, relaxation variables, cardinality encodings), and some
    /// setting of those fresh variables satisfies all of them. So what one
    /// solve leaves behind never constrains a later one: every solve sees
    /// exactly the models of the hard part. [`MaxSatSolver::stats`] and
    /// the budget's conflict cap count from the start of this call.
    pub fn solve_loaded(&mut self, solver: &mut Solver, instance: &MaxSatInstance) -> MaxSatResult {
        debug_assert!(solver.num_vars() >= instance.num_vars());
        self.stats = MaxSatStats::default();
        self.start = solver.stats();
        let result = if solver.is_ok() {
            // Fu–Malik holds no model of the hard clauses until its optimum,
            // so a budget that runs out first leaves nothing to report.
            self.solve_fu_malik(solver, instance)
                .unwrap_or(MaxSatResult::Expired)
        } else {
            // Refuted at the top level while loading or adding hard clauses:
            // a definitive answer, whatever is left of the budget.
            MaxSatResult::HardUnsat
        };
        self.stats.capture_solver(solver, &self.start);
        debug_assert!(check_solution(instance, &result));
        result
    }

    /// Dispatches one SAT call under `budget`, polling its deadline and
    /// conflict cap at restart boundaries, with `decide_first` decided true
    /// in order after the assumptions (see
    /// [`Solver::solve_assuming_budgeted`]). `None` means the budget ran
    /// out.
    fn sat_call(
        &self,
        solver: &mut Solver,
        assumptions: &[Lit],
        decide_first: &[Lit],
        budget: Budget,
    ) -> Option<SatResult> {
        if budget.is_unlimited() {
            return solver.solve_assuming_budgeted(assumptions, decide_first, None, None);
        }
        // The conflict cap bounds the whole solve. The SAT solver's conflict
        // counter is cumulative across its calls and across earlier solves
        // on the same solver, so the remaining allowance is the cap minus
        // what this solve has spent so far.
        let spent = solver.stats().conflicts - self.start.conflicts;
        let remaining = budget.conflict_cap.map(|cap| cap.saturating_sub(spent));
        if remaining == Some(0) || budget.deadline_expired() {
            return None;
        }
        solver.solve_assuming_budgeted(assumptions, decide_first, budget.deadline, remaining)
    }

    /// Runs Fu–Malik / WPM1. Returns `None` when the budget runs out.
    ///
    /// Each SAT call decides one pin per soft clause true, in `SoftId`
    /// order, right after the assumptions (see [`pin`]). Those decisions
    /// never enter an unsatisfiable call's core, which names assumptions
    /// only. The satisfiable call ends the loop, and its model is the
    /// **canonical** optimum: the loop's final assumptions admit only models
    /// of the optimal cost (the WPM1 invariant), and under them the first
    /// model is the lexicographic optimum over the pins — a pin left false
    /// is implied by the assumptions and the earlier pins, so no model that
    /// agrees on those earlier pins can satisfy its soft clause.
    ///
    /// The canonical optimum is a semantic object — a function of the
    /// instance, not of the search path — so different clause layouts and
    /// preprocessed/unpreprocessed encodings of the same instance all
    /// converge to the same `falsified` set.
    fn solve_fu_malik(
        &mut self,
        solver: &mut Solver,
        instance: &MaxSatInstance,
    ) -> Option<MaxSatResult> {
        let budget = self.budget;
        // Working representation of each (possibly relaxed / split) soft
        // clause: its literals, remaining weight and current selector.
        struct WorkSoft {
            lits: Vec<Lit>,
            weight: u64,
            selector: Lit,
        }
        let mut work: Vec<WorkSoft> = Vec::new();
        // One pin per non-empty soft clause, in `SoftId` order. A soft
        // clause's pin is also its first selector: the literal of a unit,
        // an indicator implying a longer clause.
        let mut pins: Vec<Lit> = Vec::new();
        let mut base_cost = 0u64;
        for soft in instance.soft_clauses() {
            if soft.clause.is_empty() {
                // An empty soft clause can never be satisfied.
                base_cost += soft.weight;
                continue;
            }
            let selector = pin(solver, &soft.clause);
            work.push(WorkSoft {
                lits: soft.clause.lits().to_vec(),
                weight: soft.weight,
                selector,
            });
            pins.push(selector);
        }
        // The assumption vector is `work`'s selector column, maintained
        // incrementally (`assumptions[i] == work[i].selector`) instead of
        // being rebuilt from scratch on every SAT call.
        let mut assumptions = pins.clone();
        // The greedy oracle refines the loop's model itself, so the loop
        // must not already hand it the canonical one.
        #[cfg(test)]
        let pins = if self.greedy_oracle { Vec::new() } else { pins };

        let mut cost = base_cost;
        loop {
            debug_assert_eq!(assumptions.len(), work.len());
            self.stats.sat_calls += 1;
            match self.sat_call(solver, &assumptions, &pins, budget)? {
                SatResult::Sat => {
                    let model = truncate_model(solver, instance.num_vars());
                    #[cfg(test)]
                    let model = match self.greedy_oracle {
                        true => greedy_oracle::canonicalize(
                            self,
                            solver,
                            instance,
                            &assumptions,
                            model,
                            budget,
                        )?,
                        false => model,
                    };
                    let falsified = falsified_soft(instance, &model);
                    return Some(MaxSatResult::Optimum(MaxSatSolution {
                        cost,
                        model,
                        falsified,
                    }));
                }
                SatResult::Unsat => {
                    let core = solver.unsat_core();
                    if core.is_empty() {
                        return Some(MaxSatResult::HardUnsat);
                    }
                    self.stats.cores += 1;
                    // Hash the core's selectors once: the scan over all work
                    // clauses is then O(softs), not O(cores × softs). Two
                    // unit softs on one literal share a selector and are
                    // relaxed together, which is relaxing a larger core.
                    let core_set: std::collections::HashSet<Lit> = core.iter().copied().collect();
                    let core_indices: Vec<usize> = work
                        .iter()
                        .enumerate()
                        .filter(|(_, w)| core_set.contains(&w.selector))
                        .map(|(i, _)| i)
                        .collect();
                    debug_assert!(!core_indices.is_empty());
                    let w_min = core_indices
                        .iter()
                        .map(|&i| work[i].weight)
                        .min()
                        .expect("core maps to at least one soft clause");
                    cost += w_min;

                    let mut relax_vars = Vec::with_capacity(core_indices.len());
                    for &i in &core_indices {
                        let relax = solver.new_var().positive();
                        let new_selector = solver.new_var().positive();
                        relax_vars.push(relax);
                        let mut relaxed = work[i].lits.clone();
                        relaxed.push(relax);
                        let mut with_selector = relaxed.clone();
                        with_selector.push(!new_selector);
                        solver.add_clause(with_selector);
                        if work[i].weight == w_min {
                            // The whole clause moves to its relaxed copy.
                            work[i] = WorkSoft {
                                lits: relaxed,
                                weight: w_min,
                                selector: new_selector,
                            };
                            assumptions[i] = new_selector;
                        } else {
                            // Split: the original keeps the residual weight,
                            // the relaxed copy carries w_min.
                            work[i].weight -= w_min;
                            work.push(WorkSoft {
                                lits: relaxed,
                                weight: w_min,
                                selector: new_selector,
                            });
                            assumptions.push(new_selector);
                        }
                    }
                    encode_exactly_one(solver, &relax_vars);
                }
            }
        }
    }
}

/// Convenience function: solve with a default [`MaxSatSolver`].
pub fn solve(instance: &MaxSatInstance) -> MaxSatResult {
    MaxSatSolver::default().solve(instance)
}

/// A literal that, assumed or decided true, makes `clause` satisfied: the
/// literal itself for a unit clause, otherwise a fresh indicator `t` with
/// `t → clause`. The indicator occurs nowhere else, so the clause it adds
/// never constrains a later solve.
fn pin(solver: &mut Solver, clause: &sat::Clause) -> Lit {
    if let [lit] = clause.lits() {
        return *lit;
    }
    let t = solver.new_var().positive();
    solver.add_clause(std::iter::once(!t).chain(clause.lits().iter().copied()));
    t
}

fn truncate_model(solver: &Solver, num_vars: usize) -> Vec<bool> {
    let mut model = solver.model();
    model.resize(num_vars, false);
    model.truncate(num_vars);
    model
}

fn falsified_soft(instance: &MaxSatInstance, model: &[bool]) -> Vec<SoftId> {
    instance
        .soft_clauses()
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.clause.eval(model))
        .map(|(i, _)| SoftId(i))
        .collect()
}

fn check_solution(instance: &MaxSatInstance, result: &MaxSatResult) -> bool {
    match result {
        MaxSatResult::HardUnsat | MaxSatResult::Expired => true,
        MaxSatResult::Optimum(sol) => {
            let recomputed: u64 = sol
                .falsified
                .iter()
                .map(|id| instance.soft(*id).weight)
                .sum();
            instance.cost_of(&sol.model) == Some(recomputed) && recomputed == sol.cost
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat::Lit;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn all_soft_satisfiable() {
        let mut inst = MaxSatInstance::new();
        inst.add_hard(vec![lit(1), lit(2)]);
        inst.add_soft(vec![lit(1)], 1);
        inst.add_soft(vec![lit(2)], 1);
        let sol = solve(&inst).into_optimum().unwrap();
        assert_eq!(sol.cost, 0);
        assert!(sol.falsified.is_empty());
    }

    #[test]
    fn one_of_two_conflicting_soft_units() {
        let mut inst = MaxSatInstance::new();
        inst.ensure_vars(1);
        inst.add_soft(vec![lit(1)], 1);
        inst.add_soft(vec![lit(-1)], 1);
        let sol = solve(&inst).into_optimum().unwrap();
        assert_eq!(sol.cost, 1);
        assert_eq!(sol.falsified.len(), 1);
    }

    #[test]
    fn weights_pick_the_cheaper_sacrifice() {
        let mut inst = MaxSatInstance::new();
        inst.ensure_vars(1);
        inst.add_soft(vec![lit(1)], 10);
        inst.add_soft(vec![lit(-1)], 1);
        let sol = solve(&inst).into_optimum().unwrap();
        assert_eq!(sol.cost, 1);
        assert_eq!(sol.falsified, vec![SoftId(1)]);
        assert!(sol.model[0]);
    }

    #[test]
    fn hard_unsat_detected() {
        let mut inst = MaxSatInstance::new();
        inst.add_hard(vec![lit(1)]);
        inst.add_hard(vec![lit(-1)]);
        inst.add_soft(vec![lit(2)], 1);
        assert!(solve(&inst).is_hard_unsat());
        // A refutation found while loading is definitive even when the
        // budget is already spent.
        let mut solver = MaxSatSolver::default();
        solver.set_budget(Budget {
            deadline: None,
            conflict_cap: Some(0),
        });
        assert!(solver.solve(&inst).is_hard_unsat());
    }

    #[test]
    fn hard_clauses_are_respected() {
        // Hard: x1. Soft: !x1 (w 5), x2 (w 1), !x2 (w 1).
        let mut inst = MaxSatInstance::new();
        inst.add_hard(vec![lit(1)]);
        inst.add_soft(vec![lit(-1)], 5);
        inst.add_soft(vec![lit(2)], 1);
        inst.add_soft(vec![lit(-2)], 1);
        let sol = solve(&inst).into_optimum().unwrap();
        assert_eq!(sol.cost, 6);
        assert!(sol.model[0]);
        assert!(sol.falsified.contains(&SoftId(0)));
    }

    #[test]
    fn empty_soft_clause_contributes_to_cost() {
        let mut inst = MaxSatInstance::new();
        inst.ensure_vars(1);
        inst.add_soft(Vec::<Lit>::new(), 7);
        inst.add_soft(vec![lit(1)], 1);
        let sol = solve(&inst).into_optimum().unwrap();
        assert_eq!(sol.cost, 7);
        assert_eq!(sol.falsified, vec![SoftId(0)]);
    }

    #[test]
    fn no_soft_clauses_is_plain_sat() {
        let mut inst = MaxSatInstance::new();
        inst.add_hard(vec![lit(1), lit(2)]);
        inst.add_hard(vec![lit(-1)]);
        let sol = solve(&inst).into_optimum().unwrap();
        assert_eq!(sol.cost, 0);
        assert!(sol.model[1]);
    }

    #[test]
    fn selector_style_instance_mimicking_bugassist() {
        // Three "statements" with selectors s1..s3; enabling all three
        // contradicts the hard input/assertion constraints, and the cheapest
        // fix is to disable exactly one specific statement.
        let mut inst = MaxSatInstance::new();
        inst.ensure_vars(5);
        let (s1, s2, s3, x, y) = (lit(1), lit(2), lit(3), lit(4), lit(5));
        // Hard: input fixes x, assertion requires !y.
        inst.add_hard(vec![x]);
        inst.add_hard(vec![!y]);
        // Statement 1 (guarded by s1): x -> y   i.e. (!s1 | !x | y)
        inst.add_hard(vec![!s1, !x, y]);
        // Statement 2 (guarded by s2): y -> x (consistent, never blamed)
        inst.add_hard(vec![!s2, !y, x]);
        // Statement 3 (guarded by s3): true -> x (consistent)
        inst.add_hard(vec![!s3, x]);
        inst.add_soft(vec![s1], 1);
        inst.add_soft(vec![s2], 1);
        inst.add_soft(vec![s3], 1);
        let sol = solve(&inst).into_optimum().unwrap();
        assert_eq!(sol.cost, 1);
        assert_eq!(
            sol.falsified,
            vec![SoftId(0)],
            "only statement 1 is to blame"
        );
    }

    #[test]
    fn wide_cores_are_relaxed_and_answers_are_canonical() {
        // Eight soft units x1..x8 against one hard clause forbidding them
        // all: the (unique, minimal) core is all eight units — above the
        // pairwise threshold, so its exactly-one is the sequential ladder.
        // The folded refinement must then blame exactly the *highest* soft
        // id (the canonical optimum keeps low ids satisfied).
        let mut inst = MaxSatInstance::new();
        inst.ensure_vars(8);
        inst.add_hard((1..=8).map(|v| lit(-v)).collect::<Vec<_>>());
        for v in 1..=8 {
            inst.add_soft(vec![lit(v)], 1);
        }
        let mut solver = MaxSatSolver::default();
        let sol = solver.solve(&inst).into_optimum().expect("satisfiable");
        assert_eq!(sol.cost, 1);
        assert_eq!(sol.falsified, vec![SoftId(7)], "canonical blame");
    }

    #[test]
    fn canonical_refinement_is_strategy_independent() {
        // Several equal-cost optima: any one of x1..x4 can absorb the
        // conflict with x5. The one-call refinement and the greedy oracle
        // walk must land on the same canonical falsified set (keep low ids
        // satisfied => blame the highest id possible), byte-identically.
        let mut inst = MaxSatInstance::new();
        inst.ensure_vars(5);
        for v in 1..=4 {
            inst.add_soft(vec![lit(v)], 1);
        }
        inst.add_soft(vec![lit(-1), lit(-2), lit(-3), lit(-4)], 2);
        let one_call = solve(&inst).into_optimum().unwrap();
        let mut greedy = MaxSatSolver {
            greedy_oracle: true,
            ..MaxSatSolver::default()
        };
        let greedy = greedy.solve(&inst).into_optimum().unwrap();
        assert_eq!(one_call.cost, greedy.cost);
        assert_eq!(one_call.falsified, greedy.falsified);
        assert_eq!(one_call.falsified, vec![SoftId(3)], "blame the highest id");
    }

    #[test]
    fn every_optimum_costs_one_sat_call_per_core_plus_one() {
        use crate::encodings::PAIRWISE_AT_MOST_ONE_MAX;
        use prng::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(0x7819);
        for case in 0..50 {
            // The second half adds `wide` soft units that one hard clause
            // forbids all at once: a core above the pairwise threshold, so
            // its exactly-one is the sequential ladder.
            let wide = match case {
                0..25 => 0,
                _ => PAIRWISE_AT_MOST_ONE_MAX + 1 + (rng.next_u64() % 3) as usize,
            };
            let num_vars = (3 + (rng.next_u64() % 4) as usize).max(wide);
            let mut inst = MaxSatInstance::new();
            inst.ensure_vars(num_vars);
            if wide > 0 {
                inst.add_hard((1..=wide as i64).map(|v| lit(-v)).collect::<Vec<_>>());
                for v in 1..=wide as i64 {
                    inst.add_soft(vec![lit(v)], 1 + rng.next_u64() % 3);
                }
            }
            for _ in 0..(2 + rng.next_u64() % 6) {
                let len = 1 + (rng.next_u64() % 2) as usize;
                let clause: Vec<Lit> = (0..len)
                    .map(|_| {
                        let v = 1 + (rng.next_u64() % num_vars as u64) as i64;
                        lit(if rng.next_u64() & 1 == 0 { v } else { -v })
                    })
                    .collect();
                inst.add_soft(clause, 1 + rng.next_u64() % 3);
            }
            let mut solver = MaxSatSolver::default();
            solver
                .solve(&inst)
                .into_optimum()
                .expect("no hard conflict");
            // One UNSAT call per core, then the one SAT call whose model is
            // already canonical.
            let stats = solver.stats();
            assert!(wide == 0 || stats.cores >= 1, "case {case}");
            assert_eq!(stats.sat_calls, stats.cores + 1, "case {case}: {inst:?}");
        }
    }

    #[test]
    fn core_free_solve_on_a_loaded_solver_is_one_call_and_no_variables() {
        // Unit softs are their own assumptions: a solve that meets no core
        // adds no selector, so the loaded solver keeps its variable and
        // clause counts.
        const N: i64 = 12;
        let mut inst = MaxSatInstance::new();
        inst.ensure_vars(N as usize + 1);
        for v in 1..=N {
            inst.add_hard(vec![lit(v), lit(N + 1)]);
            inst.add_soft(vec![lit(-v)], 1);
        }
        let mut sat = Solver::from_formula(inst.hard());
        let (vars, clauses) = (sat.num_vars(), sat.num_clauses());
        let mut solver = MaxSatSolver::default();
        let sol = solver.solve_loaded(&mut sat, &inst).into_optimum().unwrap();
        assert_eq!(sol.cost, 0);
        assert_eq!(solver.stats().sat_calls, 1);
        assert_eq!(solver.stats().cores, 0);
        assert_eq!((sat.num_vars(), sat.num_clauses()), (vars, clauses));
    }

    #[test]
    fn expired_budget_without_a_model_returns_expired() {
        // A deadline already in the past stops the very first SAT call, so
        // no model can be found: the budgeted solve must report Expired —
        // never panic, never fabricate a solution.
        let mut inst = MaxSatInstance::new();
        inst.ensure_vars(1);
        inst.add_soft(vec![lit(1)], 1);
        inst.add_soft(vec![lit(-1)], 1);
        let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
        let mut solver = MaxSatSolver::default();
        solver.set_budget(Budget::with_deadline(past));
        let result = solver.solve(&inst);
        assert_eq!(result, MaxSatResult::Expired);
        assert!(!result.is_complete());
        assert!(result.optimum().is_none());
        // Lifting the budget restores the exact answer.
        solver.set_budget(Budget::UNLIMITED);
        assert_eq!(solver.solve(&inst).into_optimum().expect("optimum").cost, 1);
    }

    #[test]
    fn zero_conflict_cap_is_an_exhausted_budget() {
        let mut inst = MaxSatInstance::new();
        inst.ensure_vars(1);
        inst.add_soft(vec![lit(1)], 1);
        inst.add_soft(vec![lit(-1)], 1);
        let mut solver = MaxSatSolver::default();
        solver.set_budget(Budget {
            deadline: None,
            conflict_cap: Some(0),
        });
        assert_eq!(solver.solve(&inst), MaxSatResult::Expired);
    }

    /// Two solves on one loaded SAT solver, the way the localizer
    /// enumerates: pigeonhole with one pigeon too many, then the first
    /// answer's blamed pigeon made hard and the other pigeons soft again.
    /// Returns each solve's result and stats, plus the solver's cumulative
    /// conflict count.
    fn two_ranks_on_one_solver(budget: Budget) -> (Vec<(MaxSatResult, MaxSatStats)>, u64) {
        const PIGEONS: usize = 7;
        const HOLES: usize = PIGEONS - 1;
        let at = |p: usize, h: usize| sat::Var::from_index(p * HOLES + h).positive();
        let mut inst = MaxSatInstance::new();
        inst.ensure_vars(PIGEONS * HOLES);
        for h in 0..HOLES {
            for p in 0..PIGEONS {
                for q in p + 1..PIGEONS {
                    inst.add_hard(vec![!at(p, h), !at(q, h)]);
                }
            }
        }
        let placed = |p: usize| (0..HOLES).map(|h| at(p, h)).collect::<Vec<_>>();
        for p in 0..PIGEONS {
            inst.add_soft(placed(p), 1);
        }
        let mut sat = Solver::from_formula(inst.hard());
        let mut solver = MaxSatSolver::default();
        solver.set_budget(budget);
        let first = solver.solve_loaded(&mut sat, &inst);
        let first_stats = solver.stats();
        let blamed = first.optimum().expect("first rank").falsified[0].index();
        sat.add_clause(placed(blamed));
        inst.add_hard(placed(blamed));
        inst.clear_soft();
        for p in (0..PIGEONS).filter(|&p| p != blamed) {
            inst.add_soft(placed(p), 1);
        }
        let second = solver.solve_loaded(&mut sat, &inst);
        let ranks = vec![(first, first_stats), (second, solver.stats())];
        (ranks, sat.stats().conflicts)
    }

    #[test]
    fn conflict_cap_and_stats_are_per_solve_on_a_shared_solver() {
        // A cap at least each solve's own conflicts but below their sum:
        // measured from each solve's start, it lets both solves finish; a
        // cap on the solver's cumulative count would cut the second one.
        let (free, total) = two_ranks_on_one_solver(Budget::UNLIMITED);
        let (c1, c2) = (free[0].1.conflicts, free[1].1.conflicts);
        assert_eq!(c1 + c2, total, "stats are per-solve deltas");
        assert!(c1.min(c2) > 1, "{c1} and {c2} conflicts");
        let cap = c1.max(c2) + 1;
        assert!(cap < c1 + c2);
        let budget = Budget {
            deadline: None,
            conflict_cap: Some(cap),
        };
        let (capped, _) = two_ranks_on_one_solver(budget);
        for ((result, stats), (free_result, free_stats)) in capped.iter().zip(&free) {
            assert!(result.optimum().is_some(), "{result:?}");
            assert_eq!(result, free_result);
            assert_eq!(stats.sat_calls, free_stats.sat_calls);
            assert_eq!(stats.conflicts, free_stats.conflicts);
        }
    }

    #[test]
    fn stats_are_collected() {
        let mut inst = MaxSatInstance::new();
        inst.ensure_vars(2);
        inst.add_soft(vec![lit(1)], 1);
        inst.add_soft(vec![lit(-1)], 1);
        inst.add_soft(vec![lit(2)], 1);
        let mut solver = MaxSatSolver::default();
        let _ = solver.solve(&inst);
        assert!(solver.stats().sat_calls >= 2);
        assert!(solver.stats().cores >= 1);
    }
}
