//! Conflict-driven clause-learning (CDCL) SAT solver.
//!
//! The design follows MiniSAT 2.2: two-watched-literal propagation, first-UIP
//! conflict analysis with clause learning and non-chronological backjumping,
//! VSIDS variable activities, phase saving, Luby restarts, and incremental
//! solving under assumptions with extraction of the subset of assumptions
//! responsible for unsatisfiability (the "final conflict", used as an
//! unsatisfiable core by the MAX-SAT engine).
//!
//! The clause database is a flat [`ClauseArena`]: clauses are slices of one
//! contiguous `u32` buffer addressed by [`ClauseRef`]s, the hot loops
//! (`propagate`, `analyze`) never allocate, and the learnt-clause database is
//! periodically reduced (activity/LBD-scored, MiniSAT-style) with a copying
//! garbage collection pass that relocates live clauses and remaps watchers
//! and reasons.

use crate::arena::{ClauseArena, ClauseRef};
use crate::cnf::CnfFormula;
use crate::heap::VarOrderHeap;
use crate::types::{LBool, Lit, Var};

/// Result of a [`Solver::solve`] / [`Solver::solve_assuming`] call.
///
/// # Examples
///
/// ```
/// use sat::{Solver, SatResult};
/// let mut solver = Solver::new();
/// let a = solver.new_var().positive();
/// solver.add_clause([a]);
/// assert_eq!(solver.solve(), SatResult::Sat);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum SatResult {
    /// The formula (under the given assumptions) is satisfiable; a model is
    /// available via [`Solver::model_value`] / [`Solver::model`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable; the
    /// conflicting subset of assumptions is available via
    /// [`Solver::unsat_core`].
    Unsat,
}

impl SatResult {
    /// Returns `true` iff the result is [`SatResult::Sat`].
    pub fn is_sat(self) -> bool {
        self == SatResult::Sat
    }

    /// Returns `true` iff the result is [`SatResult::Unsat`].
    pub fn is_unsat(self) -> bool {
        self == SatResult::Unsat
    }
}

/// Counters describing the work performed by a [`Solver`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of top-level `solve*` calls.
    pub solves: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database.
    pub learnt_clauses: u64,
    /// Number of problem (original) clauses added.
    pub original_clauses: u64,
    /// Number of learnt-clause database reductions ([`reduce_db`] passes).
    ///
    /// [`reduce_db`]: Solver::set_clause_reduction
    pub reduce_dbs: u64,
    /// Total learnt clauses deleted by database reductions.
    pub removed_learnts: u64,
    /// Current size of the clause arena in bytes.
    pub arena_bytes: u64,
}

#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

#[derive(Clone, Copy, Debug, Default)]
struct VarData {
    reason: Option<ClauseRef>,
    level: usize,
}

const VAR_RESCALE_LIMIT: f64 = 1e100;
const VAR_RESCALE_FACTOR: f64 = 1e-100;
const CLA_RESCALE_LIMIT: f64 = 1e20;
const CLA_RESCALE_FACTOR: f64 = 1e-20;
/// Learnt clauses with an LBD at or below this are "glue" and never deleted.
const GLUE_LBD: u32 = 2;

/// A CDCL SAT solver.
///
/// # Examples
///
/// Basic satisfiability with a model:
///
/// ```
/// use sat::{Solver, SatResult};
/// let mut solver = Solver::new();
/// let a = solver.new_var().positive();
/// let b = solver.new_var().positive();
/// solver.add_clause([a, b]);
/// solver.add_clause([!a]);
/// assert_eq!(solver.solve(), SatResult::Sat);
/// assert_eq!(solver.model_value(b), Some(true));
/// ```
///
/// Unsatisfiable core over assumptions:
///
/// ```
/// use sat::{Solver, SatResult};
/// let mut solver = Solver::new();
/// let a = solver.new_var().positive();
/// let b = solver.new_var().positive();
/// solver.add_clause([!a, !b]);
/// let result = solver.solve_assuming(&[a, b]);
/// assert_eq!(result, SatResult::Unsat);
/// let core = solver.unsat_core().to_vec();
/// assert!(core.contains(&a) || core.contains(&b));
/// ```
#[derive(Clone, Debug)]
pub struct Solver {
    arena: ClauseArena,
    /// Problem clauses, as arena references.
    clauses: Vec<ClauseRef>,
    /// Learnt clauses, as arena references.
    learnts: Vec<ClauseRef>,
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    polarity: Vec<bool>,
    vardata: Vec<VarData>,
    activity: Vec<f64>,
    order_heap: VarOrderHeap,
    decision: Vec<bool>,

    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,

    var_inc: f64,
    var_decay: f64,
    cla_inc: f64,
    cla_decay: f64,

    /// Learnt-clause database reduction on/off (default on).
    reduce_enabled: bool,
    /// Optional override of the initial reduction trigger.
    reduce_base: Option<usize>,
    /// Current reduction trigger: reduce once `learnts.len()` reaches this.
    learnt_cap: usize,

    ok: bool,
    model: Vec<LBool>,
    conflict: Vec<Lit>,

    seen: Vec<bool>,
    analyze_toclear: Vec<Lit>,
    /// Per-decision-level stamps for LBD computation.
    lbd_seen: Vec<u64>,
    lbd_stamp: u64,

    stats: SolverStats,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver with no variables and no clauses.
    pub fn new() -> Solver {
        Solver {
            arena: ClauseArena::new(),
            clauses: Vec::new(),
            learnts: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            polarity: Vec::new(),
            vardata: Vec::new(),
            activity: Vec::new(),
            order_heap: VarOrderHeap::new(),
            decision: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            var_inc: 1.0,
            var_decay: 0.95,
            cla_inc: 1.0,
            cla_decay: 0.999,
            reduce_enabled: true,
            reduce_base: None,
            learnt_cap: usize::MAX,
            ok: true,
            model: Vec::new(),
            conflict: Vec::new(),
            seen: Vec::new(),
            analyze_toclear: Vec::new(),
            lbd_seen: Vec::new(),
            lbd_stamp: 0,
            stats: SolverStats::default(),
        }
    }

    /// Creates a solver pre-loaded with the clauses of a [`CnfFormula`].
    ///
    /// The clause arena is pre-sized for the whole formula, so loading does a
    /// single allocation instead of one per clause.
    pub fn from_formula(formula: &CnfFormula) -> Solver {
        let mut solver = Solver::new();
        solver.ensure_vars(formula.num_vars());
        solver
            .arena
            .reserve(formula.num_literals() + formula.num_clauses());
        for clause in formula.iter() {
            solver.add_clause(clause.lits().iter().copied());
        }
        solver
    }

    /// Enables or disables learnt-clause database reduction (default:
    /// enabled). With reduction on, the solver periodically deletes
    /// low-activity, high-LBD learnt clauses and garbage-collects the arena;
    /// answers (SAT/UNSAT, models' validity, core soundness) are unaffected,
    /// but long incremental runs stop degrading as learnt clauses accumulate.
    pub fn set_clause_reduction(&mut self, enabled: bool) {
        self.reduce_enabled = enabled;
    }

    /// Overrides the initial learnt-clause count that triggers a database
    /// reduction (`None` restores the default `max(100, clauses/3)`
    /// schedule). Mainly a testing/tuning knob: a tiny base forces frequent
    /// reductions and arena collections even on small instances.
    pub fn set_reduce_base(&mut self, base: Option<usize>) {
        self.reduce_base = base;
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let index = self.assigns.len();
        self.assigns.push(LBool::Undef);
        self.polarity.push(false);
        self.vardata.push(VarData::default());
        self.activity.push(0.0);
        self.decision.push(true);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        let var = Var::from_index(index);
        self.order_heap.grow_to(index + 1);
        self.order_heap.insert(var, &self.activity);
        var
    }

    /// Ensures that variables with indices `< n` exist.
    pub fn ensure_vars(&mut self, n: usize) {
        while self.assigns.len() < n {
            self.new_var();
        }
    }

    /// Number of variables known to the solver.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of original (problem) clauses added.
    pub fn num_clauses(&self) -> usize {
        self.stats.original_clauses as usize
    }

    /// Returns the accumulated statistics.
    ///
    /// `learnt_clauses` and `arena_bytes` are snapshots of the current
    /// database; the remaining counters are cumulative.
    pub fn stats(&self) -> SolverStats {
        let mut stats = self.stats;
        stats.learnt_clauses = self.learnts.len() as u64;
        stats.arena_bytes = self.arena.bytes() as u64;
        stats
    }

    /// Returns `false` if the clause database has already been proven
    /// unsatisfiable at the top level.
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// Adds a clause. Returns `false` if the clause database is now known to
    /// be unsatisfiable at the top level (e.g. an empty clause was added or a
    /// top-level conflict followed).
    ///
    /// Tautological clauses are silently dropped; literals already falsified
    /// at the top level are removed.
    pub fn add_clause<I>(&mut self, lits: I) -> bool
    where
        I: IntoIterator<Item = Lit>,
    {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return false;
        }
        let mut clause: Vec<Lit> = lits.into_iter().collect();
        for &lit in &clause {
            self.ensure_vars(lit.var().index() + 1);
        }
        clause.sort_unstable();
        clause.dedup();
        // Drop tautologies and literals satisfied/falsified at level 0.
        let mut simplified = Vec::with_capacity(clause.len());
        let mut i = 0;
        while i < clause.len() {
            let lit = clause[i];
            if i + 1 < clause.len() && clause[i + 1] == !lit {
                return true; // tautology
            }
            match self.value(lit) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => {}          // drop falsified literal
                LBool::Undef => simplified.push(lit),
            }
            i += 1;
        }
        self.stats.original_clauses += 1;
        match simplified.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(simplified[0], None);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.attach_new_clause(&simplified, false);
                true
            }
        }
    }

    /// Adds every clause of a [`CnfFormula`]. Returns `false` if the database
    /// became unsatisfiable.
    pub fn add_formula(&mut self, formula: &CnfFormula) -> bool {
        self.ensure_vars(formula.num_vars());
        self.arena
            .reserve(formula.num_literals() + formula.num_clauses());
        for clause in formula.iter() {
            if !self.add_clause(clause.lits().iter().copied()) {
                return false;
            }
        }
        self.ok
    }

    fn attach_new_clause(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.arena.alloc(lits, learnt);
        self.watches[(!lits[0]).code()].push(Watcher {
            cref,
            blocker: lits[1],
        });
        self.watches[(!lits[1]).code()].push(Watcher {
            cref,
            blocker: lits[0],
        });
        if learnt {
            self.learnts.push(cref);
        } else {
            self.clauses.push(cref);
        }
        cref
    }

    /// Current decision level.
    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    /// Truth value of a literal under the current partial assignment.
    fn value(&self, lit: Lit) -> LBool {
        self.assigns[lit.var().index()].xor(lit.is_negative())
    }

    fn var_level(&self, var: Var) -> usize {
        self.vardata[var.index()].level
    }

    fn var_reason(&self, var: Var) -> Option<ClauseRef> {
        self.vardata[var.index()].reason
    }

    fn unchecked_enqueue(&mut self, lit: Lit, reason: Option<ClauseRef>) {
        debug_assert!(self.value(lit).is_undef());
        self.assigns[lit.var().index()] = LBool::from_bool(lit.is_positive());
        self.vardata[lit.var().index()] = VarData {
            reason,
            level: self.decision_level(),
        };
        self.trail.push(lit);
    }

    /// Unit propagation. Returns the reference of a conflicting clause, or
    /// `None` if a fixed point was reached without conflict.
    ///
    /// The watcher list of the propagated literal is compacted in place with
    /// a read/write cursor pair — no buffer is taken out and no fresh vector
    /// is allocated per literal. Watches moved to another literal can never
    /// land back in the list being scanned (the new watch is non-false while
    /// `!p` is false), so plain index-based access is sound.
    fn propagate(&mut self) -> Option<ClauseRef> {
        let mut conflict = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let p_code = p.code();
            let false_lit = !p;

            let n = self.watches[p_code].len();
            let mut i = 0;
            let mut j = 0;
            'watchers: while i < n {
                let w = self.watches[p_code][i];
                i += 1;
                // Fast path: blocker already true.
                if self.value(w.blocker).is_true() {
                    self.watches[p_code][j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.cref;
                // Make sure the false literal is at position 1.
                if self.arena.lit(cref, 0) == false_lit {
                    self.arena.swap_lits(cref, 0, 1);
                }
                debug_assert_eq!(self.arena.lit(cref, 1), false_lit);
                let first = self.arena.lit(cref, 0);
                let new_watcher = Watcher {
                    cref,
                    blocker: first,
                };
                if first != w.blocker && self.value(first).is_true() {
                    self.watches[p_code][j] = new_watcher;
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.arena.len(cref);
                for k in 2..len {
                    let lk = self.arena.lit(cref, k);
                    if !self.value(lk).is_false() {
                        self.arena.swap_lits(cref, 1, k);
                        self.watches[(!lk).code()].push(new_watcher);
                        continue 'watchers;
                    }
                }
                // No new watch found: clause is unit or conflicting.
                self.watches[p_code][j] = new_watcher;
                j += 1;
                if self.value(first).is_false() {
                    conflict = Some(cref);
                    self.qhead = self.trail.len();
                    // Keep the unscanned tail of the list.
                    while i < n {
                        self.watches[p_code][j] = self.watches[p_code][i];
                        i += 1;
                        j += 1;
                    }
                } else {
                    self.unchecked_enqueue(first, Some(cref));
                }
            }
            self.watches[p_code].truncate(j);
            if conflict.is_some() {
                break;
            }
        }
        conflict
    }

    fn var_bump_activity(&mut self, var: Var) {
        self.activity[var.index()] += self.var_inc;
        if self.activity[var.index()] > VAR_RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= VAR_RESCALE_FACTOR;
            }
            self.var_inc *= VAR_RESCALE_FACTOR;
        }
        self.order_heap.on_activity_increased(var, &self.activity);
    }

    fn var_decay_activity(&mut self) {
        self.var_inc /= self.var_decay;
    }

    fn cla_bump_activity(&mut self, cref: ClauseRef) {
        let bumped = self.arena.activity(cref) as f64 + self.cla_inc;
        self.arena.set_activity(cref, bumped as f32);
        if bumped > CLA_RESCALE_LIMIT {
            for &c in &self.learnts {
                let rescaled = self.arena.activity(c) as f64 * CLA_RESCALE_FACTOR;
                self.arena.set_activity(c, rescaled as f32);
            }
            self.cla_inc *= CLA_RESCALE_FACTOR;
        }
    }

    fn cla_decay_activity(&mut self) {
        self.cla_inc /= self.cla_decay;
    }

    /// Number of distinct decision levels among `lits` (the literal-block
    /// distance of a learnt clause, Glucose-style).
    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_stamp += 1;
        let mut lbd = 0u32;
        for &lit in lits {
            let level = self.var_level(lit.var());
            if level >= self.lbd_seen.len() {
                self.lbd_seen.resize(level + 1, 0);
            }
            if self.lbd_seen[level] != self.lbd_stamp {
                self.lbd_seen[level] = self.lbd_stamp;
                lbd += 1;
            }
        }
        lbd
    }

    /// First-UIP conflict analysis. Returns the learnt clause (with the
    /// asserting literal first) and the backjump level.
    ///
    /// Resolution steps read the conflicting/reason clauses directly out of
    /// the arena by index — no per-step clone of the literal vector.
    fn analyze(&mut self, mut confl: ClauseRef) -> (Vec<Lit>, usize) {
        let mut learnt: Vec<Lit> = vec![Lit::from_code(0)]; // placeholder for asserting literal
        let mut path_count = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();

        loop {
            if self.arena.is_learnt(confl) {
                self.cla_bump_activity(confl);
            }
            let start = usize::from(p.is_some());
            let len = self.arena.len(confl);
            for k in start..len {
                let q = self.arena.lit(confl, k);
                let v = q.var();
                if !self.seen[v.index()] && self.var_level(v) > 0 {
                    self.var_bump_activity(v);
                    self.seen[v.index()] = true;
                    if self.var_level(v) >= self.decision_level() {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next literal on the trail to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            p = Some(lit);
            self.seen[lit.var().index()] = false;
            path_count -= 1;
            if path_count == 0 {
                break;
            }
            confl = self
                .var_reason(lit.var())
                .expect("non-decision literal must have a reason during analysis");
        }
        learnt[0] = !p.expect("analysis visited at least one literal");

        // Simple (non-recursive) learnt clause minimization: drop literals
        // whose reason clause is entirely subsumed by the remaining clause.
        self.analyze_toclear.clear();
        self.analyze_toclear.extend_from_slice(&learnt);
        let mut write = 1;
        for read in 1..learnt.len() {
            let lit = learnt[read];
            let redundant = match self.var_reason(lit.var()) {
                None => false,
                Some(reason) => (1..self.arena.len(reason)).all(|k| {
                    let q = self.arena.lit(reason, k);
                    self.seen[q.var().index()] || self.var_level(q.var()) == 0
                }),
            };
            if !redundant {
                learnt[write] = lit;
                write += 1;
            }
        }
        learnt.truncate(write);

        // Clear the seen flags.
        for k in 0..self.analyze_toclear.len() {
            let lit = self.analyze_toclear[k];
            self.seen[lit.var().index()] = false;
        }
        self.analyze_toclear.clear();

        // Compute the backjump level and place a literal of that level at
        // position 1 (the second watch).
        let backtrack_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.var_level(learnt[i].var()) > self.var_level(learnt[max_i].var()) {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.var_level(learnt[1].var())
        };
        (learnt, backtrack_level)
    }

    /// Computes the subset of assumptions responsible for forcing `p` to be
    /// false (MiniSAT's `analyzeFinal`). The result is stored in
    /// `self.conflict` as the set of *assumption literals* that cannot all
    /// hold (i.e. already negated back from MiniSAT's clause convention).
    fn analyze_final(&mut self, p: Lit) {
        self.conflict.clear();
        self.conflict.push(p);
        if self.decision_level() == 0 {
            // `p` was falsified by the clause database alone; the core is the
            // single assumption `!p`.
            self.conflict = vec![!p];
            return;
        }
        self.seen[p.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let lit = self.trail[i];
            let v = lit.var();
            if !self.seen[v.index()] {
                continue;
            }
            match self.var_reason(v) {
                None => {
                    debug_assert!(self.var_level(v) > 0);
                    self.conflict.push(!lit);
                }
                Some(reason) => {
                    for k in 1..self.arena.len(reason) {
                        let q = self.arena.lit(reason, k);
                        if self.var_level(q.var()) > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
            }
            self.seen[v.index()] = false;
        }
        self.seen[p.var().index()] = false;
        // MiniSAT's convention collects the *negations* of the conflicting
        // assumptions (the implied clause). Flip back so that the public core
        // is a subset of the assumption literals themselves.
        for lit in &mut self.conflict {
            *lit = !*lit;
        }
    }

    /// `true` iff the clause is the reason of a currently assigned literal
    /// (and therefore must not be deleted).
    fn is_locked(&self, cref: ClauseRef) -> bool {
        let first = self.arena.lit(cref, 0);
        self.value(first).is_true() && self.var_reason(first.var()) == Some(cref)
    }

    /// MiniSAT-style learnt-database reduction: delete the low-activity half
    /// of the learnt clauses (protecting binary, glue-LBD and locked
    /// clauses), then garbage-collect the arena.
    fn reduce_db(&mut self) {
        self.stats.reduce_dbs += 1;
        let mut learnts = std::mem::take(&mut self.learnts);
        // Lowest activity first; ties broken towards higher LBD (worse).
        learnts.sort_by(|&a, &b| {
            self.arena
                .activity(a)
                .total_cmp(&self.arena.activity(b))
                .then_with(|| self.arena.lbd(b).cmp(&self.arena.lbd(a)))
        });
        let extra_lim = self.cla_inc / learnts.len().max(1) as f64;
        let half = learnts.len() / 2;
        let mut kept = Vec::with_capacity(learnts.len());
        for (rank, &cref) in learnts.iter().enumerate() {
            let protected = self.arena.len(cref) == 2
                || self.arena.lbd(cref) <= GLUE_LBD
                || self.is_locked(cref);
            let expendable = rank < half || (self.arena.activity(cref) as f64) < extra_lim;
            if !protected && expendable {
                self.arena.mark_deleted(cref);
                self.stats.removed_learnts += 1;
            } else {
                kept.push(cref);
            }
        }
        self.learnts = kept;
        // Grow the trigger so reductions back off as the database earns its
        // keep (MiniSAT's learntsize_inc schedule).
        self.learnt_cap += self.learnt_cap / 10 + 1;
        // Collection is what actually detaches the deleted clauses (their
        // watchers are dropped during the rebuild), so it must run whenever
        // anything has been marked — but when every learnt was protected
        // there is nothing to reclaim and the full arena copy is skipped.
        if self.arena.wasted_words() > 0 {
            self.garbage_collect();
        }
    }

    /// Copies every live clause into a fresh arena and remaps all references
    /// to it: the problem/learnt clause lists, the reasons of every literal
    /// on the trail, and the watcher lists (rebuilt from the clauses' watched
    /// literal positions, which drops watchers of deleted clauses for free).
    fn garbage_collect(&mut self) {
        let mut to = ClauseArena::with_capacity(self.arena.live_words());
        for cref in &mut self.clauses {
            *cref = self.arena.relocate(*cref, &mut to);
        }
        for cref in &mut self.learnts {
            *cref = self.arena.relocate(*cref, &mut to);
        }
        // Only currently assigned variables can have their reason read before
        // it is overwritten by the next assignment, so the trail bounds the
        // set of reasons that must be remapped. Locked clauses are never
        // deleted, so every reason is live.
        for i in 0..self.trail.len() {
            let v = self.trail[i].var();
            if let Some(reason) = self.vardata[v.index()].reason {
                self.vardata[v.index()].reason = Some(self.arena.relocate(reason, &mut to));
            }
        }
        for list in &mut self.watches {
            list.clear();
        }
        for &cref in self.clauses.iter().chain(self.learnts.iter()) {
            let l0 = to.lit(cref, 0);
            let l1 = to.lit(cref, 1);
            self.watches[(!l0).code()].push(Watcher { cref, blocker: l1 });
            self.watches[(!l1).code()].push(Watcher { cref, blocker: l0 });
        }
        self.arena = to;
    }

    /// Backtracks to the given decision level, undoing assignments and saving
    /// phases.
    fn cancel_until(&mut self, level: usize) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level];
        for i in (bound..self.trail.len()).rev() {
            let lit = self.trail[i];
            let v = lit.var();
            self.assigns[v.index()] = LBool::Undef;
            self.polarity[v.index()] = lit.is_positive();
            if !self.order_heap.contains(v) {
                self.order_heap.insert(v, &self.activity);
            }
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(level);
        self.qhead = self.trail.len();
    }

    fn pick_branch_lit(&mut self) -> Option<Lit> {
        loop {
            let var = self.order_heap.pop_max(&self.activity)?;
            if self.assigns[var.index()].is_undef() && self.decision[var.index()] {
                let lit = Lit::new(var, self.polarity[var.index()]);
                return Some(lit);
            }
        }
    }

    /// One restart-bounded search episode. Returns `LBool::True` if a model
    /// was found, `LBool::False` on (assumption-relative) unsatisfiability,
    /// and `LBool::Undef` if the conflict budget was exhausted.
    fn search(&mut self, conflict_budget: u64, assumptions: &[Lit]) -> LBool {
        let mut conflicts = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    self.conflict.clear();
                    return LBool::False;
                }
                let (learnt, backtrack_level) = self.analyze(confl);
                // LBD uses the levels at conflict time, before backjumping.
                let lbd = self.compute_lbd(&learnt);
                self.cancel_until(backtrack_level);
                if learnt.len() == 1 {
                    self.unchecked_enqueue(learnt[0], None);
                } else {
                    let asserting = learnt[0];
                    let cref = self.attach_new_clause(&learnt, true);
                    self.arena.set_lbd(cref, lbd);
                    self.cla_bump_activity(cref);
                    self.unchecked_enqueue(asserting, Some(cref));
                }
                self.var_decay_activity();
                self.cla_decay_activity();
            } else {
                if conflicts >= conflict_budget {
                    self.cancel_until(0);
                    return LBool::Undef;
                }
                if self.reduce_enabled && self.learnts.len() >= self.learnt_cap {
                    self.reduce_db();
                }
                // Establish assumptions, then decide.
                let mut next = None;
                while self.decision_level() < assumptions.len() {
                    let p = assumptions[self.decision_level()];
                    match self.value(p) {
                        LBool::True => self.new_decision_level(),
                        LBool::False => {
                            self.analyze_final(!p);
                            return LBool::False;
                        }
                        LBool::Undef => {
                            next = Some(p);
                            break;
                        }
                    }
                }
                let next = match next {
                    Some(p) => p,
                    None => match self.pick_branch_lit() {
                        Some(p) => {
                            self.stats.decisions += 1;
                            p
                        }
                        None => return LBool::True,
                    },
                };
                self.new_decision_level();
                self.unchecked_enqueue(next, None);
            }
        }
    }

    /// Solves the clause database without assumptions.
    pub fn solve(&mut self) -> SatResult {
        self.solve_assuming(&[])
    }

    /// Solves the clause database under the given assumption literals.
    ///
    /// On [`SatResult::Sat`], a model is available via [`Solver::model_value`]
    /// and [`Solver::model`]. On [`SatResult::Unsat`], [`Solver::unsat_core`]
    /// returns a subset of `assumptions` that is inconsistent with the clause
    /// database (empty if the database is unsatisfiable on its own).
    pub fn solve_assuming(&mut self, assumptions: &[Lit]) -> SatResult {
        self.solve_assuming_budgeted(assumptions, None, None)
            .expect("an unbudgeted solve always completes")
    }

    /// Like [`Solver::solve_assuming`], but gives up once `deadline` has
    /// passed or more than `max_conflicts` conflicts have been spent *in this
    /// call*. Both limits are polled at restart boundaries (every few hundred
    /// conflicts), so overshoot is bounded by one restart interval. `None`
    /// means the call was cut short; the solver keeps its learnt clauses and
    /// can resume later.
    pub fn solve_assuming_budgeted(
        &mut self,
        assumptions: &[Lit],
        deadline: Option<std::time::Instant>,
        max_conflicts: Option<u64>,
    ) -> Option<SatResult> {
        self.stats.solves += 1;
        self.model.clear();
        self.conflict.clear();
        if !self.ok {
            return Some(SatResult::Unsat);
        }
        for &lit in assumptions {
            self.ensure_vars(lit.var().index() + 1);
        }
        self.learnt_cap = self
            .reduce_base
            .unwrap_or_else(|| (self.clauses.len() / 3).max(100));

        let conflicts_at_entry = self.stats.conflicts;
        let mut restarts = 0u64;
        let status = loop {
            if let Some(deadline) = deadline {
                if std::time::Instant::now() >= deadline {
                    self.cancel_until(0);
                    return None;
                }
            }
            if let Some(cap) = max_conflicts {
                if self.stats.conflicts - conflicts_at_entry >= cap {
                    self.cancel_until(0);
                    return None;
                }
            }
            let budget = luby(2.0, restarts) * 100.0;
            let status = self.search(budget as u64, assumptions);
            if !status.is_undef() {
                break status;
            }
            restarts += 1;
            self.stats.restarts += 1;
        };

        let result = match status {
            LBool::True => {
                self.model = self.assigns.clone();
                SatResult::Sat
            }
            LBool::False => SatResult::Unsat,
            LBool::Undef => unreachable!("search loop only exits on a definite result"),
        };
        self.cancel_until(0);
        Some(result)
    }

    /// Returns the value of `lit` in the most recent model, or `None` if the
    /// last call was not satisfiable or the literal's variable is unknown.
    pub fn model_value(&self, lit: Lit) -> Option<bool> {
        self.model
            .get(lit.var().index())
            .and_then(|v| v.xor(lit.is_negative()).to_option())
    }

    /// Returns the most recent model as one Boolean per variable (variables
    /// not constrained by any clause default to `false`).
    pub fn model(&self) -> Vec<bool> {
        self.model
            .iter()
            .map(|v| v.to_option().unwrap_or(false))
            .collect()
    }

    /// Returns the subset of the last `solve_assuming` call's assumptions that
    /// was found to be inconsistent with the clause database.
    ///
    /// The returned literals are assumption literals (not negated). An empty
    /// core after an Unsat answer means the clause database itself is
    /// unsatisfiable.
    pub fn unsat_core(&self) -> &[Lit] {
        &self.conflict
    }

    /// Returns `true` if the literal is assigned at the top level (entailed by
    /// unit propagation of the clause database alone).
    pub fn fixed_at_top_level(&self, lit: Lit) -> LBool {
        if lit.var().index() >= self.num_vars() {
            return LBool::Undef;
        }
        if self.var_level(lit.var()) == 0 {
            self.value(lit)
        } else {
            LBool::Undef
        }
    }
}

/// The Luby restart sequence scaled by `y` (MiniSAT's `luby`).
fn luby(y: f64, mut x: u64) -> f64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    y.powi(seq as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(solver_vars: &[Var], dimacs: i64) -> Lit {
        let var = solver_vars[dimacs.unsigned_abs() as usize - 1];
        var.lit(dimacs > 0)
    }

    fn make_solver(num_vars: usize) -> (Solver, Vec<Var>) {
        let mut solver = Solver::new();
        let vars: Vec<Var> = (0..num_vars).map(|_| solver.new_var()).collect();
        (solver, vars)
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut solver = Solver::new();
        assert_eq!(solver.solve(), SatResult::Sat);
    }

    #[test]
    fn unit_clauses_propagate() {
        let (mut solver, vars) = make_solver(2);
        solver.add_clause([lit(&vars, 1)]);
        solver.add_clause([lit(&vars, -1), lit(&vars, 2)]);
        assert_eq!(solver.solve(), SatResult::Sat);
        assert_eq!(solver.model_value(lit(&vars, 1)), Some(true));
        assert_eq!(solver.model_value(lit(&vars, 2)), Some(true));
    }

    #[test]
    fn direct_contradiction_is_unsat() {
        let (mut solver, vars) = make_solver(1);
        solver.add_clause([lit(&vars, 1)]);
        let ok = solver.add_clause([lit(&vars, -1)]);
        assert!(!ok);
        assert_eq!(solver.solve(), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // 3 pigeons, 2 holes: p[i][h] means pigeon i in hole h.
        let (mut solver, vars) = make_solver(6);
        let p = |i: usize, h: usize| vars[i * 2 + h].positive();
        for i in 0..3 {
            solver.add_clause([p(i, 0), p(i, 1)]);
        }
        for h in 0..2 {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    solver.add_clause([!p(i, h), !p(j, h)]);
                }
            }
        }
        assert_eq!(solver.solve(), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_3_is_sat() {
        let (mut solver, vars) = make_solver(9);
        let p = |i: usize, h: usize| vars[i * 3 + h].positive();
        for i in 0..3 {
            solver.add_clause([p(i, 0), p(i, 1), p(i, 2)]);
        }
        for h in 0..3 {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    solver.add_clause([!p(i, h), !p(j, h)]);
                }
            }
        }
        assert_eq!(solver.solve(), SatResult::Sat);
        // Verify the model: every pigeon somewhere, no two share a hole.
        let in_hole: Vec<Vec<bool>> = (0..3)
            .map(|i| {
                (0..3)
                    .map(|h| solver.model_value(p(i, h)).unwrap())
                    .collect()
            })
            .collect();
        for row in &in_hole {
            assert!(row.iter().any(|&b| b));
        }
        for h in 0..3 {
            assert!(in_hole.iter().filter(|row| row[h]).count() <= 1);
        }
    }

    #[test]
    fn xor_chain_is_solved() {
        // x1 xor x2 = 1, x2 xor x3 = 1, x1 xor x3 = 0 is satisfiable.
        let (mut solver, vars) = make_solver(3);
        let xor = |solver: &mut Solver, a: Lit, b: Lit, val: bool| {
            if val {
                solver.add_clause([a, b]);
                solver.add_clause([!a, !b]);
            } else {
                solver.add_clause([!a, b]);
                solver.add_clause([a, !b]);
            }
        };
        let (x1, x2, x3) = (vars[0].positive(), vars[1].positive(), vars[2].positive());
        xor(&mut solver, x1, x2, true);
        xor(&mut solver, x2, x3, true);
        xor(&mut solver, x1, x3, false);
        assert_eq!(solver.solve(), SatResult::Sat);
        let m1 = solver.model_value(x1).unwrap();
        let m2 = solver.model_value(x2).unwrap();
        let m3 = solver.model_value(x3).unwrap();
        assert!(m1 ^ m2);
        assert!(m2 ^ m3);
        assert!(!(m1 ^ m3));
    }

    #[test]
    fn assumptions_restrict_models() {
        let (mut solver, vars) = make_solver(2);
        solver.add_clause([lit(&vars, 1), lit(&vars, 2)]);
        assert_eq!(solver.solve_assuming(&[lit(&vars, -1)]), SatResult::Sat);
        assert_eq!(solver.model_value(lit(&vars, 2)), Some(true));
        assert_eq!(
            solver.solve_assuming(&[lit(&vars, -1), lit(&vars, -2)]),
            SatResult::Unsat
        );
        let core = solver.unsat_core().to_vec();
        assert!(!core.is_empty());
        assert!(core
            .iter()
            .all(|l| [lit(&vars, -1), lit(&vars, -2)].contains(l)));
    }

    #[test]
    fn unsat_core_is_relevant_subset() {
        // a1 -> x, a2 -> !x, a3 unrelated. Core must be within {a1, a2}.
        let (mut solver, vars) = make_solver(4);
        let (a1, a2, a3, x) = (
            vars[0].positive(),
            vars[1].positive(),
            vars[2].positive(),
            vars[3].positive(),
        );
        solver.add_clause([!a1, x]);
        solver.add_clause([!a2, !x]);
        let result = solver.solve_assuming(&[a1, a2, a3]);
        assert_eq!(result, SatResult::Unsat);
        let core = solver.unsat_core().to_vec();
        assert!(!core.is_empty());
        assert!(core.iter().all(|l| *l == a1 || *l == a2), "core {core:?}");
        // Solving again without the core assumption succeeds.
        assert_eq!(solver.solve_assuming(&[a1, a3]), SatResult::Sat);
    }

    #[test]
    fn solver_is_reusable_after_unsat_assumptions() {
        let (mut solver, vars) = make_solver(2);
        solver.add_clause([lit(&vars, 1), lit(&vars, 2)]);
        assert_eq!(
            solver.solve_assuming(&[lit(&vars, -1), lit(&vars, -2)]),
            SatResult::Unsat
        );
        assert_eq!(solver.solve(), SatResult::Sat);
        assert_eq!(solver.solve_assuming(&[lit(&vars, -2)]), SatResult::Sat);
        assert_eq!(solver.model_value(lit(&vars, 1)), Some(true));
    }

    #[test]
    fn top_level_empty_clause() {
        let mut solver = Solver::new();
        let ok = solver.add_clause([]);
        assert!(!ok);
        assert_eq!(solver.solve(), SatResult::Unsat);
        assert!(solver.unsat_core().is_empty());
    }

    #[test]
    fn random_3sat_models_are_verified() {
        // Deterministic LCG so the test is reproducible without `rand`.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for instance in 0..30 {
            let num_vars = 12 + instance % 5;
            let num_clauses = 3 * num_vars;
            let (mut solver, vars) = make_solver(num_vars);
            let mut formula = CnfFormula::with_vars(num_vars);
            for _ in 0..num_clauses {
                let mut clause = Vec::new();
                for _ in 0..3 {
                    let v = next() % num_vars;
                    let sign = next() % 2 == 0;
                    clause.push(vars[v].lit(sign));
                }
                solver.add_clause(clause.iter().copied());
                formula.add_clause(clause);
            }
            if solver.solve() == SatResult::Sat {
                let model = solver.model();
                assert!(formula.eval(&model), "model must satisfy the formula");
            } else {
                // Cross-check with the brute-force reference solver.
                assert!(
                    crate::reference::brute_force_satisfiable(&formula).is_none(),
                    "CDCL said UNSAT but brute force found a model"
                );
            }
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let seq: Vec<f64> = (0..9).map(|i| luby(2.0, i)).collect();
        assert_eq!(seq, vec![1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 4.0, 1.0, 1.0]);
    }

    #[test]
    fn stats_are_populated() {
        let (mut solver, vars) = make_solver(6);
        let p = |i: usize, h: usize| vars[i * 2 + h].positive();
        for i in 0..3 {
            solver.add_clause([p(i, 0), p(i, 1)]);
        }
        for h in 0..2 {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    solver.add_clause([!p(i, h), !p(j, h)]);
                }
            }
        }
        solver.solve();
        let stats = solver.stats();
        assert!(stats.conflicts > 0);
        assert!(stats.propagations > 0);
        assert!(stats.arena_bytes > 0);
        assert_eq!(stats.solves, 1);
    }

    /// A hard-enough UNSAT instance with a tiny forced reduction trigger:
    /// several reduce/GC cycles must run and the answer must stay correct.
    #[test]
    fn forced_reduction_keeps_answers() {
        fn pigeonhole(solver: &mut Solver, pigeons: usize, holes: usize) {
            let vars: Vec<Vec<Var>> = (0..pigeons)
                .map(|_| (0..holes).map(|_| solver.new_var()).collect())
                .collect();
            for row in &vars {
                solver.add_clause(row.iter().map(|v| v.positive()));
            }
            for (i, row_i) in vars.iter().enumerate() {
                for row_j in &vars[i + 1..] {
                    for (a, b) in row_i.iter().zip(row_j) {
                        solver.add_clause([a.negative(), b.negative()]);
                    }
                }
            }
        }
        let mut solver = Solver::new();
        solver.set_reduce_base(Some(8));
        pigeonhole(&mut solver, 6, 5);
        assert_eq!(solver.solve(), SatResult::Unsat);
        let stats = solver.stats();
        assert!(stats.reduce_dbs > 0, "reduction never triggered");
        assert!(
            stats.removed_learnts > 0,
            "reduction never removed a clause"
        );

        let mut plain = Solver::new();
        plain.set_clause_reduction(false);
        pigeonhole(&mut plain, 6, 5);
        assert_eq!(plain.solve(), SatResult::Unsat);
        assert_eq!(plain.stats().reduce_dbs, 0);
    }

    /// Incremental solving across forced GC cycles: answers and models stay
    /// correct after the arena has been rebuilt mid-run.
    #[test]
    fn forced_reduction_with_incremental_assumptions() {
        let mut solver = Solver::new();
        solver.set_reduce_base(Some(4));
        let vals: Vec<Var> = (0..31).map(|_| solver.new_var()).collect();
        let sels: Vec<Var> = (0..30).map(|_| solver.new_var()).collect();
        solver.add_clause([vals[0].positive()]);
        solver.add_clause([vals[30].negative()]);
        for i in 0..30 {
            solver.add_clause([
                sels[i].negative(),
                vals[i].negative(),
                vals[i + 1].positive(),
            ]);
        }
        let all: Vec<Lit> = sels.iter().map(|s| s.positive()).collect();
        assert_eq!(solver.solve_assuming(&all), SatResult::Unsat);
        assert!(!solver.unsat_core().is_empty());
        for drop in 0..30 {
            let assumptions: Vec<Lit> = sels
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != drop)
                .map(|(_, s)| s.positive())
                .collect();
            assert_eq!(
                solver.solve_assuming(&assumptions),
                SatResult::Sat,
                "dropping selector {drop} must restore satisfiability"
            );
        }
    }

    /// Budgeted solving gives up (returning `None`) once the per-call
    /// conflict cap or the wall-clock deadline is hit, and the solver stays
    /// usable afterwards: lifting the budget completes the solve.
    #[test]
    fn budgeted_solve_gives_up_and_can_resume() {
        fn pigeonhole(solver: &mut Solver, pigeons: usize, holes: usize) {
            let vars: Vec<Vec<Var>> = (0..pigeons)
                .map(|_| (0..holes).map(|_| solver.new_var()).collect())
                .collect();
            for row in &vars {
                solver.add_clause(row.iter().map(|v| v.positive()));
            }
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    for (a, b) in vars[p1].iter().zip(&vars[p2]) {
                        solver.add_clause([a.negative(), b.negative()]);
                    }
                }
            }
        }
        // A conflict cap of zero trips at the very first restart boundary.
        let mut solver = Solver::new();
        pigeonhole(&mut solver, 7, 6);
        assert_eq!(solver.solve_assuming_budgeted(&[], None, Some(0)), None);
        // An already-expired deadline does the same.
        let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
        assert_eq!(solver.solve_assuming_budgeted(&[], Some(past), None), None);
        // With the budget lifted the same solver finishes the proof.
        assert_eq!(
            solver.solve_assuming_budgeted(&[], None, None),
            Some(SatResult::Unsat)
        );
    }
}
