//! Selector-aware CNF preprocessing (SatELite-style).
//!
//! The BugAssist pipeline hands the MAX-SAT engine a *hard* clause set that
//! comes straight out of Tseitin bit-blasting, and Tseitin output is
//! famously redundant: constant units that were never propagated, clauses
//! subsumed by their neighbours, and thousands of auxiliary variables whose
//! definitions can be resolved away. This module shrinks that hard part
//! before any solving happens, with the classic SatELite tool-chain
//! ("Effective Preprocessing in SAT" — Eén & Biere):
//!
//! * **root-level unit propagation** — units are applied, satisfied clauses
//!   dropped, falsified literals struck;
//! * **tautology and duplicate-literal removal** on ingestion;
//! * **subsumption** and **self-subsuming resolution** (strengthening);
//! * **bounded variable elimination** (resolution that does not grow the
//!   clause count) plus **pure-literal elimination**.
//!
//! Two things make it *selector-aware* rather than a generic preprocessor:
//!
//! 1. A caller-supplied **frozen** set of variables is never eliminated and
//!    never loses a derived unit (frozen units stay in the output formula).
//!    The localizer freezes every selector variable, every test-input bit
//!    and the property literal — the variables that later receive soft
//!    units, assumptions, blocking clauses and hard test/property units.
//!    Soft structure is the unit of blame and survives verbatim.
//! 2. A **model-reconstruction map** ([`ModelReconstruction`]) is returned
//!    so any model of the simplified formula extends to a model of the
//!    original one, eliminated auxiliary variables included. The localizer
//!    drops it, since it reads every answer off the frozen selectors; a
//!    reader of full models re-derives it by rerunning the simplifier,
//!    whose output is deterministic.
//!
//! Everything is deterministic: no hash-map iteration orders leak into the
//! output, so the same input always produces byte-identical results.
//!
//! # Data structures
//!
//! The output is a function of the input formula, the frozen set and the
//! config, and it is pinned bit for bit (clause order, reconstruction bytes,
//! stats): reports, the warm solve path and persisted prepared formulas all
//! depend on it. The data structures below only make reaching it cheaper.
//!
//! * **Flat clause arena.** All clause literals live back to back in one
//!   `Vec<Lit>`, each clause described by a small header (offset, length,
//!   variable signature). Ingestion copies from the input slice with
//!   stamp-based duplicate/tautology checks; strengthening shifts literals
//!   in place; removal zeroes the header's length.
//! * **Lazy occurrence lists with stale counts.** Removal never unlinks a
//!   clause from its literals' occurrence lists; a per-literal count of the
//!   stale ids lets cleaning skip lists that have none. Lists are cleaned
//!   in place and iterated by index; they stay sorted by clause id, which
//!   is the order every scan visits candidates in.
//! * **Allocation-free elimination check.** A stamp-based dry run counts
//!   and length-checks every resolvent of a candidate variable without
//!   building one; the resolvents are built straight into the arena only
//!   once the elimination is accepted.
//! * **Touched-variable scheduling.** A variable whose elimination attempt
//!   failed is retried in a later pass only after a clause containing it
//!   was added, strengthened or removed. The attempt reads nothing else,
//!   so it would fail again, and skipping it leaves the output unchanged.
//! * **Flat reconstruction.** The clauses saved by eliminations sit back to
//!   back in one literal vector as well.
//!
//! # Examples
//!
//! ```
//! use sat::{simplify, CnfFormula, Lit, SimplifyConfig};
//! let mut cnf = CnfFormula::new();
//! let (a, b, c) = (Lit::from_dimacs(1), Lit::from_dimacs(2), Lit::from_dimacs(3));
//! cnf.add_clause(vec![a]);            // unit: a is true
//! cnf.add_clause(vec![!a, b, c]);     // becomes (b ∨ c)
//! cnf.add_clause(vec![b, c]);         // duplicate after propagation
//! let simplified = simplify(&cnf, &[b.var(), c.var()], &SimplifyConfig::default());
//! assert!(!simplified.unsat);
//! assert!(simplified.cnf.num_clauses() < cnf.num_clauses());
//! // Any model of the simplified formula extends to one of the original.
//! let mut model = vec![false; cnf.num_vars()];
//! model[b.var().index()] = true;
//! simplified.reconstruction.extend(&mut model);
//! assert!(cnf.eval(&model));
//! ```

use crate::bytes::{ByteReader, ByteWriter, DecodeError};
use crate::cnf::CnfFormula;
use crate::types::{LBool, Lit, Var};
use std::collections::VecDeque;
use std::ops::Range;

/// Tuning knobs of [`simplify`]. The defaults are conservative enough to be
/// run on every prepared trace formula.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimplifyConfig {
    /// Run subsumption + self-subsuming resolution.
    pub subsumption: bool,
    /// Run bounded variable elimination (and pure-literal elimination).
    pub var_elim: bool,
    /// Variables occurring in more clauses than this are never elimination
    /// candidates (their resolvent set is too expensive to even try).
    pub max_var_occurrences: usize,
    /// Elimination is abandoned when it would create a resolvent longer than
    /// this.
    pub max_resolvent_len: usize,
    /// Clauses longer than this are not used as subsumers (long clauses
    /// almost never subsume anything; checking them is wasted work).
    pub max_subsumer_len: usize,
    /// Upper bound on simplification passes (each pass = propagate,
    /// subsume, eliminate); the loop stops early at a fixpoint.
    pub max_passes: usize,
    /// Formulas with more clauses than this get the linear-time treatment
    /// only (unit propagation, tautology/duplicate removal): subsumption and
    /// variable elimination are skipped so preparation time stays bounded on
    /// pathological million-clause encodes.
    pub max_clauses: usize,
}

impl Default for SimplifyConfig {
    fn default() -> SimplifyConfig {
        SimplifyConfig {
            subsumption: true,
            var_elim: true,
            max_var_occurrences: 24,
            max_resolvent_len: 32,
            max_subsumer_len: 24,
            // The first pass captures most of the shrinkage; a few more pick
            // up the second-order eliminations the first one exposes without
            // letting preparation time balloon.
            max_passes: 4,
            max_clauses: 400_000,
        }
    }
}

/// Work counters of one [`simplify`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimplifyStats {
    /// Clauses in the input formula.
    pub clauses_before: usize,
    /// Clauses in the simplified formula.
    pub clauses_after: usize,
    /// Total literal occurrences in the input formula.
    pub literals_before: usize,
    /// Total literal occurrences in the simplified formula.
    pub literals_after: usize,
    /// Root-level unit assignments derived (frozen and free alike).
    pub units_fixed: u64,
    /// Tautological input clauses dropped.
    pub tautologies_removed: u64,
    /// Duplicate literals struck from input clauses.
    pub duplicate_lits_removed: u64,
    /// Clauses removed because another clause subsumes them.
    pub clauses_subsumed: u64,
    /// Literals removed by self-subsuming resolution.
    pub lits_strengthened: u64,
    /// Variables eliminated by bounded variable elimination or pure-literal
    /// elimination.
    pub vars_eliminated: u64,
}

/// One undo record of the reconstruction stack, in chronological order.
#[derive(Clone, Debug, PartialEq, Eq)]
enum RecStep {
    /// A non-frozen variable was fixed at the root level; clauses mentioning
    /// it were removed or strengthened accordingly.
    Fixed { var: Var, value: bool },
    /// A variable was resolved away; `clauses` indexes the saved clauses
    /// ([`ModelReconstruction::saved`]) that contained it at elimination
    /// time (needed to pick its value back).
    Eliminated { var: Var, clauses: Range<usize> },
}

/// Extends models of the simplified formula back to the original variable
/// space (inverse of variable elimination and root-level fixing).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ModelReconstruction {
    steps: Vec<RecStep>,
    /// The saved clauses of every elimination, back to back.
    lits: Vec<Lit>,
    /// Saved clause `i` is `lits[ends[i - 1]..ends[i]]` (from 0 for `i = 0`).
    ends: Vec<usize>,
}

impl ModelReconstruction {
    /// Number of recorded reconstruction steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` when nothing was eliminated or fixed (extension is a no-op).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Where saved clause `i` lives in `lits`.
    fn saved_range(&self, i: usize) -> Range<usize> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        start..self.ends[i]
    }

    /// Saved clause `i` of the flat store.
    fn saved(&self, i: usize) -> &[Lit] {
        &self.lits[self.saved_range(i)]
    }

    /// Appends one saved clause to the flat store.
    fn save(&mut self, clause: &[Lit]) {
        self.lits.extend_from_slice(clause);
        self.ends.push(self.lits.len());
    }

    /// Rewrites `model` — a satisfying assignment of the *simplified*
    /// formula, indexed by variable — into a satisfying assignment of the
    /// *original* formula. Variables the simplifier removed get their values
    /// back; all other entries are left untouched.
    pub fn extend(&self, model: &mut Vec<bool>) {
        for step in self.steps.iter().rev() {
            match step {
                RecStep::Fixed { var, value } => {
                    if model.len() <= var.index() {
                        model.resize(var.index() + 1, false);
                    }
                    model[var.index()] = *value;
                }
                RecStep::Eliminated { var, clauses } => {
                    if model.len() <= var.index() {
                        model.resize(var.index() + 1, false);
                    }
                    // The variable must satisfy every clause it was resolved
                    // out of. At most one polarity is ever *demanded* (else
                    // some resolvent would be falsified, contradicting the
                    // model), so satisfy the positive demands and default to
                    // false.
                    let mut value = false;
                    for clause in clauses.clone().map(|i| self.saved(i)) {
                        let satisfied_without = clause.iter().any(|&l| {
                            l.var() != *var
                                && model.get(l.var().index()).copied().unwrap_or(false)
                                    == l.is_positive()
                        });
                        if !satisfied_without {
                            let own = clause
                                .iter()
                                .find(|l| l.var() == *var)
                                .expect("saved clause contains its variable");
                            value = own.is_positive();
                        }
                    }
                    model[var.index()] = value;
                }
            }
        }
    }

    /// Appends this reconstruction map to `w` (see [`crate::bytes`]): a
    /// stable byte fingerprint of what the simplifier recorded. Nothing
    /// decodes it; a prepared localizer does not keep the map.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.write_usize(self.steps.len());
        for step in &self.steps {
            match step {
                RecStep::Fixed { var, value } => {
                    w.write_u8(0);
                    w.write_usize(var.index());
                    w.write_u8(u8::from(*value));
                }
                RecStep::Eliminated { var, clauses } => {
                    w.write_u8(1);
                    w.write_usize(var.index());
                    w.write_usize(clauses.len());
                    for clause in clauses.clone().map(|i| self.saved(i)) {
                        w.write_usize(clause.len());
                        for lit in clause {
                            w.write_usize(lit.code());
                        }
                    }
                }
            }
        }
    }
}

impl SimplifyStats {
    /// Appends these counters to `w` for the persistent prepared-formula
    /// store (see [`crate::bytes`]).
    pub fn encode(&self, w: &mut ByteWriter) {
        w.write_usize(self.clauses_before);
        w.write_usize(self.clauses_after);
        w.write_usize(self.literals_before);
        w.write_usize(self.literals_after);
        w.write_u64(self.units_fixed);
        w.write_u64(self.tautologies_removed);
        w.write_u64(self.duplicate_lits_removed);
        w.write_u64(self.clauses_subsumed);
        w.write_u64(self.lits_strengthened);
        w.write_u64(self.vars_eliminated);
    }

    /// Reads back counters written by [`SimplifyStats::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> Result<SimplifyStats, DecodeError> {
        Ok(SimplifyStats {
            clauses_before: r.read_usize()?,
            clauses_after: r.read_usize()?,
            literals_before: r.read_usize()?,
            literals_after: r.read_usize()?,
            units_fixed: r.read_u64()?,
            tautologies_removed: r.read_u64()?,
            duplicate_lits_removed: r.read_u64()?,
            clauses_subsumed: r.read_u64()?,
            lits_strengthened: r.read_u64()?,
            vars_eliminated: r.read_u64()?,
        })
    }
}

/// The result of [`simplify`]: the shrunk formula, the map back to the
/// original model space, and the work counters.
#[derive(Clone, Debug)]
pub struct Simplified {
    /// The simplified formula. Variable indices are **unchanged** (no
    /// renumbering); eliminated variables simply no longer occur. When
    /// `unsat` is set the formula contains a single empty clause.
    pub cnf: CnfFormula,
    /// Extends models of `cnf` to models of the input formula.
    pub reconstruction: ModelReconstruction,
    /// What the run did.
    pub stats: SimplifyStats,
    /// The input formula was proved unsatisfiable at the root level.
    pub unsat: bool,
}

/// Where one stored clause lives in the flat literal store. Stored clauses
/// always keep at least two literals, so `len == 0` marks a removed one.
#[derive(Clone, Copy)]
struct Header {
    start: u32,
    len: u32,
    /// [`signature`] of the clause at ingestion: a superset of its current
    /// variables once literals are struck, so still safe for rejecting
    /// subset tests.
    signature: u32,
    /// A literal was struck since ingestion, so an occurrence-list entry
    /// may be stale even while the clause is stored.
    struck: bool,
}

/// Bloom signature of a clause's variables: when `signature(C)` has a bit
/// `signature(D)` lacks, some variable of C is missing from D.
fn signature(clause: &[Lit]) -> u32 {
    clause
        .iter()
        .fold(0, |sig, lit| sig | 1 << (lit.var().index() % 32))
}

/// Clause id: the clause's position in insertion order.
type ClauseId = u32;

struct Simplifier<'a> {
    config: &'a SimplifyConfig,
    /// The literals of every stored clause, back to back. Clauses only
    /// shrink, so strengthening works in place; removal leaves a hole.
    lits: Vec<Lit>,
    /// One header per clause ever stored, indexed by [`ClauseId`].
    headers: Vec<Header>,
    /// Occurrence lists per literal code (lazily cleaned of stale ids).
    /// Ids only ever join a list at ingestion, so every list is sorted.
    occ: Vec<Vec<ClauseId>>,
    /// Per literal code: how many ids in its occurrence list are stale.
    /// Cleaning a list without any is skipped.
    stale: Vec<u32>,
    assign: Vec<LBool>,
    frozen: Vec<bool>,
    /// Per variable: a clause containing it was added, strengthened or
    /// removed since its last failed elimination attempt. An untouched
    /// variable would fail again on the very same clauses, so elimination
    /// skips it.
    touched: Vec<bool>,
    units: VecDeque<Lit>,
    /// Clause ids whose subsumption power has not been exploited yet.
    subsumption_queue: VecDeque<ClauseId>,
    rec: ModelReconstruction,
    stats: SimplifyStats,
    /// Subset-test stamps, one per literal code.
    stamps: Vec<u64>,
    stamp_generation: u64,
    /// Reusable copy of the current subsumer.
    subsumer: Vec<Lit>,
}

/// Runs the preprocessing pipeline over `formula`.
///
/// `frozen` lists the variables the caller will constrain *after*
/// simplification (selectors, assumption literals, anything read off the
/// model): they are never eliminated, and units derived about them are kept
/// in the output formula so later external units still conflict correctly.
///
/// The returned formula keeps the input's variable numbering.
pub fn simplify(formula: &CnfFormula, frozen: &[Var], config: &SimplifyConfig) -> Simplified {
    let num_vars = formula.num_vars();
    let mut frozen_mask = vec![false; num_vars];
    for var in frozen {
        if var.index() < num_vars {
            frozen_mask[var.index()] = true;
        }
    }
    let mut occurrences = vec![0; 2 * num_vars];
    for clause in formula.iter() {
        for lit in clause {
            occurrences[lit.code()] += 1;
        }
    }
    // Resolvents about double the clause store and the occurrence lists of
    // a Tseitin formula; reserving for them up front saves the regrowth.
    let growth = if formula.num_clauses() <= config.max_clauses {
        3
    } else {
        1
    };
    let mut simp = Simplifier {
        config,
        lits: Vec::with_capacity(growth * formula.num_literals()),
        headers: Vec::with_capacity(growth * formula.num_clauses()),
        occ: occurrences
            .into_iter()
            .map(|n| Vec::with_capacity(growth * n))
            .collect(),
        stale: vec![0; 2 * num_vars],
        assign: vec![LBool::Undef; num_vars],
        frozen: frozen_mask,
        touched: vec![true; num_vars],
        units: VecDeque::new(),
        subsumption_queue: VecDeque::new(),
        rec: ModelReconstruction::default(),
        stats: SimplifyStats {
            clauses_before: formula.num_clauses(),
            literals_before: formula.num_literals(),
            ..SimplifyStats::default()
        },
        stamps: vec![0; 2 * num_vars],
        stamp_generation: 0,
        subsumer: Vec::new(),
    };
    let unsat = !simp.run(formula);

    let cnf = if unsat {
        let mut cnf = CnfFormula::with_vars(num_vars);
        cnf.add_clause([]);
        cnf
    } else {
        // Frozen root-level units survive as unit clauses (their variables
        // stay externally meaningful); free fixed variables live only in the
        // reconstruction map.
        let units: Vec<Lit> = (0..num_vars)
            .filter(|&index| simp.frozen[index])
            .filter_map(|index| {
                let value = simp.assign[index].to_option()?;
                Some(Var::from_index(index).lit(value))
            })
            .collect();
        let live = simp.headers.iter().filter(|h| h.len > 0);
        let mut cnf = CnfFormula::with_capacity(
            num_vars,
            units.len() + live.clone().count(),
            units.len() + live.map(|h| h.len as usize).sum::<usize>(),
        );
        for unit in units {
            cnf.add_unit(unit);
        }
        for id in 0..simp.headers.len() {
            let clause = simp.clause(id as ClauseId);
            if !clause.is_empty() {
                cnf.add_clause(clause.iter().copied());
            }
        }
        cnf
    };
    simp.stats.clauses_after = cnf.num_clauses();
    simp.stats.literals_after = cnf.num_literals();
    Simplified {
        cnf,
        reconstruction: simp.rec,
        stats: simp.stats,
        unsat,
    }
}

impl<'a> Simplifier<'a> {
    /// Executes the pipeline; `false` means root-level UNSAT.
    fn run(&mut self, formula: &CnfFormula) -> bool {
        for clause in formula.iter() {
            if !self.ingest(clause.lits()) {
                return false;
            }
        }
        let quadratic_passes = self.stats.clauses_before <= self.config.max_clauses;
        for _ in 0..self.config.max_passes {
            if !self.propagate_units() {
                return false;
            }
            if !quadratic_passes {
                return true; // Linear-only treatment for huge formulas.
            }
            let mut changed = false;
            if self.config.subsumption && !self.subsume_all(&mut changed) {
                return false;
            }
            if !self.propagate_units() {
                return false;
            }
            if self.config.var_elim && !self.eliminate_variables(&mut changed) {
                return false;
            }
            if !self.propagate_units() {
                return false;
            }
            if !changed {
                break;
            }
        }
        true
    }

    /// The literals of clause `id`; empty once the clause is removed.
    fn clause(&self, id: ClauseId) -> &[Lit] {
        let header = self.headers[id as usize];
        &self.lits[header.start as usize..(header.start + header.len) as usize]
    }

    /// Marks every variable of clause `id` as touched (call it *before*
    /// changing the clause).
    fn touch(&mut self, id: ClauseId) {
        let header = self.headers[id as usize];
        for &lit in &self.lits[header.start as usize..(header.start + header.len) as usize] {
            self.touched[lit.var().index()] = true;
        }
    }

    /// Removes clause `id` from the store (a no-op when already removed).
    fn remove(&mut self, id: ClauseId) {
        let header = self.headers[id as usize];
        for &lit in &self.lits[header.start as usize..(header.start + header.len) as usize] {
            self.touched[lit.var().index()] = true;
            self.stale[lit.code()] += 1;
        }
        self.headers[id as usize].len = 0;
    }

    /// Strikes `lit` from clause `id` in place, keeping the order of the
    /// other literals; a no-op when the clause no longer contains it.
    fn strike(&mut self, id: ClauseId, lit: Lit) {
        let header = self.headers[id as usize];
        let (start, end) = (header.start as usize, (header.start + header.len) as usize);
        if let Some(at) = self.lits[start..end].iter().position(|&l| l == lit) {
            self.touch(id);
            self.stale[lit.code()] += 1;
            self.lits.copy_within(start + at + 1..end, start + at);
            let header = &mut self.headers[id as usize];
            header.len -= 1;
            header.struck = true;
        }
    }

    /// Normalizes and stores one clause; `false` means UNSAT (empty clause).
    fn ingest(&mut self, clause: &[Lit]) -> bool {
        // Apply the root-level assignment and drop duplicates while copying
        // onto the end of the store.
        self.stamp_generation += 1;
        let start = self.lits.len();
        for &lit in clause {
            match self.value(lit) {
                LBool::True => {
                    self.lits.truncate(start);
                    return true;
                }
                LBool::False => continue,
                LBool::Undef => {}
            }
            if self.stamped(lit) {
                self.stats.duplicate_lits_removed += 1;
                continue;
            }
            if self.stamped(!lit) {
                self.stats.tautologies_removed += 1;
                self.lits.truncate(start);
                return true;
            }
            self.stamps[lit.code()] = self.stamp_generation;
            self.lits.push(lit);
        }
        self.store_tail(start)
    }

    /// Stores the unassigned, duplicate-free literals the store holds from
    /// `start` on as a clause, or enqueues them as a unit; `false` means
    /// UNSAT (empty clause).
    fn store_tail(&mut self, start: usize) -> bool {
        let len = self.lits.len() - start;
        match len {
            0 => return false,
            1 => {
                let unit = self.lits.pop().expect("one literal");
                return self.enqueue_unit(unit);
            }
            _ => {}
        }
        let id = self.headers.len() as ClauseId;
        self.headers.push(Header {
            start: u32::try_from(start).expect("clause store exceeds u32 offsets"),
            len: len as u32,
            signature: signature(&self.lits[start..]),
            struck: false,
        });
        for &lit in &self.lits[start..] {
            self.occ[lit.code()].push(id);
            self.touched[lit.var().index()] = true;
        }
        self.subsumption_queue.push_back(id);
        true
    }

    fn value(&self, lit: Lit) -> LBool {
        self.assign[lit.var().index()].xor(lit.is_negative())
    }

    /// Schedules a root-level unit; `false` on an immediate conflict.
    fn enqueue_unit(&mut self, lit: Lit) -> bool {
        match self.value(lit) {
            LBool::True => true,
            LBool::False => false,
            LBool::Undef => {
                self.assign[lit.var().index()] = LBool::from_bool(lit.is_positive());
                self.stats.units_fixed += 1;
                if !self.frozen[lit.var().index()] {
                    self.rec.steps.push(RecStep::Fixed {
                        var: lit.var(),
                        value: lit.is_positive(),
                    });
                }
                self.units.push_back(lit);
                true
            }
        }
    }

    /// Applies every queued root-level unit to the clause store.
    ///
    /// Clause removal is **lazy** everywhere in the simplifier: a removed
    /// clause only gets its header zeroed; the stale ids left in other
    /// literals' occurrence lists are dropped the next time those lists are
    /// cleaned ([`Simplifier::clean_occ`]). Eager unlinking would make every
    /// removal linear in its literals' occurrence-list lengths — quadratic
    /// on selector literals, which occur in thousands of clauses.
    fn propagate_units(&mut self) -> bool {
        while let Some(lit) = self.units.pop_front() {
            // Clauses containing the satisfied literal vanish. (The
            // variable is fixed, so its own occurrence lists are dead; take
            // them entirely.)
            for id in std::mem::take(&mut self.occ[lit.code()]) {
                self.remove(id);
            }
            self.stale[lit.code()] = 0;
            // Clauses containing the falsified literal lose it.
            for id in std::mem::take(&mut self.occ[(!lit).code()]) {
                if self.headers[id as usize].len == 0 {
                    continue;
                }
                self.strike(id, !lit);
                // Stored clauses keep at least one literal when struck.
                if self.headers[id as usize].len == 1 {
                    let unit = self.clause(id)[0];
                    self.remove(id);
                    if !self.enqueue_unit(unit) {
                        return false;
                    }
                } else {
                    self.subsumption_queue.push_back(id);
                }
            }
            self.stale[(!lit).code()] = 0;
        }
        true
    }

    /// Whether clause `id`, listed in the occurrence list of `lit`, still
    /// contains `lit`. A stale id may point at a removed clause or at a
    /// clause the literal was struck from.
    fn contains(&self, id: ClauseId, lit: Lit) -> bool {
        let header = self.headers[id as usize];
        header.len != 0 && (!header.struck || self.clause(id).contains(&lit))
    }

    /// Drops the stale ids from the occurrence list of `lit`, in place.
    fn clean_occ(&mut self, lit: Lit) {
        let stale = std::mem::take(&mut self.stale[lit.code()]);
        if stale == 0 {
            return;
        }
        let mut list = std::mem::take(&mut self.occ[lit.code()]);
        let before = list.len();
        list.retain(|&id| self.contains(id, lit));
        debug_assert_eq!(
            before - list.len(),
            stale as usize,
            "stale count of {lit:?}"
        );
        self.occ[lit.code()] = list;
    }

    /// Exhausts the subsumption queue; `false` means UNSAT.
    fn subsume_all(&mut self, changed: &mut bool) -> bool {
        let mut subsumer = std::mem::take(&mut self.subsumer);
        let mut consistent = true;
        while let Some(id) = self.subsumption_queue.pop_front() {
            let len = self.headers[id as usize].len as usize;
            if len == 0 || len > self.config.max_subsumer_len {
                continue;
            }
            subsumer.clear();
            subsumer.extend_from_slice(self.clause(id));
            if !self.backward_subsume(id, &subsumer, changed) {
                consistent = false;
                break;
            }
        }
        self.subsumer = subsumer;
        consistent
    }

    /// Whether clause `id` is at least `len` long, holds exactly `stamped`
    /// literals stamped by [`Simplifier::stamp`] and, given `required`,
    /// contains it too. `signature` (the stamped clause's) rejects most
    /// candidates before their literals are read.
    fn holds_stamped(
        &self,
        id: ClauseId,
        len: usize,
        signature: u32,
        stamped: usize,
        required: Option<Lit>,
    ) -> bool {
        let header = self.headers[id as usize];
        if (header.len as usize) < len || signature & !header.signature != 0 {
            return false;
        }
        let (mut count, mut found) = (0, required.is_none());
        for &lit in self.clause(id) {
            count += usize::from(self.stamped(lit));
            found |= Some(lit) == required;
        }
        count == stamped && found
    }

    /// Uses `clause`, a copy of clause `id`, to subsume/strengthen every
    /// other clause: first every clause containing the clause's rarest
    /// literal (plain subsumption), then, per literal l, every clause
    /// containing ¬l and the rest of the clause (self-subsuming
    /// resolution). The subsumer's literals are stamped once; subset tests
    /// then count stamped literals in each candidate.
    ///
    /// Candidates are visited in clause-id order, which every occurrence
    /// list keeps, so the self-subsumption candidates of l can be read off
    /// whichever of their occurrence lists is shortest.
    ///
    /// A strengthening that derives a unit propagates it, which may rewrite
    /// arbitrary clauses, so the stamps no longer describe a consistent
    /// snapshot: the whole scan then restarts with the same `clause`.
    fn backward_subsume(&mut self, id: ClauseId, clause: &[Lit], changed: &mut bool) -> bool {
        let signature = signature(clause);
        'restart: loop {
            self.stamp(clause);
            // Plain subsumption: every clause containing the rarest literal.
            let rarest = clause
                .iter()
                .copied()
                .min_by_key(|l| self.occ[l.code()].len())
                .expect("clauses are non-empty");
            self.clean_occ(rarest);
            for i in 0..self.occ[rarest.code()].len() {
                let candidate = self.occ[rarest.code()][i];
                if candidate != id
                    && self.holds_stamped(candidate, clause.len(), signature, clause.len(), None)
                {
                    self.remove(candidate);
                    self.stats.clauses_subsumed += 1;
                    *changed = true;
                }
            }
            // Self-subsuming resolution: C = (l ∨ R) strengthens D ⊇ (¬l ∨ R)
            // by deleting ¬l from D.
            for &lit in clause {
                self.clean_occ(!lit);
                let search = clause
                    .iter()
                    .map(|&l| if l == lit { !l } else { l })
                    .min_by_key(|l| self.occ[l.code()].len())
                    .expect("clauses are non-empty");
                for i in 0..self.occ[search.code()].len() {
                    let candidate = self.occ[search.code()][i];
                    // A candidate holding ¬l cannot also hold l (no
                    // tautologies survive ingestion), so its stamped
                    // literals are exactly D ∩ (C \ {l}).
                    if candidate == id
                        || !self.holds_stamped(
                            candidate,
                            clause.len(),
                            signature,
                            clause.len() - 1,
                            Some(!lit),
                        )
                    {
                        continue;
                    }
                    self.strike(candidate, !lit);
                    self.stats.lits_strengthened += 1;
                    *changed = true;
                    // Stored clauses keep at least one literal when struck.
                    if self.headers[candidate as usize].len == 1 {
                        let unit = self.clause(candidate)[0];
                        self.remove(candidate);
                        if !self.enqueue_unit(unit) || !self.propagate_units() {
                            return false;
                        }
                        continue 'restart;
                    }
                    self.subsumption_queue.push_back(candidate);
                }
            }
            return true;
        }
    }

    fn stamp(&mut self, clause: &[Lit]) {
        self.stamp_generation += 1;
        for &lit in clause {
            self.stamps[lit.code()] = self.stamp_generation;
        }
    }

    fn stamped(&self, lit: Lit) -> bool {
        self.stamps[lit.code()] == self.stamp_generation
    }

    /// One bounded-variable-elimination sweep over all non-frozen variables,
    /// cheapest (fewest occurrences) first; `false` means UNSAT.
    ///
    /// A variable whose last attempt failed is retried only once it is
    /// touched again: the attempt reads nothing but the clauses containing
    /// the variable, so it would fail the same way, and its occurrence
    /// lists are still clean, so skipping it changes no later decision.
    fn eliminate_variables(&mut self, changed: &mut bool) -> bool {
        // A variable with empty occurrence lists is in no clause and never
        // will be (clauses only gain variables from clauses), so trying it
        // would change nothing.
        let mut order: Vec<(usize, usize)> = (0..self.assign.len())
            .filter(|&v| !self.frozen[v] && self.assign[v].is_undef())
            .map(|v| {
                let var = Var::from_index(v);
                let occurrences =
                    self.occ[var.positive().code()].len() + self.occ[var.negative().code()].len();
                (occurrences, v)
            })
            .filter(|&(occurrences, _)| occurrences > 0)
            .collect();
        order.sort_unstable();
        for (_, v) in order {
            // Skip variables fixed by a unit another elimination produced,
            // and those that would fail again.
            if !self.assign[v].is_undef() || !self.touched[v] {
                continue;
            }
            let var = Var::from_index(v);
            self.clean_occ(var.positive());
            self.clean_occ(var.negative());
            let num_pos = self.occ[var.positive().code()].len();
            let num_neg = self.occ[var.negative().code()].len();
            if num_pos == 0 && num_neg == 0 {
                self.touched[v] = false;
                continue;
            }
            if num_pos == 0 || num_neg == 0 {
                // Pure literal: drop every clause containing the variable
                // (elimination with an empty resolvent set).
                self.eliminate(var);
                *changed = true;
                continue;
            }
            if num_pos + num_neg > self.config.max_var_occurrences || !self.resolvents_bounded(var)
            {
                self.touched[v] = false;
                continue;
            }
            let saved = self.eliminate(var);
            *changed = true;
            if !self.add_resolvents(var, saved, num_pos) {
                return false;
            }
        }
        true
    }

    /// Whether eliminating `var` keeps the formula from growing: at most as
    /// many non-tautological resolvents as removed clauses, none longer than
    /// `max_resolvent_len`. A dry run over the clean occurrence lists that
    /// only counts, so a refused candidate allocates nothing.
    fn resolvents_bounded(&mut self, var: Var) -> bool {
        let (pos, neg) = (var.positive().code(), var.negative().code());
        let budget = self.occ[pos].len() + self.occ[neg].len();
        let mut resolvents = 0;
        for i in 0..self.occ[pos].len() {
            let p = self.headers[self.occ[pos][i] as usize];
            self.stamp_generation += 1;
            for k in p.start..p.start + p.len {
                self.stamps[self.lits[k as usize].code()] = self.stamp_generation;
            }
            'pairs: for &n in &self.occ[neg] {
                let mut len = p.len as usize - 1;
                for &lit in self.clause(n) {
                    if lit.var() == var {
                        continue;
                    }
                    if self.stamped(!lit) {
                        continue 'pairs; // Tautology.
                    }
                    len += usize::from(!self.stamped(lit));
                }
                resolvents += 1;
                if len > self.config.max_resolvent_len || resolvents > budget {
                    return false;
                }
            }
        }
        true
    }

    /// Removes every clause containing `var`, saving them for the
    /// reconstruction step (positive occurrences first); returns the range
    /// of saved clauses.
    fn eliminate(&mut self, var: Var) -> Range<usize> {
        let first = self.rec.ends.len();
        for lit in [var.positive(), var.negative()] {
            let mut list = std::mem::take(&mut self.occ[lit.code()]);
            for &id in &list {
                let header = self.headers[id as usize];
                let (start, end) = (header.start as usize, (header.start + header.len) as usize);
                self.rec.save(&self.lits[start..end]);
                self.remove(id);
            }
            list.clear();
            self.occ[lit.code()] = list;
        }
        self.stale[var.positive().code()] = 0;
        self.stale[var.negative().code()] = 0;
        self.touched[var.index()] = false;
        self.stats.vars_eliminated += 1;
        let clauses = first..self.rec.ends.len();
        self.rec.steps.push(RecStep::Eliminated {
            var,
            clauses: clauses.clone(),
        });
        clauses
    }

    /// Ingests every non-tautological resolvent of the clauses saved by
    /// eliminating `var` (the first `num_pos` of them contain it positively),
    /// in (positive, negative) pair order; `false` means UNSAT.
    ///
    /// Each resolvent is the positive clause's literals, then the negative
    /// clause's new ones, built straight onto the end of the store. Saved
    /// clauses are duplicate-free and never tautological, so stamping the
    /// positive side catches every duplicate and complementary pair; only
    /// the root-level assignment is left to apply, as [`Simplifier::ingest`]
    /// would.
    fn add_resolvents(&mut self, var: Var, saved: Range<usize>, num_pos: usize) -> bool {
        for p in saved.start..saved.start + num_pos {
            self.stamp_generation += 1;
            let positive_end = self.rec.saved_range(p).end;
            for i in self.rec.saved_range(p) {
                let lit = self.rec.lits[i];
                if lit.var() != var {
                    self.stamps[lit.code()] = self.stamp_generation;
                }
            }
            'pairs: for n in saved.start + num_pos..saved.end {
                let start = self.lits.len();
                for i in self.rec.saved_range(n) {
                    let lit = self.rec.lits[i];
                    if lit.var() != var && self.stamped(!lit) {
                        continue 'pairs; // Tautology.
                    }
                }
                for i in self.rec.saved_range(p).chain(self.rec.saved_range(n)) {
                    let lit = self.rec.lits[i];
                    if lit.var() == var || (i >= positive_end && self.stamped(lit)) {
                        continue;
                    }
                    match self.value(lit) {
                        LBool::True => {
                            self.lits.truncate(start);
                            continue 'pairs;
                        }
                        LBool::False => {}
                        LBool::Undef => self.lits.push(lit),
                    }
                }
                if !self.store_tail(start) || !self.propagate_units() {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::enumerate_models;
    use crate::solver::{SatResult, Solver};
    use prng::SplitMix64;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    fn var(d: i64) -> Var {
        lit(d).var()
    }

    /// Every model of the simplified formula, extended through the
    /// reconstruction, must satisfy the original; and satisfiability must be
    /// preserved both ways (restricted to frozen vars, the models coincide).
    fn check_equivalence(original: &CnfFormula, frozen: &[Var]) {
        let simplified = simplify(original, frozen, &SimplifyConfig::default());
        let mut solver = Solver::from_formula(original);
        let original_sat = solver.solve() == SatResult::Sat;
        if simplified.unsat {
            assert!(!original_sat, "simplifier claimed UNSAT on a SAT formula");
            return;
        }
        let mut simp_solver = Solver::from_formula(&simplified.cnf);
        assert_eq!(
            simp_solver.solve() == SatResult::Sat,
            original_sat,
            "satisfiability changed"
        );
        if original_sat {
            let mut model = simp_solver.model();
            model.resize(original.num_vars(), false);
            simplified.reconstruction.extend(&mut model);
            assert!(
                original.eval(&model),
                "reconstructed model does not satisfy the original formula"
            );
        }
        // Frozen-variable projections must match exactly: every original
        // model restricted to frozen vars is still reachable and vice versa.
        if original.num_vars() <= 12 {
            let project = |models: Vec<Vec<bool>>| {
                let mut seen: Vec<Vec<bool>> = models
                    .into_iter()
                    .map(|m| frozen.iter().map(|v| m[v.index()]).collect())
                    .collect();
                seen.sort();
                seen.dedup();
                seen
            };
            let before = project(enumerate_models(original));
            let after = project(enumerate_models(&simplified.cnf));
            assert_eq!(before, after, "frozen projection changed");
        }
    }

    #[test]
    fn unit_propagation_shrinks_and_preserves() {
        let mut cnf = CnfFormula::new();
        cnf.add_clause(vec![lit(1)]);
        cnf.add_clause(vec![lit(-1), lit(2)]);
        cnf.add_clause(vec![lit(-2), lit(3), lit(4)]);
        check_equivalence(&cnf, &[var(3), var(4)]);
        let simplified = simplify(&cnf, &[var(3), var(4)], &SimplifyConfig::default());
        // 1 and 2 are fixed and not frozen: they disappear entirely.
        assert!(simplified.stats.units_fixed >= 2);
        for clause in simplified.cnf.iter() {
            for l in clause.iter() {
                assert!(l.var() != var(1) && l.var() != var(2), "{clause:?}");
            }
        }
    }

    #[test]
    fn frozen_units_stay_in_the_formula() {
        let mut cnf = CnfFormula::new();
        cnf.add_clause(vec![lit(1)]);
        cnf.add_clause(vec![lit(-1), lit(2)]);
        let simplified = simplify(&cnf, &[var(2)], &SimplifyConfig::default());
        // Var 2 is frozen and was derived true: the unit must survive so a
        // later external ¬2 still conflicts.
        assert!(simplified.cnf.iter().any(|c| c.lits() == [lit(2)]));
        let mut solver = Solver::from_formula(&simplified.cnf);
        assert_eq!(solver.solve_assuming(&[lit(-2)]), SatResult::Unsat);
    }

    #[test]
    fn tautologies_and_duplicates_are_removed() {
        let mut cnf = CnfFormula::new();
        cnf.add_clause(vec![lit(1), lit(-1), lit(2)]);
        cnf.add_clause(vec![lit(1), lit(1), lit(2)]);
        let simplified = simplify(&cnf, &[var(1), var(2)], &SimplifyConfig::default());
        assert_eq!(simplified.stats.tautologies_removed, 1);
        assert_eq!(simplified.stats.duplicate_lits_removed, 1);
        assert_eq!(simplified.cnf.num_clauses(), 1);
        assert_eq!(simplified.cnf.num_literals(), 2);
    }

    #[test]
    fn subsumption_removes_weaker_clauses() {
        let mut cnf = CnfFormula::new();
        cnf.add_clause(vec![lit(1), lit(2)]);
        cnf.add_clause(vec![lit(1), lit(2), lit(3)]);
        cnf.add_clause(vec![lit(1), lit(2), lit(4)]);
        let frozen: Vec<Var> = (1..=4).map(var).collect();
        let simplified = simplify(&cnf, &frozen, &SimplifyConfig::default());
        assert_eq!(simplified.stats.clauses_subsumed, 2);
        assert_eq!(simplified.cnf.num_clauses(), 1);
        check_equivalence(&cnf, &frozen);
    }

    #[test]
    fn self_subsumption_strengthens() {
        // (1 ∨ 2) and (¬1 ∨ 2 ∨ 3): resolving on 1 gives (2 ∨ 3) ⊂ the
        // second clause, so it is strengthened to (2 ∨ 3).
        let mut cnf = CnfFormula::new();
        cnf.add_clause(vec![lit(1), lit(2)]);
        cnf.add_clause(vec![lit(-1), lit(2), lit(3)]);
        let frozen: Vec<Var> = (1..=3).map(var).collect();
        let simplified = simplify(&cnf, &frozen, &SimplifyConfig::default());
        assert!(simplified.stats.lits_strengthened >= 1);
        check_equivalence(&cnf, &frozen);
    }

    #[test]
    fn variable_elimination_respects_freezing() {
        // Var 2 is a pure connector: (1 ∨ 2)(¬2 ∨ 3) resolves to (1 ∨ 3).
        let mut cnf = CnfFormula::new();
        cnf.add_clause(vec![lit(1), lit(2)]);
        cnf.add_clause(vec![lit(-2), lit(3)]);
        let simplified = simplify(&cnf, &[var(1), var(3)], &SimplifyConfig::default());
        assert_eq!(simplified.stats.vars_eliminated, 1);
        assert_eq!(simplified.cnf.num_clauses(), 1);
        assert!(simplified.cnf.iter().all(|c| c.lits() == [lit(1), lit(3)]));
        // Frozen everything: nothing may be eliminated.
        let frozen: Vec<Var> = (1..=3).map(var).collect();
        let untouched = simplify(&cnf, &frozen, &SimplifyConfig::default());
        assert_eq!(untouched.stats.vars_eliminated, 0);
        assert_eq!(untouched.cnf.num_clauses(), 2);
    }

    #[test]
    fn pure_literals_are_eliminated() {
        let mut cnf = CnfFormula::new();
        cnf.add_clause(vec![lit(1), lit(2)]);
        cnf.add_clause(vec![lit(1), lit(3)]);
        // Var 1 only occurs positively; with 2 and 3 frozen it is pure.
        let simplified = simplify(&cnf, &[var(2), var(3)], &SimplifyConfig::default());
        assert!(simplified.stats.vars_eliminated >= 1);
        assert_eq!(simplified.cnf.num_clauses(), 0);
        let mut model = vec![false, false, false];
        simplified.reconstruction.extend(&mut model);
        assert!(cnf.eval(&model));
    }

    #[test]
    fn refused_variable_is_retried_once_its_clauses_change() {
        // x = 1 occurs 5 times, over the bound of 4, so pass 1 refuses it.
        // y = 2 is pure and occurs 6 times, so pass 1 reaches it after x
        // and drops its clauses, three of them x's. Pass 2 must retry x,
        // now down to (x ∨ 3)(¬x ∨ 4), and resolve it to (3 ∨ 4).
        let mut cnf = CnfFormula::new();
        cnf.add_clause(vec![lit(1), lit(3)]);
        cnf.add_clause(vec![lit(-1), lit(4)]);
        cnf.add_clause(vec![lit(1), lit(2), lit(5)]);
        cnf.add_clause(vec![lit(1), lit(2), lit(6)]);
        cnf.add_clause(vec![lit(-1), lit(2), lit(7)]);
        for other in 8..=10 {
            cnf.add_clause(vec![lit(2), lit(other)]);
        }
        let frozen: Vec<Var> = (3..=10).map(var).collect();
        let config = SimplifyConfig {
            max_var_occurrences: 4,
            ..SimplifyConfig::default()
        };
        let one_pass = simplify(
            &cnf,
            &frozen,
            &SimplifyConfig {
                max_passes: 1,
                ..config.clone()
            },
        );
        assert_eq!(one_pass.stats.vars_eliminated, 1, "pass 1 takes y only");
        let simplified = simplify(&cnf, &frozen, &config);
        assert_eq!(simplified.stats.vars_eliminated, 2);
        assert_eq!(simplified.cnf.num_clauses(), 1);
        assert!(simplified.cnf.iter().all(|c| c.lits() == [lit(3), lit(4)]));
        let mut model = vec![false; cnf.num_vars()];
        model[var(3).index()] = true;
        simplified.reconstruction.extend(&mut model);
        assert!(cnf.eval(&model));
    }

    #[test]
    fn root_conflict_reports_unsat() {
        let mut cnf = CnfFormula::new();
        cnf.add_clause(vec![lit(1)]);
        cnf.add_clause(vec![lit(-1)]);
        let simplified = simplify(&cnf, &[], &SimplifyConfig::default());
        assert!(simplified.unsat);
        assert_eq!(simplified.cnf.num_clauses(), 1);
        assert!(simplified.cnf.iter().all(|c| c.is_empty()));
    }

    #[test]
    fn randomized_formulas_stay_equivalent() {
        let mut rng = SplitMix64::seed_from_u64(0xC1AE5);
        for round in 0..60 {
            let num_vars = 4 + (rng.next_u64() % 6) as usize; // 4..=9
            let num_clauses = 4 + (rng.next_u64() % 20) as usize;
            let mut cnf = CnfFormula::with_vars(num_vars);
            for _ in 0..num_clauses {
                let len = 1 + (rng.next_u64() % 3) as usize;
                let clause: Vec<Lit> = (0..len)
                    .map(|_| {
                        let v = Var::from_index((rng.next_u64() % num_vars as u64) as usize);
                        v.lit(rng.next_u64() & 1 == 0)
                    })
                    .collect();
                cnf.add_clause(clause);
            }
            // Freeze a random subset, mimicking selector/input variables.
            let frozen: Vec<Var> = (0..num_vars)
                .filter(|_| rng.next_u64() & 1 == 0)
                .map(Var::from_index)
                .collect();
            check_equivalence(&cnf, &frozen);
            let _ = round;
        }
    }
}
