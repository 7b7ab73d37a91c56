//! The BugAssist localization algorithm (Algorithm 1 of the paper).
//!
//! Given a program, a specification and a failing test input, the localizer
//! builds the *extended trace formula*
//!
//! ```text
//! Φ  =  [[test]]  ∧  TF1(σ)  ∧  p          (hard)
//!       ∧  λ₁ ∧ λ₂ ∧ … ∧ λ_n              (soft — one selector per statement)
//! ```
//!
//! and repeatedly asks the partial MAX-SAT engine for a CoMSS: a
//! minimum-weight set of selector variables whose statements, if allowed to
//! change, make the failing execution infeasible. Each CoMSS is reported as a
//! set of suspect source lines; a hard *blocking clause* (λ₁ ∨ … ∨ λ_k) is
//! then added and the enumeration continues until the MAX-SAT instance
//! becomes unsatisfiable ("no more suspects").

use bitblast::GroupedCnf;
use bmc::{encode_program, EncodeConfig, EncodeError, Spec, SymbolicTrace};
use maxsat::{Budget, MaxSatInstance, MaxSatResult, MaxSatSolver};
use minic::ast::Line;
use minic::delta::{classify_edit, reachable_functions, segment_program, EditClass, LineMap};
use minic::Program;
use sat::{Lit, Solver};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::time::Instant;

/// At what granularity statements are blamed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Granularity {
    /// One selector per source line — the paper's default (Sec. 3.4): all
    /// clause groups originating from the same line share a selector, even
    /// across loop unwindings and inlined call instances.
    #[default]
    Line,
    /// One selector per statement *instance* (line × loop unwinding), used by
    /// the loop-debugging extension of Sec. 5.2.
    StatementInstance,
}

/// The uniform soft-clause weight α of every selector (Sec. 3.4); the
/// loop-iteration weights of Sec. 5.2 are `α + η − κ` on top of it.
const BASE_WEIGHT: u64 = 1;

/// Configuration of the [`Localizer`].
#[derive(Clone, Debug)]
pub struct LocalizerConfig {
    /// Symbolic-encoding options (bit width, unwinding bound, inlining depth,
    /// concretized functions).
    pub encode: EncodeConfig,
    /// Maximum number of CoMSSes to enumerate before stopping.
    pub max_suspect_sets: usize,
    /// Blame granularity.
    pub granularity: Granularity,
    /// Weight soft clauses by loop iteration (`α + η − κ`, Sec. 5.2, with
    /// α = 1) so that earlier iterations are preferred when blaming loop
    /// bodies. Only meaningful with [`Granularity::StatementInstance`].
    pub loop_weighting: bool,
    /// Lines that must not be blamed (e.g. verified library code, Sec. 6.3);
    /// their selectors are asserted hard.
    pub trusted_lines: Vec<Line>,
    /// Preprocess the prepared hard clauses with [`sat::simplify`] — unit
    /// propagation, subsumption, self-subsuming resolution and bounded
    /// variable elimination — before any MAX-SAT solving (default `true`).
    /// Every selector variable, test-input bit and the property literal is
    /// frozen, so the soft structure (the unit of blame) survives verbatim
    /// and per-test hard units still mean what they meant. Disable to get
    /// the raw bit-blasted formula. An in-process test oracle: reports are
    /// byte-identical either way, so the service does not expose it.
    pub simplify: bool,
    /// Run the static backward-relevance analysis ([`analysis::relevance()`])
    /// and treat every statically-irrelevant line like a trusted line —
    /// its selector is asserted hard, shrinking the soft set before any
    /// MAX-SAT work (default `true`). Sound by construction: a pruned line
    /// provably cannot influence the property, so it can never appear in
    /// any CoMSS and the report is byte-identical with pruning on or off
    /// (only the instance-size counters differ). An in-process test oracle
    /// for that claim; the service always prunes.
    pub static_prune: bool,
}

impl Default for LocalizerConfig {
    fn default() -> LocalizerConfig {
        LocalizerConfig {
            encode: EncodeConfig::default(),
            max_suspect_sets: 16,
            granularity: Granularity::Line,
            loop_weighting: false,
            trusted_lines: Vec::new(),
            simplify: true,
            static_prune: true,
        }
    }
}

/// One reported CoMSS: a minimal set of statements whose simultaneous change
/// can make the failing execution infeasible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Suspect {
    /// The source lines involved (usually exactly one).
    pub lines: Vec<Line>,
    /// For [`Granularity::StatementInstance`], the loop unwinding index of
    /// each blamed instance (parallel to `lines`); `None` entries are
    /// statements outside loops.
    pub unwindings: Vec<Option<usize>>,
    /// 0-based order in which this CoMSS was enumerated.
    pub rank: usize,
    /// Total soft weight of the CoMSS (its MAX-SAT cost).
    pub cost: u64,
}

impl fmt::Display for Suspect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        for (line, unwinding) in self.lines.iter().zip(&self.unwindings) {
            match unwinding {
                Some(k) => parts.push(format!("{line} (iteration {})", k + 1)),
                None => parts.push(line.to_string()),
            }
        }
        write!(f, "{{{}}}", parts.join(", "))
    }
}

/// Statistics about one localization run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LocalizerStats {
    /// Number of MAX-SAT calls (CoMSS extractions) made.
    pub maxsat_calls: u64,
    /// SAT-solver calls, summed over the MAX-SAT calls: one per
    /// unsatisfiable core plus one for each call's optimum.
    pub sat_calls: u64,
    /// Unsatisfiable cores the MAX-SAT calls relaxed, summed.
    pub cores: u64,
    /// Number of soft clauses (selectors) in the instance.
    pub soft_clauses: usize,
    /// Number of hard clauses in the instance.
    pub hard_clauses: usize,
    /// Number of CNF variables in the instance.
    pub variables: usize,
    /// Wall-clock milliseconds spent localizing.
    pub elapsed_ms: u128,
    /// Learnt-clause database reductions the run's SAT solver performed,
    /// summed over the MAX-SAT calls (each call reports only its own).
    pub reduce_dbs: u64,
    /// Peak end-of-call SAT-solver clause-arena size, in bytes, over the
    /// MAX-SAT calls of this run. All ranks share one solver, so this is
    /// its arena after the largest rank.
    pub arena_bytes: u64,
    /// Hard clauses of the prepared formula *before* CNF preprocessing
    /// (compare with [`LocalizerStats::hard_clauses`], counted after).
    pub hard_clauses_pre_simplify: usize,
    /// Hard clauses the preprocessor removed by subsumption.
    pub clauses_subsumed: u64,
    /// Auxiliary variables the preprocessor resolved away (selectors, input
    /// bits and the property literal are frozen and never eliminated).
    pub vars_eliminated: u64,
    /// Wall-clock milliseconds the preprocessor spent shrinking the prepared
    /// formula. Like the formula itself this is paid once per localizer; the
    /// recorded value is carried by every report of that localizer.
    pub simplify_ms: u128,
    /// Word-level IR nodes the symbolic encoder materialized before
    /// bit-blasting (a property of the shared symbolic trace, identical for
    /// every call on one localizer).
    pub word_nodes: u64,
    /// Word-level node requests answered by constant folding or an algebraic
    /// rewrite instead of a new node.
    pub word_nodes_folded: u64,
    /// Word-level node requests shared through hash-consing across
    /// statements and unroll frames.
    pub word_cse_hits: u64,
    /// Total bits the word-level interval analysis shaved off narrowed
    /// arithmetic during bit-blasting.
    pub bits_narrowed: u64,
    /// Distinct non-trusted statement lines whose selectors the static
    /// relevance analysis hardened ([`LocalizerConfig::static_prune`]) —
    /// lines that provably cannot appear in any CoMSS.
    pub lines_pruned: u64,
    /// Wall-clock milliseconds the static analyses (lint, relevance) took.
    /// Paid once in [`Localizer::new`] and carried by every report of that
    /// localizer, like [`LocalizerStats::simplify_ms`].
    pub prune_ms: u128,
    /// Warning-severity diagnostics the MinC lint pass found.
    pub lint_warnings: u64,
}

/// The complete result of localizing one failing execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocalizationReport {
    /// Every CoMSS reported, in enumeration order.
    pub suspects: Vec<Suspect>,
    /// The union of all suspect lines, sorted and deduplicated.
    pub suspect_lines: Vec<Line>,
    /// Statistics of the run.
    pub stats: LocalizerStats,
    /// `true` if the enumeration ran to its natural end (every CoMSS up to
    /// the configured limit). `false` when a [`Budget`] expired mid-run:
    /// the reported suspects are then a proven prefix of the complete
    /// report — every reported rank is that rank's canonical optimum — and
    /// only later ranks are missing.
    pub complete: bool,
}

impl LocalizationReport {
    /// `true` if the given line was blamed by any CoMSS.
    pub fn blames_line(&self, line: Line) -> bool {
        self.suspect_lines.binary_search(&line).is_ok()
    }

    /// The fraction of blamable program lines that were reported — the
    /// paper's "SizeReduc%" metric (smaller is better).
    pub fn size_reduction_percent(&self, total_lines: usize) -> f64 {
        if total_lines == 0 {
            return 0.0;
        }
        100.0 * self.suspect_lines.len() as f64 / total_lines as f64
    }
}

/// Errors produced while building a localizer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LocalizeError {
    /// The lint pass found an error-severity diagnostic — a type or scope
    /// error, or a read every execution leaves undefined — so the program
    /// was refused before encoding: its trace formula would be meaningless.
    Rejected(analysis::Diagnostic),
    /// The symbolic encoder failed.
    Encode(EncodeError),
    /// The number of test values does not match the entry function.
    ArityMismatch {
        /// Expected number of inputs.
        expected: usize,
        /// Provided number of inputs.
        provided: usize,
    },
}

impl fmt::Display for LocalizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LocalizeError::Rejected(d) => write!(f, "{d}"),
            LocalizeError::Encode(e) => write!(f, "{e}"),
            LocalizeError::ArityMismatch { expected, provided } => write!(
                f,
                "test vector has {provided} values but the entry function takes {expected}"
            ),
        }
    }
}

impl std::error::Error for LocalizeError {}

impl From<EncodeError> for LocalizeError {
    fn from(e: EncodeError) -> LocalizeError {
        LocalizeError::Encode(e)
    }
}

/// One selector variable of a [`PreparedTemplate`] and the statement
/// instances it switches off: the unit of blame at the configured
/// [`Granularity`].
#[derive(Clone, Debug)]
struct BlameUnit {
    lit: Lit,
    lines: Vec<Line>,
    /// The loop unwinding of each blamed instance, parallel to `lines`.
    unwindings: Vec<Option<usize>>,
    weight: u64,
}

/// How one selector enters a solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    /// A soft unit: its statements may be blamed.
    Soft,
    /// On a trusted line: asserted hard.
    Trusted,
    /// Statically irrelevant and not trusted: asserted hard like a trusted
    /// line, but counted in [`LocalizerStats::lines_pruned`] so the user's
    /// trusted set stays apart from the analysis's contribution.
    Pruned,
}

/// The input-independent part of the extended trace formula: the selectors,
/// the selector-relaxed TF1 (simplified unless [`LocalizerConfig::simplify`]
/// is off), the model reconstruction and the build's analysis results.
/// [`Localizer::new`] builds it once; each `localize` call clones only its
/// hard instance and adds that test's hard units on top.
///
/// It is also the snapshot the service's persistent store (`crates/store`)
/// writes, so a restart rebuilds a localizer without encoding, simplifying
/// or analyzing anything: [`Localizer::export_prepared`] clones it,
/// [`Localizer::from_restored`] moves it back into a localizer, and
/// [`PreparedTemplate::encode`] / [`PreparedTemplate::decode`] serialize
/// it. It holds no trusted-line flags: every localizer derives them from its
/// own configuration (as the relabel reuse path does), so a stale trusted
/// set can never be resurrected from disk.
#[derive(Clone, Debug)]
pub struct PreparedTemplate {
    /// In template order; their variables follow the trace's.
    units: Vec<BlameUnit>,
    /// The selector-relaxed TF1 as hard clauses, with no soft clauses.
    instance: MaxSatInstance,
    /// Hard-clause count before preprocessing (equal to the instance's
    /// when simplification is off).
    hard_clauses_pre_simplify: usize,
    /// What the preprocessor did (all zero when simplification is off).
    simplify_stats: sat::SimplifyStats,
    /// Milliseconds the preprocessing run took.
    simplify_ms: u128,
    /// Extends models of the simplified template back to the full
    /// bit-blasted variable space, so counterexample values and repair
    /// witnesses decode even for eliminated auxiliary variables.
    reconstruction: sat::ModelReconstruction,
    /// Statically-irrelevant statement lines, sorted (empty unless
    /// [`LocalizerConfig::static_prune`] is on).
    pruned_lines: Vec<Line>,
    /// Warning-severity lint diagnostics found in the program.
    lint_warnings: u64,
    /// Milliseconds the static analyses took.
    prune_ms: u128,
}

impl PreparedTemplate {
    /// Builds the template from a trace and the grouped CNF taken out of
    /// it: one selector per blame unit, allocated right after the trace
    /// variables (so literal numbering is a function of the trace alone),
    /// each statement clause augmented with its selector's negation, then
    /// the preprocessor.
    fn build(
        trace: &SymbolicTrace,
        cnf: GroupedCnf,
        config: &LocalizerConfig,
        pruned_lines: Vec<Line>,
        lint_warnings: u64,
        prune_ms: u128,
    ) -> PreparedTemplate {
        let mut instance = MaxSatInstance::new();
        instance.ensure_vars(cnf.num_vars());
        let mut units: Vec<BlameUnit> = Vec::new();
        // Group ids index `trace.groups`.
        let mut unit_of_group = vec![0; trace.groups.len()];
        match config.granularity {
            Granularity::Line => {
                // One selector per distinct line, in line order.
                let mut unit_of_line: BTreeMap<Line, usize> =
                    trace.groups.iter().map(|g| (g.line, 0)).collect();
                for (&line, unit) in unit_of_line.iter_mut() {
                    *unit = units.len();
                    units.push(BlameUnit {
                        lit: instance.new_var().positive(),
                        lines: vec![line],
                        unwindings: vec![None],
                        weight: BASE_WEIGHT,
                    });
                }
                for group in &trace.groups {
                    unit_of_group[group.id.index()] = unit_of_line[&group.line];
                }
            }
            Granularity::StatementInstance => {
                let unwind = config.encode.unwind as u64;
                for group in &trace.groups {
                    let weight = match group.unwinding {
                        // α + η − κ : earlier iterations weigh more.
                        Some(k) if config.loop_weighting => {
                            BASE_WEIGHT + unwind - (k as u64).min(unwind)
                        }
                        _ => BASE_WEIGHT,
                    };
                    unit_of_group[group.id.index()] = units.len();
                    units.push(BlameUnit {
                        lit: instance.new_var().positive(),
                        lines: vec![group.line],
                        unwindings: vec![group.unwinding],
                        weight,
                    });
                }
            }
        }
        // TF1: statement clauses augmented with ¬λ; infrastructure stays hard.
        // The clauses move into the template rather than being copied.
        for (clause, group) in cnf {
            match group {
                None => instance.add_hard(clause),
                Some(gid) => {
                    let mut lits: Vec<Lit> = clause.into_iter().collect();
                    lits.push(!units[unit_of_group[gid.index()]].lit);
                    instance.add_hard(lits);
                }
            }
        }
        let hard_clauses_pre_simplify = instance.num_hard();
        let mut simplify_stats = sat::SimplifyStats::default();
        let mut simplify_ms = 0u128;
        let mut reconstruction = sat::ModelReconstruction::default();
        if config.simplify {
            // Freeze everything that is constrained or read after
            // preparation: the selectors (soft units, trusted units, blocking
            // clauses), the test-input bits ([[test]] hard units) and the
            // property literal. Everything else is fair game.
            let mut frozen: Vec<sat::Var> = units.iter().map(|u| u.lit.var()).collect();
            for (_, bv) in &trace.inputs {
                frozen.extend(bv.bits().iter().map(|b| b.var()));
            }
            frozen.push(trace.property.var());
            let started = Instant::now();
            let simplified =
                sat::simplify(instance.hard(), &frozen, &sat::SimplifyConfig::default());
            simplify_ms = started.elapsed().as_millis();
            simplify_stats = simplified.stats;
            reconstruction = simplified.reconstruction;
            let mut shrunk = MaxSatInstance::from_hard(simplified.cnf);
            shrunk.ensure_vars(instance.num_vars());
            instance = shrunk;
        }
        PreparedTemplate {
            units,
            instance,
            hard_clauses_pre_simplify,
            simplify_stats,
            simplify_ms,
            reconstruction,
            pruned_lines,
            lint_warnings,
            prune_ms,
        }
    }

    /// How each selector enters a solve when `trusted` lines may not be
    /// blamed. A unit on a trusted line is trusted even if it is also
    /// pruned.
    fn roles(&self, trusted: &[Line]) -> Vec<Role> {
        self.units
            .iter()
            .map(|u| {
                if u.lines.iter().any(|l| trusted.contains(l)) {
                    Role::Trusted
                } else if !u.lines.is_empty()
                    && u.lines
                        .iter()
                        .all(|l| self.pruned_lines.binary_search(l).is_ok())
                {
                    Role::Pruned
                } else {
                    Role::Soft
                }
            })
            .collect()
    }

    /// The selector literals, in template order.
    pub fn selector_lits(&self) -> impl Iterator<Item = Lit> + '_ {
        self.units.iter().map(|u| u.lit)
    }

    /// The hard part of the template: the simplified selector-relaxed trace
    /// formula, or the raw one when the localizer was built with
    /// `simplify: false`.
    pub fn hard(&self) -> &sat::CnfFormula {
        self.instance.hard()
    }

    /// Appends this template to `w` (see [`sat::bytes`]).
    pub fn encode(&self, w: &mut sat::bytes::ByteWriter) {
        w.write_usize(self.units.len());
        for unit in &self.units {
            w.write_usize(unit.lit.code());
            write_lines(w, &unit.lines);
            w.write_usize(unit.unwindings.len());
            for unwinding in &unit.unwindings {
                match unwinding {
                    None => w.write_u64(0),
                    Some(u) => w.write_u64(1 + *u as u64),
                }
            }
            w.write_u64(unit.weight);
        }
        self.instance.hard().encode(w);
        w.write_usize(self.instance.num_vars());
        w.write_usize(self.hard_clauses_pre_simplify);
        self.simplify_stats.encode(w);
        w.write_u64(self.simplify_ms.min(u64::MAX as u128) as u64);
        self.reconstruction.encode(w);
        write_lines(w, &self.pruned_lines);
        w.write_u64(self.lint_warnings);
        w.write_u64(self.prune_ms.min(u64::MAX as u128) as u64);
    }

    /// Reads back a template written by [`PreparedTemplate::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`sat::bytes::DecodeError`] on truncated or malformed input,
    /// including a pruned-line list that is not strictly increasing.
    pub fn decode(
        r: &mut sat::bytes::ByteReader<'_>,
    ) -> Result<PreparedTemplate, sat::bytes::DecodeError> {
        use sat::bytes::DecodeError;
        let num_units = r.read_len(8)?;
        let mut units = Vec::with_capacity(num_units);
        for _ in 0..num_units {
            let lit = Lit::from_code(r.read_usize()?);
            let lines = read_lines(r)?;
            let num_unwindings = r.read_len(8)?;
            let mut unwindings = Vec::with_capacity(num_unwindings);
            for _ in 0..num_unwindings {
                unwindings.push(match r.read_u64()? {
                    0 => None,
                    u => Some(
                        usize::try_from(u - 1)
                            .map_err(|_| DecodeError::new("unwinding overflow"))?,
                    ),
                });
            }
            let weight = r.read_u64()?;
            units.push(BlameUnit {
                lit,
                lines,
                unwindings,
                weight,
            });
        }
        let hard = sat::CnfFormula::decode(r)?;
        let num_vars = r.read_usize()?;
        if num_vars < hard.num_vars() {
            return Err(DecodeError::new("template var count below hard formula's"));
        }
        let mut instance = MaxSatInstance::from_hard(hard);
        instance.ensure_vars(num_vars);
        let hard_clauses_pre_simplify = r.read_usize()?;
        let simplify_stats = sat::SimplifyStats::decode(r)?;
        let simplify_ms = u128::from(r.read_u64()?);
        let reconstruction = sat::ModelReconstruction::decode(r)?;
        let pruned_lines = read_lines(r)?;
        // `roles` binary-searches the pruned set.
        if pruned_lines.windows(2).any(|w| w[0] >= w[1]) {
            return Err(DecodeError::new("pruned lines not strictly increasing"));
        }
        let lint_warnings = r.read_u64()?;
        let prune_ms = u128::from(r.read_u64()?);
        Ok(PreparedTemplate {
            units,
            instance,
            hard_clauses_pre_simplify,
            simplify_stats,
            simplify_ms,
            reconstruction,
            pruned_lines,
            lint_warnings,
            prune_ms,
        })
    }
}

fn write_lines(w: &mut sat::bytes::ByteWriter, lines: &[Line]) {
    w.write_usize(lines.len());
    for line in lines {
        w.write_u32(line.0);
    }
}

fn read_lines(r: &mut sat::bytes::ByteReader<'_>) -> Result<Vec<Line>, sat::bytes::DecodeError> {
    let len = r.read_len(4)?;
    (0..len).map(|_| r.read_u32().map(Line)).collect()
}

/// How [`Localizer::reprepare`] obtained the localizer for an edited
/// program — the delta-preparation outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaPrepare {
    /// The edit only moved statement lines (or changed nothing at all): the
    /// bit-blasted trace and the prepared selector template were reused
    /// verbatim, with group lines relabeled through the line map. No
    /// function was re-encoded.
    Relabeled,
    /// The edit was confined to a function the entry never reaches, so it
    /// cannot influence the trace formula: reused + relabeled, exactly like
    /// [`DeltaPrepare::Relabeled`].
    DeadFunction,
    /// The edit changed the body or signature of this (entry-reachable)
    /// function: the inlined SSA encoding shifts downstream of it, so the
    /// program was re-encoded from scratch.
    RebuiltFunction(String),
    /// The edit changed globals, added/removed/reordered functions, touched
    /// several functions, or produced an ambiguous line mapping: full
    /// re-encode.
    RebuiltGlobal,
    /// The entry, specification or non-trusted-line options differ from the
    /// old localizer's, so nothing could be reused regardless of the edit.
    RebuiltConfig,
}

impl DeltaPrepare {
    /// `true` when the expensive bit-blast + template preparation was
    /// skipped (the relabel paths).
    pub fn reused(&self) -> bool {
        matches!(self, DeltaPrepare::Relabeled | DeltaPrepare::DeadFunction)
    }

    /// Short wire/telemetry label.
    pub fn label(&self) -> &'static str {
        match self {
            DeltaPrepare::Relabeled => "line_shift",
            DeltaPrepare::DeadFunction => "dead_function",
            DeltaPrepare::RebuiltFunction(_) => "function_rebuild",
            DeltaPrepare::RebuiltGlobal => "global_rebuild",
            DeltaPrepare::RebuiltConfig => "options_changed",
        }
    }
}

/// The BugAssist error localizer.
///
/// The program is symbolically encoded once; each call to
/// [`Localizer::localize`] reuses the encoding with a different failing test.
///
/// # Examples
///
/// ```
/// use bugassist::{Localizer, LocalizerConfig};
/// use bmc::{EncodeConfig, Spec};
/// use minic::{parse_program, ast::Line};
///
/// // Program 1 from the paper: buggy for index == 1.
/// let program = parse_program("\
/// int Array[3];
/// int testme(int index) {
/// if (index != 1) {
/// index = 2;
/// } else {
/// index = index + 2;
/// }
/// int i = index;
/// return Array[i];
/// }").unwrap();
/// let config = LocalizerConfig {
///     encode: EncodeConfig { width: 8, ..EncodeConfig::default() },
///     ..LocalizerConfig::default()
/// };
/// let localizer = Localizer::new(&program, "testme", &Spec::Assertions, &config).unwrap();
/// let report = localizer.localize(&[1]).unwrap();
/// // The faulty constant on line 6 is blamed.
/// assert!(report.blames_line(Line(6)));
/// ```
/// `Localizer` is `Send + Sync` (it owns plain data), so a single instance
/// behind an `Arc` can serve concurrent [`Localizer::localize`] calls from a
/// server worker pool: the symbolic trace and the prepared template are
/// shared read-only, and each call clones only the template instance it
/// extends with its test-specific hard units.
#[derive(Debug)]
pub struct Localizer {
    /// The symbolic trace, without its grouped CNF: [`Localizer::new`]
    /// consumes that while preparing.
    trace: SymbolicTrace,
    config: LocalizerConfig,
    /// Entry function and specification the trace was encoded against —
    /// recorded so [`Localizer::reprepare`] can refuse to reuse a trace
    /// built for a different question.
    entry: String,
    spec: Spec,
    program_lines: usize,
    /// The input-independent extended trace formula, shared by every
    /// `localize` call (and thread).
    prepared: PreparedTemplate,
    /// How each of the template's selectors enters a solve under
    /// `config.trusted_lines`.
    roles: Vec<Role>,
}

/// The analysis criterion a [`Spec`] localizes against.
fn criterion_of_spec(spec: &Spec) -> analysis::Criterion {
    match spec {
        Spec::Assertions => analysis::Criterion::Assertions,
        // `ReturnEquals` checks the assertions *and* the golden output; the
        // `ReturnValue` criterion seeds both (assertion seeds are
        // unconditional in the relevance analysis).
        Spec::ReturnEquals(_) => analysis::Criterion::ReturnValue,
    }
}

/// The program check every build route runs once: lints `program` (the
/// lint pass includes the type check) and refuses it on an error-severity
/// diagnostic — a type-kind one first, else the first other error.
/// Returns the warning count.
fn lint_gate(program: &Program, width: usize) -> Result<u64, LocalizeError> {
    let (errors, warnings): (Vec<_>, Vec<_>) = analysis::lint_program(program, width)
        .into_iter()
        .partition(|d| d.severity == analysis::Severity::Error);
    // `min_by_key` keeps the first of equal keys, and `false` sorts first.
    match errors
        .into_iter()
        .min_by_key(|d| d.kind != analysis::DiagnosticKind::Type)
    {
        Some(d) => Err(LocalizeError::Rejected(d)),
        None => Ok(warnings.len() as u64),
    }
}

impl Localizer {
    /// Checks, analyzes and encodes the program and builds its prepared
    /// template (selector-relaxed and, by default, simplified), so the first
    /// [`Localizer::localize`] call solves right away. The trace's grouped
    /// CNF is consumed by that preparation: afterwards
    /// [`Localizer::trace`] carries no clauses.
    ///
    /// # Errors
    ///
    /// Returns [`LocalizeError::Rejected`] if the lint pass finds an error
    /// (before any encoding), and [`LocalizeError::Encode`] if the program
    /// cannot be encoded.
    pub fn new(
        program: &Program,
        entry: &str,
        spec: &Spec,
        config: &LocalizerConfig,
    ) -> Result<Localizer, LocalizeError> {
        let started = Instant::now();
        let lint_warnings = lint_gate(program, config.encode.width)?;
        let pruned_lines = if config.static_prune {
            analysis::prunable_lines(program, entry, criterion_of_spec(spec))
        } else {
            Vec::new()
        };
        let prune_ms = started.elapsed().as_millis();
        let mut trace = encode_program(program, entry, spec, &config.encode)?;
        let cnf = std::mem::take(&mut trace.cnf);
        let prepared =
            PreparedTemplate::build(&trace, cnf, config, pruned_lines, lint_warnings, prune_ms);
        Ok(Localizer::assemble(
            trace, prepared, entry, spec, config, program,
        ))
    }

    /// The one constructor behind every build route: derives the selector
    /// roles from `config`'s trusted lines and the template's pruned ones.
    fn assemble(
        trace: SymbolicTrace,
        prepared: PreparedTemplate,
        entry: &str,
        spec: &Spec,
        config: &LocalizerConfig,
        program: &Program,
    ) -> Localizer {
        Localizer {
            roles: prepared.roles(&config.trusted_lines),
            trace,
            config: config.clone(),
            entry: entry.to_string(),
            spec: spec.clone(),
            program_lines: program.statement_lines().len(),
            prepared,
        }
    }

    /// `true` when everything that shapes the prepared formula — encoding
    /// options, granularity, weights — matches, *except* the
    /// trusted-line set, which is applied per solve and recomputed freely
    /// by the relabel path.
    fn options_reusable(&self, entry: &str, spec: &Spec, config: &LocalizerConfig) -> bool {
        let (a, b) = (&self.config, config);
        // The encoder config is compared wholesale (it derives PartialEq
        // for exactly this purpose), so a future encoding option can never
        // silently bypass the guard.
        self.entry == entry
            && &self.spec == spec
            && a.encode == b.encode
            && a.max_suspect_sets == b.max_suspect_sets
            && a.granularity == b.granularity
            && a.loop_weighting == b.loop_weighting
            && a.simplify == b.simplify
            && a.static_prune == b.static_prune
    }

    /// Delta preparation: builds a localizer for `new_program` — an edited
    /// revision of `old_program`, the program this localizer was built
    /// from — reusing the bit-blasted trace and the prepared selector
    /// template whenever the edit provably cannot change them.
    ///
    /// Classification comes from [`minic::delta::classify_edit`]; this
    /// method additionally consults the call graph so that an edit confined
    /// to a function the entry never reaches also reuses everything. The
    /// reuse paths **relabel**: group lines (and selector blame lines) are
    /// remapped through the edit's line map, trusted flags are recomputed
    /// against `config`, and no function is re-encoded. All other edits
    /// fall back to [`Localizer::new`] on the new program, so the result is
    /// always correct — delta preparation only decides how much work that
    /// correctness costs.
    ///
    /// The returned localizer answers every `localize` call **identically
    /// to a cold `Localizer::new(new_program, ..)`**: the relabel paths
    /// reuse a trace that is bit-for-bit what a fresh encode of the new
    /// program would produce (same structure ⇒ same deterministic encoding,
    /// only the line labels differ), and the rebuild paths literally are a
    /// fresh build.
    ///
    /// # Errors
    ///
    /// Exactly the errors a cold [`Localizer::new`] of `new_program` would
    /// return: every edit except an identical program or a pure line shift
    /// re-runs the program check.
    pub fn reprepare(
        &self,
        old_program: &Program,
        new_program: &Program,
        entry: &str,
        spec: &Spec,
        config: &LocalizerConfig,
    ) -> Result<(Localizer, DeltaPrepare), LocalizeError> {
        let class = classify_edit(&segment_program(old_program), &segment_program(new_program));
        self.reprepare_classified(&class, new_program, entry, spec, config)
    }

    /// [`Localizer::reprepare`] with a pre-computed edit classification
    /// (callers that cache [`minic::delta::ProgramSegments`] — the service
    /// does — skip re-segmenting the old program).
    pub fn reprepare_classified(
        &self,
        class: &EditClass,
        new_program: &Program,
        entry: &str,
        spec: &Spec,
        config: &LocalizerConfig,
    ) -> Result<(Localizer, DeltaPrepare), LocalizeError> {
        if !self.options_reusable(entry, spec, config) {
            let rebuilt = Localizer::new(new_program, entry, spec, config)?;
            return Ok((rebuilt, DeltaPrepare::RebuiltConfig));
        }
        match class {
            // Same structure as this localizer's checked program: the
            // check's verdict and warning count carry over.
            EditClass::Identical => Ok((
                self.relabel(&LineMap::default(), new_program, config),
                DeltaPrepare::Relabeled,
            )),
            EditClass::LineShift(map) => Ok((
                self.relabel(map, new_program, config),
                DeltaPrepare::Relabeled,
            )),
            EditClass::LocalToFunction {
                function, line_map, ..
            } => {
                if reachable_functions(new_program, entry).contains(function) {
                    let rebuilt = Localizer::new(new_program, entry, spec, config)?;
                    Ok((rebuilt, DeltaPrepare::RebuiltFunction(function.clone())))
                } else {
                    // The changed function contributes no clause to a trace
                    // rooted at `entry`; every group line belongs to an
                    // unchanged function and is covered by the map. Its
                    // body still answers to the program check.
                    let lint_warnings = lint_gate(new_program, config.encode.width)?;
                    let mut relabeled = self.relabel(line_map, new_program, config);
                    relabeled.prepared.lint_warnings = lint_warnings;
                    Ok((relabeled, DeltaPrepare::DeadFunction))
                }
            }
            EditClass::Global => {
                let rebuilt = Localizer::new(new_program, entry, spec, config)?;
                Ok((rebuilt, DeltaPrepare::RebuiltGlobal))
            }
        }
    }

    /// The reuse path: clone the trace and the prepared template with every
    /// line label (group lines, selector blame lines, pruned lines) pushed
    /// through the map, and derive the trusted flags from `config`. The line
    /// map is strictly monotonic (enforced by the classifier), so the
    /// per-line selector order, and with it every literal in the template,
    /// is preserved exactly.
    fn relabel(&self, map: &LineMap, new_program: &Program, config: &LocalizerConfig) -> Localizer {
        let mut trace = self.trace.clone();
        for group in &mut trace.groups {
            group.line = map.remap(group.line);
        }
        // A pure line shift (or dead-function edit) leaves the analysis
        // result intact modulo line labels — relevance is structural — so
        // the pruned set is remapped like the blame lines, never recomputed.
        let mut prepared = self.prepared.clone();
        let blame_lines = prepared.units.iter_mut().flat_map(|u| u.lines.iter_mut());
        for line in blame_lines.chain(prepared.pruned_lines.iter_mut()) {
            *line = map.remap(*line);
        }
        Localizer::assemble(
            trace,
            prepared,
            &self.entry,
            &self.spec,
            config,
            new_program,
        )
    }

    /// A report of the localizer this one was relabeled from, as this one
    /// would produce it: blamed lines pushed through the (strictly
    /// monotonic) line map, this program's lint-warning count, all other
    /// content verbatim.
    ///
    /// This is the solve-skipping half of delta localization: when an edit
    /// is a pure line shift (or is confined to dead code), the post-edit
    /// MAX-SAT instance is *identical* to the pre-edit one — only the blame
    /// labels differ — and the solver is deterministic, so re-running it
    /// must reproduce the report with shifted lines. Remapping the old
    /// report is therefore byte-equivalent to a full re-localization of the
    /// edited program (the timing stats are carried over; consumers that
    /// compare reports canonicalize timings anyway). Monotonicity keeps
    /// `suspect_lines` sorted and injectivity keeps it deduplicated, so
    /// every invariant of a freshly built report holds.
    pub fn remap_report(&self, report: &LocalizationReport, map: &LineMap) -> LocalizationReport {
        let remap = |lines: &[Line]| lines.iter().map(|&l| map.remap(l)).collect();
        LocalizationReport {
            suspects: report
                .suspects
                .iter()
                .map(|s| Suspect {
                    lines: remap(&s.lines),
                    ..s.clone()
                })
                .collect(),
            suspect_lines: remap(&report.suspect_lines),
            stats: LocalizerStats {
                lint_warnings: self.prepared.lint_warnings,
                ..report.stats
            },
            complete: report.complete,
        }
    }

    /// A no-op that returns 0: [`Localizer::new`] already built the
    /// prepared formula. It stays because the repository benchmark
    /// (`perfbench/`) still calls it.
    pub fn warm(&self) -> u128 {
        0
    }

    /// Snapshots the prepared formula for the persistent store. Always
    /// `Some`, since every localizer is born prepared; the `Option` stays
    /// because the repository benchmark (`perfbench/`) unwraps it.
    pub fn export_prepared(&self) -> Option<PreparedTemplate> {
        Some(self.prepared.clone())
    }

    /// Rebuilds a localizer from a persisted snapshot: the trace, template
    /// and static-analysis results are taken verbatim (exactly what
    /// [`Localizer::new`] produced for the same program and options), so a
    /// restore runs no analysis. Only the trusted-line flags are derived
    /// from `config`, as on the relabel reuse path, so the persisted bytes
    /// never override the caller's current trusted set.
    ///
    /// The caller is responsible for only pairing a snapshot with the
    /// program, trace and options it was exported under; the service keys
    /// store records by program AST hash and options to enforce this.
    pub fn from_restored(
        trace: SymbolicTrace,
        template: PreparedTemplate,
        entry: &str,
        spec: &Spec,
        config: &LocalizerConfig,
        program: &Program,
    ) -> Localizer {
        Localizer::assemble(trace, template, entry, spec, config, program)
    }

    /// The symbolic trace underlying this localizer. Its grouped CNF is
    /// empty: [`Localizer::new`] consumed it while preparing.
    pub fn trace(&self) -> &SymbolicTrace {
        &self.trace
    }

    /// Number of statement lines in the analysed program (denominator of
    /// [`LocalizationReport::size_reduction_percent`]).
    pub fn program_lines(&self) -> usize {
        self.program_lines
    }

    /// Runs Algorithm 1 for one failing test input.
    ///
    /// # Errors
    ///
    /// Returns [`LocalizeError::ArityMismatch`] if the test vector length is
    /// wrong.
    pub fn localize(&self, failing_input: &[i64]) -> Result<LocalizationReport, LocalizeError> {
        self.localize_budgeted(failing_input, Budget::UNLIMITED)
    }

    /// Extends a model of the *prepared* (possibly simplified) formula back
    /// to the full bit-blasted variable space, restoring the values of
    /// auxiliary variables the preprocessor eliminated. Counterexample
    /// decoding ([`SymbolicTrace::inputs_from_model`]) and flip-repair
    /// witnesses read arbitrary trace variables, so they go through this
    /// before interpreting a solver model. A no-op when simplification is
    /// disabled or nothing was eliminated.
    pub fn extend_model(&self, model: &mut Vec<bool>) {
        self.prepared.reconstruction.extend(model);
    }

    /// The hard part of one failing test's MAX-SAT instance, with no soft
    /// clauses yet: the prepared template, the failing input as hard units,
    /// the property, and the hardened trusted and pruned selectors.
    fn base_instance(&self, failing_input: &[i64]) -> MaxSatInstance {
        // [[test]] : the failing input, as hard units on top of the template.
        let mut base = self.prepared.instance.clone();
        for lit in self.trace.input_assumption_lits(failing_input) {
            base.add_hard(vec![lit]);
        }
        // p : the violated assertion must hold — hard.
        base.add_hard(vec![self.trace.property]);
        // Trusted statements can never be switched off — and neither can
        // statically-pruned ones, which provably cannot influence the
        // property, so hardening them only shrinks the soft set.
        for (unit, &role) in self.prepared.units.iter().zip(&self.roles) {
            if role != Role::Soft {
                base.add_hard(vec![unit.lit]);
            }
        }
        base
    }

    /// [`Localizer::localize`] under a resource [`Budget`].
    ///
    /// The budget bounds the *whole* suspect enumeration, not each MAX-SAT
    /// call: the deadline is checked before each rank, and travels into
    /// every solve so a rank in flight gives up at the solver's next restart
    /// boundary. The conflict cap, by contrast, bounds each MAX-SAT solve
    /// (one rank) on its own. Expiry is never an error — the report comes
    /// back with [`LocalizationReport::complete`] `false` and the ranks
    /// proven before it: a prefix of the unbudgeted report.
    ///
    /// # Errors
    ///
    /// Exactly as [`Localizer::localize`].
    pub fn localize_budgeted(
        &self,
        failing_input: &[i64],
        budget: Budget,
    ) -> Result<LocalizationReport, LocalizeError> {
        let prepared = &self.prepared;
        let units: &[BlameUnit] = &prepared.units;
        let roles: &[Role] = &self.roles;
        if failing_input.len() != self.trace.inputs.len() {
            return Err(LocalizeError::ArityMismatch {
                expected: self.trace.inputs.len(),
                provided: failing_input.len(),
            });
        }
        let start = Instant::now();
        let mut base = self.base_instance(failing_input);
        // One SAT solver per call, loaded once: every rank solves on it, and
        // each rank's blocking clause is added to it and to `base` alike.
        let mut sat = Solver::from_formula(base.hard());
        let mut solver = MaxSatSolver::default();
        solver.set_budget(budget);
        let pruned_lines: BTreeSet<Line> = units
            .iter()
            .zip(roles)
            .filter(|&(_, &role)| role == Role::Pruned)
            .flat_map(|(u, _)| u.lines.iter().copied())
            .collect();
        let mut stats = LocalizerStats {
            soft_clauses: roles.iter().filter(|&&r| r == Role::Soft).count(),
            hard_clauses: base.num_hard(),
            lines_pruned: pruned_lines.len() as u64,
            prune_ms: prepared.prune_ms,
            lint_warnings: prepared.lint_warnings,
            variables: base.num_vars(),
            hard_clauses_pre_simplify: prepared.hard_clauses_pre_simplify,
            clauses_subsumed: prepared.simplify_stats.clauses_subsumed,
            vars_eliminated: prepared.simplify_stats.vars_eliminated,
            simplify_ms: prepared.simplify_ms,
            word_nodes: self.trace.stats.word_nodes,
            word_nodes_folded: self.trace.stats.word_nodes_folded,
            word_cse_hits: self.trace.stats.word_cse_hits,
            bits_narrowed: self.trace.stats.bits_narrowed,
            ..LocalizerStats::default()
        };

        let mut suspects: Vec<Suspect> = Vec::new();
        let mut complete = true;
        // Selectors still allowed to be blamed.
        let mut active: Vec<usize> = (0..units.len())
            .filter(|&i| roles[i] == Role::Soft)
            .collect();

        for rank in 0..self.config.max_suspect_sets {
            // The deadline may already be gone — because the caller queued
            // the job too long, or because the previous rank barely squeaked
            // in. Skipping the solve
            // outright (rather than letting it expire at the first restart)
            // keeps the worst-case overshoot at one SAT restart interval.
            if budget.deadline_expired() {
                complete = false;
                break;
            }
            // This rank's softs: one unit per active selector, so the soft
            // id `k` names selector `active[k]`.
            base.clear_soft();
            for &i in &active {
                base.add_soft_unit(units[i].lit, units[i].weight);
            }
            stats.maxsat_calls += 1;
            let result = solver.solve_loaded(&mut sat, &base);
            let solver_stats = solver.stats();
            stats.sat_calls += solver_stats.sat_calls;
            stats.cores += solver_stats.cores;
            stats.reduce_dbs += solver_stats.reduce_dbs;
            stats.arena_bytes = stats.arena_bytes.max(solver_stats.arena_bytes);
            let solution = match result {
                MaxSatResult::Optimum(solution) => solution,
                MaxSatResult::Expired => {
                    complete = false; // Ran dry with nothing to show for it.
                    break;
                }
                MaxSatResult::HardUnsat => {
                    break; // Hard part unsatisfiable: no more suspects.
                }
            };
            if solution.falsified.is_empty() {
                break; // Everything satisfiable: nothing (left) to blame.
            }
            // The engine returns the *canonical* optimum (the equal-cost
            // solution keeping the lowest soft ids satisfied — see
            // `MaxSatSolver`'s canonical refinement), so the blamed set — and
            // with it the whole enumeration — is a function of the program
            // and test alone, byte-identical across formula diets
            // (simplification on/off) and across the solver's search path.
            let blamed: Vec<usize> = solution
                .falsified
                .iter()
                .map(|id| active[id.index()])
                .collect();
            let mut lines = Vec::new();
            let mut unwindings = Vec::new();
            for &i in &blamed {
                lines.extend(units[i].lines.iter().copied());
                unwindings.extend(units[i].unwindings.iter().copied());
            }
            suspects.push(Suspect {
                lines,
                unwindings,
                rank,
                cost: solution.cost,
            });
            // Block this CoMSS: (λ₁ ∨ … ∨ λ_k) becomes hard, and those
            // selectors leave the soft set (Algorithm 1, lines 13–14).
            let blocking: Vec<Lit> = blamed.iter().map(|&i| units[i].lit).collect();
            sat.add_clause(blocking.iter().copied());
            base.add_hard(blocking);
            active.retain(|i| !blamed.contains(i));
            if active.is_empty() {
                break;
            }
        }

        let mut suspect_lines: Vec<Line> = suspects
            .iter()
            .flat_map(|s| s.lines.iter().copied())
            .collect();
        suspect_lines.sort();
        suspect_lines.dedup();
        stats.elapsed_ms = start.elapsed().as_millis();
        Ok(LocalizationReport {
            suspects,
            suspect_lines,
            stats,
            complete,
        })
    }

    /// Localizes a batch of failing test inputs in parallel and merges the
    /// per-test CoMSS sets into one frequency-ranked report (Sec. 4.3).
    ///
    /// Each failing input is an independent MAX-SAT enumeration over the same
    /// symbolic trace, so the batch fans out across `std::thread` workers (at
    /// most one per available core) and the reports are merged with
    /// [`RankedReport::from_reports`](crate::RankedReport::from_reports) in
    /// input order — the result is deterministic and identical to a
    /// sequential loop of [`Localizer::localize`] calls, whatever the thread
    /// interleaving.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-indexed failing input (matching what
    /// the sequential loop would report first).
    ///
    /// # Examples
    ///
    /// ```
    /// use bugassist::{Localizer, LocalizerConfig};
    /// use bmc::{EncodeConfig, Spec};
    /// use minic::{parse_program, ast::Line};
    ///
    /// // The constant on line 2 should be 1; every failing test blames it.
    /// let program = parse_program("int main(int x) {\nint y = x + 2;\nreturn y;\n}").unwrap();
    /// let config = LocalizerConfig {
    ///     encode: EncodeConfig { width: 8, ..EncodeConfig::default() },
    ///     ..LocalizerConfig::default()
    /// };
    /// let localizer = Localizer::new(&program, "main", &Spec::ReturnEquals(4), &config).unwrap();
    /// let ranked = localizer
    ///     .localize_batch(&[vec![5], vec![7], vec![9], vec![11]])
    ///     .unwrap();
    /// assert_eq!(ranked.per_test.len(), 4);
    /// assert!(ranked.majority_lines().contains(&Line(2)));
    /// ```
    pub fn localize_batch(
        &self,
        failing_inputs: &[Vec<i64>],
    ) -> Result<crate::ranking::RankedReport, LocalizeError> {
        self.localize_batch_budgeted(failing_inputs, Budget::UNLIMITED)
    }

    /// [`Localizer::localize_batch`] under a resource [`Budget`].
    ///
    /// The budget is *shared*: one wall-clock deadline bounds the whole
    /// batch (every per-test enumeration checks it), while the conflict cap
    /// applies to each MAX-SAT solve, that is, to each rank of each test
    /// (see [`Localizer::localize_budgeted`]). Tests that miss the
    /// deadline come back with [`LocalizationReport::complete`] `false` and
    /// are merged like any other report.
    ///
    /// # Errors
    ///
    /// Exactly as [`Localizer::localize_batch`].
    pub fn localize_batch_budgeted(
        &self,
        failing_inputs: &[Vec<i64>],
        budget: Budget,
    ) -> Result<crate::ranking::RankedReport, LocalizeError> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;

        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(failing_inputs.len());
        if failing_inputs.is_empty() {
            return Ok(crate::ranking::RankedReport::from_reports(Vec::new()));
        }
        if workers <= 1 {
            let mut per_test = Vec::with_capacity(failing_inputs.len());
            for input in failing_inputs {
                per_test.push(self.localize_budgeted(input, budget)?);
            }
            return Ok(crate::ranking::RankedReport::from_reports(per_test));
        }

        // Work-stealing over a shared index keeps all cores busy even when
        // per-test solve times vary wildly (they do: the MAX-SAT enumeration
        // depth depends on the failing input).
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<LocalizationReport, LocalizeError>>>> =
            failing_inputs.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(input) = failing_inputs.get(i) else {
                        break;
                    };
                    let result = self.localize_budgeted(input, budget);
                    *slots[i].lock().expect("batch slot poisoned") = Some(result);
                });
            }
        });

        let mut per_test = Vec::with_capacity(failing_inputs.len());
        for slot in slots {
            let result = slot
                .into_inner()
                .expect("batch slot poisoned")
                .expect("every batch index was claimed by a worker");
            per_test.push(result?);
        }
        Ok(crate::ranking::RankedReport::from_reports(per_test))
    }
}

#[cfg(test)]
mod enumeration_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use minic::parse_program;

    fn config8() -> LocalizerConfig {
        LocalizerConfig {
            encode: EncodeConfig {
                width: 8,
                ..EncodeConfig::default()
            },
            ..LocalizerConfig::default()
        }
    }

    /// Program 1 from the paper, with its line numbering.
    fn motivating_example() -> Program {
        parse_program(
            "int Array[3];\nint testme(int index) {\nif (index != 1) {\nindex = 2;\n} else {\nindex = index + 2;\n}\nint i = index;\nreturn Array[i];\n}",
        )
        .unwrap()
    }

    #[test]
    fn motivating_example_blames_the_faulty_line_first() {
        let program = motivating_example();
        let localizer = Localizer::new(&program, "testme", &Spec::Assertions, &config8()).unwrap();
        let report = localizer.localize(&[1]).unwrap();
        assert!(!report.suspects.is_empty());
        // The faulty assignment (line 6, `index = index + 2`) must be blamed.
        assert!(report.blames_line(Line(6)), "report: {report:?}");
        // The branch condition (line 3) is the other repair point the paper
        // reports; with blocking-clause enumeration it shows up as well.
        assert!(report.blames_line(Line(3)), "report: {report:?}");
        // The suspect set is small compared to the whole program: the paper
        // reports {line 3, line 6} (its lines 1 and 4); our whole-program
        // encoding may additionally surface the copy/return statements the
        // backward slice contains, but nothing beyond them.
        assert!(report.suspect_lines.len() <= 6, "{report:?}");
    }

    #[test]
    fn single_constant_bug_is_isolated() {
        // y should be x + 1; the constant 2 is wrong, detected when x = 3
        // against the golden output 4.
        let program =
            parse_program("int main(int x) {\nint y = x + 2;\nint z = y * 1;\nreturn z;\n}")
                .unwrap();
        let localizer =
            Localizer::new(&program, "main", &Spec::ReturnEquals(4), &config8()).unwrap();
        let report = localizer.localize(&[3]).unwrap();
        assert!(report.blames_line(Line(2)), "{report:?}");
        // The first (minimum-cost) suspect is a single line.
        assert_eq!(report.suspects[0].lines.len(), 1);
        assert_eq!(report.suspects[0].cost, 1);
    }

    #[test]
    fn unbudgeted_reports_are_complete_and_budget_expiry_is_not_an_error() {
        let program = motivating_example();
        let localizer = Localizer::new(&program, "testme", &Spec::Assertions, &config8()).unwrap();
        let exact = localizer.localize(&[1]).unwrap();
        assert!(exact.complete);

        // An already-expired deadline: the enumeration must come back
        // immediately, incomplete, with a prefix of the exact ranks (if
        // any) — never hang or error.
        let expired = Budget::with_deadline(Instant::now() - std::time::Duration::from_millis(1));
        let partial = localizer.localize_budgeted(&[1], expired).unwrap();
        assert!(!partial.complete, "{partial:?}");
        assert!(partial.suspects.len() <= exact.suspects.len());
        assert_eq!(partial.suspects, exact.suspects[..partial.suspects.len()]);

        // Lifting the budget on the same localizer restores the exact run
        // (the prepared formula is shared state; expiry must not corrupt it).
        let again = localizer
            .localize_budgeted(&[1], Budget::UNLIMITED)
            .unwrap();
        assert!(again.complete);
        assert_eq!(again.suspects, exact.suspects);
        assert_eq!(again.suspect_lines, exact.suspect_lines);
    }

    #[test]
    fn generous_budget_reproduces_the_exact_report() {
        let program = motivating_example();
        let localizer = Localizer::new(&program, "testme", &Spec::Assertions, &config8()).unwrap();
        let exact = localizer.localize(&[1]).unwrap();
        let generous = Budget::with_timeout(std::time::Duration::from_secs(3600));
        let budgeted = localizer.localize_budgeted(&[1], generous).unwrap();
        assert!(budgeted.complete);
        assert_eq!(budgeted.suspects, exact.suspects);
        assert_eq!(budgeted.suspect_lines, exact.suspect_lines);
    }

    #[test]
    fn correct_program_yields_no_suspects() {
        let program =
            parse_program("int main(int x) { int y = x + 1; assert(y == x + 1); return y; }")
                .unwrap();
        let localizer = Localizer::new(&program, "main", &Spec::Assertions, &config8()).unwrap();
        // Input 5 does not actually fail; the extended formula is satisfiable
        // with every statement enabled, so there is nothing to blame.
        let report = localizer.localize(&[5]).unwrap();
        assert!(report.suspects.is_empty());
        assert!(report.suspect_lines.is_empty());
    }

    #[test]
    fn trusted_lines_are_never_blamed() {
        let program =
            parse_program("int main(int x) {\nint y = x + 2;\nint z = y + 0;\nreturn z;\n}")
                .unwrap();
        let mut config = config8();
        config.trusted_lines = vec![Line(2)];
        let localizer = Localizer::new(&program, "main", &Spec::ReturnEquals(4), &config).unwrap();
        let report = localizer.localize(&[3]).unwrap();
        assert!(!report.blames_line(Line(2)), "{report:?}");
        // Blame shifts to the only other statement that can absorb the fix.
        assert!(report.blames_line(Line(3)) || report.blames_line(Line(4)));
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let program = parse_program("int main(int x) { return x; }").unwrap();
        let localizer =
            Localizer::new(&program, "main", &Spec::ReturnEquals(0), &config8()).unwrap();
        let err = localizer.localize(&[1, 2]).unwrap_err();
        assert!(matches!(
            err,
            LocalizeError::ArityMismatch {
                expected: 1,
                provided: 2
            }
        ));
    }

    #[test]
    fn report_metrics_are_consistent() {
        let program = motivating_example();
        let localizer = Localizer::new(&program, "testme", &Spec::Assertions, &config8()).unwrap();
        let report = localizer.localize(&[1]).unwrap();
        let pct = report.size_reduction_percent(localizer.program_lines());
        assert!(pct > 0.0 && pct <= 100.0);
        assert!(report.stats.maxsat_calls >= 1);
        assert!(report.stats.soft_clauses > 0);
        assert!(report.stats.hard_clauses > 0);
        for (i, suspect) in report.suspects.iter().enumerate() {
            assert_eq!(suspect.rank, i);
            assert!(!suspect.lines.is_empty());
            assert!(!format!("{suspect}").is_empty());
        }
    }

    #[test]
    fn localize_batch_matches_sequential_ranking() {
        // Golden function is x + 1; the constant 2 on line 2 is wrong for
        // every input except x = 3.
        let program = parse_program("int main(int x) {\nint y = x + 2;\nreturn y;\n}").unwrap();
        let localizer =
            Localizer::new(&program, "main", &Spec::ReturnEquals(4), &config8()).unwrap();
        let inputs: Vec<Vec<i64>> = vec![vec![5], vec![6], vec![7], vec![9]];
        let batched = localizer.localize_batch(&inputs).unwrap();
        let sequential = crate::ranking::RankedReport::from_reports(
            inputs
                .iter()
                .map(|i| localizer.localize(i).unwrap())
                .collect(),
        );
        assert_eq!(batched.per_test.len(), 4);
        assert_eq!(batched.max_count, sequential.max_count);
        let lines = |r: &crate::ranking::RankedReport| {
            r.ranking
                .iter()
                .map(|l| (l.line, l.count))
                .collect::<Vec<_>>()
        };
        assert_eq!(lines(&batched), lines(&sequential));
    }

    #[test]
    fn localize_batch_propagates_lowest_index_error() {
        let program = parse_program("int main(int x) { return x; }").unwrap();
        let localizer =
            Localizer::new(&program, "main", &Spec::ReturnEquals(0), &config8()).unwrap();
        let err = localizer
            .localize_batch(&[vec![0], vec![1, 2], vec![3]])
            .unwrap_err();
        assert!(matches!(err, LocalizeError::ArityMismatch { .. }));
    }

    #[test]
    fn localize_batch_of_nothing_is_empty() {
        let program = motivating_example();
        let localizer = Localizer::new(&program, "testme", &Spec::Assertions, &config8()).unwrap();
        let ranked = localizer.localize_batch(&[]).unwrap();
        assert!(ranked.per_test.is_empty());
        assert!(ranked.ranking.is_empty());
        assert_eq!(ranked.max_count, 0);
    }

    #[test]
    fn localizer_and_reports_are_send_and_sync() {
        // The service stores prepared localizers behind `Arc` and lets a
        // worker pool call `localize` concurrently; these bounds are what
        // make that sound, so pin them at compile time.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Localizer>();
        assert_send_sync::<PreparedTemplate>();
        assert_send_sync::<LocalizationReport>();
        assert_send_sync::<LocalizerStats>();
        assert_send_sync::<crate::ranking::RankedReport>();
    }

    #[test]
    fn extend_model_restores_eliminated_variables() {
        use sat::{SatResult, Solver};
        // With simplification on, a model of the *prepared* (simplified)
        // hard clauses assigns nothing meaningful to eliminated auxiliary
        // variables; `extend_model` must restore them so the full
        // bit-blasted formula is satisfied and the counterexample inputs
        // decode. Drive it exactly the way a witness consumer would: solve
        // the prepared template under a concrete failing input with the
        // property *violated*, extend, then check against the original.
        let program = motivating_example();
        let localizer = Localizer::new(&program, "testme", &Spec::Assertions, &config8()).unwrap();
        let prepared = &localizer.prepared;
        assert!(
            prepared.simplify_stats.vars_eliminated > 0,
            "the test is vacuous unless something was eliminated"
        );
        let mut solver = Solver::from_formula(prepared.hard());
        let mut assumptions = localizer.trace.input_assumption_lits(&[1]);
        // Every selector on: the faithful program semantics.
        assumptions.extend(prepared.selector_lits());
        assumptions.push(!localizer.trace.property);
        assert_eq!(solver.solve_assuming(&assumptions), SatResult::Sat);
        // Keep the selector assignments: the reconstruction's saved clauses
        // mention selector literals, and truncating them away would let the
        // replay pick arbitrary values for the eliminated variables.
        let mut model = solver.model();
        model.resize(prepared.instance.num_vars(), false);
        localizer.extend_model(&mut model);
        // The localizer consumed its grouped CNF while preparing; the
        // encoding is deterministic, so a fresh encode yields the original.
        assert_eq!(localizer.trace().cnf.num_clauses(), 0);
        let original = encode_program(&program, "testme", &Spec::Assertions, &config8().encode)
            .unwrap()
            .cnf;
        // After extension the model satisfies every original clause —
        // augmented with the selector/property facts that also hold in the
        // simplified solve.
        for (clause, _) in original.iter() {
            let augmented = clause.eval(&model);
            assert!(augmented, "unsatisfied original clause: {clause:?}");
        }
        assert_eq!(localizer.trace.inputs_from_model(&model), vec![1]);
    }

    #[test]
    fn prepared_formula_is_cached_across_calls() {
        let program = motivating_example();
        let localizer = Localizer::new(&program, "testme", &Spec::Assertions, &config8()).unwrap();
        let first = localizer.localize(&[1]).unwrap();
        // Every call solves over the one template `new` built, and the
        // per-call blocking clauses never leak into it.
        let again = localizer.localize(&[1]).unwrap();
        assert_eq!(first.suspects, again.suspects);
        assert_eq!(first.suspect_lines, again.suspect_lines);
        assert_eq!(first.stats.hard_clauses, again.stats.hard_clauses);
    }

    #[test]
    fn concurrent_localize_calls_share_one_prepared_instance() {
        use std::sync::Arc;
        let program = motivating_example();
        let localizer =
            Arc::new(Localizer::new(&program, "testme", &Spec::Assertions, &config8()).unwrap());
        let expected = localizer.localize(&[1]).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let shared = Arc::clone(&localizer);
                std::thread::spawn(move || shared.localize(&[1]).unwrap())
            })
            .collect();
        for handle in handles {
            let report = handle.join().expect("worker panicked");
            assert_eq!(report.suspects, expected.suspects);
            assert_eq!(report.suspect_lines, expected.suspect_lines);
        }
    }

    #[test]
    fn reprepare_line_shift_reuses_everything_and_matches_cold_build() {
        // The motivating example with a blank line inserted before line 6:
        // every statement from there on shifts down by one.
        let old_src = "int Array[3];\nint testme(int index) {\nif (index != 1) {\nindex = 2;\n} else {\nindex = index + 2;\n}\nint i = index;\nreturn Array[i];\n}";
        let new_src = "int Array[3];\nint testme(int index) {\nif (index != 1) {\nindex = 2;\n} else {\n\nindex = index + 2;\n}\nint i = index;\nreturn Array[i];\n}";
        let old_program = parse_program(old_src).unwrap();
        let new_program = parse_program(new_src).unwrap();
        let config = config8();
        let old = Localizer::new(&old_program, "testme", &Spec::Assertions, &config).unwrap();
        let before = old.localize(&[1]).unwrap();

        let (revised, delta) = old
            .reprepare(
                &old_program,
                &new_program,
                "testme",
                &Spec::Assertions,
                &config,
            )
            .unwrap();
        assert_eq!(delta, DeltaPrepare::Relabeled);
        assert!(delta.reused());

        let after = revised.localize(&[1]).unwrap();
        // Identical to a cold build of the edited program, field for field.
        let cold = Localizer::new(&new_program, "testme", &Spec::Assertions, &config).unwrap();
        let expected = cold.localize(&[1]).unwrap();
        assert_eq!(after.suspects, expected.suspects);
        assert_eq!(after.suspect_lines, expected.suspect_lines);
        // And it is the *shifted* answer: the faulty line moved 6 -> 7.
        assert!(before.blames_line(Line(6)));
        assert!(after.blames_line(Line(7)), "{after:?}");
        assert!(!after.blames_line(Line(6)), "{after:?}");
    }

    #[test]
    fn reprepare_dead_function_edit_is_reused() {
        let old_src = "int unused(int a) {\nreturn a * 2;\n}\nint main(int x) {\nint y = x + 2;\nreturn y;\n}";
        let new_src = "int unused(int a) {\nreturn a * 9;\n}\nint main(int x) {\nint y = x + 2;\nreturn y;\n}";
        let old_program = parse_program(old_src).unwrap();
        let new_program = parse_program(new_src).unwrap();
        let config = config8();
        let old = Localizer::new(&old_program, "main", &Spec::ReturnEquals(4), &config).unwrap();
        let (revised, delta) = old
            .reprepare(
                &old_program,
                &new_program,
                "main",
                &Spec::ReturnEquals(4),
                &config,
            )
            .unwrap();
        assert_eq!(delta, DeltaPrepare::DeadFunction);
        assert!(delta.reused());
        let cold = Localizer::new(&new_program, "main", &Spec::ReturnEquals(4), &config).unwrap();
        assert_eq!(
            revised.localize(&[3]).unwrap().suspects,
            cold.localize(&[3]).unwrap().suspects
        );
    }

    #[test]
    fn lint_errors_are_rejected_before_encoding_on_every_build_route() {
        let rejected_kind = |result: Result<Localizer, LocalizeError>| match result {
            Err(LocalizeError::Rejected(d)) => d.kind,
            other => panic!("expected a rejection, got {other:?}"),
        };
        let spec = Spec::ReturnEquals(4);
        let config = config8();
        let uninit = parse_program("int main(int x) {\nint y;\nreturn y;\n}").unwrap();
        assert_eq!(
            rejected_kind(Localizer::new(&uninit, "main", &spec, &config)),
            analysis::DiagnosticKind::UninitRead
        );
        // A type error outranks the uninitialized read on the line before.
        let both = parse_program("int main(int x) {\nint y;\nreturn y + nosuch;\n}").unwrap();
        assert_eq!(
            rejected_kind(Localizer::new(&both, "main", &spec, &config)),
            analysis::DiagnosticKind::Type
        );

        // A dead-function edit reuses the trace, but not the check's verdict.
        let old_program = parse_program(
            "int unused(int a) {\nreturn a * 2;\n}\nint main(int x) {\nint y = x + 2;\nreturn y;\n}",
        )
        .unwrap();
        let old = Localizer::new(&old_program, "main", &spec, &config).unwrap();
        let reprepare = |body: &str| {
            let src = format!("int unused(int a) {{\n{body}\n}}\nint main(int x) {{\nint y = x + 2;\nreturn y;\n}}");
            let new_program = parse_program(&src).unwrap();
            old.reprepare(&old_program, &new_program, "main", &spec, &config)
        };
        let (_, delta) = reprepare("int z = a;\nreturn z;").unwrap();
        assert_eq!(delta, DeltaPrepare::DeadFunction);
        assert_eq!(
            rejected_kind(reprepare("int z;\nreturn z;").map(|(l, _)| l)),
            analysis::DiagnosticKind::UninitRead
        );
    }

    #[test]
    fn reprepare_semantic_edit_rebuilds_and_matches_cold_build() {
        let old_src = "int helper(int a) {\nreturn a + 1;\n}\nint main(int x) {\nint y = helper(x) + 1;\nreturn y;\n}";
        let new_src = "int helper(int a) {\nreturn a + 2;\n}\nint main(int x) {\nint y = helper(x) + 1;\nreturn y;\n}";
        let old_program = parse_program(old_src).unwrap();
        let new_program = parse_program(new_src).unwrap();
        let config = config8();
        let old = Localizer::new(&old_program, "main", &Spec::ReturnEquals(4), &config).unwrap();
        let (revised, delta) = old
            .reprepare(
                &old_program,
                &new_program,
                "main",
                &Spec::ReturnEquals(4),
                &config,
            )
            .unwrap();
        assert_eq!(delta, DeltaPrepare::RebuiltFunction("helper".to_string()));
        assert!(!delta.reused());
        let cold = Localizer::new(&new_program, "main", &Spec::ReturnEquals(4), &config).unwrap();
        let (a, b) = (
            revised.localize(&[5]).unwrap(),
            cold.localize(&[5]).unwrap(),
        );
        assert_eq!(a.suspects, b.suspects);
        assert_eq!(a.suspect_lines, b.suspect_lines);
    }

    #[test]
    fn reprepare_falls_back_on_global_and_config_changes() {
        let old_program = parse_program("int main(int x) {\nint y = x + 2;\nreturn y;\n}").unwrap();
        let config = config8();
        let old = Localizer::new(&old_program, "main", &Spec::ReturnEquals(4), &config).unwrap();
        // Structural change beyond one function: a new global.
        let global =
            parse_program("int G = 7;\nint main(int x) {\nint y = x + 2;\nreturn y;\n}").unwrap();
        let (_, delta) = old
            .reprepare(
                &old_program,
                &global,
                "main",
                &Spec::ReturnEquals(4),
                &config,
            )
            .unwrap();
        assert_eq!(delta, DeltaPrepare::RebuiltGlobal);
        // Same program, different width: nothing reusable.
        let mut wide = config.clone();
        wide.encode.width = 16;
        let (_, delta) = old
            .reprepare(
                &old_program,
                &old_program,
                "main",
                &Spec::ReturnEquals(4),
                &wide,
            )
            .unwrap();
        assert_eq!(delta, DeltaPrepare::RebuiltConfig);
        // Different spec: same story.
        let (_, delta) = old
            .reprepare(
                &old_program,
                &old_program,
                "main",
                &Spec::Assertions,
                &config,
            )
            .unwrap();
        assert_eq!(delta, DeltaPrepare::RebuiltConfig);
    }

    #[test]
    fn reprepare_recomputes_trusted_lines_for_the_new_geometry() {
        // Line 2 is trusted in the old program; after a blank line on top the
        // same statement sits on line 3 and the *new* config trusts line 3.
        let old_program =
            parse_program("int main(int x) {\nint y = x + 2;\nint z = y + 0;\nreturn z;\n}")
                .unwrap();
        let new_program =
            parse_program("\nint main(int x) {\nint y = x + 2;\nint z = y + 0;\nreturn z;\n}")
                .unwrap();
        let mut old_config = config8();
        old_config.trusted_lines = vec![Line(2)];
        let mut new_config = config8();
        new_config.trusted_lines = vec![Line(3)];
        let old =
            Localizer::new(&old_program, "main", &Spec::ReturnEquals(4), &old_config).unwrap();
        let (revised, delta) = old
            .reprepare(
                &old_program,
                &new_program,
                "main",
                &Spec::ReturnEquals(4),
                &new_config,
            )
            .unwrap();
        assert_eq!(delta, DeltaPrepare::Relabeled);
        let report = revised.localize(&[3]).unwrap();
        assert!(
            !report.blames_line(Line(3)),
            "trusted line blamed: {report:?}"
        );
        assert!(report.blames_line(Line(4)) || report.blames_line(Line(5)));
    }

    #[test]
    fn static_prune_shrinks_the_instance_without_changing_the_report() {
        // Lines 3 and 4 cannot influence the return value; pruning hardens
        // their selectors, the soft set shrinks, and the report stays
        // byte-identical (modulo the instance-size counters).
        let program = parse_program(
            "int main(int x) {\nint y = x + 2;\nint junk = x * 3;\nint junk2 = junk + 1;\nreturn y;\n}",
        )
        .unwrap();
        let mut off = config8();
        off.static_prune = false;
        let pruned = Localizer::new(&program, "main", &Spec::ReturnEquals(4), &config8()).unwrap();
        let raw = Localizer::new(&program, "main", &Spec::ReturnEquals(4), &off).unwrap();
        let (a, b) = (pruned.localize(&[3]).unwrap(), raw.localize(&[3]).unwrap());
        assert_eq!(a.suspects, b.suspects);
        assert_eq!(a.suspect_lines, b.suspect_lines);
        assert_eq!(a.complete, b.complete);
        assert!(a.stats.lines_pruned >= 2, "{:?}", a.stats);
        assert_eq!(b.stats.lines_pruned, 0);
        assert_eq!(
            a.stats.soft_clauses + a.stats.lines_pruned as usize,
            b.stats.soft_clauses
        );
        assert!(!a.blames_line(Line(3)) && !a.blames_line(Line(4)));
    }

    #[test]
    fn pruned_trusted_overlap_counts_as_trusted() {
        // A line both trusted and pruned is hardened once and attributed to
        // the trusted set, not the pruning counter.
        let program =
            parse_program("int main(int x) {\nint y = x + 2;\nint junk = x * 3;\nreturn y;\n}")
                .unwrap();
        let mut config = config8();
        config.trusted_lines = vec![Line(3)];
        let localizer = Localizer::new(&program, "main", &Spec::ReturnEquals(4), &config).unwrap();
        let report = localizer.localize(&[3]).unwrap();
        assert_eq!(report.stats.lines_pruned, 0, "{:?}", report.stats);
        assert!(!report.blames_line(Line(3)));
    }

    #[test]
    fn static_options_gate_delta_reuse() {
        let program = parse_program("int main(int x) {\nint y = x + 2;\nreturn y;\n}").unwrap();
        let config = config8();
        let old = Localizer::new(&program, "main", &Spec::ReturnEquals(4), &config).unwrap();
        let mut no_prune = config.clone();
        no_prune.static_prune = false;
        let (_, delta) = old
            .reprepare(
                &program,
                &program,
                "main",
                &Spec::ReturnEquals(4),
                &no_prune,
            )
            .unwrap();
        assert_eq!(delta, DeltaPrepare::RebuiltConfig);
    }

    #[test]
    fn reprepare_line_shift_remaps_the_pruned_set() {
        // Blank line on top: the junk statement moves 3 -> 4, and the
        // relabeled localizer must keep pruning it at its new coordinate.
        let old_program =
            parse_program("int main(int x) {\nint y = x + 2;\nint junk = x * 3;\nreturn y;\n}")
                .unwrap();
        let new_program =
            parse_program("\nint main(int x) {\nint y = x + 2;\nint junk = x * 3;\nreturn y;\n}")
                .unwrap();
        let config = config8();
        let old = Localizer::new(&old_program, "main", &Spec::ReturnEquals(4), &config).unwrap();
        let before = old.localize(&[3]).unwrap();
        assert!(before.stats.lines_pruned >= 1);
        let (revised, delta) = old
            .reprepare(
                &old_program,
                &new_program,
                "main",
                &Spec::ReturnEquals(4),
                &config,
            )
            .unwrap();
        assert_eq!(delta, DeltaPrepare::Relabeled);
        let after = revised.localize(&[3]).unwrap();
        assert_eq!(after.stats.lines_pruned, before.stats.lines_pruned);
        let cold = Localizer::new(&new_program, "main", &Spec::ReturnEquals(4), &config).unwrap();
        let expected = cold.localize(&[3]).unwrap();
        assert_eq!(after.suspects, expected.suspects);
        assert_eq!(after.stats.lines_pruned, expected.stats.lines_pruned);
    }

    #[test]
    fn statement_instance_granularity_reports_unwindings() {
        let program = parse_program(
            "int main(int n) {\nint i = 0;\nint s = 0;\nwhile (i < n) {\ns = s + 2;\ni = i + 1;\n}\nassert(s != 6);\nreturn s;\n}",
        )
        .unwrap();
        let config = LocalizerConfig {
            granularity: Granularity::StatementInstance,
            loop_weighting: true,
            encode: EncodeConfig {
                width: 8,
                unwind: 6,
                ..EncodeConfig::default()
            },
            ..LocalizerConfig::default()
        };
        // n = 3 gives s = 6 and violates the assertion.
        let localizer = Localizer::new(&program, "main", &Spec::Assertions, &config).unwrap();
        let report = localizer.localize(&[3]).unwrap();
        assert!(!report.suspects.is_empty());
        let any_loop_instance = report
            .suspects
            .iter()
            .any(|s| s.unwindings.iter().any(|u| u.is_some()));
        assert!(any_loop_instance, "{report:?}");
    }
}
