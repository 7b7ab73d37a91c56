//! Symbolic (bounded-model-checking style) encoding of MinC programs.
//!
//! This module plays the role CBMC plays for the original BugAssist tool: it
//! unrolls loops up to a bound, inlines function calls up to a depth, renames
//! state in SSA fashion with guarded assignments, and encodes everything into
//! a [`GroupedCnf`] in which **every clause is tagged with the program
//! statement (and loop unwinding) it came from**. The BugAssist layer turns
//! those clause groups into selector variables (Sec. 3.4 of the paper) and
//! the resulting formula into a partial MAX-SAT instance.
//!
//! Since PR 6 the encoder no longer bit-blasts as it walks. It builds a
//! **word-level DAG** ([`bitblast::word`]) of BTOR2-flavored nodes first;
//! constant folding, ite flattening and cross-frame CSE run during
//! construction, interval narrowing during lowering, and only the surviving
//! nodes are bit-blasted through [`bitblast::Encoder`].
//! Statement groups survive as **bound nodes**: each statement's interface
//! values (its SSA bindings and branch decisions) are fresh vectors equated
//! to their definitions by clauses inside the statement's group, so relaxing
//! the group's selector frees exactly what the old gate-level encoding
//! freed. `EncodeConfig::word_passes` toggles the passes; with them off the
//! DAG is lowered one node per creation group, reproducing the gate-level
//! reference encoding that the equivalence tests pin reports against.
//!
//! The encoding covers the whole unrolled program (all branches, guarded),
//! not just one concrete path. This is essential for localization: the
//! MAX-SAT solver must be able to consider "the program takes the *other*
//! branch here" as a candidate fix, which is exactly how the paper's
//! motivating example blames the `if` condition on line 1 in addition to the
//! faulty assignment on line 4.

use crate::interp::{run_program, InterpConfig};
use crate::value::wrap;
use bitblast::word::{NodeId, WordBuilder, WordConfig, WordDag};
use bitblast::{BitVec, Encoder, GroupId, GroupedCnf};
use minic::ast::*;
use sat::Lit;
use std::collections::HashMap;
use std::fmt;

/// What counts as "the specification" when encoding a program.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Spec {
    /// The `assert(...)` statements in the program plus the implicit
    /// array-bounds assertions.
    Assertions,
    /// Additionally require that the entry function returns this value — the
    /// paper's "golden output" specification used for the Siemens programs.
    ReturnEquals(i64),
}

/// Configuration of the symbolic encoder.
///
/// `PartialEq` is load-bearing: the delta-localization reuse guard
/// (`bugassist::Localizer::reprepare`) compares whole configs, so any new
/// encoding-affecting field is automatically part of that comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncodeConfig {
    /// Integer width in bits.
    pub width: usize,
    /// Loop unwinding bound η.
    pub unwind: usize,
    /// Maximum function-inlining depth (bounds recursion).
    pub max_inline_depth: usize,
    /// Functions to replace by concrete execution when all their arguments
    /// are compile-time constants (the concolic-style "C" trace reduction of
    /// Sec. 6.2). The bug is assumed not to be inside these functions.
    pub concretize: Vec<String>,
    /// Run the word-level passes — constant folding, ite flattening,
    /// cross-frame CSE, interval narrowing — and hoist pure computation out
    /// of statement groups before bit-blasting (default `true`). Disabling
    /// reproduces the per-group gate-level encoding, the differential oracle
    /// the report-equivalence tests compare against.
    pub word_passes: bool,
}

impl Default for EncodeConfig {
    fn default() -> EncodeConfig {
        EncodeConfig {
            width: 16,
            unwind: 8,
            max_inline_depth: 16,
            concretize: Vec::new(),
            word_passes: true,
        }
    }
}

/// Provenance of one clause group: a statement instance in the unrolled,
/// inlined program.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StmtGroup {
    /// The group identifier (index into [`SymbolicTrace::groups`]).
    pub id: GroupId,
    /// Source line of the originating statement.
    pub line: Line,
    /// Function the statement belongs to.
    pub function: String,
    /// Loop unwinding index (0-based) if the statement instance is inside an
    /// unrolled loop iteration, `None` otherwise.
    pub unwinding: Option<usize>,
}

/// Size statistics of an encoding, reported in Table 3 of the paper.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EncodeStats {
    /// Number of guarded assignment instances in the unrolled program (the
    /// paper's "assign#" column).
    pub assignments: usize,
    /// Number of CNF variables.
    pub variables: usize,
    /// Number of CNF clauses.
    pub clauses: usize,
    /// Number of statement groups.
    pub groups: usize,
    /// Gates whose Tseitin clauses were actually emitted.
    pub gates_emitted: u64,
    /// Gate requests answered by constant folding / complement rules.
    pub gates_folded: u64,
    /// Word-level IR nodes materialized before bit-blasting.
    pub word_nodes: u64,
    /// Word-level node requests answered by constant folding or an algebraic
    /// rewrite instead of a new node (0 with `word_passes` off).
    pub word_nodes_folded: u64,
    /// Word-level node requests shared through hash-consing across
    /// statements and unroll frames (0 with `word_passes` off).
    pub word_cse_hits: u64,
    /// Total bits the interval analysis shaved off narrowed arithmetic
    /// during lowering (0 with `word_passes` off).
    pub bits_narrowed: u64,
}

/// Error produced by the symbolic encoder.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EncodeError {
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "encode error: {}", self.message)
    }
}

impl std::error::Error for EncodeError {}

/// The result of symbolically encoding a program: the paper's trace formula
/// TF with clause groups, the input variables, the property, and statistics.
#[derive(Clone, Debug)]
pub struct SymbolicTrace {
    /// The grouped CNF (TF1 in the paper's Equation 2, before selector
    /// augmentation). Ungrouped clauses are infrastructure and always hard.
    pub cnf: GroupedCnf,
    /// Provenance of every group, indexed by `GroupId`.
    pub groups: Vec<StmtGroup>,
    /// Entry-function parameters in declaration order.
    pub inputs: Vec<(String, BitVec)>,
    /// The bit-vector holding the entry function's return value, if any.
    pub return_value: Option<BitVec>,
    /// Literal that is true iff the specification holds (all assertions,
    /// bounds checks and — if requested — the golden output equality).
    pub property: Lit,
    /// Bit width used by the encoding.
    pub width: usize,
    /// Size statistics.
    pub stats: EncodeStats,
}

impl SymbolicTrace {
    /// Unit literals fixing the inputs to the given concrete test values —
    /// the `[[test]]` part of the extended trace formula.
    ///
    /// # Panics
    ///
    /// Panics if `args.len()` differs from the number of inputs.
    pub fn input_assumption_lits(&self, args: &[i64]) -> Vec<Lit> {
        assert_eq!(
            args.len(),
            self.inputs.len(),
            "test vector length must match the entry function arity"
        );
        let mut lits = Vec::new();
        for ((_, bv), &value) in self.inputs.iter().zip(args) {
            let value = wrap(value, self.width);
            for (i, &bit) in bv.bits().iter().enumerate() {
                lits.push(bit.apply_sign(value >> i & 1 == 1));
            }
        }
        lits
    }

    /// Reads the concrete input values chosen by a SAT model (used when the
    /// encoder is asked to *find* a failing test).
    pub fn inputs_from_model(&self, model: &[bool]) -> Vec<i64> {
        self.inputs
            .iter()
            .map(|(_, bv)| Encoder::bv_value(model, bv))
            .collect()
    }

    /// The distinct source lines that have at least one clause group.
    pub fn blamable_lines(&self) -> Vec<Line> {
        let mut lines: Vec<Line> = self.groups.iter().map(|g| g.line).collect();
        lines.sort();
        lines.dedup();
        lines
    }

    /// Appends this trace to `w` for the persistent prepared-formula store
    /// (see [`sat::bytes`]): group provenance, inputs, return value,
    /// property literal, width and encode statistics. The grouped CNF is
    /// not written: a stored trace belongs to a prepared localizer, which
    /// consumed it while building its template.
    pub fn encode_bytes(&self, w: &mut sat::bytes::ByteWriter) {
        w.write_usize(self.groups.len());
        for group in &self.groups {
            w.write_usize(group.id.index());
            w.write_u32(group.line.0);
            w.write_str(&group.function);
            match group.unwinding {
                None => w.write_u64(0),
                Some(u) => w.write_u64(1 + u as u64),
            }
        }
        w.write_usize(self.inputs.len());
        for (name, bv) in &self.inputs {
            w.write_str(name);
            bv.encode(w);
        }
        match &self.return_value {
            None => w.write_u8(0),
            Some(bv) => {
                w.write_u8(1);
                bv.encode(w);
            }
        }
        w.write_usize(self.property.code());
        w.write_usize(self.width);
        let s = &self.stats;
        w.write_usize(s.assignments);
        w.write_usize(s.variables);
        w.write_usize(s.clauses);
        w.write_usize(s.groups);
        w.write_u64(s.gates_emitted);
        w.write_u64(s.gates_folded);
        w.write_u64(s.word_nodes);
        w.write_u64(s.word_nodes_folded);
        w.write_u64(s.word_cse_hits);
        w.write_u64(s.bits_narrowed);
    }

    /// Reads back a trace written by [`SymbolicTrace::encode_bytes`], with
    /// an empty grouped CNF.
    pub fn decode_bytes(
        r: &mut sat::bytes::ByteReader<'_>,
    ) -> Result<SymbolicTrace, sat::bytes::DecodeError> {
        use sat::bytes::DecodeError;
        let num_groups = r.read_len(8)?;
        let mut groups = Vec::with_capacity(num_groups);
        for _ in 0..num_groups {
            let id = GroupId(r.read_usize()?);
            let line = Line(r.read_u32()?);
            let function = r.read_str()?.to_string();
            let unwinding = match r.read_u64()? {
                0 => None,
                u => Some(
                    usize::try_from(u - 1).map_err(|_| DecodeError::new("unwinding overflow"))?,
                ),
            };
            groups.push(StmtGroup {
                id,
                line,
                function,
                unwinding,
            });
        }
        let num_inputs = r.read_len(8)?;
        let mut inputs = Vec::with_capacity(num_inputs);
        for _ in 0..num_inputs {
            let name = r.read_str()?.to_string();
            inputs.push((name, BitVec::decode(r)?));
        }
        let return_value = match r.read_u8()? {
            0 => None,
            1 => Some(BitVec::decode(r)?),
            t => return Err(DecodeError::new(format!("bad return-value tag {t}"))),
        };
        let property = Lit::from_code(r.read_usize()?);
        let width = r.read_usize()?;
        let stats = EncodeStats {
            assignments: r.read_usize()?,
            variables: r.read_usize()?,
            clauses: r.read_usize()?,
            groups: r.read_usize()?,
            gates_emitted: r.read_u64()?,
            gates_folded: r.read_u64()?,
            word_nodes: r.read_u64()?,
            word_nodes_folded: r.read_u64()?,
            word_cse_hits: r.read_u64()?,
            bits_narrowed: r.read_u64()?,
        };
        Ok(SymbolicTrace {
            cnf: GroupedCnf::default(),
            groups,
            inputs,
            return_value,
            property,
            width,
            stats,
        })
    }
}

/// A word-level trace formula: the program's unrolled semantics as a
/// [`WordDag`], before any bit exists. Its concrete evaluator
/// ([`WordDag::eval`]) is the oracle the word-level passes are checked
/// against.
#[derive(Clone, Debug)]
pub struct WordTrace {
    /// The word-level DAG of the unrolled program.
    pub dag: WordDag,
    /// Entry-function parameters in declaration order.
    pub inputs: Vec<(String, NodeId)>,
    /// The entry function's return value, if any.
    pub return_value: Option<NodeId>,
    /// Boolean node that holds iff the specification holds, with the loop
    /// unwinding assumptions folded in as antecedents (so the formula is
    /// self-contained: `not(property)` is satisfiable iff a counterexample
    /// within the unwinding bound exists).
    pub property: NodeId,
    /// Provenance of every clause group, as in [`SymbolicTrace::groups`].
    pub groups: Vec<StmtGroup>,
    /// Bit width of the encoding.
    pub width: usize,
}

/// Encodes `program.entry(...)` to a word-level trace formula without
/// bit-blasting it — the front half of [`encode_program`], exposed for
/// evaluating the formula concretely and timing the word-level front end.
///
/// # Errors
///
/// Returns [`EncodeError`] under the same conditions as [`encode_program`].
///
/// # Examples
///
/// ```
/// use bmc::{word_trace, EncodeConfig, Spec};
/// use minic::parse_program;
/// let program = parse_program(
///     "int main(int x) { int y = x + 1; assert(y != 5); return y; }"
/// ).unwrap();
/// let wt = word_trace(&program, "main", &Spec::Assertions, &EncodeConfig::default()).unwrap();
/// // The property fails exactly where x + 1 == 5.
/// assert_eq!(wt.dag.eval(wt.property, &[4]), 0);
/// assert_ne!(wt.dag.eval(wt.property, &[3]), 0);
/// ```
pub fn word_trace(
    program: &Program,
    entry: &str,
    spec: &Spec,
    config: &EncodeConfig,
) -> Result<WordTrace, EncodeError> {
    let mut we = encode_to_words(program, entry, spec, config)?;
    // Fold the environmental assumptions into the claim.
    let assumed = we.encoder.b.and_many(&we.assumptions);
    let property = we.encoder.b.implies(assumed, we.property);
    Ok(WordTrace {
        dag: we.encoder.b.into_dag(),
        inputs: we.inputs,
        return_value: we.return_value,
        property,
        groups: we.encoder.groups,
        width: config.width,
    })
}

/// Symbolically encodes `program.entry(...)` with unconstrained inputs.
///
/// # Errors
///
/// Returns [`EncodeError`] if the entry function does not exist or a call
/// target is missing.
///
/// # Examples
///
/// ```
/// use bmc::{encode_program, EncodeConfig, Spec};
/// use minic::parse_program;
/// let program = parse_program(
///     "int main(int x) { int y = x + 1; assert(y != 5); return y; }"
/// ).unwrap();
/// let trace = encode_program(&program, "main", &Spec::Assertions, &EncodeConfig::default()).unwrap();
/// assert_eq!(trace.inputs.len(), 1);
/// assert!(trace.stats.clauses > 0);
/// ```
pub fn encode_program(
    program: &Program,
    entry: &str,
    spec: &Spec,
    config: &EncodeConfig,
) -> Result<SymbolicTrace, EncodeError> {
    let we = encode_to_words(program, entry, spec, config)?;
    let word_stats = we.encoder.b.stats();
    let groups = we.encoder.groups;
    let assignments = we.encoder.assignments;
    let dag = we.encoder.b.into_dag();

    let mut enc = Encoder::new(config.width);
    let mut roots: Vec<NodeId> = we.inputs.iter().map(|(_, id)| *id).collect();
    roots.push(we.property);
    roots.extend(we.assumptions.iter().copied());
    if let Some(rv) = we.return_value {
        roots.push(rv);
    }
    // With the passes on, pure computation is hoisted to hard infrastructure
    // (groups own only their bound-node biconditionals) and narrowed; with
    // them off each node lowers under its creation group — the gate-level
    // reference encoding.
    let lowered = dag.lower(&mut enc, &roots, config.word_passes, config.word_passes);

    enc.set_group(None);
    let property = lowered.lit(we.property);
    // Assumptions are environmental constraints: hard units.
    for &assumption in &we.assumptions {
        let lit = lowered.lit(assumption);
        enc.assert_true(lit);
    }

    let inputs: Vec<(String, BitVec)> = we
        .inputs
        .iter()
        .map(|(name, id)| (name.clone(), lowered.bv(*id).clone()))
        .collect();
    let return_value = we.return_value.map(|id| lowered.bv(id).clone());

    let gate_stats = enc.stats();
    let cnf = enc.into_cnf();
    let stats = EncodeStats {
        assignments,
        variables: cnf.num_vars(),
        clauses: cnf.num_clauses(),
        groups: groups.len(),
        gates_emitted: gate_stats.gates_emitted,
        gates_folded: gate_stats.gates_folded,
        word_nodes: word_stats.word_nodes,
        word_nodes_folded: word_stats.word_nodes_folded,
        word_cse_hits: word_stats.word_cse_hits,
        bits_narrowed: lowered.bits_narrowed,
    };
    Ok(SymbolicTrace {
        cnf,
        groups,
        inputs,
        return_value,
        property,
        width: config.width,
        stats,
    })
}

#[derive(Clone)]
enum SymVal {
    Scalar(NodeId),
    Array(Vec<NodeId>),
}

struct FrameCtx {
    locals: HashMap<String, SymVal>,
    /// Boolean node: has this frame returned on the current path?
    returned: NodeId,
    return_value: NodeId,
}

/// The word-level result of the symbolic walk, before lowering.
struct WordEncoding<'a> {
    encoder: SymbolicEncoder<'a>,
    inputs: Vec<(String, NodeId)>,
    return_value: Option<NodeId>,
    /// `and(assertions [, golden-output equality])`.
    property: NodeId,
    assumptions: Vec<NodeId>,
}

struct SymbolicEncoder<'a> {
    program: &'a Program,
    config: &'a EncodeConfig,
    b: WordBuilder,
    globals: HashMap<String, SymVal>,
    groups: Vec<StmtGroup>,
    assertions: Vec<NodeId>,
    assumptions: Vec<NodeId>,
    assignments: usize,
    current_function: String,
    current_unwinding: Option<usize>,
}

/// Walks the unrolled, inlined program and produces the word-level DAG plus
/// the property/assumption nodes — shared between [`encode_program`] and
/// [`word_trace`].
fn encode_to_words<'a>(
    program: &'a Program,
    entry: &str,
    spec: &Spec,
    config: &'a EncodeConfig,
) -> Result<WordEncoding<'a>, EncodeError> {
    let entry_fn = program.function(entry).ok_or_else(|| EncodeError {
        message: format!("entry function {entry:?} not found"),
    })?;
    let word_config = if config.word_passes {
        WordConfig::all()
    } else {
        WordConfig::off()
    };
    let mut encoder = SymbolicEncoder {
        program,
        config,
        b: WordBuilder::new(config.width, word_config),
        globals: HashMap::new(),
        groups: Vec::new(),
        assertions: Vec::new(),
        assumptions: Vec::new(),
        assignments: 0,
        current_function: entry.to_string(),
        current_unwinding: None,
    };

    // Globals: initial values are hard facts, not blamable statements.
    for global in &program.globals {
        let value = match global.ty {
            Type::Array(n) => SymVal::Array((0..n).map(|_| encoder.b.const_bv(0)).collect()),
            _ => SymVal::Scalar(encoder.b.const_bv(global.init.unwrap_or(0))),
        };
        encoder.globals.insert(global.name.clone(), value);
    }

    // Entry parameters are the unconstrained inputs.
    let mut inputs = Vec::new();
    let false_node = encoder.b.fls();
    let zero = encoder.b.const_bv(0);
    let mut frame = FrameCtx {
        locals: HashMap::new(),
        returned: false_node,
        return_value: zero,
    };
    for (pname, _) in &entry_fn.params {
        let node = encoder.b.input();
        inputs.push((pname.clone(), node));
        frame.locals.insert(pname.clone(), SymVal::Scalar(node));
    }

    let guard = encoder.b.tru();
    encoder.exec_block(&entry_fn.body, guard, &mut frame, 0)?;

    let return_value = entry_fn.ret.map(|_| frame.return_value);

    // Build the property: all assertions hold, all assumptions hold (they
    // are asserted as hard units at lowering), and optionally the golden
    // output.
    let mut property_parts = encoder.assertions.clone();
    if let Spec::ReturnEquals(expected) = spec {
        let expected_node = encoder.b.const_bv(*expected);
        let eq = encoder.b.eq(frame.return_value, expected_node);
        property_parts.push(eq);
    }
    encoder.b.set_group(None);
    let property = encoder.b.and_many(&property_parts);
    let assumptions = encoder.assumptions.clone();
    Ok(WordEncoding {
        encoder,
        inputs,
        return_value,
        property,
        assumptions,
    })
}

impl<'a> SymbolicEncoder<'a> {
    fn new_group(&mut self, line: Line) -> GroupId {
        let id = GroupId(self.groups.len());
        self.groups.push(StmtGroup {
            id,
            line,
            function: self.current_function.clone(),
            unwinding: self.current_unwinding,
        });
        id
    }

    fn lookup(&self, frame: &FrameCtx, name: &str) -> Option<SymVal> {
        frame
            .locals
            .get(name)
            .or_else(|| self.globals.get(name))
            .cloned()
    }

    fn store(&mut self, frame: &mut FrameCtx, name: &str, value: SymVal) {
        if frame.locals.contains_key(name) {
            frame.locals.insert(name.to_string(), value);
        } else if self.globals.contains_key(name) {
            self.globals.insert(name.to_string(), value);
        } else {
            frame.locals.insert(name.to_string(), value);
        }
    }

    fn exec_block(
        &mut self,
        block: &[Stmt],
        guard: NodeId,
        frame: &mut FrameCtx,
        depth: usize,
    ) -> Result<(), EncodeError> {
        for stmt in block {
            // A frame stops executing once it has returned on this path.
            let not_returned = self.b.not(frame.returned);
            let active = self.b.and(guard, not_returned);
            self.exec_stmt(stmt, active, frame, depth)?;
        }
        Ok(())
    }

    fn exec_stmt(
        &mut self,
        stmt: &Stmt,
        guard: NodeId,
        frame: &mut FrameCtx,
        depth: usize,
    ) -> Result<(), EncodeError> {
        match stmt {
            Stmt::Decl {
                name,
                ty,
                init,
                line,
            } => {
                match ty {
                    Type::Array(n) => {
                        let zero = self.b.const_bv(0);
                        frame
                            .locals
                            .insert(name.clone(), SymVal::Array(vec![zero; *n]));
                    }
                    _ => {
                        let group = self.new_group(*line);
                        self.b.set_group(Some(group));
                        let value = match init {
                            Some(e) => self.encode_expr(e, guard, frame, depth, *line)?,
                            None => self.b.const_bv(0),
                        };
                        let bound = self.b.bind_bv(value);
                        self.b.set_group(None);
                        self.assignments += 1;
                        frame.locals.insert(name.clone(), SymVal::Scalar(bound));
                    }
                }
                Ok(())
            }
            Stmt::Assign {
                target,
                value,
                line,
            } => {
                let group = self.new_group(*line);
                self.b.set_group(Some(group));
                let rhs = self.encode_expr(value, guard, frame, depth, *line)?;
                match target {
                    LValue::Var(name) => {
                        let old = match self.lookup(frame, name) {
                            Some(SymVal::Scalar(node)) => node,
                            _ => self.b.const_bv(0),
                        };
                        let merged = self.b.ite(guard, rhs, old);
                        let bound = self.b.bind_bv(merged);
                        self.b.set_group(None);
                        self.assignments += 1;
                        self.store(frame, name, SymVal::Scalar(bound));
                    }
                    LValue::Index(name, index) => {
                        let idx = self.encode_expr(index, guard, frame, depth, *line)?;
                        let elements = match self.lookup(frame, name) {
                            Some(SymVal::Array(elements)) => elements,
                            _ => Vec::new(),
                        };
                        let n = elements.len();
                        let mut updated = Vec::with_capacity(n);
                        for (j, &old) in elements.iter().enumerate() {
                            let j_node = self.b.const_bv(j as i64);
                            let here = self.b.eq(idx, j_node);
                            let write_here = self.b.and(guard, here);
                            let merged = self.b.ite(write_here, rhs, old);
                            let bound = self.b.bind_bv(merged);
                            updated.push(bound);
                        }
                        // Implicit bounds assertion (hard, part of the spec);
                        // its in-group index alias must be created before the
                        // group closes.
                        self.bounds_assertion(idx, n, guard);
                        self.b.set_group(None);
                        self.assignments += 1;
                        self.store(frame, name, SymVal::Array(updated));
                    }
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                line,
            } => {
                let group = self.new_group(*line);
                self.b.set_group(Some(group));
                let cond_node = self.encode_expr(cond, guard, frame, depth, *line)?;
                let cond_raw = self.b.nonzero(cond_node);
                // Route the branch decision through a bound bit defined only
                // by this statement's clauses so that removing the group
                // frees the decision (the "change the condition" fix).
                let cond_bit = self.b.bind_bool(cond_raw);
                self.b.set_group(None);
                let not_cond = self.b.not(cond_bit);
                let g_then = self.b.and(guard, cond_bit);
                let g_else = self.b.and(guard, not_cond);
                self.exec_block(then_branch, g_then, frame, depth)?;
                self.exec_block(else_branch, g_else, frame, depth)?;
                Ok(())
            }
            Stmt::While { cond, body, line } => {
                let saved_unwinding = self.current_unwinding;
                let mut enter = guard;
                for k in 0..self.config.unwind {
                    self.current_unwinding = Some(k);
                    let group = self.new_group(*line);
                    self.b.set_group(Some(group));
                    let cond_node = self.encode_expr(cond, enter, frame, depth, *line)?;
                    let cond_raw = self.b.nonzero(cond_node);
                    let cond_bit = self.b.bind_bool(cond_raw);
                    self.b.set_group(None);
                    let g_body = self.b.and(enter, cond_bit);
                    self.exec_block(body, g_body, frame, depth)?;
                    enter = g_body;
                }
                self.current_unwinding = saved_unwinding;
                // Unwinding assumption (hard): after η iterations the loop
                // condition no longer holds on any still-active path.
                self.b.set_group(None);
                let cond_node = self.encode_expr(cond, enter, frame, depth, *line)?;
                let cond_raw = self.b.nonzero(cond_node);
                let not_cond = self.b.not(cond_raw);
                let exited = self.b.implies(enter, not_cond);
                self.assumptions.push(exited);
                Ok(())
            }
            Stmt::Assert { cond, line } => {
                // The assertion is the specification: never blamable.
                self.b.set_group(None);
                let cond_node = self.encode_expr(cond, guard, frame, depth, *line)?;
                let cond_raw = self.b.nonzero(cond_node);
                let holds = self.b.implies(guard, cond_raw);
                self.assertions.push(holds);
                Ok(())
            }
            Stmt::Assume { cond, line } => {
                self.b.set_group(None);
                let cond_node = self.encode_expr(cond, guard, frame, depth, *line)?;
                let cond_raw = self.b.nonzero(cond_node);
                let holds = self.b.implies(guard, cond_raw);
                self.assumptions.push(holds);
                Ok(())
            }
            Stmt::Return { value, line } => {
                let group = self.new_group(*line);
                self.b.set_group(Some(group));
                let value_node = match value {
                    Some(e) => self.encode_expr(e, guard, frame, depth, *line)?,
                    None => self.b.const_bv(0),
                };
                let merged = self.b.ite(guard, value_node, frame.return_value);
                let bound = self.b.bind_bv(merged);
                self.b.set_group(None);
                self.assignments += 1;
                frame.return_value = bound;
                frame.returned = self.b.or(frame.returned, guard);
                Ok(())
            }
            Stmt::ExprStmt { expr, line } => {
                let group = self.new_group(*line);
                self.b.set_group(Some(group));
                let result = self.encode_expr(expr, guard, frame, depth, *line)?;
                // Bind the result so the statement's group owns clauses even
                // when the whole expression was folded or shared.
                let _ = self.b.bind_bv(result);
                self.b.set_group(None);
                Ok(())
            }
        }
    }

    /// Asserts `guard -> 0 <= idx < len` as part of the specification. The
    /// index is routed through a bound alias in the *current statement
    /// group*: the assertion itself is hard, but relaxing the statement
    /// frees the alias — exactly the relaxation power the gate-level
    /// encoding gave by keeping the index computation's gates in-group.
    fn bounds_assertion(&mut self, idx: NodeId, len: usize, guard: NodeId) {
        let alias = self.b.bind_bv(idx);
        let saved = self.b.group();
        self.b.set_group(None);
        let zero = self.b.const_bv(0);
        let n = self.b.const_bv(len as i64);
        let ge0 = self.b.sge(alias, zero);
        let lt_n = self.b.slt(alias, n);
        let in_bounds = self.b.and(ge0, lt_n);
        let ok = self.b.implies(guard, in_bounds);
        self.assertions.push(ok);
        self.b.set_group(saved);
    }

    fn encode_expr(
        &mut self,
        expr: &Expr,
        guard: NodeId,
        frame: &mut FrameCtx,
        depth: usize,
        line: Line,
    ) -> Result<NodeId, EncodeError> {
        match expr {
            Expr::Int(v) => Ok(self.b.const_bv(*v)),
            Expr::Bool(b) => Ok(self.b.const_bv(i64::from(*b))),
            Expr::Nondet => Ok(self.b.input()),
            Expr::Var(name) => match self.lookup(frame, name) {
                Some(SymVal::Scalar(node)) => Ok(node),
                Some(SymVal::Array(_)) => Err(EncodeError {
                    message: format!("array {name:?} used as a scalar at {line}"),
                }),
                None => Err(EncodeError {
                    message: format!("unknown variable {name:?} at {line}"),
                }),
            },
            Expr::Index(name, index) => {
                let idx = self.encode_expr(index, guard, frame, depth, line)?;
                let elements = match self.lookup(frame, name) {
                    Some(SymVal::Array(elements)) => elements,
                    _ => {
                        return Err(EncodeError {
                            message: format!("unknown array {name:?} at {line}"),
                        })
                    }
                };
                self.bounds_assertion(idx, elements.len(), guard);
                // Value = mux chain over the elements; out-of-range reads 0.
                let mut value = self.b.const_bv(0);
                for (j, &element) in elements.iter().enumerate() {
                    let j_node = self.b.const_bv(j as i64);
                    let here = self.b.eq(idx, j_node);
                    value = self.b.ite(here, element, value);
                }
                Ok(value)
            }
            Expr::Unary(op, e) => {
                let v = self.encode_expr(e, guard, frame, depth, line)?;
                Ok(match op {
                    UnOp::Neg => self.b.neg(v),
                    UnOp::BitNot => self.b.bitnot(v),
                    UnOp::Not => {
                        let nz = self.b.nonzero(v);
                        let negated = self.b.not(nz);
                        self.b.bool_to_bv(negated)
                    }
                })
            }
            Expr::Binary(op, lhs, rhs) => {
                let l = self.encode_expr(lhs, guard, frame, depth, line)?;
                let r = self.encode_expr(rhs, guard, frame, depth, line)?;
                Ok(self.encode_binop(*op, l, r))
            }
            Expr::Cond(c, t, e) => {
                let cv = self.encode_expr(c, guard, frame, depth, line)?;
                let cond = self.b.nonzero(cv);
                let tv = self.encode_expr(t, guard, frame, depth, line)?;
                let ev = self.encode_expr(e, guard, frame, depth, line)?;
                Ok(self.b.ite(cond, tv, ev))
            }
            Expr::Call(name, args) => self.encode_call(name, args, guard, frame, depth, line),
        }
    }

    fn encode_binop(&mut self, op: BinOp, l: NodeId, r: NodeId) -> NodeId {
        match op {
            BinOp::Add => self.b.add(l, r),
            BinOp::Sub => self.b.sub(l, r),
            BinOp::Mul => self.b.mul(l, r),
            BinOp::Div => self.b.sdiv(l, r),
            BinOp::Rem => self.b.srem(l, r),
            BinOp::BitAnd => self.b.bitand(l, r),
            BinOp::BitOr => self.b.bitor(l, r),
            BinOp::BitXor => self.b.bitxor(l, r),
            BinOp::Shl => self.b.shl(l, r),
            BinOp::Shr => self.b.ashr(l, r),
            BinOp::Eq => {
                let b = self.b.eq(l, r);
                self.b.bool_to_bv(b)
            }
            BinOp::Ne => {
                let b = self.b.ne(l, r);
                self.b.bool_to_bv(b)
            }
            BinOp::Lt => {
                let b = self.b.slt(l, r);
                self.b.bool_to_bv(b)
            }
            BinOp::Le => {
                let b = self.b.sle(l, r);
                self.b.bool_to_bv(b)
            }
            BinOp::Gt => {
                let b = self.b.sgt(l, r);
                self.b.bool_to_bv(b)
            }
            BinOp::Ge => {
                let b = self.b.sge(l, r);
                self.b.bool_to_bv(b)
            }
            BinOp::And => {
                let ln = self.b.nonzero(l);
                let rn = self.b.nonzero(r);
                let b = self.b.and(ln, rn);
                self.b.bool_to_bv(b)
            }
            BinOp::Or => {
                let ln = self.b.nonzero(l);
                let rn = self.b.nonzero(r);
                let b = self.b.or(ln, rn);
                self.b.bool_to_bv(b)
            }
        }
    }

    fn encode_call(
        &mut self,
        name: &str,
        args: &[Expr],
        guard: NodeId,
        frame: &mut FrameCtx,
        depth: usize,
        line: Line,
    ) -> Result<NodeId, EncodeError> {
        let mut arg_values = Vec::with_capacity(args.len());
        for arg in args {
            arg_values.push(self.encode_expr(arg, guard, frame, depth, line)?);
        }
        let callee = self.program.function(name).ok_or_else(|| EncodeError {
            message: format!("call to unknown function {name:?} at {line}"),
        })?;
        if callee.params.len() != arg_values.len() {
            return Err(EncodeError {
                message: format!("arity mismatch calling {name:?} at {line}"),
            });
        }

        // Concolic-style concretization: if requested and all arguments are
        // constants, run the interpreter instead of emitting clauses.
        // (Syntactic constants are `Const` nodes in every mode — constants
        // are always hash-consed — so this works with the passes off too.)
        if self.config.concretize.iter().any(|f| f == name) {
            let const_args: Option<Vec<i64>> = arg_values
                .iter()
                .map(|&node| self.b.const_value(node))
                .collect();
            if let Some(const_args) = const_args {
                let outcome = run_program(
                    self.program,
                    name,
                    &const_args,
                    &[],
                    InterpConfig {
                        width: self.config.width,
                        max_steps: 100_000,
                    },
                );
                if outcome.is_ok() {
                    return Ok(self.b.const_bv(outcome.result.unwrap_or(0)));
                }
            }
        }

        if depth >= self.config.max_inline_depth {
            // Recursion bound hit: the call's result is unconstrained.
            return Ok(self.b.input());
        }

        let saved_function = std::mem::replace(&mut self.current_function, name.to_string());
        let false_node = self.b.fls();
        let zero = self.b.const_bv(0);
        let mut callee_frame = FrameCtx {
            locals: HashMap::new(),
            returned: false_node,
            return_value: zero,
        };
        for ((pname, _), &value) in callee.params.iter().zip(&arg_values) {
            // Bind each argument through a bound node whose defining clauses
            // live in the *caller's* clause group: blaming the call site then
            // frees the argument values (this is how the strncat experiment
            // pins the wrong length constant at the call, Sec. 6.3). Bound
            // nodes are never shared, so two frames of the same callee can
            // never alias each other's parameters even when CSE shares their
            // defining expressions.
            let bound = self.b.bind_bv(value);
            callee_frame
                .locals
                .insert(pname.clone(), SymVal::Scalar(bound));
        }
        let saved_group = self.b.group();
        self.b.set_group(None);
        self.exec_block(&callee.body, guard, &mut callee_frame, depth + 1)?;
        self.b.set_group(saved_group);
        self.current_function = saved_function;
        Ok(callee_frame.return_value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::parse_program;
    use sat::{SatResult, Solver};

    fn small_config() -> EncodeConfig {
        EncodeConfig {
            width: 8,
            unwind: 8,
            max_inline_depth: 8,
            ..EncodeConfig::default()
        }
    }

    /// Checks that fixing the inputs to `args` makes the property evaluate to
    /// `expected_holds` — i.e. the symbolic encoding agrees with the concrete
    /// interpreter about whether the test passes.
    fn property_holds_with(
        src: &str,
        entry: &str,
        args: &[i64],
        spec: &Spec,
        config: &EncodeConfig,
    ) -> bool {
        let program = parse_program(src).unwrap();
        let trace = encode_program(&program, entry, spec, config).unwrap();
        let mut solver = Solver::from_formula(trace.cnf.formula());
        let mut assumptions = trace.input_assumption_lits(args);
        assumptions.push(trace.property);
        solver.solve_assuming(&assumptions) == SatResult::Sat
    }

    fn property_holds(src: &str, entry: &str, args: &[i64], spec: &Spec) -> bool {
        let on = property_holds_with(src, entry, args, spec, &small_config());
        // Every test doubles as a word-pass differential check: the
        // reference (passes-off) encoding must agree.
        let off = property_holds_with(
            src,
            entry,
            args,
            spec,
            &EncodeConfig {
                word_passes: false,
                ..small_config()
            },
        );
        assert_eq!(on, off, "word-pass and reference encodings disagree");
        on
    }

    #[test]
    fn straight_line_agreement_with_interpreter() {
        let src = "int main(int x) { int y = x * 3 + 1; assert(y != 10); return y; }";
        assert!(property_holds(src, "main", &[1], &Spec::Assertions));
        assert!(!property_holds(src, "main", &[3], &Spec::Assertions));
    }

    #[test]
    fn branches_both_encoded() {
        let src = "int main(int x) { int y = 0; if (x > 0) { y = 1; } else { y = 2; } assert(y == 1); return y; }";
        assert!(property_holds(src, "main", &[5], &Spec::Assertions));
        assert!(!property_holds(src, "main", &[-5], &Spec::Assertions));
    }

    #[test]
    fn golden_output_spec() {
        let src = "int main(int x) { return x + x; }";
        assert!(property_holds(src, "main", &[4], &Spec::ReturnEquals(8)));
        assert!(!property_holds(src, "main", &[5], &Spec::ReturnEquals(8)));
    }

    #[test]
    fn motivating_example_bounds_check() {
        let src = "int Array[3];\nint testme(int index) {\nif (index != 1) {\nindex = 2;\n} else {\nindex = index + 2;\n}\nint i = index;\nreturn Array[i];\n}";
        // index = 0 takes the then-branch, lands in bounds.
        assert!(property_holds(src, "testme", &[0], &Spec::Assertions));
        // index = 1 takes the else-branch and reads Array[3]: out of bounds.
        assert!(!property_holds(src, "testme", &[1], &Spec::Assertions));
    }

    #[test]
    fn loops_are_unwound() {
        let src = "int main(int n) { int s = 0; int i = 0; while (i < n) { s = s + i; i = i + 1; } assert(s != 6); return s; }";
        // s = 0+1+2+3 = 6 for n = 4 -> assertion fails.
        assert!(!property_holds(src, "main", &[4], &Spec::Assertions));
        assert!(property_holds(src, "main", &[3], &Spec::Assertions));
    }

    #[test]
    fn function_calls_are_inlined() {
        let src = r#"
            int double(int v) { return v + v; }
            int main(int x) { int y = double(x) + 1; assert(y != 9); return y; }
        "#;
        assert!(!property_holds(src, "main", &[4], &Spec::Assertions));
        assert!(property_holds(src, "main", &[3], &Spec::Assertions));
    }

    #[test]
    fn counterexample_search_finds_failing_input() {
        let src = "int main(int x) { int y = x + 3; assert(y != 10); return y; }";
        let program = parse_program(src).unwrap();
        let trace = encode_program(&program, "main", &Spec::Assertions, &small_config()).unwrap();
        let mut solver = Solver::from_formula(trace.cnf.formula());
        // Ask for an input that *violates* the property.
        assert_eq!(solver.solve_assuming(&[!trace.property]), SatResult::Sat);
        let inputs = trace.inputs_from_model(&solver.model());
        assert_eq!(inputs, vec![7]);
    }

    #[test]
    fn groups_cover_statement_lines() {
        let src = "int main(int x) {\nint y = x + 1;\nif (y > 2) {\ny = 2;\n}\nreturn y;\n}";
        let program = parse_program(src).unwrap();
        let trace = encode_program(&program, "main", &Spec::Assertions, &small_config()).unwrap();
        let lines = trace.blamable_lines();
        assert!(lines.contains(&Line(2)));
        assert!(lines.contains(&Line(3)));
        assert!(lines.contains(&Line(4)));
        assert!(lines.contains(&Line(6)));
        assert!(trace.stats.assignments >= 3);
        assert_eq!(trace.stats.groups, trace.groups.len());
    }

    #[test]
    fn loop_groups_record_unwindings() {
        let src = "int main(int n) {\nint i = 0;\nwhile (i < n) {\ni = i + 1;\n}\nreturn i;\n}";
        let program = parse_program(src).unwrap();
        let config = EncodeConfig {
            unwind: 4,
            ..small_config()
        };
        let trace = encode_program(&program, "main", &Spec::Assertions, &config).unwrap();
        let body_groups: Vec<_> = trace.groups.iter().filter(|g| g.line == Line(4)).collect();
        assert_eq!(body_groups.len(), 4, "one body instance per unwinding");
        let unwindings: Vec<_> = body_groups.iter().map(|g| g.unwinding).collect();
        assert_eq!(unwindings, vec![Some(0), Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn concretization_shrinks_the_encoding() {
        let src = r#"
            int table_lookup(int i) { int v = i * 7 + 3; return v; }
            int main(int x) { int c = table_lookup(5); assert(x + c != 50); return x; }
        "#;
        let program = parse_program(src).unwrap();
        let plain = encode_program(&program, "main", &Spec::Assertions, &small_config()).unwrap();
        let concretized = encode_program(
            &program,
            "main",
            &Spec::Assertions,
            &EncodeConfig {
                concretize: vec!["table_lookup".into()],
                ..small_config()
            },
        )
        .unwrap();
        assert!(concretized.stats.clauses < plain.stats.clauses);
        assert!(concretized.stats.assignments < plain.stats.assignments);
        // Semantics must be preserved: 50 - 38 = 12 still fails.
        let mut solver = Solver::from_formula(concretized.cnf.formula());
        let mut assumptions = concretized.input_assumption_lits(&[12]);
        assumptions.push(concretized.property);
        assert_eq!(solver.solve_assuming(&assumptions), SatResult::Unsat);
    }

    #[test]
    fn unknown_entry_is_an_error() {
        let program = parse_program("int main() { return 0; }").unwrap();
        let err = encode_program(&program, "nope", &Spec::Assertions, &small_config()).unwrap_err();
        assert!(err.message.contains("not found"));
    }

    #[test]
    fn early_return_paths_merge() {
        let src = r#"
            int clamp(int x) {
                if (x > 10) { return 10; }
                if (x < 0) { return 0; }
                return x;
            }
            int main(int x) { int y = clamp(x); assert(y <= 10 && y >= 0); return y; }
        "#;
        for v in [-5, 0, 5, 10, 20] {
            assert!(
                property_holds(src, "main", &[v], &Spec::Assertions),
                "clamp({v})"
            );
        }
    }

    /// Two unroll frames (and two inlined frames) of the same code compute
    /// structurally identical expressions; cross-frame CSE must share the
    /// *computations* without ever aliasing the frames' *bindings*. If the
    /// per-iteration bindings collapsed, `i` could not advance and the sum
    /// below would be wrong.
    #[test]
    fn two_frames_with_identical_locals_do_not_alias() {
        // Each iteration rebinds `i` to `i + 1` — the same syntactic
        // expression every time — and `s` accumulates distinct values.
        let src = "int main(int n) { int s = 0; int i = 0; while (i < n) { s = s + 1; i = i + 1; } assert(s != 2); return s; }";
        assert!(!property_holds(src, "main", &[2], &Spec::Assertions));
        assert!(property_holds(src, "main", &[3], &Spec::Assertions));

        // Two inlined frames of the same callee with the same local name:
        // inc(1) and inc(2) must keep distinct `r` bindings.
        let inlined = r#"
            int inc(int v) { int r = v + 1; return r; }
            int main(int x) { int a = inc(x); int b = inc(a); assert(b != 7); return b; }
        "#;
        assert!(!property_holds(inlined, "main", &[5], &Spec::Assertions));
        assert!(property_holds(inlined, "main", &[4], &Spec::Assertions));
    }

    /// The word counters prove the passes ran (and stay zero when off).
    #[test]
    fn word_counters_report_the_passes() {
        let src =
            "int main(int x) { int y = x + 0; int z = x + 0; assert(y + z != 14); return y; }";
        let program = parse_program(src).unwrap();
        let on = encode_program(&program, "main", &Spec::Assertions, &small_config()).unwrap();
        assert!(on.stats.word_nodes > 0);
        assert!(on.stats.word_nodes_folded > 0, "x + 0 must fold");
        assert!(on.stats.word_cse_hits > 0, "the two x + 0 decls must share");
        let off = encode_program(
            &program,
            "main",
            &Spec::Assertions,
            &EncodeConfig {
                word_passes: false,
                ..small_config()
            },
        )
        .unwrap();
        assert_eq!(off.stats.word_nodes_folded, 0);
        assert_eq!(off.stats.word_cse_hits, 0);
        assert_eq!(off.stats.bits_narrowed, 0);
        // Same verdicts either way (checked in depth by tests/word_level.rs).
        assert!(on.stats.gates_emitted <= off.stats.gates_emitted);
    }

    /// `word_trace` exposes the same program as a DAG whose concrete
    /// evaluator agrees with the interpreter.
    #[test]
    fn word_trace_evaluates_like_the_interpreter() {
        let src = "int main(int x) { int y = x * 3 + 1; assert(y != 22); return y; }";
        let program = parse_program(src).unwrap();
        let wt = word_trace(&program, "main", &Spec::Assertions, &small_config()).unwrap();
        assert_eq!(wt.inputs.len(), 1);
        let ret = wt.return_value.expect("main returns");
        for x in [-4i64, 0, 7, 11] {
            assert_eq!(wt.dag.eval(ret, &[x]), wrap(x * 3 + 1, 8));
            let holds = wt.dag.eval(wt.property, &[x]) != 0;
            assert_eq!(holds, x != 7, "x={x}");
        }
    }
}
