//! Word-level intermediate representation between the symbolic encoder and
//! the bit-blaster.
//!
//! The PLDI'11 pipeline pays for every gate it emits: once a statement has
//! been bit-blasted, CNF-level machinery (the encoder's per-gate folds, the
//! preprocessor) can only shrink what already exists. This module moves the
//! fight one level up. The symbolic encoder builds a BTOR2-flavored
//! **word-level DAG** ([`WordDag`]) of fixed-width bit-vector and Boolean
//! nodes instead of calling the bit-blaster directly, and word-level passes
//! run *before any bit exists*:
//!
//! * **constant propagation / folding** — smart constructors evaluate
//!   constant operands and apply algebraic identities (`x + 0`, `x ^ x`,
//!   `c ? t : t`, Boolean absorption, conjunct subsumption, …), so folded
//!   expressions never allocate a node, let alone a gate;
//! * **ite-chain flattening** — a mux nested under the same condition
//!   collapses (`ite(c, ite(c, t, _), e) = ite(c, t, e)`);
//! * **cross-frame common-subexpression elimination** — nodes are
//!   hash-consed over operand identity, so the same comparison appearing in
//!   ten statements (or ten loop unwindings reading the same SSA bindings)
//!   is represented — and later bit-blasted — exactly once;
//! * **interval narrowing** — a range analysis bounds each pure node and
//!   [`WordDag::lower`] emits arithmetic at the narrowest sufficient width,
//!   sign-extending wires instead of carry chains.
//!
//! # Blame boundaries
//!
//! Clause groups (the unit of blame, one per statement instance) survive the
//! IR through **bound nodes** ([`WordBuilder::bind_bv`] /
//! [`WordBuilder::bind_bool`]): a bound node is a fresh vector equated to
//! its definition by biconditional clauses emitted *inside the statement's
//! group*. Relaxing the group's selector frees exactly the statement's
//! interface values — precisely what relaxing the statement's whole gate
//! cone freed in the gate-level encoding, because pure gates are referenced
//! from outside the group only through bound aliases. Bound nodes are never
//! hash-consed, never folded and never narrowed: they are relaxation
//! points, not values.
//!
//! # Examples
//!
//! Build `3 * x + 1`, lower it to CNF, and solve for `x` making it `22`:
//!
//! ```
//! use bitblast::word::{WordBuilder, WordConfig};
//! use bitblast::Encoder;
//! use sat::{SatResult, Solver};
//!
//! let mut b = WordBuilder::new(8, WordConfig::all());
//! let x = b.input();
//! let three = b.const_bv(3);
//! let one = b.const_bv(1);
//! let product = b.mul(three, x);
//! let sum = b.add(product, one);
//! let target = b.const_bv(22);
//! let eq = b.eq(sum, target);
//!
//! let dag = b.into_dag();
//! let mut enc = Encoder::new(8);
//! let lowered = dag.lower(&mut enc, &[eq, x], true, true);
//! enc.assert_true(lowered.lit(eq));
//!
//! let mut solver = Solver::from_formula(enc.cnf().formula());
//! assert_eq!(solver.solve(), SatResult::Sat);
//! assert_eq!(Encoder::bv_value(&solver.model(), lowered.bv(x)), 7);
//! ```

use crate::encoder::{BitVec, Encoder};
use crate::grouped::GroupId;
use sat::Lit;
use std::collections::HashMap;

/// Identifier of a node in a [`WordDag`]. Nodes only reference
/// lower-numbered nodes, so creation order is a topological order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index of this node in creation order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One word-level operation. Bit-vector nodes all share the DAG's width;
/// Boolean nodes carry guards, comparisons and the property.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum Node {
    /// Bit-vector constant (two's-complement wrapped to the width).
    Const(i64),
    /// Boolean constant.
    ConstBool(bool),
    /// Unconstrained input vector (entry parameter, `nondet`, or a call cut
    /// off by the inlining bound), numbered in creation order.
    Input(u32),
    /// Relaxation point: a fresh vector equated to `of` by clauses in the
    /// node's clause group. `seq` makes every binding distinct — bound nodes
    /// are deliberately *never* shared.
    Bound {
        /// The defining value.
        of: NodeId,
        /// Unique binding sequence number.
        seq: u32,
    },
    /// Boolean relaxation point (branch-decision routing).
    BoundBit {
        /// The defining value.
        of: NodeId,
        /// Unique binding sequence number.
        seq: u32,
    },
    /// Boolean negation.
    Not(NodeId),
    /// Boolean conjunction.
    And(NodeId, NodeId),
    /// Boolean disjunction.
    Or(NodeId, NodeId),
    /// Bit-vector equality (Boolean result).
    Eq(NodeId, NodeId),
    /// Signed less-than.
    Slt(NodeId, NodeId),
    /// Unsigned less-than.
    Ult(NodeId, NodeId),
    /// Is the vector non-zero? (C truthiness.)
    Nonzero(NodeId),
    /// If-then-else over bit-vectors with a Boolean condition.
    Ite(NodeId, NodeId, NodeId),
    /// Wrapping addition.
    Add(NodeId, NodeId),
    /// Wrapping subtraction.
    Sub(NodeId, NodeId),
    /// Wrapping multiplication.
    Mul(NodeId, NodeId),
    /// Signed division truncating toward zero; division by zero yields zero
    /// (MinC semantics).
    Sdiv(NodeId, NodeId),
    /// Signed remainder (sign of the dividend); remainder by zero is zero.
    Srem(NodeId, NodeId),
    /// Unsigned division; division by zero yields all-ones (the SMT-LIB /
    /// BTOR2 `bvudiv` convention, matched by the restoring divider).
    Udiv(NodeId, NodeId),
    /// Bitwise AND.
    BitAnd(NodeId, NodeId),
    /// Bitwise OR.
    BitOr(NodeId, NodeId),
    /// Bitwise XOR.
    BitXor(NodeId, NodeId),
    /// Bitwise complement.
    BitNot(NodeId),
    /// Left shift (unsigned amount; `>= width` yields zero).
    Shl(NodeId, NodeId),
    /// Arithmetic right shift (unsigned amount; `>= width` yields the sign
    /// fill).
    Ashr(NodeId, NodeId),
}

/// Which word-level passes run while building and lowering a DAG. The
/// symbolic encoder maps `EncodeConfig::word_passes` to [`WordConfig::all`]
/// or [`WordConfig::off`]; the per-pass equivalence tests toggle each field
/// individually.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WordConfig {
    /// Constant propagation/folding and algebraic identities in the smart
    /// constructors.
    pub fold: bool,
    /// Collapse ite chains nested under one condition.
    pub flatten: bool,
    /// Hash-cons structurally identical pure nodes (cross-statement and
    /// cross-frame sharing).
    pub cse: bool,
    /// Interval analysis + width narrowing during lowering.
    pub narrow: bool,
}

impl WordConfig {
    /// Every pass on (the `word_passes = true` pipeline).
    pub fn all() -> WordConfig {
        WordConfig {
            fold: true,
            flatten: true,
            cse: true,
            narrow: true,
        }
    }

    /// Every pass off — the gate-level reference pipeline used as the
    /// in-repo differential oracle.
    pub fn off() -> WordConfig {
        WordConfig {
            fold: false,
            flatten: false,
            cse: false,
            narrow: false,
        }
    }
}

/// Construction counters of a [`WordBuilder`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WordStats {
    /// Nodes materialized in the DAG.
    pub word_nodes: u64,
    /// Requests answered by constant folding or an algebraic rewrite instead
    /// of a new node.
    pub word_nodes_folded: u64,
    /// Requests answered from the hash-consing table (cross-statement /
    /// cross-frame sharing).
    pub word_cse_hits: u64,
}

/// An immutable word-level DAG, ready to evaluate or lower.
#[derive(Clone, Debug)]
pub struct WordDag {
    nodes: Vec<Node>,
    groups: Vec<Option<GroupId>>,
    width: usize,
}

impl WordDag {
    /// The node behind an id.
    pub(crate) fn node(&self, id: NodeId) -> Node {
        self.nodes[id.index()]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the DAG is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The bit width of every bit-vector node.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The clause group current when the node was created. For bound nodes
    /// this is the group that owns the binding clauses.
    pub fn group_of(&self, id: NodeId) -> Option<GroupId> {
        self.groups[id.index()]
    }

    /// The operand ids of a node, in order.
    pub(crate) fn operands(&self, id: NodeId) -> Vec<NodeId> {
        match self.node(id) {
            Node::Const(_) | Node::ConstBool(_) | Node::Input(_) => Vec::new(),
            Node::Bound { of, .. }
            | Node::BoundBit { of, .. }
            | Node::Not(of)
            | Node::Nonzero(of)
            | Node::BitNot(of) => vec![of],
            Node::And(a, b)
            | Node::Or(a, b)
            | Node::Eq(a, b)
            | Node::Slt(a, b)
            | Node::Ult(a, b)
            | Node::Add(a, b)
            | Node::Sub(a, b)
            | Node::Mul(a, b)
            | Node::Sdiv(a, b)
            | Node::Srem(a, b)
            | Node::Udiv(a, b)
            | Node::BitAnd(a, b)
            | Node::BitOr(a, b)
            | Node::BitXor(a, b)
            | Node::Shl(a, b)
            | Node::Ashr(a, b) => vec![a, b],
            Node::Ite(c, t, e) => vec![c, t, e],
        }
    }

    /// Evaluates a node on concrete inputs (`values[k]` feeds `Input(k)`,
    /// missing entries read zero). Bound nodes evaluate transparently to
    /// their definition — this is the semantics of the faithful program, all
    /// selectors on — so the evaluator doubles as the differential oracle
    /// for the word-level passes and the lowering.
    pub fn eval(&self, root: NodeId, values: &[i64]) -> i64 {
        let mut memo: Vec<Option<i64>> = vec![None; self.nodes.len()];
        for idx in 0..=root.index() {
            let id = NodeId(idx as u32);
            // Only evaluate what the root can reach; operands always precede
            // users, so a plain sweep with lazy reads stays correct.
            let v = self.eval_node(id, values, &memo);
            memo[idx] = Some(v);
        }
        memo[root.index()].expect("root evaluated")
    }

    fn eval_node(&self, id: NodeId, values: &[i64], memo: &[Option<i64>]) -> i64 {
        let w = self.width;
        let get = |operand: NodeId| memo[operand.index()].expect("operands precede users");
        let unsigned = |v: i64| (v as u64) & mask(w);
        match self.node(id) {
            Node::Const(c) => wrap(c as i128, w),
            Node::ConstBool(b) => i64::from(b),
            Node::Input(k) => wrap(values.get(k as usize).copied().unwrap_or(0) as i128, w),
            Node::Bound { of, .. } | Node::BoundBit { of, .. } => get(of),
            Node::Not(a) => i64::from(get(a) == 0),
            Node::And(a, b) => i64::from(get(a) != 0 && get(b) != 0),
            Node::Or(a, b) => i64::from(get(a) != 0 || get(b) != 0),
            Node::Eq(a, b) => i64::from(get(a) == get(b)),
            Node::Slt(a, b) => i64::from(get(a) < get(b)),
            Node::Ult(a, b) => i64::from(unsigned(get(a)) < unsigned(get(b))),
            Node::Nonzero(a) => i64::from(get(a) != 0),
            Node::Ite(c, t, e) => {
                if get(c) != 0 {
                    get(t)
                } else {
                    get(e)
                }
            }
            Node::Add(a, b) => wrap(get(a) as i128 + get(b) as i128, w),
            Node::Sub(a, b) => wrap(get(a) as i128 - get(b) as i128, w),
            Node::Mul(a, b) => wrap(get(a) as i128 * get(b) as i128, w),
            Node::Sdiv(a, b) => {
                let (a, b) = (get(a), get(b));
                if b == 0 {
                    0
                } else {
                    wrap((a as i128) / (b as i128), w)
                }
            }
            Node::Srem(a, b) => {
                let (a, b) = (get(a), get(b));
                if b == 0 {
                    0
                } else {
                    wrap((a as i128) % (b as i128), w)
                }
            }
            Node::Udiv(a, b) => {
                let (a, b) = (unsigned(get(a)), unsigned(get(b)));
                match a.checked_div(b) {
                    Some(q) => wrap(q as i128, w),
                    None => wrap(mask(w) as i128, w),
                }
            }
            Node::BitAnd(a, b) => wrap((get(a) & get(b)) as i128, w),
            Node::BitOr(a, b) => wrap((get(a) | get(b)) as i128, w),
            Node::BitXor(a, b) => wrap((get(a) ^ get(b)) as i128, w),
            Node::BitNot(a) => wrap(!get(a) as i128, w),
            Node::Shl(a, b) => {
                let amount = unsigned(get(b));
                if amount >= w as u64 {
                    0
                } else {
                    wrap(((unsigned(get(a))) << amount) as i128, w)
                }
            }
            Node::Ashr(a, b) => {
                let amount = unsigned(get(b));
                if amount >= w as u64 {
                    if get(a) < 0 {
                        -1
                    } else {
                        0
                    }
                } else {
                    wrap((get(a) >> amount) as i128, w)
                }
            }
        }
    }

    /// Bit-blasts the nodes reachable from `roots` (bound nodes are always
    /// lowered: their binding clauses are what makes a statement group
    /// blamable) through the encoder, in creation order, and returns the
    /// lowered wires.
    ///
    /// With `hoist` on, every *pure* node is emitted as group-less (hard)
    /// infrastructure: word-level CSE lowers each node once, and several
    /// statement groups may read it, so its gates belong to none of them.
    /// Bound nodes still emit their biconditionals inside their own group. With
    /// `hoist` off, each node's gates are emitted under the clause group that
    /// was current when the node was created — the gate-level reference
    /// encoding. With `narrow` on, pure arithmetic whose interval fits a
    /// smaller width is emitted at that width and sign-extended.
    pub fn lower(&self, enc: &mut Encoder, roots: &[NodeId], hoist: bool, narrow: bool) -> Lowered {
        let width = self.width;
        assert_eq!(enc.width(), width, "encoder/DAG width mismatch");
        // Reachability: roots plus every bound node (and what they reach).
        let mut reachable = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = roots.to_vec();
        for (idx, node) in self.nodes.iter().enumerate() {
            if matches!(node, Node::Bound { .. } | Node::BoundBit { .. }) {
                stack.push(NodeId(idx as u32));
            }
        }
        while let Some(id) = stack.pop() {
            if reachable[id.index()] {
                continue;
            }
            reachable[id.index()] = true;
            stack.extend(self.operands(id));
        }

        let intervals = if narrow {
            self.intervals(&reachable)
        } else {
            vec![None; self.nodes.len()]
        };

        let saved_group = enc.group();
        let mut lowered = Lowered {
            bv: vec![None; self.nodes.len()],
            bit: vec![None; self.nodes.len()],
            bits_narrowed: 0,
        };
        for (idx, live) in reachable.iter().enumerate() {
            if !live {
                continue;
            }
            let id = NodeId(idx as u32);
            self.lower_node(id, enc, hoist, &intervals, &mut lowered);
        }
        enc.set_group(saved_group);
        lowered
    }

    fn lower_node(
        &self,
        id: NodeId,
        enc: &mut Encoder,
        hoist: bool,
        intervals: &[Option<(i64, i64)>],
        out: &mut Lowered,
    ) {
        let width = self.width;
        let node = self.node(id);
        // Bound nodes always emit inside their own group; pure nodes are
        // hoisted to hard infrastructure (CSE lowers each once, and any group
        // may read it) or kept under their creation group in the reference
        // mode.
        let group = match node {
            Node::Bound { .. } | Node::BoundBit { .. } => self.group_of(id),
            _ if hoist => None,
            _ => self.group_of(id),
        };
        enc.set_group(group);
        let bv = |out: &Lowered, operand: NodeId| -> BitVec {
            out.bv[operand.index()].clone().expect("operand lowered")
        };
        let bit =
            |out: &Lowered, operand: NodeId| -> Lit { out.bit[operand.index()].expect("lowered") };
        // Narrowed emission width for this node, when the pass proved the
        // value fits: low `nw` bits are computed, the rest copy the sign.
        let narrow_to = |interval: Option<(i64, i64)>| -> Option<usize> {
            let (lo, hi) = interval?;
            let nw = needed_width(lo, hi);
            (nw < width).then_some(nw)
        };
        let truncate = |v: &BitVec, nw: usize| BitVec::from_bits(v.bits()[..nw].to_vec());
        let extend = |v: BitVec, nw: usize| -> BitVec {
            let mut bits = v.bits().to_vec();
            let sign = bits[nw - 1];
            bits.resize(width, sign);
            BitVec::from_bits(bits)
        };

        match node {
            Node::Const(c) => out.bv[id.index()] = Some(enc.const_bv(c)),
            Node::ConstBool(b) => out.bit[id.index()] = Some(enc.const_bit(b)),
            Node::Input(_) => out.bv[id.index()] = Some(enc.fresh_bv()),
            Node::Bound { of, .. } => {
                let value = bv(out, of);
                let fresh = enc.fresh_bv();
                enc.assert_equal(&fresh, &value);
                out.bv[id.index()] = Some(fresh);
            }
            Node::BoundBit { of, .. } => {
                let value = bit(out, of);
                let fresh = enc.fresh_bit();
                enc.assert_bit_equal(fresh, value);
                out.bit[id.index()] = Some(fresh);
            }
            Node::Not(a) => out.bit[id.index()] = Some(!bit(out, a)),
            Node::And(a, b) => {
                let (a, b) = (bit(out, a), bit(out, b));
                out.bit[id.index()] = Some(enc.and(a, b));
            }
            Node::Or(a, b) => {
                let (a, b) = (bit(out, a), bit(out, b));
                out.bit[id.index()] = Some(enc.or(a, b));
            }
            Node::Eq(a, b) | Node::Slt(a, b) => {
                // Both operands provably narrow: compare the narrow slices
                // (sign-extension preserves signed order and equality).
                let nw = match (intervals[a.index()], intervals[b.index()]) {
                    (Some((alo, ahi)), Some((blo, bhi))) => {
                        let nw = needed_width(alo, ahi).max(needed_width(blo, bhi));
                        (nw < width).then_some(nw)
                    }
                    _ => None,
                };
                let (mut av, mut bv_) = (bv(out, a), bv(out, b));
                if let Some(nw) = nw {
                    av = truncate(&av, nw);
                    bv_ = truncate(&bv_, nw);
                    out.bits_narrowed += (width - nw) as u64;
                }
                out.bit[id.index()] = Some(match node {
                    Node::Eq(..) => enc.bv_eq(&av, &bv_),
                    _ => enc.bv_slt(&av, &bv_),
                });
            }
            Node::Ult(a, b) => {
                let (a, b) = (bv(out, a), bv(out, b));
                out.bit[id.index()] = Some(enc.bv_ult(&a, &b));
            }
            Node::Nonzero(a) => {
                let a = bv(out, a);
                out.bit[id.index()] = Some(enc.bv_nonzero(&a));
            }
            Node::Ite(c, t, e) => {
                let cond = bit(out, c);
                let (tv, ev) = (bv(out, t), bv(out, e));
                let result = match narrow_to(intervals[id.index()]) {
                    Some(nw) => {
                        let narrow_t = truncate(&tv, nw);
                        let narrow_e = truncate(&ev, nw);
                        out.bits_narrowed += (width - nw) as u64;
                        extend(enc.bv_ite(cond, &narrow_t, &narrow_e), nw)
                    }
                    None => enc.bv_ite(cond, &tv, &ev),
                };
                out.bv[id.index()] = Some(result);
            }
            Node::Add(a, b) | Node::Sub(a, b) | Node::Mul(a, b) => {
                let (av, bvv) = (bv(out, a), bv(out, b));
                let emit = |enc: &mut Encoder, x: &BitVec, y: &BitVec| match node {
                    Node::Add(..) => enc.bv_add(x, y),
                    Node::Sub(..) => enc.bv_sub(x, y),
                    _ => enc.bv_mul(x, y),
                };
                let result = match narrow_to(intervals[id.index()]) {
                    Some(nw) => {
                        // Truncation is sound for modular arithmetic; the
                        // interval proves the result fits, so the high bits
                        // are sign copies.
                        let narrow_a = truncate(&av, nw);
                        let narrow_b = truncate(&bvv, nw);
                        out.bits_narrowed += (width - nw) as u64;
                        extend(emit(enc, &narrow_a, &narrow_b), nw)
                    }
                    None => emit(enc, &av, &bvv),
                };
                out.bv[id.index()] = Some(result);
            }
            Node::Sdiv(a, b) => {
                let (a, b) = (bv(out, a), bv(out, b));
                out.bv[id.index()] = Some(enc.bv_sdiv(&a, &b));
            }
            Node::Srem(a, b) => {
                let (a, b) = (bv(out, a), bv(out, b));
                out.bv[id.index()] = Some(enc.bv_srem(&a, &b));
            }
            Node::Udiv(a, b) => {
                let (a, b) = (bv(out, a), bv(out, b));
                out.bv[id.index()] = Some(enc.bv_udiv(&a, &b));
            }
            Node::BitAnd(a, b) => {
                let (a, b) = (bv(out, a), bv(out, b));
                out.bv[id.index()] = Some(enc.bv_and(&a, &b));
            }
            Node::BitOr(a, b) => {
                let (a, b) = (bv(out, a), bv(out, b));
                out.bv[id.index()] = Some(enc.bv_or(&a, &b));
            }
            Node::BitXor(a, b) => {
                let (a, b) = (bv(out, a), bv(out, b));
                out.bv[id.index()] = Some(enc.bv_xor(&a, &b));
            }
            Node::BitNot(a) => {
                let a = bv(out, a);
                out.bv[id.index()] = Some(enc.bv_not(&a));
            }
            Node::Shl(a, b) => {
                let (a, b) = (bv(out, a), bv(out, b));
                out.bv[id.index()] = Some(enc.bv_shl(&a, &b));
            }
            Node::Ashr(a, b) => {
                let (a, b) = (bv(out, a), bv(out, b));
                out.bv[id.index()] = Some(enc.bv_ashr(&a, &b));
            }
        }
    }

    /// Interval analysis: a conservative `(lo, hi)` range per reachable
    /// bit-vector node, `None` meaning "anything" (including possible
    /// wrap-around). Bound and input nodes are always top — narrowing a
    /// relaxation point would restrict the values a relaxed statement can
    /// take and change the localization semantics.
    fn intervals(&self, reachable: &[bool]) -> Vec<Option<(i64, i64)>> {
        let width = self.width;
        let min = -(1i128 << (width - 1));
        let max = (1i128 << (width - 1)) - 1;
        let fits = |lo: i128, hi: i128| -> Option<(i64, i64)> {
            (lo >= min && hi <= max).then_some((lo as i64, hi as i64))
        };
        let mut out: Vec<Option<(i64, i64)>> = vec![None; self.nodes.len()];
        for idx in 0..self.nodes.len() {
            if !reachable[idx] {
                continue;
            }
            let get = |id: NodeId| out[id.index()];
            out[idx] = match self.nodes[idx] {
                Node::Const(c) => {
                    let v = wrap(c as i128, width);
                    Some((v, v))
                }
                Node::Ite(_, t, e) => match (get(t), get(e)) {
                    (Some((tlo, thi)), Some((elo, ehi))) => Some((tlo.min(elo), thi.max(ehi))),
                    _ => None,
                },
                Node::Add(a, b) => match (get(a), get(b)) {
                    (Some((alo, ahi)), Some((blo, bhi))) => {
                        fits(alo as i128 + blo as i128, ahi as i128 + bhi as i128)
                    }
                    _ => None,
                },
                Node::Sub(a, b) => match (get(a), get(b)) {
                    (Some((alo, ahi)), Some((blo, bhi))) => {
                        fits(alo as i128 - bhi as i128, ahi as i128 - blo as i128)
                    }
                    _ => None,
                },
                Node::Mul(a, b) => match (get(a), get(b)) {
                    (Some((alo, ahi)), Some((blo, bhi))) => {
                        let corners = [
                            alo as i128 * blo as i128,
                            alo as i128 * bhi as i128,
                            ahi as i128 * blo as i128,
                            ahi as i128 * bhi as i128,
                        ];
                        fits(
                            corners.iter().copied().min().expect("nonempty"),
                            corners.iter().copied().max().expect("nonempty"),
                        )
                    }
                    _ => None,
                },
                _ => None,
            };
        }
        out
    }
}

/// The result of lowering a [`WordDag`]: one wire (bit-vector or literal)
/// per reachable node, plus the narrowing counter.
#[derive(Clone, Debug)]
pub struct Lowered {
    bv: Vec<Option<BitVec>>,
    bit: Vec<Option<Lit>>,
    /// Total bits saved by interval narrowing (sum over narrowed nodes of
    /// `width - narrowed_width`).
    pub bits_narrowed: u64,
}

impl Lowered {
    /// The lowered bit-vector of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node was not reachable from the lowering roots or is
    /// Boolean-sorted.
    pub fn bv(&self, id: NodeId) -> &BitVec {
        self.bv[id.index()].as_ref().expect("node was lowered")
    }

    /// The lowered literal of a Boolean node.
    ///
    /// # Panics
    ///
    /// Panics if the node was not reachable from the lowering roots or is
    /// bit-vector-sorted.
    pub fn lit(&self, id: NodeId) -> Lit {
        self.bit[id.index()].expect("node was lowered")
    }
}

fn mask(width: usize) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Two's-complement wrap of an arbitrary-precision value to `width` bits.
fn wrap(v: i128, width: usize) -> i64 {
    let bits = (v as u64) & mask(width);
    if width < 64 && bits >> (width - 1) & 1 == 1 {
        (bits | !mask(width)) as i64
    } else {
        bits as i64
    }
}

/// Smallest width whose signed range contains `lo..=hi`.
fn needed_width(lo: i64, hi: i64) -> usize {
    for n in 1..=64usize {
        let nmin = if n >= 64 {
            i64::MIN
        } else {
            -(1i64 << (n - 1))
        };
        let nmax = if n >= 64 {
            i64::MAX
        } else {
            (1i64 << (n - 1)) - 1
        };
        if lo >= nmin && hi <= nmax {
            return n;
        }
    }
    64
}

/// Builds a [`WordDag`] through hash-consing smart constructors.
///
/// The builder mirrors the [`Encoder`] surface the symbolic encoder used to
/// call directly (constants, fresh inputs, arithmetic, comparisons, muxes,
/// Boolean guards), but returns [`NodeId`]s instead of wires. Statement
/// boundaries are expressed with [`WordBuilder::set_group`] +
/// [`WordBuilder::bind_bv`] / [`WordBuilder::bind_bool`].
#[derive(Clone, Debug)]
pub struct WordBuilder {
    dag: WordDag,
    config: WordConfig,
    cons: HashMap<Node, NodeId>,
    group: Option<GroupId>,
    inputs: u32,
    bound_seq: u32,
    stats: WordStats,
}

impl WordBuilder {
    /// Creates a builder for `width`-bit vectors running the given passes.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `2..=64` (the encoder's supported
    /// range).
    pub fn new(width: usize, config: WordConfig) -> WordBuilder {
        assert!(
            (2..=64).contains(&width),
            "width must be in 2..=64, got {width}"
        );
        WordBuilder {
            dag: WordDag {
                nodes: Vec::new(),
                groups: Vec::new(),
                width,
            },
            config,
            cons: HashMap::new(),
            group: None,
            inputs: 0,
            bound_seq: 0,
            stats: WordStats::default(),
        }
    }

    /// The bit width.
    pub fn width(&self) -> usize {
        self.dag.width
    }

    /// The pass configuration.
    pub fn config(&self) -> WordConfig {
        self.config
    }

    /// Construction counters so far (`word_nodes` is the current DAG size).
    pub fn stats(&self) -> WordStats {
        WordStats {
            word_nodes: self.dag.len() as u64,
            ..self.stats
        }
    }

    /// Sets the clause group subsequent bindings (and, in the reference
    /// lowering, subsequent nodes' gates) belong to.
    pub fn set_group(&mut self, group: Option<GroupId>) {
        self.group = group;
    }

    /// The current clause group.
    pub fn group(&self) -> Option<GroupId> {
        self.group
    }

    /// Read access to the DAG built so far.
    pub fn dag(&self) -> &WordDag {
        &self.dag
    }

    /// Consumes the builder and returns the DAG.
    pub fn into_dag(self) -> WordDag {
        self.dag
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.dag.nodes.len() as u32);
        self.dag.nodes.push(node);
        self.dag.groups.push(self.group);
        id
    }

    /// Materializes (or, with CSE on, reuses) a pure node. Constants are
    /// always shared — they carry no clauses, so sharing them is free in
    /// every mode.
    fn mk(&mut self, node: Node) -> NodeId {
        let share = self.config.cse || matches!(node, Node::Const(_) | Node::ConstBool(_));
        if share {
            if let Some(&id) = self.cons.get(&node) {
                if !matches!(node, Node::Const(_) | Node::ConstBool(_)) {
                    self.stats.word_cse_hits += 1;
                }
                return id;
            }
        }
        let id = self.push(node);
        if share {
            self.cons.insert(node, id);
        }
        id
    }

    fn folded(&mut self, id: NodeId) -> NodeId {
        self.stats.word_nodes_folded += 1;
        id
    }

    /// The constant value of a node, if it is a bit-vector constant. Also
    /// the concretization hook the symbolic encoder uses for constant call
    /// arguments.
    pub fn const_value(&self, id: NodeId) -> Option<i64> {
        match self.dag.node(id) {
            Node::Const(c) => Some(c),
            _ => None,
        }
    }

    fn bool_value(&self, id: NodeId) -> Option<bool> {
        match self.dag.node(id) {
            Node::ConstBool(b) => Some(b),
            _ => None,
        }
    }

    // ----- leaves ---------------------------------------------------------

    /// The bit-vector constant for `value` (wrapped to the width).
    pub fn const_bv(&mut self, value: i64) -> NodeId {
        let wrapped = wrap(value as i128, self.dag.width);
        self.mk(Node::Const(wrapped))
    }

    /// The Boolean constant.
    pub fn const_bool(&mut self, value: bool) -> NodeId {
        self.mk(Node::ConstBool(value))
    }

    /// The always-true Boolean.
    pub fn tru(&mut self) -> NodeId {
        self.const_bool(true)
    }

    /// The always-false Boolean.
    pub fn fls(&mut self) -> NodeId {
        self.const_bool(false)
    }

    /// A fresh unconstrained input vector.
    pub fn input(&mut self) -> NodeId {
        let k = self.inputs;
        self.inputs += 1;
        self.push(Node::Input(k))
    }

    /// Number of input vectors allocated so far.
    pub fn num_inputs(&self) -> u32 {
        self.inputs
    }

    /// Binds `of` to a fresh relaxation-point vector whose defining clauses
    /// live in the current group. Never shared, never folded.
    pub fn bind_bv(&mut self, of: NodeId) -> NodeId {
        let seq = self.bound_seq;
        self.bound_seq += 1;
        self.push(Node::Bound { of, seq })
    }

    /// Binds a Boolean `of` to a fresh relaxation-point bit whose defining
    /// clauses live in the current group.
    pub fn bind_bool(&mut self, of: NodeId) -> NodeId {
        let seq = self.bound_seq;
        self.bound_seq += 1;
        self.push(Node::BoundBit { of, seq })
    }

    // ----- Boolean connectives --------------------------------------------

    /// Boolean negation.
    pub fn not(&mut self, a: NodeId) -> NodeId {
        if self.config.fold {
            if let Some(v) = self.bool_value(a) {
                let folded = self.const_bool(!v);
                return self.folded(folded);
            }
            if let Node::Not(inner) = self.dag.node(a) {
                return self.folded(inner);
            }
        }
        self.mk(Node::Not(a))
    }

    /// Boolean conjunction.
    pub fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if self.config.fold {
            match (self.bool_value(a), self.bool_value(b)) {
                (Some(false), _) | (_, Some(false)) => {
                    let f = self.fls();
                    return self.folded(f);
                }
                (Some(true), _) => return self.folded(b),
                (_, Some(true)) => return self.folded(a),
                _ => {}
            }
            if a == b {
                return self.folded(a);
            }
            if self.dag.node(a) == Node::Not(b) || self.dag.node(b) == Node::Not(a) {
                let f = self.fls();
                return self.folded(f);
            }
            // Subsumption: `x ∧ y = x` when `y` is already a conjunct of `x`.
            // Path guards are such chains: a branch guard is `active ∧ cond`,
            // and each statement inside it conjoins `¬returned` again, which
            // `active` already contains.
            if self.has_conjunct(a, b) {
                return self.folded(a);
            }
            if self.has_conjunct(b, a) {
                return self.folded(b);
            }
        }
        let (a, b) = (a.min(b), a.max(b));
        self.mk(Node::And(a, b))
    }

    /// Whether `target` occurs in the AND tree rooted at `root`. The walk
    /// gives up (answering `false`) after a fixed number of nodes, so each
    /// [`WordBuilder::and`] stays constant-time.
    fn has_conjunct(&self, root: NodeId, target: NodeId) -> bool {
        const BUDGET: usize = 32;
        let mut stack = vec![root];
        let mut visited = 0;
        while let Some(id) = stack.pop() {
            if id == target {
                return true;
            }
            visited += 1;
            if visited > BUDGET {
                return false;
            }
            if let Node::And(p, q) = self.dag.node(id) {
                stack.extend([p, q]);
            }
        }
        false
    }

    /// Boolean disjunction.
    pub fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if self.config.fold {
            match (self.bool_value(a), self.bool_value(b)) {
                (Some(true), _) | (_, Some(true)) => {
                    let t = self.tru();
                    return self.folded(t);
                }
                (Some(false), _) => return self.folded(b),
                (_, Some(false)) => return self.folded(a),
                _ => {}
            }
            if a == b {
                return self.folded(a);
            }
            if self.dag.node(a) == Node::Not(b) || self.dag.node(b) == Node::Not(a) {
                let t = self.tru();
                return self.folded(t);
            }
        }
        let (a, b) = (a.min(b), a.max(b));
        self.mk(Node::Or(a, b))
    }

    /// Implication `a -> b`.
    pub fn implies(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let na = self.not(a);
        self.or(na, b)
    }

    /// Conjunction over arbitrarily many Booleans.
    pub fn and_many(&mut self, bits: &[NodeId]) -> NodeId {
        let mut acc = self.tru();
        for &b in bits {
            acc = self.and(acc, b);
        }
        acc
    }

    // ----- comparisons ----------------------------------------------------

    /// Bit-vector equality.
    pub fn eq(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if self.config.fold {
            if a == b {
                let t = self.tru();
                return self.folded(t);
            }
            if let (Some(x), Some(y)) = (self.const_value(a), self.const_value(b)) {
                let r = self.const_bool(x == y);
                return self.folded(r);
            }
            // `(c ? t : e) == k` with constant branches collapses onto the
            // condition — the pattern every C truthiness round-trip
            // (`bool_to_bv` then a comparison) produces.
            for (ite, konst) in [(a, b), (b, a)] {
                if let (Node::Ite(c, t, e), Some(k)) = (self.dag.node(ite), self.const_value(konst))
                {
                    if let (Some(tv), Some(ev)) = (self.const_value(t), self.const_value(e)) {
                        let r = match (tv == k, ev == k) {
                            (true, true) => self.tru(),
                            (true, false) => c,
                            (false, true) => self.not(c),
                            (false, false) => self.fls(),
                        };
                        return self.folded(r);
                    }
                }
            }
        }
        let (a, b) = (a.min(b), a.max(b));
        self.mk(Node::Eq(a, b))
    }

    /// Bit-vector disequality.
    pub fn ne(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let e = self.eq(a, b);
        self.not(e)
    }

    /// Signed less-than.
    pub fn slt(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if self.config.fold {
            if a == b {
                let f = self.fls();
                return self.folded(f);
            }
            if let (Some(x), Some(y)) = (self.const_value(a), self.const_value(b)) {
                let r = self.const_bool(x < y);
                return self.folded(r);
            }
        }
        self.mk(Node::Slt(a, b))
    }

    /// Signed less-or-equal.
    pub fn sle(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let gt = self.slt(b, a);
        self.not(gt)
    }

    /// Signed greater-than.
    pub fn sgt(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.slt(b, a)
    }

    /// Signed greater-or-equal.
    pub fn sge(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let lt = self.slt(a, b);
        self.not(lt)
    }

    /// Unsigned less-than.
    pub fn ult(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if self.config.fold {
            if a == b {
                let f = self.fls();
                return self.folded(f);
            }
            if let (Some(x), Some(y)) = (self.const_value(a), self.const_value(b)) {
                let w = self.dag.width;
                let r = self.const_bool(((x as u64) & mask(w)) < ((y as u64) & mask(w)));
                return self.folded(r);
            }
        }
        self.mk(Node::Ult(a, b))
    }

    /// C truthiness: is the vector non-zero?
    pub fn nonzero(&mut self, a: NodeId) -> NodeId {
        if self.config.fold {
            if let Some(v) = self.const_value(a) {
                let r = self.const_bool(v != 0);
                return self.folded(r);
            }
            // `nonzero(c ? t : e)` with constant branches is the condition
            // (or its complement) — undoes Boolean-to-vector round-trips.
            if let Node::Ite(c, t, e) = self.dag.node(a) {
                if let (Some(tv), Some(ev)) = (self.const_value(t), self.const_value(e)) {
                    let r = match (tv != 0, ev != 0) {
                        (true, true) => self.tru(),
                        (true, false) => c,
                        (false, true) => self.not(c),
                        (false, false) => self.fls(),
                    };
                    return self.folded(r);
                }
            }
        }
        self.mk(Node::Nonzero(a))
    }

    /// `cond ? 1 : 0` — C Boolean results as vectors.
    pub fn bool_to_bv(&mut self, cond: NodeId) -> NodeId {
        let one = self.const_bv(1);
        let zero = self.const_bv(0);
        self.ite(cond, one, zero)
    }

    // ----- bit-vector operations ------------------------------------------

    /// If-then-else over vectors.
    pub fn ite(&mut self, cond: NodeId, mut then_v: NodeId, mut else_v: NodeId) -> NodeId {
        let mut cond = cond;
        if self.config.fold {
            if let Some(c) = self.bool_value(cond) {
                return self.folded(if c { then_v } else { else_v });
            }
            if then_v == else_v {
                return self.folded(then_v);
            }
            // Canonical positive condition.
            if let Node::Not(inner) = self.dag.node(cond) {
                cond = inner;
                std::mem::swap(&mut then_v, &mut else_v);
            }
        }
        if self.config.flatten {
            // A branch nested under the same condition is dead on arrival:
            // `ite(c, ite(c, t, _), e) = ite(c, t, e)` and dually. Loops
            // because the replacement branch may itself repeat the pattern.
            loop {
                if let Node::Ite(c2, t2, _) = self.dag.node(then_v) {
                    if c2 == cond {
                        self.stats.word_nodes_folded += 1;
                        then_v = t2;
                        continue;
                    }
                }
                if let Node::Ite(c2, _, e2) = self.dag.node(else_v) {
                    if c2 == cond {
                        self.stats.word_nodes_folded += 1;
                        else_v = e2;
                        continue;
                    }
                }
                break;
            }
            if then_v == else_v {
                return self.folded(then_v);
            }
        }
        self.mk(Node::Ite(cond, then_v, else_v))
    }

    fn fold_binop(
        &mut self,
        op: fn(i128, i128, usize) -> Option<i64>,
        a: NodeId,
        b: NodeId,
    ) -> Option<NodeId> {
        if !self.config.fold {
            return None;
        }
        let (x, y) = (self.const_value(a)?, self.const_value(b)?);
        let v = op(x as i128, y as i128, self.dag.width)?;
        let id = self.const_bv(v);
        Some(self.folded(id))
    }

    /// Wrapping addition.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if let Some(id) = self.fold_binop(|x, y, w| Some(wrap(x + y, w)), a, b) {
            return id;
        }
        if self.config.fold {
            if self.const_value(a) == Some(0) {
                return self.folded(b);
            }
            if self.const_value(b) == Some(0) {
                return self.folded(a);
            }
        }
        let (a, b) = (a.min(b), a.max(b));
        self.mk(Node::Add(a, b))
    }

    /// Wrapping subtraction.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if let Some(id) = self.fold_binop(|x, y, w| Some(wrap(x - y, w)), a, b) {
            return id;
        }
        if self.config.fold {
            if self.const_value(b) == Some(0) {
                return self.folded(a);
            }
            if a == b {
                let z = self.const_bv(0);
                return self.folded(z);
            }
        }
        self.mk(Node::Sub(a, b))
    }

    /// Two's-complement negation.
    pub fn neg(&mut self, a: NodeId) -> NodeId {
        let zero = self.const_bv(0);
        self.sub(zero, a)
    }

    /// Wrapping multiplication.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if let Some(id) = self.fold_binop(|x, y, w| Some(wrap(x * y, w)), a, b) {
            return id;
        }
        if self.config.fold {
            for (k, other) in [(a, b), (b, a)] {
                match self.const_value(k) {
                    Some(0) => {
                        let z = self.const_bv(0);
                        return self.folded(z);
                    }
                    Some(1) => return self.folded(other),
                    _ => {}
                }
            }
        }
        let (a, b) = (a.min(b), a.max(b));
        self.mk(Node::Mul(a, b))
    }

    /// Signed division (toward zero; division by zero yields zero).
    pub fn sdiv(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if let Some(id) = self.fold_binop(
            |x, y, w| Some(if y == 0 { 0 } else { wrap(x / y, w) }),
            a,
            b,
        ) {
            return id;
        }
        if self.config.fold && self.const_value(b) == Some(1) {
            return self.folded(a);
        }
        self.mk(Node::Sdiv(a, b))
    }

    /// Signed remainder (remainder by zero yields zero).
    pub fn srem(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if let Some(id) = self.fold_binop(
            |x, y, w| Some(if y == 0 { 0 } else { wrap(x % y, w) }),
            a,
            b,
        ) {
            return id;
        }
        if self.config.fold && self.const_value(b) == Some(1) {
            let z = self.const_bv(0);
            return self.folded(z);
        }
        self.mk(Node::Srem(a, b))
    }

    /// Unsigned division (division by zero yields all-ones).
    pub fn udiv(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if let Some(id) = self.fold_binop(
            |x, y, w| {
                let (xu, yu) = ((x as u64) & mask(w), (y as u64) & mask(w));
                Some(match xu.checked_div(yu) {
                    Some(q) => wrap(q as i128, w),
                    None => wrap(mask(w) as i128, w),
                })
            },
            a,
            b,
        ) {
            return id;
        }
        self.mk(Node::Udiv(a, b))
    }

    /// Bitwise AND.
    pub fn bitand(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if let Some(id) = self.fold_binop(|x, y, w| Some(wrap(x & y, w)), a, b) {
            return id;
        }
        if self.config.fold {
            if a == b {
                return self.folded(a);
            }
            for (k, other) in [(a, b), (b, a)] {
                match self.const_value(k) {
                    Some(0) => {
                        let z = self.const_bv(0);
                        return self.folded(z);
                    }
                    Some(-1) => return self.folded(other),
                    _ => {}
                }
            }
        }
        let (a, b) = (a.min(b), a.max(b));
        self.mk(Node::BitAnd(a, b))
    }

    /// Bitwise OR.
    pub fn bitor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if let Some(id) = self.fold_binop(|x, y, w| Some(wrap(x | y, w)), a, b) {
            return id;
        }
        if self.config.fold {
            if a == b {
                return self.folded(a);
            }
            for (k, other) in [(a, b), (b, a)] {
                match self.const_value(k) {
                    Some(0) => return self.folded(other),
                    Some(-1) => {
                        let m = self.const_bv(-1);
                        return self.folded(m);
                    }
                    _ => {}
                }
            }
        }
        let (a, b) = (a.min(b), a.max(b));
        self.mk(Node::BitOr(a, b))
    }

    /// Bitwise XOR.
    pub fn bitxor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if let Some(id) = self.fold_binop(|x, y, w| Some(wrap(x ^ y, w)), a, b) {
            return id;
        }
        if self.config.fold {
            if a == b {
                let z = self.const_bv(0);
                return self.folded(z);
            }
            for (k, other) in [(a, b), (b, a)] {
                if self.const_value(k) == Some(0) {
                    return self.folded(other);
                }
            }
        }
        let (a, b) = (a.min(b), a.max(b));
        self.mk(Node::BitXor(a, b))
    }

    /// Bitwise complement.
    pub fn bitnot(&mut self, a: NodeId) -> NodeId {
        if self.config.fold {
            if let Some(v) = self.const_value(a) {
                let r = self.const_bv(!v);
                return self.folded(r);
            }
            if let Node::BitNot(inner) = self.dag.node(a) {
                return self.folded(inner);
            }
        }
        self.mk(Node::BitNot(a))
    }

    /// Left shift.
    pub fn shl(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if let Some(id) = self.fold_binop(
            |x, y, w| {
                let amount = (y as u64) & mask(w);
                Some(if amount >= w as u64 {
                    0
                } else {
                    wrap((((x as u64) & mask(w)) << amount) as i128, w)
                })
            },
            a,
            b,
        ) {
            return id;
        }
        if self.config.fold && self.const_value(b) == Some(0) {
            return self.folded(a);
        }
        self.mk(Node::Shl(a, b))
    }

    /// Arithmetic right shift.
    pub fn ashr(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if let Some(id) = self.fold_binop(
            |x, y, w| {
                let amount = (y as u64) & mask(w);
                Some(if amount >= w as u64 {
                    if x < 0 {
                        -1
                    } else {
                        0
                    }
                } else {
                    wrap(x >> amount, w)
                })
            },
            a,
            b,
        ) {
            return id;
        }
        if self.config.fold && self.const_value(b) == Some(0) {
            return self.folded(a);
        }
        self.mk(Node::Ashr(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat::{SatResult, Solver};

    const W: usize = 8;

    fn builder(config: WordConfig) -> WordBuilder {
        WordBuilder::new(W, config)
    }

    /// Lowers `root`, fixes the inputs, solves and reads the root's value.
    fn solve_value(dag: &WordDag, root: NodeId, inputs: &[(NodeId, i64)]) -> i64 {
        let mut enc = Encoder::new(dag.width());
        let mut roots: Vec<NodeId> = inputs.iter().map(|&(id, _)| id).collect();
        roots.push(root);
        let lowered = dag.lower(&mut enc, &roots, true, true);
        let mut solver = Solver::from_formula(enc.cnf().formula());
        let mut assumptions = Vec::new();
        for &(id, v) in inputs {
            for (i, &bit) in lowered.bv(id).bits().iter().enumerate() {
                assumptions.push(bit.apply_sign(v >> i & 1 == 1));
            }
        }
        assert_eq!(solver.solve_assuming(&assumptions), SatResult::Sat);
        match lowered.bit[root.index()] {
            Some(lit) => i64::from(Encoder::bit_value(&solver.model(), lit)),
            None => Encoder::bv_value(&solver.model(), lowered.bv(root)),
        }
    }

    #[test]
    fn folding_evaluates_constant_trees() {
        let mut b = builder(WordConfig::all());
        let three = b.const_bv(3);
        let four = b.const_bv(4);
        let sum = b.add(three, four);
        assert_eq!(b.const_value(sum), Some(7));
        let twelve = b.mul(three, four);
        assert_eq!(b.const_value(twelve), Some(12));
        let cmp = b.slt(three, four);
        let t = b.tru();
        assert_eq!(cmp, t);
        assert!(b.stats().word_nodes_folded >= 3);
    }

    #[test]
    fn identities_fold_away() {
        let mut b = builder(WordConfig::all());
        let x = b.input();
        let zero = b.const_bv(0);
        let one = b.const_bv(1);
        assert_eq!(b.add(x, zero), x);
        assert_eq!(b.mul(x, one), x);
        assert_eq!(b.sub(x, x), zero);
        assert_eq!(b.bitxor(x, x), zero);
        let tru = b.tru();
        let nz = b.nonzero(x);
        assert_eq!(b.and(nz, tru), nz);
        let n = b.not(nz);
        assert_eq!(b.not(n), nz);
    }

    #[test]
    fn guard_chains_drop_repeated_conjuncts() {
        // The guard shape of a statement inside a branch:
        // `((g ∧ ¬r) ∧ c) ∧ ¬r` is `(g ∧ ¬r) ∧ c`.
        for config in [WordConfig::all(), WordConfig::off()] {
            let mut b = builder(config);
            let (x, y, z) = (b.input(), b.input(), b.input());
            let g = b.nonzero(x);
            let r = b.nonzero(y);
            let c = b.nonzero(z);
            let not_r = b.not(r);
            let active = b.and(g, not_r);
            let branch = b.and(active, c);
            let before = b.stats().word_nodes;
            let inner = b.and(branch, not_r);
            let swapped = b.and(not_r, branch);
            if config.fold {
                assert_eq!((inner, swapped), (branch, branch));
                assert_eq!(b.stats().word_nodes, before);
            } else {
                assert_ne!(inner, branch);
                assert_eq!(b.stats().word_nodes, before + 2);
            }
        }
    }

    #[test]
    fn truthiness_round_trip_collapses() {
        // nonzero(c ? 1 : 0) == c, and (c ? 1 : 0) == 0 is !c.
        let mut b = builder(WordConfig::all());
        let x = b.input();
        let y = b.input();
        let c = b.slt(x, y);
        let as_bv = b.bool_to_bv(c);
        assert_eq!(b.nonzero(as_bv), c);
        let zero = b.const_bv(0);
        let eq_zero = b.eq(as_bv, zero);
        let not_c = b.not(c);
        assert_eq!(eq_zero, not_c);
    }

    #[test]
    fn cse_shares_structurally_identical_nodes() {
        let mut b = builder(WordConfig::all());
        let x = b.input();
        let y = b.input();
        let s1 = b.add(x, y);
        let s2 = b.add(y, x); // commutative normalization
        assert_eq!(s1, s2);
        assert_eq!(b.stats().word_cse_hits, 1);

        let mut raw = builder(WordConfig::off());
        let x = raw.input();
        let y = raw.input();
        let s1 = raw.add(x, y);
        let s2 = raw.add(x, y);
        assert_ne!(s1, s2, "cse off never shares");
    }

    #[test]
    fn bound_nodes_are_never_shared() {
        let mut b = builder(WordConfig::all());
        let x = b.input();
        b.set_group(Some(GroupId(0)));
        let b1 = b.bind_bv(x);
        let b2 = b.bind_bv(x);
        assert_ne!(b1, b2);
        assert_eq!(b.dag().group_of(b1), Some(GroupId(0)));
    }

    #[test]
    fn ite_chains_flatten_under_one_condition() {
        let mut b = builder(WordConfig::all());
        let x = b.input();
        let y = b.input();
        let z = b.input();
        let c = b.nonzero(x);
        let inner = b.ite(c, y, z);
        // ite(c, inner, z) -> ite(c, y, z) == inner.
        let outer = b.ite(c, inner, z);
        assert_eq!(outer, inner);
    }

    #[test]
    fn eval_matches_lowered_circuit() {
        let samples: &[i64] = &[-128, -37, -1, 0, 1, 5, 77, 127];
        let mut b = builder(WordConfig::all());
        let x = b.input();
        let y = b.input();
        let three = b.const_bv(3);
        let product = b.mul(x, three);
        let sum = b.add(product, y);
        let quotient = b.sdiv(sum, y);
        let cmp = b.slt(quotient, x);
        let result = b.ite(cmp, sum, quotient);
        let dag = b.into_dag();
        for &xv in samples {
            for &yv in samples {
                let expected = dag.eval(result, &[xv, yv]);
                let got = solve_value(&dag, result, &[(x, xv), (y, yv)]);
                assert_eq!(got, expected, "x={xv} y={yv}");
            }
        }
    }

    #[test]
    fn narrowing_preserves_values_and_counts_bits() {
        // alim-style mux of small constants feeding an add: the add narrows.
        let mut b = builder(WordConfig::all());
        let x = b.input();
        let c = b.nonzero(x);
        let small_a = b.const_bv(5);
        let small_b = b.const_bv(9);
        let picked = b.ite(c, small_a, small_b);
        let three = b.const_bv(3);
        let sum = b.add(picked, three);
        let dag = b.into_dag();

        let mut enc = Encoder::new(W);
        let lowered = dag.lower(&mut enc, &[x, sum], true, true);
        assert!(lowered.bits_narrowed > 0, "nothing narrowed");
        for xv in [-3, 0, 1] {
            assert_eq!(
                solve_value(&dag, sum, &[(x, xv)]),
                dag.eval(sum, &[xv]),
                "x={xv}"
            );
        }
    }

    #[test]
    fn narrowing_never_touches_bound_nodes() {
        let mut b = builder(WordConfig::all());
        let one = b.const_bv(1);
        b.set_group(Some(GroupId(0)));
        let bound = b.bind_bv(one);
        let dag = b.into_dag();
        let mut enc = Encoder::new(W);
        let lowered = dag.lower(&mut enc, &[bound], true, true);
        // A bound node always lowers at full width even when its definition
        // is a narrow constant: it is a relaxation point.
        assert_eq!(lowered.bv(bound).width(), W);
    }

    #[test]
    fn hoisted_and_grouped_lowering_agree_on_values() {
        let mut b = builder(WordConfig::off());
        let x = b.input();
        b.set_group(Some(GroupId(0)));
        let five = b.const_bv(5);
        let sum = b.add(x, five);
        let bound = b.bind_bv(sum);
        b.set_group(None);
        let dag = b.into_dag();
        for hoist in [false, true] {
            let mut enc = Encoder::new(W);
            let lowered = dag.lower(&mut enc, &[x, bound], hoist, false);
            let mut solver = Solver::from_formula(enc.cnf().formula());
            let assumptions: Vec<Lit> = lowered
                .bv(x)
                .bits()
                .iter()
                .enumerate()
                .map(|(i, &bit)| bit.apply_sign(7 >> i & 1 == 1))
                .collect();
            assert_eq!(solver.solve_assuming(&assumptions), SatResult::Sat);
            assert_eq!(Encoder::bv_value(&solver.model(), lowered.bv(bound)), 12);
        }
    }

    #[test]
    fn grouped_lowering_tags_gate_clauses() {
        let mut b = builder(WordConfig::off());
        let x = b.input();
        let y = b.input();
        b.set_group(Some(GroupId(3)));
        let sum = b.add(x, y);
        let bound = b.bind_bv(sum);
        b.set_group(None);
        let dag = b.into_dag();

        // Reference mode: the adder's gates carry the statement's group.
        let mut grouped = Encoder::new(W);
        dag.lower(&mut grouped, &[x, y, bound], false, false);
        let in_group = grouped.cnf().clauses_in_group(GroupId(3));

        // Hoisted mode: only the binding biconditional stays in the group.
        let mut hoisted = Encoder::new(W);
        dag.lower(&mut hoisted, &[x, y, bound], true, false);
        assert_eq!(hoisted.cnf().clauses_in_group(GroupId(3)), 2 * W);
        assert!(in_group > 2 * W, "reference mode keeps gates in-group");
    }

    #[test]
    fn wrap_and_needed_width_are_consistent() {
        assert_eq!(wrap(130, 8), -126);
        assert_eq!(wrap(-129, 8), 127);
        assert_eq!(wrap(255, 8), -1);
        assert_eq!(needed_width(0, 1), 2);
        assert_eq!(needed_width(-1, 0), 1);
        assert_eq!(needed_width(0, 740), 11);
        assert_eq!(needed_width(-2048, 2047), 12);
    }
}
