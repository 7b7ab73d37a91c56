//! Bit-precise encoding of word-level operations into CNF.
//!
//! The paper's trace formulas treat C integers bit-precisely ("we assume that
//! integers and integer operations are encoded in a bit-precise way", Sec. 2);
//! CBMC does this by bit-blasting. [`Encoder`] provides the same service for
//! the MinC pipeline: fixed-width two's-complement bit-vectors ([`BitVec`]),
//! Tseitin-encoded gates, ripple-carry arithmetic, comparators, shifts,
//! multiplication and restoring division, all emitted into a [`GroupedCnf`]
//! whose clause groups record which program statement each clause came from.

use crate::grouped::{GroupId, GroupedCnf};
use sat::Lit;

/// A fixed-width two's-complement bit-vector of CNF literals, LSB first.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitVec {
    bits: Vec<Lit>,
}

impl BitVec {
    /// The literals, least-significant bit first.
    pub fn bits(&self) -> &[Lit] {
        &self.bits
    }

    /// Width in bits.
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// The sign (most significant) bit.
    pub fn sign_bit(&self) -> Lit {
        *self.bits.last().expect("bit-vectors are never empty")
    }

    /// Assembles a bit-vector from literals, least-significant bit first.
    /// The word-level lowering uses this to build truncated and re-extended
    /// vectors around narrowed arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty.
    pub fn from_bits(bits: Vec<Lit>) -> BitVec {
        assert!(!bits.is_empty(), "bit-vectors are never empty");
        BitVec { bits }
    }

    /// Appends this bit-vector to `w` for the persistent prepared-formula
    /// store: width, then each literal's [`Lit::code`] LSB first.
    pub fn encode(&self, w: &mut sat::bytes::ByteWriter) {
        w.write_usize(self.bits.len());
        for lit in &self.bits {
            w.write_usize(lit.code());
        }
    }

    /// Reads back a bit-vector written by [`BitVec::encode`].
    pub fn decode(r: &mut sat::bytes::ByteReader<'_>) -> Result<BitVec, sat::bytes::DecodeError> {
        let width = r.read_len(8)?;
        if width == 0 {
            return Err(sat::bytes::DecodeError::new("empty bit-vector"));
        }
        let mut bits = Vec::with_capacity(width);
        for _ in 0..width {
            bits.push(Lit::from_code(r.read_usize()?));
        }
        Ok(BitVec { bits })
    }
}

/// Gate counters of an [`Encoder`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EncoderStats {
    /// Gates whose Tseitin clauses were actually emitted.
    pub gates_emitted: u64,
    /// Gate requests answered by constant folding or a complement/absorption
    /// rewrite rule (no fresh variable, no clauses).
    pub gates_folded: u64,
}

/// Bit-blasting encoder.
///
/// All emitted clauses are tagged with the encoder's *current group* (see
/// [`Encoder::set_group`]); the BugAssist layer later augments each group's
/// clauses with that statement's selector variable.
///
/// Gate construction is stateless: each `and` / `xor` / `ite` request is
/// first tried against constant folds, complement rules and (for `ite`) the
/// degenerate-mux rewrites, and otherwise emits one fresh Tseitin gate.
/// Sharing of repeated structure happens a level higher, in the hash-consed
/// word IR, which lowers each node once. [`Encoder::stats`] counts emitted
/// and folded gates.
///
/// # Examples
///
/// ```
/// use bitblast::Encoder;
/// use sat::{Solver, SatResult};
///
/// let mut enc = Encoder::new(8);
/// let a = enc.const_bv(17);
/// let b = enc.const_bv(25);
/// let sum = enc.bv_add(&a, &b);
/// let expected = enc.const_bv(42);
/// let eq = enc.bv_eq(&sum, &expected);
/// enc.assert_true(eq);
///
/// let mut solver = Solver::from_formula(enc.cnf().formula());
/// assert_eq!(solver.solve(), SatResult::Sat);
/// ```
#[derive(Clone, Debug)]
pub struct Encoder {
    cnf: GroupedCnf,
    width: usize,
    group: Option<GroupId>,
    true_lit: Lit,
    stats: EncoderStats,
}

impl Encoder {
    /// Creates an encoder for `width`-bit integers.
    ///
    /// # Panics
    ///
    /// Panics if `width < 2` or `width > 64`.
    pub fn new(width: usize) -> Encoder {
        assert!(
            (2..=64).contains(&width),
            "width must be in 2..=64, got {width}"
        );
        let mut cnf = GroupedCnf::new();
        let true_lit = cnf.add_true_lit();
        Encoder {
            cnf,
            width,
            group: None,
            true_lit,
            stats: EncoderStats::default(),
        }
    }

    /// The configured bit width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Gate counters accumulated so far.
    pub fn stats(&self) -> EncoderStats {
        self.stats
    }

    /// Sets the clause group subsequent emissions belong to (`None` = no
    /// group, i.e. always-hard infrastructure clauses).
    pub fn set_group(&mut self, group: Option<GroupId>) {
        self.group = group;
    }

    /// The current clause group.
    pub fn group(&self) -> Option<GroupId> {
        self.group
    }

    /// Read access to the CNF built so far.
    pub fn cnf(&self) -> &GroupedCnf {
        &self.cnf
    }

    /// Consumes the encoder and returns the CNF.
    pub fn into_cnf(self) -> GroupedCnf {
        self.cnf
    }

    /// Number of CNF variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.cnf.num_vars()
    }

    /// The always-true literal.
    pub fn true_lit(&self) -> Lit {
        self.true_lit
    }

    /// The always-false literal.
    pub fn false_lit(&self) -> Lit {
        !self.true_lit
    }

    /// A literal fixed to the given Boolean constant.
    pub fn const_bit(&self, value: bool) -> Lit {
        if value {
            self.true_lit
        } else {
            !self.true_lit
        }
    }

    /// Allocates a fresh unconstrained bit.
    pub fn fresh_bit(&mut self) -> Lit {
        self.cnf.new_var().positive()
    }

    /// Allocates a fresh unconstrained bit-vector.
    pub fn fresh_bv(&mut self) -> BitVec {
        let bits = (0..self.width).map(|_| self.fresh_bit()).collect();
        BitVec { bits }
    }

    /// The bit-vector constant for `value` (two's-complement wrap-around).
    pub fn const_bv(&self, value: i64) -> BitVec {
        let bits = (0..self.width)
            .map(|i| self.const_bit(value >> i & 1 == 1))
            .collect();
        BitVec { bits }
    }

    fn emit<const N: usize>(&mut self, lits: [Lit; N]) {
        self.cnf.add_clause(lits, self.group);
    }

    /// Asserts that a literal holds (unit clause in the current group).
    pub fn assert_true(&mut self, lit: Lit) {
        self.emit([lit]);
    }

    /// Asserts that two bit-vectors are equal, bit by bit.
    pub fn assert_equal(&mut self, a: &BitVec, b: &BitVec) {
        for (&x, &y) in a.bits.iter().zip(&b.bits) {
            self.emit([!x, y]);
            self.emit([x, !y]);
        }
    }

    /// Asserts that two literals are equal (two binary clauses in the
    /// current group).
    pub fn assert_bit_equal(&mut self, a: Lit, b: Lit) {
        self.emit([!a, b]);
        self.emit([a, !b]);
    }

    // ----- single-bit gates (Tseitin) -------------------------------------

    /// Logical AND of two bits.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.false_lit() || b == self.false_lit() {
            self.stats.gates_folded += 1;
            return self.false_lit();
        }
        if a == self.true_lit {
            self.stats.gates_folded += 1;
            return b;
        }
        if b == self.true_lit {
            self.stats.gates_folded += 1;
            return a;
        }
        if a == b {
            self.stats.gates_folded += 1;
            return a;
        }
        if a == !b {
            self.stats.gates_folded += 1;
            return self.false_lit();
        }
        let c = self.fresh_bit();
        self.emit([!c, a]);
        self.emit([!c, b]);
        self.emit([c, !a, !b]);
        self.stats.gates_emitted += 1;
        c
    }

    /// Logical OR of two bits.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// Logical XOR of two bits.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.false_lit() {
            self.stats.gates_folded += 1;
            return b;
        }
        if b == self.false_lit() {
            self.stats.gates_folded += 1;
            return a;
        }
        if a == self.true_lit {
            self.stats.gates_folded += 1;
            return !b;
        }
        if b == self.true_lit {
            self.stats.gates_folded += 1;
            return !a;
        }
        if a == b {
            self.stats.gates_folded += 1;
            return self.false_lit();
        }
        if a == !b {
            self.stats.gates_folded += 1;
            return self.true_lit;
        }
        let c = self.fresh_bit();
        self.emit([!c, a, b]);
        self.emit([!c, !a, !b]);
        self.emit([c, !a, b]);
        self.emit([c, a, !b]);
        self.stats.gates_emitted += 1;
        c
    }

    /// Bit equivalence (XNOR).
    pub fn iff(&mut self, a: Lit, b: Lit) -> Lit {
        !self.xor(a, b)
    }

    /// If-then-else on bits: `cond ? then_bit : else_bit`.
    pub fn ite_bit(&mut self, cond: Lit, then_bit: Lit, else_bit: Lit) -> Lit {
        if cond == self.true_lit {
            self.stats.gates_folded += 1;
            return then_bit;
        }
        if cond == self.false_lit() {
            self.stats.gates_folded += 1;
            return else_bit;
        }
        if then_bit == else_bit {
            self.stats.gates_folded += 1;
            return then_bit;
        }
        // Rewrite degenerate muxes into AND/OR/XNOR gates (which fold
        // further): `ite(c, t, ¬t) = c ↔ t`, `ite(c, ⊤, e) = c ∨ e`,
        // `ite(c, ⊥, e) = ¬c ∧ e`, `ite(c, t, ⊤) = ¬c ∨ t`, `ite(c, t, ⊥) =
        // c ∧ t`, and the absorption cases where a branch repeats the
        // condition.
        if then_bit == !else_bit {
            self.stats.gates_folded += 1;
            return self.iff(cond, then_bit);
        }
        if then_bit == self.true_lit || then_bit == cond {
            self.stats.gates_folded += 1;
            return self.or(cond, else_bit);
        }
        if then_bit == self.false_lit() || then_bit == !cond {
            self.stats.gates_folded += 1;
            return self.and(!cond, else_bit);
        }
        if else_bit == self.true_lit || else_bit == !cond {
            self.stats.gates_folded += 1;
            return self.or(!cond, then_bit);
        }
        if else_bit == self.false_lit() || else_bit == cond {
            self.stats.gates_folded += 1;
            return self.and(cond, then_bit);
        }
        let r = self.fresh_bit();
        self.emit([!cond, !then_bit, r]);
        self.emit([!cond, then_bit, !r]);
        self.emit([cond, !else_bit, r]);
        self.emit([cond, else_bit, !r]);
        // Redundant but propagation-friendly clauses.
        self.emit([!then_bit, !else_bit, r]);
        self.emit([then_bit, else_bit, !r]);
        self.stats.gates_emitted += 1;
        r
    }

    /// AND over arbitrarily many bits.
    pub fn and_many(&mut self, bits: &[Lit]) -> Lit {
        let mut acc = self.true_lit;
        for &b in bits {
            acc = self.and(acc, b);
        }
        acc
    }

    /// OR over arbitrarily many bits.
    pub fn or_many(&mut self, bits: &[Lit]) -> Lit {
        let mut acc = self.false_lit();
        for &b in bits {
            acc = self.or(acc, b);
        }
        acc
    }

    /// Implication `a -> b` as a bit.
    pub fn implies(&mut self, a: Lit, b: Lit) -> Lit {
        self.or(!a, b)
    }

    // ----- bit-vector arithmetic ------------------------------------------

    fn full_adder(&mut self, a: Lit, b: Lit, cin: Lit) -> (Lit, Lit) {
        let axb = self.xor(a, b);
        let sum = self.xor(axb, cin);
        let ab = self.and(a, b);
        let cin_axb = self.and(cin, axb);
        let cout = self.or(ab, cin_axb);
        (sum, cout)
    }

    fn add_with_carry(&mut self, a: &BitVec, b: &BitVec, carry_in: Lit) -> (BitVec, Lit) {
        assert_eq!(a.width(), b.width(), "width mismatch");
        let mut bits = Vec::with_capacity(a.width());
        let mut carry = carry_in;
        for i in 0..a.width() {
            let (sum, cout) = self.full_adder(a.bits[i], b.bits[i], carry);
            bits.push(sum);
            carry = cout;
        }
        (BitVec { bits }, carry)
    }

    /// Wrapping addition.
    pub fn bv_add(&mut self, a: &BitVec, b: &BitVec) -> BitVec {
        let f = self.false_lit();
        self.add_with_carry(a, b, f).0
    }

    /// Wrapping subtraction (`a - b`).
    pub fn bv_sub(&mut self, a: &BitVec, b: &BitVec) -> BitVec {
        let not_b = BitVec {
            bits: b.bits.iter().map(|&l| !l).collect(),
        };
        let t = self.true_lit;
        self.add_with_carry(a, &not_b, t).0
    }

    /// Two's-complement negation.
    pub fn bv_neg(&mut self, a: &BitVec) -> BitVec {
        let zero = self.const_bv(0);
        self.bv_sub(&zero, a)
    }

    /// Wrapping multiplication (shift-and-add).
    pub fn bv_mul(&mut self, a: &BitVec, b: &BitVec) -> BitVec {
        assert_eq!(a.width(), b.width(), "width mismatch");
        let mut acc = self.const_bv(0);
        for i in 0..b.width() {
            // Partial product: (a << i) AND-gated by b_i, truncated to width.
            let mut partial_bits = vec![self.false_lit(); i];
            for j in 0..(a.width() - i) {
                let bit = self.and(a.bits[j], b.bits[i]);
                partial_bits.push(bit);
            }
            let partial = BitVec { bits: partial_bits };
            acc = self.bv_add(&acc, &partial);
        }
        acc
    }

    /// Signed division truncating toward zero (C semantics). Division by zero
    /// yields zero (MinC's defined behaviour, documented in the `minic` AST).
    pub fn bv_sdiv(&mut self, a: &BitVec, b: &BitVec) -> BitVec {
        let (q, _) = self.bv_sdivrem(a, b);
        q
    }

    /// Signed remainder with the sign of the dividend (C semantics).
    /// Remainder by zero yields zero.
    pub fn bv_srem(&mut self, a: &BitVec, b: &BitVec) -> BitVec {
        let (_, r) = self.bv_sdivrem(a, b);
        r
    }

    /// Unsigned division. Division by zero yields all-ones, the SMT-LIB
    /// `bvudiv` convention, which the restoring divider implements for free
    /// (every trial subtraction of zero succeeds).
    pub fn bv_udiv(&mut self, a: &BitVec, b: &BitVec) -> BitVec {
        let (q, _) = self.bv_udivrem(a, b);
        q
    }

    fn bv_abs(&mut self, a: &BitVec) -> BitVec {
        let neg = self.bv_neg(a);
        self.bv_ite(a.sign_bit(), &neg, a)
    }

    fn bv_sdivrem(&mut self, a: &BitVec, b: &BitVec) -> (BitVec, BitVec) {
        let abs_a = self.bv_abs(a);
        let abs_b = self.bv_abs(b);
        let (uq, ur) = self.bv_udivrem(&abs_a, &abs_b);
        // Quotient sign: negative iff signs differ; remainder follows dividend.
        let q_negative = self.xor(a.sign_bit(), b.sign_bit());
        let neg_uq = self.bv_neg(&uq);
        let q_signed = self.bv_ite(q_negative, &neg_uq, &uq);
        let neg_ur = self.bv_neg(&ur);
        let r_signed = self.bv_ite(a.sign_bit(), &neg_ur, &ur);
        // Division by zero: quotient and remainder are zero.
        let zero = self.const_bv(0);
        let b_is_zero = self.bv_eq(b, &zero);
        let q = self.bv_ite(b_is_zero, &zero, &q_signed);
        let r = self.bv_ite(b_is_zero, &zero, &r_signed);
        (q, r)
    }

    /// Unsigned restoring division: returns `(quotient, remainder)`.
    fn bv_udivrem(&mut self, a: &BitVec, b: &BitVec) -> (BitVec, BitVec) {
        let width = a.width();
        let mut remainder = self.const_bv(0);
        let mut quotient_bits = vec![self.false_lit(); width];
        for i in (0..width).rev() {
            // remainder = (remainder << 1) | a_i
            let mut shifted = vec![a.bits[i]];
            shifted.extend_from_slice(&remainder.bits[..width - 1]);
            remainder = BitVec { bits: shifted };
            // If remainder >= b (unsigned), subtract and set the quotient bit.
            let geq = self.bv_uge(&remainder, b);
            let diff = self.bv_sub(&remainder, b);
            remainder = self.bv_ite(geq, &diff, &remainder);
            quotient_bits[i] = geq;
        }
        (
            BitVec {
                bits: quotient_bits,
            },
            remainder,
        )
    }

    // ----- bit-vector bitwise and shifts ----------------------------------

    /// Bitwise AND.
    pub fn bv_and(&mut self, a: &BitVec, b: &BitVec) -> BitVec {
        let bits = (0..a.width())
            .map(|i| self.and(a.bits[i], b.bits[i]))
            .collect();
        BitVec { bits }
    }

    /// Bitwise OR.
    pub fn bv_or(&mut self, a: &BitVec, b: &BitVec) -> BitVec {
        let bits = (0..a.width())
            .map(|i| self.or(a.bits[i], b.bits[i]))
            .collect();
        BitVec { bits }
    }

    /// Bitwise XOR.
    pub fn bv_xor(&mut self, a: &BitVec, b: &BitVec) -> BitVec {
        let bits = (0..a.width())
            .map(|i| self.xor(a.bits[i], b.bits[i]))
            .collect();
        BitVec { bits }
    }

    /// Bitwise complement.
    pub fn bv_not(&self, a: &BitVec) -> BitVec {
        BitVec {
            bits: a.bits.iter().map(|&l| !l).collect(),
        }
    }

    /// Left shift by a variable amount (barrel shifter). Shift amounts of
    /// `width` or more produce zero.
    pub fn bv_shl(&mut self, a: &BitVec, amount: &BitVec) -> BitVec {
        let width = a.width();
        let stages = usize::BITS as usize - (width - 1).leading_zeros() as usize;
        let mut current = a.clone();
        for stage in 0..stages {
            let shift = 1usize << stage;
            let mut shifted_bits = vec![self.false_lit(); shift.min(width)];
            for j in 0..width.saturating_sub(shift) {
                shifted_bits.push(current.bits[j]);
            }
            shifted_bits.truncate(width);
            let shifted = BitVec { bits: shifted_bits };
            current = self.bv_ite(amount.bits[stage], &shifted, &current);
        }
        // Any set bit at position `stages..` means the amount is >= width.
        let high_bits: Vec<Lit> = amount.bits[stages.min(amount.width())..].to_vec();
        let too_big = self.or_many(&high_bits);
        let zero = self.const_bv(0);
        self.bv_ite(too_big, &zero, &current)
    }

    /// Arithmetic right shift by a variable amount. Shift amounts of `width`
    /// or more produce the sign fill.
    pub fn bv_ashr(&mut self, a: &BitVec, amount: &BitVec) -> BitVec {
        let width = a.width();
        let sign = a.sign_bit();
        let stages = usize::BITS as usize - (width - 1).leading_zeros() as usize;
        let mut current = a.clone();
        for stage in 0..stages {
            let shift = 1usize << stage;
            let mut shifted_bits = Vec::with_capacity(width);
            for j in 0..width {
                let src = j + shift;
                shifted_bits.push(if src < width { current.bits[src] } else { sign });
            }
            let shifted = BitVec { bits: shifted_bits };
            current = self.bv_ite(amount.bits[stage], &shifted, &current);
        }
        let high_bits: Vec<Lit> = amount.bits[stages.min(amount.width())..].to_vec();
        let too_big = self.or_many(&high_bits);
        let all_sign = BitVec {
            bits: vec![sign; width],
        };
        self.bv_ite(too_big, &all_sign, &current)
    }

    // ----- comparisons -----------------------------------------------------

    /// Equality of two bit-vectors as a single bit.
    pub fn bv_eq(&mut self, a: &BitVec, b: &BitVec) -> Lit {
        let mut eq_bits = Vec::with_capacity(a.width());
        for i in 0..a.width() {
            let e = self.iff(a.bits[i], b.bits[i]);
            eq_bits.push(e);
        }
        self.and_many(&eq_bits)
    }

    /// Disequality as a single bit.
    pub fn bv_ne(&mut self, a: &BitVec, b: &BitVec) -> Lit {
        !self.bv_eq(a, b)
    }

    /// Unsigned less-than.
    pub fn bv_ult(&mut self, a: &BitVec, b: &BitVec) -> Lit {
        let mut lt = self.false_lit();
        for i in 0..a.width() {
            // Processing LSB to MSB lets the most significant difference win.
            let a_lt_b_here = self.and(!a.bits[i], b.bits[i]);
            let eq_here = self.iff(a.bits[i], b.bits[i]);
            let keep = self.and(eq_here, lt);
            lt = self.or(a_lt_b_here, keep);
        }
        lt
    }

    /// Unsigned greater-or-equal.
    pub fn bv_uge(&mut self, a: &BitVec, b: &BitVec) -> Lit {
        !self.bv_ult(a, b)
    }

    /// Signed less-than (two's complement).
    pub fn bv_slt(&mut self, a: &BitVec, b: &BitVec) -> Lit {
        // Flip the sign bits and compare unsigned.
        let mut a_flipped = a.clone();
        let mut b_flipped = b.clone();
        let last = a.width() - 1;
        a_flipped.bits[last] = !a_flipped.bits[last];
        b_flipped.bits[last] = !b_flipped.bits[last];
        self.bv_ult(&a_flipped, &b_flipped)
    }

    /// Signed less-or-equal.
    pub fn bv_sle(&mut self, a: &BitVec, b: &BitVec) -> Lit {
        !self.bv_slt(b, a)
    }

    /// Signed greater-than.
    pub fn bv_sgt(&mut self, a: &BitVec, b: &BitVec) -> Lit {
        self.bv_slt(b, a)
    }

    /// Signed greater-or-equal.
    pub fn bv_sge(&mut self, a: &BitVec, b: &BitVec) -> Lit {
        !self.bv_slt(a, b)
    }

    /// Is the vector non-zero? (C truthiness of an integer.)
    pub fn bv_nonzero(&mut self, a: &BitVec) -> Lit {
        self.or_many(&a.bits.clone())
    }

    /// Bit-vector if-then-else.
    pub fn bv_ite(&mut self, cond: Lit, then_bv: &BitVec, else_bv: &BitVec) -> BitVec {
        let bits = (0..then_bv.width())
            .map(|i| self.ite_bit(cond, then_bv.bits[i], else_bv.bits[i]))
            .collect();
        BitVec { bits }
    }

    // ----- model reading ----------------------------------------------------

    /// Reads the value of a single literal from a model indexed by variable.
    pub fn bit_value(model: &[bool], lit: Lit) -> bool {
        let v = model.get(lit.var().index()).copied().unwrap_or(false);
        v == lit.is_positive()
    }

    /// Reads the signed value of a bit-vector from a model.
    pub fn bv_value(model: &[bool], bv: &BitVec) -> i64 {
        let width = bv.width();
        let mut value: u64 = 0;
        for (i, &bit) in bv.bits().iter().enumerate() {
            if Self::bit_value(model, bit) {
                value |= 1 << i;
            }
        }
        // Sign extend.
        if width < 64 && value >> (width - 1) & 1 == 1 {
            value |= !0u64 << width;
        }
        value as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat::{SatResult, Solver};

    const W: usize = 8;

    /// Encodes `op(a, b)`, solves, and returns the signed result value.
    fn eval_binop(op: impl Fn(&mut Encoder, &BitVec, &BitVec) -> BitVec, a: i64, b: i64) -> i64 {
        let mut enc = Encoder::new(W);
        let av = enc.const_bv(a);
        let bv = enc.const_bv(b);
        let result = op(&mut enc, &av, &bv);
        let out = enc.fresh_bv();
        enc.assert_equal(&result, &out);
        let mut solver = Solver::from_formula(enc.cnf().formula());
        assert_eq!(solver.solve(), SatResult::Sat);
        Encoder::bv_value(&solver.model(), &out)
    }

    fn eval_pred(op: impl Fn(&mut Encoder, &BitVec, &BitVec) -> Lit, a: i64, b: i64) -> bool {
        let mut enc = Encoder::new(W);
        let av = enc.const_bv(a);
        let bv = enc.const_bv(b);
        let p = op(&mut enc, &av, &bv);
        let out = enc.fresh_bit();
        let matching = enc.iff(p, out);
        enc.assert_true(matching);
        let mut solver = Solver::from_formula(enc.cnf().formula());
        assert_eq!(solver.solve(), SatResult::Sat);
        Encoder::bit_value(&solver.model(), out)
    }

    fn wrap8(v: i64) -> i64 {
        (v as i8) as i64
    }

    #[test]
    fn constants_roundtrip() {
        let enc = Encoder::new(8);
        for v in [-128i64, -1, 0, 1, 42, 127] {
            let bv = enc.const_bv(v);
            // A constant vector's value can be read off any model.
            assert_eq!(Encoder::bv_value(&[true], &bv), v);
        }
    }

    #[test]
    fn addition_and_subtraction() {
        for (a, b) in [
            (1, 2),
            (100, 27),
            (-5, 5),
            (-100, -28),
            (127, 1),
            (-128, -1),
        ] {
            assert_eq!(eval_binop(Encoder::bv_add, a, b), wrap8(a + b), "{a} + {b}");
            assert_eq!(eval_binop(Encoder::bv_sub, a, b), wrap8(a - b), "{a} - {b}");
        }
    }

    #[test]
    fn multiplication_wraps() {
        for (a, b) in [(3, 4), (-3, 4), (7, -9), (16, 16), (-12, -11), (0, 55)] {
            assert_eq!(eval_binop(Encoder::bv_mul, a, b), wrap8(a * b), "{a} * {b}");
        }
    }

    #[test]
    fn signed_division_and_remainder() {
        for (a, b) in [
            (7, 2),
            (-7, 2),
            (7, -2),
            (-7, -2),
            (100, 9),
            (-100, 9),
            (5, 7),
        ] {
            assert_eq!(eval_binop(Encoder::bv_sdiv, a, b), a / b, "{a} / {b}");
            assert_eq!(eval_binop(Encoder::bv_srem, a, b), a % b, "{a} % {b}");
        }
        // Division by zero is defined as zero in MinC.
        assert_eq!(eval_binop(Encoder::bv_sdiv, 13, 0), 0);
        assert_eq!(eval_binop(Encoder::bv_srem, 13, 0), 0);
    }

    #[test]
    fn bitwise_operations() {
        for (a, b) in [(0b1100, 0b1010), (-1, 0b0110), (0, 77)] {
            assert_eq!(eval_binop(Encoder::bv_and, a, b), wrap8(a & b));
            assert_eq!(eval_binop(Encoder::bv_or, a, b), wrap8(a | b));
            assert_eq!(eval_binop(Encoder::bv_xor, a, b), wrap8(a ^ b));
        }
    }

    #[test]
    fn shifts_match_reference() {
        for (a, s) in [(0b0110, 1), (0b0110, 3), (-64, 2), (5, 0), (1, 7), (1, 9)] {
            let expected_shl = if s >= 8 { 0 } else { wrap8(a << s) };
            assert_eq!(
                eval_binop(Encoder::bv_shl, a, s),
                expected_shl,
                "{a} << {s}"
            );
            let expected_shr = if s >= 8 {
                if a < 0 {
                    -1
                } else {
                    0
                }
            } else {
                wrap8((a as i8 >> s) as i64)
            };
            assert_eq!(
                eval_binop(Encoder::bv_ashr, a, s),
                expected_shr,
                "{a} >> {s}"
            );
        }
    }

    #[test]
    fn comparisons_match_reference() {
        let pairs = [
            (1, 2),
            (2, 1),
            (5, 5),
            (-3, 2),
            (2, -3),
            (-7, -2),
            (-128, 127),
        ];
        for (a, b) in pairs {
            assert_eq!(eval_pred(Encoder::bv_eq, a, b), a == b, "{a} == {b}");
            assert_eq!(eval_pred(Encoder::bv_ne, a, b), a != b, "{a} != {b}");
            assert_eq!(eval_pred(Encoder::bv_slt, a, b), a < b, "{a} < {b}");
            assert_eq!(eval_pred(Encoder::bv_sle, a, b), a <= b, "{a} <= {b}");
            assert_eq!(eval_pred(Encoder::bv_sgt, a, b), a > b, "{a} > {b}");
            assert_eq!(eval_pred(Encoder::bv_sge, a, b), a >= b, "{a} >= {b}");
        }
    }

    #[test]
    fn negation_and_abs_paths() {
        let mut enc = Encoder::new(8);
        let x = enc.const_bv(-42);
        let neg = enc.bv_neg(&x);
        let out = enc.fresh_bv();
        enc.assert_equal(&neg, &out);
        let mut solver = Solver::from_formula(enc.cnf().formula());
        assert_eq!(solver.solve(), SatResult::Sat);
        assert_eq!(Encoder::bv_value(&solver.model(), &out), 42);
    }

    #[test]
    fn ite_selects_correct_branch() {
        let mut enc = Encoder::new(8);
        let cond = enc.fresh_bit();
        let t = enc.const_bv(11);
        let e = enc.const_bv(22);
        let r = enc.bv_ite(cond, &t, &e);
        let out = enc.fresh_bv();
        enc.assert_equal(&r, &out);
        enc.assert_true(cond);
        let mut solver = Solver::from_formula(enc.cnf().formula());
        assert_eq!(solver.solve(), SatResult::Sat);
        assert_eq!(Encoder::bv_value(&solver.model(), &out), 11);
    }

    #[test]
    fn nonzero_detects_truthiness() {
        assert!(eval_pred(|enc, a, _| enc.bv_nonzero(a), 5, 0));
        assert!(!eval_pred(|enc, a, _| enc.bv_nonzero(a), 0, 0));
        assert!(eval_pred(|enc, a, _| enc.bv_nonzero(a), -1, 0));
    }

    #[test]
    fn unconstrained_inputs_can_reach_a_target() {
        // Find x such that 3 * x + 1 == 22 (x = 7).
        let mut enc = Encoder::new(8);
        let x = enc.fresh_bv();
        let three = enc.const_bv(3);
        let one = enc.const_bv(1);
        let product = enc.bv_mul(&three, &x);
        let sum = enc.bv_add(&product, &one);
        let target = enc.const_bv(22);
        let eq = enc.bv_eq(&sum, &target);
        enc.assert_true(eq);
        let mut solver = Solver::from_formula(enc.cnf().formula());
        assert_eq!(solver.solve(), SatResult::Sat);
        assert_eq!(Encoder::bv_value(&solver.model(), &x), 7);
    }

    #[test]
    fn groups_tag_emitted_clauses() {
        let mut enc = Encoder::new(4);
        let before = enc.cnf().num_clauses();
        enc.set_group(Some(GroupId(9)));
        let a = enc.fresh_bv();
        let b = enc.fresh_bv();
        let _ = enc.bv_add(&a, &b);
        assert!(enc.cnf().num_clauses() > before);
        assert!(enc.cnf().clauses_in_group(GroupId(9)) > 0);
        enc.set_group(None);
        assert_eq!(enc.group(), None);
    }

    /// The degenerate-mux rewrites in `ite_bit` each replace a six-clause mux
    /// by a cheaper gate; every one must agree with `c ? then : else` on all
    /// eight assignments of the symbolic bits `(c, t, e)`.
    #[test]
    fn ite_rewrites_match_the_mux_truth_table() {
        // (name, then/else branches built from c, t, e and the true literal).
        type Branches = fn(Lit, Lit, Lit, Lit) -> (Lit, Lit);
        let cases: &[(&str, Branches)] = &[
            ("ite(c, t, ¬t)", |_, t, _, _| (t, !t)),
            ("ite(c, ⊤, e)", |_, _, e, one| (one, e)),
            ("ite(c, c, e)", |c, _, e, _| (c, e)),
            ("ite(c, ⊥, e)", |_, _, e, one| (!one, e)),
            ("ite(c, ¬c, e)", |c, _, e, _| (!c, e)),
            ("ite(c, t, ⊤)", |_, t, _, one| (t, one)),
            ("ite(c, t, ¬c)", |c, t, _, _| (t, !c)),
            ("ite(c, t, ⊥)", |_, t, _, one| (t, !one)),
            ("ite(c, t, c)", |c, t, _, _| (t, c)),
        ];
        for (name, branches) in cases {
            let mut enc = Encoder::new(W);
            let (c, t, e) = (enc.fresh_bit(), enc.fresh_bit(), enc.fresh_bit());
            let (then_bit, else_bit) = branches(c, t, e, enc.true_lit());
            let before = enc.stats();
            let r = enc.ite_bit(c, then_bit, else_bit);
            let after = enc.stats();
            assert!(
                after.gates_folded > before.gates_folded,
                "{name} not rewritten"
            );
            assert!(after.gates_emitted <= before.gates_emitted + 1, "{name}");
            let mut solver = Solver::from_formula(enc.cnf().formula());
            for row in 0..8u8 {
                let assumptions: Vec<Lit> = [c, t, e]
                    .iter()
                    .enumerate()
                    .map(|(i, &bit)| bit.apply_sign(row >> i & 1 == 1))
                    .collect();
                assert_eq!(solver.solve_assuming(&assumptions), SatResult::Sat);
                let model = solver.model();
                let value = |lit| Encoder::bit_value(&model, lit);
                let expected = if value(c) {
                    value(then_bit)
                } else {
                    value(else_bit)
                };
                assert_eq!(value(r), expected, "{name}, row {row:03b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "width must be in")]
    fn width_is_validated() {
        let _ = Encoder::new(1);
    }
}
