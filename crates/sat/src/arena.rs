//! Flat clause storage for the CDCL solver.
//!
//! All clauses live in one contiguous `u32` arena instead of a
//! `Vec`-of-`Vec<Lit>`: each clause is a small header followed by its literal
//! codes, and a [`ClauseRef`] is simply the word offset of the header. This
//! removes the per-clause heap allocation, keeps the propagation working set
//! dense in cache, and makes relocation (garbage collection after
//! learnt-clause reduction) a linear copy with forwarding pointers.
//!
//! # Layout
//!
//! ```text
//! offset           word
//! ref + 0          header: len << 3 | relocated << 2 | deleted << 1 | learnt
//! ref + 1          [learnt only] clause activity (f32 bits)
//! ref + 2          [learnt only] literal-block distance (LBD)
//! ref + 1|3 ..     literal codes (Lit::code as u32), `len` of them
//! ```
//!
//! Problem clauses pay one header word; learnt clauses pay three (activity
//! and LBD drive the MiniSAT-style `reduce_db` scoring). After relocation the
//! first word following the header is reused as the forwarding pointer.

use crate::types::Lit;

const LEARNT_FLAG: u32 = 0b001;
const DELETED_FLAG: u32 = 0b010;
const RELOCATED_FLAG: u32 = 0b100;
const LEN_SHIFT: u32 = 3;

/// A reference to a clause stored in a [`ClauseArena`].
///
/// This is a plain word offset into the arena (4 bytes, `Copy`), so watcher
/// lists and reason slots stay small and flat. A `ClauseRef` is only valid
/// for the arena that produced it and is invalidated by garbage collection —
/// the solver remaps every live reference (watchers, reasons, clause lists)
/// when it collects.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ClauseRef(u32);

impl ClauseRef {
    /// The raw word offset of this reference.
    #[inline]
    pub fn offset(self) -> usize {
        self.0 as usize
    }
}

/// A bump-allocated clause database: one flat `u32` buffer holding every
/// clause (problem and learnt) back to back.
///
/// # Examples
///
/// ```
/// use sat::{ClauseArena, Lit};
/// let mut arena = ClauseArena::new();
/// let lits = [Lit::from_dimacs(1), Lit::from_dimacs(-2), Lit::from_dimacs(3)];
/// let c = arena.alloc(&lits, false);
/// assert_eq!(arena.len(c), 3);
/// assert_eq!(arena.lit(c, 1), Lit::from_dimacs(-2));
/// assert!(!arena.is_learnt(c));
/// ```
#[derive(Clone, Debug, Default)]
pub struct ClauseArena {
    data: Vec<u32>,
    /// Words occupied by clauses marked deleted (reclaimable by collection).
    wasted: usize,
}

impl ClauseArena {
    /// Creates an empty arena.
    pub fn new() -> ClauseArena {
        ClauseArena::default()
    }

    /// Creates an empty arena with room for `words` `u32`s.
    pub fn with_capacity(words: usize) -> ClauseArena {
        ClauseArena {
            data: Vec::with_capacity(words),
            wasted: 0,
        }
    }

    /// Appends a clause and returns its reference.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `lits` has fewer than two literals (unit and
    /// empty clauses are handled by the solver's trail, never stored).
    pub fn alloc(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        assert!(
            self.data.len() <= u32::MAX as usize,
            "clause arena exceeds the 2^32-word addressing limit"
        );
        let cref = ClauseRef(self.data.len() as u32);
        let flags = if learnt { LEARNT_FLAG } else { 0 };
        self.data.push(((lits.len() as u32) << LEN_SHIFT) | flags);
        if learnt {
            self.data.push(0f32.to_bits()); // activity
            self.data.push(u32::MAX); // LBD (set by the solver after analysis)
        }
        for &lit in lits {
            self.data.push(lit.code() as u32);
        }
        cref
    }

    #[inline]
    fn header(&self, c: ClauseRef) -> u32 {
        self.data[c.offset()]
    }

    #[inline]
    fn lits_start(&self, c: ClauseRef) -> usize {
        c.offset() + 1 + if self.is_learnt(c) { 2 } else { 0 }
    }

    /// Number of literals in the clause.
    #[inline]
    pub fn len(&self, c: ClauseRef) -> usize {
        (self.header(c) >> LEN_SHIFT) as usize
    }

    /// `true` iff the arena contains no clauses.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `true` iff the clause was learnt (has activity/LBD metadata).
    #[inline]
    pub fn is_learnt(&self, c: ClauseRef) -> bool {
        self.header(c) & LEARNT_FLAG != 0
    }

    /// `true` iff the clause was marked for deletion by the reducer.
    #[inline]
    pub fn is_deleted(&self, c: ClauseRef) -> bool {
        self.header(c) & DELETED_FLAG != 0
    }

    /// Marks the clause deleted; its words are reclaimed at the next
    /// [`ClauseArena::relocate`]-based collection.
    pub fn mark_deleted(&mut self, c: ClauseRef) {
        let words = 1 + self.len(c) + if self.is_learnt(c) { 2 } else { 0 };
        self.wasted += words;
        self.data[c.offset()] |= DELETED_FLAG;
    }

    /// The `i`-th literal of the clause.
    #[inline]
    pub fn lit(&self, c: ClauseRef, i: usize) -> Lit {
        debug_assert!(i < self.len(c));
        Lit::from_code(self.data[self.lits_start(c) + i] as usize)
    }

    /// Overwrites the `i`-th literal of the clause.
    #[inline]
    pub fn set_lit(&mut self, c: ClauseRef, i: usize, lit: Lit) {
        debug_assert!(i < self.len(c));
        let start = self.lits_start(c);
        self.data[start + i] = lit.code() as u32;
    }

    /// Swaps two literals of the clause in place.
    #[inline]
    pub fn swap_lits(&mut self, c: ClauseRef, i: usize, j: usize) {
        debug_assert!(i < self.len(c) && j < self.len(c));
        let start = self.lits_start(c);
        self.data.swap(start + i, start + j);
    }

    /// Copies the clause's literals into `out` (cleared first).
    pub fn copy_lits_into(&self, c: ClauseRef, out: &mut Vec<Lit>) {
        out.clear();
        let start = self.lits_start(c);
        out.extend(
            self.data[start..start + self.len(c)]
                .iter()
                .map(|&code| Lit::from_code(code as usize)),
        );
    }

    /// Activity of a learnt clause (0.0 for problem clauses).
    #[inline]
    pub fn activity(&self, c: ClauseRef) -> f32 {
        if self.is_learnt(c) {
            f32::from_bits(self.data[c.offset() + 1])
        } else {
            0.0
        }
    }

    /// Sets the activity of a learnt clause.
    #[inline]
    pub fn set_activity(&mut self, c: ClauseRef, activity: f32) {
        debug_assert!(self.is_learnt(c));
        self.data[c.offset() + 1] = activity.to_bits();
    }

    /// Literal-block distance of a learnt clause (`u32::MAX` until set).
    #[inline]
    pub fn lbd(&self, c: ClauseRef) -> u32 {
        debug_assert!(self.is_learnt(c));
        self.data[c.offset() + 2]
    }

    /// Sets the literal-block distance of a learnt clause.
    #[inline]
    pub fn set_lbd(&mut self, c: ClauseRef, lbd: u32) {
        debug_assert!(self.is_learnt(c));
        self.data[c.offset() + 2] = lbd;
    }

    /// Size of the arena's backing buffer in bytes.
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<u32>()
    }

    /// Words currently occupied by deleted clauses.
    pub fn wasted_words(&self) -> usize {
        self.wasted
    }

    /// Words currently live (total minus wasted) — the capacity hint for the
    /// destination arena of a collection.
    pub fn live_words(&self) -> usize {
        self.data.len().saturating_sub(self.wasted)
    }

    /// Moves the clause into `to` and returns its new reference, installing a
    /// forwarding pointer so later calls for the same clause return the same
    /// new reference (watchers, reasons and clause lists can therefore be
    /// remapped independently, in any order).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the clause was marked deleted — deleted
    /// clauses must be dropped by the collector, not relocated.
    pub fn relocate(&mut self, c: ClauseRef, to: &mut ClauseArena) -> ClauseRef {
        let header = self.header(c);
        if header & RELOCATED_FLAG != 0 {
            return ClauseRef(self.data[c.offset() + 1]);
        }
        debug_assert!(header & DELETED_FLAG == 0, "deleted clause relocated");
        let learnt = header & LEARNT_FLAG != 0;
        assert!(
            to.data.len() <= u32::MAX as usize,
            "clause arena exceeds the 2^32-word addressing limit"
        );
        let new_ref = ClauseRef(to.data.len() as u32);
        let words = 1 + self.len(c) + if learnt { 2 } else { 0 };
        to.data
            .extend_from_slice(&self.data[c.offset()..c.offset() + words]);
        self.data[c.offset()] = header | RELOCATED_FLAG;
        self.data[c.offset() + 1] = new_ref.0;
        new_ref
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(ds: &[i64]) -> Vec<Lit> {
        ds.iter().map(|&d| Lit::from_dimacs(d)).collect()
    }

    #[test]
    fn alloc_and_read_back() {
        let mut arena = ClauseArena::new();
        let a = arena.alloc(&lits(&[1, -2, 3]), false);
        let b = arena.alloc(&lits(&[4, 5]), true);
        assert_eq!(arena.len(a), 3);
        assert_eq!(arena.len(b), 2);
        assert!(!arena.is_learnt(a));
        assert!(arena.is_learnt(b));
        assert_eq!(arena.lit(a, 0), Lit::from_dimacs(1));
        assert_eq!(arena.lit(a, 2), Lit::from_dimacs(3));
        assert_eq!(arena.lit(b, 1), Lit::from_dimacs(5));
    }

    #[test]
    fn swap_and_set() {
        let mut arena = ClauseArena::new();
        let c = arena.alloc(&lits(&[1, 2, 3]), true);
        arena.swap_lits(c, 0, 2);
        assert_eq!(arena.lit(c, 0), Lit::from_dimacs(3));
        assert_eq!(arena.lit(c, 2), Lit::from_dimacs(1));
        arena.set_lit(c, 1, Lit::from_dimacs(-7));
        assert_eq!(arena.lit(c, 1), Lit::from_dimacs(-7));
    }

    #[test]
    fn learnt_metadata() {
        let mut arena = ClauseArena::new();
        let c = arena.alloc(&lits(&[1, 2]), true);
        assert_eq!(arena.activity(c), 0.0);
        arena.set_activity(c, 2.5);
        assert_eq!(arena.activity(c), 2.5);
        assert_eq!(arena.lbd(c), u32::MAX);
        arena.set_lbd(c, 2);
        assert_eq!(arena.lbd(c), 2);
        // Metadata must not corrupt the literals.
        assert_eq!(arena.lit(c, 0), Lit::from_dimacs(1));
        assert_eq!(arena.lit(c, 1), Lit::from_dimacs(2));
    }

    #[test]
    fn deletion_tracks_waste() {
        let mut arena = ClauseArena::new();
        let a = arena.alloc(&lits(&[1, 2, 3]), false); // 4 words
        let b = arena.alloc(&lits(&[4, 5]), true); // 5 words
        assert_eq!(arena.wasted_words(), 0);
        arena.mark_deleted(a);
        assert!(arena.is_deleted(a));
        assert!(!arena.is_deleted(b));
        assert_eq!(arena.wasted_words(), 4);
        assert_eq!(arena.live_words(), 5);
    }

    #[test]
    fn relocation_forwards_and_preserves() {
        let mut arena = ClauseArena::new();
        let junk = arena.alloc(&lits(&[9, 8]), false);
        let a = arena.alloc(&lits(&[1, -2, 3]), false);
        let b = arena.alloc(&lits(&[4, 5]), true);
        arena.set_activity(b, 1.5);
        arena.set_lbd(b, 2);
        arena.mark_deleted(junk);

        let mut to = ClauseArena::with_capacity(arena.live_words());
        let a2 = arena.relocate(a, &mut to);
        let b2 = arena.relocate(b, &mut to);
        // Idempotent: a second relocation returns the forwarding pointer.
        assert_eq!(arena.relocate(a, &mut to), a2);
        assert_eq!(arena.relocate(b, &mut to), b2);
        assert_eq!(to.len(a2), 3);
        assert_eq!(to.lit(a2, 1), Lit::from_dimacs(-2));
        assert!(to.is_learnt(b2));
        assert_eq!(to.activity(b2), 1.5);
        assert_eq!(to.lbd(b2), 2);
        // The deleted clause was not copied.
        assert!(to.bytes() < arena.bytes());
    }

    #[test]
    fn copy_lits_into_reuses_buffer() {
        let mut arena = ClauseArena::new();
        let c = arena.alloc(&lits(&[1, 2, -3]), false);
        let mut buf = vec![Lit::from_dimacs(42)];
        arena.copy_lits_into(c, &mut buf);
        assert_eq!(buf, lits(&[1, 2, -3]));
    }
}
