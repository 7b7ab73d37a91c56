//! # bitblast — word-level constraints to CNF with clause provenance
//!
//! CBMC turns C programs into propositional formulas by bit-blasting every
//! fixed-width integer operation. This crate provides the same layer for the
//! BugAssist reproduction:
//!
//! * [`Encoder`] — fixed-width two's-complement [`BitVec`]s, Tseitin gates,
//!   ripple-carry addition/subtraction, shift-and-add multiplication,
//!   restoring division, comparators, barrel shifters and multiplexers, with
//!   stateless constant folds, complement rules and degenerate-mux rewrites
//!   applied per gate — see [`EncoderStats`];
//! * [`GroupedCnf`] / [`GroupId`] — every emitted clause records which program
//!   statement (clause group) it came from, which is exactly the information
//!   the paper's clause-grouping reduction (Sec. 3.4) needs to attach one
//!   selector variable per statement;
//! * [`word`] — a BTOR2-flavored word-level DAG that sits *above* the
//!   encoder: constant folding, ite flattening, cross-frame CSE and interval
//!   narrowing all run before any gate exists, and only the surviving nodes
//!   are bit-blasted, each exactly once ([`word::WordDag::lower`]) — this
//!   hash-consing is where repeated structure is shared.
//!
//! # Examples
//!
//! Solve `3 * x + 1 == 22` bit-precisely:
//!
//! ```
//! use bitblast::Encoder;
//! use sat::{Solver, SatResult};
//!
//! let mut enc = Encoder::new(8);
//! let x = enc.fresh_bv();
//! let three = enc.const_bv(3);
//! let one = enc.const_bv(1);
//! let lhs = enc.bv_mul(&three, &x);
//! let lhs = enc.bv_add(&lhs, &one);
//! let target = enc.const_bv(22);
//! let eq = enc.bv_eq(&lhs, &target);
//! enc.assert_true(eq);
//!
//! let mut solver = Solver::from_formula(enc.cnf().formula());
//! assert_eq!(solver.solve(), SatResult::Sat);
//! assert_eq!(Encoder::bv_value(&solver.model(), &x), 7);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod encoder;
mod grouped;
pub mod word;

pub use encoder::{BitVec, Encoder, EncoderStats};
pub use grouped::{GroupId, GroupedCnf};
