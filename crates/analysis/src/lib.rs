//! # analysis — static dataflow layer for MinC
//!
//! Everything the localizer can learn about a program *before* spending a
//! single gate on symbolic encoding:
//!
//! * [`mod@cfg`] — per-function control-flow graphs (basic blocks, edges,
//!   Cooper–Harvey–Kennedy dominators/postdominators, dominance frontiers);
//! * [`dataflow`] — a generic worklist engine over join-semilattices,
//!   forward or backward;
//! * [`mod@reaching`] — reaching definitions and def-use chains (powers the
//!   uninitialized-read lint);
//! * [`mod@liveness`] — live variables (powers the dead-store lint);
//! * [`mod@intervals`] — conditional constant propagation with interval
//!   domains and widening (powers the constant-branch/unreachable lints);
//! * [`mod@relevance`] — static backward relevance from the failing property
//!   (powers `LocalizerConfig::static_prune`: statically-irrelevant lines
//!   become hard constraints for free, shrinking the CoMSS search space);
//! * [`mod@lint`] — the structured diagnostic pass surfaced by the service's
//!   `analyze` op and run in its build path.
//!
//! The load-bearing invariant, pinned by cross-check and property tests:
//! **a line pruned by [`mod@relevance`] can never appear in any CoMSS** — the
//! relevant set is a superset of `bmc::slice::backward_slice`'s, and
//! localization reports are byte-identical with pruning on or off.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cfg;
pub mod dataflow;
pub mod intervals;
pub mod lint;
pub mod liveness;
pub mod reaching;
pub mod relevance;

pub use cfg::{Block, Cfg, Doms, Point, PointKind};
pub use dataflow::{solve, BlockFacts, Direction, Lattice};
pub use intervals::{intervals, ConstantCond, Interval, IntervalEnv, Intervals};
pub use lint::{lint_program, Diagnostic, DiagnosticKind, Severity};
pub use liveness::{dead_stores, liveness, LiveSet, Liveness};
pub use reaching::{reaching, Def, ReachEnv, Reaching, UseSite};
pub use relevance::{prunable_lines, relevance, Criterion, Relevance};
