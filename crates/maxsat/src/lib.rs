//! # maxsat — weighted partial MAX-SAT with MSS/CoMSS extraction
//!
//! The BugAssist paper (Jose & Majumdar, PLDI 2011) localizes errors by
//! handing an unsatisfiable *extended trace formula* to a partial MAX-SAT
//! solver (the authors used MSUnCORE) and reading off the **CoMSS** — the
//! complement of a maximum satisfiable subset, i.e. a minimum-weight set of
//! soft clauses whose removal restores satisfiability. This crate rebuilds
//! that substrate on top of the in-workspace [`sat`] CDCL solver:
//!
//! * [`MaxSatInstance`] — hard clauses + weighted soft clauses;
//! * [`MaxSatSolver`] — core-guided Fu–Malik / WPM1, the algorithm family
//!   MSUnCORE belongs to, with every optimum refined to the canonical one;
//! * [`MaxSatSolver::solve_loaded`] — a solve on a caller-owned
//!   [`sat::Solver`] that already holds the hard clauses, so an enumeration
//!   that only adds hard clauses between solves loads them once;
//! * [`Budget`] — a wall-clock deadline and/or conflict cap per solve;
//! * the at-most-one / exactly-one [`encodings`] Fu–Malik puts on each core.
//!
//! # Examples
//!
//! ```
//! use maxsat::{MaxSatInstance, solve};
//!
//! let mut inst = MaxSatInstance::new();
//! let x = inst.new_var().positive();
//! inst.add_hard(vec![x]);
//! let blameworthy = inst.add_soft(vec![!x], 1);
//! let innocent = inst.add_soft(vec![x], 1);
//!
//! let solution = solve(&inst).into_optimum().unwrap();
//! assert_eq!(solution.cost, 1);
//! assert_eq!(solution.falsified, vec![blameworthy]);
//! assert!(!solution.falsified.contains(&innocent));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod budget;
pub mod encodings;
mod instance;
mod solve;

pub use budget::Budget;
pub use instance::{MaxSatInstance, SoftClause, SoftId};
pub use solve::{solve, MaxSatResult, MaxSatSolution, MaxSatSolver, MaxSatStats, Strategy};
