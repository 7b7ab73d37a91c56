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
//! * [`Strategy::FuMalik`] — core-guided Fu–Malik / WPM1, the algorithm
//!   family MSUnCORE belongs to;
//! * [`Strategy::LinearSatUnsat`] — model-improving linear search, kept for
//!   the solver-ablation experiment (E10 in DESIGN.md);
//! * cardinality / pseudo-Boolean [`encodings`] (totalizer and generalized
//!   totalizer) used by the strategies.
//!
//! # Examples
//!
//! ```
//! use maxsat::{MaxSatInstance, Strategy, solve};
//!
//! let mut inst = MaxSatInstance::new();
//! let x = inst.new_var().positive();
//! inst.add_hard(vec![x]);
//! let blameworthy = inst.add_soft(vec![!x], 1);
//! let innocent = inst.add_soft(vec![x], 1);
//!
//! let solution = solve(&inst, Strategy::FuMalik).into_optimum().unwrap();
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
