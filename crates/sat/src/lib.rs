//! # sat — a CDCL SAT solver
//!
//! This crate is the bottom layer of the BugAssist reproduction (Jose &
//! Majumdar, *Cause Clue Clauses: Error Localization using Maximum
//! Satisfiability*, PLDI 2011). The original tool used MiniSAT; this crate
//! re-implements the relevant functionality from scratch:
//!
//! * a conflict-driven clause-learning solver ([`Solver`]) with two-watched
//!   literal propagation, first-UIP learning, VSIDS, phase saving and Luby
//!   restarts, storing all clauses in a flat arena ([`ClauseArena`]) with
//!   activity/LBD-driven learnt-clause reduction and copying garbage
//!   collection;
//! * incremental solving under **assumptions** with extraction of the
//!   conflicting subset of assumptions ([`Solver::unsat_core`]) — the
//!   primitive the core-guided MAX-SAT engine in the `maxsat` crate is built
//!   on;
//! * a plain [`CnfFormula`] container used as the interchange format between
//!   the bit-blaster, the MAX-SAT engine and the solver, holding all its
//!   literals in one flat buffer and lending out [`ClauseView`]s;
//! * a deterministic, **selector-aware CNF preprocessor** ([`simplify`]):
//!   root-level unit propagation, tautology/duplicate-literal removal,
//!   subsumption, self-subsuming resolution and bounded variable elimination
//!   with a caller-supplied frozen-variable set and a model-reconstruction
//!   map, used to shrink trace formulas before MAX-SAT solving;
//! * exponential brute-force oracles ([`mod@reference`]) used by tests to
//!   cross-check both solvers.
//!
//! # Examples
//!
//! ```
//! use sat::{Solver, SatResult};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var().positive();
//! let b = solver.new_var().positive();
//! solver.add_clause([a, b]);
//! solver.add_clause([!a, b]);
//! assert_eq!(solver.solve(), SatResult::Sat);
//! assert_eq!(solver.model_value(b), Some(true));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arena;
pub mod bytes;
mod cnf;
mod heap;
pub mod reference;
mod simplify;
mod solver;
mod types;

pub use arena::{ClauseArena, ClauseRef};
pub use cnf::{Clause, ClauseView, CnfFormula};
pub use simplify::{simplify, ModelReconstruction, Simplified, SimplifyConfig, SimplifyStats};
pub use solver::{SatResult, Solver, SolverStats};
pub use types::{LBool, Lit, Var};
