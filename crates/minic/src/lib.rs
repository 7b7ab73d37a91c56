//! # minic — a small C-like imperative language frontend
//!
//! The BugAssist paper analyses ANSI-C programs through CBMC. This workspace
//! re-implements the pipeline from scratch, and `minic` plays the role of the
//! C frontend: a deliberately small imperative language (fixed-width
//! integers, Booleans, static arrays, functions, `if`/`while`,
//! `assert`/`assume`) that is nevertheless rich enough to express the paper's
//! benchmark programs — the TCAS collision-avoidance logic, the `strncat`
//! off-by-one demo, the integer square-root loop, and the larger Siemens-style
//! analogues.
//!
//! The crate provides:
//!
//! * the [`ast`] — every statement carries its source [`Line`], the unit of
//!   blame used by the localization algorithm;
//! * a [`lexer`] and recursive-descent parser ([`parse_program`],
//!   [`parse_expr`]);
//! * a scope/type checker ([`check_program`]);
//! * a pretty-printer ([`pretty_program`]) used to display mutated programs;
//! * [`mutate`] — the mutation mechanism shared by fault injection
//!   (building faulty benchmark versions) and repair candidate generation
//!   (off-by-one and operator replacement, Sec. 5.1 of the paper);
//! * [`delta`] — per-function line-insensitive structural fingerprints,
//!   line maps and the edit classifier that powers incremental
//!   re-localization in the service layer.
//!
//! # Examples
//!
//! ```
//! use minic::{parse_program, check_program};
//!
//! let program = parse_program(r#"
//!     int Array[3];
//!     int testme(int index) {
//!         if (index != 1) { index = 2; } else { index = index + 2; }
//!         int i = index;
//!         assert(i >= 0 && i < 3);
//!         return Array[i];
//!     }
//! "#)?;
//! assert!(check_program(&program).is_empty());
//! assert_eq!(program.function("testme").unwrap().params.len(), 1);
//! # Ok::<(), minic::ParseError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ast;
pub mod ast_hash;
pub mod delta;
pub mod lexer;
pub mod mutate;
pub mod parser;
pub mod pretty;
pub mod typecheck;

pub use ast::{BinOp, Expr, Function, Global, LValue, Line, Program, Stmt, Type, UnOp};
pub use ast_hash::{ast_hash, hash_program, StableHasher};
pub use delta::{
    classify_edit, reachable_functions, segment_program, EditClass, FunctionSegment, LineMap,
    ProgramSegments,
};
pub use mutate::{
    apply_mutation, constant_sites, lines_with_constants, operator_sites, ConstantSite, Mutation,
    MutationError, OperatorSite,
};
pub use parser::{parse_expr, parse_program, ParseError, MAX_NESTING};
pub use pretty::{pretty_expr, pretty_function, pretty_program, pretty_stmt};
pub use typecheck::{check_program, TypeError};
