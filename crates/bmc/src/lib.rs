//! # bmc — bounded model checking substrate for the BugAssist reproduction
//!
//! The original BugAssist builds its trace formulas with CBMC. This crate
//! provides the equivalent services for MinC programs:
//!
//! * a concrete [interpreter](crate::interp) used to run test suites, compute
//!   golden outputs, detect failing tests and record line coverage;
//! * a [symbolic encoder](crate::symbolic) that unrolls loops, inlines calls
//!   and bit-blasts the program into a grouped CNF — the paper's trace
//!   formula TF with one clause group per statement instance (Sec. 3.2, 3.4);
//! * [counterexample generation](crate::counterexample) — BMC-style search
//!   for a violating input (Sec. 4.1);
//! * trace reduction: backward [slicing](crate::slice) ("S") and
//!   concolic-style constant concretization (built into the encoder, "C"),
//!   two of the reductions Sec. 6.2 uses for the larger benchmarks.
//!
//! # Examples
//!
//! ```
//! use bmc::{encode_program, find_failing_input, EncodeConfig, Spec};
//! use minic::parse_program;
//!
//! let program = parse_program(r#"
//!     int main(int x) {
//!         int y = x + 3;
//!         assert(y != 10);
//!         return y;
//!     }
//! "#)?;
//! let config = EncodeConfig { width: 8, ..EncodeConfig::default() };
//! let failing = find_failing_input(&program, "main", &Spec::Assertions, &config)
//!     .expect("encodable")
//!     .expect("a failing input exists");
//! assert_eq!(failing, vec![7]);
//! # Ok::<(), minic::ParseError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod counterexample;
pub mod interp;
pub mod slice;
pub mod symbolic;
pub mod value;

pub use counterexample::find_failing_input;
pub use interp::{run_program, ExecOutcome, InterpConfig, Violation, ViolationKind};
pub use slice::{backward_slice, slice_program, SliceCriterion, SliceResult};
pub use symbolic::{
    encode_program, word_trace, EncodeConfig, EncodeError, EncodeStats, Spec, StmtGroup,
    SymbolicTrace, WordTrace,
};
