//! # bugassist — MAX-SAT error localization (the paper's core contribution)
//!
//! This crate implements the BugAssist algorithm of Jose & Majumdar, *Cause
//! Clue Clauses: Error Localization using Maximum Satisfiability* (PLDI
//! 2011), on top of the workspace's substrates:
//!
//! * the [`minic`] frontend parses the program,
//! * the [`bmc`] crate unrolls/inlines it and bit-blasts a trace formula
//!   whose clauses are grouped per statement,
//! * this crate turns that grouped formula into a **partial MAX-SAT**
//!   instance — test input and assertion hard, one soft selector per
//!   statement (Sec. 3.4) — and enumerates **CoMSS**es with the [`maxsat`]
//!   engine (Algorithm 1),
//! * the extensions are here too: suspect **ranking** over multiple failing
//!   tests (Sec. 4.3), **repair** suggestion for off-by-one and operator
//!   faults (Sec. 5.1 / Algorithm 2), and **loop-iteration** localization
//!   with weighted selectors (Sec. 5.2).
//!
//! # Examples
//!
//! Localize the paper's motivating example (Program 1):
//!
//! ```
//! use bugassist::{Localizer, LocalizerConfig};
//! use bmc::{EncodeConfig, Spec};
//! use minic::{parse_program, ast::Line};
//!
//! let program = parse_program("\
//! int Array[3];
//! int testme(int index) {
//! if (index != 1) {
//! index = 2;
//! } else {
//! index = index + 2;
//! }
//! int i = index;
//! return Array[i];
//! }").unwrap();
//!
//! let config = LocalizerConfig {
//!     encode: EncodeConfig { width: 8, ..EncodeConfig::default() },
//!     ..LocalizerConfig::default()
//! };
//! let localizer = Localizer::new(&program, "testme", &Spec::Assertions, &config).unwrap();
//! let report = localizer.localize(&[1]).unwrap();
//!
//! // The faulty `index = index + 2` (line 6) and the branch condition
//! // (line 3) — the paper's "Potential Bug 1" and "Potential Bug 2" — are
//! // both reported.
//! assert!(report.blames_line(Line(6)));
//! assert!(report.blames_line(Line(3)));
//! ```
//!
//! # Batching
//!
//! MAX-SAT solving dominates localization runtime (Sec. 6 of the paper).
//! **[`Localizer::localize_batch`]** fans a batch of failing tests out across
//! worker threads — each test is an independent MAX-SAT enumeration over the
//! same symbolic trace — and merges the per-test CoMSS sets into one
//! frequency-ranked [`RankedReport`] (the Sec. 4.3 ranking). The
//! input-independent part of the extended trace formula is built once, in
//! [`Localizer::new`], and shared by every call and thread.
//!
//! ```
//! use bugassist::{Localizer, LocalizerConfig};
//! use bmc::{EncodeConfig, Spec};
//! use minic::{ast::Line, parse_program};
//!
//! let program = parse_program("int main(int x) {\nint y = x + 2;\nreturn y;\n}").unwrap();
//! let config = LocalizerConfig {
//!     encode: EncodeConfig { width: 8, ..EncodeConfig::default() },
//!     ..LocalizerConfig::default()
//! };
//! let localizer = Localizer::new(&program, "main", &Spec::ReturnEquals(4), &config).unwrap();
//! // Four failing tests, localized in parallel, merged into one ranking.
//! let ranked = localizer
//!     .localize_batch(&[vec![5], vec![7], vec![9], vec![11]])
//!     .unwrap();
//! assert!(ranked.majority_lines().contains(&Line(2)));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod localizer;
mod loops;
mod ranking;
mod repair;

pub use localizer::{
    DeltaPrepare, Granularity, LocalizationReport, LocalizeError, Localizer, LocalizerConfig,
    LocalizerStats, PreparedTemplate, Suspect,
};
pub use loops::{localize_faulty_iteration, LoopReport};
pub use maxsat::Budget;
pub use ranking::{RankedLine, RankedReport};
pub use repair::{suggest_repairs, Repair, RepairConfig, RepairKind};
