//! The MinC lint pass: structured diagnostics before any encoding work.
//!
//! Aggregates `minic::check_program` (so every type/scope rejection is also
//! a lint diagnostic — the differential test pins this) and adds five
//! dataflow-powered checks:
//!
//! | kind              | severity | analysis                              |
//! |-------------------|----------|---------------------------------------|
//! | `type`            | error    | `minic::typecheck`                    |
//! | `uninit_read`     | error when definite, warning when possible | reaching definitions |
//! | `dead_store`      | warning  | live variables                        |
//! | `unreachable`     | warning  | CFG + interval-refined reachability   |
//! | `constant_branch` | warning  | interval analysis                     |
//! | `truncation`      | warning  | literal vs. encoding width            |
//!
//! Severity policy: an **error** means the symbolic encoding of the program
//! is meaningless (ill-typed, or a read that *every* execution leaves
//! undefined), so `bugassist::Localizer::new` refuses the program before
//! encoding it (the service answers `type_error` or `lint_error`).
//! Everything else is a warning: counted, surfaced through the `analyze`
//! op, never blocking.

use crate::cfg::Cfg;
use crate::intervals::intervals;
use crate::liveness::{dead_stores, liveness};
use crate::reaching::{reaching, Def};
use minic::ast::*;
use std::collections::BTreeSet;
use std::fmt;

/// How bad a [`Diagnostic`] is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Worth reporting, never blocking.
    Warning,
    /// The program cannot be meaningfully encoded.
    Error,
}

impl Severity {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// What a [`Diagnostic`] is about.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum DiagnosticKind {
    /// A type or scope error from `minic::typecheck`.
    Type,
    /// A read of a variable that may (or definitely does) hold garbage.
    UninitRead,
    /// A store no path ever reads again.
    DeadStore,
    /// A statement no execution can reach.
    Unreachable,
    /// An `if`/`while` condition that is provably always true or false.
    ConstantBranch,
    /// An integer literal that does not fit the encoding width.
    Truncation,
}

impl DiagnosticKind {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            DiagnosticKind::Type => "type",
            DiagnosticKind::UninitRead => "uninit_read",
            DiagnosticKind::DeadStore => "dead_store",
            DiagnosticKind::Unreachable => "unreachable",
            DiagnosticKind::ConstantBranch => "constant_branch",
            DiagnosticKind::Truncation => "truncation",
        }
    }
}

/// One structured lint finding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Source line of the finding.
    pub line: Line,
    /// What the finding is about.
    pub kind: DiagnosticKind,
    /// Human-readable description.
    pub message: String,
    /// Whether the finding blocks encoding.
    pub severity: Severity,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at {}: {} [{}]",
            self.severity.as_str(),
            self.line,
            self.message,
            self.kind.as_str()
        )
    }
}

/// Lints `program` for the given encoding width (in bits). Diagnostics come
/// back sorted by line, then kind, then message — deterministic for wire
/// responses and tests.
pub fn lint_program(program: &Program, width: usize) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = Vec::new();

    for error in minic::check_program(program) {
        out.push(Diagnostic {
            line: error.line,
            kind: DiagnosticKind::Type,
            message: error.message,
            severity: Severity::Error,
        });
    }

    let globals: BTreeSet<String> = program.globals.iter().map(|g| g.name.clone()).collect();
    let global_list: Vec<String> = globals.iter().cloned().collect();
    for function in &program.functions {
        let cfg = Cfg::build(function);
        lint_uninit_reads(program, function, &cfg, &globals, &mut out);
        lint_dead_stores(function, &cfg, &globals, &mut out);
        lint_reachability(function, &cfg, &global_list, &mut out);
        lint_truncation(function, width, &mut out);
    }

    out.sort_by(|a, b| {
        (a.line, a.kind, a.message.as_str()).cmp(&(b.line, b.kind, b.message.as_str()))
    });
    out.dedup();
    out
}

fn lint_uninit_reads(
    program: &Program,
    function: &Function,
    cfg: &Cfg,
    globals: &BTreeSet<String>,
    out: &mut Vec<Diagnostic>,
) {
    let _ = program;
    let mut initialized: BTreeSet<String> =
        function.params.iter().map(|(n, _)| n.clone()).collect();
    initialized.extend(globals.iter().cloned());
    let reach = reaching(cfg, &initialized);
    let reachable = cfg.reachable();
    for site in &reach.uses {
        if !site.reaching.contains(&Def::Uninit) {
            continue;
        }
        let (block, _) = cfg.point_location(site.point);
        if !reachable[block] {
            continue; // the unreachable lint owns this point
        }
        let line = cfg.point(site.point).line;
        let definite = site.reaching.len() == 1;
        out.push(Diagnostic {
            line,
            kind: DiagnosticKind::UninitRead,
            message: if definite {
                format!("{:?} is read but never initialized", site.var)
            } else {
                format!("{:?} may be read uninitialized", site.var)
            },
            severity: if definite {
                Severity::Error
            } else {
                Severity::Warning
            },
        });
    }
}

fn lint_dead_stores(
    function: &Function,
    cfg: &Cfg,
    globals: &BTreeSet<String>,
    out: &mut Vec<Diagnostic>,
) {
    let _ = function;
    let live = liveness(cfg, globals);
    for (line, var) in dead_stores(cfg, &live, globals) {
        out.push(Diagnostic {
            line,
            kind: DiagnosticKind::DeadStore,
            message: format!("value stored to {var:?} is never read"),
            severity: Severity::Warning,
        });
    }
}

fn lint_reachability(
    function: &Function,
    cfg: &Cfg,
    globals: &[String],
    out: &mut Vec<Diagnostic>,
) {
    let _ = function;
    let iv = intervals(cfg, globals);
    for cond in &iv.constant_conds {
        let what = if cond.is_loop { "loop" } else { "branch" };
        out.push(Diagnostic {
            line: cond.line,
            kind: DiagnosticKind::ConstantBranch,
            message: format!(
                "{what} condition is always {}",
                if cond.value { "true" } else { "false" }
            ),
            severity: Severity::Warning,
        });
    }
    let mut seen = BTreeSet::new();
    for (block, _, point) in cfg.iter_points() {
        if !iv.reachable[block] && seen.insert(point.line) {
            out.push(Diagnostic {
                line: point.line,
                kind: DiagnosticKind::Unreachable,
                message: "statement is unreachable".to_string(),
                severity: Severity::Warning,
            });
        }
    }
}

fn lint_truncation(function: &Function, width: usize, out: &mut Vec<Diagnostic>) {
    if width == 0 || width >= 64 {
        return;
    }
    let lo = -(1i64 << (width - 1));
    let hi = (1i64 << (width - 1)) - 1;
    function.walk_stmts(&mut |stmt| {
        let mut flagged = BTreeSet::new();
        for value in stmt_constants(stmt) {
            if (value < lo || value > hi) && flagged.insert(value) {
                out.push(Diagnostic {
                    line: stmt.line(),
                    kind: DiagnosticKind::Truncation,
                    message: format!("constant {value} does not fit {width} bits and will wrap"),
                    severity: Severity::Warning,
                });
            }
        }
    });
}

fn stmt_constants(stmt: &Stmt) -> Vec<i64> {
    let mut exprs: Vec<&Expr> = Vec::new();
    match stmt {
        Stmt::Decl { init, .. } => exprs.extend(init.iter()),
        Stmt::Assign { target, value, .. } => {
            if let LValue::Index(_, idx) = target {
                exprs.push(idx);
            }
            exprs.push(value);
        }
        Stmt::If { cond, .. } | Stmt::While { cond, .. } => exprs.push(cond),
        Stmt::Assert { cond, .. } | Stmt::Assume { cond, .. } => exprs.push(cond),
        Stmt::Return { value, .. } => exprs.extend(value.iter()),
        Stmt::ExprStmt { expr, .. } => exprs.push(expr),
    }
    let mut out = Vec::new();
    for expr in exprs {
        out.extend(expr.constants());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(source: &str) -> Vec<Diagnostic> {
        lint_program(&minic::parse_program(source).unwrap(), 8)
    }

    fn kinds(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.kind.as_str()).collect()
    }

    #[test]
    fn clean_program_is_clean() {
        let diags = lint("int main(int x) {\nint y = x + 1;\nassert(y != 7);\nreturn y;\n}");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn type_errors_become_error_diagnostics() {
        let diags = lint("int main() {\nreturn y;\n}");
        assert!(diags
            .iter()
            .any(|d| d.kind == DiagnosticKind::Type && d.severity == Severity::Error));
    }

    #[test]
    fn definite_uninit_read_is_an_error() {
        let diags = lint("int main(int x) {\nint y;\nreturn y;\n}");
        let uninit: Vec<_> = diags
            .iter()
            .filter(|d| d.kind == DiagnosticKind::UninitRead)
            .collect();
        assert_eq!(uninit.len(), 1);
        assert_eq!(uninit[0].severity, Severity::Error);
        assert_eq!(uninit[0].line.number(), 3);
    }

    #[test]
    fn possible_uninit_read_is_a_warning() {
        let diags = lint("int main(int x) {\nint y;\nif (x > 0) {\ny = 1;\n}\nreturn y;\n}");
        let uninit: Vec<_> = diags
            .iter()
            .filter(|d| d.kind == DiagnosticKind::UninitRead)
            .collect();
        assert_eq!(uninit.len(), 1);
        assert_eq!(uninit[0].severity, Severity::Warning);
    }

    #[test]
    fn all_five_dataflow_kinds_fire_on_the_witness_program() {
        // One program exercising every non-type lint: an uninitialized
        // read, a dead store, unreachable code, a constant branch and a
        // truncated constant (width 8).
        let diags = lint(
            "int main(int x) {\nint u;\nint dead = 5;\ndead = x;\nif (0 > 1) {\nx = 300;\n}\nreturn u + x;\n}",
        );
        let ks = kinds(&diags);
        for kind in [
            "uninit_read",
            "dead_store",
            "unreachable",
            "constant_branch",
            "truncation",
        ] {
            assert!(ks.contains(&kind), "missing {kind} in {diags:?}");
        }
    }

    #[test]
    fn code_after_return_is_unreachable() {
        let diags = lint("int main(int x) {\nreturn x;\nint y = 1;\nreturn y;\n}");
        assert!(diags
            .iter()
            .any(|d| d.kind == DiagnosticKind::Unreachable && d.line.number() == 3));
    }

    #[test]
    fn wide_widths_do_not_flag_truncation() {
        let program = minic::parse_program("int main(int x) {\nreturn x + 300;\n}").unwrap();
        assert!(lint_program(&program, 64)
            .iter()
            .all(|d| d.kind != DiagnosticKind::Truncation));
        assert!(lint_program(&program, 8)
            .iter()
            .any(|d| d.kind == DiagnosticKind::Truncation));
    }
}
