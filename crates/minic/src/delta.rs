//! Edit classification for incremental re-localization.
//!
//! The localization pipeline is built for an *edit loop*: a developer
//! localizes, changes a line or two, and re-runs. Almost every such edit
//! leaves most of the program structurally untouched — yet a whole-program
//! content hash ([`crate::ast_hash()`]) treats an inserted blank line as a
//! brand-new program, because statement line numbers (the unit of blame)
//! feed the hash. This module supplies the machinery that lets downstream
//! layers tell *how much* actually changed:
//!
//! * [`segment_program`] splits a program into per-function **segments**,
//!   each carrying a *line-insensitive* structural fingerprint and a
//!   separate **line trace** (the pre-order statement line numbers). Fingerprint = what the
//!   code does; line trace = where it sits. Keeping them apart is the whole
//!   trick: a pure line shift changes only the trace.
//! * [`classify_edit`] compares two segmentations and classifies the edit:
//!   - [`EditClass::Identical`] — same structure, same lines (the source
//!     texts may still differ in whitespace or comments);
//!   - [`EditClass::LineShift`] — same structure, statement lines remapped
//!     by a consistent, strictly monotonic [`LineMap`] (blank lines or
//!     comments inserted/removed);
//!   - [`EditClass::LocalToFunction`] — exactly one function's body or
//!     signature changed; everything else is structurally intact (its lines
//!     may have shifted, captured by the accompanying [`LineMap`]);
//!   - [`EditClass::Global`] — anything bigger (globals changed, functions
//!     added/removed/reordered, several functions edited, or a line mapping
//!     that is not order-preserving).
//! * [`reachable_functions`] computes the call-graph closure from an entry
//!   point, so a consumer can tell whether a `LocalToFunction` edit can
//!   affect the symbolic encoding at all.
//!
//! The classification is deliberately **conservative**: whenever the line
//! mapping is ambiguous (a statement line maps two ways, or the map is not
//! strictly monotonic — statements merged onto one line, or reordered), the
//! edit is demoted to [`EditClass::Global`] and the consumer falls back to a
//! full rebuild. A wrong "reuse" answer would silently corrupt blame lines;
//! a wrong "rebuild" answer only costs time.

use crate::ast::{Expr, Function, Line, Program, Stmt};
use crate::ast_hash::{hash_function, hash_global, Lines, StableHasher};
use std::collections::{BTreeMap, BTreeSet};

/// One per-function segment: structural identity separated from line
/// placement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FunctionSegment {
    /// Function name.
    pub name: String,
    /// Line-insensitive structural fingerprint of the whole function
    /// (signature + body, every line number skipped).
    pub fingerprint: u64,
    /// Pre-order trace of every statement's line, nested statements
    /// included. Parallel traces of two structurally equal functions pair up
    /// position by position — that pairing *is* the line map.
    pub lines: Vec<Line>,
}

/// A whole program, segmented for diffing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgramSegments {
    /// Line-insensitive fingerprint over all globals (names, types,
    /// initializers — not their lines, which never carry blame).
    pub globals_fingerprint: u64,
    /// One segment per function, in definition order.
    pub functions: Vec<FunctionSegment>,
}

/// An order-preserving map from old statement lines to new statement lines.
///
/// Built positionally from the line traces of structurally equal segments,
/// then validated: every old line must map to exactly one new line
/// (consistency) and the map must be strictly increasing (monotonicity), so
/// that relabeling preserves both the per-line clause grouping and the
/// sorted order downstream consumers rely on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LineMap {
    map: BTreeMap<u32, u32>,
}

impl LineMap {
    /// The new line for an old line; unmapped lines pass through unchanged
    /// (they belong to parts of the program outside the mapped segments).
    pub fn remap(&self, line: Line) -> Line {
        Line(self.map.get(&line.0).copied().unwrap_or(line.0))
    }

    /// `true` if every mapped line maps to itself.
    pub fn is_identity(&self) -> bool {
        self.map.iter().all(|(old, new)| old == new)
    }

    /// Number of mapped source lines.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if no lines are mapped.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Inserts one pairing; `false` on conflict (the old line is already
    /// mapped to a different new line).
    fn insert(&mut self, old: Line, new: Line) -> bool {
        match self.map.insert(old.0, new.0) {
            None => true,
            Some(previous) => previous == new.0,
        }
    }

    /// `true` if the mapping is strictly increasing on both sides.
    fn is_strictly_monotonic(&self) -> bool {
        let mut last_new: Option<u32> = None;
        for &new in self.map.values() {
            if let Some(prev) = last_new {
                if new <= prev {
                    return false;
                }
            }
            last_new = Some(new);
        }
        true
    }
}

/// How an edit relates the old program to the new one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EditClass {
    /// Structure and statement lines are identical; only formatting or
    /// comments can differ between the source texts.
    Identical,
    /// Structure identical, statement lines shifted by the map.
    LineShift(LineMap),
    /// Exactly one function changed structurally; all other functions and
    /// every global are intact (their lines possibly shifted, per the map —
    /// the changed function's own lines are *not* in the map).
    LocalToFunction {
        /// Name of the (single) structurally changed function.
        function: String,
        /// Line map covering the *unchanged* functions.
        line_map: LineMap,
    },
    /// Anything bigger; consumers must rebuild from scratch.
    Global,
}

impl EditClass {
    /// Short wire/telemetry label for the class.
    pub fn label(&self) -> &'static str {
        match self {
            EditClass::Identical => "identical",
            EditClass::LineShift(_) => "line_shift",
            EditClass::LocalToFunction { .. } => "local_to_function",
            EditClass::Global => "global",
        }
    }
}

fn function_fingerprint(function: &Function) -> u64 {
    let mut h = StableHasher::new();
    hash_function(&mut h, function, Lines::Ignore);
    h.finish()
}

fn line_trace(function: &Function) -> Vec<Line> {
    let mut lines = Vec::new();
    function.walk_stmts(&mut |s| lines.push(s.line()));
    lines
}

/// Splits a program into diffable per-function segments plus a globals
/// fingerprint. Cheap (a hashing pass over the AST) compared to anything
/// downstream, so callers may recompute it freely or cache it alongside
/// prepared artifacts.
pub fn segment_program(program: &Program) -> ProgramSegments {
    let globals_fingerprint = {
        let mut h = StableHasher::new();
        h.write_usize(program.globals.len());
        for g in &program.globals {
            hash_global(&mut h, g, Lines::Ignore);
        }
        h.finish()
    };
    ProgramSegments {
        globals_fingerprint,
        functions: program
            .functions
            .iter()
            .map(|f| FunctionSegment {
                name: f.name.clone(),
                fingerprint: function_fingerprint(f),
                lines: line_trace(f),
            })
            .collect(),
    }
}

/// Extends `map` with the positional pairing of two equal-length line
/// traces. Returns `false` on an inconsistent pairing.
fn pair_lines(map: &mut LineMap, old: &[Line], new: &[Line]) -> bool {
    debug_assert_eq!(old.len(), new.len(), "structurally equal segments");
    old.iter()
        .zip(new)
        .all(|(&old_line, &new_line)| map.insert(old_line, new_line))
}

/// Classifies the edit that turned `old` into `new`. See the
/// [module docs](self) for the exact meaning of each class and the
/// conservative demotion rules.
pub fn classify_edit(old: &ProgramSegments, new: &ProgramSegments) -> EditClass {
    if old.globals_fingerprint != new.globals_fingerprint
        || old.functions.len() != new.functions.len()
    {
        return EditClass::Global;
    }
    // Functions must pair up positionally by name: a rename or reorder is a
    // global change (call sites elsewhere may resolve differently).
    if old
        .functions
        .iter()
        .zip(&new.functions)
        .any(|(a, b)| a.name != b.name)
    {
        return EditClass::Global;
    }
    let changed: Vec<usize> = (0..old.functions.len())
        .filter(|&i| old.functions[i].fingerprint != new.functions[i].fingerprint)
        .collect();
    match changed.as_slice() {
        [] => {
            let mut map = LineMap::default();
            for (a, b) in old.functions.iter().zip(&new.functions) {
                if !pair_lines(&mut map, &a.lines, &b.lines) {
                    return EditClass::Global;
                }
            }
            if !map.is_strictly_monotonic() {
                return EditClass::Global;
            }
            if map.is_identity() {
                EditClass::Identical
            } else {
                EditClass::LineShift(map)
            }
        }
        [index] => {
            let mut map = LineMap::default();
            for (i, (a, b)) in old.functions.iter().zip(&new.functions).enumerate() {
                if i == *index {
                    continue;
                }
                if !pair_lines(&mut map, &a.lines, &b.lines) {
                    return EditClass::Global;
                }
            }
            if !map.is_strictly_monotonic() {
                return EditClass::Global;
            }
            EditClass::LocalToFunction {
                function: new.functions[*index].name.clone(),
                line_map: map,
            }
        }
        _ => EditClass::Global,
    }
}

fn called_names(stmt: &Stmt, out: &mut BTreeSet<String>) {
    let mut visit_expr = |e: &Expr| {
        e.walk(&mut |sub| {
            if let Expr::Call(name, _) = sub {
                out.insert(name.clone());
            }
        });
    };
    match stmt {
        Stmt::Decl { init: Some(e), .. }
        | Stmt::Assert { cond: e, .. }
        | Stmt::Assume { cond: e, .. }
        | Stmt::Return { value: Some(e), .. }
        | Stmt::ExprStmt { expr: e, .. } => visit_expr(e),
        Stmt::Decl { init: None, .. } | Stmt::Return { value: None, .. } => {}
        Stmt::Assign { target, value, .. } => {
            if let crate::ast::LValue::Index(_, idx) = target {
                visit_expr(idx);
            }
            visit_expr(value);
        }
        // Nested statements are covered by the caller's walk; only the
        // statement's own expressions are visited here.
        Stmt::If { cond, .. } | Stmt::While { cond, .. } => visit_expr(cond),
    }
}

/// The set of function names transitively reachable from `entry` through
/// call expressions (the entry itself included, when it exists). Functions
/// outside this set contribute nothing to a symbolic encoding rooted at
/// `entry`, so edits confined to them can never change a localization
/// answer.
pub fn reachable_functions(program: &Program, entry: &str) -> BTreeSet<String> {
    let mut reachable = BTreeSet::new();
    let mut queue: Vec<String> = Vec::new();
    if program.function(entry).is_some() {
        reachable.insert(entry.to_string());
        queue.push(entry.to_string());
    }
    while let Some(name) = queue.pop() {
        let Some(function) = program.function(&name) else {
            continue;
        };
        let mut called = BTreeSet::new();
        function.walk_stmts(&mut |s| called_names(s, &mut called));
        for callee in called {
            if program.function(&callee).is_some() && reachable.insert(callee.clone()) {
                queue.push(callee);
            }
        }
    }
    reachable
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    fn segments(src: &str) -> ProgramSegments {
        segment_program(&parse_program(src).expect("parses"))
    }

    const BASE: &str = "int helper(int a) {\nreturn a * 2;\n}\nint main(int x) {\nint y = helper(x);\nreturn y + 1;\n}";

    #[test]
    fn identical_structure_and_lines() {
        // Intra-line formatting and comments do not reach the AST.
        let noisy = "int helper( int a ) {\nreturn a*2; // double\n}\nint main(int x) {   /* entry */\nint y = helper(x);\nreturn y + 1;\n}";
        assert_eq!(
            classify_edit(&segments(BASE), &segments(noisy)),
            EditClass::Identical
        );
    }

    #[test]
    fn blank_line_insertion_is_a_line_shift() {
        let shifted = "int helper(int a) {\nreturn a * 2;\n}\n\nint main(int x) {\n\nint y = helper(x);\nreturn y + 1;\n}";
        let class = classify_edit(&segments(BASE), &segments(shifted));
        let EditClass::LineShift(map) = class else {
            panic!("expected LineShift, got {class:?}");
        };
        // helper's body did not move; main's statements moved down.
        assert_eq!(map.remap(Line(2)), Line(2));
        assert_eq!(map.remap(Line(5)), Line(7));
        assert_eq!(map.remap(Line(6)), Line(8));
        assert!(!map.is_identity());
        // Unmapped lines (no statement there) pass through.
        assert_eq!(map.remap(Line(99)), Line(99));
    }

    #[test]
    fn single_function_edit_is_local() {
        // helper's constant changes; main only shifts (a comment line above it).
        let edited = "int helper(int a) {\nreturn a * 3;\n}\n\nint main(int x) {\nint y = helper(x);\nreturn y + 1;\n}";
        let class = classify_edit(&segments(BASE), &segments(edited));
        let EditClass::LocalToFunction { function, line_map } = class else {
            panic!("expected LocalToFunction, got {class:?}");
        };
        assert_eq!(function, "helper");
        // main's statements shifted down by one; helper's lines are unmapped.
        assert_eq!(line_map.remap(Line(5)), Line(6));
        assert_eq!(line_map.remap(Line(6)), Line(7));
    }

    #[test]
    fn bigger_edits_are_global() {
        // Globals changed.
        let with_global = format!("int G = 1;\n{BASE}");
        assert_eq!(
            classify_edit(&segments(BASE), &segments(&with_global)),
            EditClass::Global
        );
        // Function added.
        let extra = format!("{BASE}\nint spare(int z) {{\nreturn z;\n}}");
        assert_eq!(
            classify_edit(&segments(BASE), &segments(&extra)),
            EditClass::Global
        );
        // Two functions edited.
        let both = "int helper(int a) {\nreturn a * 3;\n}\nint main(int x) {\nint y = helper(x);\nreturn y + 2;\n}";
        assert_eq!(
            classify_edit(&segments(BASE), &segments(both)),
            EditClass::Global
        );
        // Functions reordered (same structure set, different positions).
        let reordered = "int main(int x) {\nint y = helper(x);\nreturn y + 1;\n}\nint helper(int a) {\nreturn a * 2;\n}";
        assert_eq!(
            classify_edit(&segments(BASE), &segments(reordered)),
            EditClass::Global
        );
    }

    #[test]
    fn merged_lines_demote_to_global() {
        // Two statements that sat on separate lines now share one line: the
        // old lines would map non-injectively, which breaks the per-line
        // clause grouping — must fall back.
        let merged = "int helper(int a) {\nreturn a * 2;\n}\nint main(int x) {\nint y = helper(x); return y + 1;\n}";
        assert_eq!(
            classify_edit(&segments(BASE), &segments(merged)),
            EditClass::Global
        );
    }

    #[test]
    fn split_statement_lines_demote_to_global() {
        // One source line held two statements; the new text splits them.
        let joined = "int main(int x) {\nint y = x + 1; int z = y;\nreturn z;\n}";
        let split = "int main(int x) {\nint y = x + 1;\nint z = y;\nreturn z;\n}";
        assert_eq!(
            classify_edit(&segments(joined), &segments(split)),
            EditClass::Global
        );
    }

    #[test]
    fn signature_change_is_still_local_to_the_function() {
        let resigned = "int helper(int a, int b) {\nreturn a * 2;\n}\nint main(int x) {\nint y = helper(x);\nreturn y + 1;\n}";
        let class = classify_edit(&segments(BASE), &segments(resigned));
        assert!(
            matches!(&class, EditClass::LocalToFunction { function, .. } if function == "helper"),
            "{class:?}"
        );
    }

    #[test]
    fn reachability_follows_calls_transitively() {
        let src = "int leaf(int a) {\nreturn a;\n}\nint mid(int a) {\nreturn leaf(a) + 1;\n}\nint dead(int a) {\nreturn mid(a);\n}\nint main(int x) {\nwhile (x > 0) {\nx = mid(x) - 2;\n}\nreturn x;\n}";
        let program = parse_program(src).unwrap();
        let reachable = reachable_functions(&program, "main");
        assert!(reachable.contains("main"));
        assert!(reachable.contains("mid"));
        assert!(reachable.contains("leaf"));
        assert!(!reachable.contains("dead"));
        // Unknown entry: empty set.
        assert!(reachable_functions(&program, "absent").is_empty());
    }

    #[test]
    fn segments_separate_structure_from_lines() {
        let a = segments("int main(int x) {\nreturn x + 1;\n}");
        let b = segments("\n\nint main(int x) {\nreturn x + 1;\n}");
        let c = segments("int main(int x) {\nreturn x + 2;\n}");
        assert_eq!(a.functions[0].fingerprint, b.functions[0].fingerprint);
        assert_ne!(a.functions[0].lines, b.functions[0].lines);
        assert_ne!(a.functions[0].fingerprint, c.functions[0].fingerprint);
    }
}
