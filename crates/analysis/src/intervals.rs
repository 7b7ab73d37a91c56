//! Conditional constant propagation with an interval domain.
//!
//! Every scalar variable maps to a `[lo, hi]` interval (`i128` bounds so
//! `i64` program arithmetic cannot overflow the analysis itself); missing
//! entries mean "unknown" (top). The analysis runs forward through the
//! generic worklist engine with per-block widening after a visit threshold,
//! then derives:
//!
//! * branch/loop conditions that are provably always true or always false
//!   (the `constant_branch` lint);
//! * a refined reachability: blocks only reachable through the impossible
//!   side of a constant branch are unreachable (the `unreachable` lint
//!   sees through `if (0) { ... }`).
//!
//! Soundness direction: the analysis only ever *claims* a condition is
//! constant when every execution agrees, so wider intervals merely lose
//! lint precision, never correctness.

use crate::cfg::{Cfg, PointKind};
use crate::dataflow::{solve, Direction, Lattice};
use minic::{BinOp, Expr, Line, UnOp};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// An inclusive integer interval.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interval {
    /// Lower bound (inclusive).
    pub lo: i128,
    /// Upper bound (inclusive).
    pub hi: i128,
}

/// The full `i64` range used as "unknown".
pub const TOP: Interval = Interval {
    lo: i64::MIN as i128,
    hi: i64::MAX as i128,
};

impl Interval {
    /// The singleton interval `[v, v]`.
    pub fn constant(v: i64) -> Interval {
        Interval {
            lo: v as i128,
            hi: v as i128,
        }
    }

    /// The `[0, 1]` interval of an unknown Boolean.
    pub fn boolean() -> Interval {
        Interval { lo: 0, hi: 1 }
    }

    /// Is this a single value?
    pub fn as_constant(&self) -> Option<i128> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// Truthiness under C semantics: `Some(true)` when 0 is excluded,
    /// `Some(false)` when the interval is exactly `[0, 0]`.
    pub fn truthiness(&self) -> Option<bool> {
        if self.lo > 0 || self.hi < 0 {
            Some(true)
        } else if self.lo == 0 && self.hi == 0 {
            Some(false)
        } else {
            None
        }
    }

    fn hull(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    fn clamp(self) -> Interval {
        // Anything escaping the i64 range is unknown: MinC arithmetic is
        // fixed-width and the encoder wraps, which intervals cannot track.
        if self.lo < TOP.lo || self.hi > TOP.hi {
            TOP
        } else {
            self
        }
    }
}

/// The interval environment: known bounds per scalar variable. Missing
/// entries are unknown ([`TOP`]). `reached: false` is the analysis bottom
/// (no execution reaches the block yet).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IntervalEnv {
    /// Bounds per variable.
    pub vars: BTreeMap<String, Interval>,
    /// Whether any path reaches this environment.
    pub reached: bool,
}

impl Lattice for IntervalEnv {
    fn join_with(&mut self, other: &Self) -> bool {
        if !other.reached {
            return false;
        }
        if !self.reached {
            *self = other.clone();
            return true;
        }
        let mut changed = false;
        let mut drop = Vec::new();
        for (var, iv) in &mut self.vars {
            match other.vars.get(var) {
                Some(o) => {
                    let joined = iv.hull(*o);
                    if joined != *iv {
                        *iv = joined;
                        changed = true;
                    }
                }
                None => drop.push(var.clone()),
            }
        }
        for var in drop {
            self.vars.remove(&var);
            changed = true;
        }
        changed
    }
}

/// Evaluates `expr` to an interval under `env`.
pub fn eval(expr: &Expr, env: &BTreeMap<String, Interval>) -> Interval {
    match expr {
        Expr::Int(v) => Interval::constant(*v),
        Expr::Bool(b) => Interval::constant(i64::from(*b)),
        Expr::Var(name) => env.get(name).copied().unwrap_or(TOP),
        Expr::Index(..) | Expr::Call(..) | Expr::Nondet => TOP,
        Expr::Unary(op, inner) => {
            let iv = eval(inner, env);
            match op {
                UnOp::Neg => Interval {
                    lo: -iv.hi,
                    hi: -iv.lo,
                }
                .clamp(),
                UnOp::Not => match iv.truthiness() {
                    Some(b) => Interval::constant(i64::from(!b)),
                    None => Interval::boolean(),
                },
                UnOp::BitNot => Interval {
                    lo: -iv.hi - 1,
                    hi: -iv.lo - 1,
                }
                .clamp(),
            }
        }
        Expr::Binary(op, lhs, rhs) => {
            let a = eval(lhs, env);
            let b = eval(rhs, env);
            eval_binary(*op, a, b)
        }
        Expr::Cond(cond, then_e, else_e) => {
            let c = eval(cond, env);
            match c.truthiness() {
                Some(true) => eval(then_e, env),
                Some(false) => eval(else_e, env),
                None => eval(then_e, env).hull(eval(else_e, env)),
            }
        }
    }
}

fn eval_binary(op: BinOp, a: Interval, b: Interval) -> Interval {
    match op {
        BinOp::Add => Interval {
            lo: a.lo + b.lo,
            hi: a.hi + b.hi,
        }
        .clamp(),
        BinOp::Sub => Interval {
            lo: a.lo - b.hi,
            hi: a.hi - b.lo,
        }
        .clamp(),
        BinOp::Mul => {
            let corners = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi];
            Interval {
                lo: *corners.iter().min().unwrap(),
                hi: *corners.iter().max().unwrap(),
            }
            .clamp()
        }
        BinOp::Div
        | BinOp::Rem
        | BinOp::BitAnd
        | BinOp::BitOr
        | BinOp::BitXor
        | BinOp::Shl
        | BinOp::Shr => match (a.as_constant(), b.as_constant()) {
            (Some(x), Some(y)) => {
                let v = match op {
                    // MinC defines division/remainder by zero as 0.
                    BinOp::Div => {
                        if y == 0 {
                            0
                        } else {
                            x / y
                        }
                    }
                    BinOp::Rem => {
                        if y == 0 {
                            0
                        } else {
                            x % y
                        }
                    }
                    BinOp::BitAnd => x & y,
                    BinOp::BitOr => x | y,
                    BinOp::BitXor => x ^ y,
                    BinOp::Shl => {
                        if (0..64).contains(&y) {
                            return Interval {
                                lo: x << y,
                                hi: x << y,
                            }
                            .clamp();
                        }
                        return TOP;
                    }
                    BinOp::Shr => {
                        if (0..64).contains(&y) {
                            x >> y
                        } else {
                            return TOP;
                        }
                    }
                    _ => unreachable!(),
                };
                Interval { lo: v, hi: v }.clamp()
            }
            _ => TOP,
        },
        BinOp::Eq => compare(a, b, |x, y| x == y, |a, b| a.hi < b.lo || a.lo > b.hi),
        BinOp::Ne => compare(a, b, |x, y| x != y, |_, _| false),
        BinOp::Lt => bool_result(a.hi < b.lo, a.lo >= b.hi),
        BinOp::Le => bool_result(a.hi <= b.lo, a.lo > b.hi),
        BinOp::Gt => bool_result(a.lo > b.hi, a.hi <= b.lo),
        BinOp::Ge => bool_result(a.lo >= b.hi, a.hi < b.lo),
        BinOp::And => match (a.truthiness(), b.truthiness()) {
            (Some(false), _) | (_, Some(false)) => Interval::constant(0),
            (Some(true), Some(true)) => Interval::constant(1),
            _ => Interval::boolean(),
        },
        BinOp::Or => match (a.truthiness(), b.truthiness()) {
            (Some(true), _) | (_, Some(true)) => Interval::constant(1),
            (Some(false), Some(false)) => Interval::constant(0),
            _ => Interval::boolean(),
        },
    }
}

fn compare(
    a: Interval,
    b: Interval,
    eq: impl Fn(i128, i128) -> bool,
    disjoint: impl Fn(Interval, Interval) -> bool,
) -> Interval {
    match (a.as_constant(), b.as_constant()) {
        (Some(x), Some(y)) => Interval::constant(i64::from(eq(x, y))),
        _ if disjoint(a, b) => {
            // Disjoint ranges: Eq is false, Ne would be true (but Ne passes
            // a never-true `disjoint`, so only Eq reaches here).
            Interval::constant(0)
        }
        _ => Interval::boolean(),
    }
}

fn bool_result(always: bool, never: bool) -> Interval {
    if always {
        Interval::constant(1)
    } else if never {
        Interval::constant(0)
    } else {
        Interval::boolean()
    }
}

/// A branch or loop condition the analysis proved constant.
#[derive(Clone, Debug)]
pub struct ConstantCond {
    /// Line of the `if`/`while`.
    pub line: Line,
    /// The value every execution gives the condition.
    pub value: bool,
    /// Whether this is a loop condition.
    pub is_loop: bool,
}

/// The interval analysis result.
#[derive(Clone, Debug)]
pub struct Intervals {
    /// Environment at each block's entry.
    pub block_in: Vec<IntervalEnv>,
    /// Conditions proved constant (on blocks reachable under refinement).
    pub constant_conds: Vec<ConstantCond>,
    /// Per-block reachability refined by constant branch edges.
    pub reachable: Vec<bool>,
}

const WIDEN_AFTER: usize = 4;

/// Runs the interval analysis. `havoc_on_call` names the variables a call
/// may rewrite (globals): any point containing a call drops their bounds.
pub fn intervals(cfg: &Cfg, havoc_on_call: &[String]) -> Intervals {
    let visits = RefCell::new(vec![0usize; cfg.blocks.len()]);
    let prev_out: RefCell<Vec<Option<IntervalEnv>>> = RefCell::new(vec![None; cfg.blocks.len()]);
    let transfer = |block: usize, input: &IntervalEnv| {
        if !input.reached {
            return IntervalEnv::default();
        }
        let mut env = input.clone();
        for point in &cfg.blocks[block].points {
            let mut has_call = false;
            for expr in point.exprs() {
                has_call |= expr.has_call();
            }
            if has_call {
                for var in havoc_on_call {
                    env.vars.remove(var);
                }
            }
            match &point.kind {
                PointKind::Decl { name, ty, init } if ty.is_scalar() => {
                    let iv = init.as_ref().map(|e| eval(e, &env.vars)).unwrap_or(TOP);
                    env.vars.insert(name.clone(), iv);
                }
                PointKind::Assign {
                    target: minic::LValue::Var(name),
                    value,
                } => {
                    let iv = eval(value, &env.vars);
                    env.vars.insert(name.clone(), iv);
                }
                _ => {}
            }
        }
        let mut v = visits.borrow_mut();
        v[block] += 1;
        let mut prev = prev_out.borrow_mut();
        if v[block] > WIDEN_AFTER {
            if let Some(old) = &prev[block] {
                // Widen: any bound still moving jumps straight to the i64
                // extreme so the chain terminates.
                for (var, iv) in &mut env.vars {
                    if let Some(o) = old.vars.get(var) {
                        if iv.lo < o.lo {
                            iv.lo = TOP.lo;
                        }
                        if iv.hi > o.hi {
                            iv.hi = TOP.hi;
                        }
                    }
                }
            }
        }
        prev[block] = Some(env.clone());
        env
    };
    let boundary = IntervalEnv {
        vars: BTreeMap::new(),
        reached: true,
    };
    let facts = solve(
        cfg,
        Direction::Forward,
        boundary,
        IntervalEnv::default(),
        transfer,
    );
    let block_in: Vec<IntervalEnv> = facts.iter().map(|f| f.input.clone()).collect();

    // Refined reachability: walk from entry but take only the feasible side
    // of branches whose condition interval is constant.
    let mut reachable = vec![false; cfg.blocks.len()];
    let mut stack = vec![cfg.entry];
    reachable[cfg.entry] = true;
    while let Some(b) = stack.pop() {
        let block = &cfg.blocks[b];
        let feasible: Vec<usize> = match block.points.last() {
            Some(point) => match &point.kind {
                PointKind::Branch { cond, .. } if block.succs.len() == 2 => {
                    // Recompute the env at the branch to test the condition.
                    let env = env_at_branch(cfg, b, &block_in[b], havoc_on_call);
                    match eval(cond, &env).truthiness() {
                        Some(true) => vec![block.succs[0]],
                        Some(false) => vec![block.succs[1]],
                        None => block.succs.clone(),
                    }
                }
                _ => block.succs.clone(),
            },
            None => block.succs.clone(),
        };
        for s in feasible {
            if !reachable[s] {
                reachable[s] = true;
                stack.push(s);
            }
        }
    }

    let mut constant_conds = Vec::new();
    for (b, block) in cfg.blocks.iter().enumerate() {
        if !reachable[b] || !block_in[b].reached {
            continue;
        }
        if let Some(point) = block.points.last() {
            if let PointKind::Branch { cond, is_loop } = &point.kind {
                let env = env_at_branch(cfg, b, &block_in[b], havoc_on_call);
                if let Some(value) = eval(cond, &env).truthiness() {
                    constant_conds.push(ConstantCond {
                        line: point.line,
                        value,
                        is_loop: *is_loop,
                    });
                }
            }
        }
    }
    Intervals {
        block_in,
        constant_conds,
        reachable,
    }
}

/// Replays the block's points over its entry environment up to (not
/// including) the trailing branch, mirroring the transfer function.
fn env_at_branch(
    cfg: &Cfg,
    block: usize,
    input: &IntervalEnv,
    havoc_on_call: &[String],
) -> BTreeMap<String, Interval> {
    let mut env = input.vars.clone();
    let points = &cfg.blocks[block].points;
    for point in &points[..points.len().saturating_sub(1)] {
        let mut has_call = false;
        for expr in point.exprs() {
            has_call |= expr.has_call();
        }
        if has_call {
            for var in havoc_on_call {
                env.remove(var);
            }
        }
        match &point.kind {
            PointKind::Decl { name, ty, init } if ty.is_scalar() => {
                let iv = init.as_ref().map(|e| eval(e, &env)).unwrap_or(TOP);
                env.insert(name.clone(), iv);
            }
            PointKind::Assign {
                target: minic::LValue::Var(name),
                value,
            } => {
                let iv = eval(value, &env);
                env.insert(name.clone(), iv);
            }
            _ => {}
        }
    }
    env
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyse(source: &str) -> (Cfg, Intervals) {
        let program = minic::parse_program(source).unwrap();
        let function = program.function("main").unwrap();
        let cfg = Cfg::build(function);
        let globals: Vec<String> = program.globals.iter().map(|g| g.name.clone()).collect();
        let iv = intervals(&cfg, &globals);
        (cfg, iv)
    }

    #[test]
    fn constant_false_branch_is_flagged_and_pruned() {
        let (cfg, iv) =
            analyse("int main(int x) {\nint dead = 0;\nif (dead > 0) {\nx = 1;\n}\nreturn x;\n}");
        assert_eq!(iv.constant_conds.len(), 1);
        assert!(!iv.constant_conds[0].value);
        assert_eq!(iv.constant_conds[0].line.number(), 3);
        // The then-arm is unreachable under refinement.
        let branch_block = cfg
            .iter_points()
            .find(|(_, _, p)| matches!(p.kind, PointKind::Branch { .. }))
            .map(|(b, _, _)| b)
            .unwrap();
        let then_b = cfg.blocks[branch_block].succs[0];
        assert!(!iv.reachable[then_b]);
    }

    #[test]
    fn loops_terminate_via_widening() {
        let (_, iv) =
            analyse("int main(int x) {\nint i = 0;\nwhile (i < x) {\ni = i + 1;\n}\nreturn i;\n}");
        assert!(iv.constant_conds.is_empty(), "{:?}", iv.constant_conds);
    }

    #[test]
    fn unknown_inputs_stay_unknown() {
        let (_, iv) = analyse("int main(int x) {\nif (x > 0) {\nreturn 1;\n}\nreturn 0;\n}");
        assert!(iv.constant_conds.is_empty());
    }
}
