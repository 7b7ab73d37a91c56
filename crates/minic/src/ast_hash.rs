//! Stable structural hashing of MinC ASTs.
//!
//! The localization service caches prepared [`crate::Program`] encodings
//! keyed by *content*: two requests carrying the same program must hit the
//! same cache slot even if the source texts differ in spacing or comments.
//! [`ast_hash`] provides that key — a 64-bit hash computed over the abstract
//! syntax, so anything the lexer throws away (whitespace within a line,
//! `//` and `/* */` comments, redundant parentheses) cannot affect it.
//!
//! Statement **line numbers are part of the hash**. They are not formatting
//! noise in MinC: a [`crate::ast::Line`] is the unit of blame the localizer
//! reports, so two programs whose statements sit on different lines produce
//! different localization reports and must not share a cache entry. The
//! hash is therefore insensitive to *intra-line* formatting and comments,
//! and sensitive to everything that can change an answer.
//!
//! The hash is deliberately independent of `std::hash::Hasher` (whose output
//! is not guaranteed stable across Rust releases or processes): it is a
//! hand-rolled 64-bit FNV-1a with a final avalanche mix, so the same AST
//! hashes identically on every platform, build and run — a requirement for
//! a cache shared by long-lived server processes.
//!
//! # Examples
//!
//! ```
//! use minic::{ast_hash, parse_program};
//!
//! let a = parse_program("int main(int x) { return x + 1; }").unwrap();
//! let b = parse_program("int  main( int x ) { return x+1; /* same */ }").unwrap();
//! let c = parse_program("int main(int x) { return x + 2; }").unwrap();
//! assert_eq!(ast_hash(&a), ast_hash(&b));
//! assert_ne!(ast_hash(&a), ast_hash(&c));
//! ```

use crate::ast::{BinOp, Expr, Function, Global, LValue, Program, Stmt, Type, UnOp};

/// A stable 64-bit streaming hasher (FNV-1a core, SplitMix64 finalizer).
///
/// Unlike `std::collections::hash_map::DefaultHasher`, the output is fixed
/// by this crate and never changes across processes, platforms or toolchain
/// upgrades, so it is safe to use as a persistent or wire-visible cache key.
#[derive(Clone, Debug)]
pub struct StableHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for StableHasher {
    fn default() -> StableHasher {
        StableHasher::new()
    }
}

impl StableHasher {
    /// Creates a hasher in the FNV-1a initial state.
    pub fn new() -> StableHasher {
        StableHasher { state: FNV_OFFSET }
    }

    /// Absorbs one byte.
    pub fn write_u8(&mut self, byte: u8) {
        self.state ^= u64::from(byte);
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.write_u8(byte);
        }
    }

    /// Absorbs an `i64` (two's-complement bit pattern).
    pub fn write_i64(&mut self, value: i64) {
        self.write_u64(value as u64);
    }

    /// Absorbs a `usize`, widened to 64 bits so 32- and 64-bit hosts agree.
    pub fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    /// Absorbs a string, length-prefixed so `("ab", "c")` and `("a", "bc")`
    /// differ.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        for byte in s.as_bytes() {
            self.write_u8(*byte);
        }
    }

    /// Finishes the hash with a SplitMix64-style avalanche so that small
    /// structural differences diffuse into all 64 bits.
    pub fn finish(&self) -> u64 {
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Node tags keep differently-shaped constructs from colliding (`-x` vs
/// `!x`, a declaration vs an assignment, …). Every variant gets a distinct
/// byte before its payload is absorbed.
fn tag(h: &mut StableHasher, t: u8) {
    h.write_u8(t);
}

/// Whether statement/definition line numbers are absorbed into the hash.
///
/// [`ast_hash`] uses [`Lines::Keep`]: the `Line` is the unit of blame, so two
/// programs whose statements sit on different lines must hash differently.
/// The edit classifier ([`crate::delta`]) uses [`Lines::Ignore`] to compute
/// *structural fingerprints* that survive pure line shifts — the separate
/// line map carries the positions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Lines {
    /// Absorb line numbers (cache-key behaviour).
    Keep,
    /// Skip line numbers (structural-fingerprint behaviour).
    Ignore,
}

fn hash_line(h: &mut StableHasher, line: &crate::ast::Line, mode: Lines) {
    if mode == Lines::Keep {
        h.write_u64(u64::from(line.0));
    }
}

fn hash_type(h: &mut StableHasher, ty: &Type) {
    match ty {
        Type::Int => tag(h, 1),
        Type::Bool => tag(h, 2),
        Type::Array(n) => {
            tag(h, 3);
            h.write_usize(*n);
        }
    }
}

fn unop_tag(op: UnOp) -> u8 {
    match op {
        UnOp::Neg => 1,
        UnOp::Not => 2,
        UnOp::BitNot => 3,
    }
}

fn binop_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 1,
        BinOp::Sub => 2,
        BinOp::Mul => 3,
        BinOp::Div => 4,
        BinOp::Rem => 5,
        BinOp::Eq => 6,
        BinOp::Ne => 7,
        BinOp::Lt => 8,
        BinOp::Le => 9,
        BinOp::Gt => 10,
        BinOp::Ge => 11,
        BinOp::And => 12,
        BinOp::Or => 13,
        BinOp::BitAnd => 14,
        BinOp::BitOr => 15,
        BinOp::BitXor => 16,
        BinOp::Shl => 17,
        BinOp::Shr => 18,
    }
}

fn hash_expr(h: &mut StableHasher, expr: &Expr) {
    match expr {
        Expr::Int(v) => {
            tag(h, 10);
            h.write_i64(*v);
        }
        Expr::Bool(b) => {
            tag(h, 11);
            h.write_u8(u8::from(*b));
        }
        Expr::Var(name) => {
            tag(h, 12);
            h.write_str(name);
        }
        Expr::Index(name, idx) => {
            tag(h, 13);
            h.write_str(name);
            hash_expr(h, idx);
        }
        Expr::Unary(op, e) => {
            tag(h, 14);
            h.write_u8(unop_tag(*op));
            hash_expr(h, e);
        }
        Expr::Binary(op, lhs, rhs) => {
            tag(h, 15);
            h.write_u8(binop_tag(*op));
            hash_expr(h, lhs);
            hash_expr(h, rhs);
        }
        Expr::Cond(c, t, e) => {
            tag(h, 16);
            hash_expr(h, c);
            hash_expr(h, t);
            hash_expr(h, e);
        }
        Expr::Call(name, args) => {
            tag(h, 17);
            h.write_str(name);
            h.write_usize(args.len());
            for a in args {
                hash_expr(h, a);
            }
        }
        Expr::Nondet => tag(h, 18),
    }
}

fn hash_block(h: &mut StableHasher, stmts: &[Stmt], mode: Lines) {
    h.write_usize(stmts.len());
    for s in stmts {
        hash_stmt(h, s, mode);
    }
}

pub(crate) fn hash_stmt(h: &mut StableHasher, stmt: &Stmt, mode: Lines) {
    match stmt {
        Stmt::Decl {
            name,
            ty,
            init,
            line,
        } => {
            tag(h, 30);
            hash_line(h, line, mode);
            h.write_str(name);
            hash_type(h, ty);
            match init {
                None => tag(h, 0),
                Some(e) => {
                    tag(h, 1);
                    hash_expr(h, e);
                }
            }
        }
        Stmt::Assign {
            target,
            value,
            line,
        } => {
            tag(h, 31);
            hash_line(h, line, mode);
            match target {
                LValue::Var(name) => {
                    tag(h, 1);
                    h.write_str(name);
                }
                LValue::Index(name, idx) => {
                    tag(h, 2);
                    h.write_str(name);
                    hash_expr(h, idx);
                }
            }
            hash_expr(h, value);
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
            line,
        } => {
            tag(h, 32);
            hash_line(h, line, mode);
            hash_expr(h, cond);
            hash_block(h, then_branch, mode);
            hash_block(h, else_branch, mode);
        }
        Stmt::While { cond, body, line } => {
            tag(h, 33);
            hash_line(h, line, mode);
            hash_expr(h, cond);
            hash_block(h, body, mode);
        }
        Stmt::Assert { cond, line } => {
            tag(h, 34);
            hash_line(h, line, mode);
            hash_expr(h, cond);
        }
        Stmt::Assume { cond, line } => {
            tag(h, 35);
            hash_line(h, line, mode);
            hash_expr(h, cond);
        }
        Stmt::Return { value, line } => {
            tag(h, 36);
            hash_line(h, line, mode);
            match value {
                None => tag(h, 0),
                Some(e) => {
                    tag(h, 1);
                    hash_expr(h, e);
                }
            }
        }
        Stmt::ExprStmt { expr, line } => {
            tag(h, 37);
            hash_line(h, line, mode);
            hash_expr(h, expr);
        }
    }
}

pub(crate) fn hash_global(h: &mut StableHasher, global: &Global, mode: Lines) {
    tag(h, 50);
    hash_line(h, &global.line, mode);
    h.write_str(&global.name);
    hash_type(h, &global.ty);
    match global.init {
        None => tag(h, 0),
        Some(v) => {
            tag(h, 1);
            h.write_i64(v);
        }
    }
}

pub(crate) fn hash_function(h: &mut StableHasher, function: &Function, mode: Lines) {
    tag(h, 60);
    hash_line(h, &function.line, mode);
    h.write_str(&function.name);
    h.write_usize(function.params.len());
    for (name, ty) in &function.params {
        h.write_str(name);
        hash_type(h, ty);
    }
    match &function.ret {
        None => tag(h, 0),
        Some(ty) => {
            tag(h, 1);
            hash_type(h, ty);
        }
    }
    hash_block(h, &function.body, mode);
}

/// Absorbs a whole program into an existing hasher — callers that need a
/// compound key (the service mixes in encoding width, unwinding depth and
/// blame granularity) start from one [`StableHasher`] and keep writing.
pub fn hash_program(h: &mut StableHasher, program: &Program) {
    h.write_usize(program.globals.len());
    for g in &program.globals {
        hash_global(h, g, Lines::Keep);
    }
    h.write_usize(program.functions.len());
    for f in &program.functions {
        hash_function(h, f, Lines::Keep);
    }
}

/// The stable structural hash of a program — see the [module docs](self)
/// for exactly what it is (in)sensitive to.
pub fn ast_hash(program: &Program) -> u64 {
    let mut h = StableHasher::new();
    hash_program(&mut h, program);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    #[test]
    fn whitespace_and_comments_do_not_change_the_hash() {
        // Same statements on the same lines; only intra-line spacing,
        // tabs and comments differ.
        let plain = parse_program(
            "int Array[3];\nint testme(int index) {\nif (index != 1) {\nindex = 2;\n} else {\nindex = index + 2;\n}\nint i = index;\nreturn Array[i];\n}",
        )
        .unwrap();
        let noisy = parse_program(
            "int   Array[ 3 ] ;  // global buffer\nint testme( int index ) {   /* entry */\nif (index!=1) { // branch\nindex=2;\n} else {\nindex = index+2; /* bug */\n}\nint\ti =\tindex;\nreturn Array[ i ];\n}",
        )
        .unwrap();
        assert_eq!(plain, noisy, "the ASTs themselves are equal");
        assert_eq!(ast_hash(&plain), ast_hash(&noisy));
    }

    #[test]
    fn structural_changes_change_the_hash() {
        let base = parse_program("int main(int x) {\nint y = x + 2;\nreturn y;\n}").unwrap();
        let constant = parse_program("int main(int x) {\nint y = x + 3;\nreturn y;\n}").unwrap();
        let operator = parse_program("int main(int x) {\nint y = x - 2;\nreturn y;\n}").unwrap();
        let renamed = parse_program("int main(int x) {\nint z = x + 2;\nreturn z;\n}").unwrap();
        let hashes = [
            ast_hash(&base),
            ast_hash(&constant),
            ast_hash(&operator),
            ast_hash(&renamed),
        ];
        for (i, a) in hashes.iter().enumerate() {
            for b in &hashes[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn line_numbers_are_part_of_the_hash() {
        // A leading blank line shifts every statement down one line. The
        // localizer would report different Line values for the two programs,
        // so they must not share a cache key.
        let tight = parse_program("int main(int x) {\nreturn x;\n}").unwrap();
        let shifted = parse_program("\nint main(int x) {\nreturn x;\n}").unwrap();
        assert_ne!(ast_hash(&tight), ast_hash(&shifted));
    }

    #[test]
    fn hash_is_stable_across_runs_and_reparses() {
        let source = "int main(int x) {\nassert(x >= 0);\nreturn x * 2;\n}";
        let once = ast_hash(&parse_program(source).unwrap());
        let twice = ast_hash(&parse_program(source).unwrap());
        assert_eq!(once, twice);
        // Pin the value: if this assertion ever fires, the hash function
        // changed and every persisted cache key is invalidated — bump
        // deliberately, never silently.
        assert_eq!(once, 0x5b90_e0d9_5e95_1662, "got {once:#x}");
    }

    #[test]
    fn hasher_primitives_are_order_and_boundary_sensitive() {
        let mut ab = StableHasher::new();
        ab.write_str("ab");
        ab.write_str("c");
        let mut a_bc = StableHasher::new();
        a_bc.write_str("a");
        a_bc.write_str("bc");
        assert_ne!(ab.finish(), a_bc.finish());

        let mut x = StableHasher::new();
        x.write_u64(1);
        x.write_u64(2);
        let mut y = StableHasher::new();
        y.write_u64(2);
        y.write_u64(1);
        assert_ne!(x.finish(), y.finish());
    }
}
