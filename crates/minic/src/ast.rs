//! Abstract syntax of MinC, the small C-like imperative language used by the
//! BugAssist reproduction in place of ANSI-C.
//!
//! MinC covers the features the paper's experiments rely on: fixed-width
//! integers, Booleans, statically sized arrays, functions with call-by-value
//! parameters, `if`/`while` control flow, `assert`/`assume`, and the usual
//! arithmetic, comparison, bitwise and logical operators. Every statement
//! carries the source line it came from; those line numbers are the unit of
//! blame for the localization algorithm (Sec. 3.4 of the paper groups clauses
//! per statement).

use std::fmt;

/// A 1-based source line number. Statements are blamed at this granularity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Line(pub u32);

impl Line {
    /// The line number as a plain integer.
    pub fn number(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Line {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}", self.0)
    }
}

/// Types of MinC values.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Type {
    /// Fixed-width two's-complement integer (the width is chosen by the
    /// encoder, not the type).
    Int,
    /// Boolean.
    Bool,
    /// Statically sized integer array.
    Array(usize),
}

impl Type {
    /// Returns `true` for scalar (non-array) types.
    pub fn is_scalar(self) -> bool {
        !matches!(self, Type::Array(_))
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "int"),
            Type::Bool => write!(f, "bool"),
            Type::Array(n) => write!(f, "int[{n}]"),
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnOp {
    /// Arithmetic negation `-e`.
    Neg,
    /// Logical negation `!e`.
    Not,
    /// Bitwise complement `~e`.
    BitNot,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnOp::Neg => write!(f, "-"),
            UnOp::Not => write!(f, "!"),
            UnOp::BitNot => write!(f, "~"),
        }
    }
}

/// Binary operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (truncating, C semantics; division by zero yields 0 in MinC)
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `<<`
    Shl,
    /// `>>` (arithmetic shift)
    Shr,
}

impl BinOp {
    /// Returns `true` for operators producing a Boolean result.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// Returns `true` for the short-circuiting logical operators.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    /// The "mutation neighbours" of an operator: plausible programmer
    /// confusions used by fault injection and by the repair search
    /// (e.g. `<` ↔ `<=`, `+` ↔ `-`).
    pub fn mutation_neighbours(self) -> Vec<BinOp> {
        use BinOp::*;
        match self {
            Lt => vec![Le, Gt, Ge],
            Le => vec![Lt, Ge, Gt],
            Gt => vec![Ge, Lt, Le],
            Ge => vec![Gt, Le, Lt],
            Eq => vec![Ne],
            Ne => vec![Eq],
            Add => vec![Sub],
            Sub => vec![Add],
            Mul => vec![Div],
            Div => vec![Mul],
            And => vec![Or],
            Or => vec![And],
            _ => vec![],
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
        };
        write!(f, "{s}")
    }
}

/// Expressions.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// Variable reference.
    Var(String),
    /// Array element read `a[e]`.
    Index(String, Box<Expr>),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Conditional expression `c ? t : e`.
    Cond(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Function call.
    Call(String, Vec<Expr>),
    /// Non-deterministic integer input (`nondet()`), used to model unknown
    /// inputs when searching for counterexamples.
    Nondet,
}

impl Expr {
    /// Convenience constructor for a variable reference.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// Convenience constructor for a binary operation.
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    /// Convenience constructor for a unary operation.
    pub fn unary(op: UnOp, e: Expr) -> Expr {
        Expr::Unary(op, Box::new(e))
    }

    /// Visits this expression and all sub-expressions, outermost first.
    pub fn walk<'a>(&'a self, visit: &mut dyn FnMut(&'a Expr)) {
        visit(self);
        match self {
            Expr::Int(_) | Expr::Bool(_) | Expr::Var(_) | Expr::Nondet => {}
            Expr::Index(_, idx) => idx.walk(visit),
            Expr::Unary(_, e) => e.walk(visit),
            Expr::Binary(_, lhs, rhs) => {
                lhs.walk(visit);
                rhs.walk(visit);
            }
            Expr::Cond(c, t, e) => {
                c.walk(visit);
                t.walk(visit);
                e.walk(visit);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.walk(visit);
                }
            }
        }
    }

    /// Returns all variable names read by this expression (array names
    /// included), in first-occurrence order.
    pub fn read_vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.walk(&mut |e| match e {
            Expr::Var(name) | Expr::Index(name, _) if !out.contains(name) => {
                out.push(name.clone());
            }
            _ => {}
        });
        out
    }

    /// Returns all integer constants appearing in the expression.
    pub fn constants(&self) -> Vec<i64> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Int(v) = e {
                out.push(*v);
            }
        });
        out
    }

    /// Returns `true` if this expression calls any function.
    pub fn has_call(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(e, Expr::Call(..)) {
                found = true;
            }
        });
        found
    }

    /// Rewrites the expression bottom-up with `f`.
    pub fn map(&self, f: &mut dyn FnMut(Expr) -> Expr) -> Expr {
        let rebuilt = match self {
            Expr::Int(_) | Expr::Bool(_) | Expr::Var(_) | Expr::Nondet => self.clone(),
            Expr::Index(name, idx) => Expr::Index(name.clone(), Box::new(idx.map(f))),
            Expr::Unary(op, e) => Expr::Unary(*op, Box::new(e.map(f))),
            Expr::Binary(op, lhs, rhs) => {
                Expr::Binary(*op, Box::new(lhs.map(f)), Box::new(rhs.map(f)))
            }
            Expr::Cond(c, t, e) => {
                Expr::Cond(Box::new(c.map(f)), Box::new(t.map(f)), Box::new(e.map(f)))
            }
            Expr::Call(name, args) => {
                Expr::Call(name.clone(), args.iter().map(|a| a.map(f)).collect())
            }
        };
        f(rebuilt)
    }
}

/// Assignment targets.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum LValue {
    /// Scalar variable.
    Var(String),
    /// Array element `a[e]`.
    Index(String, Box<Expr>),
}

impl LValue {
    /// The name of the variable or array being written.
    pub fn name(&self) -> &str {
        match self {
            LValue::Var(n) | LValue::Index(n, _) => n,
        }
    }
}

/// Statements. Every statement records the source [`Line`] it came from.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Stmt {
    /// Local declaration with optional initializer.
    Decl {
        /// Variable name.
        name: String,
        /// Declared type.
        ty: Type,
        /// Optional initializing expression.
        init: Option<Expr>,
        /// Source line.
        line: Line,
    },
    /// Assignment `target = value;`.
    Assign {
        /// Target of the assignment.
        target: LValue,
        /// Right-hand side.
        value: Expr,
        /// Source line.
        line: Line,
    },
    /// Conditional.
    If {
        /// Branch condition.
        cond: Expr,
        /// Then-branch body.
        then_branch: Vec<Stmt>,
        /// Else-branch body (possibly empty).
        else_branch: Vec<Stmt>,
        /// Source line of the `if`.
        line: Line,
    },
    /// While loop.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
        /// Source line of the `while`.
        line: Line,
    },
    /// Assertion: the property the program must satisfy.
    Assert {
        /// Asserted condition.
        cond: Expr,
        /// Source line.
        line: Line,
    },
    /// Assumption: a constraint on inputs / environment.
    Assume {
        /// Assumed condition.
        cond: Expr,
        /// Source line.
        line: Line,
    },
    /// Return from the enclosing function.
    Return {
        /// Returned value (None for `void`-like returns).
        value: Option<Expr>,
        /// Source line.
        line: Line,
    },
    /// Expression statement (a bare call).
    ExprStmt {
        /// The evaluated expression.
        expr: Expr,
        /// Source line.
        line: Line,
    },
}

impl Stmt {
    /// The source line of this statement.
    pub fn line(&self) -> Line {
        match self {
            Stmt::Decl { line, .. }
            | Stmt::Assign { line, .. }
            | Stmt::If { line, .. }
            | Stmt::While { line, .. }
            | Stmt::Assert { line, .. }
            | Stmt::Assume { line, .. }
            | Stmt::Return { line, .. }
            | Stmt::ExprStmt { line, .. } => *line,
        }
    }

    /// Visits this statement and all nested statements, outermost first.
    pub fn walk<'a>(&'a self, visit: &mut dyn FnMut(&'a Stmt)) {
        visit(self);
        match self {
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                for s in then_branch {
                    s.walk(visit);
                }
                for s in else_branch {
                    s.walk(visit);
                }
            }
            Stmt::While { body, .. } => {
                for s in body {
                    s.walk(visit);
                }
            }
            _ => {}
        }
    }
}

/// A function definition.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Parameters (name, type), call-by-value.
    pub params: Vec<(String, Type)>,
    /// Return type; `None` models `void`.
    pub ret: Option<Type>,
    /// Function body.
    pub body: Vec<Stmt>,
    /// Source line of the definition.
    pub line: Line,
}

impl Function {
    /// Visits every statement of the body, outermost first.
    pub fn walk_stmts<'a>(&'a self, visit: &mut dyn FnMut(&'a Stmt)) {
        for s in &self.body {
            s.walk(visit);
        }
    }

    /// Returns the set of source lines occupied by statements of this
    /// function, sorted and deduplicated.
    pub fn statement_lines(&self) -> Vec<Line> {
        let mut lines = Vec::new();
        self.walk_stmts(&mut |s| lines.push(s.line()));
        lines.sort();
        lines.dedup();
        lines
    }
}

/// A global variable declaration.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Global {
    /// Variable name.
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Optional constant initializer (scalar globals only).
    pub init: Option<i64>,
    /// Source line of the declaration.
    pub line: Line,
}

/// A whole MinC program: globals plus functions. Execution starts at `main`.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Program {
    /// Global variables.
    pub globals: Vec<Global>,
    /// Function definitions.
    pub functions: Vec<Function>,
}

impl Program {
    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Looks up a global by name.
    pub fn global(&self, name: &str) -> Option<&Global> {
        self.globals.iter().find(|g| g.name == name)
    }

    /// All statement lines of all functions, sorted and deduplicated. This is
    /// the denominator of the paper's "SizeReduc%" column (reported suspects
    /// over total statements).
    pub fn statement_lines(&self) -> Vec<Line> {
        let mut lines = Vec::new();
        for f in &self.functions {
            lines.extend(f.statement_lines());
        }
        lines.sort();
        lines.dedup();
        lines
    }

    /// Total number of statements (counting nested statements once each).
    pub fn num_statements(&self) -> usize {
        let mut count = 0;
        for f in &self.functions {
            f.walk_stmts(&mut |_| count += 1);
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_expr() -> Expr {
        // (x + 3) < a[i]
        Expr::binary(
            BinOp::Lt,
            Expr::binary(BinOp::Add, Expr::var("x"), Expr::Int(3)),
            Expr::Index("a".into(), Box::new(Expr::var("i"))),
        )
    }

    #[test]
    fn expr_read_vars_and_constants() {
        let e = sample_expr();
        assert_eq!(e.read_vars(), vec!["x".to_string(), "a".into(), "i".into()]);
        assert_eq!(e.constants(), vec![3]);
        assert!(!e.has_call());
        let call = Expr::Call("f".into(), vec![Expr::Int(1)]);
        assert!(call.has_call());
    }

    #[test]
    fn expr_map_rewrites_constants() {
        let e = sample_expr();
        let bumped = e.map(&mut |e| match e {
            Expr::Int(v) => Expr::Int(v + 1),
            other => other,
        });
        assert_eq!(bumped.constants(), vec![4]);
    }

    #[test]
    fn operator_classification() {
        assert!(BinOp::Lt.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::And.is_logical());
        assert!(BinOp::Lt.mutation_neighbours().contains(&BinOp::Le));
        assert!(BinOp::Add.mutation_neighbours().contains(&BinOp::Sub));
        assert!(BinOp::Shl.mutation_neighbours().is_empty());
    }

    #[test]
    fn stmt_lines_and_walk() {
        let body = vec![
            Stmt::Assign {
                target: LValue::Var("x".into()),
                value: Expr::Int(1),
                line: Line(2),
            },
            Stmt::If {
                cond: Expr::var("x"),
                then_branch: vec![Stmt::Assert {
                    cond: Expr::Bool(true),
                    line: Line(4),
                }],
                else_branch: vec![],
                line: Line(3),
            },
        ];
        let f = Function {
            name: "main".into(),
            params: vec![],
            ret: Some(Type::Int),
            body,
            line: Line(1),
        };
        assert_eq!(f.statement_lines(), vec![Line(2), Line(3), Line(4)]);
        let program = Program {
            globals: vec![],
            functions: vec![f],
        };
        assert_eq!(program.num_statements(), 3);
        assert!(program.function("main").is_some());
        assert!(program.function("absent").is_none());
    }

    #[test]
    fn display_impls() {
        assert_eq!(Type::Array(3).to_string(), "int[3]");
        assert_eq!(BinOp::Le.to_string(), "<=");
        assert_eq!(UnOp::BitNot.to_string(), "~");
        assert_eq!(Line(7).to_string(), "line 7");
    }
}
