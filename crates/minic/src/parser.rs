//! Recursive-descent parser for MinC.

use crate::ast::*;
use crate::lexer::{tokenize, Keyword, LexError, Symbol, Token, TokenKind};
use std::fmt;

/// Error produced while parsing MinC source.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Line where the error was detected.
    pub line: Line,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The deepest nesting [`parse_program`] and [`parse_expr`] accept,
/// counting parentheses, operands, unary operators, ternary branches and
/// the statements of `if`/`while` bodies. The parser recurses once per
/// level and so do the passes downstream (type check, lint, encoding), so
/// deeper input is a parse error instead of a stack overflow. A program at
/// the limit still localizes on a thread with the default 2 MiB stack.
pub const MAX_NESTING: usize = 64;

impl From<LexError> for ParseError {
    fn from(err: LexError) -> ParseError {
        ParseError {
            line: err.line,
            message: err.message,
        }
    }
}

/// Parses a complete MinC program from source text.
///
/// # Errors
///
/// Returns [`ParseError`] on lexical or syntactic errors.
///
/// # Examples
///
/// ```
/// use minic::parse_program;
/// let program = parse_program(r#"
///     int main(int x) {
///         if (x < 0) { x = 0 - x; }
///         assert(x >= 0);
///         return x;
///     }
/// "#).unwrap();
/// assert_eq!(program.functions.len(), 1);
/// assert_eq!(program.functions[0].name, "main");
/// ```
pub fn parse_program(source: &str) -> Result<Program, ParseError> {
    let tokens = tokenize(source)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    parser.program()
}

/// Parses a single expression (useful in tests and in the repair engine).
///
/// # Errors
///
/// Returns [`ParseError`] if the text is not a single valid expression.
pub fn parse_expr(source: &str) -> Result<Expr, ParseError> {
    let tokens = tokenize(source)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let expr = parser.expr()?;
    parser.expect_eof()?;
    Ok(expr)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting levels open at `pos` (see [`MAX_NESTING`]).
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_ahead(&self, n: usize) -> &TokenKind {
        let idx = (self.pos + n).min(self.tokens.len() - 1);
        &self.tokens[idx].kind
    }

    fn line(&self) -> Line {
        self.tokens[self.pos].line
    }

    fn advance(&mut self) -> TokenKind {
        let kind = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        kind
    }

    fn error<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            line: self.line(),
            message: message.into(),
        })
    }

    fn expect_symbol(&mut self, symbol: Symbol) -> Result<(), ParseError> {
        if self.peek() == &TokenKind::Symbol(symbol) {
            self.advance();
            Ok(())
        } else {
            self.error(format!("expected {symbol:?}, found {:?}", self.peek()))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.advance();
                Ok(name)
            }
            other => self.error(format!("expected identifier, found {other:?}")),
        }
    }

    fn expect_int(&mut self) -> Result<i64, ParseError> {
        match *self.peek() {
            TokenKind::Int(v) => {
                self.advance();
                Ok(v)
            }
            ref other => self.error(format!("expected integer literal, found {other:?}")),
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if self.peek() == &TokenKind::Eof {
            Ok(())
        } else {
            self.error(format!("expected end of input, found {:?}", self.peek()))
        }
    }

    /// Runs `parse` one nesting level down, refusing to nest deeper than
    /// [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Parser) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return self.error(format!("nesting deeper than {MAX_NESTING} levels"));
        }
        self.depth += 1;
        let result = parse(self);
        self.depth -= 1;
        result
    }

    fn eat_symbol(&mut self, symbol: Symbol) -> bool {
        if self.peek() == &TokenKind::Symbol(symbol) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut program = Program::default();
        while self.peek() != &TokenKind::Eof {
            let line = self.line();
            let ret = self.parse_type_or_void()?;
            let name = self.expect_ident()?;
            if self.peek() == &TokenKind::Symbol(Symbol::LParen) {
                let function = self.function_rest(name, ret, line)?;
                program.functions.push(function);
            } else {
                let ret = ret.ok_or(ParseError {
                    line,
                    message: "global variables cannot be void".into(),
                })?;
                let global = self.global_rest(name, ret, line)?;
                program.globals.push(global);
            }
        }
        Ok(program)
    }

    fn parse_type_or_void(&mut self) -> Result<Option<Type>, ParseError> {
        match self.peek().clone() {
            TokenKind::Keyword(Keyword::Int) => {
                self.advance();
                Ok(Some(Type::Int))
            }
            TokenKind::Keyword(Keyword::Bool) => {
                self.advance();
                Ok(Some(Type::Bool))
            }
            TokenKind::Keyword(Keyword::Void) => {
                self.advance();
                Ok(None)
            }
            other => self.error(format!("expected a type, found {other:?}")),
        }
    }

    fn global_rest(&mut self, name: String, ty: Type, line: Line) -> Result<Global, ParseError> {
        let ty = if self.eat_symbol(Symbol::LBracket) {
            let size = self.expect_int()?;
            self.expect_symbol(Symbol::RBracket)?;
            if size <= 0 {
                return self.error("array size must be positive");
            }
            Type::Array(size as usize)
        } else {
            ty
        };
        let init = if self.eat_symbol(Symbol::Assign) {
            let negative = self.eat_symbol(Symbol::Minus);
            let v = self.expect_int()?;
            Some(if negative { -v } else { v })
        } else {
            None
        };
        self.expect_symbol(Symbol::Semi)?;
        Ok(Global {
            name,
            ty,
            init,
            line,
        })
    }

    fn function_rest(
        &mut self,
        name: String,
        ret: Option<Type>,
        line: Line,
    ) -> Result<Function, ParseError> {
        self.expect_symbol(Symbol::LParen)?;
        let mut params = Vec::new();
        if !self.eat_symbol(Symbol::RParen) {
            loop {
                let ty = self.parse_type_or_void()?.ok_or_else(|| ParseError {
                    line: self.line(),
                    message: "parameters cannot be void".into(),
                })?;
                let pname = self.expect_ident()?;
                params.push((pname, ty));
                if self.eat_symbol(Symbol::RParen) {
                    break;
                }
                self.expect_symbol(Symbol::Comma)?;
            }
        }
        let body = self.block()?;
        Ok(Function {
            name,
            params,
            ret,
            body,
            line,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect_symbol(Symbol::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat_symbol(Symbol::RBrace) {
            if self.peek() == &TokenKind::Eof {
                return self.error("unterminated block");
            }
            stmts.push(self.statement()?);
        }
        Ok(stmts)
    }

    fn block_or_single(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.nested(|p| {
            if p.peek() == &TokenKind::Symbol(Symbol::LBrace) {
                p.block()
            } else {
                Ok(vec![p.statement()?])
            }
        })
    }

    fn statement(&mut self) -> Result<Stmt, ParseError> {
        let line = self.line();
        match self.peek().clone() {
            TokenKind::Keyword(Keyword::Int) | TokenKind::Keyword(Keyword::Bool) => {
                let ty = self.parse_type_or_void()?.expect("int/bool is not void");
                let name = self.expect_ident()?;
                let ty = if self.eat_symbol(Symbol::LBracket) {
                    let size = self.expect_int()?;
                    self.expect_symbol(Symbol::RBracket)?;
                    if size <= 0 {
                        return self.error("array size must be positive");
                    }
                    Type::Array(size as usize)
                } else {
                    ty
                };
                let init = if self.eat_symbol(Symbol::Assign) {
                    Some(self.expr()?)
                } else {
                    None
                };
                self.expect_symbol(Symbol::Semi)?;
                Ok(Stmt::Decl {
                    name,
                    ty,
                    init,
                    line,
                })
            }
            TokenKind::Keyword(Keyword::If) => {
                self.advance();
                self.expect_symbol(Symbol::LParen)?;
                let cond = self.expr()?;
                self.expect_symbol(Symbol::RParen)?;
                let then_branch = self.block_or_single()?;
                let else_branch = if self.peek() == &TokenKind::Keyword(Keyword::Else) {
                    self.advance();
                    self.block_or_single()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                    line,
                })
            }
            TokenKind::Keyword(Keyword::While) => {
                self.advance();
                self.expect_symbol(Symbol::LParen)?;
                let cond = self.expr()?;
                self.expect_symbol(Symbol::RParen)?;
                let body = self.block_or_single()?;
                Ok(Stmt::While { cond, body, line })
            }
            TokenKind::Keyword(Keyword::Assert) => {
                self.advance();
                self.expect_symbol(Symbol::LParen)?;
                let cond = self.expr()?;
                self.expect_symbol(Symbol::RParen)?;
                self.expect_symbol(Symbol::Semi)?;
                Ok(Stmt::Assert { cond, line })
            }
            TokenKind::Keyword(Keyword::Assume) => {
                self.advance();
                self.expect_symbol(Symbol::LParen)?;
                let cond = self.expr()?;
                self.expect_symbol(Symbol::RParen)?;
                self.expect_symbol(Symbol::Semi)?;
                Ok(Stmt::Assume { cond, line })
            }
            TokenKind::Keyword(Keyword::Return) => {
                self.advance();
                let value = if self.peek() == &TokenKind::Symbol(Symbol::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect_symbol(Symbol::Semi)?;
                Ok(Stmt::Return { value, line })
            }
            TokenKind::Ident(name) => {
                // Assignment, array assignment, or bare call.
                if self.peek_ahead(1) == &TokenKind::Symbol(Symbol::LParen) {
                    let expr = self.expr()?;
                    self.expect_symbol(Symbol::Semi)?;
                    Ok(Stmt::ExprStmt { expr, line })
                } else {
                    self.advance();
                    let target = if self.eat_symbol(Symbol::LBracket) {
                        let idx = self.expr()?;
                        self.expect_symbol(Symbol::RBracket)?;
                        LValue::Index(name, Box::new(idx))
                    } else {
                        LValue::Var(name)
                    };
                    self.expect_symbol(Symbol::Assign)?;
                    let value = self.expr()?;
                    self.expect_symbol(Symbol::Semi)?;
                    Ok(Stmt::Assign {
                        target,
                        value,
                        line,
                    })
                }
            }
            other => self.error(format!("expected a statement, found {other:?}")),
        }
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Parser::ternary)
    }

    fn ternary(&mut self) -> Result<Expr, ParseError> {
        let cond = self.logical_or()?;
        if self.eat_symbol(Symbol::Question) {
            let then_val = self.expr()?;
            self.expect_symbol(Symbol::Colon)?;
            let else_val = self.nested(Parser::ternary)?;
            Ok(Expr::Cond(
                Box::new(cond),
                Box::new(then_val),
                Box::new(else_val),
            ))
        } else {
            Ok(cond)
        }
    }

    fn binary_level(
        &mut self,
        ops: &[(Symbol, BinOp)],
        next: fn(&mut Parser) -> Result<Expr, ParseError>,
    ) -> Result<Expr, ParseError> {
        let mut lhs = next(self)?;
        // Each operator puts the chain's first operand one level deeper.
        let depth = self.depth;
        loop {
            let mut matched = None;
            for &(sym, op) in ops {
                if self.peek() == &TokenKind::Symbol(sym) {
                    matched = Some(op);
                    self.advance();
                    break;
                }
            }
            match matched {
                Some(op) => {
                    let rhs = self.nested(next)?;
                    lhs = Expr::binary(op, lhs, rhs);
                    self.depth += 1;
                }
                None => {
                    self.depth = depth;
                    return Ok(lhs);
                }
            }
        }
    }

    fn logical_or(&mut self) -> Result<Expr, ParseError> {
        self.binary_level(&[(Symbol::OrOr, BinOp::Or)], Parser::logical_and)
    }

    fn logical_and(&mut self) -> Result<Expr, ParseError> {
        self.binary_level(&[(Symbol::AndAnd, BinOp::And)], Parser::bit_or)
    }

    fn bit_or(&mut self) -> Result<Expr, ParseError> {
        self.binary_level(&[(Symbol::Pipe, BinOp::BitOr)], Parser::bit_xor)
    }

    fn bit_xor(&mut self) -> Result<Expr, ParseError> {
        self.binary_level(&[(Symbol::Caret, BinOp::BitXor)], Parser::bit_and)
    }

    fn bit_and(&mut self) -> Result<Expr, ParseError> {
        self.binary_level(&[(Symbol::Amp, BinOp::BitAnd)], Parser::equality)
    }

    fn equality(&mut self) -> Result<Expr, ParseError> {
        self.binary_level(
            &[(Symbol::EqEq, BinOp::Eq), (Symbol::NotEq, BinOp::Ne)],
            Parser::relational,
        )
    }

    fn relational(&mut self) -> Result<Expr, ParseError> {
        self.binary_level(
            &[
                (Symbol::Le, BinOp::Le),
                (Symbol::Ge, BinOp::Ge),
                (Symbol::Lt, BinOp::Lt),
                (Symbol::Gt, BinOp::Gt),
            ],
            Parser::shift,
        )
    }

    fn shift(&mut self) -> Result<Expr, ParseError> {
        self.binary_level(
            &[(Symbol::Shl, BinOp::Shl), (Symbol::Shr, BinOp::Shr)],
            Parser::additive,
        )
    }

    fn additive(&mut self) -> Result<Expr, ParseError> {
        self.binary_level(
            &[(Symbol::Plus, BinOp::Add), (Symbol::Minus, BinOp::Sub)],
            Parser::multiplicative,
        )
    }

    fn multiplicative(&mut self) -> Result<Expr, ParseError> {
        self.binary_level(
            &[
                (Symbol::Star, BinOp::Mul),
                (Symbol::Slash, BinOp::Div),
                (Symbol::Percent, BinOp::Rem),
            ],
            Parser::unary,
        )
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat_symbol(Symbol::Minus) {
            Ok(Expr::unary(UnOp::Neg, self.nested(Parser::unary)?))
        } else if self.eat_symbol(Symbol::Not) {
            Ok(Expr::unary(UnOp::Not, self.nested(Parser::unary)?))
        } else if self.eat_symbol(Symbol::Tilde) {
            Ok(Expr::unary(UnOp::BitNot, self.nested(Parser::unary)?))
        } else {
            self.primary()
        }
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.advance();
                Ok(Expr::Int(v))
            }
            TokenKind::Keyword(Keyword::True) => {
                self.advance();
                Ok(Expr::Bool(true))
            }
            TokenKind::Keyword(Keyword::False) => {
                self.advance();
                Ok(Expr::Bool(false))
            }
            TokenKind::Keyword(Keyword::Nondet) => {
                self.advance();
                self.expect_symbol(Symbol::LParen)?;
                self.expect_symbol(Symbol::RParen)?;
                Ok(Expr::Nondet)
            }
            TokenKind::Symbol(Symbol::LParen) => {
                self.advance();
                let e = self.expr()?;
                self.expect_symbol(Symbol::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                self.advance();
                if self.eat_symbol(Symbol::LParen) {
                    let mut args = Vec::new();
                    if !self.eat_symbol(Symbol::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if self.eat_symbol(Symbol::RParen) {
                                break;
                            }
                            self.expect_symbol(Symbol::Comma)?;
                        }
                    }
                    Ok(Expr::Call(name, args))
                } else if self.eat_symbol(Symbol::LBracket) {
                    let idx = self.expr()?;
                    self.expect_symbol(Symbol::RBracket)?;
                    Ok(Expr::Index(name, Box::new(idx)))
                } else {
                    Ok(Expr::Var(name))
                }
            }
            other => self.error(format!("expected an expression, found {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_motivating_example() {
        // Program 1 from the paper (Sec. 2), adapted to MinC syntax.
        let src = r#"
            int Array[3];
            int testme(int index) {
                if (index != 1) {
                    index = 2;
                } else {
                    index = index + 2;
                }
                int i = index;
                assert(i >= 0 && i < 3);
                return Array[i];
            }
        "#;
        let program = parse_program(src).unwrap();
        assert_eq!(program.globals.len(), 1);
        assert_eq!(program.globals[0].ty, Type::Array(3));
        let f = program.function("testme").unwrap();
        assert_eq!(f.params, vec![("index".to_string(), Type::Int)]);
        assert_eq!(f.body.len(), 4);
        assert!(matches!(f.body[0], Stmt::If { .. }));
        assert!(matches!(f.body[2], Stmt::Assert { .. }));
    }

    #[test]
    fn expression_precedence() {
        let e = parse_expr("1 + 2 * 3 < 4 && x == 5 || y").unwrap();
        // Expect: ((1 + (2*3)) < 4 && (x == 5)) || y
        match e {
            Expr::Binary(BinOp::Or, lhs, rhs) => {
                assert_eq!(*rhs, Expr::var("y"));
                match *lhs {
                    Expr::Binary(BinOp::And, l, r) => {
                        assert!(matches!(*l, Expr::Binary(BinOp::Lt, _, _)));
                        assert!(matches!(*r, Expr::Binary(BinOp::Eq, _, _)));
                    }
                    other => panic!("unexpected lhs {other:?}"),
                }
            }
            other => panic!("unexpected parse {other:?}"),
        }
    }

    #[test]
    fn ternary_and_calls() {
        let e = parse_expr("Climb_Inhibit ? Up_Sep + 100 : Up_Sep").unwrap();
        assert!(matches!(e, Expr::Cond(..)));
        let e = parse_expr("max(a, b + 1)").unwrap();
        match e {
            Expr::Call(name, args) => {
                assert_eq!(name, "max");
                assert_eq!(args.len(), 2);
            }
            other => panic!("unexpected parse {other:?}"),
        }
    }

    #[test]
    fn unary_operators_nest() {
        let e = parse_expr("!-~x").unwrap();
        assert_eq!(
            e,
            Expr::unary(
                UnOp::Not,
                Expr::unary(UnOp::Neg, Expr::unary(UnOp::BitNot, Expr::var("x")))
            )
        );
    }

    #[test]
    fn statements_without_braces() {
        let src = r#"
            int main(int x) {
                if (x > 0) x = x - 1; else x = x + 1;
                while (x > 0) x = x - 1;
                return x;
            }
        "#;
        let program = parse_program(src).unwrap();
        let f = program.function("main").unwrap();
        assert!(matches!(f.body[0], Stmt::If { .. }));
        assert!(matches!(f.body[1], Stmt::While { .. }));
    }

    #[test]
    fn global_initializers_and_negative_values() {
        let program =
            parse_program("int limit = -5; int table[4]; int main() { return limit; }").unwrap();
        assert_eq!(program.globals[0].init, Some(-5));
        assert_eq!(program.globals[1].ty, Type::Array(4));
        assert_eq!(program.globals[1].init, None);
    }

    #[test]
    fn array_assignment_and_read() {
        let src = "int a[2]; void main(int x) { a[0] = x; a[1] = a[0] + 1; }";
        let program = parse_program(src).unwrap();
        let f = program.function("main").unwrap();
        assert!(matches!(
            f.body[0],
            Stmt::Assign {
                target: LValue::Index(..),
                ..
            }
        ));
    }

    #[test]
    fn nondet_and_bare_calls() {
        let src = "int log(int v) { return v; } void main() { int x = nondet(); log(x); }";
        let program = parse_program(src).unwrap();
        let f = program.function("main").unwrap();
        assert!(matches!(f.body[1], Stmt::ExprStmt { .. }));
        match &f.body[0] {
            Stmt::Decl { init, .. } => assert_eq!(init, &Some(Expr::Nondet)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn line_numbers_attach_to_statements() {
        let src = "int main() {\n  int x = 1;\n  x = 2;\n  return x;\n}";
        let program = parse_program(src).unwrap();
        let f = program.function("main").unwrap();
        assert_eq!(f.body[0].line(), Line(2));
        assert_eq!(f.body[1].line(), Line(3));
        assert_eq!(f.body[2].line(), Line(4));
    }

    #[test]
    fn parse_errors_carry_location() {
        let err = parse_program("int main() { x = ; }").unwrap_err();
        assert_eq!(err.line, Line(1));
        assert!(err.message.contains("expected an expression"));
        assert!(parse_program("int main( { }").is_err());
        assert!(parse_expr("1 +").is_err());
        assert!(parse_expr("1 2").is_err());
    }

    #[test]
    fn nesting_is_capped_at_max_nesting() {
        // Each shape nests `depth` levels below the one `parse_expr` opens.
        let shapes: [fn(usize) -> String; 5] = [
            |depth| "(".repeat(depth) + "x" + &")".repeat(depth),
            |depth| "f(".repeat(depth) + "x" + &")".repeat(depth),
            |depth| "-".repeat(depth) + "x",
            |depth| "x".to_string() + &" + x".repeat(depth),
            |depth| "x ? x : ".repeat(depth) + "x",
        ];
        for shape in shapes {
            let at_limit = shape(MAX_NESTING - 1);
            assert!(parse_expr(&at_limit).is_ok(), "{at_limit}");
            for depth in [MAX_NESTING, 1_000, 20_000] {
                let err = parse_expr(&shape(depth)).unwrap_err();
                assert!(err.message.contains("nesting deeper than 64"), "{err}");
            }
        }
        // Statement bodies nest too: the body of the k-th `if` and the
        // operands of its condition sit k levels down.
        let ifs = |depth: usize| {
            format!(
                "int main(int x) {{\n{}x = 1;\n{}return x;\n}}",
                "if (x > 0) {\n".repeat(depth),
                "}\n".repeat(depth)
            )
        };
        assert!(parse_program(&ifs(MAX_NESTING - 1)).is_ok());
        let err = parse_program(&ifs(MAX_NESTING)).unwrap_err();
        assert_eq!(err.line, Line(MAX_NESTING as u32 + 1), "the last `if`");
    }

    #[test]
    fn void_globals_are_rejected() {
        assert!(parse_program("void g; int main() { return 0; }").is_err());
    }
}
