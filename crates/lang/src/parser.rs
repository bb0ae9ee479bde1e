//! Recursive-descent parser for the mini-ZPL grammar.

use crate::ast::*;
use crate::error::{LangError, Span};
use crate::lexer::{lex, Tok, Token};

/// Parses a whole source file.
pub fn parse(src: &str) -> Result<SourceFile, LangError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    p.file()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].tok.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Tok, what: &str) -> Result<(), LangError> {
        if self.eat(&t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn err(&self, msg: impl Into<String>) -> LangError {
        LangError::new(self.span(), msg)
    }

    fn ident(&mut self, what: &str) -> Result<String, LangError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    /// Consumes the identifier `kw` if present.
    fn kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(s) if s == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    // ------------------------------------------------------------------

    fn file(&mut self) -> Result<SourceFile, LangError> {
        if !self.kw("program") {
            return Err(self.err("expected 'program'"));
        }
        let name = self.ident("program name")?;
        self.expect(Tok::Semi, "';'")?;

        let mut file = SourceFile {
            name,
            configs: Vec::new(),
            regions: Vec::new(),
            directions: Vec::new(),
            vars: Vec::new(),
            scalars: Vec::new(),
            body: Vec::new(),
        };

        loop {
            let span = self.span();
            if self.kw("config") {
                let name = self.ident("config name")?;
                self.expect(Tok::Eq, "'='")?;
                let value = self.int_literal()?;
                self.expect(Tok::Semi, "';'")?;
                file.configs.push(ConfigDecl { name, value, span });
            } else if self.kw("region") {
                let name = self.ident("region name")?;
                self.expect(Tok::Eq, "'='")?;
                let region = self.region_literal()?;
                self.expect(Tok::Semi, "';'")?;
                file.regions.push(RegionDecl { name, region, span });
            } else if self.kw("direction") {
                let name = self.ident("direction name")?;
                self.expect(Tok::Eq, "'='")?;
                self.expect(Tok::LBracket, "'['")?;
                let mut components = vec![self.int_literal()?];
                while self.eat(&Tok::Comma) {
                    components.push(self.int_literal()?);
                }
                self.expect(Tok::RBracket, "']'")?;
                self.expect(Tok::Semi, "';'")?;
                file.directions.push(DirectionDecl {
                    name,
                    components,
                    span,
                });
            } else if self.kw("var") {
                let mut names = vec![self.ident("variable name")?];
                while self.eat(&Tok::Comma) {
                    names.push(self.ident("variable name")?);
                }
                self.expect(Tok::Colon, "':'")?;
                let bounds = self.region_ref()?;
                // optional element type
                let _ = self.kw("double");
                self.expect(Tok::Semi, "';'")?;
                file.vars.push(VarDecl {
                    names,
                    bounds,
                    span,
                });
            } else if self.kw("scalar") {
                let name = self.ident("scalar name")?;
                self.expect(Tok::Eq, "'='")?;
                let init = self.float_literal()?;
                self.expect(Tok::Semi, "';'")?;
                file.scalars.push(ScalarDecl { name, init, span });
            } else {
                break;
            }
        }

        if !self.kw("begin") {
            return Err(self.err("expected a declaration or 'begin'"));
        }
        while !self.at_kw("end") {
            let s = self.stmt()?;
            file.body.push(s);
        }
        self.kw("end");
        let _ = self.eat(&Tok::Semi);
        if self.peek() != &Tok::Eof {
            return Err(self.err("trailing tokens after 'end'"));
        }
        Ok(file)
    }

    fn int_literal(&mut self) -> Result<i64, LangError> {
        let neg = self.eat(&Tok::Minus);
        match self.bump() {
            Tok::Int(v) => Ok(if neg { -v } else { v }),
            other => Err(self.err(format!("expected integer, found {other:?}"))),
        }
    }

    fn float_literal(&mut self) -> Result<f64, LangError> {
        let neg = self.eat(&Tok::Minus);
        let v = match self.bump() {
            Tok::Float(v) => v,
            Tok::Int(v) => v as f64,
            other => return Err(self.err(format!("expected number, found {other:?}"))),
        };
        Ok(if neg { -v } else { v })
    }

    /// `[ ... ]` — a region literal.
    fn region_literal(&mut self) -> Result<ARegion, LangError> {
        let span = self.span();
        self.expect(Tok::LBracket, "'['")?;
        let mut ranges = vec![self.range()?];
        while self.eat(&Tok::Comma) {
            ranges.push(self.range()?);
        }
        self.expect(Tok::RBracket, "']'")?;
        Ok(ARegion::Literal(ranges, span))
    }

    /// A named region, or a region literal. Inside statements the form
    /// `[Name]` denotes the *named* region `Name` (a bare identifier in a
    /// one-dimensional literal would be ambiguous, so single identifiers
    /// are resolved as names during lowering).
    fn region_ref(&mut self) -> Result<ARegion, LangError> {
        let span = self.span();
        self.expect(Tok::LBracket, "'['")?;
        // `[Ident]` → named region.
        if let Tok::Ident(name) = self.peek().clone() {
            if self.tokens[self.pos + 1].tok == Tok::RBracket {
                self.bump();
                self.bump();
                return Ok(ARegion::Named(name, span));
            }
        }
        let mut ranges = vec![self.range()?];
        while self.eat(&Tok::Comma) {
            ranges.push(self.range()?);
        }
        self.expect(Tok::RBracket, "']'")?;
        Ok(ARegion::Literal(ranges, span))
    }

    fn range(&mut self) -> Result<ARange, LangError> {
        let lo = self.iexpr()?;
        if self.eat(&Tok::DotDot) {
            let hi = self.iexpr()?;
            Ok(ARange::Range(lo, hi))
        } else {
            Ok(ARange::Single(lo))
        }
    }

    // Integer expressions --------------------------------------------------

    fn iexpr(&mut self) -> Result<IExpr, LangError> {
        let mut e = self.iterm()?;
        loop {
            let span = self.span();
            if self.eat(&Tok::Plus) {
                e = IExpr::Bin('+', Box::new(e), Box::new(self.iterm()?), span);
            } else if self.eat(&Tok::Minus) {
                e = IExpr::Bin('-', Box::new(e), Box::new(self.iterm()?), span);
            } else {
                return Ok(e);
            }
        }
    }

    fn iterm(&mut self) -> Result<IExpr, LangError> {
        let mut e = self.ifact()?;
        loop {
            let span = self.span();
            if self.eat(&Tok::Star) {
                e = IExpr::Bin('*', Box::new(e), Box::new(self.ifact()?), span);
            } else if self.eat(&Tok::Slash) {
                e = IExpr::Bin('/', Box::new(e), Box::new(self.ifact()?), span);
            } else {
                return Ok(e);
            }
        }
    }

    fn ifact(&mut self) -> Result<IExpr, LangError> {
        let span = self.span();
        match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                Ok(IExpr::Int(v))
            }
            Tok::Ident(name) => {
                self.bump();
                Ok(IExpr::Name(name, span))
            }
            Tok::Minus => {
                self.bump();
                Ok(IExpr::Neg(Box::new(self.ifact()?), span))
            }
            Tok::LParen => {
                self.bump();
                let e = self.iexpr()?;
                self.expect(Tok::RParen, "')'")?;
                Ok(e)
            }
            other => Err(self.err(format!("expected integer expression, found {other:?}"))),
        }
    }

    // Statements ------------------------------------------------------------

    fn stmt(&mut self) -> Result<AStmt, LangError> {
        let span = self.span();
        if self.kw("repeat") {
            let count = self.iexpr()?;
            let body = self.block()?;
            return Ok(AStmt::Repeat { count, body, span });
        }
        if self.kw("for") {
            let var = self.ident("loop variable")?;
            self.expect(Tok::Assign, "':='")?;
            let lo = self.iexpr()?;
            self.expect(Tok::DotDot, "'..'")?;
            let hi = self.iexpr()?;
            let mut down = false;
            if self.kw("by") {
                let step = self.int_literal()?;
                match step {
                    1 => {}
                    -1 => down = true,
                    other => return Err(self.err(format!("step must be ±1, got {other}"))),
                }
            }
            let body = self.block()?;
            return Ok(AStmt::For {
                var,
                lo,
                hi,
                down,
                body,
                span,
            });
        }
        if self.peek() == &Tok::LBracket {
            let region = self.region_ref()?;
            let lhs = self.ident("array name")?;
            self.expect(Tok::Assign, "':='")?;
            let rhs = self.aexpr()?;
            self.expect(Tok::Semi, "';'")?;
            return Ok(AStmt::ArrayAssign {
                region,
                lhs,
                rhs,
                span,
            });
        }
        // Scalar assignment, possibly a reduction.
        let lhs = self.ident("statement")?;
        self.expect(Tok::Assign, "':='")?;
        // Reductions: `max<<`, `min<<`, `+<<`.
        let red_op = if self.at_kw("max") && self.tokens[self.pos + 1].tok == Tok::Reduce {
            self.bump();
            Some("max")
        } else if self.at_kw("min") && self.tokens[self.pos + 1].tok == Tok::Reduce {
            self.bump();
            Some("min")
        } else if self.peek() == &Tok::Plus && self.tokens[self.pos + 1].tok == Tok::Reduce {
            self.bump();
            Some("+")
        } else {
            None
        };
        let rhs = if let Some(op) = red_op {
            self.expect(Tok::Reduce, "'<<'")?;
            let region = self.region_ref()?;
            let expr = self.aexpr()?;
            AScalarRhs::Reduce {
                op: op.to_string(),
                region,
                expr,
            }
        } else {
            AScalarRhs::Expr(self.aexpr()?)
        };
        self.expect(Tok::Semi, "';'")?;
        Ok(AStmt::ScalarAssign { lhs, rhs, span })
    }

    fn block(&mut self) -> Result<Vec<AStmt>, LangError> {
        self.expect(Tok::LBrace, "'{'")?;
        let mut out = Vec::new();
        while self.peek() != &Tok::RBrace {
            if self.peek() == &Tok::Eof {
                return Err(self.err("unterminated block"));
            }
            out.push(self.stmt()?);
        }
        self.bump();
        Ok(out)
    }

    // Array expressions -----------------------------------------------------

    fn aexpr(&mut self) -> Result<AExpr, LangError> {
        let mut e = self.aterm()?;
        loop {
            if self.eat(&Tok::Plus) {
                e = AExpr::Bin('+', Box::new(e), Box::new(self.aterm()?));
            } else if self.eat(&Tok::Minus) {
                e = AExpr::Bin('-', Box::new(e), Box::new(self.aterm()?));
            } else {
                return Ok(e);
            }
        }
    }

    fn aterm(&mut self) -> Result<AExpr, LangError> {
        let mut e = self.afact()?;
        loop {
            if self.eat(&Tok::Star) {
                e = AExpr::Bin('*', Box::new(e), Box::new(self.afact()?));
            } else if self.eat(&Tok::Slash) {
                e = AExpr::Bin('/', Box::new(e), Box::new(self.afact()?));
            } else {
                return Ok(e);
            }
        }
    }

    fn afact(&mut self) -> Result<AExpr, LangError> {
        let span = self.span();
        match self.peek().clone() {
            Tok::Float(v) => {
                self.bump();
                Ok(AExpr::Num(v))
            }
            Tok::Int(v) => {
                self.bump();
                Ok(AExpr::Num(v as f64))
            }
            Tok::Minus => {
                self.bump();
                Ok(AExpr::Neg(Box::new(self.afact()?)))
            }
            Tok::LParen => {
                self.bump();
                let e = self.aexpr()?;
                self.expect(Tok::RParen, "')'")?;
                Ok(e)
            }
            Tok::Ident(name) => {
                self.bump();
                if self.eat(&Tok::At) {
                    let dir = self.ident("direction name")?;
                    Ok(AExpr::Shift(name, dir, span))
                } else if self.peek() == &Tok::LParen {
                    self.bump();
                    let mut args = vec![self.aexpr()?];
                    while self.eat(&Tok::Comma) {
                        args.push(self.aexpr()?);
                    }
                    self.expect(Tok::RParen, "')'")?;
                    Ok(AExpr::Call(name, args, span))
                } else {
                    Ok(AExpr::Name(name, span))
                }
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: &str = r#"
program demo;
config n = 8;
region R = [1..n, 1..n];
direction east = [0, 1];
var A, B : [R] double;
scalar err = 0.0;
begin
  [R] A := Index1 + 0.5;
  repeat 3 {
    [2..n-1, 2..n-1] B := A@east * 2.0;
    err := max<< [R] abs(B);
  }
  for i := 2 .. n-1 by -1 {
    [i, 1..n] A := B@east - 1.0;
  }
end
"#;

    #[test]
    fn parses_full_program() {
        let f = parse(SMALL).unwrap();
        assert_eq!(f.name, "demo");
        assert_eq!(f.configs.len(), 1);
        assert_eq!(f.regions.len(), 1);
        assert_eq!(f.directions.len(), 1);
        assert_eq!(f.vars[0].names, vec!["A", "B"]);
        assert_eq!(f.scalars[0].name, "err");
        assert_eq!(f.body.len(), 3);
        match &f.body[1] {
            AStmt::Repeat { body, .. } => assert_eq!(body.len(), 2),
            other => panic!("expected repeat, got {other:?}"),
        }
        match &f.body[2] {
            AStmt::For { down, .. } => assert!(down),
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn named_vs_literal_region_prefix() {
        let f = parse(SMALL).unwrap();
        match &f.body[0] {
            AStmt::ArrayAssign {
                region: ARegion::Named(n, _),
                ..
            } => assert_eq!(n, "R"),
            other => panic!("{other:?}"),
        }
        match &f.body[1] {
            AStmt::Repeat { body, .. } => match &body[0] {
                AStmt::ArrayAssign {
                    region: ARegion::Literal(rs, _),
                    ..
                } => {
                    assert_eq!(rs.len(), 2)
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn reduction_forms() {
        for (src_op, ast_op) in [("max", "max"), ("min", "min"), ("+", "+")] {
            let src = format!(
                "program p; region R = [1..4,1..4]; var A : [R];\nscalar s = 0.0;\nbegin s := {src_op}<< [R] A; end"
            );
            let f = parse(&src).unwrap();
            match &f.body[0] {
                AStmt::ScalarAssign {
                    rhs: AScalarRhs::Reduce { op, .. },
                    ..
                } => {
                    assert_eq!(op, ast_op)
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn precedence_builds_expected_tree() {
        let src =
            "program p; region R = [1..4,1..4]; var A : [R];\nbegin [R] A := 1.0 + 2.0 * 3.0; end";
        let f = parse(src).unwrap();
        match &f.body[0] {
            AStmt::ArrayAssign {
                rhs: AExpr::Bin('+', _, r),
                ..
            } => {
                assert!(matches!(**r, AExpr::Bin('*', _, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn error_reporting_has_location() {
        let err = parse("program p begin end").unwrap_err();
        assert!(err.to_string().contains("';'"));
        let err = parse("program p;\nbegin\n  [R A := 1.0;\nend").unwrap_err();
        assert_eq!(err.span.line, 3);
    }

    #[test]
    fn rejects_bad_step() {
        let src = "program p; var A : [1..4,1..4];\nbegin for i := 1 .. 4 by 2 { } end";
        assert!(parse(src).unwrap_err().to_string().contains("step"));
    }

    #[test]
    fn min_max_calls_parse_as_calls() {
        let src =
            "program p; region R = [1..4,1..4]; var A, B : [R];\nbegin [R] A := max(A, B) + min(A, 2.0); end";
        let f = parse(src).unwrap();
        match &f.body[0] {
            AStmt::ArrayAssign {
                rhs: AExpr::Bin('+', l, _),
                ..
            } => {
                assert!(matches!(&**l, AExpr::Call(n, args, _) if n == "max" && args.len() == 2));
            }
            other => panic!("{other:?}"),
        }
    }
}
