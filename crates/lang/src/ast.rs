//! The surface-syntax tree produced by the parser.

use crate::error::Span;

/// A whole source file.
#[derive(Clone, PartialEq, Debug)]
pub struct SourceFile {
    pub name: String,
    pub configs: Vec<ConfigDecl>,
    pub regions: Vec<RegionDecl>,
    pub directions: Vec<DirectionDecl>,
    pub vars: Vec<VarDecl>,
    pub scalars: Vec<ScalarDecl>,
    pub body: Vec<AStmt>,
}

/// `config n = 128;` — an integer constant overridable at compile time.
#[derive(Clone, PartialEq, Debug)]
pub struct ConfigDecl {
    pub name: String,
    pub value: i64,
    pub span: Span,
}

/// `region R = [1..n, 1..n];`
#[derive(Clone, PartialEq, Debug)]
pub struct RegionDecl {
    pub name: String,
    pub region: ARegion,
    pub span: Span,
}

/// `direction east = [0, 1];`
#[derive(Clone, PartialEq, Debug)]
pub struct DirectionDecl {
    pub name: String,
    pub components: Vec<i64>,
    pub span: Span,
}

/// `var X, Y : [R] double;`
#[derive(Clone, PartialEq, Debug)]
pub struct VarDecl {
    pub names: Vec<String>,
    pub bounds: ARegion,
    pub span: Span,
}

/// `scalar err = 0.0;`
#[derive(Clone, PartialEq, Debug)]
pub struct ScalarDecl {
    pub name: String,
    pub init: f64,
    pub span: Span,
}

/// A region: a named reference or a literal `[lo..hi, ...]`.
#[derive(Clone, PartialEq, Debug)]
pub enum ARegion {
    Named(String, Span),
    Literal(Vec<ARange>, Span),
}

/// One dimension of a region literal. `Single(e)` abbreviates `e..e`.
#[derive(Clone, PartialEq, Debug)]
pub enum ARange {
    Single(IExpr),
    Range(IExpr, IExpr),
}

/// Integer expressions: configs, loop variables, arithmetic. Each
/// operator carries its own position.
#[derive(Clone, PartialEq, Debug)]
pub enum IExpr {
    Int(i64),
    Name(String, Span),
    Neg(Box<IExpr>, Span),
    Bin(char, Box<IExpr>, Box<IExpr>, Span),
}

/// Statements.
#[derive(Clone, PartialEq, Debug)]
pub enum AStmt {
    /// `[R] A := expr;`
    ArrayAssign {
        region: ARegion,
        lhs: String,
        rhs: AExpr,
        span: Span,
    },
    /// `s := expr;` or `s := max<< [R] expr;`
    ScalarAssign {
        lhs: String,
        rhs: AScalarRhs,
        span: Span,
    },
    /// `repeat n { ... }`
    Repeat {
        count: IExpr,
        body: Vec<AStmt>,
        span: Span,
    },
    /// `for i := lo .. hi [by -1] { ... }`
    For {
        var: String,
        lo: IExpr,
        hi: IExpr,
        down: bool,
        body: Vec<AStmt>,
        span: Span,
    },
}

/// Scalar right-hand sides.
#[derive(Clone, PartialEq, Debug)]
pub enum AScalarRhs {
    Expr(AExpr),
    Reduce {
        op: String,
        region: ARegion,
        expr: AExpr,
    },
}

/// Array-valued expressions.
#[derive(Clone, PartialEq, Debug)]
pub enum AExpr {
    Num(f64),
    /// An identifier: array, scalar, loop variable, or IndexD — resolved
    /// during lowering.
    Name(String, Span),
    /// `A@dir`
    Shift(String, String, Span),
    Neg(Box<AExpr>),
    /// `abs(e)`, `sqrt(e)`, `exp(e)`, `ln(e)`, `min(a,b)`, `max(a,b)`
    Call(String, Vec<AExpr>, Span),
    Bin(char, Box<AExpr>, Box<AExpr>),
}
