//! Lowering the surface syntax to the IR, with name resolution, config
//! substitution and affine-bound checking.

use crate::ast::*;
use crate::error::{LangError, Span};
use crate::parser::parse;
use commopt_ir::{
    AffineBound, ArrayId, BinOp, DimRange, Expr, LoopVarId, Offset, Program, ReduceOp, Region,
    ScalarId, Stmt, UnaryOp, MAX_RANK,
};
use std::collections::HashMap;

/// The compiler driver: parse + lower, with optional `config` overrides.
///
/// ```
/// let src = "program p;\nconfig n = 8;\nregion R = [1..n, 1..n];\nvar A : [R];\nbegin [R] A := 1.0; end";
/// let prog = commopt_lang::Frontend::new(src).with_config("n", 4).compile().unwrap();
/// assert_eq!(prog.arrays[0].rect, commopt_ir::Rect::d2((1, 4), (1, 4)));
/// ```
pub struct Frontend<'s> {
    source: &'s str,
    overrides: HashMap<String, i64>,
}

impl<'s> Frontend<'s> {
    pub fn new(source: &'s str) -> Frontend<'s> {
        Frontend {
            source,
            overrides: HashMap::new(),
        }
    }

    /// Overrides a `config` constant (e.g. problem size or trip count).
    pub fn with_config(mut self, name: &str, value: i64) -> Self {
        self.overrides.insert(name.to_string(), value);
        self
    }

    /// Parses, lowers and validates the program.
    pub fn compile(self) -> Result<Program, LangError> {
        let file = parse(self.source)?;
        let mut lw = Lowerer::new(&file, self.overrides)?;
        lw.lower(&file)
    }
}

/// An evaluated integer expression: `var + c` or a constant.
#[derive(Clone, Copy, PartialEq, Debug)]
struct IVal {
    var: Option<LoopVarId>,
    c: i64,
}

impl IVal {
    fn constant(&self, span: Span, what: &str) -> Result<i64, LangError> {
        match self.var {
            None => Ok(self.c),
            Some(_) => Err(LangError::new(span, format!("{what} must be constant"))),
        }
    }

    fn bound(&self) -> AffineBound {
        AffineBound {
            var: self.var,
            c: self.c,
        }
    }
}

struct Lowerer {
    configs: HashMap<String, i64>,
    regions: HashMap<String, Region>,
    directions: HashMap<String, Offset>,
    arrays: HashMap<String, ArrayId>,
    scalars: HashMap<String, ScalarId>,
    /// Lexically scoped loop variables (name, id) — a stack.
    loop_scope: Vec<(String, LoopVarId)>,
    program: Program,
}

impl Lowerer {
    fn new(file: &SourceFile, overrides: HashMap<String, i64>) -> Result<Lowerer, LangError> {
        let mut configs = HashMap::new();
        for c in &file.configs {
            let v = overrides.get(&c.name).copied().unwrap_or(c.value);
            if configs.insert(c.name.clone(), v).is_some() {
                return Err(LangError::new(
                    c.span,
                    format!("duplicate config {}", c.name),
                ));
            }
        }
        for name in overrides.keys() {
            if !configs.contains_key(name) {
                return Err(LangError::new(
                    Span::default(),
                    format!("override for unknown config {name}"),
                ));
            }
        }
        Ok(Lowerer {
            configs,
            regions: HashMap::new(),
            directions: HashMap::new(),
            arrays: HashMap::new(),
            scalars: HashMap::new(),
            loop_scope: Vec::new(),
            program: Program::new(file.name.clone()),
        })
    }

    fn lower(&mut self, file: &SourceFile) -> Result<Program, LangError> {
        for r in &file.regions {
            let region = self.lower_region(&r.region)?;
            if !region.is_constant() {
                return Err(LangError::new(r.span, "top-level regions must be constant"));
            }
            if self.regions.insert(r.name.clone(), region).is_some() {
                return Err(LangError::new(
                    r.span,
                    format!("duplicate region {}", r.name),
                ));
            }
        }
        for d in &file.directions {
            if d.components.len() > MAX_RANK {
                return Err(LangError::new(
                    d.span,
                    "directions support at most 3 dimensions",
                ));
            }
            let mut o = [0i32; MAX_RANK];
            for (i, &c) in d.components.iter().enumerate() {
                o[i] = i32::try_from(c)
                    .map_err(|_| LangError::new(d.span, "direction component out of range"))?;
            }
            if self
                .directions
                .insert(d.name.clone(), Offset::new(o))
                .is_some()
            {
                return Err(LangError::new(
                    d.span,
                    format!("duplicate direction {}", d.name),
                ));
            }
        }
        for v in &file.vars {
            let region = self.lower_region(&v.bounds)?;
            if !region.is_constant() {
                return Err(LangError::new(v.span, "array bounds must be constant"));
            }
            let rect = region.eval(&commopt_ir::LoopEnv::new());
            for name in &v.names {
                if self.arrays.contains_key(name) {
                    return Err(LangError::new(v.span, format!("duplicate array {name}")));
                }
                let id = self.program.add_array(name.clone(), rect);
                self.arrays.insert(name.clone(), id);
            }
        }
        for s in &file.scalars {
            if self.scalars.contains_key(&s.name) {
                return Err(LangError::new(
                    s.span,
                    format!("duplicate scalar {}", s.name),
                ));
            }
            let id = self.program.add_scalar(s.name.clone(), s.init);
            self.scalars.insert(s.name.clone(), id);
        }

        let body = self.lower_block(&file.body)?;
        self.program.body = body;

        commopt_ir::validate(&self.program).map_err(|errs| {
            // Point at the statement of the first access that fails.
            let span = errs.iter().find_map(|e| match e {
                commopt_ir::ValidateError::OutOfBounds { at, .. } => {
                    stmt_span(&file.body, at.path())
                }
                _ => None,
            });
            LangError::new(
                span.unwrap_or_default(),
                format!(
                    "lowered program failed validation: {}",
                    errs.iter()
                        .map(|e| e.to_string())
                        .collect::<Vec<_>>()
                        .join("; ")
                ),
            )
        })?;
        Ok(std::mem::replace(&mut self.program, Program::new("")))
    }

    fn lower_block(&mut self, stmts: &[AStmt]) -> Result<commopt_ir::Block, LangError> {
        let mut out = Vec::new();
        for s in stmts {
            out.push(self.lower_stmt(s)?);
        }
        Ok(commopt_ir::Block::new(out))
    }

    fn lower_stmt(&mut self, stmt: &AStmt) -> Result<Stmt, LangError> {
        match stmt {
            AStmt::ArrayAssign {
                region,
                lhs,
                rhs,
                span,
            } => {
                let region = self.lower_region(region)?;
                let lhs = *self
                    .arrays
                    .get(lhs)
                    .ok_or_else(|| LangError::new(*span, format!("unknown array {lhs}")))?;
                let rhs = self.lower_expr(rhs)?;
                Ok(Stmt::Assign { region, lhs, rhs })
            }
            AStmt::ScalarAssign { lhs, rhs, span } => {
                let lhs = *self
                    .scalars
                    .get(lhs)
                    .ok_or_else(|| LangError::new(*span, format!("unknown scalar {lhs}")))?;
                let rhs = match rhs {
                    AScalarRhs::Expr(e) => commopt_ir::ScalarRhs::Expr(self.lower_expr(e)?),
                    AScalarRhs::Reduce { op, region, expr } => {
                        let op = match op.as_str() {
                            "max" => ReduceOp::Max,
                            "min" => ReduceOp::Min,
                            "+" => ReduceOp::Sum,
                            other => {
                                return Err(LangError::new(
                                    *span,
                                    format!("unknown reduction {other}"),
                                ))
                            }
                        };
                        commopt_ir::ScalarRhs::Reduce {
                            op,
                            region: self.lower_region(region)?,
                            expr: self.lower_expr(expr)?,
                        }
                    }
                };
                Ok(Stmt::ScalarAssign { lhs, rhs })
            }
            AStmt::Repeat { count, body, span } => {
                let count = self.ieval(count)?.constant(*span, "repeat count")?;
                if count <= 0 {
                    return Err(LangError::new(*span, "repeat count must be positive"));
                }
                let body = self.lower_block(body)?;
                Ok(Stmt::Repeat {
                    count: count as u64,
                    body,
                })
            }
            AStmt::For {
                var,
                lo,
                hi,
                down,
                body,
                span,
            } => {
                let lo = self.ieval(lo)?.bound();
                let hi = self.ieval(hi)?.bound();
                if self.loop_scope.iter().any(|(n, _)| n == var) {
                    return Err(LangError::new(
                        *span,
                        format!("loop variable {var} shadowed"),
                    ));
                }
                let id = self.program.add_loop_var(var.clone());
                self.loop_scope.push((var.clone(), id));
                let body = self.lower_block(body)?;
                self.loop_scope.pop();
                Ok(Stmt::For {
                    var: id,
                    lo,
                    hi,
                    step: if *down { -1 } else { 1 },
                    body,
                })
            }
        }
    }

    fn lower_region(&mut self, region: &ARegion) -> Result<Region, LangError> {
        match region {
            ARegion::Named(name, span) => self
                .regions
                .get(name)
                .copied()
                .ok_or_else(|| LangError::new(*span, format!("unknown region {name}"))),
            ARegion::Literal(ranges, span) => {
                if ranges.len() > MAX_RANK {
                    return Err(LangError::new(
                        *span,
                        "regions support at most 3 dimensions",
                    ));
                }
                let mut dims = [DimRange::new(0, 0); MAX_RANK];
                for (d, r) in ranges.iter().enumerate() {
                    dims[d] = match r {
                        ARange::Single(e) => {
                            let v = self.ieval(e)?;
                            DimRange {
                                lo: v.bound(),
                                hi: v.bound(),
                            }
                        }
                        ARange::Range(lo, hi) => DimRange {
                            lo: self.ieval(lo)?.bound(),
                            hi: self.ieval(hi)?.bound(),
                        },
                    };
                }
                Ok(Region::new(ranges.len(), dims))
            }
        }
    }

    /// Evaluates an integer expression to `var + c` form. Errors name the
    /// offending operator's position; arithmetic that leaves `i64` is one.
    fn ieval(&self, e: &IExpr) -> Result<IVal, LangError> {
        match e {
            IExpr::Int(v) => Ok(IVal { var: None, c: *v }),
            IExpr::Name(name, span) => {
                if let Some((_, id)) = self.loop_scope.iter().rev().find(|(n, _)| n == name) {
                    return Ok(IVal {
                        var: Some(*id),
                        c: 0,
                    });
                }
                if let Some(v) = self.configs.get(name) {
                    return Ok(IVal { var: None, c: *v });
                }
                Err(LangError::new(
                    *span,
                    format!("unknown integer name {name}"),
                ))
            }
            IExpr::Neg(a, span) => {
                let a = self.ieval(a)?;
                if a.var.is_some() {
                    return Err(LangError::new(
                        *span,
                        "cannot negate a loop variable in a bound",
                    ));
                }
                let c =
                    a.c.checked_neg()
                        .ok_or_else(|| LangError::new(*span, "integer overflow"))?;
                Ok(IVal { var: None, c })
            }
            IExpr::Bin(op, a, b, span) => {
                let span = *span;
                let a = self.ieval(a)?;
                let b = self.ieval(b)?;
                let (var, c) = match op {
                    '+' => match (a.var, b.var) {
                        (v, None) | (None, v) => (v, a.c.checked_add(b.c)),
                        _ => {
                            return Err(LangError::new(
                                span,
                                "bounds may reference at most one loop variable",
                            ))
                        }
                    },
                    '-' => {
                        if b.var.is_some() {
                            return Err(LangError::new(
                                span,
                                "cannot subtract a loop variable in a bound",
                            ));
                        }
                        (a.var, a.c.checked_sub(b.c))
                    }
                    '*' | '/' => {
                        if a.var.is_some() || b.var.is_some() {
                            return Err(LangError::new(
                                span,
                                "bounds must be affine in loop variables",
                            ));
                        }
                        if *op == '*' {
                            (None, a.c.checked_mul(b.c))
                        } else if b.c == 0 {
                            return Err(LangError::new(span, "division by zero"));
                        } else {
                            (None, a.c.checked_div(b.c))
                        }
                    }
                    other => {
                        return Err(LangError::new(
                            span,
                            format!("unknown integer operator {other}"),
                        ))
                    }
                };
                Ok(IVal {
                    var,
                    c: c.ok_or_else(|| LangError::new(span, "integer overflow"))?,
                })
            }
        }
    }

    fn lower_expr(&self, e: &AExpr) -> Result<Expr, LangError> {
        match e {
            AExpr::Num(v) => Ok(Expr::Const(*v)),
            AExpr::Name(name, span) => self.resolve_name(name, *span),
            AExpr::Shift(array, dir, span) => {
                let a = *self
                    .arrays
                    .get(array)
                    .ok_or_else(|| LangError::new(*span, format!("unknown array {array}")))?;
                let o = *self
                    .directions
                    .get(dir)
                    .ok_or_else(|| LangError::new(*span, format!("unknown direction {dir}")))?;
                Ok(Expr::at(a, o))
            }
            AExpr::Neg(a) => Ok(-self.lower_expr(a)?),
            AExpr::Call(name, args, span) => {
                let unary = |op: UnaryOp, args: &[AExpr]| -> Result<Expr, LangError> {
                    if args.len() != 1 {
                        return Err(LangError::new(*span, format!("{name} takes one argument")));
                    }
                    Ok(Expr::un(op, self.lower_expr(&args[0])?))
                };
                match name.as_str() {
                    "abs" => unary(UnaryOp::Abs, args),
                    "sqrt" => unary(UnaryOp::Sqrt, args),
                    "exp" => unary(UnaryOp::Exp, args),
                    "ln" => unary(UnaryOp::Ln, args),
                    "min" | "max" => {
                        if args.len() != 2 {
                            return Err(LangError::new(
                                *span,
                                format!("{name} takes two arguments"),
                            ));
                        }
                        let op = if name == "min" {
                            BinOp::Min
                        } else {
                            BinOp::Max
                        };
                        Ok(Expr::bin(
                            op,
                            self.lower_expr(&args[0])?,
                            self.lower_expr(&args[1])?,
                        ))
                    }
                    other => Err(LangError::new(*span, format!("unknown function {other}"))),
                }
            }
            AExpr::Bin(op, a, b) => {
                let op = match op {
                    '+' => BinOp::Add,
                    '-' => BinOp::Sub,
                    '*' => BinOp::Mul,
                    '/' => BinOp::Div,
                    other => {
                        return Err(LangError::new(
                            Span::default(),
                            format!("unknown operator {other}"),
                        ))
                    }
                };
                Ok(Expr::bin(op, self.lower_expr(a)?, self.lower_expr(b)?))
            }
        }
    }

    /// Resolution order for bare names: `Index1..3`, loop variables,
    /// scalars, arrays (local reference), then configs (as constants).
    fn resolve_name(&self, name: &str, span: Span) -> Result<Expr, LangError> {
        match name {
            "Index1" => return Ok(Expr::Index(0)),
            "Index2" => return Ok(Expr::Index(1)),
            "Index3" => return Ok(Expr::Index(2)),
            _ => {}
        }
        if let Some((_, id)) = self.loop_scope.iter().rev().find(|(n, _)| n == name) {
            return Ok(Expr::LoopVar(*id));
        }
        if let Some(id) = self.scalars.get(name) {
            return Ok(Expr::Scalar(*id));
        }
        if let Some(id) = self.arrays.get(name) {
            return Ok(Expr::local(*id));
        }
        if let Some(v) = self.configs.get(name) {
            return Ok(Expr::Const(*v as f64));
        }
        Err(LangError::new(span, format!("unknown name {name}")))
    }
}

/// The source position of the statement at `path`, the statement indices
/// from the program body down; lowering maps each statement to one.
fn stmt_span(stmts: &[AStmt], path: &[u32]) -> Option<Span> {
    let (&i, rest) = path.split_first()?;
    match (stmts.get(i as usize)?, rest) {
        (
            AStmt::ArrayAssign { span, .. }
            | AStmt::ScalarAssign { span, .. }
            | AStmt::Repeat { span, .. }
            | AStmt::For { span, .. },
            [],
        ) => Some(*span),
        (AStmt::Repeat { body, .. } | AStmt::For { body, .. }, _) => stmt_span(body, rest),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use commopt_ir::Rect;

    const JACOBI: &str = r#"
program jacobi;
config n = 8;
config iters = 4;
region R        = [1..n, 1..n];
region Interior = [2..n-1, 2..n-1];
direction north = [-1, 0]; direction south = [1, 0];
direction east  = [0, 1];  direction west  = [0, -1];
var A, New : [R] double;
scalar err = 0.0;
begin
  [R] A := Index1 * 10.0 + Index2;
  repeat iters {
    [Interior] New := 0.25 * (A@north + A@south + A@east + A@west);
    [Interior] A := New;
    err := max<< [Interior] abs(New);
  }
end
"#;

    #[test]
    fn compiles_jacobi() {
        let p = compile(JACOBI).unwrap();
        assert_eq!(p.name, "jacobi");
        assert_eq!(p.arrays.len(), 2);
        assert_eq!(p.arrays[0].rect, Rect::d2((1, 8), (1, 8)));
        assert_eq!(p.scalars.len(), 1);
        assert_eq!(p.body.len(), 2);
        match &p.body.0[1] {
            Stmt::Repeat { count: 4, body } => assert_eq!(body.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn config_overrides_apply() {
        let p = Frontend::new(JACOBI)
            .with_config("n", 16)
            .with_config("iters", 2)
            .compile()
            .unwrap();
        assert_eq!(p.arrays[0].rect, Rect::d2((1, 16), (1, 16)));
        match &p.body.0[1] {
            Stmt::Repeat { count, .. } => assert_eq!(*count, 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn override_of_unknown_config_errors() {
        let err = Frontend::new(JACOBI)
            .with_config("m", 1)
            .compile()
            .unwrap_err();
        assert!(err.to_string().contains("unknown config"));
    }

    #[test]
    fn loop_relative_regions_lower_to_affine_bounds() {
        let src = r#"
program sweep;
config n = 8;
direction north = [-1, 0];
var A, X : [1..n, 1..n] double;
begin
  for i := 2 .. n {
    [i, 2..n-1] A := X@north + 1.0;
  }
end
"#;
        let p = compile(src).unwrap();
        match &p.body.0[0] {
            Stmt::For { body, .. } => match &body.0[0] {
                Stmt::Assign { region, .. } => {
                    assert!(!region.is_constant());
                    assert_eq!(region.dims[0].lo.var, region.dims[0].hi.var);
                    assert!(region.dims[0].lo.var.is_some());
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn out_of_bounds_accesses_are_rejected() {
        // A write region past the array's low edge, and a shifted read past
        // its high edge.
        for body in ["[0..n, 1..n] A := 1.0;", "[1..n, 1..n] A := B@east;"] {
            let src = format!(
                "program oob;\nconfig n = 8;\ndirection east = [0, 1];\n\
                 var A, B : [1..n, 1..n] double;\nbegin\n  {body}\nend\n"
            );
            let err = compile(&src).unwrap_err().to_string();
            assert!(
                err.contains("leaves its bounds [1..8, 1..8]"),
                "{body}: {err}"
            );
        }
    }

    #[test]
    fn out_of_bounds_errors_point_at_the_statement() {
        let src = "program oob;\nconfig n = 8;\nvar A : [1..n, 1..n] double;\nbegin\n\
                   [1..n, 1..n] A := 0.0;\n  repeat 2 {\n    [1..n, 1..n] A := 2.0;\n\
                   \x20   [0..n, 1..n] A := 1.0;\n  }\nend\n";
        let err = compile(src).unwrap_err();
        assert_eq!(
            err.to_string(),
            "error at 8:5: lowered program failed validation: \
             access [0..8, 1..8] of array A leaves its bounds [1..8, 1..8]"
        );
    }

    #[test]
    fn semantics_match_hand_built_program() {
        // The parsed jacobi must execute identically to the builder-made
        // one from the sim tests; spot check a value via the sequential
        // interpreter (which lives in commopt-sim; here we only check the
        // IR shape is evaluable by counting statements).
        let p = compile(JACOBI).unwrap();
        assert_eq!(p.stmt_count(), 5);
        assert!(commopt_ir::validate(&p).is_ok());
    }

    #[test]
    fn name_resolution_errors() {
        let base = "program p; region R = [1..4,1..4]; var A : [R];\nbegin ";
        for (frag, what) in [
            ("[R] B := 1.0; end", "unknown array"),
            ("[Q] A := 1.0; end", "unknown region"),
            ("[R] A := A@up; end", "unknown direction"),
            ("[R] A := foo(A); end", "unknown function"),
            ("[R] A := z + 1.0; end", "unknown name"),
            ("s := 1.0; end", "unknown scalar"),
        ] {
            let err = compile(&format!("{base}{frag}")).unwrap_err();
            assert!(err.to_string().contains(what), "{frag}: {err}");
        }
    }

    #[test]
    fn non_affine_bounds_rejected() {
        let src = "program p; config n = 4; var A : [1..n,1..n];\nbegin for i := 1 .. n { [2*i, 1..n] A := 1.0; } end";
        let err = compile(src).unwrap_err();
        assert!(err.to_string().contains("affine"), "{err}");
    }

    #[test]
    fn bound_errors_name_the_offending_operator() {
        // Each fragment sits on line 9 of the program.
        let head = "program p;\nconfig n = 8;\ndirection east = [0, 1];\n\
                    var A, B : [1..n, 1..n] double;\nbegin\n  for i := 1 .. n {\n    \
                    for j := 1 .. n {\n      [i, 1..n] B := A;\n";
        for (line9, what, col) in [
            ("[-i, 2..n-1] B := A@east;", "cannot negate", 8),
            ("[i+j, 2..n-1] B := A;", "at most one loop variable", 9),
            ("[n-i, 2..n-1] B := A;", "cannot subtract", 9),
            ("[2*i, 2..n-1] B := A;", "must be affine", 9),
            ("[n/0, 2..n-1] B := A;", "division by zero", 9),
        ] {
            let src = format!("{head}      {line9}\n    }}\n  }}\nend\n");
            let err = compile(&src).unwrap_err();
            assert!(err.message.contains(what), "{line9}: {err}");
            assert_eq!(err.span, Span { line: 9, col }, "{line9}: {err}");
        }
    }

    #[test]
    fn integer_overflow_in_a_bound_is_an_error() {
        for region in [
            "[1..n*2, 1..4]",
            "[n+1, 1..4]",
            "[-n-2, 1..4]",
            // i64::MIN / -1 and -i64::MIN.
            "[(-n-1)/-1, 1..4]",
            "[-(-n-1), 1..4]",
        ] {
            let src = format!(
                "program p;\nconfig n = 9223372036854775807;\nregion R = {region};\n\
                 var A : [R];\nbegin [R] A := 1.0; end"
            );
            let err = compile(&src).unwrap_err();
            assert_eq!(err.message, "integer overflow", "{region}");
            assert_eq!(err.span.line, 3, "{region}: {err}");
        }
    }

    #[test]
    fn configs_usable_in_float_context() {
        let src =
            "program p; config n = 4; var A : [1..n,1..n];\nbegin [1..n,1..n] A := 1.0 / n; end";
        let p = compile(src).unwrap();
        match &p.body.0[0] {
            Stmt::Assign { rhs, .. } => {
                assert!(format!("{rhs:?}").contains("4.0"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn three_dimensional_programs() {
        let src = r#"
program p3;
config n = 4;
direction up = [0, 0, 1];
var U, V : [1..n, 1..n, 1..n] double;
begin
  [1..n, 1..n, 1..n-1] U := V@up;
end
"#;
        let p = compile(src).unwrap();
        assert_eq!(p.arrays[0].rect.rank, 3);
    }
}
