//! ZPL-flavoured pretty printing of programs, statements and expressions.
//!
//! The printer is intended for debugging optimizer output: communication
//! calls print as `DR(t3: X@east, Y@east);` so a dump of an optimized
//! program reads like the paper's Figure 1.

use crate::expr::{Expr, ScalarRhs};
use crate::offset::Offset;
use crate::program::Program;
use crate::region::{AffineBound, Region};
use crate::stmt::{Block, Stmt};
use std::fmt::Write as _;

/// Renders a *source* program (no communication statements) as parseable
/// mini-ZPL text: the inverse of `commopt-lang`. Distinct offsets become
/// `direction` declarations (compass-named where possible).
///
/// Round-trip guarantee (tested in `commopt-lang`): compiling the output
/// yields a program with identical optimizer behaviour.
pub fn to_source(p: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "program {};", p.name);
    // Collect distinct non-zero offsets in first-use order.
    let mut offsets: Vec<Offset> = Vec::new();
    crate::visit::walk_stmts(&p.body, &mut |s| {
        let scan = |e: &Expr, offsets: &mut Vec<Offset>| {
            e.walk(&mut |n| {
                if let Expr::Ref { offset, .. } = n {
                    if !offset.is_zero() && !offsets.contains(offset) {
                        offsets.push(*offset);
                    }
                }
            })
        };
        match s {
            Stmt::Assign { rhs, .. } => scan(rhs, &mut offsets),
            Stmt::ScalarAssign {
                rhs: ScalarRhs::Reduce { expr, .. },
                ..
            } => scan(expr, &mut offsets),
            Stmt::ScalarAssign {
                rhs: ScalarRhs::Expr(e),
                ..
            } => scan(e, &mut offsets),
            _ => {}
        }
    });
    let dir_name = |o: &Offset| -> String {
        o.compass_name()
            .map(|n| n.to_string())
            .unwrap_or_else(|| format!("d{}_{}_{}", comp(o.get(0)), comp(o.get(1)), comp(o.get(2))))
    };
    for o in &offsets {
        let rank = p.max_rank();
        let comps: Vec<String> = (0..rank).map(|d| o.get(d).to_string()).collect();
        let _ = writeln!(out, "direction {} = [{}];", dir_name(o), comps.join(", "));
    }
    for a in &p.arrays {
        let dims: Vec<String> = (0..a.rect.rank)
            .map(|d| format!("{}..{}", a.rect.lo[d], a.rect.hi[d]))
            .collect();
        let _ = writeln!(out, "var {} : [{}] double;", a.name, dims.join(", "));
    }
    for s in &p.scalars {
        let _ = writeln!(out, "scalar {} = {};", s.name, float(s.init));
    }
    let _ = writeln!(out, "begin");
    write_source_block(&mut out, p, &p.body, &dir_name, 1);
    let _ = writeln!(out, "end");
    out
}

fn comp(c: i32) -> String {
    if c < 0 {
        format!("m{}", -c)
    } else {
        format!("p{c}")
    }
}

fn float(v: f64) -> String {
    // Emit a decimal point so the token is unambiguous, and keep full
    // precision.
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

fn write_source_block(
    out: &mut String,
    p: &Program,
    block: &Block,
    dir_name: &dyn Fn(&Offset) -> String,
    depth: usize,
) {
    for stmt in block.iter() {
        indent(out, depth);
        match stmt {
            Stmt::Assign { region, lhs, rhs } => {
                let _ = writeln!(
                    out,
                    "{} {} := {};",
                    region_str(p, region),
                    p.array(*lhs).name,
                    source_expr(p, rhs, dir_name)
                );
            }
            Stmt::ScalarAssign { lhs, rhs } => {
                let rhs = match rhs {
                    ScalarRhs::Expr(e) => source_expr(p, e, dir_name),
                    ScalarRhs::Reduce { op, region, expr } => format!(
                        "{} {} {}",
                        op.symbol(),
                        region_str(p, region),
                        source_expr(p, expr, dir_name)
                    ),
                };
                let _ = writeln!(out, "{} := {};", p.scalar(*lhs).name, rhs);
            }
            Stmt::Repeat { count, body } => {
                let _ = writeln!(out, "repeat {count} {{");
                write_source_block(out, p, body, dir_name, depth + 1);
                indent(out, depth);
                out.push_str("}\n");
            }
            Stmt::For {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let by = if *step == 1 {
                    String::new()
                } else {
                    " by -1".to_string()
                };
                let _ = writeln!(
                    out,
                    "for {} := {} .. {}{by} {{",
                    p.loop_var(*var).name,
                    bound_str(p, lo),
                    bound_str(p, hi),
                );
                write_source_block(out, p, body, dir_name, depth + 1);
                indent(out, depth);
                out.push_str("}\n");
            }
            Stmt::Comm { .. } => {
                panic!("to_source expects a source program without Comm statements")
            }
        }
    }
}

fn source_expr(p: &Program, e: &Expr, dir_name: &dyn Fn(&Offset) -> String) -> String {
    match e {
        Expr::Const(c) => float(*c),
        Expr::Ref { array, offset } if !offset.is_zero() => {
            format!("{}@{}", p.array(*array).name, dir_name(offset))
        }
        Expr::Unary { op, a } => match op {
            crate::expr::UnaryOp::Neg => format!("(0.0 - {})", source_expr(p, a, dir_name)),
            _ => format!("{}({})", op.name(), source_expr(p, a, dir_name)),
        },
        Expr::Binary { op, a, b } => match op {
            crate::expr::BinOp::Min | crate::expr::BinOp::Max => format!(
                "{}({}, {})",
                op.symbol(),
                source_expr(p, a, dir_name),
                source_expr(p, b, dir_name)
            ),
            _ => format!(
                "({} {} {})",
                source_expr(p, a, dir_name),
                op.symbol(),
                source_expr(p, b, dir_name)
            ),
        },
        other => expr_str(p, other),
    }
}

/// Renders a whole program.
pub fn program_to_string(p: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "program {};", p.name);
    for a in &p.arrays {
        let _ = writeln!(out, "var {} : {:?} double;", a.name, a.rect);
    }
    for s in &p.scalars {
        let _ = writeln!(out, "var {} : double := {};", s.name, s.init);
    }
    let _ = writeln!(out, "begin");
    write_block(&mut out, p, &p.body, 1);
    let _ = writeln!(out, "end;");
    out
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_block(out: &mut String, p: &Program, block: &Block, depth: usize) {
    for stmt in block.iter() {
        write_stmt(out, p, stmt, depth);
    }
}

fn write_stmt(out: &mut String, p: &Program, stmt: &Stmt, depth: usize) {
    indent(out, depth);
    match stmt {
        Stmt::Assign { region, lhs, rhs } => {
            let _ = writeln!(
                out,
                "{} {} := {};",
                region_str(p, region),
                p.array(*lhs).name,
                expr_str(p, rhs)
            );
        }
        Stmt::ScalarAssign { lhs, rhs } => {
            let rhs = match rhs {
                ScalarRhs::Expr(e) => expr_str(p, e),
                ScalarRhs::Reduce { op, region, expr } => {
                    format!(
                        "{} {} {}",
                        op.symbol(),
                        region_str(p, region),
                        expr_str(p, expr)
                    )
                }
            };
            let _ = writeln!(out, "{} := {};", p.scalar(*lhs).name, rhs);
        }
        Stmt::Repeat { count, body } => {
            let _ = writeln!(out, "repeat {count} {{");
            write_block(out, p, body, depth + 1);
            indent(out, depth);
            out.push_str("}\n");
        }
        Stmt::For {
            var,
            lo,
            hi,
            step,
            body,
        } => {
            let by = if *step == 1 {
                String::new()
            } else {
                format!(" by {step}")
            };
            let _ = writeln!(
                out,
                "for {} := {} .. {}{by} {{",
                p.loop_var(*var).name,
                bound_str(p, lo),
                bound_str(p, hi),
            );
            write_block(out, p, body, depth + 1);
            indent(out, depth);
            out.push_str("}\n");
        }
        Stmt::Comm { kind, transfer } => {
            let t = p.transfer(*transfer);
            let items: Vec<String> = t
                .items
                .iter()
                .map(|it| format!("{}{}", p.array(it.array).name, it.offset))
                .collect();
            let _ = writeln!(
                out,
                "{}(t{}: {});",
                kind.name(),
                transfer.0,
                items.join(", ")
            );
        }
    }
}

fn bound_str(p: &Program, b: &AffineBound) -> String {
    match b.var {
        None => b.c.to_string(),
        Some(v) => {
            let name = &p.loop_var(v).name;
            match b.c {
                0 => name.clone(),
                c if c > 0 => format!("{name}+{c}"),
                c => format!("{name}{c}"),
            }
        }
    }
}

fn region_str(p: &Program, r: &Region) -> String {
    let mut s = String::from("[");
    for d in 0..r.rank {
        if d > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "{}..{}",
            bound_str(p, &r.dims[d].lo),
            bound_str(p, &r.dims[d].hi)
        );
    }
    s.push(']');
    s
}

/// Renders an expression in ZPL surface syntax.
pub fn expr_str(p: &Program, e: &Expr) -> String {
    match e {
        Expr::Const(c) => format!("{c}"),
        Expr::Scalar(s) => p.scalar(*s).name.clone(),
        Expr::LoopVar(v) => p.loop_var(*v).name.clone(),
        Expr::Index(d) => format!("Index{}", d + 1),
        Expr::Ref { array, offset } => {
            if offset.is_zero() {
                p.array(*array).name.clone()
            } else {
                format!("{}{}", p.array(*array).name, offset)
            }
        }
        Expr::Unary { op, a } => match op {
            crate::expr::UnaryOp::Neg => format!("(-{})", expr_str(p, a)),
            _ => format!("{}({})", op.name(), expr_str(p, a)),
        },
        Expr::Binary { op, a, b } => match op {
            crate::expr::BinOp::Min | crate::expr::BinOp::Max => {
                format!("{}({}, {})", op.symbol(), expr_str(p, a), expr_str(p, b))
            }
            _ => format!("({} {} {})", expr_str(p, a), op.symbol(), expr_str(p, b)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::comm::TransferItem;
    use crate::expr::ReduceOp;
    use crate::offset::compass;
    use crate::region::Rect;

    #[test]
    fn prints_program_shape() {
        let mut b = ProgramBuilder::new("demo");
        let bounds = Rect::d2((1, 4), (1, 4));
        let r = Region::from_rect(bounds);
        let a = b.array("A", bounds);
        let x = b.array("B", bounds);
        let e = b.scalar("err", 0.0);
        b.assign(r, a, Expr::at(x, compass::EAST) - Expr::local(x));
        b.reduce(
            e,
            ReduceOp::Max,
            r,
            Expr::un(crate::expr::UnaryOp::Abs, Expr::local(a)),
        );
        b.repeat(2, |b| {
            b.assign(r, a, Expr::Const(0.5) * Expr::local(a));
        });
        let p = b.finish();
        let s = program_to_string(&p);
        assert!(s.contains("program demo;"));
        assert!(s.contains("[1..4, 1..4] A := (B@east - B);"));
        assert!(s.contains("err := max<< [1..4, 1..4] abs(A);"));
        assert!(s.contains("repeat 2 {"));
    }

    #[test]
    fn prints_comm_calls() {
        let mut p = Program::new("c");
        let x = p.add_array("X", Rect::d2((1, 4), (1, 4)));
        let y = p.add_array("Y", Rect::d2((1, 4), (1, 4)));
        let t = p.add_transfer(vec![
            TransferItem::new(x, compass::EAST, Region::d2((1, 4), (1, 4))),
            TransferItem::new(y, compass::EAST, Region::d2((1, 4), (1, 4))),
        ]);
        p.body = Block::new(vec![Stmt::comm(crate::comm::CallKind::SR, t)]);
        let s = program_to_string(&p);
        assert!(s.contains("SR(t0: X@east, Y@east);"), "got: {s}");
    }

    #[test]
    fn prints_affine_for_loop() {
        let mut b = ProgramBuilder::new("f");
        let bounds = Rect::d2((1, 8), (1, 8));
        let a = b.array("A", bounds);
        b.for_up("i", 2, 7, |b, i| {
            b.assign(Region::row2(i, (1, 8)), a, Expr::LoopVar(i));
        });
        let s = program_to_string(&b.finish());
        assert!(s.contains("for i := 2 .. 7 {"), "got: {s}");
        assert!(s.contains("[i..i, 1..8] A := i;"), "got: {s}");
    }
}
