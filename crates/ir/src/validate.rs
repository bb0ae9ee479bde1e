//! Structural validation of programs.
//!
//! Every executor and optimizer in this workspace assumes the invariants
//! checked here. Run [`validate`] after building a program by hand or
//! lowering from source; the benchmark programs are validated by tests.

use crate::analysis::Span;
use crate::expr::{Expr, ScalarRhs};
use crate::ids::{ArrayId, LoopVarId, ScalarId};
use crate::offset::Offset;
use crate::program::Program;
use crate::region::{AffineBound, Region};
use crate::stmt::{Block, Stmt};

/// A validation failure, with enough context to locate the offending
/// construct.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ValidateError {
    /// An id indexes past its declaration table.
    UnknownArray(ArrayId),
    UnknownScalar(ScalarId),
    UnknownLoopVar(LoopVarId),
    /// A region's rank does not match the array it governs.
    RankMismatch {
        array: String,
        region_rank: usize,
        array_rank: usize,
    },
    /// An offset has non-zero components beyond the array's rank.
    OffsetRank {
        array: String,
        offset: String,
    },
    /// A region bound references a loop variable not bound at that point.
    UnboundLoopVar {
        var: String,
    },
    /// A `for` step other than +1 / -1.
    BadStep(i64),
    /// A `repeat` with zero iterations (almost certainly a mistake).
    ZeroTripRepeat,
    /// A scalar expression contains an array reference.
    ArrayRefInScalarExpr {
        scalar: String,
    },
    /// An offset exceeds the supported ghost width.
    OffsetTooLarge {
        array: String,
        radius: u32,
        max: u32,
    },
    /// A communication call names a transfer not in the transfer table.
    UnknownTransfer(crate::comm::TransferId),
    /// A statement's region, or its region shifted by a reference's
    /// offset, leaves the bounds of the array it writes or reads.
    OutOfBounds {
        /// The statement making the access.
        at: Span,
        array: String,
        access: String,
        bounds: String,
    },
}

impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidateError::UnknownArray(id) => write!(f, "unknown array {id:?}"),
            ValidateError::UnknownScalar(id) => write!(f, "unknown scalar {id:?}"),
            ValidateError::UnknownLoopVar(id) => write!(f, "unknown loop var {id:?}"),
            ValidateError::RankMismatch {
                array,
                region_rank,
                array_rank,
            } => write!(
                f,
                "region rank {region_rank} does not match rank-{array_rank} array {array}"
            ),
            ValidateError::OffsetRank { array, offset } => {
                write!(f, "offset {offset} exceeds rank of array {array}")
            }
            ValidateError::UnboundLoopVar { var } => {
                write!(f, "loop variable {var} used outside its loop")
            }
            ValidateError::BadStep(s) => write!(f, "for-loop step must be ±1, got {s}"),
            ValidateError::ZeroTripRepeat => write!(f, "repeat with zero trip count"),
            ValidateError::ArrayRefInScalarExpr { scalar } => {
                write!(
                    f,
                    "scalar assignment to {scalar} reads an array outside a reduction"
                )
            }
            ValidateError::OffsetTooLarge { array, radius, max } => {
                write!(
                    f,
                    "offset radius {radius} on array {array} exceeds supported maximum {max}"
                )
            }
            ValidateError::UnknownTransfer(id) => write!(f, "unknown transfer {id:?}"),
            ValidateError::OutOfBounds {
                array,
                access,
                bounds,
                ..
            } => write!(
                f,
                "access {access} of array {array} leaves its bounds {bounds}"
            ),
        }
    }
}

impl std::error::Error for ValidateError {}

/// Maximum supported offset radius (ghost-ring width). The paper's
/// benchmarks use radius-1 stencils; we allow a little headroom.
pub const MAX_OFFSET_RADIUS: u32 = 4;

/// Checks all structural invariants of `program`.
pub fn validate(program: &Program) -> Result<(), Vec<ValidateError>> {
    let mut errs = Vec::new();
    let mut bound: Vec<LoopVarId> = Vec::new();
    check_block(program, &program.body, &mut bound, &mut errs);
    if errs.is_empty() {
        let mut walk = BoundsWalk {
            p: program,
            ends: Vec::new(),
            path: Vec::new(),
            errs: &mut errs,
        };
        walk.block(&program.body);
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

fn check_block(
    p: &Program,
    block: &Block,
    bound: &mut Vec<LoopVarId>,
    errs: &mut Vec<ValidateError>,
) {
    for stmt in block.iter() {
        match stmt {
            Stmt::Assign { region, lhs, rhs } => {
                if lhs.index() >= p.arrays.len() {
                    errs.push(ValidateError::UnknownArray(*lhs));
                    continue;
                }
                let arr = p.array(*lhs);
                if region.rank != arr.rect.rank {
                    errs.push(ValidateError::RankMismatch {
                        array: arr.name.clone(),
                        region_rank: region.rank,
                        array_rank: arr.rect.rank,
                    });
                }
                check_region(p, region, bound, errs);
                check_expr(p, rhs, bound, errs);
            }
            Stmt::ScalarAssign { lhs, rhs } => {
                if lhs.index() >= p.scalars.len() {
                    errs.push(ValidateError::UnknownScalar(*lhs));
                    continue;
                }
                match rhs {
                    ScalarRhs::Expr(e) => {
                        let mut has_ref = false;
                        e.walk(&mut |n| has_ref |= matches!(n, Expr::Ref { .. }));
                        if has_ref {
                            errs.push(ValidateError::ArrayRefInScalarExpr {
                                scalar: p.scalar(*lhs).name.clone(),
                            });
                        }
                        check_expr(p, e, bound, errs);
                    }
                    ScalarRhs::Reduce { region, expr, .. } => {
                        check_region(p, region, bound, errs);
                        check_expr(p, expr, bound, errs);
                    }
                }
            }
            Stmt::Repeat { count, body } => {
                if *count == 0 {
                    errs.push(ValidateError::ZeroTripRepeat);
                }
                check_block(p, body, bound, errs);
            }
            Stmt::For {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                if var.index() >= p.loop_vars.len() {
                    errs.push(ValidateError::UnknownLoopVar(*var));
                    continue;
                }
                if step.abs() != 1 {
                    errs.push(ValidateError::BadStep(*step));
                }
                for b in [lo, hi] {
                    if let Some(v) = b.var {
                        if !bound.contains(&v) {
                            errs.push(ValidateError::UnboundLoopVar {
                                var: loop_var_name(p, v),
                            });
                        }
                    }
                }
                bound.push(*var);
                check_block(p, body, bound, errs);
                bound.pop();
            }
            Stmt::Comm { transfer, .. } => {
                if transfer.index() >= p.transfers.len() {
                    errs.push(ValidateError::UnknownTransfer(*transfer));
                }
            }
        }
    }
}

/// Checks that every statement's accesses stay inside their arrays, on a
/// structurally valid program.
struct BoundsWalk<'a> {
    p: &'a Program,
    /// The loop variables in scope, innermost last, each with its first
    /// and last value when both are constant and the loop runs at least
    /// once.
    ends: Vec<(LoopVarId, Option<(i64, i64)>)>,
    /// Statement-index path of the statement being checked.
    path: Vec<u32>,
    errs: &'a mut Vec<ValidateError>,
}

impl BoundsWalk<'_> {
    fn block(&mut self, block: &Block) {
        for (i, stmt) in block.iter().enumerate() {
            self.path.push(i as u32);
            self.stmt(stmt);
            self.path.pop();
        }
    }

    fn stmt(&mut self, stmt: &Stmt) {
        let (region, expr) = match stmt {
            Stmt::Assign { region, lhs, rhs } => {
                self.access(region, *lhs, Offset::ZERO);
                (region, rhs)
            }
            Stmt::ScalarAssign {
                rhs: ScalarRhs::Reduce { region, expr, .. },
                ..
            } => (region, expr),
            Stmt::Repeat { body, .. } => return self.block(body),
            Stmt::For {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let runs = (*step > 0 && lo.c <= hi.c) || (*step < 0 && lo.c >= hi.c);
                let constant = lo.is_constant() && hi.is_constant() && runs;
                self.ends.push((*var, constant.then_some((lo.c, hi.c))));
                self.block(body);
                self.ends.pop();
                return;
            }
            Stmt::ScalarAssign { .. } | Stmt::Comm { .. } => return,
        };
        expr.walk(&mut |n| {
            if let Expr::Ref { array, offset } = n {
                self.access(region, *array, *offset);
            }
        });
    }

    /// Checks one access: `region` shifted by `offset` must lie inside
    /// `array`. A constant region is checked exactly; a loop-relative one
    /// at its loops' first and at their last values, and not at all when
    /// one of those is unknown.
    fn access(&mut self, region: &Region, array: ArrayId, offset: Offset) {
        let bounds = self.p.array(array).rect;
        if region.rank != bounds.rank {
            return;
        }
        // A bound's value on its loop's first or last trip.
        let at = |b: AffineBound, last: bool| match b.var {
            None => Some(b.c),
            Some(v) => match self.ends.iter().rev().find(|(w, _)| *w == v)? {
                (_, Some((first_value, last_value))) => {
                    Some(b.c + if last { *last_value } else { *first_value })
                }
                (_, None) => None,
            },
        };
        // The loops' first trips, then their last, which a constant region
        // does not need.
        let trips: &[bool] = if region.is_constant() {
            &[false]
        } else {
            &[false, true]
        };
        for &last in trips {
            let mut access = bounds;
            for (d, dim) in region.dims[..region.rank].iter().enumerate() {
                let (Some(lo), Some(hi)) = (at(dim.lo, last), at(dim.hi, last)) else {
                    return;
                };
                let shift = i64::from(offset.get(d));
                (access.lo[d], access.hi[d]) = (lo + shift, hi + shift);
            }
            let inside = (0..bounds.rank)
                .all(|d| bounds.lo[d] <= access.lo[d] && access.hi[d] <= bounds.hi[d]);
            if !inside && !access.is_empty() {
                self.errs.push(ValidateError::OutOfBounds {
                    at: self
                        .path
                        .iter()
                        .fold(Span::root(), |at, &i| at.child(i as usize)),
                    array: self.p.array(array).name.clone(),
                    access: format!("{access:?}"),
                    bounds: format!("{bounds:?}"),
                });
                return;
            }
        }
    }
}

fn loop_var_name(p: &Program, v: LoopVarId) -> String {
    p.loop_vars
        .get(v.index())
        .map(|d| d.name.clone())
        .unwrap_or_else(|| format!("{v:?}"))
}

fn check_region(p: &Program, region: &Region, bound: &[LoopVarId], errs: &mut Vec<ValidateError>) {
    for v in region.loop_vars() {
        if v.index() >= p.loop_vars.len() {
            errs.push(ValidateError::UnknownLoopVar(v));
        } else if !bound.contains(&v) {
            errs.push(ValidateError::UnboundLoopVar {
                var: loop_var_name(p, v),
            });
        }
    }
}

fn check_expr(p: &Program, e: &Expr, bound: &[LoopVarId], errs: &mut Vec<ValidateError>) {
    e.walk(&mut |n| match n {
        Expr::Ref { array, offset } => {
            if array.index() >= p.arrays.len() {
                errs.push(ValidateError::UnknownArray(*array));
                return;
            }
            let arr = p.array(*array);
            if !offset.fits_rank(arr.rect.rank) {
                errs.push(ValidateError::OffsetRank {
                    array: arr.name.clone(),
                    offset: format!("{offset}"),
                });
            }
            if offset.radius() > MAX_OFFSET_RADIUS {
                errs.push(ValidateError::OffsetTooLarge {
                    array: arr.name.clone(),
                    radius: offset.radius(),
                    max: MAX_OFFSET_RADIUS,
                });
            }
        }
        Expr::Scalar(s) if s.index() >= p.scalars.len() => {
            errs.push(ValidateError::UnknownScalar(*s));
        }
        Expr::LoopVar(v) => {
            if v.index() >= p.loop_vars.len() {
                errs.push(ValidateError::UnknownLoopVar(*v));
            } else if !bound.contains(v) {
                errs.push(ValidateError::UnboundLoopVar {
                    var: loop_var_name(p, *v),
                });
            }
        }
        _ => {}
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::offset::{compass, Offset};
    use crate::region::Rect;

    fn valid_program() -> Program {
        let mut b = ProgramBuilder::new("ok");
        let bounds = Rect::d2((1, 8), (1, 8));
        let r = Region::d2((2, 7), (2, 7));
        let a = b.array("A", bounds);
        let x = b.array("X", bounds);
        b.assign(r, a, Expr::at(x, compass::EAST));
        b.for_up("i", 2, 7, |b, i| {
            b.assign(Region::row2(i, (2, 7)), a, Expr::at(x, compass::NORTH));
        });
        b.finish()
    }

    #[test]
    fn valid_program_passes() {
        assert!(validate(&valid_program()).is_ok());
    }

    #[test]
    fn catches_unknown_array() {
        let mut p = valid_program();
        p.body.0.push(Stmt::assign(
            Region::d2((1, 2), (1, 2)),
            ArrayId(99),
            Expr::Const(0.0),
        ));
        let errs = validate(&p).unwrap_err();
        assert!(matches!(errs[0], ValidateError::UnknownArray(ArrayId(99))));
    }

    #[test]
    fn catches_rank_mismatch() {
        let mut b = ProgramBuilder::new("bad");
        let a = b.array("A3", Rect::d3((1, 4), (1, 4), (1, 4)));
        b.assign(Region::d2((1, 4), (1, 4)), a, Expr::Const(0.0));
        let errs = validate(&b.finish()).unwrap_err();
        assert!(matches!(errs[0], ValidateError::RankMismatch { .. }));
    }

    #[test]
    fn catches_offset_beyond_rank() {
        let mut b = ProgramBuilder::new("bad");
        let a = b.array("A", Rect::d2((1, 4), (1, 4)));
        let x = b.array("X", Rect::d2((1, 4), (1, 4)));
        b.assign(
            Region::d2((1, 4), (1, 4)),
            a,
            Expr::at(x, Offset::d3(0, 0, 1)),
        );
        let errs = validate(&b.finish()).unwrap_err();
        assert!(matches!(errs[0], ValidateError::OffsetRank { .. }));
    }

    #[test]
    fn catches_oversized_offset() {
        let mut b = ProgramBuilder::new("bad");
        let a = b.array("A", Rect::d2((1, 64), (1, 64)));
        let x = b.array("X", Rect::d2((1, 64), (1, 64)));
        b.assign(
            Region::d2((1, 64), (1, 64)),
            a,
            Expr::at(x, Offset::d2(0, 9)),
        );
        let errs = validate(&b.finish()).unwrap_err();
        assert!(matches!(errs[0], ValidateError::OffsetTooLarge { .. }));
    }

    #[test]
    fn catches_unbound_loop_var_in_region() {
        let mut p = Program::new("bad");
        let a = p.add_array("A", Rect::d2((1, 8), (1, 8)));
        let i = p.add_loop_var("i");
        // Region uses `i` but there is no enclosing for-loop.
        p.body = Block::new(vec![Stmt::assign(
            Region::row2(i, (1, 8)),
            a,
            Expr::Const(1.0),
        )]);
        let errs = validate(&p).unwrap_err();
        assert!(matches!(errs[0], ValidateError::UnboundLoopVar { .. }));
    }

    #[test]
    fn catches_array_ref_in_scalar_expr() {
        let mut b = ProgramBuilder::new("bad");
        let a = b.array("A", Rect::d2((1, 4), (1, 4)));
        let s = b.scalar("s", 0.0);
        b.scalar_assign(s, Expr::local(a));
        let errs = validate(&b.finish()).unwrap_err();
        assert!(matches!(
            errs[0],
            ValidateError::ArrayRefInScalarExpr { .. }
        ));
    }

    #[test]
    fn catches_zero_trip_and_bad_step() {
        let mut p = valid_program();
        p.body.0.push(Stmt::Repeat {
            count: 0,
            body: Block::default(),
        });
        let errs = validate(&p).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::ZeroTripRepeat)));

        let mut p2 = Program::new("bad");
        let i = p2.add_loop_var("i");
        p2.body = Block::new(vec![Stmt::For {
            var: i,
            lo: 1.into(),
            hi: 4.into(),
            step: 2,
            body: Block::default(),
        }]);
        let errs = validate(&p2).unwrap_err();
        assert!(matches!(errs[0], ValidateError::BadStep(2)));
    }

    #[test]
    fn catches_out_of_bounds_regions_and_shifted_reads() {
        let bounds = Rect::d2((1, 8), (1, 8));
        let build = |region: Region, rhs: Expr| {
            let mut b = ProgramBuilder::new("oob");
            let a = b.array("A", bounds);
            b.array("X", bounds);
            b.assign(region, a, rhs);
            b.finish()
        };
        let x = ArrayId(1);
        // The write region itself, and the read region shifted east.
        let write = build(Region::d2((0, 8), (1, 8)), Expr::Const(1.0));
        let read = build(Region::d2((1, 8), (1, 8)), Expr::at(x, compass::EAST));
        for (p, access) in [(write, "[0..8, 1..8]"), (read, "[1..8, 2..9]")] {
            let errs = validate(&p).unwrap_err();
            assert_eq!(
                errs,
                vec![ValidateError::OutOfBounds {
                    at: Span::root().child(0),
                    array: if access.starts_with("[0") { "A" } else { "X" }.into(),
                    access: access.into(),
                    bounds: "[1..8, 1..8]".into(),
                }]
            );
        }
        // A shift that stays inside, and an empty region, are fine.
        assert!(validate(&build(
            Region::d2((1, 8), (1, 7)),
            Expr::at(x, compass::EAST)
        ))
        .is_ok());
        assert!(validate(&build(Region::d2((5, 4), (0, 9)), Expr::Const(1.0))).is_ok());
    }

    #[test]
    fn loop_relative_regions_are_checked_at_the_loop_ends() {
        let program = |lo: i64, hi: i64, step: i64| {
            let mut p = Program::new("rows");
            let a = p.add_array("A", Rect::d2((1, 8), (1, 8)));
            let x = p.add_array("X", Rect::d2((1, 8), (1, 8)));
            let i = p.add_loop_var("i");
            p.body = Block::new(vec![Stmt::For {
                var: i,
                lo: lo.into(),
                hi: hi.into(),
                step,
                body: Block::new(vec![Stmt::assign(
                    Region::row2(i, (1, 8)),
                    a,
                    Expr::at(x, compass::NORTH),
                )]),
            }]);
            p
        };
        // Row i reads row i - 1: fine from 2, out of bounds from 1, in
        // either direction.
        assert!(validate(&program(2, 8, 1)).is_ok());
        assert!(validate(&program(8, 2, -1)).is_ok());
        assert!(validate(&program(1, 8, 1)).is_err());
        assert!(validate(&program(8, 1, -1)).is_err());
        // A loop that never runs is not checked.
        assert!(validate(&program(8, 1, 1)).is_ok());
    }

    #[test]
    fn error_messages_render() {
        let e = ValidateError::OffsetTooLarge {
            array: "A".into(),
            radius: 9,
            max: 4,
        };
        assert!(e.to_string().contains("radius 9"));
        let e2 = ValidateError::UnboundLoopVar { var: "i".into() };
        assert!(e2.to_string().contains('i'));
    }
}
