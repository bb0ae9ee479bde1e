//! Statement-level dataflow queries used by the communication optimizer
//! and the static analyzer.

use crate::expr::{Expr, ScalarRhs};
use crate::ids::ArrayId;
use crate::offset::Offset;
use crate::stmt::{Block, Stmt};
use std::collections::{BTreeSet, HashSet};

/// The location of a statement: its path of statement indices from the
/// program body down through nested loop bodies. `s2.1.0` is statement 0
/// of the body of statement 1 of the body of top-level statement 2.
///
/// commlint's findings and `validate`'s out-of-bounds errors both carry
/// spans, and spans order the way structured control flow executes: the derived `Ord` is lexicographic with a prefix ordering
/// shorter-first, which is exactly program pre-order.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Default)]
pub struct Span(Vec<u32>);

impl Span {
    /// The empty path — the program body itself, parent of the top-level
    /// statements. Never the span of a statement.
    pub fn root() -> Span {
        Span(Vec::new())
    }

    /// The span of statement `index` inside the block this span names.
    pub fn child(&self, index: usize) -> Span {
        let mut path = self.0.clone();
        path.push(index as u32);
        Span(path)
    }

    /// The statement-index path from the program body.
    pub fn path(&self) -> &[u32] {
        &self.0
    }

    /// Loop nesting depth: 0 for a top-level statement.
    pub fn depth(&self) -> usize {
        self.0.len().saturating_sub(1)
    }

    /// `true` when the statement at `self` executes before the statement
    /// at `other` on every path that reaches `other`.
    ///
    /// With structured `Repeat`/`For` control flow (no branches) this is a
    /// pure path comparison: `self` dominates `other` iff it is a proper
    /// prefix (a loop statement dominates its body) or lexicographically
    /// earlier. Loops are assumed to run at least one iteration, as
    /// commlint assumes throughout.
    pub fn dominates(&self, other: &Span) -> bool {
        self.0 < other.0
    }
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0.is_empty() {
            return write!(f, "s<body>");
        }
        write!(f, "s")?;
        for (i, ix) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{ix}")?;
        }
        Ok(())
    }
}

/// A non-local array reference: the pair the optimizer reasons about.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct CommRef {
    pub array: ArrayId,
    pub offset: Offset,
}

/// The distinct non-zero-offset references of an expression, in first-use
/// order (the order naive communication generation emits them).
pub fn comm_refs(expr: &Expr) -> Vec<CommRef> {
    // Order-preserving set: the Vec keeps first-use order, the HashSet
    // makes membership O(1) so wide expressions stay linear.
    let mut out: Vec<CommRef> = Vec::new();
    let mut seen: HashSet<CommRef> = HashSet::new();
    expr.walk(&mut |e| {
        if let Expr::Ref { array, offset } = e {
            if !offset.is_zero() {
                let r = CommRef {
                    array: *array,
                    offset: *offset,
                };
                if seen.insert(r) {
                    out.push(r);
                }
            }
        }
    });
    out
}

/// The distinct non-local references of a statement (empty for loops and
/// communication calls — loops are block boundaries and handled
/// recursively by the optimizer).
pub fn stmt_comm_refs(stmt: &Stmt) -> Vec<CommRef> {
    match stmt {
        Stmt::Assign { rhs, .. } => comm_refs(rhs),
        Stmt::ScalarAssign {
            rhs: ScalarRhs::Reduce { expr, .. },
            ..
        } => comm_refs(expr),
        _ => Vec::new(),
    }
}

/// The array written by a statement, if any.
pub fn arrays_written(stmt: &Stmt) -> Option<ArrayId> {
    match stmt {
        Stmt::Assign { lhs, .. } => Some(*lhs),
        _ => None,
    }
}

/// All arrays written anywhere in a block tree — the kill set a loop
/// boundary applies to carried ghost data (used by the cross-block pass
/// and the static analyzer's loop kill sets).
pub fn written_arrays(block: &Block) -> BTreeSet<ArrayId> {
    let mut out = BTreeSet::new();
    crate::visit::walk_stmts(block, &mut |s| {
        if let Some(a) = arrays_written(s) {
            out.insert(a);
        }
    });
    out
}

/// A rough per-element floating-point operation count for an expression —
/// the computation cost model's input. Every operator counts 1; transcendental
/// unaries count more, reflecting their real relative cost.
pub fn expr_flops(expr: &Expr) -> u32 {
    let mut n = 0;
    expr.walk(&mut |e| {
        n += match e {
            Expr::Binary { .. } => 1,
            Expr::Unary { op, .. } => match op {
                crate::expr::UnaryOp::Neg | crate::expr::UnaryOp::Abs => 1,
                crate::expr::UnaryOp::Sqrt => 8,
                crate::expr::UnaryOp::Exp | crate::expr::UnaryOp::Ln => 16,
            },
            _ => 0,
        };
    });
    n.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offset::compass;
    use crate::region::Region;

    fn shifted(a: u32, o: Offset) -> Expr {
        Expr::at(ArrayId(a), o)
    }

    #[test]
    fn comm_refs_dedup_and_order() {
        // B@east - B@west + B@east : two distinct refs, east first.
        let e = shifted(0, compass::EAST) - shifted(0, compass::WEST) + shifted(0, compass::EAST);
        let refs = comm_refs(&e);
        assert_eq!(
            refs,
            vec![
                CommRef {
                    array: ArrayId(0),
                    offset: compass::EAST
                },
                CommRef {
                    array: ArrayId(0),
                    offset: compass::WEST
                },
            ]
        );
    }

    #[test]
    fn local_refs_not_communication() {
        let e = Expr::local(ArrayId(0)) + shifted(1, compass::NORTH);
        let refs = comm_refs(&e);
        assert_eq!(refs.len(), 1);
        assert_eq!(refs[0].array, ArrayId(1));
    }

    #[test]
    fn stmt_refs_cover_reductions() {
        let s = Stmt::ScalarAssign {
            lhs: crate::ids::ScalarId(0),
            rhs: ScalarRhs::Reduce {
                op: crate::expr::ReduceOp::Max,
                region: Region::d2((1, 4), (1, 4)),
                expr: shifted(0, compass::EAST),
            },
        };
        assert_eq!(stmt_comm_refs(&s).len(), 1);
    }

    #[test]
    fn loops_have_no_direct_refs() {
        let s = Stmt::Repeat {
            count: 2,
            body: crate::stmt::Block::default(),
        };
        assert!(stmt_comm_refs(&s).is_empty());
    }

    #[test]
    fn reads_and_writes() {
        let s = Stmt::assign(
            Region::d2((1, 4), (1, 4)),
            ArrayId(0),
            Expr::local(ArrayId(1)) * shifted(2, compass::SE),
        );
        assert_eq!(arrays_written(&s), Some(ArrayId(0)));
    }

    #[test]
    fn span_displays_as_dotted_path() {
        let s = Span::root().child(2).child(1).child(0);
        assert_eq!(s.to_string(), "s2.1.0");
        assert_eq!(s.depth(), 2);
        assert_eq!(Span::root().to_string(), "s<body>");
    }

    #[test]
    fn span_dominance_is_preorder() {
        let root = Span::root();
        let s0 = root.child(0);
        let s0_3 = s0.child(3);
        let s1 = root.child(1);
        let s2 = root.child(2);
        // A loop statement dominates its body.
        assert!(s0.dominates(&s0_3));
        assert!(!s0_3.dominates(&s0));
        // Earlier statements dominate later ones at the same level.
        assert!(s1.dominates(&s2));
        assert!(!s2.dominates(&s1));
        // A loop body (>= 1 trip) dominates statements after the loop.
        assert!(s0_3.dominates(&s1));
        // Nothing dominates itself.
        assert!(!s1.dominates(&s1.clone()));
        // Within the same loop, a later body statement does not dominate an
        // earlier one (the earlier one runs first on every iteration).
        assert!(!s0.child(5).dominates(&s0_3));
    }

    #[test]
    fn written_arrays_collects_nested_writes() {
        let r = Region::d2((1, 4), (1, 4));
        let block = Block::new(vec![
            Stmt::assign(r, ArrayId(0), Expr::Const(1.0)),
            Stmt::Repeat {
                count: 2,
                body: Block::new(vec![Stmt::assign(r, ArrayId(2), Expr::Const(2.0))]),
            },
        ]);
        let w = written_arrays(&block);
        assert!(w.contains(&ArrayId(0)) && w.contains(&ArrayId(2)));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn comm_refs_is_linear_on_wide_expressions() {
        // 2000 refs over 8 distinct (array, offset) pairs: the order must
        // still be first-use order.
        let mut e = shifted(0, compass::EAST);
        for i in 1..2000u32 {
            e = e + shifted(i % 8, compass::EAST);
        }
        let refs = comm_refs(&e);
        assert_eq!(refs.len(), 8);
        assert_eq!(refs[0].array, ArrayId(0));
        assert_eq!(refs[1].array, ArrayId(1));
    }

    #[test]
    fn flop_counting() {
        let e = shifted(0, compass::EAST) - shifted(0, compass::WEST);
        assert_eq!(expr_flops(&e), 1);
        let e2 = Expr::un(crate::expr::UnaryOp::Sqrt, e);
        assert_eq!(expr_flops(&e2), 9);
        assert_eq!(expr_flops(&Expr::Const(0.0)), 1); // floor of 1
    }
}
