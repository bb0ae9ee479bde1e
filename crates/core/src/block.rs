//! Source-level basic blocks.
//!
//! The optimizer's scope is a single source-level basic block (paper §3.1):
//! a maximal run of whole-array / scalar statements. Loop statements bound
//! blocks; their bodies are optimized recursively as their own blocks.

use commopt_ir::Stmt;

/// Splits a statement list into alternating runs: straight-line segments
/// (basic blocks) and single boundary statements (loops).
pub fn segments(stmts: &[Stmt]) -> Vec<Segment<'_>> {
    let mut out = Vec::new();
    let mut run: Vec<&Stmt> = Vec::new();
    for s in stmts {
        if s.is_block_boundary() {
            if !run.is_empty() {
                out.push(Segment::Straight(std::mem::take(&mut run)));
            }
            out.push(Segment::Boundary(s));
        } else {
            run.push(s);
        }
    }
    if !run.is_empty() {
        out.push(Segment::Straight(run));
    }
    out
}

/// One segment of a statement list.
pub enum Segment<'a> {
    /// A maximal run of straight-line statements — one basic block.
    Straight(Vec<&'a Stmt>),
    /// A loop statement (its body is handled recursively).
    Boundary(&'a Stmt),
}

#[cfg(test)]
mod tests {
    use super::*;
    use commopt_ir::{ArrayId, Block, Expr, Region};

    fn r() -> Region {
        Region::d2((1, 4), (1, 4))
    }

    fn a(i: u32) -> ArrayId {
        ArrayId(i)
    }

    #[test]
    fn segmentation_splits_on_loops() {
        let stmts = vec![
            Stmt::assign(r(), a(0), Expr::Const(1.0)),
            Stmt::Repeat {
                count: 2,
                body: Block::default(),
            },
            Stmt::assign(r(), a(0), Expr::Const(2.0)),
            Stmt::assign(r(), a(0), Expr::Const(3.0)),
        ];
        let segs = segments(&stmts);
        assert_eq!(segs.len(), 3);
        assert!(matches!(&segs[0], Segment::Straight(v) if v.len() == 1));
        assert!(matches!(&segs[1], Segment::Boundary(_)));
        assert!(matches!(&segs[2], Segment::Straight(v) if v.len() == 2));
    }
}
