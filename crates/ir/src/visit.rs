//! Generic statement walkers.
//!
//! Two traversals cover every need in this workspace: a read-only walk over
//! all statements (with loop nesting depth), and a block-level rewrite used
//! by the optimizer to replace each statement sequence with an instrumented
//! one.

use crate::stmt::{Block, Stmt};

/// Visits every statement in the block tree, pre-order, passing the loop
/// nesting depth (0 = top level).
pub fn walk_stmts(block: &Block, f: &mut impl FnMut(&Stmt, usize)) {
    fn go(block: &Block, depth: usize, f: &mut impl FnMut(&Stmt, usize)) {
        for stmt in block.iter() {
            f(stmt, depth);
            match stmt {
                Stmt::Repeat { body, .. } | Stmt::For { body, .. } => go(body, depth + 1, f),
                _ => {}
            }
        }
    }
    go(block, 0, f);
}

/// Rebuilds the block tree bottom-up, applying `rewrite` to every block's
/// statement list after its nested blocks have been rebuilt.
///
/// This is how the communication optimizer works: `rewrite` receives each
/// (source-level) statement sequence and returns the sequence with
/// communication calls inserted.
pub fn map_blocks(block: &Block, rewrite: &mut impl FnMut(Vec<Stmt>) -> Vec<Stmt>) -> Block {
    let rebuilt: Vec<Stmt> = block
        .iter()
        .map(|stmt| match stmt {
            Stmt::Repeat { count, body } => Stmt::Repeat {
                count: *count,
                body: map_blocks(body, rewrite),
            },
            Stmt::For {
                var,
                lo,
                hi,
                step,
                body,
            } => Stmt::For {
                var: *var,
                lo: *lo,
                hi: *hi,
                step: *step,
                body: map_blocks(body, rewrite),
            },
            other => other.clone(),
        })
        .collect();
    Block::new(rewrite(rebuilt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::ids::ArrayId;
    use crate::region::Region;

    fn prog_block() -> Block {
        let r = Region::d2((1, 4), (1, 4));
        Block::new(vec![
            Stmt::assign(r, ArrayId(0), Expr::Const(1.0)),
            Stmt::Repeat {
                count: 2,
                body: Block::new(vec![
                    Stmt::assign(r, ArrayId(0), Expr::Const(2.0)),
                    Stmt::Repeat {
                        count: 3,
                        body: Block::new(vec![Stmt::assign(r, ArrayId(0), Expr::Const(3.0))]),
                    },
                ]),
            },
        ])
    }

    #[test]
    fn walk_reports_depth() {
        let mut seen = Vec::new();
        walk_stmts(&prog_block(), &mut |s, d| {
            if let Stmt::Assign {
                rhs: Expr::Const(c),
                ..
            } = s
            {
                seen.push((*c, d));
            }
        });
        assert_eq!(seen, vec![(1.0, 0), (2.0, 1), (3.0, 2)]);
    }

    #[test]
    fn map_blocks_visits_every_level() {
        let mut calls = 0;
        let out = map_blocks(&prog_block(), &mut |stmts| {
            calls += 1;
            stmts
        });
        assert_eq!(calls, 3); // top, repeat body, inner repeat body
        assert_eq!(out, prog_block());
    }

    #[test]
    fn map_blocks_can_insert() {
        // Duplicate every statement; the nested repeat bodies double too.
        let out = map_blocks(&prog_block(), &mut |stmts| {
            stmts.into_iter().flat_map(|s| [s.clone(), s]).collect()
        });
        let mut n = 0;
        walk_stmts(&out, &mut |_, _| n += 1);
        // Duplication happens bottom-up, so cloned loop statements carry
        // their already-duplicated bodies: 2 + 2 + 2*(2 + 2 + 2*2) = 20.
        assert_eq!(n, 20);
    }
}
