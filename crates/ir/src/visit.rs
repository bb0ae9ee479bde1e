//! A generic statement walker: a read-only, pre-order walk over every
//! statement of a block tree. Passes that rewrite the tree recurse over
//! their own block structure.

use crate::stmt::{Block, Stmt};

/// Visits every statement in the block tree, pre-order: a loop before the
/// statements of its body.
pub fn walk_stmts(block: &Block, f: &mut impl FnMut(&Stmt)) {
    for stmt in block.iter() {
        f(stmt);
        if let Stmt::Repeat { body, .. } | Stmt::For { body, .. } = stmt {
            walk_stmts(body, f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::ids::ArrayId;
    use crate::region::Region;

    #[test]
    fn walk_visits_every_statement_in_pre_order() {
        let r = Region::d2((1, 4), (1, 4));
        let assign = |c| Stmt::assign(r, ArrayId(0), Expr::Const(c));
        let block = Block::new(vec![
            assign(1.0),
            Stmt::Repeat {
                count: 2,
                body: Block::new(vec![
                    assign(2.0),
                    Stmt::Repeat {
                        count: 3,
                        body: Block::new(vec![assign(3.0)]),
                    },
                ]),
            },
            assign(4.0),
        ]);
        let mut seen = Vec::new();
        walk_stmts(&block, &mut |s| match s {
            Stmt::Assign {
                rhs: Expr::Const(c),
                ..
            } => seen.push(*c),
            _ => seen.push(0.0),
        });
        assert_eq!(seen, vec![1.0, 0.0, 2.0, 0.0, 3.0, 4.0]);
    }
}
