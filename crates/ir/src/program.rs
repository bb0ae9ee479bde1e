//! Whole programs: declaration tables plus a top-level statement block.

use crate::comm::{Transfer, TransferId};
use crate::ids::{ArrayId, LoopVarId, ScalarId};
use crate::region::Rect;
use crate::stmt::{Block, Stmt};

/// Declaration of a parallel array.
///
/// `rect` gives the array's declared index space (inclusive bounds, 1-based
/// in the benchmark programs, like ZPL). The distributed runtime adds a
/// ghost ring whose width is derived from the offsets actually used.
#[derive(Clone, PartialEq, Debug)]
pub struct ArrayDecl {
    pub name: String,
    pub rect: Rect,
}

/// Declaration of a replicated scalar variable.
#[derive(Clone, PartialEq, Debug)]
pub struct ScalarDecl {
    pub name: String,
    pub init: f64,
}

/// Declaration of a loop variable (bound by a `for` statement).
#[derive(Clone, PartialEq, Debug)]
pub struct LoopVarDecl {
    pub name: String,
}

/// A complete program.
#[derive(Clone, PartialEq, Debug)]
pub struct Program {
    pub name: String,
    pub arrays: Vec<ArrayDecl>,
    pub scalars: Vec<ScalarDecl>,
    pub loop_vars: Vec<LoopVarDecl>,
    /// Transfer descriptors referenced by `Stmt::Comm`. Empty in source
    /// programs; populated by the communication optimizer.
    pub transfers: Vec<Transfer>,
    pub body: Block,
}

impl Program {
    /// An empty program with the given name.
    pub fn new(name: impl Into<String>) -> Program {
        Program {
            name: name.into(),
            arrays: Vec::new(),
            scalars: Vec::new(),
            loop_vars: Vec::new(),
            transfers: Vec::new(),
            body: Block::default(),
        }
    }

    /// Declares an array, returning its id.
    pub fn add_array(&mut self, name: impl Into<String>, rect: Rect) -> ArrayId {
        let id = ArrayId::from_index(self.arrays.len());
        self.arrays.push(ArrayDecl {
            name: name.into(),
            rect,
        });
        id
    }

    /// Declares a scalar, returning its id.
    pub fn add_scalar(&mut self, name: impl Into<String>, init: f64) -> ScalarId {
        let id = ScalarId::from_index(self.scalars.len());
        self.scalars.push(ScalarDecl {
            name: name.into(),
            init,
        });
        id
    }

    /// Declares a loop variable, returning its id.
    pub fn add_loop_var(&mut self, name: impl Into<String>) -> LoopVarId {
        let id = LoopVarId::from_index(self.loop_vars.len());
        self.loop_vars.push(LoopVarDecl { name: name.into() });
        id
    }

    /// Registers a transfer descriptor, returning its id.
    pub fn add_transfer(&mut self, items: Vec<crate::comm::TransferItem>) -> TransferId {
        let id = TransferId(u32::try_from(self.transfers.len()).expect("too many transfers"));
        self.transfers.push(Transfer::new(id, items));
        id
    }

    pub fn array(&self, id: ArrayId) -> &ArrayDecl {
        &self.arrays[id.index()]
    }

    pub fn scalar(&self, id: ScalarId) -> &ScalarDecl {
        &self.scalars[id.index()]
    }

    pub fn loop_var(&self, id: LoopVarId) -> &LoopVarDecl {
        &self.loop_vars[id.index()]
    }

    pub fn transfer(&self, id: TransferId) -> &Transfer {
        &self.transfers[id.index()]
    }

    /// Looks up an array by name.
    pub fn array_by_name(&self, name: &str) -> Option<ArrayId> {
        self.arrays
            .iter()
            .position(|a| a.name == name)
            .map(ArrayId::from_index)
    }

    /// The maximum rank of any declared array (1 when no arrays exist).
    pub fn max_rank(&self) -> usize {
        self.arrays.iter().map(|a| a.rect.rank).max().unwrap_or(1)
    }

    /// The ghost-ring width each array needs: the maximum Chebyshev radius
    /// of any offset applied to it anywhere in the program.
    pub fn ghost_widths(&self) -> Vec<u32> {
        let mut widths = vec![0u32; self.arrays.len()];
        fn scan(block: &Block, widths: &mut [u32]) {
            for stmt in block.iter() {
                match stmt {
                    Stmt::Assign { rhs, .. } => {
                        rhs.walk(&mut |e| {
                            if let crate::expr::Expr::Ref { array, offset } = e {
                                let w = &mut widths[array.index()];
                                *w = (*w).max(offset.radius());
                            }
                        });
                    }
                    Stmt::ScalarAssign { rhs, .. } => {
                        if let crate::expr::ScalarRhs::Reduce { expr, .. } = rhs {
                            expr.walk(&mut |e| {
                                if let crate::expr::Expr::Ref { array, offset } = e {
                                    let w = &mut widths[array.index()];
                                    *w = (*w).max(offset.radius());
                                }
                            });
                        }
                    }
                    Stmt::Repeat { body, .. } => scan(body, widths),
                    Stmt::For { body, .. } => scan(body, widths),
                    Stmt::Comm { .. } => {}
                }
            }
        }
        scan(&self.body, &mut widths);
        widths
    }

    /// Counts all statements, recursively.
    pub fn stmt_count(&self) -> usize {
        fn count(block: &Block) -> usize {
            block
                .iter()
                .map(|s| match s {
                    Stmt::Repeat { body, .. } | Stmt::For { body, .. } => 1 + count(body),
                    _ => 1,
                })
                .sum()
        }
        count(&self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::offset::compass;
    use crate::region::Region;

    #[test]
    fn declaration_tables() {
        let mut p = Program::new("t");
        let a = p.add_array("A", Rect::d2((1, 8), (1, 8)));
        let b = p.add_array("B", Rect::d2((1, 8), (1, 8)));
        let s = p.add_scalar("err", 0.0);
        assert_eq!(p.array(a).name, "A");
        assert_eq!(p.array(b).name, "B");
        assert_eq!(p.scalar(s).init, 0.0);
        assert_eq!(p.array_by_name("B"), Some(b));
        assert_eq!(p.array_by_name("Z"), None);
        assert_eq!(p.max_rank(), 2);
    }

    #[test]
    fn ghost_widths_follow_offsets() {
        let mut p = Program::new("t");
        let a = p.add_array("A", Rect::d2((1, 8), (1, 8)));
        let b = p.add_array("B", Rect::d2((1, 8), (1, 8)));
        let c = p.add_array("C", Rect::d2((1, 8), (1, 8)));
        let r = Region::d2((1, 8), (1, 8));
        p.body = Block::new(vec![
            Stmt::assign(r, a, Expr::at(b, compass::EAST)),
            Stmt::Repeat {
                count: 2,
                body: Block::new(vec![Stmt::assign(
                    r,
                    a,
                    Expr::at(c, crate::offset::Offset::d2(-2, 0)),
                )]),
            },
        ]);
        assert_eq!(p.ghost_widths(), vec![0, 1, 2]);
    }

    #[test]
    fn stmt_count_recurses() {
        let mut p = Program::new("t");
        let a = p.add_array("A", Rect::d2((1, 4), (1, 4)));
        let r = Region::d2((1, 4), (1, 4));
        p.body = Block::new(vec![
            Stmt::assign(r, a, Expr::Const(0.0)),
            Stmt::Repeat {
                count: 5,
                body: Block::new(vec![
                    Stmt::assign(r, a, Expr::Const(1.0)),
                    Stmt::assign(r, a, Expr::Const(2.0)),
                ]),
            },
        ]);
        assert_eq!(p.stmt_count(), 4);
    }

    #[test]
    fn transfer_registration() {
        let mut p = Program::new("t");
        let a = p.add_array("A", Rect::d2((1, 4), (1, 4)));
        let t = p.add_transfer(vec![crate::comm::TransferItem::new(
            a,
            compass::EAST,
            Region::d2((1, 4), (1, 4)),
        )]);
        assert_eq!(p.transfer(t).offset(), compass::EAST);
    }
}
