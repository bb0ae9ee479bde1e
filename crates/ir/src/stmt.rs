//! Statements and blocks.
//!
//! The statement language is deliberately small: whole-array assignment,
//! scalar assignment (possibly a reduction), two loop forms, and the
//! communication calls the optimizer inserts. There is no data-dependent
//! branching — like ZPL, control flow is statically known, which is what
//! lets the compiler detect every communication statically (paper §1).

use crate::comm::{CallKind, TransferId};
use crate::expr::{Expr, ScalarRhs};
use crate::ids::{ArrayId, LoopVarId, ScalarId};
use crate::region::{AffineBound, Region};
use crate::validate::ValidateError;

/// A sequence of statements.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Block(pub Vec<Stmt>);

impl Block {
    pub fn new(stmts: Vec<Stmt>) -> Block {
        Block(stmts)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Stmt> {
        self.0.iter()
    }
}

/// One statement.
#[derive(Clone, PartialEq, Debug)]
pub enum Stmt {
    /// `[region] lhs := rhs` — element-wise whole-array assignment.
    ///
    /// RHS values are read *before* any element of the LHS is written
    /// (ZPL semantics), so `A := A@east` is well-defined.
    Assign {
        region: Region,
        lhs: ArrayId,
        rhs: Expr,
    },

    /// `lhs := rhs` for a replicated scalar, possibly a reduction.
    ScalarAssign { lhs: ScalarId, rhs: ScalarRhs },

    /// `repeat count { body }` — fixed trip count loop.
    Repeat { count: u64, body: Block },

    /// `for var := lo .. hi [by step] { body }`.
    ///
    /// Executes with `var = lo, lo+step, ...` while `var` is within
    /// `lo..=hi` (or `hi..=lo` for negative step). `step` is `±1`.
    For {
        var: LoopVarId,
        lo: AffineBound,
        hi: AffineBound,
        step: i64,
        body: Block,
    },

    /// An IRONMAN communication call inserted by the optimizer.
    Comm {
        kind: CallKind,
        transfer: TransferId,
    },
}

impl Stmt {
    /// `true` for the statement kinds that may appear in *source* programs
    /// (before communication generation).
    pub fn is_source_stmt(&self) -> bool {
        !matches!(self, Stmt::Comm { .. })
    }

    /// `true` for statements that terminate a source-level basic block
    /// (loops; see paper §3.1 — optimization scope is a single basic block).
    pub fn is_block_boundary(&self) -> bool {
        matches!(self, Stmt::Repeat { .. } | Stmt::For { .. })
    }

    /// Convenience constructor for array assignment.
    pub fn assign(region: Region, lhs: ArrayId, rhs: Expr) -> Stmt {
        Stmt::Assign { region, lhs, rhs }
    }

    /// Convenience constructor for a communication call.
    pub fn comm(kind: CallKind, transfer: TransferId) -> Stmt {
        Stmt::Comm { kind, transfer }
    }
}

/// The values a `for` loop's variable takes, in order: `lo, lo + step, …`
/// while within `lo..=hi` (`hi..=lo` for a negative step). Every executor
/// iterates loops through this one function.
///
/// Fails with [`ValidateError::BadStep`] unless `step` is ±1, the rule
/// [`validate`](crate::validate()) enforces: a step of 0 would never leave
/// the loop.
pub fn loop_values(
    lo: i64,
    hi: i64,
    step: i64,
) -> Result<impl Iterator<Item = i64>, ValidateError> {
    let mut range = match step {
        1 => lo..=hi,
        -1 => hi..=lo,
        _ => return Err(ValidateError::BadStep(step)),
    };
    Ok(std::iter::from_fn(move || {
        if step > 0 {
            range.next()
        } else {
            range.next_back()
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offset::Offset;

    fn dummy_assign() -> Stmt {
        Stmt::assign(
            Region::d2((1, 4), (1, 4)),
            ArrayId(0),
            Expr::at(ArrayId(1), Offset::d2(0, 1)),
        )
    }

    #[test]
    fn block_basics() {
        let b = Block::new(vec![dummy_assign()]);
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
        assert!(Block::default().is_empty());
        assert_eq!(b.iter().count(), 1);
    }

    #[test]
    fn boundary_classification() {
        assert!(!dummy_assign().is_block_boundary());
        let rep = Stmt::Repeat {
            count: 3,
            body: Block::default(),
        };
        assert!(rep.is_block_boundary());
        assert!(rep.is_source_stmt());
        let comm = Stmt::comm(CallKind::SR, TransferId(0));
        assert!(!comm.is_source_stmt());
        assert!(!comm.is_block_boundary());
    }

    #[test]
    fn loop_values_step_by_one_either_way() {
        let values = |lo, hi, step| loop_values(lo, hi, step).unwrap().collect::<Vec<i64>>();
        assert_eq!(values(2, 5, 1), [2, 3, 4, 5]);
        assert_eq!(values(5, 2, -1), [5, 4, 3, 2]);
        assert_eq!(values(3, 3, -1), [3]);
        assert!(values(5, 2, 1).is_empty());
        assert!(values(2, 5, -1).is_empty());
        assert_eq!(values(i64::MAX - 1, i64::MAX, 1), [i64::MAX - 1, i64::MAX]);
        for step in [0, 2, -3] {
            let Err(err) = loop_values(1, 4, step) else {
                panic!("step {step} accepted")
            };
            assert_eq!(err, ValidateError::BadStep(step));
            assert_eq!(
                err.to_string(),
                format!("for-loop step must be ±1, got {step}")
            );
        }
    }
}
