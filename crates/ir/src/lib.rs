//! # commopt-ir — array-language intermediate representation
//!
//! This crate defines the intermediate representation on which the
//! communication optimizer of Choi & Snyder, *"Quantifying the Effects of
//! Communication Optimizations"* (ICPP 1997), operates.
//!
//! The IR models a ZPL-like data-parallel array language:
//!
//! * **Arrays are first-class**: statements assign whole array expressions
//!   over a [`Region`] (a rectangular, possibly loop-variable-relative index
//!   set). There is no element indexing, so *message vectorization* — the
//!   baseline optimization of the paper — is implicit: the unit of
//!   communication is always a whole array slab, never a scalar element.
//! * **Shifted references** (`B@east`, written [`Expr::Ref`] with a non-zero
//!   [`Offset`]) are the only source of point-to-point communication. Because
//!   offsets are static, all communication is statically detectable, exactly
//!   as in ZPL.
//! * **Control flow** is structured: [`Stmt::Repeat`] (fixed trip count) and
//!   [`Stmt::For`] (affine bounds) loops. There is no data-dependent
//!   branching, so a *source-level basic block* is simply a maximal run of
//!   assignment statements between loop boundaries — the optimization scope
//!   used throughout the paper (§3.1).
//! * **Communication calls** ([`Stmt::Comm`]) are inserted by the optimizer
//!   (crate `commopt-core`) and name a [`Transfer`] descriptor — one message
//!   per neighbor, possibly carrying several `(array, offset)` items after
//!   communication combination. The four call kinds DR/SR/DN/SV are the
//!   IRONMAN interface of the paper's §3.1.
//!
//! The crate also provides a [`builder::ProgramBuilder`] for constructing
//! programs in Rust, a [`validate()`] pass, a ZPL-flavoured pretty printer
//! ([`display`]), and the statement-level dataflow queries
//! ([`analysis`]) that the optimizer relies on.

pub mod analysis;
pub mod builder;
pub mod comm;
pub mod display;
pub mod expr;
pub mod ids;
pub mod offset;
pub mod program;
pub mod region;
pub mod stmt;
pub mod validate;
pub mod visit;

pub use analysis::{arrays_written, comm_refs, expr_flops, written_arrays, CommRef, Span};
pub use builder::ProgramBuilder;
pub use comm::{CallKind, Transfer, TransferId, TransferItem};
pub use expr::{BinOp, Expr, ReduceOp, ScalarRhs, UnaryOp};
pub use ids::{ArrayId, LoopVarId, ScalarId};
pub use offset::Offset;
pub use program::{ArrayDecl, LoopVarDecl, Program, ScalarDecl};
pub use region::{AffineBound, DimRange, LoopEnv, Rect, Region, MAX_RANK};
pub use stmt::{loop_values, Block, Stmt};
pub use validate::{validate, ValidateError};
