//! # commopt-core — the machine-independent communication optimizer
//!
//! This crate implements the primary contribution of Choi & Snyder,
//! *"Quantifying the Effects of Communication Optimizations"* (ICPP 1997):
//! a communication generator and optimizer for a ZPL-like array language
//! that supports selectively enabling the three optimizations under study,
//! on top of the always-on baseline of *message vectorization*:
//!
//! * **Redundant communication removal** (`rr`) — drop a transfer whose
//!   `(array, offset)` data was already communicated earlier in the basic
//!   block and not modified since (paper §2, Figure 1(b)).
//! * **Communication combination** (`cc`) — merge transfers that share an
//!   offset (hence source/destination processors) into one message, under
//!   either the *max-combining* or the *max-latency-hiding* heuristic
//!   (paper §2, Figures 1(c) and 2).
//! * **Communication pipelining** (`pl`) — split the DR/SR/DN/SV quad so
//!   the send is initiated just after the last write of the data and the
//!   receive just before its first use, overlapping transfer with
//!   computation (paper §2, Figure 1(d)).
//!
//! The optimization scope is a *source-level basic block*: a maximal run of
//! whole-array statements; loop boundaries delimit blocks (paper §3.1).
//! The rr and cc decisions are `commopt_analysis::rrcc`, the procedure
//! commlint's C003/C004 run too; the [`planner`] generates the naive
//! transfers, passes its policy to it, and places the calls.
//!
//! The entry point is [`optimize`], which takes a source [`Program`] and an
//! [`OptConfig`] and returns the program with IRONMAN communication calls
//! inserted, plus static communication counts. [`counts::dynamic_count`]
//! computes the dynamic count by walking the loop structure. Whether a
//! plan is communication-safe is commlint's judgement
//! (`commopt_analysis::lint(&program).safe()`); debug builds of
//! [`optimize`] assert that every plan they emit has no error-severity
//! finding.
//!
//! ```
//! use commopt_core::{optimize, OptConfig};
//! use commopt_ir::{ProgramBuilder, Rect, Region, Expr, offset::compass};
//!
//! let mut b = ProgramBuilder::new("demo");
//! let bounds = Rect::d2((1, 8), (1, 8));
//! let r = Region::d2((2, 7), (2, 7));
//! let bb = b.array("B", bounds);
//! let a = b.array("A", bounds);
//! let c = b.array("C", bounds);
//! b.assign(r, a, Expr::at(bb, compass::EAST));
//! b.assign(r, c, Expr::at(bb, compass::EAST)); // redundant under rr
//! let program = b.finish();
//!
//! let baseline = optimize(&program, &OptConfig::baseline());
//! let rr = optimize(&program, &OptConfig::rr());
//! assert_eq!(baseline.static_count(), 2);
//! assert_eq!(rr.static_count(), 1);
//! ```

pub mod block;
pub mod config;
pub mod counts;
pub mod emit;
pub mod global;
pub mod passlog;
pub mod planner;

pub use config::{CombineMode, OptConfig};
pub use counts::{dynamic_count, static_count};
pub use emit::Optimized;
pub use global::{global_pass, GlobalStats};
pub use passlog::{PassEvent, PassLog};
pub use planner::{plan_block, PlannedComm};

use commopt_ir::Program;

/// Runs communication generation and the configured optimizations over a
/// source program, producing an instrumented program with IRONMAN calls.
///
/// The input must contain no `Stmt::Comm` statements (it is a *source*
/// program); the output contains one DR/SR/DN/SV quad per planned transfer.
pub fn optimize(program: &Program, config: &OptConfig) -> Optimized {
    emit::optimize_program(program, config)
}
