//! # commopt — facade crate
//!
//! Re-exports the whole workspace behind one dependency, for examples,
//! integration tests, and downstream users:
//!
//! * [`ir`] — the ZPL-like array-language IR,
//! * [`lang`] — the mini-ZPL textual frontend,
//! * [`opt`] — the communication optimizer (the paper's contribution),
//! * [`analysis`] — commlint, the static communication-safety checker,
//! * [`ironman`] — the IRONMAN interface and its machine bindings,
//! * [`machine`] — simulated Paragon/T3D machine models,
//! * [`sim`] — the SPMD executor producing counts and simulated times,
//! * [`benchmarks`] — TOMCATV, SWM, SIMPLE, SP and the synthetic overhead
//!   benchmark.
//!
//! See the repository README for a quickstart, DESIGN.md for the system
//! inventory, and EXPERIMENTS.md for paper-vs-measured results.

pub use commopt_analysis as analysis;
pub use commopt_benchmarks as benchmarks;
pub use commopt_core as opt;
pub use commopt_ir as ir;
pub use commopt_ironman as ironman;
pub use commopt_lang as lang;
pub use commopt_machine as machine;
pub use commopt_sim as sim;
