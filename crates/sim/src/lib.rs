//! # commopt-sim — the SPMD discrete-event executor
//!
//! Runs an optimized program (source program + IRONMAN calls, produced by
//! `commopt-core`) on a simulated machine (`commopt-machine`) under a
//! chosen communication library binding (`commopt-ironman`), producing:
//!
//! * a **simulated execution time** — per-processor clocks advanced by a
//!   computation cost model and by the timing semantics of each IRONMAN
//!   action (blocking sends, receives that wait for arrival, one-way puts
//!   gated on the partner's readiness, heavyweight pairwise syncs, ...);
//! * the **dynamic communication count** — transfers executed per
//!   processor, the paper's Figure 8/11 metric (cross-checked against the
//!   structural count of `commopt-core::counts`);
//! * optionally (**full mode**) the actual **numerical results**, computed
//!   on genuinely distributed arrays: each processor owns a block plus a
//!   ghost ring that is *only* updated by executed transfers, with data
//!   snapshotted at SR time. A missing or misplaced communication therefore
//!   produces NaNs or stale values — the dynamic counterpart of commlint's
//!   static safety check (`commopt-analysis`) — which the test suite
//!   compares against the independent sequential interpreter in [`seq`];
//! * optionally (with a sink installed via `SimConfig::with_trace`) a
//!   per-processor **event timeline** — compute spans and every IRONMAN
//!   call with transfer id and byte counts — exportable as Chrome
//!   `trace_event` JSON via [`trace::chrome_trace`]. Tracing is purely
//!   observational: a traced run's `SimResult` is identical to an
//!   untraced one;
//! * optionally (with `SimConfig::with_metrics`) **deep metrics** — a
//!   zero-dependency registry ([`metrics::Registry`]) of per-IRONMAN-call
//!   latency histograms and message counters, plus per-link traffic over
//!   the machine mesh (`commopt-machine::MeshTraffic`), attached to the
//!   result as [`RunMetrics`]. Like tracing, metrics collection never
//!   changes the simulated numbers.
//!
//! Because the language has no data-dependent control flow, all processors
//! execute the same statement sequence and the simulator advances them in
//! lockstep, one statement at a time, with per-processor clocks. Cross-
//! processor waits (message arrival, pairwise synchronization, reductions)
//! are resolved against the partners' clocks at the matching statement —
//! a deterministic, reproducible discrete-event model.
//!
//! ## Robustness
//!
//! The engine never hangs and never panics on a malformed communication
//! plan. [`Simulator::try_run`] reports typed [`SimError`]s: a blocking
//! receive that can never be satisfied is a [`SimError::Deadlock`] naming
//! every stuck processor with its pending IRONMAN call and transfer id,
//! and the always-on [`safety`] checker reports timing-discipline
//! violations (one-way puts before readiness, receive-buffer overwrites,
//! messages never retired) as [`SimError::Safety`]. A seeded [`faults`]
//! plan perturbs the schedule adversarially — wire jitter, message
//! reordering, slow processors, dropped-and-retried deliveries — while
//! numerics stay exactly reproducible, which the schedule-fuzz driver in
//! `commopt-bench` exploits to check every benchmark × binding against
//! the sequential reference under many perturbed schedules.

pub mod darray;
pub mod engine;
pub mod error;
pub mod eval;
pub mod faults;
mod layout;
mod ledger;
pub mod metrics;
pub mod safety;
pub mod seq;
pub mod trace;

pub use darray::{Block, DistArray};
pub use engine::{SimConfig, Simulator};
pub use error::{SimError, StuckCall};
pub use faults::{FaultPlan, FaultStats};
pub use metrics::{
    HistSummary, Histogram, ProcBreakdown, Registry, RunMetrics, SimResult, TransferStats,
};
pub use safety::SafetyViolation;
pub use seq::SeqInterp;
pub use trace::{chrome_trace, Recorder, SpanKind, Trace, TraceEvent, TraceHandle, TraceSink};
