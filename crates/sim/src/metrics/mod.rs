//! Simulation outputs and the metrics subsystem.
//!
//! Three layers:
//!
//! * [`registry`] — a zero-dependency metrics [`Registry`]: named
//!   counters, gauges and fixed-bucket log2 [`Histogram`]s with
//!   deterministic (name-ordered) enumeration;
//! * [`result`] — the always-on per-run outputs ([`SimResult`] with its
//!   per-processor and per-transfer breakdowns);
//! * [`RunMetrics`] — the opt-in deep accounting a run produces when
//!   [`SimConfig::with_metrics`](crate::SimConfig::with_metrics) is set:
//!   per-IRONMAN-call latency histograms and per-link traffic over the 2D
//!   mesh ([`MeshTraffic`]), feeding the `commopt-bench` perf snapshots.
//!
//! The engine's run ledger feeds all three, and writes the registry once
//! per run (DESIGN.md, "Run accounting"). Like tracing, metrics are purely
//! observational: a run with metrics enabled produces a [`SimResult`]
//! whose other fields are identical to a run without (tested).

pub mod hist;
pub mod registry;
pub mod result;

pub use hist::{bucket_bounds, HistSummary, Histogram, BUCKETS};
pub use registry::Registry;
pub use result::{ProcBreakdown, SimResult, TransferStats};

use commopt_ir::CallKind;
use commopt_machine::{MeshTraffic, ProcGrid};

/// The opt-in deep accounting of one simulated run.
///
/// `registry` holds the run's named metrics:
///
/// | name | kind | meaning |
/// |---|---|---|
/// | `comm.messages` | counter | point-to-point messages injected (all procs) |
/// | `comm.bytes` | counter | payload bytes injected (all procs) |
/// | `comm.hops` | counter | message-hops over mesh links |
/// | `ironman.{dr,sr,dn,sv}.ns` | histogram | latency of each executed IRONMAN call on the counting processor, nanoseconds |
/// | `mesh.max_utilization` | gauge | busiest link's busy-time share of the run |
/// | `mesh.hotspot_busy_us` | gauge | busiest link's transmission time, µs |
///
/// `mesh` carries the full per-link table behind those gauges.
#[derive(Clone, PartialEq, Debug)]
pub struct RunMetrics {
    pub registry: Registry,
    pub mesh: MeshTraffic,
}

impl RunMetrics {
    /// An empty accounting for a run on `grid`.
    pub fn new(grid: ProcGrid) -> RunMetrics {
        RunMetrics {
            registry: Registry::new(),
            mesh: MeshTraffic::new(grid),
        }
    }

    /// The registry name of an IRONMAN call's latency histogram.
    pub fn call_hist_name(kind: CallKind) -> &'static str {
        match kind {
            CallKind::DR => "ironman.dr.ns",
            CallKind::SR => "ironman.sr.ns",
            CallKind::DN => "ironman.dn.ns",
            CallKind::SV => "ironman.sv.ns",
        }
    }

    /// The latency histogram of an IRONMAN call kind, if any call of that
    /// kind executed.
    pub fn call_hist(&self, kind: CallKind) -> Option<&Histogram> {
        self.registry.hist(Self::call_hist_name(kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_hist_names_are_distinct_and_lowercase() {
        let names: Vec<&str> = CallKind::QUAD
            .iter()
            .map(|&k| RunMetrics::call_hist_name(k))
            .collect();
        assert_eq!(
            names,
            vec![
                "ironman.dr.ns",
                "ironman.sr.ns",
                "ironman.dn.ns",
                "ironman.sv.ns"
            ]
        );
    }

    #[test]
    fn fresh_run_metrics_are_empty() {
        let m = RunMetrics::new(ProcGrid::new(2, 2));
        assert!(m.registry.is_empty());
        assert_eq!(m.mesh.touched_links(), 0);
        for k in CallKind::QUAD {
            assert!(m.call_hist(k).is_none());
        }
    }
}
