//! Simulation outputs.

use super::RunMetrics;
use crate::faults::FaultStats;
use std::collections::BTreeMap;

/// Where one processor's simulated time went, in seconds.
///
/// The categories partition the clock: every advance is booked in full
/// where the simulator makes it (joins book their gap as `wait_s`), so
/// `total_s` equals the final clock up to float rounding. They are the
/// per-processor analogue of the paper's compute/communicate split.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct ProcBreakdown {
    /// Element-wise computation (array and scalar statements).
    pub compute_s: f64,
    /// CPU time injecting outgoing messages (SR-side send/put costs).
    pub send_s: f64,
    /// CPU time receiving: buffer posts and copy-out costs.
    pub recv_s: f64,
    /// Blocked time: waiting for message arrival, buffer drain, or for
    /// partners to reach a clock join.
    pub wait_s: f64,
    /// Synchronization costs: pairwise sync calls, barriers, reduction
    /// combine trees.
    pub sync_s: f64,
    /// Fixed call overheads: runtime guards and wait-call costs.
    pub overhead_s: f64,
}

impl ProcBreakdown {
    /// Total attributed time.
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.send_s + self.recv_s + self.wait_s + self.sync_s + self.overhead_s
    }
}

/// Aggregate execution statistics of one transfer over a whole run,
/// summed across all processors.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct TransferStats {
    /// DN executions (the transfer's share of the dynamic count).
    pub executions: u64,
    /// Total bytes received by all processors over all executions.
    pub bytes: u64,
    /// Total time processors spent blocked waiting for this transfer's
    /// data to arrive at DN, seconds (summed across processors).
    pub wait_s: f64,
    /// Largest single message any processor received, bytes.
    pub max_message_bytes: u64,
}

/// The result of one simulated run.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SimResult {
    /// Simulated wall-clock time: the maximum processor clock, in seconds.
    pub time_s: f64,
    /// Final clock of every processor, seconds.
    pub per_proc_time_s: Vec<f64>,
    /// The paper's dynamic communication count: transfers executed per
    /// processor (identical on every processor in SPMD code).
    pub dynamic_comm: u64,
    /// Transfers that actually moved data *to the counting (interior)
    /// processor* — a stricter metric than `dynamic_comm` (row-sweep
    /// transfers usually move nothing).
    pub data_transfers: u64,
    /// Bytes received by the counting processor over the run.
    pub bytes_received: u64,
    /// Largest single message received by the counting processor, bytes.
    pub max_message_bytes: u64,
    /// Time the counting processor spent in communication calls (including
    /// waits), seconds.
    pub comm_time_s: f64,
    /// Time the counting processor spent computing, seconds.
    pub compute_time_s: f64,
    /// Number of global reductions performed.
    pub reductions: u64,
    /// Per-processor time breakdown (compute / send / recv / wait / sync /
    /// overhead), indexed by processor id.
    pub per_proc: Vec<ProcBreakdown>,
    /// Per-transfer aggregate statistics, keyed by transfer id index.
    /// Every transfer of the program appears, executed or not.
    pub transfers: BTreeMap<u32, TransferStats>,
    /// Final scalar values by name.
    pub scalars: BTreeMap<String, f64>,
    /// Gathered final arrays by name (full mode only).
    pub arrays: BTreeMap<String, Vec<f64>>,
    /// What the fault plan actually did (all zeros without an active
    /// plan — see [`crate::faults`]).
    pub faults: FaultStats,
    /// Deep accounting (call-latency histograms, per-link mesh traffic),
    /// populated only when the run was configured with
    /// [`SimConfig::with_metrics`](crate::SimConfig::with_metrics).
    /// Collection is observational: every other field is identical with
    /// metrics on or off.
    pub metrics: Option<RunMetrics>,
}

impl SimResult {
    /// Communication share of the counting processor's busy+wait time.
    pub fn comm_fraction(&self) -> f64 {
        if self.time_s <= 0.0 {
            0.0
        } else {
            self.comm_time_s / self.time_s
        }
    }

    /// Largest relative clock skew between processors at the end of the
    /// run (a load-imbalance indicator). 0 for an empty or all-zero run.
    pub fn skew(&self) -> f64 {
        if self.per_proc_time_s.is_empty() {
            return 0.0;
        }
        let max = self.per_proc_time_s.iter().copied().fold(0.0_f64, f64::max);
        let min = self
            .per_proc_time_s
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        if max <= 0.0 {
            0.0
        } else {
            (max - min) / max
        }
    }

    /// A scalar's final value.
    pub fn scalar(&self, name: &str) -> Option<f64> {
        self.scalars.get(name).copied()
    }

    /// A gathered array's final values (full mode only).
    pub fn array(&self, name: &str) -> Option<&[f64]> {
        self.arrays.get(name).map(|v| v.as_slice())
    }

    /// Transfer ids sorted by cumulative DN wait time, worst first — the
    /// "top transfers" view of a profile.
    pub fn top_transfers_by_wait(&self) -> Vec<(u32, TransferStats)> {
        let mut v: Vec<(u32, TransferStats)> =
            self.transfers.iter().map(|(id, s)| (*id, *s)).collect();
        v.sort_by(|a, b| {
            b.1.wait_s
                .partial_cmp(&a.1.wait_s)
                .expect("finite wait times")
                .then(a.0.cmp(&b.0))
        });
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_and_skew() {
        let r = SimResult {
            time_s: 2.0,
            comm_time_s: 0.5,
            per_proc_time_s: vec![2.0, 1.0],
            ..SimResult::default()
        };
        assert!((r.comm_fraction() - 0.25).abs() < 1e-12);
        assert!((r.skew() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_time_is_safe() {
        let r = SimResult::default();
        assert_eq!(r.comm_fraction(), 0.0);
        assert_eq!(r.skew(), 0.0);
        assert_eq!(r.scalar("x"), None);
        assert!(r.array("a").is_none());
    }

    #[test]
    fn skew_of_empty_per_proc_list_is_zero() {
        // `min` folds to +inf on an empty list; skew must not return NaN
        // or infinity.
        let r = SimResult {
            time_s: 1.0,
            ..SimResult::default()
        };
        assert!(r.per_proc_time_s.is_empty());
        assert_eq!(r.skew(), 0.0);
        // All-zero clocks are equally safe.
        let z = SimResult {
            per_proc_time_s: vec![0.0, 0.0],
            ..SimResult::default()
        };
        assert_eq!(z.skew(), 0.0);
    }

    #[test]
    fn breakdown_total_sums_categories() {
        let b = ProcBreakdown {
            compute_s: 1.0,
            send_s: 0.5,
            recv_s: 0.25,
            wait_s: 0.125,
            sync_s: 0.0625,
            overhead_s: 0.03125,
        };
        assert!((b.total_s() - 1.96875).abs() < 1e-12);
    }

    #[test]
    fn top_transfers_sorted_by_wait_desc() {
        let mut r = SimResult::default();
        r.transfers.insert(
            0,
            TransferStats {
                wait_s: 0.1,
                ..Default::default()
            },
        );
        r.transfers.insert(
            1,
            TransferStats {
                wait_s: 0.9,
                ..Default::default()
            },
        );
        r.transfers.insert(
            2,
            TransferStats {
                wait_s: 0.9,
                ..Default::default()
            },
        );
        let top = r.top_transfers_by_wait();
        assert_eq!(
            top.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![1, 2, 0]
        );
    }
}
