//! Run accounting: the processor clocks and everything derived from them.
//!
//! The engine moves a clock only through a [`Ledger`] method, and each
//! method books its movement once for every consumer: the per-processor
//! breakdown, the per-transfer stats, the counting processor's totals, the
//! trace spans and the deep metrics. Every clock advance is a charge or a
//! wait, so a processor's categories sum to its clock up to float rounding
//! (DESIGN.md, "Run accounting").

use crate::metrics::{Histogram, ProcBreakdown, RunMetrics, SimResult, TransferStats};
use crate::trace::{SpanKind, TraceHandle};
use crate::SimConfig;
use commopt_ir::{CallKind, TransferId};
use commopt_machine::{ProcGrid, ProcId};

/// The breakdown category a charge books to; waits book to `wait_s`
/// through [`Ledger::wait_until`] alone, and computation to `compute_s`
/// through [`Ledger::compute_all`] alone.
#[derive(Clone, Copy)]
pub(crate) enum Cat {
    Send,
    Recv,
    Sync,
    Overhead,
}

/// The trace side of the ledger, present only while a sink is installed.
/// Each sweep's columns are filled in place and reach the sink in one
/// call.
struct Tracer {
    sink: TraceHandle,
    /// Every processor's clock when the current sweep began.
    start: Vec<f64>,
    /// Every processor's span duration in the current sweep.
    dur: Vec<f64>,
    /// Bytes each processor moved during the current call; all zero
    /// outside a call.
    bytes: Vec<u64>,
}

impl Tracer {
    /// Hands the sink one sweep of `kind` from `start`, lasting `dur`.
    fn sweep(&self, kind: SpanKind, dur: &[f64]) {
        self.sink
            .0
            .borrow_mut()
            .record_sweep(kind, &self.start, dur, &self.bytes);
    }

    /// Sets each span's duration to `clocks[p] - start[p]` and hands the
    /// sweep to the sink.
    fn close(&mut self, kind: SpanKind, clocks: &[f64]) {
        for ((d, &s), &c) in self.dur.iter_mut().zip(&self.start).zip(clocks) {
            *d = c - s;
        }
        self.sweep(kind, &self.dur);
    }
}

/// The deep-metrics side of the ledger, present only when configured. Its
/// counters and call histograms reach the registry once, at the end.
struct Meter {
    metrics: RunMetrics,
    bandwidth_mb_s: f64,
    messages: u64,
    bytes: u64,
    /// Call latencies on the counting processor, ns, in `CallKind` order.
    calls: [Histogram; 4],
}

/// The clocks of a run and every account kept of them, in µs.
#[derive(Default)]
pub(crate) struct Ledger {
    clocks: Vec<f64>,
    cats: Vec<ProcBreakdown>,
    xfer: Vec<TransferStats>,
    /// The processor whose view the scalar result fields report.
    count_proc: ProcId,
    data_transfers: u64,
    bytes_received: u64,
    max_message_bytes: u64,
    comm_us: f64,
    reductions: u64,
    /// The counting processor's clock when the current call began.
    call_start: f64,
    trace: Option<Tracer>,
    meter: Option<Meter>,
}

impl Ledger {
    pub(crate) fn new(grid: ProcGrid, transfers: usize, cfg: &SimConfig) -> Ledger {
        let n = grid.len();
        Ledger {
            clocks: vec![0.0; n],
            cats: vec![ProcBreakdown::default(); n],
            xfer: vec![TransferStats::default(); transfers],
            count_proc: grid.interior_proc(),
            trace: cfg.trace.clone().map(|sink| Tracer {
                sink,
                start: vec![0.0; n],
                dur: vec![0.0; n],
                bytes: vec![0; n],
            }),
            meter: cfg.metrics.then(|| Meter {
                metrics: RunMetrics::new(grid),
                bandwidth_mb_s: cfg.machine.costs(cfg.library).bandwidth_mb_s,
                messages: 0,
                bytes: 0,
                calls: Default::default(),
            }),
            ..Ledger::default()
        }
    }

    #[inline]
    pub(crate) fn clock(&self, p: ProcId) -> f64 {
        self.clocks[p]
    }

    pub(crate) fn clocks(&self) -> &[f64] {
        &self.clocks
    }

    pub(crate) fn max_clock(&self) -> f64 {
        self.clocks.iter().copied().fold(0.0_f64, f64::max)
    }

    pub(crate) fn counting_clock(&self) -> f64 {
        self.clocks[self.count_proc]
    }

    /// The paper's dynamic communication count: DN calls executed.
    pub(crate) fn dynamic_comm(&self) -> u64 {
        self.xfer.iter().map(|s| s.executions).sum()
    }

    /// Advances `p`'s clock by `dt`, booked to `cat`.
    #[inline]
    pub(crate) fn charge(&mut self, p: ProcId, cat: Cat, dt: f64) {
        self.clocks[p] += dt;
        *self.category(p, cat) += dt;
    }

    /// Advances `p`'s clock by `a.1 + b.1` in one addition, booking each
    /// part to its own category: one cost the model adds as a single sum.
    pub(crate) fn charge_split(&mut self, p: ProcId, a: (Cat, f64), b: (Cat, f64)) {
        self.clocks[p] += a.1 + b.1;
        *self.category(p, a.0) += a.1;
        *self.category(p, b.0) += b.1;
    }

    #[inline]
    fn category(&mut self, p: ProcId, cat: Cat) -> &mut f64 {
        let b = &mut self.cats[p];
        match cat {
            Cat::Send => &mut b.send_s,
            Cat::Recv => &mut b.recv_s,
            Cat::Sync => &mut b.sync_s,
            Cat::Overhead => &mut b.overhead_s,
        }
    }

    /// Charges every processor `p` its computation `dt[p]` in one pass,
    /// tracing each as `span` when one is given and a sink is installed.
    pub(crate) fn compute_all(&mut self, dt: &[f64], span: Option<SpanKind>) {
        let mut tracer = self.trace.as_mut().zip(span);
        if let Some((t, _)) = &mut tracer {
            t.start.copy_from_slice(&self.clocks);
        }
        for ((clock, cats), &dt) in self.clocks.iter_mut().zip(&mut self.cats).zip(dt) {
            *clock += dt;
            cats.compute_s += dt;
        }
        if let Some((t, kind)) = tracer {
            t.sweep(kind, dt);
        }
    }

    /// Blocks `p` until time `t` (a no-op when its clock is already past
    /// it), booking the gap as wait; returns the time waited. The only
    /// place a clock joins another time.
    #[inline]
    pub(crate) fn wait_until(&mut self, p: ProcId, t: f64) -> f64 {
        let ready = self.clocks[p].max(t);
        let waited = ready - self.clocks[p];
        self.cats[p].wait_s += waited;
        self.clocks[p] = ready;
        waited
    }

    /// A reduction's combine tree: a barrier joining every clock at the
    /// latest one, then `combine` of synchronization.
    pub(crate) fn reduce(&mut self, combine: f64, scalar: u32) {
        let max = self.max_clock();
        if let Some(t) = &mut self.trace {
            t.start.copy_from_slice(&self.clocks);
        }
        for p in 0..self.clocks.len() {
            self.wait_until(p, max);
            self.charge(p, Cat::Sync, combine);
        }
        if let Some(t) = &mut self.trace {
            t.close(SpanKind::Reduce { scalar }, &self.clocks);
        }
        self.reductions += 1;
    }

    /// Notes `bytes` moved by `p` in the current call (trace spans only).
    #[inline]
    pub(crate) fn moved(&mut self, p: ProcId, bytes: u64) {
        if let Some(t) = &mut self.trace {
            t.bytes[p] += bytes;
        }
    }

    /// One message injected by `from` for `to`. Link busy time is the
    /// Figure 3 wire term only, `bytes / bandwidth` (MB/s ≡ bytes/µs),
    /// never wall-clock, which would double-count sender-side waits (see
    /// DESIGN.md).
    #[inline]
    pub(crate) fn message(&mut self, from: ProcId, to: ProcId, bytes: u64) {
        self.moved(from, bytes);
        if let Some(m) = &mut self.meter {
            m.messages += 1;
            m.bytes += bytes;
            let busy_us = bytes as f64 / m.bandwidth_mb_s;
            m.metrics.mesh.record_message(from, to, bytes, busy_us);
        }
    }

    /// A message of transfer `tid` retired by `p` at DN, after `waited` µs
    /// blocked on its arrival.
    #[inline]
    pub(crate) fn receive(&mut self, tid: TransferId, p: ProcId, bytes: u64, waited: f64) {
        self.moved(p, bytes);
        let st = &mut self.xfer[tid.index()];
        st.wait_s += waited;
        st.bytes += bytes;
        st.max_message_bytes = st.max_message_bytes.max(bytes);
        if p == self.count_proc {
            self.data_transfers += 1;
            self.bytes_received += bytes;
            self.max_message_bytes = self.max_message_bytes.max(bytes);
        }
    }

    /// Opens an IRONMAN call: counts a DN and marks where its spans begin.
    pub(crate) fn begin_call(&mut self, kind: CallKind, tid: TransferId) {
        if kind == CallKind::DN {
            self.xfer[tid.index()].executions += 1;
        }
        self.call_start = self.clocks[self.count_proc];
        if let Some(t) = &mut self.trace {
            t.start.copy_from_slice(&self.clocks);
        }
    }

    /// Closes the call: the counting processor's time in it is
    /// communication and one latency sample; the call is one sweep.
    pub(crate) fn end_call(&mut self, kind: CallKind, tid: TransferId) {
        let dt = self.clocks[self.count_proc] - self.call_start;
        self.comm_us += dt;
        if let Some(m) = &mut self.meter {
            // Whole nanoseconds, so the histogram is exact and the perf
            // snapshot serializes identically across platforms.
            m.calls[kind as usize].record((dt * 1e3).round() as u64);
        }
        if let Some(t) = &mut self.trace {
            let call = SpanKind::Comm {
                call: kind,
                transfer: tid.0,
            };
            t.close(call, &self.clocks);
            t.bytes.fill(0);
        }
    }

    /// The accounting fields of the run's result, in seconds; the caller
    /// fills in scalars, arrays and fault statistics.
    pub(crate) fn finish(mut self) -> SimResult {
        let time_s = self.max_clock() / 1e6;
        for s in &mut self.xfer {
            s.wait_s /= 1e6;
        }
        SimResult {
            time_s,
            per_proc_time_s: self.clocks.iter().map(|c| c / 1e6).collect(),
            dynamic_comm: self.dynamic_comm(),
            data_transfers: self.data_transfers,
            bytes_received: self.bytes_received,
            max_message_bytes: self.max_message_bytes,
            comm_time_s: self.comm_us / 1e6,
            compute_time_s: self.cats[self.count_proc].compute_s / 1e6,
            reductions: self.reductions,
            per_proc: self
                .cats
                .iter()
                .map(|c| ProcBreakdown {
                    compute_s: c.compute_s / 1e6,
                    send_s: c.send_s / 1e6,
                    recv_s: c.recv_s / 1e6,
                    wait_s: c.wait_s / 1e6,
                    sync_s: c.sync_s / 1e6,
                    overhead_s: c.overhead_s / 1e6,
                })
                .collect(),
            transfers: (0..).zip(self.xfer).collect(),
            metrics: self.meter.map(|m| m.finish(time_s * 1e6)),
            ..SimResult::default()
        }
    }
}

impl Meter {
    /// Writes the counters, call histograms and mesh gauges into the
    /// registry. A counter or histogram the run never touched stays absent.
    fn finish(self, dur_us: f64) -> RunMetrics {
        let mut m = self.metrics;
        if self.messages > 0 {
            m.registry.inc("comm.messages", self.messages);
            m.registry.inc("comm.bytes", self.bytes);
        }
        for (kind, h) in CallKind::QUAD.into_iter().zip(self.calls) {
            if !h.is_empty() {
                *m.registry.hist_mut(RunMetrics::call_hist_name(kind)) = h;
            }
        }
        m.registry.inc("comm.hops", m.mesh.total_hops());
        let hotspot_busy_us = m.mesh.hotspot().map(|(_, s)| s.busy_us).unwrap_or(0.0);
        m.registry
            .set_gauge("mesh.max_utilization", m.mesh.max_utilization(dur_us));
        m.registry
            .set_gauge("mesh.hotspot_busy_us", hotspot_busy_us);
        m
    }
}
