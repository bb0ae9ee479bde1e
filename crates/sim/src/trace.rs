//! Opt-in execution tracing, stored by sweep.
//!
//! When a [`TraceHandle`] is installed in
//! [`SimConfig`](crate::SimConfig), the simulator reports every timeline
//! span it simulates — compute statements, scalar statements, reduction
//! joins, and each of the four IRONMAN calls of every executed transfer —
//! as a *sweep*: one [`SpanKind`] on all P processors, in processor order,
//! handed to the sink in one [`TraceSink::record_sweep`] call. With no
//! handle installed nothing is recorded and no clock behavior changes —
//! tracing is purely observational, so a traced run produces a
//! [`SimResult`](crate::SimResult) identical to an untraced one (asserted
//! by the test suite).
//!
//! [`Recorder`] keeps a run as a columnar [`Trace`]: one kind per sweep,
//! start and duration columns, and byte counts only for the spans that
//! moved bytes (DESIGN.md, "Trace storage"). [`Trace::iter`] unrolls it
//! into one [`TraceEvent`] per span, and [`chrome_trace`] renders it to
//! the Chrome `trace_event` JSON format, opened in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev): one process row per simulated
//! processor, with named, clickable transfer slices carrying byte counts.

use commopt_ir::{CallKind, Program};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

/// What one timeline span represents.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum SpanKind {
    /// Element-wise computation of an array assignment (target array index).
    Compute { array: u32 },
    /// A scalar statement's replicated computation (target scalar index).
    Scalar { scalar: u32 },
    /// The clock-joining combine tree of a reduction (target scalar index).
    Reduce { scalar: u32 },
    /// One IRONMAN call of a transfer.
    Comm { call: CallKind, transfer: u32 },
}

impl SpanKind {
    /// The Chrome trace category for the span.
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Compute { .. } | SpanKind::Scalar { .. } => "compute",
            SpanKind::Reduce { .. } => "reduce",
            SpanKind::Comm { .. } => "comm",
        }
    }
}

/// One per-processor timeline span, in simulated microseconds.
#[derive(Clone, PartialEq, Debug)]
pub struct TraceEvent {
    /// The processor whose timeline the span belongs to.
    pub proc: usize,
    /// Span start on the processor's clock, µs.
    pub start_us: f64,
    /// Span duration, µs. An IRONMAN call's span lasts at least the
    /// machine's guard overhead, which every call charges to every
    /// processor, even where the call moves nothing.
    pub dur_us: f64,
    pub kind: SpanKind,
    /// Message bytes this processor moved during the span (received at
    /// DR/DN, sent at SR; 0 for compute spans and no-op calls).
    pub bytes: u64,
}

/// Consumes the simulator's spans one sweep at a time.
///
/// A sweep is one span on every processor: span `p` is `kind` on
/// processor `p`, starting at `start_us[p]`, lasting `dur_us[p]` and
/// moving `bytes[p]` bytes (all three slices have one entry per
/// processor). Sweeps arrive in simulation order, which is statement
/// lockstep, not clock order, so spans are not sorted by `start_us`.
pub trait TraceSink {
    fn record_sweep(&mut self, kind: SpanKind, start_us: &[f64], dur_us: &[f64], bytes: &[u64]);
}

/// A recorded run: its spans stored by sweep, in columns.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Trace {
    /// Each sweep's kind and span count, in recording order.
    sweeps: Vec<(SpanKind, usize)>,
    /// Every span's start, µs, sweep after sweep.
    start_us: Vec<f64>,
    /// Every span's duration, µs, aligned with `start_us`.
    dur_us: Vec<f64>,
    /// `(span index, bytes)` for the spans that moved bytes, ascending.
    bytes: Vec<(usize, u64)>,
}

impl Trace {
    /// Number of spans.
    pub fn len(&self) -> usize {
        self.start_us.len()
    }

    pub fn is_empty(&self) -> bool {
        self.start_us.is_empty()
    }

    /// Every span as a [`TraceEvent`], sweep by sweep and in processor
    /// order within a sweep: the order the simulator produced them.
    pub fn iter(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        let mut moved = self.bytes.iter().peekable();
        self.sweeps
            .iter()
            .flat_map(|&(kind, n)| (0..n).map(move |proc| (kind, proc)))
            .zip(self.start_us.iter().zip(&self.dur_us))
            .enumerate()
            .map(
                move |(i, ((kind, proc), (&start_us, &dur_us)))| TraceEvent {
                    proc,
                    start_us,
                    dur_us,
                    kind,
                    bytes: moved.next_if(|&&(at, _)| at == i).map_or(0, |&(_, b)| b),
                },
            )
    }
}

impl TraceSink for Trace {
    fn record_sweep(&mut self, kind: SpanKind, start_us: &[f64], dur_us: &[f64], bytes: &[u64]) {
        assert!(
            start_us.len() == dur_us.len() && dur_us.len() == bytes.len(),
            "a sweep's columns must have one entry per processor"
        );
        let base = self.len();
        self.sweeps.push((kind, start_us.len()));
        self.start_us.extend_from_slice(start_us);
        self.dur_us.extend_from_slice(dur_us);
        for (p, &b) in bytes.iter().enumerate() {
            if b != 0 {
                self.bytes.push((base + p, b));
            }
        }
    }
}

/// An in-memory [`TraceSink`] with shared ownership: keep one clone and
/// install the other via [`SimConfig::with_trace`](crate::SimConfig::with_trace),
/// then read the [`Trace`] back after the run.
#[derive(Clone, Default)]
pub struct Recorder {
    trace: Rc<RefCell<Trace>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// A copy of every span recorded so far, as events.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.trace.borrow().iter().collect()
    }

    /// Drains the recorded trace, leaving the recorder empty.
    pub fn take(&self) -> Trace {
        std::mem::take(&mut *self.trace.borrow_mut())
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.trace.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.trace.borrow().is_empty()
    }
}

impl TraceSink for Recorder {
    fn record_sweep(&mut self, kind: SpanKind, start_us: &[f64], dur_us: &[f64], bytes: &[u64]) {
        self.trace
            .borrow_mut()
            .record_sweep(kind, start_us, dur_us, bytes);
    }
}

/// A clonable, type-erased handle to a [`TraceSink`], storable in
/// [`SimConfig`](crate::SimConfig) (which must stay `Clone + Debug`).
#[derive(Clone)]
pub struct TraceHandle(pub(crate) Rc<RefCell<dyn TraceSink>>);

impl TraceHandle {
    pub fn new(sink: impl TraceSink + 'static) -> TraceHandle {
        TraceHandle(Rc::new(RefCell::new(sink)))
    }
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TraceHandle(..)")
    }
}

/// The display name of a span: `compute A`, `reduce err`, `DN t3 [B@east]`.
pub fn span_name(kind: SpanKind, program: &Program) -> String {
    match kind {
        SpanKind::Compute { array } => {
            format!("compute {}", program.arrays[array as usize].name)
        }
        SpanKind::Scalar { scalar } => {
            format!("scalar {}", program.scalars[scalar as usize].name)
        }
        SpanKind::Reduce { scalar } => {
            format!("reduce {}", program.scalars[scalar as usize].name)
        }
        SpanKind::Comm { call, transfer } => {
            let t = &program.transfers[transfer as usize];
            let items: Vec<String> = t
                .items
                .iter()
                .map(|it| format!("{}{}", program.arrays[it.array.index()].name, it.offset))
                .collect();
            format!("{} t{} [{}]", call.name(), transfer, items.join("+"))
        }
    }
}

/// Renders a trace as a Chrome `trace_event` JSON array (the format
/// Perfetto and `chrome://tracing` open directly): one complete
/// (`"ph": "X"`) event per span, with `pid` = simulated processor and
/// timestamps in µs.
///
/// The output is deterministic: identical traces produce byte-identical
/// JSON.
pub fn chrome_trace(trace: &Trace, program: &Program) -> String {
    let n = trace.len();
    let mut out = String::with_capacity(n * 96 + 2);
    out.push_str("[\n");
    for (i, e) in trace.iter().enumerate() {
        let name = span_name(e.kind, program);
        let _ = write!(
            out,
            "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":0",
            json_string(&name),
            e.kind.category(),
            e.start_us,
            e.dur_us,
            e.proc,
        );
        match e.kind {
            SpanKind::Comm { call, transfer } => {
                let _ = write!(
                    out,
                    ",\"args\":{{\"transfer\":{transfer},\"call\":\"{}\",\"bytes\":{}}}",
                    call.name(),
                    e.bytes
                );
            }
            _ => {
                let _ = write!(out, ",\"args\":{{}}");
            }
        }
        out.push('}');
        if i + 1 < n {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out
}

/// Escapes a string as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use commopt_ir::offset::compass;
    use commopt_ir::{ProgramBuilder, Rect, TransferItem};

    fn tiny_program() -> Program {
        let mut b = ProgramBuilder::new("t");
        let bounds = Rect::d2((1, 4), (1, 4));
        let a = b.array("A", bounds);
        b.scalar("s", 0.0);
        b.assign(
            commopt_ir::Region::from_rect(bounds),
            a,
            commopt_ir::Expr::Const(1.0),
        );
        let mut p = b.finish();
        p.add_transfer(vec![TransferItem::new(
            a,
            compass::EAST,
            commopt_ir::Region::from_rect(bounds),
        )]);
        p
    }

    const DN0: SpanKind = SpanKind::Comm {
        call: CallKind::DN,
        transfer: 0,
    };

    /// The spans of one sweep, unrolled the way a per-span sink sees them.
    fn unrolled(kind: SpanKind, start: &[f64], dur: &[f64], bytes: &[u64]) -> Vec<TraceEvent> {
        (0..start.len())
            .map(|proc| TraceEvent {
                proc,
                start_us: start[proc],
                dur_us: dur[proc],
                kind,
                bytes: bytes[proc],
            })
            .collect()
    }

    #[test]
    fn recorder_collects_and_drains() {
        let rec = Recorder::new();
        let handle = TraceHandle::new(rec.clone());
        handle.0.borrow_mut().record_sweep(
            SpanKind::Compute { array: 0 },
            &[1.0, 1.5],
            &[2.0, 2.5],
            &[0, 0],
        );
        assert_eq!(rec.len(), 2);
        let trace = rec.take();
        assert_eq!(trace.len(), 2);
        assert!(rec.is_empty());
        assert!(rec.take().is_empty());
    }

    #[test]
    fn sweeps_unroll_to_per_span_events_with_edge_bytes() {
        // Bytes on the first and last processor of a sweep, on a middle
        // one only, on none, and on every one, across sweeps of
        // different widths.
        let sweeps = [
            (
                DN0,
                vec![0.0, 1.0, 2.0, 3.0],
                vec![0.5; 4],
                vec![7, 0, 0, 9],
            ),
            (
                SpanKind::Compute { array: 0 },
                vec![4.0; 4],
                vec![1.0, 2.0, 3.0, 4.0],
                vec![0; 4],
            ),
            (DN0, vec![5.0; 3], vec![0.25; 3], vec![0, 64, 0]),
            (
                SpanKind::Reduce { scalar: 0 },
                vec![6.0],
                vec![0.125],
                vec![0],
            ),
            (DN0, vec![7.0, 8.0], vec![0.1, 0.2], vec![1, u64::MAX]),
        ];
        let mut trace = Trace::default();
        let mut want = Vec::new();
        for (kind, start, dur, bytes) in &sweeps {
            trace.record_sweep(*kind, start, dur, bytes);
            want.extend(unrolled(*kind, start, dur, bytes));
        }
        assert_eq!(trace.len(), want.len());
        assert_eq!(trace.iter().collect::<Vec<_>>(), want);
        assert_eq!(
            trace.bytes.len(),
            5,
            "only spans that moved bytes are stored"
        );
        assert!(Trace::default().iter().next().is_none());
    }

    #[test]
    fn span_names_resolve_declarations() {
        let p = tiny_program();
        assert_eq!(span_name(SpanKind::Compute { array: 0 }, &p), "compute A");
        assert_eq!(span_name(SpanKind::Reduce { scalar: 0 }, &p), "reduce s");
        assert_eq!(
            span_name(
                SpanKind::Comm {
                    call: CallKind::DN,
                    transfer: 0
                },
                &p
            ),
            "DN t0 [A@east]"
        );
    }

    #[test]
    fn chrome_trace_is_valid_shape() {
        let p = tiny_program();
        let mut trace = Trace::default();
        trace.record_sweep(DN0, &[0.5, 0.5], &[1.5, 1.0], &[0, 64]);
        trace.record_sweep(
            SpanKind::Compute { array: 0 },
            &[2.0, 1.5],
            &[3.0, 3.0],
            &[0, 0],
        );
        let json = chrome_trace(&trace, &p);
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
        assert!(json.contains("\"name\":\"DN t0 [A@east]\""));
        assert!(json.contains("\"bytes\":64"));
        assert!(json.contains("\"pid\":1"));
    }

    #[test]
    fn chrome_trace_is_deterministic() {
        let p = tiny_program();
        let mut trace = Trace::default();
        trace.record_sweep(SpanKind::Scalar { scalar: 0 }, &[0.125], &[2.25], &[0]);
        assert_eq!(chrome_trace(&trace, &p), chrome_trace(&trace, &p));
    }

    #[test]
    fn json_strings_escape_specials() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\ny\"");
    }
}
