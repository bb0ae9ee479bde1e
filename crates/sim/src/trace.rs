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
//! [`Recorder`] keeps a run as a [`Trace`] that stores each sweep by what
//! it says: no starts when every span starts where the processor's
//! previous span ended, and each of its duration and byte-count columns
//! as one value, a reference to an equal earlier column, two values and
//! a bitmask, or in full (DESIGN.md, "Trace storage"). [`Trace::iter`] unrolls it, bit for bit, into one
//! [`TraceEvent`] per span, and [`chrome_trace`] renders it to
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

/// How one column of a sweep is stored in [`Trace`]'s words.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Col {
    /// One value, every span's.
    Uniform,
    /// One word: where an earlier, equal column starts in the words.
    Repeat,
    /// Two values, then one bit per span, 64 to a word: set where the span
    /// holds the second.
    Two,
    /// One value per span.
    Raw,
}

/// The slot of a span kind in [`Trace`]'s tables of last stored columns.
fn slot(kind: SpanKind) -> usize {
    let (id, k) = match kind {
        SpanKind::Compute { array } => (array, 0),
        SpanKind::Scalar { scalar } => (scalar, 1),
        SpanKind::Reduce { scalar } => (scalar, 2),
        SpanKind::Comm { call, transfer } => (transfer, 3 + call as usize),
    };
    id as usize * 7 + k
}

/// One sweep's header: what it records and how its values are stored.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Sweep {
    kind: SpanKind,
    width: u32,
    /// `false` when every span starts where the same processor's span in
    /// the previous sweep ended: at its `start + dur`, bit for bit. Then
    /// no start is stored.
    starts: bool,
    dur: Col,
    bytes: Col,
}

/// A recorded run: its spans stored by sweep, each sweep by what it says
/// (DESIGN.md, "Trace storage").
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Trace {
    /// Every sweep's header, in recording order.
    sweeps: Vec<Sweep>,
    /// Every sweep's stored values as bit patterns, sweep after sweep:
    /// its starts (when stored), its durations, then its bytes.
    words: Vec<u64>,
    /// Number of spans.
    spans: usize,
    /// Encoder state: every span's `start + dur` in the last sweep.
    ends: Vec<f64>,
    /// Encoder state: per span kind ([`slot`]), where the last raw
    /// duration and bytes columns stored for it start in `words`.
    last_dur: Vec<usize>,
    last_bytes: Vec<usize>,
}

/// Appends one column of a sweep to `words` in its smallest form: its one
/// value when `uniform`; else where it is already stored, when it equals
/// the column at `*last` (the last one stored raw for the sweep's kind);
/// else its two values and a bit per span, when it holds two; else the
/// column itself, whose start then becomes `*last`.
fn put_column(
    words: &mut Vec<u64>,
    last: &mut usize,
    column: impl ExactSizeIterator<Item = u64> + Clone,
    uniform: bool,
) -> Col {
    let width = column.len();
    let mut rest = column.clone();
    let first = match rest.next() {
        None => return Col::Raw,
        Some(v) if uniform => {
            words.push(v);
            return Col::Uniform;
        }
        Some(v) => v,
    };
    let earlier = words.get(*last..).and_then(|w| w.get(..width));
    if earlier.is_some_and(|e| e.iter().copied().eq(column.clone())) {
        words.push(*last as u64);
        return Col::Repeat;
    }
    let base = words.len();
    if 2 + width.div_ceil(64) < width {
        let second = rest.find(|&v| v != first).unwrap_or(first);
        words.extend([first, second]);
        let (mut two, mut bits) = (true, 0);
        for (p, v) in column.clone().enumerate() {
            two &= (v == first) | (v == second);
            bits |= u64::from(v == second) << (p % 64);
            if p % 64 == 63 || p + 1 == width {
                words.push(bits);
                bits = 0;
            }
        }
        if two {
            return Col::Two;
        }
        words.truncate(base);
    }
    *last = base;
    words.extend(column);
    Col::Raw
}

/// Reads column `col` of `width` values from `words` at `*at` into `out`,
/// advancing `*at` past it.
fn unpack(col: Col, width: usize, words: &[u64], at: &mut usize, out: &mut Vec<u64>) {
    out.clear();
    match col {
        Col::Uniform => {
            out.resize(width, words[*at]);
            *at += 1;
        }
        Col::Two => {
            let (first, second) = (words[*at], words[*at + 1]);
            let bits = &words[*at + 2..*at + 2 + width.div_ceil(64)];
            out.extend((0..width).map(|p| {
                if (bits[p / 64] >> (p % 64)) & 1 == 1 {
                    second
                } else {
                    first
                }
            }));
            *at += 2 + bits.len();
        }
        Col::Repeat => {
            let earlier = words[*at] as usize;
            out.extend_from_slice(&words[earlier..earlier + width]);
            *at += 1;
        }
        Col::Raw => {
            out.extend_from_slice(&words[*at..*at + width]);
            *at += width;
        }
    }
}

impl Trace {
    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans
    }

    pub fn is_empty(&self) -> bool {
        self.spans == 0
    }

    /// Every span as a [`TraceEvent`], sweep by sweep and in processor
    /// order within a sweep: the order the simulator produced them.
    pub fn iter(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        Spans {
            trace: self,
            next: 0,
            at: 0,
            proc: 0,
            start: Vec::new(),
            dur: Vec::new(),
            bytes: Vec::new(),
        }
    }

    /// Bytes the trace stores: every sweep's header and stored word.
    #[cfg(test)]
    pub(crate) fn stored_bytes(&self) -> usize {
        std::mem::size_of_val(self.sweeps.as_slice()) + std::mem::size_of_val(self.words.as_slice())
    }
}

/// [`Trace::iter`]: decodes one sweep at a time into its three columns.
struct Spans<'a> {
    trace: &'a Trace,
    /// The next sweep to decode.
    next: usize,
    /// The next stored word to read.
    at: usize,
    /// The next span of the decoded sweep.
    proc: usize,
    /// The decoded sweep's columns, as bit patterns.
    start: Vec<u64>,
    dur: Vec<u64>,
    bytes: Vec<u64>,
}

impl Iterator for Spans<'_> {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        while self.proc == self.start.len() {
            let s = self.trace.sweeps.get(self.next)?;
            let (width, words) = (s.width as usize, &self.trace.words);
            if s.starts {
                unpack(Col::Raw, width, words, &mut self.at, &mut self.start);
            } else {
                // The same addition the encoder checked, so the same bits.
                for (start, &dur) in self.start.iter_mut().zip(&self.dur) {
                    *start = (f64::from_bits(*start) + f64::from_bits(dur)).to_bits();
                }
            }
            unpack(s.dur, width, words, &mut self.at, &mut self.dur);
            unpack(s.bytes, width, words, &mut self.at, &mut self.bytes);
            self.next += 1;
            self.proc = 0;
        }
        let (p, kind) = (self.proc, self.trace.sweeps[self.next - 1].kind);
        self.proc += 1;
        Some(TraceEvent {
            proc: p,
            start_us: f64::from_bits(self.start[p]),
            dur_us: f64::from_bits(self.dur[p]),
            kind,
            bytes: self.bytes[p],
        })
    }
}

impl TraceSink for Trace {
    /// Encodes the sweep in one pass over its processors, which finds
    /// whether each start is the previous sweep's `start + dur` and which
    /// columns hold one value. A column that varies is then compared with
    /// the last one stored raw for the same kind of span, then tested for
    /// two values, and copied only when neither holds; starts that do not
    /// chain are copied.
    fn record_sweep(&mut self, kind: SpanKind, start_us: &[f64], dur_us: &[f64], bytes: &[u64]) {
        assert!(
            start_us.len() == dur_us.len() && dur_us.len() == bytes.len(),
            "a sweep's columns must have one entry per processor"
        );
        let width = start_us.len();
        let chained = self.ends.len() == width;
        if !chained {
            self.ends.clear();
            self.ends.resize(width, 0.0);
        }
        let d0 = dur_us.first().map_or(0, |d| d.to_bits());
        let b0 = bytes.first().copied().unwrap_or(0);
        // Bits that differ: from the chained start, and from the first
        // duration and byte count.
        let (mut broken, mut dur_varies, mut bytes_vary) = (0, 0, 0);
        let mut nan = false;
        for (((end, &s), &d), &b) in self.ends.iter_mut().zip(start_us).zip(dur_us).zip(bytes) {
            broken |= end.to_bits() ^ s.to_bits();
            nan |= s.is_nan();
            *end = s + d;
            dur_varies |= d.to_bits() ^ d0;
            bytes_vary |= b ^ b0;
        }
        // A NaN sum is never trusted to repeat its payload.
        let derived = chained && broken == 0 && !nan;
        if !derived {
            self.words.extend(start_us.iter().map(|s| s.to_bits()));
        }
        let k = slot(kind);
        if k >= self.last_dur.len() {
            self.last_dur.resize(k + 1, usize::MAX);
            self.last_bytes.resize(k + 1, usize::MAX);
        }
        let dur = put_column(
            &mut self.words,
            &mut self.last_dur[k],
            dur_us.iter().map(|d| d.to_bits()),
            dur_varies == 0,
        );
        let bytes = put_column(
            &mut self.words,
            &mut self.last_bytes[k],
            bytes.iter().copied(),
            bytes_vary == 0,
        );
        self.sweeps.push(Sweep {
            kind,
            width: u32::try_from(width).expect("a sweep's width fits in u32"),
            starts: !derived,
            dur,
            bytes,
        });
        self.spans += width;
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
    use commopt_testkit::Rng;

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
            trace.sweeps.iter().map(|s| s.bytes).collect::<Vec<_>>(),
            [Col::Raw, Col::Uniform, Col::Raw, Col::Uniform, Col::Raw],
            "a sweep that moves no bytes stores one word for them"
        );
        assert!(Trace::default().iter().next().is_none());
    }

    /// A value from the edges of `f64`: signed zeros, NaN payloads,
    /// infinities, subnormals and the largest finite value, or an ordinary
    /// one.
    fn edge_f64(rng: &mut Rng) -> f64 {
        *rng.pick(&[
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(0x7ff8_0000_0000_0001),
            f64::from_bits(0xfff4_0000_0000_00ff),
            f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0,
            f64::MAX,
            0.1,
            0.2,
            1.5,
        ])
    }

    /// A column of `w` values in one of five shapes: uniform, a few
    /// distinct values, all distinct, edge values, or a prefix of an
    /// `earlier` column, sometimes with one value changed. Returns it
    /// after adding it to `earlier`.
    fn column(
        rng: &mut Rng,
        w: usize,
        ordinary: fn(&mut Rng) -> u64,
        earlier: &mut Vec<Vec<u64>>,
    ) -> Vec<u64> {
        let long: Vec<&Vec<u64>> = earlier.iter().filter(|c| c.len() >= w).collect();
        let col: Vec<u64> = match rng.usize(0, 4) {
            0 => vec![ordinary(rng); w],
            1 => {
                let pool = rng.vec_of(2, 8, ordinary);
                (0..w).map(|_| *rng.pick(&pool)).collect()
            }
            2 => (0..w).map(|_| ordinary(rng)).collect(),
            3 => (0..w).map(|_| edge_f64(rng).to_bits()).collect(),
            _ if long.is_empty() => vec![ordinary(rng); w],
            _ => {
                let mut col = rng.pick(&long)[..w].to_vec();
                if w > 0 && rng.bool() {
                    col[rng.usize(0, w - 1)] ^= 1;
                }
                col
            }
        };
        earlier.push(col.clone());
        col
    }

    fn f64s(bits: &[u64]) -> Vec<f64> {
        bits.iter().map(|&b| f64::from_bits(b)).collect()
    }

    /// Asserts that `trace` unrolls to `want`, comparing times by bits.
    fn assert_bitwise(trace: &Trace, want: &[TraceEvent]) {
        assert_eq!(trace.len(), want.len());
        let got: Vec<TraceEvent> = trace.iter().collect();
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.proc == w.proc
                    && g.kind == w.kind
                    && g.bytes == w.bytes
                    && g.start_us.to_bits() == w.start_us.to_bits()
                    && g.dur_us.to_bits() == w.dur_us.to_bits(),
                "span {i}: got {g:?}, want {w:?}"
            );
        }
    }

    #[test]
    fn random_sweeps_round_trip_bit_for_bit() {
        commopt_testkit::cases(200, |rng| {
            let mut trace = Trace::default();
            let mut want = Vec::new();
            let mut w = rng.usize(0, 70);
            let (mut start, mut dur) = (Vec::new(), Vec::new());
            let mut earlier = Vec::new();
            for _ in 0..rng.usize(1, 40) {
                let derivable = start.len() == w && rng.usize(0, 3) > 0;
                if !derivable && rng.usize(0, 5) == 0 {
                    w = rng.usize(0, 70);
                }
                start = if derivable {
                    // Every start where the previous span ended, sometimes
                    // with one flipped in its last bit or its sign.
                    let mut s: Vec<f64> = start.iter().zip(&dur).map(|(s, d)| s + d).collect();
                    if w > 0 && rng.bool() {
                        let q = rng.usize(0, w - 1);
                        let flip = *rng.pick(&[1, 1 << 63]);
                        s[q] = f64::from_bits(s[q].to_bits() ^ flip);
                    }
                    s
                } else {
                    f64s(&column(rng, w, |r| (r.f64() * 1e3).to_bits(), &mut earlier))
                };
                dur = f64s(&column(rng, w, |r| r.f64().to_bits(), &mut earlier));
                let bytes = column(
                    rng,
                    w,
                    |r| {
                        let any = r.next_u64();
                        *r.pick(&[0, 8, 640, u64::MAX, any])
                    },
                    &mut earlier,
                );
                let kind = *rng.pick(&[DN0, SpanKind::Compute { array: 1 }]);
                trace.record_sweep(kind, &start, &dur, &bytes);
                want.extend(unrolled(kind, &start, &dur, &bytes));
            }
            assert_bitwise(&trace, &want);
        });
    }

    #[test]
    fn starts_are_stored_only_when_some_processor_breaks_the_chain() {
        let dur = [0.1, 0.2, 0.0];
        let chain = |s: [f64; 3]| [s[0] + dur[0], s[1] + dur[1], s[2] + dur[2]];
        // The first sweep; a chained one, whose starts round
        // (0.2 + 0.1 = 0.30000000000000004); one whose last start is -0.0
        // where the chain gives 0.0; and a chained one again.
        let first = [0.2, 0.1, 0.0];
        let mut third = chain(chain(first));
        third[2] = -0.0;
        let mut trace = Trace::default();
        let mut want = Vec::new();
        for start in [first, chain(first), third, chain(third)] {
            trace.record_sweep(DN0, &start, &dur, &[0; 3]);
            want.extend(unrolled(DN0, &start, &dur, &[0; 3]));
        }
        assert_eq!(
            trace.sweeps.iter().map(|s| s.starts).collect::<Vec<_>>(),
            [true, false, true, false]
        );
        assert_bitwise(&trace, &want);
    }

    /// Stored bytes per span of SP's and SIMPLE's `pl` cells on 64 T3D
    /// processors, at the paper's grids and 1/16 of their iterations: a
    /// deterministic count that fails on a regression in the layout
    /// without timing anything. They store 0.92 and 2.14; as plain
    /// columns with `(span, bytes)` pairs they stored 16.7 and 21.6.
    #[test]
    fn paper_cells_store_under_three_bytes_per_span() {
        use crate::{Recorder, SimConfig, Simulator};
        use commopt_core::{optimize, OptConfig};
        use commopt_ironman::Library;
        use commopt_machine::MachineSpec;
        let sources = [
            include_str!("../../benchmarks/programs/sp.zpl"),
            include_str!("../../benchmarks/programs/simple.zpl"),
        ];
        for source in sources {
            let declared = commopt_lang::parser::parse(source).expect("parses").configs;
            let iters = declared.iter().find(|c| c.name == "iters").expect("iters");
            let program = commopt_lang::Frontend::new(source)
                .with_config("iters", (iters.value / 16).max(1))
                .compile()
                .expect("compiles");
            let opt = optimize(&program, &OptConfig::pl());
            let rec = Recorder::new();
            let cfg =
                SimConfig::timing(MachineSpec::t3d(), Library::Pvm, 64).with_trace(rec.clone());
            Simulator::new(&opt.program, cfg).run();
            let trace = rec.take();
            let per_span = trace.stored_bytes() as f64 / trace.len() as f64;
            assert!(
                per_span < 3.0,
                "{}: {} spans store {per_span:.3} bytes each",
                program.name,
                trace.len()
            );
        }
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
