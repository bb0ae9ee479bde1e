//! Performance snapshots and the regression gate.
//!
//! A **snapshot** is one run of every benchmark × experiment
//! ({vect, rr, cc, pl}) × machine (T3D over PVM, Paragon over NX
//! `csend`/`crecv`) with deep metrics enabled, captured as a versioned
//! JSON document (`BENCH_<rev>.json`): per-experiment static/dynamic
//! counts, simulated times, per-IRONMAN-call latency histogram summaries,
//! mesh link hotspots, and the optimizer's wall-clock.
//!
//! Every row metric is declared once, in [`METRICS`], with its [`Gate`];
//! the writer, the reader, [`diff`] and [`Snapshot::strip_volatile`] all
//! iterate that table, and only `collect_row` knows how each value is
//! read from a run.
//!
//! Snapshots are **deterministic**: every field except the four wall
//! clocks (the header's `wall_us` and `cells_wall_us`, each row's
//! `opt_wall_us` and `cell_wall_us`) is a pure function of the code, so
//! two runs of the same build serialize byte-identically after
//! [`Snapshot::strip_volatile`]. That is what makes the committed baseline
//! (`results/BENCH_baseline.json`) a regression gate: [`diff`] compares
//! two snapshots metric-by-metric — counts must match exactly, times and
//! utilizations may drift within a relative threshold, wall-clock is
//! informational — and the `perfdiff` binary exits nonzero when anything
//! moves past its threshold.
//!
//! The writer serializes histograms compactly — non-zero `(bucket, count)`
//! pairs only — and the reader rebuilds them through
//! [`Histogram::from_parts`], so the whole document round-trips through
//! the zero-dependency parser in [`crate::json`].

use crate::json::{self, Json};
use crate::matrix::{levels, Key, Sizing};
use crate::{library_tag, machine_for};
use commopt_benchmarks::Experiment;
use commopt_core::optimize;
use commopt_ironman::Library;
use commopt_sim::trace::json_string;
use commopt_sim::{Histogram, SimConfig, Simulator};
use commopt_testkit::pool::Pool;

/// Bumped whenever the snapshot format changes incompatibly; `perfdiff`
/// refuses to compare documents with different schemas.
pub const SCHEMA_VERSION: u64 = 1;

/// Problem sizing of a snapshot run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// CI sizing: tiny grids, 4 processors — seconds, not minutes.
    Quick,
    /// Development default: moderate grids, 16 processors.
    Standard,
    /// The paper's problem sizes and 64-processor partition.
    Paper,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Quick => "quick",
            Mode::Standard => "standard",
            Mode::Paper => "paper",
        }
    }

    /// The cells' sizing.
    pub fn sizing(self) -> Sizing {
        match self {
            Mode::Quick => Sizing::QUICK,
            Mode::Standard => Sizing::STANDARD,
            Mode::Paper => Sizing::Paper,
        }
    }
}

/// Every row metric, in snapshot order: its JSON field name and how
/// [`diff`] gates it. Counts are [`Gate::Exact`] and read back only as
/// non-negative integers; an integer-valued `f64` prints without a
/// fraction, so they also write as integers. The [`Gate::Informational`]
/// wall clocks are the volatile ones: they come last, after
/// `hotspot_link`. `collect_row` fills [`PerfRow::values`] in this order.
pub const METRICS: [(&str, Gate); 12] = [
    ("static_count", Gate::Exact),
    ("dynamic_count", Gate::Exact),
    ("reductions", Gate::Exact),
    ("time_s", Gate::Relative),
    ("comm_time_s", Gate::Relative),
    ("messages", Gate::Exact),
    ("bytes", Gate::Exact),
    ("hops", Gate::Exact),
    ("max_utilization", Gate::Relative),
    ("hotspot_busy_us", Gate::Relative),
    // Optimizer wall-clock, µs.
    ("opt_wall_us", Gate::Informational),
    // Whole-cell harness wall-clock (optimize + simulate + metric
    // extraction), µs; summed across rows it is the serial-equivalent
    // cost of the matrix.
    ("cell_wall_us", Gate::Informational),
];

/// Index of `cell_wall_us` in [`METRICS`].
const CELL_WALL: usize = METRICS.len() - 1;

/// One serialized histogram: the compact non-zero buckets plus exact
/// extremes (enough to rebuild the [`Histogram`]) and its derived summary
/// fields for human readers.
#[derive(Clone, PartialEq, Debug)]
pub struct HistEntry {
    pub name: String,
    pub hist: Histogram,
}

/// One benchmark × experiment × machine measurement.
#[derive(Clone, PartialEq, Debug)]
pub struct PerfRow {
    pub bench: String,
    pub exp: String,
    pub machine: String,
    pub library: String,
    pub procs: u64,
    /// The [`METRICS`] values, in table order.
    pub values: [f64; METRICS.len()],
    /// The busiest directed link, as `p<from>->p<to>`; absent when the run
    /// moved no data.
    pub hotspot_link: Option<String>,
    /// Per-IRONMAN-call latency histograms, name-ordered.
    pub hists: Vec<HistEntry>,
}

impl PerfRow {
    /// The row's identity within a snapshot.
    pub fn key(&self) -> String {
        format!("{}/{}/{}", self.bench, self.exp, self.machine)
    }
}

/// A full perf snapshot: header plus one [`PerfRow`] per cell.
#[derive(Clone, PartialEq, Debug)]
pub struct Snapshot {
    pub schema: u64,
    /// Source revision the snapshot was taken at (informational).
    pub rev: String,
    pub mode: String,
    /// The grid size and iteration count of the mode's sizing; both 0 at
    /// the paper's sizing, where each benchmark uses its own.
    pub size: u64,
    pub iters: u64,
    /// Harness wall-clock for the whole matrix, µs. Volatile and
    /// informational — the only field that reflects the worker count.
    pub wall_us: f64,
    /// Sum of the rows' `cell_wall_us`, µs: what a single worker would
    /// have spent. Volatile; `cells_wall_us / wall_us` is the harness
    /// speedup (see [`Snapshot::speedup`]).
    pub cells_wall_us: f64,
    pub rows: Vec<PerfRow>,
}

impl Snapshot {
    /// Runs the whole matrix — every benchmark in Figure 7 order at every
    /// optimization level, on the T3D (PVM) and the Paragon (NX
    /// `csend`/`crecv`) — with metrics enabled, and collects the rows.
    ///
    /// The matrix cells are independent, so they fan out over `jobs`
    /// worker threads; rows are collected by cell index, so every worker
    /// count yields the same snapshot (byte-identical after
    /// [`Snapshot::strip_volatile`]).
    pub fn collect(mode: Mode, rev: &str, jobs: usize) -> Snapshot {
        let sizing = mode.sizing();
        let (size, iters) = match sizing {
            Sizing::Grid(n, iters, _) => (n as u64, iters as u64),
            _ => (0, 0),
        };
        let t0 = std::time::Instant::now();
        let keys = levels(sizing, &[Library::Pvm, Library::NxSync]);
        let rows = Pool::new(jobs).map(keys, |_, key| collect_row(key));
        Snapshot {
            schema: SCHEMA_VERSION,
            rev: rev.to_string(),
            mode: mode.name().to_string(),
            size,
            iters,
            wall_us: t0.elapsed().as_secs_f64() * 1e6,
            cells_wall_us: rows.iter().map(|r| r.values[CELL_WALL]).sum(),
            rows,
        }
    }

    /// Zeroes the volatile fields (the [`Gate::Informational`] wall
    /// clocks), after which two snapshots of the same build are
    /// byte-identical — whatever the worker count. Committed baselines are
    /// stored stripped.
    pub fn strip_volatile(&mut self) {
        self.wall_us = 0.0;
        self.cells_wall_us = 0.0;
        for row in &mut self.rows {
            for (v, &(_, gate)) in row.values.iter_mut().zip(&METRICS) {
                if gate == Gate::Informational {
                    *v = 0.0;
                }
            }
        }
    }

    /// Serial-equivalent speedup of the harness run: the summed per-cell
    /// wall time against the actual wall time. ~1.0 with one worker; up to
    /// the worker count when the cells spread evenly.
    pub fn speedup(&self) -> f64 {
        if self.wall_us > 0.0 {
            self.cells_wall_us / self.wall_us
        } else {
            0.0
        }
    }
}

/// Runs one cell and reads its [`METRICS`] values, in table order.
fn collect_row(key: Key) -> PerfRow {
    let bench = key.benchmark();
    let procs = key.sizing.procs(&bench);
    let machine = machine_for(key.library);
    // The machine's tag is its model: "Cray T3D" -> "t3d".
    let model = machine.name.rsplit(' ').next().unwrap_or_default();
    let cell_t0 = std::time::Instant::now();
    let program = key.sizing.program(&bench);
    let t0 = std::time::Instant::now();
    let opt = optimize(&program, &key.config);
    let opt_wall_us = t0.elapsed().as_secs_f64() * 1e6;
    let r = Simulator::new(
        &opt.program,
        SimConfig::timing(machine, key.library, procs).with_metrics(),
    )
    .run();
    let m = r.metrics.as_ref().expect("metrics were enabled");
    let reg = &m.registry;
    let values = [
        opt.static_count() as f64,
        r.dynamic_comm as f64,
        r.reductions as f64,
        r.time_s,
        r.comm_time_s,
        reg.counter("comm.messages") as f64,
        reg.counter("comm.bytes") as f64,
        reg.counter("comm.hops") as f64,
        reg.gauge("mesh.max_utilization").unwrap_or(0.0),
        reg.gauge("mesh.hotspot_busy_us").unwrap_or(0.0),
        opt_wall_us,
        cell_t0.elapsed().as_secs_f64() * 1e6,
    ];
    PerfRow {
        bench: key.bench.to_string(),
        // The paper calls its message-vectorization-only level "vect".
        exp: match key.level() {
            Experiment::Baseline => "vect",
            level => level.name(),
        }
        .to_string(),
        machine: model.to_ascii_lowercase(),
        library: library_tag(key.library).to_string(),
        procs: procs as u64,
        values,
        hotspot_link: m.mesh.hotspot().map(|(l, _)| l.to_string()),
        hists: reg
            .hists()
            .map(|(name, h)| HistEntry {
                name: name.to_string(),
                hist: h.clone(),
            })
            .collect(),
    }
}

// ----------------------------------------------------------------------
// Writer
// ----------------------------------------------------------------------

/// Serializes a snapshot. The output is deterministic (fields in fixed
/// order, histograms compact and name-ordered, floats in Rust's shortest
/// round-trip form) and one row per line for reviewable diffs.
pub fn to_json(s: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": {},\n", s.schema));
    out.push_str(&format!("  \"rev\": {},\n", json_string(&s.rev)));
    out.push_str(&format!("  \"mode\": {},\n", json_string(&s.mode)));
    out.push_str(&format!("  \"size\": {},\n", s.size));
    out.push_str(&format!("  \"iters\": {},\n", s.iters));
    out.push_str(&format!("  \"wall_us\": {},\n", fmt_f64(s.wall_us)));
    out.push_str(&format!(
        "  \"cells_wall_us\": {},\n",
        fmt_f64(s.cells_wall_us)
    ));
    out.push_str("  \"rows\": [\n");
    for (i, row) in s.rows.iter().enumerate() {
        out.push_str("    ");
        write_row(&mut out, row);
        out.push_str(if i + 1 < s.rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn write_row(out: &mut String, r: &PerfRow) {
    out.push('{');
    for (key, v) in [
        ("bench", &r.bench),
        ("exp", &r.exp),
        ("machine", &r.machine),
        ("library", &r.library),
    ] {
        out.push_str(&format!("\"{key}\": {}, ", json_string(v)));
    }
    out.push_str(&format!("\"procs\": {}, ", r.procs));
    // The gated metrics, the link, then the volatile wall clocks.
    for volatile in [false, true] {
        if volatile {
            let link = r.hotspot_link.as_deref().map_or("null".into(), json_string);
            out.push_str(&format!("\"hotspot_link\": {link}, "));
        }
        for (&(name, gate), &v) in METRICS.iter().zip(&r.values) {
            if (gate == Gate::Informational) == volatile {
                out.push_str(&format!("\"{name}\": {}, ", fmt_f64(v)));
            }
        }
    }
    out.push_str("\"hists\": [");
    for (i, e) in r.hists.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_hist(out, e);
    }
    out.push_str("]}");
}

fn write_hist(out: &mut String, e: &HistEntry) {
    let h = &e.hist;
    out.push('{');
    out.push_str(&format!("\"name\": {}, ", json_string(&e.name)));
    out.push_str("\"buckets\": [");
    for (i, (b, c)) in h.nonzero_buckets().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("[{b}, {c}]"));
    }
    out.push_str("], ");
    match h.summary() {
        Some(s) => out.push_str(&format!(
            "\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
             \"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}",
            s.count,
            s.sum,
            s.min,
            s.max,
            fmt_f64(s.mean),
            s.p50,
            s.p90,
            s.p99
        )),
        None => out.push_str("\"count\": 0"),
    }
    out.push('}');
}

/// Rust's shortest round-trip form, which is also valid JSON (no inf/NaN
/// ever reaches a snapshot — all metrics are finite by construction).
fn fmt_f64(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v}")
}

// ----------------------------------------------------------------------
// Reader
// ----------------------------------------------------------------------

/// Parses a snapshot, validating the schema version and rebuilding each
/// histogram through [`Histogram::from_parts`].
pub fn from_json(text: &str) -> Result<Snapshot, String> {
    let doc = json::parse(text).map_err(|e| format!("snapshot JSON: {e}"))?;
    let schema = get_u64(&doc, "schema")?;
    if schema != SCHEMA_VERSION {
        return Err(format!(
            "snapshot schema {schema} (this build reads {SCHEMA_VERSION})"
        ));
    }
    let rows_json = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("missing 'rows' array")?;
    let mut rows = Vec::with_capacity(rows_json.len());
    for (i, r) in rows_json.iter().enumerate() {
        rows.push(parse_row(r).map_err(|e| format!("row {i}: {e}"))?);
    }
    Ok(Snapshot {
        schema,
        rev: get_str(&doc, "rev")?,
        mode: get_str(&doc, "mode")?,
        size: get_u64(&doc, "size")?,
        iters: get_u64(&doc, "iters")?,
        wall_us: get_f64(&doc, "wall_us")?,
        cells_wall_us: get_f64(&doc, "cells_wall_us")?,
        rows,
    })
}

fn parse_row(r: &Json) -> Result<PerfRow, String> {
    let mut hists = Vec::new();
    for (i, h) in r
        .get("hists")
        .and_then(Json::as_arr)
        .ok_or("missing 'hists'")?
        .iter()
        .enumerate()
    {
        hists.push(parse_hist(h).map_err(|e| format!("hist {i}: {e}"))?);
    }
    let mut values = [0.0; METRICS.len()];
    for (v, &(name, gate)) in values.iter_mut().zip(&METRICS) {
        *v = match gate {
            Gate::Exact => get_u64(r, name)? as f64,
            _ => get_f64(r, name)?,
        };
    }
    Ok(PerfRow {
        bench: get_str(r, "bench")?,
        exp: get_str(r, "exp")?,
        machine: get_str(r, "machine")?,
        library: get_str(r, "library")?,
        procs: get_u64(r, "procs")?,
        values,
        hotspot_link: match r.get("hotspot_link") {
            Some(Json::Null) | None => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or("hotspot_link must be a string or null")?
                    .to_string(),
            ),
        },
        hists,
    })
}

fn parse_hist(h: &Json) -> Result<HistEntry, String> {
    let name = get_str(h, "name")?;
    let mut buckets = Vec::new();
    for pair in h
        .get("buckets")
        .and_then(Json::as_arr)
        .ok_or("missing 'buckets'")?
    {
        let pair = pair
            .as_arr()
            .ok_or("bucket entries must be [index, count]")?;
        if pair.len() != 2 {
            return Err("bucket entries must be [index, count]".into());
        }
        let idx = pair[0].as_f64().ok_or("bad bucket index")?;
        let count = pair[1].as_f64().ok_or("bad bucket count")?;
        buckets.push((
            non_negative_int(idx, "bucket index")? as usize,
            non_negative_int(count, "bucket count")?,
        ));
    }
    let count = get_u64(h, "count")?;
    let hist = if count == 0 {
        if !buckets.is_empty() {
            return Err("empty histogram with buckets".into());
        }
        Histogram::new()
    } else {
        Histogram::from_parts(
            &buckets,
            get_u64(h, "sum")?,
            get_u64(h, "min")?,
            get_u64(h, "max")?,
        )
        .map_err(|e| format!("'{name}': {e}"))?
    };
    if hist.count() != count {
        return Err(format!(
            "'{name}': declared count {count} != bucket total {}",
            hist.count()
        ));
    }
    Ok(HistEntry { name, hist })
}

fn get_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string '{key}'"))
}

fn get_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number '{key}'"))
}

fn get_u64(v: &Json, key: &str) -> Result<u64, String> {
    non_negative_int(get_f64(v, key)?, key)
}

/// `n` as a count; anything but a non-negative integer is an error.
fn non_negative_int(n: f64, what: &str) -> Result<u64, String> {
    if n < 0.0 || n.fract() != 0.0 {
        return Err(format!("'{what}' must be a non-negative integer, got {n}"));
    }
    Ok(n as u64)
}

// ----------------------------------------------------------------------
// Diff — the regression gate
// ----------------------------------------------------------------------

/// How a metric is gated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Gate {
    /// Must match exactly (all counts: the simulator is deterministic, so
    /// any drift is a real behavior change).
    Exact,
    /// May move within the configured relative threshold (simulated times
    /// and utilizations — these shift legitimately when cost models are
    /// recalibrated, but a large move is a regression).
    Relative,
    /// Reported, never gated, and zeroed by [`Snapshot::strip_volatile`]
    /// (the wall clocks).
    Informational,
}

/// One compared metric that differs between the two snapshots.
#[derive(Clone, PartialEq, Debug)]
pub struct Delta {
    /// `bench/exp/machine` row key, or `<snapshot>` for structural
    /// differences (missing rows, header changes).
    pub row: String,
    pub metric: String,
    pub old: f64,
    pub new: f64,
    pub gate: Gate,
    /// `true` when this delta trips the gate.
    pub fail: bool,
}

impl Delta {
    /// Relative change, `new` against `old`.
    pub fn rel(&self) -> f64 {
        if self.old == 0.0 {
            if self.new == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.new - self.old) / self.old.abs()
        }
    }
}

/// The outcome of comparing two snapshots.
#[derive(Clone, PartialEq, Debug)]
pub struct DiffReport {
    /// Every metric that differs, row order then metric order.
    pub deltas: Vec<Delta>,
    /// Metrics compared in total (for the summary line).
    pub compared: usize,
    pub threshold: f64,
}

impl DiffReport {
    /// `true` when any gated metric moved past its threshold.
    pub fn regressed(&self) -> bool {
        self.deltas.iter().any(|d| d.fail)
    }

    /// Human-readable comparison table plus verdict line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.deltas.is_empty() {
            out.push_str(&format!(
                "perfdiff: {} metrics compared, none changed\n",
                self.compared
            ));
            return out;
        }
        let mut t = crate::Table::new(&["row", "metric", "old", "new", "delta", "verdict"]);
        for d in &self.deltas {
            let delta = if d.rel().is_infinite() {
                "new".to_string()
            } else {
                format!("{:+.2}%", d.rel() * 100.0)
            };
            let verdict = match (d.gate, d.fail) {
                (Gate::Informational, _) => "info",
                (_, true) => "FAIL",
                (Gate::Exact, false) => unreachable!("exact deltas always fail"),
                (Gate::Relative, false) => "ok",
            };
            t.row(&[
                d.row.clone(),
                d.metric.clone(),
                fmt_metric(d.old),
                fmt_metric(d.new),
                delta,
                verdict.to_string(),
            ]);
        }
        out.push_str(&t.render());
        let fails = self.deltas.iter().filter(|d| d.fail).count();
        out.push_str(&format!(
            "perfdiff: {} metrics compared, {} changed, {} past threshold ({:.0}%)\n",
            self.compared,
            self.deltas.len(),
            fails,
            self.threshold * 100.0
        ));
        out
    }
}

fn fmt_metric(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v}")
    } else {
        format!("{v:.6}")
    }
}

/// The gated metrics of one row, as `(name, old, new, gate)` triples: the
/// [`METRICS`] in snapshot order, then each histogram's count and mean.
fn row_metrics(old: &PerfRow, new: &PerfRow) -> Vec<(String, f64, f64, Gate)> {
    let mut m: Vec<(String, f64, f64, Gate)> = METRICS
        .iter()
        .zip(old.values.iter().zip(&new.values))
        .map(|(&(name, gate), (&o, &n))| (name.to_string(), o, n, gate))
        .collect();
    // Histograms: counts gate exactly, means within the threshold. Iterate
    // the union of names so an appearing/vanishing histogram is caught.
    let mut names: Vec<&str> = old
        .hists
        .iter()
        .chain(&new.hists)
        .map(|e| e.name.as_str())
        .collect();
    names.sort_unstable();
    names.dedup();
    let find = |row: &PerfRow, name: &str| -> (f64, f64) {
        row.hists
            .iter()
            .find(|e| e.name == name)
            .map(|e| {
                let s = e.hist.summary();
                (e.hist.count() as f64, s.map(|s| s.mean).unwrap_or(0.0))
            })
            .unwrap_or((0.0, 0.0))
    };
    for name in names {
        let (oc, om) = find(old, name);
        let (nc, nm) = find(new, name);
        m.push((format!("{name}.count"), oc, nc, Gate::Exact));
        m.push((format!("{name}.mean"), om, nm, Gate::Relative));
    }
    m
}

/// Compares two snapshots. Rows are matched by `bench/exp/machine` key;
/// a key that is not on each side exactly once — a missing, new or
/// repeated row — is itself a failure. `threshold` is the relative bound
/// for [`Gate::Relative`] metrics (e.g. `0.10` = 10%).
pub fn diff(old: &Snapshot, new: &Snapshot, threshold: f64) -> Result<DiffReport, String> {
    if old.schema != new.schema {
        return Err(format!("schema mismatch: {} vs {}", old.schema, new.schema));
    }
    if old.mode != new.mode || old.size != new.size || old.iters != new.iters {
        return Err(format!(
            "incomparable sizings: {}/{}x{} vs {}/{}x{} (take both snapshots in the same mode)",
            old.mode, old.size, old.iters, new.mode, new.size, new.iters
        ));
    }
    let mut keys: Vec<String> = Vec::new();
    for r in old.rows.iter().chain(&new.rows) {
        let key = r.key();
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    let mut deltas = Vec::new();
    let mut compared = 0usize;
    for key in keys {
        let [o, n] =
            [old, new].map(|s| s.rows.iter().filter(|r| r.key() == key).collect::<Vec<_>>());
        let (o, n) = match (o.as_slice(), n.as_slice()) {
            (&[o], &[n]) => (o, n),
            (o, n) => {
                let what = if o.len() > 1 || n.len() > 1 {
                    "repeated row"
                } else if n.is_empty() {
                    "missing row"
                } else {
                    "unexpected new row"
                };
                deltas.push(Delta {
                    row: "<snapshot>".into(),
                    metric: format!("{what} {key}"),
                    old: o.len() as f64,
                    new: n.len() as f64,
                    gate: Gate::Exact,
                    fail: true,
                });
                continue;
            }
        };
        for (metric, old, new, gate) in row_metrics(o, n) {
            compared += 1;
            if old == new {
                continue;
            }
            let mut d = Delta {
                row: key.clone(),
                metric,
                old,
                new,
                gate,
                fail: false,
            };
            d.fail = match gate {
                Gate::Exact => true,
                Gate::Relative => d.rel().abs() > threshold,
                Gate::Informational => false,
            };
            deltas.push(d);
        }
    }
    Ok(DiffReport {
        deltas,
        compared,
        threshold,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The index of a row metric in [`METRICS`].
    fn at(name: &str) -> usize {
        METRICS.iter().position(|&(m, _)| m == name).unwrap()
    }

    fn tiny_snapshot() -> Snapshot {
        // One benchmark cell, quick sizing — fast enough to collect twice.
        let bench = commopt_benchmarks::tomcatv();
        let row = collect_row(Key::experiment(&bench, Experiment::Pl).at(Sizing::QUICK));
        Snapshot {
            schema: SCHEMA_VERSION,
            rev: "test".into(),
            mode: "quick".into(),
            size: 16,
            iters: 2,
            wall_us: row.values[CELL_WALL],
            cells_wall_us: row.values[CELL_WALL],
            rows: vec![row],
        }
    }

    #[test]
    fn snapshot_round_trips_through_the_json_parser() {
        let snap = tiny_snapshot();
        let text = to_json(&snap);
        let back = from_json(&text).expect("parse back");
        assert_eq!(back, snap);
        // And the re-serialization is byte-identical.
        assert_eq!(to_json(&back), text);
    }

    #[test]
    fn stripped_snapshots_are_byte_identical_across_runs() {
        // The determinism the committed baseline depends on: everything
        // but the optimizer wall-clock is a pure function of the code.
        let mut a = tiny_snapshot();
        let mut b = tiny_snapshot();
        a.strip_volatile();
        b.strip_volatile();
        assert_eq!(to_json(&a), to_json(&b));
    }

    #[test]
    fn row_carries_metrics_and_histograms() {
        let snap = tiny_snapshot();
        let r = &snap.rows[0];
        assert_eq!(r.key(), "tomcatv/pl/t3d");
        let v = |name| r.values[at(name)];
        assert!(v("dynamic_count") > 0.0 && v("messages") > 0.0 && v("bytes") > 0.0);
        assert!(v("max_utilization") > 0.0 && r.hotspot_link.is_some());
        let dn = r.hists.iter().find(|e| e.name == "ironman.dn.ns").unwrap();
        assert_eq!(dn.hist.count() as f64, v("dynamic_count"));
    }

    #[test]
    fn strip_zeroes_exactly_the_wall_clocks() {
        let snap = tiny_snapshot();
        assert_eq!(METRICS[CELL_WALL].0, "cell_wall_us");
        assert!(snap.rows[0].values[CELL_WALL] > 0.0);
        let mut stripped = snap.clone();
        stripped.strip_volatile();
        assert_eq!((stripped.wall_us, stripped.cells_wall_us), (0.0, 0.0));
        for (i, &(name, gate)) in METRICS.iter().enumerate() {
            let want = match gate {
                Gate::Informational => 0.0,
                _ => snap.rows[0].values[i],
            };
            assert_eq!(stripped.rows[0].values[i], want, "{name}");
        }
    }

    #[test]
    fn identical_snapshots_pass_the_gate() {
        let mut snap = tiny_snapshot();
        snap.strip_volatile();
        let report = diff(&snap, &snap.clone(), 0.10).unwrap();
        assert!(!report.regressed());
        assert!(report.deltas.is_empty());
        assert!(report.render().contains("none changed"));
    }

    #[test]
    fn count_drift_fails_exactly_and_time_drift_respects_threshold() {
        let old = tiny_snapshot();
        let mut new = old.clone();
        // A 5% time drift is under a 10% threshold...
        new.rows[0].values[at("time_s")] *= 1.05;
        let r = diff(&old, &new, 0.10).unwrap();
        assert!(!r.regressed(), "{}", r.render());
        assert_eq!(r.deltas.len(), 1); // reported but ok
                                       // ...but over a 2% threshold.
        let r = diff(&old, &new, 0.02).unwrap();
        assert!(r.regressed());
        // Any count drift fails regardless of threshold.
        let mut new = old.clone();
        new.rows[0].values[at("dynamic_count")] += 1.0;
        let r = diff(&old, &new, 0.50).unwrap();
        assert!(r.regressed());
        assert!(r.render().contains("dynamic_count"));
        // Wall-clock drift never fails.
        let mut new = old.clone();
        new.rows[0].values[at("opt_wall_us")] += 1e6;
        let r = diff(&old, &new, 0.10).unwrap();
        assert!(!r.regressed());
        assert!(r.render().contains("info"));
    }

    #[test]
    fn missing_rows_and_schema_mismatches_are_caught() {
        let old = tiny_snapshot();
        let mut new = old.clone();
        new.rows.clear();
        let r = diff(&old, &new, 0.10).unwrap();
        assert!(r.regressed());
        assert!(r.render().contains("missing row tomcatv/pl/t3d"));
        let mut other = old.clone();
        other.schema += 1;
        assert!(diff(&old, &other, 0.10).is_err());
        // The parser refuses future schemas outright.
        let text = to_json(&other);
        assert!(from_json(&text).is_err());
    }

    #[test]
    fn repeated_rows_fail_on_either_side() {
        let base = tiny_snapshot();
        let mut dup = base.clone();
        dup.rows.push(dup.rows[0].clone());
        for (old, new) in [(&base, &dup), (&dup, &base), (&dup, &dup)] {
            let r = diff(old, new, 0.10).unwrap();
            assert!(r.regressed(), "{}", r.render());
            assert!(r.render().contains("repeated row tomcatv/pl/t3d"));
        }
    }

    #[test]
    fn parser_rejects_fractional_and_negative_sizings() {
        let text = to_json(&tiny_snapshot());
        for (field, bad) in [
            ("\"size\": 16,", "\"size\": 16.9,"),
            ("\"iters\": 2,", "\"iters\": 2.5,"),
            ("\"size\": 16,", "\"size\": -16,"),
        ] {
            let broken = text.replacen(field, bad, 1);
            assert_ne!(broken, text);
            assert!(from_json(&broken).is_err(), "{bad} parsed");
        }
    }

    #[test]
    fn parser_rejects_fractional_and_negative_row_counts() {
        let snap = tiny_snapshot();
        let text = to_json(&snap);
        for name in ["static_count", "messages"] {
            let n = snap.rows[0].values[at(name)];
            let field = format!("\"{name}\": {n},");
            for bad in [format!("\"{name}\": {n}.5,"), format!("\"{name}\": -{n},")] {
                let broken = text.replacen(&field, &bad, 1);
                assert_ne!(broken, text);
                assert!(from_json(&broken).is_err(), "{bad} parsed");
            }
        }
    }

    #[test]
    fn parser_rejects_fractional_and_negative_histogram_buckets() {
        // Values 0 and 5 occupy buckets 0 and 3, one observation each.
        let mut hist = Histogram::new();
        hist.record(0);
        hist.record(5);
        let mut text = String::new();
        write_hist(
            &mut text,
            &HistEntry {
                name: "h".into(),
                hist,
            },
        );
        let good = "[[0, 1], [3, 1]]";
        assert!(text.contains(good));
        let parse = |buckets: &str| parse_hist(&json::parse(&text.replace(good, buckets)).unwrap());
        assert!(parse(good).is_ok());
        // Each of these used to truncate to the good histogram.
        for bad in [
            "[[0, 1], [3.7, 1]]",
            "[[-3, 1], [3, 1]]",
            "[[0, 1.5], [3, 1]]",
            "[[0, 1], [3, 1.5]]",
        ] {
            assert!(parse(bad).is_err(), "{bad} parsed");
        }
    }

    #[test]
    fn parser_rejects_inconsistent_histograms() {
        let snap = tiny_snapshot();
        let text = to_json(&snap);
        // Corrupt a declared histogram count.
        let broken = text.replacen("\"count\": ", "\"count\": 9", 1);
        assert!(from_json(&broken).is_err());
    }
}
