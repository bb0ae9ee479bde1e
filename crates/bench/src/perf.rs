//! Performance snapshots and the regression gate.
//!
//! A **snapshot** is one run of every benchmark × experiment
//! ({vect, rr, cc, pl}) × machine (T3D over PVM, Paragon over NX
//! `csend`/`crecv`) with deep metrics enabled, captured as a versioned
//! JSON document (`BENCH_<rev>.json`): per-experiment static/dynamic
//! counts, simulated times, per-IRONMAN-call latency histogram summaries,
//! mesh link hotspots, and the optimizer's wall-clock.
//!
//! Snapshots are **deterministic**: every field except `opt_wall_us` (the
//! only real-time measurement) is a pure function of the code, so two runs
//! of the same build serialize byte-identically after
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
use commopt_benchmarks::{suite, Benchmark, Experiment};
use commopt_core::optimize;
use commopt_ironman::Library;
use commopt_machine::MachineSpec;
use commopt_sim::{Histogram, SimConfig, Simulator};
use commopt_testkit::pool::Pool;

/// Bumped whenever the snapshot format changes incompatibly; `perfdiff`
/// refuses to compare documents with different schemas.
pub const SCHEMA_VERSION: u64 = 1;

/// The experiments a snapshot covers, in column order. `Baseline` is the
/// paper's "vect" (message vectorization only) configuration.
pub const EXPERIMENTS: [(Experiment, &str); 4] = [
    (Experiment::Baseline, "vect"),
    (Experiment::Rr, "rr"),
    (Experiment::Cc, "cc"),
    (Experiment::Pl, "pl"),
];

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

    pub fn parse(s: &str) -> Result<Mode, String> {
        match s {
            "quick" => Ok(Mode::Quick),
            "standard" => Ok(Mode::Standard),
            "paper" => Ok(Mode::Paper),
            other => Err(format!("unknown mode '{other}'")),
        }
    }

    /// `(grid size, iterations, processors)`; size/iters of 0 mean "the
    /// benchmark's paper defaults".
    pub fn sizing(self) -> (i64, i64, usize) {
        match self {
            Mode::Quick => (16, 2, 4),
            Mode::Standard => (32, 3, 16),
            Mode::Paper => (0, 0, 64),
        }
    }
}

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
    pub static_count: u64,
    pub dynamic_count: u64,
    pub reductions: u64,
    pub time_s: f64,
    pub comm_time_s: f64,
    pub messages: u64,
    pub bytes: u64,
    pub hops: u64,
    pub max_utilization: f64,
    pub hotspot_busy_us: f64,
    /// The busiest directed link, as `p<from>->p<to>`; absent when the run
    /// moved no data.
    pub hotspot_link: Option<String>,
    /// Optimizer wall-clock, µs. Volatile: zeroed by
    /// [`Snapshot::strip_volatile`], never gated by [`diff`].
    pub opt_wall_us: f64,
    /// Whole-cell harness wall-clock (optimize + simulate + metric
    /// extraction), µs. Volatile and informational, like `opt_wall_us`;
    /// summed across rows it is the serial-equivalent cost of the matrix.
    pub cell_wall_us: f64,
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
    pub size: i64,
    pub iters: i64,
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
    /// Runs the whole matrix — every benchmark in Figure 7 order, every
    /// experiment of [`EXPERIMENTS`], on the T3D (PVM) and the Paragon
    /// (NX `csend`/`crecv`) — with metrics enabled, and collects the rows.
    ///
    /// The matrix cells are independent, so they fan out over `jobs`
    /// worker threads; rows are collected by cell index, so every worker
    /// count yields the same snapshot (byte-identical after
    /// [`Snapshot::strip_volatile`]).
    pub fn collect(mode: Mode, rev: &str, jobs: usize) -> Snapshot {
        let (size, iters, procs) = mode.sizing();
        let t0 = std::time::Instant::now();
        let benches = suite();
        let mut cells: Vec<(&Benchmark, Experiment, &str, &str)> = Vec::new();
        for bench in &benches {
            for (exp, exp_name) in EXPERIMENTS {
                for machine_name in ["t3d", "paragon"] {
                    cells.push((bench, exp, exp_name, machine_name));
                }
            }
        }
        let rows = Pool::new(jobs).map(cells, |_, (bench, exp, exp_name, machine_name)| {
            collect_row(bench, exp, exp_name, machine_name, size, iters, procs)
        });
        Snapshot {
            schema: SCHEMA_VERSION,
            rev: rev.to_string(),
            mode: mode.name().to_string(),
            size,
            iters,
            wall_us: t0.elapsed().as_secs_f64() * 1e6,
            cells_wall_us: rows.iter().map(|r| r.cell_wall_us).sum(),
            rows,
        }
    }

    /// Zeroes the volatile fields (optimizer and harness wall-clocks),
    /// after which two snapshots of the same build are byte-identical —
    /// whatever the worker count. Committed baselines are stored stripped.
    pub fn strip_volatile(&mut self) {
        self.wall_us = 0.0;
        self.cells_wall_us = 0.0;
        for row in &mut self.rows {
            row.opt_wall_us = 0.0;
            row.cell_wall_us = 0.0;
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

    /// The row with the given `bench/exp/machine` key.
    pub fn row(&self, key: &str) -> Option<&PerfRow> {
        self.rows.iter().find(|r| r.key() == key)
    }
}

fn collect_row(
    bench: &Benchmark,
    exp: Experiment,
    exp_name: &str,
    machine_name: &str,
    size: i64,
    iters: i64,
    procs: usize,
) -> PerfRow {
    let (machine, library) = match machine_name {
        "t3d" => (MachineSpec::t3d(), exp.library()),
        "paragon" => (MachineSpec::paragon(), Library::NxSync),
        other => panic!("unknown machine '{other}'"),
    };
    let cell_t0 = std::time::Instant::now();
    let program = if size == 0 {
        bench.program()
    } else {
        bench.program_with(size, iters)
    };
    let t0 = std::time::Instant::now();
    let opt = optimize(&program, &exp.config());
    let opt_wall_us = t0.elapsed().as_secs_f64() * 1e6;
    let r = Simulator::new(
        &opt.program,
        SimConfig::timing(machine, library, procs).with_metrics(),
    )
    .run();
    let m = r.metrics.as_ref().expect("metrics were enabled");
    let hotspot = m.mesh.hotspot();
    PerfRow {
        bench: bench.name.to_string(),
        exp: exp_name.to_string(),
        machine: machine_name.to_string(),
        library: crate::library_tag(library).to_string(),
        procs: procs as u64,
        static_count: opt.static_count(),
        dynamic_count: r.dynamic_comm,
        reductions: r.reductions,
        time_s: r.time_s,
        comm_time_s: r.comm_time_s,
        messages: m.registry.counter("comm.messages"),
        bytes: m.registry.counter("comm.bytes"),
        hops: m.registry.counter("comm.hops"),
        max_utilization: m.registry.gauge("mesh.max_utilization").unwrap_or(0.0),
        hotspot_busy_us: m.registry.gauge("mesh.hotspot_busy_us").unwrap_or(0.0),
        hotspot_link: hotspot.map(|(l, _)| l.to_string()),
        opt_wall_us,
        cell_wall_us: cell_t0.elapsed().as_secs_f64() * 1e6,
        hists: m
            .registry
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
    out.push_str(&format!("  \"rev\": {},\n", quote(&s.rev)));
    out.push_str(&format!("  \"mode\": {},\n", quote(&s.mode)));
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
    out.push_str(&format!("\"bench\": {}, ", quote(&r.bench)));
    out.push_str(&format!("\"exp\": {}, ", quote(&r.exp)));
    out.push_str(&format!("\"machine\": {}, ", quote(&r.machine)));
    out.push_str(&format!("\"library\": {}, ", quote(&r.library)));
    out.push_str(&format!("\"procs\": {}, ", r.procs));
    out.push_str(&format!("\"static_count\": {}, ", r.static_count));
    out.push_str(&format!("\"dynamic_count\": {}, ", r.dynamic_count));
    out.push_str(&format!("\"reductions\": {}, ", r.reductions));
    out.push_str(&format!("\"time_s\": {}, ", fmt_f64(r.time_s)));
    out.push_str(&format!("\"comm_time_s\": {}, ", fmt_f64(r.comm_time_s)));
    out.push_str(&format!("\"messages\": {}, ", r.messages));
    out.push_str(&format!("\"bytes\": {}, ", r.bytes));
    out.push_str(&format!("\"hops\": {}, ", r.hops));
    out.push_str(&format!(
        "\"max_utilization\": {}, ",
        fmt_f64(r.max_utilization)
    ));
    out.push_str(&format!(
        "\"hotspot_busy_us\": {}, ",
        fmt_f64(r.hotspot_busy_us)
    ));
    match &r.hotspot_link {
        Some(l) => out.push_str(&format!("\"hotspot_link\": {}, ", quote(l))),
        None => out.push_str("\"hotspot_link\": null, "),
    }
    out.push_str(&format!("\"opt_wall_us\": {}, ", fmt_f64(r.opt_wall_us)));
    out.push_str(&format!("\"cell_wall_us\": {}, ", fmt_f64(r.cell_wall_us)));
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
    out.push_str(&format!("\"name\": {}, ", quote(&e.name)));
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

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
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
        size: get_f64(&doc, "size")? as i64,
        iters: get_f64(&doc, "iters")? as i64,
        // Wall-clock fields are volatile and informational; snapshots
        // written before they existed (the committed baseline) read as 0.
        wall_us: get_f64_or(&doc, "wall_us", 0.0)?,
        cells_wall_us: get_f64_or(&doc, "cells_wall_us", 0.0)?,
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
    Ok(PerfRow {
        bench: get_str(r, "bench")?,
        exp: get_str(r, "exp")?,
        machine: get_str(r, "machine")?,
        library: get_str(r, "library")?,
        procs: get_u64(r, "procs")?,
        static_count: get_u64(r, "static_count")?,
        dynamic_count: get_u64(r, "dynamic_count")?,
        reductions: get_u64(r, "reductions")?,
        time_s: get_f64(r, "time_s")?,
        comm_time_s: get_f64(r, "comm_time_s")?,
        messages: get_u64(r, "messages")?,
        bytes: get_u64(r, "bytes")?,
        hops: get_u64(r, "hops")?,
        max_utilization: get_f64(r, "max_utilization")?,
        hotspot_busy_us: get_f64(r, "hotspot_busy_us")?,
        hotspot_link: match r.get("hotspot_link") {
            Some(Json::Null) | None => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or("hotspot_link must be a string or null")?
                    .to_string(),
            ),
        },
        opt_wall_us: get_f64(r, "opt_wall_us")?,
        cell_wall_us: get_f64_or(r, "cell_wall_us", 0.0)?,
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
        let idx = pair[0].as_f64().ok_or("bad bucket index")? as usize;
        let count = pair[1].as_f64().ok_or("bad bucket count")? as u64;
        buckets.push((idx, count));
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

/// Like [`get_f64`], but an *absent* key yields `default` (a present
/// non-number is still an error) — for fields added after snapshots were
/// first committed.
fn get_f64_or(v: &Json, key: &str, default: f64) -> Result<f64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(j) => j.as_f64().ok_or_else(|| format!("bad number '{key}'")),
    }
}

fn get_u64(v: &Json, key: &str) -> Result<u64, String> {
    let n = get_f64(v, key)?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(format!("'{key}' must be a non-negative integer, got {n}"));
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
    /// Reported, never gated (optimizer wall-clock).
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

/// The gated metrics of one row, as `(name, old, new, gate)` triples.
fn row_metrics(old: &PerfRow, new: &PerfRow) -> Vec<(String, f64, f64, Gate)> {
    let mut m: Vec<(String, f64, f64, Gate)> = vec![
        (
            "static_count".into(),
            old.static_count as f64,
            new.static_count as f64,
            Gate::Exact,
        ),
        (
            "dynamic_count".into(),
            old.dynamic_count as f64,
            new.dynamic_count as f64,
            Gate::Exact,
        ),
        (
            "reductions".into(),
            old.reductions as f64,
            new.reductions as f64,
            Gate::Exact,
        ),
        (
            "messages".into(),
            old.messages as f64,
            new.messages as f64,
            Gate::Exact,
        ),
        (
            "bytes".into(),
            old.bytes as f64,
            new.bytes as f64,
            Gate::Exact,
        ),
        ("hops".into(), old.hops as f64, new.hops as f64, Gate::Exact),
        ("time_s".into(), old.time_s, new.time_s, Gate::Relative),
        (
            "comm_time_s".into(),
            old.comm_time_s,
            new.comm_time_s,
            Gate::Relative,
        ),
        (
            "max_utilization".into(),
            old.max_utilization,
            new.max_utilization,
            Gate::Relative,
        ),
        (
            "hotspot_busy_us".into(),
            old.hotspot_busy_us,
            new.hotspot_busy_us,
            Gate::Relative,
        ),
        (
            "opt_wall_us".into(),
            old.opt_wall_us,
            new.opt_wall_us,
            Gate::Informational,
        ),
        (
            "cell_wall_us".into(),
            old.cell_wall_us,
            new.cell_wall_us,
            Gate::Informational,
        ),
    ];
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
/// a row present on only one side is itself a failure. `threshold` is the
/// relative bound for [`Gate::Relative`] metrics (e.g. `0.10` = 10%).
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
    let mut deltas = Vec::new();
    let mut compared = 0usize;
    for o in &old.rows {
        let key = o.key();
        let Some(n) = new.row(&key) else {
            deltas.push(Delta {
                row: "<snapshot>".into(),
                metric: format!("missing row {key}"),
                old: 1.0,
                new: 0.0,
                gate: Gate::Exact,
                fail: true,
            });
            continue;
        };
        for (metric, ov, nv, gate) in row_metrics(o, n) {
            compared += 1;
            if ov == nv {
                continue;
            }
            let rel = if ov == 0.0 {
                f64::INFINITY
            } else {
                ((nv - ov) / ov.abs()).abs()
            };
            let fail = match gate {
                Gate::Exact => true,
                Gate::Relative => rel > threshold,
                Gate::Informational => false,
            };
            deltas.push(Delta {
                row: key.clone(),
                metric,
                old: ov,
                new: nv,
                gate,
                fail,
            });
        }
    }
    for n in &new.rows {
        if old.row(&n.key()).is_none() {
            deltas.push(Delta {
                row: "<snapshot>".into(),
                metric: format!("unexpected new row {}", n.key()),
                old: 0.0,
                new: 1.0,
                gate: Gate::Exact,
                fail: true,
            });
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

    fn tiny_snapshot() -> Snapshot {
        // One benchmark cell, quick sizing — fast enough to collect twice.
        let bench = commopt_benchmarks::tomcatv();
        let row = collect_row(&bench, Experiment::Pl, "pl", "t3d", 16, 2, 4);
        Snapshot {
            schema: SCHEMA_VERSION,
            rev: "test".into(),
            mode: "quick".into(),
            size: 16,
            iters: 2,
            wall_us: row.cell_wall_us,
            cells_wall_us: row.cell_wall_us,
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
        assert!(r.dynamic_count > 0 && r.messages > 0 && r.bytes > 0);
        assert!(r.max_utilization > 0.0 && r.hotspot_link.is_some());
        let dn = r.hists.iter().find(|e| e.name == "ironman.dn.ns").unwrap();
        assert_eq!(dn.hist.count(), r.dynamic_count);
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
        new.rows[0].time_s *= 1.05;
        let r = diff(&old, &new, 0.10).unwrap();
        assert!(!r.regressed(), "{}", r.render());
        assert_eq!(r.deltas.len(), 1); // reported but ok
                                       // ...but over a 2% threshold.
        let r = diff(&old, &new, 0.02).unwrap();
        assert!(r.regressed());
        // Any count drift fails regardless of threshold.
        let mut new = old.clone();
        new.rows[0].dynamic_count += 1;
        let r = diff(&old, &new, 0.50).unwrap();
        assert!(r.regressed());
        assert!(r.render().contains("dynamic_count"));
        // Wall-clock drift never fails.
        let mut new = old.clone();
        new.rows[0].opt_wall_us += 1e6;
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
    fn parser_rejects_inconsistent_histograms() {
        let snap = tiny_snapshot();
        let text = to_json(&snap);
        // Corrupt a declared histogram count.
        let broken = text.replacen("\"count\": ", "\"count\": 9", 1);
        assert!(from_json(&broken).is_err());
    }
}
