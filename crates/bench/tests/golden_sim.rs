//! Golden `SimResult` digests: the simulator's complete observable output
//! — timing, counts, per-proc breakdowns, transfer stats, scalars and
//! gathered arrays — hashed per benchmark × optimization level × binding
//! and compared against a committed golden file.
//!
//! The goldens were generated *before* the engine's transfer-state tables
//! were rewritten from `BTreeMap`s to dense slabs, so this test is the
//! proof that the slab rewrite (and any later hot-path work) is observably
//! invariant: same `SimResult`, bit for bit, on every cell of the matrix.
//! The 64-processor paper-sizing cells were added before transfer geometry
//! was cached per loop instance, and pin that change the same way.
//!
//! Each cell also runs a second time with the metrics registry and a
//! trace sink installed; its `obs/<cell>` line digests the registry, the
//! mesh link table and the full event stream. Those lines were generated
//! before the engine's accounting moved behind one ledger, and pin the
//! observers the way the plain lines pin the result. Every cell's
//! per-processor breakdown must also sum to that processor's clock.
//!
//! Regenerate (only when an *intentional* behavior change lands) with:
//!
//! ```text
//! COMMOPT_UPDATE_GOLDEN=1 cargo test -p commopt-bench --test golden_sim
//! ```

use commopt_bench::fuzz::EXPERIMENTS;
use commopt_bench::{library_tag, machine_for};
use commopt_benchmarks::suite;
use commopt_core::optimize;
use commopt_ir::Program;
use commopt_ironman::Library;
use commopt_lang::Frontend;
use commopt_sim::{SimConfig, SimResult, Simulator, SpanKind, TraceEvent, TraceSink};
use std::cell::RefCell;
use std::rc::Rc;

const FULL_N: i64 = 12;
const FULL_ITERS: i64 = 2;
const FULL_PROCS: usize = 4;
const TIMING_N: i64 = 16;
const TIMING_ITERS: i64 = 2;
const TIMING_PROCS: usize = 16;
/// The perfbench `paper` sizing: each program's own grid, this fraction of
/// its iterations, on the paper's 64-processor partition — large enough
/// that row-sweep transfers change shape from one loop instance to the
/// next.
const PAPER_ITERS_DIVISOR: i64 = 16;
const PAPER_PROCS: usize = 64;

/// FNV-1a over a canonical byte stream of every `SimResult` field.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a whole word in one FNV step: the trace digest's fast path,
    /// for the millions of events a 64-processor run emits.
    fn word(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn f64(&mut self, v: f64) {
        // Bit pattern, so the digest distinguishes -0.0/0.0 and any NaN
        // payloads — the comparison is exact, not approximate.
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// A stable 16-hex-digit digest of every observable field of the result
/// (metrics excluded — they have their own invariance test and are off in
/// these runs).
fn digest(r: &SimResult) -> String {
    let mut d = Digest::new();
    d.f64(r.time_s);
    d.u64(r.per_proc_time_s.len() as u64);
    for &t in &r.per_proc_time_s {
        d.f64(t);
    }
    d.u64(r.dynamic_comm);
    d.u64(r.data_transfers);
    d.u64(r.bytes_received);
    d.u64(r.max_message_bytes);
    d.f64(r.comm_time_s);
    d.f64(r.compute_time_s);
    d.u64(r.reductions);
    d.u64(r.per_proc.len() as u64);
    for b in &r.per_proc {
        d.f64(b.compute_s);
        d.f64(b.send_s);
        d.f64(b.recv_s);
        d.f64(b.wait_s);
        d.f64(b.sync_s);
        d.f64(b.overhead_s);
    }
    d.u64(r.transfers.len() as u64);
    for (id, s) in &r.transfers {
        d.u64(u64::from(*id));
        d.u64(s.executions);
        d.u64(s.bytes);
        d.f64(s.wait_s);
        d.u64(s.max_message_bytes);
    }
    d.u64(r.scalars.len() as u64);
    for (name, v) in &r.scalars {
        d.str(name);
        d.f64(*v);
    }
    d.u64(r.arrays.len() as u64);
    for (name, vals) in &r.arrays {
        d.str(name);
        d.u64(vals.len() as u64);
        for &v in vals {
            d.f64(v);
        }
    }
    format!("{:016x}", d.0)
}

/// A trace sink that folds every event into a digest and stores nothing.
#[derive(Clone)]
struct TraceDigest(Rc<RefCell<Digest>>);

impl TraceSink for TraceDigest {
    fn record(&mut self, e: TraceEvent) {
        let (tag, id) = match e.kind {
            SpanKind::Compute { array } => (0, array),
            SpanKind::Scalar { scalar } => (1, scalar),
            SpanKind::Reduce { scalar } => (2, scalar),
            SpanKind::Comm { call, transfer } => (3 + call as u64, transfer),
        };
        let mut d = self.0.borrow_mut();
        for w in [
            e.proc as u64,
            e.start_us.to_bits(),
            e.dur_us.to_bits(),
            tag,
            u64::from(id),
            e.bytes,
        ] {
            d.word(w);
        }
    }
}

/// A digest of an observed run: the metrics registry (counters, gauges,
/// histogram buckets and exact summaries), the mesh link table, the event
/// stream's digest, and the rest of the result.
fn obs_digest(r: &SimResult, event_digest: u64) -> String {
    let m = r.metrics.as_ref().expect("metrics were enabled");
    let mut d = Digest::new();
    for (name, v) in m.registry.counters() {
        d.str(name);
        d.u64(v);
    }
    for (name, v) in m.registry.gauges() {
        d.str(name);
        d.f64(v);
    }
    for (name, h) in m.registry.hists() {
        d.str(name);
        for (b, c) in h.nonzero_buckets() {
            d.u64(b as u64);
            d.u64(c);
        }
        let s = h.summary().expect("a registered histogram is non-empty");
        for v in [s.count, s.sum, s.min, s.max] {
            d.u64(v);
        }
    }
    for (link, s) in m.mesh.links() {
        d.u64(link.from as u64);
        d.u64(link.to as u64);
        d.u64(s.messages);
        d.u64(s.bytes);
        d.f64(s.busy_us);
    }
    d.u64(event_digest);
    d.str(&digest(r));
    format!("{:016x}", d.0)
}

/// Runs one cell plain and then observed, checks that the plain run's
/// breakdown accounts for every processor's clock, and returns the two
/// digests.
fn run_cell(key: &str, program: &Program, cfg: SimConfig) -> (String, String) {
    let r = Simulator::new(program, cfg.clone()).run();
    for (p, (b, &t)) in r.per_proc.iter().zip(&r.per_proc_time_s).enumerate() {
        assert!(
            (b.total_s() - t).abs() <= 1e-10 * t,
            "{key}: proc {p} breakdown sums to {}, clock is {t}",
            b.total_s()
        );
    }
    let events = TraceDigest(Rc::new(RefCell::new(Digest::new())));
    let observed = Simulator::new(program, cfg.with_metrics().with_trace(events.clone())).run();
    let event_digest = events.0.borrow().0;
    (digest(&r), obs_digest(&observed, event_digest))
}

/// The `config iters` value a benchmark's source declares.
fn paper_iters(source: &str) -> i64 {
    source
        .lines()
        .find_map(|l| {
            let rest = l.trim().strip_prefix("config iters")?;
            rest.trim()
                .strip_prefix('=')?
                .trim()
                .trim_end_matches(';')
                .trim()
                .parse()
                .ok()
        })
        .expect("a paper program declares `config iters`")
}

/// Every golden cell as `(key, digest, observed digest)`, in a fixed
/// order: full (numeric) mode over all five bindings at 4 procs, then
/// timing mode on the two snapshot machines at 16 procs, then timing mode
/// at paper sizing on 64 procs.
fn collect() -> Vec<(String, String, String)> {
    let mut out = Vec::new();
    for bench in suite() {
        for exp in EXPERIMENTS {
            for lib in Library::ALL {
                let program = bench.program_with(FULL_N, FULL_ITERS);
                let opt = optimize(&program, &exp.config());
                let key = format!(
                    "full/{}/{}/{}/{}p",
                    bench.name,
                    exp.name(),
                    library_tag(lib),
                    FULL_PROCS
                );
                let cfg = SimConfig::full(machine_for(lib), lib, FULL_PROCS);
                let (plain, obs) = run_cell(&key, &opt.program, cfg);
                out.push((key, plain, obs));
            }
            for lib in [Library::Pvm, Library::NxSync] {
                let program = bench.program_with(TIMING_N, TIMING_ITERS);
                let opt = optimize(&program, &exp.config());
                let key = format!(
                    "timing/{}/{}/{}/{}p",
                    bench.name,
                    exp.name(),
                    library_tag(lib),
                    TIMING_PROCS
                );
                let cfg = SimConfig::timing(machine_for(lib), lib, TIMING_PROCS);
                let (plain, obs) = run_cell(&key, &opt.program, cfg);
                out.push((key, plain, obs));
            }
        }
    }
    for bench in suite() {
        let iters = (paper_iters(bench.source) / PAPER_ITERS_DIVISOR).max(1);
        let program = Frontend::new(bench.source)
            .with_config("iters", iters)
            .compile()
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        for exp in EXPERIMENTS {
            let opt = optimize(&program, &exp.config());
            for lib in [Library::Pvm, Library::NxSync] {
                let key = format!(
                    "paper/{}/{}/{}/{}p",
                    bench.name,
                    exp.name(),
                    library_tag(lib),
                    PAPER_PROCS
                );
                let cfg = SimConfig::timing(machine_for(lib), lib, PAPER_PROCS);
                let (plain, obs) = run_cell(&key, &opt.program, cfg);
                out.push((key, plain, obs));
            }
        }
    }
    out
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden_sim.txt")
}

#[test]
fn sim_results_match_committed_goldens() {
    // Plain lines first, then the observed ones, each in cell order.
    let collected = collect();
    let cells: Vec<(String, &str)> = collected
        .iter()
        .map(|(k, plain, _)| (k.clone(), plain.as_str()))
        .chain(
            collected
                .iter()
                .map(|(k, _, obs)| (format!("obs/{k}"), obs.as_str())),
        )
        .collect();
    let rendered: String = cells.iter().map(|(k, d)| format!("{k} {d}\n")).collect();
    let path = golden_path();
    if std::env::var_os("COMMOPT_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write goldens");
        eprintln!(
            "golden_sim: wrote {} cells to {}",
            cells.len(),
            path.display()
        );
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\n(generate with COMMOPT_UPDATE_GOLDEN=1 cargo test -p commopt-bench --test golden_sim)",
            path.display()
        )
    });
    let want: std::collections::BTreeMap<&str, &str> = committed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .collect();
    assert_eq!(
        want.len(),
        cells.len(),
        "golden file has {} cells, this build produces {}",
        want.len(),
        cells.len()
    );
    let mut bad = Vec::new();
    for (key, got) in &cells {
        match want.get(key.as_str()) {
            Some(w) if w == got => {}
            Some(w) => bad.push(format!("{key}: golden {w}, got {got}")),
            None => bad.push(format!("{key}: missing from golden file")),
        }
    }
    assert!(
        bad.is_empty(),
        "{} cell(s) diverged from the pre-rewrite goldens:\n{}",
        bad.len(),
        bad.join("\n")
    );
}
