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
//! The last line digests the Chrome trace JSON the `trace` binary writes
//! for CI's export smoke cell (SWM at rr+cc+pl, the binary's defaults). It
//! was generated before traces were stored by sweep, and pins the export
//! byte for byte.
//!
//! Regenerate (only when an *intentional* behavior change lands) with:
//!
//! ```text
//! COMMOPT_UPDATE_GOLDEN=1 cargo test -p commopt-bench --test golden_sim
//! ```

use commopt_bench::matrix::{levels, Sizing};
use commopt_bench::{library_tag, machine_for};
use commopt_core::optimize;
use commopt_ir::Program;
use commopt_ironman::Library;
use commopt_machine::MachineSpec;
use commopt_sim::{SimConfig, SimResult, Simulator, SpanKind, TraceSink};
use std::cell::RefCell;
use std::rc::Rc;

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

/// A trace sink that folds every span into a digest and stores nothing.
#[derive(Clone)]
struct TraceDigest(Rc<RefCell<Digest>>);

impl TraceSink for TraceDigest {
    fn record_sweep(&mut self, kind: SpanKind, start_us: &[f64], dur_us: &[f64], bytes: &[u64]) {
        let (tag, id) = match kind {
            SpanKind::Compute { array } => (0, array),
            SpanKind::Scalar { scalar } => (1, scalar),
            SpanKind::Reduce { scalar } => (2, scalar),
            SpanKind::Comm { call, transfer } => (3 + call as u64, transfer),
        };
        let mut d = self.0.borrow_mut();
        for (proc, ((s, t), &b)) in start_us.iter().zip(dur_us).zip(bytes).enumerate() {
            for w in [proc as u64, s.to_bits(), t.to_bits(), tag, u64::from(id), b] {
                d.word(w);
            }
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

/// Every golden cell as `(key, digest, observed digest)`, in a fixed
/// order: full (numeric) mode over all five bindings, then timing mode on
/// the two snapshot machines, then timing mode at perfbench's `paper`
/// sizing on the paper's 64 processors.
fn collect() -> Vec<(String, String, String)> {
    type Mode = fn(MachineSpec, Library, usize) -> SimConfig;
    let snapshot = [Library::Pvm, Library::NxSync];
    let groups: [(&str, Mode, _); 3] = [
        (
            "full",
            SimConfig::full,
            levels(Sizing::GOLDEN_FULL, &Library::ALL),
        ),
        (
            "timing",
            SimConfig::timing,
            levels(Sizing::GOLDEN_TIMING, &snapshot),
        ),
        (
            "paper",
            SimConfig::timing,
            levels(Sizing::PAPER_SIXTEENTH, &snapshot),
        ),
    ];
    let mut out = Vec::new();
    for (group, mode, keys) in groups {
        for key in keys {
            let bench = key.benchmark();
            let procs = key.sizing.procs(&bench);
            let opt = optimize(&key.sizing.program(&bench), &key.config);
            let name = format!(
                "{group}/{}/{}/{}/{procs}p",
                key.bench,
                key.level().name(),
                library_tag(key.library)
            );
            let cfg = mode(machine_for(key.library), key.library, procs);
            let (plain, obs) = run_cell(&name, &opt.program, cfg);
            out.push((name, plain, obs));
        }
    }
    out
}

/// The CI trace-export smoke cell: runs the `trace` binary with its
/// defaults on SWM at rr+cc+pl and digests the JSON it writes.
fn chrome_cell() -> (String, String) {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_swm.trace.json");
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_trace"))
        .args(["swm", "--exp", "rr+cc+pl", "--out"])
        .arg(&out)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("run the trace binary");
    assert!(status.success(), "trace exited with {status}");
    let json = std::fs::read(&out).expect("read the exported trace");
    let mut d = Digest::new();
    d.u64(json.len() as u64);
    d.bytes(&json);
    ("chrome/swm/pl/pvm/16p".into(), format!("{:016x}", d.0))
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden_sim.txt")
}

#[test]
fn sim_results_match_committed_goldens() {
    // Plain lines first, then the observed ones, each in cell order, then
    // the Chrome export.
    let collected = collect();
    let chrome = chrome_cell();
    let cells: Vec<(String, &str)> = collected
        .iter()
        .map(|(k, plain, _)| (k.clone(), plain.as_str()))
        .chain(
            collected
                .iter()
                .map(|(k, _, obs)| (format!("obs/{k}"), obs.as_str())),
        )
        .chain([(chrome.0.clone(), chrome.1.as_str())])
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
