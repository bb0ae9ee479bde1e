//! The paper's qualitative conclusions, asserted as tests against the full
//! reproduction pipeline at the paper's problem sizes (timing-only
//! simulation — fast). If a refactor breaks one of the study's headline
//! shapes, these fail.

use commopt::benchmarks::{suite, Experiment};
use commopt::ironman::Library;
use commopt::machine::MachineSpec;
use commopt::opt::optimize;
use commopt::sim::{SimConfig, Simulator};
use commopt_testkit::pool::Pool;
use std::sync::OnceLock;

/// One paper-size run: the optimized program's static count and
/// structural dynamic count, and the simulated dynamic count and time.
struct Cell {
    static_count: u64,
    structural: u64,
    dynamic_comm: u64,
    time_s: f64,
}

/// Every benchmark × experiment at the paper's sizes, in `suite()` ×
/// `Experiment::ALL` order — simulated once per test binary and read by
/// every test below.
fn cells() -> &'static [Cell] {
    static CELLS: OnceLock<Vec<Cell>> = OnceLock::new();
    CELLS.get_or_init(|| {
        let cases: Vec<_> = suite()
            .into_iter()
            .flat_map(|b| Experiment::ALL.map(|e| (b, e)))
            .collect();
        Pool::from_env(None).map(cases, |_, (b, e)| {
            let p = b.program();
            let opt = optimize(&p, &e.config());
            let r = Simulator::new(
                &opt.program,
                SimConfig::timing(MachineSpec::t3d(), e.library(), b.paper_procs),
            )
            .run();
            Cell {
                static_count: opt.static_count(),
                structural: commopt::opt::dynamic_count(&opt.program),
                dynamic_comm: r.dynamic_comm,
                time_s: r.time_s,
            }
        })
    })
}

fn cell(b: &commopt::benchmarks::Benchmark, e: Experiment) -> &'static Cell {
    let bi = suite()
        .iter()
        .position(|s| s.name == b.name)
        .expect("a suite benchmark");
    let ei = Experiment::ALL
        .iter()
        .position(|&x| x == e)
        .expect("an experiment");
    &cells()[bi * Experiment::ALL.len() + ei]
}

fn run(b: &commopt::benchmarks::Benchmark, e: Experiment) -> (u64, u64, f64) {
    let c = cell(b, e);
    (c.static_count, c.dynamic_comm, c.time_s)
}

#[test]
fn counts_shrink_in_paper_order() {
    for b in suite() {
        let (bs, bd, _) = run(&b, Experiment::Baseline);
        let (rs, rd, _) = run(&b, Experiment::Rr);
        let (cs, cd, _) = run(&b, Experiment::Cc);
        let (ms, md, _) = run(&b, Experiment::PlMaxLatency);
        assert!(bs > rs && rs > cs, "{}: static {bs}/{rs}/{cs}", b.name);
        assert!(bd > rd && rd > cd, "{}: dynamic {bd}/{rd}/{cd}", b.name);
        assert!(cs <= ms && ms <= rs, "{}: maxlat static between", b.name);
        assert!(cd <= md && md <= rd, "{}: maxlat dynamic between", b.name);
    }
}

#[test]
fn each_optimization_reduces_time_under_pvm() {
    for b in suite() {
        let t = |e| run(&b, e).2;
        let base = t(Experiment::Baseline);
        let rr = t(Experiment::Rr);
        let cc = t(Experiment::Cc);
        let pl = t(Experiment::Pl);
        assert!(rr < base, "{}: rr {rr} vs base {base}", b.name);
        assert!(cc < rr, "{}: cc {cc} vs rr {rr}", b.name);
        assert!(pl <= cc + 1e-9, "{}: pl {pl} vs cc {cc}", b.name);
        // Overall win comparable to the paper's 72-97% range.
        assert!(
            pl / base > 0.40 && pl / base < 0.99,
            "{}: pl/base = {}",
            b.name,
            pl / base
        );
    }
}

#[test]
fn tomcatv_gains_little_from_pipelining() {
    // §3.3.2: "In the case of TOMCATV, pipelining affects performance very
    // little" — the tridiagonal solver's cross-loop dependences leave no
    // room.
    let b = commopt::benchmarks::tomcatv();
    let cc = run(&b, Experiment::Cc).2;
    let pl = run(&b, Experiment::Pl).2;
    assert!(
        (cc - pl) / cc < 0.05,
        "pipelining gain too large: {cc} vs {pl}"
    );
}

#[test]
fn shmem_helps_balanced_codes_and_hurts_tomcatv() {
    // §3.3.2: SWM and SIMPLE improve noticeably under shmem_put; TOMCATV
    // degrades under the prototype's heavyweight synchronization.
    for b in [commopt::benchmarks::swm(), commopt::benchmarks::simple()] {
        let pl = run(&b, Experiment::Pl).2;
        let sh = run(&b, Experiment::PlShmem).2;
        assert!(sh < pl, "{}: shmem should help ({sh} vs {pl})", b.name);
    }
    let b = commopt::benchmarks::tomcatv();
    let pl = run(&b, Experiment::Pl).2;
    let sh = run(&b, Experiment::PlShmem).2;
    assert!(sh > pl, "tomcatv: shmem should regress ({sh} vs {pl})");
}

#[test]
fn max_combining_always_beats_max_latency_hiding() {
    // Figure 12: "the benchmark versions compiled for maximized combining
    // always performed better than those compiled maximized latency
    // hiding."
    for b in suite() {
        let sh = run(&b, Experiment::PlShmem).2;
        let ml = run(&b, Experiment::PlMaxLatency).2;
        assert!(ml > sh, "{}: maxlat {ml} vs maxcomb {sh}", b.name);
    }
}

#[test]
fn tomcatv_maxlat_counts_equal_rr() {
    // Figure 11's TOMCATV signature: under max latency hiding nothing
    // combines, so the dynamic count equals plain rr's.
    let b = commopt::benchmarks::tomcatv();
    let (_, rr_dyn, _) = run(&b, Experiment::Rr);
    let (_, ml_dyn, _) = run(&b, Experiment::PlMaxLatency);
    assert_eq!(rr_dyn, ml_dyn);
}

#[test]
fn dynamic_counts_match_structural_computation_at_paper_sizes() {
    for b in suite() {
        for e in Experiment::ALL {
            let r = cell(&b, e);
            let structural = r.structural;
            assert_eq!(structural, r.dynamic_comm, "{} {}", b.name, e.name());
        }
    }
}

#[test]
fn appendix_counts_within_tolerance_of_paper() {
    // Coarse regression bounds against Appendix A. The known deviation:
    // this reproduction's combiner merges whenever legal, so the `cc`
    // counts can undershoot the paper's (most visibly on SP) —
    // see EXPERIMENTS.md. Baseline and rr sit much closer.
    for b in suite() {
        for e in [Experiment::Baseline, Experiment::Rr, Experiment::Cc] {
            let (s, d, _) = run(&b, e);
            let p = b.paper.row(e);
            let s_ratio = s as f64 / p.static_count as f64;
            let s_band = if e == Experiment::Cc {
                0.15..=1.5
            } else {
                0.55..=1.5
            };
            assert!(
                s_band.contains(&s_ratio),
                "{} {}: static {s} vs paper {}",
                b.name,
                e.name(),
                p.static_count
            );
            let ratio = d as f64 / p.dynamic_count as f64;
            let d_band = if e == Experiment::Cc {
                0.2..=1.6
            } else {
                0.6..=1.6
            };
            assert!(
                d_band.contains(&ratio),
                "{} {}: dynamic {d} vs paper {}",
                b.name,
                e.name(),
                p.dynamic_count
            );
        }
    }
}

#[test]
fn sp_z_sweeps_move_no_data() {
    // SP's third dimension is processor-local: its z-direction line solves
    // execute communication calls whose transfers are empty.
    let b = commopt::benchmarks::sp();
    let p = b.program_with(8, 1);
    let opt = optimize(&p, &Experiment::Pl.config());
    let r = Simulator::new(
        &opt.program,
        SimConfig::full(MachineSpec::t3d(), Library::Pvm, 4),
    )
    .run();
    // Communication quads execute far more often than data actually moves.
    assert!(
        r.dynamic_comm > 4 * r.data_transfers,
        "{} vs {}",
        r.dynamic_comm,
        r.data_transfers
    );
}
