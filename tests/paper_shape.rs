//! The paper's qualitative conclusions, asserted as tests against the full
//! reproduction pipeline at the paper's problem sizes (timing-only
//! simulation — fast). If a refactor breaks one of the study's headline
//! shapes, these fail.

use commopt::benchmarks::{suite, Experiment};
use commopt::ironman::Library;
use commopt::machine::MachineSpec;
use commopt::opt::optimize;
use commopt::sim::{SimConfig, Simulator};
use commopt_bench::matrix::{Cell, Key, Matrix};
use commopt_testkit::pool::resolve_jobs;
use std::sync::OnceLock;

/// Every benchmark × experiment at the paper's sizes — simulated once per
/// test binary and read by every test below.
fn matrix() -> &'static Matrix {
    static MATRIX: OnceLock<Matrix> = OnceLock::new();
    MATRIX.get_or_init(|| {
        let keys = suite()
            .into_iter()
            .flat_map(|b| Experiment::ALL.map(|e| Key::experiment(&b, e)));
        Matrix::compute(keys, resolve_jobs(None))
    })
}

fn cell(b: &commopt::benchmarks::Benchmark, e: Experiment) -> &'static Cell {
    matrix().experiment(b, e)
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
            let structural = r.dynamic_count;
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
