//! Schedule-fuzz smoke: the full benchmark × experiment × binding matrix
//! under one seeded fault plan, plus the broken-binding self-check. The
//! `fuzz` binary runs the same harness with more seeds (see CI's
//! fuzz-smoke job).

use commopt_bench::fuzz::{broken_binding_is_caught, fuzz_case, run_fuzz};
use commopt_benchmarks::Experiment;
use commopt_ironman::Library;

#[test]
fn full_matrix_survives_one_seeded_plan() {
    let sweep = run_fuzz(1, 2);
    assert_eq!(sweep.cases, 80);
    assert!(sweep.ok(), "\n{}", sweep.report());
}

#[test]
fn broken_shmem_binding_is_caught() {
    broken_binding_is_caught().unwrap();
}

#[test]
fn deep_seed_sweep_on_one_hard_case() {
    // SHMEM + pipelining on the wavefront-heavy benchmark is the most
    // schedule-sensitive cell of the matrix; give it extra seeds.
    let bench = commopt_benchmarks::sp();
    for seed in 0..8 {
        fuzz_case(&bench, Experiment::Pl, Library::Shmem, seed)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn fuzz_cli_rejects_non_positive_seeds_with_usage() {
    for value in ["0", "-1", "x", ""] {
        let run = std::process::Command::new(env!("CARGO_BIN_EXE_fuzz"))
            .args(["--seeds", value])
            .output()
            .expect("run the fuzz binary");
        let stderr = String::from_utf8_lossy(&run.stderr);
        let stdout = String::from_utf8_lossy(&run.stdout);
        assert_eq!(run.status.code(), Some(2), "--seeds '{value}': {stderr}");
        assert!(stderr.contains("--seeds"), "--seeds '{value}': {stderr}");
        assert!(
            stderr.contains("usage: fuzz"),
            "--seeds '{value}': {stderr}"
        );
        assert!(!stderr.contains("panicked"), "--seeds '{value}': {stderr}");
        assert!(stdout.is_empty(), "--seeds '{value}' ran anyway: {stdout}");
    }
}
