//! Capture a performance snapshot: every benchmark × experiment
//! ({vect, rr, cc, pl}) × machine (T3D/PVM, Paragon/NX) with deep metrics
//! enabled, written as a versioned `BENCH_<rev>.json`.
//!
//! ```text
//! cargo run --release -p commopt-bench --bin perf -- --quick --out results/BENCH_new.json
//! cargo run --release -p commopt-bench --bin perf                    # standard sizing
//! cargo run --release -p commopt-bench --bin perf -- --paper         # paper sizing (slow)
//! ```
//!
//! `--strip-wall` zeroes the optimizer wall-clock fields — the snapshot's
//! only nondeterministic values — which is how the committed baseline
//! (`results/BENCH_baseline.json`) is produced: a stripped snapshot of the
//! same build is byte-for-byte reproducible. Compare snapshots with the
//! `perfdiff` binary.

use commopt_bench::perf::{to_json, Mode, Snapshot};
use commopt_testkit::pool;
use std::process::ExitCode;

const USAGE: &str = "usage: perf [--quick|--standard|--paper] [--out PATH] [--rev REV] \
     [--strip-wall] [--jobs N]";

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perf: {e}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    let mut mode = Mode::Standard;
    let mut out_path: Option<String> = None;
    let mut rev: Option<String> = None;
    let mut strip_wall = false;
    let mut jobs: Option<usize> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--quick" => mode = Mode::Quick,
            "--standard" => mode = Mode::Standard,
            "--paper" => mode = Mode::Paper,
            "--out" => out_path = Some(value("--out")?),
            "--rev" => rev = Some(value("--rev")?),
            "--strip-wall" => strip_wall = true,
            "--jobs" => jobs = Some(pool::parse_jobs(&value("--jobs")?)?),
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }

    let rev = rev.unwrap_or_else(git_rev);
    let out_path = out_path.unwrap_or_else(|| format!("results/BENCH_{rev}.json"));
    let jobs = pool::resolve_jobs(jobs);

    eprintln!(
        "perf: collecting {} snapshot with {jobs} job(s)...",
        mode.name()
    );
    let mut snap = Snapshot::collect(mode, &rev, jobs);
    eprintln!(
        "perf: {} cells, wall {:.1} ms, serial-equivalent {:.1} ms — {:.2}x speedup with {jobs} job(s)",
        snap.rows.len(),
        snap.wall_us / 1e3,
        snap.cells_wall_us / 1e3,
        snap.speedup()
    );
    if strip_wall {
        snap.strip_volatile();
    }
    let text = to_json(&snap);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
    }
    std::fs::write(&out_path, &text).map_err(|e| format!("{out_path}: {e}"))?;
    println!(
        "{} rows ({} bytes) -> {out_path}",
        snap.rows.len(),
        text.len()
    );
    Ok(())
}

/// The current short git revision, or `local` when git is unavailable —
/// the snapshot's `rev` field is informational only.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "local".to_string())
}
