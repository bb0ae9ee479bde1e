//! Schedule-fuzz driver: every paper benchmark × experiment × binding
//! under N seeded fault plans, asserting numeric identity to the
//! sequential reference with zero safety violations, plus a self-check
//! that a deliberately broken binding is caught by the safety checker.
//!
//! ```text
//! fuzz [--seeds N] [--jobs N]
//! ```
//!
//! Exits nonzero if any case fails; each failure line names the case and
//! seed, a complete deterministic reproduction recipe. Cases fan out over
//! `--jobs` worker threads (default: the machine's cores, or
//! `COMMOPT_JOBS`); the report is identical whatever the worker count.

use commopt_bench::fuzz::{broken_binding_is_caught, matrix, run_fuzz, EXPERIMENTS};
use commopt_bench::Table;
use commopt_ironman::Library;
use commopt_testkit::pool;

const USAGE: &str = "usage: fuzz [--seeds N] [--jobs N]";

fn main() {
    let mut seeds = 3u64;
    let mut jobs: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => {
                let value = args.next().unwrap_or_default();
                seeds = value.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
                    eprintln!("--seeds expects a positive integer, got '{value}' ({USAGE})");
                    std::process::exit(2);
                });
            }
            "--jobs" => {
                jobs = Some(
                    args.next()
                        .ok_or_else(|| "--jobs needs a value".to_string())
                        .and_then(|v| pool::parse_jobs(&v))
                        .unwrap_or_else(|e| {
                            eprintln!("{e}");
                            std::process::exit(2);
                        }),
                );
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return;
            }
            other => {
                eprintln!("unknown argument '{other}' ({USAGE})");
                std::process::exit(2);
            }
        }
    }
    let jobs = pool::resolve_jobs(jobs);

    println!(
        "schedule fuzz: {} benchmarks x {} experiments x {} bindings x {} seed(s), {} job(s)\n",
        commopt_benchmarks::suite().len(),
        EXPERIMENTS.len(),
        Library::ALL.len(),
        seeds,
        jobs,
    );

    let sweep = run_fuzz(seeds, jobs);

    // Coverage table: one row per benchmark/experiment, one column block
    // per binding, PASS/FAIL per cell.
    let mut t = Table::new(&["case", "nx-sync", "nx-async", "nx-callback", "pvm", "shmem"]);
    let cases = matrix();
    for bench in commopt_benchmarks::suite() {
        for exp in EXPERIMENTS {
            let mut cells = vec![format!("{}/{}", bench.name, exp.name())];
            for lib in Library::ALL {
                let name = &cases
                    .iter()
                    .find(|(n, b, e, l)| {
                        b.name == bench.name && *e == exp && *l == lib && !n.is_empty()
                    })
                    .expect("matrix covers all combinations")
                    .0;
                let failed = sweep.failures.iter().any(|f| &f.case == name);
                cells.push(if failed { "FAIL" } else { "ok" }.to_string());
            }
            t.row(&cells);
        }
    }
    println!("{}", t.render());
    print!("{}", sweep.report());

    let self_check = broken_binding_is_caught();
    match &self_check {
        Ok(()) => println!("self-check: broken SHMEM binding caught as a safety violation"),
        Err(e) => println!("self-check FAILED: {e}"),
    }

    if !sweep.ok() || self_check.is_err() {
        std::process::exit(1);
    }
}
