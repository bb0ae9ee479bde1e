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

use commopt_bench::fuzz::{broken_binding_is_caught, case_name, matrix, run_fuzz};
use commopt_bench::{library_tag, Table};
use commopt_benchmarks::Experiment;
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
        Experiment::LEVELS.len(),
        Library::ALL.len(),
        seeds,
        jobs,
    );

    let sweep = run_fuzz(seeds, jobs);

    // Coverage table: one row per benchmark/experiment, one column per
    // binding (the matrix's innermost loop), ok/FAIL per cell.
    let mut header = vec!["case"];
    header.extend(Library::ALL.map(library_tag));
    let mut t = Table::new(&header);
    for row in matrix().chunks(Library::ALL.len()) {
        let mut cells = vec![format!("{}/{}", row[0].bench, row[0].level().name())];
        for &key in row {
            let failed = sweep.failures.iter().any(|f| f.case == case_name(key));
            cells.push(if failed { "FAIL" } else { "ok" }.to_string());
        }
        t.row(&cells);
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
