//! Profile one benchmark run: export a Chrome `trace_event` timeline and
//! print the text profile report (per-transfer waits, per-processor time
//! breakdown, optimizer pass log).
//!
//! ```text
//! cargo run -p commopt-bench --bin trace -- tomcatv --exp rr+cc+pl --out results/tomcatv.trace.json
//! ```
//!
//! The JSON opens directly in <https://ui.perfetto.dev> or
//! `chrome://tracing`: one process row per simulated processor, with named
//! transfer slices carrying byte counts.
//!
//! Traces are recorded at a reduced problem size by default (`--size 64
//! --iters 5 --procs 16`). A paper-size run emits millions of spans; the
//! recorder stores each in a byte or two, but the JSON takes about 135 bytes
//! per span, hundreds of MB in all. Override the flags to go bigger.

use commopt_bench::report::profile_report;
use commopt_bench::{library_tag, machine_for, parse_exp};
use commopt_benchmarks::suite;
use commopt_core::optimize;
use commopt_ironman::Library;
use commopt_sim::{chrome_trace, Recorder, SimConfig, Simulator};
use std::process::ExitCode;

const USAGE: &str = "usage: trace <tomcatv|swm|simple|sp> [--exp EXP] [--procs N] [--size N] \
                     [--iters N] [--lib pvm|shmem] [--out PATH]";

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("trace: {e}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Parses a flag's value as a count of at least 1.
fn positive(flag: &str, value: &str) -> Result<i64, String> {
    match value.parse::<i64>() {
        Ok(n) if n >= 1 => Ok(n),
        Ok(n) => Err(format!("{flag} must be at least 1, got {n}")),
        Err(e) => Err(format!("{flag}: {e}")),
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    let mut bench_name: Option<String> = None;
    let mut exp = "pl".to_string();
    let mut procs = 16usize;
    let mut size = 64i64;
    let mut iters = 5i64;
    let mut lib_override: Option<Library> = None;
    let mut out_path: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--exp" => exp = value("--exp")?,
            "--procs" => procs = positive("--procs", &value("--procs")?)? as usize,
            "--size" => size = positive("--size", &value("--size")?)?,
            "--iters" => iters = positive("--iters", &value("--iters")?)?,
            "--lib" => {
                let tag = value("--lib")?;
                lib_override = Some(
                    Library::ALL
                        .into_iter()
                        .find(|&lib| library_tag(lib) == tag)
                        .ok_or_else(|| format!("unknown library '{tag}'"))?,
                )
            }
            "--out" => out_path = Some(value("--out")?),
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            name if !name.starts_with('-') && bench_name.is_none() => {
                bench_name = Some(name.to_string())
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }

    let bench_name = bench_name.ok_or_else(|| "no benchmark given".to_string())?;
    let bench = suite()
        .into_iter()
        .find(|b| b.name == bench_name)
        .ok_or_else(|| format!("unknown benchmark '{bench_name}'"))?;
    let experiment = parse_exp(&exp)?;
    let library = lib_override.unwrap_or_else(|| experiment.library());
    let out_path = out_path.unwrap_or_else(|| format!("results/{}.{}.trace.json", bench.name, exp));

    let program = bench.program_with(size, iters);
    let opt = optimize(&program, &experiment.config());
    let recorder = Recorder::new();
    let result = Simulator::new(
        &opt.program,
        SimConfig::timing(machine_for(library), library, procs).with_trace(recorder.clone()),
    )
    .run();

    let trace = recorder.take();
    let json = chrome_trace(&trace, &opt.program);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
    }
    std::fs::write(&out_path, &json).map_err(|e| format!("{out_path}: {e}"))?;

    println!(
        "{} / {} on {} procs (n={size}, iters={iters}, {library:?})",
        bench.name,
        experiment.name(),
        procs
    );
    println!("{} events -> {out_path}\n", trace.len());
    print!("{}", profile_report(&opt.program, &result, Some(&opt.log)));
    Ok(())
}
