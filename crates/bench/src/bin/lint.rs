//! `commlint` — the communication-legality linter, as a CLI.
//!
//! Lints the instrumented (optimized) form of a program: either one of the
//! paper's benchmarks by name, or any mini-ZPL source file by path.
//!
//! ```text
//! cargo run -p commopt-bench --bin lint -- tomcatv --exp vec
//! cargo run -p commopt-bench --bin lint -- path/to/program.zpl --all
//! cargo run -p commopt-bench --bin lint -- --all --table --deny-warnings
//! ```
//!
//! With no program argument, lints the whole paper suite. Exit status is 1
//! when a file cannot be read or compiled, when any error-severity finding
//! is reported, or — under `--deny-warnings` — when any finding is
//! reported at all. Only a command-line error prints the usage text.

use commopt_analysis::lint;
use commopt_bench::parse_exp;
use commopt_benchmarks::{suite, Experiment};
use commopt_core::optimize;
use commopt_ir::Program;
use commopt_lang::Frontend;
use commopt_testkit::pool::{self, Pool};
use std::process::ExitCode;

const USAGE: &str = "usage: lint [<tomcatv|swm|simple|sp|PATH.zpl> ...] [--exp EXP] [--all] \
                     [--deny-warnings] [--table] [--jobs N]";

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("lint: {e}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: Vec<String>) -> Result<bool, String> {
    let mut targets: Vec<String> = Vec::new();
    let mut exp = "pl".to_string();
    let mut all_levels = false;
    let mut deny_warnings = false;
    let mut table = false;
    let mut jobs: Option<usize> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--exp" => exp = value("--exp")?,
            "--all" => all_levels = true,
            "--deny-warnings" => deny_warnings = true,
            "--table" => table = true,
            "--jobs" => jobs = Some(pool::parse_jobs(&value("--jobs")?)?),
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(true);
            }
            name if !name.starts_with('-') => targets.push(name.to_string()),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    let jobs = pool::resolve_jobs(jobs);

    if table {
        print!(
            "{}",
            commopt_bench::lint::findings_table_jobs(jobs).render()
        );
        return Ok(true);
    }

    // Resolve each target to a named source program.
    let mut programs: Vec<(String, Program)> = Vec::new();
    if targets.is_empty() {
        for b in suite() {
            programs.push((b.name.to_string(), b.program()));
        }
    }
    for t in &targets {
        if let Some(b) = suite().into_iter().find(|b| b.name == t.as_str()) {
            programs.push((b.name.to_string(), b.program()));
        } else {
            let compiled = std::fs::read_to_string(t)
                .map_err(|e| e.to_string())
                .and_then(|text| Frontend::new(&text).compile().map_err(|e| e.to_string()));
            match compiled {
                Ok(program) => programs.push((t.clone(), program)),
                Err(e) => {
                    eprintln!("lint: {t}: {e}");
                    return Ok(false);
                }
            }
        }
    }

    let levels: Vec<Experiment> = if all_levels {
        Experiment::LEVELS.to_vec()
    } else {
        vec![parse_exp(&exp)?]
    };

    // Optimize+lint every program × level cell on the pool; reports are
    // collected by cell index, so the printed order matches a serial run.
    let mut cells: Vec<(&str, &Program, Experiment)> = Vec::new();
    for (name, program) in &programs {
        for level in &levels {
            cells.push((name, program, *level));
        }
    }
    let reports = Pool::new(jobs).map(cells, |_, (name, program, level)| {
        let opt = optimize(program, &level.config());
        let report = lint(&opt.program);
        let ok = report.error_free() && (!deny_warnings || report.clean());
        (
            format!("== {name} @ {} ==\n{}", level.name(), report.render()),
            ok,
        )
    });
    let mut ok = true;
    for (text, cell_ok) in reports {
        print!("{text}");
        ok &= cell_ok;
    }
    Ok(ok)
}
