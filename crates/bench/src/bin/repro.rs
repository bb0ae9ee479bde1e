//! Runs the reproduction: every figure and table of the paper.
//!
//! ```text
//! repro [--jobs N] [FIGURE...]
//! ```
//!
//! With no figure named, prints each figure under a `==> name` header and
//! writes it to `results/<name>.txt`. Naming figures prints only their
//! text and writes nothing. Either way the paper-size runs the selected
//! figures read are computed once, as one matrix fanned over `--jobs`
//! worker threads (default: the machine's cores, or `COMMOPT_JOBS`); the
//! output is identical whatever the worker count.

use commopt_bench::figures::{self, Figure, FIGURES};
use commopt_bench::matrix::Matrix;
use commopt_testkit::pool::{self, Pool};
use std::fs;
use std::path::Path;

const USAGE: &str = "usage: repro [--jobs N] [FIGURE...]";

fn fail(msg: &str) -> ! {
    eprintln!("{msg} ({USAGE})");
    std::process::exit(2);
}

fn main() {
    let mut jobs: Option<usize> = None;
    let mut selected: Vec<&Figure> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--jobs" => {
                let v = args.next().unwrap_or_else(|| fail("--jobs needs a value"));
                jobs = Some(pool::parse_jobs(&v).unwrap_or_else(|e| fail(&e)));
            }
            "--help" | "-h" => {
                let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
                eprintln!("{USAGE}\nfigures: {}", names.join(", "));
                return;
            }
            name => match figures::find(name) {
                Some(f) => selected.push(f),
                None => fail(&format!("unknown figure '{name}'")),
            },
        }
    }
    let jobs = pool::resolve_jobs(jobs);
    let all = selected.is_empty();
    if all {
        selected = FIGURES.iter().collect();
    }

    let t0 = std::time::Instant::now();
    let matrix = Matrix::compute(selected.iter().flat_map(|f| (f.keys)()), jobs);
    let texts = Pool::new(jobs).map(selected.clone(), |_, f| (f.render)(&matrix));
    if !all {
        for text in texts {
            print!("{text}");
        }
        return;
    }

    let out_dir = Path::new("results");
    fs::create_dir_all(out_dir).expect("create results dir");
    for (f, text) in selected.iter().zip(&texts) {
        println!("==> {}", f.name);
        println!("{text}");
        fs::write(out_dir.join(format!("{}.txt", f.name)), text).expect("write result file");
    }
    eprintln!(
        "repro: {} figures from {} simulated cells in {:.1} s with {jobs} job(s)",
        selected.len(),
        matrix.len(),
        t0.elapsed().as_secs_f64()
    );
    println!("All results written to {}/", out_dir.display());
}
