//! # commopt-bench — the reproduction harness
//!
//! The `repro` binary renders every figure and table of Choi & Snyder
//! (ICPP 1997) into `results/<name>.txt`; `repro <name>...` prints only the
//! named ones:
//!
//! | name               | reproduces |
//! |--------------------|------------|
//! | `fig3_machines`    | Figure 3 — machine parameters |
//! | `fig5_bindings`    | Figure 5 — IRONMAN bindings |
//! | `fig6_overhead`    | Figure 6 — exposed communication costs |
//! | `fig7_suite`       | Figure 7 — benchmark programs |
//! | `fig8_counts`      | Figure 8 — communication count reductions |
//! | `fig10_times`      | Figure 10 — benchmark performance (PVM and SHMEM) |
//! | `fig11_heuristics` | Figure 11 — combining heuristic counts |
//! | `fig12_heuristics` | Figure 12 — combining heuristic times |
//! | `tables`           | Appendix A, Tables 1–4 |
//! | `ablation`         | every rr/cc/pl toggle combination |
//! | `paragon_note`     | the Paragon runs the paper did not print |
//! | `extension_global` | the cross-block dataflow pass on top of pl |
//!
//! Every paper-size run those figures read is one cell of the [`matrix`],
//! optimized and simulated once; [`figures`] holds one render function
//! per figure. This library also holds the schedule-fuzz harness
//! ([`fuzz`], driven by the `fuzz` binary) that re-checks every benchmark
//! × binding under seeded fault plans, and the [`perf`] snapshot machinery
//! (driven by the `perf` and `perfdiff` binaries): versioned
//! `BENCH_<rev>.json` documents capturing every benchmark × experiment ×
//! machine with deep metrics, diffed against a committed baseline as CI's
//! performance regression gate.

pub mod figures;
pub mod fuzz;
pub mod json;
pub mod lint;
pub mod matrix;
pub mod perf;
pub mod report;

use commopt_benchmarks::Experiment;
use commopt_ironman::Library;
use commopt_machine::MachineSpec;

/// Parses an experiment name as accepted by the CLI binaries: the paper's
/// names (`vect` for the message-vectorization-only level, as the perf
/// snapshots print it) plus the cumulative `rr+cc`/`rr+cc+pl` spellings.
pub fn parse_exp(s: &str) -> Result<Experiment, String> {
    match s.to_ascii_lowercase().as_str() {
        "vect" | "baseline" | "base" | "vec" => Ok(Experiment::Baseline),
        "rr" => Ok(Experiment::Rr),
        "cc" | "rr+cc" => Ok(Experiment::Cc),
        "pl" | "rr+cc+pl" => Ok(Experiment::Pl),
        "shmem" | "pl+shmem" | "pl-shmem" => Ok(Experiment::PlShmem),
        "maxlat" | "max-latency" | "pl-maxlat" => Ok(Experiment::PlMaxLatency),
        other => Err(format!(
            "unknown experiment '{other}' (expected vect, baseline, rr, rr+cc, rr+cc+pl, shmem, or maxlat)"
        )),
    }
}

/// A short, slash-free tag for a library (its display name contains `/`).
pub fn library_tag(lib: Library) -> &'static str {
    match lib {
        Library::NxSync => "nx-sync",
        Library::NxAsync => "nx-async",
        Library::NxCallback => "nx-callback",
        Library::Pvm => "pvm",
        Library::Shmem => "shmem",
    }
}

/// The machine a library's binding is calibrated for: the T3D for PVM
/// and SHMEM, the Paragon for the NX libraries.
pub fn machine_for(lib: Library) -> MachineSpec {
    match lib {
        Library::Pvm | Library::Shmem => MachineSpec::t3d(),
        Library::NxSync | Library::NxAsync | Library::NxCallback => MachineSpec::paragon(),
    }
}

/// A fixed-width text table writer.
pub struct Table {
    pub header: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, (c, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                // Right-align numbers, left-align text.
                if c.chars()
                    .next()
                    .map(|ch| ch.is_ascii_digit())
                    .unwrap_or(false)
                {
                    out.push_str(&format!("{c:>w$}"));
                } else {
                    out.push_str(&format!("{c:<w$}"));
                }
            }
            out.push('\n');
        };
        line(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{Key, Matrix};
    use commopt_benchmarks::{tomcatv, Experiment};

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["alpha".into(), "1".into()]);
        t.row(&["b".into(), "10000".into()]);
        let s = t.render();
        assert!(s.contains("alpha"));
        assert!(s.lines().count() == 4);
        // Numbers right-aligned under the widest cell.
        assert!(s.lines().last().unwrap().ends_with("10000"));
    }

    #[test]
    fn parse_exp_accepts_the_vect_level() {
        assert_eq!(parse_exp("vect"), Ok(Experiment::Baseline));
        assert_eq!(parse_exp("VECT"), Ok(Experiment::Baseline));
        let err = parse_exp("vector").unwrap_err();
        assert!(err.contains("expected vect, baseline, rr"), "{err}");
    }

    #[test]
    fn matrix_cell_produces_consistent_counts() {
        let b = tomcatv();
        let key = Key::experiment(&b, Experiment::Baseline);
        let m = Matrix::compute([key], 1);
        let c = m.get(key);
        assert_eq!(c.static_count, 46);
        assert!(c.time_s > 0.0);
        assert!(c.dynamic_comm > 30_000);
    }
}
