//! # commopt-benchmarks — the paper's benchmark suite
//!
//! The four benchmark programs of Choi & Snyder's evaluation (Figure 7) —
//! **TOMCATV**, **SWM**, **SIMPLE** and **SP** — ported to mini-ZPL, plus
//! the Jacobi quickstart program and the synthetic two-node overhead
//! benchmark of §3.2 (Figure 6).
//!
//! Every benchmark carries the paper's Appendix A numbers ([`paper`]) so
//! the harness can print paper-vs-measured tables, and compiles at any
//! problem size via `config` overrides (small sizes for correctness tests,
//! the paper's sizes for the reproduction runs).

pub mod paper;
pub mod synthetic;

pub use paper::{Experiment, PaperRow, PaperTable};

use commopt_ir::Program;
use commopt_lang::Frontend;

/// One benchmark program with its experimental context.
#[derive(Clone, Copy, Debug)]
pub struct Benchmark {
    pub name: &'static str,
    pub description: &'static str,
    /// Mini-ZPL source text.
    pub source: &'static str,
    /// The paper's problem size (Appendix A).
    pub paper_size: &'static str,
    /// Processors used in the paper's whole-program experiments.
    pub paper_procs: usize,
    /// Appendix A results (static count, dynamic count, execution time).
    pub paper: PaperTable,
}

impl Benchmark {
    /// Compiles the benchmark at its default (paper) problem size.
    pub fn program(&self) -> Program {
        Frontend::new(self.source)
            .compile()
            .unwrap_or_else(|e| panic!("{}: {e}", self.name))
    }

    /// Compiles with an overridden grid size and iteration count — used by
    /// correctness tests, scaling studies and quick runs.
    pub fn program_with(&self, n: i64, iters: i64) -> Program {
        Frontend::new(self.source)
            .with_config("n", n)
            .with_config("iters", iters)
            .compile()
            .unwrap_or_else(|e| panic!("{}: {e}", self.name))
    }
}

/// TOMCATV: Thompson solver and grid generation (SPEC).
pub fn tomcatv() -> Benchmark {
    Benchmark {
        name: "tomcatv",
        description: "Thompson solver and grid generation (SPEC)",
        source: include_str!("../programs/tomcatv.zpl"),
        paper_size: "128x128",
        paper_procs: 64,
        paper: paper::TOMCATV,
    }
}

/// SWM: weather prediction (shallow water model).
pub fn swm() -> Benchmark {
    Benchmark {
        name: "swm",
        description: "Weather prediction (shallow water model)",
        source: include_str!("../programs/swm.zpl"),
        paper_size: "512x512",
        paper_procs: 64,
        paper: paper::SWM,
    }
}

/// SIMPLE: hydrodynamics simulation (Livermore Labs).
pub fn simple() -> Benchmark {
    Benchmark {
        name: "simple",
        description: "Hydrodynamics simulation (Livermore Labs)",
        source: include_str!("../programs/simple.zpl"),
        paper_size: "256x256",
        paper_procs: 64,
        paper: paper::SIMPLE,
    }
}

/// SP: CFD computation (NAS Application Benchmarks).
pub fn sp() -> Benchmark {
    Benchmark {
        name: "sp",
        description: "CFD computation (NAS Application Benchmarks)",
        source: include_str!("../programs/sp.zpl"),
        paper_size: "16x16x16",
        paper_procs: 64,
        paper: paper::SP,
    }
}

/// The paper's whole-program suite, in Figure 7 order.
pub fn suite() -> [Benchmark; 4] {
    [tomcatv(), swm(), simple(), sp()]
}

/// The Jacobi quickstart program (not part of the paper's suite).
pub fn jacobi_source() -> &'static str {
    include_str!("../programs/jacobi.zpl")
}

#[cfg(test)]
mod tests {
    use super::*;
    use commopt_core::{optimize, OptConfig};
    use commopt_ir::validate;

    #[test]
    fn all_benchmarks_compile_and_validate() {
        for b in suite() {
            let p = b.program();
            assert!(validate(&p).is_ok(), "{}", b.name);
            assert!(p.stmt_count() > 10, "{}", b.name);
        }
        assert!(commopt_lang::compile(jacobi_source()).is_ok());
    }

    #[test]
    fn all_benchmarks_compile_at_small_sizes() {
        for b in suite() {
            let p = b.program_with(12, 2);
            assert!(validate(&p).is_ok(), "{}", b.name);
        }
    }

    #[test]
    fn every_preset_plans_safely_on_every_benchmark() {
        for b in suite() {
            let p = b.program_with(16, 2);
            for (name, cfg) in OptConfig::presets() {
                let opt = optimize(&p, &cfg);
                let report = commopt_analysis::lint(&opt.program);
                assert!(
                    report.safe(),
                    "{} under {name}:\n{}",
                    b.name,
                    report.render()
                );
            }
        }
    }

    #[test]
    fn static_counts_decrease_monotonically() {
        for b in suite() {
            let p = b.program();
            let base = optimize(&p, &OptConfig::baseline()).static_count();
            let rr = optimize(&p, &OptConfig::rr()).static_count();
            let cc = optimize(&p, &OptConfig::cc()).static_count();
            let ml = optimize(&p, &OptConfig::pl_max_latency()).static_count();
            assert!(
                base > rr,
                "{}: rr must remove redundancy ({base} vs {rr})",
                b.name
            );
            assert!(rr > cc, "{}: cc must combine ({rr} vs {cc})", b.name);
            assert!(cc <= ml && ml <= rr, "{}: max-latency in between", b.name);
        }
    }

    #[test]
    fn suite_matches_figure7_order() {
        let names: Vec<&str> = suite().iter().map(|b| b.name).collect();
        assert_eq!(names, vec!["tomcatv", "swm", "simple", "sp"]);
        assert!(suite().iter().all(|b| b.paper_procs == 64));
    }
}
