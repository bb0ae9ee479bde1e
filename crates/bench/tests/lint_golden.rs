//! Golden commlint results over the paper suite.
//!
//! The analyzer's headroom findings must agree with what the optimizer
//! actually does, decision by decision: C003 (redundant communication) at
//! the vectorization-only level names exactly the `(array, offset)`
//! references the rr pass removes, and C004 (combinable) names transfers
//! with exactly the offsets of the merges the cc pass performs, on the
//! programs `golden_lint` covers at both of its sizings. Stacking the
//! levels must drain the findings monotonically to zero at `pl`, with no
//! error-severity finding anywhere along the way.

use commopt_analysis::{lint, Code};
use commopt_bench::lint::lint_at;
use commopt_bench::matrix::Key;
use commopt_benchmarks::{jacobi_source, suite, Experiment};
use commopt_core::{optimize, PassEvent};
use commopt_ir::Program;
use commopt_lang::Frontend;

/// The programs `golden_lint` covers (the suite, Jacobi and
/// `examples/stencil.zpl`), each at the quick sizing (16×16, two
/// iterations) and at its own, named like `swm/quick`.
fn programs() -> Vec<(String, Program)> {
    let mut sources: Vec<(&str, &str)> = suite().iter().map(|b| (b.name, b.source)).collect();
    sources.push(("jacobi", jacobi_source()));
    sources.push(("stencil", include_str!("../../../examples/stencil.zpl")));
    let mut out = Vec::new();
    for (name, source) in sources {
        for (sizing, quick) in [("quick", true), ("own", false)] {
            let mut frontend = Frontend::new(source);
            if quick {
                frontend = frontend.with_config("n", 16).with_config("iters", 2);
            }
            let program = frontend.compile().unwrap_or_else(|e| panic!("{name}: {e}"));
            out.push((format!("{name}/{sizing}"), program));
        }
    }
    out
}

fn sorted<T: Ord>(mut items: Vec<T>) -> Vec<T> {
    items.sort();
    items
}

#[test]
fn c003_and_c004_at_vect_name_the_rr_and_cc_decisions() {
    for (cell, program) in programs() {
        let vect = optimize(&program, &Experiment::Baseline.config()).program;
        let report = lint(&vect);
        let c003 = report
            .with_code(Code::C003)
            .map(|d| d.r.expect("C003 names its reference"))
            .map(|r| (r.array, r.offset));
        let c004 = report
            .with_code(Code::C004)
            .map(|d| vect.transfer(d.transfer.expect("C004 names its transfer")));
        let rr = optimize(&program, &Experiment::Rr.config()).log.events;
        let removed = rr.iter().filter_map(|e| match e {
            PassEvent::Removed { array, offset, .. } => Some((*array, *offset)),
            _ => None,
        });
        let cc = optimize(&program, &Experiment::Cc.config()).log.events;
        let merged = cc.iter().filter_map(|e| match e {
            PassEvent::Combined { offset, .. } => Some(*offset),
            _ => None,
        });
        assert_eq!(
            sorted(c003.collect()),
            sorted(removed.collect()),
            "{cell}: C003 findings at vect vs rr removals"
        );
        assert_eq!(
            sorted(c004.map(|t| t.offset()).collect()),
            sorted(merged.collect()),
            "{cell}: offsets of C004 findings at vect vs cc merges"
        );
    }
}

#[test]
fn findings_drain_monotonically_to_zero_at_pl() {
    for b in suite() {
        let totals: Vec<usize> = Experiment::LEVELS
            .iter()
            .map(|&e| lint_at(Key::experiment(&b, e)).diagnostics.len())
            .collect();
        for w in totals.windows(2) {
            assert!(
                w[0] >= w[1],
                "{}: findings grew across a level: {totals:?}",
                b.name
            );
        }
        assert_eq!(
            *totals.last().expect("four levels"),
            0,
            "{}: pl output should lint clean: {totals:?}",
            b.name
        );
    }
}

#[test]
fn no_error_severity_findings_at_any_level() {
    for b in suite() {
        for exp in Experiment::LEVELS {
            let report = lint_at(Key::experiment(&b, exp));
            assert!(
                report.error_free(),
                "{} @ {}:\n{}",
                b.name,
                exp.name(),
                report.render()
            );
        }
    }
}

#[test]
fn lint_cli_reports_a_compile_error_at_its_statement_without_usage() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("oob.zpl");
    std::fs::write(
        &path,
        "program oob;\nconfig n = 8;\nvar A : [1..n, 1..n] double;\n\
         begin\n  [0..n, 1..n] A := 1.0;\nend\n",
    )
    .expect("write the program");
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_lint"))
        .arg(&path)
        .output()
        .expect("run the lint binary");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error at 5:3: "), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
}
