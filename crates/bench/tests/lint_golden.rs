//! Golden commlint results over the paper suite.
//!
//! The analyzer's headroom findings must agree with what the optimizer
//! actually does: C003 (redundant communication) at the vectorization-only
//! level counts exactly the removals the rr pass performs, and C004
//! (combinable) counts exactly the merges the cc pass performs. Stacking
//! the levels must drain the findings monotonically to zero at `pl`, with
//! no error-severity finding anywhere along the way.

use commopt_analysis::Code;
use commopt_bench::lint::lint_at;
use commopt_bench::matrix::Key;
use commopt_benchmarks::{suite, Experiment};
use commopt_core::optimize;

#[test]
fn c003_at_vect_counts_the_rr_removals() {
    for b in suite() {
        let report = lint_at(Key::experiment(&b, Experiment::Baseline));
        let rr = optimize(&b.program(), &Experiment::Rr.config());
        assert_eq!(
            report.count(Code::C003),
            rr.log.removals().count(),
            "{}: C003 findings at vect vs rr removals",
            b.name
        );
    }
}

#[test]
fn c004_at_vect_counts_the_cc_merges() {
    for b in suite() {
        let report = lint_at(Key::experiment(&b, Experiment::Baseline));
        let cc = optimize(&b.program(), &Experiment::Cc.config());
        assert_eq!(
            report.count(Code::C004),
            cc.log.merges().count(),
            "{}: C004 findings at vect vs cc merges",
            b.name
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
