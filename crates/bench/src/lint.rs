//! commlint over the benchmark suite.
//!
//! Runs the static analyzer on every paper benchmark at every optimization
//! level and tabulates the per-code finding counts. The table is the
//! static-analysis companion to the Figure 8 count table: C003 counts the
//! redundant communications a level has *not yet removed* (the rr
//! headroom), C004 the merge opportunities still open (cc headroom), so
//! reading a benchmark's row left to right shows the findings drain as the
//! optimization levels stack — and hit zero at `pl`.

use crate::matrix::{levels, Key, Sizing};
use crate::Table;
use commopt_analysis::{lint, Code, LintReport};
use commopt_core::optimize;
use commopt_ironman::Library;
use commopt_testkit::pool::Pool;

/// Optimizes the cell's benchmark at its sizing and config and lints the
/// instrumented program.
pub fn lint_at(key: Key) -> LintReport {
    let opt = optimize(&key.sizing.program(&key.benchmark()), &key.config);
    lint(&opt.program)
}

/// The per-benchmark × per-level findings table at the paper's sizing
/// (one row per benchmark × level, one column per lint code, plus a
/// total), with the cells fanned over `jobs` worker threads. Rows land in
/// matrix order regardless of worker count, so the rendered table is
/// identical to a serial one.
pub fn findings_table_jobs(jobs: usize) -> Table {
    let mut header = vec!["benchmark", "level"];
    header.extend(Code::ALL.map(Code::as_str));
    header.push("total");
    let mut t = Table::new(&header);
    // commlint reads only the plan, so one library per level suffices.
    let keys = levels(Sizing::Paper, &[Library::Pvm]);
    let rows = Pool::new(jobs).map(keys, |_, key| {
        let report = lint_at(key);
        let mut row = vec![key.bench.to_string(), key.level().name().to_string()];
        for code in Code::ALL {
            row.push(report.count(code).to_string());
        }
        row.push(report.diagnostics.len().to_string());
        row
    });
    for row in rows {
        t.row(&row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    use commopt_benchmarks::Experiment;

    #[test]
    fn table_has_a_row_per_benchmark_and_level() {
        let t = findings_table_jobs(1);
        assert_eq!(t.rows.len(), 4 * Experiment::LEVELS.len());
        assert_eq!(t.header.len(), 2 + Code::ALL.len() + 1);
    }
}
