//! The figure registry without paper-size simulation: which matrix cells a
//! full reproduction simulates, and the cell-free figures byte for byte
//! against their committed `results/*.txt`.

use commopt_bench::figures::{find, FIGURES};
use commopt_bench::matrix::{distinct, Key, Matrix};
use std::collections::HashSet;
use std::path::Path;

fn keys_of(name: &str) -> Vec<Key> {
    (find(name)
        .unwrap_or_else(|| panic!("no figure {name}"))
        .keys)()
}

#[test]
fn full_reproduction_simulates_each_paper_cell_once() {
    // Per benchmark: ablation masks 0-7 on PVM, pl and pl-max-latency on
    // SHMEM, pl on the three NX libraries, and pl + global on PVM.
    let all = distinct(FIGURES.iter().flat_map(|f| (f.keys)()));
    assert_eq!(all.len(), 4 * 14);

    // The scaled figures re-read the appendix tables' and the ablation's
    // cells; none of them adds a run of its own.
    let shared: HashSet<Key> = keys_of("tables")
        .into_iter()
        .chain(keys_of("ablation"))
        .collect();
    for name in [
        "fig8_counts",
        "fig10_times",
        "fig11_heuristics",
        "fig12_heuristics",
    ] {
        for k in keys_of(name) {
            assert!(
                shared.contains(&k),
                "{name} reads {k:?}, which neither tables nor ablation reads"
            );
        }
    }
}

#[test]
fn cell_free_figures_match_committed_results() {
    let empty = Matrix::compute(Vec::new(), 1);
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for name in [
        "fig3_machines",
        "fig5_bindings",
        "fig6_overhead",
        "fig7_suite",
    ] {
        assert!(keys_of(name).is_empty(), "{name} reads matrix cells");
        let path = results.join(format!("{name}.txt"));
        let want =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let got = (find(name).expect("registered").render)(&empty);
        assert!(
            got == want,
            "{name} differs from {}:\n{got}",
            path.display()
        );
    }
}
