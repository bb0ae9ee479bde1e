//! Randomized tests for the processor grid and block distribution: the
//! invariants every executor relies on, checked over seeded random grids,
//! bounds, and offsets (commopt-testkit; no external dependencies).

use commopt_ir::Rect;
use commopt_machine::{BlockDist, ProcGrid};
use commopt_testkit::{cases, Rng};

fn arb_grid(rng: &mut Rng) -> ProcGrid {
    ProcGrid::new(rng.usize(1, 6), rng.usize(1, 6))
}

fn arb_bounds(rng: &mut Rng) -> Rect {
    // Possibly offset-based lower bounds, rank 2 or 3.
    let lo = rng.i64(1, 3);
    let n0 = rng.i64(6, 20);
    let n1 = rng.i64(6, 20);
    if rng.bool() {
        Rect::d3((lo, lo + n0 - 1), (lo, lo + n1 - 1), (1, rng.i64(1, 8)))
    } else {
        Rect::d2((lo, lo + n0 - 1), (lo, lo + n1 - 1))
    }
}

#[test]
fn blocks_partition_the_index_space() {
    cases(256, |rng| {
        let grid = arb_grid(rng);
        let bounds = arb_bounds(rng);
        let d = BlockDist::new(grid, bounds);
        // Coverage: total owned count equals the space.
        let total: u64 = grid.procs().map(|p| d.owned(p).count()).sum();
        assert_eq!(total, bounds.count());
        // Disjointness: every index has exactly one owner, and owner_of
        // inverts owned.
        for p in grid.procs() {
            let o = d.owned(p);
            o.for_each(|idx| assert_eq!(d.owner_of(idx), p));
        }
    });
}

#[test]
fn block_sizes_are_balanced() {
    cases(256, |rng| {
        // Max and min non-empty block extents differ by at most 1 per dim.
        let grid = arb_grid(rng);
        let bounds = arb_bounds(rng);
        let d = BlockDist::new(grid, bounds);
        for dim in 0..2usize.min(bounds.rank) {
            let mut extents: Vec<i64> = grid.procs().map(|p| d.owned(p).extent(dim)).collect();
            extents.sort();
            extents.dedup();
            assert!(extents.len() <= 2, "{extents:?}");
            if extents.len() == 2 {
                assert_eq!(extents[1] - extents[0], 1);
            }
        }
    });
}

#[test]
fn neighbor_relation_is_symmetric() {
    cases(64, |rng| {
        let grid = arb_grid(rng);
        for p in grid.procs() {
            for dr in -1i32..=1 {
                for dc in -1i32..=1 {
                    if let Some(q) = grid.neighbor(p, [dr, dc]) {
                        assert_eq!(grid.neighbor(q, [-dr, -dc]), Some(p));
                    }
                }
            }
        }
    });
}

#[test]
fn square_grids_use_all_processors() {
    for n in 1usize..=64 {
        let g = ProcGrid::square(n);
        assert_eq!(g.len(), n);
        // As square as the factorization allows.
        assert!(g.dims[0] <= g.dims[1]);
    }
}
