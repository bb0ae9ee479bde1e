//! Randomized tests for the processor grid and block distribution: the
//! invariants every executor relies on, checked over seeded random grids,
//! bounds, and offsets (commopt-testkit; no external dependencies).

// Dimension loops deliberately index several parallel arrays by `d`.
#![allow(clippy::needless_range_loop)]

use commopt_ir::{Rect, MAX_RANK};
use commopt_machine::topology::DIST_DIMS;
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

/// Bounds of rank 1 to 3 with 1–9 indices along each dimension, so that a
/// grid of up to 6×6 often has more blocks than indices.
fn arb_small_bounds(rng: &mut Rng) -> Rect {
    let rank = rng.usize(1, 3);
    let (mut lo, mut hi) = ([0; MAX_RANK], [0; MAX_RANK]);
    for d in 0..rank {
        lo[d] = rng.i64(-2, 3);
        hi[d] = lo[d] + rng.i64(0, 8);
    }
    Rect::new(rank, lo, hi)
}

#[test]
fn block_of_and_owner_of_agree_with_owned() {
    cases(512, |rng| {
        let grid = arb_grid(rng);
        let bounds = arb_small_bounds(rng);
        let d = BlockDist::new(grid, bounds);
        for p in grid.procs() {
            let owned = d.owned(p);
            let coords = grid.coords(p);
            for dim in 0..MAX_RANK {
                let k = if dim < DIST_DIMS.min(bounds.rank) {
                    coords[dim]
                } else {
                    0
                };
                assert_eq!(d.span(dim, k), (owned.lo[dim], owned.hi[dim]));
                for i in owned.lo[dim]..=owned.hi[dim] {
                    assert_eq!(d.block_of(dim, i), k, "{bounds:?} on {grid:?}, dim {dim}");
                }
            }
            // A rank-1 array's block is replicated along its grid row; the
            // owner is the replica in column 0.
            let mut home = coords;
            if bounds.rank == 1 {
                home[1] = 0;
            }
            owned.for_each(|idx| assert_eq!(d.owner_of(idx), grid.at(home)));
        }
        // Blocks past the indices are empty, and all of them together
        // cover each distributed dimension.
        for dim in 0..DIST_DIMS.min(bounds.rank) {
            let len: i64 = (0..d.blocks(dim))
                .map(|k| {
                    let (lo, hi) = d.span(dim, k);
                    (hi - lo + 1).max(0)
                })
                .sum();
            assert_eq!(len, bounds.extent(dim));
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
