//! Block distribution of array index spaces over the processor grid.
//!
//! All arrays are trivially aligned — element `(i, j)` of every array lives
//! on the same processor — and block distributed over the first
//! [`DIST_DIMS`](crate::topology::DIST_DIMS) dimensions of the grid
//! (paper §3.1). A rank-3 array's third dimension is processor-local.

// Dimension loops deliberately index several parallel arrays by `d`.
#![allow(clippy::needless_range_loop)]

use crate::topology::{ProcGrid, ProcId, DIST_DIMS};
use commopt_ir::{Rect, MAX_RANK};

/// The block distribution of one index space over a grid.
///
/// Dimension `d < DIST_DIMS` of the bounds is split into `grid.dims[d]`
/// near-equal blocks (leading blocks take the remainder, like the ZPL
/// runtime); higher dimensions are local.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct BlockDist {
    pub grid: ProcGrid,
    pub bounds: Rect,
}

impl BlockDist {
    pub fn new(grid: ProcGrid, bounds: Rect) -> BlockDist {
        BlockDist { grid, bounds }
    }

    /// The inclusive sub-range of `lo..=hi` owned by block `k` of `nblocks`.
    fn split(lo: i64, hi: i64, k: usize, nblocks: usize) -> (i64, i64) {
        let n = (hi - lo + 1).max(0) as usize;
        let base = n / nblocks;
        let rem = n % nblocks;
        let start = k.min(rem) * (base + 1) + k.saturating_sub(rem) * base;
        let len = if k < rem { base + 1 } else { base };
        (lo + start as i64, lo + start as i64 + len as i64 - 1)
    }

    /// The block of the index space owned by processor `p` (possibly empty
    /// when there are more processors than elements along a dimension).
    pub fn owned(&self, p: ProcId) -> Rect {
        let c = self.grid.coords(p);
        let mut lo = self.bounds.lo;
        let mut hi = self.bounds.hi;
        for d in 0..DIST_DIMS.min(self.bounds.rank) {
            let (l, h) = Self::split(
                self.bounds.lo[d],
                self.bounds.hi[d],
                c[d],
                self.grid.dims[d],
            );
            lo[d] = l;
            hi[d] = h;
        }
        Rect {
            rank: self.bounds.rank,
            lo,
            hi,
        }
    }

    /// The processor owning global index `idx`.
    ///
    /// # Panics
    /// Panics when `idx` lies outside the distributed bounds.
    pub fn owner_of(&self, idx: [i64; MAX_RANK]) -> ProcId {
        assert!(
            self.bounds.contains(idx),
            "index {idx:?} outside {:?}",
            self.bounds
        );
        let mut c = [0usize; DIST_DIMS];
        for d in 0..DIST_DIMS.min(self.bounds.rank) {
            // Find the block containing idx[d] along dimension d.
            c[d] = (0..self.grid.dims[d])
                .find(|&k| {
                    let (l, h) =
                        Self::split(self.bounds.lo[d], self.bounds.hi[d], k, self.grid.dims[d]);
                    l <= idx[d] && idx[d] <= h
                })
                .expect("index must fall in some block");
        }
        self.grid.at(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist_8x8_on_2x2() -> BlockDist {
        BlockDist::new(ProcGrid::new(2, 2), Rect::d2((1, 8), (1, 8)))
    }

    #[test]
    fn blocks_partition_the_space() {
        let d = dist_8x8_on_2x2();
        let total: u64 = d.grid.procs().map(|p| d.owned(p).count()).sum();
        assert_eq!(total, 64);
        assert_eq!(d.owned(0), Rect::d2((1, 4), (1, 4)));
        assert_eq!(d.owned(3), Rect::d2((5, 8), (5, 8)));
    }

    #[test]
    fn uneven_split_puts_remainder_first() {
        // 7 elements over 2 blocks: 4 + 3.
        let d = BlockDist::new(ProcGrid::new(1, 2), Rect::d2((1, 4), (1, 7)));
        assert_eq!(d.owned(0), Rect::d2((1, 4), (1, 4)));
        assert_eq!(d.owned(1), Rect::d2((1, 4), (5, 7)));
    }

    #[test]
    fn owner_inverts_owned() {
        let d = BlockDist::new(ProcGrid::new(3, 2), Rect::d2((1, 10), (1, 7)));
        for p in d.grid.procs() {
            let o = d.owned(p);
            o.for_each(|idx| assert_eq!(d.owner_of(idx), p));
        }
    }

    #[test]
    fn rank3_third_dim_is_local() {
        let d = BlockDist::new(ProcGrid::new(2, 2), Rect::d3((1, 8), (1, 8), (1, 16)));
        assert_eq!(d.owned(0), Rect::d3((1, 4), (1, 4), (1, 16)));
    }
}
