//! Block distribution of array index spaces over the processor grid.
//!
//! All arrays are trivially aligned — element `(i, j)` of every array lives
//! on the same processor — and block distributed over the first
//! [`DIST_DIMS`] dimensions of the grid (paper §3.1). A rank-3 array's
//! third dimension is processor-local.

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

    /// The number of blocks along dimension `d`: the grid's extent along a
    /// distributed dimension, one along a processor-local one.
    pub fn blocks(&self, d: usize) -> usize {
        if d < DIST_DIMS.min(self.bounds.rank) {
            self.grid.dims[d]
        } else {
            1
        }
    }

    /// Dimension `d`'s first index, then the length of a short block and
    /// the number of leading blocks one index longer.
    fn split(&self, d: usize) -> (i64, usize, usize) {
        let n = self.bounds.extent(d) as usize;
        let k = self.blocks(d);
        (self.bounds.lo[d], n / k, n % k)
    }

    /// The inclusive index range of block `k` along dimension `d`: empty
    /// (`hi < lo`) when there are more blocks than indices and `k` is past
    /// them, since leading blocks take the remainder, like the ZPL runtime.
    pub fn span(&self, d: usize, k: usize) -> (i64, i64) {
        let (lo, base, rem) = self.split(d);
        let start = k.min(rem) * (base + 1) + k.saturating_sub(rem) * base;
        let len = if k < rem { base + 1 } else { base };
        (lo + start as i64, lo + (start + len) as i64 - 1)
    }

    /// The block along dimension `d` that holds index `i`: the inverse of
    /// [`span`](BlockDist::span), in O(1).
    ///
    /// # Panics
    /// Panics when `i` lies outside the bounds along `d`.
    pub fn block_of(&self, d: usize, i: i64) -> usize {
        assert!(
            self.bounds.lo[d] <= i && i <= self.bounds.hi[d],
            "index {i} outside dimension {d} of {:?}",
            self.bounds
        );
        let (lo, base, rem) = self.split(d);
        let o = (i - lo) as usize;
        // The leading blocks cover `rem * (base + 1)` indices; past them
        // `base` is at least one.
        let long = rem * (base + 1);
        if o < long {
            o / (base + 1)
        } else {
            rem + (o - long) / base
        }
    }

    /// The block of the index space owned by processor `p` (possibly empty
    /// when there are more processors than elements along a dimension).
    pub fn owned(&self, p: ProcId) -> Rect {
        let c = self.grid.coords(p);
        let mut lo = self.bounds.lo;
        let mut hi = self.bounds.hi;
        for d in 0..DIST_DIMS.min(self.bounds.rank) {
            (lo[d], hi[d]) = self.span(d, c[d]);
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
            c[d] = self.block_of(d, idx[d]);
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
    fn empty_blocks_lie_past_the_indices() {
        // Rows 1–3 over 4 blocks, columns 1–6 over 4 (2 + 2 + 1 + 1).
        let d = BlockDist::new(ProcGrid::new(4, 4), Rect::d2((1, 3), (1, 6)));
        let spans = |dim| {
            (0..d.blocks(dim))
                .map(|k| d.span(dim, k))
                .collect::<Vec<_>>()
        };
        assert_eq!(spans(0), [(1, 1), (2, 2), (3, 3), (4, 3)]);
        assert_eq!(spans(1), [(1, 2), (3, 4), (5, 5), (6, 6)]);
        assert_eq!(spans(2), [(0, 0)]);
        assert_eq!(d.block_of(0, 3), 2);
        assert_eq!(d.block_of(1, 6), 3);
        assert!(d.owned(12).is_empty());
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
