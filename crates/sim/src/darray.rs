//! Distributed array storage: per-processor blocks with ghost rings.

// Dimension loops deliberately index several parallel arrays by `d`.
#![allow(clippy::needless_range_loop)]

use crate::eval::{copy_lane, runs};
use commopt_ir::{Rect, MAX_RANK};
use commopt_machine::{BlockDist, ProcGrid};

/// A dense, row-major block of `f64` covering a rectangle of index space.
#[derive(Clone, PartialEq, Debug)]
pub struct Block {
    /// The storage rectangle (owned block grown by the ghost width).
    pub rect: Rect,
    /// Storage distance between neighbours along each dimension.
    strides: [usize; MAX_RANK],
    data: Vec<f64>,
}

impl Block {
    /// Allocates storage over `rect`, filled with `fill`.
    pub fn new(rect: Rect, fill: f64) -> Block {
        let mut strides = [1usize; MAX_RANK];
        for d in (0..MAX_RANK - 1).rev() {
            strides[d] = strides[d + 1] * rect.extent(d + 1) as usize;
        }
        Block {
            rect,
            strides,
            data: vec![fill; rect.count() as usize],
        }
    }

    #[inline]
    fn linear(&self, idx: [i64; MAX_RANK]) -> usize {
        debug_assert!(
            self.rect.contains(idx),
            "index {idx:?} outside block {:?}",
            self.rect
        );
        let o0 = (idx[0] - self.rect.lo[0]) as usize;
        let o1 = (idx[1] - self.rect.lo[1]) as usize;
        let o2 = (idx[2] - self.rect.lo[2]) as usize;
        o0 * self.strides[0] + o1 * self.strides[1] + o2
    }

    /// Reads one element.
    #[inline]
    pub fn get(&self, idx: [i64; MAX_RANK]) -> f64 {
        self.data[self.linear(idx)]
    }

    /// Writes one element.
    #[inline]
    pub fn set(&mut self, idx: [i64; MAX_RANK], v: f64) {
        let i = self.linear(idx);
        self.data[i] = v;
    }

    /// The storage distance between neighbours along dimension `d`: 1
    /// along the last, and the product of the later extents before it.
    #[inline]
    pub fn stride(&self, d: usize) -> usize {
        self.strides[d]
    }

    /// The storage of a lane of `len` elements `stride` apart starting at
    /// `base`, from its first element to its last; the elements between
    /// belong to other lanes. With `stride` 1 it is the lane itself.
    #[inline]
    pub fn lane(&self, base: [i64; MAX_RANK], len: usize, stride: usize) -> &[f64] {
        let start = self.linear(base);
        &self.data[start..=start + (len - 1) * stride]
    }

    /// [`Block::lane`], mutable.
    #[inline]
    pub fn lane_mut(&mut self, base: [i64; MAX_RANK], len: usize, stride: usize) -> &mut [f64] {
        let start = self.linear(base);
        &mut self.data[start..=start + (len - 1) * stride]
    }

    /// Writes `vals`, row-major over `rect`, lane by lane.
    pub fn write(&mut self, rect: &Rect, vals: &[f64]) {
        debug_assert_eq!(vals.len() as u64, rect.count());
        let lanes = runs(rect);
        let s = self.stride(lanes.axis());
        for (base, len, pos) in lanes {
            copy_lane(self.lane_mut(base, len, s), s, &vals[pos..pos + len], 1);
        }
    }

    /// `true` when `idx` falls inside the storage rectangle.
    pub fn contains(&self, idx: [i64; MAX_RANK]) -> bool {
        self.rect.contains(idx)
    }
}

/// One array distributed over the processor grid: a [`Block`] per
/// processor covering its owned rectangle grown by the ghost width.
///
/// Owned cells are initialized to `0.0`; ghost cells to **NaN**, so that
/// reading ghost data that was never delivered by a transfer poisons the
/// results — the runtime manifestation of a missing communication.
#[derive(Clone, Debug)]
pub struct DistArray {
    pub dist: BlockDist,
    pub ghost: i64,
    pub blocks: Vec<Block>,
}

impl DistArray {
    /// Allocates the distributed array.
    pub fn new(grid: ProcGrid, bounds: Rect, ghost: i64) -> DistArray {
        let dist = BlockDist::new(grid, bounds);
        let blocks = (0..grid.len())
            .map(|p| {
                let owned = dist.owned(p);
                let mut b = Block::new(owned.grown(ghost), f64::NAN);
                let lanes = runs(&owned);
                let s = b.stride(lanes.axis());
                for (base, len, _) in lanes {
                    let lane = b.lane_mut(base, len, s);
                    if s == 1 {
                        lane.fill(0.0);
                    } else {
                        lane.iter_mut().step_by(s).for_each(|v| *v = 0.0);
                    }
                }
                b
            })
            .collect();
        DistArray {
            dist,
            ghost,
            blocks,
        }
    }

    /// The block of processor `p`.
    pub fn block(&self, p: usize) -> &Block {
        &self.blocks[p]
    }

    pub fn block_mut(&mut self, p: usize) -> &mut Block {
        &mut self.blocks[p]
    }

    /// Reads the globally-correct value at `idx` (from its owner's block):
    /// the per-element reference the row copies are tested against.
    #[cfg(test)]
    pub fn global_get(&self, idx: [i64; MAX_RANK]) -> f64 {
        self.blocks[self.dist.owner_of(idx)].get(idx)
    }

    /// Appends `rect`'s values to `out` in row-major order, each copied
    /// lane by lane from its owner's block; a lane of an owner's part may
    /// be strided on both sides. A rank-1 array is read from processor
    /// column 0's replica, the one [`BlockDist::owner_of`] names.
    pub fn read_into(&self, rect: &Rect, out: &mut Vec<f64>) {
        if rect.is_empty() {
            return;
        }
        let at = out.len();
        out.resize(at + rect.count() as usize, 0.0);
        let out = &mut out[at..];
        let dist = &self.dist;
        let blocks = |d: usize| dist.block_of(d, rect.lo[d])..=dist.block_of(d, rect.hi[d]);
        for r in blocks(0) {
            for c in blocks(1) {
                let p = dist.grid.at([r, c]);
                let part = rect.intersect(&dist.owned(p));
                let lanes = runs(&part);
                let block = &self.blocks[p];
                let (os, bs) = (row_stride(rect, lanes.axis()), block.stride(lanes.axis()));
                for (base, len, _) in lanes {
                    let at = offset_in(rect, base);
                    copy_lane(
                        &mut out[at..=at + (len - 1) * os],
                        os,
                        block.lane(base, len, bs),
                        bs,
                    );
                }
            }
        }
    }

    /// Gathers the whole array into a row-major vector over its bounds —
    /// the arrays a full-mode run reports.
    pub fn gather(&self) -> (Rect, Vec<f64>) {
        let bounds = self.dist.bounds;
        let mut out = Vec::with_capacity(bounds.count() as usize);
        self.read_into(&bounds, &mut out);
        (bounds, out)
    }
}

/// The row-major position of `idx` within `rect`.
fn offset_in(rect: &Rect, idx: [i64; MAX_RANK]) -> usize {
    let o0 = (idx[0] - rect.lo[0]) as usize;
    let o1 = (idx[1] - rect.lo[1]) as usize;
    let o2 = (idx[2] - rect.lo[2]) as usize;
    (o0 * rect.extent(1) as usize + o1) * rect.extent(2) as usize + o2
}

/// The distance between neighbours along dimension `d` in a row-major
/// buffer over `rect`.
fn row_stride(rect: &Rect, d: usize) -> usize {
    (d + 1..MAX_RANK).map(|e| rect.extent(e) as usize).product()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_round_trip() {
        let mut b = Block::new(Rect::d2((0, 3), (0, 3)), 0.0);
        b.set([2, 1, 0], 42.0);
        assert_eq!(b.get([2, 1, 0]), 42.0);
        assert_eq!(b.get([0, 0, 0]), 0.0);
    }

    #[test]
    fn lanes_along_the_last_dim_are_contiguous() {
        let mut b = Block::new(Rect::d2((1, 2), (1, 4)), 0.0);
        for j in 1..=4 {
            b.set([1, j, 0], j as f64);
        }
        assert_eq!(b.stride(1), 1);
        assert_eq!(b.lane([1, 1, 0], 4, 1), &[1.0, 2.0, 3.0, 4.0]);
        b.lane_mut([1, 2, 0], 2, 1).copy_from_slice(&[9.0, 8.0]);
        assert_eq!(b.get([1, 2, 0]), 9.0);
        assert_eq!(b.get([1, 3, 0]), 8.0);
        let mut c = Block::new(Rect::d3((1, 2), (1, 2), (1, 3)), 0.0);
        for k in 1..=3 {
            c.set([2, 1, k], 10.0 + k as f64);
        }
        assert_eq!(c.lane([2, 1, 1], 3, 1), &[11.0, 12.0, 13.0]);
    }

    #[test]
    fn lanes_along_earlier_dims_are_strided() {
        let r = Rect::d3((1, 3), (1, 4), (1, 5));
        let mut b = Block::new(r, 0.0);
        r.for_each(|i| b.set(i, (100 * i[0] + 10 * i[1] + i[2]) as f64));
        assert_eq!([b.stride(0), b.stride(1), b.stride(2)], [20, 5, 1]);
        let every = |lane: &[f64], s: usize| lane.iter().step_by(s).copied().collect::<Vec<_>>();
        // Along dimension 1 at (2, *, 3): the span holds the lanes between.
        let lane = b.lane([2, 1, 3], 4, 5);
        assert_eq!(lane.len(), 16);
        assert_eq!(every(lane, 5), [213.0, 223.0, 233.0, 243.0]);
        // Along dimension 0 from the last row and column.
        assert_eq!(every(b.lane([1, 4, 5], 3, 20), 20), [145.0, 245.0, 345.0]);
        // A lane of one is its element.
        assert_eq!(b.lane([3, 4, 5], 1, 20), [345.0]);
        // Writing a z-plane goes lane by lane into strided storage and
        // leaves every other element alone.
        let plane = Rect::d3((1, 3), (2, 3), (4, 4));
        let vals: Vec<f64> = (0..6).map(|v| -f64::from(v)).collect();
        let before = b.clone();
        b.write(&plane, &vals);
        let mut k = 0;
        r.for_each(|i| {
            if plane.contains(i) {
                assert_eq!(b.get(i), vals[k], "{i:?}");
                k += 1;
            } else {
                assert_eq!(b.get(i), before.get(i), "{i:?}");
            }
        });
        assert_eq!(k, 6);
        // A rank-2 column lane strides by the row length.
        let mut c = Block::new(Rect::d2((0, 3), (0, 2)), 0.0);
        assert_eq!([c.stride(0), c.stride(1)], [3, 1]);
        c.write(&Rect::d2((1, 3), (1, 1)), &[1.0, 2.0, 3.0]);
        assert_eq!(
            c.lane([1, 1, 0], 3, 3),
            &[1.0, 0.0, 0.0, 2.0, 0.0, 0.0, 3.0]
        );
        c.lane_mut([0, 0, 0], 2, 1).fill(5.0);
        assert_eq!(c.lane([0, 0, 0], 3, 1), &[5.0, 5.0, 0.0]);
    }

    #[test]
    fn dist_array_ghosts_are_nan() {
        let d = DistArray::new(ProcGrid::new(2, 2), Rect::d2((1, 8), (1, 8)), 1);
        let b0 = d.block(0); // owns [1..4,1..4], storage [0..5,0..5]
        assert!(b0.get([1, 5, 0]).is_nan()); // east ghost
        assert!(b0.get([5, 5, 0]).is_nan()); // se corner ghost
        assert_eq!(b0.get([4, 4, 0]), 0.0); // owned
    }

    #[test]
    fn global_get_routes_to_owner() {
        let mut d = DistArray::new(ProcGrid::new(2, 2), Rect::d2((1, 8), (1, 8)), 1);
        let p = d.dist.owner_of([6, 7, 0]);
        d.block_mut(p).set([6, 7, 0], 3.5);
        assert_eq!(d.global_get([6, 7, 0]), 3.5);
    }

    #[test]
    fn gather_is_row_major_and_owner_correct() {
        let mut d = DistArray::new(ProcGrid::new(1, 2), Rect::d2((1, 2), (1, 2)), 0);
        // Set each cell to a distinct value via its owner.
        for (i, j, v) in [(1, 1, 1.0), (1, 2, 2.0), (2, 1, 3.0), (2, 2, 4.0)] {
            let p = d.dist.owner_of([i, j, 0]);
            d.block_mut(p).set([i, j, 0], v);
        }
        let (_, data) = d.gather();
        assert_eq!(data, vec![1.0, 2.0, 3.0, 4.0]);
    }

    /// A distributed array whose every stored cell — owned or ghost — holds
    /// a value naming its processor and index, so a read from any block
    /// but the owner's shows.
    fn tagged(grid: ProcGrid, bounds: Rect) -> DistArray {
        let mut d = DistArray::new(grid, bounds, 1);
        for (p, b) in d.blocks.iter_mut().enumerate() {
            let storage = b.rect;
            storage.for_each(|i| {
                b.set(
                    i,
                    (p * 1_000_000) as f64 + (i[0] * 10_000 + i[1] * 100 + i[2]) as f64,
                )
            });
        }
        d
    }

    /// `rect`'s values read element by element through `owner_of`.
    fn per_element(d: &DistArray, rect: &Rect) -> Vec<u64> {
        let mut out = Vec::new();
        rect.for_each(|i| out.push(d.global_get(i).to_bits()));
        out
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn gather_matches_owner_reads_on_uneven_and_empty_blocks() {
        for (grid, bounds) in [
            // Uneven blocks both ways: rows 5+4+4, columns 3+2+2.
            (ProcGrid::new(3, 3), Rect::d2((1, 13), (1, 7))),
            // A rank-3 array: the third dimension is processor-local.
            (ProcGrid::new(2, 3), Rect::d3((1, 5), (0, 7), (1, 3))),
            // The fuzz sweep's 12² on 64 processors: blocks 1–2 wide.
            (ProcGrid::square(64), Rect::d2((1, 12), (1, 12))),
            // More processors than rows and columns: empty blocks.
            (ProcGrid::new(4, 4), Rect::d2((1, 3), (1, 2))),
            (ProcGrid::new(4, 2), Rect::d3((1, 2), (1, 5), (1, 2))),
        ] {
            let d = tagged(grid, bounds);
            let (r, data) = d.gather();
            assert_eq!(r, bounds);
            assert_eq!(
                bits(&data),
                per_element(&d, &bounds),
                "{bounds:?} on {grid:?}"
            );
        }
    }

    #[test]
    fn slab_reads_span_one_two_and_three_owners() {
        // 8² on 2×2: owners split at row 5 and column 5.
        let d = tagged(ProcGrid::new(2, 2), Rect::d2((1, 8), (1, 8)));
        // 12² on 8×8: columns 1–2, 3–4, 5–6, 7–8, then one wide.
        let narrow = tagged(ProcGrid::square(64), Rect::d2((1, 12), (1, 12)));
        for (d, slab, owners) in [
            // The east ghost column of processor 0.
            (&d, Rect::d2((2, 4), (5, 5)), 1),
            // The south ghost row of an SE offset: split between
            // processors 2 and 3.
            (&d, Rect::d2((5, 5), (2, 5)), 2),
            // A corner block over all four owners.
            (&d, Rect::d2((4, 5), (4, 6)), 4),
            (&narrow, Rect::d2((3, 3), (2, 4)), 2),
            (&narrow, Rect::d2((3, 3), (1, 5)), 3),
            (&narrow, Rect::d2((8, 9), (6, 9)), 6),
        ] {
            let mut seen = Vec::new();
            slab.for_each(|i| {
                let p = d.dist.owner_of(i);
                if !seen.contains(&p) {
                    seen.push(p);
                }
            });
            assert_eq!(seen.len(), owners, "{slab:?}");
            // Reads append after what the buffer already holds.
            let mut out = vec![-1.0];
            d.read_into(&slab, &mut out);
            assert_eq!(out[0], -1.0);
            assert_eq!(bits(&out[1..]), per_element(d, &slab), "{slab:?}");
        }
    }

    #[test]
    fn slab_reads_over_single_row_and_column_owner_parts() {
        // The fuzz sweep's 12² on 8×8: rows and columns 9–12 each have an
        // owner of their own, so those owners' parts of a slab are single
        // rows or columns, strided in the slab's row-major values.
        let flat = tagged(ProcGrid::square(64), Rect::d2((1, 12), (1, 12)));
        let deep = tagged(ProcGrid::square(64), Rect::d3((1, 12), (1, 12), (1, 3)));
        for (d, slab) in [
            // Three owners' single columns, six rows tall.
            (&flat, Rect::d2((2, 7), (9, 11))),
            // Three owners' single rows.
            (&flat, Rect::d2((9, 11), (2, 7))),
            // Single cells: a 2×2 slab over four 1×1 owners.
            (&flat, Rect::d2((10, 11), (11, 12))),
            // A z-plane over single columns and over single rows.
            (&deep, Rect::d3((2, 7), (9, 10), (2, 2))),
            (&deep, Rect::d3((9, 10), (1, 5), (3, 3))),
            // Pencils along the processor-local dimension.
            (&deep, Rect::d3((9, 10), (10, 12), (1, 3))),
            (&deep, Rect::d3((1, 12), (12, 12), (1, 3))),
        ] {
            let mut out = Vec::new();
            d.read_into(&slab, &mut out);
            assert_eq!(bits(&out), per_element(d, &slab), "{slab:?}");
        }
    }

    #[test]
    fn rank1_reads_the_column0_replica() {
        // Both processors of a grid row hold a replica of its block; the
        // tags make them differ.
        let d = tagged(ProcGrid::new(2, 2), Rect::d1((1, 9)));
        assert_eq!(d.dist.owner_of([7, 0, 0]), 2);
        assert_ne!(d.block(2).get([7, 0, 0]), d.block(3).get([7, 0, 0]));
        let (_, data) = d.gather();
        assert_eq!(bits(&data), per_element(&d, &d.dist.bounds));
        let mut slab = Vec::new();
        d.read_into(&Rect::d1((4, 6)), &mut slab);
        assert_eq!(bits(&slab), per_element(&d, &Rect::d1((4, 6))));
    }

    #[test]
    fn new_blocks_are_zero_where_owned_and_nan_elsewhere() {
        // Three rows over four processor rows: the last blocks are empty.
        let d = DistArray::new(ProcGrid::new(4, 4), Rect::d2((1, 3), (1, 6)), 1);
        for (p, b) in d.blocks.iter().enumerate() {
            let owned = d.dist.owned(p);
            b.rect
                .for_each(|i| assert_eq!(b.get(i).is_nan(), !owned.contains(i)));
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside block")]
    fn out_of_block_read_panics_in_debug() {
        let b = Block::new(Rect::d2((1, 2), (1, 2)), 0.0);
        b.get([5, 5, 0]);
    }
}
