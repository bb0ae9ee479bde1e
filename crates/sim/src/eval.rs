//! Vectorized expression evaluation over a processor's whole tile.
//!
//! An array statement is evaluated one *tile* at a time: the part of the
//! statement's rectangle a processor owns, in row-major order. The
//! expression tree is walked once per tile, and each node is one loop over
//! a tile-length buffer; only shifted references work lane by lane, copying
//! each *lane* (see [`runs`]) out of the (local or ghost) block storage.
//! [`runs`] is the one run iterator the simulator uses, here and wherever
//! data moves between blocks, and [`copy_lane`] its strided copy. A small
//! buffer pool keeps the evaluator allocation-free in steady state.

// Dimension loops deliberately index several parallel arrays by `d`.
#![allow(clippy::needless_range_loop)]

use crate::darray::Block;
use commopt_ir::{ArrayId, BinOp, Expr, LoopEnv, Offset, Rect, UnaryOp, MAX_RANK};

/// Reusable scratch buffers for one evaluation thread.
#[derive(Default)]
pub struct BufPool {
    free: Vec<Vec<f64>>,
}

impl BufPool {
    pub fn get(&mut self, len: usize) -> Vec<f64> {
        match self.free.pop() {
            Some(mut v) => {
                v.clear();
                v.resize(len, 0.0);
                v
            }
            None => vec![0.0; len],
        }
    }

    pub fn put(&mut self, v: Vec<f64>) {
        self.free.push(v);
    }
}

/// Where shifted references read their data from — one processor's view of
/// every array (distributed execution) or the global arrays (sequential).
pub trait BlockSource {
    fn block(&self, array_idx: usize) -> &Block;
}

#[cfg(test)]
impl BlockSource for Vec<Block> {
    fn block(&self, array_idx: usize) -> &Block {
        &self[array_idx]
    }
}

/// Everything an expression needs to evaluate over one processor's data.
pub struct EvalCtx<'a> {
    /// Block storage per array (indexed by `ArrayId::index()`).
    pub src: &'a dyn BlockSource,
    /// Replicated scalar values.
    pub scalars: &'a [f64],
    /// Current loop bindings.
    pub env: &'a LoopEnv,
}

/// The lanes of `rect` in row-major order, as (first index, length,
/// position in the tile). A lane runs along [`Runs::axis`], the innermost
/// dimension whose extent is more than one (dimension 0 when there is
/// none), so every later dimension has extent 1: a lane's positions in a
/// row-major buffer over `rect` are `pos..pos + len`, while in block
/// storage its elements lie [`Block::stride`] apart.
pub fn runs(rect: &Rect) -> Runs {
    let axis = (0..MAX_RANK)
        .rev()
        .find(|&d| rect.extent(d) > 1)
        .unwrap_or(0);
    Runs {
        rect: *rect,
        axis,
        base: rect.lo,
        len: rect.extent(axis) as usize,
        pos: 0,
        done: rect.is_empty(),
    }
}

/// The iterator [`runs`] returns.
#[derive(Clone)]
pub struct Runs {
    rect: Rect,
    axis: usize,
    base: [i64; MAX_RANK],
    len: usize,
    pos: usize,
    done: bool,
}

impl Runs {
    /// The dimension every lane runs along.
    #[inline]
    pub fn axis(&self) -> usize {
        self.axis
    }
}

impl Iterator for Runs {
    type Item = ([i64; MAX_RANK], usize, usize);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let run = (self.base, self.len, self.pos);
        self.pos += self.len;
        // Row-major step over the dimensions before the axis; those after
        // it have extent 1.
        let mut d = self.axis;
        loop {
            if d == 0 {
                self.done = true;
                break;
            }
            d -= 1;
            self.base[d] += 1;
            if self.base[d] <= self.rect.hi[d] {
                break;
            }
            self.base[d] = self.rect.lo[d];
        }
        Some(run)
    }
}

/// Copies a lane from `src`, its elements `ss` apart, into `dst`, its
/// elements `ds` apart. Each slice runs from the lane's first element to
/// its last; where both strides are 1 this is one slice copy.
#[inline]
pub fn copy_lane(dst: &mut [f64], ds: usize, src: &[f64], ss: usize) {
    if ds == 1 && ss == 1 {
        dst.copy_from_slice(src);
    } else {
        for (d, s) in dst.iter_mut().step_by(ds).zip(src.iter().step_by(ss)) {
            *d = *s;
        }
    }
}

/// Evaluates `expr` at every index of `tile`, writing the results into
/// `out` (`tile.count()` long) in row-major order.
pub fn eval_tile(ctx: &EvalCtx<'_>, expr: &Expr, tile: &Rect, out: &mut [f64], pool: &mut BufPool) {
    debug_assert_eq!(out.len() as u64, tile.count());
    eval(ctx, expr, &runs(tile), out, pool);
}

/// [`eval_tile`] over the tile whose lanes are `lanes`, worked out once
/// per tile.
fn eval(ctx: &EvalCtx<'_>, expr: &Expr, lanes: &Runs, out: &mut [f64], pool: &mut BufPool) {
    match expr {
        Expr::Const(c) => out.fill(*c),
        Expr::Scalar(s) => out.fill(ctx.scalars[s.index()]),
        Expr::LoopVar(v) => out.fill(ctx.env.get(*v) as f64),
        Expr::Index(d) => {
            let d = *d as usize;
            let along = d == lanes.axis();
            for (base, len, pos) in lanes.clone() {
                let run = &mut out[pos..pos + len];
                if along {
                    for (k, o) in run.iter_mut().enumerate() {
                        *o = (base[d] + k as i64) as f64;
                    }
                } else {
                    run.fill(base[d] as f64);
                }
            }
        }
        Expr::Ref { array, offset } => zip_ref(ctx, *array, offset, lanes, out, |_, r| r),
        Expr::Unary { op, a } => {
            eval(ctx, a, lanes, out, pool);
            map_unary(*op, out);
        }
        Expr::Binary { op, a, b } => {
            // Match the operator once per node, not per element.
            let (a, b) = (&**a, &**b);
            match op {
                BinOp::Add => binary(ctx, |x, y| BinOp::Add.apply(x, y), a, b, lanes, out, pool),
                BinOp::Sub => binary(ctx, |x, y| BinOp::Sub.apply(x, y), a, b, lanes, out, pool),
                BinOp::Mul => binary(ctx, |x, y| BinOp::Mul.apply(x, y), a, b, lanes, out, pool),
                BinOp::Div => binary(ctx, |x, y| BinOp::Div.apply(x, y), a, b, lanes, out, pool),
                BinOp::Min => binary(ctx, |x, y| BinOp::Min.apply(x, y), a, b, lanes, out, pool),
                BinOp::Max => binary(ctx, |x, y| BinOp::Max.apply(x, y), a, b, lanes, out, pool),
            }
        }
    }
}

/// The value of a leaf that is the same at every index: a constant, a
/// scalar or a loop variable.
#[inline]
fn uniform(ctx: &EvalCtx<'_>, e: &Expr) -> Option<f64> {
    match e {
        Expr::Const(c) => Some(*c),
        Expr::Scalar(s) => Some(ctx.scalars[s.index()]),
        Expr::LoopVar(v) => Some(ctx.env.get(*v) as f64),
        _ => None,
    }
}

/// `out[k] = f(a[k], b[k])`. A leaf operand on either side folds into the
/// pass over the other side's values in `out`: a uniform one is applied in
/// place, and a reference is zipped lane by lane against its block. Any
/// other pair evaluates `b` into a pooled buffer. `f` always takes `a`'s
/// value first, so results are bit-identical to `op.apply(a, b)`.
fn binary(
    ctx: &EvalCtx<'_>,
    f: impl Fn(f64, f64) -> f64 + Copy,
    a: &Expr,
    b: &Expr,
    lanes: &Runs,
    out: &mut [f64],
    pool: &mut BufPool,
) {
    if let Some(c) = uniform(ctx, b) {
        eval(ctx, a, lanes, out, pool);
        for o in out.iter_mut() {
            *o = f(*o, c);
        }
    } else if let Expr::Ref { array, offset } = b {
        eval(ctx, a, lanes, out, pool);
        zip_ref(ctx, *array, offset, lanes, out, f);
    } else if let Some(c) = uniform(ctx, a) {
        eval(ctx, b, lanes, out, pool);
        for o in out.iter_mut() {
            *o = f(c, *o);
        }
    } else if let Expr::Ref { array, offset } = a {
        eval(ctx, b, lanes, out, pool);
        zip_ref(ctx, *array, offset, lanes, out, |o, r| f(r, o));
    } else {
        eval(ctx, a, lanes, out, pool);
        let mut rhs = pool.get(out.len());
        eval(ctx, b, lanes, &mut rhs, pool);
        for (o, r) in out.iter_mut().zip(&rhs) {
            *o = f(*o, *r);
        }
        pool.put(rhs);
    }
}

/// `out[k] = f(out[k], r[k])`, where `r` is `array` shifted by `offset`,
/// read lane by lane straight out of its block, whose stride along the
/// lanes is looked up once.
#[inline]
fn zip_ref(
    ctx: &EvalCtx<'_>,
    array: ArrayId,
    offset: &Offset,
    lanes: &Runs,
    out: &mut [f64],
    f: impl Fn(f64, f64) -> f64,
) {
    let block = ctx.src.block(array.index());
    let s = block.stride(lanes.axis());
    for (mut base, len, pos) in lanes.clone() {
        for d in 0..MAX_RANK {
            base[d] += offset.get(d) as i64;
        }
        let (out, src) = (&mut out[pos..pos + len], block.lane(base, len, s));
        if s == 1 {
            for (o, r) in out.iter_mut().zip(src) {
                *o = f(*o, *r);
            }
        } else {
            for (o, r) in out.iter_mut().zip(src.iter().step_by(s)) {
                *o = f(*o, *r);
            }
        }
    }
}

/// `out[k] = op(out[k])`, with the operator matched once per slice.
fn map_unary(op: UnaryOp, out: &mut [f64]) {
    fn each(out: &mut [f64], f: impl Fn(f64) -> f64) {
        for o in out {
            *o = f(*o);
        }
    }
    match op {
        UnaryOp::Neg => each(out, |a| UnaryOp::Neg.apply(a)),
        UnaryOp::Abs => each(out, |a| UnaryOp::Abs.apply(a)),
        UnaryOp::Sqrt => each(out, |a| UnaryOp::Sqrt.apply(a)),
        UnaryOp::Exp => each(out, |a| UnaryOp::Exp.apply(a)),
        UnaryOp::Ln => each(out, |a| UnaryOp::Ln.apply(a)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commopt_ir::offset::compass;
    use commopt_ir::{LoopVarId, ScalarId};

    fn two_blocks() -> Vec<Block> {
        // Array 0: values = 10*i + j over [1..4,1..4] grown by 1.
        let mut a = Block::new(Rect::d2((1, 4), (1, 4)).grown(1), 0.0);
        Rect::d2((0, 5), (0, 5)).for_each(|idx| a.set(idx, (10 * idx[0] + idx[1]) as f64));
        // Array 1: constant 2.
        let b = Block::new(Rect::d2((1, 4), (1, 4)).grown(1), 2.0);
        vec![a, b]
    }

    fn ctx<'a>(blocks: &'a Vec<Block>, scalars: &'a [f64], env: &'a LoopEnv) -> EvalCtx<'a> {
        EvalCtx {
            src: blocks,
            scalars,
            env,
        }
    }

    /// Evaluates `e` over `tile` into a fresh buffer.
    fn tile(c: &EvalCtx<'_>, e: &Expr, tile: Rect) -> Vec<f64> {
        let mut out = vec![f64::NAN; tile.count() as usize];
        eval_tile(c, e, &tile, &mut out, &mut BufPool::default());
        out
    }

    /// The per-element reference: `e` at one index, read with `Block::get`.
    fn at(c: &EvalCtx<'_>, e: &Expr, idx: [i64; MAX_RANK]) -> f64 {
        match e {
            Expr::Const(v) => *v,
            Expr::Scalar(s) => c.scalars[s.index()],
            Expr::LoopVar(v) => c.env.get(*v) as f64,
            Expr::Index(d) => idx[*d as usize] as f64,
            Expr::Ref { array, offset } => {
                let mut i = idx;
                for d in 0..MAX_RANK {
                    i[d] += offset.get(d) as i64;
                }
                c.src.block(array.index()).get(i)
            }
            Expr::Unary { op, a } => op.apply(at(c, a, idx)),
            Expr::Binary { op, a, b } => op.apply(at(c, a, idx), at(c, b, idx)),
        }
    }

    /// `eval_tile` over `t` equals the per-element reference, bit for bit,
    /// in row-major order.
    fn assert_matches_reference(c: &EvalCtx<'_>, e: &Expr, t: Rect) {
        let mut want = Vec::new();
        t.for_each(|idx| want.push(at(c, e, idx).to_bits()));
        let got: Vec<u64> = tile(c, e, t).iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "{e:?} over {t:?}");
    }

    /// `rect`'s lanes, checked to cover every index exactly once at its
    /// row-major position.
    fn lanes_of(rect: Rect) -> (usize, Vec<([i64; MAX_RANK], usize, usize)>) {
        let lanes = runs(&rect);
        let axis = lanes.axis();
        let all: Vec<_> = lanes.collect();
        let mut seen = Vec::new();
        for &(base, len, pos) in &all {
            assert_eq!(
                pos,
                seen.len(),
                "{rect:?}: lanes are contiguous in the tile"
            );
            for k in 0..len {
                let mut idx = base;
                idx[axis] += k as i64;
                seen.push(idx);
            }
        }
        let mut want = Vec::new();
        rect.for_each(|i| want.push(i));
        assert_eq!(seen, want, "{rect:?}");
        (axis, all)
    }

    #[test]
    fn runs_cover_the_rect_row_major() {
        // A lane runs along the last dimension longer than one.
        let (axis, r) = lanes_of(Rect::d2((2, 4), (1, 3)));
        assert_eq!(axis, 1);
        assert_eq!(r, [([2, 1, 0], 3, 0), ([3, 1, 0], 3, 3), ([4, 1, 0], 3, 6)]);
        // One column: one lane of 3 along dimension 0.
        assert_eq!(
            lanes_of(Rect::d2((1, 3), (5, 5))),
            (0, vec![([1, 5, 0], 3, 0)])
        );
        // Rank 1: the whole rect is one lane along dimension 0.
        assert_eq!(lanes_of(Rect::d1((3, 9))), (0, vec![([3, 0, 0], 7, 0)]));
        // Rank 3: lanes along dimension 2, dimension 1 varying fastest.
        let (axis, r) = lanes_of(Rect::d3((1, 2), (1, 2), (4, 5)));
        assert_eq!(axis, 2);
        assert_eq!(
            r,
            [
                ([1, 1, 4], 2, 0),
                ([1, 2, 4], 2, 2),
                ([2, 1, 4], 2, 4),
                ([2, 2, 4], 2, 6)
            ]
        );
        // A plane of a rank-3 rect with last extent 1: 2 lanes of 2 along
        // dimension 1.
        assert_eq!(
            lanes_of(Rect::d3((1, 2), (1, 2), (4, 4))),
            (1, vec![([1, 1, 4], 2, 0), ([2, 1, 4], 2, 2)])
        );
        // A column of a rank-3 rect: one lane along dimension 0.
        assert_eq!(
            lanes_of(Rect::d3((1, 4), (3, 3), (7, 7))),
            (0, vec![([1, 3, 7], 4, 0)])
        );
        // A single index is one lane of 1.
        assert_eq!(
            lanes_of(Rect::d2((6, 6), (2, 2))),
            (0, vec![([6, 2, 0], 1, 0)])
        );
        assert_eq!(
            lanes_of(Rect::d3((1, 1), (2, 2), (3, 3))),
            (0, vec![([1, 2, 3], 1, 0)])
        );
        // An empty rect has no lanes.
        assert_eq!(runs(&Rect::d2((2, 1), (1, 3))).count(), 0);
        assert_eq!(runs(&Rect::d3((1, 4), (1, 4), (2, 1))).count(), 0);
    }

    #[test]
    fn copy_lane_steps_each_side_by_its_stride() {
        let src: Vec<f64> = (0..9).map(f64::from).collect();
        // Stride 1 both ways: a slice copy.
        let mut dst = [0.0; 3];
        copy_lane(&mut dst, 1, &src[2..5], 1);
        assert_eq!(dst, [2.0, 3.0, 4.0]);
        // Strided source into a contiguous destination.
        copy_lane(&mut dst, 1, &src[1..=7], 3);
        assert_eq!(dst, [1.0, 4.0, 7.0]);
        // Contiguous source into a strided destination: the elements
        // between are left alone.
        let mut dst = [-1.0; 5];
        copy_lane(&mut dst, 2, &src[..3], 1);
        assert_eq!(dst, [0.0, -1.0, 1.0, -1.0, 2.0]);
        // Both strided.
        let mut dst = [-1.0; 3];
        copy_lane(&mut dst, 2, &src[..=4], 4);
        assert_eq!(dst, [0.0, -1.0, 4.0]);
    }

    #[test]
    fn const_scalar_index() {
        let blocks = two_blocks();
        let scalars = [7.5];
        let env = LoopEnv::new();
        let c = ctx(&blocks, &scalars, &env);
        let row = Rect::d2((2, 2), (1, 3));

        assert_eq!(tile(&c, &Expr::Const(3.0), row), [3.0; 3]);
        assert_eq!(tile(&c, &Expr::Scalar(ScalarId(0)), row), [7.5; 3]);
        assert_eq!(tile(&c, &Expr::Index(1), row), [1.0, 2.0, 3.0]);
        assert_eq!(tile(&c, &Expr::Index(0), row), [2.0; 3]);
    }

    #[test]
    fn index_over_a_multi_row_tile() {
        let blocks = two_blocks();
        let env = LoopEnv::new();
        let c = ctx(&blocks, &[], &env);
        let t = Rect::d2((2, 4), (3, 4));
        assert_eq!(tile(&c, &Expr::Index(0), t), [2.0, 2.0, 3.0, 3.0, 4.0, 4.0]);
        assert_eq!(tile(&c, &Expr::Index(1), t), [3.0, 4.0, 3.0, 4.0, 3.0, 4.0]);
    }

    #[test]
    fn shifted_refs_read_neighbors() {
        let blocks = two_blocks();
        let env = LoopEnv::new();
        let c = ctx(&blocks, &[], &env);
        let t = Rect::d2((2, 3), (2, 3));
        // A@east over rows 2..3, columns 2..3 reads columns 3..4.
        let east = Expr::at(ArrayId(0), compass::EAST);
        assert_eq!(tile(&c, &east, t), [23.0, 24.0, 33.0, 34.0]);
        // A@nw reads one row up and one column left.
        let nw = Expr::at(ArrayId(0), compass::NW);
        assert_eq!(tile(&c, &nw, t), [11.0, 12.0, 21.0, 22.0]);
    }

    #[test]
    fn one_column_tile_is_one_lane() {
        let blocks = two_blocks();
        let env = LoopEnv::new();
        let c = ctx(&blocks, &[], &env);
        let col = Rect::d2((1, 4), (3, 3));
        let e = Expr::at(ArrayId(0), compass::EAST) - Expr::at(ArrayId(0), compass::NORTH);
        // (i, 4) - (i-1, 3) = 10*i + 4 - 10*i + 10 - 3 = 11.
        assert_eq!(tile(&c, &e, col), [11.0; 4]);
        assert_matches_reference(&c, &(e * Expr::Index(0)), col);
    }

    #[test]
    fn compound_expressions() {
        let blocks = two_blocks();
        let env = LoopEnv::new();
        let c = ctx(&blocks, &[], &env);
        let t = Rect::d2((2, 3), (2, 3));

        // (A@east - A@west) * B = ((i,j+1)-(i,j-1)) * 2 = 4 everywhere.
        let e = (Expr::at(ArrayId(0), compass::EAST) - Expr::at(ArrayId(0), compass::WEST))
            * Expr::local(ArrayId(1));
        assert_eq!(tile(&c, &e, t), [4.0; 4]);

        let neg = Expr::un(UnaryOp::Neg, Expr::local(ArrayId(1)));
        assert_eq!(tile(&c, &neg, t), [-2.0; 4]);

        let mx = Expr::bin(BinOp::Max, Expr::local(ArrayId(1)), Expr::Const(3.0));
        assert_eq!(tile(&c, &mx, t), [3.0; 4]);
    }

    #[test]
    fn non_reference_rhs_takes_the_pooled_buffer() {
        let blocks = two_blocks();
        let env = LoopEnv::new();
        let c = ctx(&blocks, &[], &env);
        let t = Rect::d2((1, 4), (2, 4));
        // The rhs of the outer `/` and `min` is a compound expression: the
        // `/` zips it against its left reference, and `min`, whose left
        // side is compound too, evaluates it into a pooled buffer.
        let rhs = Expr::at(ArrayId(0), compass::SOUTH) + Expr::Index(1);
        let e = Expr::local(ArrayId(0)) / rhs.clone();
        assert_matches_reference(&c, &e, t);
        let e = Expr::bin(
            BinOp::Min,
            Expr::un(UnaryOp::Sqrt, Expr::at(ArrayId(0), compass::SE)),
            rhs * Expr::Const(0.125),
        );
        assert_matches_reference(&c, &e, t);

        // The pool hands the rhs buffer back for the next tile.
        let mut pool = BufPool::default();
        let mut out = vec![0.0; t.count() as usize];
        eval_tile(&c, &e, &t, &mut out, &mut pool);
        assert!(!pool.free.is_empty());
    }

    #[test]
    fn rank3_tile() {
        let owned = Rect::d3((1, 3), (1, 2), (1, 4));
        let mut a = Block::new(owned.grown(1), 0.0);
        owned
            .grown(1)
            .for_each(|i| a.set(i, (100 * i[0] + 10 * i[1] + i[2]) as f64));
        let blocks = vec![a];
        let env = LoopEnv::new();
        let c = ctx(&blocks, &[], &env);
        let e = Expr::at(ArrayId(0), Offset::d3(0, 0, 1))
            - Expr::at(ArrayId(0), Offset::d3(1, 0, 0))
            + Expr::Index(2);
        let t = Rect::d3((2, 3), (1, 2), (2, 4));
        assert_matches_reference(&c, &e, t);
        // (i, j, k+1) - (i+1, j, k) + k = 1 - 100 + k.
        let got = tile(&c, &e, t);
        assert_eq!(&got[..3], [-97.0, -96.0, -95.0]);
    }

    /// A value per index that takes in NaN, −0.0 and +0.0 among distinct
    /// finite values, so operand order shows in `min`, `max` and `-`.
    fn awkward(i: [i64; MAX_RANK]) -> f64 {
        match (i[0] + 2 * i[1] + 3 * i[2]).rem_euclid(7) {
            0 => f64::NAN,
            1 => -0.0,
            2 => 0.0,
            _ => (100 * i[0] + 10 * i[1] + i[2]) as f64 * 0.5 - 40.0,
        }
    }

    /// Two arrays over `owned` grown by one, filled by [`awkward`]; the
    /// second is the first shifted by one along every dimension.
    fn awkward_blocks(owned: Rect) -> Vec<Block> {
        let storage = owned.grown(1);
        let mut a = Block::new(storage, 0.0);
        let mut b = Block::new(storage, 0.0);
        storage.for_each(|i| {
            a.set(i, awkward(i));
            b.set(i, awkward([i[0] + 1, i[1] + 1, i[2] + 1]));
        });
        vec![a, b]
    }

    const OPS: [BinOp; 6] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Min,
        BinOp::Max,
    ];

    /// Every offset with components in -1..=1 over the first `rank`
    /// dimensions.
    fn every_direction(rank: usize) -> Vec<Offset> {
        let mut all = Vec::new();
        Rect::new(rank, [-1; MAX_RANK], [1; MAX_RANK]).for_each(|d| {
            all.push(Offset::new([d[0] as i32, d[1] as i32, d[2] as i32]));
        });
        all
    }

    #[test]
    fn rank3_planes_columns_and_points_match_reference() {
        let owned = Rect::d3((1, 4), (1, 3), (1, 5));
        let blocks = awkward_blocks(owned);
        let env = LoopEnv::new();
        let c = ctx(&blocks, &[], &env);
        let (a, b) = (ArrayId(0), ArrayId(1));
        let tiles = [
            // A z-plane: last extent 1, lanes along dimension 1.
            Rect::d3((1, 4), (1, 3), (2, 2)),
            // One row of a plane: lanes along dimension 1 again.
            Rect::d3((3, 3), (1, 3), (5, 5)),
            // A column: one lane along dimension 0.
            Rect::d3((1, 4), (2, 2), (3, 3)),
            // A pencil along the last dimension.
            Rect::d3((2, 2), (3, 3), (1, 5)),
            // A whole block and a single element.
            owned,
            Rect::d3((2, 2), (2, 2), (4, 4)),
        ];
        for t in tiles {
            for off in every_direction(3) {
                for e in [
                    Expr::at(a, off),
                    Expr::at(a, off) - Expr::local(b),
                    Expr::local(b) * Expr::at(a, off) + Expr::Index(0),
                    Expr::bin(BinOp::Min, Expr::Index(1), Expr::at(b, off)),
                    Expr::at(a, off) / (Expr::at(b, off) + Expr::Index(2)),
                ] {
                    assert_matches_reference(&c, &e, t);
                }
            }
        }
    }

    #[test]
    fn two_d_columns_points_and_shifts_match_reference() {
        let owned = Rect::d2((1, 5), (1, 4));
        let blocks = awkward_blocks(owned);
        let env = LoopEnv::new();
        let c = ctx(&blocks, &[], &env);
        let (a, b) = (ArrayId(0), ArrayId(1));
        let tiles = [
            Rect::d2((1, 5), (3, 3)),
            Rect::d2((2, 4), (1, 1)),
            Rect::d2((4, 4), (1, 4)),
            Rect::d2((3, 3), (2, 2)),
            owned,
        ];
        for t in tiles {
            for off in every_direction(2) {
                for e in [
                    Expr::at(a, off),
                    Expr::Index(0) - Expr::at(b, off),
                    Expr::at(a, off) * (Expr::Index(1) - Expr::at(b, compass::SE)),
                    Expr::un(UnaryOp::Abs, Expr::at(b, off)) + Expr::at(a, off),
                ] {
                    assert_matches_reference(&c, &e, t);
                }
            }
        }
    }

    #[test]
    fn uniform_operands_fold_on_either_side_bit_for_bit() {
        let owned = Rect::d3((1, 3), (1, 4), (1, 2));
        let blocks = awkward_blocks(owned);
        let scalars = [f64::NAN, -0.0, 0.0, 2.5];
        let mut env = LoopEnv::new();
        env.push(LoopVarId(0), -3);
        let c = ctx(&blocks, &scalars, &env);
        let leaves = [
            Expr::Const(f64::NAN),
            Expr::Const(-0.0),
            Expr::Const(0.0),
            Expr::Const(1.5),
            Expr::Scalar(ScalarId(0)),
            Expr::Scalar(ScalarId(1)),
            Expr::Scalar(ScalarId(2)),
            Expr::Scalar(ScalarId(3)),
            Expr::LoopVar(LoopVarId(0)),
        ];
        let others = [
            Expr::at(ArrayId(0), Offset::d3(1, 0, -1)),
            Expr::local(ArrayId(1)) - Expr::Index(1),
            Expr::Index(2),
            Expr::Const(-0.0),
        ];
        let tiles = [
            owned,
            Rect::d3((1, 3), (1, 4), (2, 2)),
            Rect::d3((1, 3), (4, 4), (1, 1)),
            Rect::d3((2, 2), (3, 3), (1, 1)),
        ];
        for op in OPS {
            for leaf in &leaves {
                for other in &others {
                    for t in tiles {
                        assert_matches_reference(
                            &c,
                            &Expr::bin(op, leaf.clone(), other.clone()),
                            t,
                        );
                        assert_matches_reference(
                            &c,
                            &Expr::bin(op, other.clone(), leaf.clone()),
                            t,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_left_reference_with_a_compound_right_needs_no_buffer() {
        let owned = Rect::d2((1, 4), (1, 5));
        let blocks = awkward_blocks(owned);
        let env = LoopEnv::new();
        let c = ctx(&blocks, &[], &env);
        let (a, b) = (ArrayId(0), ArrayId(1));
        for op in OPS {
            for t in [owned, Rect::d2((1, 4), (2, 2)), Rect::d2((3, 3), (4, 4))] {
                for off in compass::ALL8 {
                    let e = Expr::bin(
                        op,
                        Expr::at(a, off),
                        Expr::local(b) * Expr::Index(0) - Expr::at(a, compass::NE),
                    );
                    assert_matches_reference(&c, &e, t);
                    // Every operand folds into its operator's pass.
                    let mut pool = BufPool::default();
                    let mut out = vec![0.0; t.count() as usize];
                    eval_tile(&c, &e, &t, &mut out, &mut pool);
                    assert!(pool.free.is_empty(), "{e:?} took a pooled buffer");
                }
            }
        }
    }

    #[test]
    fn pool_reuses_buffers() {
        let mut pool = BufPool::default();
        let b1 = pool.get(8);
        let ptr = b1.as_ptr();
        pool.put(b1);
        let b2 = pool.get(4);
        assert_eq!(b2.as_ptr(), ptr);
        assert_eq!(b2.len(), 4);
    }
}
