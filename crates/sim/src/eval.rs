//! Vectorized expression evaluation over a processor's whole tile.
//!
//! An array statement is evaluated one *tile* at a time: the part of the
//! statement's rectangle a processor owns, in row-major order. The
//! expression tree is walked once per tile, and each node is one loop over
//! a tile-length buffer; only shifted references work row by row, copying
//! each *run* (the indices that share every coordinate but the last) out
//! of the (local or ghost) block storage. [`runs`] is the one run iterator
//! the simulator uses, here and wherever data moves between blocks. A
//! small buffer pool keeps the evaluator allocation-free in steady state.

// Dimension loops deliberately index several parallel arrays by `d`.
#![allow(clippy::needless_range_loop)]

use crate::darray::Block;
use commopt_ir::{BinOp, Expr, LoopEnv, Offset, Rect, UnaryOp, MAX_RANK};

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

/// The runs of `rect` in row-major order, as (first index, length,
/// position in the tile): every run spans the last real dimension, and its
/// position counts the indices before it.
pub fn runs(rect: &Rect) -> Runs {
    Runs {
        rect: *rect,
        base: rect.lo,
        len: rect.extent(rect.rank - 1) as usize,
        pos: 0,
        done: rect.is_empty(),
    }
}

/// The iterator [`runs`] returns.
pub struct Runs {
    rect: Rect,
    base: [i64; MAX_RANK],
    len: usize,
    pos: usize,
    done: bool,
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
        // Row-major step over every dimension but the last.
        let mut d = self.rect.rank - 1;
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

/// Evaluates `expr` at every index of `tile`, writing the results into
/// `out` (`tile.count()` long) in row-major order.
pub fn eval_tile(ctx: &EvalCtx<'_>, expr: &Expr, tile: &Rect, out: &mut [f64], pool: &mut BufPool) {
    debug_assert_eq!(out.len() as u64, tile.count());
    match expr {
        Expr::Const(c) => out.fill(*c),
        Expr::Scalar(s) => out.fill(ctx.scalars[s.index()]),
        Expr::LoopVar(v) => out.fill(ctx.env.get(*v) as f64),
        Expr::Index(d) => {
            let d = *d as usize;
            let along = d == tile.rank - 1;
            for (base, len, pos) in runs(tile) {
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
        Expr::Ref { array, offset } => {
            let block = ctx.src.block(array.index());
            for (base, len, pos) in runs(tile) {
                out[pos..pos + len].copy_from_slice(ref_run(block, offset, base, len));
            }
        }
        Expr::Unary { op, a } => {
            eval_tile(ctx, a, tile, out, pool);
            map_unary(*op, out);
        }
        Expr::Binary { op, a, b } => {
            eval_tile(ctx, a, tile, out, pool);
            // Fast path: a reference operand is a contiguous run of block
            // storage per row — zip against the borrowed slices instead of
            // round-tripping it through a scratch buffer.
            if let Expr::Ref { array, offset } = &**b {
                let block = ctx.src.block(array.index());
                for (base, len, pos) in runs(tile) {
                    zip_binary(
                        *op,
                        &mut out[pos..pos + len],
                        ref_run(block, offset, base, len),
                    );
                }
            } else {
                let mut rhs = pool.get(out.len());
                eval_tile(ctx, b, tile, &mut rhs, pool);
                zip_binary(*op, out, &rhs);
                pool.put(rhs);
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

/// `out[k] = op(out[k], rhs[k])`, with the operator matched once per slice.
fn zip_binary(op: BinOp, out: &mut [f64], rhs: &[f64]) {
    fn each(out: &mut [f64], rhs: &[f64], f: impl Fn(f64, f64) -> f64) {
        for (o, r) in out.iter_mut().zip(rhs) {
            *o = f(*o, *r);
        }
    }
    match op {
        BinOp::Add => each(out, rhs, |a, b| BinOp::Add.apply(a, b)),
        BinOp::Sub => each(out, rhs, |a, b| BinOp::Sub.apply(a, b)),
        BinOp::Mul => each(out, rhs, |a, b| BinOp::Mul.apply(a, b)),
        BinOp::Div => each(out, rhs, |a, b| BinOp::Div.apply(a, b)),
        BinOp::Min => each(out, rhs, |a, b| BinOp::Min.apply(a, b)),
        BinOp::Max => each(out, rhs, |a, b| BinOp::Max.apply(a, b)),
    }
}

/// The `len`-element run a reference shifted by `offset` reads for the run
/// starting at `base`, borrowed straight from `block`.
#[inline]
fn ref_run<'a>(block: &'a Block, offset: &Offset, base: [i64; MAX_RANK], len: usize) -> &'a [f64] {
    let mut b = base;
    for d in 0..MAX_RANK {
        b[d] += offset.get(d) as i64;
    }
    block.run(b, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use commopt_ir::offset::compass;
    use commopt_ir::{ArrayId, ScalarId};

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

    #[test]
    fn runs_cover_the_rect_row_major() {
        let r: Vec<_> = runs(&Rect::d2((2, 4), (1, 3))).collect();
        assert_eq!(r, [([2, 1, 0], 3, 0), ([3, 1, 0], 3, 3), ([4, 1, 0], 3, 6)]);
        // One column: a run of length 1 per row.
        let r: Vec<_> = runs(&Rect::d2((1, 3), (5, 5))).collect();
        assert_eq!(r, [([1, 5, 0], 1, 0), ([2, 5, 0], 1, 1), ([3, 5, 0], 1, 2)]);
        // Rank 1: the whole rect is one run along dimension 0.
        let r: Vec<_> = runs(&Rect::d1((3, 9))).collect();
        assert_eq!(r, [([3, 0, 0], 7, 0)]);
        // Rank 3: runs along dimension 2, dimension 1 varying fastest.
        let r: Vec<_> = runs(&Rect::d3((1, 2), (1, 2), (4, 5))).collect();
        assert_eq!(
            r,
            [
                ([1, 1, 4], 2, 0),
                ([1, 2, 4], 2, 2),
                ([2, 1, 4], 2, 4),
                ([2, 2, 4], 2, 6)
            ]
        );
        assert_eq!(runs(&Rect::d2((2, 1), (1, 3))).count(), 0);
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
    fn one_column_tile_has_runs_of_length_one() {
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
        // The rhs of the outer `/` and `min` is a compound expression, so it
        // is evaluated over the whole tile into a pooled buffer.
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
