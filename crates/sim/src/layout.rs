//! Where every array's blocks lie, and what the engine caches from it: the
//! geometry of each transfer and the compute charge of each statement,
//! each in a slot refilled in place when its key goes stale (DESIGN.md,
//! "Transfer geometry" and "Compute charges"). Ownership questions go to
//! [`BlockDist`]; the one table kept here, each processor's owned block
//! of every array, is filled from it.

// Dimension loops deliberately index several parallel arrays by `d`.
#![allow(clippy::needless_range_loop)]

use commopt_ir::visit::walk_stmts;
use commopt_ir::{
    Expr, LoopEnv, LoopVarId, Offset, Program, Rect, Region, ScalarRhs, Stmt, Transfer, MAX_RANK,
};
use commopt_machine::{BlockDist, MachineSpec, ProcGrid, ProcId};

/// Geometry of one transfer instance under the current loop environment,
/// stored flat: each per-processor list is a CSR table (an `n + 1` offset
/// array into one entry array), and a rebuild refills the same buffers.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Geom {
    /// Per proc: total bytes received.
    pub(crate) bytes: Vec<u64>,
    /// CSR offsets into `outgoing`, by sending proc.
    out_start: Vec<usize>,
    /// Every message as (reader, size): grouped by sender in proc order,
    /// readers ascending within a sender.
    outgoing: Vec<(ProcId, u64)>,
    /// CSR offsets into `slabs`, by receiving proc.
    slab_start: Vec<usize>,
    /// Every ghost slab as (array index, rect), grouped by receiver. Only
    /// the full-mode snapshot reads it.
    slabs: Vec<(usize, Rect)>,
    /// `true` when the instance moves data between some processor pair.
    pub(crate) active: bool,
}

impl Geom {
    /// The messages processor `p` sends, as (reader, size).
    pub(crate) fn sends(&self, p: ProcId) -> &[(ProcId, u64)] {
        &self.outgoing[self.out_start[p]..self.out_start[p + 1]]
    }

    /// The ghost slabs processor `p` receives, as (array index, rect).
    pub(crate) fn receives(&self, p: ProcId) -> &[(usize, Rect)] {
        &self.slabs[self.slab_start[p]..self.slab_start[p + 1]]
    }

    /// `true` when processor `p` sends or receives data this instance.
    pub(crate) fn exchanges(&self, p: ProcId) -> bool {
        self.bytes[p] > 0 || self.out_start[p] < self.out_start[p + 1]
    }

    /// The geometry without its slabs: the fields timing runs read.
    #[cfg(test)]
    pub(crate) fn timing(&self) -> Geom {
        Geom {
            bytes: self.bytes.clone(),
            out_start: self.out_start.clone(),
            outgoing: self.outgoing.clone(),
            active: self.active,
            ..Geom::default()
        }
    }
}

/// Every array's block distribution with each processor's owned block
/// precomputed, plus the scratch buffers of a geometry build.
pub(crate) struct Layout {
    grid: ProcGrid,
    dists: Vec<BlockDist>,
    /// Per array × proc (row-major, `arrays × n`): the owned block.
    owned: Vec<Rect>,
    /// Build scratch: every ghost part as (receiver, sequence number,
    /// array index, rect), in item, region, part order.
    parts: Vec<(ProcId, usize, usize, Rect)>,
    /// Build scratch: per receiving proc, the proc its message comes from.
    provider: Vec<Option<ProcId>>,
}

impl Layout {
    pub(crate) fn new(grid: ProcGrid, program: &Program) -> Layout {
        let dists: Vec<BlockDist> = program
            .arrays
            .iter()
            .map(|a| BlockDist::new(grid, a.rect))
            .collect();
        // Arrays declared over the same bounds share one partition.
        let n = grid.len();
        let mut owned = Vec::with_capacity(dists.len() * n);
        for (i, d) in dists.iter().enumerate() {
            match dists[..i].iter().position(|e| e.bounds == d.bounds) {
                Some(j) => owned.extend_from_within(j * n..(j + 1) * n),
                None => owned.extend((0..n).map(|p| d.owned(p))),
            }
        }
        Layout {
            grid,
            dists,
            owned,
            parts: Vec::with_capacity(n),
            provider: Vec::with_capacity(n),
        }
    }

    /// The block of array `a` that processor `p` owns.
    pub(crate) fn owned(&self, a: usize, p: ProcId) -> Rect {
        self.owned[a * self.grid.len() + p]
    }

    /// Processor `p`'s block of array `a`'s partition or, with `None`, of
    /// `rect`'s own.
    pub(crate) fn part(&self, a: Option<usize>, rect: &Rect, p: ProcId) -> Rect {
        match a {
            Some(a) => self.owned(a, p),
            None => BlockDist::new(self.grid, *rect).owned(p),
        }
    }

    /// Refills `dt` with every processor's cost for a statement over `rect`
    /// of `flops` per element, split as [`part`](Layout::part) splits it:
    /// the guard cost where its share is empty, else the statement
    /// overhead plus its share's flops. One rect intersection per
    /// processor, run only when a [`ChargeSlot`] goes stale.
    pub(crate) fn stmt_costs(
        &self,
        rect: &Rect,
        a: Option<usize>,
        flops: f64,
        m: &MachineSpec,
        dt: &mut Vec<f64>,
    ) {
        dt.clear();
        dt.extend(self.grid.procs().map(|p| {
            let local = rect.intersect(&self.part(a, rect, p));
            if local.is_empty() {
                m.guard_overhead_us
            } else {
                m.stmt_overhead_us + local.count() as f64 * flops * m.flop_us
            }
        }));
    }

    /// Refills `geom` for transfer `t` under `env`, reusing its buffers.
    pub(crate) fn build(&mut self, geom: &mut Geom, t: &Transfer, env: &LoopEnv) {
        let n = self.grid.len();
        let cols = self.grid.dims[1];
        self.parts.clear();
        for item in &t.items {
            let a = item.array.index();
            let bounds = self.dists[a].bounds;
            let mut delta = [0i64; MAX_RANK];
            for d in 0..MAX_RANK {
                delta[d] = i64::from(item.offset.get(d));
            }
            for region in &item.regions {
                let r = region.eval(env);
                for row in 0..self.grid.dims[0] {
                    // A processor row's blocks share one extent along
                    // dimension 0: skip rows that miss the region there.
                    let lead = self.owned(a, row * cols);
                    if lead.hi[0] < r.lo[0] || r.hi[0] < lead.lo[0] {
                        continue;
                    }
                    for p in row * cols..(row + 1) * cols {
                        let own = self.owned(a, p);
                        let local = r.intersect(&own);
                        if local.is_empty() {
                            continue;
                        }
                        let needed = local.shifted(delta).intersect(&bounds);
                        rect_subtract(needed, own, |part| {
                            let seq = self.parts.len();
                            self.parts.push((p, seq, a, part));
                        });
                    }
                }
            }
        }
        // Group the parts by receiver, keeping each receiver's parts in
        // item, region, part order.
        self.parts.sort_unstable_by_key(|&(p, seq, ..)| (p, seq));
        geom.bytes.clear();
        geom.bytes.resize(n, 0);
        self.provider.clear();
        self.provider.resize(n, None);
        geom.slab_start.clear();
        geom.slabs.clear();
        let mut parts = self.parts.iter().peekable();
        for p in 0..n {
            let first = geom.slabs.len();
            geom.slab_start.push(first);
            while let Some(&(_, _, a, part)) = parts.next_if(|e| e.0 == p) {
                // Avoid double-charging identical slabs from overlapping
                // use regions.
                if geom.slabs[first..]
                    .iter()
                    .any(|&(ai, r2)| ai == a && r2 == part)
                {
                    continue;
                }
                geom.bytes[p] += part.count() * 8;
                if self.provider[p].is_none() {
                    self.provider[p] = Some(self.dists[a].owner_of(part.lo));
                }
                geom.slabs.push((a, part));
            }
        }
        geom.slab_start.push(geom.slabs.len());
        // Group readers by provider with a counting sort: count each
        // sender's messages, turn the counts into end offsets, then place
        // readers from the back so each sender's readers come out
        // ascending and its offset lands on its first entry.
        geom.out_start.clear();
        geom.out_start.resize(n + 1, 0);
        for &q in self.provider.iter().flatten() {
            geom.out_start[q] += 1;
        }
        let mut end = 0;
        for s in &mut geom.out_start {
            end += *s;
            *s = end;
        }
        geom.outgoing.clear();
        geom.outgoing.resize(end, (0, 0));
        for p in (0..n).rev() {
            if let Some(q) = self.provider[p] {
                geom.out_start[q] -= 1;
                geom.outgoing[geom.out_start[q]] = (p, geom.bytes[p]);
            }
        }
        geom.active = geom.bytes.iter().any(|&b| b > 0);
    }
}

/// When a cached slot must be refilled: the key half of a transfer's
/// [`GeomSlot`] and of a statement's [`ChargeSlot`]. A slot whose regions
/// read no loop variable is filled once per run. A loop-variant one is
/// checked when one of its variables changes, and refilled when its key
/// changes: the variables' values or, where the slot has a [`ShapeKey`],
/// the shape class.
pub(crate) struct SlotKey {
    /// The loop variables the slot's regions mention.
    pub(crate) vars: Vec<LoopVarId>,
    /// Their values at the last check.
    values: Vec<i64>,
    /// The shape class at the last check, where keyed on one.
    pub(crate) shape: Option<ShapeKey>,
    /// `false` until the first fill.
    built: bool,
}

/// One item a slot's value is computed from: an array index, the offset
/// its regions are read at, and the regions.
type KeyItem<'a> = (usize, Offset, &'a [Region]);

impl SlotKey {
    /// The key of a value computed from `items` on `layout`, keyed on shape
    /// classes when `shaped` and the items are eligible.
    fn new<'a>(
        items: impl Iterator<Item = KeyItem<'a>> + Clone,
        layout: &Layout,
        shaped: bool,
    ) -> SlotKey {
        let mut vars = Vec::new();
        for region in items.clone().flat_map(|(_, _, regions)| regions) {
            for v in region.loop_vars() {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
        }
        let shape = (shaped && !vars.is_empty())
            .then(|| ShapeKey::new(items, layout))
            .flatten();
        SlotKey {
            values: vec![0; vars.len()],
            vars,
            shape,
            built: false,
        }
    }

    /// Brings the key up to `env` and reports whether the slot must be
    /// refilled, which its owner then does: it never was, or a variable
    /// moved and, where the key has a shape, the shape class moved with it.
    fn stale(&mut self, env: &LoopEnv) -> bool {
        let mut moved = !self.built;
        for (&v, k) in self.vars.iter().zip(&mut self.values) {
            let x = env.get(v);
            moved |= *k != x;
            *k = x;
        }
        let stale = match &mut self.shape {
            Some(shape) if moved => shape.reclassify(env) || !self.built,
            _ => moved,
        };
        self.built = true;
        stale
    }
}

/// One transfer's geometry cache: a single slot, refilled in place when
/// its [`SlotKey`] goes stale, so the DR, SR and DN of one instance share
/// a build. Full mode and transfers without a [`ShapeKey`] key on the loop
/// variables' values; timing mode keys eligible transfers on shape class.
pub(crate) struct GeomSlot {
    pub(crate) key: SlotKey,
    /// The geometry; `None` while a caller holds it.
    geom: Option<Geom>,
    /// Builds and calls so far, for the tests that pin the cache.
    #[cfg(test)]
    pub(crate) builds: u64,
    #[cfg(test)]
    pub(crate) takes: u64,
}

impl GeomSlot {
    /// An unbuilt slot for `t` on `layout`'s processors, keyed on shape
    /// classes when `timing` and `t` is eligible. Its buffers are sized
    /// here, at construction, so that builds during the run refill them
    /// rather than placing long-lived allocations among the run's
    /// short-lived ones on the heap.
    pub(crate) fn new(t: &Transfer, layout: &Layout, timing: bool) -> GeomSlot {
        let n = layout.grid.len();
        let items = t
            .items
            .iter()
            .map(|it| (it.array.index(), it.offset, it.regions.as_slice()));
        GeomSlot {
            key: SlotKey::new(items, layout, timing),
            geom: Some(Geom {
                bytes: Vec::with_capacity(n),
                out_start: Vec::with_capacity(n + 1),
                outgoing: Vec::with_capacity(n),
                slab_start: Vec::with_capacity(n + 1),
                slabs: Vec::with_capacity(n),
                active: false,
            }),
            #[cfg(test)]
            builds: 0,
            #[cfg(test)]
            takes: 0,
        }
    }

    /// Takes the geometry of `t` under `env` out of the slot, refilling it
    /// in place on `layout` first when the key is stale. Hand it back with
    /// [`put`](GeomSlot::put); a slot left empty is simply rebuilt on its
    /// next take.
    pub(crate) fn take(&mut self, t: &Transfer, env: &LoopEnv, layout: &mut Layout) -> Geom {
        let stale = self.key.stale(env);
        #[cfg(test)]
        {
            self.takes += 1;
        }
        match self.geom.take() {
            Some(geom) if !stale => geom,
            old => {
                let mut geom = old.unwrap_or_default();
                layout.build(&mut geom, t, env);
                #[cfg(test)]
                {
                    self.builds += 1;
                }
                geom
            }
        }
    }

    /// Returns a geometry taken by [`take`](GeomSlot::take) to the slot.
    pub(crate) fn put(&mut self, geom: Geom) {
        self.geom = Some(geom);
    }
}

/// One array statement's or reduction's compute charge (DESIGN.md,
/// "Compute charges"): every processor's cost as [`Layout::stmt_costs`]
/// fills it, refilled in place when the key goes stale. The key is the
/// statement's region over its partition, read at no offset. Timing mode
/// keys an eligible statement split as an array on its shape class; full
/// mode, and a reduction split as its own region (whose partition moves
/// with the region), key on the loop variables' values.
pub(crate) struct ChargeSlot {
    pub(crate) key: SlotKey,
    /// The array whose partition splits the statement (see
    /// [`Layout::part`]).
    pub(crate) part: Option<usize>,
    /// Flops per element.
    pub(crate) flops: f64,
    /// Per proc: the charge at the last refill.
    pub(crate) dt: Vec<f64>,
    /// Refills so far, for the tests that pin the cache.
    #[cfg(test)]
    pub(crate) builds: u64,
}

impl ChargeSlot {
    /// The slot for a statement over `region` split as `part`, of `flops`
    /// per element, with its `n`-entry buffer sized here (see
    /// [`GeomSlot::new`]) and, when the region reads no loop variable, its
    /// charge computed here too.
    pub(crate) fn new(
        region: &Region,
        part: Option<usize>,
        flops: f64,
        layout: &Layout,
        m: &MachineSpec,
        timing: bool,
    ) -> ChargeSlot {
        // The array index is read only for a shape key.
        let item = (
            part.unwrap_or(0),
            Offset::ZERO,
            std::slice::from_ref(region),
        );
        let mut slot = ChargeSlot {
            key: SlotKey::new(std::iter::once(item), layout, timing && part.is_some()),
            part,
            flops,
            dt: Vec::with_capacity(layout.grid.len()),
            #[cfg(test)]
            builds: 0,
        };
        if slot.key.vars.is_empty() {
            slot.update(region, &LoopEnv::new(), layout, m);
        }
        slot
    }

    /// Brings the charge up to `env`, refilling it when the key is stale.
    pub(crate) fn update(
        &mut self,
        region: &Region,
        env: &LoopEnv,
        layout: &Layout,
        m: &MachineSpec,
    ) {
        if self.key.stale(env) {
            let rect = region.eval(env);
            layout.stmt_costs(&rect, self.part, self.flops, m, &mut self.dt);
            #[cfg(test)]
            {
                self.builds += 1;
            }
        }
        // Unit tests hold every charge to a fresh computation, bit for bit.
        #[cfg(test)]
        {
            let mut fresh = Vec::new();
            layout.stmt_costs(&region.eval(env), self.part, self.flops, m, &mut fresh);
            assert!(
                same_bits(&self.dt, &fresh),
                "stale charge for {region:?} under {env:?}"
            );
        }
    }
}

/// A statement's charge slot, if it has one, as (region, partition array,
/// per-element expression). Array assignments and reductions have one
/// each, numbered in pre-order.
pub(crate) fn charge_of(stmt: &Stmt) -> Option<(&Region, Option<usize>, &Expr)> {
    match stmt {
        Stmt::Assign { region, lhs, rhs } => Some((region, Some(lhs.index()), rhs)),
        Stmt::ScalarAssign {
            rhs: ScalarRhs::Reduce { region, expr, .. },
            ..
        } => Some((region, first_array(expr), expr)),
        _ => None,
    }
}

/// The number of charge slots in `block`.
pub(crate) fn charge_slots(block: &commopt_ir::Block) -> usize {
    let mut k = 0;
    walk_stmts(block, &mut |s| k += usize::from(charge_of(s).is_some()));
    k
}

/// A loop-variant slot's timing-mode key (DESIGN.md, "Transfer geometry"
/// and "Compute charges"). Timing runs read only a geometry's `bytes`,
/// messages and `active` flag. Those stay the same while every moving
/// region bound stays deep inside one block of its array's partition, far
/// enough from the block's ends that no region, shifted by the offset,
/// reaches past them. Only the slabs move, and only the full-mode snapshot
/// reads them.
///
/// A slot's items are eligible when, in each dimension, either every item
/// region's bounds there are constant, or every one's `lo` and `hi` are
/// both `v + c` for one shared loop variable `v`. Each distinct moving
/// bound `x` is keyed on the block holding it (or the space below or
/// above the bounds) and its distances to that block's ends, each capped
/// at its dimension's `cap`. Two values of `v` with equal keys are equal,
/// because some distance is below its cap and pins its `x`, or they put
/// every moving bound at least `cap` inside its block. Then:
///
/// - with `cap ≥ |offset|`, each shifted region stays in its block;
/// - with `cap ≥ width / 2` (rounded down), at most `width − 2 · cap ≤ 1`
///   values put a region's two ends that deep in two different blocks,
///   so at both values every region lies in one block.
///
/// Every ghost part then has the same extents and owner at both values,
/// and the two geometries differ only by a translation of their slabs. A
/// statement's charge is one item, its region over its partition at offset
/// zero, so `cap = ⌊width / 2⌋`. The charge depends only on each
/// processor's `|rect ∩ owned(a, p)|`, which equal keys keep equal.
pub(crate) struct ShapeKey {
    bounds: Vec<MovingBound>,
    /// Per bound, at the last check: its class (see [`MovingBound::class`]).
    key: Vec<[i64; 3]>,
}

/// One moving region bound `var + c` of a transfer, classified against
/// dimension `d` of its array's partition.
#[derive(PartialEq)]
struct MovingBound {
    var: LoopVarId,
    c: i64,
    /// The cap on the class's distances, shared by the dimension.
    cap: i64,
    dist: BlockDist,
    d: usize,
}

impl MovingBound {
    /// The bound's class under `env`: one more than the index of the block
    /// holding it (0 below the bounds, one more than the last block above
    /// them), then its distances to the low and high end of that block,
    /// capped at `cap`. The space outside the bounds is a block with one
    /// end at infinity.
    fn class(&self, env: &LoopEnv) -> [i64; 3] {
        let x = env.get(self.var) + self.c;
        let (lo, hi) = (self.dist.bounds.lo[self.d], self.dist.bounds.hi[self.d]);
        let cap = |v: i64| v.min(self.cap);
        if x < lo {
            [0, self.cap, cap(lo - 1 - x)]
        } else if x > hi {
            [
                self.dist.blocks(self.d) as i64 + 1,
                cap(x - hi - 1),
                self.cap,
            ]
        } else {
            let k = self.dist.block_of(self.d, x);
            let (l, h) = self.dist.span(self.d, k);
            [k as i64 + 1, cap(x - l), cap(h - x)]
        }
    }
}

impl ShapeKey {
    /// The shape key of `items` on `layout`, or `None` when they are not
    /// eligible.
    fn new<'a>(
        items: impl Iterator<Item = KeyItem<'a>> + Clone,
        layout: &Layout,
    ) -> Option<ShapeKey> {
        let mut bounds: Vec<MovingBound> = Vec::new();
        for d in 0..MAX_RANK {
            let ranges = || {
                items.clone().flat_map(move |(a, _, regions)| {
                    regions
                        .iter()
                        .filter(move |r| r.rank > d)
                        .map(move |r| (a, r.dims[d]))
                })
            };
            // `None` until a region is seen, then that region's variable.
            let mut dim_var = None;
            for (_, r) in ranges() {
                if r.lo.var != r.hi.var || dim_var.is_some_and(|v| v != r.lo.var) {
                    return None;
                }
                dim_var = Some(r.lo.var);
            }
            let Some(Some(var)) = dim_var else { continue };
            let width = ranges().map(|(_, r)| r.hi.c - r.lo.c).max().unwrap_or(0);
            let shift = items
                .clone()
                .map(|(_, offset, _)| offset.get(d).unsigned_abs());
            let cap = i64::from(shift.max().unwrap_or(0)).max(width.max(0) / 2);
            for (a, r) in ranges() {
                for c in [r.lo.c, r.hi.c] {
                    let bound = MovingBound {
                        var,
                        c,
                        cap,
                        dist: layout.dists[a],
                        d,
                    };
                    if !bounds.contains(&bound) {
                        bounds.push(bound);
                    }
                }
            }
        }
        Some(ShapeKey {
            key: vec![[0; 3]; bounds.len()],
            bounds,
        })
    }

    /// Moves the key to `env`'s classes; `true` when any changed.
    fn reclassify(&mut self, env: &LoopEnv) -> bool {
        let mut changed = false;
        for (b, k) in self.bounds.iter().zip(&mut self.key) {
            let class = b.class(env);
            changed |= *k != class;
            *k = class;
        }
        changed
    }
}

/// The first array referenced by an expression, if any.
fn first_array(e: &Expr) -> Option<usize> {
    let mut out = None;
    e.walk(&mut |n| {
        if out.is_none() {
            if let Expr::Ref { array, .. } = n {
                out = Some(array.index());
            }
        }
    });
    out
}

/// `true` when `a` and `b` hold the same floats, bit for bit.
#[cfg(test)]
pub(crate) fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.iter()
        .map(|x| x.to_bits())
        .eq(b.iter().map(|x| x.to_bits()))
}

/// Visits `a \ b` as disjoint non-empty rectangles (at most `2 * rank`):
/// the ghost parts of a footprint `a` outside an owned block `b`.
fn rect_subtract(a: Rect, b: Rect, mut f: impl FnMut(Rect)) {
    let mut rest = a;
    if rest.is_empty() {
        return;
    }
    for d in 0..a.rank {
        if rest.lo[d] < b.lo[d] {
            let mut r = rest;
            r.hi[d] = (b.lo[d] - 1).min(rest.hi[d]);
            if !r.is_empty() {
                f(r);
            }
            rest.lo[d] = b.lo[d];
        }
        if rest.hi[d] > b.hi[d] {
            let mut r = rest;
            r.lo[d] = (b.hi[d] + 1).max(rest.lo[d]);
            if !r.is_empty() {
                f(r);
            }
            rest.hi[d] = b.hi[d];
        }
        if rest.is_empty() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commopt_ir::TransferId;

    /// The bound `v + c` on dimension `d` of `bounds` split over `grid`.
    fn bound(grid: ProcGrid, bounds: Rect, d: usize, c: i64, cap: i64) -> MovingBound {
        MovingBound {
            var: LoopVarId(0),
            c,
            cap,
            dist: BlockDist::new(grid, bounds),
            d,
        }
    }

    /// `b`'s class at each value of its variable.
    fn classes(b: &MovingBound, values: &[i64]) -> Vec<[i64; 3]> {
        let mut env = LoopEnv::new();
        env.push(LoopVarId(0), 0);
        values
            .iter()
            .map(|&v| {
                env.set(LoopVarId(0), v);
                b.class(&env)
            })
            .collect()
    }

    #[test]
    fn moving_bounds_are_classed_by_block_and_capped_distances() {
        // Rows 1–13 over three processor rows: blocks 1–5, 6–9 and 10–13.
        let rows = bound(ProcGrid::new(3, 2), Rect::d2((1, 13), (1, 4)), 0, 0, 2);
        assert_eq!(
            classes(&rows, &[-3, 0, 1, 5, 6, 8, 13, 14, 20]),
            [
                // Below the bounds, far and adjacent.
                [0, 2, 2],
                [0, 2, 0],
                // Block edges and a middle row.
                [1, 0, 2],
                [1, 2, 0],
                [2, 0, 2],
                [2, 2, 1],
                [3, 2, 0],
                // Above the bounds, adjacent and far.
                [4, 0, 2],
                [4, 2, 2],
            ]
        );
        // `v - 1` is classed where `v + 0` is one lower.
        let lagging = bound(ProcGrid::new(3, 2), Rect::d2((1, 13), (1, 4)), 0, -1, 2);
        assert_eq!(classes(&lagging, &[2, 7]), classes(&rows, &[1, 6]));
        // Columns 1–4 over two processor columns, at cap 0: the block alone.
        let cols = bound(ProcGrid::new(3, 2), Rect::d2((1, 13), (1, 4)), 1, 0, 0);
        assert_eq!(
            classes(&cols, &[0, 1, 2, 3, 4, 5]),
            [
                [0, 0, 0],
                [1, 0, 0],
                [1, 0, 0],
                [2, 0, 0],
                [2, 0, 0],
                [3, 0, 0]
            ]
        );
    }

    #[test]
    fn moving_bounds_skip_empty_blocks_and_local_dimensions() {
        // Rows 1–3 over four processor rows: the fourth block is empty, so
        // the space above the bounds is class 5.
        let rows = bound(ProcGrid::new(4, 4), Rect::d2((1, 3), (1, 6)), 0, 0, 1);
        assert_eq!(
            classes(&rows, &[0, 1, 2, 3, 4, 6]),
            [
                [0, 1, 0],
                [1, 0, 0],
                [2, 0, 0],
                [3, 0, 0],
                [5, 0, 1],
                [5, 1, 1]
            ]
        );
        // A rank-3 array's third dimension is one block on every processor.
        let planes = bound(
            ProcGrid::new(2, 2),
            Rect::d3((1, 4), (1, 4), (1, 6)),
            2,
            0,
            1,
        );
        assert_eq!(
            classes(&planes, &[0, 1, 4, 6, 7]),
            [[0, 1, 0], [1, 0, 1], [1, 1, 1], [1, 1, 0], [2, 0, 1]]
        );
        // A rank-1 array is split along dimension 0 only.
        let line = bound(ProcGrid::new(2, 2), Rect::d1((1, 9)), 0, 0, 1);
        assert_eq!(
            classes(&line, &[5, 6, 9, 10]),
            [[1, 1, 0], [2, 0, 1], [2, 1, 0], [3, 0, 1]]
        );
    }

    /// `a \ b` collected into a list.
    fn subtract(a: Rect, b: Rect) -> Vec<Rect> {
        let mut parts = Vec::new();
        rect_subtract(a, b, |r| parts.push(r));
        parts
    }

    #[test]
    fn rect_subtract_covers_and_is_disjoint() {
        let a = Rect::d2((1, 6), (1, 6));
        let b = Rect::d2((3, 4), (3, 4));
        let parts = subtract(a, b);
        let total: u64 = parts.iter().map(Rect::count).sum();
        assert_eq!(total, 36 - 4);
        for (i, x) in parts.iter().enumerate() {
            assert!(x.intersect(&b).is_empty());
            for y in &parts[i + 1..] {
                assert!(x.intersect(y).is_empty());
            }
        }
    }

    #[test]
    fn rect_subtract_disjoint_returns_a() {
        let a = Rect::d2((1, 2), (1, 2));
        let b = Rect::d2((5, 6), (5, 6));
        assert_eq!(subtract(a, b), vec![a]);
    }

    #[test]
    fn ghost_parts_are_outside_owned_and_inside_bounds() {
        // The footprint split `Layout::build` makes: a block's shifted
        // footprint, clipped to the bounds, minus the block itself.
        commopt_testkit::cases(256, |rng| {
            let grid = ProcGrid::new(rng.usize(1, 6), rng.usize(1, 6));
            let lo = rng.i64(1, 3);
            let (n0, n1) = (rng.i64(6, 20), rng.i64(6, 20));
            let bounds = if rng.bool() {
                Rect::d3((lo, lo + n0 - 1), (lo, lo + n1 - 1), (1, rng.i64(1, 8)))
            } else {
                Rect::d2((lo, lo + n0 - 1), (lo, lo + n1 - 1))
            };
            let delta = [i64::from(rng.i32(-2, 2)), i64::from(rng.i32(-2, 2)), 0];
            let d = BlockDist::new(grid, bounds);
            for p in grid.procs() {
                let owned = d.owned(p);
                let needed = owned.shifted(delta).intersect(&bounds);
                let parts = subtract(needed, owned);
                let total: u64 = parts.iter().map(Rect::count).sum();
                assert_eq!(total, needed.count() - needed.intersect(&owned).count());
                for part in parts {
                    assert!(part.intersect(&owned).is_empty());
                    assert_eq!(part.intersect(&bounds), part);
                }
            }
        });
    }

    /// The grids the property tests run on, square and not.
    const GRIDS: [(usize, usize); 4] = [(2, 2), (4, 4), (4, 8), (8, 8)];

    /// A program declaring `count` random rank-`rank` arrays: 3–20 indices
    /// along each distributed dimension, so most splits are uneven and some
    /// blocks empty, and 1–6 along the third.
    fn random_arrays(rng: &mut commopt_testkit::Rng, rank: usize, count: usize) -> Program {
        let mut program = Program::new("prop");
        for i in 0..count {
            let (mut lo, mut hi) = ([0; MAX_RANK], [0; MAX_RANK]);
            for d in 0..rank {
                lo[d] = rng.i64(-1, 3);
                hi[d] = lo[d] + if d < 2 { rng.i64(2, 19) } else { rng.i64(0, 5) };
            }
            program.arrays.push(commopt_ir::ArrayDecl {
                name: format!("A{i}"),
                rect: Rect::new(rank, lo, hi),
            });
        }
        program
    }

    #[test]
    fn shape_keyed_geometry_and_charges_match_a_fresh_build_at_every_step() {
        use commopt_ir::{AffineBound, ArrayId, DimRange, Offset, TransferItem};
        let (i, j) = (LoopVarId(0), LoopVarId(1));
        commopt_testkit::cases(400, |rng| {
            let &(rows, cols) = rng.pick(&GRIDS);
            let rank = rng.usize(1, 3);
            let count = rng.usize(1, 3);
            let program = random_arrays(rng, rank, count);
            let mut layout = Layout::new(ProcGrid::new(rows, cols), &program);
            let mut offset = [0; MAX_RANK];
            for o in &mut offset[..rank] {
                *o = rng.i32(-2, 2);
            }
            // Each dimension's bounds are constant or move with `i` or
            // `j`. A quarter of the transfers break eligibility in one
            // dimension: every `lo` constant under a moving `hi`, the first
            // region constant and the rest moving, or the first region
            // moving with `i` and the rest with `j`.
            let modes: Vec<Option<LoopVarId>> = (0..rank)
                .map(|_| *rng.pick(&[None, Some(i), Some(j), Some(i)]))
                .collect();
            let broken = (rng.usize(0, 3) == 0).then(|| (rng.usize(0, rank - 1), rng.usize(0, 2)));
            let mut seen = 0;
            let mut items = Vec::new();
            for item in 0..rng.usize(1, 3) {
                let least = if item == 0 && broken.is_some() { 2 } else { 1 };
                let mut regions = Vec::new();
                for _ in 0..rng.usize(least, 3) {
                    let mut region = Region::from_rect(Rect::new(rank, [0; 3], [0; 3]));
                    for d in 0..rank {
                        let w = rng.i64(0, 3);
                        let var = match broken {
                            Some((bd, 1)) if bd == d => (seen > 0).then_some(i),
                            Some((bd, 2)) if bd == d => Some(if seen == 0 { i } else { j }),
                            _ => modes[d],
                        };
                        let (lo, hi) = match var {
                            None => {
                                let lo = rng.i64(-2, 14);
                                (AffineBound::constant(lo), AffineBound::constant(lo + w))
                            }
                            Some(v) => {
                                let c = rng.i64(-3, 3);
                                (AffineBound::var_plus(v, c), AffineBound::var_plus(v, c + w))
                            }
                        };
                        region.dims[d] = match broken {
                            Some((bd, 0)) if bd == d => DimRange::new(
                                AffineBound::constant(rng.i64(-2, 22)),
                                AffineBound::var_plus(i, rng.i64(-3, 3)),
                            ),
                            _ => DimRange { lo, hi },
                        };
                    }
                    regions.push(region);
                    seen += 1;
                }
                let array = ArrayId(rng.usize(0, program.arrays.len() - 1) as u32);
                items.push(TransferItem {
                    array,
                    offset: Offset(offset),
                    regions,
                });
            }
            let t = Transfer::new(TransferId(0), items);
            let mut slot = GeomSlot::new(&t, &layout, true);
            let vars = slot.key.vars.clone();
            if vars.is_empty() {
                return;
            }
            assert_eq!(slot.key.shape.is_some(), broken.is_none(), "{t:?}");
            // One region is also a statement, split as its item's array or
            // as itself. The first is shape-keyed where the region's own
            // bounds are eligible.
            let item = rng.pick(&t.items);
            let region = *rng.pick(&item.regions);
            let part = rng.bool().then_some(item.array.index());
            let m = MachineSpec::t3d();
            let mut charge = ChargeSlot::new(&region, part, 3.0, &layout, &m, true);
            let eligible = region.dims[..rank].iter().all(|r| r.lo.var == r.hi.var);
            let shaped = part.is_some() && eligible && !charge.key.vars.is_empty();
            assert_eq!(charge.key.shape.is_some(), shaped, "{region:?}");
            // Sweep the first variable over every block and past both
            // bounds, and under it the second, each forward or backward.
            let mut sweep = |on: bool| {
                let mut values: Vec<i64> = if on { (-4..=24).collect() } else { vec![0] };
                if rng.bool() {
                    values.reverse();
                }
                values
            };
            let (outer, inner) = (sweep(true), sweep(vars.len() > 1));
            let mut env = LoopEnv::new();
            env.push(i, 0);
            env.push(j, 0);
            let (mut geom, mut fresh) = (Geom::default(), Geom::default());
            for &x in &outer {
                env.set(vars[0], x);
                for &y in &inner {
                    if let Some(&v) = vars.get(1) {
                        env.set(v, y);
                    }
                    if slot.key.stale(&env) {
                        layout.build(&mut geom, &t, &env);
                    }
                    layout.build(&mut fresh, &t, &env);
                    assert_eq!(
                        geom.timing(),
                        fresh.timing(),
                        "{rows}x{cols} grid, {t:?} under {env:?}"
                    );
                    // `update` checks the charge against a fresh one.
                    charge.update(&region, &env, &layout, &m);
                }
            }
        });
    }
}
