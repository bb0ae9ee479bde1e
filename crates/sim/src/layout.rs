//! Where every array's blocks lie, and what the engine caches from it: the
//! geometry of each distinct transfer and the compute charge of each
//! statement, each in a slot refilled when its key goes stale (DESIGN.md,
//! "Transfer geometry" and "Compute charges"). Ownership questions go to
//! [`BlockDist`]; the one table kept here, each processor's owned block
//! of every array, is filled from it.

// Dimension loops deliberately index several parallel arrays by `d`.
#![allow(clippy::needless_range_loop)]

use commopt_ir::visit::walk_stmts;
use commopt_ir::{
    Expr, LoopEnv, LoopVarId, Offset, Program, Rect, Region, ScalarRhs, Stmt, TransferItem,
    MAX_RANK,
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
    /// the full-mode snapshot reads it, so timing runs leave it empty.
    slabs: Vec<(usize, Rect)>,
    /// `true` when the instance moves data between some processor pair.
    pub(crate) active: bool,
}

impl Geom {
    /// Empty buffers sized for `n` processors, with room for slabs only
    /// when `slabs`.
    fn with_capacity(n: usize, slabs: bool) -> Geom {
        let (starts, parts) = if slabs { (n + 1, n) } else { (0, 0) };
        Geom {
            bytes: Vec::with_capacity(n),
            out_start: Vec::with_capacity(n + 1),
            outgoing: Vec::with_capacity(n),
            slab_start: Vec::with_capacity(starts),
            slabs: Vec::with_capacity(parts),
            active: false,
        }
    }

    /// Fills the messages from each receiver's provider, given its
    /// `bytes`, and sets `active`.
    fn fill_messages(&mut self, provider: &[Option<ProcId>]) {
        let n = provider.len();
        // Group readers by provider with a counting sort: count each
        // sender's messages, turn the counts into end offsets, then place
        // readers from the back so each sender's readers come out
        // ascending and its offset lands on its first entry.
        self.out_start.clear();
        self.out_start.resize(n + 1, 0);
        for &q in provider.iter().flatten() {
            self.out_start[q] += 1;
        }
        let mut end = 0;
        for s in &mut self.out_start {
            end += *s;
            *s = end;
        }
        self.outgoing.clear();
        self.outgoing.resize(end, (0, 0));
        for p in (0..n).rev() {
            if let Some(q) = provider[p] {
                self.out_start[q] -= 1;
                self.outgoing[self.out_start[q]] = (p, self.bytes[p]);
            }
        }
        self.active = self.bytes.iter().any(|&b| b > 0);
    }

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
/// precomputed, plus the scratch buffers of a geometry build and of a
/// charge.
pub(crate) struct Layout {
    grid: ProcGrid,
    dists: Vec<BlockDist>,
    /// Per array × proc (row-major, `arrays × n`): the owned block.
    owned: Vec<Rect>,
    /// `true` when builds record the ghost slabs (full mode).
    slabs: bool,
    /// Build scratch: every (item, region) pair that touches its array,
    /// in item, region order.
    entries: Vec<Entry>,
    /// Build scratch: per grid dimension, each entry's spans, one per grid
    /// row (or column) its region touches.
    spans: [Vec<Span>; 2],
    /// Build scratch: the current receiver's kept ghost parts as (array
    /// index, rect), in item, region, part order, where the slabs or the
    /// duplicate check need them.
    recv: Vec<(usize, Rect)>,
    /// Build scratch: per receiving proc, the proc its message comes from.
    provider: Vec<Option<ProcId>>,
    /// Charge scratch: per grid row and per grid column, a statement's
    /// overlap with that row's or column's blocks along the dimension.
    overlaps: [Vec<u64>; 2],
}

impl Layout {
    /// The layout of `program`'s arrays on `grid`, whose geometry builds
    /// record the ghost slabs when `slabs`.
    pub(crate) fn new(grid: ProcGrid, program: &Program, slabs: bool) -> Layout {
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
            slabs,
            entries: Vec::new(),
            spans: grid.dims.map(Vec::with_capacity),
            recv: Vec::new(),
            provider: Vec::with_capacity(n),
            overlaps: grid.dims.map(Vec::with_capacity),
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

    /// Fills `dt`, one entry per processor, with each processor's cost for
    /// a statement over `rect` of `flops` per element, split as
    /// [`part`](Layout::part) splits it: the guard cost where its share is
    /// empty, else the statement overhead plus its share's flops. A share
    /// is a product of per-grid-dimension overlaps, so this intersects once
    /// per grid row and once per grid column, not once per processor, in
    /// scratch buffers sized at construction. Run only when a
    /// [`ChargeSlot`] goes stale.
    pub(crate) fn stmt_costs(
        &mut self,
        rect: &Rect,
        a: Option<usize>,
        flops: f64,
        m: &MachineSpec,
        dt: &mut [f64],
    ) {
        let dist = match a {
            Some(a) => self.dists[a],
            None => BlockDist::new(self.grid, *rect),
        };
        let b = dist.bounds;
        let overlap = |d: usize, (lo, hi): (i64, i64)| {
            (rect.hi[d].min(hi) - rect.lo[d].max(lo) + 1).max(0) as u64
        };
        // Dimensions past the grid's are processor-local: every share
        // spans the partition's bounds there.
        let grid = self.grid;
        let dist_dims = grid.dims.len();
        let mut local = 1;
        for d in dist_dims..MAX_RANK {
            local *= overlap(d, (b.lo[d], b.hi[d]));
        }
        for (d, overlaps) in self.overlaps.iter_mut().enumerate() {
            overlaps.clear();
            overlaps.extend((0..grid.dims[d]).map(|k| {
                // A dimension the partition does not split (a rank-1
                // array's columns) is whole on every processor.
                let span = if d < dist.bounds.rank {
                    dist.span(d, k)
                } else {
                    (b.lo[d], b.hi[d])
                };
                overlap(d, span)
            }));
        }
        let [rows, cols] = &self.overlaps;
        for (row, &r) in dt.chunks_exact_mut(cols.len()).zip(rows) {
            for (dt, &c) in row.iter_mut().zip(cols) {
                let count = r * c * local;
                *dt = if count == 0 {
                    m.guard_overhead_us
                } else {
                    m.stmt_overhead_us + count as f64 * flops * m.flop_us
                };
            }
        }
    }

    /// [`stmt_costs`](Layout::stmt_costs) computed one processor at a
    /// time, by intersecting `rect` with each share: the independent
    /// formula the unit tests hold the per-dimension one to.
    #[cfg(test)]
    pub(crate) fn stmt_costs_per_proc(
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

    /// Refills `geom` for a transfer carrying `items` under `env`, reusing
    /// its buffers. Each (item, region) pair is split once per grid row and
    /// once per grid column into [`Span`]s. Then each receiver, in
    /// processor order, takes its ghost parts as products of its row's and
    /// its column's spans, in the order `rect_subtract` gives them.
    pub(crate) fn build(&mut self, geom: &mut Geom, items: &[TransferItem], env: &LoopEnv) {
        let n = self.grid.len();
        let cols = self.grid.dims[1];
        self.split(items, env);
        geom.bytes.clear();
        geom.bytes.resize(n, 0);
        self.provider.clear();
        self.provider.resize(n, None);
        geom.slab_start.clear();
        geom.slabs.clear();
        let Layout {
            slabs,
            entries,
            spans,
            recv,
            provider,
            ..
        } = self;
        // The slabs need each part, and so does the duplicate check, but
        // only where a second entry follows.
        let record = *slabs || entries.len() > 1;
        // Only receivers inside some entry's rows and columns get parts.
        let (mut lo, mut hi) = ([usize::MAX; 2], [0; 2]);
        for e in entries.iter() {
            for d in 0..2 {
                lo[d] = lo[d].min(e.first[d]);
                hi[d] = hi[d].max(e.last[d]);
            }
        }
        for g0 in lo[0]..=hi[0] {
            for g1 in lo[1]..=hi[1] {
                let (g, p) = ([g0, g1], g0 * cols + g1);
                if *slabs {
                    geom.slab_start.resize(p + 1, geom.slabs.len());
                }
                recv.clear();
                for e in entries.iter() {
                    if (0..2).any(|d| g[d] < e.first[d] || e.last[d] < g[d]) {
                        continue;
                    }
                    let [row, col] = [0, 1].map(|d| &spans[d][e.at[d] + g[d] - e.first[d]]);
                    if row.void || col.void {
                        continue;
                    }
                    // One entry's parts are disjoint, so only an earlier
                    // entry's can equal one. Avoid double-charging
                    // identical slabs from overlapping use regions. The
                    // first part's owner, from the blocks holding its low
                    // corner, provides the receiver's message.
                    let earlier = recv.len();
                    let mut keep = |span: [(i64, i64); 2], owner: [usize; 2]| {
                        if record {
                            let mut part = e.needed;
                            for d in 0..2 {
                                (part.lo[d], part.hi[d]) = span[d];
                            }
                            if recv[..earlier].contains(&(e.a, part)) {
                                return;
                            }
                            recv.push((e.a, part));
                        }
                        let count = extent(span[0]).saturating_mul(extent(span[1]));
                        geom.bytes[p] += count.saturating_mul(e.local) * 8;
                        provider[p].get_or_insert(owner[0] * cols + owner[1]);
                    };
                    if let Some(rows) = row.below {
                        keep([rows, col.need], [row.need_at, col.need_at]);
                    }
                    if let Some(rows) = row.above {
                        keep([rows, col.need], [row.above_at, col.need_at]);
                    }
                    if row.rest.0 <= row.rest.1 {
                        if let Some(cols) = col.below {
                            keep([row.rest, cols], [g0, col.need_at]);
                        }
                        if let Some(cols) = col.above {
                            keep([row.rest, cols], [g0, col.above_at]);
                        }
                    }
                }
                if *slabs {
                    geom.slabs.extend_from_slice(recv);
                }
            }
        }
        if *slabs {
            geom.slab_start.resize(n + 1, geom.slabs.len());
        }
        geom.fill_messages(provider);
    }

    /// Refills the build's entries with every (item, region) pair of
    /// `items` under `env` that touches its array, and their spans with
    /// each one's share of every grid row and column it touches.
    fn split(&mut self, items: &[TransferItem], env: &LoopEnv) {
        self.entries.clear();
        for spans in &mut self.spans {
            spans.clear();
        }
        let dims = self.spans.len();
        for item in items {
            let a = item.array.index();
            let dist = self.dists[a];
            let bounds = dist.bounds;
            let mut delta = [0i64; MAX_RANK];
            for d in 0..MAX_RANK {
                delta[d] = i64::from(item.offset.get(d));
            }
            for region in &item.regions {
                let r = region.eval(env).intersect(&bounds);
                // Past the grid's dimensions every block spans the bounds,
                // so every receiver needs the same extent there.
                let needed = r.shifted(delta).intersect(&bounds);
                if r.is_empty() || (dims..r.rank).any(|d| needed.hi[d] < needed.lo[d]) {
                    continue;
                }
                let mut entry = Entry {
                    a,
                    needed,
                    local: (dims..MAX_RANK)
                        .fold(1, |n, d| n.saturating_mul(needed.extent(d) as u64)),
                    first: [0; 2],
                    last: [0; 2],
                    at: [0; 2],
                };
                for (d, spans) in self.spans.iter_mut().enumerate() {
                    entry.at[d] = spans.len();
                    if d < r.rank {
                        let (first, last) = (dist.block_of(d, r.lo[d]), dist.block_of(d, r.hi[d]));
                        (entry.first[d], entry.last[d]) = (first, last);
                        let r = (r.lo[d], r.hi[d]);
                        spans.extend((first..=last).map(|k| Span::new(&dist, d, k, r, delta[d])));
                    } else {
                        // A rank-1 array's columns are one block, which
                        // every grid column holds whole.
                        let whole = Span::whole((needed.lo[d], needed.hi[d]));
                        entry.last[d] = self.grid.dims[d] - 1;
                        spans.extend(std::iter::repeat_n(whole, self.grid.dims[d]));
                    }
                }
                self.entries.push(entry);
            }
        }
    }

    /// The per-processor build: item by item, each processor's ghost parts
    /// from a 3-D intersection and `rect_subtract`, grouped by receiver
    /// with a sort. The independent reference the unit tests hold
    /// [`build`](Layout::build) to.
    #[cfg(test)]
    pub(crate) fn build_per_proc(&self, geom: &mut Geom, items: &[TransferItem], env: &LoopEnv) {
        let n = self.grid.len();
        let cols = self.grid.dims[1];
        let mut parts: Vec<(ProcId, usize, usize, Rect)> = Vec::new();
        for item in items {
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
                            let seq = parts.len();
                            parts.push((p, seq, a, part));
                        });
                    }
                }
            }
        }
        // Group the parts by receiver, keeping each receiver's parts in
        // item, region, part order.
        parts.sort_unstable_by_key(|&(p, seq, ..)| (p, seq));
        geom.bytes.clear();
        geom.bytes.resize(n, 0);
        let mut provider = vec![None; n];
        geom.slab_start.clear();
        geom.slabs.clear();
        let mut next = 0;
        for p in 0..n {
            if self.slabs {
                geom.slab_start.push(geom.slabs.len());
            }
            let first = next;
            while let Some(&(q, _, a, part)) = parts.get(next) {
                if q != p {
                    break;
                }
                next += 1;
                // Avoid double-charging identical slabs from overlapping
                // use regions: an earlier equal part of this receiver was
                // kept, or an equal one before it was.
                if parts[first..next - 1]
                    .iter()
                    .any(|&(_, _, ai, r2)| ai == a && r2 == part)
                {
                    continue;
                }
                geom.bytes[p] += part.count() * 8;
                if provider[p].is_none() {
                    provider[p] = Some(self.dists[a].owner_of(part.lo));
                }
                if self.slabs {
                    geom.slabs.push((a, part));
                }
            }
        }
        if self.slabs {
            geom.slab_start.push(geom.slabs.len());
        }
        geom.fill_messages(&provider);
    }
}

/// One (item, region) pair of a build that touches its array: the array,
/// the extent every receiver needs past the grid's dimensions, and the
/// grid rows and columns the region touches, with their spans.
struct Entry {
    /// The item's array index.
    a: usize,
    /// The needed footprint: exact past the grid's dimensions, where
    /// receivers do not differ. Each part replaces dimensions 0 and 1.
    needed: Rect,
    /// The number of indices `needed` spans past the grid's dimensions.
    local: u64,
    /// Per grid dimension: the first and last grid index whose blocks the
    /// region touches.
    first: [usize; 2],
    last: [usize; 2],
    /// Per grid dimension: where grid index `first`'s span lies in the
    /// build's spans.
    at: [usize; 2],
}

/// The number of indices in the inclusive interval `r`.
fn extent(r: (i64, i64)) -> u64 {
    (r.1 - r.0 + 1).max(0) as u64
}

/// One block's share of a build entry along one grid dimension, with the
/// ghost intervals `rect_subtract` cuts from it there.
#[derive(Clone, Copy)]
struct Span {
    /// The needed interval: the region within the block, shifted by the
    /// item's offset and clipped to the bounds.
    need: (i64, i64),
    /// The part of `need` below the block, if any.
    below: Option<(i64, i64)>,
    /// The part of `need` above the block, if any.
    above: Option<(i64, i64)>,
    /// The part of `need` inside the block (possibly empty): where
    /// dimension 1's parts lie along dimension 0.
    rest: (i64, i64),
    /// `true` when `need` is empty, so the block receives nothing.
    void: bool,
    /// The blocks holding the low ends of `need` and `above`: where a
    /// part starting there finds its owner.
    need_at: usize,
    above_at: usize,
}

impl Span {
    /// Block `k`'s share, along dimension `d` of `dist`, of the region
    /// interval `r` read at offset `delta`.
    fn new(dist: &BlockDist, d: usize, k: usize, r: (i64, i64), delta: i64) -> Span {
        let own = dist.span(d, k);
        let need = (
            (r.0.max(own.0) + delta).max(dist.bounds.lo[d]),
            (r.1.min(own.1) + delta).min(dist.bounds.hi[d]),
        );
        if need.1 < need.0 {
            return Span {
                void: true,
                ..Span::whole(need)
            };
        }
        let above = (need.1 > own.1).then(|| ((own.1 + 1).max(need.0), need.1));
        Span {
            need,
            below: (need.0 < own.0).then(|| (need.0, (own.0 - 1).min(need.1))),
            above,
            rest: (need.0.max(own.0), need.1.min(own.1)),
            void: false,
            need_at: dist.block_of(d, need.0),
            above_at: above.map_or(k, |(lo, _)| dist.block_of(d, lo)),
        }
    }

    /// The share along a dimension the partition does not split and
    /// `rect_subtract` does not cut: `need` whole.
    fn whole(need: (i64, i64)) -> Span {
        Span {
            need,
            below: None,
            above: None,
            rest: need,
            void: false,
            need_at: 0,
            above_at: 0,
        }
    }
}

/// Which entry of a cached slot is current and when it must be filled:
/// the key half of a transfer's [`GeomSlot`] and of a statement's
/// [`ChargeSlot`]. A slot whose regions read no loop variable is filled
/// once per run. A loop-variant one is checked when one of its variables
/// changes. Keyed on the variables' values, it has one entry, refilled
/// whenever they change. Keyed on a [`ShapeKey`], it has one entry per
/// shape class, each filled the first time its class comes up.
pub(crate) struct SlotKey {
    /// The loop variables the slot's regions mention.
    pub(crate) vars: Vec<LoopVarId>,
    /// Their values at the last check.
    values: Vec<i64>,
    /// Where keyed on shape classes: the class at the last check, and
    /// which classes are filled.
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

    /// Brings the key up to `env` and reports whether the current entry
    /// must be filled, which the slot's owner then does: without a shape,
    /// when it never was or a variable moved; with one, when its class
    /// was never filled.
    fn stale(&mut self, env: &LoopEnv) -> bool {
        let mut moved = !self.built;
        for (&v, k) in self.vars.iter().zip(&mut self.values) {
            let x = env.get(v);
            moved |= *k != x;
            *k = x;
        }
        self.built = true;
        match &mut self.shape {
            Some(shape) => {
                if moved {
                    shape.class = shape.class_of(env);
                }
                !std::mem::replace(&mut shape.filled[shape.class], true)
            }
            None => moved,
        }
    }

    /// The number of entries a slot under this key keeps.
    fn entries(&self) -> usize {
        self.shape.as_ref().map_or(1, |s| s.filled.len())
    }

    /// The current entry: the shape class at the last check, 0 without a
    /// shape.
    fn entry(&self) -> usize {
        self.shape.as_ref().map_or(0, |s| s.class)
    }
}

/// The geometry cache of every transfer carrying one item list: transfers
/// with equal items share a slot, so the DR, SR and DN of one instance,
/// and the instances of its twins, share a build. A slot keyed on the loop
/// variables' values (full mode, and transfers without a [`ShapeKey`]) has
/// one geometry, refilled in place when its [`SlotKey`] goes stale. A
/// timing-mode slot with a shape key keeps a table of one geometry per
/// shape class, as many as the key derives from the partition, and builds
/// each class at most once per run.
pub(crate) struct GeomSlot {
    pub(crate) key: SlotKey,
    /// Per entry of the key: its geometry, `None` before its first build
    /// and while a caller holds it.
    pub(crate) geoms: Vec<Option<Geom>>,
    /// Builds and calls so far, for the tests that pin the cache.
    #[cfg(test)]
    pub(crate) builds: u64,
    #[cfg(test)]
    pub(crate) takes: u64,
}

impl GeomSlot {
    /// An unbuilt slot for transfers carrying `items` on `layout`'s
    /// processors, keyed on shape classes when `timing` and the items are
    /// eligible. A class's buffers are allocated when it is first built:
    /// many classes a key derives from the partition never occur.
    pub(crate) fn new(items: &[TransferItem], layout: &Layout, timing: bool) -> GeomSlot {
        let key_items = items
            .iter()
            .map(|it| (it.array.index(), it.offset, it.regions.as_slice()));
        let key = SlotKey::new(key_items, layout, timing);
        GeomSlot {
            geoms: (0..key.entries()).map(|_| None).collect(),
            key,
            #[cfg(test)]
            builds: 0,
            #[cfg(test)]
            takes: 0,
        }
    }

    /// Takes the geometry of `items` under `env` out of the slot, building
    /// it on `layout` first when the key is stale. Hand it back with
    /// [`put`](GeomSlot::put); an entry left empty is simply rebuilt on its
    /// next take.
    pub(crate) fn take(
        &mut self,
        items: &[TransferItem],
        env: &LoopEnv,
        layout: &mut Layout,
    ) -> Geom {
        let stale = self.key.stale(env);
        #[cfg(test)]
        {
            self.takes += 1;
        }
        match self.geoms[self.key.entry()].take() {
            Some(geom) if !stale => geom,
            old => {
                let mut geom =
                    old.unwrap_or_else(|| Geom::with_capacity(layout.grid.len(), layout.slabs));
                layout.build(&mut geom, items, env);
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
        self.geoms[self.key.entry()] = Some(geom);
    }
}

/// One array statement's or reduction's compute charge (DESIGN.md,
/// "Compute charges"): every processor's cost as [`Layout::stmt_costs`]
/// fills it, per entry of the key. The key is the statement's region over
/// its partition, read at no offset. Timing mode keys an eligible
/// statement split as an array on its shape class, with one charge per
/// class; full mode, and a reduction split as its own region (whose
/// partition moves with the region), key on the loop variables' values,
/// with one charge refilled in place.
pub(crate) struct ChargeSlot {
    pub(crate) key: SlotKey,
    /// The array whose partition splits the statement (see
    /// [`Layout::part`]).
    pub(crate) part: Option<usize>,
    /// Flops per element.
    pub(crate) flops: f64,
    /// Per entry of the key, per proc (row-major, `entries × n`): the
    /// charge.
    dts: Vec<f64>,
    /// Processors per entry.
    n: usize,
    /// Refills so far, for the tests that pin the cache.
    #[cfg(test)]
    pub(crate) builds: u64,
}

impl ChargeSlot {
    /// The slot for a statement over `region` split as `part`, of `flops`
    /// per element, with its one buffer, every entry's, allocated here
    /// and, when the region reads no loop variable, its charge computed
    /// here too.
    pub(crate) fn new(
        region: &Region,
        part: Option<usize>,
        flops: f64,
        layout: &mut Layout,
        m: &MachineSpec,
        timing: bool,
    ) -> ChargeSlot {
        // The array index is read only for a shape key.
        let item = (
            part.unwrap_or(0),
            Offset::ZERO,
            std::slice::from_ref(region),
        );
        let key = SlotKey::new(std::iter::once(item), layout, timing && part.is_some());
        let n = layout.grid.len();
        let mut slot = ChargeSlot {
            dts: vec![0.0; key.entries() * n],
            n,
            key,
            part,
            flops,
            #[cfg(test)]
            builds: 0,
        };
        if slot.key.vars.is_empty() {
            slot.update(region, &LoopEnv::new(), layout, m);
        }
        slot
    }

    /// Every processor's charge under the environment of the last
    /// [`update`](ChargeSlot::update).
    pub(crate) fn dt(&self) -> &[f64] {
        let k = self.key.entry() * self.n;
        &self.dts[k..k + self.n]
    }

    /// Brings the charge up to `env`, filling its entry when the key is
    /// stale.
    pub(crate) fn update(
        &mut self,
        region: &Region,
        env: &LoopEnv,
        layout: &mut Layout,
        m: &MachineSpec,
    ) {
        if self.key.stale(env) {
            let rect = region.eval(env);
            let k = self.key.entry() * self.n;
            let dt = &mut self.dts[k..k + self.n];
            layout.stmt_costs(&rect, self.part, self.flops, m, dt);
            #[cfg(test)]
            {
                self.builds += 1;
            }
        }
        // Unit tests hold every charge to the per-processor formula, bit
        // for bit.
        #[cfg(test)]
        {
            let mut fresh = Vec::new();
            let rect = region.eval(env);
            layout.stmt_costs_per_proc(&rect, self.part, self.flops, m, &mut fresh);
            assert!(
                same_bits(self.dt(), &fresh),
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
/// bound `x` is classed by the block holding it (or the space below or
/// above the bounds) and its distances to that block's ends, each capped
/// at its dimension's `cap` ([`MovingBound::class`]). Two values of `v`
/// whose bounds are all classed alike are equal, because some distance is
/// below its cap and pins its `x`, or they put every moving bound at least
/// `cap` inside its block. Then:
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
/// processor's `|rect ∩ owned(a, p)|`, which equal classes keep equal.
///
/// The classes are numbered densely. As `v` grows, a bound's class changes
/// only within `cap + 1` of a block end and never returns to an earlier
/// one, so the classes of one variable's values are the runs between the
/// values where some bound's class changes, and a slot's class is the
/// tuple of its variables' runs. Their count, the length of
/// [`filled`](ShapeKey::filled), depends on the partition, the caps and
/// the bounds' constants, never on a loop's trip count.
pub(crate) struct ShapeKey {
    /// Per loop variable the moving bounds read: the variable and the
    /// values at which some bound's class differs from its class one
    /// lower, ascending.
    axes: Vec<(LoopVarId, Vec<i64>)>,
    /// Per class: whether the slot has filled its entry. There are as
    /// many classes as the product, over the axes, of one more than their
    /// change counts.
    pub(crate) filled: Vec<bool>,
    /// The class at the last check.
    class: usize,
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
    /// The bound's class when its variable is `v`: one more than the index
    /// of the block holding `v + c` (0 below the bounds, one more than the
    /// last block above them), then its distances to the low and high end
    /// of that block, capped at `cap`. The space outside the bounds is a
    /// block with one end at infinity.
    fn class(&self, v: i64) -> [i64; 3] {
        let x = v + self.c;
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

    /// Appends to `out` every value of the variable at which the bound's
    /// class differs from its class one lower. Each lies within `cap + 1`
    /// of the end of a non-empty block, so only those windows are scanned.
    fn changes(&self, out: &mut Vec<i64>) {
        let reach = self.cap + 1;
        for k in 0..self.dist.blocks(self.d) {
            let (l, h) = self.dist.span(self.d, k);
            if h < l {
                continue;
            }
            for x in (l - reach..=l + reach).chain(h - reach..=h + reach) {
                let v = x - self.c;
                if self.class(v) != self.class(v - 1) {
                    out.push(v);
                }
            }
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
        let mut axes: Vec<(LoopVarId, Vec<i64>)> = Vec::new();
        for b in &bounds {
            let i = match axes.iter().position(|(v, _)| *v == b.var) {
                Some(i) => i,
                None => {
                    axes.push((b.var, Vec::new()));
                    axes.len() - 1
                }
            };
            b.changes(&mut axes[i].1);
        }
        for (_, changes) in &mut axes {
            changes.sort_unstable();
            changes.dedup();
        }
        let classes = axes.iter().map(|(_, c)| c.len() + 1).product();
        Some(ShapeKey {
            filled: vec![false; classes],
            axes,
            class: 0,
        })
    }

    /// The class of `env`: per axis, the number of change values at or
    /// below its variable's value, combined in mixed radix.
    fn class_of(&self, env: &LoopEnv) -> usize {
        self.axes.iter().fold(0, |k, (v, changes)| {
            let x = env.get(*v);
            k * (changes.len() + 1) + changes.partition_point(|&c| c <= x)
        })
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
/// the ghost parts of a footprint `a` outside an owned block `b`, in the
/// order a build emits them.
#[cfg(test)]
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
    use commopt_ir::{Transfer, TransferId};

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
        values.iter().map(|&v| b.class(v)).collect()
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

    #[test]
    fn bound_changes_are_exactly_the_class_changes_and_never_revisit() {
        // `changes` scans only windows around block ends; a brute-force
        // scan far past both bounds must find the same values, and the
        // class of each run between them must be new, so runs and class
        // tuples are one to one.
        commopt_testkit::cases(300, |rng| {
            let grid = ProcGrid::new(rng.usize(1, 8), rng.usize(1, 8));
            let lo = rng.i64(-2, 3);
            let bounds = Rect::d3(
                (lo, lo + rng.i64(0, 19)),
                (lo, lo + rng.i64(0, 19)),
                (1, rng.i64(1, 6)),
            );
            let (d, c, cap) = (rng.usize(0, 2), rng.i64(-3, 3), rng.i64(0, 4));
            let b = bound(grid, bounds, d, c, cap);
            let mut fast = Vec::new();
            b.changes(&mut fast);
            fast.sort_unstable();
            fast.dedup();
            let range = bounds.lo[d] - 40..=bounds.hi[d] + 40;
            let slow: Vec<i64> = range
                .clone()
                .filter(|&v| b.class(v) != b.class(v - 1))
                .collect();
            assert_eq!(fast, slow, "{grid:?} {bounds:?} d={d} c={c} cap={cap}");
            let mut runs = vec![b.class(*range.start())];
            runs.extend(slow.iter().map(|&v| b.class(v)));
            for (k, class) in runs.iter().enumerate() {
                assert!(!runs[..k].contains(class), "{class:?} revisited");
            }
        });
    }

    #[test]
    fn per_dimension_charges_match_the_per_processor_formula() {
        // Ranks 1–3 on grids up to 8 × 8 over 3–20 indices per
        // distributed dimension, so some blocks are empty and a rank-1
        // array has a replica in every grid column; split as an array or
        // as the region itself, at every step of a region moving along one
        // dimension from below the bounds to above them.
        let m = MachineSpec::t3d();
        commopt_testkit::cases(300, |rng| {
            let &(rows, cols) = rng.pick(&GRIDS);
            let rank = rng.usize(1, 3);
            let program = random_arrays(rng, rank, 2);
            let mut layout = Layout::new(ProcGrid::new(rows, cols), &program, false);
            let a = rng.usize(0, 1);
            let part = rng.bool().then_some(a);
            let bounds = program.arrays[a].rect;
            let (mut lo, mut hi) = ([0; MAX_RANK], [0; MAX_RANK]);
            for d in 0..rank {
                lo[d] = rng.i64(bounds.lo[d] - 2, bounds.hi[d]);
                hi[d] = lo[d] + rng.i64(-1, bounds.extent(d) + 1);
            }
            let rect = Rect::new(rank, lo, hi);
            let d = rng.usize(0, rank - 1);
            let flops = f64::from(rng.i32(1, 9)) * 0.5;
            let (mut fast, mut slow) = (vec![0.0; rows * cols], Vec::new());
            for s in -24..=24 {
                let mut delta = [0; MAX_RANK];
                delta[d] = s;
                let moved = rect.shifted(delta);
                layout.stmt_costs(&moved, part, flops, &m, &mut fast);
                layout.stmt_costs_per_proc(&moved, part, flops, &m, &mut slow);
                assert!(
                    same_bits(&fast, &slow),
                    "{rows}x{cols} grid, {moved:?} split as {part:?} of {bounds:?}"
                );
            }
        });
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
        // The footprint split `Layout::build_per_proc` makes, and
        // `Layout::build` reproduces per dimension: a block's shifted
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
    fn span_build_matches_the_per_processor_build() {
        use commopt_ir::{AffineBound, ArrayId, DimRange, TransferItem};
        let i = LoopVarId(0);
        // Partitions with uneven blocks (13 × 7 on 3 × 3) and with empty
        // ones (3 × 2 on 4 × 4, 12² on 8 × 8), then random arrays of ranks
        // 1–3 on 4 to 256 processors: rank-1 arrays have a replica in
        // every grid column, rank-3 ones a processor-local third dimension.
        let fixed = [
            ((3, 3), Rect::d2((1, 13), (1, 7))),
            ((4, 4), Rect::d2((1, 3), (1, 2))),
            ((8, 8), Rect::d2((1, 12), (1, 12))),
        ];
        commopt_testkit::cases(300, |rng| {
            let (grid, program) = match rng.usize(0, 5) {
                k @ 0..=2 => {
                    let (grid, rect) = fixed[k];
                    let mut program = random_arrays(rng, 2, 1);
                    program.arrays[0].rect = rect;
                    (grid, program)
                }
                _ => {
                    let grid = *rng.pick(&[(2, 2), (4, 4), (8, 8), (16, 16)]);
                    let rank = rng.usize(1, 3);
                    (grid, random_arrays(rng, rank, 2))
                }
            };
            let rank = program.arrays[0].rect.rank;
            // Each dimension of every region is constant, reaching up to
            // three indices past the bounds, or moves with `i`.
            let moving: Vec<bool> = (0..rank).map(|_| rng.bool()).collect();
            let region = |rng: &mut commopt_testkit::Rng, a: usize| {
                let bounds = program.arrays[a].rect;
                let mut region = Region::from_rect(bounds);
                for d in 0..rank {
                    let w = rng.i64(0, bounds.extent(d) + 2);
                    region.dims[d] = if moving[d] {
                        let c = rng.i64(-3, 3);
                        DimRange::new(AffineBound::var_plus(i, c), AffineBound::var_plus(i, c + w))
                    } else {
                        let lo = rng.i64(bounds.lo[d] - 3, bounds.hi[d] + 1);
                        DimRange::new(AffineBound::constant(lo), AffineBound::constant(lo + w))
                    };
                }
                region
            };
            // Offsets in −2..=2 per dimension, diagonals included. A second
            // region may repeat the first or overlap it one index over, and
            // a later item may repeat an earlier one's array and offset,
            // so equal parts reach the duplicate check.
            let mut items: Vec<TransferItem> = Vec::new();
            for _ in 0..rng.usize(1, 3) {
                let (array, offset) = match items.last() {
                    Some(prev) if rng.bool() => (prev.array, prev.offset),
                    _ => {
                        let mut offset = [0; MAX_RANK];
                        for o in &mut offset[..rank] {
                            *o = rng.i32(-2, 2);
                        }
                        let a = rng.usize(0, program.arrays.len() - 1);
                        (ArrayId(a as u32), Offset(offset))
                    }
                };
                let mut regions = vec![region(rng, array.index())];
                if rng.bool() {
                    let mut twin = regions[0];
                    if rng.bool() {
                        let d = rng.usize(0, rank - 1);
                        twin.dims[d].lo.c += 1;
                        twin.dims[d].hi.c += 1;
                    }
                    regions.push(twin);
                }
                if rng.bool() {
                    regions.push(region(rng, array.index()));
                }
                items.push(TransferItem {
                    array,
                    offset,
                    regions,
                });
            }
            // At every value of `i` from where each moving region lies
            // below the bounds (its width is at most 22) to where it lies
            // above them, with and without slabs, refilling one geometry
            // in place.
            let grid = ProcGrid::new(grid.0, grid.1);
            let ends = program.arrays.iter().flat_map(|a| [a.rect.lo, a.rect.hi]);
            let (bottom, top) = ends
                .flatten()
                .fold((0, 0), |(l, h), x| (l.min(x), h.max(x)));
            for slabs in [false, true] {
                let mut layout = Layout::new(grid, &program, slabs);
                let mut env = LoopEnv::new();
                env.push(i, 0);
                let mut fast = Geom::default();
                for x in bottom - 26..=top + 4 {
                    env.set(i, x);
                    let mut slow = Geom::default();
                    layout.build(&mut fast, &items, &env);
                    layout.build_per_proc(&mut slow, &items, &env);
                    assert_eq!(fast, slow, "{grid:?}, {items:?} under {env:?}");
                }
            }
        });
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
            let mut layout = Layout::new(ProcGrid::new(rows, cols), &program, false);
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
            let mut slot = GeomSlot::new(&t.items, &layout, true);
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
            let mut charge = ChargeSlot::new(&region, part, 3.0, &mut layout, &m, true);
            let eligible = region.dims[..rank].iter().all(|r| r.lo.var == r.hi.var);
            let shaped = part.is_some() && eligible && !charge.key.vars.is_empty();
            assert_eq!(charge.key.shape.is_some(), shaped, "{region:?}");
            // Sweep the first variable over every block and past both
            // bounds, and under it the second, each forward or backward,
            // twice, so that the class table serves every class again.
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
            let mut fresh = Geom::default();
            for &x in outer.iter().chain(&outer) {
                env.set(vars[0], x);
                for &y in &inner {
                    if let Some(&v) = vars.get(1) {
                        env.set(v, y);
                    }
                    let geom = slot.take(&t.items, &env, &mut layout);
                    layout.build_per_proc(&mut fresh, &t.items, &env);
                    assert_eq!(
                        geom.timing(),
                        fresh.timing(),
                        "{rows}x{cols} grid, {t:?} under {env:?}"
                    );
                    slot.put(geom);
                    // `update` checks the charge against the per-processor
                    // formula.
                    charge.update(&region, &env, &mut layout, &m);
                }
            }
            // A shaped slot builds each class at most once, in a table
            // sized at construction.
            if let Some(shape) = &slot.key.shape {
                let classes = shape.filled.len();
                assert_eq!(slot.geoms.len(), classes);
                assert!(slot.builds <= classes as u64, "{t:?}");
            }
            if let Some(shape) = &charge.key.shape {
                assert!(charge.builds <= shape.filled.len() as u64, "{region:?}");
            }
        });
    }
}
