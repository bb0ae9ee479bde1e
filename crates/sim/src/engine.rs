//! The lockstep SPMD discrete-event executor.
//!
//! Every processor executes the same statement sequence (SPMD with static
//! control flow), so the simulator advances all of them one statement at a
//! time, each with its own clock in microseconds:
//!
//! * array statements cost `local elements × flops × flop_us` plus a fixed
//!   statement overhead (or just a guard cost when the local section is
//!   empty);
//! * IRONMAN calls follow the timing semantics of the binding's
//!   [`Action`]s — see the match in [`Simulator::exec_comm`];
//! * reductions are clock-joining collectives.
//!
//! In *full* mode the simulator additionally computes real numerics on
//! distributed blocks whose ghost cells start as NaN and are only ever
//! written by executed transfers (data snapshotted at SR time), so an
//! unsafe communication plan visibly corrupts the results.
//!
//! One documented approximation: a transfer's message to a reader is
//! attributed to a single *provider* processor (the owner of the first
//! ghost cell). Diagonal-offset exchanges whose ghost data spans two or
//! three owners are timed as one message — matching the paper's definition
//! of a communication as "a set of calls to perform a single data
//! transfer" — while the *data* is always gathered exactly from its true
//! owners.

// Dimension loops deliberately index several parallel arrays by `d`.
#![allow(clippy::needless_range_loop)]

use crate::darray::{Block, DistArray};
use crate::error::{SimError, StuckCall};
use crate::eval::{eval_run, BlockSource, BufPool, EvalCtx};
use crate::faults::{FaultPlan, FaultState};
use crate::ledger::{Cat, Ledger};
use crate::metrics::SimResult;
use crate::safety::SafetyViolation;
use crate::trace::{SpanKind, TraceHandle, TraceSink};
use commopt_ir::analysis::expr_flops;
use commopt_ir::{
    CallKind, Expr, LoopEnv, LoopVarId, Program, Rect, ReduceOp, Region, ScalarRhs, Stmt, Transfer,
    TransferId, MAX_RANK,
};
use commopt_ironman::{Action, Binding, Library};
use commopt_machine::{BlockDist, CommCosts, MachineSpec, ProcGrid, ProcId};

/// Simulation configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    pub machine: MachineSpec,
    pub library: Library,
    pub nprocs: usize,
    /// `true`: compute real numerics on distributed blocks (slower);
    /// `false`: timing and counts only.
    pub compute_data: bool,
    /// Optional trace sink: when set, the simulator hands it one sweep
    /// (a span on every processor) for every simulated statement, call
    /// and reduction. `None` (the default) records nothing and changes no
    /// behavior — traced and untraced runs produce identical
    /// [`SimResult`]s.
    pub trace: Option<TraceHandle>,
    /// Seeded fault-injection plan (see [`crate::faults`]). The default
    /// inert plan draws no random numbers and changes no behavior — a run
    /// with [`FaultPlan::none`] is identical to one without any plan.
    pub faults: FaultPlan,
    /// Overrides the library's Figure 5 binding — the hook the fault
    /// harness uses to execute deliberately broken bindings (e.g. SHMEM
    /// with its `Sync` stripped) against the safety checker. `None` uses
    /// [`Library::binding`].
    pub binding: Option<Binding>,
    /// `true`: collect deep metrics — per-IRONMAN-call latency histograms,
    /// message counters, and per-link traffic over the mesh — into
    /// [`SimResult::metrics`]. Like tracing, collection is observational:
    /// every other result field is identical with metrics on or off.
    pub metrics: bool,
}

impl SimConfig {
    /// Timing-only configuration.
    pub fn timing(machine: MachineSpec, library: Library, nprocs: usize) -> SimConfig {
        SimConfig {
            machine,
            library,
            nprocs,
            compute_data: false,
            trace: None,
            faults: FaultPlan::none(),
            binding: None,
            metrics: false,
        }
    }

    /// Full configuration, including distributed numerics.
    pub fn full(machine: MachineSpec, library: Library, nprocs: usize) -> SimConfig {
        SimConfig {
            machine,
            library,
            nprocs,
            compute_data: true,
            trace: None,
            faults: FaultPlan::none(),
            binding: None,
            metrics: false,
        }
    }

    /// Installs a trace sink (see [`crate::trace`]).
    pub fn with_trace(mut self, sink: impl TraceSink + 'static) -> SimConfig {
        self.trace = Some(TraceHandle::new(sink));
        self
    }

    /// Installs a seeded fault-injection plan (see [`crate::faults`]).
    pub fn with_faults(mut self, plan: FaultPlan) -> SimConfig {
        self.faults = plan;
        self
    }

    /// Overrides the library's binding table — for executing adversarial
    /// or deliberately broken bindings against the safety checker.
    pub fn with_binding(mut self, binding: Binding) -> SimConfig {
        self.binding = Some(binding);
        self
    }

    /// Enables deep metrics collection (see [`crate::metrics::RunMetrics`]).
    pub fn with_metrics(mut self) -> SimConfig {
        self.metrics = true;
        self
    }
}

/// Per-transfer in-flight state, refreshed at each SR execution.
#[derive(Clone, Debug, Default)]
struct InFlight {
    /// Per receiving proc: time its message becomes available (µs).
    arrival: Vec<f64>,
    /// Per receiving proc: message size.
    recv_bytes: Vec<u64>,
    /// Per sending proc: when its send buffer is reusable.
    buf_free: Vec<f64>,
    /// Per proc: whether it sent anything this instance.
    sent: Vec<bool>,
    /// Full mode: per receiving proc, the slabs to deposit at DN
    /// (array index, rect, row-major values) — snapshotted at SR.
    data: Vec<Vec<(usize, Rect, Vec<f64>)>>,
    /// `true` once this instance's messages have all been retired by a DN
    /// (or the instance never moved data). An SR that refills an
    /// unretired instance is a safety violation; a DN that finds only a
    /// retired instance with data pending is a deadlock.
    retired: bool,
}

impl InFlight {
    /// Reinitializes this instance for a fresh SR, reusing the previous
    /// instance's buffers. `data` is only sized in full mode — timing runs
    /// never read it.
    fn reset(&mut self, n: usize, recv_bytes: &[u64], active: bool, with_data: bool) {
        self.arrival.clear();
        self.arrival.resize(n, f64::NEG_INFINITY);
        self.recv_bytes.clear();
        self.recv_bytes.extend_from_slice(recv_bytes);
        self.buf_free.clear();
        self.buf_free.resize(n, 0.0);
        self.sent.clear();
        self.sent.resize(n, false);
        if with_data {
            self.data.clear();
            self.data.resize_with(n, Vec::new);
        }
        self.retired = !active;
    }
}

/// Geometry of one transfer instance under the current loop environment,
/// stored flat: each per-processor list is a CSR table (an `n + 1` offset
/// array into one entry array), and a rebuild refills the same buffers.
#[derive(Debug, Default, PartialEq)]
struct Geom {
    /// Per proc: total bytes received.
    bytes: Vec<u64>,
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
    active: bool,
}

impl Geom {
    /// The messages processor `p` sends, as (reader, size).
    fn sends(&self, p: ProcId) -> &[(ProcId, u64)] {
        &self.outgoing[self.out_start[p]..self.out_start[p + 1]]
    }

    /// The ghost slabs processor `p` receives, as (array index, rect).
    fn receives(&self, p: ProcId) -> &[(usize, Rect)] {
        &self.slabs[self.slab_start[p]..self.slab_start[p + 1]]
    }

    /// `true` when processor `p` sends or receives data this instance.
    fn exchanges(&self, p: ProcId) -> bool {
        self.bytes[p] > 0 || self.out_start[p] < self.out_start[p + 1]
    }

    /// The geometry without its slabs: the fields timing runs read.
    #[cfg(test)]
    fn timing(&self) -> Geom {
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
struct Layout {
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
    fn new(grid: ProcGrid, program: &Program) -> Layout {
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
    fn owned(&self, a: usize, p: ProcId) -> Rect {
        self.owned[a * self.grid.len() + p]
    }

    /// The first index of each of array `a`'s blocks along dimension `d`,
    /// then one past its bounds. Dimension 0 has a block per processor
    /// row and dimension 1 (of a rank ≥ 2 array) one per column; the rest
    /// are one block.
    fn block_starts(&self, a: usize, d: usize) -> Vec<i64> {
        let [rows, cols] = self.grid.dims;
        let bounds = self.dists[a].bounds;
        let mut starts: Vec<i64> = match d {
            0 => (0..rows).map(|r| self.owned(a, r * cols).lo[0]).collect(),
            1 if bounds.rank > 1 => (0..cols).map(|c| self.owned(a, c).lo[1]).collect(),
            _ => vec![bounds.lo[d]],
        };
        starts.push(bounds.hi[d] + 1);
        starts
    }

    /// Processor `p`'s block of array `a`'s partition or, with `None`, of
    /// `rect`'s own.
    fn part(&self, a: Option<usize>, rect: &Rect, p: ProcId) -> Rect {
        match a {
            Some(a) => self.owned(a, p),
            None => BlockDist::new(self.grid, *rect).owned(p),
        }
    }

    /// Refills `dt` with every processor's cost for a statement over `rect`
    /// of `flops` per element, split as [`part`](Layout::part) splits it:
    /// the guard cost where its share is empty, else the statement
    /// overhead plus its share's flops. One rect intersection per
    /// processor; DESIGN.md ("Compute charges") says why not a
    /// row × column factorization.
    fn stmt_costs(
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
    fn build(&mut self, geom: &mut Geom, t: &Transfer, env: &LoopEnv) {
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

/// One transfer's geometry cache: a single slot, refilled in place. A
/// loop-invariant transfer (its item regions read no loop variable) is
/// built once per run. A loop-variant one is checked when one of its
/// variables changes, so the DR, SR and DN of one instance share a build,
/// and rebuilt when its key changes: in full mode and for transfers
/// without a [`ShapeKey`], the variables' values; in timing mode, where
/// eligible, the shape class.
struct GeomSlot {
    /// The loop variables the transfer's item regions mention.
    vars: Vec<LoopVarId>,
    /// Their values at the last check.
    key: Vec<i64>,
    /// The shape class at the last check, in timing mode where eligible.
    shape: Option<ShapeKey>,
    /// `false` until the first build.
    built: bool,
    /// The geometry; `None` while a caller holds it.
    geom: Option<Geom>,
    /// Builds and calls so far, for the tests that pin the cache.
    #[cfg(test)]
    builds: u64,
    #[cfg(test)]
    takes: u64,
}

impl GeomSlot {
    /// An unbuilt slot for `t` on `layout`'s processors, keyed on shape
    /// classes when `timing` and `t` is eligible. Its buffers are sized
    /// here, at construction, so that builds during the run refill them
    /// rather than placing long-lived allocations among the run's
    /// short-lived ones on the heap.
    fn new(t: &Transfer, layout: &Layout, timing: bool) -> GeomSlot {
        let n = layout.grid.len();
        let mut vars = Vec::new();
        for region in t.items.iter().flat_map(|it| &it.regions) {
            for v in region.loop_vars() {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
        }
        let shape = (timing && !vars.is_empty())
            .then(|| ShapeKey::new(t, layout))
            .flatten();
        GeomSlot {
            key: vec![0; vars.len()],
            vars,
            shape,
            built: false,
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

    /// Brings the keys up to `env` and reports whether the geometry must
    /// be rebuilt: it never was, or a variable moved and, where the slot
    /// has a shape key, the shape class moved with it.
    fn stale(&mut self, env: &LoopEnv) -> bool {
        let mut moved = !self.built;
        for (&v, k) in self.vars.iter().zip(&mut self.key) {
            let x = env.get(v);
            moved |= *k != x;
            *k = x;
        }
        match &mut self.shape {
            Some(shape) if moved => shape.reclassify(env) || !self.built,
            _ => moved,
        }
    }
}

/// A loop-variant transfer's timing-mode key (DESIGN.md, "Transfer
/// geometry"). Timing runs read only a geometry's `bytes`, messages and
/// `active` flag. Those stay the same while every moving region bound
/// stays deep inside one block of its array's partition, far enough from
/// the block's ends that no region, shifted by the offset, reaches past
/// them. Only the slabs move, and only the full-mode snapshot reads them.
///
/// A transfer is eligible when, in each dimension, either every item
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
/// and the two geometries differ only by a translation of their slabs.
struct ShapeKey {
    bounds: Vec<MovingBound>,
    /// Per bound, at the last check: its class (see [`MovingBound::class`]).
    key: Vec<[i64; 3]>,
}

/// One moving region bound `var + c` of a transfer, classified against
/// one dimension of its array's partition.
#[derive(PartialEq)]
struct MovingBound {
    var: LoopVarId,
    c: i64,
    /// The cap on the class's distances, shared by the dimension.
    cap: i64,
    /// The first index of each block, then one past the bounds.
    starts: Vec<i64>,
}

impl MovingBound {
    /// The bound's class under `env`: the number of block starts at or
    /// below it (0 below the bounds, `starts.len()` above them), then its
    /// distances to the low and high end of that block, capped at `cap`.
    /// The space outside the bounds is a block with one end at infinity.
    fn class(&self, env: &LoopEnv) -> [i64; 3] {
        let x = env.get(self.var) + self.c;
        let s = &self.starts;
        let i = s.partition_point(|&e| e <= x);
        let from_lo = i
            .checked_sub(1)
            .map_or(self.cap, |j| (x - s[j]).min(self.cap));
        let to_hi = s.get(i).map_or(self.cap, |&e| (e - 1 - x).min(self.cap));
        [i as i64, from_lo, to_hi]
    }
}

impl ShapeKey {
    /// `t`'s shape key on `layout`, or `None` when `t` is not eligible.
    fn new(t: &Transfer, layout: &Layout) -> Option<ShapeKey> {
        let mut bounds: Vec<MovingBound> = Vec::new();
        for d in 0..MAX_RANK {
            let ranges = || {
                t.items.iter().flat_map(move |it| {
                    let a = it.array.index();
                    it.regions
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
            let shift = t.items.iter().map(|it| it.offset.get(d).unsigned_abs());
            let cap = i64::from(shift.max().unwrap_or(0)).max(width.max(0) / 2);
            for (a, r) in ranges() {
                for c in [r.lo.c, r.hi.c] {
                    let bound = MovingBound {
                        var,
                        c,
                        cap,
                        starts: layout.block_starts(a, d),
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

/// One processor's immutable view of every array, for the evaluator.
struct ProcView<'a> {
    arrays: &'a [DistArray],
    p: ProcId,
}

impl BlockSource for ProcView<'_> {
    fn block(&self, array_idx: usize) -> &Block {
        self.arrays[array_idx].block(self.p)
    }
}

/// The executor. Construct with [`Simulator::new`], consume with
/// [`Simulator::run`].
pub struct Simulator<'p> {
    program: &'p Program,
    cfg: SimConfig,
    grid: ProcGrid,
    binding: Binding,
    costs: CommCosts,
    /// The clocks and every account of them (see [`crate::ledger`]).
    ledger: Ledger,
    scalars: Vec<f64>,
    env: LoopEnv,
    layout: Layout,
    /// Per transfer (indexed by `TransferId::index()`): its cached
    /// geometry (see [`GeomSlot`]).
    geoms: Vec<GeomSlot>,
    /// Per proc: the compute cost of the statement being charged.
    stmt_dt: Vec<f64>,
    arrays: Vec<DistArray>,
    /// Per transfer (indexed by `TransferId::index()` — the id space is
    /// exactly `program.transfers.len()`): the live in-flight instance,
    /// `None` before the first SR. A dense slab rather than a map, so the
    /// hot-path lookups are direct indexing and iteration order (which the
    /// fault layer's reorder swaps scan) is transfer-id order by
    /// construction.
    inflight: Vec<Option<InFlight>>,
    /// Per transfer × proc (row-major, `transfers.len() × nprocs`): each
    /// proc's clock at the transfer's most recent DR. Zero before the
    /// first DR — exactly the missing-entry default of the map this
    /// replaced — and fixed-size for the whole run, so retired transfers
    /// retain no per-instance state however long the program runs.
    dr_time: Vec<f64>,
    pool: BufPool,
    /// Fault-injection state; `Some` only when the plan is active, so the
    /// inert plan draws no random numbers and perturbs nothing.
    faults: Option<FaultState>,
    /// Per transfer (indexed by `TransferId::index()`): whether the
    /// receiver side has posted readiness for the next one-way put.
    /// Consumed by each put instance (see [`crate::safety`]).
    ready: Vec<bool>,
    /// Safety violations observed so far; reported at end of run.
    violations: Vec<SafetyViolation>,
}

impl<'p> Simulator<'p> {
    pub fn new(program: &'p Program, cfg: SimConfig) -> Simulator<'p> {
        let grid = ProcGrid::square(cfg.nprocs);
        let binding = cfg.binding.unwrap_or_else(|| cfg.library.binding());
        let costs = *cfg.machine.costs(cfg.library);
        let ghosts = program.ghost_widths();
        let arrays = if cfg.compute_data {
            program
                .arrays
                .iter()
                .zip(&ghosts)
                .map(|(a, &g)| DistArray::new(grid, a.rect, i64::from(g.max(1))))
                .collect()
        } else {
            Vec::new()
        };
        let scalars = program.scalars.iter().map(|s| s.init).collect();
        let n = grid.len();
        let faults = cfg
            .faults
            .is_active()
            .then(|| FaultState::new(cfg.faults, n));
        let layout = Layout::new(grid, program);
        let geoms = program
            .transfers
            .iter()
            .map(|t| GeomSlot::new(t, &layout, !cfg.compute_data))
            .collect();
        let mut sim = Simulator {
            program,
            grid,
            binding,
            costs,
            ledger: Ledger::new(grid, program.transfers.len(), &cfg),
            scalars,
            env: LoopEnv::new(),
            layout,
            geoms,
            stmt_dt: Vec::with_capacity(n),
            arrays,
            inflight: std::iter::repeat_with(|| None)
                .take(program.transfers.len())
                .collect(),
            dr_time: vec![0.0; program.transfers.len() * n],
            pool: BufPool::default(),
            faults,
            ready: vec![false; program.transfers.len()],
            violations: Vec::new(),
            cfg,
        };
        // Loop-invariant geometry is built here, once.
        for i in 0..program.transfers.len() {
            if sim.geoms[i].vars.is_empty() {
                let tid = TransferId(i as u32);
                let geom = sim.take_geometry(tid);
                sim.put_geometry(tid, geom);
            }
        }
        sim
    }

    /// Runs the program to completion and reports the results.
    ///
    /// Panics with the rendered [`SimError`] on a malformed plan — the
    /// convenience wrapper for callers that only execute verified
    /// programs. Use [`try_run`](Simulator::try_run) to handle errors.
    pub fn run(self) -> SimResult {
        self.try_run()
            .unwrap_or_else(|e| panic!("simulation failed: {e}"))
    }

    /// Runs the program to completion, reporting deadlocks, safety
    /// violations, and evaluation failures as typed errors instead of
    /// panicking or hanging.
    pub fn try_run(mut self) -> Result<SimResult, SimError> {
        let body = &self.program.body;
        self.exec_block(body)?;
        // End-of-run safety scan: every message put in flight must have
        // been retired by a DN before the program ends.
        for (i, slot) in self.inflight.iter().enumerate() {
            let Some(fl) = slot else { continue };
            if fl.retired {
                continue;
            }
            for (p, &b) in fl.recv_bytes.iter().enumerate() {
                if b > 0 {
                    self.violations.push(SafetyViolation::UnretiredRecv {
                        transfer: TransferId(i as u32),
                        receiver: p,
                    });
                }
            }
        }
        if !self.violations.is_empty() {
            return Err(SimError::Safety(std::mem::take(&mut self.violations)));
        }
        let mut result = self.ledger.finish();
        for (i, s) in self.program.scalars.iter().enumerate() {
            result.scalars.insert(s.name.clone(), self.scalars[i]);
        }
        if self.cfg.compute_data {
            for (i, a) in self.program.arrays.iter().enumerate() {
                result
                    .arrays
                    .insert(a.name.clone(), self.arrays[i].gather().1);
            }
        }
        result.faults = self.faults.as_ref().map(|f| f.stats).unwrap_or_default();
        Ok(result)
    }

    fn exec_block(&mut self, block: &commopt_ir::Block) -> Result<(), SimError> {
        for stmt in block.iter() {
            match stmt {
                Stmt::Assign { region, lhs, rhs } => self.exec_assign(*region, lhs.index(), rhs),
                Stmt::ScalarAssign { lhs, rhs } => self.exec_scalar(lhs.index(), rhs)?,
                Stmt::Repeat { count, body } => {
                    for _ in 0..*count {
                        self.exec_block(body)?;
                    }
                }
                Stmt::For {
                    var,
                    lo,
                    hi,
                    step,
                    body,
                } => {
                    let lo = lo.eval(&self.env);
                    let hi = hi.eval(&self.env);
                    let mut i = lo;
                    self.env.push(*var, i);
                    loop {
                        if (*step > 0 && i > hi) || (*step < 0 && i < hi) {
                            break;
                        }
                        self.env.set(*var, i);
                        self.exec_block(body)?;
                        i += step;
                    }
                    self.env.pop();
                }
                Stmt::Comm { kind, transfer } => self.exec_comm(*kind, *transfer)?,
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Computation
    // ------------------------------------------------------------------

    fn exec_assign(&mut self, region: Region, lhs: usize, rhs: &Expr) {
        let rect = region.eval(&self.env);
        let span = SpanKind::Compute { array: lhs as u32 };
        self.charge_stmt(&rect, Some(lhs), expr_flops(rhs), Some(span));
        if self.cfg.compute_data {
            self.compute_assign_data(rect, lhs, rhs);
        }
    }

    /// Charges every processor its share of a statement over `rect` split
    /// as array `a` is (see [`Layout::stmt_costs`]).
    fn charge_stmt(&mut self, rect: &Rect, a: Option<usize>, flops: u32, span: Option<SpanKind>) {
        self.layout.stmt_costs(
            rect,
            a,
            f64::from(flops),
            &self.cfg.machine,
            &mut self.stmt_dt,
        );
        self.charge_compute(span);
    }

    /// Charges every processor `p` its computation `stmt_dt[p]`, scaled by
    /// the fault plan in processor order when one is active (no draws, no
    /// float ops otherwise).
    fn charge_compute(&mut self, span: Option<SpanKind>) {
        if let Some(f) = &mut self.faults {
            for (p, dt) in self.stmt_dt.iter_mut().enumerate() {
                *dt *= f.compute_scale(p);
            }
        }
        self.ledger.compute_all(&self.stmt_dt, span);
    }

    /// Evaluates and commits an array assignment's numerics for every
    /// processor (evaluate-all-then-commit preserves ZPL's read-before-
    /// write statement semantics, including self-shifts like `A := A@e`).
    fn compute_assign_data(&mut self, rect: Rect, lhs: usize, rhs: &Expr) {
        // Fast path: a bare reference RHS is a run-by-run block copy — no
        // scratch buffers, no per-element evaluation. A zero-offset copy
        // from the assigned array itself is the identity; a *shifted*
        // self-copy keeps the buffered path below, which is what preserves
        // read-before-write.
        if let Expr::Ref { array, offset } = rhs {
            let src = array.index();
            if src != lhs {
                self.copy_assign_data(rect, lhs, src, offset);
                return;
            }
            if offset.is_zero() {
                return;
            }
        }
        let rank = self.program.arrays[lhs].rect.rank;
        let d_last = rank - 1;
        for p in 0..self.grid.len() {
            let local = rect.intersect(&self.layout.owned(lhs, p));
            if local.is_empty() {
                continue;
            }
            let mut outs: Vec<([i64; MAX_RANK], Vec<f64>)> = Vec::new();
            {
                let view = ProcView {
                    arrays: &self.arrays,
                    p,
                };
                let ctx = EvalCtx {
                    src: &view,
                    scalars: &self.scalars,
                    env: &self.env,
                };
                for_each_run(&local, |base, len| {
                    let mut buf = self.pool.get(len);
                    eval_run(&ctx, rhs, base, d_last, &mut buf, &mut self.pool);
                    outs.push((base, buf));
                });
            }
            let block = self.arrays[lhs].block_mut(p);
            for (base, buf) in outs {
                block.run_mut(base, buf.len()).copy_from_slice(&buf);
                self.pool.put(buf);
            }
        }
    }

    /// `A := B@off` (distinct arrays): memcpy each contiguous run straight
    /// from the source block — the same reads and writes as the buffered
    /// path, minus the intermediates.
    fn copy_assign_data(
        &mut self,
        rect: Rect,
        lhs: usize,
        src: usize,
        offset: &commopt_ir::Offset,
    ) {
        for p in 0..self.grid.len() {
            let local = rect.intersect(&self.layout.owned(lhs, p));
            if local.is_empty() {
                continue;
            }
            let (lo, hi) = self.arrays.split_at_mut(lhs.max(src));
            let (dst, sa) = if lhs < src {
                (&mut lo[lhs], &hi[0])
            } else {
                (&mut hi[0], &lo[src])
            };
            let (dst_block, src_block) = (dst.block_mut(p), sa.block(p));
            for_each_run(&local, |base, len| {
                let mut b = base;
                for d in 0..MAX_RANK {
                    b[d] += offset.get(d) as i64;
                }
                dst_block
                    .run_mut(base, len)
                    .copy_from_slice(src_block.run(b, len));
            });
        }
    }

    fn exec_scalar(&mut self, lhs: usize, rhs: &ScalarRhs) -> Result<(), SimError> {
        match rhs {
            ScalarRhs::Expr(e) => {
                let dt = f64::from(expr_flops(e)) * self.cfg.machine.flop_us
                    + self.cfg.machine.guard_overhead_us;
                self.stmt_dt.clear();
                self.stmt_dt.resize(self.grid.len(), dt);
                self.charge_compute(Some(SpanKind::Scalar { scalar: lhs as u32 }));
                self.scalars[lhs] = eval_scalar(e, &self.scalars, &self.env)?;
            }
            ScalarRhs::Reduce { op, region, expr } => {
                let rect = region.eval(&self.env);
                // Any array's distribution gives the owned partition; use
                // the first referenced array, falling back to a uniform
                // split of the region itself.
                let first = first_array(expr);
                // The local fold's cost (untraced), then, in full mode,
                // its value.
                self.charge_stmt(&rect, first, expr_flops(expr), None);
                let acc = if self.cfg.compute_data {
                    self.reduce_data(rect, first, *op, expr)
                } else {
                    op.identity()
                };
                // The combine tree is a barrier: all clocks join.
                let combine = self.cfg.machine.reduce_us(self.grid.len());
                self.ledger.reduce(combine, lhs as u32);
                self.scalars[lhs] = acc;
            }
        }
        Ok(())
    }

    /// Full mode: folds every processor's share of `rect` (split as array
    /// `a` is) of `expr` with `op`, in processor order.
    fn reduce_data(&mut self, rect: Rect, a: Option<usize>, op: ReduceOp, expr: &Expr) -> f64 {
        let mut acc = op.identity();
        for p in 0..self.grid.len() {
            let local = rect.intersect(&self.layout.part(a, &rect, p));
            if local.is_empty() {
                continue;
            }
            let view = ProcView {
                arrays: &self.arrays,
                p,
            };
            let ctx = EvalCtx {
                src: &view,
                scalars: &self.scalars,
                env: &self.env,
            };
            for_each_run(&local, |base, len| {
                let mut buf = self.pool.get(len);
                eval_run(&ctx, expr, base, rect.rank - 1, &mut buf, &mut self.pool);
                for v in &buf {
                    acc = op.fold(acc, *v);
                }
                self.pool.put(buf);
            });
        }
        acc
    }

    // ------------------------------------------------------------------
    // Communication
    // ------------------------------------------------------------------

    fn exec_comm(&mut self, kind: CallKind, tid: TransferId) -> Result<(), SimError> {
        self.ledger.begin_call(kind, tid);
        let n = self.grid.len();
        let guard = self.cfg.machine.guard_overhead_us;
        for p in 0..n {
            self.ledger.charge(p, Cat::Overhead, guard);
        }
        match self.binding.action(kind) {
            Action::Noop => {}
            Action::BlockingSend | Action::AsyncSend => self.do_send(tid, false),
            Action::Put => self.do_send(tid, true),
            Action::PostRecv | Action::Probe => self.do_post(tid),
            Action::Sync => {
                // The synch call itself costs CPU on every processor,
                // data or not (the prototype syncs before its guard).
                for p in 0..n {
                    self.ledger.charge(p, Cat::Sync, self.costs.sync_call_us);
                }
                match kind {
                    CallKind::DR => self.do_sync_dr(tid),
                    _ => self.do_sync_dn(tid, kind)?,
                }
            }
            Action::BlockingRecv => self.do_recv(tid, RecvKind::Blocking, kind)?,
            Action::WaitRecv => self.do_recv(tid, RecvKind::Wait, kind)?,
            Action::WaitSend => self.do_wait_send(tid),
        }
        self.ledger.end_call(kind, tid);
        Ok(())
    }

    /// Takes transfer `tid`'s geometry under the current environment out
    /// of its slot, rebuilding it in place only when a loop variable its
    /// regions read has changed since the last build. Hand it back with
    /// [`put_geometry`](Simulator::put_geometry); a slot left empty is
    /// simply rebuilt on its next use.
    fn take_geometry(&mut self, tid: TransferId) -> Geom {
        let env = &self.env;
        let t = self.program.transfer(tid);
        let slot = &mut self.geoms[tid.index()];
        let stale = slot.stale(env);
        let geom = match slot.geom.take() {
            Some(geom) if !stale => geom,
            old => {
                let mut geom = old.unwrap_or_default();
                slot.built = true;
                self.layout.build(&mut geom, t, env);
                #[cfg(test)]
                {
                    slot.builds += 1;
                }
                geom
            }
        };
        // Unit tests hold every call's geometry to a fresh build: all of
        // it in full mode, the fields timing runs read in timing mode.
        #[cfg(test)]
        {
            slot.takes += 1;
            let mut rebuilt = Geom::default();
            self.layout.build(&mut rebuilt, t, env);
            if self.cfg.compute_data {
                assert_eq!(rebuilt, geom, "t{}: cached geometry is stale", tid.0);
            } else {
                assert_eq!(rebuilt.timing(), geom.timing(), "t{}: stale timing", tid.0);
            }
        }
        geom
    }

    /// Returns a geometry taken by [`take_geometry`](Simulator::take_geometry)
    /// to its slot.
    fn put_geometry(&mut self, tid: TransferId, geom: Geom) {
        self.geoms[tid.index()].geom = Some(geom);
    }

    /// SR under `csend`/`pvm_send` (blocking, buffered), `isend`/`hsend`
    /// (asynchronous: initiation only, injection by the co-processor), or
    /// `shmem_put` when `put` (a one-way remote store, gated on the reader
    /// having announced readiness at its DR-side `synch`).
    fn do_send(&mut self, tid: TransferId, put: bool) {
        let geom = self.take_geometry(tid);
        self.check_overwrite(tid);
        let n = self.grid.len();
        // One-way safety: a put is only legal once the receiver announced
        // readiness for *this* instance. Readiness is consumed here, so a
        // stale `synch` from a previous iteration does not excuse a later
        // put (see `crate::safety`).
        let was_ready =
            !put || !geom.active || std::mem::replace(&mut self.ready[tid.index()], false);
        // Reuse the previous instance's buffers; the steady-state loop
        // allocates nothing per SR.
        let mut fl = self.inflight[tid.index()].take().unwrap_or_default();
        fl.reset(n, &geom.bytes, geom.active, self.cfg.compute_data);
        for p in 0..n {
            for &(reader, b) in geom.sends(p) {
                if !was_ready {
                    self.violations.push(SafetyViolation::PutBeforeReady {
                        transfer: tid,
                        sender: p,
                        receiver: reader,
                        at_us: self.ledger.clock(p),
                    });
                }
                if put {
                    // The reader's DR clock, straight from the slab (zero
                    // when no DR has run yet).
                    let dr = self.dr_time[tid.index() * n + reader];
                    self.ledger.wait_until(p, dr);
                }
                // Asynchronous or not, injection consumes CPU — the
                // Paragon's co-processor did not relieve the host (paper
                // §3.2: async primitives do not reduce exposed overhead).
                self.ledger.charge(p, Cat::Send, self.costs.send_cpu_us(b));
                self.ledger.message(p, reader, b);
                fl.arrival[reader] = self.ledger.clock(p) + self.wire_time(b);
                fl.buf_free[p] = self.ledger.clock(p);
                fl.sent[p] = true;
            }
        }
        self.reorder(tid, &mut fl);
        if self.cfg.compute_data {
            self.snapshot(&geom, &mut fl);
        }
        self.inflight[tid.index()] = Some(fl);
        self.put_geometry(tid, geom);
    }

    /// Full mode: capture, per reader, the slab values as of SR time —
    /// gathered exactly from their owning blocks.
    fn snapshot(&mut self, geom: &Geom, fl: &mut InFlight) {
        for p in 0..self.grid.len() {
            for (a, rect) in geom.receives(p) {
                let mut vals = Vec::with_capacity(rect.count() as usize);
                rect.for_each(|idx| vals.push(self.arrays[*a].global_get(idx)));
                fl.data[p].push((*a, *rect, vals));
            }
        }
    }

    /// DR under `irecv`/`hprobe`: post the buffer, remember nothing else.
    fn do_post(&mut self, tid: TransferId) {
        let geom = self.take_geometry(tid);
        let n = self.grid.len();
        for p in 0..n {
            if geom.bytes[p] > 0 {
                self.ledger.charge(p, Cat::Recv, self.costs.post_recv_us);
                self.ledger.moved(p, geom.bytes[p]);
            }
            self.dr_time[tid.index() * n + p] = self.ledger.clock(p);
        }
        self.ready[tid.index()] = true;
        self.put_geometry(tid, geom);
    }

    /// DR under SHMEM `synch`: the heavyweight rendezvous of the prototype
    /// binding. When the transfer instance moves data anywhere on the mesh,
    /// every processor with a structural partner joins clocks with its
    /// partners and pays the synchronization cost — the bidirectional
    /// coupling that hurts wavefront-serialized codes (TOMCATV, SP). When
    /// the instance is globally empty, the runtime guard short-circuits
    /// the call (guard cost only).
    fn do_sync_dr(&mut self, tid: TransferId) {
        let geom = self.take_geometry(tid);
        let n = self.grid.len();
        let row = tid.index() * n;
        self.ready[tid.index()] = true;
        if !geom.active {
            // Record the per-proc DR clocks in place — no clock-vector
            // clone, the slab row is preallocated.
            self.dr_time[row..row + n].copy_from_slice(self.ledger.clocks());
            self.put_geometry(tid, geom);
            return;
        }
        // The prototype's `synch` behaves like a barrier among all
        // processors of the mesh: every active instance joins the clocks.
        // Balanced stencil codes barely notice (their clocks agree);
        // wavefront-serialized sweeps (TOMCATV, SP) are forced to a
        // mesh-wide rendezvous at every data-moving row.
        let max = self.ledger.max_clock();
        for p in 0..n {
            if geom.exchanges(p) {
                self.ledger.wait_until(p, max);
                self.ledger.charge(p, Cat::Sync, self.costs.sync_us);
                self.ledger.moved(p, geom.bytes[p]);
            }
            self.dr_time[row + p] = self.ledger.clock(p);
        }
        self.put_geometry(tid, geom);
    }

    fn do_recv(&mut self, tid: TransferId, kind: RecvKind, call: CallKind) -> Result<(), SimError> {
        let live = self.inflight[tid.index()].as_ref().filter(|fl| !fl.retired);
        let Some(fl) = live else {
            // DN with no live message in flight: harmless when this
            // instance moves no data, a deadlock otherwise — a blocking
            // receive for a message nobody will ever send.
            return self.require_no_pending(tid, call);
        };
        let n = self.grid.len();
        for p in 0..n {
            let b = fl.recv_bytes[p];
            if b == 0 {
                continue;
            }
            let waited = self.ledger.wait_until(p, fl.arrival[p]);
            self.ledger.receive(tid, p, b, waited);
            match kind {
                RecvKind::Blocking => {
                    self.ledger.charge(p, Cat::Recv, self.costs.recv_cpu_us(b));
                }
                // A posted receive still copies out of the system buffer
                // on retirement; the wait call and the copy are one cost.
                RecvKind::Wait => self.ledger.charge_split(
                    p,
                    (Cat::Overhead, self.costs.wait_us),
                    (Cat::Recv, b as f64 * self.costs.recv_per_byte_us),
                ),
            }
        }
        self.retire(tid);
        self.deliver(tid)
    }

    /// DN under SHMEM `synch`: completion of any incoming put, plus the
    /// synchronization call whenever the instance is active and the
    /// processor has a structural partner.
    fn do_sync_dn(&mut self, tid: TransferId, call: CallKind) -> Result<(), SimError> {
        let geom = self.take_geometry(tid);
        if !geom.active {
            self.put_geometry(tid, geom);
            self.retire(tid);
            return self.deliver(tid);
        }
        let live = self.inflight[tid.index()].as_ref().filter(|fl| !fl.retired);
        let Some(fl) = live else {
            // An active instance with no live put in flight: the DN-side
            // `synch` would rendezvous with a partner that never arrives.
            self.put_geometry(tid, geom);
            return self.require_no_pending(tid, call);
        };
        for p in 0..self.grid.len() {
            // Only the receiving side has anything to wait for at DN.
            let b = fl.recv_bytes[p];
            if b > 0 {
                let waited = self.ledger.wait_until(p, fl.arrival[p]);
                self.ledger.receive(tid, p, b, waited);
            }
            if geom.bytes[p] > 0 {
                self.ledger.charge(p, Cat::Sync, self.costs.sync_us);
            }
        }
        self.put_geometry(tid, geom);
        self.retire(tid);
        self.deliver(tid)
    }

    /// Marks the transfer's current in-flight instance retired (all of
    /// its messages consumed by a DN).
    fn retire(&mut self, tid: TransferId) {
        if let Some(fl) = &mut self.inflight[tid.index()] {
            fl.retired = true;
        }
    }

    /// Full mode: write the snapshotted slabs into each reader's ghosts.
    fn deliver(&mut self, tid: TransferId) -> Result<(), SimError> {
        if !self.cfg.compute_data {
            return Ok(());
        }
        let Some(fl) = &mut self.inflight[tid.index()] else {
            return Ok(());
        };
        let deliveries = std::mem::take(&mut fl.data);
        let mut short = false;
        for (p, slabs) in deliveries.into_iter().enumerate() {
            for (a, rect, vals) in slabs {
                let block = self.arrays[a].block_mut(p);
                let mut it = vals.into_iter();
                rect.for_each(|idx| match it.next() {
                    Some(v) => block.set(idx, v),
                    None => short = true,
                });
            }
        }
        if short {
            return Err(SimError::Eval(format!(
                "transfer t{} snapshot shorter than its rect",
                tid.0
            )));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Fault hooks & safety checks
    // ------------------------------------------------------------------

    /// Wire time of one `bytes`-byte message: the calibrated Figure 3
    /// cost, jittered and possibly dropped-and-retried under the fault
    /// plan when one is active.
    fn wire_time(&mut self, bytes: u64) -> f64 {
        match &mut self.faults {
            Some(f) => f.wire_us(&self.costs, bytes),
            None => self.costs.wire_us(bytes),
        }
    }

    /// Fault hook: with the plan's reorder probability per receiver, swap
    /// this message's arrival time with another live in-flight message to
    /// the same receiver — overtaking between independent transfers.
    /// Deterministic given the seed: the candidate scan follows slab index
    /// order, which is transfer-id order by construction.
    fn reorder(&mut self, tid: TransferId, fl: &mut InFlight) {
        let Some(f) = &mut self.faults else { return };
        for p in 0..fl.recv_bytes.len() {
            if fl.recv_bytes[p] == 0 || !fl.arrival[p].is_finite() || !f.roll_reorder() {
                continue;
            }
            let other = self
                .inflight
                .iter_mut()
                .enumerate()
                .filter(|&(i, _)| i != tid.index())
                .find_map(|(_, slot)| {
                    slot.as_mut()
                        .filter(|o| !o.retired && o.recv_bytes[p] > 0 && o.arrival[p].is_finite())
                });
            if let Some(o) = other {
                std::mem::swap(&mut fl.arrival[p], &mut o.arrival[p]);
                f.note_reordered();
            }
        }
    }

    /// SR-side overwrite check: every message of the transfer's previous
    /// instance must have been retired by a DN before this SR refills the
    /// receive buffers.
    fn check_overwrite(&mut self, tid: TransferId) {
        let at_us = self.ledger.counting_clock();
        let Some(prev) = &self.inflight[tid.index()] else {
            return;
        };
        if prev.retired {
            return;
        }
        for (receiver, &b) in prev.recv_bytes.iter().enumerate() {
            if b > 0 {
                self.violations.push(SafetyViolation::RecvOverwrite {
                    transfer: tid,
                    receiver,
                    at_us,
                });
            }
        }
    }

    /// A DN executed with no live message in flight: legal only when the
    /// transfer instance is structurally empty under the current
    /// environment. Otherwise the processors expecting data are stuck
    /// forever — reported as a typed deadlock naming each of them.
    fn require_no_pending(&mut self, tid: TransferId, call: CallKind) -> Result<(), SimError> {
        let geom = self.take_geometry(tid);
        let stuck: Vec<StuckCall> = (0..self.grid.len())
            .filter(|&p| geom.bytes[p] > 0)
            .map(|p| StuckCall {
                proc: p,
                call,
                transfer: tid,
                at_us: self.ledger.clock(p),
            })
            .collect();
        self.put_geometry(tid, geom);
        if stuck.is_empty() {
            Ok(())
        } else {
            Err(SimError::Deadlock { stuck })
        }
    }

    /// SV under `msgwait`: block until the outgoing buffer drained.
    fn do_wait_send(&mut self, tid: TransferId) {
        let Some(fl) = &self.inflight[tid.index()] else {
            return;
        };
        for p in 0..self.grid.len() {
            if fl.sent[p] {
                self.ledger.wait_until(p, fl.buf_free[p]);
                self.ledger.charge(p, Cat::Overhead, self.costs.wait_us);
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum RecvKind {
    Blocking,
    Wait,
}

/// Visits each contiguous run (fixed leading coordinates, full extent of
/// the last real dimension) of `rect`.
fn for_each_run(rect: &Rect, mut f: impl FnMut([i64; MAX_RANK], usize)) {
    if rect.is_empty() {
        return;
    }
    let d_last = rect.rank - 1;
    let len = rect.extent(d_last) as usize;
    match rect.rank {
        1 => f(rect.lo, len),
        2 => {
            for i0 in rect.lo[0]..=rect.hi[0] {
                f([i0, rect.lo[1], rect.lo[2]], len);
            }
        }
        _ => {
            for i0 in rect.lo[0]..=rect.hi[0] {
                for i1 in rect.lo[1]..=rect.hi[1] {
                    f([i0, i1, rect.lo[2]], len);
                }
            }
        }
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

/// Evaluates a pure scalar expression (no array references).
fn eval_scalar(e: &Expr, scalars: &[f64], env: &LoopEnv) -> Result<f64, SimError> {
    Ok(match e {
        Expr::Const(c) => *c,
        Expr::Scalar(s) => scalars[s.index()],
        Expr::LoopVar(v) => env.get(*v) as f64,
        Expr::Index(_) => {
            return Err(SimError::Eval(
                "Index pseudo-array in scalar expression".into(),
            ))
        }
        Expr::Ref { .. } => {
            return Err(SimError::Eval(
                "array reference in scalar expression".into(),
            ))
        }
        Expr::Unary { op, a } => op.apply(eval_scalar(a, scalars, env)?),
        Expr::Binary { op, a, b } => {
            op.apply(eval_scalar(a, scalars, env)?, eval_scalar(b, scalars, env)?)
        }
    })
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
    use commopt_core::{optimize, OptConfig};
    use commopt_ir::offset::compass;
    use commopt_ir::{ProgramBuilder, Region};

    /// A Jacobi-like program with genuine optimization opportunities:
    /// a redundant `A@east` (two statements), a combinable `C@east`, and a
    /// pipelinable `New@east` (written early, used late).
    fn jacobi(n: i64, iters: u64) -> Program {
        let mut b = ProgramBuilder::new("jacobi");
        let bounds = Rect::d2((1, n), (1, n));
        let all = Region::from_rect(bounds);
        let interior = Region::d2((2, n - 1), (2, n - 1));
        let a = b.array("A", bounds);
        let new = b.array("New", bounds);
        let c = b.array("C", bounds);
        let d = b.array("D", bounds);
        let err = b.scalar("err", 0.0);
        b.assign(all, a, Expr::Index(0) * Expr::Const(10.0) + Expr::Index(1));
        b.repeat(iters, |b| {
            b.assign(
                interior,
                new,
                (Expr::at(a, compass::NORTH)
                    + Expr::at(a, compass::SOUTH)
                    + Expr::at(a, compass::EAST)
                    + Expr::at(a, compass::WEST))
                    * Expr::Const(0.25),
            );
            b.assign(
                interior,
                c,
                Expr::at(a, compass::EAST) + Expr::at(c, compass::EAST),
            );
            b.assign(interior, a, Expr::local(new));
            b.assign(interior, d, Expr::at(new, compass::EAST));
            b.reduce(
                err,
                commopt_ir::ReduceOp::Max,
                interior,
                Expr::un(commopt_ir::UnaryOp::Abs, Expr::local(new)),
            );
        });
        b.finish()
    }

    fn t3d() -> MachineSpec {
        MachineSpec::t3d()
    }

    #[test]
    fn distributed_matches_sequential_for_all_presets() {
        let src = jacobi(12, 3);
        let reference = crate::seq::SeqInterp::run(&src);
        for (name, cfg) in OptConfig::presets() {
            let opt = optimize(&src, &cfg);
            let r = Simulator::new(&opt.program, SimConfig::full(t3d(), Library::Pvm, 4)).run();
            let a_ref = reference.array("A").unwrap();
            let a_sim = r.array("A").unwrap();
            assert_eq!(a_ref.len(), a_sim.len());
            for (x, y) in a_ref.iter().zip(a_sim) {
                assert!(
                    (x - y).abs() <= 1e-12 * x.abs().max(1.0),
                    "{name}: mismatch {x} vs {y}"
                );
            }
            assert!(
                (reference.scalar("err").unwrap() - r.scalar("err").unwrap()).abs() < 1e-9,
                "{name}: reduction mismatch"
            );
        }
    }

    #[test]
    fn dynamic_count_matches_structural() {
        let src = jacobi(12, 5);
        for (_, cfg) in OptConfig::presets() {
            let opt = optimize(&src, &cfg);
            let r = Simulator::new(&opt.program, SimConfig::timing(t3d(), Library::Pvm, 4)).run();
            assert_eq!(r.dynamic_comm, commopt_core::dynamic_count(&opt.program));
        }
    }

    #[test]
    fn optimizations_reduce_simulated_time() {
        let src = jacobi(64, 10);
        let time = |cfg: &OptConfig| {
            let opt = optimize(&src, cfg);
            Simulator::new(&opt.program, SimConfig::timing(t3d(), Library::Pvm, 16))
                .run()
                .time_s
        };
        let base = time(&OptConfig::baseline());
        let rr = time(&OptConfig::rr());
        let cc = time(&OptConfig::cc());
        let pl = time(&OptConfig::pl());
        assert!(rr <= base + 1e-12, "rr {rr} vs baseline {base}");
        assert!(cc <= rr + 1e-12, "cc {cc} vs rr {rr}");
        assert!(pl <= cc + 1e-12, "pl {pl} vs cc {cc}");
        assert!(pl < base, "optimizations should help overall");
    }

    #[test]
    fn single_proc_run_has_no_data_transfers() {
        let src = jacobi(8, 2);
        let opt = optimize(&src, &OptConfig::pl());
        let r = Simulator::new(&opt.program, SimConfig::full(t3d(), Library::Pvm, 1)).run();
        assert_eq!(r.data_transfers, 0);
        assert_eq!(r.bytes_received, 0);
        // Dynamic count still reflects executed quads (SPMD text).
        assert!(r.dynamic_comm > 0);
    }

    #[test]
    fn shmem_binding_runs_and_matches_numerically() {
        let src = jacobi(12, 2);
        let reference = crate::seq::SeqInterp::run(&src);
        let opt = optimize(&src, &OptConfig::pl());
        let r = Simulator::new(&opt.program, SimConfig::full(t3d(), Library::Shmem, 4)).run();
        let a_ref = reference.array("A").unwrap();
        let a_sim = r.array("A").unwrap();
        for (x, y) in a_ref.iter().zip(a_sim) {
            assert!((x - y).abs() <= 1e-12 * x.abs().max(1.0));
        }
    }

    #[test]
    fn paragon_bindings_run() {
        let src = jacobi(16, 2);
        let opt = optimize(&src, &OptConfig::pl());
        for lib in [Library::NxSync, Library::NxAsync, Library::NxCallback] {
            let r = Simulator::new(
                &opt.program,
                SimConfig::timing(MachineSpec::paragon(), lib, 4),
            )
            .run();
            assert!(r.time_s > 0.0);
        }
    }

    #[test]
    fn row_sweep_transfers_move_data_only_at_block_boundaries() {
        // A sweep over rows reading @north only crosses processor rows
        // at block boundaries.
        let n = 16i64;
        let mut b = ProgramBuilder::new("sweep");
        let bounds = Rect::d2((1, n), (1, n));
        let x = b.array("X", bounds);
        let a = b.array("A", bounds);
        b.assign(Region::from_rect(bounds), x, Expr::Index(0));
        b.for_up("i", 2, n, |b, i| {
            b.assign(Region::row2(i, (1, n)), a, Expr::at(x, compass::NORTH));
        });
        let src = b.finish();
        let opt = optimize(&src, &OptConfig::pl());
        // 4 procs -> 2x2 grid -> 8-row blocks; the counting proc is at
        // grid row 0 (grid has only 2 rows), so it receives nothing; use
        // 16 procs -> 4x4 grid -> counting proc at row 1 receives exactly
        // one north slab (when i hits its first row).
        let r = Simulator::new(&opt.program, SimConfig::full(t3d(), Library::Pvm, 16)).run();
        assert_eq!(r.data_transfers, 1);
        // dynamic count = executed quads = 15 iterations.
        assert_eq!(r.dynamic_comm, 15);
    }

    /// A row sweep whose inner loop rewrites row `i` from `X@north` three
    /// times: the transfer runs once per `(i, k)` but reads only `i`.
    fn sweep(n: i64) -> Program {
        let mut b = ProgramBuilder::new("sweep");
        let bounds = Rect::d2((1, n), (1, n));
        let x = b.array("X", bounds);
        b.assign(Region::from_rect(bounds), x, Expr::Index(0));
        b.for_up("i", 2, n, |b, i| {
            b.for_up("k", 1, 3, |b, _| {
                b.assign(
                    Region::row2(i, (1, n)),
                    x,
                    Expr::at(x, compass::NORTH) + Expr::Const(1.0),
                );
            });
        });
        b.finish()
    }

    /// The machine whose cost tables cover `lib`.
    fn machine(lib: Library) -> MachineSpec {
        match lib {
            Library::Pvm | Library::Shmem => t3d(),
            _ => MachineSpec::paragon(),
        }
    }

    /// Executes `program` and hands back the simulator for inspection.
    fn executed(program: &Program, cfg: SimConfig) -> Simulator<'_> {
        let mut sim = Simulator::new(program, cfg);
        sim.exec_block(&program.body).unwrap();
        sim
    }

    #[test]
    fn loop_invariant_geometry_is_built_once_per_run() {
        let src = jacobi(16, 4);
        for (name, cfg) in OptConfig::presets() {
            let opt = optimize(&src, &cfg);
            for lib in Library::ALL {
                let sim = executed(&opt.program, SimConfig::timing(machine(lib), lib, 4));
                for (i, slot) in sim.geoms.iter().enumerate() {
                    assert!(slot.vars.is_empty(), "{name}: t{i} reads a loop variable");
                    assert!(slot.takes >= 4, "{name}/{lib:?}: t{i} ran {}", slot.takes);
                    assert_eq!(slot.builds, 1, "{name}/{lib:?}: t{i}");
                }
            }
        }
    }

    #[test]
    fn row_sweep_geometry_is_built_once_per_row_in_full_mode() {
        let n = 16;
        let src = sweep(n);
        for (name, cfg) in OptConfig::presets() {
            let opt = optimize(&src, &cfg);
            for lib in Library::ALL {
                let sim = executed(&opt.program, SimConfig::full(machine(lib), lib, 16));
                assert_eq!(sim.ledger.dynamic_comm(), 3 * (n as u64 - 1), "{name}");
                let [slot] = &sim.geoms[..] else {
                    panic!("{name}: expected one transfer")
                };
                assert_eq!(slot.vars.len(), 1, "{name}: keyed on `i` alone");
                assert!(slot.shape.is_none(), "{name}: full mode keys on values");
                assert_eq!(slot.builds, n as u64 - 1, "{name}/{lib:?}");
                assert!(slot.takes >= 3 * slot.builds, "{name}/{lib:?}");
            }
        }
    }

    #[test]
    fn row_sweep_geometry_is_built_once_per_shape_class_in_timing_mode() {
        // Rows 2..=16 over 4-row blocks, reading `@north` (cap 1): each
        // block's first and last rows are classes of their own and its
        // middle rows one more, so rows {2, 3}, 4, 5, {6, 7}, 8, …, 16
        // make 11 classes.
        let src = sweep(16);
        for (name, cfg) in OptConfig::presets() {
            let opt = optimize(&src, &cfg);
            for lib in Library::ALL {
                let sim = executed(&opt.program, SimConfig::timing(machine(lib), lib, 16));
                let [slot] = &sim.geoms[..] else {
                    panic!("{name}: expected one transfer")
                };
                assert!(slot.shape.is_some(), "{name}: eligible for shape keys");
                assert_eq!(slot.builds, 11, "{name}/{lib:?}");
            }
        }
    }

    /// A sweep over the processor-local third dimension of a rank-3 array:
    /// plane `k` of `A` reads `X@east` and `X@zm`.
    fn z_sweep(nz: i64) -> Program {
        let mut b = ProgramBuilder::new("zsweep");
        let bounds = Rect::d3((1, 8), (1, 8), (1, nz));
        let x = b.array("X", bounds);
        let a = b.array("A", bounds);
        b.assign(Region::from_rect(bounds), x, Expr::Index(2));
        b.for_up("k", 2, nz, |b, k| {
            let plane = commopt_ir::DimRange::new(
                commopt_ir::AffineBound::var_plus(k, 0),
                commopt_ir::AffineBound::var_plus(k, 0),
            );
            let mut region = Region::d3((1, 8), (1, 8), (1, 1));
            region.dims[2] = plane;
            let east = commopt_ir::Offset::d3(0, 1, 0);
            let zm = commopt_ir::Offset::d3(0, 0, -1);
            b.assign(region, a, Expr::at(x, east) + Expr::at(x, zm));
        });
        b.finish()
    }

    #[test]
    fn processor_local_sweep_builds_a_constant_number_of_times() {
        // One block spans the whole third dimension. `@east` (cap 0) is one
        // class for every plane; `@zm` (cap 1) is one for planes
        // `2..nz - 1` and one for the last plane.
        for (name, cfg) in OptConfig::presets() {
            for nz in [4, 8, 32] {
                let opt = optimize(&z_sweep(nz), &cfg);
                let sim = executed(&opt.program, SimConfig::timing(t3d(), Library::Pvm, 16));
                let mut builds: Vec<u64> = sim.geoms.iter().map(|s| s.builds).collect();
                builds.sort_unstable();
                assert_eq!(builds, [1, 2], "{name}/nz={nz}");
            }
        }
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
    fn shape_keyed_geometry_matches_a_fresh_build_at_every_step() {
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
            let vars = slot.vars.clone();
            if vars.is_empty() {
                return;
            }
            assert_eq!(slot.shape.is_some(), broken.is_none(), "{t:?}");
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
                    if slot.stale(&env) {
                        slot.built = true;
                        layout.build(&mut geom, &t, &env);
                    }
                    layout.build(&mut fresh, &t, &env);
                    assert_eq!(
                        geom.timing(),
                        fresh.timing(),
                        "{rows}x{cols} grid, {t:?} under {env:?}"
                    );
                }
            }
        });
    }

    #[test]
    fn cached_geometry_matches_a_fresh_build_on_every_call() {
        // `take_geometry` compares every call's geometry with a fresh
        // build under `cfg(test)`; drive it through the sweep under every
        // binding, in both modes, and check the cache was actually hit.
        let src = sweep(16);
        for (name, cfg) in OptConfig::presets() {
            let opt = optimize(&src, &cfg);
            for lib in Library::ALL {
                for cfg in [
                    SimConfig::timing(machine(lib), lib, 16),
                    SimConfig::full(machine(lib), lib, 16),
                ] {
                    let sim = executed(&opt.program, cfg);
                    let takes: u64 = sim.geoms.iter().map(|s| s.takes).sum();
                    let builds: u64 = sim.geoms.iter().map(|s| s.builds).sum();
                    assert!(takes > builds, "{name}/{lib:?}: no call hit the cache");
                }
            }
        }
    }

    #[test]
    fn tracing_does_not_change_results() {
        // The tentpole invariant: a trace sink is purely observational.
        let src = jacobi(16, 3);
        for (name, cfg) in OptConfig::presets() {
            let opt = optimize(&src, &cfg);
            for (machine, lib) in [
                (t3d(), Library::Pvm),
                (t3d(), Library::Shmem),
                (MachineSpec::paragon(), Library::NxAsync),
            ] {
                let cfg = SimConfig::full(machine, lib, 4);
                let plain = Simulator::new(&opt.program, cfg.clone()).run();
                let rec = crate::trace::Recorder::new();
                let traced = Simulator::new(&opt.program, cfg.with_trace(rec.clone())).run();
                assert_eq!(plain, traced, "{name}/{lib:?}: tracing changed the result");
                assert!(!rec.is_empty(), "{name}/{lib:?}: no events recorded");
            }
        }
    }

    #[test]
    fn metrics_do_not_change_results() {
        // The observability invariant: deep metrics collection never
        // perturbs the simulated numbers. Strip the metrics field and the
        // two results must be *equal*, across presets, machines, bindings.
        let src = jacobi(16, 3);
        for (name, cfg) in OptConfig::presets() {
            let opt = optimize(&src, &cfg);
            for (machine, lib) in [
                (t3d(), Library::Pvm),
                (t3d(), Library::Shmem),
                (MachineSpec::paragon(), Library::NxSync),
            ] {
                let cfg = SimConfig::full(machine, lib, 4);
                let plain = Simulator::new(&opt.program, cfg.clone()).run();
                let mut metered = Simulator::new(&opt.program, cfg.with_metrics()).run();
                let m = metered.metrics.take().expect("metrics were enabled");
                assert!(
                    !m.registry.is_empty(),
                    "{name}/{lib:?}: nothing was recorded"
                );
                assert!(plain.metrics.is_none());
                assert_eq!(plain, metered, "{name}/{lib:?}: metrics changed the result");
            }
        }
    }

    #[test]
    fn metrics_histograms_count_every_call() {
        let src = jacobi(12, 4);
        let opt = optimize(&src, &OptConfig::pl());
        let r = Simulator::new(
            &opt.program,
            SimConfig::timing(t3d(), Library::Pvm, 4).with_metrics(),
        )
        .run();
        let m = r.metrics.as_ref().unwrap();
        // Every executed IRONMAN call records exactly one latency sample
        // on the counting processor; the quad executes together, so each
        // kind's count equals the dynamic communication count.
        for kind in CallKind::QUAD {
            let h = m.call_hist(kind).unwrap_or_else(|| panic!("{kind:?}"));
            assert_eq!(h.count(), r.dynamic_comm, "{kind:?}");
            let s = h.summary().expect("non-empty");
            assert!(s.min <= s.max && s.sum >= s.max);
        }
    }

    #[test]
    fn metrics_mesh_accounting_is_consistent() {
        let src = jacobi(32, 4);
        let opt = optimize(&src, &OptConfig::baseline());
        let r = Simulator::new(
            &opt.program,
            SimConfig::timing(t3d(), Library::Pvm, 16).with_metrics(),
        )
        .run();
        let m = r.metrics.as_ref().unwrap();
        let msgs = m.registry.counter("comm.messages");
        let bytes = m.registry.counter("comm.bytes");
        assert!(msgs > 0 && bytes > 0);
        // Payload bytes spread over the mesh: link-bytes = Σ bytes × hops,
        // so with unit-or-more routes it is at least the payload total.
        assert!(m.mesh.total_link_bytes() >= bytes);
        assert_eq!(m.registry.counter("comm.hops"), m.mesh.total_hops());
        let mesh_msgs: u64 = m.mesh.links().map(|(_, s)| s.messages).sum();
        assert!(mesh_msgs >= msgs, "every message crosses >= 1 link here");
        // The hotspot gauges agree with the mesh table.
        let (_, hot) = m.mesh.hotspot().expect("traffic exists");
        assert_eq!(m.registry.gauge("mesh.hotspot_busy_us"), Some(hot.busy_us));
        let util = m.registry.gauge("mesh.max_utilization").unwrap();
        assert!(util > 0.0 && util <= 1.0, "utilization {util}");
    }

    #[test]
    fn single_proc_metrics_have_no_traffic() {
        let src = jacobi(8, 2);
        let opt = optimize(&src, &OptConfig::pl());
        let r = Simulator::new(
            &opt.program,
            SimConfig::timing(t3d(), Library::Pvm, 1).with_metrics(),
        )
        .run();
        let m = r.metrics.as_ref().unwrap();
        assert_eq!(m.registry.counter("comm.messages"), 0);
        // Counters the run never touched stay out of the registry.
        let names: Vec<&str> = m.registry.counters().map(|(n, _)| n).collect();
        assert_eq!(names, ["comm.hops"]);
        assert_eq!(m.mesh.touched_links(), 0);
        assert_eq!(m.registry.gauge("mesh.max_utilization"), Some(0.0));
        // Calls still execute (SPMD text), so latency samples exist.
        assert!(m.call_hist(CallKind::DN).is_some());
    }

    #[test]
    fn trace_events_cover_every_dn_on_every_proc() {
        let src = jacobi(12, 4);
        let opt = optimize(&src, &OptConfig::pl());
        let rec = crate::trace::Recorder::new();
        let procs = 4;
        let r = Simulator::new(
            &opt.program,
            SimConfig::timing(t3d(), Library::Pvm, procs).with_trace(rec.clone()),
        )
        .run();
        let events = rec.events();
        // Every executed DN produces exactly one event per processor.
        for p in 0..procs {
            let dn = events
                .iter()
                .filter(|e| {
                    e.proc == p
                        && matches!(
                            e.kind,
                            SpanKind::Comm {
                                call: CallKind::DN,
                                ..
                            }
                        )
                })
                .count() as u64;
            assert_eq!(dn, r.dynamic_comm, "proc {p}");
        }
        // Spans lie on the simulated timeline.
        for e in &events {
            assert!(e.start_us >= 0.0 && e.dur_us >= 0.0);
            assert!(e.start_us + e.dur_us <= r.time_s * 1e6 + 1e-6);
        }
        // Traced bytes at DN agree with the aggregate transfer table.
        let traced_bytes: u64 = events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    SpanKind::Comm {
                        call: CallKind::DN,
                        ..
                    }
                )
            })
            .map(|e| e.bytes)
            .sum();
        let table_bytes: u64 = r.transfers.values().map(|s| s.bytes).sum();
        assert_eq!(traced_bytes, table_bytes);
    }

    #[test]
    fn per_proc_breakdown_accounts_for_the_clock() {
        let src = jacobi(16, 3);
        let opt = optimize(&src, &OptConfig::cc());
        let r = Simulator::new(&opt.program, SimConfig::timing(t3d(), Library::Pvm, 4)).run();
        assert_eq!(r.per_proc.len(), r.per_proc_time_s.len());
        for (b, t) in r.per_proc.iter().zip(&r.per_proc_time_s) {
            assert!(b.compute_s > 0.0);
            // Every accumulated category is non-negative and together they
            // account for the whole final clock (attribution is complete).
            for c in [
                b.compute_s,
                b.send_s,
                b.recv_s,
                b.wait_s,
                b.sync_s,
                b.overhead_s,
            ] {
                assert!(c >= 0.0);
            }
            assert!(
                (b.total_s() - t).abs() <= 1e-10 * t,
                "{} vs {}",
                b.total_s(),
                t
            );
        }
        // The transfer table covers every transfer and matches the dynamic
        // count in total.
        assert_eq!(r.transfers.len(), opt.program.transfers.len());
        let total_exec: u64 = r.transfers.values().map(|s| s.executions).sum();
        assert_eq!(total_exec, r.dynamic_comm);
    }

    #[test]
    fn inert_fault_plan_is_byte_identical() {
        // The tentpole invariant: with the default (zeroed) plan the
        // result is exactly — field for field, bit for bit — what a run
        // without any plan produces.
        let src = jacobi(16, 3);
        for (name, cfg) in OptConfig::presets() {
            let opt = optimize(&src, &cfg);
            for (machine, lib) in [
                (t3d(), Library::Pvm),
                (t3d(), Library::Shmem),
                (MachineSpec::paragon(), Library::NxAsync),
            ] {
                let plain =
                    Simulator::new(&opt.program, SimConfig::full(machine.clone(), lib, 4)).run();
                let with_plan = Simulator::new(
                    &opt.program,
                    SimConfig::full(machine, lib, 4).with_faults(FaultPlan::none()),
                )
                .run();
                assert_eq!(plain, with_plan, "{name}/{lib:?}");
                assert_eq!(with_plan.faults, crate::faults::FaultStats::default());
            }
        }
    }

    #[test]
    fn seeded_faults_change_timing_but_not_numerics() {
        let src = jacobi(12, 3);
        let reference = crate::seq::SeqInterp::run(&src);
        for (name, cfg) in OptConfig::presets() {
            let opt = optimize(&src, &cfg);
            for lib in [Library::Pvm, Library::Shmem] {
                for seed in [1u64, 2, 3] {
                    let r = Simulator::new(
                        &opt.program,
                        SimConfig::full(t3d(), lib, 4).with_faults(FaultPlan::seeded(seed)),
                    )
                    .try_run()
                    .unwrap_or_else(|e| panic!("{name}/{lib:?}/seed{seed}: {e}"));
                    // The perturbed schedule is still a legal execution:
                    // numerics match the sequential reference exactly as
                    // tightly as the unperturbed run does.
                    let a_ref = reference.array("A").unwrap();
                    let a_sim = r.array("A").unwrap();
                    for (x, y) in a_ref.iter().zip(a_sim) {
                        assert!(
                            (x - y).abs() <= 1e-12 * x.abs().max(1.0),
                            "{name}/{lib:?}/seed{seed}: {x} vs {y}"
                        );
                    }
                    // The plan verifiably did something to the schedule.
                    assert!(
                        r.faults.jittered_messages > 0,
                        "{name}/{lib:?}/seed{seed}: no messages jittered"
                    );
                }
            }
        }
    }

    #[test]
    fn seeded_faults_are_deterministic() {
        let src = jacobi(12, 2);
        let opt = optimize(&src, &OptConfig::pl());
        let run = || {
            Simulator::new(
                &opt.program,
                SimConfig::full(t3d(), Library::Pvm, 4).with_faults(FaultPlan::seeded(7)),
            )
            .try_run()
            .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn broken_shmem_binding_is_a_safety_violation() {
        // SHMEM with its DR-side `synch` stripped: the puts land before
        // any readiness was posted. The checker must catch this rather
        // than silently producing an answer.
        let src = jacobi(12, 2);
        let opt = optimize(&src, &OptConfig::pl());
        let broken = Library::Shmem
            .binding()
            .with_action(CallKind::DR, Action::Noop);
        let err = Simulator::new(
            &opt.program,
            SimConfig::full(t3d(), Library::Shmem, 4).with_binding(broken),
        )
        .try_run()
        .expect_err("stripped readiness sync must be flagged");
        match err {
            SimError::Safety(violations) => {
                assert!(violations
                    .iter()
                    .any(|v| matches!(v, SafetyViolation::PutBeforeReady { .. })));
            }
            other => panic!("expected a safety violation, got {other}"),
        }
    }

    #[test]
    fn stripped_sr_deadlocks_with_stuck_processors() {
        // Remove every SR: the DNs block on messages nobody sends. The
        // engine must report a typed deadlock, not hang or no-op.
        let src = jacobi(12, 1);
        let opt = optimize(&src, &OptConfig::pl());
        let mut broken = opt.program.clone();
        fn strip_sr(b: &mut commopt_ir::Block) {
            b.0.retain(|s| {
                !matches!(
                    s,
                    Stmt::Comm {
                        kind: CallKind::SR,
                        ..
                    }
                )
            });
            for s in b.0.iter_mut() {
                if let Stmt::Repeat { body, .. } | Stmt::For { body, .. } = s {
                    strip_sr(body);
                }
            }
        }
        strip_sr(&mut broken.body);
        let err = Simulator::new(&broken, SimConfig::full(t3d(), Library::Pvm, 4))
            .try_run()
            .expect_err("receives without sends must deadlock");
        match err {
            SimError::Deadlock { stuck } => {
                assert!(!stuck.is_empty());
                for s in &stuck {
                    assert_eq!(s.call, CallKind::DN);
                }
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn stripped_dn_reports_unretired_receives() {
        // Remove every DN: messages are sent but never retired.
        let src = jacobi(12, 1);
        let opt = optimize(&src, &OptConfig::pl());
        let mut broken = opt.program.clone();
        fn strip_dn(b: &mut commopt_ir::Block) {
            b.0.retain(|s| {
                !matches!(
                    s,
                    Stmt::Comm {
                        kind: CallKind::DN,
                        ..
                    }
                )
            });
            for s in b.0.iter_mut() {
                if let Stmt::Repeat { body, .. } | Stmt::For { body, .. } = s {
                    strip_dn(body);
                }
            }
        }
        strip_dn(&mut broken.body);
        let err = Simulator::new(&broken, SimConfig::full(t3d(), Library::Pvm, 4))
            .try_run()
            .expect_err("unretired messages must be flagged");
        match err {
            SimError::Safety(violations) => {
                assert!(violations
                    .iter()
                    .any(|v| matches!(v, SafetyViolation::UnretiredRecv { .. })));
            }
            other => panic!("expected a safety violation, got {other}"),
        }
    }

    #[test]
    fn missing_communication_poisons_results() {
        // Strip the comm calls from an optimized program: ghosts stay NaN.
        let src = jacobi(12, 1);
        let opt = optimize(&src, &OptConfig::pl());
        let mut broken = opt.program.clone();
        fn strip(b: &mut commopt_ir::Block) {
            b.0.retain(|s| s.is_source_stmt());
            for s in b.0.iter_mut() {
                if let Stmt::Repeat { body, .. } | Stmt::For { body, .. } = s {
                    strip(body);
                }
            }
        }
        strip(&mut broken.body);
        let r = Simulator::new(&broken, SimConfig::full(t3d(), Library::Pvm, 4)).run();
        let a = r.array("A").unwrap();
        assert!(a.iter().any(|v| v.is_nan()), "stale ghosts must surface");
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

    use commopt_ir::Program;
}
