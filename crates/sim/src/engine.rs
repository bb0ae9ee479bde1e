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
//!   [`Action`]s — see the match in `Simulator::exec_comm`;
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
use crate::eval::{copy_lane, eval_tile, runs, BlockSource, BufPool, EvalCtx};
use crate::faults::{FaultPlan, FaultState};
use crate::layout::{charge_of, charge_slots, ChargeSlot, Geom, GeomSlot, Layout};
use crate::ledger::{Cat, Ledger};
use crate::metrics::SimResult;
use crate::safety::SafetyViolation;
use crate::trace::{SpanKind, TraceHandle, TraceSink};
use commopt_ir::analysis::expr_flops;
use commopt_ir::visit::walk_stmts;
use commopt_ir::{
    loop_values, CallKind, Expr, LoopEnv, Program, Rect, ReduceOp, Region, ScalarRhs, Stmt,
    TransferId, TransferItem, MAX_RANK,
};
use commopt_ironman::{Action, Binding, Library};
use commopt_machine::{CommCosts, MachineSpec, ProcGrid, ProcId};
use std::collections::hash_map::{DefaultHasher, HashMap};
use std::hash::BuildHasherDefault;

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
    /// Per distinct item list the program's transfers carry: its cached
    /// geometry (see [`GeomSlot`]).
    geoms: Vec<GeomSlot>,
    /// Per transfer (indexed by `TransferId::index()`): its slot in
    /// `geoms`, which every transfer with equal items shares.
    geom_of: Vec<usize>,
    /// Per array assignment and reduction, in pre-order: its cached compute
    /// charge (see [`ChargeSlot`]).
    charges: Vec<ChargeSlot>,
    /// Per proc: the compute cost of a scalar statement, or of a cached
    /// charge scaled by the fault plan.
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
        let mut layout = Layout::new(grid, program, cfg.compute_data);
        let mut geoms = Vec::new();
        // Fixed hash keys: nothing in a run depends on the process's
        // random seed.
        let mut slots: HashMap<&[TransferItem], usize, BuildHasherDefault<DefaultHasher>> =
            HashMap::default();
        let geom_of = program
            .transfers
            .iter()
            .map(|t| {
                *slots.entry(&t.items).or_insert_with(|| {
                    geoms.push(GeomSlot::new(&t.items, &layout, !cfg.compute_data));
                    geoms.len() - 1
                })
            })
            .collect();
        let mut charges = Vec::new();
        walk_stmts(&program.body, &mut |stmt| {
            if let Some((region, part, expr)) = charge_of(stmt) {
                let flops = f64::from(expr_flops(expr));
                let m = &cfg.machine;
                charges.push(ChargeSlot::new(
                    region,
                    part,
                    flops,
                    &mut layout,
                    m,
                    !cfg.compute_data,
                ));
            }
        });
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
            geom_of,
            charges,
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
        // Loop-invariant geometry is built here, once, as invariant
        // charges were above.
        for i in 0..program.transfers.len() {
            if sim.geoms[sim.geom_of[i]].key.vars.is_empty() {
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
        self.exec_block(body, 0)?;
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

    /// Executes `block`, whose charge slots are numbered from `slot`, and
    /// returns the number past its last one.
    fn exec_block(
        &mut self,
        block: &commopt_ir::Block,
        mut slot: usize,
    ) -> Result<usize, SimError> {
        for stmt in block.iter() {
            match stmt {
                Stmt::Assign { region, lhs, rhs } => {
                    self.exec_assign(slot, region, lhs.index(), rhs);
                    slot += 1;
                }
                Stmt::ScalarAssign {
                    lhs,
                    rhs: ScalarRhs::Expr(e),
                } => self.exec_scalar(lhs.index(), e)?,
                Stmt::ScalarAssign {
                    lhs,
                    rhs: ScalarRhs::Reduce { op, region, expr },
                } => {
                    self.exec_reduce(slot, lhs.index(), *op, region, expr);
                    slot += 1;
                }
                Stmt::Repeat { count, body } => {
                    let mut end = None;
                    for _ in 0..*count {
                        end = Some(self.exec_block(body, slot)?);
                    }
                    slot = end.unwrap_or_else(|| slot + charge_slots(body));
                }
                Stmt::For {
                    var,
                    lo,
                    hi,
                    step,
                    body,
                } => {
                    let lo = lo.eval(&self.env);
                    let values = loop_values(lo, hi.eval(&self.env), *step)
                        .map_err(|e| SimError::Eval(e.to_string()))?;
                    let mut end = None;
                    self.env.push(*var, lo);
                    for i in values {
                        self.env.set(*var, i);
                        end = Some(self.exec_block(body, slot)?);
                    }
                    self.env.pop();
                    slot = end.unwrap_or_else(|| slot + charge_slots(body));
                }
                Stmt::Comm { kind, transfer } => self.exec_comm(*kind, *transfer)?,
            }
        }
        Ok(slot)
    }

    // ------------------------------------------------------------------
    // Computation
    // ------------------------------------------------------------------

    fn exec_assign(&mut self, slot: usize, region: &Region, lhs: usize, rhs: &Expr) {
        let span = SpanKind::Compute { array: lhs as u32 };
        self.charge_stmt(slot, region, Some(span));
        if self.cfg.compute_data {
            self.compute_assign_data(region.eval(&self.env), lhs, rhs);
        }
    }

    /// Charges every processor its share of charge slot `slot`'s
    /// statement, over `region`, under the current environment.
    fn charge_stmt(&mut self, slot: usize, region: &Region, span: Option<SpanKind>) {
        let charge = &mut self.charges[slot];
        charge.update(region, &self.env, &mut self.layout, &self.cfg.machine);
        let dt = charge.dt();
        if self.faults.is_none() {
            self.ledger.compute_all(dt, span);
        } else {
            // Scale a copy: the cached charge stays the unscaled cost.
            self.stmt_dt.clear();
            self.stmt_dt.extend_from_slice(dt);
            self.charge_compute(span);
        }
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
        // Fast path: a bare reference RHS is a lane-by-lane block copy — no
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
        for p in 0..self.grid.len() {
            let local = rect.intersect(&self.layout.owned(lhs, p));
            if local.is_empty() {
                continue;
            }
            let mut buf = self.pool.get(local.count() as usize);
            let view = ProcView {
                arrays: &self.arrays,
                p,
            };
            let ctx = EvalCtx {
                src: &view,
                scalars: &self.scalars,
                env: &self.env,
            };
            eval_tile(&ctx, rhs, &local, &mut buf, &mut self.pool);
            self.arrays[lhs].block_mut(p).write(&local, &buf);
            self.pool.put(buf);
        }
    }

    /// `A := B@off` (distinct arrays): copy each lane straight from the
    /// source block — the same reads and writes as the buffered path,
    /// minus the intermediates.
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
            let lanes = runs(&local);
            let (ds, ss) = (
                dst_block.stride(lanes.axis()),
                src_block.stride(lanes.axis()),
            );
            for (base, len, _) in lanes {
                let mut b = base;
                for d in 0..MAX_RANK {
                    b[d] += offset.get(d) as i64;
                }
                copy_lane(
                    dst_block.lane_mut(base, len, ds),
                    ds,
                    src_block.lane(b, len, ss),
                    ss,
                );
            }
        }
    }

    fn exec_scalar(&mut self, lhs: usize, e: &Expr) -> Result<(), SimError> {
        let dt = f64::from(expr_flops(e)) * self.cfg.machine.flop_us
            + self.cfg.machine.guard_overhead_us;
        self.stmt_dt.clear();
        self.stmt_dt.resize(self.grid.len(), dt);
        self.charge_compute(Some(SpanKind::Scalar { scalar: lhs as u32 }));
        self.scalars[lhs] = eval_scalar(e, &self.scalars, &self.env)?;
        Ok(())
    }

    /// A reduction of `expr` over `region` into scalar `lhs`, with charge
    /// slot `slot`. The local fold is split as the first referenced array
    /// is, falling back to a uniform split of the region itself.
    fn exec_reduce(&mut self, slot: usize, lhs: usize, op: ReduceOp, region: &Region, expr: &Expr) {
        // The local fold's cost (untraced), then, in full mode, its value.
        self.charge_stmt(slot, region, None);
        let acc = if self.cfg.compute_data {
            let part = self.charges[slot].part;
            self.reduce_data(region.eval(&self.env), part, op, expr)
        } else {
            op.identity()
        };
        // The combine tree is a barrier: all clocks join.
        let combine = self.cfg.machine.reduce_us(self.grid.len());
        self.ledger.reduce(combine, lhs as u32);
        self.scalars[lhs] = acc;
    }

    /// Full mode: folds every processor's share of `rect` (split as array
    /// `a` is) of `expr` with `op`, in processor order and, within a
    /// share, in row-major order.
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
            let mut buf = self.pool.get(local.count() as usize);
            eval_tile(&ctx, expr, &local, &mut buf, &mut self.pool);
            for v in &buf {
                acc = op.fold(acc, *v);
            }
            self.pool.put(buf);
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
    /// of its slot (see [`GeomSlot::take`]). Hand it back with
    /// [`put_geometry`](Simulator::put_geometry).
    fn take_geometry(&mut self, tid: TransferId) -> Geom {
        let items = &self.program.transfer(tid).items;
        let slot = &mut self.geoms[self.geom_of[tid.index()]];
        let geom = slot.take(items, &self.env, &mut self.layout);
        // Unit tests hold every call's geometry to a fresh per-processor
        // build, the independent one: all of it in full mode, the fields
        // timing runs read in timing mode.
        #[cfg(test)]
        {
            let mut rebuilt = Geom::default();
            self.layout.build_per_proc(&mut rebuilt, items, &self.env);
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
        self.geoms[self.geom_of[tid.index()]].put(geom);
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
    /// copied lane by lane from their owning blocks, each slab into its own
    /// buffer.
    fn snapshot(&mut self, geom: &Geom, fl: &mut InFlight) {
        for p in 0..self.grid.len() {
            for &(a, rect) in geom.receives(p) {
                let mut vals = Vec::with_capacity(rect.count() as usize);
                self.arrays[a].read_into(&rect, &mut vals);
                fl.data[p].push((a, rect, vals));
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
        Ok(())
    }

    /// DN under SHMEM `synch`: completion of any incoming put, plus the
    /// synchronization call whenever the instance is active and the
    /// processor has a structural partner.
    fn do_sync_dn(&mut self, tid: TransferId, call: CallKind) -> Result<(), SimError> {
        let geom = self.take_geometry(tid);
        if !geom.active {
            self.put_geometry(tid, geom);
            self.retire(tid);
            return Ok(());
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
        Ok(())
    }

    /// Marks the transfer's current in-flight instance retired (all of
    /// its messages consumed by a DN) and, in full mode, writes the
    /// snapshotted slabs into each reader's ghosts, lane by lane.
    fn retire(&mut self, tid: TransferId) {
        let Some(fl) = &mut self.inflight[tid.index()] else {
            return;
        };
        fl.retired = true;
        // Timing runs never fill `data`, so this moves nothing there.
        for (p, slabs) in std::mem::take(&mut fl.data).into_iter().enumerate() {
            for (a, rect, vals) in slabs {
                self.arrays[a].block_mut(p).write(&rect, &vals);
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::same_bits;
    use crate::seq::SeqInterp;
    use commopt_core::{optimize, OptConfig};
    use commopt_ir::offset::compass;
    use commopt_ir::{Offset, ProgramBuilder, Region};

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
        let reference = SeqInterp::run(&src);
        for (_, cfg) in OptConfig::presets() {
            assert_matches(&reference, &src, &cfg, 4);
        }
    }

    /// A full-mode run of `src` optimized under `cfg`, on `nprocs`
    /// processors, passes `reference`'s check.
    fn assert_matches(reference: &SeqInterp, src: &Program, cfg: &OptConfig, nprocs: usize) {
        let opt = optimize(src, cfg);
        let r = Simulator::new(&opt.program, SimConfig::full(t3d(), Library::Pvm, nprocs)).run();
        if let Err(e) = reference.check(&r) {
            panic!("{cfg:?} on {nprocs} procs: {e}");
        }
    }

    #[test]
    fn self_shifts_read_before_they_write() {
        // Each statement reads the array it assigns: the tile is evaluated
        // whole before any of it is committed. East/west shifts read only
        // their own row; north/south shifts read the row a row-by-row
        // commit would already have overwritten.
        let n = 12;
        let mut b = ProgramBuilder::new("self_shift");
        let bounds = Rect::d2((1, n), (1, n));
        let interior = Region::d2((2, n - 1), (2, n - 1));
        let a = b.array("A", bounds);
        b.assign(
            Region::from_rect(bounds),
            a,
            Expr::Index(0) * Expr::Index(0) + Expr::Index(1),
        );
        b.repeat(2, |b| {
            b.assign(
                interior,
                a,
                Expr::at(a, compass::EAST) + Expr::at(a, compass::WEST),
            );
            b.assign(
                interior,
                a,
                Expr::at(a, compass::SOUTH) - Expr::at(a, compass::NORTH),
            );
        });
        let src = b.finish();
        let reference = SeqInterp::run(&src);
        for nprocs in [4, 16] {
            assert_matches(&reference, &src, &OptConfig::pl(), nprocs);
        }
    }

    #[test]
    fn self_shifts_on_planes_and_columns_read_before_they_write() {
        // A z-plane `[2..n-1, 1..n, k]` is evaluated as lanes along
        // dimension 1, strided in block storage, and a column
        // `[2..n-1, j]` as one lane along dimension 0. Each statement
        // reads the rows on both sides of the ones it writes, so a commit
        // of any lane before the next is evaluated would show.
        let (n, depth) = (12, 3);
        let mut b = ProgramBuilder::new("lane_shift");
        let cube = Rect::d3((1, n), (1, n), (1, depth));
        let square = Rect::d2((1, n), (1, n));
        let a = b.array("A", cube);
        let c = b.array("C", square);
        let (xp, xm) = (Offset::d3(1, 0, 0), Offset::d3(-1, 0, 0));
        b.assign(
            Region::from_rect(cube),
            a,
            Expr::Index(0) * Expr::Index(0) + Expr::Index(1) * Expr::Const(3.0) + Expr::Index(2),
        );
        b.assign(
            Region::from_rect(square),
            c,
            Expr::Index(0) * Expr::Index(0) - Expr::Index(1),
        );
        let var = |v| {
            commopt_ir::DimRange::new(
                commopt_ir::AffineBound::var_plus(v, 0),
                commopt_ir::AffineBound::var_plus(v, 0),
            )
        };
        let inner = commopt_ir::DimRange::new(2, n - 1);
        b.repeat(2, |b| {
            b.for_up("k", 1, depth, |b, k| {
                let plane = Region::new(3, [inner, commopt_ir::DimRange::new(1, n), var(k)]);
                b.assign(plane, a, Expr::at(a, xp));
                b.assign(plane, a, Expr::at(a, xp) - Expr::at(a, xm));
            });
            b.for_up("j", 1, n, |b, j| {
                let column = Region::new(2, [inner, var(j), commopt_ir::DimRange::new(0, 0)]);
                b.assign(column, c, Expr::at(c, compass::SOUTH));
                b.assign(
                    column,
                    c,
                    Expr::at(c, compass::NORTH) * Expr::Const(0.5) + Expr::at(c, compass::SOUTH),
                );
            });
        });
        let src = b.finish();
        let reference = SeqInterp::run(&src);
        for cfg in [OptConfig::baseline(), OptConfig::pl()] {
            assert_matches(&reference, &src, &cfg, 16);
        }
    }

    #[test]
    fn rank1_program_matches_sequential_on_a_2x2_grid() {
        // A rank-1 array is split along dimension 0 only: both processors
        // of a grid row hold a replica of its block.
        let n = 10;
        let mut b = ProgramBuilder::new("rank1");
        let bounds = Rect::d1((1, n));
        let [a, bb] = b.arrays(["A", "B"], bounds);
        let (east, west) = (Offset::d3(1, 0, 0), Offset::d3(-1, 0, 0));
        b.assign(
            Region::from_rect(bounds),
            a,
            Expr::Index(0) * Expr::Index(0),
        );
        b.assign(
            Region::from_rect(Rect::d1((2, n - 1))),
            bb,
            Expr::at(a, east) - Expr::at(a, west),
        );
        let src = b.finish();
        let reference = SeqInterp::run(&src);
        for (_, cfg) in OptConfig::presets() {
            assert_matches(&reference, &src, &cfg, 4);
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
        let opt = optimize(&src, &OptConfig::pl());
        let r = Simulator::new(&opt.program, SimConfig::full(t3d(), Library::Shmem, 4)).run();
        assert_eq!(SeqInterp::run(&src).check(&r), Ok(()));
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
        let x = sweep_array(&mut b, n);
        sweep_rows(&mut b, x, n);
        b.finish()
    }

    /// [`sweep`]'s row sweep, run `repeats` times over.
    fn repeated_sweep(n: i64, repeats: u64) -> Program {
        let mut b = ProgramBuilder::new("sweep");
        let x = sweep_array(&mut b, n);
        b.repeat(repeats, |b| {
            sweep_rows(b, x, n);
        });
        b.finish()
    }

    /// Declares the `n × n` array `X` a sweep rewrites and fills it.
    fn sweep_array(b: &mut ProgramBuilder, n: i64) -> commopt_ir::ArrayId {
        let bounds = Rect::d2((1, n), (1, n));
        let x = b.array("X", bounds);
        b.assign(Region::from_rect(bounds), x, Expr::Index(0));
        x
    }

    /// Appends the sweep over rows `2..=n` of `x`.
    fn sweep_rows(b: &mut ProgramBuilder, x: commopt_ir::ArrayId, n: i64) {
        b.for_up("i", 2, n, |b, i| {
            b.for_up("k", 1, 3, |b, _| {
                b.assign(
                    Region::row2(i, (1, n)),
                    x,
                    Expr::at(x, compass::NORTH) + Expr::Const(1.0),
                );
            });
        });
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
        sim.exec_block(&program.body, 0).unwrap();
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
                    assert!(
                        slot.key.vars.is_empty(),
                        "{name}: t{i} reads a loop variable"
                    );
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
                assert_eq!(slot.key.vars.len(), 1, "{name}: keyed on `i` alone");
                assert!(slot.key.shape.is_none(), "{name}: full mode keys on values");
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
                assert!(slot.key.shape.is_some(), "{name}: eligible for shape keys");
                assert_eq!(slot.builds, 11, "{name}/{lib:?}");
            }
        }
    }

    #[test]
    fn repeated_sweep_builds_each_class_once_per_run() {
        // `sweep(16)`'s 11 geometry classes and 4 charge classes, swept
        // three times: the class tables serve the second and third
        // sweeps, where full mode rebuilds every row of every sweep.
        let src = repeated_sweep(16, 3);
        for (name, cfg) in OptConfig::presets() {
            let opt = optimize(&src, &cfg);
            for lib in Library::ALL {
                for (cfg, builds, charges) in [
                    (SimConfig::timing(machine(lib), lib, 16), 11, 4),
                    (SimConfig::full(machine(lib), lib, 16), 45, 45),
                ] {
                    let timing = !cfg.compute_data;
                    let sim = executed(&opt.program, cfg);
                    let [slot] = &sim.geoms[..] else {
                        panic!("{name}: expected one transfer")
                    };
                    assert_eq!(slot.builds, builds, "{name}/{lib:?}/timing={timing}");
                    let [_, row] = &sim.charges[..] else {
                        panic!("{name}: expected two assignments")
                    };
                    assert_eq!(row.builds, charges, "{name}/{lib:?}/timing={timing}");
                }
            }
        }
    }

    #[test]
    fn identical_transfers_share_one_geometry_slot() {
        // Message vectorization alone leaves `A@east` a transfer for each
        // statement that reads it, each carrying the same item.
        let src = jacobi(16, 4);
        let opt = optimize(&src, &OptConfig::baseline());
        let transfers = &opt.program.transfers;
        let mut distinct: Vec<&[TransferItem]> = Vec::new();
        for t in transfers {
            if !distinct.contains(&&t.items[..]) {
                distinct.push(&t.items);
            }
        }
        assert!(distinct.len() < transfers.len(), "no two transfers agree");
        for cfg in [
            SimConfig::timing(t3d(), Library::Pvm, 4),
            SimConfig::full(t3d(), Library::Pvm, 4),
        ] {
            let sim = executed(&opt.program, cfg);
            assert_eq!(sim.geoms.len(), distinct.len());
            for (t, &k) in transfers.iter().zip(&sim.geom_of) {
                for (u, &l) in transfers.iter().zip(&sim.geom_of) {
                    assert_eq!(t.items == u.items, k == l, "{:?} and {:?}", t.id, u.id);
                }
            }
            // Each slot is loop-invariant: built once, whoever asks.
            assert!(sim.geoms.iter().all(|s| s.builds == 1));
        }
    }

    #[test]
    fn class_table_stays_at_its_construction_bound_over_a_long_sweep() {
        // Rows 2..=64 over 16-row blocks, swept once and eight times: the
        // table is sized by the partition at construction, never grows,
        // and is the same size however many rows the run visits.
        let sizes: Vec<(usize, usize)> = [1, 8]
            .into_iter()
            .map(|repeats| {
                let program = repeated_sweep(64, repeats);
                let opt = optimize(&program, &OptConfig::pl());
                let cfg = SimConfig::timing(t3d(), Library::Pvm, 16);
                let built = Simulator::new(&opt.program, cfg.clone());
                let [slot] = &built.geoms[..] else {
                    panic!("expected one transfer")
                };
                let classes = slot.key.shape.as_ref().expect("shape-keyed").filled.len();
                let bound = (slot.geoms.len(), slot.geoms.capacity());
                assert_eq!(bound.0, classes);
                let sim = executed(&opt.program, cfg);
                let [slot] = &sim.geoms[..] else {
                    unreachable!()
                };
                assert_eq!((slot.geoms.len(), slot.geoms.capacity()), bound);
                assert!(slot.builds <= classes as u64, "{} builds", slot.builds);
                assert!(slot.takes > 63 * repeats, "{} takes", slot.takes);
                bound
            })
            .collect();
        assert_eq!(sizes[0], sizes[1]);
    }

    #[test]
    fn loop_invariant_charges_are_computed_once_at_construction() {
        let src = jacobi(16, 4);
        for (name, cfg) in OptConfig::presets() {
            let opt = optimize(&src, &cfg);
            for cfg in [
                SimConfig::timing(t3d(), Library::Pvm, 4),
                SimConfig::full(t3d(), Library::Pvm, 4),
            ] {
                let built = Simulator::new(&opt.program, cfg.clone());
                assert_eq!(
                    built.charges.len(),
                    6,
                    "{name}: five assigns and a reduction"
                );
                assert!(built.charges.iter().all(|c| c.builds == 1), "{name}");
                let sim = executed(&opt.program, cfg);
                for (k, charge) in sim.charges.iter().enumerate() {
                    assert!(
                        charge.key.vars.is_empty(),
                        "{name}: slot {k} reads a loop variable"
                    );
                    assert_eq!(
                        charge.builds, 1,
                        "{name}: slot {k} recomputed during the run"
                    );
                }
            }
        }
    }

    #[test]
    fn row_sweep_charge_is_computed_once_per_class_in_timing_mode_and_per_row_in_full_mode() {
        // Rows 2..=16 of a width-0 region (cap 0) over 4-row blocks: one
        // class per block the row falls in, four in all, against 15 rows.
        let n = 16;
        let src = sweep(n);
        for (name, cfg) in OptConfig::presets() {
            let opt = optimize(&src, &cfg);
            for (cfg, builds) in [
                (SimConfig::timing(t3d(), Library::Pvm, 16), 4),
                (SimConfig::full(t3d(), Library::Pvm, 16), n as u64 - 1),
            ] {
                let timing = !cfg.compute_data;
                let sim = executed(&opt.program, cfg);
                let [whole, row] = &sim.charges[..] else {
                    panic!("{name}: expected two assignments")
                };
                assert_eq!(whole.builds, 1, "{name}");
                assert_eq!(row.key.shape.is_some(), timing, "{name}");
                assert_eq!(row.builds, builds, "{name}/timing={timing}");
            }
        }
    }

    #[test]
    fn statements_after_an_empty_for_read_their_own_charge_slots() {
        // Slot 1 sits in a loop whose range is empty; the statements after
        // it must still find slots 2 and 3, both computed at construction.
        let n = 12;
        let mut b = ProgramBuilder::new("empty");
        let bounds = Rect::d2((1, n), (1, n));
        let x = b.array("X", bounds);
        let a = b.array("A", bounds);
        let err = b.scalar("err", 0.0);
        b.assign(Region::from_rect(bounds), x, Expr::Index(0));
        b.for_up("i", 5, 4, |b, i| {
            b.assign(Region::row2(i, (1, n)), a, Expr::at(x, compass::NORTH));
        });
        b.repeat(3, |b| {
            b.assign(Region::d2((2, n), (1, n)), a, Expr::at(x, compass::NORTH));
            b.reduce(
                err,
                ReduceOp::Max,
                Region::d2((3, 7), (2, 9)),
                Expr::Index(1),
            );
        });
        let src = b.finish();
        for (name, cfg) in OptConfig::presets() {
            let opt = optimize(&src, &cfg);
            for cfg in [
                SimConfig::timing(t3d(), Library::Pvm, 16),
                SimConfig::full(t3d(), Library::Pvm, 16),
            ] {
                let sim = executed(&opt.program, cfg);
                let builds: Vec<u64> = sim.charges.iter().map(|c| c.builds).collect();
                assert_eq!(builds, [1, 0, 1, 1], "{name}");
                assert_eq!(sim.charges[3].part, None, "{name}: split as its own region");
            }
        }
    }

    #[test]
    fn fault_scaling_leaves_the_cached_charges_unscaled() {
        let src = jacobi(12, 3);
        let opt = optimize(&src, &OptConfig::pl());
        let cfg = SimConfig::full(t3d(), Library::Pvm, 4).with_faults(FaultPlan::seeded(1));
        let m = cfg.machine.clone();
        let sim = executed(&opt.program, cfg);
        let mut regions = Vec::new();
        walk_stmts(&opt.program.body, &mut |s| {
            regions.extend(charge_of(s).map(|(region, ..)| *region));
        });
        assert_eq!(regions.len(), sim.charges.len());
        let mut fresh = Vec::new();
        for (charge, region) in sim.charges.iter().zip(&regions) {
            let rect = region.eval(&LoopEnv::new());
            sim.layout
                .stmt_costs_per_proc(&rect, charge.part, charge.flops, &m, &mut fresh);
            assert!(same_bits(charge.dt(), &fresh), "{region:?}");
        }
    }

    #[test]
    fn zero_step_loop_is_an_error_not_a_hang() {
        let mut program = jacobi(8, 1);
        let i = program.add_loop_var("i");
        program.body.0.push(Stmt::For {
            var: i,
            lo: 1.into(),
            hi: 4.into(),
            step: 0,
            body: commopt_ir::Block::default(),
        });
        let err = Simulator::new(&program, SimConfig::timing(t3d(), Library::Pvm, 4))
            .try_run()
            .expect_err("a zero step must be rejected");
        assert_eq!(
            err,
            SimError::Eval("for-loop step must be ±1, got 0".into())
        );
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
        let reference = SeqInterp::run(&src);
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
                    if let Err(e) = reference.check(&r) {
                        panic!("{name}/{lib:?}/seed{seed}: {e}");
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
        // Strip every call of one transfer (its DN with them, so no message
        // is left unretired): the ghosts it fed stay NaN, and the reference
        // check names the first element that read one.
        let src = jacobi(12, 1);
        let reference = SeqInterp::run(&src);
        let mut broken = optimize(&src, &OptConfig::pl()).program;
        fn strip(b: &mut commopt_ir::Block) {
            b.0.retain(|s| !matches!(s, Stmt::Comm { transfer, .. } if transfer.0 == 0));
            for s in b.0.iter_mut() {
                if let Stmt::Repeat { body, .. } | Stmt::For { body, .. } = s {
                    strip(body);
                }
            }
        }
        strip(&mut broken.body);
        for lib in [Library::Pvm, Library::Shmem] {
            let r = Simulator::new(&broken, SimConfig::full(t3d(), lib, 4)).run();
            let err = reference.check(&r).unwrap_err();
            assert!(
                err.starts_with("array A[7, 2]: run NaN, reference "),
                "{lib:?}: {err}"
            );
        }
    }

    use commopt_ir::Program;
}
