//! The ultimate end-to-end randomized test: for random programs, random
//! optimizer configurations, random processor grids, and every
//! communication library, the distributed simulation's numerics equal the
//! independent sequential interpreter's.
//!
//! This closes the loop between the static safety checker (commlint) and
//! the runtime: an optimizer bug that slipped both the planner and commlint
//! would surface here as NaN ghosts or stale values.

use commopt_core::{optimize, CombineMode, OptConfig};
use commopt_ir::offset::compass;
use commopt_ir::{Expr, Offset, Program, ProgramBuilder, Rect, ReduceOp, Region};
use commopt_ironman::Library;
use commopt_machine::MachineSpec;
use commopt_sim::{SeqInterp, SimConfig, Simulator};
use commopt_testkit::{cases, Rng};

const N: i64 = 10;
const NUM_ARRAYS: u32 = 4;

fn interior() -> Region {
    Region::d2((2, N - 1), (2, N - 1))
}

fn arb_ref(rng: &mut Rng) -> Expr {
    let offsets: [Offset; 9] = [
        Offset::ZERO,
        compass::EAST,
        compass::WEST,
        compass::NORTH,
        compass::SOUTH,
        compass::SE,
        compass::NE,
        compass::SW,
        compass::NW,
    ];
    Expr::at(
        commopt_ir::ArrayId(rng.u32(0, NUM_ARRAYS - 1)),
        *rng.pick(&offsets),
    )
}

fn arb_rhs(rng: &mut Rng) -> Expr {
    let refs = rng.vec_of(1, 3, arb_ref);
    // Average the refs (keeps values bounded over iterations).
    let n = refs.len() as f64;
    let sum = refs.into_iter().reduce(|a, b| a + b).expect("non-empty");
    sum * Expr::Const(1.0 / n)
}

/// Initial values, the statements before the loop, a loop, and the
/// statements after it. The loop is a `repeat` over the interior, or an
/// upward or downward row sweep whose body works on row `i`; a sweep runs
/// zero times when its bounds cross.
fn arb_program(rng: &mut Rng) -> Program {
    let pre = rng.vec_of(1, 4, |r| (r.u32(0, NUM_ARRAYS - 1), arb_rhs(r)));
    let body = rng.vec_of(1, 5, |r| (r.u32(0, NUM_ARRAYS - 1), arb_rhs(r)));
    let post = rng.vec_of(0, 2, |r| (r.u32(0, NUM_ARRAYS - 1), arb_rhs(r)));
    let trips = rng.i64(1, 2) as u64;
    let sweep = rng.u32(0, 2);
    let (first, last) = (rng.i64(2, N - 1), rng.i64(1, N - 1));
    let with_reduce = rng.bool();
    let mut b = ProgramBuilder::new("prop");
    let bounds = Rect::d2((1, N), (1, N));
    for i in 0..NUM_ARRAYS {
        b.array(format!("A{i}"), bounds);
    }
    let s = b.scalar("acc", 0.0);
    // Distinct initial contents per array.
    for i in 0..NUM_ARRAYS {
        b.assign(
            Region::from_rect(bounds),
            commopt_ir::ArrayId(i),
            Expr::Index(0) * Expr::Const(0.1 * (i + 1) as f64) + Expr::Index(1),
        );
    }
    let emit = |b: &mut ProgramBuilder, region: Region, stmts: &[(u32, Expr)]| {
        for (lhs, rhs) in stmts {
            b.assign(region, commopt_ir::ArrayId(*lhs), rhs.clone());
        }
    };
    let loop_body = |b: &mut ProgramBuilder, region: Region| {
        emit(b, region, &body);
        if with_reduce {
            b.reduce(
                s,
                ReduceOp::Sum,
                region,
                Expr::local(commopt_ir::ArrayId(0)),
            );
        }
    };
    let row = |i| Region::row2(i, (2, N - 1));
    emit(&mut b, interior(), &pre);
    match sweep {
        0 => b.repeat(trips, |b| loop_body(b, interior())),
        1 => b.for_up("i", first, last, |b, i| loop_body(b, row(i))),
        _ => b.for_down("i", last, first, |b, i| loop_body(b, row(i))),
    };
    emit(&mut b, interior(), &post);
    b.finish()
}

/// Runs `plan` in full mode and compares every array with the sequential
/// run of `source`.
fn compare(source: &Program, plan: &Program, library: Library, procs: usize) -> Result<(), String> {
    let reference = SeqInterp::run(source);
    let r = Simulator::new(plan, SimConfig::full(MachineSpec::t3d(), library, procs))
        .try_run()
        .map_err(|e| format!("run failed: {e} ({library:?}, {procs}p)"))?;
    for a in &source.arrays {
        let xs = reference.array(&a.name).expect("reference array");
        let ys = r.array(&a.name).expect("simulated array");
        for (i, (x, y)) in xs.iter().zip(ys).enumerate() {
            if !(x.is_finite() && y.is_finite()) || (x - y).abs() > 1e-9 * x.abs().max(1.0) {
                return Err(format!(
                    "{}[{i}]: {x} vs {y} ({library:?}, {procs}p)",
                    a.name
                ));
            }
        }
    }
    Ok(())
}

fn check(p: &Program, cfg: &OptConfig, library: Library, procs: usize) -> Result<(), String> {
    compare(p, &optimize(p, cfg).program, library, procs).map_err(|e| format!("{e} {cfg:?}"))
}

#[test]
fn distributed_equals_sequential_for_presets() {
    cases(48, |rng| {
        let p = arb_program(rng);
        let procs = rng.usize(1, 9);
        for (_, cfg) in OptConfig::presets() {
            if let Err(e) = check(&p, &cfg, Library::Pvm, procs) {
                panic!("{e}");
            }
        }
    });
}

#[test]
fn distributed_equals_sequential_for_random_configs() {
    cases(48, |rng| {
        let p = arb_program(rng);
        let cfg = OptConfig {
            redundant_removal: rng.bool(),
            combine: *rng.pick(&[
                CombineMode::Off,
                CombineMode::MaxCombining,
                CombineMode::MaxLatencyHiding,
            ]),
            pipeline: rng.bool(),
            max_combined_items: None,
        };
        let lib = *rng.pick(&[Library::Pvm, Library::Shmem]);
        if let Err(e) = check(&p, &cfg, lib, 4) {
            panic!("{e}");
        }
    });
}

/// `pl` followed by the cross-block pass.
fn global_plan(p: &Program) -> Program {
    let mut program = optimize(p, &OptConfig::pl()).program;
    commopt_core::global_pass(&mut program);
    program
}

#[test]
fn global_pass_preserves_numerics() {
    cases(48, |rng| {
        let p = arb_program(rng);
        let procs = rng.usize(1, 9);
        if let Err(e) = compare(&p, &global_plan(&p), Library::Pvm, procs) {
            panic!("{e} after global pass");
        }
    });
}

#[test]
fn global_pass_keeps_a_transfer_a_row_sweep_covers_in_part() {
    // for i := 2 .. hi { [i, 2..N-1] A := B@east }  [interior] C := B@east
    // The sweep delivers B@east a row at a time, and not at all when
    // hi = 1, so the read after it needs its own transfer.
    for hi in [3, 1] {
        let mut b = ProgramBuilder::new("sweep-then-read");
        let bounds = Rect::d2((1, N), (1, N));
        let [bb, a, c] = b.arrays(["B", "A", "C"], bounds);
        b.assign(
            Region::from_rect(bounds),
            bb,
            Expr::Index(0) * Expr::Const(0.1) + Expr::Index(1),
        );
        b.for_up("i", 2, hi, |b, i| {
            b.assign(Region::row2(i, (2, N - 1)), a, Expr::at(bb, compass::EAST));
        });
        b.assign(interior(), c, Expr::at(bb, compass::EAST));
        let p = b.finish();
        if let Err(e) = compare(&p, &global_plan(&p), Library::Pvm, 4) {
            panic!("hi = {hi}: {e} after global pass");
        }
    }
}

#[test]
fn timing_metrics_are_sane() {
    cases(48, |rng| {
        let p = arb_program(rng);
        let opt = optimize(&p, &OptConfig::pl());
        let r = Simulator::new(
            &opt.program,
            SimConfig::timing(MachineSpec::t3d(), Library::Pvm, 4),
        )
        .run();
        assert!(r.time_s > 0.0);
        assert!(r.comm_time_s >= 0.0);
        assert!(r.compute_time_s > 0.0);
        assert!(r.comm_time_s + r.compute_time_s <= r.time_s * 1.0001 + 1e-9);
        assert_eq!(r.dynamic_comm, commopt_core::dynamic_count(&opt.program));
        assert!(r.per_proc_time_s.iter().all(|t| *t <= r.time_s + 1e-12));
    });
}
