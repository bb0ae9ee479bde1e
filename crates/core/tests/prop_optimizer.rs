//! Randomized tests: every optimizer configuration must produce a
//! communication-safe plan for arbitrary programs, and the paper's count
//! orderings must hold (baseline ≥ rr ≥ cc statically and dynamically).
//! Programs are generated from seeded commopt-testkit generators.

use commopt_analysis::lint;
use commopt_core::{dynamic_count, optimize, CombineMode, OptConfig};
use commopt_ir::offset::compass;
use commopt_ir::{validate, Expr, Offset, Program, ProgramBuilder, Rect, Region};
use commopt_testkit::{cases, Rng};

const N: i64 = 12;
const NUM_ARRAYS: u32 = 5;

fn bounds() -> Rect {
    Rect::d2((1, N), (1, N))
}

fn interior() -> Region {
    Region::d2((2, N - 1), (2, N - 1))
}

/// A random shifted or local reference.
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

/// A random RHS combining 1–3 references.
fn arb_rhs(rng: &mut Rng) -> Expr {
    rng.vec_of(1, 3, arb_ref)
        .into_iter()
        .reduce(|a, b| a + b)
        .expect("at least one ref")
}

/// One random statement: (lhs array, rhs).
type RandStmt = (u32, Expr);

fn arb_stmt(rng: &mut Rng) -> RandStmt {
    (rng.u32(0, NUM_ARRAYS - 1), arb_rhs(rng))
}

/// A random program: a straight-line prologue, a repeat loop, an epilogue.
fn arb_program(rng: &mut Rng) -> Program {
    let pre = rng.vec_of(0, 5, arb_stmt);
    let body = rng.vec_of(1, 7, arb_stmt);
    let post = rng.vec_of(0, 3, arb_stmt);
    let trips = rng.i64(1, 3) as u64;
    let mut b = ProgramBuilder::new("prop");
    for i in 0..NUM_ARRAYS {
        b.array(format!("A{i}"), bounds());
    }
    let emit = |b: &mut ProgramBuilder, stmts: &[RandStmt]| {
        for (lhs, rhs) in stmts {
            b.assign(interior(), commopt_ir::ArrayId(*lhs), rhs.clone());
        }
    };
    emit(&mut b, &pre);
    b.repeat(trips, |b| emit(b, &body));
    emit(&mut b, &post);
    b.finish()
}

#[test]
fn generated_programs_are_valid() {
    cases(128, |rng| {
        assert!(validate(&arb_program(rng)).is_ok());
    });
}

#[test]
fn every_preset_produces_safe_plans() {
    cases(128, |rng| {
        let p = arb_program(rng);
        for (name, cfg) in OptConfig::presets() {
            let opt = optimize(&p, &cfg);
            let report = lint(&opt.program);
            assert!(
                report.safe(),
                "{name} produced unsafe plan:\n{}",
                report.render()
            );
        }
    });
}

#[test]
fn independent_toggles_produce_safe_plans() {
    cases(128, |rng| {
        let p = arb_program(rng);
        let combine = *rng.pick(&[
            CombineMode::Off,
            CombineMode::MaxCombining,
            CombineMode::MaxLatencyHiding,
        ]);
        let cap = if rng.bool() {
            Some(rng.usize(1, 3))
        } else {
            None
        };
        let cfg = OptConfig {
            redundant_removal: rng.bool(),
            combine,
            pipeline: rng.bool(),
            max_combined_items: cap,
        };
        let opt = optimize(&p, &cfg);
        let report = lint(&opt.program);
        assert!(
            report.safe(),
            "unsafe plan for {cfg:?}:\n{}",
            report.render()
        );
    });
}

#[test]
fn count_orderings_match_paper() {
    cases(128, |rng| {
        let p = arb_program(rng);
        let base = optimize(&p, &OptConfig::baseline());
        let rr = optimize(&p, &OptConfig::rr());
        let cc = optimize(&p, &OptConfig::cc());
        let pl = optimize(&p, &OptConfig::pl());
        let ml = optimize(&p, &OptConfig::pl_max_latency());

        // Static: baseline >= rr >= cc; pipelining never changes counts.
        assert!(base.static_count() >= rr.static_count());
        assert!(rr.static_count() >= cc.static_count());
        assert_eq!(cc.static_count(), pl.static_count());
        // Max-latency combining never combines more than max combining.
        assert!(ml.static_count() >= pl.static_count());
        assert!(ml.static_count() <= rr.static_count());

        // Dynamic mirrors static orderings.
        assert!(dynamic_count(&base.program) >= dynamic_count(&rr.program));
        assert!(dynamic_count(&rr.program) >= dynamic_count(&cc.program));
        assert_eq!(dynamic_count(&cc.program), dynamic_count(&pl.program));
    });
}

#[test]
fn global_pass_is_safe_and_monotone() {
    cases(128, |rng| {
        let p = arb_program(rng);
        for (_, cfg) in OptConfig::presets() {
            let opt = optimize(&p, &cfg);
            let before = dynamic_count(&opt.program);
            let mut program = opt.program.clone();
            let stats = commopt_core::global_pass(&mut program);
            let report = lint(&program);
            assert!(
                report.safe(),
                "global pass produced unsafe plan:\n{}",
                report.render()
            );
            let after = dynamic_count(&program);
            assert!(
                after <= before,
                "global pass increased counts: {after} > {before}"
            );
            if stats.removed == 0 && stats.hoisted == 0 {
                assert_eq!(after, before);
            }
            assert_eq!(
                program.transfers.len() as u64,
                opt.program.transfers.len() as u64 - stats.removed
            );
        }
    });
}

#[test]
fn optimization_is_deterministic() {
    cases(64, |rng| {
        let p = arb_program(rng);
        for (_, cfg) in OptConfig::presets() {
            let a = optimize(&p, &cfg);
            let b = optimize(&p, &cfg);
            assert_eq!(a.program, b.program);
        }
    });
}

#[test]
fn combination_preserves_total_items() {
    cases(128, |rng| {
        // cc merges messages but never changes the data volume: the multiset
        // of carried (array, offset) items equals rr's.
        let p = arb_program(rng);
        let rr = optimize(&p, &OptConfig::rr());
        let cc = optimize(&p, &OptConfig::cc());
        let items = |o: &commopt_core::Optimized| {
            let mut v: Vec<(u32, Offset)> = o
                .program
                .transfers
                .iter()
                .flat_map(|t| t.items.iter().map(|i| (i.array.0, i.offset)))
                .collect();
            v.sort();
            v
        };
        assert_eq!(items(&rr), items(&cc));
    });
}
