//! Cross-oracle property tests: the static analyzer's verdicts must agree,
//! class by class, with the dynamic `verify_plan` checker on randomly
//! mutated optimizer output.
//!
//! 200 seeded cases each build a random source program (one loop, or, in
//! a second run of 200, loops nested up to three deep), optimize it under a
//! random preset, then apply up to four random mutations (deleting,
//! duplicating, or moving IRONMAN calls within their statement list;
//! inserting writes or non-local reads). For every mutant:
//!
//! * C001 findings match `MissingCommunication`/`StaleData` errors as a
//!   multiset of `(span, ref)` pairs;
//! * W101 findings match `VolatileSource` errors as a multiset of
//!   `(span, transfer)` pairs;
//! * the C006 count equals the `CallOrder` + `CallMultiplicity` count.
//!
//! C005 (unsafe hoist) is intentionally absent from the comparison: it is a
//! *stronger* static diagnosis with no dynamic counterpart — it fires at
//! the SR when a later def invalidates the hoisted send, a situation the
//! dynamic checker reports downstream as stale or volatile data, or not at
//! all when the read happens to tolerate it. Mutations keep each
//! transfer's calls inside the statement list the optimizer placed them
//! in, matching the per-block call-scoping both checkers share.

use commopt_analysis::{lint, Code};
use commopt_core::{optimize, verify_plan, OptConfig, PlanError};
use commopt_ir::analysis::{CommRef, Span};
use commopt_ir::offset::compass;
use commopt_ir::{
    ArrayId, Block, CallKind, Expr, Offset, Program, ProgramBuilder, Stmt, TransferId, TransferItem,
};
use commopt_testkit::{cases, Rng};

const N: i64 = 12;
const NUM_ARRAYS: u32 = 5;

fn interior() -> commopt_ir::Region {
    commopt_ir::Region::d2((2, N - 1), (2, N - 1))
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
    Expr::at(ArrayId(rng.u32(0, NUM_ARRAYS - 1)), *rng.pick(&offsets))
}

fn arb_rhs(rng: &mut Rng) -> Expr {
    rng.vec_of(1, 3, arb_ref)
        .into_iter()
        .reduce(|a, b| a + b)
        .expect("at least one ref")
}

fn arb_program(rng: &mut Rng) -> Program {
    let pre = rng.vec_of(0, 5, |r| (r.u32(0, NUM_ARRAYS - 1), arb_rhs(r)));
    let body = rng.vec_of(1, 7, |r| (r.u32(0, NUM_ARRAYS - 1), arb_rhs(r)));
    let post = rng.vec_of(0, 3, |r| (r.u32(0, NUM_ARRAYS - 1), arb_rhs(r)));
    let trips = rng.i64(1, 3) as u64;
    let mut b = ProgramBuilder::new("oracle");
    for i in 0..NUM_ARRAYS {
        b.array(format!("A{i}"), commopt_ir::Rect::d2((1, N), (1, N)));
    }
    let emit = |b: &mut ProgramBuilder, stmts: &[(u32, Expr)]| {
        for (lhs, rhs) in stmts {
            b.assign(interior(), ArrayId(*lhs), rhs.clone());
        }
    };
    emit(&mut b, &pre);
    b.repeat(trips, |b| emit(b, &body));
    emit(&mut b, &post);
    b.finish()
}

/// A statement of a generated loop nest: an assignment, or a `repeat`
/// around a nested list.
enum Item {
    Assign(u32, Expr),
    Repeat(u64, Vec<Item>),
}

/// A statement list at nesting `depth`, with loops nested up to three
/// deep below the top level.
fn arb_items(rng: &mut Rng, depth: usize) -> Vec<Item> {
    rng.vec_of(1, 4, |r| {
        if depth < 3 && r.u32(0, 2) == 0 {
            Item::Repeat(r.i64(1, 3) as u64, arb_items(r, depth + 1))
        } else {
            Item::Assign(r.u32(0, NUM_ARRAYS - 1), arb_rhs(r))
        }
    })
}

/// Like [`arb_program`], with a loop nest in place of the single loop.
fn arb_nested_program(rng: &mut Rng) -> Program {
    fn emit(b: &mut ProgramBuilder, items: &[Item]) {
        for item in items {
            match item {
                Item::Assign(lhs, rhs) => {
                    b.assign(interior(), ArrayId(*lhs), rhs.clone());
                }
                Item::Repeat(trips, body) => {
                    b.repeat(*trips, |b| emit(b, body));
                }
            }
        }
    }
    let pre = arb_items(rng, 1);
    let body = arb_items(rng, 1);
    let trips = rng.i64(1, 3) as u64;
    let mut b = ProgramBuilder::new("oracle-nested");
    for i in 0..NUM_ARRAYS {
        b.array(format!("A{i}"), commopt_ir::Rect::d2((1, N), (1, N)));
    }
    emit(&mut b, &pre);
    b.repeat(trips, |b| emit(b, &body));
    b.finish()
}

/// Number of statement lists in the block tree (the body plus one per loop).
fn count_lists(block: &Block) -> usize {
    let mut n = 1;
    for s in block.iter() {
        if let Stmt::Repeat { body, .. } | Stmt::For { body, .. } = s {
            n += count_lists(body);
        }
    }
    n
}

/// Applies `f` to the `target`-th statement list, in pre-order.
fn with_list(block: &mut Block, target: usize, f: &mut impl FnMut(&mut Vec<Stmt>)) -> bool {
    fn go(
        block: &mut Block,
        target: usize,
        next: &mut usize,
        f: &mut impl FnMut(&mut Vec<Stmt>),
    ) -> bool {
        if *next == target {
            f(&mut block.0);
            return true;
        }
        *next += 1;
        for s in block.0.iter_mut() {
            if let Stmt::Repeat { body, .. } | Stmt::For { body, .. } = s {
                if go(body, target, next, f) {
                    return true;
                }
            }
        }
        false
    }
    let mut next = 0;
    go(block, target, &mut next, f)
}

/// One random mutation. Communication calls only ever move, duplicate, or
/// die *within* their own statement list.
fn mutate(rng: &mut Rng, program: &mut Program) {
    let lists = count_lists(&program.body);
    let target = rng.usize(0, lists - 1);
    let choice = rng.u32(0, 4);
    let mut ref_rhs = None;
    if choice == 4 {
        ref_rhs = Some(arb_rhs(rng));
    }
    let write_lhs = ArrayId(rng.u32(0, NUM_ARRAYS - 1));
    let (pick_a, pick_b) = (rng.next_u64() as usize, rng.next_u64() as usize);
    with_list(&mut program.body, target, &mut |stmts| {
        let comm_positions: Vec<usize> = stmts
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, Stmt::Comm { .. }))
            .map(|(i, _)| i)
            .collect();
        match choice {
            // Delete a communication call.
            0 => {
                if !comm_positions.is_empty() {
                    stmts.remove(comm_positions[pick_a % comm_positions.len()]);
                }
            }
            // Duplicate a communication call in place.
            1 => {
                if !comm_positions.is_empty() {
                    let at = comm_positions[pick_a % comm_positions.len()];
                    let dup = stmts[at].clone();
                    stmts.insert(at, dup);
                }
            }
            // Move a communication call elsewhere in the same list.
            2 => {
                if !comm_positions.is_empty() {
                    let from = comm_positions[pick_a % comm_positions.len()];
                    let stmt = stmts.remove(from);
                    let to = pick_b % (stmts.len() + 1);
                    stmts.insert(to, stmt);
                }
            }
            // Insert a write of a random array.
            3 => {
                let at = pick_a % (stmts.len() + 1);
                stmts.insert(at, Stmt::assign(interior(), write_lhs, Expr::Const(7.0)));
            }
            // Insert a statement with fresh non-local reads.
            _ => {
                let at = pick_a % (stmts.len() + 1);
                stmts.insert(
                    at,
                    Stmt::assign(interior(), write_lhs, ref_rhs.take().expect("prepared rhs")),
                );
            }
        }
    });
}

fn verify_errors(program: &Program) -> Vec<PlanError> {
    match verify_plan(program) {
        Ok(()) => Vec::new(),
        Err(errs) => errs,
    }
}

#[test]
fn static_verdicts_agree_with_dynamic_oracle_on_200_mutants() {
    cases(200, |rng| check_mutant(rng, arb_program));
}

#[test]
fn static_verdicts_agree_with_dynamic_oracle_on_nested_loop_mutants() {
    cases(200, |rng| check_mutant(rng, arb_nested_program));
}

/// Draws a source program with `arb`, optimizes it under a random preset,
/// applies up to four random mutations, and checks that both checkers
/// agree class by class.
fn check_mutant(rng: &mut Rng, arb: fn(&mut Rng) -> Program) {
    let source = arb(rng);
    let presets = OptConfig::presets();
    let (_, cfg) = &presets[rng.usize(0, presets.len() - 1)];
    let mut program = optimize(&source, cfg).program;
    for _ in 0..rng.usize(0, 4) {
        mutate(rng, &mut program);
    }

    let report = lint(&program);
    let errs = verify_errors(&program);
    let text = commopt_ir::display::program_to_string(&program);

    // C001 <=> MissingCommunication + StaleData, as (span, ref) pairs.
    let mut c001: Vec<(Span, CommRef)> = report
        .with_code(Code::C001)
        .map(|d| (d.span.clone(), d.r.expect("C001 carries its ref")))
        .collect();
    let mut dynamic_reads: Vec<(Span, CommRef)> = errs
        .iter()
        .filter_map(|e| match e {
            PlanError::MissingCommunication { span, r } | PlanError::StaleData { span, r } => {
                Some((span.clone(), *r))
            }
            _ => None,
        })
        .collect();
    c001.sort();
    dynamic_reads.sort();
    assert_eq!(
        c001,
        dynamic_reads,
        "C001 disagreement\nlint:\n{}\nverify: {errs:?}\nprogram:\n{text}",
        report.render()
    );

    // W101 <=> VolatileSource, as (span, transfer) pairs.
    let mut w101: Vec<(Span, TransferId)> = report
        .with_code(Code::W101)
        .map(|d| (d.span.clone(), d.transfer.expect("W101 carries a transfer")))
        .collect();
    let mut volatile: Vec<(Span, TransferId)> = errs
        .iter()
        .filter_map(|e| match e {
            PlanError::VolatileSource { span, transfer, .. } => Some((span.clone(), *transfer)),
            _ => None,
        })
        .collect();
    w101.sort();
    volatile.sort();
    assert_eq!(
        w101,
        volatile,
        "W101 disagreement\nlint:\n{}\nverify: {errs:?}\nprogram:\n{text}",
        report.render()
    );

    // C006 count <=> protocol error count.
    let protocol = errs
        .iter()
        .filter(|e| {
            matches!(
                e,
                PlanError::CallOrder { .. } | PlanError::CallMultiplicity { .. }
            )
        })
        .count();
    assert_eq!(
        report.count(Code::C006),
        protocol,
        "C006 disagreement\nlint:\n{}\nverify: {errs:?}\nprogram:\n{text}",
        report.render()
    );
}

#[test]
fn unmutated_optimizer_output_is_error_free_at_every_preset() {
    cases(32, |rng| {
        let source = arb_program(rng);
        for (name, cfg) in OptConfig::presets() {
            let program = optimize(&source, &cfg).program;
            let report = lint(&program);
            assert!(
                report.error_free(),
                "{name} output has error findings:\n{}",
                report.render()
            );
            assert!(verify_plan(&program).is_ok());
        }
    });
}

#[test]
fn dn_takes_its_sr_from_its_own_list_in_both_checkers() {
    // X := 1; DR t; SR t; X := 2; repeat 2 { SR t }; DN t; A := X@east; SV t
    // The SR in the loop body belongs to another statement list, so the DN
    // snapshots X at the first SR, before X := 2: the read at s6 is stale.
    let region = interior();
    let mut p = Program::new("two-lists");
    let x = p.add_array("X", commopt_ir::Rect::d2((1, N), (1, N)));
    let a = p.add_array("A", commopt_ir::Rect::d2((1, N), (1, N)));
    let t = p.add_transfer(vec![TransferItem::new(x, compass::EAST, region)]);
    p.body = Block::new(vec![
        Stmt::assign(region, x, Expr::Const(1.0)),
        Stmt::comm(CallKind::DR, t),
        Stmt::comm(CallKind::SR, t),
        Stmt::assign(region, x, Expr::Const(2.0)),
        Stmt::Repeat {
            count: 2,
            body: Block::new(vec![Stmt::comm(CallKind::SR, t)]),
        },
        Stmt::comm(CallKind::DN, t),
        Stmt::assign(region, a, Expr::at(x, compass::EAST)),
        Stmt::comm(CallKind::SV, t),
    ]);
    let stale = CommRef {
        array: x,
        offset: compass::EAST,
    };
    let report = lint(&p);
    let c001: Vec<(String, &str)> = report
        .with_code(Code::C001)
        .map(|d| (d.span.to_string(), d.message.as_str()))
        .collect();
    assert_eq!(
        c001,
        vec![(
            "s6".to_string(),
            "stale ghost data: X@east was written after t0's SR"
        )],
        "{}",
        report.render()
    );
    assert!(verify_errors(&p).iter().any(|e| matches!(
        e,
        PlanError::StaleData { span, r } if span.to_string() == "s6" && *r == stale
    )));
}
