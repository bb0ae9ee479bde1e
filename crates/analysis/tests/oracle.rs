//! Static-vs-dynamic property tests: every mutant commlint calls safe
//! must run exactly.
//!
//! 200 seeded cases each build a random source program (one loop, or, in
//! a second run of 200, loops nested up to three deep), optimize it under a
//! random preset, then apply up to four random mutations (deleting,
//! duplicating, or moving IRONMAN calls within their statement list;
//! inserting writes or non-local reads). Each mutant that commlint finds
//! safe ([`LintReport::safe`]) runs in full mode on 4 processors over PVM,
//! where ghost cells start as NaN and only executed transfers fill them.
//! The run must finish with no [`SimError`](commopt_sim::SimError) and
//! pass [`SeqInterp::check`] against the sequential interpreter's run of
//! the mutant, which skips its communication calls: every array bit for
//! bit, every scalar within 1e-12 relative. A floor on the number of safe
//! mutants keeps the test from passing vacuously.
//!
//! The reverse direction is not asserted: a mutant commlint rejects may
//! still compute the right values in this one run, for instance when the
//! ghost it reads stale holds the same values as the current array.
//!
//! Each of the 400 source programs also checks what `lint_golden` checks
//! on the paper suite: commlint's C003 findings on the vectorization-only
//! plan name exactly the references the rr pass removes, and its C004
//! findings carry exactly the offsets of the cc pass's merges.
//!
//! [`LintReport::safe`]: commopt_analysis::LintReport::safe

use commopt_analysis::{lint, Code};
use commopt_core::{optimize, OptConfig, PassEvent};
use commopt_ir::offset::compass;
use commopt_ir::{ArrayId, Block, Expr, Offset, Program, ProgramBuilder, Stmt};
use commopt_ironman::Library;
use commopt_machine::MachineSpec;
use commopt_sim::{SeqInterp, SimConfig, Simulator};
use commopt_testkit::{cases, Rng};
use std::sync::atomic::{AtomicUsize, Ordering};

const N: i64 = 12;
const NUM_ARRAYS: u32 = 5;
/// The fewest safe mutants either 200-case test accepts.
const SAFE_FLOOR: usize = 45;

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

#[test]
fn safe_mutants_run_exactly() {
    let safe = AtomicUsize::new(0);
    cases(200, |rng| check_mutant(rng, arb_program, &safe));
    let safe = safe.into_inner();
    assert!(safe >= SAFE_FLOOR, "only {safe} of 200 mutants were safe");
}

#[test]
fn safe_nested_loop_mutants_run_exactly() {
    let safe = AtomicUsize::new(0);
    cases(200, |rng| check_mutant(rng, arb_nested_program, &safe));
    let safe = safe.into_inner();
    assert!(safe >= SAFE_FLOOR, "only {safe} of 200 mutants were safe");
}

/// Draws a source program with `arb`, optimizes it under a random preset,
/// applies up to four random mutations, and, when commlint finds the
/// mutant safe, checks that it runs exactly in full mode (counting it in
/// `safe`).
fn check_mutant(rng: &mut Rng, arb: fn(&mut Rng) -> Program, safe: &AtomicUsize) {
    let source = arb(rng);
    check_headroom_matches_passes(&source);
    let presets = OptConfig::presets();
    let (_, cfg) = &presets[rng.usize(0, presets.len() - 1)];
    let mut program = optimize(&source, cfg).program;
    for _ in 0..rng.usize(0, 4) {
        mutate(rng, &mut program);
    }
    if !lint(&program).safe() {
        return;
    }
    safe.fetch_add(1, Ordering::Relaxed);

    let text = commopt_ir::display::program_to_string(&program);
    // The sequential interpreter skips communication calls, so this runs
    // the mutant's source.
    let reference = SeqInterp::run(&program);
    let run = Simulator::new(
        &program,
        SimConfig::full(MachineSpec::t3d(), Library::Pvm, 4),
    )
    .try_run()
    .unwrap_or_else(|e| panic!("safe mutant failed to run: {e}\nprogram:\n{text}"));
    if let Err(e) = reference.check(&run) {
        panic!("safe mutant fails the reference check: {e}\nprogram:\n{text}");
    }
}

fn sorted<T: Ord>(mut items: Vec<T>) -> Vec<T> {
    items.sort();
    items
}

/// C003 at `vect` names the `(array, offset)` multiset rr removes, and the
/// offsets of C004's transfers are the offsets cc merges.
fn check_headroom_matches_passes(source: &Program) {
    let vect = optimize(source, &OptConfig::baseline()).program;
    let report = lint(&vect);
    let c003 = report
        .with_code(Code::C003)
        .map(|d| d.r.expect("C003 names its reference"))
        .map(|r| (r.array, r.offset));
    let c004 = report.with_code(Code::C004).map(|d| {
        vect.transfer(d.transfer.expect("C004 names its transfer"))
            .offset()
    });
    let rr = optimize(source, &OptConfig::rr()).log.events;
    let removed = rr.iter().filter_map(|e| match e {
        PassEvent::Removed { array, offset, .. } => Some((*array, *offset)),
        _ => None,
    });
    let cc = optimize(source, &OptConfig::cc()).log.events;
    let merged = cc.iter().filter_map(|e| match e {
        PassEvent::Combined { offset, .. } => Some(*offset),
        _ => None,
    });
    let text = commopt_ir::display::program_to_string(source);
    assert_eq!(
        sorted(c003.collect()),
        sorted(removed.collect()),
        "C003 findings at vect vs rr removals\nprogram:\n{text}"
    );
    assert_eq!(
        sorted(c004.collect()),
        sorted(merged.collect()),
        "offsets of C004 findings at vect vs cc merges\nprogram:\n{text}"
    );
}

#[test]
fn unmutated_optimizer_output_is_safe_at_every_preset() {
    cases(32, |rng| {
        let source = arb_program(rng);
        for (name, cfg) in OptConfig::presets() {
            let program = optimize(&source, &cfg).program;
            let report = lint(&program);
            assert!(
                report.safe(),
                "{name} output is unsafe:\n{}",
                report.render()
            );
        }
    });
}
