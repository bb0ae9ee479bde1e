//! Golden commlint digests: the rendered report of `lint` — every finding's
//! severity, code, span and message, plus the summary line — hashed per
//! program × optimizer preset × problem sizing and compared against a
//! committed golden file.
//!
//! The programs are the paper suite, the Jacobi quickstart program and
//! `examples/stencil.zpl`; each is compiled at the quick sizing (16×16, two
//! iterations, as `perf --quick` runs it) and at its own (paper) sizing,
//! and optimized under every [`OptConfig::presets`] entry. Besides the
//! optimizer's output itself, each cell lints a fixed set of seeded
//! mutants built the way the cross-oracle test builds them: IRONMAN calls
//! deleted, duplicated or moved within their statement list, and writes or
//! non-local reads inserted. Mutants reach the error paths (missing and
//! stale ghosts, protocol violations, dead transfers) that clean optimizer
//! output never does.
//!
//! The goldens were generated before commlint's lattices were rewritten
//! as bitsets, so this test is the proof that the rewrite (and any later
//! analyzer work) leaves every report byte-identical.
//!
//! Regenerate (only when an *intentional* diagnostic change lands) with:
//!
//! ```text
//! COMMOPT_UPDATE_GOLDEN=1 cargo test -p commopt-bench --test golden_lint
//! ```

use commopt_analysis::lint;
use commopt_benchmarks::{jacobi_source, suite};
use commopt_core::{optimize, OptConfig};
use commopt_ir::analysis::{stmt_comm_refs, CommRef};
use commopt_ir::visit::walk_stmts;
use commopt_ir::{ArrayId, Block, Expr, Program, Region, Stmt};
use commopt_lang::Frontend;
use commopt_testkit::pool::{default_jobs, Pool};
use commopt_testkit::Rng;

const STENCIL_SOURCE: &str = include_str!("../../../examples/stencil.zpl");

/// Mutants linted per cell, besides the unmutated optimizer output.
const MUTANTS: usize = 40;

/// FNV-1a, 64-bit.
fn fnv(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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

/// What mutations may draw on: the program's assignment regions and its
/// non-local references, in first-appearance order.
struct Palette {
    regions: Vec<Region>,
    refs: Vec<CommRef>,
    arrays: u32,
}

impl Palette {
    fn of(program: &Program) -> Palette {
        let mut regions = Vec::new();
        let mut refs = Vec::new();
        walk_stmts(&program.body, &mut |s| {
            if let Stmt::Assign { region, .. } = s {
                if !regions.contains(region) {
                    regions.push(*region);
                }
            }
            for r in stmt_comm_refs(s) {
                if !refs.contains(&r) {
                    refs.push(r);
                }
            }
        });
        Palette {
            regions,
            refs,
            arrays: program.arrays.len() as u32,
        }
    }
}

/// One random mutation. Communication calls only ever move, duplicate, or
/// die *within* their own statement list.
fn mutate(rng: &mut Rng, palette: &Palette, program: &mut Program) {
    let lists = count_lists(&program.body);
    let target = rng.usize(0, lists - 1);
    let choice = rng.u32(0, 4);
    let region = *rng.pick(&palette.regions);
    let lhs = ArrayId(rng.u32(0, palette.arrays - 1));
    let read = *rng.pick(&palette.refs);
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
                stmts.insert(at, Stmt::assign(region, lhs, Expr::Const(7.0)));
            }
            // Insert a statement with a non-local read.
            _ => {
                let at = pick_a % (stmts.len() + 1);
                stmts.insert(
                    at,
                    Stmt::assign(region, lhs, Expr::at(read.array, read.offset)),
                );
            }
        }
    });
}

/// The linted programs as `(name, source)`.
fn programs() -> Vec<(&'static str, &'static str)> {
    let mut out: Vec<(&str, &str)> = suite().iter().map(|b| (b.name, b.source)).collect();
    out.push(("jacobi", jacobi_source()));
    out.push(("stencil", STENCIL_SOURCE));
    out
}

/// Every golden cell as one line, in a fixed order: the key, the finding
/// count of the optimizer's output, the digest of its rendered report, and
/// one digest over the rendered reports of all of the cell's mutants.
fn collect() -> Vec<String> {
    let mut cells = Vec::new();
    for (name, source) in programs() {
        for (sizing, quick) in [("quick", true), ("paper", false)] {
            let mut frontend = Frontend::new(source);
            if quick {
                frontend = frontend.with_config("n", 16).with_config("iters", 2);
            }
            let program = frontend.compile().unwrap_or_else(|e| panic!("{name}: {e}"));
            for (preset, cfg) in OptConfig::presets() {
                cells.push((
                    format!("{name}/{}/{sizing}", preset.replace(' ', "_")),
                    program.clone(),
                    cfg,
                ));
            }
        }
    }
    Pool::new(default_jobs()).map(cells, |ix, (key, source, cfg)| {
        let optimized = optimize(&source, &cfg).program;
        let base = lint(&optimized);
        let palette = Palette::of(&optimized);
        let mut rng = Rng::new(0x11e7_0000 + ix as u64);
        let mut mutants = String::new();
        for _ in 0..MUTANTS {
            let mut program = optimized.clone();
            for _ in 0..rng.usize(1, 4) {
                mutate(&mut rng, &palette, &mut program);
            }
            mutants.push_str(&lint(&program).render());
        }
        format!(
            "{key} {} {:016x} {:016x}",
            base.diagnostics.len(),
            fnv(&base.render()),
            fnv(&mutants)
        )
    })
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden_lint.txt")
}

#[test]
fn lint_reports_match_committed_goldens() {
    let cells = collect();
    let path = golden_path();
    if std::env::var_os("COMMOPT_UPDATE_GOLDEN").is_some() {
        let rendered: String = cells.iter().map(|c| format!("{c}\n")).collect();
        std::fs::write(&path, rendered).expect("write goldens");
        eprintln!(
            "golden_lint: wrote {} cells to {}",
            cells.len(),
            path.display()
        );
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\n(generate with COMMOPT_UPDATE_GOLDEN=1 cargo test -p commopt-bench --test golden_lint)",
            path.display()
        )
    });
    let want: Vec<&str> = committed.lines().collect();
    assert_eq!(
        want.len(),
        cells.len(),
        "golden file has {} cells, this build produces {}",
        want.len(),
        cells.len()
    );
    let bad: Vec<String> = want
        .iter()
        .zip(&cells)
        .filter(|(w, got)| *w != got)
        .map(|(w, got)| format!("golden {w}\n   got {got}"))
        .collect();
    assert!(
        bad.is_empty(),
        "{} cell(s) diverged from the committed lint goldens:\n{}",
        bad.len(),
        bad.join("\n")
    );
}
