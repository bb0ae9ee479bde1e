//! Rebuilding the program with IRONMAN calls inserted at the planned gaps.

use crate::block::{segments, BlockInfo, Segment};
use crate::config::OptConfig;
use crate::passlog::{PassEvent, PassLog};
use crate::planner::{plan_block_logged, PlannedComm};
use commopt_ir::{Block, CallKind, Program, Stmt, TransferId, TransferItem};

/// The result of optimization: the instrumented program plus the
/// configuration that produced it and a log of every pass decision.
#[derive(Clone, Debug)]
pub struct Optimized {
    pub program: Program,
    pub config: OptConfig,
    /// What each pass did: removals, merges, and final placements
    /// (see [`PassLog`]).
    pub log: PassLog,
}

impl Optimized {
    /// The number of communications in the program text — the paper's
    /// *static count* (each communication is one DR/SR/DN/SV call set).
    pub fn static_count(&self) -> u64 {
        self.program.transfers.len() as u64
    }

    /// The paper's *dynamic count*: communications executed per processor
    /// over a full run (computed structurally from the loop nest).
    pub fn dynamic_count(&self) -> u64 {
        crate::counts::dynamic_count(&self.program)
    }
}

/// Optimizes every source-level basic block of `program` under `config`.
pub fn optimize_program(program: &Program, config: &OptConfig) -> Optimized {
    let mut out = program.clone();
    out.transfers.clear();
    let body = std::mem::take(&mut out.body);
    let mut log = PassLog::new();
    out.body = rebuild_block(&mut out, &body, config, &mut log);
    // In debug builds, cross-check the plan against the static analyzer:
    // optimizer output must never carry an error-severity commlint finding
    // (warnings are expected — e.g. C003/C004 headroom below `pl`).
    #[cfg(debug_assertions)]
    {
        let report = commopt_analysis::lint(&out);
        debug_assert!(
            report.error_free(),
            "optimizer produced a plan commlint rejects under {config:?}:\n{}",
            report.render()
        );
    }
    Optimized {
        program: out,
        config: *config,
        log,
    }
}

fn rebuild_block(
    program: &mut Program,
    block: &Block,
    config: &OptConfig,
    log: &mut PassLog,
) -> Block {
    let mut stmts = Vec::new();
    for seg in segments(&block.0) {
        match seg {
            Segment::Boundary(stmt) => {
                let rebuilt = match stmt {
                    Stmt::Repeat { count, body } => Stmt::Repeat {
                        count: *count,
                        body: rebuild_block(program, body, config, log),
                    },
                    Stmt::For {
                        var,
                        lo,
                        hi,
                        step,
                        body,
                    } => Stmt::For {
                        var: *var,
                        lo: *lo,
                        hi: *hi,
                        step: *step,
                        body: rebuild_block(program, body, config, log),
                    },
                    other => panic!("unexpected boundary statement {other:?}"),
                };
                stmts.push(rebuilt);
            }
            Segment::Straight(run) => {
                let owned: Vec<Stmt> = run.iter().map(|s| (*s).clone()).collect();
                assert!(
                    owned.iter().all(|s| s.is_source_stmt()),
                    "optimize() expects a source program without Comm statements"
                );
                let info = BlockInfo::from_stmts(&owned);
                let plan = plan_block_logged(&info, config, log);
                emit_block(program, &owned, &plan, config, log, &mut stmts);
            }
        }
    }
    Block::new(stmts)
}

/// Interleaves the planned calls with the source statements.
///
/// Within one gap the emission order is: all DR, all SR, all DN, all SV
/// (each group in plan order). This keeps SR ahead of DN for transfers
/// whose send and receive share a gap, and emits an unpipelined quad in the
/// canonical DR/SR/DN/SV order of the paper's §3.1 example.
fn emit_block(
    program: &mut Program,
    stmts: &[Stmt],
    plan: &[PlannedComm],
    config: &OptConfig,
    log: &mut PassLog,
    out: &mut Vec<Stmt>,
) {
    // Register transfers and collect (gap, kind, id) events.
    let mut events: Vec<(usize, CallKind, TransferId)> = Vec::new();
    for comm in plan {
        let items: Vec<TransferItem> = comm
            .items
            .iter()
            .map(|i| TransferItem {
                array: i.r.array,
                offset: i.r.offset,
                regions: i.regions.clone(),
            })
            .collect();
        let id = program.add_transfer(items);
        log.push(PassEvent::Emitted {
            seq: comm.seq,
            transfer: id,
            items: comm.items.len(),
            offset: comm.offset(),
            dr_gap: comm.dr_gap,
            sr_gap: comm.sr_gap,
            dn_gap: comm.dn_gap,
            sv_gap: comm.sv_gap,
            pipelined: config.pipeline,
            split: config.pipeline && comm.sr_gap < comm.dn_gap,
        });
        events.push((comm.dr_gap, CallKind::DR, id));
        events.push((comm.sr_gap, CallKind::SR, id));
        events.push((comm.dn_gap, CallKind::DN, id));
        events.push((comm.sv_gap, CallKind::SV, id));
    }
    // Stable sort by (gap, kind): preserves plan order within each group.
    events.sort_by_key(|&(gap, kind, _)| (gap, kind));

    let mut ev = events.into_iter().peekable();
    for (i, stmt) in stmts.iter().enumerate() {
        while let Some(&(gap, kind, id)) = ev.peek() {
            if gap > i {
                break;
            }
            out.push(Stmt::comm(kind, id));
            let _ = (gap, kind, id);
            ev.next();
        }
        out.push(stmt.clone());
    }
    for (_, kind, id) in ev {
        out.push(Stmt::comm(kind, id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commopt_ir::offset::compass;
    use commopt_ir::{Expr, ProgramBuilder, Rect, Region};

    fn figure1_program() -> Program {
        let mut b = ProgramBuilder::new("fig1");
        let bounds = Rect::d2((1, 8), (1, 8));
        let r = Region::d2((2, 7), (2, 7));
        let bb = b.array("B", bounds);
        let a = b.array("A", bounds);
        let c = b.array("C", bounds);
        let d = b.array("D", bounds);
        let e = b.array("E", bounds);
        b.assign(r, bb, Expr::Const(1.0));
        b.assign(r, a, Expr::at(bb, compass::EAST));
        b.assign(r, c, Expr::at(bb, compass::EAST));
        b.assign(r, d, Expr::at(e, compass::EAST));
        b.finish()
    }

    #[test]
    fn counts_track_figure_1() {
        let p = figure1_program();
        assert_eq!(optimize(&p, &OptConfig::baseline()).static_count(), 3);
        assert_eq!(optimize(&p, &OptConfig::rr()).static_count(), 2);
        assert_eq!(optimize(&p, &OptConfig::cc()).static_count(), 1);
        assert_eq!(optimize(&p, &OptConfig::pl()).static_count(), 1);
    }

    fn optimize(p: &Program, c: &OptConfig) -> Optimized {
        optimize_program(p, c)
    }

    #[test]
    fn emission_orders_quad_canonically() {
        let p = figure1_program();
        let opt = optimize(&p, &OptConfig::baseline());
        // First quad appears immediately before the first use (stmt index 1
        // in source becomes index 1+4*k in emitted order).
        let body = &opt.program.body.0;
        let kinds: Vec<CallKind> = body
            .iter()
            .filter_map(|s| match s {
                Stmt::Comm { kind, .. } => Some(*kind),
                _ => None,
            })
            .collect();
        assert_eq!(kinds.len(), 12); // 3 transfers * 4 calls
        assert_eq!(&kinds[0..4], &CallKind::QUAD);
    }

    #[test]
    fn pipelined_send_precedes_receive() {
        let p = figure1_program();
        let opt = optimize(&p, &OptConfig::pl());
        let body = &opt.program.body.0;
        let sr = body
            .iter()
            .position(|s| {
                matches!(
                    s,
                    Stmt::Comm {
                        kind: CallKind::SR,
                        ..
                    }
                )
            })
            .unwrap();
        let dn = body
            .iter()
            .position(|s| {
                matches!(
                    s,
                    Stmt::Comm {
                        kind: CallKind::DN,
                        ..
                    }
                )
            })
            .unwrap();
        assert!(sr < dn);
    }

    #[test]
    fn loops_are_optimized_recursively() {
        let mut b = ProgramBuilder::new("loop");
        let bounds = Rect::d2((1, 8), (1, 8));
        let r = Region::d2((2, 7), (2, 7));
        let x = b.array("X", bounds);
        let a = b.array("A", bounds);
        b.assign(r, a, Expr::at(x, compass::EAST));
        b.repeat(10, |b| {
            b.assign(r, a, Expr::at(x, compass::WEST));
            b.assign(r, a, Expr::at(x, compass::WEST)); // redundant in-block
        });
        let p = b.finish();
        let opt = optimize(&p, &OptConfig::rr());
        assert_eq!(opt.static_count(), 2); // one outside, one inside
        let base = optimize(&p, &OptConfig::baseline());
        assert_eq!(base.static_count(), 3);
    }

    #[test]
    fn transfers_appear_exactly_once() {
        let p = figure1_program();
        for (_, cfg) in OptConfig::presets() {
            let opt = optimize(&p, &cfg);
            let mut dns = 0;
            commopt_ir::visit::walk_stmts(&opt.program.body, &mut |s| {
                dns += usize::from(matches!(
                    s,
                    Stmt::Comm {
                        kind: CallKind::DN,
                        ..
                    }
                ));
            });
            assert_eq!(dns, opt.program.transfers.len());
        }
    }

    #[test]
    #[should_panic(expected = "source program")]
    fn rejects_already_instrumented_input() {
        let p = figure1_program();
        let opt = optimize(&p, &OptConfig::baseline());
        let _ = optimize(&opt.program, &OptConfig::baseline());
    }

    #[test]
    fn source_statement_order_is_preserved() {
        let p = figure1_program();
        let opt = optimize(&p, &OptConfig::pl());
        let source: Vec<&Stmt> = opt
            .program
            .body
            .0
            .iter()
            .filter(|s| s.is_source_stmt())
            .collect();
        assert_eq!(source.len(), 4);
        // Spot-check: first source statement still writes B.
        assert!(matches!(source[0], Stmt::Assign { lhs, .. } if lhs.index() == 0));
    }
}
