//! Cross-block communication optimization — the paper's first "future
//! work" item (§4): "we may want to employ a standard data flow analysis
//! algorithm to apply optimizations across basic block boundaries."
//!
//! Two transformations over an already-instrumented program:
//!
//! 1. **Loop-invariant communication hoisting**: a transfer whose member
//!    arrays are never written inside the enclosing loop body (and whose
//!    slab geometry does not depend on the loop variable) is moved in
//!    front of the loop — executed once instead of once per iteration.
//!    Hoisting runs bottom-up, so an invariant transfer can climb several
//!    loop levels.
//! 2. **Global redundancy elimination**: a forward availability analysis
//!    over the whole statement tree removes any transfer whose data is
//!    already valid at its call site — typically re-communication in a
//!    later basic block of slabs fetched by an earlier one (which the
//!    paper's block-scoped `rr` cannot see). Availability is kept per
//!    `(array, offset)` as the regions delivered, and a transfer goes only
//!    when delivered regions include all of its own. Loop bodies are
//!    analyzed against the *stable* entry state (entry availability minus
//!    everything the body kills), which is correct for every iteration,
//!    and the same state holds after the loop: the body may run zero
//!    times, and a loop-relative region names a new slab each trip.
//!
//! Safety rests on the same invariant the block-local planner guarantees:
//! within the region a transfer covers, no member array is written between
//! delivery and the covered uses — so "still available" data is current
//! data. commlint (`commopt_analysis::lint`) checks the output statically,
//! and the workspace property tests run it against the simulator's NaN-
//! poisoned ghosts and the sequential oracle.

use commopt_ir::analysis::CommRef;
use commopt_ir::{
    written_arrays, AffineBound, Block, CallKind, Program, Region, Stmt, Transfer, TransferId,
};
use std::collections::{HashMap, HashSet};

/// Statistics from the cross-block pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct GlobalStats {
    /// Transfers moved in front of a loop (counting one per loop level
    /// climbed).
    pub hoisted: u64,
    /// Transfers deleted because their data was already available.
    pub removed: u64,
}

/// Runs hoisting then global redundancy elimination, in place. Returns the
/// transformation statistics.
pub fn global_pass(program: &mut Program) -> GlobalStats {
    let mut stats = GlobalStats::default();
    let body = std::mem::take(&mut program.body);
    let body = hoist_block(program, body, &mut stats);
    program.body = body;

    let mut avail = Avail::new();
    let mut remove: HashSet<TransferId> = HashSet::new();
    let body = std::mem::take(&mut program.body);
    mark_redundant(program, &body, &mut avail, &mut remove);
    stats.removed = remove.len() as u64;
    program.body = strip_transfers(&body, &remove);
    prune_transfers(program);
    stats
}

/// Bottom-up hoisting of loop-invariant transfers.
fn hoist_block(program: &Program, block: Block, stats: &mut GlobalStats) -> Block {
    let mut out: Vec<Stmt> = Vec::new();
    for stmt in block.0 {
        match stmt {
            Stmt::Repeat { count, body } => {
                let body = hoist_block(program, body, stats);
                let (hoisted, body) = split_invariant(program, body, None);
                stats.hoisted += (hoisted.len() / 4) as u64;
                out.extend(hoisted);
                out.push(Stmt::Repeat { count, body });
            }
            Stmt::For {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let body = hoist_block(program, body, stats);
                let (hoisted, body) = split_invariant(program, body, Some(var));
                stats.hoisted += (hoisted.len() / 4) as u64;
                out.extend(hoisted);
                out.push(Stmt::For {
                    var,
                    lo,
                    hi,
                    step,
                    body,
                });
            }
            other => out.push(other),
        }
    }
    Block::new(out)
}

/// Splits a loop body into (hoistable communication calls, rest).
///
/// A transfer is hoistable when its four calls appear directly in the body
/// (not nested in an inner loop), none of its member arrays is written
/// anywhere in the body, and none of its use regions references the loop's
/// own variable.
fn split_invariant(
    program: &Program,
    body: Block,
    loop_var: Option<commopt_ir::LoopVarId>,
) -> (Vec<Stmt>, Block) {
    let killed = written_arrays(&body);
    // Transfers whose calls appear directly in this statement list.
    let mut direct: Vec<TransferId> = Vec::new();
    for s in body.iter() {
        if let Stmt::Comm {
            transfer,
            kind: CallKind::DN,
        } = s
        {
            direct.push(*transfer);
        }
    }
    let hoistable: HashSet<TransferId> = direct
        .into_iter()
        .filter(|t| {
            let tr = program.transfer(*t);
            let untouched = tr.items.iter().all(|it| !killed.contains(&it.array));
            let region_ok = tr.items.iter().all(|it| {
                it.regions.iter().all(|r| match loop_var {
                    None => true,
                    Some(v) => !r.loop_vars().contains(&v),
                })
            });
            untouched && region_ok
        })
        .collect();

    let mut hoisted: Vec<Stmt> = Vec::new();
    let mut rest: Vec<Stmt> = Vec::new();
    for s in body.0 {
        match &s {
            Stmt::Comm { transfer, .. } if hoistable.contains(transfer) => hoisted.push(s),
            _ => rest.push(s),
        }
    }
    (hoisted, Block::new(rest))
}

/// Ghost data known valid at a point: the regions delivered for each
/// `(array, offset)` since the array was last written.
type Avail = HashMap<CommRef, Vec<Region>>;

/// Forward availability walk; transfers whose items are all available at
/// their first call are marked for removal (their DN would re-deliver data
/// that is already valid). An item is available when one delivered region
/// of its `(array, offset)` includes each of its regions.
fn mark_redundant(
    program: &Program,
    block: &Block,
    avail: &mut Avail,
    remove: &mut HashSet<TransferId>,
) {
    // Track the first time we see each transfer in this block so the
    // decision happens exactly once, at the first call.
    let mut decided: HashSet<TransferId> = HashSet::new();
    for stmt in block.iter() {
        match stmt {
            Stmt::Comm { transfer, kind } => {
                let tr = program.transfer(*transfer);
                if decided.insert(*transfer) {
                    let covered = tr.items.iter().all(|it| {
                        let delivered = avail.get(&CommRef {
                            array: it.array,
                            offset: it.offset,
                        });
                        it.regions
                            .iter()
                            .all(|r| delivered.is_some_and(|ds| ds.iter().any(|d| includes(d, r))))
                    });
                    if covered {
                        remove.insert(*transfer);
                    }
                }
                if *kind == CallKind::DN && !remove.contains(transfer) {
                    for it in &tr.items {
                        avail
                            .entry(CommRef {
                                array: it.array,
                                offset: it.offset,
                            })
                            .or_default()
                            .extend(&it.regions);
                    }
                }
            }
            Stmt::Repeat { body, .. } | Stmt::For { body, .. } => {
                // Stable entry state: whatever the body kills is unreliable
                // on iterations after the first. The body's own deliveries
                // do not outlive the loop: it may run zero times, and a
                // loop-relative region names a different slab each trip.
                let killed = written_arrays(body);
                avail.retain(|r, _| !killed.contains(&r.array));
                mark_redundant(program, body, &mut avail.clone(), remove);
            }
            source => {
                if let Some(w) = commopt_ir::arrays_written(source) {
                    avail.retain(|r, _| r.array != w);
                }
            }
        }
    }
}

/// `true` when `outer` includes `inner` for every value of the loop
/// variables: each pair of bounds is constant or relative to the same
/// variable, and `outer`'s constants enclose `inner`'s.
fn includes(outer: &Region, inner: &Region) -> bool {
    let le = |a: AffineBound, b: AffineBound| a.var == b.var && a.c <= b.c;
    outer.rank == inner.rank
        && outer.dims[..outer.rank]
            .iter()
            .zip(&inner.dims)
            .all(|(o, i)| le(o.lo, i.lo) && le(i.hi, o.hi))
}

/// Removes every call of the marked transfers.
fn strip_transfers(block: &Block, remove: &HashSet<TransferId>) -> Block {
    let stmts = block
        .iter()
        .filter(|s| match s {
            Stmt::Comm { transfer, .. } => !remove.contains(transfer),
            _ => true,
        })
        .map(|s| match s {
            Stmt::Repeat { count, body } => Stmt::Repeat {
                count: *count,
                body: strip_transfers(body, remove),
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
                body: strip_transfers(body, remove),
            },
            other => other.clone(),
        })
        .collect();
    Block::new(stmts)
}

/// Drops unreferenced transfer descriptors and renumbers the rest so the
/// static count (`transfers.len()`) stays meaningful.
fn prune_transfers(program: &mut Program) {
    let mut used: HashSet<TransferId> = HashSet::new();
    commopt_ir::visit::walk_stmts(&program.body, &mut |s| {
        if let Stmt::Comm { transfer, .. } = s {
            used.insert(*transfer);
        }
    });
    let mut remap: HashMap<TransferId, TransferId> = HashMap::new();
    let mut kept: Vec<Transfer> = Vec::new();
    for t in &program.transfers {
        if used.contains(&t.id) {
            let new_id = TransferId(kept.len() as u32);
            remap.insert(t.id, new_id);
            let mut t2 = t.clone();
            t2.id = new_id;
            kept.push(t2);
        }
    }
    program.transfers = kept;
    renumber(&mut program.body, &remap);
}

fn renumber(block: &mut Block, remap: &HashMap<TransferId, TransferId>) {
    for s in block.0.iter_mut() {
        match s {
            Stmt::Comm { transfer, .. } => {
                *transfer = remap[transfer];
            }
            Stmt::Repeat { body, .. } | Stmt::For { body, .. } => renumber(body, remap),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptConfig;
    use crate::emit::optimize_program;
    use commopt_ir::offset::compass;
    use commopt_ir::{Expr, ProgramBuilder, Rect, Region};

    fn assert_safe(program: &Program) {
        let report = commopt_analysis::lint(program);
        assert!(report.safe(), "{}", report.render());
    }

    fn bounds() -> Rect {
        Rect::d2((1, 12), (1, 12))
    }
    fn interior() -> Region {
        Region::d2((2, 11), (2, 11))
    }

    /// X is written once in setup, read via @east both before and inside a
    /// loop that never writes it.
    fn invariant_program() -> commopt_ir::Program {
        let mut b = ProgramBuilder::new("inv");
        let x = b.array("X", bounds());
        let a = b.array("A", bounds());
        let c = b.array("C", bounds());
        b.assign(
            Region::from_rect(bounds()),
            x,
            Expr::Index(0) + Expr::Index(1),
        );
        b.assign(interior(), a, Expr::at(x, compass::EAST));
        b.repeat(10, |b| {
            b.assign(interior(), c, Expr::at(x, compass::EAST) + Expr::local(c));
        });
        b.finish()
    }

    #[test]
    fn loop_invariant_comm_is_eliminated() {
        let src = invariant_program();
        let mut opt = optimize_program(&src, &OptConfig::pl());
        assert_eq!(opt.static_count(), 2);
        assert_eq!(crate::counts::dynamic_count(&opt.program), 1 + 10);

        let stats = global_pass(&mut opt.program);
        // The in-loop X@east is hoisted, then found redundant against the
        // pre-loop one and removed entirely.
        assert_eq!(stats.hoisted, 1);
        assert_eq!(stats.removed, 1);
        assert_eq!(opt.program.transfers.len(), 1);
        assert_eq!(crate::counts::dynamic_count(&opt.program), 1);
        assert_safe(&opt.program);
    }

    #[test]
    fn hoisting_respects_in_loop_writes() {
        // X is rewritten inside the loop: nothing may hoist or be removed.
        let mut b = ProgramBuilder::new("var");
        let x = b.array("X", bounds());
        let a = b.array("A", bounds());
        b.assign(Region::from_rect(bounds()), x, Expr::Index(0));
        b.repeat(5, |b| {
            b.assign(interior(), a, Expr::at(x, compass::EAST));
            b.assign(interior(), x, Expr::local(a) * Expr::Const(0.5));
        });
        let mut opt = optimize_program(&b.finish(), &OptConfig::pl());
        let before = crate::counts::dynamic_count(&opt.program);
        let stats = global_pass(&mut opt.program);
        assert_eq!(stats, GlobalStats::default());
        assert_eq!(crate::counts::dynamic_count(&opt.program), before);
        assert_safe(&opt.program);
    }

    #[test]
    fn row_sweep_transfers_do_not_hoist() {
        // The transfer's region references the loop variable — geometry
        // varies per iteration, so it must stay inside.
        let mut b = ProgramBuilder::new("sweep");
        let x = b.array("X", bounds());
        let a = b.array("A", bounds());
        b.assign(Region::from_rect(bounds()), x, Expr::Index(0));
        b.for_up("i", 2, 11, |b, i| {
            b.assign(Region::row2(i, (2, 11)), a, Expr::at(x, compass::NORTH));
        });
        let mut opt = optimize_program(&b.finish(), &OptConfig::pl());
        let stats = global_pass(&mut opt.program);
        assert_eq!(stats.hoisted, 0);
        assert_safe(&opt.program);
    }

    #[test]
    fn cross_block_redundancy_is_removed() {
        // Two sibling loops read the same slab; the second loop's transfer
        // hoists and is then redundant against the first's hoisted one.
        let mut b = ProgramBuilder::new("twoloops");
        let x = b.array("X", bounds());
        let a = b.array("A", bounds());
        let c = b.array("C", bounds());
        b.assign(Region::from_rect(bounds()), x, Expr::Index(1));
        b.repeat(3, |b| {
            b.assign(interior(), a, Expr::at(x, compass::WEST));
        });
        b.repeat(4, |b| {
            b.assign(interior(), c, Expr::at(x, compass::WEST));
        });
        let mut opt = optimize_program(&b.finish(), &OptConfig::pl());
        assert_eq!(crate::counts::dynamic_count(&opt.program), 7);
        let stats = global_pass(&mut opt.program);
        assert_eq!(stats.hoisted, 2);
        assert_eq!(stats.removed, 1);
        assert_eq!(crate::counts::dynamic_count(&opt.program), 1);
        assert_safe(&opt.program);
    }

    #[test]
    fn nested_loops_hoist_through_both_levels() {
        let mut b = ProgramBuilder::new("nested");
        let x = b.array("X", bounds());
        let a = b.array("A", bounds());
        b.assign(Region::from_rect(bounds()), x, Expr::Index(0));
        b.repeat(3, |b| {
            b.repeat(4, |b| {
                b.assign(interior(), a, Expr::at(x, compass::SOUTH) + Expr::local(a));
            });
        });
        let mut opt = optimize_program(&b.finish(), &OptConfig::pl());
        assert_eq!(crate::counts::dynamic_count(&opt.program), 12);
        let stats = global_pass(&mut opt.program);
        assert_eq!(stats.hoisted, 2); // one level per loop
        assert_eq!(crate::counts::dynamic_count(&opt.program), 1);
        assert_safe(&opt.program);
    }

    #[test]
    fn transfer_table_is_pruned_and_renumbered() {
        let src = invariant_program();
        let mut opt = optimize_program(&src, &OptConfig::pl());
        global_pass(&mut opt.program);
        for (i, t) in opt.program.transfers.iter().enumerate() {
            assert_eq!(t.id.index(), i);
        }
        // Every Comm stmt references a live transfer.
        commopt_ir::visit::walk_stmts(&opt.program.body, &mut |s| {
            if let commopt_ir::Stmt::Comm { transfer, .. } = s {
                assert!(transfer.index() < opt.program.transfers.len());
            }
        });
    }

    #[test]
    fn a_sweep_delivers_nothing_to_a_later_sweep() {
        // Two sweeps over one loop variable: for i := 2 .. 3 { [i, 2..11]
        // A := X@east }, then for i := 2 .. 11 { [i, 2..11] C := X@east }.
        // The first delivered rows 2 and 3 only, so the second keeps its
        // transfer.
        let mut b = ProgramBuilder::new("two-sweeps");
        let x = b.array("X", bounds());
        let a = b.array("A", bounds());
        let c = b.array("C", bounds());
        b.assign(Region::from_rect(bounds()), x, Expr::Index(0));
        let mut src = b.finish();
        let i = src.add_loop_var("i");
        let sweep = |hi: i64, lhs| Stmt::For {
            var: i,
            lo: 2.into(),
            hi: hi.into(),
            step: 1,
            body: Block::new(vec![Stmt::assign(
                Region::row2(i, (2, 11)),
                lhs,
                Expr::at(x, compass::EAST),
            )]),
        };
        src.body.0.extend([sweep(3, a), sweep(11, c)]);
        let mut opt = optimize_program(&src, &OptConfig::pl());
        let stats = global_pass(&mut opt.program);
        assert_eq!(stats.removed, 0);
        assert_safe(&opt.program);
    }

    #[test]
    fn included_regions_cover_and_loop_relative_ones_match_their_variable() {
        let whole = Region::d2((2, 11), (2, 11));
        let mut p = Program::new("vars");
        let (i, j) = (p.add_loop_var("i"), p.add_loop_var("j"));
        assert!(includes(&whole, &Region::d2((3, 5), (2, 11))));
        assert!(!includes(&Region::d2((3, 5), (2, 11)), &whole));
        assert!(includes(
            &Region::row2(i, (1, 12)),
            &Region::row2(i, (2, 11))
        ));
        assert!(!includes(
            &Region::row2(i, (2, 11)),
            &Region::row2(j, (2, 11))
        ));
        assert!(!includes(&whole, &Region::row2(i, (2, 11))));
    }
}
