//! Forward must-availability of ghost data — the reaching-definitions side
//! of commlint, and the static mirror of `verify_plan`'s ghost tracking.
//!
//! The abstract state records, per interned [`CommRef`](commopt_ir::CommRef),
//! whether a delivered ghost copy is available, whether it is fresh, and
//! which transfer delivered it; plus, per transfer with an SR in scope,
//! the set of carried arrays written since that SR. The join is a *must*
//! join: a ghost is available only if every incoming path delivered it,
//! and fresh only if it is fresh on every path. Loop-entry and loop-exit
//! edges kill ghosts of arrays the loop body writes — the same
//! conservative rule `verify_plan` applies — and the worklist's back-edge
//! iteration then recovers anything the body itself re-delivers.

use crate::bits::{words, BitSet};
use crate::cfg::{Analysis, Cfg, Direction, Node, NodeOp};
use crate::{Code, Diagnostic};
use commopt_ir::{ArrayId, CallKind, Program, TransferId};

/// `from` entry of a ghost whose delivering transfer is not unique across
/// paths, or that is not available at all.
const NO_TRANSFER: u32 = u32::MAX;

/// The forward state, as bitsets over the [`Cfg`]'s ref ids and the
/// program's transfer ids.
#[derive(Clone, PartialEq, Debug)]
pub struct GhostState {
    /// Refs whose ghost data every path delivered.
    pub avail: BitSet,
    /// Refs whose delivered ghost data is fresh on every path — the
    /// source array was not written after the covering SR. A subset of
    /// `avail`.
    pub fresh: BitSet,
    /// Per ref: the delivering transfer when it is unique across paths,
    /// else a none sentinel (`u32::MAX`); always the sentinel outside
    /// `avail`, so equal states compare equal.
    pub from: Vec<u32>,
    /// Transfers whose SR is in scope on some path.
    pub scope: BitSet,
    /// A transfers × ⌈arrays/64⌉ word matrix: row `t` holds the carried
    /// arrays written since `t`'s SR, on some path. All-zero outside
    /// `scope`.
    pub pending: Vec<u64>,
}

pub struct GhostAnalysis<'a> {
    pub program: &'a Program,
    pub cfg: &'a Cfg,
    /// Words per row of the pending matrix.
    row: usize,
}

impl<'a> GhostAnalysis<'a> {
    pub fn new(program: &'a Program, cfg: &'a Cfg) -> GhostAnalysis<'a> {
        GhostAnalysis {
            program,
            cfg,
            row: words(program.arrays.len()),
        }
    }

    fn written_since_sr(&self, state: &GhostState, t: usize, array: ArrayId) -> bool {
        let a = array.index();
        state.pending[t * self.row + a / 64] >> (a % 64) & 1 == 1
    }
}

impl Analysis for GhostAnalysis<'_> {
    type State = GhostState;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self) -> GhostState {
        let (refs, transfers) = (self.cfg.refs.len(), self.program.transfers.len());
        GhostState {
            avail: BitSet::new(refs),
            fresh: BitSet::new(refs),
            from: vec![NO_TRANSFER; refs],
            scope: BitSet::new(transfers),
            pending: vec![0; transfers * self.row],
        }
    }

    fn join(&self, acc: &mut GhostState, other: &GhostState) {
        // Must join on ghosts: intersection, freshness AND, provenance kept
        // only where both sides agree (outside `avail` both are
        // NO_TRANSFER, so a ghost missing on either side loses it too).
        acc.avail.intersect_with(&other.avail);
        acc.fresh.intersect_with(&other.fresh);
        for (a, b) in acc.from.iter_mut().zip(&other.from) {
            if a != b {
                *a = NO_TRANSFER;
            }
        }
        // May join on pending write sets: union.
        acc.scope.union_with(&other.scope);
        for (a, b) in acc.pending.iter_mut().zip(&other.pending) {
            *a |= b;
        }
    }

    fn edge(&self, kill: &BitSet, state: &mut GhostState) {
        state.avail.subtract(kill);
        state.fresh.subtract(kill);
        for r in kill.iter() {
            state.from[r] = NO_TRANSFER;
        }
    }

    fn transfer(&self, ix: usize, node: &Node, state: &mut GhostState) {
        match &node.op {
            NodeOp::Source {
                writes: Some(w), ..
            } => {
                state.fresh.subtract(&self.cfg.array_refs[w.index()]);
                let (word, bit) = (w.index() / 64, 1 << (w.index() % 64));
                for t in state.scope.iter() {
                    state.pending[t * self.row + word] |= bit;
                }
            }
            NodeOp::Comm {
                kind,
                transfer,
                sr_before_in_list,
            } => match kind {
                CallKind::SR => {
                    let t = transfer.index();
                    state.scope.insert(t);
                    state.pending[t * self.row..(t + 1) * self.row].fill(0);
                }
                CallKind::DN => {
                    // The SR snapshot is scoped to the DN's own statement
                    // list and must precede the DN (like verify_plan's
                    // per-block transfer table, filled in list order); an SR
                    // in another list, or later in this one, leaves the
                    // version-0 fallback: fresh only if the array has never
                    // been written, in program pre-order. Gating on list
                    // position (not just reachability) keeps a pending set
                    // carried around a loop back edge from outliving the
                    // scope verify_plan gives it.
                    let t = transfer.index();
                    let since_sr = *sr_before_in_list && state.scope.contains(t);
                    for &r in &self.cfg.transfer_refs[t] {
                        let array = self.cfg.refs[r].array;
                        let written = if since_sr {
                            self.written_since_sr(state, t, array)
                        } else {
                            self.cfg.written_before(array, ix)
                        };
                        state.avail.insert(r);
                        if written {
                            state.fresh.remove(r);
                        } else {
                            state.fresh.insert(r);
                        }
                        state.from[r] = transfer.0;
                    }
                }
                CallKind::DR | CallKind::SV => {}
            },
            _ => {}
        }
    }
}

/// Runs the availability analysis and reports every C001 finding: a
/// non-local read whose ghost data is missing or stale at the read.
pub fn check(program: &Program, cfg: &Cfg, out: &mut Vec<Diagnostic>) {
    let states = crate::cfg::solve(cfg, &GhostAnalysis::new(program, cfg));

    // DN sites per ref id, for the non-dominating hint on missing data;
    // built on the first missing ghost, which clean programs never have.
    let mut dn_sites: Option<Vec<Vec<(TransferId, usize)>>> = None;

    for (ix, node) in cfg.nodes.iter().enumerate() {
        let NodeOp::Source { reads, .. } = &node.op else {
            continue;
        };
        let Some(state) = &states[ix] else { continue };
        for read in reads {
            let r = read.r;
            let name = || crate::ref_name(program, cfg.refs[r]);
            if !state.avail.contains(r) {
                let sites = dn_sites.get_or_insert_with(|| dn_sites_by_ref(cfg));
                let hint = match sites[r]
                    .iter()
                    .find(|&&(_, dn)| !cfg.nodes[dn].span.dominates(&node.span))
                {
                    Some((t, dn)) => format!(
                        " (t{} delivers it at {}, which does not dominate this read)",
                        t.0, cfg.nodes[*dn].span
                    ),
                    None => String::new(),
                };
                out.push(Diagnostic {
                    code: Code::C001,
                    span: node.span.clone(),
                    message: format!(
                        "non-local read of {} has no covering transfer{hint}",
                        name()
                    ),
                    transfer: None,
                    r: Some(cfg.refs[r]),
                });
            } else if !state.fresh.contains(r) {
                let from = (state.from[r] != NO_TRANSFER).then_some(TransferId(state.from[r]));
                let by = match from {
                    Some(t) => format!("t{}", t.0),
                    None => "its transfer".to_string(),
                };
                out.push(Diagnostic {
                    code: Code::C001,
                    span: node.span.clone(),
                    message: format!("stale ghost data: {} was written after {by}'s SR", name()),
                    transfer: from,
                    r: Some(cfg.refs[r]),
                });
            }
        }
    }
}

/// Per ref id, every `(transfer, DN node)` delivering it, in node order.
fn dn_sites_by_ref(cfg: &Cfg) -> Vec<Vec<(TransferId, usize)>> {
    let mut sites = vec![Vec::new(); cfg.refs.len()];
    for (ix, node) in cfg.nodes.iter().enumerate() {
        if let NodeOp::Comm {
            kind: CallKind::DN,
            transfer,
            ..
        } = &node.op
        {
            for &r in &cfg.transfer_refs[transfer.index()] {
                sites[r].push((*transfer, ix));
            }
        }
    }
    sites
}
