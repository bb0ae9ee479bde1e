//! Forward must-availability of ghost data — the reaching-definitions side
//! of commlint, and the source of its C001 findings.
//!
//! The abstract state records, per interned [`CommRef`](commopt_ir::CommRef),
//! whether a delivered ghost copy is available, whether it is fresh, and
//! which transfer delivered it. The join is a *must* join: a ghost is
//! available only if every incoming path delivered it, and fresh only if
//! it is fresh on every path. Loop entry and exit kill ghosts of arrays the
//! loop body writes — a conservative rule — and iterating the body then
//! recovers anything the body itself re-delivers. Whether a DN delivers
//! stale data is fixed when the node list is built ([`NodeOp::Dn`]); later
//! writes make a ghost stale here.

use crate::bits::BitSet;
use crate::cfg::{Analysis, Cfg, Node, NodeOp};
use crate::{Code, Diagnostic};
use commopt_ir::{Program, TransferId};

/// `from` entry of a ghost whose delivering transfer is not unique across
/// paths, or that is not available at all.
const NO_TRANSFER: u32 = u32::MAX;

/// The forward state, as bitsets over the [`Cfg`]'s ref ids.
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
}

pub struct GhostAnalysis<'a> {
    pub cfg: &'a Cfg,
}

impl Analysis for GhostAnalysis<'_> {
    type State = GhostState;

    fn boundary(&self) -> GhostState {
        let refs = self.cfg.refs.len();
        GhostState {
            avail: BitSet::new(refs),
            fresh: BitSet::new(refs),
            from: vec![NO_TRANSFER; refs],
        }
    }

    fn join(&self, acc: &mut GhostState, other: &GhostState) {
        // Intersection, freshness AND, provenance kept only where both
        // sides agree (outside `avail` both are NO_TRANSFER, so a ghost
        // missing on either side loses it too).
        acc.avail.intersect_with(&other.avail);
        acc.fresh.intersect_with(&other.fresh);
        for (a, b) in acc.from.iter_mut().zip(&other.from) {
            if a != b {
                *a = NO_TRANSFER;
            }
        }
    }

    fn kill(&self, kill: &BitSet, state: &mut GhostState) {
        state.avail.subtract(kill);
        state.fresh.subtract(kill);
        for r in kill.iter() {
            state.from[r] = NO_TRANSFER;
        }
    }

    fn transfer(&self, node: &Node, state: &mut GhostState) {
        match &node.op {
            NodeOp::Source {
                writes: Some(w), ..
            } => state.fresh.subtract(&self.cfg.array_refs[w.index()]),
            NodeOp::Dn { transfer, stale } => {
                for (&r, &stale) in self.cfg.transfer_refs[transfer.index()].iter().zip(stale) {
                    state.avail.insert(r);
                    if stale {
                        state.fresh.remove(r);
                    } else {
                        state.fresh.insert(r);
                    }
                    state.from[r] = transfer.0;
                }
            }
            _ => {}
        }
    }
}

/// Runs the availability analysis and reports every C001 finding: a
/// non-local read whose ghost data is missing or stale at the read.
pub fn check(program: &Program, cfg: &Cfg, out: &mut Vec<Diagnostic>) {
    let states = crate::cfg::forward(cfg, &GhostAnalysis { cfg });

    // DN sites per ref id, for the non-dominating hint on missing data;
    // built on the first missing ghost, which clean programs never have.
    let mut dn_sites: Option<Vec<Vec<(TransferId, usize)>>> = None;

    for (node, state) in cfg.nodes.iter().zip(&states) {
        let NodeOp::Source { reads, .. } = &node.op else {
            continue;
        };
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
        if let NodeOp::Dn { transfer, .. } = &node.op {
            for &r in &cfg.transfer_refs[transfer.index()] {
                sites[r].push((*transfer, ix));
            }
        }
    }
    sites
}
