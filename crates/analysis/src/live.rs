//! Backward ghost-region liveness — the dead-transfer side of commlint.
//!
//! A delivered ghost copy of `(array, offset)` is *live* at a point when
//! some later read of that reference — with an overlapping region — can
//! still see it before the array is redefined. The join is a *may* join
//! (union): data is live if any path reads it. A DN whose items are all
//! dead delivers data nobody reads: C002.
//!
//! Region overlap is what keeps the analysis conservative-but-sound: two
//! constant regions conflict only when their rectangles intersect, and any
//! loop-variable-relative region is assumed to overlap everything it might
//! reach, so a transfer is flagged dead only when no read can possibly
//! observe it.

use crate::bits::BitSet;
use crate::cfg::{constant_rect, Analysis, Cfg, Node, NodeOp};
use crate::{Code, Diagnostic};
use commopt_ir::{Program, Region};

/// Backward state: which later reads can still see a delivered ghost.
#[derive(Clone, PartialEq, Debug)]
pub struct LiveState {
    /// Ref ids read under a loop-relative region: live over any region.
    pub any: BitSet,
    /// Site ids — (ref, constant read rectangle) pairs — still to be read.
    pub sites: BitSet,
}

impl LiveState {
    /// Whether a delivery of ref `r` over `regions` reaches a live read.
    fn overlaps(&self, cfg: &Cfg, r: usize, regions: &[Region]) -> bool {
        if self.any.contains(r) {
            return true;
        }
        let live = || {
            cfg.ref_sites[r]
                .iter()
                .filter(|&&s| self.sites.contains(s))
                .map(|&s| &cfg.site_rects[s])
        };
        // A transfer with no recorded use regions moves a whole ghost rim:
        // treat it as overlapping any live read.
        if regions.is_empty() {
            return live().next().is_some();
        }
        regions.iter().any(|&region| match constant_rect(region) {
            None => live().next().is_some(),
            Some(rect) => live().any(|l| l.rank != rect.rank || !rect.intersect(l).is_empty()),
        })
    }
}

pub struct LiveAnalysis<'a> {
    pub cfg: &'a Cfg,
}

impl Analysis for LiveAnalysis<'_> {
    type State = LiveState;

    fn boundary(&self) -> LiveState {
        LiveState {
            any: BitSet::new(self.cfg.refs.len()),
            sites: BitSet::new(self.cfg.site_rects.len()),
        }
    }

    fn join(&self, acc: &mut LiveState, other: &LiveState) {
        acc.any.union_with(&other.any);
        acc.sites.union_with(&other.sites);
    }

    fn transfer(&self, node: &Node, state: &mut LiveState) {
        if let NodeOp::Source { reads, writes } = &node.op {
            // Backward through a statement: the write redefines the array
            // (killing liveness of its ghosts), then the reads generate.
            if let Some(w) = writes {
                state.any.subtract(&self.cfg.array_refs[w.index()]);
                state.sites.subtract(&self.cfg.array_sites[w.index()]);
            }
            for read in reads {
                match read.site {
                    Some(s) => state.sites.insert(s),
                    None => state.any.insert(read.r),
                }
            }
        }
    }
}

/// Runs the liveness analysis and reports every C002 finding: a DN none of
/// whose delivered items is read before redefinition.
pub fn check(program: &Program, cfg: &Cfg, out: &mut Vec<Diagnostic>) {
    let states = crate::cfg::backward(cfg, &LiveAnalysis { cfg });
    for (node, after) in cfg.nodes.iter().zip(&states) {
        let NodeOp::Dn { transfer, .. } = &node.op else {
            continue;
        };
        // `after` is the program-order state after the DN: the liveness of
        // what it delivered.
        let t = program.transfer(*transfer);
        let dead = t
            .items
            .iter()
            .zip(&cfg.transfer_refs[transfer.index()])
            .all(|(item, &r)| !after.overlaps(cfg, r, &item.regions));
        if dead {
            let names: Vec<String> = cfg.transfer_refs[transfer.index()]
                .iter()
                .map(|&r| crate::ref_name(program, cfg.refs[r]))
                .collect();
            out.push(Diagnostic {
                code: Code::C002,
                span: node.span.clone(),
                message: format!(
                    "dead transfer: t{} delivers {} never read before redefinition",
                    transfer.0,
                    names.join(", ")
                ),
                transfer: Some(*transfer),
                r: None,
            });
        }
    }
}
