//! The per-block communication planner: naive generation, redundant
//! removal and combination (decided by `commopt_analysis::rrcc`, the
//! procedure commlint's C003/C004 run too), and pipelined placement.
//!
//! All positions are *gaps*: gap `g` is the insertion point immediately
//! before statement `g` of the block; gap `len` is the end of the block.

use crate::config::OptConfig;
use crate::passlog::{PassEvent, PassLog};
use commopt_analysis::rrcc::{Segment, Source};
use commopt_ir::{Offset, Region, ScalarRhs, Stmt, TransferItem};

/// One planned communication: a transfer (one message per processor pair)
/// and the gaps at which its four IRONMAN calls are emitted.
#[derive(Clone, PartialEq, Debug)]
pub struct PlannedComm {
    /// Generation sequence number, unique over the whole `optimize` run —
    /// the identity the [`PassLog`] uses to refer to this communication.
    pub seq: u32,
    /// Items carried, with the regions of the uses each covers (they drive
    /// the exact runtime slab geometry); all share one offset.
    pub items: Vec<TransferItem>,
    /// Placement of the four calls.
    pub dr_gap: usize,
    pub sr_gap: usize,
    pub dn_gap: usize,
    pub sv_gap: usize,
}

impl PlannedComm {
    /// The shared shift direction.
    pub fn offset(&self) -> Offset {
        self.items[0].offset
    }
}

/// Plans all communication for one basic block under `config`, recording
/// every removal and merge decision in `log`.
///
/// Stages (paper §2/§3.1):
/// 1. naive vectorized generation — one transfer per distinct non-local
///    reference per statement, delivered at that statement;
/// 2. redundant communication removal (if enabled) — reuse a still-valid
///    earlier transfer of the same `(array, offset)`;
/// 3. communication combination (if enabled) — merge same-offset transfers
///    under the configured heuristic;
/// 4. placement — pipelined (early DR/SR, late SV) or synchronous (all
///    four calls immediately before the first use).
pub fn plan_block(stmts: &[&Stmt], config: &OptConfig, log: &mut PassLog) -> Vec<PlannedComm> {
    let mut seg = Segment::default();
    for stmt in stmts {
        let source = Source::of(stmt);
        for &r in &source.refs {
            seg.deliver([r]);
        }
        seg.push(source);
    }
    let verdict = seg.judge(
        config.redundant_removal,
        config.combine,
        config.max_combined_items,
    );

    // Each surviving delivery is one generated communication with one
    // item; a reuse adds the region of the use it covers to its provider.
    // With one reference per delivery, every delivery survives or is a
    // reuse.
    let mut seqs = vec![0; verdict.survivors.len() + verdict.reuses.len()];
    let mut regions: Vec<Vec<Region>> = vec![Vec::new(); seqs.len()];
    for &d in &verdict.survivors {
        seqs[d] = log.alloc_seq();
        regions[d].extend(region_of(stmts[seg.position(d)]));
    }
    for reuse in &verdict.reuses {
        let (d, p) = (reuse.delivery, reuse.provider);
        if let Some(region) = region_of(stmts[seg.position(d)]) {
            if !regions[p].contains(&region) {
                regions[p].push(region);
            }
        }
        log.push(PassEvent::Removed {
            array: reuse.r.array,
            offset: reuse.r.offset,
            use_stmt: seg.position(d),
            reused_seq: seqs[p],
            delivered_stmt: seg.position(p),
        });
    }
    for &(member, host) in &verdict.merges {
        log.push(PassEvent::Combined {
            host_seq: seqs[host],
            merged_seq: seqs[member],
            offset: seg.refs(member)[0].offset,
            mode: config.combine,
        });
    }

    verdict
        .comms
        .into_iter()
        .map(|c| {
            let items = c
                .deliveries
                .iter()
                .map(|&d| {
                    let r = seg.refs(d)[0];
                    TransferItem {
                        array: r.array,
                        offset: r.offset,
                        regions: std::mem::take(&mut regions[d]),
                    }
                })
                .collect();
            // SV must complete before the next write of any carried array.
            // A reuse needs no later cap: no write of the array lies
            // between its provider and it.
            let sv_cap = c
                .deliveries
                .iter()
                .map(|&d| seg.next_write(seg.refs(d)[0].array, seg.position(d)))
                .min()
                .expect("a communication carries an item");
            let (dr_gap, sr_gap, dn_gap, sv_gap) = if config.pipeline {
                (c.ready, c.ready, c.first_use, sv_cap.max(c.ready))
            } else {
                (c.first_use, c.first_use, c.first_use, c.first_use)
            };
            PlannedComm {
                seq: seqs[c.deliveries[0]],
                items,
                dr_gap,
                sr_gap,
                dn_gap,
                sv_gap,
            }
        })
        .collect()
}

/// The region a statement executes over (none for a scalar statement that
/// is not a reduction).
fn region_of(stmt: &Stmt) -> Option<Region> {
    match stmt {
        Stmt::Assign { region, .. }
        | Stmt::ScalarAssign {
            rhs: ScalarRhs::Reduce { region, .. },
            ..
        } => Some(*region),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commopt_ir::offset::compass;
    use commopt_ir::{ArrayId, Expr};

    fn r() -> Region {
        Region::d2((1, 8), (1, 8))
    }
    fn a(i: u32) -> ArrayId {
        ArrayId(i)
    }
    fn rf(i: u32, o: commopt_ir::Offset) -> Expr {
        Expr::at(a(i), o)
    }

    fn plan(stmts: &[Stmt], config: &OptConfig) -> Vec<PlannedComm> {
        let stmts: Vec<&Stmt> = stmts.iter().collect();
        plan_block(&stmts, config, &mut PassLog::new())
    }

    fn carries(c: &PlannedComm, array: ArrayId, offset: Offset) -> bool {
        c.items
            .iter()
            .any(|i| (i.array, i.offset) == (array, offset))
    }

    /// The paper's Figure 1 block:
    ///   B := f(); A := B@east; C := B@east; D := E@east
    /// (B=0, A=1, C=2, D=3, E=4)
    fn figure1() -> Vec<Stmt> {
        vec![
            Stmt::assign(r(), a(0), Expr::Const(1.0)),
            Stmt::assign(r(), a(1), rf(0, compass::EAST)),
            Stmt::assign(r(), a(2), rf(0, compass::EAST)),
            Stmt::assign(r(), a(3), rf(4, compass::EAST)),
        ]
    }

    #[test]
    fn naive_generation_matches_figure_1a() {
        let comms = plan(&figure1(), &OptConfig::baseline());
        assert_eq!(comms.len(), 3); // B, B again, E
                                    // Every quad sits immediately before its use.
        for c in &comms {
            assert_eq!(c.dr_gap, c.dn_gap);
            assert_eq!(c.sr_gap, c.dn_gap);
        }
        assert_eq!(comms[0].dn_gap, 1);
        assert_eq!(comms[1].dn_gap, 2);
        assert_eq!(comms[2].dn_gap, 3);
    }

    #[test]
    fn redundant_removal_matches_figure_1b() {
        let comms = plan(&figure1(), &OptConfig::rr());
        assert_eq!(comms.len(), 2); // second B comm removed
        assert!(carries(&comms[0], a(0), compass::EAST));
        assert!(carries(&comms[1], a(4), compass::EAST));
    }

    #[test]
    fn combination_matches_figure_1c() {
        let comms = plan(&figure1(), &OptConfig::cc());
        assert_eq!(comms.len(), 1); // B and E share offset east -> one message
        assert_eq!(comms[0].items.len(), 2);
        assert_eq!(comms[0].dn_gap, 1); // receive before first use of B
    }

    #[test]
    fn pipelining_matches_figure_1d() {
        let comms = plan(&figure1(), &OptConfig::pl());
        assert_eq!(comms.len(), 1);
        // B written at stmt 0, so the combined send hoists to gap 1;
        // E never written, so alone it could go to gap 0, but the merge
        // is constrained by B.
        assert_eq!(comms[0].sr_gap, 1);
        assert_eq!(comms[0].dn_gap, 1);
    }

    #[test]
    fn pipelining_hoists_to_block_top_when_unwritten() {
        // A := E@east at stmt 2; E never written in block.
        let info = [
            Stmt::assign(r(), a(0), Expr::Const(1.0)),
            Stmt::assign(r(), a(1), Expr::Const(2.0)),
            Stmt::assign(r(), a(2), rf(4, compass::EAST)),
        ];
        let comms = plan(&info, &OptConfig::pl());
        assert_eq!(comms.len(), 1);
        assert_eq!(comms[0].sr_gap, 0); // top of block
        assert_eq!(comms[0].dn_gap, 2); // just before use
    }

    #[test]
    fn write_invalidates_cached_ghost() {
        // A := B@e; B := ...; C := B@e  -> two transfers even under rr.
        let info = [
            Stmt::assign(r(), a(1), rf(0, compass::EAST)),
            Stmt::assign(r(), a(0), Expr::Const(0.0)),
            Stmt::assign(r(), a(2), rf(0, compass::EAST)),
        ];
        let comms = plan(&info, &OptConfig::rr());
        assert_eq!(comms.len(), 2);
        // The second transfer can't send before the write completes.
        let pl = plan(&info, &OptConfig::pl());
        assert_eq!(pl.len(), 2);
        assert_eq!(pl[1].sr_gap, 2);
    }

    #[test]
    fn different_offsets_never_combine() {
        let info = [
            Stmt::assign(r(), a(1), rf(0, compass::EAST)),
            Stmt::assign(r(), a(2), rf(3, compass::WEST)),
        ];
        let comms = plan(&info, &OptConfig::cc());
        assert_eq!(comms.len(), 2);
    }

    #[test]
    fn illegal_combination_rejected() {
        // D := E@e; E2 written after first use: combining E2's comm down to
        // gap 0 would send incomplete data.
        // s0: D := E@e ; s1: F := ... ; s2: G := F@e
        let info = [
            Stmt::assign(r(), a(0), rf(1, compass::EAST)),
            Stmt::assign(r(), a(2), Expr::Const(0.0)),
            Stmt::assign(r(), a(3), rf(2, compass::EAST)),
        ];
        let comms = plan(&info, &OptConfig::cc());
        // F@e ready only at gap 2 > E@e's use gap 0: cannot merge.
        assert_eq!(comms.len(), 2);
    }

    #[test]
    fn max_latency_preserves_every_members_distance() {
        // Three east communications with intervals
        //   C: [0,2] distance 2, B: [1,3] distance 2, D: [0,4] distance 4.
        // Max combining merges all three; max latency hiding merges none:
        // every pairwise intersection hides less computation than one of
        // the members could alone.
        let info = [
            Stmt::assign(r(), a(0), Expr::Const(1.0)), // writes B(=0)
            Stmt::assign(r(), a(5), Expr::Const(2.0)),
            Stmt::assign(r(), a(6), rf(1, compass::EAST)), // C(=1)
            Stmt::assign(r(), a(7), rf(0, compass::EAST)), // B
            Stmt::assign(r(), a(8), rf(2, compass::EAST)), // D(=2)
        ];
        let max_comb = plan(&info, &OptConfig::pl());
        assert_eq!(max_comb.len(), 1, "max combining merges all three");

        let max_lat = plan(&info, &OptConfig::pl_max_latency());
        assert_eq!(max_lat.len(), 3, "no merge may shrink a member's distance");
    }

    #[test]
    fn max_latency_combines_same_statement_refs() {
        // Two arrays read with the same offset in one statement have
        // identical send→receive intervals: combining loses nothing, so
        // even the latency-preserving heuristic merges them.
        let info = [
            Stmt::assign(r(), a(9), Expr::Const(0.0)),
            Stmt::assign(r(), a(0), rf(1, compass::EAST) + rf(2, compass::EAST)),
        ];
        let max_lat = plan(&info, &OptConfig::pl_max_latency());
        assert_eq!(max_lat.len(), 1);
        assert_eq!(max_lat[0].items.len(), 2);
        // The hoisted send still lands at the block top.
        assert_eq!(max_lat[0].sr_gap, 0);
        assert_eq!(max_lat[0].dn_gap, 1);
    }

    #[test]
    fn combine_cap_limits_message_growth() {
        // Three same-offset refs, cap at 2 items.
        let info = [
            Stmt::assign(r(), a(0), rf(1, compass::EAST)),
            Stmt::assign(r(), a(2), rf(3, compass::EAST)),
            Stmt::assign(r(), a(4), rf(5, compass::EAST)),
        ];
        let cfg = OptConfig {
            max_combined_items: Some(2),
            ..OptConfig::cc()
        };
        let comms = plan(&info, &cfg);
        assert_eq!(comms.len(), 2);
        assert_eq!(comms[0].items.len(), 2);
        assert_eq!(comms[1].items.len(), 1);
    }

    #[test]
    fn sv_placed_before_next_write_when_pipelined() {
        // s0: A := B@e; s1: B := ...  -> SV of the transfer must complete
        // before s1 overwrites B.
        let info = [
            Stmt::assign(r(), a(0), rf(1, compass::EAST)),
            Stmt::assign(r(), a(1), Expr::Const(0.0)),
        ];
        let comms = plan(&info, &OptConfig::pl());
        assert_eq!(comms[0].sv_gap, 1);
        // Unpipelined: the whole quad sits at the use.
        let sync = plan(&info, &OptConfig::cc());
        assert_eq!(sync[0].sv_gap, 0);
    }

    #[test]
    fn self_shift_assignment_is_legal() {
        // A := A@east reads the pre-statement value; the transfer's SV must
        // land before the statement itself.
        let info = [Stmt::assign(r(), a(0), rf(0, compass::EAST))];
        let comms = plan(&info, &OptConfig::pl());
        assert_eq!(comms.len(), 1);
        assert_eq!(comms[0].sr_gap, 0);
        assert_eq!(comms[0].dn_gap, 0);
        assert_eq!(comms[0].sv_gap, 0);
    }

    #[test]
    fn rr_covers_multiple_uses_and_extends_sv() {
        // s0: A := B@e; s1: C := B@e; s2: B := 0
        let info = [
            Stmt::assign(r(), a(1), rf(0, compass::EAST)),
            Stmt::assign(r(), a(2), rf(0, compass::EAST)),
            Stmt::assign(r(), a(0), Expr::Const(0.0)),
        ];
        let comms = plan(&info, &OptConfig::pl());
        assert_eq!(comms.len(), 1);
        assert_eq!(comms[0].sv_gap, 2); // before the write of B
    }
}
