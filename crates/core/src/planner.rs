//! The per-block communication planner: naive generation, redundant
//! removal, combination, and pipelined placement.
//!
//! All positions are *gaps*: gap `g` is the insertion point immediately
//! before statement `g` of the block; gap `len` is the end of the block.

use crate::block::BlockInfo;
use crate::config::{CombineMode, OptConfig};
use crate::passlog::{PassEvent, PassLog};
use commopt_ir::analysis::CommRef;
use commopt_ir::{Offset, Region};
use std::collections::HashMap;

/// One item of a planned communication, with its block-local constraints.
#[derive(Clone, PartialEq, Debug)]
pub struct PlannedItem {
    pub r: CommRef,
    /// Index of the first statement that reads this ghost data.
    pub first_use: usize,
    /// Earliest gap at which the source data is complete (just after the
    /// last preceding write of the array; 0 when written before the block).
    pub ready_gap: usize,
    /// Gap before the first write of the array at/after `first_use` — the
    /// latest point by which SV must have completed.
    pub sv_cap: usize,
    /// Regions of the covered uses (drives exact runtime slab geometry).
    pub regions: Vec<Region>,
}

/// One planned communication: a transfer (one message per processor pair)
/// and the gaps at which its four IRONMAN calls are emitted.
#[derive(Clone, PartialEq, Debug)]
pub struct PlannedComm {
    /// Generation sequence number, unique over the whole `optimize` run —
    /// the identity the [`PassLog`] uses to refer to this communication.
    pub seq: u32,
    /// Items carried; all share one offset.
    pub items: Vec<PlannedItem>,
    /// Placement of the four calls (filled by the planner's `place`).
    pub dr_gap: usize,
    pub sr_gap: usize,
    pub dn_gap: usize,
    pub sv_gap: usize,
}

impl PlannedComm {
    fn single(seq: u32, item: PlannedItem) -> PlannedComm {
        PlannedComm {
            seq,
            items: vec![item],
            dr_gap: 0,
            sr_gap: 0,
            dn_gap: 0,
            sv_gap: 0,
        }
    }

    /// The shared shift direction.
    pub fn offset(&self) -> Offset {
        self.items[0].r.offset
    }

    /// Earliest legal send gap: every item's data must be complete.
    pub fn ready_gap(&self) -> usize {
        self.items.iter().map(|i| i.ready_gap).max().unwrap()
    }

    /// The receive gap: before the earliest first use of any item.
    pub fn use_gap(&self) -> usize {
        self.items.iter().map(|i| i.first_use).min().unwrap()
    }

    /// Latest legal SV gap.
    pub fn sv_cap(&self) -> usize {
        self.items.iter().map(|i| i.sv_cap).min().unwrap()
    }

    /// `true` if the communication already carries `(array, offset)`.
    pub fn carries(&self, r: CommRef) -> bool {
        self.items.iter().any(|i| i.r == r)
    }

    /// The pipelined send→receive interval `[ready_gap, use_gap]`.
    pub fn interval(&self) -> (usize, usize) {
        (self.ready_gap(), self.use_gap())
    }
}

/// Plans all communication for one basic block under `config`.
///
/// Stages (paper §2/§3.1):
/// 1. naive vectorized generation — one transfer per distinct non-local
///    reference per statement;
/// 2. redundant communication removal (if enabled) — reuse a still-valid
///    earlier transfer of the same `(array, offset)`;
/// 3. communication combination (if enabled) — merge same-offset transfers
///    under the configured heuristic;
/// 4. placement — pipelined (early DR/SR, late SV) or synchronous (all
///    four calls immediately before the first use).
pub fn plan_block(info: &BlockInfo, config: &OptConfig) -> Vec<PlannedComm> {
    plan_block_logged(info, config, &mut PassLog::new())
}

/// [`plan_block`], recording every removal and merge decision in `log`.
pub fn plan_block_logged(
    info: &BlockInfo,
    config: &OptConfig,
    log: &mut PassLog,
) -> Vec<PlannedComm> {
    let mut comms = generate(info, config.redundant_removal, log);
    if config.combine != CombineMode::Off {
        comms = combine(info, comms, config, log);
    }
    place(&mut comms, config.pipeline);
    comms
}

/// Stages 1–2: vectorized generation, optionally reusing still-valid data.
fn generate(info: &BlockInfo, redundant_removal: bool, log: &mut PassLog) -> Vec<PlannedComm> {
    let mut comms: Vec<PlannedComm> = Vec::new();
    // (array, offset) -> index of the comm whose data is still valid.
    let mut valid: HashMap<CommRef, usize> = HashMap::new();

    for (s, stmt) in info.stmts.iter().enumerate() {
        for &r in &stmt.refs {
            if redundant_removal {
                if let Some(&c) = valid.get(&r) {
                    // Covered by an earlier, still-valid transfer; extend
                    // its SV window to protect the data through this use
                    // and record the extra use region.
                    let item = comms[c]
                        .items
                        .iter_mut()
                        .find(|i| i.r == r)
                        .expect("valid map points at a comm carrying the ref");
                    let delivered_stmt = item.first_use;
                    item.sv_cap = item.sv_cap.min(info.next_write_gap(r.array, s));
                    if let Some(region) = stmt.region {
                        if !item.regions.contains(&region) {
                            item.regions.push(region);
                        }
                    }
                    log.push(PassEvent::Removed {
                        array: r.array,
                        offset: r.offset,
                        use_stmt: s,
                        reused_seq: comms[c].seq,
                        delivered_stmt,
                    });
                    continue;
                }
            }
            let item = PlannedItem {
                r,
                first_use: s,
                ready_gap: info.ready_gap(r.array, s),
                sv_cap: info.next_write_gap(r.array, s),
                regions: stmt.region.into_iter().collect(),
            };
            valid.insert(r, comms.len());
            comms.push(PlannedComm::single(log.alloc_seq(), item));
        }
        // A write invalidates every cached ghost copy of the array.
        if let Some(w) = stmt.writes {
            valid.retain(|r, _| r.array != w);
        }
    }
    comms
}

/// Stage 3: merge same-offset transfers under the configured heuristic.
fn combine(
    info: &BlockInfo,
    comms: Vec<PlannedComm>,
    config: &OptConfig,
    log: &mut PassLog,
) -> Vec<PlannedComm> {
    let mut out: Vec<PlannedComm> = Vec::new();
    for comm in comms {
        let mut merged = false;
        for host in out.iter_mut() {
            if can_combine(info, host, &comm, config) {
                log.push(PassEvent::Combined {
                    host_seq: host.seq,
                    merged_seq: comm.seq,
                    offset: comm.offset(),
                    mode: config.combine,
                });
                host.items.extend(comm.items.iter().cloned());
                merged = true;
                break;
            }
        }
        if !merged {
            out.push(comm);
        }
    }
    out
}

/// Legality + heuristic test for merging `t` into `host`.
fn can_combine(info: &BlockInfo, host: &PlannedComm, t: &PlannedComm, config: &OptConfig) -> bool {
    if host.offset() != t.offset() {
        return false;
    }
    // Never carry two copies of the same slab in one message (can only
    // arise when combining without redundant removal).
    if t.items.iter().any(|i| host.carries(i.r)) {
        return false;
    }
    if let Some(cap) = config.max_combined_items {
        if host.items.len() + t.items.len() > cap {
            return false;
        }
    }
    // Legality: at the merged send point every member must be complete,
    // and the send point must not fall after the merged first use.
    let merged_ready = host.ready_gap().max(t.ready_gap());
    let merged_use = host.use_gap().min(t.use_gap());
    if merged_ready > merged_use {
        return false;
    }
    match config.combine {
        CombineMode::Off => false,
        CombineMode::MaxCombining => true,
        CombineMode::MaxLatencyHiding => {
            // Combine "only until the distance between the combined send
            // and receives is no smaller than any of the distances of the
            // uncombined communication" (paper §2, Figure 2(c)): the merged
            // interval — the intersection of the members' send→receive
            // intervals — must hide at least as much computation as every
            // member could alone. Since the intersection can only shrink a
            // member's interval, this admits exactly the merges where the
            // shrunk-away span contains no computation.
            let (hl, hu) = host.interval();
            let (tl, tu) = t.interval();
            let merged = info.distance(merged_ready, merged_use);
            merged >= info.distance(hl, hu) && merged >= info.distance(tl, tu)
        }
    }
}

/// Stage 4: final call placement.
fn place(comms: &mut [PlannedComm], pipeline: bool) {
    for c in comms {
        let use_gap = c.use_gap();
        if pipeline {
            c.sr_gap = c.ready_gap();
            c.dr_gap = c.sr_gap;
            c.dn_gap = use_gap;
            c.sv_gap = c.sv_cap().max(c.sr_gap);
        } else {
            c.dr_gap = use_gap;
            c.sr_gap = use_gap;
            c.dn_gap = use_gap;
            c.sv_gap = use_gap;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockInfo;
    use commopt_ir::offset::compass;
    use commopt_ir::{ArrayId, Expr, Region, Stmt};

    fn r() -> Region {
        Region::d2((1, 8), (1, 8))
    }
    fn a(i: u32) -> ArrayId {
        ArrayId(i)
    }
    fn rf(i: u32, o: commopt_ir::Offset) -> Expr {
        Expr::at(a(i), o)
    }

    /// The paper's Figure 1 block:
    ///   B := f(); A := B@east; C := B@east; D := E@east
    /// (B=0, A=1, C=2, D=3, E=4)
    fn figure1() -> BlockInfo {
        BlockInfo::from_stmts(&[
            Stmt::assign(r(), a(0), Expr::Const(1.0)),
            Stmt::assign(r(), a(1), rf(0, compass::EAST)),
            Stmt::assign(r(), a(2), rf(0, compass::EAST)),
            Stmt::assign(r(), a(3), rf(4, compass::EAST)),
        ])
    }

    #[test]
    fn naive_generation_matches_figure_1a() {
        let comms = plan_block(&figure1(), &OptConfig::baseline());
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
        let comms = plan_block(&figure1(), &OptConfig::rr());
        assert_eq!(comms.len(), 2); // second B comm removed
        assert!(comms[0].carries(CommRef {
            array: a(0),
            offset: compass::EAST
        }));
        assert!(comms[1].carries(CommRef {
            array: a(4),
            offset: compass::EAST
        }));
    }

    #[test]
    fn combination_matches_figure_1c() {
        let comms = plan_block(&figure1(), &OptConfig::cc());
        assert_eq!(comms.len(), 1); // B and E share offset east -> one message
        assert_eq!(comms[0].items.len(), 2);
        assert_eq!(comms[0].dn_gap, 1); // receive before first use of B
    }

    #[test]
    fn pipelining_matches_figure_1d() {
        let comms = plan_block(&figure1(), &OptConfig::pl());
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
        let info = BlockInfo::from_stmts(&[
            Stmt::assign(r(), a(0), Expr::Const(1.0)),
            Stmt::assign(r(), a(1), Expr::Const(2.0)),
            Stmt::assign(r(), a(2), rf(4, compass::EAST)),
        ]);
        let comms = plan_block(&info, &OptConfig::pl());
        assert_eq!(comms.len(), 1);
        assert_eq!(comms[0].sr_gap, 0); // top of block
        assert_eq!(comms[0].dn_gap, 2); // just before use
    }

    #[test]
    fn write_invalidates_cached_ghost() {
        // A := B@e; B := ...; C := B@e  -> two transfers even under rr.
        let info = BlockInfo::from_stmts(&[
            Stmt::assign(r(), a(1), rf(0, compass::EAST)),
            Stmt::assign(r(), a(0), Expr::Const(0.0)),
            Stmt::assign(r(), a(2), rf(0, compass::EAST)),
        ]);
        let comms = plan_block(&info, &OptConfig::rr());
        assert_eq!(comms.len(), 2);
        // The second transfer can't send before the write completes.
        let pl = plan_block(&info, &OptConfig::pl());
        assert_eq!(pl.len(), 2);
        assert_eq!(pl[1].sr_gap, 2);
    }

    #[test]
    fn different_offsets_never_combine() {
        let info = BlockInfo::from_stmts(&[
            Stmt::assign(r(), a(1), rf(0, compass::EAST)),
            Stmt::assign(r(), a(2), rf(3, compass::WEST)),
        ]);
        let comms = plan_block(&info, &OptConfig::cc());
        assert_eq!(comms.len(), 2);
    }

    #[test]
    fn illegal_combination_rejected() {
        // D := E@e; E2 written after first use: combining E2's comm down to
        // gap 0 would send incomplete data.
        // s0: D := E@e ; s1: F := ... ; s2: G := F@e
        let info = BlockInfo::from_stmts(&[
            Stmt::assign(r(), a(0), rf(1, compass::EAST)),
            Stmt::assign(r(), a(2), Expr::Const(0.0)),
            Stmt::assign(r(), a(3), rf(2, compass::EAST)),
        ]);
        let comms = plan_block(&info, &OptConfig::cc());
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
        let info = BlockInfo::from_stmts(&[
            Stmt::assign(r(), a(0), Expr::Const(1.0)), // writes B(=0)
            Stmt::assign(r(), a(5), Expr::Const(2.0)),
            Stmt::assign(r(), a(6), rf(1, compass::EAST)), // C(=1)
            Stmt::assign(r(), a(7), rf(0, compass::EAST)), // B
            Stmt::assign(r(), a(8), rf(2, compass::EAST)), // D(=2)
        ]);
        let max_comb = plan_block(&info, &OptConfig::pl());
        assert_eq!(max_comb.len(), 1, "max combining merges all three");

        let max_lat = plan_block(&info, &OptConfig::pl_max_latency());
        assert_eq!(max_lat.len(), 3, "no merge may shrink a member's distance");
    }

    #[test]
    fn max_latency_combines_same_statement_refs() {
        // Two arrays read with the same offset in one statement have
        // identical send→receive intervals: combining loses nothing, so
        // even the latency-preserving heuristic merges them.
        let info = BlockInfo::from_stmts(&[
            Stmt::assign(r(), a(9), Expr::Const(0.0)),
            Stmt::assign(r(), a(0), rf(1, compass::EAST) + rf(2, compass::EAST)),
        ]);
        let max_lat = plan_block(&info, &OptConfig::pl_max_latency());
        assert_eq!(max_lat.len(), 1);
        assert_eq!(max_lat[0].items.len(), 2);
        // The hoisted send still lands at the block top.
        assert_eq!(max_lat[0].sr_gap, 0);
        assert_eq!(max_lat[0].dn_gap, 1);
    }

    #[test]
    fn combine_cap_limits_message_growth() {
        // Three same-offset refs, cap at 2 items.
        let info = BlockInfo::from_stmts(&[
            Stmt::assign(r(), a(0), rf(1, compass::EAST)),
            Stmt::assign(r(), a(2), rf(3, compass::EAST)),
            Stmt::assign(r(), a(4), rf(5, compass::EAST)),
        ]);
        let cfg = OptConfig {
            max_combined_items: Some(2),
            ..OptConfig::cc()
        };
        let comms = plan_block(&info, &cfg);
        assert_eq!(comms.len(), 2);
        assert_eq!(comms[0].items.len(), 2);
        assert_eq!(comms[1].items.len(), 1);
    }

    #[test]
    fn sv_placed_before_next_write_when_pipelined() {
        // s0: A := B@e; s1: B := ...  -> SV of the transfer must complete
        // before s1 overwrites B.
        let info = BlockInfo::from_stmts(&[
            Stmt::assign(r(), a(0), rf(1, compass::EAST)),
            Stmt::assign(r(), a(1), Expr::Const(0.0)),
        ]);
        let comms = plan_block(&info, &OptConfig::pl());
        assert_eq!(comms[0].sv_gap, 1);
        // Unpipelined: the whole quad sits at the use.
        let sync = plan_block(&info, &OptConfig::cc());
        assert_eq!(sync[0].sv_gap, 0);
    }

    #[test]
    fn self_shift_assignment_is_legal() {
        // A := A@east reads the pre-statement value; the transfer's SV must
        // land before the statement itself.
        let info = BlockInfo::from_stmts(&[Stmt::assign(r(), a(0), rf(0, compass::EAST))]);
        let comms = plan_block(&info, &OptConfig::pl());
        assert_eq!(comms.len(), 1);
        assert_eq!(comms[0].sr_gap, 0);
        assert_eq!(comms[0].dn_gap, 0);
        assert_eq!(comms[0].sv_gap, 0);
    }

    #[test]
    fn rr_covers_multiple_uses_and_extends_sv() {
        // s0: A := B@e; s1: C := B@e; s2: B := 0
        let info = BlockInfo::from_stmts(&[
            Stmt::assign(r(), a(1), rf(0, compass::EAST)),
            Stmt::assign(r(), a(2), rf(0, compass::EAST)),
            Stmt::assign(r(), a(0), Expr::Const(0.0)),
        ]);
        let comms = plan_block(&info, &OptConfig::pl());
        assert_eq!(comms.len(), 1);
        assert_eq!(comms[0].sv_gap, 2); // before the write of B
    }
}
