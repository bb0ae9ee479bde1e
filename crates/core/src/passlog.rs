//! A structured record of what the optimizer did and why.
//!
//! Every [`optimize`](crate::optimize) run produces a [`PassLog`] (attached
//! to [`Optimized`](crate::Optimized)) recording each redundant-removal
//! hit, each combination merge with the heuristic that admitted it, and
//! the final placement of every emitted transfer. The log answers "why did
//! the static count drop from 9 to 4?" without re-deriving the pass
//! pipeline by hand, and [`PassLog::render`] prints it with array names
//! resolved against the program.
//!
//! Generated communications are identified by a monotonically increasing
//! *sequence number* (`seq`), assigned at naive-generation time and stable
//! across the later passes; [`PassEvent::Emitted`] maps the surviving
//! sequence numbers to their final [`TransferId`]s.

use crate::config::CombineMode;
use commopt_ir::{ArrayId, Offset, Program, TransferId};
use std::collections::HashMap;
use std::fmt::Write as _;

/// One optimizer decision.
#[derive(Clone, PartialEq, Debug)]
pub enum PassEvent {
    /// Redundant removal: the reference `array@offset` at statement
    /// `use_stmt` needed no new transfer — the data of the earlier
    /// communication `reused_seq` was still valid.
    Removed {
        array: ArrayId,
        offset: Offset,
        /// Block-local index of the statement whose reference was covered.
        use_stmt: usize,
        /// The generated communication whose data is reused.
        reused_seq: u32,
        /// Block-local index of the statement the reused communication was
        /// originally delivered for — the reaching definition of the ghost
        /// data. The removal is legal exactly because no statement in
        /// `delivered_stmt..use_stmt` writes `array`.
        delivered_stmt: usize,
    },
    /// Combination: communication `merged_seq` was folded into `host_seq`
    /// (they share `offset`), admitted by `mode`.
    Combined {
        host_seq: u32,
        merged_seq: u32,
        offset: Offset,
        mode: CombineMode,
    },
    /// Final placement of a surviving communication: its transfer id and
    /// the gaps its DR/SR/DN/SV calls land at. `split` is true when
    /// pipelining actually separated the send from the receive
    /// (`sr_gap < dn_gap`).
    Emitted {
        seq: u32,
        transfer: TransferId,
        /// Number of (array, offset) items the message carries.
        items: usize,
        offset: Offset,
        dr_gap: usize,
        sr_gap: usize,
        dn_gap: usize,
        sv_gap: usize,
        pipelined: bool,
        split: bool,
    },
}

/// The decisions of one `optimize` run, in pass order per block.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct PassLog {
    pub events: Vec<PassEvent>,
    next_seq: u32,
}

impl PassLog {
    pub fn new() -> PassLog {
        PassLog::default()
    }

    /// Allocates the next communication sequence number (called by the
    /// planner at generation time).
    pub(crate) fn alloc_seq(&mut self) -> u32 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    pub(crate) fn push(&mut self, e: PassEvent) {
        self.events.push(e);
    }

    /// All redundant-removal hits.
    pub fn removals(&self) -> impl Iterator<Item = &PassEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e, PassEvent::Removed { .. }))
    }

    /// All combination merges.
    pub fn merges(&self) -> impl Iterator<Item = &PassEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e, PassEvent::Combined { .. }))
    }

    /// All emitted (surviving) communications.
    pub fn emitted(&self) -> impl Iterator<Item = &PassEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e, PassEvent::Emitted { .. }))
    }

    /// Final transfer ids by generation sequence number (merged and removed
    /// communications resolve through the event chain to their host).
    pub fn transfer_of_seq(&self) -> HashMap<u32, TransferId> {
        let mut map: HashMap<u32, TransferId> = HashMap::new();
        for e in &self.events {
            if let PassEvent::Emitted { seq, transfer, .. } = e {
                map.insert(*seq, *transfer);
            }
        }
        // A host is never merged later (cc merges only into survivors), so
        // every host is emitted and one pass resolves every merged seq.
        for e in &self.events {
            if let PassEvent::Combined {
                host_seq,
                merged_seq,
                ..
            } = e
            {
                if let Some(&t) = map.get(host_seq) {
                    map.insert(*merged_seq, t);
                }
            }
        }
        map
    }

    /// Renders the log with array names resolved against `program`: one
    /// line per decision, in pass order.
    pub fn render(&self, program: &Program) -> String {
        let name = |a: ArrayId| program.arrays[a.index()].name.as_str();
        let tid = self.transfer_of_seq();
        let t = |seq: u32| match tid.get(&seq) {
            Some(id) => format!("t{}", id.0),
            None => format!("c{seq}"),
        };
        let mut out = String::new();
        for e in &self.events {
            match e {
                PassEvent::Removed {
                    array,
                    offset,
                    use_stmt,
                    reused_seq,
                    delivered_stmt,
                } => {
                    let _ = writeln!(
                        out,
                        "rr: removed {}{} at stmt {} (data still valid from {}, \
                         delivered for stmt {}; no write of {} in stmts {}..{})",
                        name(*array),
                        offset,
                        use_stmt,
                        t(*reused_seq),
                        delivered_stmt,
                        name(*array),
                        delivered_stmt,
                        use_stmt,
                    );
                }
                PassEvent::Combined {
                    host_seq,
                    merged_seq,
                    offset,
                    mode,
                } => {
                    let _ = writeln!(
                        out,
                        "cc: merged {}{} into {} ({})",
                        t(*merged_seq),
                        offset,
                        t(*host_seq),
                        mode_name(*mode),
                    );
                }
                PassEvent::Emitted {
                    transfer,
                    items,
                    offset,
                    dr_gap,
                    sr_gap,
                    dn_gap,
                    sv_gap,
                    pipelined,
                    split,
                    ..
                } => {
                    let place = if *split {
                        "pipelined, quad split"
                    } else if *pipelined {
                        "pipelined, not split"
                    } else {
                        "synchronous"
                    };
                    let _ = writeln!(
                        out,
                        "emit t{}: {} item{}{}, DR@{} SR@{} DN@{} SV@{} ({place})",
                        transfer.0,
                        items,
                        if *items == 1 { "" } else { "s" },
                        offset,
                        dr_gap,
                        sr_gap,
                        dn_gap,
                        sv_gap,
                    );
                }
            }
        }
        out
    }
}

fn mode_name(mode: CombineMode) -> &'static str {
    match mode {
        CombineMode::Off => "off",
        CombineMode::MaxCombining => "max-combining",
        CombineMode::MaxLatencyHiding => "max-latency-hiding",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{optimize, OptConfig};
    use commopt_ir::offset::compass;
    use commopt_ir::{Expr, ProgramBuilder, Rect, Region};

    /// Figure 1: B := 1; A := B@e; C := B@e; D := E@e.
    fn figure1() -> Program {
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
    fn baseline_log_has_only_emissions() {
        let opt = optimize(&figure1(), &OptConfig::baseline());
        assert_eq!(opt.log.removals().count(), 0);
        assert_eq!(opt.log.merges().count(), 0);
        assert_eq!(opt.log.emitted().count(), 3);
    }

    #[test]
    fn rr_names_the_removed_reference() {
        let opt = optimize(&figure1(), &OptConfig::rr());
        assert_eq!(opt.log.removals().count(), 1);
        let rendered = opt.log.render(&opt.program);
        assert!(
            rendered.contains("rr: removed B@east at stmt 2"),
            "{rendered}"
        );
        // The citation names the reaching delivery: the reused transfer was
        // delivered for stmt 1, and B is unwritten in stmts 1..2.
        assert!(
            rendered.contains("delivered for stmt 1; no write of B in stmts 1..2"),
            "{rendered}"
        );
    }

    #[test]
    fn cc_records_the_merge_and_heuristic() {
        let opt = optimize(&figure1(), &OptConfig::cc());
        assert_eq!(opt.log.merges().count(), 1);
        assert_eq!(opt.log.emitted().count(), 1);
        let rendered = opt.log.render(&opt.program);
        assert!(rendered.contains("into t0 (max-combining)"), "{rendered}");
    }

    #[test]
    fn pl_marks_split_quads() {
        let opt = optimize(&figure1(), &OptConfig::pl());
        let rendered = opt.log.render(&opt.program);
        // B written at stmt 0, first use at stmt 1: send and receive share
        // gap 1, so the quad is pipelined but not actually split — extend
        // the program so a genuine split occurs.
        assert!(rendered.contains("pipelined"), "{rendered}");

        let mut b = ProgramBuilder::new("split");
        let bounds = Rect::d2((1, 8), (1, 8));
        let r = Region::d2((2, 7), (2, 7));
        let x = b.array("X", bounds);
        let a = b.array("A", bounds);
        let c = b.array("C", bounds);
        b.assign(r, x, Expr::Const(1.0));
        b.assign(r, a, Expr::Const(2.0));
        b.assign(r, c, Expr::at(x, compass::EAST));
        let opt = optimize(&b.finish(), &OptConfig::pl());
        let rendered = opt.log.render(&opt.program);
        assert!(rendered.contains("quad split"), "{rendered}");
    }

    #[test]
    fn merged_seqs_resolve_to_host_transfer() {
        let opt = optimize(&figure1(), &OptConfig::cc());
        let map = opt.log.transfer_of_seq();
        // Under rr+cc two communications are generated (seq 0: B@e,
        // seq 1: E@e) and merged into one transfer.
        assert_eq!(map.len(), 2);
        let ids: Vec<_> = map.values().collect();
        assert!(ids.iter().all(|t| t.0 == 0));
    }

    #[test]
    fn seqs_are_unique_across_blocks() {
        let mut b = ProgramBuilder::new("blocks");
        let bounds = Rect::d2((1, 8), (1, 8));
        let r = Region::d2((2, 7), (2, 7));
        let x = b.array("X", bounds);
        let a = b.array("A", bounds);
        b.assign(r, a, Expr::at(x, compass::EAST));
        b.repeat(3, |b| {
            b.assign(r, a, Expr::at(x, compass::WEST));
        });
        let opt = optimize(&b.finish(), &OptConfig::baseline());
        let seqs: Vec<u32> = opt
            .log
            .emitted()
            .map(|e| match e {
                PassEvent::Emitted { seq, .. } => *seq,
                _ => unreachable!(),
            })
            .collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seqs.len(), "duplicate seq: {seqs:?}");
    }
}
