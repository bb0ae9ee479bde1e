//! Block-scoped lint scans: missed-optimization detectors (C003, C004)
//! and the unsafe-hoist, call-protocol and source-volatility checks
//! (C005, C006, W101).
//!
//! C003/C004 replay the optimizer's own redundant-removal and combination
//! decision procedures over the *emitted* transfers of a straight-line
//! segment, so what they flag is exactly the headroom the rr/cc passes
//! would reclaim — the counts match the `PassLog` event counts at every
//! optimization level (asserted by the golden tests in `commopt-bench`).

use crate::{Code, Diagnostic};
use commopt_ir::analysis::{written_arrays, CommRef, Span};
use commopt_ir::{ArrayId, CallKind, Offset, Program, Stmt, TransferId};
use std::collections::{BTreeMap, HashMap};

/// Walks every statement list of the program and reports C003–C006 and
/// W101 findings.
pub fn check(program: &Program, out: &mut Vec<Diagnostic>) {
    scan_list(program, &program.body.0, &Span::root(), out);
}

/// Per-transfer call bookkeeping, scoped to one statement list: a
/// transfer's four calls must all appear in the same list.
#[derive(Default)]
struct CallState {
    dr: u32,
    sr: u32,
    dn: u32,
    sv: u32,
    first_span: Option<Span>,
    sr_span: Option<Span>,
}

/// One surviving (non-redundant) communication of a straight segment, with
/// the planner-equivalent constraints reconstructed from the source
/// statements around it.
struct SimComm {
    transfer: TransferId,
    span: Span,
    offset: Offset,
    /// `(ref, first_use, ready_gap)` in segment-local source-statement
    /// coordinates.
    items: Vec<(CommRef, usize, usize)>,
}

impl SimComm {
    fn ready(&self) -> usize {
        self.items.iter().map(|i| i.2).max().unwrap_or(0)
    }
    fn first_use(&self) -> usize {
        self.items.iter().map(|i| i.1).min().unwrap_or(0)
    }
    fn carries(&self, r: CommRef) -> bool {
        self.items.iter().any(|i| i.0 == r)
    }
}

/// Source-statement summary within one straight segment.
struct SourceInfo {
    refs: Vec<CommRef>,
    writes: Option<ArrayId>,
}

#[derive(Default)]
struct SegmentState {
    /// (array, offset) -> transfer whose ghost data is still valid.
    valid: HashMap<CommRef, TransferId>,
    sources: Vec<SourceInfo>,
    comms: Vec<(SimComm, /* redundant */ bool)>,
}

fn scan_list(program: &Program, stmts: &[Stmt], prefix: &Span, out: &mut Vec<Diagnostic>) {
    let mut calls: BTreeMap<TransferId, CallState> = BTreeMap::new();
    let mut seg = SegmentState::default();

    for (i, stmt) in stmts.iter().enumerate() {
        let span = prefix.child(i);
        match stmt {
            Stmt::Comm { kind, transfer } => {
                let st = calls.entry(*transfer).or_default();
                if st.first_span.is_none() {
                    st.first_span = Some(span.clone());
                }
                match kind {
                    CallKind::DR => st.dr += 1,
                    CallKind::SR => {
                        if st.dr == 0 {
                            push_order(out, &span, *transfer, "SR before DR");
                        }
                        st.sr += 1;
                        st.sr_span = Some(span.clone());
                    }
                    CallKind::DN => {
                        if st.sr == 0 {
                            push_order(out, &span, *transfer, "DN before SR");
                        }
                        st.dn += 1;
                        scan_dn(program, &mut seg, *transfer, &span, out);
                    }
                    CallKind::SV => {
                        if st.sr == 0 {
                            push_order(out, &span, *transfer, "SV before SR");
                        }
                        st.sv += 1;
                    }
                }
            }
            Stmt::Repeat { body, .. } | Stmt::For { body, .. } => {
                // C005: a loop whose body writes an array carried by a
                // transfer sent (SR) but not yet delivered (DN) — the
                // message would carry values from before the loop's defs.
                let body_writes = written_arrays(body);
                for (t, st) in &calls {
                    if st.sr > 0 && st.dn == 0 {
                        for item in &program.transfer(*t).items {
                            if body_writes.contains(&item.array) {
                                push_unsafe_hoist(program, out, st, *t, item.array, &span, true);
                            }
                        }
                    }
                }
                flush_segment(&mut seg, out);
                scan_list(program, &body.0, &span, out);
            }
            source => {
                if let Some(w) = commopt_ir::arrays_written(source) {
                    for (t, st) in &calls {
                        let carries = program
                            .transfer(*t)
                            .items
                            .iter()
                            .any(|item| item.array == w);
                        if !carries {
                            continue;
                        }
                        // W101: in-flight source buffer overwritten.
                        if st.sr > 0 && st.sv == 0 {
                            out.push(Diagnostic {
                                code: Code::W101,
                                span: span.clone(),
                                message: format!(
                                    "volatile source: {} overwritten while t{} is in flight (no SV yet)",
                                    program.arrays[w.index()].name, t.0
                                ),
                                transfer: Some(*t),
                                r: None,
                            });
                        }
                        // C005: the def lands between SR and DN — the
                        // hoisted send reads data this statement replaces.
                        if st.sr > 0 && st.dn == 0 {
                            push_unsafe_hoist(program, out, st, *t, w, &span, false);
                        }
                    }
                    seg.valid.retain(|r, _| r.array != w);
                }
                seg.sources.push(SourceInfo {
                    refs: commopt_ir::analysis::stmt_comm_refs(source),
                    writes: commopt_ir::arrays_written(source),
                });
            }
        }
    }
    flush_segment(&mut seg, out);

    // C006 multiplicity: each of a transfer's four calls must appear
    // exactly once in its block.
    for (t, st) in calls {
        for (kind, n) in [
            (CallKind::DR, st.dr),
            (CallKind::SR, st.sr),
            (CallKind::DN, st.dn),
            (CallKind::SV, st.sv),
        ] {
            if n != 1 {
                out.push(Diagnostic {
                    code: Code::C006,
                    span: st.first_span.clone().unwrap_or_else(Span::root),
                    message: format!(
                        "call protocol: t{} has {n} {} call(s) in its block (expected 1)",
                        t.0,
                        kind.name()
                    ),
                    transfer: Some(t),
                    r: None,
                });
            }
        }
    }
}

fn push_order(out: &mut Vec<Diagnostic>, span: &Span, transfer: TransferId, detail: &str) {
    out.push(Diagnostic {
        code: Code::C006,
        span: span.clone(),
        message: format!("call protocol: {detail} for t{}", transfer.0),
        transfer: Some(transfer),
        r: None,
    });
}

fn push_unsafe_hoist(
    program: &Program,
    out: &mut Vec<Diagnostic>,
    st: &CallState,
    t: TransferId,
    array: ArrayId,
    write_span: &Span,
    in_loop: bool,
) {
    let sr_span = st.sr_span.clone().unwrap_or_else(Span::root);
    let place = if in_loop {
        format!("a def inside the loop at {write_span}")
    } else {
        format!("the def at {write_span}")
    };
    out.push(Diagnostic {
        code: Code::C005,
        span: sr_span,
        message: format!(
            "unsafe hoist: SR of t{} precedes {place} of carried {}",
            t.0,
            program.arrays[array.index()].name
        ),
        transfer: Some(t),
        r: None,
    });
}

/// C003 at a DN: items whose ghost data an earlier, still-valid transfer
/// of this segment already delivered.
fn scan_dn(
    program: &Program,
    seg: &mut SegmentState,
    transfer: TransferId,
    span: &Span,
    out: &mut Vec<Diagnostic>,
) {
    let t = program.transfer(transfer);
    let mut redundant_items = 0usize;
    let mut sim_items = Vec::new();
    for item in &t.items {
        let r = CommRef {
            array: item.array,
            offset: item.offset,
        };
        if let Some(prev) = seg.valid.get(&r) {
            redundant_items += 1;
            out.push(Diagnostic {
                code: Code::C003,
                span: span.clone(),
                message: format!(
                    "redundant communication: t{} re-delivers {} still valid from t{} (rr headroom)",
                    transfer.0,
                    crate::ref_name(program, r),
                    prev.0
                ),
                transfer: Some(transfer),
                r: Some(r),
            });
        } else {
            seg.valid.insert(r, transfer);
        }
        sim_items.push(r);
    }
    let redundant = !t.items.is_empty() && redundant_items == t.items.len();
    // Planner-equivalent constraints, reconstructed lazily at flush time
    // (first uses lie after this DN): record the DN's source position now.
    let dn_pos = seg.sources.len();
    seg.comms.push((
        SimComm {
            transfer,
            span: span.clone(),
            offset: t.items[0].offset,
            items: sim_items.into_iter().map(|r| (r, dn_pos, 0)).collect(),
        },
        redundant,
    ));
}

/// End of a straight segment: resolve first-use/ready constraints and
/// replay the combination pass (max-combining, uncapped) over the
/// surviving transfers — every merge it finds is cc headroom (C004).
fn flush_segment(seg: &mut SegmentState, out: &mut Vec<Diagnostic>) {
    let state = std::mem::take(seg);
    let sources = &state.sources;
    let mut survivors: Vec<SimComm> = Vec::new();
    for (mut comm, redundant) in state.comms {
        if redundant {
            continue;
        }
        for (r, first_use, ready) in comm.items.iter_mut() {
            let dn_pos = *first_use;
            *first_use = sources[dn_pos..]
                .iter()
                .position(|s| s.refs.contains(r))
                .map(|k| dn_pos + k)
                .unwrap_or(sources.len());
            *ready = sources[..*first_use]
                .iter()
                .rposition(|s| s.writes == Some(r.array))
                .map(|i| i + 1)
                .unwrap_or(0);
        }
        survivors.push(comm);
    }

    let mut merged: Vec<SimComm> = Vec::new();
    for comm in survivors {
        let host = merged.iter().position(|h| {
            h.offset == comm.offset
                && !comm.items.iter().any(|i| h.carries(i.0))
                && h.ready().max(comm.ready()) <= h.first_use().min(comm.first_use())
        });
        match host {
            Some(hix) => {
                out.push(Diagnostic {
                    code: Code::C004,
                    span: comm.span.clone(),
                    message: format!(
                        "combinable: t{} could merge into t{} (same {} offset, compatible send window; cc headroom)",
                        comm.transfer.0, merged[hix].transfer.0, comm.offset
                    ),
                    transfer: Some(comm.transfer),
                    r: None,
                });
                let items = comm.items;
                merged[hix].items.extend(items);
            }
            None => merged.push(comm),
        }
    }
}
