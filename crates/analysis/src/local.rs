//! Block-scoped lint scans: missed-optimization detectors (C003, C004)
//! and the unsafe-hoist, call-protocol and source-volatility checks
//! (C005, C006, W101).
//!
//! C003/C004 hand the DNs of each straight-line segment to the rr/cc
//! procedure the optimizer's planner decides with ([`crate::rrcc`]), so
//! what they flag is exactly the headroom the rr/cc passes would reclaim:
//! at the vectorization-only level C003 names the references rr removes
//! and C004 the merges cc makes (asserted on the paper suite by
//! `commopt-bench`'s `lint_golden` and on random programs by
//! `tests/oracle.rs`).

use crate::rrcc::{CombineMode, Segment, Source};
use crate::{Code, Diagnostic};
use commopt_ir::analysis::{written_arrays, CommRef, Span};
use commopt_ir::{ArrayId, CallKind, Program, Stmt, TransferId};
use std::collections::BTreeMap;

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

/// The straight segment being scanned: what the rr/cc procedure judges,
/// and each delivery's DN (its transfer and span).
#[derive(Default)]
struct SegmentState {
    seg: Segment,
    dns: Vec<(TransferId, Span)>,
}

fn scan_list(program: &Program, stmts: &[Stmt], prefix: &Span, out: &mut Vec<Diagnostic>) {
    let mut calls: BTreeMap<TransferId, CallState> = BTreeMap::new();
    let mut state = SegmentState::default();

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
                        state
                            .seg
                            .deliver(program.transfer(*transfer).items.iter().map(|item| {
                                CommRef {
                                    array: item.array,
                                    offset: item.offset,
                                }
                            }));
                        state.dns.push((*transfer, span));
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
                flush_segment(program, &mut state, out);
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
                }
                state.seg.push(Source::of(source));
            }
        }
    }
    flush_segment(program, &mut state, out);

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

/// End of a straight segment: judge its DNs with rr on, max combining
/// and no item cap. Each redundant item is rr headroom (C003), each merge
/// cc headroom (C004).
fn flush_segment(program: &Program, state: &mut SegmentState, out: &mut Vec<Diagnostic>) {
    let SegmentState { seg, dns } = std::mem::take(state);
    let verdict = seg.judge(true, CombineMode::MaxCombining, None);
    for reuse in verdict.reuses {
        let (transfer, span) = &dns[reuse.delivery];
        let (provider, _) = &dns[reuse.provider];
        out.push(Diagnostic {
            code: Code::C003,
            span: span.clone(),
            message: format!(
                "redundant communication: t{} re-delivers {} still valid from t{} (rr headroom)",
                transfer.0,
                crate::ref_name(program, reuse.r),
                provider.0
            ),
            transfer: Some(*transfer),
            r: Some(reuse.r),
        });
    }
    for (member, host) in verdict.merges {
        let (transfer, span) = &dns[member];
        let (host, _) = &dns[host];
        out.push(Diagnostic {
            code: Code::C004,
            span: span.clone(),
            message: format!(
                "combinable: t{} could merge into t{} (same {} offset, compatible send window; cc headroom)",
                transfer.0,
                host.0,
                seg.refs(member)[0].offset
            ),
            transfer: Some(*transfer),
            r: None,
        });
    }
}
