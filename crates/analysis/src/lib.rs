//! # commopt-analysis — `commlint`, a static analyzer for communication
//! legality and missed optimizations
//!
//! This crate analyzes *instrumented* mini-ZPL programs — programs whose
//! IRONMAN calls have already been placed, whether by the optimizer in
//! `commopt-core` or by hand — and reports two families of findings:
//!
//! * **Legality** (error severity): reads of ghost data that no transfer
//!   delivers or that a later write made stale ([`Code::C001`]), sends
//!   hoisted above a def of their source ([`Code::C005`]), and call-protocol
//!   violations ([`Code::C006`]). [`LintReport::safe`] also rejects a
//!   source buffer overwritten in flight ([`Code::W101`], a warning); it is
//!   the workspace's one static communication-safety judgement. Its
//!   independent reference is execution: `tests/oracle.rs` runs every
//!   mutant it calls safe in full mode against the sequential interpreter.
//! * **Missed optimizations** (warning severity): transfers nobody reads
//!   ([`Code::C002`]), redundant re-deliveries the rr pass would remove
//!   ([`Code::C003`]), and combinable transfers the cc pass would merge
//!   ([`Code::C004`]). The C003/C004 counts at each optimization level
//!   equal the corresponding `PassLog` event counts — they quantify the
//!   *headroom* left on the table, in the spirit of the paper's
//!   level-by-level comparison.
//!
//! The analyses run over a [`cfg::Cfg`], the program's statements as a
//! pre-order node list whose loop headers record where their bodies end.
//! Two structured drivers iterate each loop body to a fixpoint:
//! [`cfg::forward`] for must-availability of ghost data
//! (reaching-definitions style) and [`cfg::backward`] for may-liveness of
//! delivered regions.

pub mod bits;
pub mod cfg;
mod ghost;
mod live;
mod local;

pub use ghost::{GhostAnalysis, GhostState};
pub use live::{LiveAnalysis, LiveState};

use commopt_ir::analysis::{CommRef, Span};
use commopt_ir::{Program, TransferId};
use std::collections::BTreeMap;

/// How bad a finding is. Errors are wrong answers; warnings are headroom
/// or fragility.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    Warning,
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Code {
    /// Stale or missing ghost data at a non-local read.
    C001,
    /// Dead transfer: delivered data is never read.
    C002,
    /// Redundant communication the rr pass would remove.
    C003,
    /// Combinable transfers the cc pass would merge.
    C004,
    /// Unsafe hoist: SR above a def of the carried source.
    C005,
    /// IRONMAN call-protocol violation (order or multiplicity).
    C006,
    /// Source buffer overwritten while a transfer is in flight.
    W101,
}

impl Code {
    pub const ALL: [Code; 7] = [
        Code::C001,
        Code::C002,
        Code::C003,
        Code::C004,
        Code::C005,
        Code::C006,
        Code::W101,
    ];

    pub fn severity(self) -> Severity {
        match self {
            Code::C001 | Code::C005 | Code::C006 => Severity::Error,
            Code::C002 | Code::C003 | Code::C004 | Code::W101 => Severity::Warning,
        }
    }

    /// Short kebab-case name, for human-facing summaries.
    pub fn name(self) -> &'static str {
        match self {
            Code::C001 => "stale-ghost",
            Code::C002 => "dead-transfer",
            Code::C003 => "redundant-comm",
            Code::C004 => "combinable",
            Code::C005 => "unsafe-hoist",
            Code::C006 => "call-protocol",
            Code::W101 => "volatile-source",
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Code::C001 => "C001",
            Code::C002 => "C002",
            Code::C003 => "C003",
            Code::C004 => "C004",
            Code::C005 => "C005",
            Code::C006 => "C006",
            Code::W101 => "W101",
        }
    }
}

impl std::fmt::Display for Code {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// One finding.
#[derive(Clone, PartialEq, Debug)]
pub struct Diagnostic {
    pub code: Code,
    /// The statement the finding anchors to (the read for C001, the DN for
    /// C002–C004, the SR for C005, the offending call for C006, the write
    /// for W101).
    pub span: Span,
    pub message: String,
    /// The transfer involved, when there is exactly one.
    pub transfer: Option<TransferId>,
    /// The `(array, offset)` reference involved, when there is one.
    pub r: Option<CommRef>,
}

impl Diagnostic {
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity(),
            self.code,
            self.span,
            self.message
        )
    }
}

/// The result of linting one program.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// All findings, sorted by (span, code).
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
    }

    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Warning)
    }

    /// Findings with the given code.
    pub fn with_code(&self, code: Code) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    pub fn count(&self, code: Code) -> usize {
        self.with_code(code).count()
    }

    /// Per-code counts, omitting zero rows.
    pub fn counts(&self) -> BTreeMap<Code, usize> {
        let mut out = BTreeMap::new();
        for d in &self.diagnostics {
            *out.entry(d.code).or_insert(0) += 1;
        }
        out
    }

    /// No findings at error severity.
    pub fn error_free(&self) -> bool {
        self.errors().next().is_none()
    }

    /// The plan is communication-safe: no error-severity finding and no
    /// source buffer overwritten in flight (W101). Every ghost read is
    /// covered by a fresh delivery, and the call protocol holds.
    pub fn safe(&self) -> bool {
        self.error_free() && self.count(Code::W101) == 0
    }

    /// No findings at all.
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Human-readable listing, one finding per line, with a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        let errors = self.errors().count();
        let warnings = self.warnings().count();
        out.push_str(&format!(
            "{} finding(s): {errors} error(s), {warnings} warning(s)\n",
            self.diagnostics.len()
        ));
        out
    }
}

/// Lints an instrumented program: builds the node list once, runs the forward
/// ghost-availability and backward liveness fixpoints plus the block-local
/// scans, and returns every finding sorted by (span, code).
pub fn lint(program: &Program) -> LintReport {
    let cfg = cfg::Cfg::build(program);
    let mut diagnostics = Vec::new();
    ghost::check(program, &cfg, &mut diagnostics);
    live::check(program, &cfg, &mut diagnostics);
    local::check(program, &mut diagnostics);
    diagnostics.sort_by(|a, b| (&a.span, a.code).cmp(&(&b.span, b.code)));
    LintReport { diagnostics }
}

/// `"B@east"`-style rendering of a reference.
pub(crate) fn ref_name(program: &Program, r: CommRef) -> String {
    format!("{}{}", program.arrays[r.array.index()].name, r.offset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use commopt_ir::offset::compass;
    use commopt_ir::{Block, CallKind, Expr, Rect, Region, Stmt, TransferItem};

    fn region() -> Region {
        Region::d2((2, 7), (2, 7))
    }

    /// X := 1; [quad t0 for X@east]; A := X@east
    fn delivered_program() -> Program {
        let mut p = Program::new("ok");
        let x = p.add_array("X", Rect::d2((1, 8), (1, 8)));
        let a = p.add_array("A", Rect::d2((1, 8), (1, 8)));
        let t = p.add_transfer(vec![TransferItem::new(x, compass::EAST, region())]);
        p.body = Block::new(vec![
            Stmt::assign(region(), x, Expr::Const(1.0)),
            Stmt::Comm {
                kind: CallKind::DR,
                transfer: t,
            },
            Stmt::Comm {
                kind: CallKind::SR,
                transfer: t,
            },
            Stmt::Comm {
                kind: CallKind::DN,
                transfer: t,
            },
            Stmt::assign(region(), a, Expr::at(x, compass::EAST)),
            Stmt::Comm {
                kind: CallKind::SV,
                transfer: t,
            },
        ]);
        p
    }

    #[test]
    fn clean_program_is_clean() {
        let report = lint(&delivered_program());
        assert!(report.clean(), "unexpected findings:\n{}", report.render());
    }

    #[test]
    fn missing_transfer_is_c001() {
        let mut p = Program::new("missing");
        let x = p.add_array("X", Rect::d2((1, 8), (1, 8)));
        let a = p.add_array("A", Rect::d2((1, 8), (1, 8)));
        p.body = Block::new(vec![Stmt::assign(region(), a, Expr::at(x, compass::EAST))]);
        let report = lint(&p);
        assert_eq!(report.count(Code::C001), 1);
        let d = report.with_code(Code::C001).next().unwrap();
        assert_eq!(d.span.to_string(), "s0");
        assert!(d.message.contains("X@east"), "{}", d.message);
        assert!(!report.error_free());
    }

    #[test]
    fn stale_ghost_is_c001_and_write_in_flight_warns() {
        // Writing X between SR and the read makes the delivered ghost stale
        // (C001), the write lands between SR and DN (C005), and the source
        // is volatile while in flight (W101).
        let mut p = delivered_program();
        let x = commopt_ir::ArrayId(0);
        p.body
            .0
            .insert(3, Stmt::assign(region(), x, Expr::Const(2.0)));
        let report = lint(&p);
        assert_eq!(report.count(Code::C001), 1, "{}", report.render());
        assert_eq!(report.count(Code::C005), 1, "{}", report.render());
        assert_eq!(report.count(Code::W101), 1, "{}", report.render());
        let c001 = report.with_code(Code::C001).next().unwrap();
        assert!(c001.message.contains("stale"), "{}", c001.message);
    }

    #[test]
    fn dead_transfer_is_c002() {
        let mut p = delivered_program();
        // Drop the read: the transfer now delivers data nobody uses.
        p.body.0.remove(4);
        let report = lint(&p);
        assert_eq!(report.count(Code::C002), 1, "{}", report.render());
        // Dead, but not illegal.
        assert!(report.error_free());
    }

    #[test]
    fn duplicate_quad_is_c003() {
        // A second full quad for the same ref, before the read: its DN
        // re-delivers valid data (C003); each transfer's calls still appear
        // exactly once, so the protocol stays clean.
        let mut p = delivered_program();
        let x = commopt_ir::ArrayId(0);
        let t2 = p.add_transfer(vec![TransferItem::new(x, compass::EAST, region())]);
        for (at, kind) in [(4, CallKind::DR), (5, CallKind::SR), (6, CallKind::DN)] {
            p.body.0.insert(at, Stmt::Comm { kind, transfer: t2 });
        }
        p.body.0.push(Stmt::Comm {
            kind: CallKind::SV,
            transfer: t2,
        });
        let report = lint(&p);
        assert_eq!(report.count(Code::C003), 1, "{}", report.render());
        assert_eq!(report.count(Code::C006), 0, "{}", report.render());
    }

    #[test]
    fn missing_sr_is_c006() {
        let mut p = delivered_program();
        p.body.0.remove(2); // drop the SR
        let report = lint(&p);
        // DN-before-SR and SV-before-SR order violations, plus an SR
        // multiplicity of 0 at the block flush.
        assert_eq!(report.count(Code::C006), 3, "{}", report.render());
        assert!(!report.error_free());
    }

    #[test]
    fn combinable_transfers_are_c004() {
        // Two east transfers of different arrays, both delivered before
        // either use: max-combining would merge them.
        let mut p = Program::new("combinable");
        let x = p.add_array("X", Rect::d2((1, 8), (1, 8)));
        let y = p.add_array("Y", Rect::d2((1, 8), (1, 8)));
        let a = p.add_array("A", Rect::d2((1, 8), (1, 8)));
        let t0 = p.add_transfer(vec![TransferItem::new(x, compass::EAST, region())]);
        let t1 = p.add_transfer(vec![TransferItem::new(y, compass::EAST, region())]);
        let quad = |t, kinds: &[CallKind]| -> Vec<Stmt> {
            kinds
                .iter()
                .map(|&kind| Stmt::Comm { kind, transfer: t })
                .collect()
        };
        let mut body = Vec::new();
        body.push(Stmt::assign(region(), x, Expr::Const(1.0)));
        body.push(Stmt::assign(region(), y, Expr::Const(2.0)));
        body.extend(quad(t0, &[CallKind::DR, CallKind::SR, CallKind::DN]));
        body.extend(quad(t1, &[CallKind::DR, CallKind::SR, CallKind::DN]));
        body.push(Stmt::assign(
            region(),
            a,
            Expr::at(x, compass::EAST) + Expr::at(y, compass::EAST),
        ));
        body.extend(quad(t0, &[CallKind::SV]));
        body.extend(quad(t1, &[CallKind::SV]));
        p.body = Block::new(body);
        let report = lint(&p);
        assert_eq!(report.count(Code::C004), 1, "{}", report.render());
        assert!(report.error_free());
    }

    #[test]
    fn loop_carried_ghost_needs_redelivery() {
        // The loop body writes X and reads X@east: delivering once before
        // the loop is not enough — the loop-entry kill plus the back edge
        // make the read uncovered.
        let mut p = Program::new("carried");
        let x = p.add_array("X", Rect::d2((1, 8), (1, 8)));
        let t = p.add_transfer(vec![TransferItem::new(x, compass::EAST, region())]);
        p.body = Block::new(vec![
            Stmt::assign(region(), x, Expr::Const(1.0)),
            Stmt::Comm {
                kind: CallKind::DR,
                transfer: t,
            },
            Stmt::Comm {
                kind: CallKind::SR,
                transfer: t,
            },
            Stmt::Comm {
                kind: CallKind::DN,
                transfer: t,
            },
            Stmt::Repeat {
                count: 4,
                body: Block::new(vec![Stmt::assign(region(), x, Expr::at(x, compass::EAST))]),
            },
            Stmt::Comm {
                kind: CallKind::SV,
                transfer: t,
            },
        ]);
        let report = lint(&p);
        assert_eq!(report.count(Code::C001), 1, "{}", report.render());
        let d = report.with_code(Code::C001).next().unwrap();
        assert_eq!(d.span.to_string(), "s4.0");
    }

    fn call(kind: CallKind, transfer: commopt_ir::TransferId) -> Stmt {
        Stmt::Comm { kind, transfer }
    }

    #[test]
    fn missing_ghost_names_the_non_dominating_delivery() {
        // X := 1; A := X@east; [quad t0 for X@east]: the delivery comes
        // after the read, so the read is uncovered and the hint points at
        // the DN that fails to dominate it.
        let mut p = Program::new("late");
        let x = p.add_array("X", Rect::d2((1, 8), (1, 8)));
        let a = p.add_array("A", Rect::d2((1, 8), (1, 8)));
        let t = p.add_transfer(vec![TransferItem::new(x, compass::EAST, region())]);
        p.body = Block::new(vec![
            Stmt::assign(region(), x, Expr::Const(1.0)),
            Stmt::assign(region(), a, Expr::at(x, compass::EAST)),
            call(CallKind::DR, t),
            call(CallKind::SR, t),
            call(CallKind::DN, t),
            call(CallKind::SV, t),
        ]);
        let report = lint(&p);
        let c001: Vec<&Diagnostic> = report.with_code(Code::C001).collect();
        assert_eq!(c001.len(), 1, "{}", report.render());
        assert_eq!(c001[0].span.to_string(), "s1");
        assert_eq!(
            c001[0].message,
            "non-local read of X@east has no covering transfer \
             (t0 delivers it at s4, which does not dominate this read)"
        );
    }

    #[test]
    fn stale_ghost_delivered_by_two_transfers_names_neither() {
        // Entering the loop, X@east comes from t0, whose source was
        // rewritten after its SR (stale); around the back edge it comes
        // from t1 (fresh). The must-join keeps the ghost, ANDs freshness
        // to stale, and drops the disagreeing provenance.
        let mut p = Program::new("two-paths");
        let x = p.add_array("X", Rect::d2((1, 8), (1, 8)));
        let a = p.add_array("A", Rect::d2((1, 8), (1, 8)));
        let t0 = p.add_transfer(vec![TransferItem::new(x, compass::EAST, region())]);
        let t1 = p.add_transfer(vec![TransferItem::new(x, compass::EAST, region())]);
        p.body = Block::new(vec![
            Stmt::assign(region(), x, Expr::Const(1.0)),
            call(CallKind::DR, t0),
            call(CallKind::SR, t0),
            Stmt::assign(region(), x, Expr::Const(2.0)),
            call(CallKind::DN, t0),
            Stmt::Repeat {
                count: 2,
                body: Block::new(vec![
                    Stmt::assign(region(), a, Expr::at(x, compass::EAST)),
                    call(CallKind::DR, t1),
                    call(CallKind::SR, t1),
                    call(CallKind::DN, t1),
                    call(CallKind::SV, t1),
                ]),
            },
            call(CallKind::SV, t0),
        ]);
        let report = lint(&p);
        let c001: Vec<&Diagnostic> = report.with_code(Code::C001).collect();
        assert_eq!(c001.len(), 1, "{}", report.render());
        assert_eq!(c001[0].span.to_string(), "s5.0");
        assert_eq!(
            c001[0].message,
            "stale ghost data: X@east was written after its transfer's SR"
        );
        assert_eq!(c001[0].transfer, None);
    }

    #[test]
    fn ghost_delivered_at_body_end_reaches_the_next_iteration_only() {
        // X := 1; repeat { A := X@east; [quad t0 for X@east] }: the first
        // iteration's read has no delivery (C001), and the back edge keeps
        // the DN's data live for the next iteration's read (no C002).
        let mut p = Program::new("late-in-body");
        let x = p.add_array("X", Rect::d2((1, 8), (1, 8)));
        let a = p.add_array("A", Rect::d2((1, 8), (1, 8)));
        let t = p.add_transfer(vec![TransferItem::new(x, compass::EAST, region())]);
        p.body = Block::new(vec![
            Stmt::assign(region(), x, Expr::Const(1.0)),
            Stmt::Repeat {
                count: 2,
                body: Block::new(vec![
                    Stmt::assign(region(), a, Expr::at(x, compass::EAST)),
                    call(CallKind::DR, t),
                    call(CallKind::SR, t),
                    call(CallKind::DN, t),
                    call(CallKind::SV, t),
                ]),
            },
        ]);
        let report = lint(&p);
        assert_eq!(
            report.render(),
            "error[C001] s1.0: non-local read of X@east has no covering transfer \
             (t0 delivers it at s1.3, which does not dominate this read)\n\
             1 finding(s): 1 error(s), 0 warning(s)\n"
        );
    }

    #[test]
    fn dn_after_two_srs_takes_the_latest() {
        // X := 1; DR; SR; X := 2; SR; DN; A := X@east; SV: the second SR
        // sends the rewritten X, so the read is fresh.
        let mut p = delivered_program();
        let x = commopt_ir::ArrayId(0);
        let t = commopt_ir::TransferId(0);
        p.body
            .0
            .insert(3, Stmt::assign(region(), x, Expr::Const(2.0)));
        p.body.0.insert(4, call(CallKind::SR, t));
        let report = lint(&p);
        assert_eq!(report.count(Code::C001), 0, "{}", report.render());
        // Swapping the write and the second SR makes the ghost stale.
        p.body.0.swap(3, 4);
        let report = lint(&p);
        let c001: Vec<&Diagnostic> = report.with_code(Code::C001).collect();
        assert_eq!(c001.len(), 1, "{}", report.render());
        assert_eq!(c001[0].span.to_string(), "s6");
    }

    #[test]
    fn dn_takes_its_sr_from_its_own_list() {
        // X := 1; DR t; SR t; X := 2; repeat 2 { SR t }; DN t; A := X@east;
        // SV t. The SR in the loop body belongs to another statement list,
        // so the DN takes X from the first SR, before X := 2: the read at
        // s6 is stale.
        let mut p = delivered_program();
        let (x, t) = (commopt_ir::ArrayId(0), commopt_ir::TransferId(0));
        p.body.0.splice(
            3..3,
            [
                Stmt::assign(region(), x, Expr::Const(2.0)),
                Stmt::Repeat {
                    count: 2,
                    body: Block::new(vec![call(CallKind::SR, t)]),
                },
            ],
        );
        let report = lint(&p);
        let c001: Vec<String> = report
            .with_code(Code::C001)
            .map(|d| format!("{}: {}", d.span, d.message))
            .collect();
        assert_eq!(
            c001,
            ["s6: stale ghost data: X@east was written after t0's SR"],
            "{}",
            report.render()
        );
    }

    /// X := 1; [quad t0 delivering X@east over `delivered`]; a read of
    /// X@east by `read` (a statement or a loop around one).
    fn delivery_then(delivered: Region, read: impl FnOnce(&mut Program) -> Stmt) -> Program {
        let mut p = Program::new("regions");
        let x = p.add_array("X", Rect::d2((1, 8), (1, 8)));
        p.add_array("A", Rect::d2((1, 8), (1, 8)));
        let t = p.add_transfer(vec![TransferItem::new(x, compass::EAST, delivered)]);
        let read = read(&mut p);
        p.body = Block::new(vec![
            Stmt::assign(region(), x, Expr::Const(1.0)),
            call(CallKind::DR, t),
            call(CallKind::SR, t),
            call(CallKind::DN, t),
            read,
            call(CallKind::SV, t),
        ]);
        p
    }

    fn read_x_east(r: Region) -> Stmt {
        Stmt::assign(
            r,
            commopt_ir::ArrayId(1),
            Expr::at(commopt_ir::ArrayId(0), compass::EAST),
        )
    }

    #[test]
    fn c002_compares_constant_read_rects() {
        let delivered = Region::d2((5, 7), (5, 7));
        let disjoint = delivery_then(delivered, |_| read_x_east(Region::d2((2, 3), (2, 3))));
        let report = lint(&disjoint);
        assert_eq!(report.count(Code::C002), 1, "{}", report.render());
        assert_eq!(
            report.with_code(Code::C002).next().unwrap().message,
            "dead transfer: t0 delivers X@east never read before redefinition"
        );
        let overlapping = delivery_then(delivered, |_| read_x_east(Region::d2((3, 5), (3, 5))));
        let report = lint(&overlapping);
        assert_eq!(report.count(Code::C002), 0, "{}", report.render());
    }

    #[test]
    fn loop_relative_read_keeps_a_transfer_live() {
        // for i := 2..7 { [i..i, 2..3] A := X@east }: the row region never
        // meets the delivered corner, but a loop-relative region is assumed
        // to overlap anything, so the transfer stays live.
        let delivered = Region::d2((6, 7), (6, 7));
        let program = delivery_then(delivered, |p| {
            let i = p.add_loop_var("i");
            Stmt::For {
                var: i,
                lo: 2.into(),
                hi: 7.into(),
                step: 1,
                body: Block::new(vec![read_x_east(Region::row2(i, (2, 3)))]),
            }
        });
        let report = lint(&program);
        assert_eq!(report.count(Code::C002), 0, "{}", report.render());
        assert!(report.error_free(), "{}", report.render());
    }

    /// X := 1; [quad t0 delivering X@east]; then `rest`.
    fn quad_then(rest: impl FnOnce(&mut Program) -> Vec<Stmt>) -> Program {
        let mut p = Program::new("quad-then");
        let x = p.add_array("X", Rect::d2((1, 8), (1, 8)));
        p.add_array("A", Rect::d2((1, 8), (1, 8)));
        let t = p.add_transfer(vec![TransferItem::new(x, compass::EAST, region())]);
        let mut body = vec![
            Stmt::assign(region(), x, Expr::Const(1.0)),
            call(CallKind::DR, t),
            call(CallKind::SR, t),
            call(CallKind::DN, t),
            call(CallKind::SV, t),
        ];
        body.extend(rest(&mut p));
        p.body = Block::new(body);
        p
    }

    #[test]
    fn write_after_a_completed_quad_makes_the_read_stale() {
        let x = commopt_ir::ArrayId(0);
        let p = quad_then(|_| {
            vec![
                Stmt::assign(region(), x, Expr::Const(2.0)),
                read_x_east(region()),
            ]
        });
        let report = lint(&p);
        let c001: Vec<&Diagnostic> = report.with_code(Code::C001).collect();
        assert_eq!(c001.len(), 1, "{}", report.render());
        assert_eq!(c001[0].span.to_string(), "s6");
        assert_eq!(c001[0].r.map(|r| r.array), Some(x));
        assert!(!report.safe());
    }

    #[test]
    fn loop_invariant_ghosts_cross_into_a_loop() {
        // The body never writes X, so one delivery before the loop covers
        // the read on every iteration (the cross-block pass relies on this).
        let p = quad_then(|_| {
            vec![Stmt::Repeat {
                count: 2,
                body: Block::new(vec![read_x_east(region())]),
            }]
        });
        let report = lint(&p);
        assert!(report.clean(), "{}", report.render());
        assert!(report.safe());
    }

    #[test]
    fn write_in_flight_after_the_read_is_unsafe_but_error_free() {
        // DR; SR; DN; A := X@east; X := 0; SV: the read is covered, but the
        // send buffer is overwritten before SV (W101, a warning), so the
        // plan is not safe.
        let mut p = delivered_program();
        let x = commopt_ir::ArrayId(0);
        p.body
            .0
            .insert(5, Stmt::assign(region(), x, Expr::Const(0.0)));
        let report = lint(&p);
        assert_eq!(report.count(Code::W101), 1, "{}", report.render());
        assert_eq!(
            report
                .with_code(Code::W101)
                .next()
                .unwrap()
                .span
                .to_string(),
            "s5"
        );
        assert!(report.error_free(), "{}", report.render());
        assert!(!report.safe());
    }

    #[test]
    fn dn_before_sr_with_no_dr_or_sv_is_c006() {
        // DN; SR; A := X@east: DN before SR, SR before DR, and DR and SV
        // each appear zero times in the list.
        let mut p = Program::new("disorder");
        let x = p.add_array("X", Rect::d2((1, 8), (1, 8)));
        p.add_array("A", Rect::d2((1, 8), (1, 8)));
        let t = p.add_transfer(vec![TransferItem::new(x, compass::EAST, region())]);
        p.body = Block::new(vec![
            call(CallKind::DN, t),
            call(CallKind::SR, t),
            read_x_east(region()),
        ]);
        let report = lint(&p);
        assert_eq!(
            report.render(),
            "error[C006] s0: call protocol: DN before SR for t0\n\
             error[C006] s0: call protocol: t0 has 0 DR call(s) in its block (expected 1)\n\
             error[C006] s0: call protocol: t0 has 0 SV call(s) in its block (expected 1)\n\
             error[C006] s1: call protocol: SR before DR for t0\n\
             4 finding(s): 4 error(s), 0 warning(s)\n"
        );
        assert!(!report.safe());
    }

    #[test]
    fn report_renders_with_severity_and_span() {
        let mut p = Program::new("missing");
        let x = p.add_array("X", Rect::d2((1, 8), (1, 8)));
        let a = p.add_array("A", Rect::d2((1, 8), (1, 8)));
        p.body = Block::new(vec![Stmt::assign(region(), a, Expr::at(x, compass::EAST))]);
        let report = lint(&p);
        let text = report.render();
        assert!(text.starts_with("error[C001] s0: "), "{text}");
        assert!(text.contains("1 error(s), 0 warning(s)"), "{text}");
    }
}
