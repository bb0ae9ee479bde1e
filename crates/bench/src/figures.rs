//! Every figure and table of the reproduction, one render function each.
//!
//! A [`Figure`] declares the matrix [`Key`]s it reads and renders its text
//! from a [`Matrix`] holding them; the `repro` binary computes the union of
//! the selected figures' keys in one pass and prints or writes each text.
//! Figures 3, 5 and 7 read no cells, and Figure 6 runs its own synthetic
//! two-processor pairs.

use crate::matrix::{Cell, Key, Matrix};
use crate::Table;
use commopt_benchmarks::synthetic::{figure6_sizes, overhead_pair};
use commopt_benchmarks::{suite, Benchmark, Experiment, PaperRow};
use commopt_core::{optimize, CombineMode, OptConfig};
use commopt_ir::CallKind;
use commopt_ironman::{Action, Library};
use commopt_machine::MachineSpec;
use commopt_sim::{SimConfig, Simulator};

/// One figure or table.
pub struct Figure {
    /// The `repro` argument and the `results/<name>.txt` stem: the name of
    /// its render function.
    pub name: &'static str,
    /// The matrix cells [`Figure::render`] reads.
    pub keys: fn() -> Vec<Key>,
    /// The figure's text, from a matrix holding at least its keys.
    pub render: fn(&Matrix) -> String,
}

macro_rules! figures {
    ($($render:ident: $keys:expr,)*) => {
        /// Every figure, in the order `repro` prints them.
        pub const FIGURES: [Figure; 12] = [$(Figure {
            name: stringify!($render),
            keys: $keys,
            render: $render,
        }),*];
    };
}

figures! {
    fig3_machines: Vec::new,
    fig5_bindings: Vec::new,
    fig6_overhead: Vec::new,
    fig7_suite: Vec::new,
    fig8_counts: || experiment_keys(FIG8),
    fig10_times: || [experiment_keys(&Experiment::LEVELS), experiment_keys(&FIG10B)].concat(),
    fig11_heuristics: || experiment_keys(&FIG11.map(|(_, e)| e)),
    fig12_heuristics: || experiment_keys(&FIG12),
    tables: || experiment_keys(&Experiment::ALL),
    ablation: || per_bench(|b| (0..8).map(move |m| Key::new(&b, ablation_config(m), Library::Pvm))),
    paragon_note: || per_bench(|b| NX.map(|lib| Key::new(&b, OptConfig::pl(), lib))),
    extension_global: || per_bench(|b| [pl_key(&b), pl_key(&b).global()]),
}

/// `keys(b)` for every benchmark of the suite.
fn per_bench<I: IntoIterator<Item = Key>>(keys: impl Fn(Benchmark) -> I) -> Vec<Key> {
    suite().into_iter().flat_map(keys).collect()
}

/// The figure called `name`.
pub fn find(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// Figure 3: machine parameters and communication libraries.
fn fig3_machines(_: &Matrix) -> String {
    let mut t = Table::new(&[
        "machine",
        "clock",
        "communication library",
        "timer granularity",
    ]);
    let mut params = String::new();
    for m in [MachineSpec::paragon(), MachineSpec::t3d()] {
        let libs: Vec<String> = m
            .libraries()
            .map(|l| {
                let kind = if l.binding().is_one_way() {
                    "shared memory"
                } else {
                    "message passing"
                };
                format!("{} ({kind})", l.name())
            })
            .collect();
        t.row(&[
            m.name.to_string(),
            format!("{} MHz", m.clock_mhz),
            libs.join(", "),
            format!("~{} ns", m.timer_granularity_ns),
        ]);
        params += &format!(
            "  {:14} flop {:.2} us, stmt overhead {:.1} us, guard {:.1} us, reduce stage {:.0} us\n",
            m.name,
            m.flop_us,
            m.stmt_overhead_us,
            m.guard_overhead_us,
            m.reduce_stage_us
        );
        for l in m.libraries() {
            let c = m.costs(l);
            params += &format!(
                "    {:12} send {:>5.1}+{:.4}/B us, recv {:>5.1}+{:.4}/B us, sync {:>4.1}(+{:.1}/call) us, wire {:>4.1} us + {:.0} MB/s\n",
                l.name(),
                c.send_init_us,
                c.send_per_byte_us,
                c.recv_init_us,
                c.recv_per_byte_us,
                c.sync_us,
                c.sync_call_us,
                c.latency_us,
                c.bandwidth_mb_s,
            );
        }
    }
    format!(
        "Figure 3: machine parameters and communication libraries\n\n{}\n\
         Model parameters (this reproduction):\n{params}",
        t.render()
    )
}

/// The concrete routine an abstract IRONMAN action corresponds to, per
/// library.
fn routine(a: Action, lib: Library) -> &'static str {
    match (lib, a) {
        (_, Action::Noop) => "no-op",
        (Library::NxSync, Action::BlockingSend) => "csend",
        (Library::NxSync, Action::BlockingRecv) => "crecv",
        (Library::NxAsync, Action::PostRecv) => "irecv",
        (Library::NxAsync, Action::AsyncSend) => "isend",
        (Library::NxAsync, Action::WaitRecv) => "msgwait",
        (Library::NxAsync, Action::WaitSend) => "msgwait",
        (Library::NxCallback, Action::Probe) => "hprobe",
        (Library::NxCallback, Action::AsyncSend) => "hsend",
        (Library::NxCallback, Action::WaitRecv) => "hrecv",
        (Library::NxCallback, Action::WaitSend) => "msgwait",
        (Library::Pvm, Action::BlockingSend) => "pvm_send",
        (Library::Pvm, Action::BlockingRecv) => "pvm_recv",
        (Library::Shmem, Action::Put) => "shmem_put",
        (Library::Shmem, Action::Sync) => "synch",
        _ => "?",
    }
}

/// Figure 5: IRONMAN bindings on the Paragon and T3D.
fn fig5_bindings(_: &Matrix) -> String {
    let mut t = Table::new(&[
        "program state",
        "call",
        "NX msg passing",
        "NX asynchronous",
        "NX callback",
        "PVM",
        "SHMEM",
    ]);
    let states = [
        ("destination ready", CallKind::DR),
        ("source ready", CallKind::SR),
        ("destination needed", CallKind::DN),
        ("source volatile", CallKind::SV),
    ];
    for (state, call) in states {
        let mut row = vec![state.to_string(), call.name().to_string()];
        row.extend(Library::ALL.map(|lib| routine(lib.binding().action(call), lib).to_string()));
        t.row(&row);
    }
    format!(
        "Figure 5: IRONMAN bindings on the Paragon and T3D\n\n{}",
        t.render()
    )
}

/// Iterations of Figure 6's ping loop.
const FIG6_ITERS: u64 = 200;

/// The exposed per-transfer software overhead of one library at one
/// message size — the paper's Figure 6 measurement: the ping program's
/// time minus its communication-free twin's, per transfer.
fn exposed_overhead_us(
    machine: &MachineSpec,
    library: Library,
    msg_doubles: i64,
    iterations: u64,
) -> f64 {
    let (with_comm, without) = overhead_pair(msg_doubles, iterations);
    let pl = OptConfig::pl();
    let a = optimize(&with_comm, &pl);
    let b = optimize(&without, &pl);
    let ta = Simulator::new(&a.program, SimConfig::timing(machine.clone(), library, 2)).run();
    let tb = Simulator::new(&b.program, SimConfig::timing(machine.clone(), library, 2)).run();
    // Two transfers per iteration (one in each direction), but each
    // processor handles exactly one send and one receive per iteration —
    // one full transfer's worth of software overhead.
    (ta.time_s - tb.time_s) * 1e6 / iterations as f64
}

/// Figure 6: exposed communication costs for various communication
/// primitives on the Cray T3D and the Intel Paragon.
///
/// Reproduces the paper's synthetic benchmark: a two-node program
/// exchanges a message of each size 10000 times (reduced here — the
/// simulator is deterministic, so fewer iterations give identical
/// per-transfer numbers) around a busy loop big enough to hide the
/// transmission; the busy loop's time is subtracted out, leaving the
/// exposed software overhead per transfer.
fn fig6_overhead(_: &Matrix) -> String {
    let mut s = String::from("Figure 6: exposed communication costs (us per transfer)\n\n");
    for (machine, libs) in [
        (MachineSpec::t3d(), vec![Library::Pvm, Library::Shmem]),
        (MachineSpec::paragon(), NX.to_vec()),
    ] {
        let mut header = vec!["message size (doubles)"];
        header.extend(libs.iter().map(|l| l.name()));
        let mut t = Table::new(&header);
        for size in figure6_sizes() {
            let mut row = vec![size.to_string()];
            row.extend(libs.iter().map(|&lib| {
                format!(
                    "{:.1}",
                    exposed_overhead_us(&machine, lib, size, FIG6_ITERS)
                )
            }));
            t.row(&row);
        }
        s += &format!("{}:\n{}", machine.name, t.render());

        // The knee: where combining two messages stops paying.
        for &lib in &libs {
            let knee = machine.costs(lib).combining_knee_bytes();
            let name = lib.name();
            s += &format!(
                "  combining knee for {name}: ~{} doubles ({knee} bytes)\n",
                knee / 8
            );
        }
        s.push('\n');
    }
    s + "Paper's finding: the knee is at ~512 doubles (4 KB) on both machines;\n\
         NX async primitives do not beat csend/crecv; callbacks are worse;\n\
         SHMEM sits ~10% below PVM under the prototype IRONMAN binding.\n"
}

/// Figure 7: experimental benchmark programs.
///
/// The paper reports line counts of the final output C code; we report the
/// mini-ZPL source line count and the lowered statement count instead.
fn fig7_suite(_: &Matrix) -> String {
    let mut t = Table::new(&[
        "benchmark",
        "description",
        "size",
        "source lines",
        "IR statements",
        "arrays",
    ]);
    for b in suite() {
        let p = b.program();
        t.row(&[
            b.name.to_uppercase(),
            b.description.to_string(),
            b.paper_size.to_string(),
            b.source.lines().count().to_string(),
            p.stmt_count().to_string(),
            p.arrays.len().to_string(),
        ]);
    }
    format!(
        "Figure 7: experimental benchmark programs\n\n{}",
        t.render()
    )
}

/// The levels whose counts Figure 8 plots: pipelining changes no count.
const FIG8: &[Experiment] = Experiment::LEVELS.split_at(3).0;
const FIG10B: [Experiment; 2] = [Experiment::Pl, Experiment::PlShmem];
/// Figure 11's rows: the label it prints and the experiment it reads.
const FIG11: [(&str, Experiment); 2] = [
    ("max combining", Experiment::Pl),
    ("max latency hiding", Experiment::PlMaxLatency),
];
const FIG12: [Experiment; 2] = [Experiment::PlShmem, Experiment::PlMaxLatency];

/// A figure's rows, each labelled with its experiment's name.
fn named(exps: &[Experiment]) -> Vec<(&'static str, Experiment)> {
    exps.iter().map(|&e| (e.name(), e)).collect()
}

/// The cells of `exps` on every benchmark, plus the baseline every scaled
/// figure divides by.
fn experiment_keys(exps: &[Experiment]) -> Vec<Key> {
    let exps = std::iter::once(Experiment::Baseline).chain(exps.iter().copied());
    per_bench(|b| exps.clone().map(move |e| Key::experiment(&b, e)))
}

/// Renders a horizontal bar for a scaled value (1.0 == full width), the
/// text analogue of the paper's bar charts.
fn bar(scaled: f64, width: usize) -> String {
    let clamped = scaled.clamp(0.0, 1.6);
    let n = (clamped / 1.6 * width as f64).round() as usize;
    let mut s = "#".repeat(n.min(width));
    if scaled > 1.6 {
        s.push('>');
    }
    s
}

/// The scaled-count figure shared by Figures 8 and 11: the static, then
/// the dynamic count of each row on every benchmark, scaled to the
/// baseline, beside the paper's ratio.
fn scaled_counts(m: &Matrix, title: &str, column: &str, rows: &[(&str, Experiment)]) -> String {
    let mut s = format!("{title}\n\n");
    type Pick = (fn(&Cell) -> u64, fn(PaperRow) -> u64);
    let metrics: [(&str, Pick); 2] = [
        ("static counts", (|c| c.static_count, |p| p.static_count)),
        ("dynamic counts", (|c| c.dynamic_comm, |p| p.dynamic_count)),
    ];
    for (label, (pick, paper)) in metrics {
        let mut t = Table::new(&["benchmark", column, "count", "scaled", "paper", ""]);
        for b in suite() {
            let base = pick(m.experiment(&b, Experiment::Baseline));
            let paper_base = paper(b.paper.baseline());
            for &(name, e) in rows {
                let count = pick(m.experiment(&b, e));
                let scaled = count as f64 / base as f64;
                t.row(&[
                    b.name.to_uppercase(),
                    name.to_string(),
                    count.to_string(),
                    format!("{scaled:.2}"),
                    format!("{:.2}", paper(b.paper.row(e)) as f64 / paper_base as f64),
                    bar(scaled, 40),
                ]);
            }
        }
        s += &format!("{label}:\n{}\n", t.render());
    }
    s
}

/// The scaled-time table shared by Figures 10 and 12: the simulated time
/// of each row on every benchmark, scaled to the baseline, beside the
/// paper's ratio (`missing` where the paper printed no time).
fn scaled_times(m: &Matrix, column: &str, rows: &[(&str, Experiment)], missing: &str) -> String {
    let mut t = Table::new(&["benchmark", column, "time (s)", "scaled", "paper", ""]);
    for b in suite() {
        let base = m.experiment(&b, Experiment::Baseline).time_s;
        let paper_base = b
            .paper
            .baseline()
            .time_s
            .expect("the paper times every baseline");
        for &(name, e) in rows {
            let time = m.experiment(&b, e).time_s;
            let scaled = time / base;
            let paper = b.paper.row(e).time_s.map(|x| x / paper_base);
            t.row(&[
                b.name.to_uppercase(),
                name.to_string(),
                format!("{time:.3}"),
                format!("{scaled:.3}"),
                paper.map_or(missing.to_string(), |p| format!("{p:.3}")),
                bar(scaled, 40),
            ]);
        }
    }
    t.render()
}

/// Figure 8: reduction in the number of communications due to redundant
/// communication removal and communication combination, scaled to the
/// baseline (message vectorization only).
fn fig8_counts(m: &Matrix) -> String {
    let title = "Figure 8: communication count reduction (scaled to baseline)";
    scaled_counts(m, title, "experiment", &named(FIG8))
        + "Paper's finding: statically rr removes the most (setup-code redundancy);\n\
           dynamically cc accounts for more of the reduction (main-loop combining).\n"
}

/// Figure 10: performance of the optimized benchmark programs on a
/// 64-node T3D partition, scaled to the baseline —
/// (a) under PVM, (b) the fully optimized plan under SHMEM.
fn fig10_times(m: &Matrix) -> String {
    format!(
        "Figure 10(a): execution time using PVM (scaled to baseline)\n\n{}\n\
         Figure 10(b): the fully optimized plan over SHMEM vs PVM\n\n{}\n\
         Paper's finding: each optimization contributes; SHMEM improves the\n\
         balanced codes (SWM, SIMPLE) but degrades the partly sequential ones\n\
         (TOMCATV, SP) under the prototype's heavyweight synchronization.\n",
        scaled_times(m, "experiment", &named(&Experiment::LEVELS), "-"),
        scaled_times(m, "experiment", &named(&FIG10B), "-"),
    )
}

/// Figure 11: reduction in the number of communications under the two
/// combining heuristics (maximize combining vs maximize latency hiding),
/// scaled to baseline.
fn fig11_heuristics(m: &Matrix) -> String {
    let title = "Figure 11: combining heuristic communication counts (scaled to baseline)";
    scaled_counts(m, title, "heuristic", &FIG11)
        + "Paper's finding: combining for maximum latency hiding can leave\n\
           significantly more communications, both statically and dynamically\n\
           (for TOMCATV it leaves the same dynamic count as rr alone).\n"
}

/// Figure 12: comparison of the combining heuristics — scaled running
/// times of "pl with shmem" under maximize-combining vs
/// maximize-latency-hiding.
fn fig12_heuristics(m: &Matrix) -> String {
    format!(
        "Figure 12: combining heuristics, running time over SHMEM (scaled)\n\n{}\n\
         Paper's finding: the versions compiled for maximized combining always\n\
         performed better than those maximizing latency hiding.\n",
        scaled_times(m, "heuristic", &named(&FIG12), "- (lib bug)")
    )
}

/// Appendix A, Tables 1–4: static count, dynamic count and execution time
/// for every experiment, paper-vs-measured.
fn tables(m: &Matrix) -> String {
    let mut s = String::new();
    for (i, b) in suite().iter().enumerate() {
        let mut t = Table::new(&[
            "experiment",
            "static",
            "(paper)",
            "dynamic",
            "(paper)",
            "time (s)",
            "(paper)",
        ]);
        for e in Experiment::ALL {
            let c = m.experiment(b, e);
            let p = b.paper.row(e);
            t.row(&[
                e.name().to_string(),
                c.static_count.to_string(),
                p.static_count.to_string(),
                c.dynamic_comm.to_string(),
                p.dynamic_count.to_string(),
                format!("{:.4}", c.time_s),
                p.time_s.map_or("-".into(), |x| format!("{x:.4}")),
            ]);
        }
        let (n, size, name, procs) = (i + 1, b.paper_size, b.name, b.paper_procs);
        s += &format!("Table {n}: results for {size} {name} on {procs} processors\n\n");
        s += &format!("{}\n", t.render());
    }
    s + "Absolute times are not comparable (simulated substrate vs 1990s\n\
         hardware); compare the scaled columns of Figures 8 and 10-12.\n"
}

/// The ablation's configuration `mask`: bit 0 turns on rr, bit 1 cc and
/// bit 2 pl, so masks 0, 1, 3 and 7 are the paper's cumulative ladder.
fn ablation_config(mask: u8) -> OptConfig {
    OptConfig {
        redundant_removal: mask & 1 != 0,
        combine: if mask & 2 != 0 {
            CombineMode::MaxCombining
        } else {
            CombineMode::Off
        },
        pipeline: mask & 4 != 0,
        max_combined_items: None,
    }
}

/// Ablation study (beyond the paper's cumulative ladder): every
/// combination of the three optimizations independently toggled, isolating
/// each one's contribution and their interactions.
///
/// The paper only evaluates the cumulative stack (rr ⊂ cc ⊂ pl); the
/// optimizer here supports free composition, so we can ask e.g. what
/// combination achieves without redundant removal first.
fn ablation(m: &Matrix) -> String {
    let mut s = String::from("Ablation: independent optimization toggles (T3D/PVM, 64 procs)\n\n");
    for b in suite() {
        let mut t = Table::new(&["rr", "cc", "pl", "static", "dynamic", "time (s)", "scaled"]);
        let base = m.get(Key::new(&b, ablation_config(0), Library::Pvm)).time_s;
        for mask in 0..8 {
            let cfg = ablation_config(mask);
            let c = m.get(Key::new(&b, cfg, Library::Pvm));
            let onoff = |b: bool| if b { "on" } else { "-" }.to_string();
            t.row(&[
                onoff(cfg.redundant_removal),
                onoff(cfg.combine != CombineMode::Off),
                onoff(cfg.pipeline),
                c.static_count.to_string(),
                c.dynamic_comm.to_string(),
                format!("{:.4}", c.time_s),
                format!("{:.3}", c.time_s / base),
            ]);
        }
        s += &format!("{}:\n{}\n", b.name.to_uppercase(), t.render());
    }
    s + "Observations to look for: combination without redundant removal\n\
         re-sends duplicate slabs inside larger messages (cc alone < rr+cc);\n\
         pipelining alone only hides wire latency, so its isolated win is the\n\
         smallest; the full stack is not simply the product of the parts.\n"
}

const NX: [Library; 3] = [Library::NxSync, Library::NxAsync, Library::NxCallback];

/// The Paragon whole-program results the paper ran but did not print:
/// "when we performed our full battery of tests using the benchmark suite
/// on the Paragon, the asynchronous primitives saw little performance
/// improvement or, in most cases, performance degradation. Consequently,
/// we will not present the Paragon results" (§3.2).
///
/// This figure shows that behaviour holding in the model: the fully
/// optimized plan under each NX primitive set.
fn paragon_note(m: &Matrix) -> String {
    let mut t = Table::new(&["benchmark", "csend/crecv (s)", "isend/irecv", "hsend/hrecv"]);
    for b in suite() {
        let [sync, asynk, callb] = NX.map(|lib| m.get(Key::new(&b, OptConfig::pl(), lib)).time_s);
        t.row(&[
            b.name.to_uppercase(),
            format!("{sync:.4}"),
            format!("{:.4} ({:+.1}%)", asynk, 100.0 * (asynk / sync - 1.0)),
            format!("{:.4} ({:+.1}%)", callb, 100.0 * (callb / sync - 1.0)),
        ]);
    }
    format!(
        "Paragon whole-program check (pl plan, 64 procs):\n\n{}\n\
         As in the paper, the asynchronous primitives bring little or negative\n\
         benefit over csend/crecv, and the callback primitives degrade further —\n\
         which is why the paper reports T3D results only.\n",
        t.render()
    )
}

/// The fully optimized plan over PVM, the cell the global pass builds on.
fn pl_key(b: &Benchmark) -> Key {
    Key::experiment(b, Experiment::Pl)
}

/// Extension experiment (the paper's §4 future work, realized): the
/// cross-block dataflow pass — loop-invariant communication hoisting plus
/// global redundancy elimination — applied on top of the fully optimized
/// (`pl`) plan.
///
/// The paper's optimizer is limited to one source-level basic block; this
/// shows what the "standard data flow analysis algorithm" it proposes
/// would have bought on the same benchmark suite.
fn extension_global(m: &Matrix) -> String {
    let mut t = Table::new(&[
        "benchmark",
        "plan",
        "static",
        "dynamic",
        "time (s)",
        "vs pl",
        "hoisted",
        "removed",
    ]);
    for b in suite() {
        let (before, after) = (m.get(pl_key(&b)), m.get(pl_key(&b).global()));
        t.row(&[
            b.name.to_uppercase(),
            "pl".into(),
            before.static_count.to_string(),
            before.dynamic_comm.to_string(),
            format!("{:.4}", before.time_s),
            "1.000".into(),
            String::new(),
            String::new(),
        ]);
        t.row(&[
            b.name.to_uppercase(),
            "pl + global".into(),
            after.static_count.to_string(),
            after.dynamic_count.to_string(),
            format!("{:.4}", after.time_s),
            format!("{:.3}", after.time_s / before.time_s),
            after.global.hoisted.to_string(),
            after.global.removed.to_string(),
        ]);
    }
    format!(
        "Extension: cross-block dataflow pass on top of pl (T3D/PVM, 64 procs)\n\n{}\n\
         The block-scoped optimizer cannot see that, e.g., a boundary slab\n\
         fetched before a loop is still valid inside it; the dataflow pass\n\
         hoists loop-invariant transfers and deletes globally redundant ones.\n\
         Wavefront solvers (TOMCATV, SP, SIMPLE's sweeps) keep their per-row\n\
         communication — their transfers are genuinely loop-variant.\n",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales() {
        assert_eq!(bar(0.0, 10), "");
        assert_eq!(bar(1.6, 10).len(), 10);
        assert!(bar(2.0, 10).ends_with('>'));
    }

    #[test]
    fn exposed_overhead_is_positive_and_grows() {
        let t3d = MachineSpec::t3d();
        let small = exposed_overhead_us(&t3d, Library::Pvm, 8, 50);
        let large = exposed_overhead_us(&t3d, Library::Pvm, 4096, 50);
        assert!(small > 0.0, "{small}");
        assert!(large > small, "{large} vs {small}");
    }
}
