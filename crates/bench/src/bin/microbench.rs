//! A dependency-free timing harness replacing the former criterion benches
//! (the build must work offline, so external dev-dependencies are out).
//!
//! Measures the hot paths of the toolchain — frontend compilation, each
//! optimizer preset, structural counting, commlint, and the simulator's
//! whole runs and set-up alone — over the paper's benchmark suite,
//! reporting the median and minimum of repeated runs.
//!
//! Usage: `cargo run --release -p commopt-bench --bin microbench [-- --quick]`

use commopt_bench::Table;
use commopt_benchmarks::suite;
use commopt_core::{optimize, OptConfig};
use commopt_ironman::Library;
use commopt_lang::Frontend;
use commopt_machine::MachineSpec;
use commopt_sim::{Recorder, SimConfig, Simulator};
use commopt_testkit::pool::{self, Pool};
use std::hint::black_box;
use std::time::Instant;

/// Times `f` over `runs` executions and returns (median, min) in µs.
fn time_us(runs: usize, mut f: impl FnMut()) -> (f64, f64) {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    (samples[samples.len() / 2], samples[0])
}

fn fmt_us(us: f64) -> String {
    if us >= 1e6 {
        format!("{:.2} s", us / 1e6)
    } else if us >= 1e3 {
        format!("{:.2} ms", us / 1e3)
    } else {
        format!("{us:.1} us")
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let runs = if quick { 3 } else { 9 };
    let mut t = Table::new(&["group", "case", "median", "min"]);

    for b in suite() {
        let (med, min) = time_us(runs, || {
            black_box(Frontend::new(black_box(b.source)).compile().unwrap());
        });
        t.row(&["frontend".into(), b.name.into(), fmt_us(med), fmt_us(min)]);
    }

    for b in suite() {
        let program = b.program();
        for (name, cfg) in OptConfig::presets() {
            let (med, min) = time_us(runs, || {
                black_box(optimize(black_box(&program), &cfg));
            });
            t.row(&[
                "optimize".into(),
                format!("{}/{}", b.name, name.replace(' ', "_")),
                fmt_us(med),
                fmt_us(min),
            ]);
        }
    }

    for b in suite() {
        let opt = optimize(&b.program(), &OptConfig::pl());
        let (med, min) = time_us(runs, || {
            black_box(commopt_core::dynamic_count(black_box(&opt.program)));
        });
        t.row(&[
            "dynamic_count".into(),
            b.name.into(),
            fmt_us(med),
            fmt_us(min),
        ]);
    }

    // comm_refs over a wide expression: 2000 shifted references drawn from
    // 8 distinct (array, offset) pairs — the shape that was quadratic
    // before the dedup moved to an order-preserving set.
    {
        use commopt_ir::offset::compass;
        use commopt_ir::{ArrayId, Expr};
        let dirs = [compass::EAST, compass::WEST, compass::NORTH, compass::SOUTH];
        let wide = (0..2000)
            .map(|i| Expr::at(ArrayId(i % 2), dirs[(i as usize / 2) % 4]))
            .reduce(|a, b| a + b)
            .expect("non-empty");
        let (med, min) = time_us(runs, || {
            black_box(commopt_ir::comm_refs(black_box(&wide)));
        });
        t.row(&[
            "comm_refs".into(),
            "wide-2000x8".into(),
            fmt_us(med),
            fmt_us(min),
        ]);
    }

    // commlint at the cheapest level (`pl`, few transfers in scope) and at
    // the costliest (`vect`, where every naive transfer is still live).
    for b in suite() {
        for (level, cfg) in [("pl", OptConfig::pl()), ("vect", OptConfig::baseline())] {
            let opt = optimize(&b.program(), &cfg);
            let (med, min) = time_us(runs, || {
                black_box(commopt_analysis::lint(black_box(&opt.program)));
            });
            t.row(&[
                "commlint".into(),
                format!("{}/{level}", b.name),
                fmt_us(med),
                fmt_us(min),
            ]);
        }
    }

    for b in suite() {
        let opt = optimize(&b.program_with(32, 4), &OptConfig::pl());
        let (med, min) = time_us(runs, || {
            let r = Simulator::new(
                &opt.program,
                SimConfig::timing(MachineSpec::t3d(), Library::Pvm, 16),
            )
            .run();
            black_box(r);
        });
        t.row(&[
            "simulate(32,4,16p)".into(),
            b.name.into(),
            fmt_us(med),
            fmt_us(min),
        ]);
    }

    // Full mode at perfbench `numerics` sizing: real numerics on
    // distributed blocks, where the tile evaluator, the ghost snapshots and
    // the final gathers carry the cost.
    for b in suite() {
        let opt = optimize(&b.program_with(32, 2), &OptConfig::pl());
        let (med, min) = time_us(runs, || {
            let r = Simulator::new(
                &opt.program,
                SimConfig::full(MachineSpec::t3d(), Library::Pvm, 16),
            )
            .run();
            black_box(r);
        });
        t.row(&[
            "simulate(32,2,16p,full)".into(),
            b.name.into(),
            fmt_us(med),
            fmt_us(min),
        ]);
    }

    // The simulator at the paper's sizes and partition, where transfer
    // geometry and the per-processor loops carry the cost: at `vect`,
    // where every naive transfer still runs (SP's row sweeps make it the
    // heaviest geometry case), and at `pl` plain, with the metrics
    // registry on, with every event recorded (the recorder is drained
    // after each run, as a trace consumer would), and with both observers,
    // which is what perfbench's `observed` workload runs.
    for b in suite() {
        let plain = SimConfig::timing(MachineSpec::t3d(), Library::Pvm, 64);
        let naive = optimize(&b.program(), &OptConfig::baseline());
        let (med, min) = time_us(runs, || {
            black_box(Simulator::new(&naive.program, plain.clone()).run());
        });
        t.row(&[
            "simulate(paper,64p)".into(),
            format!("{}/vect", b.name),
            fmt_us(med),
            fmt_us(min),
        ]);
        let opt = optimize(&b.program(), &OptConfig::pl());
        let rec = Recorder::new();
        for (observer, cfg) in [
            ("", plain.clone()),
            ("+metrics", plain.clone().with_metrics()),
            ("+trace", plain.clone().with_trace(rec.clone())),
            (
                "+metrics+trace",
                plain.with_metrics().with_trace(rec.clone()),
            ),
        ] {
            let (med, min) = time_us(runs, || {
                black_box(Simulator::new(&opt.program, cfg.clone()).run());
                black_box(rec.take());
            });
            t.row(&[
                "simulate(paper,64p)".into(),
                format!("{}/pl{observer}", b.name),
                fmt_us(med),
                fmt_us(min),
            ]);
        }
    }

    // Simulator set-up alone at the same sizes and partition: the transfer
    // geometry built in the constructor and the charges filled there, at
    // `vect` and at `pl`. Each case makes one untimed call first. That
    // removes first-call effects only, not the heap state earlier rows
    // leave behind: rows here can depend on what ran before them
    // (CHANGES.md, the FOUND line on the `simulate(32,2,16p,full)` rows).
    for b in suite() {
        let cfg = SimConfig::timing(MachineSpec::t3d(), Library::Pvm, 64);
        for (level, opt_cfg) in [("vect", OptConfig::baseline()), ("pl", OptConfig::pl())] {
            let opt = optimize(&b.program(), &opt_cfg);
            let setup = || black_box(Simulator::new(black_box(&opt.program), cfg.clone()));
            setup();
            let (med, min) = time_us(runs, || {
                setup();
            });
            t.row(&[
                "sim_new(paper,64p)".into(),
                format!("{}/{level}", b.name),
                fmt_us(med),
                fmt_us(min),
            ]);
        }
    }

    // Worker-pool dispatch overhead: 256 near-empty tasks, so the numbers
    // are dominated by claim/store traffic rather than useful work.
    {
        let items: Vec<u64> = (0..256).collect();
        let mut widths = vec![1usize, 4, pool::default_jobs()];
        widths.sort_unstable();
        widths.dedup();
        for jobs in widths {
            let (med, min) = time_us(runs, || {
                let out = Pool::new(jobs).map(items.clone(), |_, x| {
                    black_box(x.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                });
                black_box(out);
            });
            t.row(&[
                "pool".into(),
                format!("map-256/{jobs}-job"),
                fmt_us(med),
                fmt_us(min),
            ]);
        }
    }

    println!("microbench ({runs} runs per case; build with --release for meaningful numbers)\n");
    print!("{}", t.render());
}
