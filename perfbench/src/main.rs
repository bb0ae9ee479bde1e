//! perfbench — the commopt pipeline measured end to end and layer by layer.
//!
//! ```text
//! perfbench --workload <compile|paper|observed|numerics> --seed N --seconds S --trace 0|1
//! ```
//!
//! A *job* is one user request: compile a mini-ZPL program
//! (`commopt-lang`), optimize it under one of the paper's presets
//! (`commopt-core`), lint the plan (`commopt-analysis`), and simulate it on
//! one machine model (`commopt-sim` over `commopt-ironman` and
//! `commopt-machine`). A workload is a seeded list of jobs run in a closed
//! loop — one job at a time, each pass in a fresh seeded order — until
//! `--seconds` have passed. Every sample is checked: the plan is free of
//! commlint errors, the counts match what set-up derived, and the result is
//! bit-identical to the job's first sample. A job's first sample is also
//! checked against the sequential interpreter (full mode) or against an
//! unobserved run of the same job (observed mode).
//!
//! Times are the thread's CPU time converted to *reference seconds* by a
//! fixed kernel timed alongside (see [`host_scale`]). The last line of
//! standard output is one JSON object. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` reports each layer's time (from clock reads around
//! each layer call in this file) and its deterministic work counts. See
//! `README.md` for the metrics.

mod gen;

use commopt_analysis::lint;
use commopt_benchmarks::{jacobi_source, suite, Experiment};
use commopt_core::optimize;
use commopt_ir::{CallKind, Program};
use commopt_ironman::Library;
use commopt_lang::Frontend;
use commopt_machine::MachineSpec;
use commopt_sim::{Recorder, SeqInterp, SimConfig, SimResult, Simulator};
use gen::Rng;
use std::collections::btree_map::{BTreeMap, Entry};
use std::hint::black_box;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload <compile|paper|observed|numerics> \
                     --seed N --seconds S --trace 0|1";

/// The paper's optimization ladder (Figure 9's first four experiments).
const EXPERIMENTS: [Experiment; 4] = [
    Experiment::Baseline,
    Experiment::Rr,
    Experiment::Cc,
    Experiment::Pl,
];

/// The machines every job runs on, as in the repository's perf snapshots.
const MACHINES: [Machine; 2] = [Machine::T3d, Machine::Paragon];

/// The example program the repository's `lint` CLI and CI lint gate run.
const STENCIL_SOURCE: &str = include_str!("../../examples/stencil.zpl");

/// The paper-grid workloads run `1/PAPER_ITERS_DIVISOR` of each program's
/// iterations.
const PAPER_ITERS_DIVISOR: i64 = 16;

/// Set-up is repeated this many times per run and its median reported.
const SETUP_REPEATS: usize = 15;

/// The spans recorded around each job's layer calls, in call order.
const LAYERS: [&str; 5] = ["lang_ms", "opt_ms", "lint_ms", "sim_init_ms", "sim_run_ms"];

#[derive(Clone, Copy, PartialEq, Debug)]
enum Machine {
    T3d,
    Paragon,
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Mode {
    /// Simulated times and counts only.
    Timing,
    /// Timing with the metrics registry and an event recorder attached.
    Observed,
    /// Real numerics on distributed blocks.
    Full,
}

struct Job {
    label: String,
    source: String,
    /// `config` constants overridden at compile time.
    overrides: Vec<(&'static str, i64)>,
    exp: Experiment,
    machine: Machine,
    procs: usize,
    mode: Mode,
    /// What the pipeline must produce, derived during set-up.
    static_count: u64,
    dynamic_count: u64,
}

impl Job {
    fn compile(&self) -> Result<Program, String> {
        let mut frontend = Frontend::new(&self.source);
        for &(name, value) in &self.overrides {
            frontend = frontend.with_config(name, value);
        }
        frontend
            .compile()
            .map_err(|e| format!("{}: {e}", self.label))
    }

    /// Identifies the compiled program, which a workload's presets share.
    fn program_key(&self) -> String {
        format!("{}{:?}", self.source, self.overrides)
    }

    fn sim_config(&self) -> SimConfig {
        let (machine, library) = match self.machine {
            Machine::T3d => (MachineSpec::t3d(), self.exp.library()),
            Machine::Paragon => (MachineSpec::paragon(), Library::NxSync),
        };
        match self.mode {
            Mode::Full => SimConfig::full(machine, library, self.procs),
            Mode::Timing | Mode::Observed => SimConfig::timing(machine, library, self.procs),
        }
    }
}

/// Problem size of a workload's programs.
#[derive(Clone, Copy)]
enum Sizing {
    /// `n` and `iters` overridden.
    Grid(i64, i64),
    /// The program's own (paper) grid, running
    /// `1/`[`PAPER_ITERS_DIVISOR`] of its iterations.
    PaperGrid,
}

impl Sizing {
    fn overrides(self, source: &str) -> Result<Vec<(&'static str, i64)>, String> {
        Ok(match self {
            Sizing::Grid(n, iters) => vec![("n", n), ("iters", iters)],
            Sizing::PaperGrid => {
                let iters = gen::config_value(source, "iters")
                    .ok_or("a paper program declares no `config iters`")?;
                vec![("iters", (iters / PAPER_ITERS_DIVISOR).max(1))]
            }
        })
    }
}

/// The workload's jobs, before set-up fills in their expected counts:
/// every program under every preset on every machine.
fn jobs(workload: &str, seed: u64) -> Result<Vec<Job>, String> {
    let mut programs: Vec<(&str, &str)> = suite().iter().map(|b| (b.name, b.source)).collect();
    let (sizing, procs, mode) = match workload {
        // The repository's small-grid traffic (`perf --quick`, `lint`):
        // commlint, the frontend and the optimizer carry the cost; tiny
        // full-mode runs check the plans.
        "compile" => {
            programs.push(("jacobi", jacobi_source()));
            programs.push(("stencil", STENCIL_SOURCE));
            (Sizing::Grid(16, 2), 4, Mode::Full)
        }
        // The paper's grids on 64 processors: the simulator's transfer
        // geometry and communication actions carry the cost.
        "paper" => (Sizing::PaperGrid, 64, Mode::Timing),
        // The same with the metrics registry and an event recorder left
        // on: the observers carry the cost.
        "observed" => (Sizing::PaperGrid, 64, Mode::Observed),
        // Distributed numerics with real ghost traffic: the evaluator and
        // the distributed arrays carry the cost.
        "numerics" => (Sizing::Grid(32, 2), 16, Mode::Full),
        other => return Err(format!("unknown workload '{other}'")),
    };
    let mut rng = Rng::new(seed);
    let mut jobs = Vec::new();
    for (name, source) in programs {
        let source = gen::perturb_scalars(source, &mut rng);
        let overrides = sizing.overrides(&source)?;
        for exp in EXPERIMENTS {
            for machine in MACHINES {
                jobs.push(Job {
                    label: format!("{name}/{}/{machine:?}", exp.name()),
                    source: source.clone(),
                    overrides: overrides.clone(),
                    exp,
                    machine,
                    procs,
                    mode,
                    static_count: 0,
                    dynamic_count: 0,
                });
            }
        }
    }
    Ok(jobs)
}

/// Derives each job's expected counts, [`SETUP_REPEATS`] times, and returns
/// the median time of one derivation (the compile and optimize calls) in
/// reference seconds.
fn setup(jobs: &mut [Job]) -> Result<f64, String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kernel_times = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        kernel_times.push(kernel_s());
        let t0 = thread_cpu();
        for job in jobs.iter_mut() {
            let opt = optimize(&job.compile()?, &job.exp.config());
            job.static_count = opt.static_count();
            job.dynamic_count = opt.dynamic_count();
        }
        times.push((thread_cpu() - t0).as_secs_f64());
    }
    Ok(median(&mut times) * host_scale(&mut kernel_times))
}

/// CPU seconds one [`reference_kernel`] call takes on the reference host,
/// an unloaded 2-vCPU Intel Xeon virtual machine.
const KERNEL_REF_S: f64 = 0.004;

/// Job CPU time between two kernel calls in the timed loop, so that a
/// pass's scale reflects the host across the whole pass.
const KERNEL_EVERY_S: f64 = 0.05;

/// The factor that turns CPU seconds measured beside `kernel_times` into
/// reference seconds: [`KERNEL_REF_S`] over their median, topped up to
/// three calls. On a shared host, CPU time itself swings by a third as
/// neighbours come and go; the kernel, timed beside the work, swings with
/// it.
fn host_scale(kernel_times: &mut Vec<f64>) -> f64 {
    while kernel_times.len() < 3 {
        kernel_times.push(kernel_s());
    }
    KERNEL_REF_S / median(kernel_times)
}

/// CPU seconds of one [`reference_kernel`] call.
fn kernel_s() -> f64 {
    let t0 = thread_cpu();
    black_box(reference_kernel());
    (thread_cpu() - t0).as_secs_f64()
}

/// A fixed CPU workload that shares no code with the repository, so no
/// change to the program moves it: ordered-map churn with allocation, then
/// a floating-point stencil sweep.
fn reference_kernel() -> f64 {
    let mut rng = Rng::new(7);
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    for i in 0..20_000 {
        map.insert(rng.next_u64() % 50_000, i);
    }
    let hits: f64 = (0..20_000u64)
        .filter_map(|i| map.get(&(i * 7 % 50_000)))
        .map(|&v| v as f64)
        .sum();
    let mut a = vec![0.0f64; 32 * 1024];
    let mut b: Vec<f64> = (0..a.len()).map(|i| i as f64).collect();
    for _ in 0..8 {
        for k in 1..a.len() - 1 {
            a[k] = 0.25 * (b[k - 1] + b[k + 1]) + 0.5 * b[k];
        }
        std::mem::swap(&mut a, &mut b);
    }
    hits + b[100]
}

/// On-CPU time of the calling thread. Unlike a wall clock it leaves out
/// time the thread did not run — including, on a virtual machine, time the
/// host gave the CPU to another guest — so it reads steadily on a shared
/// host.
fn thread_cpu() -> Duration {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two `long`s on
    // 64-bit Linux), and clock_gettime writes nothing but it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// One executed job: per-layer span durations plus what the checks need.
struct Run {
    spans: [Duration; LAYERS.len()],
    static_count: u64,
    lint_errors: usize,
    result: SimResult,
}

fn run_job(job: &Job) -> Result<Run, String> {
    let t0 = thread_cpu();
    let program = job.compile()?;
    let t1 = thread_cpu();
    let opt = optimize(&program, &job.exp.config());
    let t2 = thread_cpu();
    let report = lint(&opt.program);
    let t3 = thread_cpu();
    let recorder = (job.mode == Mode::Observed).then(Recorder::new);
    let mut cfg = job.sim_config();
    if let Some(recorder) = &recorder {
        cfg = cfg.with_metrics().with_trace(recorder.clone());
    }
    let sim = Simulator::new(&opt.program, cfg);
    let t4 = thread_cpu();
    let result = sim.try_run().map_err(|e| format!("{}: {e}", job.label))?;
    if let Some(recorder) = &recorder {
        black_box(recorder.take());
    }
    let t5 = thread_cpu();
    Ok(Run {
        spans: [t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4],
        static_count: opt.static_count(),
        lint_errors: report.errors().count(),
        result,
    })
}

/// The result fields that must repeat bit for bit across samples of a job,
/// and between observed and unobserved runs.
type Fingerprint = (u64, u64, u64, u64, u64);

fn fingerprint(r: &SimResult) -> Fingerprint {
    (
        r.time_s.to_bits(),
        r.comm_time_s.to_bits(),
        r.dynamic_comm,
        r.data_transfers,
        r.bytes_received,
    )
}

fn check(job: &Job, run: &Run) -> Result<(), String> {
    let r = &run.result;
    if run.lint_errors > 0 {
        return Err(format!(
            "{}: commlint reports {} errors",
            job.label, run.lint_errors
        ));
    }
    if run.static_count != job.static_count || r.dynamic_comm != job.dynamic_count {
        return Err(format!(
            "{}: counts {}/{} differ from set-up's {}/{}",
            job.label, run.static_count, r.dynamic_comm, job.static_count, job.dynamic_count
        ));
    }
    if !(r.time_s.is_finite() && r.time_s > 0.0) {
        return Err(format!("{}: simulated time {}", job.label, r.time_s));
    }
    Ok(())
}

/// Checks too slow for every sample, made on each job's first: full-mode
/// numerics against the sequential interpreter, and an observed run
/// against the same job run unobserved.
fn check_first(
    job: &Job,
    result: &SimResult,
    references: &BTreeMap<String, SeqInterp>,
) -> Result<(), String> {
    match job.mode {
        Mode::Full => {
            let reference = references
                .get(&job.program_key())
                .ok_or_else(|| format!("{}: no sequential reference", job.label))?;
            check_numerics(job, result, reference)
        }
        Mode::Observed => {
            let opt = optimize(&job.compile()?, &job.exp.config());
            let plain = Simulator::new(&opt.program, job.sim_config())
                .try_run()
                .map_err(|e| format!("{}: {e}", job.label))?;
            if fingerprint(&plain) == fingerprint(result) {
                Ok(())
            } else {
                Err(format!("{}: observers changed the result", job.label))
            }
        }
        Mode::Timing => Ok(()),
    }
}

fn close(x: f64, y: f64) -> bool {
    x.is_finite() && y.is_finite() && (x - y).abs() <= 1e-9 * x.abs().max(1.0)
}

/// Full mode: the distributed numerics equal the sequential interpreter's.
fn check_numerics(job: &Job, result: &SimResult, reference: &SeqInterp) -> Result<(), String> {
    for (name, values) in &result.arrays {
        let expected = reference
            .array(name)
            .ok_or_else(|| format!("{}: no reference array {name}", job.label))?;
        if expected.len() != values.len()
            || !expected.iter().zip(values).all(|(x, y)| close(*x, *y))
        {
            return Err(format!(
                "{}: array {name} differs from the reference",
                job.label
            ));
        }
    }
    for (name, value) in &result.scalars {
        match reference.scalar(name) {
            Some(x) if close(x, *value) => {}
            x => {
                return Err(format!(
                    "{}: scalar {name} = {value}, reference {x:?}",
                    job.label
                ))
            }
        }
    }
    Ok(())
}

/// Deterministic per-job work counts, from one extra run with metrics on.
fn counts(job: &Job) -> Result<BTreeMap<&'static str, u64>, String> {
    let program = job.compile()?;
    let opt = optimize(&program, &job.exp.config());
    let report = lint(&opt.program);
    let recorder = Recorder::new();
    let mut cfg = job.sim_config().with_metrics();
    if job.mode == Mode::Observed {
        cfg = cfg.with_trace(recorder.clone());
    }
    let r = Simulator::new(&opt.program, cfg)
        .try_run()
        .map_err(|e| format!("{}: {e}", job.label))?;
    let m = r.metrics.as_ref().expect("metrics were enabled");
    let calls = [CallKind::DR, CallKind::SR, CallKind::DN, CallKind::SV]
        .iter()
        .filter_map(|&k| m.call_hist(k))
        .map(|h| h.count())
        .sum();
    Ok(BTreeMap::from([
        ("ir_stmts", program.stmt_count() as u64),
        ("static_comm", opt.static_count()),
        ("rr_removed", opt.log.removals().count() as u64),
        ("cc_merged", opt.log.merges().count() as u64),
        ("lint_findings", report.diagnostics.len() as u64),
        ("dynamic_comm", r.dynamic_comm),
        ("messages", m.registry.counter("comm.messages")),
        ("bytes_moved", m.registry.counter("comm.bytes")),
        ("ironman_calls", calls),
        ("mesh_hops", m.registry.counter("comm.hops")),
        ("trace_events", recorder.len() as u64),
    ]))
}

/// The lower quartile (nearest rank). On a shared host, interference only
/// ever adds time, so the lower quartile of repeated measurements follows
/// the program's own cost where the median still follows the neighbours.
fn lower_quartile(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[(values.len() - 1) / 4]
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Peak resident set of this process so far, MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: Vec<String>) -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        if !matches!(
            flag.as_str(),
            "--workload" | "--seed" | "--seconds" | "--trace"
        ) {
            return Err(format!("unknown argument '{flag}'"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .cloned()
            .ok_or_else(|| format!("missing {name}"))
    };
    let number = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("{name} must be a whole number"))
    };
    let args = Args {
        workload: get("--workload")?,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
    };
    if !(1..=120).contains(&args.seconds) {
        return Err("--seconds must be between 1 and 120".into());
    }
    Ok(args)
}

/// Per-job seconds: the whole job, then each span of [`LAYERS`].
type Sample = [f64; LAYERS.len() + 1];

/// Moves a pass's samples into `samples`, converted to reference seconds
/// by the kernel calls interleaved with them, and starts the next pass's
/// kernel record.
fn rescale(
    pending: &mut Vec<(usize, Sample)>,
    kernel_times: &mut Vec<f64>,
    samples: &mut [Vec<Sample>],
) {
    if pending.is_empty() {
        return;
    }
    let scale = host_scale(kernel_times);
    kernel_times.clear();
    for (j, sample) in pending.drain(..) {
        samples[j].push(sample.map(|s| s * scale));
    }
}

fn main() {
    let outcome = parse_args(std::env::args().skip(1).collect()).and_then(|args| bench(&args));
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    }
}

fn bench(args: &Args) -> Result<(), String> {
    let mut jobs = jobs(&args.workload, args.seed)?;
    let setup_s = setup(&mut jobs)?;
    let n = jobs.len();
    let mut samples: Vec<Vec<Sample>> = vec![Vec::new(); n];
    let mut pending: Vec<(usize, Sample)> = Vec::new();
    let mut kernel_times: Vec<f64> = Vec::new();
    let mut since_kernel = 0.0;
    let mut first: Vec<Option<Fingerprint>> = vec![None; n];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut errors: Vec<String> = Vec::new();

    // The sequential references for full-mode checks, one per program.
    let mut references: BTreeMap<String, SeqInterp> = BTreeMap::new();
    for job in jobs.iter().filter(|j| j.mode == Mode::Full) {
        if let Entry::Vacant(slot) = references.entry(job.program_key()) {
            slot.insert(SeqInterp::run(&job.compile()?));
        }
    }

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut pass = 0u64;
    'measure: loop {
        let mut order: Vec<usize> = (0..n).collect();
        Rng::new(args.seed ^ (pass + 1).wrapping_mul(0xa076_1d64_78bd_642f)).shuffle(&mut order);
        for j in order {
            // The first pass always completes, so every job is tried.
            if pass > 0 && start.elapsed() >= budget {
                break 'measure;
            }
            attempted += 1;
            let job = &jobs[j];
            let checked = run_job(job).and_then(|run| {
                check(job, &run)?;
                let fp = fingerprint(&run.result);
                match first[j] {
                    None => {
                        check_first(job, &run.result, &references)?;
                        first[j] = Some(fp);
                    }
                    Some(expected) if expected != fp => {
                        return Err(format!("{}: result differs between samples", job.label));
                    }
                    Some(_) => {}
                }
                Ok(run.spans)
            });
            match checked {
                Ok(spans) => {
                    let mut sample = [0.0; LAYERS.len() + 1];
                    for (k, span) in spans.iter().enumerate() {
                        sample[k + 1] = span.as_secs_f64();
                    }
                    sample[0] = sample[1..].iter().sum();
                    pending.push((j, sample));
                    since_kernel += sample[0];
                    if since_kernel >= KERNEL_EVERY_S {
                        kernel_times.push(kernel_s());
                        since_kernel = 0.0;
                    }
                }
                Err(e) => {
                    failed += 1;
                    errors.push(e);
                }
            }
        }
        rescale(&mut pending, &mut kernel_times, &mut samples);
        pass += 1;
    }
    rescale(&mut pending, &mut kernel_times, &mut samples);
    let measured_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb()?;
    for e in errors.iter().take(10) {
        eprintln!("perfbench: FAILED {e}");
    }

    // Per job, the lower quartile of each column over its samples.
    let typical: Vec<Sample> = samples
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| {
            let mut m = [0.0; LAYERS.len() + 1];
            for (k, slot) in m.iter_mut().enumerate() {
                *slot = lower_quartile(&mut s.iter().map(|x| x[k]).collect::<Vec<_>>());
            }
            m
        })
        .collect();
    if typical.is_empty() {
        return Err("no job completed".into());
    }
    let pass_s: f64 = typical.iter().map(|m| m[0]).sum();
    println!(
        "perfbench {} seed {}: {n} jobs, {attempted} samples in {measured_s:.1} s, \
         {pass_s:.4} reference s per pass, set-up {setup_s:.4} s",
        args.workload, args.seed
    );

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        for (k, layer) in LAYERS.iter().enumerate() {
            let ms = typical.iter().map(|m| m[k + 1]).sum::<f64>() * 1e3;
            metrics.push((layer, ms, "ms"));
        }
        let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
        for job in &jobs {
            for (name, count) in counts(job)? {
                *totals.entry(name).or_default() += count;
            }
        }
        let sim_run_s: f64 = typical.iter().map(|m| m[LAYERS.len()]).sum();
        let messages = totals["messages"].max(1) as f64;
        metrics.push(("sim_ns_per_msg", sim_run_s * 1e9 / messages, "ns"));
        for (name, count) in totals {
            metrics.push((name, count as f64, "count"));
        }
    } else {
        let log_mean = typical.iter().map(|m| m[0].ln()).sum::<f64>() / typical.len() as f64;
        metrics.push(("job_ref_ms", log_mean.exp() * 1e3, "ms"));
        metrics.push(("jobs_per_ref_s", typical.len() as f64 / pass_s, "1/s"));
        metrics.push(("setup_s", setup_s, "s"));
        metrics.push(("peak_rss_mb", peak_rss_mb, "MiB"));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    Ok(())
}
