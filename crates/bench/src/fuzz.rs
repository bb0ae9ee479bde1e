//! The schedule-fuzz harness.
//!
//! The paper's Figure 5 claim is that the optimizer's communication
//! placement is correct under *every* IRONMAN binding. The deterministic
//! simulator only ever exercises one schedule per configuration, so this
//! harness widens the net: every paper benchmark × experiment (vect, rr,
//! cc, pl) × all five library bindings is executed under `N` seeded
//! [`FaultPlan`]s — wire jitter, message reordering, slow processors,
//! dropped-and-retried deliveries — and each perturbed run must still
//!
//! 1. reproduce the independent sequential reference numerically,
//! 2. finish with zero communication-safety violations and no deadlock,
//! 3. (seed 0 only) be byte-identical to an un-faulted run when the plan
//!    is the inert [`FaultPlan::none`], and leave every timing and count
//!    field of the un-faulted run the same in timing mode, which keys
//!    transfer geometry on shape classes rather than loop values.
//!
//! Failures are collected, not fatal: one sweep reports the complete set
//! of broken benchmark × binding × seed combinations, each a deterministic
//! reproduction recipe.

use crate::{library_tag, machine_for};
use commopt_benchmarks::{suite, Benchmark, Experiment};
use commopt_core::optimize;
use commopt_ir::CallKind;
use commopt_ironman::{Action, Library};
use commopt_machine::MachineSpec;
use commopt_sim::{
    FaultPlan, SafetyViolation, SeqInterp, SimConfig, SimError, SimResult, Simulator,
};
use commopt_testkit::fuzz::{sweep_jobs, Sweep};

/// Small problem size on the paper's 64 processors: large enough that
/// every benchmark communicates in every direction, small enough that the
/// full matrix stays fast. 12 rows over 8 make blocks of 1–2 rows,
/// narrower than SP's radius-2 offsets.
const FUZZ_N: i64 = 12;
const FUZZ_ITERS: i64 = 2;
const FUZZ_PROCS: usize = 64;

/// The experiments the fuzz matrix sweeps — the paper's four optimization
/// levels (the shmem/max-latency rows reuse these configs and are covered
/// by sweeping every library explicitly).
pub const EXPERIMENTS: [Experiment; 4] = [
    Experiment::Baseline,
    Experiment::Rr,
    Experiment::Cc,
    Experiment::Pl,
];

/// Every case of the fuzz matrix, as `(name, benchmark, experiment,
/// library)` with names like `tomcatv/pl/shmem`.
pub fn matrix() -> Vec<(String, Benchmark, Experiment, Library)> {
    let mut out = Vec::new();
    for bench in suite() {
        for exp in EXPERIMENTS {
            for lib in Library::ALL {
                let name = format!("{}/{}/{}", bench.name, exp.name(), library_tag(lib));
                out.push((name, bench, exp, lib));
            }
        }
    }
    out
}

/// Runs one benchmark × experiment × library under one seeded fault plan
/// in full (numeric) mode, checking the three fuzz invariants. Returns a
/// message describing the first broken invariant.
pub fn fuzz_case(
    bench: &Benchmark,
    exp: Experiment,
    lib: Library,
    seed: u64,
) -> Result<(), String> {
    let program = bench.program_with(FUZZ_N, FUZZ_ITERS);
    let reference = SeqInterp::run(&program);
    let opt = optimize(&program, &exp.config());
    let machine = machine_for(lib);

    // Invariant 0: the static analyzer and the dynamic plan checker agree.
    // commlint's C001/C006/W101 classes mirror verify_plan's error set
    // exactly, so one verdict without the other is a checker bug, not a
    // plan bug — fail the case loudly either way.
    let report = commopt_analysis::lint(&opt.program);
    let static_errors = report.count(commopt_analysis::Code::C001)
        + report.count(commopt_analysis::Code::C006)
        + report.count(commopt_analysis::Code::W101);
    let dynamic_ok = commopt_core::verify_plan(&opt.program).is_ok();
    if (static_errors == 0) != dynamic_ok {
        return Err(format!(
            "static/dynamic divergence: commlint reports {static_errors} mirror finding(s) \
             but verify_plan says {}:\n{}",
            if dynamic_ok { "ok" } else { "error" },
            report.render()
        ));
    }

    // Invariant 3 (checked once per case, on the first seed): the inert
    // plan is byte-identical to no plan at all.
    if seed == 0 {
        let plain = Simulator::new(
            &opt.program,
            SimConfig::full(machine.clone(), lib, FUZZ_PROCS),
        )
        .try_run()
        .map_err(|e| format!("unfaulted run failed: {e}"))?;
        let inert = Simulator::new(
            &opt.program,
            SimConfig::full(machine.clone(), lib, FUZZ_PROCS).with_faults(FaultPlan::none()),
        )
        .try_run()
        .map_err(|e| format!("inert-plan run failed: {e}"))?;
        if plain != inert {
            return Err("inert fault plan changed the result".into());
        }
        let timing = Simulator::new(
            &opt.program,
            SimConfig::timing(machine.clone(), lib, FUZZ_PROCS),
        )
        .try_run()
        .map_err(|e| format!("timing run failed: {e}"))?;
        // Timing mode computes no numerics; everything else must match.
        let numerics_free = |r: &SimResult| SimResult {
            scalars: Default::default(),
            arrays: Default::default(),
            ..r.clone()
        };
        if numerics_free(&plain) != numerics_free(&timing) {
            return Err("timing mode changed a timing or count field".into());
        }
    }

    // Invariant 2: the seeded run completes with no deadlock and no
    // safety violation.
    let r = Simulator::new(
        &opt.program,
        SimConfig::full(machine, lib, FUZZ_PROCS).with_faults(FaultPlan::seeded(seed)),
    )
    .try_run()
    .map_err(|e| format!("seeded run failed: {e}"))?;

    // Invariant 1: numerics still match the sequential reference.
    for a in &program.arrays {
        let want = reference
            .array(&a.name)
            .ok_or_else(|| format!("reference missing array {}", a.name))?;
        let got = r
            .array(&a.name)
            .ok_or_else(|| format!("result missing array {}", a.name))?;
        if want.len() != got.len() {
            return Err(format!("array {}: length mismatch", a.name));
        }
        for (i, (x, y)) in want.iter().zip(got).enumerate() {
            if !(x.is_finite() && y.is_finite()) || (x - y).abs() > 1e-9 * x.abs().max(1.0) {
                return Err(format!("array {}[{i}]: {x} vs {y}", a.name));
            }
        }
    }
    for s in &program.scalars {
        let x = reference
            .scalar(&s.name)
            .ok_or_else(|| format!("reference missing scalar {}", s.name))?;
        let y = r
            .scalar(&s.name)
            .ok_or_else(|| format!("result missing scalar {}", s.name))?;
        if (x - y).abs() > 1e-9 * x.abs().max(1.0) {
            return Err(format!("scalar {}: {x} vs {y}", s.name));
        }
    }
    Ok(())
}

/// Runs the whole fuzz matrix under seeds `0..seeds`, fanned over `jobs`
/// worker threads. Cases are independent (each builds its own program and
/// fault state), and the sweep reports failures in case order whatever the
/// worker count.
pub fn run_fuzz(seeds: u64, jobs: usize) -> Sweep {
    let cases = matrix();
    let names: Vec<String> = cases.iter().map(|(n, ..)| n.clone()).collect();
    sweep_jobs(&names, seeds, jobs, |name, seed| {
        let (_, bench, exp, lib) = cases
            .iter()
            .find(|(n, ..)| n == name)
            .expect("name comes from the matrix");
        fuzz_case(bench, *exp, *lib, seed)
    })
}

/// Self-check: a deliberately broken binding — SHMEM with the DR-side
/// readiness `synch` stripped — must be caught by the safety checker as a
/// put-before-ready violation, not silently produce an answer.
pub fn broken_binding_is_caught() -> Result<(), String> {
    let bench = commopt_benchmarks::tomcatv();
    let program = bench.program_with(FUZZ_N, FUZZ_ITERS);
    let opt = optimize(&program, &Experiment::Pl.config());
    let broken = Library::Shmem
        .binding()
        .with_action(CallKind::DR, Action::Noop);
    match Simulator::new(
        &opt.program,
        SimConfig::full(MachineSpec::t3d(), Library::Shmem, FUZZ_PROCS).with_binding(broken),
    )
    .try_run()
    {
        Err(SimError::Safety(violations))
            if violations
                .iter()
                .any(|v| matches!(v, SafetyViolation::PutBeforeReady { .. })) =>
        {
            Ok(())
        }
        Err(other) => Err(format!("expected put-before-ready, got: {other}")),
        Ok(_) => Err("broken binding produced a result with no violation".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_combination() {
        let m = matrix();
        assert_eq!(m.len(), 4 * EXPERIMENTS.len() * Library::ALL.len());
        assert!(m.iter().any(|(n, ..)| n == "tomcatv/pl/shmem"));
        // Names are unique (they key the sweep's failure reports).
        let mut names: Vec<&String> = m.iter().map(|(n, ..)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), m.len());
    }

    #[test]
    fn one_case_passes_under_a_seeded_plan() {
        let bench = commopt_benchmarks::tomcatv();
        fuzz_case(&bench, Experiment::Pl, Library::Shmem, 1).unwrap();
    }

    #[test]
    fn broken_binding_self_check_passes() {
        broken_binding_is_caught().unwrap();
    }
}
