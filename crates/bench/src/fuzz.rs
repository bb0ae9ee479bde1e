//! The schedule-fuzz harness.
//!
//! The paper's Figure 5 claim is that the optimizer's communication
//! placement is correct under *every* IRONMAN binding. The deterministic
//! simulator only ever exercises one schedule per configuration, so this
//! harness widens the net: every paper benchmark × experiment (vect, rr,
//! cc, pl) × all five library bindings is executed under `N` seeded
//! [`FaultPlan`]s — wire jitter, message reordering, slow processors,
//! dropped-and-retried deliveries. Each case's plan must be one commlint
//! finds safe (invariant 0), and each perturbed run must still
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

use crate::matrix::{levels, Key, Sizing};
use crate::{library_tag, machine_for};
use commopt_benchmarks::Experiment;
use commopt_core::optimize;
use commopt_ir::CallKind;
use commopt_ironman::{Action, Library};
use commopt_sim::{
    FaultPlan, SafetyViolation, SeqInterp, SimConfig, SimError, SimResult, Simulator,
};
use commopt_testkit::fuzz::{sweep_jobs, Sweep};
use std::collections::HashMap;

/// Every case of the fuzz matrix: each benchmark at each optimization
/// level over every library (the shmem/max-latency experiments reuse these
/// configs), at [`Sizing::FUZZ`].
pub fn matrix() -> Vec<Key> {
    levels(Sizing::FUZZ, &Library::ALL)
}

/// A case's name in sweep reports, like `tomcatv/pl/shmem`.
pub fn case_name(key: Key) -> String {
    format!(
        "{}/{}/{}",
        key.bench,
        key.level().name(),
        library_tag(key.library)
    )
}

/// Runs one case under one seeded fault plan in full (numeric) mode,
/// checking the fuzz invariants. Returns a message describing the
/// first broken invariant.
pub fn fuzz_case(key: Key, seed: u64) -> Result<(), String> {
    let bench = key.benchmark();
    let program = key.sizing.program(&bench);
    let procs = key.sizing.procs(&bench);
    let reference = SeqInterp::run(&program);
    let opt = optimize(&program, &key.config);
    let machine = machine_for(key.library);
    let full = SimConfig::full(machine.clone(), key.library, procs);

    // Invariant 0: commlint finds the plan communication-safe.
    let report = commopt_analysis::lint(&opt.program);
    if !report.safe() {
        return Err(format!("commlint rejects the plan:\n{}", report.render()));
    }

    // Invariant 3 (checked once per case, on the first seed): the inert
    // plan is byte-identical to no plan at all.
    if seed == 0 {
        let plain = Simulator::new(&opt.program, full.clone())
            .try_run()
            .map_err(|e| format!("unfaulted run failed: {e}"))?;
        let inert = Simulator::new(&opt.program, full.clone().with_faults(FaultPlan::none()))
            .try_run()
            .map_err(|e| format!("inert-plan run failed: {e}"))?;
        if plain != inert {
            return Err("inert fault plan changed the result".into());
        }
        let timing = Simulator::new(&opt.program, SimConfig::timing(machine, key.library, procs))
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
    let r = Simulator::new(&opt.program, full.with_faults(FaultPlan::seeded(seed)))
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
    let keys = matrix();
    let names: Vec<String> = keys.iter().copied().map(case_name).collect();
    // The sweep hands each run its case's name only.
    let cases: HashMap<&str, Key> = names.iter().map(String::as_str).zip(keys).collect();
    sweep_jobs(&names, seeds, jobs, |name, seed| {
        fuzz_case(cases[name], seed)
    })
}

/// Self-check: a deliberately broken binding — SHMEM with the DR-side
/// readiness `synch` stripped — must be caught by the safety checker as a
/// put-before-ready violation, not silently produce an answer.
pub fn broken_binding_is_caught() -> Result<(), String> {
    let bench = commopt_benchmarks::tomcatv();
    let program = Sizing::FUZZ.program(&bench);
    let procs = Sizing::FUZZ.procs(&bench);
    let opt = optimize(&program, &Experiment::Pl.config());
    let broken = Library::Shmem
        .binding()
        .with_action(CallKind::DR, Action::Noop);
    match Simulator::new(
        &opt.program,
        SimConfig::full(machine_for(Library::Shmem), Library::Shmem, procs).with_binding(broken),
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
        assert_eq!(m.len(), 4 * Experiment::LEVELS.len() * Library::ALL.len());
        // Names are unique (they key the sweep's failure reports).
        let mut names: Vec<String> = m.iter().copied().map(case_name).collect();
        assert!(names.iter().any(|n| n == "tomcatv/pl/shmem"));
        names.sort();
        names.dedup();
        assert_eq!(names.len(), m.len());
    }

    #[test]
    fn one_case_passes_under_a_seeded_plan() {
        let bench = commopt_benchmarks::tomcatv();
        let key = Key::new(&bench, Experiment::Pl.config(), Library::Shmem).at(Sizing::FUZZ);
        fuzz_case(key, 1).unwrap();
    }

    #[test]
    fn broken_binding_self_check_passes() {
        broken_binding_is_caught().unwrap();
    }
}
