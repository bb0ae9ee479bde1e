//! End-to-end correctness: for every benchmark and every optimizer
//! configuration, the distributed simulation (real blocks, real ghost
//! traffic, data snapshotted at send time) must reproduce the independent
//! sequential interpreter as [`SeqInterp::check`] decides: every array bit
//! for bit, every scalar within 1e-12 relative (a reduction folds each
//! processor's share in turn).

use commopt::benchmarks::suite;
use commopt::ir::Program;
use commopt::ironman::Library;
use commopt::machine::MachineSpec;
use commopt::opt::{optimize, OptConfig};
use commopt::sim::{SeqInterp, SimConfig, Simulator};

const N: i64 = 16;
const ITERS: i64 = 2;

/// Runs `program` optimized under `cfg` with `sim` (a full-mode
/// configuration) and checks it against `reference`, its sequential run.
fn check(reference: &SeqInterp, program: &Program, name: &str, cfg: &OptConfig, sim: SimConfig) {
    let opt = optimize(program, cfg);
    let r = Simulator::new(&opt.program, sim).run();
    if let Err(e) = reference.check(&r) {
        panic!("{name}: {e}");
    }
}

fn pvm(procs: usize) -> SimConfig {
    SimConfig::full(MachineSpec::t3d(), Library::Pvm, procs)
}

#[test]
fn all_benchmarks_all_presets_match_sequential_on_4_procs() {
    for b in suite() {
        let p = b.program_with(N, ITERS);
        let reference = SeqInterp::run(&p);
        for (cfg_name, cfg) in OptConfig::presets() {
            let name = format!("{}[{cfg_name}]", b.name);
            check(&reference, &p, &name, &cfg, pvm(4));
        }
    }
}

#[test]
fn grid_shapes_do_not_change_results() {
    // 1, 2, 4, 9, and 16 processors must all agree with the reference
    // (including non-square factorizations).
    for b in suite() {
        let p = b.program_with(N, 1);
        let reference = SeqInterp::run(&p);
        for procs in [1, 2, 4, 9, 16] {
            let name = format!("{}@{procs}", b.name);
            check(&reference, &p, &name, &OptConfig::pl(), pvm(procs));
        }
    }
}

#[test]
fn shmem_binding_matches_pvm_numerically() {
    for b in suite() {
        let p = b.program_with(N, ITERS);
        let opt = optimize(&p, &OptConfig::pl());
        let pvm = Simulator::new(
            &opt.program,
            SimConfig::full(MachineSpec::t3d(), Library::Pvm, 4),
        )
        .run();
        let shm = Simulator::new(
            &opt.program,
            SimConfig::full(MachineSpec::t3d(), Library::Shmem, 4),
        )
        .run();
        for a in &p.arrays {
            assert_eq!(
                pvm.array(&a.name).unwrap(),
                shm.array(&a.name).unwrap(),
                "{}/{}: binding changed numerics",
                b.name,
                a.name
            );
        }
    }
}

#[test]
fn paragon_bindings_match_reference_numerically() {
    let b = commopt::benchmarks::tomcatv();
    let p = b.program_with(N, 1);
    let reference = SeqInterp::run(&p);
    for lib in [Library::NxSync, Library::NxAsync, Library::NxCallback] {
        let name = format!("tomcatv/{lib:?}");
        let sim = SimConfig::full(MachineSpec::paragon(), lib, 4);
        check(&reference, &p, &name, &OptConfig::pl(), sim);
    }
}

#[test]
fn benchmark_values_stay_finite_at_moderate_depth() {
    // Longer runs at small grids: the synthetic physics must not blow up.
    for b in suite() {
        let p = b.program_with(20, 25);
        let r = SeqInterp::run(&p);
        for a in &p.arrays {
            let vals = r.array(&a.name).unwrap();
            assert!(
                vals.iter().all(|v| v.is_finite() && v.abs() < 1e9),
                "{}/{}: values diverged",
                b.name,
                a.name
            );
        }
    }
}
