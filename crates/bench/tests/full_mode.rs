//! Full-mode numerics against the sequential oracle where the evaluator's
//! lanes leave the last dimension: SP's implicit z solve writes 8×8×1
//! planes of its processor-local third dimension, and SIMPLE's column
//! sweeps write one-wide columns, at `Sizing::STANDARD` (32 points on 16
//! processors). Every final array must match bit for bit.

use commopt_bench::machine_for;
use commopt_bench::matrix::Sizing;
use commopt_benchmarks::{suite, Experiment};
use commopt_core::optimize;
use commopt_ironman::Library;
use commopt_sim::{SeqInterp, SimConfig, Simulator};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn sp_and_simple_at_standard_match_the_oracle_bit_for_bit() {
    let sizing = Sizing::STANDARD;
    for bench in suite()
        .into_iter()
        .filter(|b| ["sp", "simple"].contains(&b.name))
    {
        let program = sizing.program(&bench);
        let oracle = SeqInterp::run(&program);
        for level in [Experiment::Baseline, Experiment::Pl] {
            let opt = optimize(&program, &level.config());
            let lib = Library::Pvm;
            let cfg = SimConfig::full(machine_for(lib), lib, sizing.procs(&bench));
            let r = Simulator::new(&opt.program, cfg).run();
            let cell = format!("{} {}", bench.name, level.name());
            for a in &program.arrays {
                let (want, got) = (oracle.array(&a.name), r.array(&a.name));
                assert_eq!(want.map(bits), got.map(bits), "{cell}: array {}", a.name);
            }
            // A reduction folds each processor's share in turn, so a
            // summed scalar may differ from the oracle's in the last bits.
            for s in &program.scalars {
                let (want, got) = (oracle.scalar(&s.name), r.scalar(&s.name));
                let (want, got) = (want.expect("oracle scalar"), got.expect("scalar"));
                assert!(
                    (want - got).abs() <= 1e-12 * want.abs().max(1.0),
                    "{cell}: scalar {}: {want} vs {got}",
                    s.name
                );
            }
        }
    }
}
