//! Full-mode numerics against the sequential oracle where the evaluator's
//! lanes leave the last dimension: SP's implicit z solve writes 8×8×1
//! planes of its processor-local third dimension, and SIMPLE's column
//! sweeps write one-wide columns, at `Sizing::STANDARD` (32 points on 16
//! processors). Each run must pass [`SeqInterp::check`]: every final
//! array bit for bit, every scalar within 1e-12 relative.

use commopt_bench::machine_for;
use commopt_bench::matrix::Sizing;
use commopt_benchmarks::{suite, Experiment};
use commopt_core::optimize;
use commopt_ironman::Library;
use commopt_sim::{SeqInterp, SimConfig, Simulator};

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
            if let Err(e) = oracle.check(&r) {
                panic!("{} {}: {e}", bench.name, level.name());
            }
        }
    }
}
