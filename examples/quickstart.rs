//! Quickstart: compile a mini-ZPL program, run the communication
//! optimizer at every level, and simulate it on the modeled Cray T3D.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use commopt::benchmarks::jacobi_source;
use commopt::ironman::Library;
use commopt::lang::Frontend;
use commopt::machine::MachineSpec;
use commopt::opt::{optimize, OptConfig};
use commopt::sim::{SimConfig, Simulator};

fn main() {
    // 1. Compile the Jacobi stencil program (see its source with
    //    `cat crates/benchmarks/programs/jacobi.zpl`), overriding the
    //    problem size.
    let program = Frontend::new(jacobi_source())
        .with_config("n", 128)
        .with_config("iters", 50)
        .compile()
        .expect("jacobi compiles");
    println!(
        "compiled `{}`: {} arrays, {} statements\n",
        program.name,
        program.arrays.len(),
        program.stmt_count()
    );

    // 2. Optimize and simulate under each configuration of the paper.
    let t3d = MachineSpec::t3d();
    println!(
        "{:<22} {:>8} {:>10} {:>10} {:>8}",
        "optimization", "static", "dynamic", "time (s)", "scaled"
    );
    let mut baseline = 0.0;
    for (name, cfg) in OptConfig::presets() {
        let opt = optimize(&program, &cfg);
        let result = Simulator::new(
            &opt.program,
            SimConfig::timing(t3d.clone(), Library::Pvm, 64),
        )
        .run();
        if baseline == 0.0 {
            baseline = result.time_s;
        }
        println!(
            "{:<22} {:>8} {:>10} {:>10.4} {:>8.3}",
            name,
            opt.static_count(),
            result.dynamic_comm,
            result.time_s,
            result.time_s / baseline
        );
    }

    // 3. Full mode additionally computes the numerics on distributed
    //    blocks with real ghost-region traffic; compare to the sequential
    //    reference interpreter.
    let opt = optimize(&program, &OptConfig::pl());
    let full = Simulator::new(&opt.program, SimConfig::full(t3d, Library::Shmem, 16)).run();
    let seq = commopt::sim::SeqInterp::run(&program);
    let err_sim = full.scalar("err").unwrap();
    let err_seq = seq.scalar("err").unwrap();
    println!("\nconvergence check `err`: simulated {err_sim:.3e}, sequential {err_seq:.3e}");
    if let Err(e) = seq.check(&full) {
        panic!("distributed numerics differ from the sequential reference: {e}");
    }
    println!("distributed numerics match the sequential reference.");
}
