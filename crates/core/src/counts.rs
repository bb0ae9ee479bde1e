//! Static and dynamic communication counts (paper §3.3.1, Figure 8).
//!
//! * The **static count** is "the number of communications in the text of
//!   the SPMD program" — one per transfer descriptor.
//! * The **dynamic count** is "the actual number of communications
//!   performed during the execution of the program on a single processor".
//!   Because control flow is static, the dynamic count is structural: the
//!   number of DN calls executed when the loop nest is unrolled. This
//!   module computes it by walking the loop structure, which the simulator
//!   cross-checks against its own instruction-level counter.

use commopt_ir::{loop_values, Block, CallKind, LoopEnv, Program, Stmt};

/// The static communication count: transfers in the program text.
pub fn static_count(program: &Program) -> u64 {
    program.transfers.len() as u64
}

/// The dynamic communication count: transfer executions per processor.
///
/// # Panics
/// Panics with the [`validate`](commopt_ir::validate()) message on a `for`
/// loop whose step is not ±1.
pub fn dynamic_count(program: &Program) -> u64 {
    let mut env = LoopEnv::new();
    count_block(&program.body, &mut env)
}

fn count_block(block: &Block, env: &mut LoopEnv) -> u64 {
    let mut n = 0;
    for stmt in block.iter() {
        match stmt {
            Stmt::Comm {
                kind: CallKind::DN, ..
            } => n += 1,
            Stmt::Comm { .. } => {}
            Stmt::Repeat { count, body } => {
                // A repeat body has no loop variable, so one evaluation
                // suffices.
                n += count * count_block(body, env);
            }
            Stmt::For {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                // Bounds may reference outer loop variables, so iterate
                // explicitly rather than assuming constant trip counts.
                let values = loop_values(lo.eval(env), hi.eval(env), *step)
                    .unwrap_or_else(|e| panic!("{e}"));
                for i in values {
                    env.push(*var, i);
                    n += count_block(body, env);
                    env.pop();
                }
            }
            _ => {}
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptConfig;
    use crate::emit::optimize_program;
    use commopt_ir::offset::compass;
    use commopt_ir::{Expr, ProgramBuilder, Rect, Region};

    #[test]
    fn dynamic_count_multiplies_trip_counts() {
        let mut b = ProgramBuilder::new("t");
        let bounds = Rect::d2((1, 8), (1, 8));
        let r = Region::d2((2, 7), (2, 7));
        let x = b.array("X", bounds);
        let a = b.array("A", bounds);
        b.assign(r, a, Expr::at(x, compass::EAST)); // 1 execution
        b.repeat(10, |b| {
            b.assign(r, a, Expr::at(x, compass::WEST)); // 10 executions
            b.for_up("i", 2, 7, |b, i| {
                b.assign(Region::row2(i, (2, 7)), a, Expr::at(x, compass::NORTH));
                // 10 * 6 executions
            });
        });
        let p = b.finish();
        let opt = optimize_program(&p, &OptConfig::baseline());
        assert_eq!(static_count(&opt.program), 3);
        assert_eq!(dynamic_count(&opt.program), 1 + 10 + 60);
    }

    #[test]
    fn downward_for_counts_same_as_upward() {
        let mut b = ProgramBuilder::new("t");
        let bounds = Rect::d2((1, 8), (1, 8));
        let x = b.array("X", bounds);
        let a = b.array("A", bounds);
        b.for_down("i", 7, 2, |b, i| {
            b.assign(Region::row2(i, (2, 7)), a, Expr::at(x, compass::SOUTH));
        });
        let p = b.finish();
        let opt = optimize_program(&p, &OptConfig::baseline());
        assert_eq!(dynamic_count(&opt.program), 6);
    }

    #[test]
    #[should_panic(expected = "for-loop step must be ±1, got 0")]
    fn zero_step_loop_panics_instead_of_spinning() {
        let mut p = commopt_ir::Program::new("t");
        let i = p.add_loop_var("i");
        p.body.0.push(Stmt::For {
            var: i,
            lo: 1.into(),
            hi: 4.into(),
            step: 0,
            body: Block::default(),
        });
        dynamic_count(&p);
    }

    #[test]
    fn empty_for_loop_counts_zero() {
        let mut b = ProgramBuilder::new("t");
        let bounds = Rect::d2((1, 8), (1, 8));
        let x = b.array("X", bounds);
        let a = b.array("A", bounds);
        b.for_up("i", 5, 4, |b, i| {
            b.assign(Region::row2(i, (2, 7)), a, Expr::at(x, compass::NORTH));
        });
        let p = b.finish();
        let opt = optimize_program(&p, &OptConfig::baseline());
        assert_eq!(dynamic_count(&opt.program), 0);
    }

    #[test]
    fn redundancy_in_setup_vs_loop() {
        // The paper observes rr mostly fires in setup code while cc fires in
        // the main loop; check the counts reflect block structure.
        let mut b = ProgramBuilder::new("t");
        let bounds = Rect::d2((1, 8), (1, 8));
        let r = Region::d2((2, 7), (2, 7));
        let x = b.array("X", bounds);
        let y = b.array("Y", bounds);
        let a = b.array("A", bounds);
        // Setup: redundant east comm of X.
        b.assign(r, a, Expr::at(x, compass::EAST));
        b.assign(r, a, Expr::at(x, compass::EAST));
        // Main loop: combinable comm of X and Y.
        b.repeat(100, |b| {
            b.assign(
                r,
                a,
                Expr::at(x, compass::NORTH) + Expr::at(y, compass::NORTH),
            );
        });
        let p = b.finish();

        let base = optimize_program(&p, &OptConfig::baseline());
        let rr = optimize_program(&p, &OptConfig::rr());
        let cc = optimize_program(&p, &OptConfig::cc());
        assert_eq!(dynamic_count(&base.program), 2 + 200);
        assert_eq!(dynamic_count(&rr.program), 1 + 200); // rr: setup only
        assert_eq!(dynamic_count(&cc.program), 1 + 100); // cc: loop halves
    }
}
