//! An independent sequential reference interpreter.
//!
//! Executes a *source* program (communication statements, if present, are
//! ignored — they are semantically no-ops) on global arrays, element by
//! element, with straightforward recursive expression evaluation. It
//! deliberately shares no evaluation code with the distributed engine so
//! the two can serve as oracles for each other: for every benchmark and
//! every optimizer configuration, a full-mode [`Simulator`](crate::Simulator)
//! run must reproduce `SeqInterp::run(source)` exactly, as
//! [`SeqInterp::check`] decides.

// Dimension loops deliberately index several parallel arrays by `d`.
#![allow(clippy::needless_range_loop)]

use crate::SimResult;
use commopt_ir::{loop_values, Expr, LoopEnv, Program, Rect, ScalarRhs, Stmt, MAX_RANK};
use std::collections::BTreeMap;

/// A completed sequential run: final scalars and arrays.
#[derive(Clone, Debug)]
pub struct SeqInterp {
    scalars: BTreeMap<String, f64>,
    arrays: BTreeMap<String, (Rect, Vec<f64>)>,
}

struct State<'p> {
    program: &'p Program,
    /// Row-major storage per array over its declared bounds.
    data: Vec<Vec<f64>>,
    scalars: Vec<f64>,
    env: LoopEnv,
    /// One assignment's values, all evaluated before any is committed;
    /// reused from statement to statement.
    vals: Vec<f64>,
}

impl SeqInterp {
    /// Runs `program` to completion.
    ///
    /// # Panics
    /// Panics with the [`validate`](commopt_ir::validate()) message on a
    /// `for` loop whose step is not ±1.
    pub fn run(program: &Program) -> SeqInterp {
        let data = program
            .arrays
            .iter()
            .map(|a| vec![0.0; a.rect.count() as usize])
            .collect();
        let mut st = State {
            program,
            data,
            scalars: program.scalars.iter().map(|s| s.init).collect(),
            env: LoopEnv::new(),
            vals: Vec::new(),
        };
        exec_block(&mut st, &program.body);
        SeqInterp {
            scalars: program
                .scalars
                .iter()
                .zip(&st.scalars)
                .map(|(d, v)| (d.name.clone(), *v))
                .collect(),
            arrays: program
                .arrays
                .iter()
                .zip(st.data)
                .map(|(d, v)| (d.name.clone(), (d.rect, v)))
                .collect(),
        }
    }

    /// Final value of a scalar.
    pub fn scalar(&self, name: &str) -> Option<f64> {
        self.scalars.get(name).copied()
    }

    /// Final contents of an array, row-major over its bounds.
    pub fn array(&self, name: &str) -> Option<&[f64]> {
        self.arrays.get(name).map(|(_, v)| v.as_slice())
    }

    /// One element of an array by global index.
    pub fn at(&self, name: &str, idx: [i64; MAX_RANK]) -> Option<f64> {
        let (rect, v) = self.arrays.get(name)?;
        Some(v[linear(rect, idx)])
    }

    /// Checks a full-mode run of the same source program against this
    /// reference, naming the first difference.
    ///
    /// Every array must be present, finite and equal bit for bit: the
    /// distributed evaluator computes each element by the same operations
    /// in the same order as this interpreter, so nothing but a missing or
    /// misplaced transfer can change one. Every scalar must be within
    /// 1e-12 relative (floor 1.0), because a reduction folds each
    /// processor's share in turn and so reassociates. A result with no
    /// arrays (a timing-mode run) fails: it computed no numerics.
    pub fn check(&self, r: &SimResult) -> Result<(), String> {
        if r.arrays.is_empty() {
            return Err("the run has no arrays: timing mode computes no numerics".into());
        }
        for (name, (rect, want)) in &self.arrays {
            let got = r
                .array(name)
                .ok_or_else(|| format!("array {name} is missing from the run"))?;
            if got.len() != want.len() {
                return Err(format!(
                    "array {name}: the run has {} elements, the reference {}",
                    got.len(),
                    want.len()
                ));
            }
            let bad = want
                .iter()
                .zip(got)
                .position(|(x, y)| !x.is_finite() || x.to_bits() != y.to_bits());
            if let Some(k) = bad {
                let (x, y) = (want[k], got[k]);
                let at = index_label(rect, k);
                return Err(if x.is_finite() {
                    format!("array {name}{at}: run {y}, reference {x}")
                } else {
                    format!("array {name}{at}: reference {x} is not finite (run {y})")
                });
            }
        }
        for (name, &x) in &self.scalars {
            let y = r
                .scalar(name)
                .ok_or_else(|| format!("scalar {name} is missing from the run"))?;
            if !x.is_finite() {
                return Err(format!(
                    "scalar {name}: reference {x} is not finite (run {y})"
                ));
            }
            if y.is_nan() || (x - y).abs() > 1e-12 * x.abs().max(1.0) {
                return Err(format!(
                    "scalar {name}: run {y}, reference {x}, more than 1e-12 relative apart"
                ));
            }
        }
        Ok(())
    }
}

/// The global index of row-major position `k` in an array over `rect`,
/// as `[i, j]`.
fn index_label(rect: &Rect, k: usize) -> String {
    let mut rest = k as i64;
    let mut idx = [0; MAX_RANK];
    for d in (0..MAX_RANK).rev() {
        let e = rect.extent(d);
        idx[d] = rect.lo[d] + rest % e;
        rest /= e;
    }
    let parts: Vec<String> = idx[..rect.rank].iter().map(i64::to_string).collect();
    format!("[{}]", parts.join(", "))
}

fn linear(rect: &Rect, idx: [i64; MAX_RANK]) -> usize {
    assert!(
        rect.contains(idx),
        "sequential read {idx:?} outside {rect:?}"
    );
    position(rect, idx)
}

/// The row-major position of `idx` in an array over `rect`, without
/// checking that `rect` contains `idx`: the caller has.
fn position(rect: &Rect, idx: [i64; MAX_RANK]) -> usize {
    let e1 = rect.extent(1) as usize;
    let e2 = rect.extent(2) as usize;
    let o0 = (idx[0] - rect.lo[0]) as usize;
    let o1 = (idx[1] - rect.lo[1]) as usize;
    let o2 = (idx[2] - rect.lo[2]) as usize;
    (o0 * e1 + o1) * e2 + o2
}

fn exec_block(st: &mut State<'_>, block: &commopt_ir::Block) {
    for stmt in block.iter() {
        match stmt {
            Stmt::Assign { region, lhs, rhs } => {
                let rect = region.eval(&st.env);
                check_reads(st, rhs, &rect);
                let bounds = st.program.array(*lhs).rect;
                check_inside("write", &rect, &bounds);
                // Evaluate everything, then commit (ZPL statement
                // semantics: RHS reads the pre-statement values).
                let mut vals = std::mem::take(&mut st.vals);
                vals.clear();
                rect.for_each(|idx| vals.push(eval(st, rhs, idx)));
                let mut it = vals.iter();
                let li = lhs.index();
                rect.for_each(|idx| {
                    let k = position(&bounds, idx);
                    st.data[li][k] = *it.next().expect("value per index");
                });
                st.vals = vals;
            }
            Stmt::ScalarAssign { lhs, rhs } => {
                let v = match rhs {
                    ScalarRhs::Expr(e) => {
                        check_reads(st, e, &Rect::new(MAX_RANK, [0; MAX_RANK], [0; MAX_RANK]));
                        eval(st, e, [0, 0, 0])
                    }
                    ScalarRhs::Reduce { op, region, expr } => {
                        let rect = region.eval(&st.env);
                        check_reads(st, expr, &rect);
                        let mut acc = op.identity();
                        rect.for_each(|idx| acc = op.fold(acc, eval(st, expr, idx)));
                        acc
                    }
                };
                st.scalars[lhs.index()] = v;
            }
            Stmt::Repeat { count, body } => {
                for _ in 0..*count {
                    exec_block(st, body);
                }
            }
            Stmt::For {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let lo = lo.eval(&st.env);
                let values =
                    loop_values(lo, hi.eval(&st.env), *step).unwrap_or_else(|e| panic!("{e}"));
                st.env.push(*var, lo);
                for i in values {
                    st.env.set(*var, i);
                    exec_block(st, body);
                }
                st.env.pop();
            }
            // Communication is semantically transparent.
            Stmt::Comm { .. } => {}
        }
    }
}

/// Panics unless every reference in `e`, shifted over `rect`, reads inside
/// its array: checked once per statement, so [`eval`] need not check each
/// read.
fn check_reads(st: &State<'_>, e: &Expr, rect: &Rect) {
    e.walk(&mut |n| {
        if let Expr::Ref { array, offset } = n {
            let mut delta = [0; MAX_RANK];
            for d in 0..MAX_RANK {
                delta[d] = i64::from(offset.get(d));
            }
            let bounds = st.program.array(*array).rect;
            check_inside("read", &rect.shifted(delta), &bounds);
        }
    });
}

/// Panics with a `sequential {what} … outside …` message unless `rect` is
/// empty or lies inside `bounds`.
fn check_inside(what: &str, rect: &Rect, bounds: &Rect) {
    assert!(
        rect.is_empty() || (bounds.contains(rect.lo) && bounds.contains(rect.hi)),
        "sequential {what} {rect:?} outside {bounds:?}"
    );
}

fn eval(st: &State<'_>, e: &Expr, idx: [i64; MAX_RANK]) -> f64 {
    match e {
        Expr::Const(c) => *c,
        Expr::Scalar(s) => st.scalars[s.index()],
        Expr::LoopVar(v) => st.env.get(*v) as f64,
        Expr::Index(d) => idx[*d as usize] as f64,
        Expr::Ref { array, offset } => {
            let mut at = idx;
            for d in 0..MAX_RANK {
                at[d] += i64::from(offset.get(d));
            }
            let bounds = st.program.array(*array).rect;
            st.data[array.index()][position(&bounds, at)]
        }
        Expr::Unary { op, a } => op.apply(eval(st, a, idx)),
        Expr::Binary { op, a, b } => op.apply(eval(st, a, idx), eval(st, b, idx)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commopt_ir::offset::compass;
    use commopt_ir::{ProgramBuilder, ReduceOp, Region};

    #[test]
    #[should_panic(expected = "for-loop step must be ±1, got 0")]
    fn zero_step_loop_panics_instead_of_spinning() {
        let mut p = Program::new("t");
        let i = p.add_loop_var("i");
        p.body.0.push(Stmt::For {
            var: i,
            lo: 1.into(),
            hi: 4.into(),
            step: 0,
            body: commopt_ir::Block::default(),
        });
        SeqInterp::run(&p);
    }

    #[test]
    fn assign_and_shift() {
        let mut b = ProgramBuilder::new("t");
        let bounds = Rect::d2((1, 4), (1, 4));
        let x = b.array("X", bounds);
        let a = b.array("A", bounds);
        b.assign(
            Region::from_rect(bounds),
            x,
            Expr::Index(0) * Expr::Const(10.0) + Expr::Index(1),
        );
        b.assign(Region::d2((1, 4), (1, 3)), a, Expr::at(x, compass::EAST));
        let r = SeqInterp::run(&b.finish());
        // A[2,2] = X[2,3] = 23
        assert_eq!(r.at("A", [2, 2, 0]), Some(23.0));
        assert_eq!(r.at("A", [4, 3, 0]), Some(44.0));
        assert_eq!(r.at("A", [1, 4, 0]), Some(0.0)); // untouched
    }

    #[test]
    fn self_shift_uses_pre_statement_values() {
        let mut b = ProgramBuilder::new("t");
        let bounds = Rect::d2((1, 1), (1, 4));
        let a = b.array("A", bounds);
        b.assign(Region::from_rect(bounds), a, Expr::Index(1));
        // A := A@east over [1..1, 1..3]: all reads happen before writes.
        b.assign(Region::d2((1, 1), (1, 3)), a, Expr::at(a, compass::EAST));
        let r = SeqInterp::run(&b.finish());
        assert_eq!(r.array("A").unwrap(), &[2.0, 3.0, 4.0, 4.0]);
    }

    #[test]
    fn reductions_and_scalars() {
        let mut b = ProgramBuilder::new("t");
        let bounds = Rect::d2((1, 3), (1, 3));
        let x = b.array("X", bounds);
        let s = b.scalar("s", 0.0);
        let m = b.scalar("m", 0.0);
        b.assign(
            Region::from_rect(bounds),
            x,
            Expr::Index(0) + Expr::Index(1),
        );
        b.reduce(s, ReduceOp::Sum, Region::from_rect(bounds), Expr::local(x));
        b.reduce(m, ReduceOp::Max, Region::from_rect(bounds), Expr::local(x));
        b.scalar_assign(s, Expr::Scalar(commopt_ir::ScalarId(0)) * Expr::Const(2.0));
        let r = SeqInterp::run(&b.finish());
        // sum of (i+j) over 3x3 with i,j in 1..3 = 36; doubled = 72.
        assert_eq!(r.scalar("s"), Some(72.0));
        assert_eq!(r.scalar("m"), Some(6.0));
    }

    #[test]
    fn wavefront_for_loop() {
        // A[i] := A[i-1] + 1 computed by an upward row sweep: row r ends
        // up with value r (row 1 seeded with 1).
        let mut b = ProgramBuilder::new("t");
        let n = 5;
        let bounds = Rect::d2((1, n), (1, 3));
        let a = b.array("A", bounds);
        b.assign(Region::d2((1, 1), (1, 3)), a, Expr::Const(1.0));
        b.for_up("i", 2, n, |b, i| {
            b.assign(
                Region::row2(i, (1, 3)),
                a,
                Expr::at(a, compass::NORTH) + Expr::Const(1.0),
            );
        });
        let r = SeqInterp::run(&b.finish());
        for row in 1..=n {
            assert_eq!(r.at("A", [row, 2, 0]), Some(row as f64));
        }
    }

    /// A reference over `X` (4×4, `i*10 + j`, one element NaN when
    /// `poison`) and `s := sum(X)`, and a run that reproduces it exactly.
    fn reference_and_run(poison: bool) -> (SeqInterp, SimResult) {
        let mut b = ProgramBuilder::new("t");
        let bounds = Rect::d2((1, 4), (1, 4));
        let x = b.array("X", bounds);
        let s = b.scalar("s", 0.0);
        b.assign(
            Region::from_rect(bounds),
            x,
            Expr::Index(0) * Expr::Const(10.0) + Expr::Index(1) + Expr::Const(0.1),
        );
        if poison {
            b.assign(Region::d2((3, 3), (2, 2)), x, Expr::Const(f64::NAN));
        }
        b.reduce(s, ReduceOp::Sum, Region::from_rect(bounds), Expr::local(x));
        let reference = SeqInterp::run(&b.finish());
        let run = SimResult {
            arrays: reference
                .arrays
                .iter()
                .map(|(name, (_, v))| (name.clone(), v.clone()))
                .collect(),
            scalars: reference.scalars.clone(),
            ..SimResult::default()
        };
        (reference, run)
    }

    #[test]
    fn check_rejects_an_element_one_ulp_off() {
        let (reference, mut run) = reference_and_run(false);
        assert_eq!(reference.check(&run), Ok(()));
        // Row-major position 6 of [1..4, 1..4] is X[2, 3] = 23.1.
        let v = &mut run.arrays.get_mut("X").unwrap()[6];
        *v = f64::from_bits(v.to_bits() + 1);
        let err = reference.check(&run).unwrap_err();
        assert_eq!(err, "array X[2, 3]: run 23.100000000000005, reference 23.1");
    }

    #[test]
    fn check_tells_the_signs_of_zero_apart() {
        let (mut reference, mut run) = reference_and_run(false);
        reference.arrays.get_mut("X").unwrap().1[0] = 0.0;
        run.arrays.get_mut("X").unwrap()[0] = -0.0;
        let err = reference.check(&run).unwrap_err();
        assert_eq!(err, "array X[1, 1]: run -0, reference 0");
    }

    #[test]
    fn check_rejects_a_nan_in_both_runs() {
        let (reference, run) = reference_and_run(true);
        assert!(run.arrays["X"][9].is_nan());
        let err = reference.check(&run).unwrap_err();
        assert_eq!(err, "array X[3, 2]: reference NaN is not finite (run NaN)");
    }

    #[test]
    fn check_holds_scalars_to_1e12_relative() {
        let (reference, mut run) = reference_and_run(false);
        let want = reference.scalar("s").unwrap();
        run.scalars.insert("s".into(), want * (1.0 + 1e-13));
        assert_eq!(reference.check(&run), Ok(()));
        run.scalars.insert("s".into(), want * (1.0 + 1e-11));
        let err = reference.check(&run).unwrap_err();
        assert!(err.starts_with("scalar s: run "), "{err}");
        assert!(err.contains(&format!("reference {want}")), "{err}");
        run.scalars.insert("s".into(), f64::NAN);
        let err = reference.check(&run).unwrap_err();
        assert!(err.starts_with("scalar s: run NaN, reference "), "{err}");
        run.scalars.remove("s");
        assert_eq!(
            reference.check(&run).unwrap_err(),
            "scalar s is missing from the run"
        );
    }

    #[test]
    fn check_rejects_timing_mode_and_missing_arrays() {
        let (reference, mut run) = reference_and_run(false);
        let timing = SimResult {
            arrays: Default::default(),
            ..run.clone()
        };
        assert_eq!(
            reference.check(&timing).unwrap_err(),
            "the run has no arrays: timing mode computes no numerics"
        );
        run.arrays.insert("Y".into(), vec![0.0]);
        run.arrays.remove("X");
        assert_eq!(
            reference.check(&run).unwrap_err(),
            "array X is missing from the run"
        );
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_bounds_read_panics() {
        let mut b = ProgramBuilder::new("t");
        let bounds = Rect::d2((1, 4), (1, 4));
        let x = b.array("X", bounds);
        let a = b.array("A", bounds);
        // Reading X@east over the full region steps outside the bounds.
        b.assign(Region::from_rect(bounds), a, Expr::at(x, compass::EAST));
        SeqInterp::run(&b.finish());
    }

    #[test]
    #[should_panic(expected = "sequential read [2..5, 1..4] outside [1..4, 1..4]")]
    fn out_of_bounds_reduction_read_panics() {
        let mut b = ProgramBuilder::new("t");
        let bounds = Rect::d2((1, 4), (1, 4));
        let x = b.array("X", bounds);
        let s = b.scalar("s", 0.0);
        // Reading X@south over the full region steps past the last row.
        b.reduce(
            s,
            ReduceOp::Sum,
            Region::from_rect(bounds),
            Expr::at(x, compass::SOUTH),
        );
        SeqInterp::run(&b.finish());
    }
}
