//! The paper's experiment matrix: every benchmark × optimizer config ×
//! library × plan × sizing cell a figure reads, optimized and simulated
//! once.
//!
//! Figures 8 and 10–12 and Tables 1–4 all read the same 64-processor T3D
//! runs; the ablation, the Paragon note and the global-pass extension add
//! a few more. Each figure declares the [`Key`]s it reads
//! ([`crate::figures::Figure::keys`]); the `repro` binary computes their
//! union in one [`Matrix::compute`] pass and every figure renders from it.
//!
//! [`Key`] is also how the rest of the harness names a cell: the perf
//! snapshot, the fuzz sweep, the lint table and the simulator goldens
//! each enumerate [`levels`] at one of the named [`Sizing`]s.

use crate::machine_for;
use commopt_benchmarks::{suite, Benchmark, Experiment};
use commopt_core::{
    dynamic_count, global_pass, optimize, static_count, verify_plan, GlobalStats, OptConfig,
};
use commopt_ir::Program;
use commopt_ironman::Library;
use commopt_lang::parser::parse;
use commopt_lang::Frontend;
use commopt_sim::{SimConfig, Simulator};
use commopt_testkit::pool::Pool;
use std::collections::{HashMap, HashSet};

/// How a cell's benchmark is compiled and how many processors it runs on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Sizing {
    /// The paper's problem size ([`Benchmark::program`]) on the
    /// benchmark's `paper_procs`.
    Paper,
    /// The paper's grid at `1/divisor` of the iterations its source
    /// declares (`config iters`, at least one), on `paper_procs`.
    PaperIters { divisor: i64 },
    /// `Grid(n, iters, procs)`: `n` points per grid dimension and `iters`
    /// iterations on `procs` processors.
    Grid(i64, i64, usize),
}

impl Sizing {
    /// `perf --quick`, the CI sizing.
    pub const QUICK: Sizing = Sizing::Grid(16, 2, 4);
    /// `perf --standard`, the `perf` default.
    pub const STANDARD: Sizing = Sizing::Grid(32, 3, 16);
    /// The fuzz sweep: large enough that every benchmark communicates in
    /// every direction, small enough that the whole sweep stays fast. 12
    /// rows over 8 processor rows make blocks of 1–2 rows, narrower than
    /// SP's radius-2 offsets.
    pub const FUZZ: Sizing = Sizing::Grid(12, 2, 64);
    /// `golden_sim`'s full (numeric) mode cells over every binding.
    pub const GOLDEN_FULL: Sizing = Sizing::Grid(12, 2, 4);
    /// `golden_sim`'s timing-mode cells on the two snapshot machines.
    pub const GOLDEN_TIMING: Sizing = Sizing::Grid(16, 2, 16);
    /// perfbench's `paper` workload and `golden_sim`'s `paper` cells:
    /// large enough that row-sweep transfers change shape from one loop
    /// instance to the next.
    pub const PAPER_SIXTEENTH: Sizing = Sizing::PaperIters { divisor: 16 };

    /// Compiles `bench` at this sizing.
    pub fn program(self, bench: &Benchmark) -> Program {
        match self {
            Sizing::Paper => bench.program(),
            Sizing::PaperIters { divisor } => {
                let source = parse(bench.source).unwrap_or_else(|e| panic!("{}: {e}", bench.name));
                let iters = source.configs.iter().find(|c| c.name == "iters");
                let iters = iters
                    .expect("a paper program declares `config iters`")
                    .value;
                Frontend::new(bench.source)
                    .with_config("iters", (iters / divisor).max(1))
                    .compile()
                    .unwrap_or_else(|e| panic!("{}: {e}", bench.name))
            }
            Sizing::Grid(n, iters, _) => bench.program_with(n, iters),
        }
    }

    /// The processors `bench` runs on at this sizing.
    pub fn procs(self, bench: &Benchmark) -> usize {
        match self {
            Sizing::Paper | Sizing::PaperIters { .. } => bench.paper_procs,
            Sizing::Grid(.., procs) => procs,
        }
    }
}

/// Which program a cell simulates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Plan {
    /// The optimizer's output.
    Optimized,
    /// The optimizer's output after the cross-block [`global_pass`].
    Global,
}

/// One cell. The machine follows from the library ([`machine_for`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Key {
    /// The benchmark's name, as in [`suite`].
    pub bench: &'static str,
    pub config: OptConfig,
    pub library: Library,
    pub plan: Plan,
    pub sizing: Sizing,
}

impl Key {
    /// The optimizer's plan under `config`, run over `library` at the
    /// paper's sizing.
    pub fn new(bench: &Benchmark, config: OptConfig, library: Library) -> Key {
        Key {
            bench: bench.name,
            config,
            library,
            plan: Plan::Optimized,
            sizing: Sizing::Paper,
        }
    }

    /// One of the paper's experiments.
    pub fn experiment(bench: &Benchmark, e: Experiment) -> Key {
        Key::new(bench, e.config(), e.library())
    }

    /// The same cell with the global pass applied to its plan.
    pub fn global(self) -> Key {
        Key {
            plan: Plan::Global,
            ..self
        }
    }

    /// The same cell at another sizing.
    pub fn at(self, sizing: Sizing) -> Key {
        Key { sizing, ..self }
    }

    /// The cell's benchmark.
    pub fn benchmark(self) -> Benchmark {
        suite()
            .into_iter()
            .find(|b| b.name == self.bench)
            .unwrap_or_else(|| panic!("unknown benchmark '{}'", self.bench))
    }

    /// The optimization level the cell compiles at; panics when its config
    /// is none of [`Experiment::LEVELS`].
    pub fn level(self) -> Experiment {
        Experiment::LEVELS
            .into_iter()
            .find(|e| e.config() == self.config)
            .unwrap_or_else(|| panic!("{self:?} is not at an optimization level"))
    }
}

/// Every suite benchmark × optimization level × library of `libraries`
/// at `sizing`, in that nesting order.
pub fn levels(sizing: Sizing, libraries: &[Library]) -> Vec<Key> {
    let mut keys = Vec::new();
    for bench in suite() {
        for level in Experiment::LEVELS {
            for &library in libraries {
                keys.push(Key::new(&bench, level.config(), library).at(sizing));
            }
        }
    }
    keys
}

/// One simulated cell.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Transfers in the plan: the paper's static count.
    pub static_count: u64,
    /// The dynamic count derived structurally from the loop nest.
    pub dynamic_count: u64,
    /// The dynamic count the simulator executed.
    pub dynamic_comm: u64,
    /// Simulated execution time.
    pub time_s: f64,
    /// What the global pass did (all zero for [`Plan::Optimized`]).
    pub global: GlobalStats,
}

/// `keys` without repeats, in first-seen order.
pub fn distinct(keys: impl IntoIterator<Item = Key>) -> Vec<Key> {
    let mut seen = HashSet::new();
    keys.into_iter().filter(|k| seen.insert(*k)).collect()
}

/// A computed set of cells.
pub struct Matrix {
    cells: HashMap<Key, Cell>,
}

impl Matrix {
    /// Optimizes each distinct (benchmark, config, sizing) once, applies
    /// the global pass where a key asks for it, and simulates each distinct
    /// key once over a [`Pool`] of `jobs` workers.
    pub fn compute(keys: impl IntoIterator<Item = Key>, jobs: usize) -> Matrix {
        let keys = distinct(keys);
        // A plan depends on everything in the key but the library.
        let plan_of = |k: &Key, plan| (k.bench, k.config, plan, k.sizing);
        let mut plans: HashMap<_, (Program, GlobalStats)> = HashMap::new();
        for k in &keys {
            let optimized = plan_of(k, Plan::Optimized);
            plans.entry(optimized).or_insert_with(|| {
                let opt = optimize(&k.sizing.program(&k.benchmark()), &k.config);
                (opt.program, GlobalStats::default())
            });
            if k.plan == Plan::Global && !plans.contains_key(&plan_of(k, k.plan)) {
                let mut global = plans[&optimized].0.clone();
                let stats = global_pass(&mut global);
                verify_plan(&global).expect("global plan must stay communication-safe");
                plans.insert(plan_of(k, k.plan), (global, stats));
            }
        }
        let cells = Pool::new(jobs).map(keys.clone(), |_, k| {
            let (program, global) = &plans[&plan_of(&k, k.plan)];
            let procs = k.sizing.procs(&k.benchmark());
            let config = SimConfig::timing(machine_for(k.library), k.library, procs);
            let r = Simulator::new(program, config).run();
            Cell {
                static_count: static_count(program),
                dynamic_count: dynamic_count(program),
                dynamic_comm: r.dynamic_comm,
                time_s: r.time_s,
                global: *global,
            }
        });
        Matrix {
            cells: keys.into_iter().zip(cells).collect(),
        }
    }

    /// The number of cells simulated.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// A computed cell; panics when `key` was not asked for.
    pub fn get(&self, key: Key) -> &Cell {
        self.cells
            .get(&key)
            .unwrap_or_else(|| panic!("{key:?} is not in the matrix"))
    }

    /// The cell of one of the paper's experiments.
    pub fn experiment(&self, bench: &Benchmark, e: Experiment) -> &Cell {
        self.get(Key::experiment(bench, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commopt_benchmarks::tomcatv;

    #[test]
    fn sizings_of_one_config_do_not_share_a_plan() {
        let b = tomcatv();
        let paper = Key::experiment(&b, Experiment::Baseline);
        let small = paper.at(Sizing::QUICK);
        let together = Matrix::compute([paper, small], 1);
        for key in [paper, small] {
            let alone = Matrix::compute([key], 1);
            let (got, want) = (together.get(key), alone.get(key));
            assert_eq!(
                (got.static_count, got.dynamic_count, got.dynamic_comm),
                (want.static_count, want.dynamic_count, want.dynamic_comm),
                "{key:?}"
            );
            assert_eq!(got.time_s.to_bits(), want.time_s.to_bits(), "{key:?}");
        }
        assert_ne!(
            together.get(paper).dynamic_comm,
            together.get(small).dynamic_comm
        );
    }
}
