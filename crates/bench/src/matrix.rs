//! The paper's experiment matrix: every benchmark × optimizer config ×
//! library × plan cell a figure reads, optimized and simulated once.
//!
//! Figures 8 and 10–12 and Tables 1–4 all read the same 64-processor T3D
//! runs; the ablation, the Paragon note and the global-pass extension add
//! a few more. Each figure declares the [`Key`]s it reads
//! ([`crate::figures::Figure::keys`]); the `repro` binary computes their
//! union in one [`Matrix::compute`] pass and every figure renders from it.

use crate::machine_for;
use commopt_benchmarks::{suite, Benchmark, Experiment};
use commopt_core::{
    dynamic_count, global_pass, optimize, static_count, verify_plan, GlobalStats, OptConfig,
};
use commopt_ir::Program;
use commopt_ironman::Library;
use commopt_sim::{SimConfig, Simulator};
use commopt_testkit::pool::Pool;
use std::collections::{HashMap, HashSet};

/// Which program a cell simulates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Plan {
    /// The optimizer's output.
    Optimized,
    /// The optimizer's output after the cross-block [`global_pass`].
    Global,
}

/// One cell. The machine follows from the library ([`machine_for`]) and
/// the partition is always the benchmark's `paper_procs`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Key {
    /// The benchmark's name, as in [`suite`].
    pub bench: &'static str,
    pub config: OptConfig,
    pub library: Library,
    pub plan: Plan,
}

impl Key {
    /// The optimizer's plan under `config`, run over `library`.
    pub fn new(bench: &Benchmark, config: OptConfig, library: Library) -> Key {
        Key {
            bench: bench.name,
            config,
            library,
            plan: Plan::Optimized,
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
    /// Optimizes each distinct (benchmark, config) once, applies the global
    /// pass where a key asks for it, and simulates each distinct key once
    /// over a [`Pool`] of `jobs` workers.
    pub fn compute(keys: impl IntoIterator<Item = Key>, jobs: usize) -> Matrix {
        let keys = distinct(keys);
        let mut plans: HashMap<(&str, OptConfig, Plan), (Program, GlobalStats)> = HashMap::new();
        for k in &keys {
            let optimized = (k.bench, k.config, Plan::Optimized);
            plans.entry(optimized).or_insert_with(|| {
                let opt = optimize(&bench(k.bench).program(), &k.config);
                (opt.program, GlobalStats::default())
            });
            if k.plan == Plan::Global && !plans.contains_key(&(k.bench, k.config, k.plan)) {
                let mut global = plans[&optimized].0.clone();
                let stats = global_pass(&mut global);
                verify_plan(&global).expect("global plan must stay communication-safe");
                plans.insert((k.bench, k.config, k.plan), (global, stats));
            }
        }
        let cells = Pool::new(jobs).map(keys.clone(), |_, k| {
            let (program, global) = &plans[&(k.bench, k.config, k.plan)];
            let procs = bench(k.bench).paper_procs;
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

fn bench(name: &str) -> Benchmark {
    suite()
        .into_iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("unknown benchmark '{name}'"))
}
