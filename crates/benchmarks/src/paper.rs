//! The paper's published results (Appendix A, Tables 1–4), used by the
//! harness to print paper-vs-measured comparisons.

use commopt_core::OptConfig;
use commopt_ironman::Library;

/// The six experiments of Figure 9.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Experiment {
    /// Message vectorization only.
    Baseline,
    /// + redundant communication removal.
    Rr,
    /// + communication combination (maximized).
    Cc,
    /// + communication pipelining.
    Pl,
    /// The `pl` plan executed over `shmem_put`.
    PlShmem,
    /// `pl` over SHMEM, combining for maximum latency hiding.
    PlMaxLatency,
}

impl Experiment {
    /// All six, in Figure 9 / Appendix A order.
    pub const ALL: [Experiment; 6] = [
        Experiment::Baseline,
        Experiment::Rr,
        Experiment::Cc,
        Experiment::Pl,
        Experiment::PlShmem,
        Experiment::PlMaxLatency,
    ];

    /// The four optimization levels, in stacking order: each adds one
    /// pass to the one before. The SHMEM and max-latency experiments reuse
    /// these configurations over another library.
    pub const LEVELS: [Experiment; 4] = [
        Experiment::Baseline,
        Experiment::Rr,
        Experiment::Cc,
        Experiment::Pl,
    ];

    /// The experiment's name as printed in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Experiment::Baseline => "baseline",
            Experiment::Rr => "rr",
            Experiment::Cc => "cc",
            Experiment::Pl => "pl",
            Experiment::PlShmem => "pl with shmem",
            Experiment::PlMaxLatency => "pl with max latency",
        }
    }

    /// The optimizer configuration the experiment compiles with.
    pub fn config(self) -> OptConfig {
        match self {
            Experiment::Baseline => OptConfig::baseline(),
            Experiment::Rr => OptConfig::rr(),
            Experiment::Cc => OptConfig::cc(),
            Experiment::Pl | Experiment::PlShmem => OptConfig::pl(),
            Experiment::PlMaxLatency => OptConfig::pl_max_latency(),
        }
    }

    /// The T3D communication library the experiment runs over.
    pub fn library(self) -> Library {
        match self {
            Experiment::PlShmem | Experiment::PlMaxLatency => Library::Shmem,
            _ => Library::Pvm,
        }
    }
}

/// One Appendix A row: static count, dynamic count, execution time
/// (seconds; `None` where the paper reports no number — SP's
/// "pl with max latency" run crashed on a library bug).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PaperRow {
    pub static_count: u64,
    pub dynamic_count: u64,
    pub time_s: Option<f64>,
}

/// One Appendix A table: a row per experiment, in [`Experiment::ALL`]
/// order.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PaperTable {
    pub rows: [PaperRow; 6],
}

impl PaperTable {
    /// The row for an experiment.
    pub fn row(&self, e: Experiment) -> PaperRow {
        self.rows[Experiment::ALL
            .iter()
            .position(|x| *x == e)
            .expect("all variants listed")]
    }

    /// The baseline row (the scaling denominator for Figures 8–12).
    pub fn baseline(&self) -> PaperRow {
        self.rows[0]
    }
}

const fn row(static_count: u64, dynamic_count: u64, time_s: f64) -> PaperRow {
    PaperRow {
        static_count,
        dynamic_count,
        time_s: Some(time_s),
    }
}

/// Table 1: 128×128 TOMCATV on 64 processors.
pub const TOMCATV: PaperTable = PaperTable {
    rows: [
        row(46, 40400, 2.491051),
        row(22, 39200, 2.327301),
        row(10, 13200, 1.901393),
        row(10, 13200, 1.875820),
        row(10, 13200, 2.029861),
        row(22, 39200, 2.148066),
    ],
};

/// Table 2: 512×512 SWM on 64 processors.
pub const SWM: PaperTable = PaperTable {
    rows: [
        row(29, 8602, 6.809007),
        row(22, 7202, 6.323369),
        row(16, 6002, 6.191816),
        row(16, 6002, 5.922135),
        row(16, 6002, 5.454957),
        row(16, 6002, 5.477305),
    ],
};

/// Table 3: 256×256 SIMPLE on 64 processors.
pub const SIMPLE: PaperTable = PaperTable {
    rows: [
        row(266, 28188, 66.749756),
        row(103, 21433, 61.193568),
        row(79, 10993, 53.962579),
        row(79, 10993, 48.077192),
        row(79, 10993, 33.720775),
        row(84, 16143, 43.637907),
    ],
};

/// Table 4: 16×16×16 SP on 64 processors. The paper could not run the
/// "pl with max latency" configuration (library bug), so its time is
/// absent.
pub const SP: PaperTable = PaperTable {
    rows: [
        row(212, 85982, 22.572110),
        row(114, 70094, 20.381131),
        row(84, 44286, 19.274767),
        row(84, 44286, 18.149760),
        row(84, 44286, 19.079338),
        PaperRow {
            static_count: 92,
            dynamic_count: 53487,
            time_s: None,
        },
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use commopt_core::CombineMode;

    #[test]
    fn experiment_metadata() {
        assert_eq!(Experiment::ALL.len(), 6);
        assert_eq!(Experiment::PlShmem.name(), "pl with shmem");
        assert_eq!(Experiment::PlShmem.library(), Library::Shmem);
        assert_eq!(Experiment::Pl.library(), Library::Pvm);
        assert_eq!(Experiment::PlShmem.config(), OptConfig::pl());
        assert_eq!(
            Experiment::PlMaxLatency.config().combine,
            CombineMode::MaxLatencyHiding
        );
    }

    #[test]
    fn tables_reflect_paper_structure() {
        // Pipelining never changes counts; "pl with shmem" shares pl's plan.
        for t in [TOMCATV, SWM, SIMPLE, SP] {
            let cc = t.row(Experiment::Cc);
            let pl = t.row(Experiment::Pl);
            let sh = t.row(Experiment::PlShmem);
            assert_eq!(cc.static_count, pl.static_count);
            assert_eq!(pl.static_count, sh.static_count);
            assert_eq!(cc.dynamic_count, pl.dynamic_count);
            // rr removes, cc combines.
            assert!(t.baseline().static_count > t.row(Experiment::Rr).static_count);
            assert!(t.row(Experiment::Rr).static_count > cc.static_count);
        }
    }

    #[test]
    fn row_lookup_matches_order() {
        assert_eq!(TOMCATV.row(Experiment::Baseline).dynamic_count, 40400);
        assert_eq!(TOMCATV.row(Experiment::PlMaxLatency).static_count, 22);
        assert_eq!(SP.row(Experiment::PlMaxLatency).time_s, None);
        assert_eq!(SIMPLE.row(Experiment::PlShmem).time_s, Some(33.720775));
    }
}
