//! Optimizer configuration and the paper's experiment presets (Figure 9).

pub use commopt_analysis::rrcc::CombineMode;

/// Selects which communication optimizations run on top of the always-on
/// baseline of message vectorization.
///
/// The paper's experiments are cumulative (`cc` includes `rr`, `pl`
/// includes `cc`); the presets below mirror that, but the fields may be
/// toggled independently for ablation studies.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct OptConfig {
    /// Redundant communication removal.
    pub redundant_removal: bool,
    /// Communication combination heuristic.
    pub combine: CombineMode,
    /// Communication pipelining (early send, late receive).
    pub pipeline: bool,
    /// Optional cap on the number of slabs combined into one message.
    /// Models the measured combining knee of §3.2 (combining stops paying
    /// past 512 doubles = 4 KB on both machines): callers derive the item
    /// cap from `knee_bytes / slab_bytes`. `None` combines without bound,
    /// which is what the paper's experiments do (no benchmark message
    /// approached the knee).
    pub max_combined_items: Option<usize>,
}

impl OptConfig {
    /// `baseline`: message vectorization only.
    pub fn baseline() -> OptConfig {
        OptConfig::default()
    }

    /// `rr`: baseline + redundant communication removal.
    pub fn rr() -> OptConfig {
        OptConfig {
            redundant_removal: true,
            ..OptConfig::default()
        }
    }

    /// `cc`: rr + communication combination (maximized).
    pub fn cc() -> OptConfig {
        OptConfig {
            redundant_removal: true,
            combine: CombineMode::MaxCombining,
            ..OptConfig::default()
        }
    }

    /// `pl`: cc + communication pipelining.
    pub fn pl() -> OptConfig {
        OptConfig {
            redundant_removal: true,
            combine: CombineMode::MaxCombining,
            pipeline: true,
            max_combined_items: None,
        }
    }

    /// `pl with max latency`: pipelining with the latency-preserving
    /// combining heuristic (paper §3.3.2, Figures 11 and 12).
    pub fn pl_max_latency() -> OptConfig {
        OptConfig {
            redundant_removal: true,
            combine: CombineMode::MaxLatencyHiding,
            pipeline: true,
            max_combined_items: None,
        }
    }

    /// The five optimizer presets of the paper's Figure 9, with their
    /// short names. ("pl with shmem" reuses the `pl` plan on a different
    /// IRONMAN binding, so it is not a distinct optimizer configuration.)
    pub fn presets() -> [(&'static str, OptConfig); 5] {
        [
            ("baseline", OptConfig::baseline()),
            ("rr", OptConfig::rr()),
            ("cc", OptConfig::cc()),
            ("pl", OptConfig::pl()),
            ("pl with max latency", OptConfig::pl_max_latency()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_cumulative() {
        assert!(!OptConfig::baseline().redundant_removal);
        assert!(OptConfig::rr().redundant_removal);
        assert_eq!(OptConfig::rr().combine, CombineMode::Off);
        assert_eq!(OptConfig::cc().combine, CombineMode::MaxCombining);
        assert!(!OptConfig::cc().pipeline);
        assert!(OptConfig::pl().pipeline);
        assert_eq!(
            OptConfig::pl_max_latency().combine,
            CombineMode::MaxLatencyHiding
        );
    }

    #[test]
    fn preset_table_names() {
        let names: Vec<&str> = OptConfig::presets().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec!["baseline", "rr", "cc", "pl", "pl with max latency"]
        );
    }

    #[test]
    fn default_is_baseline() {
        assert_eq!(OptConfig::default(), OptConfig::baseline());
    }
}
