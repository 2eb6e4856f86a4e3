//! One driver per table / figure of the paper's evaluation (Section VI).
//!
//! Every function takes an [`ExperimentConfig`] (workload scale + seed) and
//! returns one or more [`TextTable`](crate::TextTable)s shaped like the corresponding table or
//! figure in the paper. The binaries in `src/bin/` print these tables; the
//! numbers recorded in `EXPERIMENTS.md` were produced by exactly these
//! drivers.

pub mod datasets;
pub mod fagin;
pub mod incremental;
pub mod motivating;
pub mod ordering;
pub mod quality;
pub mod sampling;
pub mod single_round;
pub mod timing;

use crate::ExperimentConfig;
use copydet_synth::SyntheticDataset;

/// The four workloads in the paper's order (Book-CS, Stock-1day, Book-full,
/// Stock-2wk) at the configured scales.
pub fn workloads(config: &ExperimentConfig) -> Vec<SyntheticDataset> {
    copydet_synth::presets::all_presets(config.book_scale, config.stock_scale, config.seed)
}

/// The two small workloads (Book-CS, Stock-1day) the paper uses for the
/// quality comparisons (Tables VI and IX).
pub fn small_workloads(config: &ExperimentConfig) -> Vec<SyntheticDataset> {
    vec![
        copydet_synth::presets::book_cs(config.book_scale, config.seed),
        copydet_synth::presets::stock_1day(config.stock_scale, config.seed + 1),
    ]
}

/// Formats a ratio as a percentage improvement string ("99.5%").
pub(crate) fn improvement(old: f64, new: f64) -> String {
    if old <= 0.0 {
        return "-".to_string();
    }
    format!("{:.1}%", (1.0 - new / old) * 100.0)
}

/// Formats a duration in seconds with millisecond resolution.
pub(crate) fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_helpers() {
        let config = ExperimentConfig::tiny();
        let all = workloads(&config);
        assert_eq!(all.len(), 4);
        let small = small_workloads(&config);
        assert_eq!(small.len(), 2);
        assert_eq!(small[0].name, "book-cs");
        assert_eq!(small[1].name, "stock-1day");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(improvement(100.0, 1.0), "99.0%");
        assert_eq!(improvement(0.0, 1.0), "-");
        assert_eq!(secs(std::time::Duration::from_millis(1500)), "1.500");
    }
}
