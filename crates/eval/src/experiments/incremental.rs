//! Table VIII — per-round cost of INCREMENTAL relative to HYBRID, and the
//! fraction of pairs that terminate in each incremental pass.

use crate::experiments::workloads;
use crate::{
    AccuCopy, ExperimentConfig, FusionConfig, FusionOutcome, HybridDetector, IncrementalDetector,
    TextTable,
};
use copydet_bayes::CopyParams;
use copydet_synth::SyntheticDataset;

/// The measurements for one workload.
#[derive(Debug, Clone)]
pub struct IncrementalMeasurement {
    /// Dataset name.
    pub dataset: String,
    /// Per-round copy-detection time of HYBRID (index 0 = round 1).
    pub hybrid_round_times: Vec<f64>,
    /// Per-round copy-detection time of INCREMENTAL.
    pub incremental_round_times: Vec<f64>,
    /// Pass-1 / pass-2 / pass-3 shares over all incremental rounds.
    pub pass_fractions: [f64; 3],
}

fn round_times(outcome: &FusionOutcome) -> Vec<f64> {
    outcome.round_stats.iter().map(|r| r.timings.copy_detection.as_secs_f64()).collect()
}

/// Measures one workload.
pub fn measure_one(synth: &SyntheticDataset, params: CopyParams) -> IncrementalMeasurement {
    let config = FusionConfig { params, ..FusionConfig::default() };

    let mut hybrid = AccuCopy::new(config, HybridDetector::new());
    let hybrid_outcome = hybrid.run(&synth.dataset).expect("non-empty dataset");

    let mut incremental = AccuCopy::new(config, IncrementalDetector::new());
    let incremental_outcome = incremental.run(&synth.dataset).expect("non-empty dataset");
    let detector = incremental.into_detector();
    let (mut p1, mut p2, mut p3) = (0usize, 0usize, 0usize);
    for s in detector.round_stats() {
        p1 += s.pass1;
        p2 += s.pass2 + s.accuracy_recomputed;
        p3 += s.pass3;
    }
    let total = (p1 + p2 + p3).max(1) as f64;

    IncrementalMeasurement {
        dataset: synth.name.clone(),
        hybrid_round_times: round_times(&hybrid_outcome),
        incremental_round_times: round_times(&incremental_outcome),
        pass_fractions: [p1 as f64 / total, p2 as f64 / total, p3 as f64 / total],
    }
}

/// Builds Table VIII: the per-round time ratio of INCREMENTAL vs HYBRID for
/// rounds 3 onwards, and the pass-termination percentages.
pub fn run(config: &ExperimentConfig) -> TextTable {
    let params = CopyParams::paper_defaults();
    let measurements: Vec<IncrementalMeasurement> =
        workloads(config).iter().map(|w| measure_one(w, params)).collect();

    let mut headers = vec!["Round / pass".to_string()];
    headers.extend(measurements.iter().map(|m| m.dataset.clone()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = TextTable::new(
        "Table VIII — INCREMENTAL vs HYBRID per round, and pass termination shares",
        &header_refs,
    );

    let max_rounds = measurements
        .iter()
        .map(|m| m.incremental_round_times.len().min(m.hybrid_round_times.len()))
        .max()
        .unwrap_or(0);
    for round in 3..=max_rounds {
        let mut row = vec![format!("Round {round}")];
        for m in &measurements {
            let ratio = match (
                m.incremental_round_times.get(round - 1),
                m.hybrid_round_times.get(round - 1),
            ) {
                (Some(&inc), Some(&hyb)) if hyb > 0.0 => format!("{:.1}%", inc / hyb * 100.0),
                _ => "-".to_string(),
            };
            row.push(ratio);
        }
        table.add_row(row);
    }
    for (idx, label) in ["Pass 1", "Pass 2", "Pass 3"].iter().enumerate() {
        let mut row = vec![label.to_string()];
        for m in &measurements {
            row.push(format!("{:.0}%", m.pass_fractions[idx] * 100.0));
        }
        table.add_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_saves_time_and_terminates_mostly_in_pass_1() {
        let config = ExperimentConfig::tiny();
        let synth = copydet_synth::presets::book_cs(config.book_scale, config.seed);
        let m = measure_one(&synth, CopyParams::paper_defaults());
        // Past the warm-up, the incremental rounds perform far fewer
        // computations than HYBRID's; wall-clock at tiny scale is noisy, so
        // assert the structural property: most pairs terminate in pass 1
        // (the paper reports 86–99%).
        assert!(
            m.pass_fractions[0] > 0.5,
            "only {:.0}% of pairs terminated in pass 1",
            m.pass_fractions[0] * 100.0
        );
        assert!(m.pass_fractions.iter().sum::<f64>() > 0.99);
        // The rendered table has pass rows for all four datasets.
        let table = run(&config);
        assert!(table.num_rows() >= 3);
        let last = table.rows().last().unwrap();
        assert_eq!(last[0], "Pass 3");
    }
}
