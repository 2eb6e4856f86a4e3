//! Figure 2 — number of computations and copy-detection time of the
//! single-round algorithms (INDEX, BOUND, BOUND+, HYBRID), accumulated over
//! all rounds of the fusion loop.

use crate::experiments::workloads;
use crate::runner::run_fusion;
use crate::{ExperimentConfig, Method, TextTable};
use copydet_bayes::CopyParams;

/// One measured point of Figure 2.
#[derive(Debug, Clone)]
pub struct SingleRoundPoint {
    /// The algorithm.
    pub method: Method,
    /// Dataset name.
    pub dataset: String,
    /// Total computations across all rounds.
    pub computations: u64,
    /// Total copy-detection time across all rounds (seconds).
    pub detection_seconds: f64,
}

/// Measures every Figure 2 point.
pub fn measure(config: &ExperimentConfig) -> Vec<SingleRoundPoint> {
    let params = CopyParams::paper_defaults();
    let mut points = Vec::new();
    for synth in workloads(config) {
        for method in Method::figure2_order() {
            let run = run_fusion(&synth, method, params, config.seed);
            points.push(SingleRoundPoint {
                method,
                dataset: synth.name.clone(),
                computations: run.detection_computations,
                detection_seconds: run.detection_time.as_secs_f64(),
            });
        }
    }
    points
}

/// Renders the two panels of Figure 2 as tables (computations, then time).
pub fn run(config: &ExperimentConfig) -> Vec<TextTable> {
    let points = measure(config);
    let datasets: Vec<String> = {
        let mut names: Vec<String> = points.iter().map(|p| p.dataset.clone()).collect();
        names.dedup();
        names
    };

    let mut headers = vec!["Algorithm".to_string()];
    headers.extend(datasets.iter().cloned());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();

    let mut computations =
        TextTable::new("Figure 2 (left) — computations of single-round algorithms", &header_refs);
    let mut time = TextTable::new(
        "Figure 2 (right) — copy-detection time (s) of single-round algorithms",
        &header_refs,
    );
    for method in Method::figure2_order() {
        let mut comp_row = vec![method.name().to_string()];
        let mut time_row = vec![method.name().to_string()];
        for dataset in &datasets {
            let p = points
                .iter()
                .find(|p| p.method == method && &p.dataset == dataset)
                .expect("every point was measured");
            comp_row.push(p.computations.to_string());
            time_row.push(format!("{:.3}", p.detection_seconds));
        }
        computations.add_row(comp_row);
        time.add_row(time_row);
    }
    vec![computations, time]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index_detection;
    use crate::runner::bootstrap_probabilities;
    use copydet_bayes::{SourceAccuracies, ValueProbabilities};
    use copydet_detect::{pairwise_detection, RoundInput};

    /// Every pair INDEX outputs carries PAIRWISE's `C→`/`C←` bits (and so
    /// its posterior). Exact evidence sums make INDEX's by-contribution
    /// entry order irrelevant; with `f64` folds the two differed in the last
    /// bits.
    fn assert_index_carries_pairwise_bits(name: &str, input: &RoundInput<'_>) {
        let index = index_detection(input);
        let pairwise = pairwise_detection(input);
        assert!(!index.outcomes.is_empty(), "{name}: INDEX output no pair");
        for (pair, outcome) in &index.outcomes {
            let expected = pairwise.outcomes.get(pair).unwrap_or_else(|| {
                panic!("{name}: INDEX pair {pair} shares nothing under PAIRWISE")
            });
            assert_eq!(outcome.c_to.to_bits(), expected.c_to.to_bits(), "{name}: C→ of {pair}");
            assert_eq!(outcome.c_from.to_bits(), expected.c_from.to_bits(), "{name}: C← of {pair}");
            assert_eq!(
                outcome.posterior.map(f64::to_bits),
                expected.posterior.map(f64::to_bits),
                "{name}: posterior of {pair}"
            );
        }
    }

    #[test]
    fn index_evidence_is_pairwise_evidence_bit_for_bit() {
        let params = CopyParams::paper_defaults();
        let example = copydet_model::motivating_example();
        let accuracies = SourceAccuracies::from_vec(example.accuracies.clone()).unwrap();
        let probabilities = ValueProbabilities::from_table(example.probability_table()).unwrap();
        let input = RoundInput::new(&example.dataset, &accuracies, &probabilities, params);
        assert_index_carries_pairwise_bits("motivating example", &input);
        for synth in workloads(&ExperimentConfig::tiny()) {
            let accuracies = SourceAccuracies::uniform(synth.dataset.num_sources(), 0.8).unwrap();
            let probabilities = bootstrap_probabilities(&synth, &accuracies, params);
            let input = RoundInput::new(&synth.dataset, &accuracies, &probabilities, params);
            assert_index_carries_pairwise_bits(&synth.name, &input);
        }
    }

    #[test]
    fn figure2_measures_four_algorithms_on_four_datasets() {
        let points = measure(&ExperimentConfig::tiny());
        assert_eq!(points.len(), 16);
        for p in &points {
            assert!(p.computations > 0, "{} did no work on {}", p.method, p.dataset);
            assert!(p.detection_seconds >= 0.0);
        }
        let computations = |method: Method, dataset: &str| {
            points
                .iter()
                .find(|p| p.method == method && p.dataset == dataset)
                .unwrap_or_else(|| panic!("missing point for {method} on {dataset}"))
                .computations
        };
        // What Fig. 2 shows at this scale (seed 7): BOUND+ does fewer
        // computations than INDEX on every dataset (e.g. book-cs 13,680 <
        // 15,564, stock-2wk 591,279 < 926,708). HYBRID is *not* pinned
        // against INDEX or BOUND+: on book-full it does 141,921 against
        // INDEX's 139,328, a deviation from the paper ROADMAP tracks.
        for dataset in ["book-cs", "stock-1day", "book-full", "stock-2wk"] {
            for method in Method::figure2_order() {
                computations(method, dataset);
            }
            let (bound_plus, index) =
                (computations(Method::BoundPlus, dataset), computations(Method::Index, dataset));
            assert!(bound_plus < index, "{dataset}: BOUND+ {bound_plus} vs INDEX {index}");
        }
        let tables = run(&ExperimentConfig::tiny());
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].num_rows(), 4);
    }
}
