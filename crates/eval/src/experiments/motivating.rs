//! The worked examples of Sections II–V on the motivating dataset
//! (Tables I–IV).

use crate::{
    bound_detection, hybrid_detection, index_detection, AccuCopy, FusionConfig, PairwiseDetector,
    TextTable,
};
use copydet_bayes::{CopyParams, SourceAccuracies, ValueProbabilities};
use copydet_detect::{pairwise_detection, RoundInput};
use copydet_index::InvertedIndex;
use copydet_model::motivating_example;

/// Reproduces Table III: the inverted index of the motivating example with
/// its probabilities, contribution scores and providers.
pub fn table_iii_index() -> TextTable {
    let ex = motivating_example();
    let accuracies = SourceAccuracies::from_vec(ex.accuracies.clone()).expect("valid accuracies");
    let probabilities =
        ValueProbabilities::from_table(ex.probability_table()).expect("valid probabilities");
    let params = CopyParams::paper_defaults();
    let index = InvertedIndex::build(&ex.dataset, &accuracies, &probabilities, &params);

    let mut table = TextTable::new(
        "Table III — inverted index for the motivating example",
        &["Value", "Pr", "Score", "Providers", "In Ē"],
    );
    for (idx, entry) in index.entries().iter().enumerate() {
        let providers: Vec<String> =
            entry.providers.iter().map(|&s| ex.dataset.source_name(s).to_string()).collect();
        table.add_row(vec![
            format!("{}.{}", ex.dataset.item_name(entry.item), ex.dataset.value_str(entry.value)),
            format!("{:.2}", entry.probability),
            format!("{:.2}", entry.score),
            providers.join(","),
            if index.in_ebar(idx) { "yes".into() } else { "".into() },
        ]);
    }
    table
}

/// Reproduces Table II: per-round source accuracies of the iterative fusion
/// process (for the first five sources, as in the paper).
pub fn table_ii_rounds() -> TextTable {
    let ex = motivating_example();
    let mut process = AccuCopy::new(FusionConfig::default(), PairwiseDetector::new());
    let outcome = process.run(&ex.dataset).expect("motivating example is non-empty");
    let mut table = TextTable::new(
        "Table II — source accuracy per round (S0–S4)",
        &["Source", "Rnd 1", "Rnd 2", "Rnd 3", "Rnd 4", "Rnd 5"],
    );
    for s in 0..5usize {
        let mut row = vec![format!("S{s}")];
        for round in 0..5 {
            let cell = outcome
                .round_stats
                .get(round)
                .map(|r| format!("{:.2}", r.accuracies[s]))
                .unwrap_or_else(|| format!("{:.2}", outcome.accuracies.as_slice()[s]));
            row.push(cell);
        }
        table.add_row(row);
    }
    table
}

/// Reproduces the efficiency accounting of Examples 3.6 and 4.2: pairs,
/// shared values and computations of PAIRWISE / INDEX / BOUND / HYBRID on
/// the motivating example.
pub fn example_efficiency() -> TextTable {
    let ex = motivating_example();
    let accuracies = SourceAccuracies::from_vec(ex.accuracies.clone()).expect("valid accuracies");
    let probabilities =
        ValueProbabilities::from_table(ex.probability_table()).expect("valid probabilities");
    let params = CopyParams::paper_defaults();
    let input = RoundInput::new(&ex.dataset, &accuracies, &probabilities, params);

    let results = [
        pairwise_detection(&input),
        index_detection(&input),
        bound_detection(&input, false),
        bound_detection(&input, true),
        hybrid_detection(&input, 16),
    ];
    let mut table = TextTable::new(
        "Examples 3.6 / 4.2 — single-round efficiency on the motivating example",
        &["Method", "Pairs", "Shared values", "Computations", "Copying pairs"],
    );
    for r in &results {
        table.add_row(vec![
            r.algorithm.clone(),
            r.pairs_considered.to_string(),
            r.shared_values_examined.to_string(),
            r.computations().to_string(),
            r.num_copying_pairs().to_string(),
        ]);
    }
    table
}

/// All motivating-example tables, in presentation order.
pub fn run() -> Vec<TextTable> {
    vec![table_iii_index(), table_ii_rounds(), example_efficiency()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_has_13_entries_with_ebar_marked() {
        let t = table_iii_index();
        assert_eq!(t.num_rows(), 13);
        let ebar_rows = t.rows().iter().filter(|r| r[4] == "yes").count();
        assert_eq!(ebar_rows, 2);
        assert!(t.rows()[0][0].contains("AZ.Tempe"));
    }

    #[test]
    fn table_ii_tracks_five_sources() {
        let t = table_ii_rounds();
        assert_eq!(t.num_rows(), 5);
        assert_eq!(t.rows()[0][0], "S0");
    }

    #[test]
    fn efficiency_table_shows_index_beats_pairwise() {
        let t = example_efficiency();
        assert_eq!(t.num_rows(), 5);
        let computations: Vec<u64> = t.rows().iter().map(|r| r[3].parse().unwrap()).collect();
        // INDEX (row 1) does fewer computations than PAIRWISE (row 0).
        assert!(computations[1] < computations[0]);
        // Every method finds the 6 planted copying pairs.
        for row in t.rows() {
            assert_eq!(row[4], "6");
        }
        assert_eq!(run().len(), 3);
    }
}
