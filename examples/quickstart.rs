//! Quick start: the paper's motivating example (Table I).
//!
//! Ten sources describe the capitals of five US states; two cliques of
//! sources copy from each other and spread false values. The example builds
//! the inverted index, runs scalable copy detection, and then runs the full
//! iterative truth-finding loop to recover the correct capitals.
//!
//! Run with: `cargo run --example quickstart`

use copydetect::prelude::*;
use copydetect::synth::motivating_example;

fn main() {
    let example = motivating_example();
    let dataset = &example.dataset;
    println!(
        "Motivating example: {} sources, {} items, {} claims\n",
        dataset.num_sources(),
        dataset.num_items(),
        dataset.num_claims()
    );

    // --- Single-round copy detection with the known accuracies/probabilities.
    let accuracies = SourceAccuracies::from_vec(example.accuracies.clone()).unwrap();
    let probabilities = ValueProbabilities::from_table(example.probability_table()).unwrap();
    let params = CopyParams::paper_defaults();

    // The inverted index of Table III.
    let index = InvertedIndex::build(dataset, &accuracies, &probabilities, &params);
    println!(
        "Inverted index (Table III): {} entries, Ē starts at {}",
        index.len(),
        index.ebar_start()
    );
    for (i, entry) in index.entries().iter().enumerate() {
        let providers: Vec<&str> =
            entry.providers.iter().map(|&s| dataset.source_name(s)).collect();
        println!(
            "  {:>2}. {:12} Pr={:.2} score={:.2} providers={}{}",
            i + 1,
            format!("{}.{}", dataset.item_name(entry.item), dataset.value_str(entry.value)),
            entry.probability,
            entry.score,
            providers.join(","),
            if index.in_ebar(i) { "  (in Ē)" } else { "" }
        );
    }

    // Scalable detection (INDEX) versus the exhaustive baseline (PAIRWISE).
    let input = RoundInput::new(dataset, &accuracies, &probabilities, params);
    let mut pairwise = PairwiseDetector::new();
    let mut scalable = IndexDetector::new();
    let baseline = pairwise.detect_round(&input, 1);
    let fast = scalable.detect_round(&input, 1);
    println!(
        "\nPAIRWISE: {} computations;  INDEX: {} computations (same {} copying pairs)",
        baseline.computations(),
        fast.computations(),
        fast.num_copying_pairs()
    );
    let mut copying: Vec<String> = fast
        .copying_pairs()
        .map(|p| {
            format!("({}, {})", dataset.source_name(p.first()), dataset.source_name(p.second()))
        })
        .collect();
    copying.sort();
    println!("Detected copying pairs: {}", copying.join(" "));

    // --- The full iterative truth-finding loop with the scalable detector.
    let mut fusion = AccuCopy::new(FusionConfig::default(), HybridDetector::new());
    let outcome = fusion.run(dataset).expect("non-empty dataset");
    println!("\nIterative fusion converged after {} rounds. Recovered truths:", outcome.rounds);
    for item in dataset.items() {
        if let Some(value) = outcome.truth(item) {
            let planted = example.true_values[&item];
            println!(
                "  {:3} -> {:10} {}",
                dataset.item_name(item),
                dataset.value_str(value),
                if value == planted { "(correct)" } else { "(WRONG)" }
            );
        }
    }
    println!("\nFinal source accuracies:");
    for (s, a) in outcome.accuracies.iter() {
        println!("  {:3} {:.2}", dataset.source_name(s), a);
    }
}
