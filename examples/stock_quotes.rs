//! A stock-quote scenario: a few dozen dense financial feeds, several of
//! which republish each other's numbers (the paper's Stock-1day workload
//! shape).
//!
//! The example compares the cost of the detection algorithms for a single
//! round and then runs the full iterative loop with INCREMENTAL, printing the
//! per-round cost to show how cheap the later rounds become.
//!
//! Run with: `cargo run --release --example stock_quotes`

use copydetect::detect::pairwise_detection;
use copydetect::detect::value_probabilities;
use copydetect::eval::{bound_detection, hybrid_detection, index_detection};
use copydetect::prelude::*;
use copydetect::synth;

fn main() {
    let workload = synth::presets::stock_1day(0.02, 772_011);
    let dataset = &workload.dataset;
    let stats = dataset.stats();
    println!("Stock quotes workload: {}", workload.name);
    println!(
        "  {} feeds, {} data items, {} claims, {:.1} conflicting values per item",
        stats.num_sources, stats.num_items, stats.num_claims, stats.avg_values_per_item
    );

    // --- Single-round cost comparison on a bootstrap state.
    let params = CopyParams::paper_defaults();
    let accuracies = SourceAccuracies::uniform(dataset.num_sources(), 0.8).unwrap();
    let probabilities = value_probabilities(
        dataset,
        &accuracies,
        None,
        &copydetect::detect::VoteConfig::new(params),
    );
    let input = RoundInput::new(dataset, &accuracies, &probabilities, params);

    println!("\nSingle-round cost (same decisions up to the paper's tolerated deviations):");
    for result in [
        pairwise_detection(&input),
        index_detection(&input),
        bound_detection(&input, true),
        hybrid_detection(&input, 16),
    ] {
        println!(
            "  {:10}  {:>12} computations  {:>8.3}s  {} copying pairs",
            result.algorithm,
            result.computations(),
            result.total_time().as_secs_f64(),
            result.num_copying_pairs()
        );
    }

    // --- Full iterative loop with INCREMENTAL.
    let mut fusion = AccuCopy::new(FusionConfig::default(), IncrementalDetector::new());
    let outcome = fusion.run(dataset).expect("non-empty dataset");
    println!(
        "\nIterative fusion with INCREMENTAL: {} rounds, fusion accuracy {:.3} vs planted truth",
        outcome.rounds,
        workload.gold.fusion_accuracy(&outcome.truths, None)
    );
    println!("  per-round copy-detection computations:");
    for round in &outcome.round_stats {
        println!(
            "    round {:>2}: {:>12} computations, {:>3} copying pairs",
            round.round, round.detection_computations, round.copying_pairs
        );
    }
    let detector = fusion.into_detector();
    if !detector.round_stats().is_empty() {
        println!("  incremental pass shares (rounds 3+):");
        for s in detector.round_stats() {
            let total = (s.pass1 + s.pass2 + s.pass3 + s.accuracy_recomputed).max(1);
            println!(
                "    round {:>2}: pass1 {:>4.0}%  pass2 {:>4.0}%  pass3 {:>4.0}%",
                s.round,
                s.pass1 as f64 / total as f64 * 100.0,
                (s.pass2 + s.accuracy_recomputed) as f64 / total as f64 * 100.0,
                s.pass3 as f64 / total as f64 * 100.0,
            );
        }
    }
}
