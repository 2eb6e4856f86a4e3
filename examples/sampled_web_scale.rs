//! Web-scale triage with coverage-aware sampling: when the full dataset is
//! too large even for the scalable detectors, SCALESAMPLE keeps a small
//! fraction of the items but guarantees every source stays represented, so
//! low-coverage sources (the majority, in web data) still get copy-checked.
//!
//! The example compares naive item sampling against SCALESAMPLE at the same
//! budget on a Book-CS-like workload: dense enough that detection has signal
//! to lose, Zipf-skewed enough that naive sampling actually loses it.
//!
//! Run with: `cargo run --release --example sampled_web_scale`

use copydetect::eval::metrics::CopyDetectionQuality;
use copydetect::eval::sample_items;
use copydetect::prelude::*;
use copydetect::synth;
use std::collections::HashSet;

fn run_with_strategy(
    workload: &synth::SyntheticDataset,
    strategy: SamplingStrategy,
    label: &'static str,
) -> HashSet<SourcePair> {
    let detector = SampledDetector::new(strategy, 99, IncrementalDetector::new(), label);
    let mut fusion = AccuCopy::new(FusionConfig::default(), detector);
    let outcome = fusion.run(&workload.dataset).expect("non-empty dataset");
    outcome.final_detection.as_ref().map(|d| d.copying_pairs().collect()).unwrap_or_default()
}

fn main() {
    let workload = synth::presets::book_cs(0.12, 4242);
    let dataset = &workload.dataset;
    println!(
        "Web-scale workload: {} sources, {} items, {} claims",
        dataset.num_sources(),
        dataset.num_items(),
        dataset.num_claims()
    );

    // Reference: unsampled detection with INDEX inside the fusion loop.
    let mut reference = AccuCopy::new(FusionConfig::default(), IndexDetector::new());
    let reference_outcome = reference.run(dataset).expect("non-empty dataset");
    let reference_pairs: HashSet<SourcePair> = reference_outcome
        .final_detection
        .as_ref()
        .map(|d| d.copying_pairs().collect())
        .unwrap_or_default();
    println!("Unsampled INDEX detection flags {} copying pairs.", reference_pairs.len());

    // A 10% item budget, spent two ways.
    let scale_strategy = SamplingStrategy::scale_sample(0.1);
    let kept = sample_items(dataset, scale_strategy, 99).unwrap();
    println!(
        "\nSampling budget: {} of {} items ({:.0}%)",
        kept.len(),
        dataset.num_items(),
        kept.len() as f64 / dataset.num_items() as f64 * 100.0
    );

    let naive_pairs = run_with_strategy(
        &workload,
        SamplingStrategy::ByItem { rate: kept.len() as f64 / dataset.num_items() as f64 },
        "BYITEM",
    );
    let scale_pairs = run_with_strategy(&workload, scale_strategy, "SCALESAMPLE");

    for (label, pairs) in [("naive BYITEM", &naive_pairs), ("SCALESAMPLE", &scale_pairs)] {
        let q = CopyDetectionQuality::compare(pairs, &reference_pairs);
        println!(
            "  {:12} precision {:.2}  recall {:.2}  F {:.2}  ({} pairs flagged)",
            label,
            q.precision,
            q.recall,
            q.f_measure,
            pairs.len()
        );
    }
    println!(
        "\nSCALESAMPLE keeps at least 4 items per source, so sparse sources are never\n\
         sampled away — that is where naive sampling loses recall on web-shaped data."
    );
}
