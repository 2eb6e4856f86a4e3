//! Smoke tests for the root `copydetect` facade: the prelude re-exports
//! must be usable as flat names, and the quickstart path (the same flow as
//! `examples/quickstart.rs`) must run end to end through the facade alone.

use copydetect::prelude::*;
use copydetect::synth::motivating_example;

/// Every name the prelude promises is nameable and usable without reaching
/// into the per-crate modules.
#[test]
fn prelude_reexports_are_usable() {
    // model
    let mut builder = DatasetBuilder::new();
    builder.add_claim("alice", "capital/NJ", "Trenton");
    builder.add_claim("bob", "capital/NJ", "Trenton");
    builder.add_claim("mallory", "capital/NJ", "Newark");
    let dataset: Dataset = builder.build();
    let item: ItemId = dataset.item_by_name("capital/NJ").unwrap();
    let source: SourceId = dataset.source_by_name("alice").unwrap();
    let value: ValueId = dataset.value_of(source, item).unwrap();
    assert_eq!(dataset.value_str(value), "Trenton");
    let pair = SourcePair::new(
        dataset.source_by_name("alice").unwrap(),
        dataset.source_by_name("bob").unwrap(),
    );
    assert_ne!(pair.first(), pair.second());

    // bayes
    let params: CopyParams = CopyParams::paper_defaults();
    let accuracies: SourceAccuracies =
        SourceAccuracies::uniform(dataset.num_sources(), 0.8).unwrap();
    let probabilities: ValueProbabilities =
        ValueProbabilities::from_table(vec![vec![(value, 0.9)], Vec::new(), Vec::new()]).unwrap();
    let _: &CopyParams = &params;

    // index
    let index = InvertedIndex::build(&dataset, &accuracies, &probabilities, &params);
    let _: EntryOrdering = EntryOrdering::default();
    assert!(index.len() <= dataset.num_claims());

    // detect: every detector type the prelude names can be constructed and
    // driven through the common CopyDetector trait.
    let input = RoundInput::new(&dataset, &accuracies, &probabilities, params);
    let mut detectors: Vec<Box<dyn CopyDetector>> = vec![
        Box::new(PairwiseDetector::new()),
        Box::new(IndexDetector::new()),
        Box::new(BoundDetector::eager()),
        Box::new(HybridDetector::new()),
        Box::new(IncrementalDetector::new()),
        Box::new(SampledDetector::new(
            SamplingStrategy::ByItem { rate: 1.0 },
            7,
            IndexDetector::new(),
            "SAMPLE",
        )),
    ];
    for detector in &mut detectors {
        let result: DetectionResult = detector.detect_round(&input, 1);
        assert_eq!(result.num_copying_pairs(), 0, "{} on a 3-claim dataset", detector.name());
    }

    // fusion
    let vote = naive_vote(&dataset);
    assert_eq!(vote.truth(item), dataset.value_by_str("Trenton"));
    let accu = accu_fusion(&dataset, FusionConfig::default()).expect("non-empty dataset");
    assert_eq!(accu.truth(item), dataset.value_by_str("Trenton"));
    let outcome: FusionOutcome = AccuCopy::new(FusionConfig::default(), HybridDetector::new())
        .run(&dataset)
        .expect("non-empty dataset");
    assert_eq!(outcome.truth(item), dataset.value_by_str("Trenton"));

    // bayes decision/evidence types round out the prelude.
    let evidence = PairEvidence::default();
    let _: CopyDecision = CopyDecision::from_posterior(evidence.posterior_independence(&params));
    let _: ScoringContext<'_> = ScoringContext::new(&dataset, &accuracies, &probabilities, params);

    // store: stream the same claims in, snapshot, and drive live detection.
    let mut store =
        ClaimStore::with_config(StoreConfig { seal_threshold: Some(2), ..Default::default() });
    for c in dataset.claim_refs() {
        store.ingest(c.source, c.item, c.value);
    }
    let snapshot: StoreSnapshot = store.snapshot();
    assert_eq!(snapshot.dataset, dataset, "snapshot equals the one-pass build");
    let mut live = LiveDetector::new();
    let live_result = live.observe(&snapshot);
    assert_eq!(live_result.algorithm, "INCREMENTAL");
    store.ingest("dave", "capital/NJ", "Trenton");
    let snapshot2 = store.snapshot();
    let delta = DatasetDelta::between(&snapshot.dataset, &snapshot2.dataset);
    assert_eq!(delta.len(), 1);
    let _ = live.observe(&snapshot2);
}

/// The quickstart flow (examples/quickstart.rs) through the facade: build
/// the paper's motivating example, detect copying, fuse, and recover every
/// planted truth.
#[test]
fn quickstart_path_runs_end_to_end() {
    let example = motivating_example();
    let dataset = &example.dataset;
    assert_eq!(dataset.num_sources(), 10);
    assert_eq!(dataset.num_items(), 5);

    let accuracies = SourceAccuracies::from_vec(example.accuracies.clone()).unwrap();
    let probabilities = ValueProbabilities::from_table(example.probability_table()).unwrap();
    let params = CopyParams::paper_defaults();

    let index = InvertedIndex::build(dataset, &accuracies, &probabilities, &params);
    assert!(!index.is_empty(), "the motivating example has shared values");

    let input = RoundInput::new(dataset, &accuracies, &probabilities, params);
    let baseline = PairwiseDetector::new().detect_round(&input, 1);
    let fast = IndexDetector::new().detect_round(&input, 1);
    let baseline_pairs: std::collections::BTreeSet<_> = baseline.copying_pairs().collect();
    let fast_pairs: std::collections::BTreeSet<_> = fast.copying_pairs().collect();
    assert_eq!(baseline_pairs, fast_pairs, "INDEX must agree with PAIRWISE");
    assert!(!fast_pairs.is_empty(), "the motivating example plants copier cliques");

    let mut fusion = AccuCopy::new(FusionConfig::default(), HybridDetector::new());
    let outcome = fusion.run(dataset).expect("non-empty dataset");
    for item in dataset.items() {
        assert_eq!(
            outcome.truth(item),
            Some(example.true_values[&item]),
            "wrong truth recovered for {}",
            dataset.item_name(item)
        );
    }
}
