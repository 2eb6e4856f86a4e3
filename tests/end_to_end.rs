//! End-to-end integration tests spanning every crate: synthetic workloads →
//! copy detection → iterative fusion → evaluation metrics.

use copydetect::eval::metrics::CopyDetectionQuality;
use copydetect::prelude::*;
use copydetect::synth::{self, SynthConfig};
use std::collections::HashSet;

fn small_workload(seed: u64) -> synth::SyntheticDataset {
    synth::generate("integration", &SynthConfig::small(seed))
}

/// The headline pipeline: on a workload with planted copier groups, the
/// scalable detectors find the copying and the copy-aware fusion recovers
/// more of the planted truth than naive voting.
#[test]
fn copy_aware_fusion_beats_naive_voting() {
    let workload = small_workload(101);
    let dataset = &workload.dataset;

    let vote = naive_vote(dataset);
    let vote_accuracy = workload.gold.fusion_accuracy(&vote.truths, None);

    let mut fusion = AccuCopy::new(FusionConfig::default(), HybridDetector::new());
    let outcome = fusion.run(dataset).expect("non-empty dataset");
    let fused_accuracy = workload.gold.fusion_accuracy(&outcome.truths, None);

    assert!(
        fused_accuracy >= vote_accuracy,
        "copy-aware fusion ({fused_accuracy}) should not lose to naive voting ({vote_accuracy})"
    );
    assert!(fused_accuracy > 0.7, "fusion accuracy {fused_accuracy} unexpectedly low");
    assert!(outcome.converged);
}

/// Planted copier cliques are recovered by every scalable detector with high
/// F-measure against the gold standard.
#[test]
fn scalable_detectors_recover_planted_copying() {
    let workload = small_workload(202);
    let planted = workload.gold.copying_pairs();
    assert!(!planted.is_empty());

    let detectors: Vec<(&str, Box<dyn CopyDetector>)> = vec![
        ("PAIRWISE", Box::new(PairwiseDetector::new())),
        ("INDEX", Box::new(IndexDetector::new())),
        ("HYBRID", Box::new(HybridDetector::new())),
        ("INCREMENTAL", Box::new(IncrementalDetector::new())),
    ];
    for (name, detector) in detectors {
        struct Wrap(Box<dyn CopyDetector>);
        impl CopyDetector for Wrap {
            fn name(&self) -> &'static str {
                self.0.name()
            }
            fn detect_round(&mut self, input: &RoundInput<'_>, round: usize) -> DetectionResult {
                self.0.detect_round(input, round)
            }
            fn reset(&mut self) {
                self.0.reset();
            }
        }
        let mut fusion = AccuCopy::new(FusionConfig::default(), Wrap(detector));
        let outcome = fusion.run(&workload.dataset).expect("non-empty dataset");
        let detected: HashSet<SourcePair> = outcome
            .final_detection
            .as_ref()
            .map(|d| d.copying_pairs().collect())
            .unwrap_or_default();
        let quality = CopyDetectionQuality::compare(&detected, &planted);
        assert!(
            quality.recall >= 0.5,
            "{name}: recall {:.2} against planted copying too low",
            quality.recall
        );
        assert!(
            quality.f_measure >= 0.5,
            "{name}: F-measure {:.2} against planted copying too low",
            quality.f_measure
        );
    }
}

/// INDEX inside the fusion loop produces the same truths, the same copy
/// pairs and (to numerical tolerance) the same accuracies as PAIRWISE — the
/// "exactly the same results" claim of Section VI-B, end to end.
#[test]
fn index_is_exact_inside_the_fusion_loop() {
    let workload = small_workload(303);
    let run = |detector: Box<dyn CopyDetector>| {
        struct Wrap(Box<dyn CopyDetector>);
        impl CopyDetector for Wrap {
            fn name(&self) -> &'static str {
                self.0.name()
            }
            fn detect_round(&mut self, input: &RoundInput<'_>, round: usize) -> DetectionResult {
                self.0.detect_round(input, round)
            }
            fn reset(&mut self) {
                self.0.reset();
            }
        }
        let mut fusion = AccuCopy::new(FusionConfig::default(), Wrap(detector));
        fusion.run(&workload.dataset).expect("non-empty dataset")
    };
    let pairwise = run(Box::new(PairwiseDetector::new()));
    let index = run(Box::new(IndexDetector::new()));

    assert_eq!(pairwise.truths, index.truths);
    let p_pairs: HashSet<_> = pairwise.final_detection.as_ref().unwrap().copying_pairs().collect();
    let i_pairs: HashSet<_> = index.final_detection.as_ref().unwrap().copying_pairs().collect();
    assert_eq!(p_pairs, i_pairs);
    assert!(pairwise.accuracies.max_abs_diff(&index.accuracies) < 1e-9);
}

/// Sampling keeps the pipeline functional end to end and stays reasonably
/// close to the unsampled results.
#[test]
fn sampled_detection_end_to_end() {
    let workload = small_workload(404);
    let detector = SampledDetector::new(
        SamplingStrategy::scale_sample(0.5),
        7,
        IncrementalDetector::new(),
        "SCALESAMPLE",
    );
    let mut fusion = AccuCopy::new(FusionConfig::default(), detector);
    let outcome = fusion.run(&workload.dataset).expect("non-empty dataset");
    let accuracy = workload.gold.fusion_accuracy(&outcome.truths, None);
    assert!(accuracy > 0.5, "sampled fusion accuracy {accuracy} too low");
    let detected: HashSet<SourcePair> =
        outcome.final_detection.as_ref().map(|d| d.copying_pairs().collect()).unwrap_or_default();
    let quality = CopyDetectionQuality::compare(&detected, &workload.gold.copying_pairs());
    assert!(quality.recall > 0.3, "sampled recall {:.2} too low", quality.recall);
}

/// The NRA substrate interoperates with the FAGININPUT generator on real
/// workloads: the top pair by positive evidence involves a planted copier.
#[test]
fn fagin_input_and_nra_interoperate() {
    let workload = small_workload(606);
    let ds = &workload.dataset;
    let params = CopyParams::paper_defaults();
    let accuracies = SourceAccuracies::uniform(ds.num_sources(), 0.8).unwrap();
    let probabilities = copydetect::detect::value_probabilities(
        ds,
        &accuracies,
        None,
        &copydetect::detect::VoteConfig::new(params),
    );
    let input = RoundInput::new(ds, &accuracies, &probabilities, params);
    let index = InvertedIndex::build(ds, &accuracies, &probabilities, &params);
    let (fagin, computations) = copydetect::eval::FaginInput::generate(&input, &index);
    assert!(computations > 0);
    let nra = fagin.into_nra();
    let top = nra.top_k(3);
    assert!(!top.top_k.is_empty());
    let planted = workload.gold.copying_pairs();
    assert!(
        top.top_k.iter().any(|r| planted.contains(&r.key.0)),
        "none of the top NRA pairs is a planted copier"
    );
}
