//! The live detection pipeline: store snapshots in, copy decisions out.

use crate::api::CopyDetector;
use crate::incremental::{IncrementalConfig, IncrementalDetector, IncrementalRoundStats};
use copydet_bayes::{CopyParams, SourceAccuracies, ValueProbabilities};
use copydet_detect::{DetectionResult, OwnedRoundInput, RoundInput};
use copydet_fusion::{value_probabilities, VoteConfig};
use copydet_model::{Dataset, DatasetDelta};
use copydet_store::{SharedClaimStore, StoreSnapshot};

/// Configuration of a [`LiveDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveConfig {
    /// Model priors shared with the detector and the vote bootstrap.
    pub params: CopyParams,
    /// Accuracy assumed for every source by the vote bootstrap (the paper's
    /// implementations use 0.8).
    pub initial_accuracy: f64,
    /// Configuration of the underlying incremental detector. The default
    /// uses `warmup_rounds: 0`: only the very first batch is detected from
    /// scratch, every later batch is delta-driven.
    pub incremental: IncrementalConfig,
}

impl Default for LiveConfig {
    fn default() -> Self {
        Self {
            params: CopyParams::paper_defaults(),
            initial_accuracy: 0.8,
            incremental: IncrementalConfig { warmup_rounds: 0, ..IncrementalConfig::default() },
        }
    }
}

/// Drives delta-driven copy detection over a stream of store snapshots.
///
/// Each [`observe`](Self::observe) call bootstraps the detection state for
/// the snapshot (uniform source accuracies, accuracy-weighted vote
/// probabilities — the same state a from-scratch single-round run would use)
/// and runs one detection round: the first snapshot from scratch (HYBRID
/// with bookkeeping), every later snapshot through the incremental
/// delta path, so only pairs affected by the new claims are re-decided.
/// The delta is [`DatasetDelta::between`] the dataset observed last and the
/// new one, so snapshots taken by anyone else in between are covered by the
/// diff.
pub struct LiveDetector {
    config: LiveConfig,
    detector: IncrementalDetector,
    round: usize,
    /// The dataset of the last observed snapshot (a cheap handle), the base
    /// of the next round's delta.
    last: Option<Dataset>,
}

impl Default for LiveDetector {
    fn default() -> Self {
        Self::new()
    }
}

impl LiveDetector {
    /// Creates the pipeline with the default configuration.
    pub fn new() -> Self {
        Self::with_config(LiveConfig::default())
    }

    /// Creates the pipeline with a custom configuration.
    pub fn with_config(config: LiveConfig) -> Self {
        Self {
            config,
            detector: IncrementalDetector::with_config(config.incremental),
            round: 0,
            last: None,
        }
    }

    /// Runs one detection round over a snapshot and returns the per-pair
    /// outcomes.
    ///
    /// Snapshots may be skipped: the next round's delta is diffed against
    /// the last *observed* dataset, so it covers every skipped window.
    ///
    /// # Panics
    /// Panics (inside [`DatasetDelta::between`]) if the snapshot is older
    /// than the last observed one: a claim it lacks cannot be diffed away.
    pub fn observe(&mut self, snapshot: &StoreSnapshot) -> DetectionResult {
        let delta = self.last.as_ref().map(|last| DatasetDelta::between(last, &snapshot.dataset));
        self.last = Some(snapshot.dataset.clone());
        let (accuracies, probabilities) = self.bootstrap_state(snapshot);
        self.round += 1;
        let mut input =
            RoundInput::new(&snapshot.dataset, &accuracies, &probabilities, self.config.params);
        if let Some(delta) = &delta {
            input = input.with_delta(delta);
        }
        self.detector.detect_round(&input, self.round)
    }

    /// One round against the *current* state of a shared store: takes the
    /// snapshot under the store lock (O(delta)), then runs detection entirely
    /// outside it — writers keep ingesting, and a maintenance thread keeps
    /// sealing/compacting, while the round computes over the frozen snapshot.
    pub fn observe_shared(&mut self, store: &SharedClaimStore) -> DetectionResult {
        let snapshot = store.snapshot();
        self.observe(&snapshot)
    }

    /// Assembles the owned from-scratch round input for a snapshot (no
    /// delta): the bootstrap accuracy/probability state plus a cheap handle
    /// to the snapshot's dataset. The result is self-contained (no borrow of
    /// the snapshot or the store), so it can cross a thread boundary and be
    /// detected while the store moves on.
    pub fn prepare(&self, snapshot: &StoreSnapshot) -> OwnedRoundInput {
        let (accuracies, probabilities) = self.bootstrap_state(snapshot);
        OwnedRoundInput {
            dataset: snapshot.dataset.clone(),
            accuracies,
            probabilities,
            params: self.config.params,
            delta: None,
        }
    }

    /// The bootstrap detection state the pipeline uses for a snapshot:
    /// uniform accuracies and vote-based value probabilities. Exposed so
    /// equivalence tests can run a from-scratch baseline on identical state.
    pub fn bootstrap_state(
        &self,
        snapshot: &StoreSnapshot,
    ) -> (SourceAccuracies, ValueProbabilities) {
        let accuracies =
            SourceAccuracies::uniform(snapshot.dataset.num_sources(), self.config.initial_accuracy)
                .expect("initial accuracy is a probability");
        let probabilities = value_probabilities(
            &snapshot.dataset,
            &accuracies,
            None,
            &VoteConfig::new(self.config.params),
        );
        (accuracies, probabilities)
    }

    /// Number of detection rounds run so far.
    pub fn rounds(&self) -> usize {
        self.round
    }

    /// Per-round pass statistics of the underlying incremental detector
    /// (empty until the first delta-driven round).
    pub fn round_stats(&self) -> &[IncrementalRoundStats] {
        self.detector.round_stats()
    }

    /// The underlying incremental detector.
    pub fn detector(&self) -> &IncrementalDetector {
        &self.detector
    }

    /// Resets the pipeline to its initial state.
    pub fn reset(&mut self) {
        self.detector.reset();
        self.round = 0;
        self.last = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copydet_store::ClaimStore;
    use std::collections::BTreeSet;

    #[test]
    fn observe_runs_warmup_then_delta_rounds() {
        let mut store = ClaimStore::new();
        for (s, d, v) in [
            ("S0", "NJ", "Trenton"),
            ("S1", "NJ", "Trenton"),
            ("S2", "NJ", "Newark"),
            ("S0", "AZ", "Phoenix"),
            ("S1", "AZ", "Phoenix"),
        ] {
            store.ingest(s, d, v);
        }
        let mut live = LiveDetector::new();
        let snap1 = store.snapshot();
        let r1 = live.observe(&snap1);
        assert_eq!(r1.algorithm, "INCREMENTAL");
        assert_eq!(live.rounds(), 1);
        assert!(live.round_stats().is_empty(), "first round is a warm-up");

        store.ingest("S2", "AZ", "Phoenix");
        let snap2 = store.snapshot();
        let _r2 = live.observe(&snap2);
        assert_eq!(live.rounds(), 2);
        let stats = live.round_stats().last().copied().unwrap();
        assert!(stats.delta_recomputed > 0, "second round is delta-driven");

        live.reset();
        assert_eq!(live.rounds(), 0);
        assert!(live.round_stats().is_empty());
    }

    #[test]
    fn empty_delta_on_grown_id_space_is_safe() {
        // A source can be interned before its first claim arrives; the next
        // snapshot then has a grown id space but an empty delta. The delta
        // round must pad its old-state bookkeeping rather than index out of
        // bounds.
        let mut store = ClaimStore::new();
        store.ingest("S0", "D0", "x");
        store.ingest("S1", "D0", "x");
        let mut live = LiveDetector::new();
        let _ = live.observe(&store.snapshot());
        store.source("announced-but-silent");
        let snap = store.snapshot();
        assert_eq!(snap.dataset.num_sources(), 3);
        let result = live.observe(&snap);
        assert_eq!(result.algorithm, "INCREMENTAL");
        // The silent source can now start claiming.
        store.ingest("announced-but-silent", "D0", "x");
        let result = live.observe(&store.snapshot());
        assert!(result.pairs_considered > 0);
    }

    #[test]
    fn skipped_snapshots_are_covered_by_the_diff() {
        let mut store = ClaimStore::new();
        for d in 0..8 {
            store.ingest("S0", &format!("D{d}"), &format!("v{d}"));
            store.ingest("S2", &format!("D{d}"), &format!("w{}", d % 3));
        }
        let mut live = LiveDetector::new();
        let _ = live.observe(&store.snapshot());
        // S1 copies S0 in two windows; the first window's snapshot is taken
        // by someone else and never observed.
        for d in 0..4 {
            store.ingest("S1", &format!("D{d}"), &format!("v{d}"));
        }
        let _skipped = store.snapshot();
        for d in 4..8 {
            store.ingest("S1", &format!("D{d}"), &format!("v{d}"));
        }
        let snap3 = store.snapshot();
        assert_eq!(snap3.epoch, 3);
        let result = live.observe(&snap3);

        let (accuracies, probabilities) = live.bootstrap_state(&snap3);
        let exact = copydet_detect::pairwise_detection(&RoundInput::new(
            &snap3.dataset,
            &accuracies,
            &probabilities,
            LiveConfig::default().params,
        ));
        let got: BTreeSet<_> = result.copying_pairs().collect();
        let expected: BTreeSet<_> = exact.copying_pairs().collect();
        assert!(!expected.is_empty(), "S1 copies S0");
        assert_eq!(got, expected);
    }

    #[test]
    #[should_panic(expected = "must extend the older snapshot")]
    fn observe_rejects_out_of_order_snapshots() {
        let mut store = ClaimStore::new();
        store.ingest("S0", "D0", "x");
        let snap1 = store.snapshot();
        store.ingest("S1", "D0", "x");
        let snap2 = store.snapshot();
        let mut live = LiveDetector::new();
        let _ = live.observe(&snap2);
        let _ = live.observe(&snap1);
    }
}
