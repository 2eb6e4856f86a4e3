//! Store/batch equivalence for HYBRID: any interleaving of ingest + seal +
//! compact must yield a snapshot on which HYBRID decides exactly what it
//! decides on the same claim sequence built in one `DatasetBuilder` pass.
//! (The dataset and index half of the suite lives with the store.)

use copydet_bayes::{CopyParams, SourceAccuracies};
use copydet_detect::RoundInput;
use copydet_eval::{CopyDetector, HybridDetector};
use copydet_model::{Dataset, DatasetBuilder};
use copydet_store::ClaimStore;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// After each claim, the interleaving may seal (op 1), seal + compact
/// (op 2), snapshot (op 3), or do nothing (op 0).
fn workload_strategy() -> impl Strategy<Value = Vec<(u8, u8, u8, u8)>> {
    prop::collection::vec((0u8..10, 0u8..12, 0u8..5, 0u8..=3), 0..90)
}

fn batch_dataset(claims: &[(u8, u8, u8, u8)]) -> Dataset {
    let mut b = DatasetBuilder::new();
    for (s, d, v, _) in claims {
        b.add_claim(&format!("S{s}"), &format!("D{d}"), &format!("v{v}"));
    }
    b.build()
}

fn streamed_store(claims: &[(u8, u8, u8, u8)]) -> ClaimStore {
    let mut store = ClaimStore::new();
    for (s, d, v, op) in claims {
        store.ingest(&format!("S{s}"), &format!("D{d}"), &format!("v{v}"));
        match op {
            1 => store.seal(),
            2 => {
                store.seal();
                store.compact();
            }
            3 => {
                let _ = store.snapshot();
            }
            _ => {}
        }
    }
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// HYBRID decides the same copying pairs on the snapshot as on the
    /// batch-built dataset.
    #[test]
    fn hybrid_decisions_agree(claims in workload_strategy()) {
        let batch = batch_dataset(&claims);
        let mut store = streamed_store(&claims);
        let snap = store.snapshot();
        if batch.num_claims() == 0 {
            return Ok(());
        }

        let params = CopyParams::paper_defaults();
        let accuracies = SourceAccuracies::uniform(batch.num_sources(), 0.8).unwrap();
        let probabilities = copydet_fusion::value_probabilities(
            &batch,
            &accuracies,
            None,
            &copydet_fusion::VoteConfig::new(params),
        );
        let mut hybrid = HybridDetector::new();
        let on_batch = hybrid.detect_round(
            &RoundInput::new(&batch, &accuracies, &probabilities, params),
            1,
        );
        let on_snapshot = hybrid.detect_round(
            &RoundInput::new(&snap.dataset, &accuracies, &probabilities, params),
            1,
        );
        let batch_pairs: BTreeSet<_> = on_batch.copying_pairs().collect();
        let snapshot_pairs: BTreeSet<_> = on_snapshot.copying_pairs().collect();
        prop_assert_eq!(batch_pairs, snapshot_pairs);
        prop_assert_eq!(on_batch.pairs_considered, on_snapshot.pairs_considered);
        prop_assert_eq!(on_batch.counter.score_updates, on_snapshot.counter.score_updates);
    }
}
