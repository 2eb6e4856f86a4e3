//! Store/batch equivalence: any interleaving of ingest + seal + compact
//! must yield a snapshot whose `Dataset` and inverted index are identical to
//! building the same claim sequence in one `DatasetBuilder` pass. (The
//! HYBRID half of the suite lives with the detector, in `copydet-eval`.)

use copydet_bayes::{CopyParams, SourceAccuracies, ValueProbabilities};
use copydet_index::{InvertedIndex, SharedItemCounts};
use copydet_model::{Dataset, DatasetBuilder};
use copydet_store::{ClaimStore, StoreConfig};
use proptest::prelude::*;

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

    /// The snapshot dataset is indistinguishable from a one-pass build.
    #[test]
    fn snapshot_dataset_equals_batch_build(claims in workload_strategy()) {
        let batch = batch_dataset(&claims);
        let mut store = streamed_store(&claims);
        let snap = store.snapshot();
        prop_assert_eq!(&snap.dataset, &batch);
        prop_assert_eq!(store.num_claims(), batch.num_claims());
    }

    /// The shared-item counts over the store's provider lists and the
    /// store-built index match a cold build over the batch dataset.
    #[test]
    fn snapshot_index_equals_batch_index(claims in workload_strategy()) {
        let batch = batch_dataset(&claims);
        let mut store = streamed_store(&claims);
        let snap = store.snapshot();

        let cold_counts = SharedItemCounts::build(&batch);
        let counts = store.shared_item_counts();
        for (pair, n) in cold_counts.iter_nonzero() {
            prop_assert_eq!(counts.get(pair), n);
        }
        prop_assert_eq!(counts.num_sharing_pairs(), cold_counts.num_sharing_pairs());

        let params = CopyParams::paper_defaults();
        let accuracies = SourceAccuracies::uniform(batch.num_sources(), 0.8).unwrap();
        let probabilities = ValueProbabilities::uniform_over_dataset(&batch, 0.35).unwrap();
        let warm = store.build_index(&snap, &accuracies, &probabilities, &params);
        let cold = InvertedIndex::build(&batch, &accuracies, &probabilities, &params);
        prop_assert_eq!(warm.entries(), cold.entries());
        prop_assert_eq!(warm.ebar_start(), cold.ebar_start());
    }

    /// Auto-sealing/compaction configurations do not change the snapshot.
    #[test]
    fn auto_segmentation_is_transparent(claims in workload_strategy()) {
        let batch = batch_dataset(&claims);
        let mut store = ClaimStore::with_config(StoreConfig {
            seal_threshold: Some(7),
            max_sealed_segments: Some(2),
            ..StoreConfig::default()
        });
        for (s, d, v, _) in &claims {
            store.ingest(&format!("S{s}"), &format!("D{d}"), &format!("v{v}"));
        }
        let snap = store.snapshot();
        prop_assert_eq!(&snap.dataset, &batch);
    }

    /// A snapshot held across later ingest/seal/compact/snapshot stays
    /// bit-identical to the one-pass build over its prefix: the zero-copy
    /// aliasing of sealed segments and shared tables must never leak a later
    /// mutation into a handed-out snapshot.
    #[test]
    fn held_snapshot_survives_later_mutation(claims in workload_strategy()) {
        if claims.len() < 2 {
            return Ok(());
        }
        let (first, rest) = claims.split_at(claims.len() / 2);
        let mut store = streamed_store(first);
        let held = store.snapshot();
        // Keep mutating: ingest, seal, compact, snapshot — per the op stream,
        // then force a final seal + full compaction.
        for (s, d, v, op) in rest {
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
        store.seal();
        store.compact();
        let final_snap = store.snapshot();
        // The held snapshot still equals an independent from-scratch build of
        // its own prefix…
        prop_assert_eq!(&held.dataset, &batch_dataset(first));
        // …and the post-compaction snapshot equals the build of everything.
        prop_assert_eq!(&final_snap.dataset, &batch_dataset(&claims));
    }

    /// Every snapshot taken along an arbitrary interleaving, *held until the
    /// end*, equals the one-pass build of its ingest prefix even after all
    /// later mutations and compactions.
    #[test]
    fn every_held_snapshot_stays_prefix_identical(claims in workload_strategy()) {
        let mut store = ClaimStore::new();
        let mut held: Vec<(usize, copydet_store::StoreSnapshot)> = Vec::new();
        for (i, (s, d, v, op)) in claims.iter().enumerate() {
            store.ingest(&format!("S{s}"), &format!("D{d}"), &format!("v{v}"));
            match op {
                1 => store.seal(),
                2 => {
                    store.seal();
                    store.compact();
                }
                3 => held.push((i + 1, store.snapshot())),
                _ => {}
            }
        }
        store.seal();
        store.compact();
        held.push((claims.len(), store.snapshot()));
        for (prefix, snap) in &held {
            prop_assert_eq!(
                &snap.dataset,
                &batch_dataset(&claims[..*prefix]),
                "snapshot over the first {} claims diverged after later mutations",
                prefix
            );
        }
    }
}
