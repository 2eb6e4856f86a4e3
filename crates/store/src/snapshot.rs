//! Consistent point-in-time views of the store.

use copydet_model::Dataset;

/// A consistent point-in-time view of a [`ClaimStore`](crate::ClaimStore).
///
/// The dataset is a full, immutable [`Dataset`] — indistinguishable from one
/// built by a single `DatasetBuilder` pass over the same claims — so every
/// existing detector, index builder and fusion loop runs on it unchanged.
/// The change between two snapshots of one store is
/// [`DatasetDelta::between`](copydet_model::DatasetDelta::between) of their
/// datasets; `copydet-eval`'s `LiveDetector` diffs the snapshots it observes
/// that way to re-decide only the affected pairs.
#[derive(Debug, Clone)]
pub struct StoreSnapshot {
    /// 1-based snapshot sequence number.
    pub epoch: u64,
    /// All claims ingested up to the snapshot point.
    pub dataset: Dataset,
}
