//! Consistent point-in-time views of the store.

use copydet_model::{Dataset, DatasetDelta};

/// A consistent point-in-time view of a [`ClaimStore`](crate::ClaimStore).
///
/// The dataset is a full, immutable [`Dataset`] — indistinguishable from one
/// built by a single `DatasetBuilder` pass over the same claims — so every
/// existing detector, index builder and fusion loop runs on it unchanged.
/// From the second snapshot on, `delta` records exactly the claims added or
/// changed since the previous snapshot; feeding it to `RoundInput::with_delta`
/// lets `copydet-eval`'s `IncrementalDetector` re-decide only the affected
/// pairs.
#[derive(Debug, Clone)]
pub struct StoreSnapshot {
    /// 1-based snapshot sequence number.
    pub epoch: u64,
    /// All claims ingested up to the snapshot point.
    pub dataset: Dataset,
    /// Claims added/changed since the previous snapshot (`None` for the
    /// first snapshot, which has no predecessor).
    pub delta: Option<DatasetDelta>,
}
