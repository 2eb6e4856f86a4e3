//! Error type for the detection layer.

use copydet_bayes::BayesError;
use copydet_model::SourcePair;
use std::fmt;

/// Errors from configuring or running detection algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum DetectError {
    /// The supplied accuracy table does not cover every source of the
    /// dataset.
    AccuracyTableMismatch {
        /// Sources in the dataset.
        sources: usize,
        /// Entries in the accuracy table.
        accuracies: usize,
    },
    /// The supplied value-probability table covers a different number of
    /// items than the dataset.
    ProbabilityTableMismatch {
        /// Items in the dataset.
        items: usize,
        /// Items covered by the probability table.
        covered: usize,
    },
    /// A sampling strategy was configured with an invalid rate.
    InvalidSamplingRate(f64),
    /// A shard's incrementally-maintained shared-item counts disagree with
    /// the snapshot they were handed to
    /// [`collect_shard_partials_for`](crate::collect_shard_partials_for) or
    /// [`collect_shard_evidence`](crate::collect_shard_evidence) with: a
    /// pair's counted shared items differ from the items the scan found. The
    /// two are only consistent when captured together under one store lock;
    /// a mismatch means the caller raced a capture, and the round should be
    /// failed and retried, not the thread killed.
    ShardEvidenceMismatch {
        /// The global source pair whose evidence disagreed.
        pair: SourcePair,
        /// Shared items the counts index claims for the pair.
        counted: usize,
        /// Shared items actually observed in the snapshot.
        observed: usize,
    },
    /// A shard scan emitted a different number of pairs than the shard's
    /// shared-item counts list as sharing an item (all of them, or the
    /// target's in a top-k scan): the counts name a pair the snapshot does
    /// not share. Like [`DetectError::ShardEvidenceMismatch`], a sign that
    /// counts and snapshot were not captured together.
    ShardPairCountMismatch {
        /// Sharing pairs the counts list.
        counted: usize,
        /// Pairs the scan found sharing an item.
        scanned: usize,
    },
    /// A top-k query named a source the fleet has never seen. Surfaced as a
    /// typed error so the serving layer can answer with an ERR frame rather
    /// than a silently empty result.
    UnknownSourceName {
        /// The name the query asked for.
        name: String,
    },
    /// A round's bootstrap state was invalid: an initial accuracy or a
    /// value probability outside `[0, 1]`.
    Bayes(BayesError),
    /// A shard's local-to-global value map covers fewer values than the
    /// shard's snapshot interns — the map was built for another snapshot.
    ShardValueMapMismatch {
        /// Distinct values in the shard snapshot.
        values: usize,
        /// Values the map translates.
        mapped: usize,
    },
    /// A shard's local-to-global id map does not cover an id of the
    /// shard's snapshot — the map was built for another snapshot.
    ShardIdMapMismatch {
        /// Which id space ran short: `"source"` or `"item"`.
        kind: &'static str,
        /// The local id the map could not translate.
        local: usize,
        /// Ids of that kind the map translates.
        mapped: usize,
    },
    /// The thread scanning one shard's evidence panicked; the round fails
    /// instead of taking the serving thread down with it.
    ShardScanPanicked {
        /// Index of the shard whose scan died.
        shard: usize,
    },
}

impl From<BayesError> for DetectError {
    fn from(e: BayesError) -> Self {
        DetectError::Bayes(e)
    }
}

impl fmt::Display for DetectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectError::AccuracyTableMismatch { sources, accuracies } => write!(
                f,
                "accuracy table covers {accuracies} sources but the dataset has {sources}"
            ),
            DetectError::ProbabilityTableMismatch { items, covered } => write!(
                f,
                "value-probability table covers {covered} items but the dataset has {items}"
            ),
            DetectError::InvalidSamplingRate(r) => {
                write!(f, "sampling rate {r} is not in (0, 1]")
            }
            DetectError::ShardEvidenceMismatch { pair, counted, observed } => write!(
                f,
                "shard evidence for pair {pair} observed {observed} shared items but the \
                 counts index claims {counted}; counts and snapshot were not captured together"
            ),
            DetectError::ShardPairCountMismatch { counted, scanned } => write!(
                f,
                "shard scan found {scanned} sharing pairs but the counts index lists \
                 {counted}; counts and snapshot were not captured together"
            ),
            DetectError::UnknownSourceName { name } => {
                write!(f, "unknown source name {name:?}")
            }
            DetectError::Bayes(e) => write!(f, "invalid round state: {e}"),
            DetectError::ShardValueMapMismatch { values, mapped } => write!(
                f,
                "shard value map translates {mapped} values but the snapshot interns {values}"
            ),
            DetectError::ShardIdMapMismatch { kind, local, mapped } => write!(
                f,
                "shard id map translates {mapped} {kind} ids but the snapshot uses local \
                 {kind} id {local}"
            ),
            DetectError::ShardScanPanicked { shard } => {
                write!(f, "the evidence scan of shard {shard} panicked")
            }
        }
    }
}

impl std::error::Error for DetectError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = DetectError::AccuracyTableMismatch { sources: 5, accuracies: 3 };
        assert!(e.to_string().contains('5'));
        assert!(DetectError::InvalidSamplingRate(1.5).to_string().contains("1.5"));
        let e = DetectError::ProbabilityTableMismatch { items: 2, covered: 1 };
        assert!(e.to_string().contains("2"));
        let e = DetectError::ShardEvidenceMismatch {
            pair: SourcePair::new(copydet_model::SourceId::new(0), copydet_model::SourceId::new(1)),
            counted: 3,
            observed: 2,
        };
        let text = e.to_string();
        assert!(text.contains("(S0, S1)") && text.contains('3') && text.contains('2'));
        let e = DetectError::ShardPairCountMismatch { counted: 5, scanned: 4 };
        assert!(e.to_string().contains("found 4") && e.to_string().contains("lists 5"));
        let e = DetectError::UnknownSourceName { name: "ghost".into() };
        assert!(e.to_string().contains("ghost"));
        let e = DetectError::from(BayesError::InvalidProbability { what: "x", value: 1.5 });
        assert!(e.to_string().contains("1.5"));
        let e = DetectError::ShardValueMapMismatch { values: 7, mapped: 4 };
        assert!(e.to_string().contains('7') && e.to_string().contains('4'));
        let e = DetectError::ShardIdMapMismatch { kind: "item", local: 9, mapped: 2 };
        assert!(e.to_string().contains("item id 9") && e.to_string().contains('2'));
        assert!(DetectError::ShardScanPanicked { shard: 3 }.to_string().contains('3'));
    }
}
