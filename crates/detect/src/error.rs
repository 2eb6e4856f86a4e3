//! Error type for the detection layer.

use copydet_bayes::BayesError;
use std::fmt;

/// Errors from configuring or running detection algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum DetectError {
    /// A sampling strategy was configured with an invalid rate.
    InvalidSamplingRate(f64),
    /// A shard scan met a claim whose item's provider list has no entry
    /// for it: the snapshot handed to
    /// [`collect_shard_partials_for`](crate::collect_shard_partials_for) has
    /// claim lists and value groups that disagree. The round fails instead
    /// of scoring another source's entry or killing the scan thread.
    ShardClaimUnlisted {
        /// The claim's shard-local source id.
        source: usize,
        /// The claim's shard-local item id.
        item: usize,
    },
    /// A top-k query named a source the fleet has never seen. Surfaced as a
    /// typed error so the serving layer can answer with an ERR frame rather
    /// than a silently empty result.
    UnknownSourceName {
        /// The name the query asked for.
        name: String,
    },
    /// A [`BayesError`] from building a round's bootstrap state (the
    /// `From<BayesError>` target of the bootstrap's `?`).
    Bayes(BayesError),
    /// A shard's local-to-global source map does not cover a source of the
    /// shard's snapshot — the map was built for another snapshot.
    ShardIdMapMismatch {
        /// The local source id the map could not translate.
        local: usize,
        /// Source ids the map translates.
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
            DetectError::InvalidSamplingRate(r) => {
                write!(f, "sampling rate {r} is not in (0, 1]")
            }
            DetectError::ShardClaimUnlisted { source, item } => write!(
                f,
                "shard snapshot lists no provider entry for the claim of local source \
                 {source} on local item {item}; its claim lists and value groups disagree"
            ),
            DetectError::UnknownSourceName { name } => {
                write!(f, "unknown source name {name:?}")
            }
            DetectError::Bayes(e) => write!(f, "invalid round state: {e}"),
            DetectError::ShardIdMapMismatch { local, mapped } => write!(
                f,
                "shard id map translates {mapped} source ids but the snapshot uses local \
                 source id {local}"
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
        assert!(DetectError::InvalidSamplingRate(1.5).to_string().contains("1.5"));
        let text = DetectError::ShardClaimUnlisted { source: 3, item: 7 }.to_string();
        assert!(text.contains("source 3") && text.contains("item 7"));
        let e = DetectError::UnknownSourceName { name: "ghost".into() };
        assert!(e.to_string().contains("ghost"));
        let e = DetectError::from(BayesError::InvalidProbability { what: "x", value: 1.5 });
        assert!(e.to_string().contains("1.5"));
        let e = DetectError::ShardIdMapMismatch { local: 9, mapped: 2 };
        assert!(e.to_string().contains("source id 9") && e.to_string().contains('2'));
        assert!(DetectError::ShardScanPanicked { shard: 3 }.to_string().contains('3'));
    }
}
