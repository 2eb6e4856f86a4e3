//! Computation accounting shared by every detection algorithm.
//!
//! The paper measures efficiency both in wall-clock time and in the "number
//! of computations" an algorithm performs (Figure 2, Examples 3.6 / 4.2 /
//! 5.4). We use one explicit convention across all algorithms so the counts
//! are comparable:
//!
//! * **score updates** — every directional contribution-score evaluation
//!   counts 1 (so folding one shared item or value into both `C→` and `C←`
//!   counts 2, exactly like the paper's `183 × 2` for PAIRWISE and `51 × 2`
//!   for INDEX on the motivating example);
//! * **bound computations** — every evaluation of a `Cmin`/`Cmax` pair of
//!   bounds (both directions at once) counts 1;
//! * **pair finalizations** — per pair finalized after the scan, the bulk
//!   different-value adjustment counts 1 and the posterior evaluation counts
//!   1 (the paper's "2 additional computations for each pair of sources on
//!   different values").

use std::ops::AddAssign;

/// Counters for the amount of arithmetic a detection run performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComputationCounter {
    /// Directional contribution-score evaluations.
    pub score_updates: u64,
    /// `Cmin`/`Cmax` bound evaluations (one per direction pair).
    pub bound_computations: u64,
    /// Per-pair finalization steps (bulk different-value adjustment,
    /// posterior evaluation).
    pub pair_finalizations: u64,
    /// Entries or claims touched while generating auxiliary inputs
    /// (e.g. FAGININPUT's list construction, sampling overhead).
    pub auxiliary: u64,
}

impl ComputationCounter {
    /// A counter with everything at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of computations.
    pub fn total(&self) -> u64 {
        self.score_updates + self.bound_computations + self.pair_finalizations + self.auxiliary
    }
}

impl AddAssign for ComputationCounter {
    fn add_assign(&mut self, rhs: Self) {
        self.score_updates += rhs.score_updates;
        self.bound_computations += rhs.bound_computations;
        self.pair_finalizations += rhs.pair_finalizations;
        self.auxiliary += rhs.auxiliary;
    }
}

impl std::fmt::Display for ComputationCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} computations ({} score updates, {} bound evaluations, {} finalizations, {} auxiliary)",
            self.total(),
            self.score_updates,
            self.bound_computations,
            self.pair_finalizations,
            self.auxiliary
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_all_categories() {
        let c = ComputationCounter {
            score_updates: 10,
            bound_computations: 3,
            pair_finalizations: 2,
            auxiliary: 1,
        };
        assert_eq!(c.total(), 16);
        assert!(c.to_string().contains("16 computations"));
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = ComputationCounter { score_updates: 1, ..Default::default() };
        let b =
            ComputationCounter { score_updates: 2, bound_computations: 5, ..Default::default() };
        a += b;
        assert_eq!(a.score_updates, 3);
        assert_eq!(a.bound_computations, 5);
        assert_eq!(ComputationCounter::new().total(), 0);
    }
}
