//! The named method configurations the paper compares (Section VI-A,
//! "Implementation").

use crate::{
    BoundDetector, CopyDetector, FaginInputDetector, HybridDetector, IncrementalDetector,
    IndexDetector, PairwiseDetector, SampledDetector, SamplingStrategy,
};

/// A copy-detection method as configured for the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Exhaustive pairwise detection (the state of the art the paper speeds
    /// up).
    Pairwise,
    /// PAIRWISE over a naive random item sample (1% of the items on
    /// Stock-2wk, 10% elsewhere).
    Sample1,
    /// PAIRWISE over a cell-fraction sample (65% of the cells on Book-CS,
    /// 24% on Book-full; same as SAMPLE1 on the Stock datasets).
    Sample2,
    /// The INDEX algorithm (Section III).
    Index,
    /// The BOUND algorithm (Section IV-A).
    Bound,
    /// The BOUND+ algorithm (Section IV-B).
    BoundPlus,
    /// The HYBRID algorithm (Section IV, threshold 16).
    Hybrid,
    /// The INCREMENTAL algorithm (Section V; HYBRID for the first two
    /// rounds).
    Incremental,
    /// INCREMENTAL over a coverage-aware sample (≥ 4 items per source).
    ScaleSample,
    /// Generation of the input lists for Fagin's NRA (Section II-B).
    FaginInput,
}

impl Method {
    /// The method's display name, matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Pairwise => "PAIRWISE",
            Method::Sample1 => "SAMPLE1",
            Method::Sample2 => "SAMPLE2",
            Method::Index => "INDEX",
            Method::Bound => "BOUND",
            Method::BoundPlus => "BOUND+",
            Method::Hybrid => "HYBRID",
            Method::Incremental => "INCREMENTAL",
            Method::ScaleSample => "SCALESAMPLE",
            Method::FaginInput => "FAGININPUT",
        }
    }

    /// Every method.
    pub fn all() -> [Method; 10] {
        [
            Method::Pairwise,
            Method::Sample1,
            Method::Sample2,
            Method::Index,
            Method::Bound,
            Method::BoundPlus,
            Method::Hybrid,
            Method::Incremental,
            Method::ScaleSample,
            Method::FaginInput,
        ]
    }

    /// The methods in the order of Tables VI / VII.
    pub fn table7_order() -> [Method; 7] {
        [
            Method::Pairwise,
            Method::Sample1,
            Method::Sample2,
            Method::Index,
            Method::Hybrid,
            Method::Incremental,
            Method::ScaleSample,
        ]
    }

    /// The single-round algorithms of Figure 2.
    pub fn figure2_order() -> [Method; 4] {
        [Method::Index, Method::Bound, Method::BoundPlus, Method::Hybrid]
    }

    /// Item-sampling rate the paper uses for this dataset (1% of the items
    /// for Stock-2wk, 10% elsewhere).
    pub fn item_sampling_rate(dataset_name: &str) -> f64 {
        if dataset_name.contains("2wk") {
            0.01
        } else {
            0.1
        }
    }

    /// Cell-fraction sampling rate for SAMPLE2 (65% on Book-CS, 24% on
    /// Book-full; the Stock datasets fall back to item sampling).
    pub fn cell_sampling_fraction(dataset_name: &str) -> Option<f64> {
        if dataset_name.contains("book-cs") {
            Some(0.65)
        } else if dataset_name.contains("book-full") {
            Some(0.24)
        } else {
            None
        }
    }

    /// Builds a fresh detector configured for the given dataset.
    pub fn build_detector(&self, dataset_name: &str, seed: u64) -> Box<dyn CopyDetector> {
        let item_rate = Self::item_sampling_rate(dataset_name);
        match self {
            Method::Pairwise => Box::new(PairwiseDetector::new()),
            Method::Sample1 => Box::new(SampledDetector::new(
                SamplingStrategy::ByItem { rate: item_rate },
                seed,
                PairwiseDetector::new(),
                "SAMPLE1",
            )),
            Method::Sample2 => {
                let strategy = match Self::cell_sampling_fraction(dataset_name) {
                    Some(cell_fraction) => SamplingStrategy::ByCell { cell_fraction },
                    None => SamplingStrategy::ByItem { rate: item_rate },
                };
                Box::new(SampledDetector::new(strategy, seed, PairwiseDetector::new(), "SAMPLE2"))
            }
            Method::Index => Box::new(IndexDetector::new()),
            Method::Bound => Box::new(BoundDetector::eager()),
            Method::BoundPlus => Box::new(BoundDetector::lazy()),
            Method::Hybrid => Box::new(HybridDetector::new()),
            Method::Incremental => Box::new(IncrementalDetector::new()),
            Method::ScaleSample => Box::new(SampledDetector::new(
                SamplingStrategy::scale_sample(item_rate),
                seed,
                IncrementalDetector::new(),
                "SCALESAMPLE",
            )),
            Method::FaginInput => Box::new(FaginInputDetector::new()),
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_orders() {
        assert_eq!(Method::Pairwise.name(), "PAIRWISE");
        assert_eq!(Method::BoundPlus.to_string(), "BOUND+");
        assert_eq!(Method::all().len(), 10);
        assert_eq!(Method::table7_order()[0], Method::Pairwise);
        assert_eq!(Method::figure2_order().len(), 4);
    }

    #[test]
    fn sampling_rates_follow_the_paper() {
        assert_eq!(Method::item_sampling_rate("stock-2wk"), 0.01);
        assert_eq!(Method::item_sampling_rate("stock-1day"), 0.1);
        assert_eq!(Method::item_sampling_rate("book-cs"), 0.1);
        assert_eq!(Method::cell_sampling_fraction("book-cs"), Some(0.65));
        assert_eq!(Method::cell_sampling_fraction("book-full"), Some(0.24));
        assert_eq!(Method::cell_sampling_fraction("stock-1day"), None);
    }

    #[test]
    fn every_method_builds_a_detector() {
        for method in Method::all() {
            let detector = method.build_detector("book-cs", 1);
            assert!(!detector.name().is_empty());
        }
        // Sampled detectors carry the method name.
        let d = Method::ScaleSample.build_detector("stock-1day", 1);
        assert_eq!(d.name(), "SCALESAMPLE");
        let d = Method::Sample2.build_detector("stock-1day", 1);
        assert_eq!(d.name(), "SAMPLE2");
    }
}
