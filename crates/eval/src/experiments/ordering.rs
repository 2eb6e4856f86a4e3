//! Figure 3 — the effect of the entry processing order (Random, ByProvider,
//! ByContribution) on BOUND and HYBRID.

use crate::experiments::workloads;
use crate::runner::run_single_round;
use crate::{BoundDetector, ExperimentConfig, HybridDetector, TextTable};
use copydet_bayes::CopyParams;
use copydet_index::EntryOrdering;

/// The orderings compared in Figure 3.
fn orderings(seed: u64) -> [(&'static str, EntryOrdering); 3] {
    [
        ("RANDOM", EntryOrdering::Random { seed }),
        ("BYPROVIDER", EntryOrdering::ByProvider),
        ("BYCONTRIBUTION", EntryOrdering::ByContribution),
    ]
}

/// One measured point: single-round computations for an ordering under an
/// algorithm. The paper plots time ratios; computation ratios are reported
/// alongside because they are deterministic and scale-independent.
#[derive(Debug, Clone)]
pub struct OrderingPoint {
    /// "BOUND" or "HYBRID".
    pub algorithm: &'static str,
    /// Ordering name.
    pub ordering: &'static str,
    /// Dataset name.
    pub dataset: String,
    /// Computations in a single bootstrap round.
    pub computations: u64,
    /// Detection seconds in a single bootstrap round.
    pub seconds: f64,
}

/// Measures every Figure 3 point.
pub fn measure(config: &ExperimentConfig) -> Vec<OrderingPoint> {
    let params = CopyParams::paper_defaults();
    let mut points = Vec::new();
    for synth in workloads(config) {
        for (ordering_name, ordering) in orderings(config.seed) {
            let mut bound = BoundDetector { lazy: false, ordering };
            let result = run_single_round(&synth, &mut bound, params);
            points.push(OrderingPoint {
                algorithm: "BOUND",
                ordering: ordering_name,
                dataset: synth.name.clone(),
                computations: result.computations(),
                seconds: result.detection_time.as_secs_f64(),
            });
            let mut hybrid = HybridDetector { switch_threshold: 16, ordering };
            let result = run_single_round(&synth, &mut hybrid, params);
            points.push(OrderingPoint {
                algorithm: "HYBRID",
                ordering: ordering_name,
                dataset: synth.name.clone(),
                computations: result.computations(),
                seconds: result.detection_time.as_secs_f64(),
            });
        }
    }
    points
}

/// Renders Figure 3: per algorithm, the computation ratio of each ordering
/// relative to RANDOM.
pub fn run(config: &ExperimentConfig) -> Vec<TextTable> {
    let points = measure(config);
    let datasets: Vec<String> = {
        let mut names: Vec<String> = points.iter().map(|p| p.dataset.clone()).collect();
        names.sort();
        names.dedup();
        names
    };
    let mut tables = Vec::new();
    for algorithm in ["BOUND", "HYBRID"] {
        let mut headers = vec!["Ordering".to_string()];
        headers.extend(datasets.iter().cloned());
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut table = TextTable::new(
            format!("Figure 3 — computation ratio vs RANDOM ordering ({algorithm})"),
            &header_refs,
        );
        for (ordering_name, _) in orderings(config.seed) {
            let mut row = vec![ordering_name.to_string()];
            for dataset in &datasets {
                let get = |o: &str| {
                    points
                        .iter()
                        .find(|p| {
                            p.algorithm == algorithm && p.ordering == o && &p.dataset == dataset
                        })
                        .map(|p| p.computations as f64)
                        .unwrap_or(f64::NAN)
                };
                let random = get("RANDOM");
                let this = get(ordering_name);
                row.push(if random > 0.0 { format!("{:.2}", this / random) } else { "-".into() });
            }
            table.add_row(row);
        }
        tables.push(table);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_contribution_is_never_worse_than_random_for_bound() {
        let points = measure(&ExperimentConfig::tiny());
        // 4 datasets × 3 orderings × 2 algorithms.
        assert_eq!(points.len(), 24);
        for dataset in ["book-cs", "stock-1day", "book-full", "stock-2wk"] {
            let get = |ordering: &str| {
                points
                    .iter()
                    .find(|p| {
                        p.algorithm == "BOUND" && p.ordering == ordering && p.dataset == dataset
                    })
                    .unwrap()
                    .computations
            };
            // Processing strong evidence first lets BOUND terminate pairs
            // sooner, so it needs no more computations than a random order
            // (a small tolerance covers tie-breaking noise at tiny scale).
            let by_contribution = get("BYCONTRIBUTION") as f64;
            let random = get("RANDOM") as f64;
            assert!(
                by_contribution <= random * 1.05,
                "BYCONTRIBUTION ({by_contribution}) worse than RANDOM ({random}) on {dataset}"
            );
        }
        let tables = run(&ExperimentConfig::tiny());
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].num_rows(), 3);
    }
}
