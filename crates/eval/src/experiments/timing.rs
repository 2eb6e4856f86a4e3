//! Table VII — execution time of every method on all four workloads, with
//! the paper's chained improvement percentages.

use crate::experiments::{improvement, secs, workloads};
use crate::runner::run_fusion;
use crate::{ExperimentConfig, Method, TextTable};
use copydet_bayes::CopyParams;
use std::time::Duration;

/// One measured cell of Table VII.
#[derive(Debug, Clone)]
pub struct TimingCell {
    /// Method measured.
    pub method: Method,
    /// Dataset name.
    pub dataset: String,
    /// Total copy-detection time across all fusion rounds.
    pub detection_time: Duration,
    /// Total number of detection computations.
    pub computations: u64,
}

/// Runs every Table VII method on every workload and returns the raw cells.
pub fn measure(config: &ExperimentConfig) -> Vec<TimingCell> {
    let params = CopyParams::paper_defaults();
    let mut cells = Vec::new();
    for synth in workloads(config) {
        for method in Method::table7_order() {
            let run = run_fusion(&synth, method, params, config.seed);
            cells.push(TimingCell {
                method,
                dataset: synth.name.clone(),
                detection_time: run.detection_time,
                computations: run.detection_computations,
            });
        }
    }
    cells
}

/// Builds Table VII from the measured cells: per dataset, the detection time
/// of every method and the improvement relative to the paper's comparison
/// baseline (SAMPLE1/SAMPLE2/INDEX against PAIRWISE, every later method
/// against the row above it).
pub fn render(cells: &[TimingCell]) -> TextTable {
    let datasets: Vec<String> = {
        let mut names: Vec<String> = cells.iter().map(|c| c.dataset.clone()).collect();
        names.dedup();
        names
    };
    let mut headers: Vec<String> = vec!["Method".to_string()];
    for d in &datasets {
        headers.push(format!("{d} time (s)"));
        headers.push(format!("{d} improvement"));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = TextTable::new("Table VII — execution time and improvement", &header_refs);

    let time_of = |method: Method, dataset: &str| -> f64 {
        cells
            .iter()
            .find(|c| c.method == method && c.dataset == dataset)
            .map(|c| c.detection_time.as_secs_f64())
            .unwrap_or(0.0)
    };

    let order = Method::table7_order();
    for (row_idx, method) in order.iter().enumerate() {
        let mut row = vec![method.name().to_string()];
        for dataset in &datasets {
            let time = time_of(*method, dataset);
            row.push(format!("{:.3}", time));
            let baseline = match method {
                Method::Pairwise => None,
                Method::Sample1 | Method::Sample2 | Method::Index => {
                    Some(time_of(Method::Pairwise, dataset))
                }
                _ => Some(time_of(order[row_idx - 1], dataset)),
            };
            row.push(match baseline {
                Some(b) => improvement(b, time),
                None => "-".into(),
            });
        }
        table.add_row(row);
    }
    // Total improvement row: best (last) method vs PAIRWISE.
    let mut total = vec!["Total improvement".to_string()];
    for dataset in &datasets {
        let pairwise = time_of(Method::Pairwise, dataset);
        let best = time_of(*order.last().expect("non-empty"), dataset);
        total.push(secs(Duration::from_secs_f64(best)));
        total.push(improvement(pairwise, best));
    }
    table.add_row(total);
    table
}

/// Measures and renders Table VII.
pub fn run(config: &ExperimentConfig) -> TextTable {
    render(&measure(config))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_table_shape_and_speedups() {
        let config = ExperimentConfig::tiny();
        let cells = measure(&config);
        // 7 methods × 4 datasets.
        assert_eq!(cells.len(), 28);
        let table = render(&cells);
        assert_eq!(table.num_rows(), 8); // 7 methods + total row
        assert_eq!(table.rows()[0][0], "PAIRWISE");
        assert_eq!(table.rows()[7][0], "Total improvement");

        // The headline result at any scale, Table VII's first row: INDEX
        // does far fewer computations than PAIRWISE on every dataset. At this
        // scale (seed 7, deterministic): book-cs 15,564 < 26,843, stock-1day
        // 337,420 < 687,346, book-full 139,328 < 196,592, stock-2wk 926,708
        // < 1,962,226.
        for dataset in ["book-cs", "stock-1day", "book-full", "stock-2wk"] {
            let comp = |m: Method| {
                cells.iter().find(|c| c.method == m && c.dataset == dataset).unwrap().computations
            };
            assert!(
                comp(Method::Index) < comp(Method::Pairwise),
                "{dataset}: INDEX {} vs PAIRWISE {}",
                comp(Method::Index),
                comp(Method::Pairwise)
            );
            assert!(
                comp(Method::Incremental) <= comp(Method::Index),
                "INCREMENTAL should not exceed INDEX computations on {dataset}"
            );
        }
    }
}
