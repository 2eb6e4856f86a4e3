//! The benchmark's vocabulary: every workload and metric by name, with unit
//! and direction, and the result record a run fills in. `BENCHMARK.json` is
//! [`manifest_json`] of these tables; a test keeps the two equal.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One of the four workloads.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "dense_rounds",
        why: "55 dense feeds, 1,485 pairs sharing ~700 items each: vote/scan/fold do the work, store/WAL almost none; a churn frame before every DETECT defeats a result cache",
    },
    WorkloadDef {
        name: "zipf_rounds",
        why: "1,788 sparse Zipf sources, ~25k pairs sharing a handful of items: cost is per pair (capture, id maps, candidate lists, encode), not per observation",
    },
    WorkloadDef {
        name: "ingest_durable",
        why: "1M claims streamed into an empty fleet by nproc writers, then restarts and a read-back: codec, registry, WAL, seal/compaction and recovery do the work, detect almost none",
    },
    WorkloadDef {
        name: "mixed_serve",
        why: "open-loop 20k claims/s writer beside a closed-loop DETECT/TOPK reader on the dense corpus: shard locks and cores are shared, so a gain on one side can cost the other",
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One named metric.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0 }
}

use Better::{Higher, Lower};

/// Client-observed, tracing off. Every workload reports every one.
///
/// A short list, of what holds a bound on the reference host — a shared
/// two-core VM whose neighbours slow a varying share of a run's requests by
/// a third (see `README.md`, "Steadiness"). The one request latency here is
/// DETECT's, as the 10th percentile of a run: the median of a run says how
/// busy the host was, its fast tenth stays put. The other verbs' latencies,
/// and every median and tail, are in [`PER_LAYER`], measured but not bounded.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ingest_claims_per_s", "claims/s", Higher, 0.25),
    e2e("detect_p10_ms", "ms", Lower, 0.25),
    e2e("recover_s", "s", Lower, 0.25),
    e2e("stored_bytes_per_user_byte", "B/B", Lower, 0.15),
    e2e("peak_rss_mb", "MiB", Lower, 0.2),
];

/// Single layers, from the traced run. No bounds: they explain a change in
/// an end-to-end metric, they are not themselves what a user sees.
pub const PER_LAYER: &[MetricDef] = &[
    layer("model.codec.encode_ns_per_claim", "ns/claim", Lower),
    layer("model.codec.decode_ns_per_claim", "ns/claim", Lower),
    layer("model.codec.frame_bytes_per_claim", "B/claim", Lower),
    layer("serve.frontend.ingest_overhead_ns_per_claim", "ns/claim", Lower),
    layer("serve.frontend.detect_overhead_ms", "ms", Lower),
    layer("serve.frontend.detect_response_bytes", "B", Lower),
    layer("serve.frontend.encode_ms", "ms", Lower),
    layer("serve.shard.ingest_batch_mem_ns_per_claim", "ns/claim", Lower),
    layer("serve.shard.ingest_batch_durable_ns_per_claim", "ns/claim", Lower),
    layer("serve.shard.capture_ms", "ms", Lower),
    layer("serve.shard.maps_ms", "ms", Lower),
    layer("serve.shard.lock_contended", "count", Lower),
    layer("serve.shard.lock_wait_ms", "ms", Lower),
    layer("serve.shard.recover_claims_per_s", "claims/s", Higher),
    layer("serve.detector.round_ms", "ms", Lower),
    layer("serve.detector.topk_ms", "ms", Lower),
    layer("serve.detector.fanout_ms", "ms", Lower),
    layer("store.claimstore.ingest_ns_per_claim", "ns/claim", Lower),
    layer("store.wal.append_ns_per_claim", "ns/claim", Lower),
    layer("store.wal.bytes_per_claim", "B/claim", Lower),
    layer("store.wal.sync_ms", "ms", Lower),
    layer("store.wal.appends", "count", Lower),
    layer("store.wal.fsyncs", "count", Lower),
    layer("store.seal.count", "count", Lower),
    layer("store.seal.ms_total", "ms", Lower),
    layer("store.compact.count", "count", Lower),
    layer("store.compact.ms_total", "ms", Lower),
    layer("store.snapshot.delta_ms", "ms", Lower),
    layer("store.snapshot.noop_ms", "ms", Lower),
    layer("index.counts.nonzero_pairs", "count", Lower),
    layer("index.build_ms", "ms", Lower),
    layer("index.entries", "count", Lower),
    layer("fusion.vote_ms", "ms", Lower),
    layer("bayes.score_ns_per_observation", "ns/obs", Lower),
    layer("bayes.posterior_ns_per_pair", "ns/pair", Lower),
    layer("detect.scan_ms", "ms", Lower),
    layer("detect.scan_observations", "count", Lower),
    layer("detect.merge_ms", "ms", Lower),
    layer("detect.merge.collect_ms", "ms", Lower),
    layer("detect.merge.fold_ms", "ms", Lower),
    layer("detect.merge.vote_ms", "ms", Lower),
    layer("detect.merge.pairs", "count", Lower),
    layer("detect.merge.pruned_pairs", "count", Higher),
    layer("detect.merge.ns_per_observation", "ns/obs", Lower),
    layer("detect.pairwise_ms", "ms", Lower),
    layer("detect.topk.candidates", "count", Lower),
    layer("detect.topk.evaluated", "count", Lower),
    layer("detect.topk.pruned_share", "share", Higher),
    layer("detect.gold_recall", "share", Higher),
    layer("detect.gold_precision", "share", Higher),
    layer("obs.emit_suppressed_ns", "ns", Lower),
    layer("obs.counter_inc_ns", "ns", Lower),
    layer("obs.ranked_lock_ns", "ns", Lower),
    layer("synth.generate_s", "s", Lower),
    layer("ingest_p10_ms", "ms", Lower),
    layer("ingest_p50_ms", "ms", Lower),
    layer("ingest_p90_ms", "ms", Lower),
    layer("ingest_p99_ms", "ms", Lower),
    layer("ingest_max_ms", "ms", Lower),
    layer("detect_p50_ms", "ms", Lower),
    layer("detect_p90_ms", "ms", Lower),
    layer("topk_p10_ms", "ms", Lower),
    layer("topk_p50_ms", "ms", Lower),
    layer("topk_p90_ms", "ms", Lower),
    layer("failed_ops_share", "share", Lower),
    layer("bench.detect_core_share", "share", Higher),
    layer("bench.replay_coverage", "share", Higher),
    layer("bench.trace_overhead_share", "share", Lower),
    layer("bench.late_send_p99_ms", "ms", Lower),
    layer("bench.backlog_end_ms", "ms", Lower),
];

/// What one run measured: metric name to value and sample count.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, (f64, usize)>);

impl Metrics {
    /// # Panics
    /// Panics on a name in neither table, or a non-finite value: both are
    /// bugs in the harness, not outcomes of a run.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "{name} is not a declared metric"
        );
        assert!(value.is_finite(), "{name} = {value}");
        self.0.insert(name, (value, samples));
    }

    pub fn get(&self, name: &str) -> Option<(f64, usize)> {
        self.0.get(name).copied()
    }
}

/// The outcome of one run of one workload.
pub struct RunResult {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Metrics,
}

impl RunResult {
    pub fn table(&self) -> &'static [MetricDef] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// `name workload value unit (n=samples)`, one line per metric.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for def in self.table() {
            if let Some((value, n)) = self.metrics.get(def.name) {
                let _ =
                    writeln!(out, "{} {} {} {} (n={n})", def.name, self.workload, value, def.unit);
            }
        }
        out
    }

    /// The metrics object of the result line: every metric of the run's
    /// table, with all the digits measured.
    pub fn metrics_json(&self) -> Result<String, String> {
        let mut parts = Vec::new();
        for def in self.table() {
            let (value, _) = self
                .metrics
                .get(def.name)
                .ok_or_else(|| format!("{} did not report {}", self.workload, def.name))?;
            parts.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }

    /// The one-line JSON result the driver reads.
    pub fn result_line(&self) -> Result<String, String> {
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            self.metrics_json()?
        ))
    }
}

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 12;

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest_json() -> String {
    let better = |b: Better| if b == Lower { "lower" } else { "higher" };
    // One entry a line (the smoke test reads the lists line by line).
    let list = |entries: Vec<String>| {
        entries.iter().map(|e| format!("    {{{e}}}")).collect::<Vec<_>>().join(",\n")
    };
    let named = |m: &MetricDef| {
        format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name,
            m.unit,
            better(m.better)
        )
    };
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"wirebench/Cargo.toml\", \"--\"],\n  \"paths\": [\"wirebench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        list(
            WORKLOADS
                .iter()
                .map(|w| format!("\"name\": \"{}\", \"why\": \"{}\"", w.name, w.why))
                .collect()
        ),
        list(END_TO_END.iter().map(|m| format!("{}, \"bound\": {}", named(m), m.bound)).collect()),
        list(PER_LAYER.iter().map(named).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn the_tables_meet_the_manifest_limits() {
        let mut names = HashSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name) && names.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains(['\n', '"']), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!(manifest_json().len() < 64 * 1024);
    }

    /// `BENCHMARK.json` at the repository root is this binary's
    /// `--print-manifest`; regenerate it when a table changes.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        assert_eq!(committed, manifest_json(), "run copydet_benchmark --print-manifest");
    }

    #[test]
    fn result_line_carries_every_metric_of_the_table() {
        let mut metrics = Metrics::default();
        for (i, m) in END_TO_END.iter().enumerate() {
            metrics.set(m.name, 1.5 + i as f64, 10);
        }
        let mut result = RunResult {
            workload: "dense_rounds",
            traced: false,
            attempted: 12,
            failed: 0,
            failures: Vec::new(),
            metrics,
        };
        let line = result.result_line().expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 6.5, \"unit\": \"MiB\"}"));
        assert!(!line.contains('\n'));
        assert_eq!(result.human().lines().count(), END_TO_END.len());
        result.failed = 1;
        assert!(result.result_line().unwrap().starts_with("{\"correct\": false"));
        // A table metric the run did not report is an error, not a gap.
        result.traced = true;
        assert!(result.result_line().is_err());
    }
}
