//! Ablations of the design choices DESIGN.md calls out:
//!
//! * the HYBRID switch threshold (0 = pure BOUND+, ∞ = pure INDEX, paper
//!   default 16),
//! * eager vs lazy bound recomputation (BOUND vs BOUND+).

use copydet_bench::{small_workloads, BootstrapState};
use copydet_detect::{bound_detection, hybrid_detection};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_hybrid_threshold(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_hybrid_threshold");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for synth in small_workloads() {
        let state = BootstrapState::new(&synth);
        for threshold in [0u32, 4, 16, 64, u32::MAX] {
            let label =
                if threshold == u32::MAX { "inf".to_string() } else { threshold.to_string() };
            group.bench_with_input(
                BenchmarkId::new(format!("threshold_{label}"), &synth.name),
                &synth,
                |b, s| b.iter(|| hybrid_detection(&state.input(s), threshold)),
            );
        }
    }
    group.finish();
}

fn bench_lazy_bounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_lazy_bounds");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for synth in small_workloads() {
        let state = BootstrapState::new(&synth);
        group.bench_with_input(BenchmarkId::new("eager", &synth.name), &synth, |b, s| {
            b.iter(|| bound_detection(&state.input(s), false))
        });
        group.bench_with_input(BenchmarkId::new("lazy", &synth.name), &synth, |b, s| {
            b.iter(|| bound_detection(&state.input(s), true))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_hybrid_threshold, bench_lazy_bounds);
criterion_main!(benches);
