//! The process-global metrics registry: counters, gauges and fixed-bucket
//! log2 latency histograms, with a Prometheus-style text exposition.
//!
//! The **record path is lock-free**: every metric handle is an `Arc` around
//! relaxed atomics, so instrumented hot paths (WAL appends, request
//! handlers, merge folds) pay one or two `fetch_add`s and never contend on
//! the registry. The registry's own lock (rank 40, see `DESIGN.md` §8) is
//! taken only to register a stable name — typically once per process per
//! metric, cached behind a `OnceLock` at the instrumentation site — or to
//! snapshot every metric for exposition.
//!
//! Naming scheme (`DESIGN.md` §9): `copydet_<layer>_<quantity>_<unit>`,
//! with `_total` for monotone counters and `_nanos` for latency histograms;
//! a label set may be embedded verbatim in the registered name (e.g.
//! `copydet_frontend_requests_total{verb="INGEST"}`) — the registry treats
//! the name as opaque and the renderer strips the braces for the `# TYPE`
//! line.

use copydet_model::sync::RankedMutex;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Lock rank of the registry mutex (`DESIGN.md` §8): above every store and
/// frontend lock, so an instrumentation site may register a metric while a
/// store lock is held (first WAL append under the shard mutex), and below
/// the trace ring.
const REGISTRY_RANK: u32 = 40;

/// A monotonically increasing counter on a relaxed atomic.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A detached counter (not registered anywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge — a value that can move both ways — on a relaxed atomic.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A detached gauge (not registered anywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (which may be negative).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket 0 holds the value `0`, bucket `i`
/// (1..=64) holds values whose bit length is `i`, i.e. the half-open log2
/// range `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket log2 histogram with a lock-free record path.
///
/// Values are unsigned 64-bit observations — by convention nanoseconds for
/// latency series (`*_nanos`). Recording is two relaxed `fetch_add`s
/// (bucket + sum); reading takes a point-in-time [`HistogramSnapshot`].
/// Under concurrent recording a snapshot may be torn *between* metrics but
/// each bucket count is exact, and `count` always equals the bucket sum
/// because it is derived from the buckets rather than tracked separately.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self { buckets: std::array::from_fn(|_| AtomicU64::new(0)), sum: AtomicU64::new(0) }
    }
}

/// The log2 bucket index of a value: `0` for `0`, otherwise the bit length
/// (64 - leading zeros), always in `0..HISTOGRAM_BUCKETS`.
fn bucket_index(value: u64) -> usize {
    usize::try_from(u64::BITS - value.leading_zeros()).unwrap_or(HISTOGRAM_BUCKETS - 1)
}

/// The largest value bucket `i` can hold (inclusive): `0` for bucket 0,
/// `2^i - 1` for buckets 1..=63, `u64::MAX` for bucket 64.
fn bucket_upper_bound(index: usize) -> u64 {
    match u32::try_from(index) {
        Ok(0) => 0,
        Ok(shift @ 1..=63) => (1u64 << shift) - 1,
        _ => u64::MAX,
    }
}

impl Histogram {
    /// A detached histogram (not registered anywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation. Lock-free: two relaxed atomic adds.
    pub fn record(&self, value: u64) {
        if let Some(bucket) = self.buckets.get(bucket_index(value)) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::with_capacity(HISTOGRAM_BUCKETS);
        let mut count = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            let c = bucket.load(Ordering::Relaxed);
            count = count.saturating_add(c);
            buckets.push((bucket_upper_bound(index), c));
        }
        HistogramSnapshot { buckets, count, sum: self.sum.load(Ordering::Relaxed) }
    }
}

/// A point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `(inclusive upper bound, observations in this bucket)`, ascending.
    pub buckets: Vec<(u64, u64)>,
    /// Total observations (the sum of all bucket counts).
    pub count: u64,
    /// Sum of all observed values (wrapping on u64 overflow).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// The inclusive upper bound of the lowest bucket that makes the
    /// cumulative count reach `q` (in `0.0..=1.0`) of the total — a coarse
    /// (log2-resolution) quantile. `None` on an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * usable_f64(self.count)).ceil();
        let mut cumulative = 0u64;
        for &(upper, c) in &self.buckets {
            cumulative = cumulative.saturating_add(c);
            if usable_f64(cumulative) >= target {
                return Some(upper);
            }
        }
        self.buckets.last().map(|&(upper, _)| upper)
    }
}

/// A `u64` as `f64` without a bare `as` cast (exact below 2^53, nearest
/// above — fine for quantile arithmetic).
fn usable_f64(v: u64) -> f64 {
    let high = u32::try_from(v >> 32).unwrap_or(u32::MAX);
    let low = u32::try_from(v & 0xFFFF_FFFF).unwrap_or(u32::MAX);
    f64::from(high) * 4_294_967_296.0 + f64::from(low)
}

/// One registered metric.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A registry of named metrics.
///
/// Registration is **stable-name**: asking twice for the same name and kind
/// returns the same underlying metric, so instrumentation sites need no
/// coordination. Asking for an existing name with a *different* kind
/// returns a detached (unregistered) instance — a misuse that must stay
/// panic-free, observable as the name keeping its first kind in the
/// exposition.
#[derive(Debug)]
pub struct Registry {
    // lock-rank: 40 (obs.metrics.registry)
    inner: RankedMutex<Vec<(String, Metric)>>,
}

impl Default for Registry {
    fn default() -> Self {
        // lock-rank: 40 (obs.metrics.registry)
        Self { inner: RankedMutex::new(REGISTRY_RANK, "obs.metrics.registry", Vec::new()) }
    }
}

impl Registry {
    /// An empty registry (tests; production code uses [`registry`]).
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut metrics = self.inner.lock();
        match metrics.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(found) => match metrics.get(found) {
                Some((_, metric)) => metric.clone(),
                None => make(), // unreachable; stay total
            },
            Err(insert_at) => {
                let metric = make();
                metrics.insert(insert_at, (name.to_owned(), metric.clone()));
                metric
            }
        }
    }

    /// The counter registered under `name` (registering it if new). A name
    /// already registered as another kind yields a detached counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.get_or_insert(name, || Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c,
            _ => Arc::new(Counter::new()),
        }
    }

    /// The gauge registered under `name` (registering it if new). A name
    /// already registered as another kind yields a detached gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            _ => Arc::new(Gauge::new()),
        }
    }

    /// The histogram registered under `name` (registering it if new). A
    /// name already registered as another kind yields a detached histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.get_or_insert(name, || Metric::Histogram(Arc::new(Histogram::new()))) {
            Metric::Histogram(h) => h,
            _ => Arc::new(Histogram::new()),
        }
    }

    /// Names currently registered, in exposition (lexicographic) order.
    pub fn names(&self) -> Vec<String> {
        self.inner.lock().iter().map(|(name, _)| name.clone()).collect()
    }

    /// Renders every metric in the Prometheus text style, names in
    /// lexicographic order.
    ///
    /// Histograms emit cumulative `_bucket{le="..."}` lines (log2 bounds,
    /// raw u64 values — latency series record nanoseconds), then `_sum` and
    /// `_count`. Empty trailing buckets are elided; the `+Inf` bucket is
    /// always present. A label set embedded in a registered name is kept on
    /// the sample lines and stripped for the `# TYPE` line.
    pub fn render_text(&self) -> String {
        // Snapshot the (name, metric) list, then render without the lock:
        // atomics are read lock-free and rendering allocates.
        let metrics: Vec<(String, Metric)> = self.inner.lock().clone();
        let mut out = String::new();
        let mut last_base = String::new();
        for (name, metric) in &metrics {
            let base = base_name(name);
            if base != last_base {
                let _ = writeln!(out, "# TYPE {base} {}", metric.type_name());
                last_base = base.to_owned();
            }
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Metric::Histogram(h) => {
                    let snapshot = h.snapshot();
                    let last_nonempty =
                        snapshot.buckets.iter().rposition(|&(_, c)| c > 0).unwrap_or(0);
                    let open = label_prefix(name);
                    let mut cumulative = 0u64;
                    for &(upper, c) in snapshot.buckets.iter().take(last_nonempty + 1) {
                        cumulative = cumulative.saturating_add(c);
                        let _ = writeln!(out, "{base}_bucket{{{open}le=\"{upper}\"}} {cumulative}");
                    }
                    let _ = writeln!(out, "{base}_bucket{{{open}le=\"+Inf\"}} {}", snapshot.count);
                    let _ = writeln!(out, "{base}_sum{} {}", suffix_labels(name), snapshot.sum);
                    let _ = writeln!(out, "{base}_count{} {}", suffix_labels(name), snapshot.count);
                }
            }
        }
        out
    }
}

/// The metric name with any embedded `{label="..."}` set stripped.
fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// The label set embedded in `name` as a splice-ready prefix:
/// `verb="INGEST",` for `req_nanos{verb="INGEST"}`, empty for a bare name.
fn label_prefix(name: &str) -> String {
    match name.split_once('{').and_then(|(_, rest)| rest.strip_suffix('}')) {
        Some(labels) if !labels.is_empty() => format!("{labels},"),
        _ => String::new(),
    }
}

/// The embedded label set of `name` verbatim (`{...}` or empty), for the
/// `_sum` / `_count` sample lines.
fn suffix_labels(name: &str) -> String {
    match name.split_once('{') {
        Some((_, rest)) => format!("{{{rest}"),
        None => String::new(),
    }
}

/// The process-global registry every instrumentation site records into and
/// the `METRICS` wire verb exposes.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let r = Registry::new();
        let c = r.counter("t_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(r.counter("t_total").get(), 5, "stable name returns the same counter");
        let g = r.gauge("t_live");
        g.set(3);
        g.inc();
        g.dec();
        g.add(-5);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn kind_mismatch_is_detached_not_a_panic() {
        let r = Registry::new();
        let c = r.counter("name");
        c.inc();
        let g = r.gauge("name");
        g.set(42);
        assert_eq!(r.counter("name").get(), 1, "the first kind keeps the registration");
        assert!(r.render_text().contains("# TYPE name counter"));
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Bucket 0 holds exactly 0; bucket i holds [2^(i-1), 2^i).
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 1..=63u32 {
            let low = 1u64 << (i - 1);
            let high = (1u64 << i) - 1;
            assert_eq!(bucket_index(low), usize::try_from(i).unwrap(), "2^{}", i - 1);
            assert_eq!(bucket_index(high), usize::try_from(i).unwrap(), "2^{i}-1");
        }
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(63), u64::MAX / 2);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_snapshot_counts_every_boundary_value() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 1023, 1024, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 8);
        assert_eq!(s.sum, 0u64.wrapping_add(1 + 2 + 3 + 4 + 1023 + 1024).wrapping_add(u64::MAX));
        let count_at =
            |upper: u64| s.buckets.iter().find(|&&(u, _)| u == upper).map(|&(_, c)| c).unwrap_or(0);
        assert_eq!(count_at(0), 1, "the zero bucket");
        assert_eq!(count_at(1), 1, "[1,1]");
        assert_eq!(count_at(3), 2, "[2,3]");
        assert_eq!(count_at(7), 1, "[4,7]");
        assert_eq!(count_at(1023), 1, "[512,1023]");
        assert_eq!(count_at(2047), 1, "[1024,2047]");
        assert_eq!(count_at(u64::MAX), 1, "the top bucket");
    }

    #[test]
    fn histogram_quantiles_are_log2_coarse() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(10); // bucket [8,15]
        }
        h.record(1_000_000); // bucket [2^19, 2^20)
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), Some(15));
        assert_eq!(s.quantile(0.99), Some(15));
        assert_eq!(s.quantile(1.0), Some((1 << 20) - 1));
        assert_eq!(Histogram::new().snapshot().quantile(0.5), None);
    }

    /// Pins `quantile()` semantics on log2 bucket edges: a value exactly on
    /// a power of two lands in the bucket whose *inclusive upper bound* is
    /// the next edge minus one, and the quantile returns that upper bound.
    #[test]
    fn quantile_bucket_edge_semantics_are_pinned() {
        // 2^10 = 1024 sits at the *bottom* of bucket [1024, 2047]: every
        // quantile of a single-valued histogram reports that bucket's upper.
        let h = Histogram::new();
        h.record(1024);
        let s = h.snapshot();
        for q in [0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), Some(2047), "q={q}");
        }
        assert_eq!(s.quantile(0.0), Some(0), "q=0 is satisfied by the empty zero bucket");
        // 1023 = 2^10 - 1 is the *top* of bucket [512, 1023]: its quantile
        // is itself, one bucket below.
        let h = Histogram::new();
        h.record(1023);
        assert_eq!(h.snapshot().quantile(0.99), Some(1023));

        // Mixed population split exactly at a bucket edge: 50 values of 512
        // (bucket ≤1023) and 50 of 1024 (bucket ≤2047). The median target is
        // ceil(0.5·100) = 50, satisfied by the lower bucket's cumulative 50
        // — q=0.5 reports the lower edge, anything above reports the upper.
        let h = Histogram::new();
        for _ in 0..50 {
            h.record(512);
            h.record(1024);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), Some(1023), "median satisfied by the lower bucket");
        assert_eq!(s.quantile(0.51), Some(2047), "past the edge needs the upper bucket");
        assert_eq!(s.quantile(1.0), Some(2047));

        // q=0 needs ceil(0) = 0 observations: the first bucket with any
        // cumulative count ≥ 0 is bucket 0 (upper bound 0), even when empty.
        assert_eq!(s.quantile(0.0), Some(0));
        // Out-of-range q clamps rather than panicking or extrapolating.
        assert_eq!(s.quantile(-1.0), s.quantile(0.0));
        assert_eq!(s.quantile(2.0), s.quantile(1.0));
        // The zero bucket is its own edge: a zero observation quantiles to 0.
        let h = Histogram::new();
        h.record(0);
        assert_eq!(h.snapshot().quantile(1.0), Some(0));
    }

    #[test]
    fn render_text_exposition_shape() {
        let r = Registry::new();
        r.counter("z_total").add(7);
        r.gauge("a_live").set(2);
        let h = r.histogram("m_nanos");
        h.record(0);
        h.record(5);
        h.record(5);
        let text = r.render_text();
        // Lexicographic order: gauge, histogram, counter.
        let a = text.find("# TYPE a_live gauge").expect("gauge typed");
        let m = text.find("# TYPE m_nanos histogram").expect("histogram typed");
        let z = text.find("# TYPE z_total counter").expect("counter typed");
        assert!(a < m && m < z);
        assert!(text.contains("a_live 2\n"));
        assert!(text.contains("z_total 7\n"));
        // Cumulative buckets: le="0" sees the zero, le="7" sees all three.
        assert!(text.contains("m_nanos_bucket{le=\"0\"} 1\n"), "text:\n{text}");
        assert!(text.contains("m_nanos_bucket{le=\"7\"} 3\n"), "text:\n{text}");
        assert!(text.contains("m_nanos_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("m_nanos_sum 10\n"));
        assert!(text.contains("m_nanos_count 3\n"));
    }

    #[test]
    fn labeled_names_share_a_type_line() {
        let r = Registry::new();
        r.counter("req_total{verb=\"DETECT\"}").inc();
        r.counter("req_total{verb=\"INGEST\"}").add(2);
        let h = r.histogram("req_nanos{verb=\"STATS\"}");
        h.record(3);
        let text = r.render_text();
        assert_eq!(text.matches("# TYPE req_total counter").count(), 1);
        assert!(text.contains("req_total{verb=\"DETECT\"} 1\n"));
        assert!(text.contains("req_total{verb=\"INGEST\"} 2\n"));
        assert!(text.contains("req_nanos_bucket{verb=\"STATS\",le=\"3\"} 1\n"), "text:\n{text}");
        assert!(text.contains("req_nanos_sum{verb=\"STATS\"} 3\n"));
        assert!(text.contains("req_nanos_count{verb=\"STATS\"} 1\n"));
    }

    #[test]
    fn global_registry_is_one_instance() {
        let c = registry().counter("obs_selftest_global_total");
        let before = c.get();
        registry().counter("obs_selftest_global_total").inc();
        assert_eq!(c.get(), before + 1);
    }
}
