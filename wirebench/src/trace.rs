//! The benchmark's own spans: one per call into a layer, recorded in
//! memory around the call and written to `trace.json` at exit. Spans inside
//! the server are a later change; these sit at the layer boundaries the
//! harness can reach through public functions.

use crate::stats::Sample;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. `name` is the stem of the layer metric it feeds
/// (`detect.scan` feeds `detect.scan_ms`).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request share this.
    pub request: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; [`end`](Self::end) closes it.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u32) -> usize {
        let now = self.now_ns();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, request });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a span timed elsewhere (a scoped worker thread reads the
    /// clock itself and hands the interval back).
    pub fn record(
        &mut self,
        name: &'static str,
        interval: (Instant, Instant),
        parent: Option<usize>,
        request: u32,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(interval.0),
            end_ns: at(interval.1),
            parent,
            request,
        });
    }

    /// Times `f` as a child span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Each span's self time: its duration minus the part of its interval
    /// its direct children cover (the union of their intervals, so parallel
    /// children are not subtracted twice).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut intervals)| {
                intervals.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for (start, end) in intervals {
                    let start = start.max(reach);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// The per-layer table: for every span name, the median over requests
    /// of that request's self time under the name, in nanoseconds. Several
    /// same-named spans in one request (one per shard, run in parallel)
    /// count by their maximum — the one the request waited for.
    pub fn layer_medians_ns(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut per_request: BTreeMap<(&'static str, u32), u64> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times_ns()) {
            let slot = per_request.entry((span.name, span.request)).or_insert(0);
            *slot = (*slot).max(own);
        }
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), own) in per_request {
            by_name.entry(name).or_default().push(own as f64);
        }
        by_name
            .into_iter()
            .map(|(name, values)| {
                let sample = Sample::new(values);
                (name, (sample.median(), sample.len()))
            })
            .collect()
    }

    /// Median duration of the spans called `name`, and how many there are.
    pub fn median_duration_ns(&self, name: &str) -> (f64, usize) {
        let sample = Sample::new(
            self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect(),
        );
        (sample.median(), sample.len())
    }

    /// The spans as a JSON array (one object per span).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, (span, own)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}",
                span.name, span.request, span.start_ns, span.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() { ",\n" } else { "\n" });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u32,
    ) -> Span {
        Span { name, start_ns, end_ns, parent, request }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut tracer = Tracer::default();
        tracer.spans.extend([
            span("request", 0, 100, None, 0),
            span("a", 10, 30, Some(0), 0),
            // Two parallel children overlapping on 50..60.
            span("b", 40, 60, Some(0), 0),
            span("b", 50, 80, Some(0), 0),
            span("leaf", 12, 20, Some(1), 0),
        ]);
        assert_eq!(tracer.self_times_ns(), vec![100 - 20 - 40, 20 - 8, 20, 30, 8]);
        // Sequential stages tile their request: self + children = duration.
        let table = tracer.layer_medians_ns();
        assert_eq!(table["request"], (40.0, 1));
        // Same-named parallel spans count by the slowest.
        assert_eq!(table["b"], (30.0, 1));
    }

    #[test]
    fn layer_table_takes_medians_across_requests() {
        let mut tracer = Tracer::default();
        for (request, cost) in [(0u32, 10u64), (1, 30), (2, 20)] {
            tracer.spans.push(span("layer", 0, cost, None, request));
        }
        assert_eq!(tracer.layer_medians_ns()["layer"], (20.0, 3));
        assert_eq!(tracer.median_duration_ns("layer"), (20.0, 3));
        assert_eq!(tracer.median_duration_ns("absent"), (0.0, 0));
    }

    #[test]
    fn timed_spans_nest_and_serialize() {
        let mut tracer = Tracer::default();
        let request = tracer.begin("request", None, 7);
        let answer = tracer.time("child", Some(request), 7, || 42);
        tracer.end(request);
        assert_eq!(answer, 42);
        assert_eq!(tracer.spans[1].parent, Some(0));
        assert!(tracer.spans[0].end_ns >= tracer.spans[1].end_ns);
        let json = tracer.to_json();
        assert!(json.contains("\"name\": \"child\""));
        assert!(json.contains("\"parent\": 0"));
        assert!(json.contains("\"request\": 7"));
    }
}
