//! Round tracing: monotonic-clock spans and a bounded per-process ring
//! buffer of recent round traces.
//!
//! A [`RoundTrace`] decomposes one unit of work (a sharded detection round,
//! a store maintenance pass) into named, flat [`TraceStage`]s — no nesting,
//! no propagation, just "where did the wall time of this round go". The
//! producer builds it with a [`RoundTraceBuilder`] (which owns the round's
//! wall-clock span) and pushes it into the global [`trace_ring`], where the
//! `TRACE` wire verb serves the most recent N to operators.
//!
//! The ring holds the last [`TRACE_RING_CAPACITY`] traces behind a
//! [`RankedMutex`] at rank 50 (`DESIGN.md` §8) — above every store/serve
//! lock, so a producer may push while holding any of them, though the
//! instrumented paths all push after releasing theirs. Stage naming
//! convention (`DESIGN.md` §9): `shard<N>.<phase>` for per-shard work,
//! `merge.<phase>` for merge stages, bare names (`capture`, `fanout`) for
//! whole-round sections.

use copydet_model::sync::RankedMutex;
use std::collections::VecDeque;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Lock rank of the trace ring (`DESIGN.md` §8): above every store/serve
/// lock (the event ring sits higher still).
const RING_RANK: u32 = 50;

/// Number of traces the global ring retains; older traces are evicted.
pub const TRACE_RING_CAPACITY: usize = 64;

/// A started monotonic-clock timer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    start: Instant,
}

impl Span {
    /// Starts timing now.
    pub fn start() -> Self {
        Self { start: Instant::now() }
    }

    /// Nanoseconds elapsed since the span started (saturating).
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Time elapsed since the span started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Default for Span {
    fn default() -> Self {
        Self::start()
    }
}

/// One named stage of a round trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStage {
    /// Stage name (`shard0.scan`, `merge.fold_vote`, ...).
    pub name: String,
    /// Wall time the stage took, in nanoseconds.
    pub nanos: u64,
    /// A stage-defined count (pairs folded, claims scanned, ...); `0` when
    /// the stage has no natural count.
    pub count: u64,
}

/// One completed round, decomposed into stages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundTrace {
    /// What kind of round this is (`"sharded_round"`, ...).
    pub label: String,
    /// Ring-assigned sequence number (monotone per process, starting at 1).
    pub sequence: u64,
    /// Wall time of the whole round, in nanoseconds (measured by the
    /// builder from construction to [`finish`](RoundTraceBuilder::finish)).
    pub total_nanos: u64,
    /// The round's stages, in the order they were recorded.
    pub stages: Vec<TraceStage>,
}

impl RoundTrace {
    /// The recorded duration of stage `name`, if present.
    pub fn stage_nanos(&self, name: &str) -> Option<u64> {
        self.stages.iter().find(|s| s.name == name).map(|s| s.nanos)
    }

    /// Sum of the durations of every stage whose name starts with `prefix`.
    pub fn stage_sum_nanos(&self, prefix: &str) -> u64 {
        self.stages
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .fold(0u64, |acc, s| acc.saturating_add(s.nanos))
    }
}

/// Accumulates stages for one round; owns the round's wall-clock span.
#[derive(Debug)]
pub struct RoundTraceBuilder {
    label: String,
    span: Span,
    stages: Vec<TraceStage>,
}

impl RoundTraceBuilder {
    /// Starts a trace (and its wall-clock span) now.
    pub fn new(label: &str) -> Self {
        Self { label: label.to_owned(), span: Span::start(), stages: Vec::new() }
    }

    /// Records a stage with no count.
    pub fn stage(&mut self, name: &str, nanos: u64) {
        self.stage_count(name, nanos, 0);
    }

    /// Records a stage with a count.
    pub fn stage_count(&mut self, name: &str, nanos: u64, count: u64) {
        self.stages.push(TraceStage { name: name.to_owned(), nanos, count });
    }

    /// Finishes the trace; `total_nanos` is the builder's own span. The
    /// sequence number is 0 until the trace is pushed into a ring.
    pub fn finish(self) -> RoundTrace {
        RoundTrace {
            label: self.label,
            sequence: 0,
            total_nanos: self.span.elapsed_nanos(),
            stages: self.stages,
        }
    }
}

struct RingState {
    traces: VecDeque<RoundTrace>,
    next_sequence: u64,
}

/// A bounded ring buffer of recent round traces.
pub struct TraceRing {
    // lock-rank: 50 (obs.trace.ring)
    inner: RankedMutex<RingState>,
    capacity: usize,
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing").field("capacity", &self.capacity).finish_non_exhaustive()
    }
}

impl TraceRing {
    /// A ring retaining at most `capacity` traces (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        // lock-rank: 50 (obs.trace.ring)
        Self {
            inner: RankedMutex::new(
                RING_RANK,
                "obs.trace.ring",
                RingState { traces: VecDeque::new(), next_sequence: 1 },
            ),
            capacity: capacity.max(1),
        }
    }

    /// Pushes a trace, assigning it the next sequence number (returned) and
    /// evicting the oldest trace past capacity.
    pub fn push(&self, mut trace: RoundTrace) -> u64 {
        let mut state = self.inner.lock();
        let sequence = state.next_sequence;
        state.next_sequence = state.next_sequence.wrapping_add(1);
        trace.sequence = sequence;
        if state.traces.len() >= self.capacity {
            state.traces.pop_front();
        }
        state.traces.push_back(trace);
        sequence
    }

    /// The most recent `n` traces, newest first (`n == 0` means all
    /// retained).
    pub fn recent(&self, n: usize) -> Vec<RoundTrace> {
        let state = self.inner.lock();
        let take = if n == 0 { state.traces.len() } else { n };
        state.traces.iter().rev().take(take).cloned().collect()
    }

    /// Number of traces currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().traces.len()
    }

    /// `true` if no trace has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every retained trace (sequence numbers keep counting).
    pub fn clear(&self) {
        self.inner.lock().traces.clear();
    }
}

/// The process-global trace ring the instrumented round producers push into
/// and the `TRACE` wire verb reads from; it retains [`TRACE_RING_CAPACITY`]
/// traces.
pub fn trace_ring() -> &'static TraceRing {
    static RING: OnceLock<TraceRing> = OnceLock::new();
    RING.get_or_init(|| TraceRing::with_capacity(TRACE_RING_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_is_monotone() {
        let span = Span::start();
        let a = span.elapsed_nanos();
        let b = span.elapsed_nanos();
        assert!(b >= a);
        assert!(span.elapsed() >= Duration::ZERO);
    }

    #[test]
    fn builder_records_stages_and_total() {
        let mut b = RoundTraceBuilder::new("test_round");
        b.stage("capture", 10);
        b.stage_count("shard0.scan", 100, 7);
        b.stage("merge.fold_vote", 50);
        std::thread::sleep(Duration::from_millis(1));
        let trace = b.finish();
        assert_eq!(trace.label, "test_round");
        assert_eq!(trace.sequence, 0, "unassigned until pushed");
        assert!(trace.total_nanos >= 1_000_000, "total covers the builder's lifetime");
        assert_eq!(trace.stage_nanos("capture"), Some(10));
        assert_eq!(trace.stage_nanos("missing"), None);
        assert_eq!(trace.stages[1].count, 7);
        assert_eq!(trace.stage_sum_nanos("shard"), 100);
        assert_eq!(trace.stage_sum_nanos("merge."), 50);
        assert_eq!(trace.stage_sum_nanos(""), 160);
    }

    #[test]
    fn ring_bounds_and_orders_traces() {
        let ring = TraceRing::with_capacity(3);
        assert!(ring.is_empty());
        for i in 0..5 {
            let seq = ring.push(RoundTraceBuilder::new(&format!("r{i}")).finish());
            assert_eq!(seq, i + 1, "sequence numbers are monotone");
        }
        assert_eq!(ring.len(), 3, "capacity evicts the oldest");
        let recent = ring.recent(0);
        let labels: Vec<&str> = recent.iter().map(|t| t.label.as_str()).collect();
        assert_eq!(labels, ["r4", "r3", "r2"], "newest first");
        assert_eq!(recent[0].sequence, 5);
        let two = ring.recent(2);
        assert_eq!(two.len(), 2);
        assert_eq!(two[0].label, "r4");
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.push(RoundTraceBuilder::new("next").finish()), 6, "sequence survives");
    }

    #[test]
    fn global_ring_is_shared() {
        let before = trace_ring().len();
        trace_ring().push(RoundTraceBuilder::new("obs_selftest").finish());
        assert!(trace_ring().len() > before.min(TRACE_RING_CAPACITY - 1));
    }
}
