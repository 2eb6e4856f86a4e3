//! # copydet-obs
//!
//! Process-wide observability for the `copydetect` serving stack: the layer
//! that lets a running fleet answer "where does round time go" and "how many
//! pair recomputations did the incremental machinery avoid" from live
//! counters instead of bespoke bench harnesses (the quantities the paper's
//! evaluation — *Scaling up Copy Detection*, Li et al., ICDE 2015 — and the
//! ROADMAP's perf items turn on).
//!
//! Four layers, all std-only (atomics plus the existing
//! [`RankedMutex`](copydet_model::sync::RankedMutex) discipline; no new
//! dependencies):
//!
//! * **[`metrics`]** — a process-global registry of [`Counter`]s,
//!   [`Gauge`]s and fixed-bucket log2 latency [`Histogram`]s. The record
//!   path is lock-free (relaxed atomics); the registry lock is taken only
//!   to register a name or to snapshot for exposition. [`Registry::
//!   render_text`] emits the Prometheus-style text format.
//! * **[`trace`]** — a monotonic-clock [`Span`] API and a bounded
//!   per-process ring buffer ([`TraceRing`]) of recent [`RoundTrace`]s:
//!   one trace per detection round, decomposed into named stages
//!   (per-shard capture/scan, merge collect/fold/vote).
//! * **[`event`] + [`health`]** — the flight recorder: a bounded ring of
//!   structured [`Event`]s (severity-filtered via `COPYDET_LOG`, slow-op
//!   promotion via `COPYDET_SLOW_OP_MS`) and the
//!   typed [`HealthVerdict`] rules the `HEALTH` verb serves, including the
//!   lock-contention gauges bridged from `copydet_model::sync`.
//! * The **wire surface** lives in `copydet-serve`: `METRICS` returns the
//!   text exposition, `TRACE` the most recent N round traces, `EVENTS`
//!   recent events and `HEALTH` the verdict, codec-framed.
//!
//! Instrumentation is panic-free (this crate is on the `copydet-audit`
//! no-panic and lossy-cast lists) and near-zero-cost when nothing reads it:
//! a counter bump is one relaxed `fetch_add`, a histogram record is two.
//! See `DESIGN.md` §9 for the metric naming scheme, the ring-buffer
//! semantics and the overhead budget.
//!
//! ```
//! use copydet_obs::{registry, Span};
//!
//! let requests = registry().counter("doc_example_requests_total");
//! let latency = registry().histogram("doc_example_request_nanos");
//! let span = Span::start();
//! requests.inc();
//! latency.record(span.elapsed_nanos());
//! assert!(registry().render_text().contains("doc_example_requests_total"));
//! ```

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]

pub mod event;
pub mod health;
pub mod metrics;
pub mod trace;

pub use event::{
    emit, event_ring, min_severity, set_slow_op_threshold, slow_op_exceeded,
    slow_op_threshold_nanos, trace_fields, Event, EventRing, FieldValue, Severity,
    EVENT_RING_CAPACITY,
};
pub use health::{
    evaluate_process_health, publish_lock_metrics, HealthReason, HealthReasonCode,
    HealthThresholds, HealthVerdict,
};
pub use metrics::{
    registry, Counter, Gauge, Histogram, HistogramSnapshot, Registry, HISTOGRAM_BUCKETS,
};
pub use trace::{
    trace_ring, RoundTrace, RoundTraceBuilder, Span, TraceRing, TraceStage, TRACE_RING_CAPACITY,
};
