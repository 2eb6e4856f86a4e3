//! The flight recorder: a process-global, bounded, structured event log.
//!
//! Metrics (§`metrics`) answer "how much / how fast"; traces (§`trace`)
//! answer "where did this round's time go". Events answer the operator's
//! third question — **"what happened, in order?"** — with a bounded ring of
//! structured records: WAL stalls, seals and compactions, recovery
//! summaries, sticky I/O errors, connection lifecycle, slow operations.
//!
//! An [`Event`] carries a monotone sequence number, a wall-clock timestamp
//! (epoch milliseconds — events are for humans and log collectors, unlike
//! the monotonic [`Span`](crate::Span) clock), a [`Severity`], a component
//! (`"store"`, `"serve"`, `"detect"`), a name (`"wal.stall"`,
//! `"round.slow"`), and typed key/value fields. Producers call [`emit`];
//! the `EVENTS` wire verb reads [`event_ring`].
//!
//! **Filtering.** `COPYDET_LOG` sets the minimum severity recorded
//! (`debug` / `info` / `warn` / `error`; default `info`). The filter is one
//! relaxed atomic load checked *before* any allocation or locking, so a
//! suppressed event costs nanoseconds — which is what lets the per-request
//! outcome events sit on the serve path at `Debug` severity.
//!
//! **Capacity.** The global ring retains the last [`EVENT_RING_CAPACITY`]
//! events. [`Event::to_ndjson`] renders one event as an NDJSON line for
//! clients that forward what `EVENTS` returns to a log collector.

use crate::trace::RoundTrace;
use copydet_model::sync::RankedMutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// Lock rank of the event ring (`DESIGN.md` §8): above every store/serve
/// lock, so any instrumented path may emit while holding its own locks.
const EVENT_RING_RANK: u32 = 60;

/// Number of events the global ring retains.
pub const EVENT_RING_CAPACITY: usize = 256;

/// How important an event is; also the unit of `COPYDET_LOG` filtering.
///
/// Ordered: `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// High-volume diagnostics (per-request outcomes); off by default.
    Debug,
    /// Notable lifecycle moments (seals, recoveries, connections).
    Info,
    /// Degradation signals (stalls, slow ops, timeouts).
    Warn,
    /// Failures (sticky I/O errors, protocol errors).
    Error,
}

impl Severity {
    /// Every severity, in ascending order.
    pub const ALL: [Severity; 4] =
        [Severity::Debug, Severity::Info, Severity::Warn, Severity::Error];

    /// The lowercase name (`"debug"`, `"info"`, `"warn"`, `"error"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }

    /// Parses a case-insensitive severity name.
    pub fn parse(s: &str) -> Option<Self> {
        Severity::ALL.iter().copied().find(|sev| sev.as_str().eq_ignore_ascii_case(s.trim()))
    }

    /// The wire tag (`0..=3`, ascending with severity).
    pub fn tag(self) -> u8 {
        match self {
            Severity::Debug => 0,
            Severity::Info => 1,
            Severity::Warn => 2,
            Severity::Error => 3,
        }
    }

    /// The severity a wire tag names, if assigned.
    pub fn from_tag(tag: u8) -> Option<Self> {
        Severity::ALL.get(usize::from(tag)).copied()
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// An unsigned count or duration.
    U64(u64),
    /// A signed quantity.
    I64(i64),
    /// A ratio or score.
    F64(f64),
    /// Free text (error details, paths, labels).
    Str(String),
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Str(v) => f.write_str(v),
        }
    }
}

/// One flight-recorder record.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Ring-assigned sequence number (monotone per process, starting at 1;
    /// keeps counting across evictions).
    pub seq: u64,
    /// Wall-clock timestamp, milliseconds since the Unix epoch.
    pub wall_ms: u64,
    /// How important the event is.
    pub severity: Severity,
    /// The emitting subsystem (`"store"`, `"serve"`, `"detect"`, ...).
    pub component: String,
    /// What happened (`"wal.stall"`, `"round.slow"`, `"conn.open"`, ...).
    pub name: String,
    /// Typed details, in emission order.
    pub fields: Vec<(String, FieldValue)>,
}

impl Event {
    /// The value of field `key`, if present.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Renders the event as one NDJSON line (no trailing newline).
    pub fn to_ndjson(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"seq\":{},\"wall_ms\":{},\"severity\":\"{}\",\"component\":\"{}\",\"name\":\"{}\"",
            self.seq,
            self.wall_ms,
            self.severity,
            escape_json(&self.component),
            escape_json(&self.name),
        );
        for (key, value) in &self.fields {
            let _ = match value {
                FieldValue::U64(v) => write!(out, ",\"{}\":{v}", escape_json(key)),
                FieldValue::I64(v) => write!(out, ",\"{}\":{v}", escape_json(key)),
                FieldValue::F64(v) if v.is_finite() => write!(out, ",\"{}\":{v}", escape_json(key)),
                FieldValue::F64(v) => write!(out, ",\"{}\":\"{v}\"", escape_json(key)),
                FieldValue::Str(v) => {
                    write!(out, ",\"{}\":\"{}\"", escape_json(key), escape_json(v))
                }
            };
        }
        out.push('}');
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out
}

struct EventRingState {
    events: VecDeque<Event>,
    next_seq: u64,
}

/// A bounded ring buffer of recent events.
pub struct EventRing {
    // lock-rank: 60 (obs.event.ring)
    inner: RankedMutex<EventRingState>,
    capacity: usize,
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing").field("capacity", &self.capacity).finish_non_exhaustive()
    }
}

impl EventRing {
    /// A ring retaining at most `capacity` events (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        // lock-rank: 60 (obs.event.ring)
        Self {
            inner: RankedMutex::new(
                EVENT_RING_RANK,
                "obs.event.ring",
                EventRingState { events: VecDeque::new(), next_seq: 1 },
            ),
            capacity: capacity.max(1),
        }
    }

    /// Pushes an event, assigning it the next sequence number (returned)
    /// and evicting the oldest event past capacity.
    pub fn push(&self, mut event: Event) -> u64 {
        let mut state = self.inner.lock();
        let seq = state.next_seq;
        state.next_seq = state.next_seq.wrapping_add(1);
        event.seq = seq;
        if state.events.len() >= self.capacity {
            state.events.pop_front();
        }
        state.events.push_back(event);
        seq
    }

    /// The most recent `n` events, newest first (`n == 0` means all
    /// retained), keeping only events at `min_severity` or above and — when
    /// `component` is non-empty — from that component.
    pub fn recent_filtered(&self, n: usize, min_severity: Severity, component: &str) -> Vec<Event> {
        let state = self.inner.lock();
        let take = if n == 0 { state.events.len() } else { n };
        state
            .events
            .iter()
            .rev()
            .filter(|e| e.severity >= min_severity)
            .filter(|e| component.is_empty() || e.component == component)
            .take(take)
            .cloned()
            .collect()
    }

    /// The most recent `n` events, newest first, unfiltered.
    pub fn recent(&self, n: usize) -> Vec<Event> {
        self.recent_filtered(n, Severity::Debug, "")
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    /// `true` if no event is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every retained event (sequence numbers keep counting).
    pub fn clear(&self) {
        self.inner.lock().events.clear();
    }
}

/// The process-global event ring the instrumented paths push into and the
/// `EVENTS` wire verb reads from; it retains [`EVENT_RING_CAPACITY`] events.
pub fn event_ring() -> &'static EventRing {
    static RING: OnceLock<EventRing> = OnceLock::new();
    RING.get_or_init(|| EventRing::with_capacity(EVENT_RING_CAPACITY))
}

/// The minimum severity recorded, resolved once from `COPYDET_LOG`
/// (default [`Severity::Info`]).
pub fn min_severity() -> Severity {
    static MIN: OnceLock<Severity> = OnceLock::new();
    *MIN.get_or_init(|| {
        std::env::var("COPYDET_LOG")
            .ok()
            .and_then(|s| Severity::parse(&s))
            .unwrap_or(Severity::Info)
    })
}

/// Milliseconds since the Unix epoch (saturating; 0 if the clock is before
/// the epoch).
fn wall_ms_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// Records an event in the global ring, returning its sequence number — or `None` if `severity` is below the
/// `COPYDET_LOG` threshold. The suppressed path is one atomic load: no
/// allocation, no locking, no clock read.
pub fn emit(
    severity: Severity,
    component: &str,
    name: &str,
    fields: Vec<(String, FieldValue)>,
) -> Option<u64> {
    if severity < min_severity() {
        return None;
    }
    let event = Event {
        seq: 0,
        wall_ms: wall_ms_now(),
        severity,
        component: component.to_owned(),
        name: name.to_owned(),
        fields,
    };
    Some(event_ring().push(event))
}

/// Convenience field constructors for [`emit`] call sites.
pub mod field {
    use super::FieldValue;

    /// An unsigned field.
    pub fn u64(key: &str, value: u64) -> (String, FieldValue) {
        (key.to_owned(), FieldValue::U64(value))
    }

    /// A signed field.
    pub fn i64(key: &str, value: i64) -> (String, FieldValue) {
        (key.to_owned(), FieldValue::I64(value))
    }

    /// A float field.
    pub fn f64(key: &str, value: f64) -> (String, FieldValue) {
        (key.to_owned(), FieldValue::F64(value))
    }

    /// A string field.
    pub fn str(key: &str, value: &str) -> (String, FieldValue) {
        (key.to_owned(), FieldValue::Str(value.to_owned()))
    }
}

/// The stage breakdown of a [`RoundTrace`] as event fields: `total_nanos`,
/// then one `stage.<name>` field per stage — what a slow-op event carries
/// so the `EVENTS` reader sees where the time went without a TRACE lookup.
pub fn trace_fields(trace: &RoundTrace) -> Vec<(String, FieldValue)> {
    let mut fields = Vec::with_capacity(trace.stages.len() + 2);
    fields.push(("label".to_owned(), FieldValue::Str(trace.label.clone())));
    fields.push(("total_nanos".to_owned(), FieldValue::U64(trace.total_nanos)));
    for stage in &trace.stages {
        fields.push((format!("stage.{}", stage.name), FieldValue::U64(stage.nanos)));
    }
    fields
}

// ---------------------------------------------------------------------------
// Slow-op threshold
// ---------------------------------------------------------------------------

/// Sentinel meaning "no threshold set: slow-op capture disabled".
const SLOW_OP_DISABLED: u64 = u64::MAX;

/// The slow-op threshold in nanoseconds, seeded once from
/// `COPYDET_SLOW_OP_MS` (absent ⇒ disabled) and overridable via
/// [`set_slow_op_threshold`].
fn slow_op_cell() -> &'static AtomicU64 {
    static CELL: OnceLock<AtomicU64> = OnceLock::new();
    CELL.get_or_init(|| {
        let from_env = std::env::var("COPYDET_SLOW_OP_MS")
            .ok()
            .and_then(|raw| raw.trim().parse::<u64>().ok())
            .map(|ms| ms.saturating_mul(1_000_000))
            .unwrap_or(SLOW_OP_DISABLED);
        AtomicU64::new(from_env)
    })
}

/// Sets (or, with `None`, disables) the slow-op capture threshold,
/// overriding `COPYDET_SLOW_OP_MS`. A zero threshold promotes everything.
pub fn set_slow_op_threshold(threshold: Option<Duration>) {
    let nanos = threshold
        .map(|d| u64::try_from(d.as_nanos()).unwrap_or(SLOW_OP_DISABLED - 1))
        .unwrap_or(SLOW_OP_DISABLED);
    slow_op_cell().store(nanos, Ordering::Relaxed);
}

/// The current slow-op threshold, if capture is enabled.
pub fn slow_op_threshold_nanos() -> Option<u64> {
    match slow_op_cell().load(Ordering::Relaxed) {
        SLOW_OP_DISABLED => None,
        nanos => Some(nanos),
    }
}

/// `true` if an operation that took `nanos` should be promoted to a
/// slow-op event. One relaxed load — safe on any hot path.
pub fn slow_op_exceeded(nanos: u64) -> bool {
    nanos >= slow_op_cell().load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_parses_and_tags() {
        assert!(Severity::Debug < Severity::Info);
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
        for sev in Severity::ALL {
            assert_eq!(Severity::parse(sev.as_str()), Some(sev));
            assert_eq!(Severity::parse(&sev.as_str().to_uppercase()), Some(sev));
            assert_eq!(Severity::from_tag(sev.tag()), Some(sev));
        }
        assert_eq!(Severity::parse("verbose"), None);
        assert_eq!(Severity::from_tag(9), None);
    }

    #[test]
    fn ring_bounds_orders_and_filters() {
        let ring = EventRing::with_capacity(3);
        assert!(ring.is_empty());
        for i in 0..5u64 {
            let severity = if i % 2 == 0 { Severity::Info } else { Severity::Warn };
            let component = if i < 3 { "store" } else { "serve" };
            let seq = ring.push(Event {
                seq: 0,
                wall_ms: i,
                severity,
                component: component.to_owned(),
                name: format!("e{i}"),
                fields: vec![field::u64("i", i)],
            });
            assert_eq!(seq, i + 1, "sequence numbers are monotone");
        }
        assert_eq!(ring.len(), 3, "capacity evicts the oldest");
        let recent = ring.recent(0);
        let names: Vec<&str> = recent.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["e4", "e3", "e2"], "newest first");
        assert_eq!(recent.first().map(|e| e.seq), Some(5));

        let warns = ring.recent_filtered(0, Severity::Warn, "");
        assert_eq!(warns.len(), 1);
        assert_eq!(warns.first().map(|e| e.name.as_str()), Some("e3"));
        let store_only = ring.recent_filtered(0, Severity::Debug, "store");
        assert_eq!(store_only.len(), 1, "only e2 remains from the store component");
        assert_eq!(store_only.first().and_then(|e| e.field("i")), Some(&FieldValue::U64(2)));

        ring.clear();
        assert!(ring.is_empty());
    }

    #[test]
    fn emit_respects_the_severity_floor() {
        // The default floor is Info (COPYDET_LOG unset in the test env).
        assert!(min_severity() <= Severity::Info, "tests assume a floor no higher than info");
        let seq = emit(Severity::Warn, "test", "emit.check", vec![field::str("k", "v")])
            .expect("warn clears any default floor");
        assert!(seq >= 1);
        let found = event_ring()
            .recent_filtered(0, Severity::Warn, "test")
            .into_iter()
            .any(|e| e.seq == seq && e.name == "emit.check");
        assert!(found, "the emitted event is retrievable");
    }

    #[test]
    fn ndjson_escapes_and_patches() {
        let event = Event {
            seq: 7,
            wall_ms: 1234,
            severity: Severity::Error,
            component: "store".to_owned(),
            name: "io\"err\n".to_owned(),
            fields: vec![
                field::u64("count", 3),
                field::i64("delta", -1),
                field::f64("ratio", 0.5),
                field::str("detail", "a\\b"),
            ],
        };
        let line = event.to_ndjson();
        assert!(line.starts_with("{\"seq\":7,\"wall_ms\":1234,"));
        assert!(line.contains("\"severity\":\"error\""));
        assert!(line.contains("\"name\":\"io\\\"err\\n\""));
        assert!(line.contains("\"count\":3"));
        assert!(line.contains("\"delta\":-1"));
        assert!(line.contains("\"ratio\":0.5"));
        assert!(line.contains("\"detail\":\"a\\\\b\""));
        assert!(line.ends_with('}'));
        // Non-finite floats are quoted, keeping the line valid JSON.
        let nan = Event { fields: vec![field::f64("bad", f64::NAN)], ..event };
        assert!(nan.to_ndjson().contains("\"bad\":\"NaN\""));
    }

    #[test]
    fn slow_op_threshold_gates_and_overrides() {
        set_slow_op_threshold(None);
        assert_eq!(slow_op_threshold_nanos(), None);
        assert!(!slow_op_exceeded(u64::MAX - 1), "disabled captures nothing");
        set_slow_op_threshold(Some(Duration::from_millis(5)));
        assert_eq!(slow_op_threshold_nanos(), Some(5_000_000));
        assert!(slow_op_exceeded(5_000_000));
        assert!(!slow_op_exceeded(4_999_999));
        set_slow_op_threshold(Some(Duration::ZERO));
        assert!(slow_op_exceeded(0), "a zero threshold promotes everything");
        set_slow_op_threshold(None);
    }

    #[test]
    fn trace_fields_carry_the_stage_breakdown() {
        let mut b = crate::trace::RoundTraceBuilder::new("unit_round");
        b.stage("capture", 10);
        b.stage_count("shard0.scan", 100, 7);
        let fields = trace_fields(&b.finish());
        assert_eq!(fields.first().map(|(k, _)| k.as_str()), Some("label"));
        assert!(fields.iter().any(|(k, v)| k == "stage.capture" && *v == FieldValue::U64(10)));
        assert!(fields.iter().any(|(k, v)| k == "stage.shard0.scan" && *v == FieldValue::U64(100)));
        assert!(fields.iter().any(|(k, _)| k == "total_nanos"));
    }
}
