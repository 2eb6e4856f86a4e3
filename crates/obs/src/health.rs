//! Machine-readable health verdicts for the `HEALTH` wire verb.
//!
//! A fleet supervisor polling `HEALTH` gets a [`HealthVerdict`]: `ok`, or
//! degraded with one typed [`HealthReason`] per observed problem. The
//! verdict composes two layers:
//!
//! * **process-wide signals** evaluated here from the observability state
//!   the instrumented paths already feed — the WAL fsync latency histogram
//!   (p99 over budget) and the frontend's live-connection gauge (saturation
//!   against a configured limit);
//! * **store stickiness** the serve layer knows directly
//!   (`ShardedStore::io_error`), reported as
//!   [`HealthReasonCode::StickyStoreError`].
//!
//! Budgets come from [`HealthThresholds`] (env defaults:
//! `COPYDET_WAL_FSYNC_BUDGET_MS`, `COPYDET_CONN_LIMIT`). Rules are
//! deliberately coarse — a verdict is a paging signal, not a dashboard; the
//! details live in `METRICS`, `TRACE` and `EVENTS`.
//!
//! This module also bridges the [`lock_probe_snapshots`] contention
//! counters of `copydet_model::sync` into registry gauges
//! (`copydet_lock_*{rank,name}`), refreshed by [`publish_lock_metrics`]
//! whenever `METRICS` or `HEALTH` is served.

use crate::metrics::registry;
use copydet_model::sync::lock_probe_snapshots;

/// What degraded a [`HealthVerdict`]; the wire carries the tag plus a
/// human-readable detail string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthReasonCode {
    /// A shard store (or the registry log) recorded a sticky I/O error:
    /// durability is lost until the operator intervenes.
    StickyStoreError,
    /// The WAL fsync p99 exceeds the configured budget: the durable ingest
    /// path is stalling.
    WalFsyncOverBudget,
    /// Live connections reached the configured limit.
    ConnectionSaturation,
}

impl HealthReasonCode {
    /// Every reason code, in tag order.
    pub const ALL: [HealthReasonCode; 3] = [
        HealthReasonCode::StickyStoreError,
        HealthReasonCode::WalFsyncOverBudget,
        HealthReasonCode::ConnectionSaturation,
    ];

    /// The stable wire tag (`1`, `2` or `4`; `3` is retired and unassigned).
    pub fn tag(self) -> u8 {
        match self {
            HealthReasonCode::StickyStoreError => 1,
            HealthReasonCode::WalFsyncOverBudget => 2,
            HealthReasonCode::ConnectionSaturation => 4,
        }
    }

    /// The reason a wire tag names, if assigned.
    pub fn from_tag(tag: u8) -> Option<Self> {
        HealthReasonCode::ALL.iter().copied().find(|code| code.tag() == tag)
    }

    /// A stable snake_case name for logs and tests.
    pub fn as_str(self) -> &'static str {
        match self {
            HealthReasonCode::StickyStoreError => "sticky_store_error",
            HealthReasonCode::WalFsyncOverBudget => "wal_fsync_over_budget",
            HealthReasonCode::ConnectionSaturation => "connection_saturation",
        }
    }
}

impl std::fmt::Display for HealthReasonCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One degradation, typed for machines and detailed for humans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReason {
    /// What kind of degradation this is.
    pub code: HealthReasonCode,
    /// Human-readable specifics (the offending values).
    pub detail: String,
}

impl std::fmt::Display for HealthReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.detail)
    }
}

/// The `HEALTH` verb's payload: ok, or degraded with reasons.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthVerdict {
    /// `true` iff no degradation was observed.
    pub ok: bool,
    /// Every observed degradation (empty when `ok`).
    pub reasons: Vec<HealthReason>,
}

impl HealthVerdict {
    /// A verdict from its reasons; `ok` iff there are none.
    pub fn from_reasons(reasons: Vec<HealthReason>) -> Self {
        Self { ok: reasons.is_empty(), reasons }
    }
}

/// Budgets the process-wide health rules compare against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthThresholds {
    /// WAL fsync p99 budget in nanoseconds.
    pub wal_fsync_budget_nanos: u64,
    /// Live-connection count at or above which the frontend is saturated.
    pub connection_limit: i64,
}

impl Default for HealthThresholds {
    /// Env-tunable defaults: `COPYDET_WAL_FSYNC_BUDGET_MS` (default 50 ms)
    /// and `COPYDET_CONN_LIMIT` (default 1024).
    fn default() -> Self {
        let budget_ms = env_u64("COPYDET_WAL_FSYNC_BUDGET_MS", 50);
        let limit = env_u64("COPYDET_CONN_LIMIT", 1024);
        Self {
            wal_fsync_budget_nanos: budget_ms.saturating_mul(1_000_000),
            connection_limit: i64::try_from(limit).unwrap_or(i64::MAX),
        }
    }
}

fn env_u64(var: &str, default: u64) -> u64 {
    std::env::var(var).ok().and_then(|raw| raw.trim().parse().ok()).unwrap_or(default)
}

/// Evaluates the process-wide health rules (everything except store
/// stickiness, which only the serve layer can see). Also refreshes the lock
/// gauges so a `HEALTH` poll keeps `METRICS` current.
pub fn evaluate_process_health(thresholds: &HealthThresholds) -> Vec<HealthReason> {
    publish_lock_metrics();
    let mut reasons = Vec::new();

    // WAL fsync p99 over budget.
    let fsync = registry().histogram("copydet_store_wal_fsync_nanos").snapshot();
    if fsync.count > 0 {
        if let Some(p99) = fsync.quantile(0.99) {
            if p99 > thresholds.wal_fsync_budget_nanos {
                reasons.push(HealthReason {
                    code: HealthReasonCode::WalFsyncOverBudget,
                    detail: format!(
                        "wal fsync p99 {p99} ns exceeds the {} ns budget over {} sync(s)",
                        thresholds.wal_fsync_budget_nanos, fsync.count
                    ),
                });
            }
        }
    }

    // Connection saturation against the configured limit.
    let live = registry().gauge("copydet_frontend_connections_live").get();
    if live >= thresholds.connection_limit {
        reasons.push(HealthReason {
            code: HealthReasonCode::ConnectionSaturation,
            detail: format!(
                "{live} live connection(s) at or over the {} limit",
                thresholds.connection_limit
            ),
        });
    }

    reasons
}

/// Republishes the lock-contention probes of `copydet_model::sync` as
/// registry gauges: `copydet_lock_acquisitions{rank,name}`,
/// `copydet_lock_contended{rank,name}` and
/// `copydet_lock_wait_nanos{rank,name}`. Called on every `METRICS` /
/// `HEALTH` request — probes are pull-model, so the gauges are only as
/// fresh as the last poll.
pub fn publish_lock_metrics() {
    for probe in lock_probe_snapshots() {
        let labels = format!("{{rank=\"{}\",name=\"{}\"}}", probe.rank, probe.name);
        let saturated = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
        registry()
            .gauge(&format!("copydet_lock_acquisitions{labels}"))
            .set(saturated(probe.acquisitions));
        registry()
            .gauge(&format!("copydet_lock_contended{labels}"))
            .set(saturated(probe.contended));
        registry()
            .gauge(&format!("copydet_lock_wait_nanos{labels}"))
            .set(saturated(probe.wait_nanos));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::trace_ring;

    #[test]
    fn reason_codes_roundtrip_their_tags() {
        for code in HealthReasonCode::ALL {
            assert_eq!(HealthReasonCode::from_tag(code.tag()), Some(code));
            assert!(!code.as_str().is_empty());
        }
        assert_eq!(HealthReasonCode::from_tag(0), None);
        assert_eq!(HealthReasonCode::from_tag(3), None, "tag 3 is retired");
        assert_eq!(HealthReasonCode::from_tag(9), None);
    }

    #[test]
    fn verdict_ok_iff_no_reasons() {
        assert!(HealthVerdict::from_reasons(Vec::new()).ok);
        let degraded = HealthVerdict::from_reasons(vec![HealthReason {
            code: HealthReasonCode::StickyStoreError,
            detail: "disk gone".to_owned(),
        }]);
        assert!(!degraded.ok);
        assert_eq!(degraded.reasons.len(), 1);
        assert!(degraded.reasons[0].to_string().contains("sticky_store_error"));
    }

    #[test]
    fn thresholds_default_from_env_or_constants() {
        let t = HealthThresholds::default();
        assert!(t.wal_fsync_budget_nanos >= 1_000_000, "budget is at least a millisecond");
        assert!(t.connection_limit >= 1);
    }

    #[test]
    fn connection_saturation_trips_on_the_gauge() {
        let thresholds = HealthThresholds { wal_fsync_budget_nanos: u64::MAX, connection_limit: 3 };
        let gauge = registry().gauge("copydet_frontend_connections_live");
        let before = gauge.get();
        gauge.set(3);
        let reasons = evaluate_process_health(&thresholds);
        assert!(
            reasons.iter().any(|r| r.code == HealthReasonCode::ConnectionSaturation),
            "saturated gauge must degrade: {reasons:?}"
        );
        gauge.set(before);
        let healthy =
            evaluate_process_health(&HealthThresholds { connection_limit: i64::MAX, ..thresholds });
        assert!(
            !healthy.iter().any(|r| r.code == HealthReasonCode::ConnectionSaturation),
            "an unreachable limit cannot saturate"
        );
    }

    #[test]
    fn lock_gauges_are_published() {
        // Touch a ranked lock so at least one probe exists, then publish.
        let _ = trace_ring().len();
        publish_lock_metrics();
        let text = registry().render_text();
        assert!(
            text.contains("copydet_lock_acquisitions{rank=\"50\",name=\"obs.trace.ring\"}"),
            "trace-ring probe published:\n{text}"
        );
        assert!(text.contains("copydet_lock_wait_nanos{rank=\"50\""));
        assert!(text.contains("copydet_lock_contended{rank=\"50\""));
    }
}
