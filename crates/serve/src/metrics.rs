//! Service observability: terminal-state counters and tail latency.
//!
//! Counters are lock-free atomics bumped on the worker paths; the
//! latency population lives behind a mutex and feeds
//! [`tlc_profile::LatencyHistogram`], so a snapshot renders the same
//! p50/p90/p99/p999 summary (and the same JSON fragment) as every
//! other bench artifact in the workspace. Counter semantics follow the
//! terminal-state contract: `admitted = completed + deadline_exceeded
//! + failed` once the service has drained, and
//! `submitted = admitted + rejected_overloaded + rejected_shutdown`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use tlc_profile::{Json, LatencyHistogram, LatencySummary};
use tlc_store::CacheStats;

/// Live counters owned by a running service (shared with its workers).
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests offered to `submit`.
    pub submitted: AtomicU64,
    /// Requests that entered the queue.
    pub admitted: AtomicU64,
    /// Typed `Rejected::Overloaded` sheds.
    pub rejected_overloaded: AtomicU64,
    /// Typed `Rejected::ShuttingDown` refusals.
    pub rejected_shutdown: AtomicU64,
    /// Terminal `Outcome::Completed`.
    pub completed: AtomicU64,
    /// Terminal `Outcome::DeadlineExceeded`.
    pub deadline_exceeded: AtomicU64,
    /// Terminal `Outcome::Failed` (retry budget exhausted).
    pub failed: AtomicU64,
    /// Re-executions after a storage error (attempts beyond the first).
    pub retries: AtomicU64,
    /// Circuit-breaker trips (shard taken off the device path).
    pub breaker_trips: AtomicU64,
    /// Breakers closed again after a clean half-open trial.
    pub breaker_closes: AtomicU64,
    /// Degradation-tier transitions (either direction).
    pub tier_transitions: AtomicU64,
    /// Tickets answered by a shared-scan execution: members of a wave
    /// with ≥ 2 distinct queries, plus every duplicate ticket answered
    /// by one deduplicated execution.
    pub batched_queries: AtomicU64,
    /// `(partition, column)` tile decodes of a wave's filter part that
    /// served ≥ 2 members (flight 1s, scans or point filters) — decodes
    /// that unbatched execution would have repeated. Join flights add
    /// nothing: each decodes inline in its own part.
    pub shared_decodes: AtomicU64,
    /// Kernel launches avoided by sharing: per partition, two for every
    /// join flight of a wave and one for every flight 1, scan or point
    /// filter (what each launches alone), less the one or two the wave
    /// made. A flight 1 alone launches once, so a wave of them saves
    /// one launch a member, not two.
    pub launches_saved: AtomicU64,
    /// Latency population of terminal queries (simulated seconds).
    pub latency: Mutex<LatencyHistogram>,
}

impl Metrics {
    /// Record one terminal query latency.
    pub fn record_latency(&self, latency_s: f64) {
        self.latency.lock().expect("metrics lock").record(latency_s);
    }

    /// Point-in-time copy of every counter plus the latency summary.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        MetricsSnapshot {
            submitted: load(&self.submitted),
            admitted: load(&self.admitted),
            rejected_overloaded: load(&self.rejected_overloaded),
            rejected_shutdown: load(&self.rejected_shutdown),
            completed: load(&self.completed),
            deadline_exceeded: load(&self.deadline_exceeded),
            failed: load(&self.failed),
            retries: load(&self.retries),
            breaker_trips: load(&self.breaker_trips),
            breaker_closes: load(&self.breaker_closes),
            tier_transitions: load(&self.tier_transitions),
            batched_queries: load(&self.batched_queries),
            shared_decodes: load(&self.shared_decodes),
            launches_saved: load(&self.launches_saved),
            latency: self.latency.lock().expect("metrics lock").summary(),
            cache: None,
        }
    }
}

/// Frozen view of [`Metrics`] for reporting and assertions.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests offered to `submit`.
    pub submitted: u64,
    /// Requests that entered the queue.
    pub admitted: u64,
    /// Typed overload sheds.
    pub rejected_overloaded: u64,
    /// Typed shutdown refusals.
    pub rejected_shutdown: u64,
    /// Terminal completions.
    pub completed: u64,
    /// Terminal deadline rejections.
    pub deadline_exceeded: u64,
    /// Terminal failures.
    pub failed: u64,
    /// Retry attempts beyond the first execution.
    pub retries: u64,
    /// Breaker trips.
    pub breaker_trips: u64,
    /// Breaker closes.
    pub breaker_closes: u64,
    /// Tier transitions.
    pub tier_transitions: u64,
    /// Tickets answered by a shared-scan execution (wave of ≥ 2
    /// distinct queries, or a deduplicated fan-out group of ≥ 2).
    pub batched_queries: u64,
    /// Scalar column parts that served ≥ 2 wave members.
    pub shared_decodes: u64,
    /// Kernel launches avoided by sharing them.
    pub launches_saved: u64,
    /// Latency percentiles over terminal queries.
    pub latency: LatencySummary,
    /// Shared partition-cache counters, when the service runs with a
    /// cache ([`crate::ServeConfig::cache_budget_bytes`] > 0). `None`
    /// when caching is disabled — the service attaches these after
    /// [`Metrics::snapshot`], since the cache owns its own counters.
    pub cache: Option<CacheStats>,
}

impl MetricsSnapshot {
    /// Terminal outcomes accounted for.
    pub fn terminals(&self) -> u64 {
        self.completed + self.deadline_exceeded + self.failed
    }

    /// True when every admitted query reached exactly one terminal
    /// state and every submission is accounted for — the invariant the
    /// chaos-under-load test pins.
    pub fn is_balanced(&self) -> bool {
        self.admitted == self.terminals()
            && self.submitted == self.admitted + self.rejected_overloaded + self.rejected_shutdown
    }

    /// JSON object for bench artifacts and `tlc serve` output.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("submitted", Json::Int(self.submitted)),
            ("admitted", Json::Int(self.admitted)),
            ("rejected_overloaded", Json::Int(self.rejected_overloaded)),
            ("rejected_shutdown", Json::Int(self.rejected_shutdown)),
            ("completed", Json::Int(self.completed)),
            ("deadline_exceeded", Json::Int(self.deadline_exceeded)),
            ("failed", Json::Int(self.failed)),
            ("retries", Json::Int(self.retries)),
            ("breaker_trips", Json::Int(self.breaker_trips)),
            ("breaker_closes", Json::Int(self.breaker_closes)),
            ("tier_transitions", Json::Int(self.tier_transitions)),
            ("batched_queries", Json::Int(self.batched_queries)),
            ("shared_decodes", Json::Int(self.shared_decodes)),
            ("launches_saved", Json::Int(self.launches_saved)),
            ("latency", self.latency.to_json()),
        ];
        if let Some(cache) = &self.cache {
            fields.push(("cache", cache_stats_json(cache)));
        }
        Json::Obj(fields)
    }
}

/// Render [`CacheStats`] as the `"cache"` JSON object shared by
/// `tlc serve` metrics and the `tlc-serving/v1` bench artifact.
pub fn cache_stats_json(c: &CacheStats) -> Json {
    Json::Obj(vec![
        ("hits", Json::Int(c.hits)),
        ("misses", Json::Int(c.misses)),
        ("evictions", Json::Int(c.evictions)),
        ("revalidations", Json::Int(c.revalidations)),
        ("coalesced", Json::Int(c.coalesced)),
        ("shared_readers", Json::Int(c.shared_readers)),
        ("bytes_resident", Json::Int(c.bytes_resident)),
        ("budget_bytes", Json::Int(c.budget_bytes)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_balances_and_renders() {
        let m = Metrics::default();
        m.submitted.store(5, Ordering::Relaxed);
        m.admitted.store(3, Ordering::Relaxed);
        m.rejected_overloaded.store(2, Ordering::Relaxed);
        m.completed.store(2, Ordering::Relaxed);
        m.deadline_exceeded.store(1, Ordering::Relaxed);
        m.record_latency(0.25);
        let s = m.snapshot();
        assert!(s.is_balanced());
        assert_eq!(s.terminals(), 3);
        let rendered = s.to_json().render();
        for key in ["\"admitted\"", "\"rejected_overloaded\"", "\"p999\""] {
            assert!(rendered.contains(key), "missing {key}");
        }
    }

    #[test]
    fn unbalanced_books_are_detected() {
        let m = Metrics::default();
        m.submitted.store(2, Ordering::Relaxed);
        m.admitted.store(2, Ordering::Relaxed);
        m.completed.store(1, Ordering::Relaxed);
        assert!(!m.snapshot().is_balanced());
    }
}
