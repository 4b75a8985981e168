//! # tlc-serve — overload-safe concurrent query service
//!
//! The out-of-core layer (`tlc-ssb::stream` over `tlc-store`) answers
//! one query at a time and assumes a patient caller. This crate puts a
//! **multi-tenant front door** on it, built so that overload and
//! partial failure degrade service quality instead of correctness:
//!
//! * **Admission control** — a bounded queue ([`ServeConfig::queue_capacity`]).
//!   A request that arrives with the queue full is shed immediately
//!   with a typed [`Rejected::Overloaded`] instead of waiting without
//!   bound; a request that arrives during shutdown gets
//!   [`Rejected::ShuttingDown`]. Nothing is silently dropped.
//! * **Deadlines** — each request may carry a *device-time budget*
//!   ([`Request::deadline_device_s`]). The budget propagates into the
//!   streaming executor, which checks it between partitions in
//!   partition order, so a deadline cut is bit-identical at any
//!   `TLC_SIM_THREADS` and the query terminates with
//!   [`Outcome::DeadlineExceeded`] carrying partial-progress stats.
//! * **Retries with backoff** — an execution that fails with a storage
//!   error is retried up to [`MAX_RETRIES`] times with
//!   jittered exponential backoff (simulated seconds, PRNG keyed by
//!   request id + attempt: deterministic, and bounded by construction).
//!   A wave that fails first splits into its distinct requests, so a
//!   healthy request never fails with a sick wave-mate.
//! * **Per-shard circuit breakers** ([`breaker`]) — a partition that
//!   keeps needing recovery trips its breaker and is routed around
//!   (answered by the CPU reference executor from regenerated rows)
//!   until a cooldown and a successful trial close it again.
//! * **Graceful degradation tiers** ([`health`]) — a service-wide
//!   state machine steps `Full → ReducedBudget → CpuOnly` as failures
//!   accumulate and back as health returns, shrinking the partition
//!   memory budget and finally taking devices out of the path
//!   entirely. Every transition is counted in [`metrics`].
//!
//! **Terminal-state contract**: every submitted request ends in
//! *exactly one* of [`Outcome::Completed`],
//! [`Outcome::DeadlineExceeded`], [`Outcome::Failed`] — or was never
//! admitted and returned a typed [`Rejected`] at submission. There is
//! **one request path**: every popped job is a member of a wave (of
//! one, when it runs alone), and one loop in the batcher takes a wave
//! from routing to the one site that builds a [`Response`]. Workers
//! send exactly one per job and shutdown drains the queue before
//! joining, so no query can hang or vanish (the chaos-under-load
//! test in `tests/serving_chaos.rs` asserts this under kill-shard and
//! bit-rot fault injection).
//!
//! Time in this crate is **simulated** end to end — service latency
//! ([`Response::latency_s`]) is `device_s + io_s + backoff_s`, all
//! three modelled and deterministic, and nothing reads a wall clock —
//! so serving benchmarks ([`loadgen`], which drives this crate's own
//! admission gate and batcher in virtual time) are diffable across
//! runs and thread counts like every other artifact in the workspace.

#![warn(missing_docs)]

use std::collections::BTreeSet;

use tlc_gpu_sim::FaultPlan;
use tlc_ssb::{DeadlinePartial, LoColumn, QueryId, ResilienceReport};

mod batch;
pub mod breaker;
pub mod exec;
pub mod health;
pub mod loadgen;
pub mod metrics;
pub mod service;

pub use breaker::{BreakerConfig, BreakerState};
pub use exec::{execute, ExecOutcome, QueryAnswer};
pub use health::{HealthConfig, Tier};
pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenReport};
pub use metrics::MetricsSnapshot;
pub use service::{ServeConfig, Service, Ticket, MAX_RETRIES};

/// What a request asks the service to compute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuerySpec {
    /// A full SSB query (flight 1 in the default workload mix),
    /// executed by the streaming engine with its recovery ladder.
    Flight(QueryId),
    /// Count and sum of one column's values equal to `value` — the
    /// short, selective lookup in the mix.
    PointFilter {
        /// Column scanned.
        column: LoColumn,
        /// Value matched.
        value: i32,
    },
    /// Count and sum over one full column — the long sequential read
    /// in the mix.
    Scan {
        /// Column scanned.
        column: LoColumn,
    },
}

impl QuerySpec {
    /// Short label for metrics and bench rows.
    pub fn label(&self) -> String {
        match self {
            QuerySpec::Flight(q) => format!("flight:{}", q.name()),
            QuerySpec::PointFilter { column, value } => {
                format!("point:{}={value}", column.name())
            }
            QuerySpec::Scan { column } => format!("scan:{}", column.name()),
        }
    }
}

/// One query submitted to the service.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-chosen id, echoed in the [`Response`]. Also seeds the
    /// retry-backoff jitter, so equal ids replay equal backoff.
    pub id: u64,
    /// What to compute.
    pub query: QuerySpec,
    /// Device-time budget in simulated seconds (`None`: no deadline).
    pub deadline_device_s: Option<f64>,
    /// Fault campaign to run this query under (tests and chaos drills;
    /// production requests carry `None`).
    pub plan: Option<FaultPlan>,
}

impl Request {
    /// A plain request with no deadline and no fault plan.
    pub fn new(id: u64, query: QuerySpec) -> Request {
        Request {
            id,
            query,
            deadline_device_s: None,
            plan: None,
        }
    }
}

/// Typed refusal at the admission gate. The request was **not**
/// enqueued; this is its terminal state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// The bounded queue was full: the service sheds load instead of
    /// queueing without bound.
    Overloaded {
        /// Jobs waiting when the request arrived.
        queue_depth: usize,
        /// The configured bound it hit.
        capacity: usize,
    },
    /// The service is draining for shutdown and admits nothing new.
    ShuttingDown,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::Overloaded {
                queue_depth,
                capacity,
            } => write!(f, "overloaded: {queue_depth} queued (capacity {capacity})"),
            Rejected::ShuttingDown => write!(f, "shutting down"),
        }
    }
}

impl std::error::Error for Rejected {}

/// Exactly one of these terminates every admitted query.
///
/// `Clone` because shared-scan batching deduplicates identical
/// requests: one execution's outcome fans out to every duplicate
/// ticket in the wave.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Full result produced (possibly after retries, failovers, or on
    /// a degraded tier).
    Completed(ExecOutcome),
    /// The per-query device-time budget fired; partial-progress stats
    /// attached.
    DeadlineExceeded(Box<DeadlinePartial>),
    /// The retry budget ran out with the storage error still standing.
    Failed {
        /// The last error, rendered.
        error: String,
        /// Always empty: every attempt of a failed request ended in a
        /// storage error, and the executor returns no report with one.
        report: ResilienceReport,
    },
}

impl Outcome {
    /// Stable label for metrics ("completed" / "deadline" / "failed").
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Completed(_) => "completed",
            Outcome::DeadlineExceeded(_) => "deadline",
            Outcome::Failed { .. } => "failed",
        }
    }
}

/// The single terminal response of one admitted query.
#[derive(Debug)]
pub struct Response {
    /// Echo of [`Request::id`].
    pub id: u64,
    /// Terminal state.
    pub outcome: Outcome,
    /// Execution attempts made (1 = no retry), batched or not. A
    /// failed attempt shared with other requests is not counted.
    pub attempts: usize,
    /// Simulated seconds spent backing off between those attempts, on
    /// the schedule of this request's own id.
    pub backoff_s: f64,
    /// Degradation tier the final attempt ran on.
    pub tier: Tier,
    /// Partitions the breaker bank had open (routed to CPU) when the
    /// final attempt started.
    pub routed_around: BTreeSet<usize>,
}

impl Response {
    /// Modelled service latency in simulated seconds: device time of
    /// the final attempt, plus its modelled storage-read time (cold
    /// reads at disk bandwidth, shared-cache hits at host-memory
    /// bandwidth — this is where the partition cache shows up in the
    /// percentiles), plus all backoff waits. (Deadline-exceeded
    /// queries spent their device budget; failed queries report
    /// backoff only.)
    pub fn latency_s(&self) -> f64 {
        let device = match &self.outcome {
            Outcome::Completed(out) => out.device_s + out.io_s,
            Outcome::DeadlineExceeded(p) => p.device_s,
            Outcome::Failed { .. } => 0.0,
        };
        device + self.backoff_s
    }
}
