//! The concurrent service: bounded admission queue, worker pool, and
//! the state a wave runs against — the routing snapshot, the backoff
//! schedule, terminal accounting, and the wiring between executor
//! feedback and the breaker bank / health machine. The request loop
//! itself (routing → executor → feedback → retry → response) is the
//! batcher's (`batch.rs`), the one path every popped job takes.
//!
//! Concurrency is plain std: the queue is a `Mutex<VecDeque>` with a
//! `Condvar`, workers are OS threads, and each admitted request owns a
//! one-shot `mpsc` channel that delivers its single [`Response`].
//! There is deliberately no async runtime — the workspace has no
//! dependency budget for one, and a worker pool over a bounded queue
//! *is* the admission-control story: the queue bound is the only
//! backpressure mechanism, and it sheds typed rejections instead of
//! building an unbounded backlog.
//!
//! **Exactly-one-response invariant**: `submit` either returns a typed
//! [`Rejected`] (the request never entered the system) or enqueues a
//! job whose worker sends exactly one [`Response`] — completion,
//! deadline, or retry exhaustion, all built at one site in the batcher.
//! [`Service::shutdown`] first stops admissions, then wakes the workers
//! to drain what is already queued, then joins them; nothing admitted
//! is ever dropped.
//!
//! Backoff is *simulated*: a retry adds jittered exponential seconds
//! to the query's reported latency instead of sleeping the worker
//! (device time is simulated everywhere else in the workspace, and a
//! real sleep would add nondeterministic wall time to a deterministic
//! quantity). The jitter PRNG is keyed by request id and attempt, so a
//! replayed request reports a bit-identical backoff schedule.

use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use tlc_gpu_sim::FaultPlan;
use tlc_rng::Rng;
use tlc_ssb::{SsbStore, StreamOptions, WaveQueryRun};
use tlc_store::PartitionCache;

use crate::breaker::{BreakerBank, BreakerConfig};
use crate::health::{HealthConfig, HealthMachine, Tier, REDUCED_BUDGET_DIVISOR};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::{Outcome, Rejected, Request, Response};

/// Service policy knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing queries.
    pub workers: usize,
    /// Bounded admission queue: requests arriving with this many jobs
    /// already waiting are shed with [`Rejected::Overloaded`].
    pub queue_capacity: usize,
    /// Shared-scan batch window: a worker pops up to this many waiting
    /// jobs at once and executes them as one **wave** — every
    /// `(partition, column)` the wave needs is loaded and uploaded
    /// once, the flight 1s, scans and point filters share one fused
    /// part that decodes each column tile once for all of them, each
    /// join flight decodes inline over the same upload, and
    /// identical requests are deduplicated (one execution fans out to
    /// all duplicate tickets). `0` or `1` disables batching
    /// (every job is a wave of one, the same path with nothing shared).
    /// Answers are bit-identical either way; only attributed cost —
    /// and therefore latency — changes.
    pub batch_window: usize,
    /// Per-shard circuit-breaker policy.
    pub breaker: BreakerConfig,
    /// Degradation-tier policy.
    pub health: HealthConfig,
    /// Byte budget for the shared compressed-partition cache
    /// ([`PartitionCache`]), shared across the whole worker pool.
    /// `0` (the default) disables caching entirely. Degradation tiers
    /// shrink this before the service gives up on devices:
    /// `ReducedBudget` divides it by the health machine's divisor,
    /// `CpuOnly` drops it to zero (forced-CPU queries read no
    /// partition files, so a resident cache would only hold memory).
    pub cache_budget_bytes: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            batch_window: 4,
            breaker: BreakerConfig::default(),
            health: HealthConfig::default(),
            cache_budget_bytes: 0,
        }
    }
}

impl ServeConfig {
    /// A configuration whose adaptive feedback (breakers, tiers) is
    /// pinned off, so routing is static and every response depends
    /// only on its own request — what determinism tests want.
    pub fn deterministic() -> Self {
        ServeConfig {
            breaker: BreakerConfig::disabled(),
            health: HealthConfig::disabled(),
            ..ServeConfig::default()
        }
    }
}

/// One admitted job: the request plus its response channel.
struct Job {
    req: Request,
    tx: mpsc::Sender<Response>,
}

/// Queue state guarded by the mutex half of the condvar pair.
struct QueueState {
    jobs: VecDeque<Job>,
    shutting_down: bool,
}

impl QueueState {
    /// Pass `req` through the admission gate and, if admitted, queue it.
    fn enqueue(&mut self, shared: &Shared, req: Request) -> Result<Ticket, Rejected> {
        shared.admit(self.jobs.len(), self.shutting_down)?;
        let (tx, rx) = mpsc::channel();
        self.jobs.push_back(Job { req, tx });
        Ok(Ticket { rx })
    }
}

/// The admission queue the handle fills and the workers drain.
struct Queue {
    state: Mutex<QueueState>,
    cv: Condvar,
}

/// The thread-free state of a service: everything a wave needs to run
/// and nothing about who runs it. A [`Service`]'s workers share one
/// behind their queue; the load generator ([`crate::loadgen`]) drives
/// one directly, in virtual time, with no threads at all.
pub(crate) struct Shared {
    pub(crate) store: Arc<SsbStore>,
    pub(crate) cfg: ServeConfig,
    pub(crate) breakers: Mutex<BreakerBank>,
    pub(crate) health: Mutex<HealthMachine>,
    pub(crate) metrics: Metrics,
    /// One compressed-partition cache for the whole pool (None when
    /// `cache_budget_bytes` is 0).
    pub(crate) cache: Option<Arc<PartitionCache>>,
}

impl Shared {
    pub(crate) fn new(store: Arc<SsbStore>, cfg: ServeConfig) -> Shared {
        let cache = (cfg.cache_budget_bytes > 0)
            .then(|| Arc::new(PartitionCache::new(cfg.cache_budget_bytes)));
        Shared {
            store,
            breakers: Mutex::new(BreakerBank::new(cfg.breaker.clone())),
            health: Mutex::new(HealthMachine::new(cfg.health.clone())),
            metrics: Metrics::default(),
            cache,
            cfg,
        }
    }

    /// The admission gate: count the offer, and admit it unless the
    /// service is draining or `queue_depth` jobs already fill the
    /// queue. `Err` is the request's typed terminal state.
    pub(crate) fn admit(&self, queue_depth: usize, shutting_down: bool) -> Result<(), Rejected> {
        let m = &self.metrics;
        m.submitted.fetch_add(1, Ordering::Relaxed);
        if shutting_down {
            m.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
            return Err(Rejected::ShuttingDown);
        }
        if queue_depth >= self.cfg.queue_capacity {
            m.rejected_overloaded.fetch_add(1, Ordering::Relaxed);
            return Err(Rejected::Overloaded {
                queue_depth,
                capacity: self.cfg.queue_capacity,
            });
        }
        m.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Counter snapshot, with the shared cache's counters attached
    /// when there is one.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        snap.cache = self.cache.as_ref().map(|c| c.stats());
        snap
    }
}

/// Receipt for one admitted request; redeem with [`Ticket::wait`].
pub struct Ticket {
    rx: mpsc::Receiver<Response>,
}

impl Ticket {
    /// Block until the query's single terminal [`Response`] arrives.
    pub fn wait(self) -> Response {
        self.rx.recv().expect("worker always sends one response")
    }
}

/// A running query service over one [`SsbStore`].
pub struct Service {
    shared: Arc<Shared>,
    queue: Arc<Queue>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Start `cfg.workers` worker threads over `store`.
    pub fn start(store: Arc<SsbStore>, cfg: ServeConfig) -> Service {
        let shared = Arc::new(Shared::new(store, cfg));
        let queue = Arc::new(Queue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutting_down: false,
            }),
            cv: Condvar::new(),
        });
        let workers = (0..shared.cfg.workers.max(1))
            .map(|_| {
                let (shared, queue) = (Arc::clone(&shared), Arc::clone(&queue));
                std::thread::spawn(move || worker_loop(&shared, &queue))
            })
            .collect();
        Service {
            shared,
            queue,
            workers,
        }
    }

    /// Offer a request to the admission gate. `Ok` means a worker now
    /// owes exactly one [`Response`] on the returned ticket; `Err` is
    /// the request's typed terminal state (it never entered the queue).
    pub fn submit(&self, req: Request) -> Result<Ticket, Rejected> {
        let mut q = self.queue.state.lock().expect("queue lock");
        let ticket = q.enqueue(&self.shared, req)?;
        drop(q);
        self.queue.cv.notify_one();
        Ok(ticket)
    }

    /// Offer a batch of requests under **one** queue lock, so they
    /// land as consecutive queue entries and a worker's next wave can
    /// cover them together — the deterministic way to build a wave of
    /// known composition (tests) or to amortize admission overhead
    /// (load generators). Each request still passes the admission gate
    /// individually: the returned vector has one entry per input, in
    /// order, and capacity overflow sheds the tail with typed
    /// rejections rather than failing the whole batch.
    pub fn submit_many(&self, reqs: Vec<Request>) -> Vec<Result<Ticket, Rejected>> {
        let mut q = self.queue.state.lock().expect("queue lock");
        let out = reqs
            .into_iter()
            .map(|req| q.enqueue(&self.shared, req))
            .collect();
        drop(q);
        self.queue.cv.notify_all();
        out
    }

    /// Jobs currently waiting (diagnostics; racy by nature).
    pub fn queue_depth(&self) -> usize {
        self.queue.state.lock().expect("queue lock").jobs.len()
    }

    /// Current degradation tier.
    pub fn tier(&self) -> Tier {
        self.shared.health.lock().expect("health lock").tier()
    }

    /// Shards currently routed around by open breakers.
    pub fn routed_around(&self) -> BTreeSet<usize> {
        self.shared
            .breakers
            .lock()
            .expect("breaker lock")
            .open_partitions()
    }

    /// Counter snapshot (callable while serving), with the shared
    /// cache's counters attached when the service runs one.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.snapshot()
    }

    /// Stop admissions, drain every queued job, join the workers, and
    /// return the final counter snapshot. Every admitted request has
    /// received its response when this returns.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        {
            let mut q = self.queue.state.lock().expect("queue lock");
            q.shutting_down = true;
        }
        self.queue.cv.notify_all();
        for h in self.workers.drain(..) {
            h.join().expect("worker panicked");
        }
        self.shared.snapshot()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return; // shutdown() already joined
        }
        {
            let mut q = self.queue.state.lock().expect("queue lock");
            q.shutting_down = true;
        }
        self.queue.cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Re-executions allowed after a storage error. Each retry first waits
/// one jittered exponential step: 10 ms of simulated time doubling per
/// step, times up to 1.5.
pub const MAX_RETRIES: usize = 2;

/// First backoff step in simulated seconds; step `k` waits
/// `BACKOFF_BASE_S * 2^(k-1)`, scaled by jitter.
pub(crate) const BACKOFF_BASE_S: f64 = 0.010;

/// Jitter fraction: step `k` is multiplied by `1 + BACKOFF_JITTER * u`
/// with `u` uniform in `[0, 1)` from the request-keyed PRNG.
pub(crate) const BACKOFF_JITTER: f64 = 0.5;

/// Jittered exponential backoff for retry step `attempt` (1-based),
/// deterministic in `(request id, attempt)`.
pub(crate) fn backoff_s(req_id: u64, attempt: usize) -> f64 {
    let exp = BACKOFF_BASE_S * (1u64 << (attempt - 1).min(10)) as f64;
    let mut rng = Rng::seed_from_u64(req_id ^ 0xBACC_0FF5 ^ (attempt as u64) << 32);
    exp * (1.0 + BACKOFF_JITTER * rng.gen_f64())
}

/// Worker: pop up to `batch_window` waiting jobs → hand them to the
/// batcher, the one request path (a job popped alone is a wave of one)
/// → send exactly one response per job. Exits when shutdown is flagged
/// and the queue is drained.
fn worker_loop(shared: &Shared, queue: &Queue) {
    let window = shared.cfg.batch_window.max(1);
    loop {
        let jobs: Vec<Job> = {
            let mut q = queue.state.lock().expect("queue lock");
            loop {
                if !q.jobs.is_empty() {
                    let take = window.min(q.jobs.len());
                    break q.jobs.drain(..take).collect();
                }
                if q.shutting_down {
                    return;
                }
                q = queue.cv.wait(q).expect("queue lock");
            }
        };
        let (reqs, txs): (Vec<Request>, Vec<_>) = jobs.into_iter().map(|j| (j.req, j.tx)).unzip();
        let (responses, _busy_s) = crate::batch::run_wave_batch(shared, reqs);
        for (tx, response) in txs.into_iter().zip(responses) {
            // A caller that dropped its ticket just doesn't read the
            // response; its terminal state is already counted.
            let _ = tx.send(response);
        }
    }
}

/// Count the terminal outcome and its latency.
pub(crate) fn record_terminal(shared: &Shared, r: &Response) {
    let m = &shared.metrics;
    match &r.outcome {
        Outcome::Completed(_) => m.completed.fetch_add(1, Ordering::Relaxed),
        Outcome::DeadlineExceeded(_) => m.deadline_exceeded.fetch_add(1, Ordering::Relaxed),
        Outcome::Failed { .. } => m.failed.fetch_add(1, Ordering::Relaxed),
    };
    m.record_latency(r.latency_s());
}

/// One routing-and-degradation snapshot: which shards the breaker
/// bank routes around, which tier the health machine is on, and the
/// [`StreamOptions`] those imply. A wave takes one per attempt.
pub(crate) struct Routing {
    pub(crate) routed: BTreeSet<usize>,
    pub(crate) tier: Tier,
    pub(crate) opts: StreamOptions,
}

/// Snapshot the current routing state and derive the stream options
/// of a wave run under `plan`: [`StreamOptions::default`] with the
/// budget set by tier, the forced-CPU set from open breakers, and the
/// shared cache re-bounded per tier.
pub(crate) fn routing_snapshot(shared: &Shared, plan: Option<FaultPlan>) -> Routing {
    let cfg = &shared.cfg;
    let base = StreamOptions::default();
    let routed = shared
        .breakers
        .lock()
        .expect("breaker lock")
        .open_partitions();
    let (tier, budget) = {
        let h = shared.health.lock().expect("health lock");
        (h.tier(), h.effective_budget(base.budget_bytes))
    };
    let mut force_cpu = routed.clone();
    if tier == Tier::CpuOnly {
        force_cpu.extend(0..shared.store.store().partition_count());
    }
    // Degradation shrinks the cache before the service abandons
    // devices: ReducedBudget keeps a smaller working set resident,
    // CpuOnly releases it entirely (forced-CPU answers read no
    // partition files).
    if let Some(cache) = &shared.cache {
        cache.set_budget(match tier {
            Tier::Full => cfg.cache_budget_bytes,
            Tier::ReducedBudget => cfg.cache_budget_bytes / REDUCED_BUDGET_DIVISOR,
            Tier::CpuOnly => 0,
        });
    }
    Routing {
        routed,
        tier,
        opts: StreamOptions {
            budget_bytes: budget,
            plan,
            force_cpu_partitions: force_cpu,
            cache: shared.cache.clone(),
            // A wave reads no deadline here: each member carries its own.
            ..base
        },
    }
}

/// Fold one finished execution into the breaker bank and the health
/// machine, keeping the trip/transition counters in the metrics
/// current. A completion feeds both. A deadline is a terminal contract
/// with the caller, not a fault: no breaker feedback, and the health
/// machine sees only whether the completed prefix recovered.
pub(crate) fn feed_back(shared: &Shared, run: &WaveQueryRun, routed: &BTreeSet<usize>) {
    let struck = match &run.outcome {
        Ok(_) => {
            let recovered = &run.recovered_partitions;
            let mut bank = shared.breakers.lock().expect("breaker lock");
            let (trips0, closes0) = (bank.trips(), bank.closes());
            bank.observe(run.partitions, recovered, routed);
            let m = &shared.metrics;
            m.breaker_trips
                .fetch_add((bank.trips() - trips0) as u64, Ordering::Relaxed);
            m.breaker_closes
                .fetch_add((bank.closes() - closes0) as u64, Ordering::Relaxed);
            !recovered.is_empty()
        }
        Err(partial) => partial.report.recoveries() > 0,
    };
    observe_health(shared, struck);
}

/// Fold one terminal execution into the health machine (`struck`: it
/// needed a recovery action or ended in a storage error) and publish
/// the tier transition it caused, if any, under the same lock: the one
/// site that observes, so the metric counts each transition once.
pub(crate) fn observe_health(shared: &Shared, struck: bool) {
    let mut health = shared.health.lock().expect("health lock");
    let before = health.transitions();
    health.observe(struck);
    let caused = health.transitions() - before;
    shared
        .metrics
        .tier_transitions
        .fetch_add(caused as u64, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QueryAnswer, QuerySpec};
    use tlc_gpu_sim::StorageFaults;
    use tlc_ssb::{LoColumn, QueryId, StreamSpec};

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tlc_serve_service_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_store(tag: &str) -> Arc<SsbStore> {
        Arc::new(
            SsbStore::ingest(&tmp_dir(tag), &StreamSpec::for_rows(7, 12_000, 1_000))
                .expect("ingest"),
        )
    }

    #[test]
    fn serves_a_mixed_batch_with_balanced_books() {
        let store = small_store("mixed");
        let svc = Service::start(Arc::clone(&store), ServeConfig::deterministic());
        let mut tickets = Vec::new();
        for id in 0..6u64 {
            let query = match id % 3 {
                0 => QuerySpec::Flight(QueryId::Q11),
                1 => QuerySpec::PointFilter {
                    column: LoColumn::Discount,
                    value: 4,
                },
                _ => QuerySpec::Scan {
                    column: LoColumn::Quantity,
                },
            };
            tickets.push(svc.submit(Request::new(id, query)).expect("admitted"));
        }
        for t in tickets {
            let r = t.wait();
            assert!(
                matches!(r.outcome, Outcome::Completed(_)),
                "{:?}",
                r.outcome
            );
            assert_eq!(r.attempts, 1);
            assert_eq!(r.backoff_s, 0.0);
        }
        let m = svc.shutdown();
        assert!(m.is_balanced(), "{m:?}");
        assert_eq!(m.completed, 6);
        assert_eq!(m.latency.count, 6);
    }

    #[test]
    fn full_queue_sheds_typed_overload() {
        let store = small_store("shed");
        let cfg = ServeConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServeConfig::deterministic()
        };
        let svc = Service::start(Arc::clone(&store), cfg);
        // Saturate: the worker takes one job, one waits, the rest shed.
        let mut tickets = Vec::new();
        let mut sheds = 0usize;
        for id in 0..16u64 {
            match svc.submit(Request::new(
                id,
                QuerySpec::Scan {
                    column: LoColumn::Tax,
                },
            )) {
                Ok(t) => tickets.push(t),
                Err(Rejected::Overloaded {
                    queue_depth,
                    capacity,
                }) => {
                    assert_eq!(capacity, 1);
                    assert!(queue_depth >= capacity);
                    sheds += 1;
                }
                Err(other) => panic!("unexpected rejection {other:?}"),
            }
        }
        assert!(sheds > 0, "submitting 16 jobs against capacity 1 must shed");
        for t in tickets {
            t.wait();
        }
        let m = svc.shutdown();
        assert!(m.is_balanced(), "{m:?}");
        assert_eq!(m.rejected_overloaded, sheds as u64);
    }

    #[test]
    fn shutdown_drains_admitted_jobs_then_refuses() {
        let store = small_store("drain");
        let svc = Service::start(Arc::clone(&store), ServeConfig::deterministic());
        let t = svc
            .submit(Request::new(
                1,
                QuerySpec::Scan {
                    column: LoColumn::LineNumber,
                },
            ))
            .expect("admitted");
        let m = svc.shutdown();
        assert_eq!(m.completed, 1);
        let r = t.wait();
        assert!(matches!(r.outcome, Outcome::Completed(_)));
    }

    #[test]
    fn deadline_query_terminates_with_partial_progress() {
        let store = small_store("deadline");
        let svc = Service::start(Arc::clone(&store), ServeConfig::deterministic());
        let mut req = Request::new(
            9,
            QuerySpec::Scan {
                column: LoColumn::Revenue,
            },
        );
        req.deadline_device_s = Some(1e-9);
        let r = svc.submit(req).expect("admitted").wait();
        match &r.outcome {
            Outcome::DeadlineExceeded(p) => {
                assert_eq!(p.partitions_completed, 0);
                assert!(p.deadline_device_s <= 1e-9);
            }
            other => panic!("expected deadline, got {other:?}"),
        }
        let m = svc.shutdown();
        assert_eq!(m.deadline_exceeded, 1);
        assert!(m.is_balanced());
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_bounded() {
        let mut total = 0.0;
        for attempt in 1..=MAX_RETRIES {
            let a = backoff_s(42, attempt);
            let b = backoff_s(42, attempt);
            assert_eq!(a, b, "same (id, attempt) must replay the same jitter");
            assert!(a >= BACKOFF_BASE_S * (1 << (attempt - 1)) as f64);
            assert!(a <= BACKOFF_BASE_S * (1 << (attempt - 1)) as f64 * 2.0);
            total += a;
        }
        // Closed-form bound: sum base*2^k*(1+jitter) over the budget.
        let bound = BACKOFF_BASE_S * ((1 << MAX_RETRIES) - 1) as f64 * 2.0;
        assert!(total <= bound);
        // Different ids draw different jitter.
        assert_ne!(backoff_s(1, 1), backoff_s(2, 1));
    }

    #[test]
    fn identical_requests_get_identical_answers_across_workers() {
        let store = small_store("det");
        let spec = QuerySpec::Flight(QueryId::Q11);
        let answer_of = |workers: usize| {
            let cfg = ServeConfig {
                workers,
                ..ServeConfig::deterministic()
            };
            let svc = Service::start(Arc::clone(&store), cfg);
            let tickets: Vec<Ticket> = (0..4)
                .map(|id| svc.submit(Request::new(id, spec.clone())).expect("admit"))
                .collect();
            let answers: Vec<QueryAnswer> = tickets
                .into_iter()
                .map(|t| match t.wait().outcome {
                    Outcome::Completed(out) => out.answer,
                    other => panic!("expected completion, got {other:?}"),
                })
                .collect();
            svc.shutdown();
            answers
        };
        let one = answer_of(1);
        let four = answer_of(4);
        assert_eq!(one, four);
        assert!(one.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn every_terminal_publishes_the_tier_transition_it_causes() {
        let store = small_store("tiers");
        let cfg = ServeConfig {
            workers: 1,
            health: HealthConfig {
                demote_after: 1,
                promote_after: 1,
            },
            ..ServeConfig::deterministic()
        };
        let svc = Service::start(store, cfg);
        let scan = |id| {
            Request::new(
                id,
                QuerySpec::Scan {
                    column: LoColumn::Quantity,
                },
            )
        };

        // A torn partition recovers: one struck completion demotes.
        let mut drill = scan(0);
        drill.plan = Some(FaultPlan {
            storage: StorageFaults {
                truncate_at_partition: Some(1),
                ..StorageFaults::default()
            },
            ..FaultPlan::seeded(5)
        });
        let r = svc.submit(drill).expect("admitted").wait();
        assert!(matches!(r.outcome, Outcome::Completed(_)), "{r:?}");
        assert_eq!(svc.tier(), Tier::ReducedBudget);

        // A scan cut at 0/N recovered nothing: one clean deadline
        // promotes, and that transition reaches the metric too.
        let mut cut = scan(1);
        cut.deadline_device_s = Some(1e-12);
        let r = svc.submit(cut).expect("admitted").wait();
        assert!(matches!(r.outcome, Outcome::DeadlineExceeded(_)), "{r:?}");
        assert_eq!(svc.tier(), Tier::Full);

        let m = svc.shutdown();
        assert!(m.is_balanced(), "{m:?}");
        assert_eq!(m.tier_transitions, 2);
    }
}
