//! Open-loop workload generation and tail-latency reporting.
//!
//! An **open-loop** generator fires requests on a Poisson arrival
//! clock regardless of whether earlier requests finished — the
//! arrival pattern that actually produces overload, unlike a
//! closed-loop "wait for the answer, then ask again" driver whose
//! offered load self-throttles to the service's capacity.
//!
//! Everything is measured in *simulated* time, and every request runs
//! through the service's own code:
//!
//! 1. **Arrivals** — a seeded Poisson clock and a fixed workload mix,
//!    flight : point : scan = 2 : 5 : 3 ([`LoadgenConfig::seed`]).
//! 2. **Driver** — one pass of the arrival sequence through a
//!    service's thread-free state, in virtual time. The only thing a
//!    live [`crate::Service`] leaves to the OS is which worker pops the
//!    queue when; the driver decides that instead. Each arrival passes
//!    the service's admission gate against the driver's waiting line;
//!    when one of [`LoadgenConfig::servers`] lanes frees, it takes up
//!    to [`LoadgenConfig::batch_window`] waiting jobs (arrivals at the
//!    dispatch instant join) and hands them to the batcher a worker
//!    thread would have called — routing, dedup, the wave executor, the
//!    retry ladder, breaker and health feedback, the cache and every
//!    counter included. A request's sojourn is its queue wait plus its
//!    [`Response::latency_s`]; the lane stays busy for the simulated
//!    seconds the batcher reports for the executions it performed. A
//!    batching-off control is the same pass under a window of 1 and
//!    yields [`LoadgenReport::p50_batch_speedup`].
//! 3. **Report** — the pass's percentiles, and its final
//!    [`MetricsSnapshot`] for every counter: the books cover the whole
//!    run. The `service` rows are each generated request's solo cost,
//!    measured by running every distinct `(query, deadline)` alone
//!    through the same batcher (warm: a second run through the cache;
//!    `service_nocache`: cache off).
//!
//! `tlc-serve` reads no wall clock (breaker cooldowns tick in queries,
//! backoff is simulated seconds), so with the pop order fixed by the
//! driver the reported p50/p99/p999 and counters are bit-identical
//! across runs and host thread counts.

use std::collections::VecDeque;
use std::sync::Arc;

use tlc_profile::{Json, LatencyHistogram, LatencySummary};
use tlc_rng::Rng;
use tlc_ssb::{LoColumn, QueryId, SsbStore};
use tlc_store::CacheStats;

use crate::batch::{dedup_key, run_wave_batch, DedupKey};
use crate::metrics::{cache_stats_json, MetricsSnapshot};
use crate::service::{ServeConfig, Shared};
use crate::{QuerySpec, Request, Response};

/// Workload class weight of SSB flight-1 queries (q1.1–q1.3).
const FLIGHT_WEIGHT: u32 = 2;
/// Workload class weight of point filters on low-cardinality columns.
const POINT_WEIGHT: u32 = 5;
/// Workload class weight of full-column scans.
const SCAN_WEIGHT: u32 = 3;

/// Load-generator knobs.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// PRNG seed for arrivals and the workload mix.
    pub seed: u64,
    /// Requests to generate.
    pub requests: usize,
    /// Offered arrival rate, queries per simulated second.
    pub arrival_rate_qps: f64,
    /// Virtual service lanes ([`ServeConfig::workers`]).
    pub servers: usize,
    /// Admission bound ([`ServeConfig::queue_capacity`]).
    pub queue_capacity: usize,
    /// Shared-scan batch window ([`ServeConfig::batch_window`]). `0`
    /// or `1` disables batching; `≥ 2` also runs the batching-off
    /// control pass, so the artifact carries
    /// [`LoadgenReport::p50_batch_speedup`].
    pub batch_window: usize,
    /// Device-time budget attached to every request (`None`: no
    /// deadlines in the workload).
    pub deadline_device_s: Option<f64>,
    /// Shared partition-cache budget in MiB
    /// ([`ServeConfig::cache_budget_bytes`]; `0`: caching off). When
    /// on, the artifact also carries the `service_nocache` row and the
    /// `p50_service_speedup` ratio — the repeated-query win of
    /// keeping compressed partitions resident.
    pub cache_mb: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            seed: 7,
            requests: 200,
            arrival_rate_qps: 50.0,
            servers: 2,
            queue_capacity: 16,
            batch_window: 4,
            deadline_device_s: None,
            cache_mb: 64,
        }
    }
}

/// Latency summary of one workload class.
#[derive(Debug, Clone)]
pub struct ClassReport {
    /// Class label ("flight", "point", "scan").
    pub class: String,
    /// Sojourn-latency summary of the class's admitted terminals.
    pub latency: LatencySummary,
}

/// The full report of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Requests generated.
    pub requests: usize,
    /// Offered arrival rate (config echo).
    pub offered_qps: f64,
    /// Shared-scan batch window (config echo).
    pub batch_window: usize,
    /// Requests shed by the admission bound.
    pub rejected_overloaded: usize,
    /// Admitted requests that completed.
    pub completed: usize,
    /// Admitted requests cut by their deadline.
    pub deadline_exceeded: usize,
    /// Admitted requests that exhausted retries.
    pub failed: usize,
    /// Terminals per simulated second of makespan — the saturation
    /// throughput the service actually sustained.
    pub saturation_qps: f64,
    /// Sojourn latency (queue wait + [`Response::latency_s`]) over the
    /// admitted terminals of the configured pass.
    pub latency: LatencySummary,
    /// Solo (unbatched, cache-warm) service time of every generated
    /// request — the per-request cost basis batching starts from.
    pub service: LatencySummary,
    /// Service time of admitted requests under batching — what each
    /// member actually paid after sharing reads and launches
    /// (the pass's `metrics.latency`).
    pub service_batched: LatencySummary,
    /// Per-class sojourn latency of the configured pass.
    pub per_class: Vec<ClassReport>,
    /// Sojourn latency of the batching-off control pass over the same
    /// arrivals (`None` when `batch_window` ≤ 1 — there is nothing to
    /// compare against).
    pub latency_nobatch: Option<LatencySummary>,
    /// `latency_nobatch.p50 / latency.p50` — how much faster the
    /// median request got because waves load each partition once and
    /// evaluate it in one launch (two with a join flight).
    pub p50_batch_speedup: Option<f64>,
    /// Solo service time with the cache off for every generated
    /// request (`None` when `cache_mb` is 0 and there is nothing to
    /// compare against).
    pub service_nocache: Option<LatencySummary>,
    /// `service_nocache.p50 / service.p50` — how much faster the
    /// median query got because compressed partitions stayed resident.
    pub p50_service_speedup: Option<f64>,
    /// Shared-cache counters at the end of the configured pass.
    pub cache: Option<CacheStats>,
    /// Final service books of the configured pass, every request in
    /// them; the terminal counts above are read from here (`tlc
    /// loadgen` refuses to write an artifact when this is unbalanced).
    pub metrics: MetricsSnapshot,
}

impl LoadgenReport {
    /// Serialize as the `tlc-serving/v1` bench artifact:
    /// percentile rows keyed by `workload`, latencies in simulated
    /// seconds (lower is better — `scripts/bench_compare` knows).
    pub fn to_json(&self) -> Json {
        let row = |label: &str, s: &LatencySummary| {
            Json::Obj(vec![
                ("workload", Json::Str(label.to_string())),
                ("count", Json::Int(s.count as u64)),
                ("mean", Json::Num(s.mean)),
                ("p50", Json::Num(s.p50)),
                ("p90", Json::Num(s.p90)),
                ("p99", Json::Num(s.p99)),
                ("p999", Json::Num(s.p999)),
            ])
        };
        let mut rows = vec![
            row("all", &self.latency),
            row("service", &self.service),
            row("service_batched", &self.service_batched),
        ];
        for c in &self.per_class {
            rows.push(row(&c.class, &c.latency));
        }
        if let Some(nb) = &self.latency_nobatch {
            rows.push(row("all_nobatch", nb));
        }
        if let Some(nc) = &self.service_nocache {
            rows.push(row("service_nocache", nc));
        }
        let mut fields = vec![
            ("schema", Json::Str("tlc-serving/v1".to_string())),
            ("requests", Json::Int(self.requests as u64)),
            ("offered_qps", Json::Num(self.offered_qps)),
            ("batch_window", Json::Int(self.batch_window as u64)),
            (
                "rejected_overloaded",
                Json::Int(self.rejected_overloaded as u64),
            ),
            ("completed", Json::Int(self.completed as u64)),
            (
                "deadline_exceeded",
                Json::Int(self.deadline_exceeded as u64),
            ),
            ("failed", Json::Int(self.failed as u64)),
            ("saturation_qps", Json::Num(self.saturation_qps)),
            ("batched_queries", Json::Int(self.metrics.batched_queries)),
            ("shared_decodes", Json::Int(self.metrics.shared_decodes)),
            ("launches_saved", Json::Int(self.metrics.launches_saved)),
        ];
        if let Some(c) = &self.cache {
            fields.push(("cache", cache_stats_json(c)));
        }
        if let Some(s) = self.p50_batch_speedup {
            fields.push(("p50_batch_speedup", Json::Num(s)));
        }
        if let Some(s) = self.p50_service_speedup {
            fields.push(("p50_service_speedup", Json::Num(s)));
        }
        fields.push(("rows", Json::Arr(rows)));
        Json::Obj(fields)
    }
}

/// One generated request with its virtual arrival time.
struct GenRequest {
    arrival_s: f64,
    class: &'static str,
    req: Request,
}

/// Deterministically generate the arrival sequence and workload mix.
fn generate(cfg: &LoadgenConfig) -> Vec<GenRequest> {
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0x10AD_6E4E);
    let mut t = 0.0f64;
    let total_w = FLIGHT_WEIGHT + POINT_WEIGHT + SCAN_WEIGHT;
    // Low-cardinality columns where equality filters select something.
    const POINT_COLS: [(LoColumn, i32, i32); 3] = [
        (LoColumn::Discount, 0, 11),
        (LoColumn::Quantity, 1, 51),
        (LoColumn::Tax, 0, 9),
    ];
    const SCAN_COLS: [LoColumn; 4] = [
        LoColumn::Revenue,
        LoColumn::ExtendedPrice,
        LoColumn::Quantity,
        LoColumn::SupplyCost,
    ];
    const FLIGHT1: [QueryId; 3] = [QueryId::Q11, QueryId::Q12, QueryId::Q13];
    (0..cfg.requests)
        .map(|i| {
            // Exponential interarrival (Poisson process).
            let u = rng.gen_f64();
            t += -(1.0 - u).ln() / cfg.arrival_rate_qps.max(1e-9);
            let draw = rng.bounded_u64(total_w as u64) as u32;
            let (class, query) = if draw < FLIGHT_WEIGHT {
                (
                    "flight",
                    QuerySpec::Flight(FLIGHT1[rng.bounded_u64(FLIGHT1.len() as u64) as usize]),
                )
            } else if draw < FLIGHT_WEIGHT + POINT_WEIGHT {
                let (col, lo, hi) = POINT_COLS[rng.bounded_u64(POINT_COLS.len() as u64) as usize];
                (
                    "point",
                    QuerySpec::PointFilter {
                        column: col,
                        value: rng.gen_range(lo..hi),
                    },
                )
            } else {
                (
                    "scan",
                    QuerySpec::Scan {
                        column: SCAN_COLS[rng.bounded_u64(SCAN_COLS.len() as u64) as usize],
                    },
                )
            };
            let mut req = Request::new(i as u64, query);
            req.deadline_device_s = cfg.deadline_device_s;
            GenRequest {
                arrival_s: t,
                class,
                req,
            }
        })
        .collect()
}

/// One pass of the arrival sequence through a service's own state, in
/// virtual time: `cfg.workers` lanes, a FIFO waiting line behind the
/// service's admission gate, and a freed lane handing up to
/// `cfg.batch_window` waiting jobs to the service's batcher. `served`
/// sees every dispatched wave: its members (indices into `gen`), its
/// start and the batcher's responses, member for member. Returns the
/// final books and the instant the last lane fell idle.
fn drive(
    store: &Arc<SsbStore>,
    gen: &[GenRequest],
    cfg: ServeConfig,
    mut served: impl FnMut(&[usize], f64, &[Response]),
) -> (MetricsSnapshot, f64) {
    let shared = Shared::new(Arc::clone(store), cfg);
    let window = shared.cfg.batch_window.max(1);
    let mut lanes = vec![0.0f64; shared.cfg.workers.max(1)];
    let mut waiting: VecDeque<usize> = VecDeque::new();
    let mut last_finish = 0.0f64;
    // After the last arrival, time runs on until the line is empty.
    let arrivals = gen.iter().map(|g| g.arrival_s).chain([f64::INFINITY]);
    for (j, now) in arrivals.enumerate() {
        // Waves that start before this arrival form without it; one
        // that starts at this instant waits for it (arrivals first).
        while let Some(&head) = waiting.front() {
            let (lane, free) = lanes
                .iter()
                .copied()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("at least one lane");
            let start = free.max(gen[head].arrival_s);
            if start >= now {
                break;
            }
            let mut wave: Vec<usize> = Vec::new();
            while wave.len() < window {
                match waiting.front() {
                    Some(&next) if gen[next].arrival_s <= start => {
                        wave.push(next);
                        waiting.pop_front();
                    }
                    _ => break,
                }
            }
            let reqs = wave.iter().map(|&j| gen[j].req.clone()).collect();
            let (responses, busy_s) = run_wave_batch(&shared, reqs);
            lanes[lane] = start + busy_s;
            last_finish = last_finish.max(start + busy_s);
            served(&wave, start, &responses);
        }
        if j < gen.len() && shared.admit(waiting.len(), false).is_ok() {
            waiting.push_back(j);
        }
    }
    (shared.snapshot(), last_finish)
}

/// The service a pass drives: the generator's lanes and admission
/// bound under the given window and cache budget, adaptive feedback
/// pinned off.
fn serve_cfg(cfg: &LoadgenConfig, batch_window: usize, cache_mb: u64) -> ServeConfig {
    ServeConfig {
        workers: cfg.servers,
        queue_capacity: cfg.queue_capacity,
        batch_window,
        cache_budget_bytes: cache_mb << 20,
        ..ServeConfig::deterministic()
    }
}

/// Run the generator against `store` and report tail latency.
pub fn run_loadgen(store: &Arc<SsbStore>, cfg: &LoadgenConfig) -> LoadgenReport {
    let gen = generate(cfg);

    // Solo cost basis over every generated request: each distinct
    // (query, deadline) runs alone through the batcher, twice through
    // a cache (the second run is the warm "service" row) and once with
    // the cache off ("service_nocache").
    let warm = Shared::new(Arc::clone(store), serve_cfg(cfg, 1, cfg.cache_mb));
    let cold = Shared::new(Arc::clone(store), serve_cfg(cfg, 1, 0));
    let alone = |shared: &Shared, req: &Request| {
        let (responses, _busy_s) = run_wave_batch(shared, vec![req.clone()]);
        responses[0].latency_s()
    };
    let mut solo: Vec<(DedupKey, [f64; 2])> = Vec::new();
    let mut warm_all = LatencyHistogram::new();
    let mut cold_all = LatencyHistogram::new();
    for g in &gen {
        let key = dedup_key(&g.req);
        let [warm_s, cold_s] = match solo.iter().find(|(k, _)| *k == key) {
            Some((_, measured)) => *measured,
            None => {
                let _populate = alone(&warm, &g.req);
                let measured = [alone(&warm, &g.req), alone(&cold, &g.req)];
                solo.push((key, measured));
                measured
            }
        };
        warm_all.record(warm_s);
        cold_all.record(cold_s);
    }
    let service = warm_all.summary();
    let service_nocache = (cfg.cache_mb > 0).then(|| cold_all.summary());
    let p50_service_speedup = service_nocache
        .as_ref()
        .map(|nc| nc.p50 / service.p50.max(f64::MIN_POSITIVE));

    // The configured pass, and its batching-off control when batching
    // is on.
    let sojourn_s = |j: usize, start: f64, r: &Response| (start - gen[j].arrival_s) + r.latency_s();
    let mut sojourn = LatencyHistogram::new();
    let mut per_class = [
        ("flight", LatencyHistogram::new()),
        ("point", LatencyHistogram::new()),
        ("scan", LatencyHistogram::new()),
    ];
    let (metrics, last_finish) = drive(
        store,
        &gen,
        serve_cfg(cfg, cfg.batch_window, cfg.cache_mb),
        |wave, start, responses| {
            for (&j, r) in wave.iter().zip(responses) {
                let s = sojourn_s(j, start, r);
                sojourn.record(s);
                if let Some((_, h)) = per_class.iter_mut().find(|(c, _)| *c == gen[j].class) {
                    h.record(s);
                }
            }
        },
    );
    let latency = sojourn.summary();
    let latency_nobatch = (cfg.batch_window > 1).then(|| {
        let mut sojourn = LatencyHistogram::new();
        drive(
            store,
            &gen,
            serve_cfg(cfg, 1, cfg.cache_mb),
            |wave, start, responses| {
                for (&j, r) in wave.iter().zip(responses) {
                    sojourn.record(sojourn_s(j, start, r));
                }
            },
        );
        sojourn.summary()
    });
    let p50_batch_speedup = latency_nobatch
        .as_ref()
        .map(|nb| nb.p50 / latency.p50.max(f64::MIN_POSITIVE));

    LoadgenReport {
        requests: cfg.requests,
        offered_qps: cfg.arrival_rate_qps,
        batch_window: cfg.batch_window,
        rejected_overloaded: metrics.rejected_overloaded as usize,
        completed: metrics.completed as usize,
        deadline_exceeded: metrics.deadline_exceeded as usize,
        failed: metrics.failed as usize,
        saturation_qps: metrics.terminals() as f64 / last_finish.max(f64::EPSILON),
        latency,
        service,
        service_batched: metrics.latency,
        per_class: per_class
            .into_iter()
            .filter(|(_, h)| !h.is_empty())
            .map(|(c, h)| ClassReport {
                class: c.to_string(),
                latency: h.summary(),
            })
            .collect(),
        latency_nobatch,
        p50_batch_speedup,
        service_nocache,
        p50_service_speedup,
        cache: metrics.cache.clone(),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute, Service};
    use tlc_ssb::{StreamOptions, StreamSpec};
    use tlc_store::PartitionCache;

    fn small_store(tag: &str) -> Arc<SsbStore> {
        let dir =
            std::env::temp_dir().join(format!("tlc_serve_loadgen_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Arc::new(SsbStore::ingest(&dir, &StreamSpec::for_rows(3, 12_000, 1_000)).expect("ingest"))
    }

    #[test]
    fn arrivals_are_deterministic_and_mixed() {
        let cfg = LoadgenConfig {
            requests: 64,
            ..LoadgenConfig::default()
        };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.len(), 64);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival_s, y.arrival_s);
            assert_eq!(x.req.query, y.req.query);
        }
        assert!(a.windows(2).all(|w| w[0].arrival_s < w[1].arrival_s));
        for class in ["flight", "point", "scan"] {
            assert!(
                a.iter().any(|g| g.class == class),
                "mix must include {class}"
            );
        }
    }

    #[test]
    fn report_is_reproducible_and_balanced() {
        let store = small_store("repro");
        let cfg = LoadgenConfig {
            requests: 24,
            arrival_rate_qps: 2_000.0,
            queue_capacity: 4,
            ..LoadgenConfig::default()
        };
        let a = run_loadgen(&store, &cfg);
        let b = run_loadgen(&store, &cfg);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.rejected_overloaded, b.rejected_overloaded);
        assert_eq!(a.saturation_qps, b.saturation_qps);
        assert_eq!(a.p50_batch_speedup, b.p50_batch_speedup);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(
            a.completed + a.deadline_exceeded + a.failed + a.rejected_overloaded,
            cfg.requests
        );
        assert!(a.latency.p999 >= a.latency.p50);
        assert!(a.saturation_qps > 0.0);
        assert!(a.metrics.is_balanced(), "{:?}", a.metrics);
        assert_eq!(a.metrics.submitted, cfg.requests as u64);
        assert_eq!(a.service_batched, a.metrics.latency);
    }

    #[test]
    fn overload_sheds_and_waits_grow_with_offered_load() {
        let store = small_store("overload");
        // Window 1: a wave's members pay less device time than they do
        // alone, so with batching on a burst's sojourn can undercut the
        // idle run's. The queue is what is under test here.
        let slow = run_loadgen(
            &store,
            &LoadgenConfig {
                requests: 32,
                arrival_rate_qps: 0.01, // idle: no queueing
                queue_capacity: 2,
                batch_window: 1,
                ..LoadgenConfig::default()
            },
        );
        let fast = run_loadgen(
            &store,
            &LoadgenConfig {
                requests: 32,
                arrival_rate_qps: 1e6, // instantaneous burst
                queue_capacity: 2,
                batch_window: 1,
                ..LoadgenConfig::default()
            },
        );
        assert_eq!(slow.rejected_overloaded, 0);
        assert!(fast.rejected_overloaded > 0, "burst must shed");
        assert!(fast.latency.p99 >= slow.latency.p99);
    }

    #[test]
    fn batching_beats_the_unbatched_control_under_load() {
        let store = small_store("speedup");
        let r = run_loadgen(
            &store,
            &LoadgenConfig {
                requests: 160,
                arrival_rate_qps: 1e6, // saturating: waves fill the window
                ..LoadgenConfig::default()
            },
        );
        let nb = r.latency_nobatch.as_ref().expect("control pass ran");
        let speedup = r.p50_batch_speedup.expect("speedup reported");
        assert!(
            speedup > 1.0,
            "batched p50 {} must beat unbatched p50 {}",
            r.latency.p50,
            nb.p50
        );
        // Sharing never makes a member dearer and makes the average
        // member cheaper: every member of a wave of two or more pays a
        // share of the wave's launch overheads, not its own.
        assert!(
            r.service_batched.p50 <= r.service.p50 && r.service_batched.mean < r.service.mean,
            "batched {:?} vs solo {:?}",
            r.service_batched,
            r.service
        );
        // Under saturation most of the run rode a real wave.
        assert!(
            2 * r.metrics.batched_queries >= r.metrics.completed,
            "{:?}",
            r.metrics
        );
        assert!(r.metrics.shared_decodes > 0, "{:?}", r.metrics);
        assert!(r.metrics.launches_saved > 0, "{:?}", r.metrics);
        assert!(r.metrics.is_balanced(), "{:?}", r.metrics);
    }

    #[test]
    fn window_one_disables_batching_everywhere() {
        let store = small_store("nobatch");
        let r = run_loadgen(
            &store,
            &LoadgenConfig {
                requests: 40,
                arrival_rate_qps: 1e5,
                batch_window: 1,
                ..LoadgenConfig::default()
            },
        );
        assert!(r.latency_nobatch.is_none());
        assert!(r.p50_batch_speedup.is_none());
        assert_eq!(r.metrics.batched_queries, 0);
        assert_eq!(r.metrics.shared_decodes, 0);
        assert_eq!(r.metrics.launches_saved, 0);
        assert!(r.metrics.is_balanced(), "{:?}", r.metrics);
    }

    #[test]
    fn the_driver_is_the_threaded_service_wave_for_wave() {
        let store = small_store("equiv");
        // Duplicates, a scan and a point filter on one column, flights,
        // and one request its deadline cuts.
        let specs = [
            QuerySpec::Scan {
                column: LoColumn::Quantity,
            },
            QuerySpec::PointFilter {
                column: LoColumn::Quantity,
                value: 7,
            },
            QuerySpec::Flight(QueryId::Q11),
            QuerySpec::Scan {
                column: LoColumn::Quantity,
            },
            QuerySpec::PointFilter {
                column: LoColumn::Discount,
                value: 3,
            },
            QuerySpec::Flight(QueryId::Q13),
            QuerySpec::Scan {
                column: LoColumn::Revenue,
            },
        ];
        // Arrivals far faster than service, and a queue that sheds
        // nothing: the replay below has no admission line to shed from.
        let timed = (0..40u64).map(|id| {
            let mut req = Request::new(id, specs[id as usize % specs.len()].clone());
            if id % 11 == 6 {
                req.deadline_device_s = Some(1e-9);
            }
            GenRequest {
                arrival_s: (id + 1) as f64 * 1e-7,
                class: "scan",
                req,
            }
        });
        let gen: Vec<GenRequest> = timed.collect();
        let cfg = ServeConfig {
            workers: 2,
            batch_window: 4,
            cache_budget_bytes: 64 << 20,
            ..ServeConfig::deterministic()
        };

        let mut waves: Vec<Vec<usize>> = Vec::new();
        let mut driven: Vec<(usize, u64, &'static str)> = Vec::new();
        let (books, _) = drive(&store, &gen, cfg.clone(), |wave, _, responses| {
            waves.push(wave.to_vec());
            for (&j, r) in wave.iter().zip(responses) {
                driven.push((j, r.latency_s().to_bits(), r.outcome.label()));
            }
        });
        assert_eq!(driven.len(), gen.len());
        assert!(waves.iter().any(|w| w.len() == 4), "waves fill: {waves:?}");
        assert!(driven.iter().any(|d| d.2 == "deadline"), "{driven:?}");

        // The same waves, one `submit_many` each, through one worker
        // thread: it pops exactly what the driver's lane took.
        let svc = Service::start(Arc::clone(&store), ServeConfig { workers: 1, ..cfg });
        let mut threaded = Vec::new();
        for wave in &waves {
            let tickets = svc.submit_many(wave.iter().map(|&j| gen[j].req.clone()).collect());
            for (&j, ticket) in wave.iter().zip(tickets) {
                let r = ticket.expect("admitted").wait();
                threaded.push((j, r.latency_s().to_bits(), r.outcome.label()));
            }
        }
        assert_eq!(driven, threaded);
        assert_eq!(books, svc.shutdown());
    }

    #[test]
    fn an_idle_lane_charges_exactly_what_execute_reports() {
        let store = small_store("idle");
        let cfg = LoadgenConfig {
            requests: 16,
            arrival_rate_qps: 0.01, // idle: no queueing
            servers: 1,
            batch_window: 1,
            ..LoadgenConfig::default()
        };
        let gen = generate(&cfg);
        let mut sojourns = vec![0u64; gen.len()];
        let serve = serve_cfg(&cfg, cfg.batch_window, cfg.cache_mb);
        drive(&store, &gen, serve, |wave, start, responses| {
            assert_eq!(wave.len(), 1);
            let wait_s = start - gen[wave[0]].arrival_s;
            sojourns[wave[0]] = (wait_s + responses[0].latency_s()).to_bits();
        });

        // The same requests in the same order over a cache of the same
        // budget: first touches miss, later ones hit, as in the pass.
        let opts = StreamOptions {
            cache: Some(Arc::new(PartitionCache::new(cfg.cache_mb << 20))),
            ..StreamOptions::default()
        };
        let direct = gen.iter().map(|g| {
            let out = execute(&store, &g.req.query, &opts).expect("clean store");
            (out.device_s + out.io_s).to_bits()
        });
        assert_eq!(sojourns, direct.collect::<Vec<u64>>());
    }

    #[test]
    fn deadlines_cut_on_the_real_path_and_the_books_show_it() {
        let store = small_store("deadline");
        let scan = QuerySpec::Scan {
            column: LoColumn::Revenue,
        };
        let full = execute(&store, &scan, &StreamOptions::default()).expect("scan");
        let cfg = LoadgenConfig {
            requests: 48,
            arrival_rate_qps: 1e7, // a burst: waves fill, the queue sheds
            // Half a solo scan: flights and lone scalars are cut part
            // way, scalars that share enough launches finish.
            deadline_device_s: Some(full.device_s * 0.5),
            ..LoadgenConfig::default()
        };
        let r = run_loadgen(&store, &cfg);
        assert!(r.deadline_exceeded > 0, "{:?}", r.metrics);
        assert!(r.completed > 0, "{:?}", r.metrics);
        assert_eq!(r.deadline_exceeded as u64, r.metrics.deadline_exceeded);
        assert_eq!(
            r.completed + r.deadline_exceeded + r.failed + r.rejected_overloaded,
            cfg.requests
        );
        assert!(r.metrics.is_balanced(), "{:?}", r.metrics);
    }

    #[test]
    fn json_artifact_has_percentile_rows() {
        let store = small_store("json");
        let r = run_loadgen(
            &store,
            &LoadgenConfig {
                requests: 12,
                ..LoadgenConfig::default()
            },
        );
        let rendered = r.to_json().render();
        for key in [
            "tlc-serving/v1",
            "\"workload\": \"all\"",
            "\"workload\": \"service\"",
            "\"workload\": \"service_batched\"",
            "\"workload\": \"all_nobatch\"",
            "\"p999\"",
            "\"saturation_qps\"",
            "\"batch_window\"",
            "\"batched_queries\"",
            "\"shared_decodes\"",
            "\"launches_saved\"",
            "\"p50_batch_speedup\"",
        ] {
            assert!(rendered.contains(key), "missing {key} in:\n{rendered}");
        }
    }
}
