//! Open-loop workload generation and tail-latency reporting.
//!
//! An **open-loop** generator fires requests on a Poisson arrival
//! clock regardless of whether earlier requests finished — the
//! arrival pattern that actually produces overload, unlike a
//! closed-loop "wait for the answer, then ask again" driver whose
//! offered load self-throttles to the service's capacity.
//!
//! Everything is measured in *simulated* time, in three phases:
//!
//! 1. **Primitives** — the workload's cost basis is memoized per
//!    *primitive*, not per request: each distinct request shape is run
//!    once, solo, through a singleton wave
//!    ([`tlc_ssb::run_wave_streamed`]) — a flight for its fused
//!    kernels' device time (inline decode included), a scan of each
//!    column the mix touches for its scalar launch and its cold/warm
//!    storage read (warm = through a [`PartitionCache`] sized by
//!    [`LoadgenConfig::cache_mb`]). A point filter and a scan over the
//!    same column price identically (one filter in the same launch), so
//!    a handful of singleton runs prices every distinct request — which
//!    is what lets one run scale to millions of requests without
//!    millions of executions.
//! 2. **Wave queue model** — a deterministic virtual-time simulation
//!    replays the arrival sequence against
//!    [`LoadgenConfig::servers`] lanes with the live service's
//!    admission bound and its shared-scan batching rule: when a lane
//!    frees, it takes up to [`LoadgenConfig::batch_window`] waiting
//!    jobs as one wave (arrivals at the dispatch instant join the
//!    wave). A member's service time is its *attributed* wave cost, by
//!    the real wave executor's rule: each consumed column's read
//!    divided by its consumer count, a scalar's launch divided by the
//!    scalar members on its column, a flight's own device time whole.
//!    The lane stays busy for the wave's union cost (a shared launch
//!    is priced at the one-member launch: the further members' work is
//!    in-register). A batching-off control pass (window 1) over the
//!    same arrivals yields [`LoadgenReport::p50_batch_speedup`].
//!    Deadline-carrying requests are conservatively priced solo
//!    (sharing would only make them cheaper); their terminal kind comes
//!    from a memoized singleton run with the same deadline.
//! 3. **Real-service prefix** — the first requests (up to 96) also run
//!    through a real [`Service`] in fixed-composition waves, so the
//!    artifact carries *real* batching counters (`batched_queries`,
//!    `shared_decodes`, `launches_saved`), real cache counters, and a
//!    balanced set of books, all byte-reproducible.
//!
//! Splitting measurement from queueing keeps the reported
//! p50/p99/p999 bit-identical across runs and host thread counts —
//! real thread interleaving never leaks into the artifact — while
//! still exercising the full service path for the prefix.

use std::collections::VecDeque;
use std::sync::Arc;

use tlc_profile::{Json, LatencyHistogram, LatencySummary};
use tlc_rng::Rng;
use tlc_ssb::{
    run_wave_streamed, LoColumn, QueryId, SsbStore, StreamOptions, WaveQuery, WaveQueryRun,
    WaveSpec,
};
use tlc_store::{CacheStats, PartitionCache};

use crate::metrics::{cache_stats_json, MetricsSnapshot};
use crate::service::{ServeConfig, Service};
use crate::{QuerySpec, Request};

/// Workload class weights (any non-negative integers; all zero falls
/// back to scans only).
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// SSB flight-1 queries (q1.1–q1.3).
    pub flight: u32,
    /// Point filters on low-cardinality columns.
    pub point: u32,
    /// Full-column scans.
    pub scan: u32,
}

impl Default for Mix {
    fn default() -> Self {
        Mix {
            flight: 2,
            point: 5,
            scan: 3,
        }
    }
}

/// Load-generator knobs.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// PRNG seed for arrivals and the workload mix.
    pub seed: u64,
    /// Requests to generate.
    pub requests: usize,
    /// Offered arrival rate, queries per simulated second.
    pub arrival_rate_qps: f64,
    /// Virtual service lanes in the queue model (the live service's
    /// worker count).
    pub servers: usize,
    /// Admission bound in the queue model (the live service's
    /// `queue_capacity`).
    pub queue_capacity: usize,
    /// Shared-scan batch window in the queue model and the prefix
    /// service ([`ServeConfig::batch_window`]). `0` or `1` disables
    /// batching; `≥ 2` also runs the batching-off control pass, so the
    /// artifact carries [`LoadgenReport::p50_batch_speedup`].
    pub batch_window: usize,
    /// Device-time budget attached to every request (`None`: no
    /// deadlines in the workload).
    pub deadline_device_s: Option<f64>,
    /// Class weights.
    pub mix: Mix,
    /// Shared partition-cache budget in MiB for warm storage pricing
    /// and the prefix service (`0`: caching off). When on, the
    /// artifact also carries the `service_nocache` row and the
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
            mix: Mix::default(),
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
    /// Requests shed by the admission bound in the queue model.
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
    /// Sojourn latency (queue wait + attributed service) over admitted
    /// terminals of the batching-on model — the live configuration.
    pub latency: LatencySummary,
    /// Solo (unbatched, cache-warm) service time of every generated
    /// request — the per-request cost basis batching starts from.
    pub service: LatencySummary,
    /// Attributed service time of admitted requests under batching —
    /// what each member actually paid after sharing reads and scalar
    /// launches.
    pub service_batched: LatencySummary,
    /// Per-class sojourn latency (batching-on model).
    pub per_class: Vec<ClassReport>,
    /// Sojourn latency of the batching-off control pass over the same
    /// arrivals (`None` when `batch_window` ≤ 1 — there is nothing to
    /// compare against).
    pub latency_nobatch: Option<LatencySummary>,
    /// `latency_nobatch.p50 / latency.p50` — how much faster the
    /// median request got because waves load each partition once and
    /// answer the scalars of a column in one launch.
    pub p50_batch_speedup: Option<f64>,
    /// Solo service time priced against cold storage for every
    /// generated request (`None` when `cache_mb` is 0 and there is
    /// nothing to compare against).
    pub service_nocache: Option<LatencySummary>,
    /// `service_nocache.p50 / service.p50` — how much faster the
    /// median query got because compressed partitions stayed resident.
    pub p50_service_speedup: Option<f64>,
    /// Shared-cache counters at the end of the real-service prefix.
    pub cache: Option<CacheStats>,
    /// Final service books of the real-service prefix (the
    /// exactly-one-response invariant holds under batching too; `tlc
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
    let total_w = (cfg.mix.flight + cfg.mix.point + cfg.mix.scan).max(1);
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
            let (class, query) = if draw < cfg.mix.flight {
                (
                    "flight",
                    QuerySpec::Flight(FLIGHT1[rng.bounded_u64(FLIGHT1.len() as u64) as usize]),
                )
            } else if draw < cfg.mix.flight + cfg.mix.point {
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

/// Which memoized solo price a request resolves to: a flight runs its
/// own fused kernels; every scalar over a column prices like a scan of
/// it (one filter in the same launch).
#[derive(Clone, Copy, PartialEq)]
enum SpecKey {
    Flight(QueryId),
    Col(LoColumn),
}

/// Terminal kind of a memoized solo run.
#[derive(Clone, Copy, PartialEq)]
enum Terminal {
    Completed,
    Deadline,
}

/// The workload's memoized cost basis.
struct Primitives {
    /// Modelled storage-read seconds of each column the workload
    /// touches, `[cold, warm]` (equal when caching is off).
    io: Vec<(LoColumn, [f64; 2])>,
    /// Solo simulated device seconds per spec key: a flight's fused
    /// kernels, a column's one-member scalar launch.
    device: Vec<(SpecKey, f64)>,
    /// Solo `(service_s, terminal)` per spec key under the workload's
    /// deadline (empty when the workload carries none).
    deadline: Vec<(SpecKey, (f64, Terminal))>,
}

fn spec_key(q: &QuerySpec) -> SpecKey {
    match q {
        QuerySpec::Flight(id) => SpecKey::Flight(*id),
        QuerySpec::PointFilter { column, .. } | QuerySpec::Scan { column } => SpecKey::Col(*column),
    }
}

fn spec_cols(q: &QuerySpec) -> &[LoColumn] {
    match q {
        QuerySpec::Flight(id) => id.columns(),
        QuerySpec::PointFilter { column, .. } | QuerySpec::Scan { column } => {
            std::slice::from_ref(column)
        }
    }
}

impl Primitives {
    fn io_s(&self, c: LoColumn, warm: bool) -> f64 {
        let priced = self.io.iter().find(|(cc, _)| *cc == c);
        priced.expect("every workload column was measured").1[usize::from(warm)]
    }

    fn device_s(&self, key: SpecKey) -> f64 {
        let priced = self.device.iter().find(|(k, _)| *k == key);
        priced.expect("every workload spec was measured").1
    }

    /// Solo service time: the request's own device time plus every
    /// column read at full price.
    fn solo_s(&self, q: &QuerySpec, warm: bool) -> f64 {
        let io = spec_cols(q).iter().map(|&c| self.io_s(c, warm));
        self.device_s(spec_key(q)) + io.sum::<f64>()
    }

    /// Solo price and terminal kind of one request (deadline-aware).
    fn solo_price(&self, req: &Request, warm: bool) -> (f64, Terminal) {
        if req.deadline_device_s.is_some() {
            let key = spec_key(&req.query);
            let (s, term) = self
                .deadline
                .iter()
                .find(|(k, _)| *k == key)
                .expect("every deadline spec was memoized")
                .1;
            return match term {
                // A run that beat its deadline pays normal solo price
                // (the memoized figure is the warm one).
                Terminal::Completed if !warm => (self.solo_s(&req.query, false), term),
                _ => (s, term),
            };
        }
        (self.solo_s(&req.query, warm), Terminal::Completed)
    }
}

/// Price the workload's primitives with singleton waves: one scan per
/// column (cold, then warm through the cache), one run per flight, one
/// run per spec key under the workload's deadline.
fn measure_primitives(store: &SsbStore, gen: &[GenRequest], cfg: &LoadgenConfig) -> Primitives {
    // The distinct request shapes, and the columns they read in
    // LoColumn::ALL order, so that the cache warm-up sequence — and
    // therefore every warm price — is independent of the mix.
    let mut keys: Vec<SpecKey> = Vec::new();
    let mut read: Vec<LoColumn> = Vec::new();
    for g in gen {
        let key = spec_key(&g.req.query);
        if !keys.contains(&key) {
            keys.push(key);
            read.extend(spec_cols(&g.req.query));
        }
    }
    let need_cols = LoColumn::ALL.iter().copied().filter(|c| read.contains(c));
    let need_cols: Vec<LoColumn> = need_cols.collect();

    let cache = (cfg.cache_mb > 0).then(|| Arc::new(PartitionCache::new(cfg.cache_mb << 20)));
    let cold_opts = StreamOptions::default();
    let warm_opts = StreamOptions {
        cache: cache.clone(),
        ..StreamOptions::default()
    };
    let singleton = |key: SpecKey, deadline: Option<f64>, opts: &StreamOptions| -> WaveQueryRun {
        let spec = match key {
            SpecKey::Flight(id) => WaveSpec::Flight(id),
            SpecKey::Col(column) => WaveSpec::Scalar {
                column,
                filter: None,
            },
        };
        let member = WaveQuery {
            spec,
            deadline_device_s: deadline,
        };
        run_wave_streamed(store, &[member], opts)
            .expect("clean store prices without storage errors")
            .queries
            .remove(0)
    };

    let mut io = Vec::with_capacity(need_cols.len());
    let mut device = Vec::with_capacity(need_cols.len() + keys.len());
    for &c in &need_cols {
        let cold = singleton(SpecKey::Col(c), None, &cold_opts);
        let warm_s = if cache.is_some() {
            let _populate = singleton(SpecKey::Col(c), None, &warm_opts);
            singleton(SpecKey::Col(c), None, &warm_opts).io_s
        } else {
            cold.io_s
        };
        io.push((c, [cold.io_s, warm_s]));
        // Device time is the same wherever the bytes came from.
        device.push((SpecKey::Col(c), cold.device_s));
    }
    for &key in keys.iter().filter(|k| matches!(k, SpecKey::Flight(_))) {
        device.push((key, singleton(key, None, &warm_opts).device_s));
    }

    let mut deadline = Vec::new();
    for &key in keys.iter().filter(|_| cfg.deadline_device_s.is_some()) {
        let run = singleton(key, cfg.deadline_device_s, &warm_opts);
        let priced = match &run.outcome {
            Ok(_) => (run.device_s + run.io_s, Terminal::Completed),
            // Mirrors `Response::latency_s`: a deadline cut spent its
            // attributed device budget; storage reads of the
            // unfinished tail are not billed.
            Err(partial) => (partial.device_s, Terminal::Deadline),
        };
        deadline.push((key, priced));
    }

    Primitives {
        io,
        device,
        deadline,
    }
}

/// Everything one queue-model pass tallies.
struct ModelOut {
    sojourn: LatencyHistogram,
    service_attr: LatencyHistogram,
    per_class: Vec<(&'static str, LatencyHistogram)>,
    rejected_overloaded: usize,
    completed: usize,
    deadline_exceeded: usize,
    last_finish: f64,
}

impl ModelOut {
    fn new() -> ModelOut {
        ModelOut {
            sojourn: LatencyHistogram::new(),
            service_attr: LatencyHistogram::new(),
            per_class: vec![
                ("flight", LatencyHistogram::new()),
                ("point", LatencyHistogram::new()),
                ("scan", LatencyHistogram::new()),
            ],
            rejected_overloaded: 0,
            completed: 0,
            deadline_exceeded: 0,
            last_finish: 0.0,
        }
    }
}

/// Price one dispatched wave with the real executor's attribution rule
/// and record each member's sojourn; returns the lane-occupancy span
/// (the wave's union cost).
fn price_wave(
    gen: &[GenRequest],
    prims: &Primitives,
    wave: &[usize],
    start: f64,
    out: &mut ModelOut,
) -> f64 {
    let mut record = |j: usize, service_s: f64, term: Terminal| {
        let sojourn = (start - gen[j].arrival_s) + service_s;
        out.sojourn.record(sojourn);
        out.service_attr.record(service_s);
        if let Some((_, h)) = out.per_class.iter_mut().find(|(c, _)| *c == gen[j].class) {
            h.record(sojourn);
        }
        match term {
            Terminal::Completed => out.completed += 1,
            Terminal::Deadline => out.deadline_exceeded += 1,
        }
    };

    // Deadline-carrying members are priced solo (conservative: shares
    // would only make them cheaper) and do not join the shared pass.
    let (shared, solo): (Vec<usize>, Vec<usize>) = wave
        .iter()
        .copied()
        .partition(|&j| gen[j].req.deadline_device_s.is_none());
    let mut span = 0.0f64;
    for j in solo {
        let (s, term) = prims.solo_price(&gen[j].req, true);
        span += s;
        record(j, s, term);
    }

    // Dedup: one execution per distinct query, first-seen order — the
    // live batcher's rule, so duplicates pay the distinct member's
    // attributed price.
    let mut distinct: Vec<&QuerySpec> = Vec::new();
    for &j in &shared {
        if !distinct.contains(&&gen[j].req.query) {
            distinct.push(&gen[j].req.query);
        }
    }
    // Per column, over distinct members: everyone who reads it, and the
    // scalar members one launch answers.
    let consumers: Vec<(LoColumn, usize, usize)> = LoColumn::ALL
        .iter()
        .filter_map(|&c| {
            let readers = distinct.iter().filter(|q| spec_cols(q).contains(&c));
            let (all, scalars) = readers.fold((0, 0), |(all, scalars), q| {
                let scalar = !matches!(q, QuerySpec::Flight(_));
                (all + 1, scalars + usize::from(scalar))
            });
            (all > 0).then_some((c, all, scalars))
        })
        .collect();
    let counts = |c: LoColumn| {
        let counted = consumers.iter().find(|(cc, _, _)| *cc == c);
        counted.expect("consumed column counted")
    };
    // Lane occupancy: the union read once, one launch per column with
    // scalar members, every distinct flight's own kernels.
    for &(c, _, scalars) in &consumers {
        span += prims.io_s(c, true);
        if scalars > 0 {
            span += prims.device_s(SpecKey::Col(c));
        }
    }
    for q in distinct
        .iter()
        .filter(|q| matches!(q, QuerySpec::Flight(_)))
    {
        span += prims.device_s(spec_key(q));
    }
    // Attributed member price, the executor's fold rule: each consumed
    // column's read over its consumers, a scalar's launch over the
    // scalar members of its column, a flight's device time whole.
    let attributed: Vec<f64> = distinct
        .iter()
        .map(|q| {
            let io: f64 = spec_cols(q)
                .iter()
                .map(|&c| prims.io_s(c, true) / counts(c).1 as f64)
                .sum();
            let launch_members = match spec_key(q) {
                SpecKey::Flight(_) => 1,
                SpecKey::Col(c) => counts(c).2,
            };
            io + prims.device_s(spec_key(q)) / launch_members as f64
        })
        .collect();
    for &j in &shared {
        let idx = distinct
            .iter()
            .position(|q| *q == &gen[j].req.query)
            .expect("member's query is in the distinct set");
        record(j, attributed[idx], Terminal::Completed);
    }
    span
}

/// Dispatch every wave that would start at or before `now` (strictly
/// before when `inclusive` is false — used so an arrival at exactly
/// the dispatch instant joins the wave, the arrivals-first tie rule).
#[allow(clippy::too_many_arguments)]
fn dispatch_until(
    now: f64,
    inclusive: bool,
    window: usize,
    gen: &[GenRequest],
    prims: &Primitives,
    lanes: &mut [f64],
    waiting: &mut VecDeque<usize>,
    out: &mut ModelOut,
) {
    while let Some(&head) = waiting.front() {
        let (lane, free) = lanes
            .iter()
            .copied()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least one lane");
        let start = free.max(gen[head].arrival_s);
        if start > now || (!inclusive && start >= now) {
            break;
        }
        let mut wave: Vec<usize> = Vec::new();
        while wave.len() < window {
            match waiting.front() {
                Some(&j) if gen[j].arrival_s <= start => {
                    wave.push(j);
                    waiting.pop_front();
                }
                _ => break,
            }
        }
        let span = price_wave(gen, prims, &wave, start, out);
        lanes[lane] = start + span;
        out.last_finish = out.last_finish.max(start + span);
    }
}

/// The deterministic virtual-time wave queue: `servers` lanes, FIFO
/// waiting line with the live admission bound, a freed lane takes up
/// to `window` waiting jobs as one wave. `window` 1 is exactly the
/// unbatched k-server FIFO.
fn simulate_waves(
    gen: &[GenRequest],
    prims: &Primitives,
    servers: usize,
    capacity: usize,
    window: usize,
) -> ModelOut {
    let window = window.max(1);
    let mut lanes = vec![0.0f64; servers.max(1)];
    let mut waiting: VecDeque<usize> = VecDeque::new();
    let mut out = ModelOut::new();
    for (j, g) in gen.iter().enumerate() {
        // Waves that departed before this arrival form without it…
        dispatch_until(
            g.arrival_s,
            false,
            window,
            gen,
            prims,
            &mut lanes,
            &mut waiting,
            &mut out,
        );
        if waiting.len() >= capacity {
            out.rejected_overloaded += 1;
            continue;
        }
        waiting.push_back(j);
        // …and a wave departing at this instant takes it along.
        dispatch_until(
            g.arrival_s,
            true,
            window,
            gen,
            prims,
            &mut lanes,
            &mut waiting,
            &mut out,
        );
    }
    dispatch_until(
        f64::INFINITY,
        true,
        window,
        gen,
        prims,
        &mut lanes,
        &mut waiting,
        &mut out,
    );
    out
}

/// How many leading requests also run through a real [`Service`] so
/// the artifact carries real (and reproducible) batching counters.
const PREFIX_REQUESTS: usize = 96;

/// Run the generator against `store` and report tail latency.
pub fn run_loadgen(store: &Arc<SsbStore>, cfg: &LoadgenConfig) -> LoadgenReport {
    let gen = generate(cfg);
    let prims = measure_primitives(store, &gen, cfg);

    // Solo cost basis over every generated request: warm ("service"
    // row) and cold ("service_nocache" row).
    let mut warm_all = LatencyHistogram::new();
    let mut cold_all = LatencyHistogram::new();
    for g in &gen {
        warm_all.record(prims.solo_price(&g.req, true).0);
        cold_all.record(prims.solo_price(&g.req, false).0);
    }
    let service = warm_all.summary();
    let service_nocache = (cfg.cache_mb > 0).then(|| cold_all.summary());
    let p50_service_speedup = service_nocache
        .as_ref()
        .map(|nc| nc.p50 / service.p50.max(f64::MIN_POSITIVE));

    // The wave queue model, and its batching-off control when batching
    // is on.
    let on = simulate_waves(
        &gen,
        &prims,
        cfg.servers,
        cfg.queue_capacity,
        cfg.batch_window,
    );
    let off = (cfg.batch_window > 1)
        .then(|| simulate_waves(&gen, &prims, cfg.servers, cfg.queue_capacity, 1));
    let latency = on.sojourn.summary();
    let latency_nobatch = off.map(|o| o.sojourn.summary());
    let p50_batch_speedup = latency_nobatch
        .as_ref()
        .map(|nb| nb.p50 / latency.p50.max(f64::MIN_POSITIVE));

    // Real-service prefix in fixed-composition waves: real batching
    // and cache counters, balanced books, byte-reproducible.
    let prefix: Vec<Request> = gen
        .iter()
        .take(PREFIX_REQUESTS)
        .map(|g| g.req.clone())
        .collect();
    let svc = Service::start(
        Arc::clone(store),
        ServeConfig {
            queue_capacity: prefix.len().max(1),
            cache_budget_bytes: cfg.cache_mb << 20,
            batch_window: cfg.batch_window,
            ..ServeConfig::deterministic()
        },
    );
    let _responses = svc.execute_waves(prefix, cfg.batch_window);
    let metrics = svc.shutdown();

    let terminals = on.completed + on.deadline_exceeded;
    let makespan = on.last_finish.max(f64::EPSILON);
    LoadgenReport {
        requests: cfg.requests,
        offered_qps: cfg.arrival_rate_qps,
        batch_window: cfg.batch_window,
        rejected_overloaded: on.rejected_overloaded,
        completed: on.completed,
        deadline_exceeded: on.deadline_exceeded,
        failed: 0,
        saturation_qps: terminals as f64 / makespan,
        latency,
        service,
        service_batched: on.service_attr.summary(),
        per_class: on
            .per_class
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
    use tlc_ssb::StreamSpec;

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
    }

    #[test]
    fn overload_sheds_and_waits_grow_with_offered_load() {
        let store = small_store("overload");
        let slow = run_loadgen(
            &store,
            &LoadgenConfig {
                requests: 32,
                arrival_rate_qps: 0.01, // idle: no queueing
                queue_capacity: 2,
                ..LoadgenConfig::default()
            },
        );
        let fast = run_loadgen(
            &store,
            &LoadgenConfig {
                requests: 32,
                arrival_rate_qps: 1e6, // instantaneous burst
                queue_capacity: 2,
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
                arrival_rate_qps: 1e5, // saturating: waves fill the window
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
        // member cheaper. (The median member need not share anything:
        // a flight decodes inline at its solo price.)
        assert!(
            r.service_batched.p50 <= r.service.p50 && r.service_batched.mean < r.service.mean,
            "batched {:?} vs solo {:?}",
            r.service_batched,
            r.service
        );
        // The real-service prefix exercised actual waves.
        assert!(r.metrics.batched_queries > 0, "{:?}", r.metrics);
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
