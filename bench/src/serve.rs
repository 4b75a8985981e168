//! `serve_mixed`: a closed loop through the real `Service`. One client
//! offers a round of 32 requests with `submit_many` and waits for every
//! response, in submission order, before it offers the next round.
//!
//! The service is `ServeConfig::deterministic()` with one worker, a queue
//! of 64, `batch_window` 8 and a cache larger than the store; the
//! simulator runs on one thread too (`main.rs`), so the worker is the only
//! busy thread. A round lands under one queue lock and the worker drains
//! it FIFO in windows of 8, so wave composition is the same on every run;
//! once the warm-up round has filled the cache the modelled latencies
//! repeat exactly.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use tlc_serve::{
    execute, MetricsSnapshot, Outcome, QueryAnswer, QuerySpec, Request, Response, ServeConfig,
    Service,
};
use tlc_ssb::{run_wave_streamed, LoColumn, SsbStore, StreamOptions, WaveQuery, WaveSpec};
use tlc_store::PartitionCache;

use crate::env::remove_store;
use crate::inputs::{self, columns_touched};
use crate::metrics::Metrics;
use crate::run::{
    cycles, fastest_ingest_mvals_per_s, ingest_and_reopen, repeat_setup, Ctx, OpenedStore, Report,
    MIN_CYCLES, SETUP_REOPENS,
};
use crate::stats::{mean, median, median_rate, percentile};
use crate::trace::{Tracer, CYCLE};

/// Rounds in one cycle; the same four rounds every cycle.
const ROUNDS_PER_CYCLE: usize = 4;
const WORKERS: usize = 1;
const QUEUE_CAPACITY: usize = 64;
const BATCH_WINDOW: usize = 8;
const CACHE_BYTES: u64 = 512 << 20;
const PROBE: &str = "probe";

fn config(batch_window: usize) -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        queue_capacity: QUEUE_CAPACITY,
        batch_window,
        cache_budget_bytes: CACHE_BYTES,
        ..ServeConfig::deterministic()
    }
}

/// A running service over a fresh store, its cache filled by one round.
struct Ready {
    dir: PathBuf,
    store: Arc<SsbStore>,
    service: Service,
    clean: bool,
    rows: u64,
    bytes_per_row: f64,
}

fn start(store: &Arc<SsbStore>, batch_window: usize, warm_up: &[Request]) -> Service {
    let service = Service::start(Arc::clone(store), config(batch_window));
    for ticket in service.submit_many(warm_up.to_vec()).into_iter().flatten() {
        ticket.wait();
    }
    service
}

fn set_up(ctx: &mut Ctx, warm_up: &[Request]) -> (Ready, (f64, Vec<f64>)) {
    let opened = ingest_and_reopen(&mut ctx.scratch, &inputs::spec(ctx.seed), SETUP_REOPENS);
    let timing = (opened.ingest_s, opened.reopen_verify_s.clone());
    let (rows, bytes_per_row) = (opened.rows(), opened.bytes_per_row());
    let OpenedStore {
        dir, store, clean, ..
    } = opened;
    let store = Arc::new(store);
    let service = start(&store, BATCH_WINDOW, warm_up);
    let ready = Ready {
        dir,
        store,
        service,
        clean,
        rows,
        bytes_per_row,
    };
    (ready, timing)
}

/// One round as the client saw it.
struct Round {
    wall_s: f64,
    /// Submit of the round to this response being observed.
    request_wall_s: Vec<f64>,
    responses: Vec<Option<Response>>,
}

fn run_round(service: &Service, round: &[Request], n: usize, tr: &mut Tracer) -> Round {
    let span = tr.begin("serve.round", n as u32);
    let start_ns = tr.now_ns();
    let t0 = Instant::now();
    let tickets = service.submit_many(round.to_vec());
    let mut request_wall_s = Vec::with_capacity(round.len());
    let mut responses = Vec::with_capacity(round.len());
    for (i, ticket) in tickets.into_iter().enumerate() {
        // A refused request has no response: it counts as failed.
        responses.push(ticket.ok().map(|t| t.wait()));
        request_wall_s.push(t0.elapsed().as_secs_f64());
        tr.record("serve.request", i as u32, start_ns, tr.now_ns());
    }
    let wall_s = t0.elapsed().as_secs_f64();
    tr.end(span);
    Round {
        wall_s,
        request_wall_s,
        responses,
    }
}

/// One cycle: its rounds, and the service's counters across it.
struct Cycle {
    rounds: Vec<Round>,
    counters: [u64; 9],
}

impl Cycle {
    fn wall_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.wall_s).sum()
    }

    fn model_ms(&self) -> f64 {
        let latencies: Vec<f64> = self
            .rounds
            .iter()
            .flat_map(|r| r.responses.iter().flatten())
            .map(|r| r.latency_s() * 1e3)
            .collect();
        mean(&latencies)
    }
}

const COUNTERS: [&str; 9] = [
    "serve.submitted",
    "serve.admitted",
    "serve.rejected",
    "serve.completed",
    "serve.failed",
    "serve.retries",
    "serve.batched_queries",
    "serve.shared_decodes",
    "serve.launches_saved",
];

fn counters(s: &MetricsSnapshot) -> [u64; 9] {
    [
        s.submitted,
        s.admitted,
        s.rejected_overloaded + s.rejected_shutdown,
        s.completed,
        s.failed + s.deadline_exceeded,
        s.retries,
        s.batched_queries,
        s.shared_decodes,
        s.launches_saved,
    ]
}

fn run_cycle(service: &Service, rounds: &[Vec<Request>], n: usize, tr: &mut Tracer) -> Cycle {
    let before = counters(&service.metrics());
    let root = tr.begin(CYCLE, n as u32);
    let rounds = rounds
        .iter()
        .enumerate()
        .map(|(i, round)| run_round(service, round, i, tr))
        .collect();
    tr.end(root);
    let after = counters(&service.metrics());
    let mut delta = [0u64; 9];
    for (d, (a, b)) in delta.iter_mut().zip(after.iter().zip(before)) {
        *d = a - b;
    }
    Cycle {
        rounds,
        counters: delta,
    }
}

fn wave_spec(q: &QuerySpec) -> WaveSpec {
    match q {
        QuerySpec::Flight(id) => WaveSpec::Flight(*id),
        QuerySpec::PointFilter { column, value } => WaveSpec::Scalar {
            column: *column,
            filter: Some(*value),
        },
        QuerySpec::Scan { column } => WaveSpec::Scalar {
            column: *column,
            filter: None,
        },
    }
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) -> Report {
    let mut rep = Report::default();
    let mut all_rounds = inputs::request_rounds(ctx.seed, 1 + ROUNDS_PER_CYCLE);
    let rounds = all_rounds.split_off(1);
    let warm_up = all_rounds.pop().expect("the warm-up round");

    // A discarded store goes at once, outside the timed set-up: left on
    // disk, the write-back of the others slows each ingest more than
    // the one before.
    let (ready, timings, setup_s) = repeat_setup(
        ctx.setup_reps(),
        || set_up(ctx, &warm_up),
        |old: Ready| {
            old.service.shutdown();
            remove_store(&old.dir);
        },
    );
    rep.metrics.set("setup_s", setup_s);
    rep.require(ready.clean, || {
        "reopen or verify of the store was not clean".to_string()
    });

    // The oracle, once and untimed: every distinct request through solo
    // `execute()` with no cache and no service in the way.
    let mut want: Vec<(QuerySpec, QueryAnswer)> = Vec::new();
    for req in rounds.iter().flatten() {
        if !want.iter().any(|(q, _)| *q == req.query) {
            let out = execute(&ready.store, &req.query, &StreamOptions::default())
                .expect("a clean store answers");
            want.push((req.query.clone(), out.answer));
        }
    }
    let values_per_round: Vec<f64> = rounds
        .iter()
        .map(|round| {
            let columns: usize = round.iter().map(|r| columns_touched(&r.query)).sum();
            (ready.rows * columns as u64) as f64
        })
        .collect();

    let mut tr = Tracer::new(false);
    let control_s = ctx.control_seconds(0.25);
    let min = if ctx.trace { 2 } else { MIN_CYCLES };
    let mut timed: Vec<Cycle> = Vec::new();
    cycles(control_s, min, |n| {
        timed.push(run_cycle(&ready.service, &rounds, n, &mut tr));
    });
    let mut traced: Vec<Cycle> = Vec::new();
    if ctx.trace {
        tr.set_enabled(true);
        cycles(control_s, min, |n| {
            traced.push(run_cycle(&ready.service, &rounds, n, &mut tr));
        });
    }

    // Correctness: every response completed with the solo answer.
    for (n, cycle) in timed.iter().chain(&traced).enumerate() {
        for (round, reqs) in cycle.rounds.iter().zip(&rounds) {
            for (resp, req) in round.responses.iter().zip(reqs) {
                let ok = match resp {
                    Some(Response {
                        outcome: Outcome::Completed(out),
                        ..
                    }) => want
                        .iter()
                        .any(|(q, a)| *q == req.query && *a == out.answer),
                    _ => false,
                };
                rep.check(ok, || {
                    format!(
                        "cycle {n}: {} was refused, failed or answered wrongly",
                        req.query.label()
                    )
                });
            }
        }
    }
    let model_ms = timed[0].model_ms();
    for c in timed.iter().chain(&traced) {
        rep.expect_same("model_ms_per_op", model_ms, c.model_ms());
        for (name, (a, b)) in COUNTERS
            .iter()
            .zip(timed[0].counters.iter().zip(c.counters))
        {
            rep.expect_same(name, *a as f64, b as f64);
        }
    }

    let request_ms: Vec<f64> = timed
        .iter()
        .flat_map(|c| c.rounds.iter().flat_map(|r| r.request_wall_s.iter()))
        .map(|s| s * 1e3)
        .collect();
    rep.note("rows", ready.rows);
    let ingests: Vec<String> = timings.iter().map(|t| format!("{:.3}", t.0)).collect();
    rep.note("setup_ingest_s", ingests.join(","));
    rep.note("op_wall_samples", request_ms.len() / inputs::ROUND_REQUESTS);
    rep.note("distinct_requests", want.len());

    let m = &mut rep.metrics;
    // Per round, not per cycle: a cycle is 1.4 s, so a run has few.
    let samples: Vec<(f64, f64)> = timed
        .iter()
        .flat_map(|c| c.rounds.iter().zip(&values_per_round))
        .map(|(round, values)| (*values, round.wall_s))
        .collect();
    m.set("wall_mvals_per_s", median_rate(&samples) / 1e6);
    m.set(
        "encode_mvals_per_s",
        fastest_ingest_mvals_per_s(ready.rows, timings.iter().map(|t| t.0)),
    );
    // Responses come back a wave at a time, so a round's request walls
    // are a few clumps and their p50 sits on the edge between two: an op
    // is the round's mean request, and the p50 is over rounds.
    let round_mean_ms: Vec<f64> = timed
        .iter()
        .flat_map(|c| c.rounds.iter().map(|r| mean(&r.request_wall_s) * 1e3))
        .collect();
    m.set("op_wall_p50_ms", median(&round_mean_ms));
    m.set("model_ms_per_op", model_ms);
    m.set("bytes_per_row", ready.bytes_per_row);
    let reopens: Vec<f64> = timings.iter().flat_map(|t| t.1.iter().copied()).collect();
    m.set("reopen_verify_s", median(&reopens));

    if ctx.trace {
        let untraced: Vec<f64> = timed.iter().map(Cycle::wall_s).collect();
        let with_spans: Vec<f64> = traced.iter().map(Cycle::wall_s).collect();
        m.set(
            "trace_overhead_share",
            median(&with_spans) / median(&untraced) - 1.0,
        );
        for (name, v) in COUNTERS.iter().zip(timed[0].counters) {
            m.set(name, v as f64);
        }
        let round_ms: Vec<f64> = timed
            .iter()
            .flat_map(|c| c.rounds.iter().map(|r| r.wall_s * 1e3))
            .collect();
        m.set("serve.round_wall_p50_ms", percentile(&round_ms, 0.5));
        m.set("serve.request_wall_p90_ms", percentile(&request_ms, 0.9));

        let (solo_ok, wave_s) = probe_without_service(m, &mut tr, &ready.store, &rounds, &want);
        m.set(
            "serve.overhead_ratio",
            median(&untraced) * WORKERS as f64 / wave_s,
        );

        // Control at `batch_window` 1 through the same code: batched
        // over unbatched, wall and modelled side by side.
        let unbatched = start(&ready.store, 1, &warm_up);
        let control: Vec<Cycle> = (0..2)
            .map(|n| run_cycle(&unbatched, &rounds, n, &mut Tracer::new(false)))
            .collect();
        let books = unbatched.shutdown();
        let control_wall: Vec<f64> = control.iter().map(Cycle::wall_s).collect();
        m.set(
            "serve.window1_wall_ratio",
            median(&untraced) / median(&control_wall),
        );
        m.set(
            "serve.window1_model_ratio",
            model_ms / control[0].model_ms(),
        );
        rep.require(solo_ok && books.is_balanced(), || {
            "solo execute() or the window-1 control disagreed with the oracle".to_string()
        });
        rep.tracer = Some(tr);
    }

    let books = ready.service.shutdown();
    rep.require(books.is_balanced(), || {
        "the service's books do not balance".to_string()
    });
    rep
}

/// The same requests without the service: solo `execute()` one by one,
/// then `run_wave_streamed` in windows of 8, both on this thread over a
/// cache filled beforehand like the service's. Returns whether every solo
/// answer matched the oracle, and the wall seconds of the wave pass.
fn probe_without_service(
    m: &mut Metrics,
    tr: &mut Tracer,
    store: &SsbStore,
    rounds: &[Vec<Request>],
    want: &[(QuerySpec, QueryAnswer)],
) -> (bool, f64) {
    let cache = Arc::new(PartitionCache::new(CACHE_BYTES));
    let opts = StreamOptions {
        cache: Some(Arc::clone(&cache)),
        ..StreamOptions::default()
    };
    for c in LoColumn::ALL {
        for p in 0..store.store().partition_count() {
            cache
                .load(store.store(), p, c.name())
                .expect("clean file loads");
        }
    }
    let filled = cache.stats();
    let root = tr.begin(PROBE, 0);
    let mut solo_ok = true;
    for (i, req) in rounds.iter().flatten().enumerate() {
        let out = tr.leaf("serve.solo_exec", i as u32, || {
            execute(store, &req.query, &opts).expect("a clean store answers")
        });
        solo_ok &= want
            .iter()
            .any(|(q, a)| *q == req.query && *a == out.answer);
    }
    let (mut shared_decodes, mut launches_saved) = (0u64, 0u64);
    let windows = rounds.iter().flat_map(|r| r.chunks(BATCH_WINDOW));
    for (i, window) in windows.enumerate() {
        let wave: Vec<WaveQuery> = window
            .iter()
            .map(|r| WaveQuery {
                spec: wave_spec(&r.query),
                deadline_device_s: None,
            })
            .collect();
        let run = tr.leaf("ssb.stream.wave", i as u32, || {
            run_wave_streamed(store, &wave, &opts).expect("a clean store answers")
        });
        shared_decodes += run.shared_decodes;
        launches_saved += run.launches_saved;
    }
    tr.end(root);
    let wave_s = tr.per_root(PROBE, "ssb.stream.wave")[0];
    m.set(
        "serve.solo_exec_s",
        tr.per_root(PROBE, "serve.solo_exec")[0],
    );
    m.set("ssb.stream.wave_s", wave_s);
    m.set("ssb.stream.shared_decodes", shared_decodes as f64);
    m.set("ssb.stream.launches_saved", launches_saved as f64);
    // The service keeps its own cache to itself; these are the loads of
    // the two passes above, which ask for the same columns.
    let stats = cache.stats();
    let (hits, misses) = (stats.hits - filled.hits, stats.misses - filled.misses);
    m.set("store.cache.hits", hits as f64);
    m.set("store.cache.misses", misses as f64);
    m.set(
        "store.cache.evictions",
        (stats.evictions - filled.evictions) as f64,
    );
    m.set(
        "store.cache.coalesced",
        (stats.coalesced - filled.coalesced) as f64,
    );
    m.set(
        "store.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    (solo_ok, wave_s)
}
