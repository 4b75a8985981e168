//! `flight_cold` and `flight_warm`: cycles of {q1.1, q2.1, q3.1, q4.3}
//! through `run_query_streamed_bounded`, the out-of-core path.
//!
//! Cold: the `PartitionCache` (4 MiB) is smaller than one query's
//! working set (8–12 MiB of the ≈34 MiB store), so every load misses and
//! CLOCK evicts: each query pays read + digest + parse + upload +
//! simulated kernel + fold. Warm: the cache (512 MiB) holds the whole
//! store and one untimed cycle fills it, so the store path drops out and
//! the simulated kernel is what is left.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use tlc_core::{EncodedColumn, Scheme};
use tlc_gpu_sim::{Counter, Device, KernelReport, Phase, SEGMENT_BYTES};
use tlc_profile::Profile;
use tlc_ssb::{run_query_streamed_bounded, try_run_query, LoColumn, LoColumns, StreamOptions};
use tlc_store::ingest::file_digest;
use tlc_store::{modeled_read_s, CacheStats, PartitionCache};

use crate::codec::{scheme_index, scheme_suffix, sim_decode};
use crate::env::remove_store;
use crate::inputs::{self, FLIGHT_QUERIES};
use crate::metrics::Metrics;
use crate::run::{
    cycles, fastest_ingest_mvals_per_s, ingest_and_reopen, repeat_setup, Ctx, OpenedStore, Report,
    MIN_CYCLES, SETUP_REOPENS,
};
use crate::stats::{mean, median, median_rate};
use crate::trace::{Tracer, CYCLE};

/// Which of the two flight workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Temp {
    /// Cache smaller than one query's working set.
    Cold,
    /// Cache larger than the store, filled before timing.
    Warm,
}

const COLD_CACHE_BYTES: u64 = 4 << 20;
const WARM_CACHE_BYTES: u64 = 512 << 20;

const QUERY_SPANS: [&str; 4] = [
    "ssb.stream.query.q1.1",
    "ssb.stream.query.q2.1",
    "ssb.stream.query.q3.1",
    "ssb.stream.query.q4.3",
];
const RUN_QUERY_SPANS: [&str; 4] = [
    "ssb.queries.run_query.q1.1",
    "ssb.queries.run_query.q2.1",
    "ssb.queries.run_query.q3.1",
    "ssb.queries.run_query.q4.3",
];
const PROBE: &str = "probe";

/// A store ready to query.
struct Ready {
    opened: OpenedStore,
    cache: Arc<PartitionCache>,
    opts: StreamOptions,
}

/// One cycle: per query its wall seconds, its modelled `device_s + io_s`
/// and its answer.
struct Cycle {
    wall_s: [f64; 4],
    model_s: [f64; 4],
    answers: Vec<Vec<(u64, u64)>>,
}

impl Cycle {
    fn total_s(&self) -> f64 {
        self.wall_s.iter().sum()
    }
}

fn library_cycle(ready: &Ready) -> Cycle {
    let mut cycle = Cycle {
        wall_s: [0.0; 4],
        model_s: [0.0; 4],
        answers: Vec::with_capacity(4),
    };
    for (i, q) in FLIGHT_QUERIES.iter().enumerate() {
        let t = Instant::now();
        let run = run_query_streamed_bounded(&ready.opened.store, *q, &ready.opts)
            .expect("a clean store answers");
        cycle.wall_s[i] = t.elapsed().as_secs_f64();
        cycle.model_s[i] = run.device_s + run.io_s;
        cycle.answers.push(run.result);
    }
    cycle
}

fn set_up(ctx: &mut Ctx, temp: Temp) -> (Ready, (f64, Vec<f64>)) {
    let opened = ingest_and_reopen(&mut ctx.scratch, &inputs::spec(ctx.seed), SETUP_REOPENS);
    let cache = Arc::new(PartitionCache::new(match temp {
        Temp::Cold => COLD_CACHE_BYTES,
        Temp::Warm => WARM_CACHE_BYTES,
    }));
    let opts = StreamOptions {
        cache: Some(Arc::clone(&cache)),
        ..StreamOptions::default()
    };
    let timing = (opened.ingest_s, opened.reopen_verify_s.clone());
    let ready = Ready {
        opened,
        cache,
        opts,
    };
    // One untimed cycle: it fills the warm cache, and brings the cold
    // one to the steady state in which every load evicts.
    library_cycle(&ready);
    (ready, timing)
}

/// Counts a traced cycle keeps beside its spans.
#[derive(Default)]
struct TracedCounts {
    files_read: u64,
    bytes_read: u64,
    digests_ok: bool,
    hits_ok: bool,
    events: Vec<KernelReport>,
}

/// One query step by step through the public pieces the streaming
/// executor is made of: load each column (cold: `fs::read` →
/// `file_digest` → `from_bytes`; warm: a cache hit), upload, run the
/// fused query on a partition-private device, fold in partition order.
/// Partitions run one after another on this thread.
fn traced_query(
    ready: &Ready,
    temp: Temp,
    i: usize,
    tr: &mut Tracer,
    counts: &mut TracedCounts,
) -> (Vec<(u64, u64)>, f64) {
    let q = FLIGHT_QUERIES[i];
    let op = i as u32;
    let store = ready.opened.store.store();
    let span = tr.begin(QUERY_SPANS[i], op);
    let dims = tr.leaf("ssb.gen.dims", op, || ready.opened.store.spec().dims());
    let mut merged: BTreeMap<u64, u64> = BTreeMap::new();
    // Summed the way the library sums them (per partition, then in
    // partition order), so the recomposed price is the library's to the bit.
    let (mut device_s, mut io_s) = (0.0f64, 0.0f64);
    for p in 0..store.partition_count() {
        let mut part_io_s = 0.0f64;
        let mut cols: Vec<(LoColumn, Arc<EncodedColumn>)> = Vec::new();
        for &c in q.columns() {
            let col = match temp {
                Temp::Cold => {
                    let path = store.path_of(p, c.name());
                    let bytes = tr.leaf("store.read", op, || {
                        std::fs::read(&path).expect("partition file")
                    });
                    let digest = tr.leaf("store.digest", op, || file_digest(&bytes));
                    let idx = store
                        .manifest()
                        .column_index(c.name())
                        .expect("a layout column");
                    let entry = store.manifest().partitions[p].files[idx];
                    counts.digests_ok &=
                        digest == entry.digest && bytes.len() == entry.bytes as usize;
                    counts.files_read += 1;
                    counts.bytes_read += bytes.len() as u64;
                    part_io_s += modeled_read_s(bytes.len() as u64, false);
                    Arc::new(tr.leaf("core.parse", op, || {
                        EncodedColumn::from_bytes(&bytes).expect("committed bytes parse")
                    }))
                }
                Temp::Warm => {
                    let load = tr.leaf("store.cache.load_hit", op, || {
                        ready.cache.load(store, p, c.name()).expect("cached column")
                    });
                    counts.hits_ok &= load.hit;
                    part_io_s += modeled_read_s(load.bytes, load.hit);
                    load.col
                }
            };
            cols.push((c, col));
        }
        let dev = Device::v100();
        let lo_cols = tr.leaf("core.to_device", op, || {
            LoColumns::from_encoded(&dev, cols.iter().map(|(c, e)| (*c, &**e)))
        });
        dev.reset_timeline();
        let groups = tr.leaf(RUN_QUERY_SPANS[i], op, || {
            try_run_query(&dev, &dims, &lo_cols, q).expect("clean columns decode")
        });
        device_s += dev.elapsed_seconds_scaled(ready.opts.scale);
        io_s += part_io_s;
        dev.with_timeline(|t| counts.events.extend_from_slice(t.events()));
        for (g, v) in groups {
            let e = merged.entry(g).or_insert(0);
            *e = e.wrapping_add(v);
        }
    }
    let result = merged.into_iter().filter(|&(_, v)| v != 0).collect();
    tr.end(span);
    (result, device_s + io_s)
}

fn traced_cycle(ready: &Ready, temp: Temp, tr: &mut Tracer, n: usize) -> (Cycle, TracedCounts) {
    let mut counts = TracedCounts {
        digests_ok: true,
        hits_ok: true,
        ..TracedCounts::default()
    };
    let mut cycle = Cycle {
        wall_s: [0.0; 4],
        model_s: [0.0; 4],
        answers: Vec::with_capacity(4),
    };
    let root = tr.begin(CYCLE, n as u32);
    for i in 0..FLIGHT_QUERIES.len() {
        let t = Instant::now();
        let (result, model_s) = traced_query(ready, temp, i, tr, &mut counts);
        cycle.wall_s[i] = t.elapsed().as_secs_f64();
        cycle.model_s[i] = model_s;
        cycle.answers.push(result);
    }
    tr.end(root);
    (cycle, counts)
}

fn delta(before: &CacheStats, after: &CacheStats) -> [u64; 4] {
    [
        after.hits - before.hits,
        after.misses - before.misses,
        after.evictions - before.evictions,
        after.coalesced - before.coalesced,
    ]
}

/// Run the workload.
pub fn run(ctx: &mut Ctx, temp: Temp) -> Report {
    let mut rep = Report::default();

    // A discarded store goes at once, outside the timed set-up: left on
    // disk, the write-back of the others slows each ingest more than
    // the one before.
    let (ready, timings, setup_s) = repeat_setup(
        ctx.setup_reps(),
        || set_up(ctx, temp),
        |old: Ready| remove_store(&old.opened.dir),
    );
    rep.metrics.set("setup_s", setup_s);
    rep.require(ready.opened.clean, || {
        "reopen or verify of the store was not clean".to_string()
    });
    let rows = ready.opened.rows();
    let values_per_cycle: f64 = FLIGHT_QUERIES
        .iter()
        .map(|q| (rows * q.columns().len() as u64) as f64)
        .sum();

    // The oracle, once and untimed: `run_reference` over the generated
    // rows, independent of the store and of the simulator.
    let want = inputs::reference_answers(ready.opened.store.spec(), &FLIGHT_QUERIES);

    let control_s = ctx.control_seconds(1.0 / 3.0);
    let mut timed: Vec<Cycle> = Vec::new();
    let mut cache_deltas: Vec<[u64; 4]> = Vec::new();
    cycles(control_s, MIN_CYCLES, |_| {
        let before = ready.cache.stats();
        timed.push(library_cycle(&ready));
        cache_deltas.push(delta(&before, &ready.cache.stats()));
    });

    let mut tr = Tracer::new(true);
    let mut traced: Vec<(Cycle, TracedCounts)> = Vec::new();
    if ctx.trace {
        cycles(ctx.seconds / 2.0, MIN_CYCLES, |n| {
            traced.push(traced_cycle(&ready, temp, &mut tr, n));
        });
    }

    // Correctness: every answer of every cycle, recomposed ones too.
    for (n, c) in timed.iter().chain(traced.iter().map(|t| &t.0)).enumerate() {
        for (i, q) in FLIGHT_QUERIES.iter().enumerate() {
            rep.check(c.answers[i] == want[i], || {
                format!("cycle {n}: {} differs from run_reference", q.name())
            });
        }
    }
    // The cache is what the workload says it is.
    let [hits, misses, evictions, coalesced] = cache_deltas[0];
    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    match temp {
        Temp::Cold => rep.require(hit_ratio <= 0.05 && evictions > 0, || {
            format!("flight_cold is not cold: hit ratio {hit_ratio}, {evictions} evictions")
        }),
        Temp::Warm => rep.require(hit_ratio >= 0.99, || {
            format!("flight_warm is not warm: hit ratio {hit_ratio}")
        }),
    }
    let model_ms = mean(&timed[0].model_s) * 1e3;
    for (c, d) in timed.iter().zip(&cache_deltas) {
        rep.expect_same("model_ms_per_op", model_ms, mean(&c.model_s) * 1e3);
        for (k, name) in ["hits", "misses", "evictions", "coalesced"]
            .iter()
            .enumerate()
        {
            rep.expect_same(
                &format!("store.cache.{name}"),
                cache_deltas[0][k] as f64,
                d[k] as f64,
            );
        }
    }
    rep.note("rows", rows);
    rep.note("store_bytes", ready.opened.bytes());
    let ingests: Vec<String> = timings.iter().map(|t| format!("{:.3}", t.0)).collect();
    rep.note("setup_ingest_s", ingests.join(","));
    rep.note("op_wall_samples", timed.len());

    let m = &mut rep.metrics;
    let samples: Vec<(f64, f64)> = timed
        .iter()
        .map(|c| (values_per_cycle, c.total_s()))
        .collect();
    m.set("wall_mvals_per_s", median_rate(&samples) / 1e6);
    m.set(
        "encode_mvals_per_s",
        fastest_ingest_mvals_per_s(rows, timings.iter().map(|t| t.0)),
    );
    // The four queries differ in cost, so an op is the cycle's mean
    // query, and the p50 is over cycles.
    let per_query_ms: Vec<f64> = timed.iter().map(|c| mean(&c.wall_s) * 1e3).collect();
    m.set("op_wall_p50_ms", median(&per_query_ms));
    m.set("model_ms_per_op", model_ms);
    m.set("bytes_per_row", ready.opened.bytes_per_row());
    let reopens: Vec<f64> = timings.iter().flat_map(|t| t.1.iter().copied()).collect();
    m.set("reopen_verify_s", median(&reopens));

    if ctx.trace {
        m.set("store.cache.hits", hits as f64);
        m.set("store.cache.misses", misses as f64);
        m.set("store.cache.evictions", evictions as f64);
        m.set("store.cache.coalesced", coalesced as f64);
        m.set("store.cache.hit_ratio", hit_ratio);
        let untraced: Vec<f64> = timed.iter().map(Cycle::total_s).collect();
        let with_spans: Vec<f64> = traced.iter().map(|t| t.0.total_s()).collect();
        m.set(
            "trace_overhead_share",
            median(&with_spans) / median(&untraced) - 1.0,
        );
        for (n, (c, counts)) in traced.iter().enumerate() {
            rep.require(counts.digests_ok && counts.hits_ok, || {
                format!("traced cycle {n}: a digest or a cache hit was not as committed")
            });
            // The spans decompose the library's own work only if the
            // recomposed query prices exactly as the library's does.
            rep.expect_same(
                "model_ms_per_op (recomposed vs library)",
                model_ms,
                mean(&c.model_s) * 1e3,
            );
        }
        span_metrics(&mut rep.metrics, &tr, temp, values_per_cycle);
        model_metrics(&mut rep.metrics, &traced[0].1);
        // Probes outside the cycle.
        match temp {
            Temp::Cold => probe_load_column(&mut rep.metrics, &mut tr, &ready),
            Temp::Warm => {
                probe_decode_kernels(&mut rep.metrics, &ready);
                // The cycles above ran on one sim thread; these two
                // run on as many as the library would take by itself.
                tlc_gpu_sim::set_sim_threads_override(None);
                let parallel: Vec<f64> = (0..2).map(|_| library_cycle(&ready).total_s()).collect();
                tlc_gpu_sim::set_sim_threads_override(Some(1));
                let speedup = median(&untraced) / median(&parallel);
                rep.metrics.set("gpu-sim.par_speedup", speedup);
            }
        }
        rep.tracer = Some(tr);
    }
    rep
}

/// Host wall time per layer: medians over traced cycles of the per-cycle
/// sums of the spans.
fn span_metrics(m: &mut Metrics, tr: &Tracer, temp: Temp, values_per_cycle: f64) {
    for (metric, span) in [
        ("store.read_s", "store.read"),
        ("store.digest_s", "store.digest"),
        ("core.parse_s", "core.parse"),
        ("core.to_device_s", "core.to_device"),
    ] {
        m.set(metric, median(&tr.per_cycle(span)));
    }
    let cycles = tr.per_cycle(CYCLE).len();
    let mut self_s = vec![0.0; cycles];
    let mut run_query_s = vec![0.0; cycles];
    for (i, q) in FLIGHT_QUERIES.iter().enumerate() {
        let run_query = tr.per_cycle(RUN_QUERY_SPANS[i]);
        m.set(
            &format!("ssb.queries.run_query_s.{}", q.name()),
            median(&run_query),
        );
        m.set(
            &format!("ssb.stream.query_s.{}", q.name()),
            median(&tr.per_cycle(QUERY_SPANS[i])),
        );
        for (n, s) in tr.per_cycle_self(QUERY_SPANS[i]).iter().enumerate() {
            self_s[n] += s;
            run_query_s[n] += run_query[n];
        }
    }
    m.set("ssb.stream.self_s", median(&self_s));
    m.set(
        "gpu-sim.host_ns_per_value",
        median(&run_query_s) * 1e9 / values_per_cycle,
    );
    if temp == Temp::Warm {
        let hit_us: Vec<f64> = tr
            .per_cycle("store.cache.load_hit")
            .iter()
            .zip(tr.per_cycle_count("store.cache.load_hit"))
            .map(|(s, n)| s * 1e6 / n.max(1.0))
            .collect();
        m.set("store.cache.load_hit_us", median(&hit_us));
    }
}

/// Modelled V100 side of one traced cycle: counts and the phase split of
/// `tlc_profile`, all exact.
fn model_metrics(m: &mut Metrics, cycle: &TracedCounts) {
    m.set("store.files_loaded", cycle.files_read as f64);
    m.set("store.bytes_read", cycle.bytes_read as f64);
    let profile = Profile::from_reports(&cycle.events, Device::v100().params());
    let launches: usize = profile.kernels.iter().map(|k| k.launches).sum();
    m.set("gpu-sim.launches", launches as f64);
    m.set(
        "gpu-sim.global_bytes",
        profile.traffic().global_bytes() as f64,
    );
    m.set(
        "gpu-sim.encoded_tile_reads",
        profile.spans.counter(Counter::EncodedTileReads) as f64,
    );
    m.set(
        "gpu-sim.decoded_writeback_bytes",
        (profile.spans.phase(Phase::Writeback).global_write_segments * SEGMENT_BYTES) as f64,
    );
    let phase_s = |p: Phase| -> f64 { profile.kernels.iter().map(|k| k.phase_seconds(p)).sum() };
    let attributed: f64 = Phase::ALL.iter().map(|p| phase_s(*p)).sum();
    for p in Phase::ALL {
        m.set(
            &format!("gpu-sim.phase_model_share.{}", p.name()),
            phase_s(p) / attributed,
        );
    }
}

/// The library's own whole-column load over the files a cycle reads, to
/// hold against read + digest + parse.
fn probe_load_column(m: &mut Metrics, tr: &mut Tracer, ready: &Ready) {
    let store = ready.opened.store.store();
    for pass in 0..2 {
        let root = tr.begin(PROBE, pass);
        for q in FLIGHT_QUERIES {
            for p in 0..store.partition_count() {
                for c in q.columns() {
                    tr.leaf("store.load_column", pass, || {
                        store.load_column(p, c.name()).expect("clean file loads")
                    });
                }
            }
        }
        tr.end(root);
    }
    m.set(
        "store.load_column_s",
        median(&tr.per_root(PROBE, "store.load_column")),
    );
}

/// The standalone `decode_only` kernel over the 14 columns of partition
/// 0, by the scheme `encode_best` chose: host wall and modelled rate.
fn probe_decode_kernels(m: &mut Metrics, ready: &Ready) {
    let store = ready.opened.store.store();
    let mut by_scheme: BTreeMap<usize, (f64, f64, f64)> = BTreeMap::new();
    for c in LoColumn::ALL {
        let col = ready
            .cache
            .load(store, 0, c.name())
            .expect("cached column")
            .col;
        let (model_s, wall_s) = sim_decode(&col);
        let e = by_scheme.entry(scheme_index(col.scheme())).or_default();
        e.0 += col.total_count() as f64;
        e.1 += model_s;
        e.2 += wall_s;
    }
    for (s, (values, model_s, wall_s)) in by_scheme {
        let suffix = scheme_suffix(Scheme::ALL[s]);
        m.set(
            &format!("gpu-sim.decode_model_gvals_per_s.{suffix}"),
            values / model_s / 1e9,
        );
        m.set(
            &format!("gpu-sim.decode_wall_mvals_per_s.{suffix}"),
            values / wall_s / 1e6,
        );
    }
}
