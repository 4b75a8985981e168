//! The partition executor's numbers pinned across commits.
//!
//! `determinism.rs` compares 1 worker against 4 workers *of the same
//! build*; nothing there notices a commit that changes what a streamed
//! query is charged, which partition a deadline cuts at, or what the
//! recovery ladder reports. The rows below were captured on the commit
//! before the three partition executors (solo flight, solo scalar,
//! wave) were folded into one; the wave and scalar rows were refreshed
//! once since, by the commit after which every member decodes inline
//! (a wave flight is charged what the solo flight is, a scalar its
//! share of one fused launch); the rows that hold a flight 1 or two
//! probe-free members (`q1.1`, `execute q1.1`, every wave, wave-cut,
//! scalar-wave and healing-wave row, the q1.1 drills) once more, by the
//! commit after which flight 1 joins nothing and the probe-free members
//! of a wave are one filter part (`scan`, `point`, `q2.1`, `q4.3`,
//! their `@40%` cuts and every answer stayed); the rows that price a
//! join flight, or a wave that holds one, once more by the commit after
//! which a dimension table is as narrow as its payloads (only `dev=`
//! and `deadline=` moved: every answer, row count, `io=`, cache counter
//! and drill tally stayed). Every later commit must
//! reproduce them
//! at 1 and 4 sim threads: answers, `f64::to_bits` of `device_s`
//! and `io_s`, rows, the whole `ResilienceReport`, the recovered
//! partitions, every `DeadlinePartial` field, the wave's sharing
//! tallies and the cache's counters.
//!
//! Each run renders to one line per query; a row is the line. A
//! deliberate change to the executor refreshes rows: the failure
//! message prints the observed block as Rust string literals.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

use tlc::serve::{execute, ExecOutcome, QueryAnswer, QuerySpec};
use tlc::sim::{set_sim_threads_override, FaultPlan, StorageFaults};
use tlc::ssb::{
    run_query_streamed_bounded, run_wave_streamed, DeadlinePartial, LoColumn, QueryId,
    ResilienceReport, SsbStore, StreamError, StreamOptions, StreamSpec, StreamedRun, WaveAnswer,
    WaveQuery, WaveRun, WaveSpec,
};
use tlc::store::{damage, modeled_read_s, PartitionCache, StoreError};

/// The override is process-global; serialize the tests that set it.
static OVERRIDE: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    OVERRIDE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Six partitions of about 4,000 rows.
fn spec() -> StreamSpec {
    StreamSpec::for_rows(17, 24_000, 1_000)
}

fn fresh_store(tag: &str) -> (SsbStore, PathBuf) {
    let dir = std::env::temp_dir().join(format!("tlc_executor_pins_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SsbStore::ingest(&dir, &spec()).expect("ingest");
    assert_eq!(store.store().partition_count(), 6);
    (store, dir)
}

// ---- rendering ------------------------------------------------------

fn fnv64(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn groups(g: &[(u64, u64)]) -> String {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for (k, v) in g {
        fnv64(&mut h, &k.to_le_bytes());
        fnv64(&mut h, &v.to_le_bytes());
    }
    format!("groups[{}]#{h:016x}", g.len())
}

fn scalar(count: u64, sum: i64) -> String {
    format!("count={count} sum={sum}")
}

fn query_answer(a: &QueryAnswer) -> String {
    match a {
        QueryAnswer::Groups(g) => groups(g),
        QueryAnswer::Scalar { count, sum } => scalar(*count, *sum),
    }
}

fn wave_answer(a: &WaveAnswer) -> String {
    match a {
        WaveAnswer::Groups(g) => groups(g),
        WaveAnswer::Scalar { count, sum } => scalar(*count, *sum),
    }
}

fn report(r: &ResilienceReport) -> String {
    format!(
        "[{},{},{},{},{},{},{},{},{},{}]",
        r.bit_flips_injected,
        r.transient_failures_injected,
        r.devices_lost,
        r.transient_retries,
        r.retries_exhausted,
        r.corrupt_tiles_detected,
        r.shards_failed_over,
        r.cpu_fallbacks,
        r.partitions_quarantined,
        r.partitions_regenerated,
    )
}

fn bits(x: f64) -> String {
    format!("{:#018x}", x.to_bits())
}

fn partial(p: &DeadlinePartial) -> String {
    format!(
        "cut done={}/{} rows={} dev={} deadline={} rep={}",
        p.partitions_completed,
        p.partitions,
        p.rows_scanned,
        bits(p.device_s),
        bits(p.deadline_device_s),
        report(&p.report),
    )
}

/// `workers`, `peak_resident_bytes` and `slowest_worker_s` follow the
/// worker count by design and are left out.
fn streamed(label: &str, run: &Result<StreamedRun, StreamError>) -> String {
    match run {
        Ok(r) => format!(
            "{label}: {} rows={} parts={} dev={} io={} merge={} rep={} rec={:?}",
            groups(&r.result),
            r.rows,
            r.partitions,
            bits(r.device_s),
            bits(r.io_s),
            bits(r.merge_s),
            report(&r.report),
            r.recovered_partitions,
        ),
        Err(StreamError::DeadlineExceeded(p)) => format!("{label}: {}", partial(p)),
        Err(StreamError::Store(e)) => format!("{label}: store error: {e}"),
    }
}

fn executed(label: &str, out: &Result<ExecOutcome, StreamError>) -> String {
    match out {
        Ok(o) => format!(
            "{label}: {} rows={} parts={} dev={} io={} rep={} rec={:?}",
            query_answer(&o.answer),
            o.rows,
            o.partitions,
            bits(o.device_s),
            bits(o.io_s),
            report(&o.report),
            o.recovered_partitions,
        ),
        Err(StreamError::DeadlineExceeded(p)) => format!("{label}: {}", partial(p)),
        Err(StreamError::Store(e)) => format!("{label}: store error: {e}"),
    }
}

/// One header line with the sharing tallies, then one line per member.
fn waved(label: &str, wave: &Result<WaveRun, StoreError>, out: &mut Vec<String>) {
    let wave = match wave {
        Ok(w) => w,
        Err(e) => return out.push(format!("{label}: store error: {e}")),
    };
    out.push(format!(
        "{label}: shared_decodes={} launches_saved={}",
        wave.shared_decodes, wave.launches_saved
    ));
    for (i, m) in wave.queries.iter().enumerate() {
        let outcome = match &m.outcome {
            Ok(a) => wave_answer(a),
            Err(p) => partial(p),
        };
        out.push(format!(
            "{label}[{i}]: {outcome} | rows={} parts={} dev={} io={} rep={} rec={:?}",
            m.rows,
            m.partitions,
            bits(m.device_s),
            bits(m.io_s),
            report(&m.report),
            m.recovered_partitions,
        ));
    }
}

fn cache_line(label: &str, opts: &StreamOptions, out: &mut Vec<String>) {
    if let Some(cache) = &opts.cache {
        let s = cache.stats();
        out.push(format!(
            "{label}: cache hits={} misses={} evictions={} shared_readers={}",
            s.hits, s.misses, s.evictions, s.shared_readers
        ));
    }
}

/// Run `f` at 1 and at 4 sim threads and hold both to `want`.
fn check(label: &str, want: &[&str], f: impl Fn() -> Vec<String>) {
    for threads in [1, 4] {
        set_sim_threads_override(Some(threads));
        let got = f();
        set_sim_threads_override(None);
        if got != want {
            let literal: String = got.iter().map(|l| format!("    {l:?},\n")).collect();
            let first = got
                .iter()
                .zip(want)
                .position(|(g, w)| g != w)
                .unwrap_or(got.len().min(want.len()));
            panic!(
                "{label} at {threads} sim thread(s): the executor's numbers moved \
                 (first differing row {first}); observed\n{literal}"
            );
        }
    }
}

// ---- the option sets ------------------------------------------------

#[derive(Clone, Copy)]
enum Opts {
    /// Defaults: every column read from disk.
    NoCache,
    /// A cache smaller than one partition's working set, so CLOCK
    /// evicts inside every partition and the load order of the columns
    /// decides what the next query finds resident. `budget_bytes: 1`
    /// keeps one partition in flight at a time: with several, the
    /// eviction order would follow the thread interleaving.
    ColdCache,
    /// A cache that holds a little over half of what the sequence
    /// reads (same serial rule): later queries hit what earlier ones
    /// left behind, and which columns those are follows the order each
    /// executor loads and therefore evicts them in.
    PartialCache,
    /// A cache that holds the whole store, filled beforehand.
    WarmCache,
    /// Partition 1 routed to the CPU.
    ForceCpu,
}

/// q1.1 reads about 17 KiB a partition and q4.3 about 31 KiB; the
/// 8 KiB files (ExtendedPrice, Revenue, SupplyCost) are never admitted.
const COLD_CACHE_BYTES: u64 = 5 << 10;
/// The nine columns the sequence touches come to about 270 KiB.
const PARTIAL_CACHE_BYTES: u64 = 160 << 10;

fn options(kind: Opts, store: &SsbStore) -> StreamOptions {
    match kind {
        Opts::NoCache => StreamOptions::default(),
        Opts::ColdCache | Opts::PartialCache => StreamOptions {
            budget_bytes: 1,
            cache: Some(Arc::new(PartitionCache::new(match kind {
                Opts::ColdCache => COLD_CACHE_BYTES,
                _ => PARTIAL_CACHE_BYTES,
            }))),
            ..StreamOptions::default()
        },
        Opts::WarmCache => {
            let cache = Arc::new(PartitionCache::new(64 << 20));
            for p in 0..store.store().partition_count() {
                for c in LoColumn::ALL {
                    cache
                        .load(store.store(), p, c.name())
                        .expect("clean file loads");
                }
            }
            StreamOptions {
                cache: Some(cache),
                ..StreamOptions::default()
            }
        }
        Opts::ForceCpu => StreamOptions {
            force_cpu_partitions: BTreeSet::from([1]),
            ..StreamOptions::default()
        },
    }
}

/// q1.1 and q2.1 share only OrderDate, and q2.1's column order is not
/// `LoColumn::ALL`'s; the scan makes OrderDate a three-consumer load
/// and the point filter shares Discount's with q1.1. q1.1 and the two
/// scalars are one filter part, which decodes OrderDate and Discount
/// once for two members each; q2.1 decodes its own copy.
fn mixed_wave() -> Vec<WaveQuery> {
    [
        WaveSpec::Flight(QueryId::Q11),
        WaveSpec::Flight(QueryId::Q21),
        WaveSpec::Scalar {
            column: LoColumn::OrderDate,
            filter: None,
        },
        WaveSpec::Scalar {
            column: LoColumn::Discount,
            filter: Some(4),
        },
    ]
    .into_iter()
    .map(|spec| WaveQuery {
        spec,
        deadline_device_s: None,
    })
    .collect()
}

/// A scan and two point filters over Discount: one decode of each
/// tile serves all three.
fn scalar_wave() -> Vec<WaveQuery> {
    [None, Some(4), Some(3)]
        .into_iter()
        .map(|filter| WaveQuery {
            spec: WaveSpec::Scalar {
                column: LoColumn::Discount,
                filter,
            },
            deadline_device_s: None,
        })
        .collect()
}

/// Every entry point, in a fixed order, over one option set (and so
/// over one cache): the three solo flights, the two solo scalars and a
/// flight through `execute`, a one-member flight wave, the mixed wave,
/// the mixed wave with member 0 cut at 40 % of its full cost and
/// member 2 at once, and the three-scalar wave. The solo deadline cuts
/// come last and no cache row
/// follows them: a solo run under a deadline works in chunks of
/// `workers` partitions, so how far past the cut it loads follows the
/// thread count by design.
fn sequence(store: &SsbStore, kind: Opts) -> Vec<String> {
    let opts = options(kind, store);
    let mut out = Vec::new();
    cache_line("start", &opts, &mut out);
    for q in [QueryId::Q11, QueryId::Q21, QueryId::Q43] {
        out.push(streamed(
            q.name(),
            &run_query_streamed_bounded(store, q, &opts),
        ));
    }
    cache_line("solo flights", &opts, &mut out);

    let scan = QuerySpec::Scan {
        column: LoColumn::Revenue,
    };
    let point = QuerySpec::PointFilter {
        column: LoColumn::Discount,
        value: 3,
    };
    out.push(executed("scan", &execute(store, &scan, &opts)));
    out.push(executed("point", &execute(store, &point, &opts)));
    out.push(executed(
        "execute q1.1",
        &execute(store, &QuerySpec::Flight(QueryId::Q11), &opts),
    ));
    cache_line("solo scalars", &opts, &mut out);

    let one = [WaveQuery {
        spec: WaveSpec::Flight(QueryId::Q21),
        deadline_device_s: None,
    }];
    waved(
        "wave of q2.1",
        &run_wave_streamed(store, &one, &opts),
        &mut out,
    );
    let full = run_wave_streamed(store, &mixed_wave(), &opts);
    waved("wave", &full, &mut out);
    cache_line("wave", &opts, &mut out);
    let mut cut = mixed_wave();
    cut[0].deadline_device_s = Some(full.expect("full wave").queries[0].device_s * 0.4);
    cut[2].deadline_device_s = Some(1e-12);
    waved("wave cut", &run_wave_streamed(store, &cut, &opts), &mut out);
    cache_line("wave cut", &opts, &mut out);
    waved(
        "scalar wave",
        &run_wave_streamed(store, &scalar_wave(), &opts),
        &mut out,
    );
    cache_line("scalar wave", &opts, &mut out);

    let bounded = |full_device_s: f64| StreamOptions {
        deadline_device_s: Some(full_device_s * 0.4),
        ..opts.clone()
    };
    let full = run_query_streamed_bounded(store, QueryId::Q21, &opts).expect("full q2.1");
    out.push(streamed(
        "q2.1@40%",
        &run_query_streamed_bounded(store, QueryId::Q21, &bounded(full.device_s)),
    ));
    let full = execute(store, &scan, &opts).expect("full scan");
    out.push(executed(
        "scan@40%",
        &execute(store, &scan, &bounded(full.device_s)),
    ));
    out
}

const NO_CACHE: &[&str] = &[
    "q1.1: groups[1]#481ed730f36e2669 rows=23812 parts=6 dev=0x3effc1c993f63f3a io=0x3f07222230732c0e merge=0x3e401b2b29a4692b rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "q2.1: groups[138]#916454a106031b27 rows=23812 parts=6 dev=0x3f10333ca50845e8 io=0x3f0a664f5bfa6e62 merge=0x3e94e33bfa013864 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "q4.3: groups[0]#cbf29ce484222325 rows=23812 parts=6 dev=0x3f10128f6a39dc50 io=0x3f144248ec74a48a merge=0x0000000000000000 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "scan: count=23812 sum=634758051 rows=23812 parts=6 dev=0x3eff9a0a18fee0b5 io=0x3ef6504e770671b4 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "point: count=2181 sum=6543 rows=23812 parts=6 dev=0x3eff8f255619a2d9 io=0x3eda820c5f33ed18 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "execute q1.1: groups[1]#481ed730f36e2669 rows=23812 parts=6 dev=0x3effc1c993f63f3a io=0x3f07222230732c0e rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave of q2.1: shared_decodes=0 launches_saved=0",
    "wave of q2.1[0]: groups[138]#916454a106031b27 | rows=23812 parts=6 dev=0x3f10333ca50845e8 io=0x3f0a664f5bfa6e62 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave: shared_decodes=12 launches_saved=18",
    "wave[0]: groups[1]#481ed730f36e2669 | rows=23812 parts=6 dev=0x3eeb65af8ce3dc25 io=0x3f02c8205c5d95a4 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave[1]: groups[138]#916454a106031b27 | rows=23812 parts=6 dev=0x3f0869e5465b65c5 io=0x3f07b46e4dd816c9 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave[2]: count=23812 sum=475071385380 | rows=23812 parts=6 dev=0x3eb6c5060c771953 io=0x3ec58f087112bcc6 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave[3]: count=2278 sum=9112 | rows=23812 parts=6 dev=0x3eb2aa0b529b9fbf io=0x3eca820c5f33ed18 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave cut: shared_decodes=4 launches_saved=10",
    "wave cut[0]: cut done=2/6 rows=7882 dev=0x3ed336b191af0184 deadline=0x3ed5eaf2d71cb01e rep=[0,0,0,0,0,0,0,0,0,0] | rows=7882 parts=6 dev=0x3ed336b191af0184 io=0x3ee95e0cda2943a5 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave cut[1]: groups[138]#916454a106031b27 | rows=23812 parts=6 dev=0x3f0869e5465b65c5 io=0x3f09451baadfe342 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave cut[2]: cut done=0/6 rows=0 dev=0x0000000000000000 deadline=0x3d719799812dea11 rep=[0,0,0,0,0,0,0,0,0,0] | rows=0 parts=6 dev=0x0000000000000000 io=0x0000000000000000 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave cut[3]: count=2278 sum=9112 | rows=23812 parts=6 dev=0x3ee1746287adeeae io=0x3ed3ec460ed80a18 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "scalar wave: shared_decodes=6 launches_saved=12",
    "scalar wave[0]: count=23812 sum=118852 | rows=23812 parts=6 dev=0x3ee50c3ea58e1c16 io=0x3ec1ac083f77f365 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "scalar wave[1]: count=2278 sum=9112 | rows=23812 parts=6 dev=0x3ee50c3ea58e1c16 io=0x3ec1ac083f77f365 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "scalar wave[2]: count=2181 sum=6543 | rows=23812 parts=6 dev=0x3ee50c3ea58e1c16 io=0x3ec1ac083f77f365 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "q2.1@40%: cut done=2/6 rows=7882 dev=0x3ef59870549c39e4 deadline=0x3ef9eb943b406fda rep=[0,0,0,0,0,0,0,0,0,0]",
    "scan@40%: cut done=2/6 rows=7882 dev=0x3ee5113abf1e767b deadline=0x3ee9480813ff1a2b rep=[0,0,0,0,0,0,0,0,0,0]",
];
const COLD_CACHE: &[&str] = &[
    "start: cache hits=0 misses=0 evictions=0 shared_readers=0",
    "q1.1: groups[1]#481ed730f36e2669 rows=23812 parts=6 dev=0x3effc1c993f63f3a io=0x3f07222230732c0e merge=0x3e401b2b29a4692b rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "q2.1: groups[138]#916454a106031b27 rows=23812 parts=6 dev=0x3f10333ca50845e8 io=0x3f0a664f5bfa6e62 merge=0x3e94e33bfa013864 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "q4.3: groups[0]#cbf29ce484222325 rows=23812 parts=6 dev=0x3f10128f6a39dc50 io=0x3f144248ec74a48a merge=0x0000000000000000 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "solo flights: cache hits=0 misses=84 evictions=47 shared_readers=0",
    "scan: count=23812 sum=634758051 rows=23812 parts=6 dev=0x3eff9a0a18fee0b5 io=0x3ef6504e770671b4 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "point: count=2181 sum=6543 rows=23812 parts=6 dev=0x3eff8f255619a2d9 io=0x3eda820c5f33ed18 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "execute q1.1: groups[1]#481ed730f36e2669 rows=23812 parts=6 dev=0x3effc1c993f63f3a io=0x3f07222230732c0e rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "solo scalars: cache hits=0 misses=120 evictions=71 shared_readers=0",
    "wave of q2.1: shared_decodes=0 launches_saved=0",
    "wave of q2.1[0]: groups[138]#916454a106031b27 | rows=23812 parts=6 dev=0x3f10333ca50845e8 io=0x3f0a664f5bfa6e62 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave: shared_decodes=12 launches_saved=18",
    "wave[0]: groups[1]#481ed730f36e2669 | rows=23812 parts=6 dev=0x3eeb65af8ce3dc25 io=0x3f02c8205c5d95a4 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave[1]: groups[138]#916454a106031b27 | rows=23812 parts=6 dev=0x3f0869e5465b65c5 io=0x3f07b46e4dd816c9 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave[2]: count=23812 sum=475071385380 | rows=23812 parts=6 dev=0x3eb6c5060c771953 io=0x3ec58f087112bcc6 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave[3]: count=2278 sum=9112 | rows=23812 parts=6 dev=0x3eb2aa0b529b9fbf io=0x3eca820c5f33ed18 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave: cache hits=0 misses=186 evictions=107 shared_readers=18",
    "wave cut: shared_decodes=4 launches_saved=10",
    "wave cut[0]: cut done=2/6 rows=7882 dev=0x3ed336b191af0184 deadline=0x3ed5eaf2d71cb01e rep=[0,0,0,0,0,0,0,0,0,0] | rows=7882 parts=6 dev=0x3ed336b191af0184 io=0x3ee95e0cda2943a5 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave cut[1]: groups[138]#916454a106031b27 | rows=23812 parts=6 dev=0x3f0869e5465b65c5 io=0x3f09451baadfe342 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave cut[2]: cut done=0/6 rows=0 dev=0x0000000000000000 deadline=0x3d719799812dea11 rep=[0,0,0,0,0,0,0,0,0,0] | rows=0 parts=6 dev=0x0000000000000000 io=0x0000000000000000 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave cut[3]: count=2278 sum=9112 | rows=23812 parts=6 dev=0x3ee1746287adeeae io=0x3ed3ec460ed80a18 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave cut: cache hits=0 misses=228 evictions=131 shared_readers=25",
    "scalar wave: shared_decodes=6 launches_saved=12",
    "scalar wave[0]: count=23812 sum=118852 | rows=23812 parts=6 dev=0x3ee50c3ea58e1c16 io=0x3ec1ac083f77f365 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "scalar wave[1]: count=2278 sum=9112 | rows=23812 parts=6 dev=0x3ee50c3ea58e1c16 io=0x3ec1ac083f77f365 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "scalar wave[2]: count=2181 sum=6543 | rows=23812 parts=6 dev=0x3ee50c3ea58e1c16 io=0x3ec1ac083f77f365 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "scalar wave: cache hits=0 misses=234 evictions=136 shared_readers=37",
    "q2.1@40%: cut done=2/6 rows=7882 dev=0x3ef59870549c39e4 deadline=0x3ef9eb943b406fda rep=[0,0,0,0,0,0,0,0,0,0]",
    "scan@40%: cut done=2/6 rows=7882 dev=0x3ee5113abf1e767b deadline=0x3ee9480813ff1a2b rep=[0,0,0,0,0,0,0,0,0,0]",
];
const PARTIAL_CACHE: &[&str] = &[
    "start: cache hits=0 misses=0 evictions=0 shared_readers=0",
    "q1.1: groups[1]#481ed730f36e2669 rows=23812 parts=6 dev=0x3effc1c993f63f3a io=0x3f07222230732c0e merge=0x3e401b2b29a4692b rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "q2.1: groups[138]#916454a106031b27 rows=23812 parts=6 dev=0x3f10333ca50845e8 io=0x3f067a892f17d2c6 merge=0x3e94e33bfa013864 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "q4.3: groups[0]#cbf29ce484222325 rows=23812 parts=6 dev=0x3f10128f6a39dc50 io=0x3f058011e74d8226 merge=0x0000000000000000 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "solo flights: cache hits=25 misses=59 evictions=28 shared_readers=0",
    "scan: count=23812 sum=634758051 rows=23812 parts=6 dev=0x3eff9a0a18fee0b5 io=0x3ea56bd07243a05b rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "point: count=2181 sum=6543 rows=23812 parts=6 dev=0x3eff8f255619a2d9 io=0x3eda820c5f33ed18 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "execute q1.1: groups[1]#481ed730f36e2669 rows=23812 parts=6 dev=0x3effc1c993f63f3a io=0x3effff1a25cd7f12 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "solo scalars: cache hits=43 misses=77 evictions=47 shared_readers=0",
    "wave of q2.1: shared_decodes=0 launches_saved=0",
    "wave of q2.1[0]: groups[138]#916454a106031b27 | rows=23812 parts=6 dev=0x3f10333ca50845e8 io=0x3ef750226abb50d9 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave: shared_decodes=12 launches_saved=18",
    "wave[0]: groups[1]#481ed730f36e2669 | rows=23812 parts=6 dev=0x3eeb65af8ce3dc25 io=0x3f00ad228601c98d rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave[1]: groups[138]#916454a106031b27 | rows=23812 parts=6 dev=0x3f0869e5465b65c5 io=0x3ef38f286ab54c64 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave[2]: count=23812 sum=475071385380 | rows=23812 parts=6 dev=0x3eb6c5060c771953 io=0x3e74b2458b45301a rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave[3]: count=2278 sum=9112 | rows=23812 parts=6 dev=0x3eb2aa0b529b9fbf io=0x3ebb774a7c5f7de8 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave: cache hits=74 misses=112 evictions=78 shared_readers=18",
    "wave cut: shared_decodes=4 launches_saved=10",
    "wave cut[0]: cut done=2/6 rows=7882 dev=0x3ed336b191af0184 deadline=0x3ed5eaf2d71cb01e rep=[0,0,0,0,0,0,0,0,0,0] | rows=7882 parts=6 dev=0x3ed336b191af0184 io=0x3ee80aaf66285ad9 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave cut[1]: groups[138]#916454a106031b27 | rows=23812 parts=6 dev=0x3f0869e5465b65c5 io=0x3f075373c543b5d0 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave cut[2]: cut done=0/6 rows=0 dev=0x0000000000000000 deadline=0x3d719799812dea11 rep=[0,0,0,0,0,0,0,0,0,0] | rows=0 parts=6 dev=0x0000000000000000 io=0x0000000000000000 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave cut[3]: count=2278 sum=9112 | rows=23812 parts=6 dev=0x3ee1746287adeeae io=0x3ed3ec460ed80a18 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave cut: cache hits=78 misses=150 evictions=118 shared_readers=25",
    "scalar wave: shared_decodes=6 launches_saved=12",
    "scalar wave[0]: count=23812 sum=118852 | rows=23812 parts=6 dev=0x3ee50c3ea58e1c16 io=0x3ea8d4eef1879a78 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "scalar wave[1]: count=2278 sum=9112 | rows=23812 parts=6 dev=0x3ee50c3ea58e1c16 io=0x3ea8d4eef1879a78 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "scalar wave[2]: count=2181 sum=6543 | rows=23812 parts=6 dev=0x3ee50c3ea58e1c16 io=0x3ea8d4eef1879a78 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "scalar wave: cache hits=82 misses=152 evictions=120 shared_readers=37",
    "q2.1@40%: cut done=2/6 rows=7882 dev=0x3ef59870549c39e4 deadline=0x3ef9eb943b406fda rep=[0,0,0,0,0,0,0,0,0,0]",
    "scan@40%: cut done=2/6 rows=7882 dev=0x3ee5113abf1e767b deadline=0x3ee9480813ff1a2b rep=[0,0,0,0,0,0,0,0,0,0]",
];
const WARM_CACHE: &[&str] = &[
    "start: cache hits=0 misses=84 evictions=0 shared_readers=0",
    "q1.1: groups[1]#481ed730f36e2669 rows=23812 parts=6 dev=0x3effc1c993f63f3a io=0x3eb6353f8aac0155 merge=0x3e401b2b29a4692b rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "q2.1: groups[138]#916454a106031b27 rows=23812 parts=6 dev=0x3f10333ca50845e8 io=0x3eb957fa43d1b1a6 merge=0x3e94e33bfa013864 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "q4.3: groups[0]#cbf29ce484222325 rows=23812 parts=6 dev=0x3f10128f6a39dc50 io=0x3ec372d55de09df4 merge=0x0000000000000000 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "solo flights: cache hits=84 misses=84 evictions=0 shared_readers=0",
    "scan: count=23812 sum=634758051 rows=23812 parts=6 dev=0x3eff9a0a18fee0b5 io=0x3ea56bd07243a05b rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "point: count=2181 sum=6543 rows=23812 parts=6 dev=0x3eff8f255619a2d9 io=0x3e89729b3cacbaa7 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "execute q1.1: groups[1]#481ed730f36e2669 rows=23812 parts=6 dev=0x3effc1c993f63f3a io=0x3eb6353f8aac0155 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "solo scalars: cache hits=120 misses=84 evictions=0 shared_readers=0",
    "wave of q2.1: shared_decodes=0 launches_saved=0",
    "wave of q2.1[0]: groups[138]#916454a106031b27 | rows=23812 parts=6 dev=0x3f10333ca50845e8 io=0x3eb957fa43d1b1a6 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave: shared_decodes=12 launches_saved=18",
    "wave[0]: groups[1]#481ed730f36e2669 | rows=23812 parts=6 dev=0x3eeb65af8ce3dc25 io=0x3eb207cd25788fa8 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave[1]: groups[138]#916454a106031b27 | rows=23812 parts=6 dev=0x3f0869e5465b65c5 io=0x3eb6c1b192690ba2 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave[2]: count=23812 sum=475071385380 | rows=23812 parts=6 dev=0x3eb6c5060c771953 io=0x3e74b2458b45301a rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave[3]: count=2278 sum=9112 | rows=23812 parts=6 dev=0x3eb2aa0b529b9fbf io=0x3e79729b3cacbaa7 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave: cache hits=186 misses=84 evictions=0 shared_readers=18",
    "wave cut: shared_decodes=4 launches_saved=10",
    "wave cut[0]: cut done=2/6 rows=7882 dev=0x3ed336b191af0184 deadline=0x3ed5eaf2d71cb01e rep=[0,0,0,0,0,0,0,0,0,0] | rows=7882 parts=6 dev=0x3ed336b191af0184 io=0x3e985a49c731da8a rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave cut[1]: groups[138]#916454a106031b27 | rows=23812 parts=6 dev=0x3f0869e5465b65c5 io=0x3eb842580033179a rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave cut[2]: cut done=0/6 rows=0 dev=0x0000000000000000 deadline=0x3d719799812dea11 rep=[0,0,0,0,0,0,0,0,0,0] | rows=0 parts=6 dev=0x0000000000000000 io=0x0000000000000000 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave cut[3]: count=2278 sum=9112 | rows=23812 parts=6 dev=0x3ee1746287adeeae io=0x3e83204341733ce4 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave cut: cache hits=228 misses=84 evictions=0 shared_readers=25",
    "scalar wave: shared_decodes=6 launches_saved=12",
    "scalar wave[0]: count=23812 sum=118852 | rows=23812 parts=6 dev=0x3ee50c3ea58e1c16 io=0x3e70f71228732719 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "scalar wave[1]: count=2278 sum=9112 | rows=23812 parts=6 dev=0x3ee50c3ea58e1c16 io=0x3e70f71228732719 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "scalar wave[2]: count=2181 sum=6543 | rows=23812 parts=6 dev=0x3ee50c3ea58e1c16 io=0x3e70f71228732719 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "scalar wave: cache hits=234 misses=84 evictions=0 shared_readers=37",
    "q2.1@40%: cut done=2/6 rows=7882 dev=0x3ef59870549c39e4 deadline=0x3ef9eb943b406fda rep=[0,0,0,0,0,0,0,0,0,0]",
    "scan@40%: cut done=2/6 rows=7882 dev=0x3ee5113abf1e767b deadline=0x3ee9480813ff1a2b rep=[0,0,0,0,0,0,0,0,0,0]",
];
const FORCE_CPU: &[&str] = &[
    "q1.1: groups[1]#481ed730f36e2669 rows=23812 parts=6 dev=0x3efa76d7a566640c io=0x3f03496c3dfa19f0 merge=0x3e401b2b29a4692b rep=[0,0,0,0,0,0,0,1,0,0] rec=[]",
    "q2.1: groups[138]#916454a106031b27 rows=23812 parts=6 dev=0x3f0b0035397557c0 io=0x3f0602e85961e2ba merge=0x3e94e33bfa013864 rep=[0,0,0,0,0,0,0,1,0,0] rec=[]",
    "q4.3: groups[0]#cbf29ce484222325 rows=23812 parts=6 dev=0x3f0ac993072268ec io=0x3f10e4b80954a0d0 merge=0x0000000000000000 rep=[0,0,0,0,0,0,0,1,0,0] rec=[]",
    "scan: count=23812 sum=634758051 rows=23812 parts=6 dev=0x3efa55bb69374316 io=0x3ef29d9fc6e8958f rep=[0,0,0,0,0,0,0,1,0,0] rec=[]",
    "point: count=2181 sum=6543 rows=23812 parts=6 dev=0x3efa4ca27209b581 io=0x3ed61e32d44c006d rep=[0,0,0,0,0,0,0,1,0,0] rec=[]",
    "execute q1.1: groups[1]#481ed730f36e2669 rows=23812 parts=6 dev=0x3efa76d7a566640c io=0x3f03496c3dfa19f0 rep=[0,0,0,0,0,0,0,1,0,0] rec=[]",
    "wave of q2.1: shared_decodes=0 launches_saved=0",
    "wave of q2.1[0]: groups[138]#916454a106031b27 | rows=23812 parts=6 dev=0x3f0b0035397557c0 io=0x3f0602e85961e2ba rep=[0,0,0,0,0,0,0,1,0,0] rec=[]",
    "wave: shared_decodes=10 launches_saved=15",
    "wave[0]: groups[1]#481ed730f36e2669 | rows=23812 parts=6 dev=0x3ee6d680d03e27af io=0x3eff548d9c223e94 rep=[0,0,0,0,0,0,0,1,0,0] rec=[]",
    "wave[1]: groups[138]#916454a106031b27 | rows=23812 parts=6 dev=0x3f04585c311d8557 io=0x3f03c5a616bda81b rep=[0,0,0,0,0,0,0,1,0,0] rec=[]",
    "wave[2]: count=23812 sum=475071385380 | rows=23812 parts=6 dev=0x3eb2e97affdc37a6 io=0x3ec1ea121521d4fa rep=[0,0,0,0,0,0,0,1,0,0] rec=[]",
    "wave[3]: count=2278 sum=9112 | rows=23812 parts=6 dev=0x3eaf21f52f6a5a98 io=0x3ec61e32d44c006d rep=[0,0,0,0,0,0,0,1,0,0] rec=[]",
    "wave cut: shared_decodes=3 launches_saved=8",
    "wave cut[0]: cut done=2/6 rows=7882 dev=0x3ec242e2aa79c055 deadline=0x3ed24533d9cb52f3 rep=[0,0,0,0,0,0,0,1,0,0] | rows=7882 parts=6 dev=0x3ec242e2aa79c055 io=0x3ed8e40faaf29a88 rep=[0,0,0,0,0,0,0,1,0,0] rec=[]",
    "wave cut[1]: groups[138]#916454a106031b27 | rows=23812 parts=6 dev=0x3f04585c311d8557 io=0x3f05392bc0e5ed54 rep=[0,0,0,0,0,0,0,1,0,0] rec=[]",
    "wave cut[2]: cut done=0/6 rows=0 dev=0x0000000000000000 deadline=0x3d719799812dea11 rep=[0,0,0,0,0,0,0,0,0,0] | rows=0 parts=6 dev=0x0000000000000000 io=0x0000000000000000 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave cut[3]: count=2278 sum=9112 | rows=23812 parts=6 dev=0x3ee1114070512060 io=0x3ed1ba59496413c3 rep=[0,0,0,0,0,0,0,1,0,0] rec=[]",
    "scalar wave: shared_decodes=5 launches_saved=10",
    "scalar wave[0]: count=23812 sum=118852 | rows=23812 parts=6 dev=0x3ee18a366d43fd0d io=0x3ebd7d991b100092 rep=[0,0,0,0,0,0,0,1,0,0] rec=[]",
    "scalar wave[1]: count=2278 sum=9112 | rows=23812 parts=6 dev=0x3ee18a366d43fd0d io=0x3ebd7d991b100092 rep=[0,0,0,0,0,0,0,1,0,0] rec=[]",
    "scalar wave[2]: count=2181 sum=6543 | rows=23812 parts=6 dev=0x3ee18a366d43fd0d io=0x3ebd7d991b100092 rep=[0,0,0,0,0,0,0,1,0,0] rec=[]",
    "q2.1@40%: cut done=3/6 rows=11829 dev=0x3ef5988452564caf deadline=0x3ef599c42df77967 rep=[0,0,0,0,0,0,0,1,0,0]",
    "scan@40%: cut done=3/6 rows=11829 dev=0x3ee5113abf1e767b deadline=0x3ee51162ba929c12 rep=[0,0,0,0,0,0,0,1,0,0]",
];

#[test]
fn every_entry_point_without_a_cache() {
    let _guard = lock();
    let (store, dir) = fresh_store("none");
    check("no cache", NO_CACHE, || sequence(&store, Opts::NoCache));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_entry_point_over_a_cache_smaller_than_a_partition() {
    let _guard = lock();
    let (store, dir) = fresh_store("cold");
    check("cold cache", COLD_CACHE, || {
        sequence(&store, Opts::ColdCache)
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_entry_point_over_a_cache_that_holds_half_the_reads() {
    let _guard = lock();
    let (store, dir) = fresh_store("partial");
    check("partial cache", PARTIAL_CACHE, || {
        sequence(&store, Opts::PartialCache)
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_entry_point_over_a_warm_cache() {
    let _guard = lock();
    let (store, dir) = fresh_store("warm");
    check("warm cache", WARM_CACHE, || {
        sequence(&store, Opts::WarmCache)
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_entry_point_with_a_partition_routed_to_the_cpu() {
    let _guard = lock();
    let (store, dir) = fresh_store("cpu");
    check("forced CPU", FORCE_CPU, || sequence(&store, Opts::ForceCpu));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- solo is a wave of one -------------------------------------------

/// A flight's modelled read seconds rebuilt from the manifest, the
/// way the fold sums them: per partition over `columns` in order, then
/// over partitions.
fn read_seconds(store: &SsbStore, columns: &[LoColumn]) -> f64 {
    let manifest = store.store().manifest();
    let mut total = 0.0f64;
    for part in &manifest.partitions {
        let mut partition = 0.0f64;
        for c in columns {
            let file = manifest.column_index(c.name()).expect("in the layout");
            partition += modeled_read_s(part.files[file].bytes as u64, false);
        }
        total += partition;
    }
    total
}

#[test]
fn a_one_member_flight_wave_is_the_solo_flight() {
    let _guard = lock();
    let (store, dir) = fresh_store("one");
    let opts = StreamOptions::default();
    for threads in [1, 4] {
        set_sim_threads_override(Some(threads));
        for q in [QueryId::Q11, QueryId::Q21, QueryId::Q31, QueryId::Q43] {
            let solo = run_query_streamed_bounded(&store, q, &opts).expect("solo");
            let member = [WaveQuery {
                spec: WaveSpec::Flight(q),
                deadline_device_s: None,
            }];
            let wave = run_wave_streamed(&store, &member, &opts).expect("wave");
            let one = &wave.queries[0];
            let label = format!("{} at {threads} sim thread(s)", q.name());
            assert_eq!(
                one.outcome.as_ref().ok(),
                Some(&WaveAnswer::Groups(solo.result)),
                "{label}"
            );
            assert_eq!(one.device_s.to_bits(), solo.device_s.to_bits(), "{label}");
            assert_eq!(
                (one.rows, one.partitions),
                (solo.rows, solo.partitions),
                "{label}"
            );
            assert_eq!(one.report, solo.report, "{label}");
            assert_eq!(
                one.recovered_partitions, solo.recovered_partitions,
                "{label}"
            );
            assert_eq!(
                (wave.shared_decodes, wave.launches_saved),
                (0, 0),
                "{label}"
            );
            // The same per-column terms, summed in the query's column
            // order by the solo run and in `LoColumn::ALL` order by the
            // wave: equal term by term, not always bit for bit.
            let in_all_order: Vec<LoColumn> = LoColumn::ALL
                .into_iter()
                .filter(|c| q.columns().contains(c))
                .collect();
            assert_eq!(
                solo.io_s.to_bits(),
                read_seconds(&store, q.columns()).to_bits(),
                "{label}"
            );
            assert_eq!(
                one.io_s.to_bits(),
                read_seconds(&store, &in_all_order).to_bits(),
                "{label}"
            );
        }
        set_sim_threads_override(None);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- fault plans and bit rot ----------------------------------------

/// Kill the device of partition 0 mid-query, tear partition 1's first
/// column, rot one bit of partition 2's; on top, device-level rates, so
/// the rows also depend on the order columns are uploaded in (the
/// allocation order feeds the fault PRNG).
fn drill(seed: u64) -> FaultPlan {
    FaultPlan {
        bitflip_rate: 2e-5,
        transient_launch_rate: 0.15,
        storage: StorageFaults {
            kill_shard_at_partition: Some(0),
            truncate_at_partition: Some(1),
            flip_bit_at_partition: Some(2),
        },
        ..FaultPlan::seeded(seed)
    }
}

const DRILLS: &[&str] = &[
    "q1.1: groups[1]#481ed730f36e2669 rows=23812 parts=6 dev=0x3f07be28dd5066f6 io=0x3efee014fe13ec9c merge=0x3e401b2b29a4692b rep=[0,3,1,3,0,0,1,0,2,2] rec=[0, 1, 2]",
    "q2.1: groups[138]#916454a106031b27 rows=23812 parts=6 dev=0x3f10333ca50845e8 io=0x3f019ed58a52458e merge=0x3e94e33bfa013864 rep=[1,0,1,0,0,1,2,0,2,2] rec=[0, 1, 2, 5]",
    "q4.3: groups[0]#cbf29ce484222325 rows=23812 parts=6 dev=0x3f17ff0f751a03bc io=0x3f0b0b65d6654398 merge=0x0000000000000000 rep=[0,3,1,3,0,0,1,0,2,2] rec=[0, 1, 2]",
    "execute q1.1: groups[1]#481ed730f36e2669 rows=23812 parts=6 dev=0x3f07be28dd5066f6 io=0x3efee014fe13ec9c rep=[0,3,1,3,0,0,1,0,2,2] rec=[0, 1, 2]",
];

#[test]
fn solo_flights_under_a_kill_truncate_flip_plan() {
    let _guard = lock();
    let (store, dir) = fresh_store("drill");
    check("fault drills", DRILLS, || {
        let mut out = Vec::new();
        for (q, seed) in [(QueryId::Q11, 9), (QueryId::Q21, 10), (QueryId::Q43, 11)] {
            let opts = StreamOptions {
                plan: Some(drill(seed)),
                ..StreamOptions::default()
            };
            out.push(streamed(
                q.name(),
                &run_query_streamed_bounded(&store, q, &opts),
            ));
            store.store().verify().expect("healed in place");
        }
        // The same drill through the service's entry point.
        let opts = StreamOptions {
            plan: Some(drill(9)),
            ..StreamOptions::default()
        };
        out.push(executed(
            "execute q1.1",
            &execute(&store, &QuerySpec::Flight(QueryId::Q11), &opts),
        ));
        store.store().verify().expect("healed in place");
        out
    });
    let _ = std::fs::remove_dir_all(&dir);
}

const BIT_ROT: &[&str] = &[
    "healing wave: shared_decodes=12 launches_saved=18",
    "healing wave[0]: groups[1]#481ed730f36e2669 | rows=23812 parts=6 dev=0x3eeb65af8ce3dc25 io=0x3eff548d9c223e94 rep=[0,0,0,0,0,0,0,0,1,1] rec=[1]",
    "healing wave[1]: groups[138]#916454a106031b27 | rows=23812 parts=6 dev=0x3f0869e5465b65c5 io=0x3f03c5a616bda81b rep=[0,0,0,0,0,0,0,0,1,1] rec=[1]",
    "healing wave[2]: count=23812 sum=475071385380 | rows=23812 parts=6 dev=0x3eb6c5060c771953 io=0x3ec1ea121521d4fa rep=[0,0,0,0,0,0,0,0,1,1] rec=[1]",
    "healing wave[3]: count=2278 sum=9112 | rows=23812 parts=6 dev=0x3eb2aa0b529b9fbf io=0x3ec61e32d44c006d rep=[0,0,0,0,0,0,0,0,1,1] rec=[1]",
    "wave after: shared_decodes=12 launches_saved=18",
    "wave after[0]: groups[1]#481ed730f36e2669 | rows=23812 parts=6 dev=0x3eeb65af8ce3dc25 io=0x3f02c8205c5d95a4 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave after[1]: groups[138]#916454a106031b27 | rows=23812 parts=6 dev=0x3f0869e5465b65c5 io=0x3f07b46e4dd816c9 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave after[2]: count=23812 sum=475071385380 | rows=23812 parts=6 dev=0x3eb6c5060c771953 io=0x3ec58f087112bcc6 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "wave after[3]: count=2278 sum=9112 | rows=23812 parts=6 dev=0x3eb2aa0b529b9fbf io=0x3eca820c5f33ed18 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "healing scan: count=23812 sum=609003 rows=23812 parts=6 dev=0x3eff90fb20ae5c85 io=0x3eded794e02fb964 rep=[0,0,0,0,0,0,0,0,1,1] rec=[1]",
    "scan after: count=23812 sum=609003 rows=23812 parts=6 dev=0x3eff90fb20ae5c85 io=0x3ee27b9f4f57c8b1 rep=[0,0,0,0,0,0,0,0,0,0] rec=[]",
    "healing q2.1: groups[138]#916454a106031b27 rows=23812 parts=6 dev=0x3f10333ca50845e8 io=0x3f0602e85961e2ba merge=0x3e94e33bfa013864 rep=[0,0,0,0,0,0,0,0,1,1] rec=[1]",
];

#[test]
fn bit_rot_found_at_open_is_healed_by_a_wave_and_by_a_scan() {
    let _guard = lock();
    let (store, dir) = fresh_store("rot");
    drop(store);
    let rot = |column: &str, bit: u64| {
        let (store, _) = SsbStore::open(&dir).expect("open");
        let path = store.store().path_of(1, column);
        drop(store);
        damage::flip_bit(&path, bit).expect("rot");
        let (store, recovery) = SsbStore::open_deep(&dir).expect("reopen");
        assert_eq!(recovery.quarantined.len(), 1);
        store
    };
    check("bit rot", BIT_ROT, || {
        let mut out = Vec::new();
        let opts = StreamOptions::default();
        // OrderDate is consumed by three of the wave's four members.
        let store = rot("orderdate", 137);
        waved(
            "healing wave",
            &run_wave_streamed(&store, &mixed_wave(), &opts),
            &mut out,
        );
        store.store().verify().expect("healed in place");
        waved(
            "wave after",
            &run_wave_streamed(&store, &mixed_wave(), &opts),
            &mut out,
        );
        drop(store);

        let store = rot("quantity", 99);
        let scan = QuerySpec::Scan {
            column: LoColumn::Quantity,
        };
        out.push(executed("healing scan", &execute(&store, &scan, &opts)));
        store.store().verify().expect("healed in place");
        out.push(executed("scan after", &execute(&store, &scan, &opts)));
        drop(store);

        let store = rot("suppkey", 1234);
        out.push(streamed(
            "healing q2.1",
            &run_query_streamed_bounded(&store, QueryId::Q21, &opts),
        ));
        store.store().verify().expect("healed in place");
        out
    });
    let _ = std::fs::remove_dir_all(&dir);
}
