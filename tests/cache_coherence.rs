//! Coherence acceptance for the shared compressed-partition cache
//! (ISSUE 9): the cache may change *when* bytes are read, never *what*
//! a query answers.
//!
//! * **Hit-after-heal revalidation** — bit-rot a file whose bytes are
//!   already cached, quarantine it through a direct load, heal it in
//!   place, and require the next cached query to revalidate the stale
//!   entry (counted) and still answer bit-identically to a cold store.
//! * **Eviction under budget** — a cache smaller than the query's
//!   working set must evict instead of overcommitting, stay within its
//!   byte budget, and leave every answer unchanged.
//! * **Worker-count determinism** — with the cache enabled, results at
//!   1 and 4 `TLC_SIM_THREADS` are bit-identical to each other and to
//!   the cache-off run, cold and warm.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

use tlc::sim::set_sim_threads_override;
use tlc::ssb::reference::run_reference;
use tlc::ssb::stream::{run_query_streamed_bounded, SsbStore, StreamOptions};
use tlc::ssb::{QueryId, StreamSpec};
use tlc::store::{damage, PartitionCache};

static OVERRIDE: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    OVERRIDE.lock().unwrap_or_else(|e| e.into_inner())
}

fn with_workers<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    set_sim_threads_override(Some(threads));
    let out = f();
    set_sim_threads_override(None);
    out
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("tlc_cache_coherence_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_spec() -> StreamSpec {
    StreamSpec::for_rows(5, 16_000, 1_000)
}

fn cached_opts(cache: &Arc<PartitionCache>) -> StreamOptions {
    StreamOptions {
        cache: Some(Arc::clone(cache)),
        ..StreamOptions::default()
    }
}

#[test]
fn hit_after_heal_revalidates_and_matches_cold_store() {
    let _g = lock();
    let dir = tmp_dir("heal");
    let spec = small_spec();
    let store = SsbStore::ingest(&dir, &spec).expect("ingest");
    let cold = run_query_streamed_bounded(&store, QueryId::Q11, &StreamOptions::default())
        .expect("cold run")
        .result;

    let cache = Arc::new(PartitionCache::new(256 << 20));
    let opts = cached_opts(&cache);
    let first = run_query_streamed_bounded(&store, QueryId::Q11, &opts).expect("fill run");
    assert_eq!(first.result, cold);
    let filled = cache.stats();
    assert!(filled.misses > 0, "fill run must load through the cache");
    assert_eq!(filled.hits, 0);

    // Warm repeat: every load is a hit, and the modelled read time
    // collapses accordingly.
    let warm = run_query_streamed_bounded(&store, QueryId::Q11, &opts).expect("warm run");
    assert_eq!(warm.result, cold);
    assert_eq!(cache.stats().hits, filled.misses);
    assert!(
        warm.io_s < first.io_s,
        "warm io {} must undercut cold io {}",
        warm.io_s,
        first.io_s
    );

    // Bit-rot a file whose bytes the cache is still holding, then
    // quarantine it with a direct (uncached) load and heal in place.
    let column = QueryId::Q11.columns()[0].name();
    damage::flip_bit(&store.store().path_of(1, column), 99).expect("flip");
    assert!(
        store.store().load_column(1, column).is_err(),
        "direct load must detect the rot and quarantine"
    );
    assert!(store.heal_damaged().expect("heal") >= 1);
    store
        .store()
        .verify()
        .expect("store is clean after healing");

    // The cached copy predates the heal: serving it untouched would
    // trust bytes from before the store changed. The epoch bump forces
    // a revalidation (drop + verified reload), and the answer still
    // matches the cold store.
    let reval_before = cache.stats().revalidations;
    let after = run_query_streamed_bounded(&store, QueryId::Q11, &opts).expect("post-heal run");
    assert_eq!(after.result, cold);
    let stats = cache.stats();
    assert!(
        stats.revalidations > reval_before,
        "stale entry must be revalidated, not served: {stats:?}"
    );
    assert_eq!(after.report, Default::default(), "healed store runs clean");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eviction_under_budget_preserves_answers() {
    let _g = lock();
    let dir = tmp_dir("evict");
    let spec = small_spec();
    let store = SsbStore::ingest(&dir, &spec).expect("ingest");
    let reference = run_reference(&spec.materialize(), QueryId::Q12);

    // Budget ≈ 1.5 partitions of the query's working set: the cache
    // must evict to make room while the query walks the partitions.
    let manifest = store.store().manifest();
    let working_set: u64 = QueryId::Q12
        .columns()
        .iter()
        .map(|c| {
            let idx = manifest.column_index(c.name()).expect("column in layout");
            manifest.partitions[0].files[idx].bytes as u64
        })
        .sum();
    let budget = working_set * 3 / 2;
    let cache = Arc::new(PartitionCache::new(budget));
    let opts = cached_opts(&cache);

    for round in 0..2 {
        let run = run_query_streamed_bounded(&store, QueryId::Q12, &opts).expect("run");
        assert_eq!(run.result, reference, "round {round}");
        let stats = cache.stats();
        assert!(
            stats.bytes_resident <= budget,
            "resident {} exceeds budget {budget}",
            stats.bytes_resident
        );
    }
    let stats = cache.stats();
    assert!(
        stats.evictions > 0,
        "a cache smaller than the working set must evict: {stats:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_on_matches_cache_off_at_any_worker_count() {
    let _g = lock();
    let dir = tmp_dir("det");
    let spec = small_spec();
    let store = SsbStore::ingest(&dir, &spec).expect("ingest");
    let reference = run_reference(&spec.materialize(), QueryId::Q13);

    for threads in [1usize, 4] {
        with_workers(threads, || {
            let off = run_query_streamed_bounded(&store, QueryId::Q13, &StreamOptions::default())
                .expect("cache off");
            let cache = Arc::new(PartitionCache::new(256 << 20));
            let opts = cached_opts(&cache);
            let cold = run_query_streamed_bounded(&store, QueryId::Q13, &opts).expect("cache cold");
            let warm = run_query_streamed_bounded(&store, QueryId::Q13, &opts).expect("cache warm");
            for (label, run) in [("off", &off), ("cold", &cold), ("warm", &warm)] {
                assert_eq!(
                    run.result, reference,
                    "{label} at {threads} workers diverged"
                );
            }
            // io_s is worker-count independent (folded in partition
            // order), and the warm pass prices every read as a hit.
            assert_eq!(cold.io_s, off.io_s);
            assert!(warm.io_s < cold.io_s);
            assert!(cache.stats().hits >= cache.stats().misses);
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
}
