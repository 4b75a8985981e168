//! Bounded-retry acceptance (satellite of the serving PR).
//!
//! When every shard fails persistently-transiently
//! (`transient_launch_rate: 1.0` — the launch never succeeds on the
//! armed device), the executor must do a **provably bounded** amount
//! of retry work per query: exactly [`MAX_TRANSIENT_RETRIES`] in-place
//! retries per armed attempt, one `retries_exhausted` terminal reason
//! per shard, one failover to a fresh device — and then stop. No
//! unbounded retry storm, no livelock. The tally must be bit-identical
//! at `TLC_SIM_THREADS` 1 and 4.

use std::sync::Mutex;

use tlc::sim::{set_sim_threads_override, FaultPlan};
use tlc::ssb::fleet::run_query_sharded;
use tlc::ssb::{
    run_query_streamed_bounded, QueryId, SsbData, SsbStore, StreamOptions, StreamSpec, System,
    MAX_TRANSIENT_RETRIES,
};

/// `set_sim_threads_override` is process-global; serialize the tests
/// that flip it.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

/// Sharded in-memory path: all shards armed with an always-failing
/// launch. Retry work per query is exactly bounded, seeds 0..4,
/// identical at 1 and 4 workers.
#[test]
fn sharded_retry_work_is_bounded_when_every_shard_fails() {
    let _guard = THREADS_LOCK.lock().unwrap();
    const SHARDS: usize = 4;
    let data = SsbData::generate(0.01);
    let clean = run_query_sharded(&data, System::GpuStar, QueryId::Q11, SHARDS, 1.0, &[]);

    for seed in 0..4u64 {
        let plans: Vec<Option<FaultPlan>> = (0..SHARDS)
            .map(|s| {
                Some(FaultPlan {
                    transient_launch_rate: 1.0,
                    ..FaultPlan::seeded(seed ^ (s as u64) << 32)
                })
            })
            .collect();
        let mut runs = Vec::new();
        for workers in [1usize, 4] {
            set_sim_threads_override(Some(workers));
            let run = run_query_sharded(&data, System::GpuStar, QueryId::Q11, SHARDS, 1.0, &plans);
            set_sim_threads_override(None);
            assert_eq!(
                run.result, clean.result,
                "seed {seed} at {workers} workers: failover did not recover the result"
            );
            let r = &run.report;
            // The bound: each shard's armed attempt retries exactly
            // MAX_TRANSIENT_RETRIES times, exhausts once, fails over
            // once to a clean device — which succeeds, so no CPU
            // fallback and no further attempts.
            assert_eq!(r.transient_retries, MAX_TRANSIENT_RETRIES * SHARDS);
            assert_eq!(r.retries_exhausted, SHARDS);
            assert_eq!(r.shards_failed_over, SHARDS);
            assert_eq!(r.cpu_fallbacks, 0);
            runs.push(run);
        }
        assert_eq!(
            runs[0].report, runs[1].report,
            "seed {seed}: retry tally diverges between 1 and 4 workers"
        );
        assert_eq!(runs[0].result, runs[1].result);
    }
}

/// Out-of-core streamed path: the same bound holds per partition, and
/// the streamed report is bit-identical at 1 and 4 workers.
#[test]
fn streamed_retry_work_is_bounded_when_every_partition_fails() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("tlc_retry_bounds_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SsbStore::ingest(&dir, &StreamSpec::for_rows(1, 60_000, 2_500)).expect("ingest");
    let n = store.store().partition_count();
    assert!(n >= 2, "need a multi-partition store");

    let clean =
        run_query_streamed_bounded(&store, QueryId::Q11, &StreamOptions::default()).expect("clean");

    for seed in 0..4u64 {
        let opts = StreamOptions {
            plan: Some(FaultPlan {
                transient_launch_rate: 1.0,
                ..FaultPlan::seeded(seed)
            }),
            ..StreamOptions::default()
        };
        let mut runs = Vec::new();
        for workers in [1usize, 4] {
            set_sim_threads_override(Some(workers));
            let run = run_query_streamed_bounded(&store, QueryId::Q11, &opts).expect("streamed");
            set_sim_threads_override(None);
            assert_eq!(run.result, clean.result, "seed {seed} at {workers} workers");
            let r = &run.report;
            assert_eq!(r.transient_retries, MAX_TRANSIENT_RETRIES * n);
            assert_eq!(r.retries_exhausted, n);
            assert_eq!(r.shards_failed_over, n);
            assert_eq!(r.cpu_fallbacks, 0);
            runs.push(run);
        }
        assert_eq!(
            runs[0].report, runs[1].report,
            "seed {seed}: streamed retry tally diverges between 1 and 4 workers"
        );
        assert_eq!(runs[0].result, runs[1].result);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
