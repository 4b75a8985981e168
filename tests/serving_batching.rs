//! Batching determinism acceptance: shared-scan waves never change an
//! answer, at any batch window, at any `TLC_SIM_THREADS`.
//!
//! The traffic is built so every wave exercises the interesting paths
//! at once: an in-wave duplicate pair (dedup fan-out), a scan and a
//! point filter over one of the flight's columns (one shared load, and
//! one decode of each tile that answers all three), a deadline that
//! expires mid-wave (one member cut while the rest complete), and — in chaos mode — kill-shard fault plans on the
//! flights (plan-carrying requests must leave the wave and run solo).
//! The contract:
//!
//! 1. **Batched ≡ unbatched**: the full outcome digest vector at batch
//!    window 4 equals the window-1 (solo) vector, clean and chaos.
//! 2. **Thread-count invariance**: the window-4 digests are identical
//!    at `TLC_SIM_THREADS` 1 and 4.
//! 3. **Bit-identical artifacts**: a full `run_loadgen` report —
//!    percentiles, batching counters, speedups — replays byte-equal
//!    across sim thread counts.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use tlc::serve::{run_loadgen, LoadgenConfig, Outcome, QuerySpec, Request, ServeConfig, Service};
use tlc::sim::{set_sim_threads_override, FaultPlan, StorageFaults};
use tlc::ssb::{LoColumn, QueryId, SsbStore, StreamSpec};

/// `set_sim_threads_override` is process-global; serialize tests that
/// flip it (mirrors `tests/serving_chaos.rs`).
static THREADS_LOCK: Mutex<()> = Mutex::new(());

const REQUESTS: usize = 24;
const KILL_AT: usize = 1;

fn fresh_store(tag: &str) -> (Arc<SsbStore>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("tlc_serving_batch_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SsbStore::ingest(&dir, &StreamSpec::for_rows(1, 60_000, 2_500)).expect("ingest");
    assert!(store.store().partition_count() > KILL_AT);
    (Arc::new(store), dir)
}

/// A rotation where every window-4 wave holds a duplicate flight pair
/// and a scan and a point filter over the flight's Quantity; every
/// eighth request carries a deadline the first partition overruns, so
/// it is cut mid-wave while its wave-mates complete. In chaos mode the
/// flights carry kill-shard fault plans and must run solo.
fn traffic(chaos: bool) -> Vec<Request> {
    (0..REQUESTS)
        .map(|i| {
            let query = match i % 4 {
                0 | 1 => QuerySpec::Flight(QueryId::Q11),
                2 => QuerySpec::Scan {
                    column: LoColumn::Quantity,
                },
                _ => QuerySpec::PointFilter {
                    column: LoColumn::Quantity,
                    value: 4,
                },
            };
            let mut req = Request::new(i as u64, query);
            if i % 8 == 6 {
                req.deadline_device_s = Some(1e-12);
            }
            if chaos && matches!(req.query, QuerySpec::Flight(_)) {
                req.plan = Some(FaultPlan {
                    storage: StorageFaults {
                        kill_shard_at_partition: Some(KILL_AT),
                        ..StorageFaults::default()
                    },
                    ..FaultPlan::seeded(i as u64)
                });
            }
            req
        })
        .collect()
}

/// Stable per-request outcome digest (same shape as
/// `tests/serving_chaos.rs`).
fn digest(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Completed(out) => format!("completed:{:?}", out.answer),
        Outcome::DeadlineExceeded(p) => {
            format!("deadline:{}/{}", p.partitions_completed, p.partitions)
        }
        Outcome::Failed { error, .. } => format!("failed:{error}"),
    }
}

/// Drive the whole traffic through one single-worker service at the
/// given batch window. `submit_many` lands every request under one
/// queue lock before the worker's first pop, so the wave composition
/// is fixed: the worker drains the queue window-sized wave by wave.
fn run_traffic(tag: &str, window: usize, chaos: bool) -> Vec<(u64, String)> {
    let (store, dir) = fresh_store(tag);
    let svc = Service::start(
        Arc::clone(&store),
        ServeConfig {
            workers: 1,
            queue_capacity: REQUESTS,
            batch_window: window,
            ..ServeConfig::deterministic()
        },
    );
    let digests: Vec<(u64, String)> = svc
        .submit_many(traffic(chaos))
        .into_iter()
        .enumerate()
        .map(|(id, r)| {
            let resp = r.expect("queue sized for the traffic").wait();
            assert_eq!(resp.id, id as u64);
            (resp.id, digest(&resp.outcome))
        })
        .collect();
    let m = svc.shutdown();
    assert!(m.is_balanced(), "books at window {window}: {m:?}");
    assert_eq!(m.terminals(), REQUESTS as u64);
    assert!(m.deadline_exceeded > 0, "mix must cut a deadline mid-wave");
    if window >= 2 && !chaos {
        // Clean waves hold the scan and the point filter on one
        // column, so a decode must actually have been shared.
        assert!(m.batched_queries > 0, "{m:?}");
        assert!(m.shared_decodes > 0, "{m:?}");
    }
    if window <= 1 {
        assert_eq!(m.batched_queries, 0, "{m:?}");
        assert_eq!(m.shared_decodes, 0, "{m:?}");
        assert_eq!(m.launches_saved, 0, "{m:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
    digests
}

#[test]
fn batched_answers_equal_unbatched_answers() {
    let _guard = THREADS_LOCK.lock().unwrap();
    set_sim_threads_override(None);
    for chaos in [false, true] {
        let solo = run_traffic(&format!("solo_{chaos}"), 1, chaos);
        let batched = run_traffic(&format!("wave_{chaos}"), 4, chaos);
        assert_eq!(
            solo, batched,
            "batching changed an answer or terminal kind (chaos={chaos})"
        );
    }
}

#[test]
fn batched_outcomes_are_thread_count_invariant() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let mut per_threads = Vec::new();
    for threads in [1usize, 4] {
        set_sim_threads_override(Some(threads));
        per_threads.push(run_traffic(&format!("threads{threads}"), 4, true));
        set_sim_threads_override(None);
    }
    assert_eq!(
        per_threads[0], per_threads[1],
        "batched outcomes diverge between 1 and 4 sim threads"
    );
}

#[test]
fn loadgen_artifact_is_bit_identical_across_thread_counts() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let cfg = LoadgenConfig {
        requests: 64,
        arrival_rate_qps: 50_000.0, // saturating: waves fill the window
        ..LoadgenConfig::default()
    };
    let mut rendered = Vec::new();
    for threads in [1usize, 4] {
        set_sim_threads_override(Some(threads));
        let (store, dir) = fresh_store(&format!("loadgen{threads}"));
        let report = run_loadgen(&store, &cfg);
        set_sim_threads_override(None);
        assert!(report.metrics.is_balanced(), "{:?}", report.metrics);
        assert!(report.p50_batch_speedup.is_some());
        rendered.push(report.to_json().render());
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(
        rendered[0], rendered[1],
        "the serving artifact must replay byte-identically across sim threads"
    );
}
