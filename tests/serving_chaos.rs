//! Chaos-under-load acceptance for the serving layer (tentpole).
//!
//! Mixed traffic (SSB flight 1, point filters, scans, a few
//! deadline-armed requests) is driven through a live [`Service`] while
//! faults land mid-traffic: every flight query carries a kill-shard
//! fault plan, and a partition file is bit-rotted on disk halfway
//! through the submission stream. The contract under all of that:
//!
//! 1. **Exactly one terminal state per query** — the metrics books
//!    balance (`admitted == completed + deadline + failed`, nothing
//!    hung, nothing double-counted).
//! 2. **Aggregate results bit-identical to a fault-free run** — shard
//!    failover and regenerate-and-heal recovery are invisible in the
//!    answers.
//! 3. Both hold at `TLC_SIM_THREADS` 1 and 4, and the per-request
//!    outcome digests are identical across thread counts.
//! 4. The store verifies clean afterwards (the bit-rot self-healed).

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use tlc::serve::{Outcome, QuerySpec, Request, ServeConfig, Service};
use tlc::sim::{set_sim_threads_override, FaultPlan, StorageFaults};
use tlc::ssb::{LoColumn, QueryId, SsbStore, StreamSpec};

/// `set_sim_threads_override` is process-global; serialize tests that
/// flip it (mirrors `tests/retry_bounds.rs`).
static THREADS_LOCK: Mutex<()> = Mutex::new(());

const REQUESTS: usize = 24;
const KILL_AT: usize = 1;
const ROT_PARTITION: usize = 2;

fn fresh_store(tag: &str) -> (Arc<SsbStore>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("tlc_serving_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SsbStore::ingest(&dir, &StreamSpec::for_rows(1, 60_000, 2_500)).expect("ingest");
    assert!(store.store().partition_count() > ROT_PARTITION);
    (Arc::new(store), dir)
}

/// The deterministic traffic mix. With `chaos` set, every flight query
/// carries a kill-shard fault plan (the shard dies mid-query and must
/// fail over); the non-flight requests are identical in both modes.
fn traffic(chaos: bool) -> Vec<Request> {
    (0..REQUESTS)
        .map(|i| {
            let query = match i % 6 {
                0 => QuerySpec::Flight(QueryId::Q11),
                1 => QuerySpec::PointFilter {
                    column: LoColumn::Discount,
                    value: (i % 11) as i32,
                },
                2 => QuerySpec::Scan {
                    column: LoColumn::Revenue,
                },
                3 => QuerySpec::Flight(QueryId::Q12),
                4 => QuerySpec::PointFilter {
                    column: LoColumn::Quantity,
                    value: 1 + (i % 50) as i32,
                },
                _ => QuerySpec::Scan {
                    column: LoColumn::Quantity,
                },
            };
            let mut req = Request::new(i as u64, query);
            if i % 8 == 2 {
                // A deadline the first partition always overruns: a
                // deterministic DeadlineExceeded terminal in both the
                // clean and the chaos run.
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

/// Stable per-request outcome digest: the terminal kind plus the parts
/// of the payload that must survive faults bit-identically.
fn digest(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Completed(out) => format!("completed:{:?}", out.answer),
        Outcome::DeadlineExceeded(p) => {
            format!("deadline:{}/{}", p.partitions_completed, p.partitions)
        }
        Outcome::Failed { error, .. } => format!("failed:{error}"),
    }
}

/// Drive one full wave of traffic. In chaos mode a partition file is
/// bit-rotted on disk halfway through the submission stream, while
/// earlier queries are still in flight.
fn run_wave(tag: &str, chaos: bool) -> Vec<(u64, String)> {
    let (store, dir) = fresh_store(tag);
    let svc = Service::start(
        Arc::clone(&store),
        ServeConfig {
            workers: 2,
            queue_capacity: REQUESTS,
            ..ServeConfig::deterministic()
        },
    );
    let reqs = traffic(chaos);
    let half = reqs.len() / 2;
    let mut tickets = Vec::new();
    for (i, req) in reqs.into_iter().enumerate() {
        if chaos && i == half {
            let path = store.store().path_of(ROT_PARTITION, "quantity");
            tlc::store::damage::flip_bit(&path, 137).expect("rot");
        }
        let id = req.id;
        tickets.push((id, svc.submit(req).expect("queue sized for the wave")));
    }
    let digests: Vec<(u64, String)> = tickets
        .into_iter()
        .map(|(id, t)| (id, digest(&t.wait().outcome)))
        .collect();
    let m = svc.shutdown();

    // Invariant 1: exactly one terminal state per admitted query.
    assert!(m.is_balanced(), "books do not balance: {m:?}");
    assert_eq!(m.submitted, REQUESTS as u64);
    assert_eq!(m.admitted, REQUESTS as u64);
    assert_eq!(m.terminals(), REQUESTS as u64);
    assert_eq!(m.latency.count, REQUESTS);
    assert!(m.deadline_exceeded > 0, "mix must exercise deadlines");

    // Invariant 4: whatever the chaos did to the store healed in place.
    store
        .store()
        .verify()
        .expect("store verifies clean after the wave");
    let _ = std::fs::remove_dir_all(&dir);
    digests
}

/// One deduplicated wave execution answers many tickets — and the
/// books still balance: every duplicate ticket is a separate admitted
/// query and must reach its own terminal state, even though only one
/// execution ran.
#[test]
fn deduplicated_wave_answers_every_ticket_with_balanced_books() {
    let (store, dir) = fresh_store("dedup");
    let svc = Service::start(
        Arc::clone(&store),
        ServeConfig {
            workers: 1,
            queue_capacity: 16,
            batch_window: 6,
            ..ServeConfig::deterministic()
        },
    );
    // Six jobs land as consecutive queue entries under one lock, so
    // the single worker's next wave covers all of them: three
    // identical flights (one execution, three tickets), a duplicated
    // scan, and a point filter sharing the scanned column.
    let queries = [
        QuerySpec::Flight(QueryId::Q11),
        QuerySpec::Flight(QueryId::Q11),
        QuerySpec::Scan {
            column: LoColumn::Quantity,
        },
        QuerySpec::Scan {
            column: LoColumn::Quantity,
        },
        QuerySpec::Flight(QueryId::Q11),
        QuerySpec::PointFilter {
            column: LoColumn::Quantity,
            value: 4,
        },
    ];
    let reqs: Vec<Request> = queries
        .iter()
        .enumerate()
        .map(|(id, q)| Request::new(id as u64, q.clone()))
        .collect();
    let digests: Vec<String> = svc
        .submit_many(reqs)
        .into_iter()
        .map(|r| digest(&r.expect("queue sized for the wave").wait().outcome))
        .collect();
    // Duplicates get the fanned-out outcome of their one execution.
    assert_eq!(digests[0], digests[1]);
    assert_eq!(digests[0], digests[4]);
    assert_eq!(digests[2], digests[3]);
    let m = svc.shutdown();
    assert!(m.is_balanced(), "books under dedup fan-out: {m:?}");
    assert_eq!(m.admitted, queries.len() as u64);
    assert_eq!(m.completed, queries.len() as u64);
    assert_eq!(m.latency.count, queries.len());
    // Every ticket rode a shared wave (3 distinct queries), and one
    // decode of each `quantity` tile answered the scan, the point
    // filter and Q11, which reads it too: all three are members of the
    // wave's one filter part.
    assert_eq!(m.batched_queries, queries.len() as u64);
    assert!(m.shared_decodes > 0, "{m:?}");
    assert!(m.launches_saved > 0, "{m:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_under_load_is_invisible_in_answers_and_accounting() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let mut per_threads = Vec::new();
    for threads in [1usize, 4] {
        set_sim_threads_override(Some(threads));
        let clean = run_wave(&format!("clean{threads}"), false);
        let chaos = run_wave(&format!("chaos{threads}"), true);
        set_sim_threads_override(None);
        // Invariant 2: kill-shard and bit-rot recovery never change an
        // answer or a terminal kind.
        assert_eq!(
            clean, chaos,
            "fault recovery leaked into the results at {threads} sim thread(s)"
        );
        per_threads.push(clean);
    }
    // Invariant 3: the whole outcome vector is thread-count-invariant.
    assert_eq!(
        per_threads[0], per_threads[1],
        "outcomes diverge between 1 and 4 sim threads"
    );
}
