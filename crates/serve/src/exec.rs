//! The service-side entry to the partition executor: one
//! [`QuerySpec`] against an [`SsbStore`], answered as an
//! [`ExecOutcome`].
//!
//! There is no executor here. [`execute`] maps the request onto the
//! streaming layer's one executor ([`tlc_ssb::stream`]) as a one-member
//! [`run_wave_streamed`], whatever the request: per partition a join
//! flight is a launch that builds its dimension tables and a launch of
//! its fused query kernel; a flight 1, a point filter or a scan is one
//! fused launch, the filter part with one member (load a tile, test its
//! ranges in registers, sum, nothing written back); all decode inline,
//! the paper's path. It is the call the service's
//! batcher makes for a wave, with one member — the oracle that tests
//! and benches compare served answers against — so the storage ladder,
//! device ladder, deadline rule, fault plan ([`StreamOptions::plan`])
//! and forced-CPU routing ([`StreamOptions::force_cpu_partitions`]) are
//! the ones every other caller of that executor gets.

use tlc_ssb::{
    run_wave_streamed, DeadlinePartial, ResilienceReport, SsbStore, StreamError, StreamOptions,
    WaveQuery, WaveQueryRun, WaveSpec,
};

use crate::QuerySpec;

/// The answer payload of a completed query: grouped aggregate rows
/// from a flight, or count and wrapping sum from a scan or point
/// filter.
pub use tlc_ssb::WaveAnswer as QueryAnswer;

/// Everything a completed execution reports upward to the service.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// The answer.
    pub answer: QueryAnswer,
    /// Fact rows covered.
    pub rows: u64,
    /// Partitions executed.
    pub partitions: usize,
    /// Total simulated device seconds (worker-count independent).
    pub device_s: f64,
    /// Modelled storage-read seconds (cold reads at disk bandwidth,
    /// cache hits at host-memory bandwidth; worker-count independent).
    pub io_s: f64,
    /// Faults observed and recovery actions taken.
    pub report: ResilienceReport,
    /// Partitions that needed a recovery action, in partition order
    /// (breaker feedback; forced-CPU partitions are not listed).
    pub recovered_partitions: Vec<usize>,
}

/// Map a service [`QuerySpec`] onto the streaming layer's member spec.
pub(crate) fn wave_spec(q: &QuerySpec) -> WaveSpec {
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

/// One member's run as the service reports it: a full outcome, or the
/// member's deadline partial.
pub(crate) fn member_outcome(run: WaveQueryRun) -> Result<ExecOutcome, Box<DeadlinePartial>> {
    Ok(ExecOutcome {
        answer: run.outcome?,
        rows: run.rows,
        partitions: run.partitions,
        device_s: run.device_s,
        io_s: run.io_s,
        report: run.report,
        recovered_partitions: run.recovered_partitions,
    })
}

/// Execute `spec` under `opts`. Every path terminates: a full
/// [`ExecOutcome`], a typed deadline rejection with partial progress,
/// or an unrecoverable storage error.
pub fn execute(
    store: &SsbStore,
    spec: &QuerySpec,
    opts: &StreamOptions,
) -> Result<ExecOutcome, StreamError> {
    let member = WaveQuery {
        spec: wave_spec(spec),
        deadline_device_s: opts.deadline_device_s,
    };
    let mut wave = run_wave_streamed(store, &[member], opts)?;
    let run = wave.queries.pop().expect("one member in, one member out");
    member_outcome(run).map_err(StreamError::DeadlineExceeded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use tlc_gpu_sim::{FaultPlan, StorageFaults};
    use tlc_ssb::{LoColumn, StreamSpec};

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tlc_serve_exec_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_store(tag: &str) -> SsbStore {
        SsbStore::ingest(&tmp_dir(tag), &StreamSpec::for_rows(7, 12_000, 1_000)).expect("ingest")
    }

    fn cpu_reference(store: &SsbStore, column: LoColumn, filter: Option<i32>) -> (u64, i64) {
        let mut count = 0u64;
        let mut sum = 0i64;
        for p in 0..store.store().partition_count() {
            for &v in store.regenerate_partition(p).column(column) {
                if filter.is_none_or(|want| v == want) {
                    count += 1;
                    sum = sum.wrapping_add(v as i64);
                }
            }
        }
        (count, sum)
    }

    #[test]
    fn scan_matches_cpu_reference() {
        let store = small_store("scan");
        let out = execute(
            &store,
            &QuerySpec::Scan {
                column: LoColumn::Quantity,
            },
            &StreamOptions::default(),
        )
        .expect("scan");
        let (count, sum) = cpu_reference(&store, LoColumn::Quantity, None);
        assert_eq!(out.answer, QueryAnswer::Scalar { count, sum });
        assert_eq!(out.rows, count);
        assert!(out.device_s > 0.0);
        assert!(out.recovered_partitions.is_empty());
    }

    #[test]
    fn point_filter_matches_cpu_reference() {
        let store = small_store("point");
        let out = execute(
            &store,
            &QuerySpec::PointFilter {
                column: LoColumn::Discount,
                value: 3,
            },
            &StreamOptions::default(),
        )
        .expect("point");
        let (count, sum) = cpu_reference(&store, LoColumn::Discount, Some(3));
        assert!(count > 0, "fixture must match something");
        assert_eq!(out.answer, QueryAnswer::Scalar { count, sum });
    }

    #[test]
    fn forced_cpu_routing_changes_cost_not_answer() {
        let store = small_store("route");
        let spec = QuerySpec::Scan {
            column: LoColumn::Tax,
        };
        let normal = execute(&store, &spec, &StreamOptions::default()).expect("device path");
        let all: BTreeSet<usize> = (0..store.store().partition_count()).collect();
        let routed = execute(
            &store,
            &spec,
            &StreamOptions {
                force_cpu_partitions: all.clone(),
                ..StreamOptions::default()
            },
        )
        .expect("cpu path");
        assert_eq!(routed.answer, normal.answer);
        assert_eq!(routed.device_s, 0.0);
        assert_eq!(routed.report.cpu_fallbacks, all.len());
        assert!(routed.recovered_partitions.is_empty());
    }

    #[test]
    fn deadline_cuts_scan_deterministically() {
        let store = small_store("deadline");
        let spec = QuerySpec::Scan {
            column: LoColumn::Revenue,
        };
        let full = execute(&store, &spec, &StreamOptions::default()).expect("full");
        let opts = StreamOptions {
            deadline_device_s: Some(full.device_s * 0.4),
            ..StreamOptions::default()
        };
        match execute(&store, &spec, &opts) {
            Err(StreamError::DeadlineExceeded(partial)) => {
                assert!(partial.partitions_completed < full.partitions);
                assert!(partial.device_s <= partial.deadline_device_s);
                // The cut is a pure prefix rule: re-running reproduces
                // it exactly.
                match execute(&store, &spec, &opts) {
                    Err(StreamError::DeadlineExceeded(again)) => {
                        assert_eq!(again.partitions_completed, partial.partitions_completed);
                        assert_eq!(again.rows_scanned, partial.rows_scanned);
                        assert_eq!(again.device_s, partial.device_s);
                    }
                    other => panic!("expected deadline again, got {other:?}"),
                }
            }
            other => panic!("expected deadline cut, got {other:?}"),
        }
    }

    #[test]
    fn bit_rot_heals_and_answer_is_unchanged() {
        let dir = tmp_dir("rot");
        let spec = StreamSpec::for_rows(11, 12_000, 1_000);
        let store = SsbStore::ingest(&dir, &spec).expect("ingest");
        let q = QuerySpec::Scan {
            column: LoColumn::Quantity,
        };
        let clean = execute(&store, &q, &StreamOptions::default()).expect("clean");

        // Rot one committed file, then reopen deep so the damage is
        // quarantined at open.
        let path = store.store().path_of(1, "quantity");
        drop(store);
        tlc_store::damage::flip_bit(&path, 99).expect("flip");
        let (store, report) = SsbStore::open_deep(&dir).expect("reopen");
        assert_eq!(report.quarantined.len(), 1);

        let healed = execute(&store, &q, &StreamOptions::default()).expect("healed run");
        assert_eq!(healed.answer, clean.answer);
        assert_eq!(healed.report.partitions_regenerated, 1);
        assert_eq!(healed.recovered_partitions, vec![1]);
        // Healed in place: a second run is clean.
        let again = execute(&store, &q, &StreamOptions::default()).expect("after heal");
        assert_eq!(again.report, ResilienceReport::default());
    }

    #[test]
    fn a_fault_plan_on_a_scan_is_applied_not_dropped() {
        let store = small_store("plan");
        let q = QuerySpec::Scan {
            column: LoColumn::Quantity,
        };
        let clean = execute(&store, &q, &StreamOptions::default()).expect("clean");
        let under = |storage: StorageFaults| {
            let opts = StreamOptions {
                plan: Some(FaultPlan {
                    storage,
                    ..FaultPlan::seeded(5)
                }),
                ..StreamOptions::default()
            };
            execute(&store, &q, &opts).expect("the drill recovers")
        };

        let torn = under(StorageFaults {
            truncate_at_partition: Some(1),
            ..StorageFaults::default()
        });
        assert_eq!(torn.answer, clean.answer);
        assert_eq!(torn.report.partitions_quarantined, 1);
        assert_eq!(torn.report.partitions_regenerated, 1);
        assert_eq!(torn.recovered_partitions, vec![1]);
        store.store().verify().expect("healed in place");

        let killed = under(StorageFaults {
            kill_shard_at_partition: Some(1),
            ..StorageFaults::default()
        });
        assert_eq!(killed.answer, clean.answer);
    }
}
