//! Multi-GPU sharding (paper Section 1: modern servers carry many
//! GPUs, and systems shard the working set across them [32, 36]).
//!
//! The fact table is range-partitioned across `K` simulated devices;
//! each device holds its shard's (compressed) columns and runs the
//! query kernel locally, and the per-group partial sums are merged over
//! the interconnect. Query latency is the *slowest shard* plus the
//! merge transfer — compression helps twice, by fitting more shard per
//! device and by shrinking any cross-device spill.
//!
//! Any shard's device may be armed with a [`FaultPlan`]; the shard then
//! climbs the [`crate::resilience`] ladder (retry in place, fail over
//! to a fresh device, answer on the CPU). A run without plans is the
//! fault-free fleet: every shard's first rung succeeds and its report
//! is empty.

use std::collections::BTreeMap;

use tlc_gpu_sim::{Device, FaultPlan};

use crate::encode::LoColumns;
use crate::gen::{LineOrder, SsbData};
use crate::queries::{try_run_query, QueryId};
use crate::reference::run_reference;
use crate::resilience::{device_ladder, retry_transients, ResilienceReport, MAX_TRANSIENT_RETRIES};
use crate::System;

impl SsbData {
    /// Range-partition the fact table into `shards` pieces; dimensions
    /// are replicated (they are small, as real deployments do).
    pub fn shard(&self, shards: usize) -> Vec<SsbData> {
        assert!(shards >= 1);
        let n = self.lineorder.len;
        let per = n.div_ceil(shards);
        (0..shards)
            .map(|s| {
                let lo = (s * per).min(n);
                let hi = ((s + 1) * per).min(n);
                let slice = |v: &Vec<i32>| v[lo..hi].to_vec();
                let lineorder = LineOrder {
                    len: hi - lo,
                    orderkey: slice(&self.lineorder.orderkey),
                    orderdate: slice(&self.lineorder.orderdate),
                    ordtotalprice: slice(&self.lineorder.ordtotalprice),
                    custkey: slice(&self.lineorder.custkey),
                    partkey: slice(&self.lineorder.partkey),
                    suppkey: slice(&self.lineorder.suppkey),
                    linenumber: slice(&self.lineorder.linenumber),
                    quantity: slice(&self.lineorder.quantity),
                    tax: slice(&self.lineorder.tax),
                    discount: slice(&self.lineorder.discount),
                    commitdate: slice(&self.lineorder.commitdate),
                    extendedprice: slice(&self.lineorder.extendedprice),
                    revenue: slice(&self.lineorder.revenue),
                    supplycost: slice(&self.lineorder.supplycost),
                };
                SsbData {
                    sf: self.sf / shards as f64,
                    lineorder,
                    date: self.date.clone(),
                    customer: self.customer.clone(),
                    supplier: self.supplier.clone(),
                    part: self.part.clone(),
                }
            })
            .collect()
    }
}

/// Result of a sharded query.
#[derive(Debug)]
pub struct ShardedRun {
    /// Merged `(group, sum)` pairs, identical to a single-device run
    /// whenever recovery succeeded — which it always does, because host
    /// data stays clean and the CPU reference path cannot fail.
    pub result: Vec<(u64, u64)>,
    /// Slowest shard's simulated time (including retries and failovers).
    pub slowest_shard_s: f64,
    /// Merge transfer time (partial aggregates over the interconnect).
    pub merge_s: f64,
    /// What was injected and what it took to recover; empty without
    /// fault plans.
    pub report: ResilienceReport,
}

impl ShardedRun {
    /// End-to-end latency.
    pub fn total_s(&self) -> f64 {
        self.slowest_shard_s + self.merge_s
    }
}

/// Map `f` over the indices in `range` on up to `workers` host threads,
/// returning results **in index order**. Each shard or partition owns
/// its simulated device, so the items share no state; callers fold the
/// ordered results serially, which keeps every sharded and streamed
/// report deterministic for any worker count. Also used by
/// [`crate::stream`].
pub(crate) fn map_ordered<T: Send>(
    range: std::ops::Range<usize>,
    workers: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let ranges = tlc_gpu_sim::partitions(range.len(), workers);
    let per_range = tlc_gpu_sim::map_ranges(&ranges, |_, r| {
        (range.start + r.start..range.start + r.end)
            .map(&f)
            .collect::<Vec<T>>()
    });
    per_range.into_iter().flatten().collect()
}

/// Run `q` sharded across `shards` simulated devices under `system`,
/// arming shard `s`'s device with `plans[s]` (missing or `None` entries
/// run clean; `&[]` is the fault-free fleet). `scale` linearly scales
/// each shard's traffic-proportional time (for reporting a larger SF),
/// exactly like `Device::elapsed_seconds_scaled`.
pub fn run_query_sharded(
    data: &SsbData,
    system: System,
    q: QueryId,
    shards: usize,
    scale: f64,
    plans: &[Option<FaultPlan>],
) -> ShardedRun {
    let parts = data.shard(shards);
    // Shards run concurrently (each device is shard-private, so an armed
    // one draws exactly what it would serially); partial sums and
    // tallies fold in shard order below.
    let shard_runs = map_ordered(0..parts.len(), tlc_gpu_sim::sim_threads(), |s| {
        let part = &parts[s];
        let mut report = ResilienceReport::default();
        let dev = Device::v100();
        if let Some(plan) = plans.get(s).and_then(Clone::clone) {
            dev.inject_faults(plan);
        }
        let build = |d: &Device| LoColumns::build(d, part, system, q.columns());
        let (result, shard_s, _) = device_ladder(
            &dev,
            &build(&dev),
            build,
            |d, cols, report| retry_transients(report, || try_run_query(d, part, cols, q)),
            || run_reference(part, q),
            scale,
            &mut report,
        );
        report.absorb_device(&dev);
        (result, shard_s, report)
    });
    let mut report = ResilienceReport::default();
    let mut merged: BTreeMap<u64, u64> = BTreeMap::new();
    let mut slowest = 0.0f64;
    let mut merge_bytes = 0u64;
    for (result, shard_s, shard_report) in shard_runs {
        slowest = slowest.max(shard_s);
        report.absorb(&shard_report);
        merge_bytes += result.len() as u64 * 16; // (group, sum) pairs
        for (g, v) in result {
            let e = merged.entry(g).or_insert(0);
            *e = e.wrapping_add(v);
        }
    }
    // Merge over the interconnect to one device (tiny next to the scan).
    let merge_dev = Device::v100();
    let merge_s = merge_dev.pcie_transfer(merge_bytes);
    ShardedRun {
        result: merged.into_iter().filter(|&(_, v)| v != 0).collect(),
        slowest_shard_s: slowest,
        merge_s,
        report,
    }
}

/// Shards of DESIGN.md §9's acceptance campaign.
const CAMPAIGN_SHARDS: usize = 4;

/// DESIGN.md §9's acceptance campaign under `seed`, stated once: four
/// shards, each armed with bit flips (5e-4 a word) and transient launch
/// failures (2 %) from its own seed `seed ^ s << 32`, and shard
/// `seed % 4` killed at its fact scan (`wave_scan`) — a join flight's
/// tables are built and its fact scan is lost; flight 1 builds nothing
/// and loses its scan. Run it with `plans.len()` shards and judge it
/// with [`campaign_verdict`].
pub fn campaign_plans(seed: u64) -> Vec<Option<FaultPlan>> {
    let killed = seed as usize % CAMPAIGN_SHARDS;
    (0..CAMPAIGN_SHARDS)
        .map(|s| {
            Some(FaultPlan {
                bitflip_rate: 5e-4,
                transient_launch_rate: 0.02,
                kill_at_launch: (s == killed).then_some("wave_scan"),
                ..FaultPlan::seeded(seed ^ ((s as u64) << 32))
            })
        })
        .collect()
}

/// Whether a campaign `run` (under [`campaign_plans`]) recovered, against
/// the fault-free run `clean` of the same query: the answer is the
/// fault-free one, the kill fired (one device lost), every failed shard
/// was re-run somewhere and none needed more than the replacement
/// device (host data is clean), and every exhausted retry budget was
/// spent in full first. `Err` says which check failed.
pub fn campaign_verdict(run: &ShardedRun, clean: &ShardedRun) -> Result<(), String> {
    let r = &run.report;
    let checks = [
        (run.result == clean.result, "recovered result diverged"),
        (r.devices_lost == 1, "not one device lost"),
        (
            r.recoveries() >= r.devices_lost + r.corrupt_tiles_detected,
            "report does not cover the injected faults",
        ),
        (
            r.shards_failed_over <= CAMPAIGN_SHARDS,
            "more failovers than shards",
        ),
        (
            r.cpu_fallbacks == 0,
            "a CPU fallback: replacement devices are clean",
        ),
        (
            r.transient_retries >= r.retries_exhausted * MAX_TRANSIENT_RETRIES,
            "an exhausted retry budget was not spent in full",
        ),
    ];
    match checks.iter().find(|(ok, _)| !ok) {
        Some((_, failed)) => Err(format!("{failed}: {r}")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_results_match_reference() {
        let data = SsbData::generate(0.01);
        for shards in [1, 2, 4] {
            for q in [QueryId::Q11, QueryId::Q21, QueryId::Q41] {
                let run = run_query_sharded(&data, System::GpuStar, q, shards, 1.0, &[]);
                assert_eq!(
                    run.result,
                    run_reference(&data, q),
                    "{} @ {shards} shards",
                    q.name()
                );
            }
        }
    }

    #[test]
    fn no_plans_report_nothing_and_answer_as_the_reference() {
        let data = SsbData::generate(0.01);
        let run = run_query_sharded(&data, System::GpuStar, QueryId::Q21, 2, 1.0, &[]);
        assert_eq!(run.result, run_reference(&data, QueryId::Q21));
        assert_eq!(run.report, ResilienceReport::default());
    }

    #[test]
    fn transient_failures_are_retried_in_place() {
        let data = SsbData::generate(0.01);
        let mut report = ResilienceReport::default();
        for seed in 0..8 {
            let plans = vec![Some(FaultPlan {
                transient_launch_rate: 0.2,
                ..FaultPlan::seeded(seed)
            })];
            let run = run_query_sharded(&data, System::GpuStar, QueryId::Q11, 2, 1.0, &plans);
            assert_eq!(
                run.result,
                run_reference(&data, QueryId::Q11),
                "seed {seed}"
            );
            report.absorb(&run.report);
        }
        assert!(report.transient_failures_injected > 0);
        assert!(report.transient_retries > 0);
        assert_eq!(report.shards_failed_over, 0, "{report}");
    }

    #[test]
    fn dead_shard_fails_over_to_fresh_device() {
        let data = SsbData::generate(0.01);
        let plans = vec![
            None,
            Some(FaultPlan {
                kill_at_launch: Some("wave_scan"),
                ..FaultPlan::seeded(0)
            }),
        ];
        let run = run_query_sharded(&data, System::GpuStar, QueryId::Q21, 3, 1.0, &plans);
        assert_eq!(run.result, run_reference(&data, QueryId::Q21));
        assert_eq!(run.report.devices_lost, 1);
        assert_eq!(run.report.shards_failed_over, 1);
        assert_eq!(run.report.cpu_fallbacks, 0);
    }

    #[test]
    fn corrupt_columns_are_detected_and_failed_over() {
        let data = SsbData::generate(0.01);
        let plans = vec![Some(FaultPlan {
            bitflip_rate: 1e-3,
            ..FaultPlan::seeded(9)
        })];
        let run = run_query_sharded(&data, System::GpuStar, QueryId::Q41, 2, 1.0, &plans);
        assert_eq!(run.result, run_reference(&data, QueryId::Q41));
        assert!(run.report.bit_flips_injected > 0);
        assert_eq!(run.report.corrupt_tiles_detected, 1);
        assert_eq!(run.report.shards_failed_over, 1);
    }

    /// Launch faults recover on every system, not only on the two that
    /// decode inline: the decompression kernels of nvCOMP, GPU-BP and
    /// Planner and OmniSci's operators fail with a typed error, so the
    /// shard climbs the ladder instead of panicking. Transients and the
    /// kill are armed apart: at this rate a system with a dozen
    /// decompression launches runs out of retries before its scan.
    #[test]
    fn launch_faults_recover_on_every_system() {
        let data = SsbData::generate(0.01);
        for system in System::ALL {
            let scan = match system {
                System::OmniSci => "oms_agg",
                _ => "wave_scan",
            };
            let transients = FaultPlan {
                transient_launch_rate: 0.3,
                ..FaultPlan::seeded(7)
            };
            let kill = FaultPlan {
                kill_at_launch: Some(scan),
                ..FaultPlan::seeded(7)
            };
            for q in [QueryId::Q11, QueryId::Q21] {
                let clean = run_query_sharded(&data, system, q, 2, 1.0, &[]);
                let want = run_reference(&data, q);
                assert_eq!(clean.result, want, "{} {} clean", system.name(), q.name());
                for (plan, lost) in [(&transients, 0), (&kill, 1)] {
                    let run = run_query_sharded(&data, system, q, 2, 1.0, &[Some(plan.clone())]);
                    let at = format!("{} {}: {}", system.name(), q.name(), run.report);
                    assert_eq!(run.result, clean.result, "{at}");
                    assert_eq!(run.report.devices_lost, lost, "{at}");
                    assert_eq!(run.report.cpu_fallbacks, 0, "{at}");
                }
            }
        }
    }

    #[test]
    fn campaign_verdict_names_the_failed_check() {
        let run = |result, report| ShardedRun {
            result,
            slowest_shard_s: 0.0,
            merge_s: 0.0,
            report,
        };
        let lost = ResilienceReport {
            devices_lost: 1,
            shards_failed_over: 1,
            ..ResilienceReport::default()
        };
        let clean = run(vec![(0, 7)], ResilienceReport::default());
        assert_eq!(
            campaign_verdict(&run(vec![(0, 7)], lost.clone()), &clean),
            Ok(())
        );
        for (result, report, failed) in [
            (vec![(0, 8)], lost.clone(), "recovered result diverged"),
            (
                vec![(0, 7)],
                ResilienceReport::default(),
                "not one device lost",
            ),
            (
                vec![(0, 7)],
                ResilienceReport {
                    corrupt_tiles_detected: 1,
                    ..lost.clone()
                },
                "report does not cover",
            ),
            (
                vec![(0, 7)],
                ResilienceReport {
                    shards_failed_over: CAMPAIGN_SHARDS + 1,
                    ..lost.clone()
                },
                "more failovers than shards",
            ),
            (
                vec![(0, 7)],
                ResilienceReport {
                    cpu_fallbacks: 1,
                    ..lost.clone()
                },
                "a CPU fallback",
            ),
            (
                vec![(0, 7)],
                ResilienceReport {
                    retries_exhausted: 1,
                    ..lost.clone()
                },
                "an exhausted retry budget",
            ),
        ] {
            let e = campaign_verdict(&run(result, report), &clean).expect_err(failed);
            assert!(e.starts_with(failed), "{e}");
        }
    }

    #[test]
    fn sharding_divides_latency() {
        let data = SsbData::generate(0.02);
        let one = run_query_sharded(&data, System::GpuStar, QueryId::Q21, 1, 1.0, &[]);
        let four = run_query_sharded(&data, System::GpuStar, QueryId::Q21, 4, 1.0, &[]);
        // Not perfectly linear (fixed launch overheads per shard), but
        // the scan leg divides.
        assert!(
            four.slowest_shard_s < one.slowest_shard_s,
            "4 shards {} vs 1 shard {}",
            four.slowest_shard_s,
            one.slowest_shard_s
        );
    }

    #[test]
    fn shards_partition_exactly() {
        let data = SsbData::generate(0.01);
        let parts = data.shard(3);
        let total: usize = parts.iter().map(|p| p.lineorder.len).sum();
        assert_eq!(total, data.lineorder.len);
        let mut rejoined = Vec::new();
        for p in &parts {
            rejoined.extend_from_slice(&p.lineorder.orderkey);
        }
        assert_eq!(rejoined, data.lineorder.orderkey);
    }
}
