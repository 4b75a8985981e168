//! Retry, shard failover and CPU fallback for the sharded query path.
//!
//! The fault model ([`tlc_gpu_sim::FaultPlan`]) injects bit flips into
//! encoded column words, transient kernel-launch failures and whole
//! device loss. This module is the recovery side: every failure a query
//! can hit surfaces as a typed [`DecodeError`] (never a panic, never a
//! silently wrong answer — per-tile checksums reject corrupt data
//! before any decoded value is trusted), and the executor recovers by
//!
//! 1. **retrying** transient launch failures in place (bounded by
//!    [`MAX_TRANSIENT_RETRIES`]),
//! 2. **failing the shard over** to a fresh device rebuilt from host
//!    data when the device is lost or its resident columns are corrupt,
//! 3. **falling back to the CPU reference executor** for the shard if
//!    even the replacement device cannot complete the query.
//!
//! Every injected fault and every recovery action is tallied in a
//! [`ResilienceReport`] so campaigns can reconcile observed errors
//! against injected ones.

use std::collections::BTreeMap;

use tlc_core::DecodeError;
use tlc_gpu_sim::{Device, FaultPlan};

use crate::encode::LoColumns;
use crate::fleet::map_ordered;
use crate::gen::SsbData;
use crate::queries::{try_run_query, QueryId};
use crate::reference::run_reference;
use crate::System;

/// In-place retries before a transient failure is treated as fatal for
/// the attempt (mirrors the usual "3 strikes" driver policy).
pub const MAX_TRANSIENT_RETRIES: usize = 3;

/// Tally of injected faults (harvested from each armed device's
/// [`tlc_gpu_sim::FaultStats`]) and of the recovery actions taken.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResilienceReport {
    /// Words bit-flipped at allocation time across all armed devices.
    pub bit_flips_injected: usize,
    /// Transient launch failures injected across all armed devices.
    pub transient_failures_injected: usize,
    /// Devices that went dark during the run.
    pub devices_lost: usize,
    /// Query attempts re-run after a transient launch failure.
    pub transient_retries: usize,
    /// Attempts abandoned because the transient-retry budget
    /// ([`MAX_TRANSIENT_RETRIES`]) ran out while the launch was still
    /// failing. This is a **stable terminal reason**: serving-layer
    /// policy (circuit breakers, degradation tiers) keys on this
    /// counter instead of string-matching the returned error, and it is
    /// distinct from a *persistent* fault (corruption / device loss),
    /// which surfaces through `corrupt_tiles_detected` /
    /// `devices_lost` instead.
    pub retries_exhausted: usize,
    /// Typed corruption rejections (checksum mismatch or malformed
    /// structure) observed while decoding tiles.
    pub corrupt_tiles_detected: usize,
    /// Shards re-run on a fresh replacement device.
    pub shards_failed_over: usize,
    /// Shards answered by the CPU reference executor.
    pub cpu_fallbacks: usize,
    /// Store partitions whose on-disk files were found damaged (torn,
    /// missing or bit-rotted) and moved aside (out-of-core path only).
    pub partitions_quarantined: usize,
    /// Store partitions regenerated from the chunked generator and
    /// healed back into the store (out-of-core path only).
    pub partitions_regenerated: usize,
}

impl ResilienceReport {
    /// Fold a device's injected-fault tally into the report.
    pub fn absorb_device(&mut self, dev: &Device) {
        if let Some(stats) = dev.fault_stats() {
            self.bit_flips_injected += stats.bit_flips;
            self.transient_failures_injected += stats.transient_failures;
            self.devices_lost += usize::from(stats.device_lost);
        }
    }

    /// Total faults injected (for "did anything actually happen in this
    /// campaign" assertions).
    pub fn faults_injected(&self) -> usize {
        self.bit_flips_injected + self.transient_failures_injected + self.devices_lost
    }

    /// Total recovery actions taken.
    pub fn recoveries(&self) -> usize {
        self.transient_retries
            + self.shards_failed_over
            + self.cpu_fallbacks
            + self.partitions_regenerated
    }

    /// Fold another report (one shard's tally) into this one. Counter
    /// addition is commutative, but campaign folds still run in shard
    /// order so the whole report is reproduced field-for-field.
    pub fn absorb(&mut self, other: &ResilienceReport) {
        self.bit_flips_injected += other.bit_flips_injected;
        self.transient_failures_injected += other.transient_failures_injected;
        self.devices_lost += other.devices_lost;
        self.transient_retries += other.transient_retries;
        self.retries_exhausted += other.retries_exhausted;
        self.corrupt_tiles_detected += other.corrupt_tiles_detected;
        self.shards_failed_over += other.shards_failed_over;
        self.cpu_fallbacks += other.cpu_fallbacks;
        self.partitions_quarantined += other.partitions_quarantined;
        self.partitions_regenerated += other.partitions_regenerated;
    }
}

impl std::fmt::Display for ResilienceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "injected: {} bit flips, {} transients, {} device(s) lost; \
             recovered: {} retries ({} exhausted), {} corrupt tiles detected, \
             {} shard failovers, {} CPU fallbacks, \
             {} partitions quarantined, {} regenerated",
            self.bit_flips_injected,
            self.transient_failures_injected,
            self.devices_lost,
            self.transient_retries,
            self.retries_exhausted,
            self.corrupt_tiles_detected,
            self.shards_failed_over,
            self.cpu_fallbacks,
            self.partitions_quarantined,
            self.partitions_regenerated,
        )
    }
}

/// Run `q` with bounded in-place retries on transient launch failures.
/// Non-transient errors (corruption, device loss) are returned to the
/// caller, who decides whether to fail over.
pub fn run_query_checked(
    dev: &Device,
    data: &SsbData,
    cols: &LoColumns,
    q: QueryId,
    report: &mut ResilienceReport,
) -> Result<Vec<(u64, u64)>, DecodeError> {
    retry_transients(report, || try_run_query(dev, data, cols, q))
}

/// The first rung of every device ladder: `attempt`, re-run in place
/// while it fails with a transient launch error, at most
/// [`MAX_TRANSIENT_RETRIES`] times.
pub(crate) fn retry_transients<T>(
    report: &mut ResilienceReport,
    mut attempt: impl FnMut() -> Result<T, DecodeError>,
) -> Result<T, DecodeError> {
    let mut retries = 0;
    loop {
        match attempt() {
            Ok(result) => return Ok(result),
            Err(e) if e.is_transient() && retries < MAX_TRANSIENT_RETRIES => {
                retries += 1;
                report.transient_retries += 1;
            }
            Err(e) => {
                // Record the terminal reason in the report so callers
                // (notably the serving layer's circuit breaker) can
                // tell "the retry budget ran out on a still-transient
                // fault" apart from "the fault persisted" without
                // inspecting the error text.
                if e.is_transient() {
                    report.retries_exhausted += 1;
                }
                return Err(e);
            }
        }
    }
}

/// Result of a resilient sharded query.
#[derive(Debug)]
pub struct ResilientRun {
    /// Merged `(group, sum)` pairs — identical to a fault-free run
    /// whenever recovery succeeded.
    pub result: Vec<(u64, u64)>,
    /// Slowest shard's simulated time (including retries/failovers).
    pub slowest_shard_s: f64,
    /// Merge transfer time.
    pub merge_s: f64,
    /// What was injected and what it took to recover.
    pub report: ResilienceReport,
}

/// Run `q` sharded across `shards` devices, arming shard `s`'s device
/// with `plans[s]` (missing/`None` entries run clean), recovering per
/// the module policy. The merged result matches the fault-free
/// [`crate::fleet::run_query_sharded`] result whenever recovery
/// succeeds — which it always does here, because host data stays clean
/// and the CPU reference path cannot fail.
pub fn run_query_sharded_resilient(
    data: &SsbData,
    system: System,
    q: QueryId,
    shards: usize,
    scale: f64,
    plans: &[Option<FaultPlan>],
) -> ResilientRun {
    let parts = data.shard(shards);
    // Shards run concurrently (each armed device is shard-private, so
    // its fault RNG draws exactly what it would serially); tallies and
    // partial sums fold in shard order below.
    let shard_runs = map_ordered(0..parts.len(), tlc_gpu_sim::sim_threads(), |s| {
        let plan = plans.get(s).and_then(Clone::clone);
        run_shard(&parts[s], system, q, plan, scale)
    });
    let mut report = ResilienceReport::default();
    let mut merged: BTreeMap<u64, u64> = BTreeMap::new();
    let mut slowest = 0.0f64;
    let mut merge_bytes = 0u64;
    for (result, shard_s, shard_report) in shard_runs {
        slowest = slowest.max(shard_s);
        report.absorb(&shard_report);
        merge_bytes += result.len() as u64 * 16;
        for (g, v) in result {
            let e = merged.entry(g).or_insert(0);
            *e = e.wrapping_add(v);
        }
    }
    let merge_dev = Device::v100();
    let merge_s = merge_dev.pcie_transfer(merge_bytes);
    ResilientRun {
        result: merged.into_iter().filter(|&(_, v)| v != 0).collect(),
        slowest_shard_s: slowest,
        merge_s,
        report,
    }
}

/// The device ladder, written once: run on `dev` (which the caller has
/// armed, and on which it has built `cols`); on failure rebuild the
/// columns from clean host data on a fresh device and run again; if
/// that fails too, answer on the CPU. The timeline is reset before
/// each run, so the seconds cover `run` alone.
///
/// Returns the value, its simulated seconds (`max(first, fresh)`: a
/// failover costs the slower of the two attempts, the CPU rung adds
/// nothing) and whether any rung below the first was needed. The
/// caller folds `dev`'s injected-fault tally in itself
/// ([`ResilienceReport::absorb_device`]), once per armed device: a
/// device that serves several ladders must not be counted per ladder.
pub(crate) fn device_ladder<C, T>(
    dev: &Device,
    cols: &C,
    rebuild: impl FnOnce(&Device) -> C,
    run: impl Fn(&Device, &C, &mut ResilienceReport) -> Result<T, DecodeError>,
    cpu: impl FnOnce() -> T,
    scale: f64,
    report: &mut ResilienceReport,
) -> (T, f64, bool) {
    dev.reset_timeline();
    let outcome = run(dev, cols, report);
    let mut seconds = dev.elapsed_seconds_scaled(scale);
    let err = match outcome {
        Ok(value) => return (value, seconds, false),
        Err(e) => e,
    };
    if matches!(
        err,
        DecodeError::Corrupt { .. } | DecodeError::Structure { .. }
    ) {
        report.corrupt_tiles_detected += 1;
    }
    report.shards_failed_over += 1;
    let fresh = Device::v100();
    let cols = rebuild(&fresh);
    fresh.reset_timeline();
    let value = match run(&fresh, &cols, report) {
        Ok(value) => {
            seconds = seconds.max(fresh.elapsed_seconds_scaled(scale));
            value
        }
        Err(_) => {
            report.cpu_fallbacks += 1;
            cpu()
        }
    };
    (value, seconds, true)
}

/// One shard of the in-memory fleet on its own (possibly armed) device.
/// Returns the shard's result, its simulated time, and its own fault /
/// recovery tally (so shards can run concurrently and fold in order).
fn run_shard(
    part: &SsbData,
    system: System,
    q: QueryId,
    plan: Option<FaultPlan>,
    scale: f64,
) -> (Vec<(u64, u64)>, f64, ResilienceReport) {
    let mut report = ResilienceReport::default();
    let dev = Device::v100();
    if let Some(p) = plan {
        dev.inject_faults(p);
    }
    let build = |d: &Device| LoColumns::build(d, part, system, q.columns());
    let (result, shard_s, _) = device_ladder(
        &dev,
        &build(&dev),
        build,
        |d, cols, report| run_query_checked(d, part, cols, q, report),
        || run_reference(part, q),
        scale,
        &mut report,
    );
    report.absorb_device(&dev);
    (result, shard_s, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::run_query_sharded;

    #[test]
    fn clean_run_matches_fleet_and_reports_nothing() {
        let data = SsbData::generate(0.01);
        let clean = run_query_sharded(&data, System::GpuStar, QueryId::Q21, 2, 1.0);
        let run = run_query_sharded_resilient(&data, System::GpuStar, QueryId::Q21, 2, 1.0, &[]);
        assert_eq!(run.result, clean.result);
        assert_eq!(run.report, ResilienceReport::default());
    }

    #[test]
    fn transient_failures_are_retried_in_place() {
        let data = SsbData::generate(0.01);
        let clean = run_query_sharded(&data, System::GpuStar, QueryId::Q11, 2, 1.0);
        let plans = vec![Some(FaultPlan {
            transient_launch_rate: 0.2,
            ..FaultPlan::seeded(3)
        })];
        let run = run_query_sharded_resilient(&data, System::GpuStar, QueryId::Q11, 2, 1.0, &plans);
        assert_eq!(run.result, clean.result);
        assert!(run.report.transient_failures_injected > 0);
        assert!(run.report.transient_retries > 0);
    }

    #[test]
    fn dead_shard_fails_over_to_fresh_device() {
        let data = SsbData::generate(0.01);
        let clean = run_query_sharded(&data, System::GpuStar, QueryId::Q21, 3, 1.0);
        let plans = vec![
            None,
            Some(FaultPlan {
                kill_after_launches: Some(1),
                ..FaultPlan::seeded(0)
            }),
        ];
        let run = run_query_sharded_resilient(&data, System::GpuStar, QueryId::Q21, 3, 1.0, &plans);
        assert_eq!(run.result, clean.result);
        assert_eq!(run.report.devices_lost, 1);
        assert_eq!(run.report.shards_failed_over, 1);
        assert_eq!(run.report.cpu_fallbacks, 0);
    }

    #[test]
    fn corrupt_columns_are_detected_and_failed_over() {
        let data = SsbData::generate(0.01);
        let clean = run_query_sharded(&data, System::GpuStar, QueryId::Q41, 2, 1.0);
        let plans = vec![Some(FaultPlan {
            bitflip_rate: 1e-3,
            ..FaultPlan::seeded(9)
        })];
        let run = run_query_sharded_resilient(&data, System::GpuStar, QueryId::Q41, 2, 1.0, &plans);
        assert_eq!(run.result, clean.result);
        assert!(run.report.bit_flips_injected > 0);
        assert_eq!(run.report.corrupt_tiles_detected, 1);
        assert_eq!(run.report.shards_failed_over, 1);
    }
}
