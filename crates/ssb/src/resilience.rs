//! Retry, failover and CPU fallback: the recovery primitives of the
//! in-memory fleet ([`crate::fleet`]) and the partition executor
//! ([`crate::stream`]).
//!
//! The fault model ([`tlc_gpu_sim::FaultPlan`]) injects bit flips into
//! encoded column words, transient kernel-launch failures and whole
//! device loss. This module is the recovery side: a failed launch, on
//! any system, surfaces as a typed [`DecodeError`], and so does a
//! corrupt GPU-\* tile, whose checksum rejects it before any decoded
//! value is trusted (never a panic, never a silently wrong answer; the
//! baselines carry no integrity words, DESIGN.md §9). Both executors
//! recover by
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

use tlc_core::DecodeError;
use tlc_gpu_sim::Device;

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
