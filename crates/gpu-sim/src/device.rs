//! The simulated device: parameters, allocator, launch entry point, and
//! the analytic time model.

use std::cell::{Cell, RefCell};

use crate::fault::{FaultPlan, FaultState, FaultStats, LaunchError};
use crate::kernel::{run_blocks, BlockCtx, KernelConfig, LaunchPart, Occupancy, ResultSlot};
use crate::memory::{GlobalBuffer, Scalar, SegmentMarks, ALLOC_ALIGN};
use crate::profile::ProfileSink;
use crate::report::{KernelReport, PartReport, Phase, PhaseSpans, Timeline, Traffic};

/// Calibration constants of the simulated device.
///
/// Defaults model the NVIDIA V100 used in the paper's evaluation
/// (Section 9.1): 80 SMs, 880 GB/s measured global bandwidth, shared
/// memory an order of magnitude faster, 12.8 GB/s bidirectional PCIe 3.
#[derive(Debug, Clone)]
pub struct DeviceParams {
    /// Human-readable name.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Global-memory bandwidth in bytes/second.
    pub global_bw: f64,
    /// Aggregate shared-memory bandwidth in bytes/second.
    pub shared_bw: f64,
    /// PCIe bandwidth in bytes/second (bidirectional, as in the paper).
    pub pcie_bw: f64,
    /// Integer-operation throughput in ops/second.
    pub int_throughput: f64,
    /// Fixed host-side cost of one kernel launch, in seconds.
    pub kernel_launch_s: f64,
    /// Scheduling + tail latency of one thread block, in seconds,
    /// amortized over `num_sms * resident_blocks`. This is what makes
    /// tiny-work-per-block grids (D = 1) slow in Figure 5.
    pub block_latency_s: f64,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: usize,
    /// Register file size per SM (32-bit registers).
    pub regs_per_sm: usize,
    /// Shared memory per SM in bytes.
    pub smem_per_sm: usize,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: usize,
    /// Registers per thread beyond which the compiler spills to local
    /// (= global) memory.
    pub spill_threshold_regs: usize,
    /// Occupancy needed to saturate global bandwidth. Below this the
    /// effective bandwidth degrades linearly (not enough memory-level
    /// parallelism in flight).
    pub bw_saturation_occupancy: f64,
    /// Model an L1 cache: repeated accesses to a 128-byte segment from
    /// the *same thread block* are served from cache after the first
    /// transaction. Off by default — the paper's Section 4.2
    /// optimizations exist precisely so the kernels never depend on
    /// cache behaviour, and the no-cache model brackets the base
    /// algorithm's measured penalty from above (see DESIGN.md §7).
    pub l1_per_block: bool,
}

impl DeviceParams {
    /// V100-class defaults (the paper's testbed).
    pub fn v100() -> Self {
        DeviceParams {
            name: "V100-sim",
            num_sms: 80,
            global_bw: 880.0e9,
            shared_bw: 8.8e12,
            pcie_bw: 12.8e9,
            int_throughput: 14.0e12,
            kernel_launch_s: 5.0e-6,
            block_latency_s: 1.2e-6,
            max_threads_per_sm: 2048,
            regs_per_sm: 65_536,
            smem_per_sm: 96 * 1024,
            max_blocks_per_sm: 32,
            spill_threshold_regs: 64,
            bw_saturation_occupancy: 0.40,
            l1_per_block: false,
        }
    }
}

/// The simulated GPU. Owns the allocator cursor and the event timeline;
/// buffers are handed out by value so kernels can borrow them naturally.
#[derive(Debug)]
pub struct Device {
    params: DeviceParams,
    alloc_cursor: Cell<u64>,
    timeline: RefCell<Timeline>,
    faults: RefCell<Option<FaultState>>,
    sink: RefCell<Option<Box<dyn ProfileSink>>>,
}

impl Device {
    /// Create a device with V100-like parameters.
    pub fn v100() -> Self {
        Self::with_params(DeviceParams::v100())
    }

    /// Create a device with custom parameters.
    pub fn with_params(params: DeviceParams) -> Self {
        Device {
            params,
            // Start away from address 0 so "null" is never a valid address.
            alloc_cursor: Cell::new(4096),
            timeline: RefCell::new(Timeline::default()),
            faults: RefCell::new(None),
            sink: RefCell::new(None),
        }
    }

    /// Install a [`ProfileSink`] that observes every event as it is
    /// recorded (replacing any previous sink). Sinks are observers
    /// only; installing one never changes the reports.
    pub fn set_profile_sink(&self, sink: Box<dyn ProfileSink>) {
        *self.sink.borrow_mut() = Some(sink);
    }

    /// Remove the installed [`ProfileSink`], if any.
    pub fn clear_profile_sink(&self) {
        *self.sink.borrow_mut() = None;
    }

    /// Append an event to the timeline and notify the sink.
    fn record_event(&self, report: KernelReport) {
        if let Some(sink) = self.sink.borrow_mut().as_mut() {
            sink.record(&report);
        }
        self.timeline.borrow_mut().push(report);
    }

    /// Arm a [`FaultPlan`] on this device. Subsequent corruptible
    /// allocations may be bit-flipped and launches may fail; see the
    /// [`crate::fault`] module docs.
    pub fn inject_faults(&self, plan: FaultPlan) {
        *self.faults.borrow_mut() = Some(FaultState::new(plan));
    }

    /// Disarm fault injection (stats are discarded).
    pub fn clear_faults(&self) {
        *self.faults.borrow_mut() = None;
    }

    /// Tally of faults injected so far, if a plan is armed.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.borrow().as_ref().map(|s| s.stats.clone())
    }

    /// False once the armed fault plan has lost the device.
    pub fn is_alive(&self) -> bool {
        self.faults
            .borrow()
            .as_ref()
            .is_none_or(|s| !s.stats.device_lost)
    }

    /// The device's calibration constants.
    pub fn params(&self) -> &DeviceParams {
        &self.params
    }

    /// Allocate a buffer initialized from a host slice (models
    /// `cudaMalloc` + resident data; no transfer time is charged — use
    /// [`Device::pcie_transfer`] to model the copy explicitly).
    pub fn alloc_from_slice<T: Scalar>(&self, data: &[T]) -> GlobalBuffer<T> {
        self.alloc_from_vec(data.to_vec())
    }

    /// Allocate a buffer taking ownership of `data`. When a
    /// [`FaultPlan`] with a non-zero bit-flip rate is armed and `T` is
    /// corruptible (`u32` word streams), seeded bit flips are applied
    /// to the contents before the buffer is handed out.
    pub fn alloc_from_vec<T: Scalar>(&self, mut data: Vec<T>) -> GlobalBuffer<T> {
        if T::CORRUPTIBLE {
            if let Some(state) = self.faults.borrow_mut().as_mut() {
                if let Some(words) = T::as_words_mut(&mut data) {
                    state.corrupt_words(words);
                }
            }
        }
        let bytes = data.len() as u64 * T::BYTES;
        let base = self.bump(bytes);
        GlobalBuffer::new(base, data)
    }

    /// Allocate a zero-initialized buffer of `len` elements.
    pub fn alloc_zeroed<T: Scalar>(&self, len: usize) -> GlobalBuffer<T> {
        self.alloc_from_vec(vec![T::default(); len])
    }

    fn bump(&self, bytes: u64) -> u64 {
        let base = self.alloc_cursor.get();
        let next = (base + bytes).div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
        self.alloc_cursor.set(next);
        base
    }

    /// Launch a kernel: run `body` once per thread block, accumulate the
    /// traffic it reports, convert to simulated time, and append a
    /// [`KernelReport`] to the timeline. Returns the report.
    ///
    /// Panics if an armed fault plan fails the launch — callers that
    /// want to survive device faults use [`Device::try_launch`].
    pub fn launch<F>(&self, cfg: KernelConfig, body: F) -> KernelReport
    where
        F: FnMut(&mut BlockCtx<'_>),
    {
        let name = cfg.name.clone();
        self.try_launch(cfg, body)
            .unwrap_or_else(|e| panic!("kernel `{name}`: unhandled device fault: {e}"))
    }

    /// Fallible launch: like [`Device::launch`], but an armed
    /// [`FaultPlan`] may fail the attempt with a typed [`LaunchError`]
    /// (transient, or permanent device loss) instead of running the
    /// body. Failed launches still cost the fixed launch overhead on
    /// the timeline.
    pub fn try_launch<F>(&self, cfg: KernelConfig, body: F) -> Result<KernelReport, LaunchError>
    where
        F: FnMut(&mut BlockCtx<'_>),
    {
        self.gate_launch(&cfg.name, &cfg)?;
        let mut spans = PhaseSpans::default();
        let l1 = self.params.l1_per_block;
        run_blocks(&cfg, 0..cfg.grid_blocks, l1, &mut spans, body, |_, ()| {});
        Ok(self.finish_launch(cfg.clone(), vec![(cfg, spans)]))
    }

    /// Fallible parallel launch: the one-part case of
    /// [`Device::try_launch_parts`], which spells out the execution
    /// model. The grid is split into contiguous block ranges by
    /// [`crate::threads::partitions`], one range per worker (worker
    /// count from [`crate::threads::sim_threads`], i.e.
    /// `TLC_SIM_THREADS` or available parallelism).
    pub fn try_launch_par<S, R, I, B, M>(
        &self,
        cfg: KernelConfig,
        init: I,
        body: B,
        merge: M,
    ) -> Result<KernelReport, LaunchError>
    where
        R: Send + 'static,
        I: Fn() -> S + Sync,
        B: Fn(&mut S, &mut BlockCtx<'_>) -> R + Sync,
        M: FnMut(&mut BlockCtx<'_>, usize, R),
    {
        // One part: the event takes the part's name.
        self.try_launch_parts("", vec![LaunchPart::new(cfg, init, body, merge)])
    }

    /// One kernel launch made of `parts`: each part is a range of
    /// thread blocks with its own [`KernelConfig`], body and merge
    /// ([`LaunchPart`]); the launch's grid is the parts' grids end to
    /// end. The event is called `name`, or after its part when there
    /// is only one. At least one part.
    ///
    /// Execution is two-phase, mirroring how a real GPU kernel keeps
    /// per-block state private until a final reduction:
    ///
    /// 1. **body** runs once per block on a worker thread with a
    ///    worker-local [`Traffic`] accumulator and returns a per-block
    ///    result `R` (decoded values, a partial aggregate, an error).
    ///    It must not capture mutable state — the `Fn + Sync` bound
    ///    enforces this. What it may mutate is the worker's own `S`,
    ///    built by **init** once per worker and part: the place for
    ///    tile buffers and other scratch a block would otherwise
    ///    allocate afresh (`|| ()` when there is none). Results must
    ///    not depend on what an earlier block left in `S`.
    /// 2. **merge** runs on the calling thread, serially, **in part
    ///    order and then block order**, with a fresh [`BlockCtx`] (no
    ///    shared memory) whose traffic also counts toward the part.
    ///    This is where output buffers are written and accumulators
    ///    updated.
    ///
    /// Cost (DESIGN.md §3): one `kernel_launch_s`; the block overhead
    /// of the whole grid; residency, and so the bandwidth factor, of
    /// one kernel that needs the largest block, shared-memory image and
    /// register count among its parts; register spill charged to the
    /// spilling part on its own threads; the roofline maximum over the
    /// summed traffic. A one-part launch is priced exactly as that
    /// kernel alone. The report keeps each part's spans and solo price
    /// ([`KernelReport::parts`]).
    ///
    /// Determinism: all traffic counters are integers, per-block work
    /// is independent of the partitioning, and merge order equals block
    /// order — so the returned [`KernelReport`] (and everything derived
    /// from it) is bit-identical for any worker count, including the
    /// single-partition serial path. Fault gating happens **once per
    /// launch**, on the calling thread, before any block runs, exactly
    /// as in [`Device::try_launch`].
    pub fn try_launch_parts(
        &self,
        name: &str,
        parts: Vec<LaunchPart<'_>>,
    ) -> Result<KernelReport, LaunchError> {
        // The bodies go to the workers; the merges stay on this thread.
        let (bodies, mut merges): (Vec<_>, Vec<_>) = parts
            .into_iter()
            .map(|p| ((p.cfg, p.body, p.drain), p.merge))
            .unzip();
        let launch = launch_config(name, bodies.iter().map(|(cfg, ..)| cfg));
        // The plan sees the launch's name, even for a launch of one part;
        // an unnamed launch goes by its part's.
        let gate = if name.is_empty() { &launch.name } else { name };
        self.gate_launch(gate, &launch)?;
        let l1 = self.params.l1_per_block;
        // Body and merge charge separate span sets per part, summed at
        // the end: the sums are commutative, so the split is invisible.
        let mut spans = vec![PhaseSpans::default(); bodies.len()];
        let mut merge_spans = spans.clone();
        let mut merge_marks = SegmentMarks::default();
        let mut merge_block = |part: usize, block_id: usize, result: ResultSlot<'_>| {
            let cfg: &KernelConfig = &bodies[part].0;
            let part_spans = &mut merge_spans[part];
            let mut ctx = BlockCtx::new(block_id, cfg, part_spans, &mut [], &mut merge_marks, l1);
            merges[part](&mut ctx, block_id, result);
        };
        let grids: Vec<usize> = bodies.iter().map(|(cfg, ..)| cfg.grid_blocks).collect();
        let workers =
            crate::threads::partitions(launch.grid_blocks, 1, crate::threads::sim_threads());
        if workers.len() <= 1 {
            // Serial path: each block's result merges as soon as its
            // body returns, so at most one result is alive.
            for (part, (cfg, body, _)) in bodies.iter().enumerate() {
                let mut merge =
                    |block_id, result: ResultSlot<'_>| merge_block(part, block_id, result);
                body(
                    cfg,
                    0..cfg.grid_blocks,
                    l1,
                    &mut spans[part],
                    Some(&mut merge),
                );
            }
        } else {
            let worker_out = crate::threads::map_ranges(&workers, |_, blocks| {
                let of_part = |(part, local): (usize, std::ops::Range<usize>)| {
                    let (cfg, body, _) = &bodies[part];
                    let mut local_spans = PhaseSpans::default();
                    let kept = body(cfg, local.clone(), l1, &mut local_spans, None);
                    (part, local, local_spans, kept.expect("no sink, so kept"))
                };
                part_ranges(&grids, blocks).map(of_part).collect::<Vec<_>>()
            });
            // Worker ranges are contiguous and ordered, so walking the
            // workers' pieces in order visits every part's blocks 0..grid.
            for (part, mut local, local_spans, kept) in worker_out.into_iter().flatten() {
                spans[part] = spans[part].merge(&local_spans);
                (bodies[part].2)(kept, &mut |result| {
                    let block_id = local.next().expect("one result per block");
                    merge_block(part, block_id, result)
                });
            }
        }
        let parts = bodies
            .into_iter()
            .zip(spans.iter().zip(&merge_spans))
            .map(|((cfg, ..), (body, merge))| (cfg, body.merge(merge)))
            .collect();
        Ok(self.finish_launch(launch, parts))
    }

    /// Consult the armed fault plan, which keys its draws by `name`,
    /// before running any block; a failed launch still costs the fixed
    /// launch overhead on the timeline, as an event `{name}!fault`.
    fn gate_launch(&self, name: &str, cfg: &KernelConfig) -> Result<(), LaunchError> {
        let gate = self
            .faults
            .borrow_mut()
            .as_mut()
            .map_or(Ok(()), |state| state.gate_launch(name));
        if let Err(e) = gate {
            self.record_event(KernelReport {
                name: format!("{name}!fault"),
                grid_blocks: cfg.grid_blocks,
                threads_per_block: cfg.threads_per_block,
                occupancy: 0.0,
                traffic: Traffic::default(),
                spans: PhaseSpans::default(),
                seconds: self.params.kernel_launch_s,
                bound_by: "fault",
                parts: Vec::new(),
            });
            return Err(e);
        }
        Ok(())
    }

    /// Shared tail of every launch: charge each part's register spill,
    /// price the part alone and the launch as a whole, record the
    /// report. `launch` is [`launch_config`] of the parts' configs.
    fn finish_launch(
        &self,
        launch: KernelConfig,
        parts: Vec<(KernelConfig, PhaseSpans)>,
    ) -> KernelReport {
        let mut spans = PhaseSpans::default();
        let mut reports = Vec::with_capacity(parts.len());
        for (cfg, mut part_spans) in parts {
            // Register spilling: every thread of the part round-trips
            // the spilled registers through local (= global) memory.
            // Charged at launch granularity, so it lands in the
            // catch-all phase.
            if cfg.regs_per_thread > self.params.spill_threshold_regs {
                let spilled = (cfg.regs_per_thread - self.params.spill_threshold_regs) as u64;
                let threads = cfg.grid_blocks as u64 * cfg.threads_per_block as u64;
                part_spans.phase_mut(Phase::Other).spill_bytes += spilled * 4 * 2 * threads;
            }
            let occ = self.occupancy(&cfg);
            let (solo_seconds, _) = self.price(cfg.grid_blocks, occ, &part_spans.total());
            spans = spans.merge(&part_spans);
            reports.push(PartReport {
                name: cfg.name,
                grid_blocks: cfg.grid_blocks,
                spans: part_spans,
                solo_seconds,
            });
        }
        let occ = self.occupancy(&launch);
        let traffic = spans.total();
        let (seconds, bound_by) = self.price(launch.grid_blocks, occ, &traffic);
        let report = KernelReport {
            name: launch.name,
            grid_blocks: launch.grid_blocks,
            threads_per_block: launch.threads_per_block,
            occupancy: occ.fraction,
            traffic,
            spans,
            seconds,
            bound_by,
            parts: reports,
        };
        self.record_event(report.clone());
        report
    }

    /// Occupancy achieved by a kernel configuration on this device.
    pub fn occupancy(&self, cfg: &KernelConfig) -> Occupancy {
        let p = &self.params;
        let tpb = cfg.threads_per_block.max(1);
        let by_threads = p.max_threads_per_sm / tpb;
        let by_smem = p
            .smem_per_sm
            .checked_div(cfg.smem_per_block)
            .unwrap_or(p.max_blocks_per_sm);
        // Spilled kernels are compiled down to the spill threshold; the
        // excess lives in local memory and is charged as spill traffic.
        let regs = cfg.regs_per_thread.min(p.spill_threshold_regs).max(1);
        let by_regs = p.regs_per_sm / (regs * tpb).max(1);
        let blocks = by_threads
            .min(by_smem)
            .min(by_regs)
            .min(p.max_blocks_per_sm)
            .max(if cfg.grid_blocks > 0 { 1 } else { 0 });
        Occupancy {
            resident_blocks: blocks,
            fraction: (blocks * tpb) as f64 / p.max_threads_per_sm as f64,
        }
    }

    /// Modelled seconds of `grid_blocks` blocks at residency `occ`
    /// moving `traffic`, and the roofline leg that dominated.
    fn price(&self, grid_blocks: usize, occ: Occupancy, traffic: &Traffic) -> (f64, &'static str) {
        let p = &self.params;
        // Degraded-bandwidth fault: a sick device streams slower.
        let health = self
            .faults
            .borrow()
            .as_ref()
            .map_or(1.0, |s| s.plan.bandwidth_factor.clamp(0.01, 1.0));
        let bw_factor = (occ.fraction / p.bw_saturation_occupancy).clamp(0.05, 1.0) * health;
        let global_s = traffic.global_bytes() as f64 / (p.global_bw * bw_factor);
        let shared_s = traffic.shared_bytes as f64 / p.shared_bw;
        let compute_s = traffic.int_ops as f64 / p.int_throughput;
        // Per-block scheduling/tail latency, amortized over how many
        // blocks the machine keeps in flight.
        let concurrency = (p.num_sms * occ.resident_blocks.max(1)) as f64;
        let block_overhead_s = grid_blocks as f64 * p.block_latency_s / concurrency;

        let legs = [
            ("global", global_s),
            ("shared", shared_s),
            ("compute", compute_s),
        ];
        let (mut bound_by, mut dominant) = ("overhead", 0.0f64);
        for (name, s) in legs {
            if s > dominant {
                dominant = s;
                bound_by = name;
            }
        }
        (p.kernel_launch_s + block_overhead_s + dominant, bound_by)
    }

    /// Model a host→device (or device→host) transfer of `bytes` over
    /// PCIe and append it to the timeline. Returns the transfer time.
    pub fn pcie_transfer(&self, bytes: u64) -> f64 {
        let seconds = bytes as f64 / self.params.pcie_bw;
        self.record_event(KernelReport {
            name: "pcie".to_string(),
            grid_blocks: 0,
            threads_per_block: 0,
            occupancy: 1.0,
            traffic: Traffic::default(),
            spans: PhaseSpans::default(),
            seconds,
            bound_by: "pcie",
            parts: Vec::new(),
        });
        seconds
    }

    /// Model an out-of-core pipeline: `bytes` stream over PCIe in
    /// `chunks` pieces double-buffered against `compute_seconds` of GPU
    /// work. Steady-state throughput is the slower of the two legs; the
    /// pipeline fill costs one transfer chunk. Appends a single event
    /// and returns the total time.
    pub fn pcie_transfer_overlapped(&self, bytes: u64, compute_seconds: f64, chunks: usize) -> f64 {
        let transfer = bytes as f64 / self.params.pcie_bw;
        let fill = transfer / chunks.max(1) as f64;
        let seconds = fill + transfer.max(compute_seconds);
        self.record_event(KernelReport {
            name: "pcie".to_string(),
            grid_blocks: 0,
            threads_per_block: 0,
            occupancy: 1.0,
            traffic: Traffic::default(),
            spans: PhaseSpans::default(),
            seconds,
            bound_by: if transfer >= compute_seconds {
                "pcie"
            } else {
                "compute"
            },
            parts: Vec::new(),
        });
        seconds
    }

    /// Total simulated seconds since the last [`Device::reset_timeline`].
    pub fn elapsed_seconds(&self) -> f64 {
        self.timeline.borrow().total_seconds()
    }

    /// Total simulated seconds scaled to a workload `factor` times larger
    /// (see [`Timeline::scaled_seconds`]).
    pub fn elapsed_seconds_scaled(&self, factor: f64) -> f64 {
        self.timeline
            .borrow()
            .scaled_seconds(factor, self.params.kernel_launch_s)
    }

    /// Clear the timeline (start of a measured region).
    pub fn reset_timeline(&self) {
        self.timeline.borrow_mut().clear();
    }

    /// Inspect the timeline (events since last reset).
    pub fn with_timeline<R>(&self, f: impl FnOnce(&Timeline) -> R) -> R {
        f(&self.timeline.borrow())
    }
}

/// The configuration a launch of `parts` is gated, timed and reported
/// under. One part: its own. Several: a kernel called `name` over the
/// parts' grids end to end, compiled for the most demanding part in
/// each resource (largest block, shared-memory image and register
/// count), which is what sets its residency.
fn launch_config<'c>(name: &str, parts: impl Iterator<Item = &'c KernelConfig>) -> KernelConfig {
    let mut parts = parts.peekable();
    let first = parts.next().expect("a launch has at least one part");
    if parts.peek().is_none() {
        return first.clone();
    }
    parts.fold(
        KernelConfig {
            name: name.to_string(),
            fuel_per_block: None,
            ..first.clone()
        },
        |launch, part| KernelConfig {
            grid_blocks: launch.grid_blocks + part.grid_blocks,
            threads_per_block: launch.threads_per_block.max(part.threads_per_block),
            smem_per_block: launch.smem_per_block.max(part.smem_per_block),
            regs_per_thread: launch.regs_per_thread.max(part.regs_per_thread),
            ..launch
        },
    )
}

/// The pieces of the launch-wide block range `blocks` by part, as
/// `(part, blocks within the part)`: part `i` owns the `grids[i]`
/// launch-wide blocks after those of the parts before it.
fn part_ranges(
    grids: &[usize],
    blocks: std::ops::Range<usize>,
) -> impl Iterator<Item = (usize, std::ops::Range<usize>)> + '_ {
    let mut first = 0;
    grids.iter().enumerate().filter_map(move |(part, &grid)| {
        let base = first;
        first += grid;
        let lo = blocks.start.max(base);
        let hi = blocks.end.min(first);
        (lo < hi).then(|| (part, lo - base..hi - base))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_alignment_and_disjointness() {
        let dev = Device::v100();
        let a = dev.alloc_zeroed::<u32>(33); // 132 bytes -> next alloc 256B later
        let b = dev.alloc_zeroed::<u8>(1);
        assert_eq!(a.addr_of(0) % ALLOC_ALIGN, 0);
        assert_eq!(b.addr_of(0) % ALLOC_ALIGN, 0);
        assert!(b.addr_of(0) >= a.addr_of(0) + 132);
    }

    #[test]
    fn occupancy_limited_by_threads() {
        let dev = Device::v100();
        let cfg = KernelConfig::new("k", 10, 128);
        let occ = dev.occupancy(&cfg);
        assert_eq!(occ.resident_blocks, 16); // 2048 / 128
        assert!((occ.fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn occupancy_limited_by_smem() {
        let dev = Device::v100();
        // 16 KiB smem per block -> 6 blocks of 96 KiB SM.
        let cfg = KernelConfig::new("k", 10, 128).smem_per_block(16 * 1024);
        let occ = dev.occupancy(&cfg);
        assert_eq!(occ.resident_blocks, 6);
        assert!(occ.fraction < 0.5);
    }

    #[test]
    fn occupancy_limited_by_registers() {
        let dev = Device::v100();
        // 64 regs * 512 threads = 32768 regs per block -> 2 blocks.
        let cfg = KernelConfig::new("k", 10, 512).regs_per_thread(64);
        let occ = dev.occupancy(&cfg);
        assert_eq!(occ.resident_blocks, 2);
    }

    #[test]
    fn spill_traffic_charged_above_threshold() {
        let dev = Device::v100();
        let cfg = KernelConfig::new("k", 4, 128).regs_per_thread(70);
        let report = dev.launch(cfg, |_| {});
        // 6 spilled regs * 4 B * 2 (st+ld) * 512 threads
        assert_eq!(report.traffic.spill_bytes, 6 * 4 * 2 * 512);
    }

    #[test]
    fn no_spill_at_threshold() {
        let dev = Device::v100();
        let cfg = KernelConfig::new("k", 4, 128).regs_per_thread(64);
        let report = dev.launch(cfg, |_| {});
        assert_eq!(report.traffic.spill_bytes, 0);
    }

    #[test]
    fn time_scales_with_traffic() {
        let dev = Device::v100();
        let data: Vec<u32> = vec![7; 1 << 20];
        let buf = dev.alloc_from_slice(&data);
        let blocks = data.len() / 128;
        let t1 = {
            dev.reset_timeline();
            dev.launch(KernelConfig::new("r1", blocks, 128), |blk| {
                let base = blk.block_id() * 128;
                let _ = blk.read_coalesced(&buf, base, 128);
            });
            dev.elapsed_seconds()
        };
        let t2 = {
            dev.reset_timeline();
            dev.launch(KernelConfig::new("r2", blocks, 128), |blk| {
                let base = blk.block_id() * 128;
                let _ = blk.read_coalesced(&buf, base, 128);
                let _ = blk.read_coalesced(&buf, base, 128); // double traffic
            });
            dev.elapsed_seconds()
        };
        assert!(t2 > t1, "t1={t1} t2={t2}");
    }

    #[test]
    fn streaming_read_bandwidth_matches_model() {
        // Reading 2 GB at 880 GB/s with full occupancy and a grid-stride
        // loop should take ~2.3 ms. Simulate a scaled-down 8 MB read and
        // scale the answer by 256.
        let dev = Device::v100();
        let n = 2 << 20; // u32 elements = 8 MiB
        let buf = dev.alloc_zeroed::<u32>(n);
        let grid = 128; // grid-stride style: few blocks, lots of work each
        let per_block = n / grid;
        dev.reset_timeline();
        dev.launch(KernelConfig::new("scan", grid, 128), |blk| {
            let base = blk.block_id() * per_block;
            let _ = blk.read_coalesced(&buf, base, per_block);
        });
        let t = dev.elapsed_seconds_scaled(256.0);
        let expected = (n as f64 * 4.0 * 256.0) / 880.0e9;
        assert!(
            (t - expected).abs() / expected < 0.05,
            "t={t} expected={expected}"
        );
    }

    #[test]
    fn launch_par_matches_serial_launch_exactly() {
        // The parallel backend must produce the same report (traffic,
        // occupancy, seconds) as the serial loop, for every worker
        // count — including the merge-phase traffic.
        let _guard = crate::threads::TEST_OVERRIDE_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let n = 1 << 16;
        let run = |threads: usize| {
            crate::threads::set_sim_threads_override(Some(threads));
            let dev = Device::v100();
            let buf = dev.alloc_from_slice::<u32>(&(0..n as u32).collect::<Vec<_>>());
            let mut out = dev.alloc_zeroed::<u32>(n);
            let grid = n / 128;
            let report = dev
                .try_launch_par(
                    KernelConfig::new("par", grid, 128).regs_per_thread(70),
                    || (),
                    |(), blk| {
                        let base = blk.block_id() * 128;
                        let vals = blk.read_coalesced(&buf, base, 128);
                        blk.add_int_ops(128);
                        vals.iter().map(|&v| v * 2).collect::<Vec<u32>>()
                    },
                    |blk, block_id, doubled| {
                        blk.write_coalesced(&mut out, block_id * 128, &doubled);
                    },
                )
                .expect("no fault plan armed");
            crate::threads::set_sim_threads_override(None);
            (report, out.as_slice_unaccounted().to_vec())
        };
        let (serial_report, serial_out) = run(1);
        for threads in [2, 3, 8] {
            let (report, out) = run(threads);
            assert_eq!(report, serial_report, "threads = {threads}");
            assert_eq!(out, serial_out, "threads = {threads}");
        }
        assert_eq!(serial_out[5], 10);
        assert!(serial_report.traffic.spill_bytes > 0);
    }

    #[test]
    fn worker_state_is_built_once_per_worker_and_survives_its_blocks() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let _guard = crate::threads::TEST_OVERRIDE_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        for threads in [1, 3] {
            crate::threads::set_sim_threads_override(Some(threads));
            let inits = AtomicUsize::new(0);
            let dev = Device::v100();
            let mut merged = Vec::new();
            dev.try_launch_par(
                KernelConfig::new("k", 9, 32).smem_per_block(256),
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    0usize
                },
                |blocks_run, blk| {
                    // Shared memory is zeroed per block even though the
                    // worker reuses one image.
                    assert!(blk.shared().iter().all(|&w| w == 0));
                    blk.shared_mut()[0] = 7;
                    *blocks_run += 1;
                    *blocks_run
                },
                |blk, block_id, nth| {
                    assert!(blk.shared().is_empty(), "merge has no shared memory");
                    merged.push((block_id, nth));
                },
            )
            .expect("no faults armed");
            crate::threads::set_sim_threads_override(None);
            assert_eq!(inits.load(Ordering::Relaxed), threads);
            // Merge visits blocks in order; each worker numbered its
            // own contiguous range from 1.
            let per_worker = 9 / threads;
            let want: Vec<(usize, usize)> = (0..9).map(|b| (b, b % per_worker + 1)).collect();
            assert_eq!(merged, want, "threads = {threads}");
        }
    }

    /// Three kernels with different grids, registers, shared memory
    /// and fuel, as the parts of one launch and each alone.
    #[test]
    fn a_launch_of_parts_sums_its_parts_and_pays_one_overhead() {
        let _guard = crate::threads::TEST_OVERRIDE_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let n = 1 << 14;
        let cfgs = || {
            [
                KernelConfig::new("reader", n / 128, 128).regs_per_thread(70),
                KernelConfig::new("stager", 24, 128)
                    .smem_per_block(16 * 1024)
                    .fuel_per_block(9),
                KernelConfig::new("adder", 7, 64),
            ]
        };
        // `only`: launch that part alone; `None`: all three together.
        let run = |threads: usize, only: Option<usize>| {
            crate::threads::set_sim_threads_override(Some(threads));
            let dev = Device::v100();
            let buf = dev.alloc_from_slice::<u32>(&(0..n as u32).collect::<Vec<_>>());
            let mut out = dev.alloc_zeroed::<u32>(n);
            let mut acc = dev.alloc_zeroed::<u64>(4);
            let merged = std::cell::RefCell::new(Vec::new());
            let [reader, stager, adder] = cfgs();
            let mut parts = vec![
                LaunchPart::new(
                    reader,
                    || (),
                    |(), blk| {
                        assert_eq!((blk.threads(), blk.fuel_remaining()), (128, None));
                        blk.set_phase(Phase::GlobalLoad);
                        let vals = blk.read_coalesced(&buf, blk.block_id() * 128, 128);
                        blk.bump(crate::Counter::ValuesProduced, 128);
                        vals.iter().map(|&v| v * 2).collect::<Vec<u32>>()
                    },
                    |blk, block_id, doubled| {
                        merged.borrow_mut().push((0, block_id));
                        blk.set_phase(Phase::Writeback);
                        blk.write_coalesced(&mut out, block_id * 128, &doubled);
                    },
                ),
                LaunchPart::new(
                    stager,
                    || (),
                    |(), blk| {
                        assert_eq!(blk.shared().len(), 4 * 1024);
                        assert_eq!(blk.fuel_remaining(), Some(9));
                        blk.set_phase(Phase::SharedStage);
                        blk.stage_to_shared(&buf, blk.block_id() * 64, 64, 0);
                        blk.bump(crate::Counter::EncodedTileReads, 1);
                        blk.shared()[1]
                    },
                    |_, block_id, staged| {
                        merged.borrow_mut().push((1, block_id));
                        assert_eq!(staged as usize, block_id * 64 + 1);
                    },
                ),
                LaunchPart::new(
                    adder,
                    || (),
                    |(), blk| {
                        assert_eq!((blk.threads(), blk.shared().len()), (64, 0));
                        blk.add_int_ops(1000);
                        blk.block_id() as u64
                    },
                    |blk, block_id, v| {
                        merged.borrow_mut().push((2, block_id));
                        blk.set_phase(Phase::Aggregate);
                        blk.warp_atomic_add_u64(&mut acc, &[(block_id % 4, v)]);
                    },
                ),
            ];
            if let Some(i) = only {
                parts = vec![parts.swap_remove(i)];
            }
            let report = dev
                .try_launch_parts("three", parts)
                .expect("no faults armed");
            crate::threads::set_sim_threads_override(None);
            assert_eq!(dev.with_timeline(|tl| tl.kernel_launches()), 1);
            (report, merged.into_inner())
        };
        let (wave, order) = run(1, None);
        // Merge runs in part order, then block order.
        let want: Vec<(usize, usize)> = cfgs()
            .iter()
            .enumerate()
            .flat_map(|(part, cfg)| (0..cfg.grid_blocks).map(move |b| (part, b)))
            .collect();
        assert_eq!(order, want);
        for threads in [2, 4, 7] {
            assert_eq!(
                run(threads, None),
                (wave.clone(), want.clone()),
                "{threads} threads"
            );
        }
        let solo: Vec<KernelReport> = (0..3).map(|i| run(1, Some(i)).0).collect();
        for (i, alone) in solo.iter().enumerate() {
            assert_eq!(run(4, Some(i)).0, *alone, "part {i} alone at 4 threads");
            // A launch of one part is the part: its name, its price.
            assert_eq!(alone.name, cfgs()[i].name);
            assert_eq!(alone.parts.len(), 1);
            assert_eq!(
                alone.parts[0].solo_seconds.to_bits(),
                alone.seconds.to_bits()
            );
            assert_eq!(alone.share(0..1), 1.0);
            // ... and in the wave it is kept as it was alone.
            assert_eq!(wave.parts[i].name, alone.name);
            assert_eq!(wave.parts[i].grid_blocks, alone.grid_blocks);
            assert_eq!(wave.parts[i].spans, alone.spans);
            assert_eq!(
                wave.parts[i].solo_seconds.to_bits(),
                alone.seconds.to_bits()
            );
        }
        // Traffic, phase by phase, and every counter: the parts' sums.
        let summed = solo
            .iter()
            .fold(PhaseSpans::default(), |acc, r| acc.merge(&r.spans));
        assert_eq!(wave.spans, summed);
        assert_eq!(wave.traffic, summed.total());
        assert_eq!(wave.name, "three");
        assert_eq!(wave.grid_blocks, n / 128 + 24 + 7);
        // Only the 70-register part spills, on its own threads.
        assert_eq!(wave.traffic.spill_bytes, 6 * 4 * 2 * n as u64);
        assert_eq!(
            wave.parts[0].spans.total().spill_bytes,
            wave.traffic.spill_bytes
        );
        // Residency: one kernel with the stager's 16 KiB (6 blocks by
        // shared memory) and the reader's registers (8 blocks, capped at
        // the spill threshold); alone the adder keeps 32 blocks of 64.
        assert_eq!(wave.occupancy, 6.0 * 128.0 / 2048.0);
        assert_eq!(solo[2].occupancy, 1.0);
        // One launch overhead where three were paid, and nothing lost
        // to the lower residency at these sizes.
        let apart: f64 = solo.iter().map(|r| r.seconds).sum();
        assert!(
            wave.seconds < apart - 1.9 * dev_launch_s(),
            "{} vs {apart}",
            wave.seconds
        );
        // The shares split the launch's seconds and leave nothing over.
        assert_eq!(wave.share(0..3), 1.0);
        let shares: f64 = (0..3).map(|i| wave.share(i..i + 1)).sum();
        assert!((shares - 1.0).abs() < 1e-12, "{shares}");
        assert!(wave.share(0..1) > wave.share(2..3));
    }

    fn dev_launch_s() -> f64 {
        DeviceParams::v100().kernel_launch_s
    }

    #[test]
    fn a_launch_of_parts_is_gated_once() {
        let part = |name: &str| {
            LaunchPart::new(
                KernelConfig::new(name, 3, 32),
                || (),
                |(), _| unreachable!("a gated launch runs no block"),
                |_, _, ()| {},
            )
        };
        let dev = Device::v100();
        dev.inject_faults(FaultPlan {
            transient_launch_rate: 1.0,
            ..FaultPlan::seeded(1)
        });
        let err = dev
            .try_launch_parts("wave", vec![part("a"), part("b"), part("c")])
            .expect_err("every launch fails");
        assert_eq!(
            err,
            LaunchError::Transient {
                kernel: "wave".to_string()
            }
        );
        let stats = dev.fault_stats().expect("armed");
        assert_eq!((stats.launches_attempted, stats.transient_failures), (1, 1));
        dev.with_timeline(|tl| {
            assert_eq!(tl.events().len(), 1);
            let e = &tl.events()[0];
            assert_eq!((e.name.as_str(), e.grid_blocks), ("wave!fault", 9));
            assert_eq!(e.seconds, dev_launch_s());
            assert!(e.parts.is_empty());
        });
        // A kill named for the second launch lets the first, of any
        // size, through.
        let dev = Device::v100();
        dev.inject_faults(FaultPlan {
            kill_at_launch: Some("second"),
            ..FaultPlan::seeded(1)
        });
        let live = |name: &str| {
            LaunchPart::new(
                KernelConfig::new(name, 3, 32),
                || (),
                |(), _| (),
                |_, _, ()| {},
            )
        };
        dev.try_launch_parts("first", vec![live("a"), live("b")])
            .expect("the first launch lands");
        // A launch of one part goes by the launch's name, not the part's.
        let err = dev.try_launch_parts("second", vec![live("a")]);
        assert_eq!(
            err.expect_err("the device is gone"),
            LaunchError::DeviceLost
        );
    }

    #[test]
    fn pcie_transfer_time() {
        let dev = Device::v100();
        let t = dev.pcie_transfer(12_800_000_000);
        assert!((t - 1.0).abs() < 1e-9);
        assert_eq!(dev.with_timeline(|tl| tl.kernel_launches()), 0);
    }

    #[test]
    fn low_occupancy_degrades_bandwidth() {
        let dev = Device::v100();
        let n = 1 << 20;
        let buf = dev.alloc_zeroed::<u32>(n);
        let run = |smem: usize| {
            dev.reset_timeline();
            let grid = n / 128;
            dev.launch(
                KernelConfig::new("k", grid, 128).smem_per_block(smem),
                |blk| {
                    let base = blk.block_id() * 128;
                    let _ = blk.read_coalesced(&buf, base, 128);
                },
            );
            dev.elapsed_seconds()
        };
        let fast = run(1024); // high occupancy
        let slow = run(48 * 1024); // 2 resident blocks -> 12.5% occupancy
        assert!(slow > fast, "slow={slow} fast={fast}");
    }
}
