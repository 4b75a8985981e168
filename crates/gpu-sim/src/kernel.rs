//! Kernel configuration and the per-thread-block execution context.

use std::any::Any;
use std::collections::HashSet;
use std::ops::Range;

use crate::memory::{
    gather_segments, segments_for_range, GlobalBuffer, Scalar, SegmentMarks, SEGMENT_BYTES,
    WARP_SIZE,
};
use crate::report::{Counter, Phase, PhaseSpans, Traffic};

/// Static launch configuration of a kernel, mirroring what a CUDA
/// programmer declares: grid size, block size, shared memory per block,
/// and (as a modelling input) registers per thread.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Kernel name, used in timeline reports.
    pub name: String,
    /// Number of thread blocks in the grid.
    pub grid_blocks: usize,
    /// Threads per block (32..=1024 on real hardware).
    pub threads_per_block: usize,
    /// Dynamic + static shared memory per block, in bytes.
    pub smem_per_block: usize,
    /// Registers per thread the kernel needs. Above the device's spill
    /// threshold, the excess is charged as local-memory traffic.
    pub regs_per_thread: usize,
    /// Decode "fuel" budget per thread block, in abstract work units
    /// (roughly: words staged + values produced). `None` means
    /// unlimited. Kernels that process *untrusted* data consume fuel via
    /// [`BlockCtx::consume_fuel`] so a hostile stream can bound neither
    /// the simulator's time nor its memory: once the budget is spent the
    /// decode path bails out with a typed error instead of spinning.
    pub fuel_per_block: Option<u64>,
}

impl KernelConfig {
    /// A kernel with the given grid and block size; 32 registers/thread
    /// and no shared memory by default.
    pub fn new(name: impl Into<String>, grid_blocks: usize, threads_per_block: usize) -> Self {
        debug_assert!((1..=1024).contains(&threads_per_block));
        KernelConfig {
            name: name.into(),
            grid_blocks,
            threads_per_block,
            smem_per_block: 0,
            regs_per_thread: 32,
            fuel_per_block: None,
        }
    }

    /// Set shared-memory bytes per block.
    pub fn smem_per_block(mut self, bytes: usize) -> Self {
        self.smem_per_block = bytes;
        self
    }

    /// Set registers per thread.
    pub fn regs_per_thread(mut self, regs: usize) -> Self {
        self.regs_per_thread = regs;
        self
    }

    /// Set the per-block decode fuel budget (see
    /// [`KernelConfig::fuel_per_block`]).
    pub fn fuel_per_block(mut self, units: u64) -> Self {
        self.fuel_per_block = Some(units);
        self
    }
}

/// A block's result on its way from the body of its part to the merge,
/// with its type erased: an `Option<R>` the merge takes `R` out of. It
/// lives on the stack of the block loop, so a block allocates nothing
/// to hand its result over.
pub(crate) type ResultSlot<'s> = &'s mut dyn Any;

/// The results a worker kept for the merge, erased: a `Vec<Option<R>>`
/// in block order.
pub(crate) type KeptResults = Box<dyn Any + Send>;

/// The body phase of a part: run the blocks of a range on the calling
/// thread under the part's configuration (and the device's L1 switch),
/// charging the spans. With a sink, each block's result goes to it as
/// soon as the block returns and nothing is kept; without one, the
/// results are kept and returned.
type PartBody<'a> = Box<
    dyn Fn(
            &KernelConfig,
            Range<usize>,
            bool,
            &mut PhaseSpans,
            Option<&mut dyn FnMut(usize, ResultSlot<'_>)>,
        ) -> Option<KeptResults>
        + Sync
        + 'a,
>;

/// Hand the results a worker kept to `each`, in block order.
type PartDrain = fn(KeptResults, &mut dyn FnMut(ResultSlot<'_>));

/// The merge phase of a part: take one block's result, serially.
type PartMerge<'a> = Box<dyn FnMut(&mut BlockCtx<'_>, usize, ResultSlot<'_>) + 'a>;

/// One **part** of a launch: a range of thread blocks with its own
/// [`KernelConfig`] (grid, registers, shared memory, fuel) and its own
/// two phases, exactly those of [`crate::Device::try_launch_par`]:
/// `body` runs once per block on a worker with the worker's `init`
/// scratch and returns the block's result, `merge` takes the results
/// serially in block order. A block sees only its part: block ids
/// count from 0 within it.
///
/// [`crate::Device::try_launch_parts`] runs a list of parts as **one**
/// kernel launch. The parts are independent kernels that share a launch
/// (block ranges of one grid), not stages of a pipeline: no part reads
/// what another wrote.
pub struct LaunchPart<'a> {
    pub(crate) cfg: KernelConfig,
    pub(crate) body: PartBody<'a>,
    pub(crate) merge: PartMerge<'a>,
    pub(crate) drain: PartDrain,
}

impl<'a> LaunchPart<'a> {
    /// A part from its configuration and its `init` / `body` / `merge`
    /// (see [`crate::Device::try_launch_par`] for what each may do).
    pub fn new<S, R, I, B, M>(cfg: KernelConfig, init: I, body: B, mut merge: M) -> Self
    where
        R: Send + 'static,
        I: Fn() -> S + Sync + 'a,
        B: Fn(&mut S, &mut BlockCtx<'_>) -> R + Sync + 'a,
        M: FnMut(&mut BlockCtx<'_>, usize, R) + 'a,
    {
        LaunchPart {
            cfg,
            body: Box::new(move |cfg, blocks, l1_per_block, spans, sink| {
                let mut state = init();
                let block = |ctx: &mut BlockCtx<'_>| body(&mut state, ctx);
                match sink {
                    Some(sink) => {
                        let hand_over = |block_id, result: R| sink(block_id, &mut Some(result));
                        run_blocks(cfg, blocks, l1_per_block, spans, block, hand_over);
                        None
                    }
                    None => {
                        let mut kept: Vec<Option<R>> = Vec::with_capacity(blocks.len());
                        let keep = |_, result: R| kept.push(Some(result));
                        run_blocks(cfg, blocks, l1_per_block, spans, block, keep);
                        Some(Box::new(kept) as KeptResults)
                    }
                }
            }),
            merge: Box::new(move |ctx, block_id, slot| {
                let result = slot.downcast_mut::<Option<R>>().and_then(Option::take);
                let result = result.expect("a part merges what its own body returned, once");
                merge(ctx, block_id, result);
            }),
            drain: |kept, each| {
                let kept = kept.downcast::<Vec<Option<R>>>();
                let kept = kept.expect("a part drains what its own body kept");
                kept.into_iter().for_each(|mut slot| each(&mut slot));
            },
        }
    }
}

/// The body loop of every launch: run `block` once per thread block of
/// `range`, charging into `spans`, and hand each result to `emit`. The
/// shared-memory image and the segment mark map are allocated once per
/// call (one of each per worker and part); the image is zeroed before
/// each block, the map is left all zeros by every warp instruction.
pub(crate) fn run_blocks<R>(
    cfg: &KernelConfig,
    range: Range<usize>,
    l1_per_block: bool,
    spans: &mut PhaseSpans,
    mut block: impl FnMut(&mut BlockCtx<'_>) -> R,
    mut emit: impl FnMut(usize, R),
) {
    let mut shared = vec![0u32; cfg.smem_per_block / 4];
    let mut marks = SegmentMarks::default();
    for block_id in range {
        shared.fill(0);
        let mut ctx = BlockCtx::new(block_id, cfg, spans, &mut shared, &mut marks, l1_per_block);
        emit(block_id, block(&mut ctx));
    }
}

/// Achieved occupancy of a kernel on a device.
#[derive(Debug, Clone, Copy)]
pub struct Occupancy {
    /// Blocks resident per SM.
    pub resident_blocks: usize,
    /// Fraction of the SM's maximum resident threads, in [0, 1].
    pub fraction: f64,
}

/// Execution context of one thread block.
///
/// All *device-visible* memory access goes through these methods so the
/// simulator can account transactions. The methods are block-collective:
/// e.g. [`BlockCtx::read_coalesced`] models all threads of the block
/// cooperatively loading a contiguous range (Crystal's `BlockLoad`),
/// while [`BlockCtx::warp_gather`] models one warp issuing up to 32
/// arbitrary addresses in one instruction.
///
/// A warp instruction's transaction count is the number of distinct
/// 128-byte segments its lanes touch, taken by marking them in the
/// worker's segment map (see [`crate::memory`]); which lanes of a warp
/// take part is a *ballot word*, one bit per lane
/// ([`BlockCtx::warp_gather_masked`], [`live_lanes`]).
pub struct BlockCtx<'a> {
    block_id: usize,
    threads: usize,
    /// The block's shared memory: a worker-owned image the launch loop
    /// zeroes before each block, empty for merge-phase contexts.
    shared: &'a mut [u32],
    /// The worker's segment mark map, all zeros between warp
    /// instructions (merge-phase contexts share the launch's own).
    marks: &'a mut SegmentMarks,
    /// Per-phase traffic spans + semantic counters; every charge lands
    /// in the span of the current `phase`.
    spans: &'a mut PhaseSpans,
    /// Phase the block is currently attributed to (starts at
    /// [`Phase::Other`] each block).
    phase: Phase,
    /// Per-block L1 model: segments already fetched by this block
    /// (None when the device's `l1_per_block` is off).
    l1: Option<HashSet<u64>>,
    /// Remaining decode fuel (None = unlimited).
    fuel: Option<u64>,
}

impl<'a> BlockCtx<'a> {
    pub(crate) fn new(
        block_id: usize,
        cfg: &KernelConfig,
        spans: &'a mut PhaseSpans,
        shared: &'a mut [u32],
        marks: &'a mut SegmentMarks,
        l1_per_block: bool,
    ) -> Self {
        BlockCtx {
            block_id,
            threads: cfg.threads_per_block,
            shared,
            marks,
            spans,
            phase: Phase::Other,
            l1: l1_per_block.then(HashSet::new),
            fuel: cfg.fuel_per_block,
        }
    }

    /// Set the phase subsequent traffic is attributed to; returns the
    /// previous phase. Phase attribution never changes totals — only
    /// how they are broken down — so uninstrumented code is free to
    /// ignore it (everything lands in [`Phase::Other`]).
    pub fn set_phase(&mut self, phase: Phase) -> Phase {
        std::mem::replace(&mut self.phase, phase)
    }

    /// Phase currently being attributed.
    pub fn current_phase(&self) -> Phase {
        self.phase
    }

    /// Increment a semantic [`Counter`] by `n` (free: counters carry no
    /// modelled cost).
    pub fn bump(&mut self, counter: Counter, n: u64) {
        self.spans.bump(counter, n);
    }

    /// The traffic span of the current phase.
    #[inline]
    fn traffic(&mut self) -> &mut Traffic {
        self.spans.phase_mut(self.phase)
    }

    /// Consume `units` of the block's decode fuel budget. Returns
    /// `false` once the budget is exhausted — the caller must abandon
    /// the block with a typed error. With no budget armed this always
    /// returns `true`.
    #[must_use]
    pub fn consume_fuel(&mut self, units: u64) -> bool {
        match &mut self.fuel {
            None => true,
            Some(rem) => {
                if *rem >= units {
                    *rem -= units;
                    true
                } else {
                    *rem = 0;
                    false
                }
            }
        }
    }

    /// Remaining decode fuel, if a budget is armed.
    pub fn fuel_remaining(&self) -> Option<u64> {
        self.fuel
    }

    /// Charge the read transactions for a contiguous byte range,
    /// deduplicating against the block's L1 when modeled.
    fn charge_range_read(&mut self, addr: u64, bytes: u64) {
        let segs = match &mut self.l1 {
            None => segments_for_range(addr, bytes),
            Some(cache) => {
                if bytes == 0 {
                    return;
                }
                (addr / SEGMENT_BYTES..=(addr + bytes - 1) / SEGMENT_BYTES)
                    .filter(|&seg| cache.insert(seg))
                    .count() as u64
            }
        };
        self.traffic().global_read_segments += segs;
    }

    /// Charge the read transactions for one warp's gather from `buf`,
    /// deduplicating against the block's L1 when modeled.
    fn charge_gather_read<T: Scalar>(&mut self, buf: &GlobalBuffer<T>, addrs: &[u64], width: u64) {
        let segs = match &mut self.l1 {
            None => self.marks.count(buf, addrs, width),
            Some(cache) => gather_segments(addrs, width)
                .into_iter()
                .filter(|&seg| cache.insert(seg))
                .count() as u64,
        };
        self.traffic().global_read_segments += segs;
    }

    /// Index of this thread block within the grid.
    #[inline]
    pub fn block_id(&self) -> usize {
        self.block_id
    }

    /// Threads in this block.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    // ------------------------------------------------------------------
    // Global memory
    // ------------------------------------------------------------------

    /// Block-cooperative coalesced load of `len` contiguous elements
    /// starting at `start`. Charges the distinct 128-byte segments the
    /// range covers (misalignment included) and returns the values.
    pub fn read_coalesced<T: Scalar>(
        &mut self,
        buf: &GlobalBuffer<T>,
        start: usize,
        len: usize,
    ) -> Vec<T> {
        self.charge_range_read(buf.addr_of(start), len as u64 * T::BYTES);
        buf.range(start, len).to_vec()
    }

    /// Like [`BlockCtx::read_coalesced`] but invokes `f` on the borrowed
    /// slice instead of copying (for hot decode paths).
    pub fn read_coalesced_with<T: Scalar, R>(
        &mut self,
        buf: &GlobalBuffer<T>,
        start: usize,
        len: usize,
        f: impl FnOnce(&[T]) -> R,
    ) -> R {
        self.charge_range_read(buf.addr_of(start), len as u64 * T::BYTES);
        f(buf.range(start, len))
    }

    /// Block-cooperative coalesced store of `values` starting at `start`.
    pub fn write_coalesced<T: Scalar>(
        &mut self,
        buf: &mut GlobalBuffer<T>,
        start: usize,
        values: &[T],
    ) {
        let segs = segments_for_range(buf.addr_of(start), values.len() as u64 * T::BYTES);
        self.traffic().global_write_segments += segs;
        buf.range_mut(start, values.len()).copy_from_slice(values);
    }

    /// One warp gathers up to 32 arbitrary elements in a single
    /// instruction; transactions = distinct segments touched. Used for
    /// hash-table probes and the `block_starts` reads of Algorithm 1.
    pub fn warp_gather<T: Scalar>(&mut self, buf: &GlobalBuffer<T>, indices: &[usize]) -> Vec<T> {
        let mut out = vec![T::default(); indices.len()];
        self.warp_gather_into(buf, indices.iter().copied(), &mut out);
        out
    }

    /// [`BlockCtx::warp_gather`] into a caller-provided slice (one slot
    /// per index), for kernels that keep the destination on the stack
    /// or in per-worker scratch. Indices are consumed a warp (32) at a
    /// time; nothing is allocated.
    pub fn warp_gather_into<T: Scalar>(
        &mut self,
        buf: &GlobalBuffer<T>,
        indices: impl IntoIterator<Item = usize>,
        out: &mut [T],
    ) {
        self.gather_lanes(buf, indices, T::BYTES, out);
    }

    /// Like [`BlockCtx::warp_gather`], but each lane reads `width_bytes`
    /// (at most one segment, [`SEGMENT_BYTES`]) starting at its
    /// element's address (e.g. the 8-byte windows of Algorithm 1 when
    /// decoding straight from global memory). Returns the first element
    /// at each index; the traffic covers the full window width.
    pub fn warp_gather_wide<T: Scalar>(
        &mut self,
        buf: &GlobalBuffer<T>,
        indices: &[usize],
        width_bytes: u64,
    ) -> Vec<T> {
        let mut out = vec![T::default(); indices.len()];
        self.gather_lanes(buf, indices.iter().copied(), width_bytes, &mut out);
        out
    }

    /// The gather behind every `warp_gather*`: lane addresses collect in
    /// a warp-sized stack array and each full (or final partial) warp is
    /// charged as one instruction.
    fn gather_lanes<T: Scalar>(
        &mut self,
        buf: &GlobalBuffer<T>,
        indices: impl IntoIterator<Item = usize>,
        width: u64,
        out: &mut [T],
    ) {
        let mut addrs = [0u64; WARP_SIZE];
        let mut lanes = 0;
        let mut slots = out.iter_mut();
        for i in indices {
            addrs[lanes] = buf.addr_of(i);
            *slots.next().expect("one output slot per index") = buf.get(i);
            lanes += 1;
            if lanes == WARP_SIZE {
                self.charge_gather_read(buf, &addrs, width);
                lanes = 0;
            }
        }
        if lanes > 0 {
            self.charge_gather_read(buf, &addrs[..lanes], width);
        }
        debug_assert!(slots.next().is_none(), "one index per output slot");
    }

    /// One warp's predicated gather: lane `l` takes part iff bit `l` of
    /// the ballot word `lanes` is set, and then reads
    /// `buf[indices[l]]` into `out[l]`. The other lanes issue nothing
    /// and leave their `out` slots alone; a warp with no live lane
    /// costs nothing. Transactions = distinct segments the live lanes
    /// touch. `indices` and `out` cover the same (at most 32) lanes and
    /// `lanes` has no bit past them.
    pub fn warp_gather_masked<T: Scalar>(
        &mut self,
        buf: &GlobalBuffer<T>,
        lanes: u32,
        indices: &[usize],
        out: &mut [T],
    ) {
        debug_assert!(indices.len() <= WARP_SIZE && indices.len() == out.len());
        if lanes == 0 {
            return;
        }
        let mut addrs = [0u64; WARP_SIZE];
        let mut live = 0;
        if lanes == u32::MAX && indices.len() == WARP_SIZE {
            // Every lane live: a straight loop, no bit walk.
            for ((a, o), &i) in addrs.iter_mut().zip(out.iter_mut()).zip(indices) {
                *a = buf.addr_of(i);
                *o = buf.get(i);
            }
            live = WARP_SIZE;
        } else {
            for l in live_lanes(&[lanes]) {
                addrs[live] = buf.addr_of(indices[l]);
                out[l] = buf.get(indices[l]);
                live += 1;
            }
        }
        self.charge_gather_read(buf, &addrs[..live], T::BYTES);
    }

    /// One warp scatters up to 32 `(index, value)` pairs; transactions =
    /// distinct segments touched.
    pub fn warp_scatter<T: Scalar>(&mut self, buf: &mut GlobalBuffer<T>, writes: &[(usize, T)]) {
        for chunk in writes.chunks(WARP_SIZE) {
            let segs = self
                .marks
                .count(buf, lane_addrs(buf, chunk, &mut [0; WARP_SIZE]), T::BYTES);
            self.traffic().global_write_segments += segs;
            for &(i, v) in chunk {
                buf.put(i, v);
            }
        }
    }

    /// Warp-level read-modify-write of up to 32 positions (models
    /// `atomicAdd` on global memory: a read plus a write per segment).
    pub fn warp_atomic_add_u64(&mut self, buf: &mut GlobalBuffer<u64>, updates: &[(usize, u64)]) {
        for chunk in updates.chunks(WARP_SIZE) {
            let segs = self
                .marks
                .count(buf, lane_addrs(buf, chunk, &mut [0; WARP_SIZE]), 8);
            let traffic = self.traffic();
            traffic.global_read_segments += segs;
            traffic.global_write_segments += segs;
            for &(i, v) in chunk {
                let cur = buf.get(i);
                buf.put(i, cur.wrapping_add(v));
            }
        }
    }

    // ------------------------------------------------------------------
    // Shared memory
    // ------------------------------------------------------------------

    /// Stage a contiguous range of global words into shared memory at
    /// word offset `smem_offset` (the tile-load of Section 3). Charges
    /// the global read segments plus a shared write of the same size.
    pub fn stage_to_shared(
        &mut self,
        buf: &GlobalBuffer<u32>,
        start: usize,
        len: usize,
        smem_offset: usize,
    ) {
        self.charge_range_read(buf.addr_of(start), len as u64 * 4);
        self.traffic().shared_bytes += len as u64 * 4;
        self.shared[smem_offset..smem_offset + len].copy_from_slice(buf.range(start, len));
    }

    /// The block's shared memory (32-bit words). Functional access is
    /// free-form; account traffic with [`BlockCtx::smem_traffic`].
    pub fn shared(&self) -> &[u32] {
        self.shared
    }

    /// Mutable shared memory.
    pub fn shared_mut(&mut self) -> &mut [u32] {
        self.shared
    }

    /// Shared memory plus the current phase's traffic span, for decode
    /// loops that interleave reads with accounting.
    pub fn shared_and_traffic(&mut self) -> (&mut [u32], &mut Traffic) {
        (&mut *self.shared, self.spans.phase_mut(self.phase))
    }

    /// Account `bytes` of shared-memory traffic (reads and/or writes).
    #[inline]
    pub fn smem_traffic(&mut self, bytes: u64) {
        self.traffic().shared_bytes += bytes;
    }

    // ------------------------------------------------------------------
    // Compute
    // ------------------------------------------------------------------

    /// Account `n` integer/ALU operations.
    #[inline]
    pub fn add_int_ops(&mut self, n: u64) {
        self.traffic().int_ops += n;
    }

    /// Phase spans and counters accumulated so far (for tests and
    /// fine-grained harnesses). Totals across phases via
    /// [`PhaseSpans::total`].
    pub fn spans(&self) -> &PhaseSpans {
        self.spans
    }
}

/// Byte addresses of one warp's `(index, value)` lanes, written into the
/// caller's stack array.
fn lane_addrs<'s, T: Scalar>(
    buf: &GlobalBuffer<T>,
    lanes: &[(usize, T)],
    addrs: &'s mut [u64; WARP_SIZE],
) -> &'s [u64] {
    for (a, &(i, _)) in addrs.iter_mut().zip(lanes) {
        *a = buf.addr_of(i);
    }
    &addrs[..lanes.len()]
}

/// One warp's ballot: bit `l` of the word is lane `l`'s flag (at most
/// [`WARP_SIZE`] lanes; the bits past them are zero).
#[inline]
pub fn ballot(flags: impl IntoIterator<Item = bool>) -> u32 {
    flags
        .into_iter()
        .enumerate()
        .fold(0, |word, (lane, flag)| word | u32::from(flag) << lane)
}

/// The lanes a selection keeps, in ascending order. A selection is a
/// slice of ballot words, one `u32` per warp of [`WARP_SIZE`] lanes:
/// bit `l` of word `w` is lane `32 * w + l`. Dead warps cost one
/// compare; live lanes are found by `trailing_zeros`.
pub fn live_lanes(words: &[u32]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let lane = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * WARP_SIZE + lane
            })
        })
    })
}

/// Overwrite `words` with the selection that keeps all of `n` lanes:
/// full words, then a final partial word whose bits past `n` are zero.
pub fn all_lanes(n: usize, words: &mut Vec<u32>) {
    words.clear();
    words.resize(n / WARP_SIZE, u32::MAX);
    let tail = n % WARP_SIZE;
    if tail != 0 {
        words.push((1u32 << tail) - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Device;

    #[test]
    fn coalesced_read_counts_range_segments() {
        let dev = Device::v100();
        let buf = dev.alloc_zeroed::<u32>(1024);
        let report = dev.launch(KernelConfig::new("k", 1, 128), |blk| {
            let v = blk.read_coalesced(&buf, 0, 128); // 512 B aligned
            assert_eq!(v.len(), 128);
        });
        assert_eq!(report.traffic.global_read_segments, 4);
    }

    #[test]
    fn misaligned_read_costs_extra_segment() {
        let dev = Device::v100();
        let buf = dev.alloc_zeroed::<u32>(1024);
        let report = dev.launch(KernelConfig::new("k", 1, 128), |blk| {
            let _ = blk.read_coalesced(&buf, 1, 128); // 512 B at offset 4
        });
        assert_eq!(report.traffic.global_read_segments, 5);
    }

    #[test]
    fn warp_gather_broadcast_is_cheap() {
        let dev = Device::v100();
        let buf = dev.alloc_zeroed::<u32>(1024);
        let report = dev.launch(KernelConfig::new("k", 1, 32), |blk| {
            let _ = blk.warp_gather(&buf, &[5; 32]);
        });
        assert_eq!(report.traffic.global_read_segments, 1);
    }

    #[test]
    fn warp_gather_random_is_expensive() {
        let dev = Device::v100();
        let buf = dev.alloc_zeroed::<u32>(32 * 64);
        let report = dev.launch(KernelConfig::new("k", 1, 32), |blk| {
            let idx: Vec<usize> = (0..32).map(|i| i * 64).collect();
            let _ = blk.warp_gather(&buf, &idx);
        });
        assert_eq!(report.traffic.global_read_segments, 32);
    }

    #[test]
    fn masked_gather_reads_only_live_lanes() {
        let dev = Device::v100();
        let data: Vec<u32> = (0..32 * 64).collect();
        let buf = dev.alloc_from_slice(&data);
        let idx: Vec<usize> = (0..32).map(|i| i * 64).collect();
        for (lanes, segments) in [(0u32, 0), (1 << 7, 1), (0x8000_0101, 3), (u32::MAX, 32)] {
            let mut out = [u32::MAX; 32];
            let report = dev.launch(KernelConfig::new("k", 1, 32), |blk| {
                blk.warp_gather_masked(&buf, lanes, &idx, &mut out);
            });
            assert_eq!(report.traffic.global_read_segments, segments, "{lanes:#x}");
            for (l, &v) in out.iter().enumerate() {
                let want = if lanes >> l & 1 == 1 {
                    (l * 64) as u32
                } else {
                    u32::MAX
                };
                assert_eq!(v, want, "{lanes:#x} lane {l}");
            }
        }
        // A partial warp: eleven lanes, every second one live.
        let mut out = [0u32; 11];
        let report = dev.launch(KernelConfig::new("k", 1, 32), |blk| {
            blk.warp_gather_masked(&buf, 0b101_0101_0101, &idx[..11], &mut out);
        });
        assert_eq!(report.traffic.global_read_segments, 6);
        assert_eq!(out[10], 640);
        assert_eq!(out[9], 0);
    }

    #[test]
    fn ballot_words_enumerate_their_lanes() {
        let mut words = vec![7; 3];
        for n in [0usize, 1, 31, 32, 33, 511, 512] {
            all_lanes(n, &mut words);
            assert_eq!(words.len(), n.div_ceil(WARP_SIZE), "n = {n}");
            assert!(live_lanes(&words).eq(0..n), "n = {n}");
        }
        let picked: Vec<usize> = live_lanes(&[0, 0x8000_0001, 0, 0b110]).collect();
        assert_eq!(picked, [32, 63, 97, 98]);
    }

    /// One worker runs every block of these launches, so its mark map
    /// carries over from block to block and from a large buffer to a
    /// small one: every block's count must still match the sorted list.
    #[test]
    fn a_reused_worker_counts_every_block_like_the_oracle() {
        use tlc_rng::Rng;
        let _guard = crate::threads::TEST_OVERRIDE_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        crate::threads::set_sim_threads_override(Some(1));
        let dev = Device::v100();
        let big = dev.alloc_zeroed::<u32>(1 << 20);
        let small = dev.alloc_zeroed::<u32>(100);
        let mut sums = dev.alloc_zeroed::<u64>(4096);
        let mut cells = dev.alloc_zeroed::<u32>(4096);
        let blocks = 64;
        let plan: Vec<(Vec<usize>, Vec<usize>)> = {
            let mut rng = Rng::seed_from_u64(0x5E6_0002);
            (0..blocks)
                .map(|_| {
                    let lanes = rng.gen_range(0usize..=WARP_SIZE);
                    (
                        (0..lanes).map(|_| rng.gen_range(0usize..1 << 20)).collect(),
                        (0..lanes).map(|_| rng.gen_range(0usize..100)).collect(),
                    )
                })
                .collect()
        };
        let addrs = |buf: &GlobalBuffer<u32>, idx: &[usize]| -> Vec<u64> {
            idx.iter().map(|&i| buf.addr_of(i)).collect()
        };
        let want_reads: u64 = plan
            .iter()
            .map(|(b, s)| {
                gather_segments(&addrs(&big, b), 8).len()
                    + gather_segments(&addrs(&small, s), 4).len()
            })
            .sum::<usize>() as u64;
        let report = dev
            .try_launch_par(
                KernelConfig::new("k", blocks, 32),
                || (),
                |(), blk| {
                    let (b, s) = &plan[blk.block_id()];
                    blk.warp_gather_wide(&big, b, 8);
                    blk.warp_gather(&small, s);
                },
                |blk, block_id, ()| {
                    // The merge contexts share one map of their own.
                    let lane = block_id * 61 % 4096;
                    blk.warp_atomic_add_u64(&mut sums, &[(lane, 1), (lane, 1), (4095 - lane, 1)]);
                    blk.warp_scatter(&mut cells, &[(lane, 1), (0, 2)]);
                },
            )
            .expect("no faults armed");
        crate::threads::set_sim_threads_override(None);
        let atomics: u64 = (0..blocks)
            .map(|b| {
                let lane = b * 61 % 4096;
                let idx = [lane, lane, 4095 - lane];
                gather_segments(&idx.map(|i| sums.addr_of(i)), 8).len() as u64
            })
            .sum();
        let scatters: u64 = (0..blocks)
            .map(|b| {
                gather_segments(&[cells.addr_of(b * 61 % 4096), cells.addr_of(0)], 4).len() as u64
            })
            .sum();
        assert_eq!(report.traffic.global_read_segments, want_reads + atomics);
        assert_eq!(report.traffic.global_write_segments, atomics + scatters);
    }

    #[test]
    fn stage_to_shared_counts_both_sides() {
        let dev = Device::v100();
        let data: Vec<u32> = (0..256).collect();
        let buf = dev.alloc_from_slice(&data);
        let report = dev.launch(KernelConfig::new("k", 1, 128).smem_per_block(1024), |blk| {
            blk.stage_to_shared(&buf, 0, 256, 0);
            assert_eq!(blk.shared()[255], 255);
        });
        assert_eq!(report.traffic.global_read_segments, 8);
        assert_eq!(report.traffic.shared_bytes, 1024);
    }

    #[test]
    fn writes_land_in_buffer() {
        let dev = Device::v100();
        let mut out = dev.alloc_zeroed::<u32>(256);
        dev.launch(KernelConfig::new("k", 2, 128), |blk| {
            let vals: Vec<u32> = (0..128)
                .map(|i| (blk.block_id() * 1000 + i) as u32)
                .collect();
            blk.write_coalesced(&mut out, blk.block_id() * 128, &vals);
        });
        assert_eq!(out.as_slice_unaccounted()[0], 0);
        assert_eq!(out.as_slice_unaccounted()[128], 1000);
        assert_eq!(out.as_slice_unaccounted()[255], 1127);
    }

    #[test]
    fn atomic_add_accumulates() {
        let dev = Device::v100();
        let mut acc = dev.alloc_zeroed::<u64>(4);
        dev.launch(KernelConfig::new("k", 3, 32), |blk| {
            blk.warp_atomic_add_u64(&mut acc, &[(1, 10)]);
        });
        assert_eq!(acc.as_slice_unaccounted()[1], 30);
    }

    #[test]
    fn fuel_budget_is_per_block_and_exhausts() {
        let dev = Device::v100();
        let mut exhausted = 0usize;
        dev.launch(KernelConfig::new("k", 3, 64).fuel_per_block(10), |blk| {
            assert_eq!(blk.fuel_remaining(), Some(10));
            assert!(blk.consume_fuel(6));
            assert!(blk.consume_fuel(4));
            if !blk.consume_fuel(1) {
                exhausted += 1;
            }
            assert_eq!(blk.fuel_remaining(), Some(0));
        });
        assert_eq!(exhausted, 3);
    }

    #[test]
    fn no_fuel_budget_means_unlimited() {
        let dev = Device::v100();
        dev.launch(KernelConfig::new("k", 1, 64), |blk| {
            assert!(blk.consume_fuel(u64::MAX));
            assert!(blk.consume_fuel(u64::MAX));
            assert_eq!(blk.fuel_remaining(), None);
        });
    }

    #[test]
    fn shared_memory_is_zeroed_per_block() {
        let dev = Device::v100();
        dev.launch(KernelConfig::new("k", 3, 64).smem_per_block(256), |blk| {
            assert!(blk.shared().iter().all(|&w| w == 0));
            blk.shared_mut()[0] = 42;
        });
    }
}
