//! GPU-FOR: frame-of-reference + bit packing (paper Section 4).
//!
//! Data format (Figure 3): values are split into blocks of 128. Each
//! block stores, in 32-bit words:
//!
//! ```text
//! [ reference (i32) | bitwidth word (4 × u8) | mb1 | mb2 | mb3 | mb4 ]
//! ```
//!
//! where miniblock `i` holds 32 values packed LSB-first at its own
//! bitwidth, so a miniblock of width `b` occupies exactly `b` words and
//! every block starts and ends on a 32-bit boundary. A separate
//! `block_starts` array records the word offset of every block so that
//! thousands of thread blocks can decode in parallel.

use tlc_bitpack::pack::pack_miniblock;
use tlc_bitpack::simd::{vpack_block, vunpack_block_ref};
use tlc_bitpack::unpack::unpack_miniblock_ref;
use tlc_bitpack::width::bits_for;
use tlc_gpu_sim::{
    ballot, BlockCtx, Counter, Device, GlobalBuffer, KernelConfig, Phase, Traffic, WARP_SIZE,
};

use crate::block::{check_widths, group_words, unpack_group, widths, GroupKernel};
use crate::checksum::verify_staged;
use crate::error::DecodeError;
use crate::format::{
    blocks_for, tiles_for, ForDecodeOpts, Layout, BLOCK, BLOCK_HEADER_WORDS, MAX_D, MINIBLOCK,
    MINIBLOCKS_PER_BLOCK,
};
use crate::gpu_dfor::TileGeometry;
use crate::model::decode_config;

const SCHEME: &str = "GPU-FOR";

/// A column encoded with GPU-FOR (host-side representation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GpuFor {
    /// Number of logical values (before padding the final block).
    pub total_count: usize,
    /// Word offset of each block in `data`; `blocks + 1` entries.
    pub block_starts: Vec<u32>,
    /// Block payloads: reference, bitwidth word, packed miniblocks.
    pub data: Vec<u32>,
    /// Physical payload arrangement (see [`Layout`]).
    pub layout: Layout,
}

/// One block's encoding decision: the frame of reference and the four
/// per-miniblock bit widths. Computed by the planning pass, consumed by
/// the packing pass — splitting the two is what lets the encoder pick a
/// layout for the whole column before a single payload word is written.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockPlan {
    pub reference: i32,
    pub widths: [u32; MINIBLOCKS_PER_BLOCK],
}

impl BlockPlan {
    /// A vertical rendering costs extra space unless the four widths
    /// already agree (the shared width is their max).
    #[inline]
    pub fn uniform_width(&self) -> bool {
        let w = self.widths[0];
        self.widths.iter().all(|&x| x == w)
    }
}

/// Planning pass for one full block: min-reduce the reference, then
/// OR-reduce each miniblock's offsets (`bits_for(a|b|…) =
/// bits_for(max)`). Both loops are branch-free over fixed-size slices,
/// which is what lets LLVM vectorize them — the old encoder interleaved
/// this with packing and a per-value `debug_assert`, pinning it scalar.
#[inline]
pub(crate) fn plan_block(values: &[i32; BLOCK]) -> BlockPlan {
    let mut reference = values[0];
    for &v in values.iter() {
        reference = reference.min(v);
    }
    let mut widths = [0u32; MINIBLOCKS_PER_BLOCK];
    for (m, w) in widths.iter_mut().enumerate() {
        let mut or = 0u32;
        for &v in &values[m * MINIBLOCK..(m + 1) * MINIBLOCK] {
            // max(i32) − min(i32) ≤ u32::MAX, and for v ≥ reference the
            // wrapping difference is exactly the unsigned offset.
            or |= v.wrapping_sub(reference) as u32;
        }
        *w = bits_for(or);
    }
    BlockPlan { reference, widths }
}

/// Packing pass for one planned block: append header + payload in the
/// requested layout. Horizontal packs each miniblock at its own width
/// via the monomorphized [`pack_miniblock`]; vertical lane-transposes
/// all 128 offsets at the shared (max) width via [`vpack_block`], so
/// the bitwidth word repeats that width four times and every size,
/// offset and checksum derivation is layout-agnostic.
pub(crate) fn pack_block_with_plan(
    values: &[i32; BLOCK],
    plan: &BlockPlan,
    layout: Layout,
    data: &mut Vec<u32>,
) {
    let mut offs = [0u32; BLOCK];
    for (o, &v) in offs.iter_mut().zip(values) {
        *o = v.wrapping_sub(plan.reference) as u32;
    }
    data.push(plan.reference as u32);
    match layout {
        Layout::Horizontal => {
            let [w0, w1, w2, w3] = plan.widths;
            data.push(w0 | w1 << 8 | w2 << 16 | w3 << 24);
            for (m, &w) in plan.widths.iter().enumerate() {
                let start = data.len();
                data.resize(start + w as usize, 0);
                let mb: &[u32; MINIBLOCK] = offs[m * MINIBLOCK..(m + 1) * MINIBLOCK]
                    .try_into()
                    .expect("exact miniblock");
                pack_miniblock(mb, w, &mut data[start..]);
            }
        }
        Layout::Vertical => {
            let w = plan.widths.iter().copied().max().unwrap_or(0);
            data.push(w.wrapping_mul(0x0101_0101));
            let start = data.len();
            data.resize(start + MINIBLOCKS_PER_BLOCK * w as usize, 0);
            vpack_block(&offs, w, &mut data[start..]);
        }
    }
}

/// Plan a (possibly short) block chunk, applying the encoder's padding
/// rule (pad with the chunk min → zero-cost offsets).
pub(crate) fn chunk_plan(chunk: &[i32]) -> BlockPlan {
    if chunk.len() == BLOCK {
        return plan_block(chunk.try_into().expect("exact block"));
    }
    let pad = *chunk.iter().min().expect("chunk is non-empty");
    let mut padded = [pad; BLOCK];
    padded[..chunk.len()].copy_from_slice(chunk);
    plan_block(&padded)
}

/// The auto-layout rule shared by every scheme: vertical iff the
/// column is non-empty and every planned block is width-uniform, so
/// the lane transpose costs zero extra space.
pub(crate) fn auto_layout(plans: impl IntoIterator<Item = BlockPlan>) -> Layout {
    let mut any = false;
    for plan in plans {
        any = true;
        if !plan.uniform_width() {
            return Layout::Horizontal;
        }
    }
    if any {
        Layout::Vertical
    } else {
        Layout::Horizontal
    }
}

impl GpuFor {
    /// Encode a column. The final partial block is padded with the
    /// block minimum (zero-cost deltas); [`GpuFor::total_count`]
    /// remembers the logical length.
    ///
    /// ```
    /// // 16-bit values cost 16 bits + 0.75 bits/int of metadata.
    /// let values: Vec<i32> = (0..100_000).map(|i| (i * 31) % (1 << 16)).collect();
    /// let encoded = tlc_core::GpuFor::encode(&values);
    /// assert!(encoded.bits_per_int() < 16.8);
    /// assert_eq!(encoded.decode_cpu(), values);
    /// ```
    pub fn encode(values: &[i32]) -> Self {
        Self::encode_with_layout(values, Layout::Horizontal)
    }

    /// Encode with an explicit payload [`Layout`].
    ///
    /// `Horizontal` is bit-identical to [`GpuFor::encode`]. `Vertical`
    /// lane-transposes every block at its max miniblock width — on
    /// width-heterogeneous blocks that costs space, which is why the
    /// auto chooser ([`GpuFor::encode_auto`]) only picks it when it is
    /// free.
    pub fn encode_with_layout(values: &[i32], layout: Layout) -> Self {
        let plans: Vec<BlockPlan> = values.chunks(BLOCK).map(chunk_plan).collect();
        Self::encode_planned(values, &plans, layout)
    }

    /// Encode, choosing the layout per column: vertical when every
    /// block's four miniblock widths agree (then the lane transpose is
    /// byte-for-byte the same size and the SIMD decode path applies),
    /// horizontal otherwise. This is what `EncodedColumn::encode_as`
    /// uses — the plan-time dispatch of the vectorized decode path.
    pub fn encode_auto(values: &[i32]) -> Self {
        let plans: Vec<BlockPlan> = values.chunks(BLOCK).map(chunk_plan).collect();
        let layout = auto_layout(plans.iter().copied());
        Self::encode_planned(values, &plans, layout)
    }

    /// Packing pass over pre-planned blocks, one plan per block in
    /// stream order.
    pub(crate) fn encode_planned(values: &[i32], plans: &[BlockPlan], layout: Layout) -> Self {
        let blocks = blocks_for(values.len());
        let mut data = Vec::with_capacity(blocks * (BLOCK_HEADER_WORDS + BLOCK / 4));
        let mut block_starts = Vec::with_capacity(blocks + 1);
        let mut padded = [0i32; BLOCK];
        for (chunk, plan) in values.chunks(BLOCK).zip(plans) {
            block_starts.push(data.len() as u32);
            let full: &[i32; BLOCK] = if chunk.len() == BLOCK {
                chunk.try_into().expect("exact block")
            } else {
                padded[..chunk.len()].copy_from_slice(chunk);
                padded[chunk.len()..].fill(plan.reference);
                &padded
            };
            pack_block_with_plan(full, plan, layout, &mut data);
        }
        block_starts.push(data.len() as u32);
        GpuFor {
            total_count: values.len(),
            block_starts,
            data,
            layout,
        }
    }

    /// Number of 128-value blocks.
    pub fn blocks(&self) -> usize {
        self.block_starts.len().saturating_sub(1)
    }

    /// Total compressed footprint in bytes: data + block starts +
    /// 3-word header {total count, block size, miniblock count}.
    pub fn compressed_bytes(&self) -> u64 {
        (self.data.len() + self.block_starts.len() + 3) as u64 * 4
    }

    /// Compression rate in bits per integer.
    pub fn bits_per_int(&self) -> f64 {
        self.compressed_bytes() as f64 * 8.0 / self.total_count.max(1) as f64
    }

    /// Sequential reference decoder (used to verify the kernels).
    ///
    /// Allocates a fresh output vector; loops that decode repeatedly
    /// should prefer [`GpuFor::decode_cpu_into`] with a reused buffer.
    pub fn decode_cpu(&self) -> Vec<i32> {
        let mut out = Vec::new();
        self.decode_cpu_into(&mut out);
        out
    }

    /// Decode into a caller-provided buffer, replacing its contents.
    ///
    /// Every miniblock in the format is full (the encoder pads the
    /// final block), so the whole decode runs on the monomorphized
    /// per-width fast path — no per-miniblock allocation, no per-value
    /// offset arithmetic. The buffer is resized without clearing
    /// first: every slot is overwritten by the unpack kernels, so a
    /// reused buffer of the right length skips the zeroing pass that a
    /// fresh `vec![0; n]` pays — at these throughputs that pass is a
    /// measurable fraction of the whole decode. Each block decodes
    /// through the kernel the layout rule picks ([`unpack_group`]).
    pub fn decode_cpu_into(&self, out: &mut Vec<i32>) {
        out.resize(self.blocks() * BLOCK, 0);
        for (b, block_out) in out.chunks_exact_mut(BLOCK).enumerate() {
            let block = &self.data[self.block_starts[b] as usize..];
            let block_out = block_out.try_into().expect("exact block");
            unpack_group(
                &block[BLOCK_HEADER_WORDS..],
                block[1],
                self.layout,
                block[0] as i32,
                block_out,
            );
        }
        out.truncate(self.total_count);
    }

    /// Upload to the simulated device (payload plus derived per-block
    /// checksums, so decode can verify staged tiles).
    pub fn to_device(&self, dev: &Device) -> GpuForDevice {
        GpuForDevice {
            total_count: self.total_count,
            block_starts: dev.alloc_from_slice(&self.block_starts),
            data: dev.alloc_from_slice(&self.data),
            checksums: dev.alloc_from_slice(&self.block_checksums()),
            layout: self.layout,
        }
    }
}

/// Device-resident GPU-FOR column.
#[derive(Debug)]
pub struct GpuForDevice {
    /// Logical value count.
    pub total_count: usize,
    /// Per-block word offsets (`blocks + 1` entries).
    pub block_starts: GlobalBuffer<u32>,
    /// Packed block payloads.
    pub data: GlobalBuffer<u32>,
    /// Per-block FNV-1a checksums (`blocks` entries).
    pub checksums: GlobalBuffer<u32>,
    /// Physical payload arrangement (see [`Layout`]).
    pub layout: Layout,
}

impl GpuForDevice {
    /// Number of 128-value blocks.
    pub fn blocks(&self) -> usize {
        self.block_starts.len().saturating_sub(1)
    }

    /// Number of `d`-block tiles.
    pub fn tiles(&self, d: usize) -> usize {
        tiles_for(self.total_count, d)
    }

    /// Bytes a PCIe transfer of this column would move.
    pub fn size_bytes(&self) -> u64 {
        self.block_starts.size_bytes() + self.data.size_bytes() + self.checksums.size_bytes() + 12
    }

    /// What [`stage_tile`] stages this column's tiles from.
    fn source(&self) -> TileSource<'_> {
        TileSource {
            scheme: SCHEME,
            total_count: self.total_count,
            block_starts: &self.block_starts,
            data: &self.data,
            checksums: &self.checksums,
            dfor: None,
        }
    }
}

/// Decode the miniblock offset/bitwidth table of one staged block.
///
/// Returns `(offset_words, width)` per miniblock, where offsets are
/// relative to the start of the block's miniblock area.
#[inline]
fn miniblock_table(bw_word: u32) -> [(u32, u32); MINIBLOCKS_PER_BLOCK] {
    let mut offset = 0u32;
    widths(bw_word).map(|w| {
        offset += w;
        (offset - w, w)
    })
}

/// The device buffers a tile is staged from: a GPU-FOR column's, whose
/// blocks cover their own words, or a GPU-DFOR column's, whose
/// [`TileGeometry`] puts a first-value word before each tile.
pub(crate) struct TileSource<'a> {
    /// Scheme name for errors.
    pub scheme: &'static str,
    /// Logical value count.
    pub total_count: usize,
    /// Per-block word offsets (`blocks + 1` entries).
    pub block_starts: &'a GlobalBuffer<u32>,
    /// Block payloads.
    pub data: &'a GlobalBuffer<u32>,
    /// Per-block checksums, each over the block's cover.
    pub checksums: &'a GlobalBuffer<u32>,
    /// GPU-DFOR's tile geometry; `None` for GPU-FOR.
    pub dfor: Option<TileGeometry>,
}

/// A tile staged into shared memory with all structural checks passed:
/// block starts gathered, payload staged, checksums verified, declared
/// miniblock widths validated against each block's extent.
pub(crate) struct StagedTile {
    /// Word offsets of the tile's blocks; `tile_blocks + 1` entries are
    /// meaningful.
    starts: [u32; MAX_D + 1],
    /// Word offset of the tile's first staged word in the column payload
    /// (a GPU-DFOR tile's first-value word).
    tile_start: usize,
    /// Word offset one past the tile's last staged word.
    tile_end: usize,
    /// Blocks in this tile (the final tile may be short).
    pub tile_blocks: usize,
    /// Logical values this tile decodes to (strips final-block padding).
    pub decoded: usize,
}

impl StagedTile {
    /// Offset of each block's header within the staged words.
    pub fn block_offsets(&self) -> impl Iterator<Item = usize> + '_ {
        self.starts[..self.tile_blocks]
            .iter()
            .map(|&start| start as usize - self.tile_start)
    }

    /// The staged words `(offset, len)` block `i` covers: from its
    /// header, or the tile's first staged word for the first block, to
    /// the next block's header, or the tile's end for the last block.
    fn cover(&self, i: usize) -> (usize, usize) {
        let lo = if i == 0 {
            self.tile_start
        } else {
            self.starts[i] as usize
        };
        let hi = if i + 1 == self.tile_blocks {
            self.tile_end
        } else {
            self.starts[i + 1] as usize
        };
        (lo - self.tile_start, hi - lo)
    }
}

/// Steps (1)–(2) of the tile decode shared by GPU-FOR's [`load_tile`]
/// and [`load_tile_select`] and GPU-DFOR's `load_tile`: gather block
/// starts, run the structural guards, stage the compressed tile into
/// shared memory, and verify checksums and declared widths. A GPU-DFOR
/// tile runs from its first block's cover to its last block's, so it
/// stages the tile's first-value word at shared offset 0, and its fuel
/// covers the tile-wide scan too. Runs in full for every tile of every
/// launch; the gathered starts and checksums live on the stack.
pub(crate) fn stage_tile(
    ctx: &mut BlockCtx<'_>,
    src: &TileSource<'_>,
    tile_id: usize,
    d: usize,
) -> Result<StagedTile, DecodeError> {
    let blocks = src.block_starts.len().saturating_sub(1);
    let first_block = tile_id * d;
    let tile_blocks = d.min(blocks - first_block);
    let structure = |block: usize, reason: &'static str| DecodeError::Structure {
        scheme: src.scheme,
        block,
        reason,
    };
    if d > MAX_D {
        return Err(structure(first_block, "tile depth exceeds the format cap"));
    }

    // (1) Block starts: D+1 consecutive u32 reads from one warp.
    ctx.set_phase(Phase::GlobalLoad);
    let mut starts_buf = [0u32; MAX_D + 1];
    let starts = &mut starts_buf[..=tile_blocks];
    ctx.warp_gather_into(
        src.block_starts,
        first_block..=first_block + tile_blocks,
        starts,
    );

    // Structural guards before staging: nothing below may index past
    // `data` or overflow the shared-memory tile.
    let cover = |i: usize| match src.dfor {
        None => Ok((starts[i] as usize, starts[i + 1] as usize)),
        Some(g) => g.cover(first_block + i, starts[i], starts[i + 1]),
    };
    let missing = |head: usize| {
        let reason = if head == first_block {
            "missing first-value word"
        } else {
            "missing next first-value word"
        };
        structure(first_block, reason)
    };
    let (tile_start, _) = cover(0).map_err(missing)?;
    let (_, tile_end) = cover(tile_blocks - 1).map_err(missing)?;
    let last_start = starts[tile_blocks - 1] as usize;
    if tile_end < tile_start.max(last_start) || tile_end > src.data.len() {
        return Err(structure(first_block, "tile bounds out of range"));
    }
    // Fuel: staging + decode work is linear in the tile's words and
    // values (twice the values with GPU-DFOR's scan); a stream that
    // demands more than the per-block budget is hostile by construction
    // (see `crate::validate`).
    let passes = 1 + u64::from(src.dfor.is_some());
    let work = (tile_end - tile_start) as u64 + passes * (tile_blocks * BLOCK) as u64;
    if !ctx.consume_fuel(work) {
        return Err(DecodeError::Hostile {
            scheme: src.scheme,
            block: first_block,
            reason: "decode fuel exhausted",
        });
    }
    if tile_end - tile_start > ctx.shared().len() {
        return Err(structure(first_block, "tile larger than shared memory"));
    }
    for (i, w) in starts.windows(2).enumerate() {
        if w[1] < w[0] {
            return Err(structure(first_block + i, "block starts not monotone"));
        }
    }

    // (2) Stage the compressed tile into shared memory. This is the
    // one and only fetch of the tile's compressed payload from global
    // memory — the counter makes that a checkable invariant.
    ctx.set_phase(Phase::SharedStage);
    ctx.bump(Counter::EncodedTileReads, 1);
    ctx.stage_to_shared(src.data, tile_start, tile_end - tile_start, 0);
    let logical = src.total_count - (first_block * BLOCK).min(src.total_count);
    let tile = StagedTile {
        starts: starts_buf,
        tile_start,
        tile_end,
        tile_blocks,
        decoded: (tile_blocks * BLOCK).min(logical),
    };

    // Verify every staged block against its stored checksum before any
    // header word is trusted (one warp gather for the expected sums).
    let mut expected = [0u32; MAX_D];
    let expected = &mut expected[..tile_blocks];
    ctx.warp_gather_into(
        src.checksums,
        first_block..first_block + tile_blocks,
        expected,
    );
    if let Err(i) = verify_staged(ctx, expected, |i| tile.cover(i)) {
        return Err(DecodeError::Corrupt {
            scheme: src.scheme,
            block: first_block + i,
        });
    }
    // Checksums passed, so the header words are exactly what the
    // encoder wrote; confirm the declared widths are representable and
    // fill the block.
    for (i, block_off) in tile.block_offsets().enumerate() {
        let (lo, len) = tile.cover(i);
        check_widths(&ctx.shared()[block_off..lo + len])
            .map_err(|e| e.decode_error(src.scheme, first_block + i))?;
    }
    Ok(tile)
}

/// Size `out` for `blocks` blocks about to be unpacked into it. Every
/// slot is overwritten by the unpack kernels, so a reused buffer of the
/// right length skips the zeroing pass (as in `decode_cpu_into`).
pub(crate) fn tile_out(out: &mut Vec<i32>, blocks: usize) -> std::slice::ChunksExactMut<'_, i32> {
    out.resize(blocks * BLOCK, 0);
    out.chunks_exact_mut(BLOCK)
}

/// **Device function**: tile-based decode of tile `tile_id` (up to
/// `opts.d` blocks of 128 values) into `out`. This is the body behind
/// Crystal's `LoadBitPack` (paper Sections 3–4, 7):
///
/// 1. read the `D + 1` block starts (one warp gather),
/// 2. stage the tile's compressed words into shared memory,
/// 3. precompute the `4·D` miniblock offsets (Optimization 3),
/// 4. every thread unpacks its `D` values via the monomorphized
///    per-width unpackers (paper Section 4.4) and adds the reference —
///    results live in registers (`out`).
///
/// Returns the number of *logical* values decoded (the final tile may
/// be short), or a [`DecodeError`] when the staged tile fails its
/// checksum or its metadata would send the decoder out of bounds (`out`
/// is then unspecified).
pub fn load_tile(
    ctx: &mut BlockCtx<'_>,
    col: &GpuForDevice,
    tile_id: usize,
    opts: ForDecodeOpts,
    out: &mut Vec<i32>,
) -> Result<usize, DecodeError> {
    let tile = stage_tile(ctx, &col.source(), tile_id, opts.d)?;

    // (3) + (4): decode from shared memory.
    ctx.set_phase(Phase::Unpack);
    for (block_off, block_out) in tile.block_offsets().zip(tile_out(out, tile.tile_blocks)) {
        let block_out = block_out.try_into().expect("exact block");
        decode_block_from_shared(
            ctx,
            block_off,
            opts.precompute_offsets,
            col.layout,
            block_out,
        );
    }
    out.truncate(tile.decoded);
    ctx.bump(Counter::TilesDecoded, 1);
    ctx.bump(Counter::ValuesProduced, tile.decoded as u64);
    Ok(tile.decoded)
}

// A selection is one ballot word per warp of 32 lanes, and a miniblock
// is one warp's worth of values: miniblock `m` of the tile is word `m`.
const _: () = assert!(MINIBLOCK == WARP_SIZE);

/// The incoming ballot word of the tile's warp `warp`. `None` means
/// every lane is live; words past the end of `sel_in` are dead.
#[inline]
pub(crate) fn word_at(sel_in: Option<&[u32]>, warp: usize) -> u32 {
    sel_in.map_or(u32::MAX, |s| s.get(warp).copied().unwrap_or(0))
}

/// The fused ballot word `lanes ∧ pred(vals)` of one warp's values (at
/// most 32; bits past `vals` come out zero).
#[inline]
pub(crate) fn select_word(vals: &[i32], pred: &impl Fn(i32) -> bool, lanes: u32) -> u32 {
    debug_assert!(vals.len() <= WARP_SIZE);
    ballot(vals.iter().map(|&v| pred(v))) & lanes
}

/// Cut a tile's selection to its logical length: whole words past
/// `decoded` go, and the bits past it in the last word are cleared.
pub(crate) fn trim_selection(sel: &mut Vec<u32>, decoded: usize) {
    sel.truncate(decoded.div_ceil(WARP_SIZE));
    let tail = decoded % WARP_SIZE;
    if tail != 0 {
        if let Some(last) = sel.last_mut() {
            *last &= (1u32 << tail) - 1;
        }
    }
}

/// **Device function**: fused decode→predicate over tile `tile_id`
/// (the `LoadBitPackSelect` shape from the data-path-fusion line of
/// work): unpack each miniblock into registers, evaluate `pred`
/// immediately, and emit only the selection bitmap plus the in-register
/// values — the decompressed tile is never written back to memory.
///
/// A selection is a slice of *ballot words*: one `u32` per warp of 32
/// lanes, bit `l` of word `w` standing for value `32·w + l` of the
/// tile (see [`tlc_gpu_sim::live_lanes`]). `sel_in` is an optional
/// incoming selection (from an earlier fused predicate); a miniblock
/// whose word is zero in `sel_in` is skipped without unpacking (its
/// output lanes are zero fillers — callers must only consume selected
/// lanes). Words missing from a short `sel_in` count as dead. Liveness
/// is decided once per miniblock (`word != 0`; for a lane-transposed
/// block, the OR of its four words), not per value.
///
/// `out` receives the tile's values (selected lanes exact, dead lanes
/// unspecified filler), truncated to the tile's logical length, which
/// is also returned; `sel` receives the fused selection, one word per
/// started warp of that length with the bits past it zero.
#[allow(clippy::too_many_arguments)]
pub fn load_tile_select(
    ctx: &mut BlockCtx<'_>,
    col: &GpuForDevice,
    tile_id: usize,
    opts: ForDecodeOpts,
    pred: impl Fn(i32) -> bool,
    sel_in: Option<&[u32]>,
    sel: &mut Vec<u32>,
    out: &mut Vec<i32>,
) -> Result<usize, DecodeError> {
    sel.clear();
    let tile = stage_tile(ctx, &col.source(), tile_id, opts.d)?;
    sel.reserve(tile.tile_blocks * MINIBLOCKS_PER_BLOCK);
    for (b, (block_off, block_out)) in tile
        .block_offsets()
        .zip(tile_out(out, tile.tile_blocks))
        .enumerate()
    {
        let block_out: &mut [i32; BLOCK] = block_out.try_into().expect("exact block");
        let (reference, bw_word) = {
            let shared = ctx.shared();
            (shared[block_off] as i32, shared[block_off + 1])
        };
        let lanes: [u32; MINIBLOCKS_PER_BLOCK] =
            std::array::from_fn(|m| word_at(sel_in, b * MINIBLOCKS_PER_BLOCK + m));
        if let GroupKernel::Vertical(w0) = GroupKernel::of(col.layout, bw_word) {
            // Lane-transposed block: lanes interleave every four
            // logical slots, so the skip granularity is the whole
            // block — dead only if all 128 incoming lanes are dead.
            if lanes.iter().all(|&word| word == 0) {
                ctx.bump(Counter::MiniblocksSkipped, MINIBLOCKS_PER_BLOCK as u64);
                ctx.add_int_ops(4 * MINIBLOCKS_PER_BLOCK as u64);
                block_out.fill(0);
                sel.extend([0; MINIBLOCKS_PER_BLOCK]);
                continue;
            }
            ctx.set_phase(Phase::Unpack);
            ctx.bump(Counter::MiniblocksUnpacked, MINIBLOCKS_PER_BLOCK as u64);
            {
                let (shared, traffic) = ctx.shared_and_traffic();
                let payload = &shared[block_off + BLOCK_HEADER_WORDS..];
                vunpack_block_ref(
                    &payload[..MINIBLOCKS_PER_BLOCK * w0 as usize],
                    w0,
                    reference,
                    block_out,
                );
                traffic.shared_bytes += MINIBLOCKS_PER_BLOCK as u64 * (w0 as u64 * 4 + 8);
                traffic.int_ops += BLOCK as u64 * 4;
            }
            ctx.set_phase(Phase::Predicate);
            ctx.add_int_ops(BLOCK as u64 * 2);
            sel.extend(
                block_out
                    .chunks_exact(MINIBLOCK)
                    .zip(lanes)
                    .map(|(mb, word)| select_word(mb, &pred, word)),
            );
            continue;
        }
        let table = miniblock_table(bw_word);
        for ((&(offset, w), mb_out), word) in table
            .iter()
            .zip(block_out.chunks_exact_mut(MINIBLOCK))
            .zip(lanes)
        {
            let mb_out: &mut [i32; MINIBLOCK] = mb_out.try_into().expect("exact miniblock");
            if word == 0 {
                // Every lane is already dead: skip the unpack entirely.
                // The two header reads and the all-dead test are the
                // only cost; no shared-memory payload traffic.
                ctx.bump(Counter::MiniblocksSkipped, 1);
                ctx.add_int_ops(4);
                mb_out.fill(0);
                sel.push(0);
                continue;
            }
            ctx.set_phase(Phase::Unpack);
            ctx.bump(Counter::MiniblocksUnpacked, 1);
            {
                let (shared, traffic) = ctx.shared_and_traffic();
                let payload = &shared[block_off + BLOCK_HEADER_WORDS..];
                unpack_miniblock_ref(&payload[offset as usize..], w, reference, mb_out);
                // Monomorphized unpack reads each staged payload word
                // once plus the 8-byte block header share.
                traffic.shared_bytes += w as u64 * 4 + 8;
                traffic.int_ops += MINIBLOCK as u64 * 4;
            }
            ctx.set_phase(Phase::Predicate);
            ctx.add_int_ops(MINIBLOCK as u64 * 2);
            sel.push(select_word(mb_out, &pred, word));
        }
    }
    out.truncate(tile.decoded);
    trim_selection(sel, tile.decoded);
    ctx.bump(Counter::TilesDecoded, 1);
    ctx.bump(Counter::ValuesProduced, tile.decoded as u64);
    Ok(tile.decoded)
}

/// Decode one staged block (128 values) from shared memory into `out`
/// through the kernel the layout rule picks ([`unpack_group`]), so the
/// fuzz oracle sees identical output from this and `decode_cpu_into`.
/// Charged as [`charge_block_unpack`].
pub(crate) fn decode_block_from_shared(
    ctx: &mut BlockCtx<'_>,
    block_off: usize,
    precompute: bool,
    layout: Layout,
    out: &mut [i32; BLOCK],
) {
    ctx.bump(Counter::MiniblocksUnpacked, MINIBLOCKS_PER_BLOCK as u64);
    let (shared, traffic) = ctx.shared_and_traffic();
    let block = &shared[block_off..];
    charge_block_unpack(traffic, block[1], precompute);
    unpack_group(
        &block[BLOCK_HEADER_WORDS..],
        block[1],
        layout,
        block[0] as i32,
        out,
    );
}

/// Charge one staged block's unpack with the declared widths of
/// `bw_word`, whatever its layout.
pub(crate) fn charge_block_unpack(traffic: &mut Traffic, bw_word: u32, precompute: bool) {
    // Shared traffic: the monomorphized unpacker streams each staged
    // payload word exactly once, plus the 8-byte block header.
    traffic.shared_bytes += (group_words(bw_word) + BLOCK_HEADER_WORDS) as u64 * 4;
    if precompute {
        // Optimization 3: 4·D threads compute the offsets once
        // (bit-shift prefix sums), everyone else just reads them.
        traffic.int_ops += MINIBLOCKS_PER_BLOCK as u64 * 8;
        traffic.shared_bytes += MINIBLOCKS_PER_BLOCK as u64 * 8;
    } else {
        // All 128 threads redundantly run the offset loop
        // (lines 8–10 of Algorithm 1): ~3 ops per loop iteration,
        // averaging 1.5 iterations.
        traffic.int_ops += BLOCK as u64 * 5;
    }
    // Monomorphized per-width unpack (paper Section 4.4): the word
    // index / shift / mask constants fold away, leaving ~4 shift/or/
    // and/add ops per value instead of Algorithm 1's ~8.
    traffic.int_ops += BLOCK as u64 * 4;
}

/// Standalone decompression kernel: decode the whole column and write
/// the plain values to a fresh device buffer (the Figure 7a
/// measurement: read compressed, decode, write back).
pub fn decompress(
    dev: &Device,
    col: &GpuForDevice,
    opts: ForDecodeOpts,
) -> Result<GlobalBuffer<i32>, DecodeError> {
    let mut out = dev.alloc_zeroed::<i32>(col.total_count);
    run_for_decode(dev, col, opts, Some(&mut out), "gpu_for_decompress")?;
    Ok(out)
}

/// Decode-only kernel: decode into registers and discard (the Section
/// 4.2 measurement, where decode speed is compared against the time to
/// *read* the uncompressed data).
pub fn decode_only(
    dev: &Device,
    col: &GpuForDevice,
    opts: ForDecodeOpts,
) -> Result<(), DecodeError> {
    run_for_decode(dev, col, opts, None, "gpu_for_decode")
}

fn run_for_decode(
    dev: &Device,
    col: &GpuForDevice,
    opts: ForDecodeOpts,
    out: Option<&mut GlobalBuffer<i32>>,
    name: &str,
) -> Result<(), DecodeError> {
    let cfg = decode_config(name, col.tiles(opts.d), opts.d, 0);
    run_decode(dev, cfg, opts.d * BLOCK, out, |ctx, tile_id, vals| {
        load_tile(ctx, col, tile_id, opts, vals)
    })
}

/// The standalone decode kernel of all three schemes: one thread block
/// per tile of `tile_values` values, `load_tile` as its body.
///
/// Every tile decodes on a worker (as every thread block would run on a
/// real GPU) into the worker's own tile buffer; the serial merge writes
/// results in tile order and keeps the first error in block order,
/// which on a clean stream is byte-identical to a serial loop. Only a
/// writeback carries values out of the body: a decode-only tile dies in
/// the worker's buffer, as it would in registers.
pub(crate) fn run_decode(
    dev: &Device,
    cfg: KernelConfig,
    tile_values: usize,
    mut out: Option<&mut GlobalBuffer<i32>>,
    load_tile: impl Fn(&mut BlockCtx<'_>, usize, &mut Vec<i32>) -> Result<usize, DecodeError> + Sync,
) -> Result<(), DecodeError> {
    let writeback = out.is_some();
    let mut failed: Option<DecodeError> = None;
    dev.try_launch_par(
        cfg,
        || Vec::with_capacity(tile_values),
        |tile_vals: &mut Vec<i32>, ctx| {
            load_tile(ctx, ctx.block_id(), tile_vals)?;
            Ok(writeback.then(|| std::mem::take(tile_vals)))
        },
        |ctx, tile_id, result| match result {
            Ok(tile_vals) => {
                if let (None, Some(out), Some(vals)) = (&failed, out.as_deref_mut(), tile_vals) {
                    ctx.set_phase(Phase::Writeback);
                    ctx.write_coalesced(out, tile_id * tile_values, &vals);
                }
            }
            Err(e) => {
                failed.get_or_insert(e);
            }
        },
    )
    .map_err(DecodeError::Launch)?;
    failed.map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[i32]) {
        let enc = GpuFor::encode(values);
        assert_eq!(enc.decode_cpu(), values, "CPU roundtrip");
        let dev = Device::v100();
        let dcol = enc.to_device(&dev);
        let out = decompress(&dev, &dcol, ForDecodeOpts::default()).expect("decode");
        assert_eq!(out.as_slice_unaccounted(), values, "device roundtrip");
    }

    #[test]
    fn paper_figure4_example() {
        // 16 values from Figure 4 padded to one block; reference 99,
        // miniblock widths 2 and 4 when grouped by 8 — our miniblocks
        // are 32 wide, so check the roundtrip and the reference.
        let mut values = vec![
            100, 101, 101, 102, 101, 101, 102, 101, 99, 100, 105, 107, 114, 112, 110, 105,
        ];
        values.resize(16, 99);
        let enc = GpuFor::encode(&values);
        assert_eq!(enc.data[enc.block_starts[0] as usize] as i32, 99);
        assert_eq!(enc.decode_cpu()[..16], values[..]);
    }

    #[test]
    fn roundtrip_exact_blocks() {
        let values: Vec<i32> = (0..512).map(|i| (i * 13) % 1000).collect();
        roundtrip(&values);
    }

    #[test]
    fn roundtrip_partial_final_block() {
        let values: Vec<i32> = (0..300).map(|i| 1_000_000 + (i % 37)).collect();
        roundtrip(&values);
    }

    #[test]
    fn roundtrip_negative_values() {
        let values: Vec<i32> = (0..256).map(|i| -500 + i * 3).collect();
        roundtrip(&values);
    }

    #[test]
    fn roundtrip_extremes() {
        let mut values = vec![i32::MIN, i32::MAX, 0, -1, 1];
        values.resize(128, 0);
        roundtrip(&values);
    }

    #[test]
    fn roundtrip_single_value() {
        roundtrip(&[42]);
    }

    #[test]
    fn roundtrip_empty() {
        let enc = GpuFor::encode(&[]);
        assert_eq!(enc.blocks(), 0);
        assert!(enc.decode_cpu().is_empty());
    }

    #[test]
    fn constant_column_uses_zero_width() {
        let values = vec![7i32; 1024];
        let enc = GpuFor::encode(&values);
        // 2 header words per block, zero-width miniblocks.
        assert_eq!(enc.data.len(), enc.blocks() * BLOCK_HEADER_WORDS);
        assert_eq!(enc.decode_cpu(), values);
    }

    #[test]
    fn overhead_matches_paper() {
        // Paper Section 9.2: GPU-FOR overhead is 0.75 bits/int
        // (block start + reference + bitwidth word per 128 values).
        let n = 128 * 1024u64;
        let values: Vec<i32> = (0..n)
            .map(|i| ((i * 2_654_435_761) % (1 << 16)) as i32)
            .collect();
        let enc = GpuFor::encode(&values);
        let overhead = enc.bits_per_int() - 16.0;
        // Min-referencing can shave a fraction of a bit off some
        // miniblocks, so allow a little slack below 0.75.
        assert!(
            overhead > 0.4 && overhead < 0.80,
            "overhead = {overhead} bits/int"
        );
    }

    #[test]
    fn skew_isolated_to_one_miniblock() {
        // One huge value inflates only its own 32-value miniblock.
        let mut values = vec![0i32; 128];
        values[0] = i32::MAX;
        let enc = GpuFor::encode(&values);
        // 2 header + 31 words (the i32::MAX offset needs 31 bits) for
        // the skewed miniblock + 3 zero-width miniblocks.
        assert_eq!(enc.data.len(), 2 + 31);
        assert_eq!(enc.decode_cpu(), values);
    }

    #[test]
    fn d_variants_agree() {
        let values: Vec<i32> = (0..2000).map(|i| (i * i) % 4096).collect();
        let enc = GpuFor::encode(&values);
        let dev = Device::v100();
        let dcol = enc.to_device(&dev);
        for d in [1, 2, 4, 8, 16, 32] {
            let out = decompress(&dev, &dcol, ForDecodeOpts::with_d(d)).expect("decode");
            assert_eq!(out.as_slice_unaccounted(), values, "D = {d}");
        }
    }

    #[test]
    fn higher_d_reads_fewer_segments() {
        let values: Vec<i32> = (0..1 << 16).map(|i| i % (1 << 12)).collect();
        let enc = GpuFor::encode(&values);
        let dev = Device::v100();
        let dcol = enc.to_device(&dev);
        let segs = |d: usize| {
            dev.reset_timeline();
            decode_only(&dev, &dcol, ForDecodeOpts::with_d(d)).expect("decode");
            dev.with_timeline(|t| t.total_traffic().global_read_segments)
        };
        let s1 = segs(1);
        let s4 = segs(4);
        let s16 = segs(16);
        assert!(s1 > s4 && s4 > s16, "s1={s1} s4={s4} s16={s16}");
    }

    #[test]
    fn decode_without_precompute_costs_more_ops() {
        let values: Vec<i32> = (0..4096).collect();
        let enc = GpuFor::encode(&values);
        let dev = Device::v100();
        let dcol = enc.to_device(&dev);
        let ops = |pre: bool| {
            dev.reset_timeline();
            decode_only(
                &dev,
                &dcol,
                ForDecodeOpts {
                    d: 4,
                    precompute_offsets: pre,
                },
            )
            .expect("decode");
            dev.with_timeline(|t| t.total_traffic().int_ops)
        };
        assert!(ops(false) > ops(true));
    }
}
