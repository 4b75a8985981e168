//! GPU-DFOR: delta coding + FOR + bit packing (paper Section 5).
//!
//! Delta-encoding a whole array serializes decoding, so the format
//! partitions the array into *tiles* of `D` blocks (`D · 128` values)
//! and delta-encodes each tile independently (Figure 6): one
//! `first value` word is stored before each tile's blocks, the tile's
//! entries are `[0, v₁−v₀, v₂−v₁, …]` padded with zeros to fill whole
//! blocks, and each 128-entry block of deltas is encoded exactly like a
//! GPU-FOR block. Decoding fuses bit unpacking with a block-wide
//! inclusive prefix sum in shared memory — a single kernel, a single
//! pass over global memory.
//!
//! Deltas use wrapping 32-bit arithmetic so arbitrary `i32` input
//! (including descending sequences) round-trips exactly.

use tlc_bitpack::simd::vunpack_block_scan;
use tlc_bitpack::unpack::{unpack_block_scan, unpack_miniblock_scan};
use tlc_gpu_sim::scan::block_inclusive_scan_i32_from;
use tlc_gpu_sim::{BlockCtx, Counter, Device, GlobalBuffer, Phase};

use crate::checksum::verify_staged;
use crate::error::DecodeError;
use crate::format::{blocks_for, Layout, BLOCK, BLOCK_HEADER_WORDS, DEFAULT_D, MAX_D, MINIBLOCK};
use crate::gpu_for::{self, decode_block_from_shared, run_decode, tile_out, BlockPlan};
use crate::model::decode_config;

const SCHEME: &str = "GPU-DFOR";

/// A column encoded with GPU-DFOR (host-side representation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GpuDFor {
    /// Number of logical values.
    pub total_count: usize,
    /// Blocks per tile (the delta scope; the paper's `D`).
    pub d: usize,
    /// Word offset of each block in `data`; `blocks + 1` entries. The
    /// tile's `first value` word sits immediately *before* the tile's
    /// first block (Figure 6).
    pub block_starts: Vec<u32>,
    /// `[first value | block…] …` payloads.
    pub data: Vec<u32>,
    /// Physical delta-block payload arrangement (see [`Layout`]).
    pub layout: Layout,
}

/// Compute one tile's entry stream into `entries`: `[0, v₁−v₀, …]`,
/// zero-padded to whole blocks ("we pad the deltas with 0",
/// Section 5.1).
fn tile_entries(tile: &[i32], entries: &mut Vec<i32>) {
    entries.clear();
    entries.push(0);
    entries.extend(tile.windows(2).map(|w| w[1].wrapping_sub(w[0])));
    entries.resize(entries.len().div_ceil(BLOCK) * BLOCK, 0);
}

impl GpuDFor {
    /// Encode with the default tile depth (`D = 4`).
    pub fn encode(values: &[i32]) -> Self {
        Self::encode_with_d(values, DEFAULT_D)
    }

    /// Encode with an explicit tile depth.
    pub fn encode_with_d(values: &[i32], d: usize) -> Self {
        Self::encode_with_d_layout(values, d, Layout::Horizontal)
    }

    /// Encode with an explicit tile depth and payload [`Layout`] for
    /// the delta blocks. `Horizontal` is bit-identical to
    /// [`GpuDFor::encode_with_d`].
    pub fn encode_with_d_layout(values: &[i32], d: usize, layout: Layout) -> Self {
        Self::encode_planned(values, d, layout, None)
    }

    /// Encode at `D = 4`, choosing the layout per column: vertical when
    /// every delta block's four miniblock widths agree (zero size
    /// cost, SIMD scan decode), horizontal otherwise.
    pub fn encode_auto(values: &[i32]) -> Self {
        let d = DEFAULT_D;
        let plans = Self::plan_blocks(values, d);
        let layout = gpu_for::auto_layout(plans.iter().copied());
        Self::encode_planned(values, d, layout, Some(&plans))
    }

    /// Planning pass: one [`BlockPlan`] per delta block in stream
    /// order. Tiles restart the delta stream, so plans for any
    /// tile-aligned chunk equal the corresponding slice of the whole
    /// column's plans — which is what lets the parallel encoder plan
    /// chunks independently.
    pub(crate) fn plan_blocks(values: &[i32], d: usize) -> Vec<BlockPlan> {
        let mut entries: Vec<i32> = Vec::with_capacity(d * BLOCK);
        let mut plans: Vec<BlockPlan> = Vec::with_capacity(blocks_for(values.len()));
        for tile in values.chunks(d * BLOCK) {
            tile_entries(tile, &mut entries);
            for chunk in entries.chunks_exact(BLOCK) {
                plans.push(gpu_for::plan_block(chunk.try_into().expect("exact block")));
            }
        }
        plans
    }

    /// Packing pass. `plans` (when given) must hold one plan per delta
    /// block in stream order; without it, each block is planned on the
    /// fly.
    pub(crate) fn encode_planned(
        values: &[i32],
        d: usize,
        layout: Layout,
        plans: Option<&[BlockPlan]>,
    ) -> Self {
        assert!(d >= 1);
        let blocks = blocks_for(values.len());
        let mut data = Vec::new();
        let mut block_starts = Vec::with_capacity(blocks + 1);
        let mut entries: Vec<i32> = Vec::with_capacity(d * BLOCK);
        let mut b = 0usize;
        for tile in values.chunks(d * BLOCK) {
            let first = tile[0];
            tile_entries(tile, &mut entries);
            data.push(first as u32);
            for chunk in entries.chunks_exact(BLOCK) {
                block_starts.push(data.len() as u32);
                let chunk: &[i32; BLOCK] = chunk.try_into().expect("exact block");
                let plan = match plans {
                    Some(p) => p[b],
                    None => gpu_for::plan_block(chunk),
                };
                gpu_for::pack_block_with_plan(chunk, &plan, layout, &mut data);
                b += 1;
            }
        }
        block_starts.push(data.len() as u32);
        GpuDFor {
            total_count: values.len(),
            d,
            block_starts,
            data,
            layout,
        }
    }

    /// Number of 128-entry blocks.
    pub fn blocks(&self) -> usize {
        self.block_starts.len().saturating_sub(1)
    }

    /// Number of tiles.
    pub fn tiles(&self) -> usize {
        self.blocks().div_ceil(self.d)
    }

    /// Compressed footprint in bytes (data + block starts + 4-word
    /// header {total count, block size, miniblock count, D}).
    pub fn compressed_bytes(&self) -> u64 {
        (self.data.len() + self.block_starts.len() + 4) as u64 * 4
    }

    /// Compression rate in bits per integer.
    pub fn bits_per_int(&self) -> f64 {
        self.compressed_bytes() as f64 * 8.0 / self.total_count.max(1) as f64
    }

    /// Sequential reference decoder.
    ///
    /// Allocates a fresh output vector; loops that decode repeatedly
    /// should prefer [`GpuDFor::decode_cpu_into`] with a reused buffer.
    pub fn decode_cpu(&self) -> Vec<i32> {
        let mut out = Vec::new();
        self.decode_cpu_into(&mut out);
        out
    }

    /// Decode into a caller-provided buffer, replacing its contents.
    ///
    /// The buffer is resized without clearing first: every slot is
    /// overwritten by the fused unpack+scan kernels, so a reused buffer
    /// of the right length skips the zeroing pass that a fresh
    /// `vec![0; n]` pays.
    pub fn decode_cpu_into(&self, out: &mut Vec<i32>) {
        let blocks = self.blocks();
        let vertical = self.layout == Layout::Vertical;
        out.resize(blocks * BLOCK, 0);
        for t in 0..self.tiles() {
            let first_block = t * self.d;
            let tile_blocks = self.d.min(blocks - first_block);
            let first = self.data[self.block_starts[first_block] as usize - 1] as i32;
            let tile_out = &mut out[first_block * BLOCK..(first_block + tile_blocks) * BLOCK];
            // Entry 0 of the tile is the zero pad, so starting the
            // accumulator at `first` reproduces v₀ = first on the first
            // lane and v_i = v_{i-1} + δ_i afterwards. The fused scan
            // kernel does unpack + reference add + segmented prefix sum
            // in one pass; only the carried accumulator is serial.
            let mut acc = first;
            for (b, block_out) in tile_out.chunks_exact_mut(BLOCK).enumerate() {
                let start = self.block_starts[first_block + b] as usize;
                let block = &self.data[start..];
                let reference = block[0] as i32;
                let bw_word = block[1];
                let w0 = bw_word & 0xFF;
                if bw_word == w0.wrapping_mul(0x0101_0101) {
                    // All four miniblocks share a width (the common
                    // case on homogeneous data, and every
                    // encoder-written vertical block): decode the whole
                    // block through one monomorphized kernel — the
                    // vectorized lane-transposed scan under
                    // [`Layout::Vertical`].
                    let block_out: &mut [i32; BLOCK] = block_out.try_into().expect("exact block");
                    acc = if vertical {
                        vunpack_block_scan(
                            &block[BLOCK_HEADER_WORDS..],
                            w0,
                            reference,
                            acc,
                            block_out,
                        )
                    } else {
                        unpack_block_scan(
                            &block[BLOCK_HEADER_WORDS..],
                            w0,
                            reference,
                            acc,
                            block_out,
                        )
                    };
                    continue;
                }
                let mut offset = BLOCK_HEADER_WORDS;
                for (m, mb_out) in block_out.chunks_exact_mut(MINIBLOCK).enumerate() {
                    let w = (bw_word >> (8 * m)) & 0xFF;
                    let mb_out: &mut [i32; MINIBLOCK] = mb_out.try_into().expect("exact chunk");
                    acc = unpack_miniblock_scan(&block[offset..], w, reference, acc, mb_out);
                    offset += w as usize;
                }
            }
        }
        out.truncate(self.total_count);
    }

    /// A horizontal rendering of this column (see
    /// [`GpuFor::to_horizontal`](crate::GpuFor::to_horizontal)):
    /// identical values, sizes and starts, per-miniblock payloads.
    pub fn to_horizontal(&self) -> Self {
        let mut out = self.clone();
        if self.layout == Layout::Horizontal {
            return out;
        }
        out.layout = Layout::Horizontal;
        for b in 0..self.blocks() {
            let start = self.block_starts[b] as usize;
            gpu_for::transpose_block_to_horizontal(&mut out.data[start..]);
        }
        out
    }

    /// Upload to the simulated device (payload plus derived per-block
    /// checksums).
    pub fn to_device(&self, dev: &Device) -> GpuDForDevice {
        GpuDForDevice {
            total_count: self.total_count,
            d: self.d,
            block_starts: dev.alloc_from_slice(&self.block_starts),
            data: dev.alloc_from_slice(&self.data),
            checksums: dev.alloc_from_slice(&self.block_checksums()),
            layout: self.layout,
        }
    }
}

/// Device-resident GPU-DFOR column.
#[derive(Debug)]
pub struct GpuDForDevice {
    /// Logical value count.
    pub total_count: usize,
    /// Blocks per tile.
    pub d: usize,
    /// Per-block word offsets (`blocks + 1` entries).
    pub block_starts: GlobalBuffer<u32>,
    /// `[first value | block…] …` payloads.
    pub data: GlobalBuffer<u32>,
    /// Per-block FNV-1a checksums (`blocks` entries); a tile-heading
    /// block's checksum also covers the tile's first-value word.
    pub checksums: GlobalBuffer<u32>,
    /// Physical delta-block payload arrangement (see [`Layout`]).
    pub layout: Layout,
}

impl GpuDForDevice {
    /// Number of 128-entry blocks.
    pub fn blocks(&self) -> usize {
        self.block_starts.len().saturating_sub(1)
    }

    /// Number of tiles.
    pub fn tiles(&self) -> usize {
        self.blocks().div_ceil(self.d)
    }

    /// Bytes a PCIe transfer of this column would move.
    pub fn size_bytes(&self) -> u64 {
        self.block_starts.size_bytes() + self.data.size_bytes() + self.checksums.size_bytes() + 16
    }
}

/// **Device function**: decode tile `tile_id` — unpack the deltas from
/// shared memory, then run the block-wide inclusive prefix sum and add
/// the tile's first value. This is Crystal's `LoadDBitPack`.
///
/// Returns the number of logical values decoded, or a [`DecodeError`]
/// when the staged tile fails its checksums or its metadata is
/// inconsistent.
pub fn load_tile(
    ctx: &mut BlockCtx<'_>,
    col: &GpuDForDevice,
    tile_id: usize,
    out: &mut Vec<i32>,
) -> Result<usize, DecodeError> {
    let d = col.d;
    let blocks = col.blocks();
    let first_block = tile_id * d;
    let tile_blocks = d.min(blocks - first_block);
    let structure = |block: usize, reason: &'static str| DecodeError::Structure {
        scheme: SCHEME,
        block,
        reason,
    };
    if d > MAX_D {
        return Err(structure(first_block, "tile depth exceeds the format cap"));
    }

    ctx.set_phase(Phase::GlobalLoad);
    let mut starts = [0u32; MAX_D + 1];
    let starts = &mut starts[..=tile_blocks];
    ctx.warp_gather_into(
        &col.block_starts,
        first_block..=first_block + tile_blocks,
        starts,
    );

    // The tile's first-value word sits one word before its first block.
    if starts[0] == 0 {
        return Err(structure(first_block, "missing first-value word"));
    }
    for (i, w) in starts.windows(2).enumerate() {
        if w[1] < w[0] {
            return Err(structure(first_block + i, "block starts not monotone"));
        }
    }
    // Stage from the first-value word through the end of the tile.
    let stage_start = starts[0] as usize - 1;
    let tile_end = if first_block + tile_blocks == blocks {
        col.data.len()
    } else {
        // The next tile begins with its own first-value word.
        match starts[tile_blocks] {
            0 => return Err(structure(first_block, "missing next first-value word")),
            w => w as usize - 1,
        }
    };
    if tile_end < starts[tile_blocks - 1] as usize || tile_end > col.data.len() {
        return Err(structure(first_block, "tile bounds out of range"));
    }
    if tile_end - stage_start > ctx.shared().len() {
        return Err(structure(first_block, "tile larger than shared memory"));
    }
    // Fuel: staging, unpacking, and the tile-wide scan are linear in
    // the tile's words and values (see `crate::validate`).
    let work = (tile_end - stage_start) as u64 + 2 * (tile_blocks * BLOCK) as u64;
    if !ctx.consume_fuel(work) {
        return Err(DecodeError::Hostile {
            scheme: SCHEME,
            block: first_block,
            reason: "decode fuel exhausted",
        });
    }
    // The single fetch of this tile's compressed payload (first-value
    // word included) from global memory.
    ctx.set_phase(Phase::SharedStage);
    ctx.bump(Counter::EncodedTileReads, 1);
    ctx.stage_to_shared(&col.data, stage_start, tile_end - stage_start, 0);

    // Per-block coverage tiles [stage_start, tile_end) exactly: block
    // `i` starts at its own words (extended left over the first-value
    // word when it heads the tile) and runs to the next block's cover.
    let cover = |i: usize| -> (usize, usize) {
        let lo = if i == 0 {
            stage_start
        } else {
            starts[i] as usize
        };
        let hi = if i + 1 == tile_blocks {
            tile_end
        } else {
            starts[i + 1] as usize
        };
        (lo, hi)
    };
    let mut expected = [0u32; MAX_D];
    let expected = &mut expected[..tile_blocks];
    ctx.warp_gather_into(
        &col.checksums,
        first_block..first_block + tile_blocks,
        expected,
    );
    let cover_words = |i: usize| {
        let (lo, hi) = cover(i);
        (lo - stage_start, hi - lo)
    };
    if let Err(i) = verify_staged(ctx, expected, cover_words) {
        return Err(DecodeError::Corrupt {
            scheme: SCHEME,
            block: first_block + i,
        });
    }
    // Checksums passed; confirm each block's declared widths fill it.
    for (i, &block_start) in starts[..tile_blocks].iter().enumerate() {
        let (_, hi) = cover(i);
        let start = block_start as usize;
        let len = hi - start;
        if len < BLOCK_HEADER_WORDS {
            return Err(structure(first_block + i, "block shorter than its header"));
        }
        let bw_word = ctx.shared()[start - stage_start + 1];
        if (0..4).any(|m| (bw_word >> (8 * m)) & 0xFF > 32) {
            return Err(structure(first_block + i, "miniblock width exceeds 32"));
        }
        let payload: usize = (0..4).map(|m| ((bw_word >> (8 * m)) & 0xFF) as usize).sum();
        if payload + BLOCK_HEADER_WORDS != len {
            return Err(structure(
                first_block + i,
                "miniblock widths do not fill the block",
            ));
        }
    }

    let first = ctx.shared()[0] as i32;
    ctx.smem_traffic(4);

    if col.layout == Layout::Vertical {
        // Lane-transposed tile: each width-uniform block decodes
        // through the fused vectorized unpack + reference + prefix
        // scan, carrying the accumulator block to block — no delta
        // scratch array and no separate scan pass over shared memory.
        // Width-heterogeneous blocks (hostile minor-2 streams only)
        // take the per-miniblock horizontal interpretation, matching
        // `decode_cpu_into` exactly.
        ctx.set_phase(Phase::Unpack);
        let mut acc = first;
        for (&start, block_out) in starts.iter().zip(tile_out(out, tile_blocks)) {
            let block_off = start as usize - stage_start;
            ctx.bump(Counter::MiniblocksUnpacked, 4);
            let (shared, traffic) = ctx.shared_and_traffic();
            let block = &shared[block_off..];
            let reference = block[0] as i32;
            let bw_word = block[1];
            let w0 = bw_word & 0xFF;
            let block_out: &mut [i32; BLOCK] = block_out.try_into().expect("exact block");
            if bw_word == w0.wrapping_mul(0x0101_0101) {
                traffic.shared_bytes += 4 * w0 as u64 * 4 + BLOCK_HEADER_WORDS as u64 * 4;
                traffic.int_ops += BLOCK as u64 * 5;
                acc = vunpack_block_scan(
                    &block[BLOCK_HEADER_WORDS..BLOCK_HEADER_WORDS + 4 * w0 as usize],
                    w0,
                    reference,
                    acc,
                    block_out,
                );
            } else {
                let mut offset = BLOCK_HEADER_WORDS;
                for (m, mb_out) in block_out.chunks_exact_mut(MINIBLOCK).enumerate() {
                    let w = (bw_word >> (8 * m)) & 0xFF;
                    let mb_out: &mut [i32; MINIBLOCK] = mb_out.try_into().expect("exact chunk");
                    acc = unpack_miniblock_scan(&block[offset..], w, reference, acc, mb_out);
                    offset += w as usize;
                    traffic.shared_bytes += w as u64 * 4 + 2;
                    traffic.int_ops += MINIBLOCK as u64 * 5;
                }
            }
        }
        // The scan work is fused into the unpack above; charge its adds.
        ctx.set_phase(Phase::Expand);
        ctx.add_int_ops(2 * (tile_blocks * BLOCK) as u64);
    } else {
        // Unpack deltas (same inner routine as GPU-FOR, on shared
        // memory) straight into the output buffer…
        ctx.set_phase(Phase::Unpack);
        for (&start, block_out) in starts.iter().zip(tile_out(out, tile_blocks)) {
            let block_off = start as usize - stage_start;
            let block_out = block_out.try_into().expect("exact block");
            decode_block_from_shared(ctx, block_off, true, Layout::Horizontal, block_out);
        }
        // …then the fused delta decode: block-wide inclusive scan over
        // the tile, in place (no per-tile scratch allocations).
        ctx.set_phase(Phase::Expand);
        block_inclusive_scan_i32_from(ctx, first, out);
    }

    let logical = col.total_count - (first_block * BLOCK).min(col.total_count);
    let decoded = (tile_blocks * BLOCK).min(logical);
    out.truncate(decoded);
    ctx.bump(Counter::TilesDecoded, 1);
    ctx.bump(Counter::ValuesProduced, decoded as u64);
    Ok(decoded)
}

/// Standalone decompression kernel (decode + write back).
pub fn decompress(dev: &Device, col: &GpuDForDevice) -> Result<GlobalBuffer<i32>, DecodeError> {
    let mut out = dev.alloc_zeroed::<i32>(col.total_count);
    run_dfor_decode(dev, col, Some(&mut out), "gpu_dfor_decompress")?;
    Ok(out)
}

/// Decode-only kernel (decode into registers, discard).
pub fn decode_only(dev: &Device, col: &GpuDForDevice) -> Result<(), DecodeError> {
    run_dfor_decode(dev, col, None, "gpu_dfor_decode")
}

fn run_dfor_decode(
    dev: &Device,
    col: &GpuDForDevice,
    out: Option<&mut GlobalBuffer<i32>>,
    name: &str,
) -> Result<(), DecodeError> {
    let cfg = decode_config(name, col.tiles(), col.d, 0);
    run_decode(dev, cfg, col.d * BLOCK, out, |ctx, tile_id, vals| {
        load_tile(ctx, col, tile_id, vals)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu_for::GpuFor;

    fn roundtrip(values: &[i32]) {
        let enc = GpuDFor::encode(values);
        assert_eq!(enc.decode_cpu(), values, "CPU roundtrip");
        let dev = Device::v100();
        let dcol = enc.to_device(&dev);
        let out = decompress(&dev, &dcol).expect("decode");
        assert_eq!(out.as_slice_unaccounted(), values, "device roundtrip");
    }

    #[test]
    fn roundtrip_sorted() {
        let values: Vec<i32> = (0..2000).collect();
        roundtrip(&values);
    }

    #[test]
    fn roundtrip_descending() {
        let values: Vec<i32> = (0..1500).rev().map(|i| i * 3).collect();
        roundtrip(&values);
    }

    #[test]
    fn roundtrip_unsorted_with_negatives() {
        let values: Vec<i32> = (0..700)
            .map(|i| ((i * 2_654_435_761u64) % 1000) as i32 - 500)
            .collect();
        roundtrip(&values);
    }

    #[test]
    fn roundtrip_partial_tile() {
        let values: Vec<i32> = (0..130).collect();
        roundtrip(&values);
    }

    #[test]
    fn roundtrip_single() {
        roundtrip(&[-7]);
    }

    #[test]
    fn roundtrip_extremes_wraparound() {
        let mut values = vec![i32::MAX, i32::MIN, 0, i32::MIN, i32::MAX];
        values.resize(256, 5);
        roundtrip(&values);
    }

    #[test]
    fn sorted_sequence_compresses_to_two_bits() {
        // Paper Section 5.1: sorted 1..n compresses to 1.8 bits/int
        // under GPU-DFOR vs 7.8 under GPU-FOR (all deltas are 1).
        let n = 1 << 18;
        let values: Vec<i32> = (1..=n).collect();
        let dfor = GpuDFor::encode(&values);
        let for_ = GpuFor::encode(&values);
        assert!(dfor.bits_per_int() < 2.0, "dfor = {}", dfor.bits_per_int());
        assert!(for_.bits_per_int() > 7.0, "for = {}", for_.bits_per_int());
    }

    #[test]
    fn overhead_matches_paper() {
        // Section 9.2: 0.81 bits/int overhead at D = 4, one extra bit
        // for unsorted deltas.
        let n = 128 * 1024;
        let values: Vec<i32> = (0..n)
            .map(|i| ((i as u64 * 2_654_435_761) % (1 << 16)) as i32)
            .collect();
        let enc = GpuDFor::encode(&values);
        // Deltas of unsorted 16-bit data need 17 bits; the format adds
        // 0.81 bits/int of metadata (0.75 + first value per D=4 blocks).
        let overhead = enc.bits_per_int() - 17.0;
        assert!((overhead - 0.81).abs() < 0.1, "overhead = {overhead}");
    }

    #[test]
    fn tiles_decode_independently() {
        let values: Vec<i32> = (0..4 * 128 * 3).map(|i| i / 7).collect();
        let enc = GpuDFor::encode(&values);
        let dev = Device::v100();
        let dcol = enc.to_device(&dev);
        // Decode only the middle tile.
        let cfg = decode_config("single_tile", 1, enc.d, 0);
        let mut out = Vec::new();
        dev.launch(cfg, |ctx| {
            load_tile(ctx, &dcol, 1, &mut out).expect("decode");
        });
        assert_eq!(out, values[512..1024].to_vec());
    }

    #[test]
    fn d_variants_roundtrip() {
        let values: Vec<i32> = (0..5000).map(|i| i / 3).collect();
        for d in [1, 2, 4, 8] {
            let enc = GpuDFor::encode_with_d(&values, d);
            assert_eq!(enc.decode_cpu(), values, "d = {d}");
        }
    }
}
