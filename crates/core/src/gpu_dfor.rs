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

use tlc_gpu_sim::scan::charge_block_scan;
use tlc_gpu_sim::{BlockCtx, Counter, Device, GlobalBuffer, Phase};

use crate::block::{group_words, unpack_group_scan};
use crate::error::DecodeError;
use crate::format::{
    blocks_for, Layout, BLOCK, BLOCK_HEADER_WORDS, DEFAULT_D, MINIBLOCKS_PER_BLOCK,
};
use crate::gpu_for::{
    self, charge_block_unpack, run_decode, stage_tile, tile_out, BlockPlan, TileSource,
};
use crate::model::decode_config;
use crate::serialize::FormatError;

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

/// GPU-DFOR's tile geometry (Figure 6): where a tile's first value
/// sits and which words each block covers. A tile's first-value word is
/// the word before its first block, so the block that heads a tile
/// covers that word too, and the block that ends a tile stops one word
/// short of the next tile's first block; the last block runs to the end
/// of `data`. The covers so tile `data` exactly. The validator checks
/// every cover, the checksums hash them, and the tile kernel stages a
/// tile from its first block's cover to its last block's.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TileGeometry {
    /// Blocks per tile.
    d: usize,
    /// Blocks in the column.
    blocks: usize,
    /// Words in the column's `data`.
    data_len: usize,
}

impl TileGeometry {
    /// The geometry of a column with `d` blocks per tile, `block_starts`
    /// (one entry per block, then the end of `data`) and `data_len`
    /// payload words. A column with no blocks per tile has none, and
    /// neither has one whose block starts do not end at the end of
    /// `data`, or that has no block starts at all.
    pub fn new(d: usize, block_starts: &[u32], data_len: usize) -> Result<Self, FormatError> {
        if d == 0 {
            return Err(FormatError::BadBlock {
                block: 0,
                reason: "d must be >= 1",
            });
        }
        let blocks = match block_starts.last() {
            None => return Err(FormatError::BadBlockStarts(0)),
            Some(&end) if end as usize != data_len => {
                return Err(FormatError::BadBlockStarts(block_starts.len() - 1))
            }
            Some(_) => block_starts.len() - 1,
        };
        Ok(TileGeometry {
            d,
            blocks,
            data_len,
        })
    }

    /// The first-value word of the tile whose first block starts at
    /// word `start`; `None` when no word precedes it.
    pub fn first_value_word(start: u32) -> Option<usize> {
        (start as usize).checked_sub(1)
    }

    /// The words `[lo, hi)` block `b` covers, from its start and the
    /// next block's (`next` is not read for the last block). `Err(t)`
    /// names the tile-heading block `t` that has no first-value word.
    pub fn cover(&self, b: usize, start: u32, next: u32) -> Result<(usize, usize), usize> {
        let heads = |b: usize| b.is_multiple_of(self.d);
        let lo = if heads(b) {
            Self::first_value_word(start).ok_or(b)?
        } else {
            start as usize
        };
        let hi = if b + 1 == self.blocks {
            self.data_len
        } else if heads(b + 1) {
            Self::first_value_word(next).ok_or(b + 1)?
        } else {
            next as usize
        };
        Ok((lo, hi))
    }
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
    /// order.
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
        out.resize(self.blocks() * BLOCK, 0);
        for (t, tile_out) in out.chunks_mut(self.d * BLOCK).enumerate() {
            let starts = &self.block_starts[t * self.d..];
            // Entry 0 of a tile is the zero pad, so starting the
            // accumulator at the tile's first value reproduces v₀ = first
            // on the first lane and v_i = v_{i-1} + δ_i afterwards. The
            // fused scan kernel does unpack + reference add + prefix sum
            // in one pass; only the carried accumulator is serial.
            let first = TileGeometry::first_value_word(starts[0]).expect("validated column");
            let mut acc = self.data[first] as i32;
            for (&start, block_out) in starts.iter().zip(tile_out.chunks_exact_mut(BLOCK)) {
                let block = &self.data[start as usize..];
                acc = unpack_group_scan(
                    &block[BLOCK_HEADER_WORDS..],
                    block[1],
                    self.layout,
                    block[0] as i32,
                    acc,
                    block_out.try_into().expect("exact block"),
                );
            }
        }
        out.truncate(self.total_count);
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

    /// What `stage_tile` stages this column's tiles from.
    fn source(&self) -> TileSource<'_> {
        TileSource {
            scheme: SCHEME,
            total_count: self.total_count,
            block_starts: &self.block_starts,
            data: &self.data,
            checksums: &self.checksums,
            dfor: Some(TileGeometry {
                d: self.d,
                blocks: self.blocks(),
                data_len: self.data.len(),
            }),
        }
    }
}

/// **Device function**: decode tile `tile_id` — stage it with its
/// first-value word (`stage_tile`), then unpack each block's deltas
/// fused with the block-wide inclusive prefix sum, carrying the tile's
/// first value in. This is Crystal's `LoadDBitPack`.
///
/// The host runs the same fused unpack and scan on both layouts. The
/// model charges what each kernel does: the horizontal kernel unpacks
/// as GPU-FOR's does and then scans the tile in shared memory; the
/// lane-transposed kernel fuses the reference add and the scan's adds
/// into its unpack.
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
    let tile = stage_tile(ctx, &col.source(), tile_id, col.d)?;
    let first = ctx.shared()[0] as i32;
    ctx.smem_traffic(4);

    ctx.set_phase(Phase::Unpack);
    let mut acc = first;
    for (block_off, block_out) in tile.block_offsets().zip(tile_out(out, tile.tile_blocks)) {
        ctx.bump(Counter::MiniblocksUnpacked, MINIBLOCKS_PER_BLOCK as u64);
        let (shared, traffic) = ctx.shared_and_traffic();
        let block = &shared[block_off..];
        let bw_word = block[1];
        match col.layout {
            Layout::Horizontal => charge_block_unpack(traffic, bw_word, true),
            Layout::Vertical => {
                traffic.shared_bytes += (group_words(bw_word) + BLOCK_HEADER_WORDS) as u64 * 4;
                traffic.int_ops += BLOCK as u64 * 5;
            }
        }
        acc = unpack_group_scan(
            &block[BLOCK_HEADER_WORDS..],
            bw_word,
            col.layout,
            block[0] as i32,
            acc,
            block_out.try_into().expect("exact block"),
        );
    }
    // The scan over the tile: a block-wide tree scan in shared memory
    // after the horizontal unpack, only its adds after the fused one.
    ctx.set_phase(Phase::Expand);
    let values = tile.tile_blocks * BLOCK;
    match col.layout {
        Layout::Horizontal => charge_block_scan(ctx, values, 4),
        Layout::Vertical => ctx.add_int_ops(2 * values as u64),
    }

    out.truncate(tile.decoded);
    ctx.bump(Counter::TilesDecoded, 1);
    ctx.bump(Counter::ValuesProduced, tile.decoded as u64);
    Ok(tile.decoded)
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
