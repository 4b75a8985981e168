//! Section 4.3 ablation: "Bit-packing without Miniblocks" — a single
//! bitwidth per 128-value block instead of four per-miniblock widths.
//! Same space (the bitwidth still occupies one word) but less offset
//! arithmetic; the paper measured a marginal win (2.1 ms → 2.0 ms) at
//! the cost of skew-sensitivity within a block.

use tlc_bitpack::horizontal::pack_into;
use tlc_bitpack::unpack::unpack_miniblock_ref;
use tlc_bitpack::width::bits_for;
use tlc_gpu_sim::{Device, GlobalBuffer};

use crate::format::{blocks_for, ForDecodeOpts, BLOCK, BLOCK_HEADER_WORDS, MINIBLOCK};
use crate::model::decode_config;

/// GPU-FOR without miniblocks: block layout
/// `[reference | bitwidth | 128 values at one width]`.
#[derive(Debug, Clone)]
pub struct NoMiniblock {
    /// Logical value count.
    pub total_count: usize,
    /// Per-block word offsets (`blocks + 1` entries).
    pub block_starts: Vec<u32>,
    /// Packed block payloads.
    pub data: Vec<u32>,
}

impl NoMiniblock {
    /// Encode a column with one bitwidth per 128-value block.
    pub fn encode(values: &[i32]) -> Self {
        let blocks = blocks_for(values.len());
        let mut data = Vec::new();
        let mut block_starts = Vec::with_capacity(blocks + 1);
        let mut deltas = [0u32; BLOCK];
        for chunk in values.chunks(BLOCK) {
            block_starts.push(data.len() as u32);
            let reference = *chunk.iter().min().expect("chunk non-empty");
            for (i, d) in deltas.iter_mut().enumerate() {
                let v = chunk.get(i).copied().unwrap_or(reference);
                *d = (v as i64 - reference as i64) as u32;
            }
            let width = bits_for(deltas.iter().copied().max().unwrap_or(0));
            data.push(reference as u32);
            data.push(width);
            pack_into(&deltas, width, &mut data);
        }
        block_starts.push(data.len() as u32);
        NoMiniblock {
            total_count: values.len(),
            block_starts,
            data,
        }
    }

    /// Compressed footprint in bytes (data + block starts + header).
    pub fn compressed_bytes(&self) -> u64 {
        (self.data.len() + self.block_starts.len() + 3) as u64 * 4
    }

    /// Sequential reference decoder.
    ///
    /// A single-width 128-value block is four word-aligned miniblocks
    /// at the same width, so the whole decode runs on the monomorphized
    /// [`unpack_miniblock_ref`] fast path.
    pub fn decode_cpu(&self) -> Vec<i32> {
        let mut out = Vec::with_capacity(self.total_count);
        let mut scratch = [0i32; MINIBLOCK];
        for b in 0..self.block_starts.len() - 1 {
            let start = self.block_starts[b] as usize;
            let block = &self.data[start..];
            let reference = block[0] as i32;
            let width = block[1];
            let payload = &block[BLOCK_HEADER_WORDS..];
            for m in 0..BLOCK / MINIBLOCK {
                unpack_miniblock_ref(
                    &payload[m * width as usize..],
                    width,
                    reference,
                    &mut scratch,
                );
                out.extend_from_slice(&scratch);
            }
        }
        out.truncate(self.total_count);
        out
    }

    /// Upload to the device.
    pub fn to_device(&self, dev: &Device) -> NoMiniblockDevice {
        NoMiniblockDevice {
            total_count: self.total_count,
            block_starts: dev.alloc_from_slice(&self.block_starts),
            data: dev.alloc_from_slice(&self.data),
        }
    }
}

/// Device-resident no-miniblock column.
#[derive(Debug)]
pub struct NoMiniblockDevice {
    /// Logical value count.
    pub total_count: usize,
    /// Per-block word offsets.
    pub block_starts: GlobalBuffer<u32>,
    /// Packed block payloads.
    pub data: GlobalBuffer<u32>,
}

/// Decode-only kernel (Section 4.3 microbenchmark). Identical staging
/// to GPU-FOR, but the per-thread offset arithmetic disappears: the
/// single width is read once and the element offset is a multiply.
pub fn decode_only(dev: &Device, col: &NoMiniblockDevice, opts: ForDecodeOpts) {
    let blocks = col.block_starts.len() - 1;
    let tiles = blocks.div_ceil(opts.d);
    let cfg = decode_config("no_miniblock_decode", tiles, opts.d, 0);
    dev.launch(cfg, |ctx| {
        let first_block = ctx.block_id() * opts.d;
        let tile_blocks = opts.d.min(blocks - first_block);
        let starts_idx: Vec<usize> = (first_block..=first_block + tile_blocks).collect();
        let starts = ctx.warp_gather(&col.block_starts, &starts_idx);
        let tile_start = starts[0] as usize;
        let tile_end = *starts.last().expect("non-empty") as usize;
        ctx.stage_to_shared(&col.data, tile_start, tile_end - tile_start, 0);
        for &start in starts.iter().take(tile_blocks) {
            let off = start as usize - tile_start;
            let (shared, traffic) = ctx.shared_and_traffic();
            let block = &shared[off..];
            let reference = block[0] as i32;
            let width = block[1];
            // Monomorphized unpack reads each staged payload word once
            // plus the header; no offset loop and no miniblock table
            // (the whole point of the ablation) leaves ~3 ops/value.
            traffic.shared_bytes +=
                (BLOCK / MINIBLOCK * width as usize) as u64 * 4 + BLOCK_HEADER_WORDS as u64 * 4;
            traffic.int_ops += BLOCK as u64 * 3;
            let payload = &block[BLOCK_HEADER_WORDS..];
            let mut scratch = [0i32; MINIBLOCK];
            for m in 0..BLOCK / MINIBLOCK {
                unpack_miniblock_ref(
                    &payload[m * width as usize..],
                    width,
                    reference,
                    &mut scratch,
                );
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu_for::GpuFor;

    #[test]
    fn roundtrip() {
        let values: Vec<i32> = (0..1000).map(|i| (i * 7) % 513 - 100).collect();
        let enc = NoMiniblock::encode(&values);
        assert_eq!(enc.decode_cpu(), values);
    }

    #[test]
    fn same_footprint_as_gpu_for_when_widths_agree() {
        // Both store one metadata word for widths; when every miniblock
        // spans the full block range the sizes coincide exactly, and in
        // general miniblocks can only be narrower.
        let saw: Vec<i32> = (0..4096)
            .map(|i| if i % 2 == 0 { 0 } else { 4095 })
            .collect();
        assert_eq!(
            NoMiniblock::encode(&saw).compressed_bytes(),
            GpuFor::encode(&saw).compressed_bytes()
        );
        let mixed: Vec<i32> = (0..4096).map(|i| (i * 31) % (1 << 12)).collect();
        assert!(
            NoMiniblock::encode(&mixed).compressed_bytes()
                >= GpuFor::encode(&mixed).compressed_bytes()
        );
    }

    #[test]
    fn skew_hurts_whole_block() {
        // One big value forces width 32 on all 128 entries here, but
        // only on 32 entries under GPU-FOR miniblocks.
        let mut values = vec![0i32; 128];
        values[0] = i32::MAX;
        let nm = NoMiniblock::encode(&values);
        let mb = GpuFor::encode(&values);
        assert!(nm.compressed_bytes() > mb.compressed_bytes());
    }

    #[test]
    fn fewer_ops_than_miniblock_decode() {
        let values: Vec<i32> = (0..1 << 14).map(|i| i % 777).collect();
        let dev = Device::v100();
        let nm = NoMiniblock::encode(&values).to_device(&dev);
        let fr = GpuFor::encode(&values).to_device(&dev);
        dev.reset_timeline();
        decode_only(&dev, &nm, ForDecodeOpts::default());
        let ops_nm = dev.with_timeline(|t| t.total_traffic().int_ops);
        dev.reset_timeline();
        crate::gpu_for::decode_only(&dev, &fr, ForDecodeOpts::default()).expect("decode");
        let ops_fr = dev.with_timeline(|t| t.total_traffic().int_ops);
        assert!(ops_nm < ops_fr, "ops_nm = {ops_nm}, ops_fr = {ops_fr}");
    }
}
