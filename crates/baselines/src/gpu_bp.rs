//! GPU-BP (Mallia et al. \[33\]): a single horizontal bit-packing layer
//! over the entire column — one global bitwidth, no frame-of-reference,
//! no delta, no RLE, and none of the Section 4.2 staging optimizations.
//!
//! Compression suffers on columns whose *range* is small but whose
//! *magnitude* is large (dates, keys: Figure 9), and decoding pays
//! overlapping un-staged window reads straight from global memory.

use tlc_bitpack::horizontal::{extract, pack_stream};
use tlc_bitpack::unpack::{unpack_miniblock_ref, unpack_stream_into};
use tlc_bitpack::width::max_bits;
use tlc_bitpack::MINIBLOCK;
use tlc_gpu_sim::{Device, GlobalBuffer, KernelConfig, LaunchError, WARP_SIZE};

/// Values handled per thread block during decode (the published kernel
/// works in small per-block batches).
const CHUNK: usize = 256;

/// A GPU-BP encoded column (host side). Requires non-negative input
/// (no reference to shift by); negative values widen to 32 bits.
#[derive(Debug, Clone)]
pub struct GpuBp {
    /// Logical value count.
    pub total_count: usize,
    /// Single global bitwidth.
    pub bitwidth: u32,
    /// Packed words.
    pub data: Vec<u32>,
}

impl GpuBp {
    /// Encode a column at the global maximum bitwidth.
    pub fn encode(values: &[i32]) -> Self {
        let bitwidth = if values.iter().any(|&v| v < 0) {
            32
        } else {
            let as_u: Vec<u32> = values.iter().map(|&v| v as u32).collect();
            max_bits(&as_u)
        };
        let as_u: Vec<u32> = values.iter().map(|&v| v as u32).collect();
        let data = pack_stream(&as_u, bitwidth);
        GpuBp {
            total_count: values.len(),
            bitwidth,
            data,
        }
    }

    /// Compressed footprint in bytes.
    pub fn compressed_bytes(&self) -> u64 {
        self.data.len() as u64 * 4 + 8
    }

    /// Compression rate in bits per integer.
    pub fn bits_per_int(&self) -> f64 {
        self.compressed_bytes() as f64 * 8.0 / self.total_count.max(1) as f64
    }

    /// Sequential reference decoder. A contiguously packed stream is
    /// word-aligned at every 32-value boundary, so
    /// [`unpack_stream_into`] runs the monomorphized kernels over the
    /// full miniblocks and the generic window `extract` only handles
    /// the tail.
    pub fn decode_cpu(&self) -> Vec<i32> {
        let mut raw = Vec::with_capacity(self.total_count);
        unpack_stream_into(&self.data, self.bitwidth, self.total_count, &mut raw);
        raw.into_iter().map(|v| v as i32).collect()
    }

    /// Upload to the device.
    pub fn to_device(&self, dev: &Device) -> GpuBpDevice {
        GpuBpDevice {
            total_count: self.total_count,
            bitwidth: self.bitwidth,
            data: dev.alloc_from_slice(&self.data),
        }
    }
}

/// Device-resident GPU-BP column.
#[derive(Debug)]
pub struct GpuBpDevice {
    /// Logical value count.
    pub total_count: usize,
    /// Single global bitwidth.
    pub bitwidth: u32,
    /// Packed words.
    pub data: GlobalBuffer<u32>,
}

impl GpuBpDevice {
    /// Bytes a PCIe transfer would move.
    pub fn size_bytes(&self) -> u64 {
        self.data.size_bytes() + 8
    }
}

/// Decompress to a plain column: one kernel, thread-per-value window
/// reads from global memory (no shared-memory staging). A launch an
/// armed fault plan fails is a typed [`LaunchError`].
pub fn decompress(dev: &Device, col: &GpuBpDevice) -> Result<GlobalBuffer<i32>, LaunchError> {
    let mut out = dev.alloc_zeroed::<i32>(col.total_count);
    run(dev, col, Some(&mut out), "gpu_bp_decompress")?;
    Ok(out)
}

/// Decode-only (no write-back).
pub fn decode_only(dev: &Device, col: &GpuBpDevice) -> Result<(), LaunchError> {
    run(dev, col, None, "gpu_bp_decode")
}

fn run(
    dev: &Device,
    col: &GpuBpDevice,
    mut out: Option<&mut GlobalBuffer<i32>>,
    name: &str,
) -> Result<(), LaunchError> {
    let n = col.total_count;
    if n == 0 {
        return Ok(());
    }
    let bw = col.bitwidth;
    let grid = n.div_ceil(CHUNK);
    let cfg = KernelConfig::new(name, grid, 128).regs_per_thread(28);
    dev.try_launch(cfg, |ctx| {
        let lo = ctx.block_id() * CHUNK;
        let hi = (lo + CHUNK).min(n);
        let mut vals = Vec::with_capacity(hi - lo);
        let mut scratch = [0i32; MINIBLOCK];
        for warp_lo in (lo..hi).step_by(WARP_SIZE) {
            let warp_hi = (warp_lo + WARP_SIZE).min(hi);
            // Each lane loads its 8-byte window directly from global
            // memory; neighbouring windows overlap, so the warp touches
            // more bytes than the payload it decodes.
            let idx: Vec<usize> = (warp_lo..warp_hi).map(|i| (i * bw as usize) / 32).collect();
            let _ = ctx.warp_gather_wide(&col.data, &idx, 8);
            ctx.add_int_ops((warp_hi - warp_lo) as u64 * 6);
            let data = col.data.as_slice_unaccounted();
            if warp_hi - warp_lo == MINIBLOCK {
                // A full warp is a word-aligned 32-value miniblock
                // (no frame of reference: reference 0).
                unpack_miniblock_ref(&data[warp_lo * bw as usize / 32..], bw, 0, &mut scratch);
                vals.extend_from_slice(&scratch);
            } else {
                for i in warp_lo..warp_hi {
                    vals.push(extract(data, i * bw as usize, bw) as i32);
                }
            }
        }
        if let Some(out) = out.as_deref_mut() {
            ctx.write_coalesced(out, lo, &vals);
        }
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let values: Vec<i32> = (0..5000).map(|i| (i * 17) % 3000).collect();
        let enc = GpuBp::encode(&values);
        assert_eq!(enc.decode_cpu(), values);
        let dev = Device::v100();
        let out = decompress(&dev, &enc.to_device(&dev)).expect("no fault plan");
        assert_eq!(out.as_slice_unaccounted(), values);
    }

    #[test]
    fn no_for_hurts_large_magnitude_small_range() {
        // Dates around 19,940,000: GPU-BP needs 25 bits; a FOR-based
        // scheme needs ~7 (this is the lo_commitdate effect, Fig. 9).
        let values: Vec<i32> = (0..10_000).map(|i| 19_940_000 + (i % 100)).collect();
        let bp = GpuBp::encode(&values);
        assert!(bp.bits_per_int() >= 25.0);
        let gfor = tlc_core::GpuFor::encode(&values);
        assert!(gfor.bits_per_int() < 9.0);
    }

    #[test]
    fn negative_values_force_full_width() {
        let enc = GpuBp::encode(&[-5, 3, 8]);
        assert_eq!(enc.bitwidth, 32);
        assert_eq!(enc.decode_cpu(), vec![-5, 3, 8]);
    }

    #[test]
    fn unstaged_reads_cost_more_than_staged() {
        let values: Vec<i32> = (0..1 << 16).map(|i| i % (1 << 16)).collect();
        let dev = Device::v100();
        let bp = GpuBp::encode(&values).to_device(&dev);
        dev.reset_timeline();
        decode_only(&dev, &bp).expect("no fault plan");
        let bp_segs = dev.with_timeline(|t| t.total_traffic().global_read_segments);
        // GPU-FOR on the same data with staging + D=4.
        let gf = tlc_core::GpuFor::encode(&values).to_device(&dev);
        dev.reset_timeline();
        tlc_core::gpu_for::decode_only(&dev, &gf, tlc_core::ForDecodeOpts::default())
            .expect("decode");
        let gf_segs = dev.with_timeline(|t| t.total_traffic().global_read_segments);
        assert!(bp_segs > gf_segs, "bp = {bp_segs}, gpu-for = {gf_segs}");
    }
}
