//! An nvCOMP-style cascaded codec (paper Sections 2.2 and 9.4).
//!
//! nvCOMP supports the same cascade building blocks as GPU-* (RLE,
//! delta, frame-of-reference, bit packing), so its *compression ratios*
//! track GPU-* within ~2% (Figure 9) — the gap is metadata. What it
//! lacks is (a) single-pass tile-based decompression and (b) the
//! ability to inline decompression into query kernels: every layer is
//! decoded by its own kernel with intermediates in global memory.
//!
//! The model here reuses GPU-*'s formats for the payload (adding the 2%
//! metadata surcharge) and decodes with layer-per-kernel pipelines:
//! FOR+BP in 2 passes, Delta+FOR+BP in 3 passes, RLE+FOR+BP with an
//! unpack pass followed by the global RLE expansion pipeline.

use tlc_core::column::{DeviceColumn, EncodedColumn};
use tlc_core::gpu_rfor::decode_stream_block;
use tlc_gpu_sim::{Device, GlobalBuffer, KernelConfig, LaunchError};

/// Relative metadata overhead versus the GPU-* formats (Figure 9's
/// "2% gain for GPU-*" comes from our more compact metadata).
pub const NVCOMP_METADATA_FACTOR: f64 = 1.02;

/// An nvCOMP-cascade encoded column (host side).
#[derive(Debug, Clone)]
pub struct NvComp {
    /// Underlying cascade payload (same scheme choice as GPU-*).
    pub inner: EncodedColumn,
}

impl NvComp {
    /// Encode, choosing the best cascade like nvCOMP's selector.
    pub fn encode(values: &[i32]) -> Self {
        NvComp {
            inner: EncodedColumn::encode_best(values),
        }
    }

    /// Compressed footprint in bytes (payload + nvCOMP metadata).
    pub fn compressed_bytes(&self) -> u64 {
        (self.inner.compressed_bytes() as f64 * NVCOMP_METADATA_FACTOR).ceil() as u64
    }

    /// Compression rate in bits per integer.
    pub fn bits_per_int(&self) -> f64 {
        self.compressed_bytes() as f64 * 8.0 / self.inner.total_count().max(1) as f64
    }

    /// Upload to the device.
    pub fn to_device(&self, dev: &Device) -> NvCompDevice {
        NvCompDevice {
            inner: self.inner.to_device(dev),
        }
    }
}

/// Device-resident nvCOMP column.
#[derive(Debug)]
pub struct NvCompDevice {
    /// Underlying device payload.
    pub inner: DeviceColumn,
}

impl NvCompDevice {
    /// Logical value count.
    pub fn total_count(&self) -> usize {
        self.inner.total_count()
    }

    /// Bytes a PCIe transfer would move (including metadata surcharge).
    pub fn size_bytes(&self) -> u64 {
        (self.inner.size_bytes() as f64 * NVCOMP_METADATA_FACTOR).ceil() as u64
    }

    /// Decompress with the layer-per-kernel pipelines. nvCOMP cannot
    /// decompress inline with queries, so consumers must run their
    /// query kernels over this materialized output. A launch an armed
    /// fault plan fails is a typed [`LaunchError`].
    pub fn decompress(&self, dev: &Device) -> Result<GlobalBuffer<i32>, LaunchError> {
        match &self.inner {
            DeviceColumn::For(c) => crate::cascaded::for_cascaded(dev, c),
            DeviceColumn::DFor(c) => crate::cascaded::dfor_cascaded(dev, c),
            DeviceColumn::RFor(c) => nv_rfor_decompress(dev, c),
        }
    }
}

/// nvCOMP's RLE path: one fused unpack kernel for both streams, then
/// the global scan/scatter/scan/gather expansion (5 kernels total —
/// lighter than the naive 8-pass cascade, still multi-pass).
fn nv_rfor_decompress(
    dev: &Device,
    col: &tlc_core::gpu_rfor::GpuRForDevice,
) -> Result<GlobalBuffer<i32>, LaunchError> {
    let n = col.total_count;
    let blocks = col.blocks();
    if n == 0 {
        return Ok(dev.alloc_zeroed(0));
    }
    let vstarts = col.values_starts.as_slice_unaccounted().to_vec();
    let lstarts = col.lengths_starts.as_slice_unaccounted().to_vec();
    let run_counts: Vec<usize> = (0..blocks)
        .map(|b| col.values_data.as_slice_unaccounted()[vstarts[b] as usize] as usize)
        .collect();
    let mut run_offsets = vec![0usize; blocks + 1];
    for b in 0..blocks {
        run_offsets[b + 1] = run_offsets[b] + run_counts[b];
    }
    let total_runs = run_offsets[blocks];
    let mut values = dev.alloc_zeroed::<i32>(total_runs.max(1));
    let mut lengths = dev.alloc_zeroed::<u32>(total_runs.max(1));

    let cfg = KernelConfig::new("nvcomp_rle_unpack", blocks, 128)
        .smem_per_block(2 * 2112)
        .regs_per_thread(34);
    dev.try_launch(cfg, |ctx| {
        let b = ctx.block_id();
        let rc = run_counts[b];
        let (vs, ve) = (vstarts[b] as usize, vstarts[b + 1] as usize);
        let (ls, le) = (lstarts[b] as usize, lstarts[b + 1] as usize);
        ctx.stage_to_shared(&col.values_data, vs, ve - vs, 0);
        let loff = ve - vs;
        ctx.stage_to_shared(&col.lengths_data, ls, le - ls, loff);
        ctx.smem_traffic(rc as u64 * 24);
        ctx.add_int_ops(rc as u64 * 16);
        let (vals, lens) = {
            let shared = ctx.shared();
            (
                decode_stream_block(&shared[1..loff], rc, col.layout),
                decode_stream_block(&shared[loff..loff + (le - ls)], rc, col.layout),
            )
        };
        let as_u32: Vec<u32> = lens.iter().map(|&l| l as u32).collect();
        ctx.write_coalesced(&mut values, run_offsets[b], &vals);
        ctx.write_coalesced(&mut lengths, run_offsets[b], &as_u32);
    })?;

    let rle = crate::rle::RleDevice {
        total_count: n,
        values,
        lengths,
    };
    crate::rle::decompress(dev, &rle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlc_core::Scheme;

    #[test]
    fn ratio_tracks_gpu_star_within_2_percent() {
        let values: Vec<i32> = (0..100_000).map(|i| i / 40).collect();
        let nv = NvComp::encode(&values);
        let star = EncodedColumn::encode_best(&values);
        let ratio = nv.compressed_bytes() as f64 / star.compressed_bytes() as f64;
        assert!((ratio - 1.02).abs() < 1e-3);
    }

    #[test]
    fn roundtrip_all_schemes() {
        let dev = Device::v100();
        let datasets: Vec<Vec<i32>> = vec![
            (0..20_000)
                .map(|i| ((i as u64 * 48_271) % (1 << 14)) as i32)
                .collect(), // FOR
            (0..20_000).collect(), // DFOR
            // Runs of 50 *random* values: delta coding sees a large jump
            // at most miniblocks, RLE sees 10 runs per 512-block.
            (0..20_000)
                .map(|i| ((i as u64 / 50 * 2_654_435_761) % (1 << 16)) as i32)
                .collect(),
        ];
        let expected = [Scheme::GpuFor, Scheme::GpuDFor, Scheme::GpuRFor];
        for (values, want) in datasets.iter().zip(expected) {
            let nv = NvComp::encode(values);
            assert_eq!(nv.inner.scheme(), want);
            let out = nv.to_device(&dev).decompress(&dev).expect("no fault plan");
            assert_eq!(out.as_slice_unaccounted(), values, "{want:?}");
        }
    }

    #[test]
    fn decompression_is_multi_pass() {
        let dev = Device::v100();
        let values: Vec<i32> = (0..50_000).map(|i| i / 100).collect();
        let nv = NvComp::encode(&values).to_device(&dev);
        dev.reset_timeline();
        nv.decompress(&dev).expect("no fault plan");
        assert!(dev.with_timeline(|t| t.kernel_launches()) >= 2);
    }

    #[test]
    fn slower_than_tile_based_gpu_star() {
        // Figure 10: GPU-* decompresses ~2.2x faster than nvCOMP.
        let dev = Device::v100();
        let values: Vec<i32> = (0..1 << 20)
            .map(|i| ((i as u64 * 2_654_435_761) % (1 << 16)) as i32)
            .collect();
        let star = EncodedColumn::encode_best(&values).to_device(&dev);
        dev.reset_timeline();
        let _ = star.decompress(&dev);
        let t_star = dev.elapsed_seconds();

        let nv = NvComp::encode(&values).to_device(&dev);
        dev.reset_timeline();
        nv.decompress(&dev).expect("no fault plan");
        let t_nv = dev.elapsed_seconds();
        let ratio = t_nv / t_star;
        assert!(ratio > 1.5, "ratio = {ratio}");
    }
}
