//! Plain run-length encoding over the whole column, decoded with the
//! four-step global pipeline of Fang et al. \[18\]: prefix-sum the run
//! lengths, scatter head flags, prefix-sum the flags, gather values.
//! Every step is its own kernel reading and writing global memory —
//! which is why GPU-RFOR (same logic, fused in shared memory) beats it
//! by ~2.5× in Figure 8(b).

use tlc_gpu_sim::{Device, GlobalBuffer, KernelConfig, LaunchError};

/// Outputs handled per thread block in the expansion kernels.
const CHUNK: usize = 2048;

/// Split a column into (values, run lengths).
pub fn encode_runs(values: &[i32]) -> (Vec<i32>, Vec<u32>) {
    let mut vals = Vec::new();
    let mut lens: Vec<u32> = Vec::new();
    for &v in values {
        match vals.last() {
            Some(&last) if last == v => *lens.last_mut().expect("non-empty") += 1,
            _ => {
                vals.push(v);
                lens.push(1);
            }
        }
    }
    (vals, lens)
}

/// A whole-column RLE encoding (host side).
#[derive(Debug, Clone)]
pub struct Rle {
    /// Logical value count.
    pub total_count: usize,
    /// Run values.
    pub values: Vec<i32>,
    /// Run lengths.
    pub lengths: Vec<u32>,
}

impl Rle {
    /// Encode a column.
    pub fn encode(values: &[i32]) -> Self {
        let (v, l) = encode_runs(values);
        Rle {
            total_count: values.len(),
            values: v,
            lengths: l,
        }
    }

    /// Number of runs.
    pub fn runs(&self) -> usize {
        self.values.len()
    }

    /// Compressed footprint: both arrays as 4-byte entries + header.
    pub fn compressed_bytes(&self) -> u64 {
        (self.values.len() + self.lengths.len()) as u64 * 4 + 8
    }

    /// Compression rate in bits per integer.
    pub fn bits_per_int(&self) -> f64 {
        self.compressed_bytes() as f64 * 8.0 / self.total_count.max(1) as f64
    }

    /// Sequential reference decoder.
    pub fn decode_cpu(&self) -> Vec<i32> {
        let mut out = Vec::with_capacity(self.total_count);
        for (&v, &l) in self.values.iter().zip(&self.lengths) {
            out.extend(std::iter::repeat_n(v, l as usize));
        }
        out
    }

    /// Upload to the device.
    pub fn to_device(&self, dev: &Device) -> RleDevice {
        RleDevice {
            total_count: self.total_count,
            values: dev.alloc_from_slice(&self.values),
            lengths: dev.alloc_from_slice(&self.lengths),
        }
    }
}

/// Device-resident whole-column RLE.
#[derive(Debug)]
pub struct RleDevice {
    /// Logical value count.
    pub total_count: usize,
    /// Run values.
    pub values: GlobalBuffer<i32>,
    /// Run lengths.
    pub lengths: GlobalBuffer<u32>,
}

impl RleDevice {
    /// Bytes a PCIe transfer would move.
    pub fn size_bytes(&self) -> u64 {
        self.values.size_bytes() + self.lengths.size_bytes() + 8
    }
}

/// Decompress with the four global kernel passes.
pub fn decompress(dev: &Device, col: &RleDevice) -> Result<GlobalBuffer<i32>, LaunchError> {
    let n = col.total_count;
    let runs = col.values.len();
    let mut out = dev.alloc_zeroed::<i32>(n);
    if n == 0 {
        return Ok(out);
    }
    let mut offsets = dev.alloc_zeroed::<u32>(runs);
    let mut flags = dev.alloc_zeroed::<u32>(n);
    let mut run_ids = dev.alloc_zeroed::<u32>(n);

    // Pass 1: exclusive prefix sum over run lengths -> output offsets.
    {
        let grid = 160.min(runs.div_ceil(128)).max(1);
        dev.try_launch(
            KernelConfig::new("rle_scan_lengths", grid, 128).regs_per_thread(24),
            |ctx| {
                if ctx.block_id() != 0 {
                    // Real scans are hierarchical; charge the traffic once
                    // on block 0 and let the other blocks model the spread.
                    return;
                }
                let lens = ctx.read_coalesced(&col.lengths, 0, runs);
                ctx.add_int_ops(2 * runs as u64);
                let mut acc = 0u32;
                let offs: Vec<u32> = lens
                    .iter()
                    .map(|&l| {
                        let o = acc;
                        acc += l;
                        o
                    })
                    .collect();
                ctx.write_coalesced(&mut offsets, 0, &offs);
            },
        )?;
    }

    // Pass 2: scatter head flags at each run's start offset.
    {
        let grid = runs.div_ceil(CHUNK).max(1);
        dev.try_launch(
            KernelConfig::new("rle_scatter_flags", grid, 128).regs_per_thread(24),
            |ctx| {
                let lo = ctx.block_id() * CHUNK;
                let hi = (lo + CHUNK).min(runs);
                if lo >= hi {
                    return;
                }
                let offs = ctx.read_coalesced(&offsets, lo, hi - lo);
                for chunk in offs.chunks(32) {
                    let writes: Vec<(usize, u32)> =
                        chunk.iter().map(|&o| (o as usize, 1)).collect();
                    ctx.warp_scatter(&mut flags, &writes);
                }
            },
        )?;
    }

    // Pass 3: inclusive prefix sum over the flags -> 1-based run ids.
    {
        let grid = 160.min(n.div_ceil(128)).max(1);
        dev.try_launch(
            KernelConfig::new("rle_scan_flags", grid, 128).regs_per_thread(24),
            |ctx| {
                if ctx.block_id() != 0 {
                    return;
                }
                let f = ctx.read_coalesced(&flags, 0, n);
                ctx.add_int_ops(2 * n as u64);
                let mut acc = 0u32;
                let ids: Vec<u32> = f
                    .iter()
                    .map(|&x| {
                        acc += x;
                        acc
                    })
                    .collect();
                ctx.write_coalesced(&mut run_ids, 0, &ids);
            },
        )?;
    }

    // Pass 4: gather run values by id.
    {
        let grid = n.div_ceil(CHUNK).max(1);
        dev.try_launch(
            KernelConfig::new("rle_gather_values", grid, 128).regs_per_thread(24),
            |ctx| {
                let lo = ctx.block_id() * CHUNK;
                let hi = (lo + CHUNK).min(n);
                if lo >= hi {
                    return;
                }
                let ids = ctx.read_coalesced(&run_ids, lo, hi - lo);
                let first = ids[0] as usize - 1;
                let last = *ids.last().expect("non-empty") as usize - 1;
                // Consecutive outputs reference monotonically increasing
                // run ids, so the value reads are a contiguous range.
                let vals = ctx.read_coalesced(&col.values, first, last - first + 1);
                let expanded: Vec<i32> = ids
                    .iter()
                    .map(|&id| vals[id as usize - 1 - first])
                    .collect();
                ctx.add_int_ops((hi - lo) as u64 * 2);
                ctx.write_coalesced(&mut out, lo, &expanded);
            },
        )?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let values: Vec<i32> = (0..10_000).map(|i| i / 37).collect();
        let enc = Rle::encode(&values);
        assert_eq!(enc.decode_cpu(), values);
        let dev = Device::v100();
        let out = decompress(&dev, &enc.to_device(&dev)).expect("no fault plan");
        assert_eq!(out.as_slice_unaccounted(), values);
    }

    #[test]
    fn four_kernel_passes() {
        let dev = Device::v100();
        let enc = Rle::encode(&(0..8192).map(|i| i / 8).collect::<Vec<i32>>());
        let dcol = enc.to_device(&dev);
        dev.reset_timeline();
        decompress(&dev, &dcol).expect("no fault plan");
        assert_eq!(dev.with_timeline(|t| t.kernel_launches()), 4);
    }

    #[test]
    fn run_stats() {
        let enc = Rle::encode(&[5, 5, 5, 7, 7, 5]);
        assert_eq!(enc.runs(), 3);
        assert_eq!(enc.values, vec![5, 7, 5]);
        assert_eq!(enc.lengths, vec![3, 2, 1]);
    }

    #[test]
    fn worst_case_is_all_singleton_runs() {
        let values: Vec<i32> = (0..1000).collect();
        let enc = Rle::encode(&values);
        assert_eq!(enc.runs(), 1000);
        // 2 arrays of 4 bytes each: 64 bits/int.
        assert!(enc.bits_per_int() > 63.9);
    }

    #[test]
    fn roundtrip_single_and_empty() {
        let dev = Device::v100();
        for values in [vec![], vec![9i32], vec![3i32; 5000]] {
            let enc = Rle::encode(&values);
            let out = decompress(&dev, &enc.to_device(&dev)).expect("no fault plan");
            assert_eq!(out.as_slice_unaccounted(), values);
        }
    }
}
