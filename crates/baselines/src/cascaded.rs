//! The *cascading decompression model* (paper Figure 2, left): the same
//! GPU-FOR / GPU-DFOR / GPU-RFOR data formats, but decoded one
//! compression layer per kernel, with every intermediate written to and
//! re-read from global memory. These are the `FOR+BitPack`,
//! `Delta+FOR+BitPack` and `RLE+FOR+BitPack` baselines of Figure 7a —
//! the ablation that isolates the benefit of tile-based decompression.

use tlc_core::block::unpack_group;
use tlc_core::gpu_dfor::GpuDForDevice;
use tlc_core::gpu_for::GpuForDevice;
use tlc_core::gpu_rfor::{decode_stream_block, GpuRForDevice};
use tlc_core::{Layout, BLOCK, DEFAULT_D};
use tlc_gpu_sim::{Device, GlobalBuffer, KernelConfig, LaunchError};

/// Kernel 1 of every cascade: bit-unpack the packed layer in the
/// column's `layout`, writing the raw offsets (and leaving references
/// for a later pass).
fn unpack_pass(
    dev: &Device,
    block_starts: &GlobalBuffer<u32>,
    data: &GlobalBuffer<u32>,
    layout: Layout,
    n: usize,
    out: &mut GlobalBuffer<u32>,
    name: &str,
) -> Result<(), LaunchError> {
    let blocks = block_starts.len() - 1;
    let tiles = blocks.div_ceil(DEFAULT_D);
    let cfg = KernelConfig::new(name, tiles, BLOCK)
        .smem_per_block(DEFAULT_D * BLOCK * 4 + 64)
        .regs_per_thread(32);
    dev.try_launch(cfg, |ctx| {
        let first = ctx.block_id() * DEFAULT_D;
        let tile_blocks = DEFAULT_D.min(blocks - first);
        let idx: Vec<usize> = (first..=first + tile_blocks).collect();
        let starts = ctx.warp_gather(block_starts, &idx);
        let s = starts[0] as usize;
        let e = *starts.last().expect("non-empty") as usize;
        ctx.stage_to_shared(data, s, e - s, 0);
        ctx.smem_traffic(tile_blocks as u64 * BLOCK as u64 * 12);
        ctx.add_int_ops(tile_blocks as u64 * BLOCK as u64 * 10);
        let mut vals: Vec<u32> = Vec::with_capacity(tile_blocks * BLOCK);
        let mut raw = [0i32; BLOCK];
        for &start in starts.iter().take(tile_blocks) {
            let block = &ctx.shared()[start as usize - s..];
            unpack_group(&block[2..], block[1], layout, 0, &mut raw);
            vals.extend(raw.iter().map(|&v| v as u32));
        }
        let lo = first * BLOCK;
        let len = vals.len().min(n.saturating_sub(lo));
        ctx.write_coalesced(out, lo, &vals[..len]);
    })?;
    Ok(())
}

/// Kernel 2 of every cascade: add each block's reference back — a full
/// read-modify-write pass over the partially decoded column, plus
/// scattered reads of the block headers.
fn add_reference_pass(
    dev: &Device,
    block_starts: &GlobalBuffer<u32>,
    data: &GlobalBuffer<u32>,
    raw: &GlobalBuffer<u32>,
    n: usize,
    out: &mut GlobalBuffer<i32>,
    name: &str,
) -> Result<(), LaunchError> {
    let blocks = block_starts.len() - 1;
    let chunk = 2048usize;
    let grid = n.div_ceil(chunk).max(1);
    let cfg = KernelConfig::new(name, grid, 128).regs_per_thread(26);
    dev.try_launch(cfg, |ctx| {
        let lo = ctx.block_id() * chunk;
        let hi = (lo + chunk).min(n);
        if lo >= hi {
            return;
        }
        let first_block = lo / BLOCK;
        let last_block = ((hi - 1) / BLOCK).min(blocks - 1);
        let bidx: Vec<usize> = (first_block..=last_block).collect();
        let starts = ctx.warp_gather(block_starts, &bidx);
        // Scattered single-word reads: one transaction per block header.
        let ridx: Vec<usize> = starts.iter().map(|&s| s as usize).collect();
        let refs = ctx.warp_gather(data, &ridx);
        let vals = ctx.read_coalesced(raw, lo, hi - lo);
        ctx.add_int_ops((hi - lo) as u64);
        let decoded: Vec<i32> = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| (refs[(lo + i) / BLOCK - first_block] as i32).wrapping_add(v as i32))
            .collect();
        ctx.write_coalesced(out, lo, &decoded);
    })?;
    Ok(())
}

/// `FOR+BitPack`: two kernel passes (unpack; add reference).
pub fn for_cascaded(dev: &Device, col: &GpuForDevice) -> Result<GlobalBuffer<i32>, LaunchError> {
    let n = col.total_count;
    let mut raw = dev.alloc_zeroed::<u32>(n.div_ceil(BLOCK) * BLOCK);
    let mut out = dev.alloc_zeroed::<i32>(n);
    if n == 0 {
        return Ok(out);
    }
    unpack_pass(
        dev,
        &col.block_starts,
        &col.data,
        col.layout,
        n,
        &mut raw,
        "cascade_for_unpack",
    )?;
    add_reference_pass(
        dev,
        &col.block_starts,
        &col.data,
        &raw,
        n,
        &mut out,
        "cascade_for_ref",
    )?;
    Ok(out)
}

/// `Delta+FOR+BitPack`: three kernel passes (unpack; add reference;
/// per-tile prefix sum + first value), as in Section 9.2.
pub fn dfor_cascaded(dev: &Device, col: &GpuDForDevice) -> Result<GlobalBuffer<i32>, LaunchError> {
    let n = col.total_count;
    let blocks = col.blocks();
    let mut raw = dev.alloc_zeroed::<u32>(blocks * BLOCK);
    let mut deltas = dev.alloc_zeroed::<i32>(blocks * BLOCK);
    let mut out = dev.alloc_zeroed::<i32>(n);
    if n == 0 {
        return Ok(out);
    }
    unpack_pass(
        dev,
        &col.block_starts,
        &col.data,
        col.layout,
        blocks * BLOCK,
        &mut raw,
        "cascade_dfor_unpack",
    )?;
    add_reference_pass(
        dev,
        &col.block_starts,
        &col.data,
        &raw,
        blocks * BLOCK,
        &mut deltas,
        "cascade_dfor_ref",
    )?;

    // Pass 3: per-tile inclusive prefix sum over the decoded deltas
    // plus the tile's first value (the delta scope is the tile, so the
    // scan is segmented at tile granularity).
    let d = col.d;
    let tiles = col.tiles();
    let cfg = KernelConfig::new("cascade_dfor_scan", tiles, BLOCK).regs_per_thread(28);
    dev.try_launch(cfg, |ctx| {
        let t = ctx.block_id();
        let first_block = t * d;
        let tile_blocks = d.min(blocks - first_block);
        let start_word = ctx.warp_gather(&col.block_starts, &[first_block]);
        let first = ctx.warp_gather(&col.data, &[start_word[0] as usize - 1])[0] as i32;
        let lo = first_block * BLOCK;
        let len = tile_blocks * BLOCK;
        let dels = ctx.read_coalesced(&deltas, lo, len);
        ctx.add_int_ops(2 * len as u64);
        let mut acc = first;
        let vals: Vec<i32> = dels
            .iter()
            .map(|&dl| {
                acc = acc.wrapping_add(dl);
                acc
            })
            .collect();
        let keep = len.min(n.saturating_sub(lo));
        ctx.write_coalesced(&mut out, lo, &vals[..keep]);
    })?;
    Ok(out)
}

/// `RLE+FOR+BitPack`: eight kernel passes — four to FOR+BitPack-decode
/// the values and run-lengths streams, four for the global RLE
/// expansion of Fang et al. (Section 9.2).
pub fn rfor_cascaded(dev: &Device, col: &GpuRForDevice) -> Result<GlobalBuffer<i32>, LaunchError> {
    let n = col.total_count;
    let blocks = col.blocks();
    let mut out = dev.alloc_zeroed::<i32>(n);
    if n == 0 {
        return Ok(out);
    }

    // Host-visible run counts per block (the format stores them; the
    // traffic of reading them is charged in the kernels below).
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

    // Passes 1-4: unpack + add-reference for each stream. Modeled as
    // one unpack kernel and one reference kernel per stream, each a
    // full pass over the runs arrays.
    for (pass, name) in [
        (0, "cascade_rfor_unpack_values"),
        (1, "cascade_rfor_unpack_lengths"),
    ] {
        let cfg = KernelConfig::new(name, blocks, 128)
            .smem_per_block(2112)
            .regs_per_thread(30);
        dev.try_launch(cfg, |ctx| {
            let b = ctx.block_id();
            let rc = run_counts[b];
            if pass == 0 {
                let s = vstarts[b] as usize;
                let e = vstarts[b + 1] as usize;
                ctx.stage_to_shared(&col.values_data, s, e - s, 0);
                let vals = decode_stream_block(&ctx.shared()[1..e - s], rc, col.layout);
                ctx.smem_traffic(rc as u64 * 12);
                ctx.add_int_ops(rc as u64 * 8);
                let as_i32: Vec<i32> = vals;
                ctx.write_coalesced(&mut values, run_offsets[b], &as_i32);
            } else {
                let s = lstarts[b] as usize;
                let e = lstarts[b + 1] as usize;
                ctx.stage_to_shared(&col.lengths_data, s, e - s, 0);
                let lens = decode_stream_block(&ctx.shared()[..e - s], rc, col.layout);
                ctx.smem_traffic(rc as u64 * 12);
                ctx.add_int_ops(rc as u64 * 8);
                let as_u32: Vec<u32> = lens.iter().map(|&l| l as u32).collect();
                ctx.write_coalesced(&mut lengths, run_offsets[b], &as_u32);
            }
        })?;
    }
    // Reference passes (read-modify-write over the runs arrays). The
    // unpack above already folded the reference in functionally; these
    // kernels charge the extra traffic the separate layer costs.
    for (pass, name) in [
        (0, "cascade_rfor_ref_values"),
        (1, "cascade_rfor_ref_lengths"),
    ] {
        let chunk = 2048usize;
        let grid = total_runs.div_ceil(chunk).max(1);
        dev.try_launch(
            KernelConfig::new(name, grid, 128).regs_per_thread(24),
            |ctx| {
                let lo = ctx.block_id() * chunk;
                let hi = (lo + chunk).min(total_runs);
                if lo >= hi {
                    return;
                }
                ctx.add_int_ops((hi - lo) as u64);
                if pass == 0 {
                    let v = ctx.read_coalesced(&values, lo, hi - lo);
                    ctx.write_coalesced(&mut values, lo, &v);
                } else {
                    let l = ctx.read_coalesced(&lengths, lo, hi - lo);
                    ctx.write_coalesced(&mut lengths, lo, &l);
                }
            },
        )?;
    }

    // Passes 5-8: the global RLE expansion (scan lengths, scatter
    // flags, scan flags, gather values) — reuse the plain-RLE pipeline.
    let rle = crate::rle::RleDevice {
        total_count: n,
        values: std::mem::replace(&mut values, dev.alloc_zeroed(1)),
        lengths: std::mem::replace(&mut lengths, dev.alloc_zeroed(1)),
    };
    let expanded = crate::rle::decompress(dev, &rle)?;
    out.as_mut_slice_unaccounted()
        .copy_from_slice(expanded.as_slice_unaccounted());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlc_core::{GpuDFor, GpuFor, GpuRFor};

    #[test]
    fn for_cascaded_roundtrip_and_pass_count() {
        let values: Vec<i32> = (0..10_000).map(|i| (i * 7) % 5000 - 100).collect();
        let dev = Device::v100();
        let col = GpuFor::encode(&values).to_device(&dev);
        dev.reset_timeline();
        let out = for_cascaded(&dev, &col).expect("no fault plan");
        assert_eq!(out.as_slice_unaccounted(), values);
        assert_eq!(dev.with_timeline(|t| t.kernel_launches()), 2);
    }

    #[test]
    fn dfor_cascaded_roundtrip_and_pass_count() {
        let values: Vec<i32> = (0..10_000).map(|i| i / 3).collect();
        let dev = Device::v100();
        let col = GpuDFor::encode(&values).to_device(&dev);
        dev.reset_timeline();
        let out = dfor_cascaded(&dev, &col).expect("no fault plan");
        assert_eq!(out.as_slice_unaccounted(), values);
        assert_eq!(dev.with_timeline(|t| t.kernel_launches()), 3);
    }

    #[test]
    fn rfor_cascaded_roundtrip_and_pass_count() {
        let values: Vec<i32> = (0..10_000).map(|i| i / 25).collect();
        let dev = Device::v100();
        let col = GpuRFor::encode(&values).to_device(&dev);
        dev.reset_timeline();
        let out = rfor_cascaded(&dev, &col).expect("no fault plan");
        assert_eq!(out.as_slice_unaccounted(), values);
        assert_eq!(dev.with_timeline(|t| t.kernel_launches()), 8);
    }

    #[test]
    fn cascaded_is_slower_than_tile_based() {
        // Figure 7a: tile-based GPU-FOR beats FOR+BitPack by ~2.6x.
        let values: Vec<i32> = (0..1 << 20)
            .map(|i| ((i as u64 * 48_271) % (1 << 16)) as i32)
            .collect();
        let dev = Device::v100();
        let enc = GpuFor::encode(&values);
        let col = enc.to_device(&dev);

        dev.reset_timeline();
        let _ = tlc_core::gpu_for::decompress(&dev, &col, tlc_core::ForDecodeOpts::default());
        let tile = dev.elapsed_seconds();

        dev.reset_timeline();
        for_cascaded(&dev, &col).expect("no fault plan");
        let cascade = dev.elapsed_seconds();
        let ratio = cascade / tile;
        assert!(ratio > 1.7, "ratio = {ratio}");
    }
}
