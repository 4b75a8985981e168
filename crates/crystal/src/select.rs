//! Fused selection with compacted output (Crystal's
//! `BlockPred` + `BlockScan` + `BlockStore` pipeline).
//!
//! One kernel: each thread block decodes its tile (inline when the
//! column is compressed), evaluates the predicate, computes write
//! offsets with a block-wide exclusive scan, claims a contiguous
//! region of the output with a single global atomic per block, and
//! stores the survivors coalesced. Output order is
//! tile-major — deterministic here because the simulator executes
//! blocks in order, unordered on real hardware (as with Crystal).

use tlc_core::DecodeError;
use tlc_gpu_sim::scan::block_exclusive_scan_u32;
use tlc_gpu_sim::{live_lanes, Device, GlobalBuffer, Phase};

use crate::exec::fused_select_config;
use crate::query_column::QueryColumn;

/// Select the values of `col` satisfying `pred` into a compacted
/// device buffer; returns `(output, count)`.
///
/// Decode and predicate are fused via
/// [`QueryColumn::load_tile_select`]: the predicate is evaluated as
/// miniblocks unpack and only the survivors are ever written to global
/// memory — a tile with no survivors incurs zero writeback traffic.
pub fn select(
    dev: &Device,
    col: &QueryColumn,
    pred: impl Fn(i32) -> bool,
) -> Result<(GlobalBuffer<i32>, usize), DecodeError> {
    let n = col.total_count();
    let mut out = dev.alloc_zeroed::<i32>(n);
    let mut cursor = dev.alloc_zeroed::<u64>(1);
    let mut tile = Vec::new();
    let mut sel = Vec::new();
    let cfg = fused_select_config("select_compact", &[col]);
    let mut failed: Option<DecodeError> = None;
    dev.try_launch(cfg, |ctx| {
        if failed.is_some() {
            return;
        }
        let t = ctx.block_id();
        // BlockPred fused into the tile load: decode straight into the
        // selection bitmap.
        let len = match col.load_tile_select(ctx, t, &pred, None, &mut sel, &mut tile) {
            Ok(len) => len,
            Err(e) => {
                failed = Some(e);
                return;
            }
        };
        // BlockScan: exclusive scan -> local write offsets + total.
        let mut flags = vec![0u32; len];
        for lane in live_lanes(&sel) {
            flags[lane] = 1;
        }
        let kept = block_exclusive_scan_u32(ctx, &mut flags) as usize;
        if kept == 0 {
            return;
        }
        // One atomic claims the block's output region.
        let base = cursor.as_slice_unaccounted()[0] as usize;
        ctx.warp_atomic_add_u64(&mut cursor, &[(0, kept as u64)]);
        // BlockStore: coalesced write of the survivors only.
        ctx.set_phase(Phase::Writeback);
        let survivors: Vec<i32> = live_lanes(&sel).map(|lane| tile[lane]).collect();
        ctx.write_coalesced(&mut out, base, &survivors);
    })
    .map_err(DecodeError::Launch)?;
    if let Some(e) = failed {
        return Err(e);
    }
    let count = cursor.as_slice_unaccounted()[0] as usize;
    Ok((out, count))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlc_core::EncodedColumn;

    fn expected(values: &[i32], pred: impl Fn(i32) -> bool) -> Vec<i32> {
        values.iter().copied().filter(|&v| pred(v)).collect()
    }

    #[test]
    fn selects_from_plain_column() {
        let values: Vec<i32> = (0..5000).collect();
        let dev = Device::v100();
        let col = QueryColumn::plain(&dev, &values);
        let (out, count) = select(&dev, &col, |v| v % 7 == 0).expect("select");
        assert_eq!(
            &out.as_slice_unaccounted()[..count],
            expected(&values, |v| v % 7 == 0).as_slice()
        );
    }

    #[test]
    fn selects_with_inline_decompression() {
        let values: Vec<i32> = (0..5000).map(|i| i / 3).collect();
        let dev = Device::v100();
        let col = QueryColumn::Encoded(EncodedColumn::encode_best(&values).to_device(&dev));
        let (out, count) = select(&dev, &col, |v| v > 1000).expect("select");
        assert_eq!(
            &out.as_slice_unaccounted()[..count],
            expected(&values, |v| v > 1000).as_slice()
        );
    }

    #[test]
    fn empty_selection() {
        let values: Vec<i32> = (0..3000).collect();
        let dev = Device::v100();
        let col = QueryColumn::plain(&dev, &values);
        let (_, count) = select(&dev, &col, |_| false).expect("select");
        assert_eq!(count, 0);
    }

    #[test]
    fn full_selection() {
        let values: Vec<i32> = (0..3000).map(|i| i % 50).collect();
        let dev = Device::v100();
        let col = QueryColumn::plain(&dev, &values);
        let (out, count) = select(&dev, &col, |_| true).expect("select");
        assert_eq!(count, values.len());
        assert_eq!(&out.as_slice_unaccounted()[..count], values.as_slice());
    }

    #[test]
    fn selective_filter_writes_less() {
        let values: Vec<i32> = (0..1 << 16).collect();
        let dev = Device::v100();
        let col = QueryColumn::plain(&dev, &values);
        let writes = |every: i32| {
            dev.reset_timeline();
            let _ = select(&dev, &col, move |v| v % every == 0);
            dev.with_timeline(|t| t.total_traffic().global_write_segments)
        };
        assert!(writes(100) < writes(2));
    }
}
