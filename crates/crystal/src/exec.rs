//! Execution helpers: fused-kernel launch configuration and the
//! materializing operator-at-a-time executor used to model OmniSci.

use tlc_gpu_sim::{
    all_lanes, ballot, live_lanes, Device, GlobalBuffer, KernelConfig, LaunchError, WARP_SIZE,
};

use crate::query_column::QueryColumn;
use crate::TILE;

/// Launch configuration for a fused tile kernel over `tiles` thread
/// blocks that keeps `live_columns` decoded columns live in registers.
///
/// Register pressure grows with `D × live_columns` — the paper's reason
/// for fixing `D = 4`: "each query has 3-4 output columns and choosing
/// higher values of D leads to register spilling" (Section 4.2).
pub fn fused_config(name: &str, columns: &[&QueryColumn], live_columns: usize) -> KernelConfig {
    let tiles = columns.iter().map(|c| c.tiles()).max().unwrap_or(0);
    let smem = columns
        .iter()
        .map(|c| c.tile_smem())
        .max()
        .unwrap_or(TILE * 4);
    let d = 4;
    let regs = 26 + (3 * d * (1 + live_columns)).div_ceil(2);
    KernelConfig::new(name, tiles, 128)
        .smem_per_block(smem)
        .regs_per_thread(regs)
}

/// Launch configuration for a fused decode→predicate kernel
/// ([`QueryColumn::load_tile_select`]): each tile is consumed as a
/// selection bitmap plus in-register values and never staged back, so
/// instead of `D` decoded values per thread only the running bitmap
/// word and one live value stay resident. The lower register count
/// buys occupancy back relative to [`fused_config`] over the same
/// columns — the saved writeback is what the data-path-fusion line of
/// work measures.
pub fn fused_select_config(name: &str, columns: &[&QueryColumn]) -> KernelConfig {
    let d = 4usize;
    let regs = 26 + (3 * d).div_ceil(2) + 2;
    fused_config(name, columns, 1).regs_per_thread(regs)
}

/// Launch configuration of a **filter part**: one tile kernel serving
/// several members, each a conjunction of range predicates over the
/// part's `columns` and then a sum into `accumulators[member]` slots.
///
/// A one-member part is configured exactly as the kernel it replaces:
/// [`fused_select_config`] when a member consumes its column as it
/// loads (`live_columns` = 1, a count and a sum), [`fused_config`] over
/// `live_columns` when two columns stay live to the aggregate (a sum of
/// products). That configuration already holds its member's ballot
/// word and accumulators; every further member adds its own: one
/// register for the ballot word it carries through its conjunction and
/// one per accumulator (a thread's partial over its `D` values). There
/// is no cap: past the spill threshold the part pays the spill, which
/// is what stops a merged part from paying (DESIGN.md §3).
pub fn filter_config(
    name: &str,
    columns: &[&QueryColumn],
    live_columns: usize,
    accumulators: &[usize],
) -> KernelConfig {
    let (base, held) = if live_columns <= 1 {
        (fused_select_config(name, columns), 1 + 2)
    } else {
        (fused_config(name, columns, live_columns), 1 + 1)
    };
    let members: usize = accumulators.iter().map(|slots| 1 + slots).sum();
    let regs = base.regs_per_thread + members.saturating_sub(held);
    base.regs_per_thread(regs)
}

/// Operator-at-a-time building blocks (the OmniSci model): every
/// operator is its own kernel and materializes its full output to
/// global memory before the next operator starts. A launch an armed
/// fault plan fails is a typed [`LaunchError`].
pub mod materialize {
    use super::*;
    use crate::hash::DenseTable;

    /// Rows per thread block in materializing kernels.
    const CHUNK: usize = 2048;

    /// Shared memory per block for the materializing kernels. OmniSci's
    /// JIT-generated operator kernels are resource-heavy and run at low
    /// occupancy without saturating memory bandwidth (measured by the
    /// Crystal study [40], and visible in the paper's 12× Figure 11
    /// gap); modeling them as occupancy-limited captures that.
    const OMS_SMEM: usize = 48 * 1024;

    fn oms_config(name: &str, grid: usize) -> KernelConfig {
        KernelConfig::new(name, grid, 128)
            .smem_per_block(OMS_SMEM)
            .regs_per_thread(48)
    }

    /// Selection: read a column, write a byte-mask.
    pub fn filter(
        dev: &Device,
        name: &str,
        col: &GlobalBuffer<i32>,
        prev: Option<&GlobalBuffer<u8>>,
        pred: impl Fn(i32) -> bool,
    ) -> Result<GlobalBuffer<u8>, LaunchError> {
        let n = col.len();
        let mut sel = dev.alloc_zeroed::<u8>(n);
        let grid = n.div_ceil(CHUNK).max(1);
        dev.try_launch(oms_config(name, grid), |ctx| {
            let lo = ctx.block_id() * CHUNK;
            let hi = (lo + CHUNK).min(n);
            if lo >= hi {
                return;
            }
            let vals = ctx.read_coalesced(col, lo, hi - lo);
            let mask: Vec<u8> = match prev {
                Some(p) => {
                    let pm = ctx.read_coalesced(p, lo, hi - lo);
                    vals.iter()
                        .zip(&pm)
                        .map(|(&v, &m)| u8::from(m != 0 && pred(v)))
                        .collect()
                }
                None => vals.iter().map(|&v| u8::from(pred(v))).collect(),
            };
            ctx.add_int_ops((hi - lo) as u64 * 2);
            ctx.write_coalesced(&mut sel, lo, &mask);
        })?;
        Ok(sel)
    }

    /// Join: read a foreign-key column and a selection mask, probe the
    /// table, write the payload column and the surviving mask (payloads
    /// are exact where the mask is set, filler elsewhere).
    pub fn probe(
        dev: &Device,
        name: &str,
        fk: &GlobalBuffer<i32>,
        table: &DenseTable,
        prev: Option<&GlobalBuffer<u8>>,
    ) -> Result<(GlobalBuffer<i32>, GlobalBuffer<u8>), LaunchError> {
        let n = fk.len();
        let mut payload = dev.alloc_zeroed::<i32>(n);
        let mut sel = dev.alloc_zeroed::<u8>(n);
        let grid = n.div_ceil(CHUNK).max(1);
        dev.try_launch(oms_config(name, grid), |ctx| {
            let lo = ctx.block_id() * CHUNK;
            let hi = (lo + CHUNK).min(n);
            if lo >= hi {
                return;
            }
            let keys = ctx.read_coalesced(fk, lo, hi - lo);
            // The byte mask becomes ballot words for the probe and a
            // byte mask again on the way out; the payload of a lane
            // outside the outgoing mask is filler.
            let mut words = Vec::new();
            match prev {
                Some(p) => {
                    let mask = ctx.read_coalesced(p, lo, hi - lo);
                    words.extend(
                        mask.chunks(WARP_SIZE)
                            .map(|lanes| ballot(lanes.iter().map(|&m| m != 0))),
                    );
                }
                None => all_lanes(hi - lo, &mut words),
            }
            let mut pay = vec![0i32; hi - lo];
            table.probe(ctx, &keys, &mut words, &mut pay);
            let mut out_mask = vec![0u8; hi - lo];
            for lane in live_lanes(&words) {
                out_mask[lane] = 1;
            }
            ctx.write_coalesced(&mut payload, lo, &pay);
            ctx.write_coalesced(&mut sel, lo, &out_mask);
        })?;
        Ok((payload, sel))
    }

    /// Full-intermediate materialization: after each operator OmniSci
    /// writes the projected downstream columns to global memory and the
    /// next operator reads them back (no late materialization). One
    /// kernel: read every column + the mask, write every column.
    pub fn project(
        dev: &Device,
        name: &str,
        cols: &[&GlobalBuffer<i32>],
        sel: &GlobalBuffer<u8>,
    ) -> Result<Vec<GlobalBuffer<i32>>, LaunchError> {
        let n = sel.len();
        let mut outs: Vec<GlobalBuffer<i32>> =
            cols.iter().map(|c| dev.alloc_zeroed(c.len())).collect();
        let grid = n.div_ceil(CHUNK).max(1);
        dev.try_launch(oms_config(name, grid), |ctx| {
            let lo = ctx.block_id() * CHUNK;
            let hi = (lo + CHUNK).min(n);
            if lo >= hi {
                return;
            }
            let _ = ctx.read_coalesced(sel, lo, hi - lo);
            for (c, o) in cols.iter().zip(outs.iter_mut()) {
                let vals = ctx.read_coalesced(c, lo, hi - lo);
                ctx.write_coalesced(o, lo, &vals);
            }
            ctx.add_int_ops((hi - lo) as u64);
        })?;
        Ok(outs)
    }

    /// Final aggregation pass: read `inputs` and the mask, fold each
    /// surviving row into a group sum via `f(row) -> (group, value)`.
    pub fn aggregate(
        dev: &Device,
        name: &str,
        inputs: &[&GlobalBuffer<i32>],
        sel: &GlobalBuffer<u8>,
        groups: usize,
        f: impl Fn(&[i32]) -> (usize, u64),
    ) -> Result<crate::agg::GroupBySum, LaunchError> {
        let n = sel.len();
        let mut agg = crate::agg::GroupBySum::new(dev, groups);
        let grid = n.div_ceil(CHUNK).max(1);
        dev.try_launch(oms_config(name, grid), |ctx| {
            let lo = ctx.block_id() * CHUNK;
            let hi = (lo + CHUNK).min(n);
            if lo >= hi {
                return;
            }
            let mask = ctx.read_coalesced(sel, lo, hi - lo);
            let cols: Vec<Vec<i32>> = inputs
                .iter()
                .map(|c| ctx.read_coalesced(c, lo, hi - lo))
                .collect();
            let mut row = vec![0i32; inputs.len()];
            let mut pairs = Vec::new();
            for i in 0..hi - lo {
                if mask[i] != 0 {
                    for (j, c) in cols.iter().enumerate() {
                        row[j] = c[i];
                    }
                    pairs.push(f(&row));
                }
            }
            ctx.add_int_ops((hi - lo) as u64 * 3);
            for chunk in pairs.chunks(WARP_SIZE) {
                agg.add_tile(ctx, chunk);
            }
        })?;
        Ok(agg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::DenseTable;

    #[test]
    fn fused_config_register_model() {
        let dev = Device::v100();
        let col = QueryColumn::plain(&dev, &vec![0; 10_000]);
        let light = fused_config("q", &[&col], 2);
        assert!(
            light.regs_per_thread <= 64,
            "regs = {}",
            light.regs_per_thread
        );
        let heavy = fused_config("q", &[&col], 8);
        assert!(
            heavy.regs_per_thread > 64,
            "regs = {}",
            heavy.regs_per_thread
        );
    }

    #[test]
    fn fused_select_is_lighter_than_fused_load() {
        // The bitmap pipeline keeps fewer values live than a full fused
        // kernel over the same column, so its blocks are cheaper.
        let dev = Device::v100();
        let col = QueryColumn::plain(&dev, &vec![0; 10_000]);
        let select = fused_select_config("s", &[&col]);
        let load = fused_config("s", &[&col], 1);
        assert!(
            select.regs_per_thread < load.regs_per_thread,
            "select {} >= load {}",
            select.regs_per_thread,
            load.regs_per_thread
        );
    }

    #[test]
    fn materialized_pipeline_matches_scalar_reference() {
        let dev = Device::v100();
        let n = 5000;
        let fk: Vec<i32> = (0..n).map(|i| (i % 100) as i32 + 1).collect();
        let qty: Vec<i32> = (0..n).map(|i| (i % 50) as i32).collect();
        let fk_buf = dev.alloc_from_slice(&fk);
        let qty_buf = dev.alloc_from_slice(&qty);

        let rows: Vec<(i32, Option<i32>)> =
            (1..=100).map(|k| (k, (k <= 50).then_some(k % 7))).collect();
        let table = DenseTable::build(&dev, "dim", 1, 100, &rows, 800);

        let sel = materialize::filter(&dev, "filter_qty", &qty_buf, None, |v| v < 25)
            .expect("no fault plan");
        let (pay, sel2) = materialize::probe(&dev, "probe_dim", &fk_buf, &table, Some(&sel))
            .expect("no fault plan");
        let agg = materialize::aggregate(&dev, "agg", &[&pay, &qty_buf], &sel2, 7, |row| {
            (row[0] as usize, row[1] as u64)
        })
        .expect("no fault plan");

        // Scalar reference.
        let mut expect = vec![0u64; 7];
        for i in 0..n {
            if qty[i] < 25 && fk[i] <= 50 {
                expect[(fk[i] % 7) as usize] += qty[i] as u64;
            }
        }
        assert_eq!(agg.values(), expect.as_slice());
    }
}
