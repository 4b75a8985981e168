//! Dimension-table hash joins.
//!
//! SSB dimension keys are dense (1..n), so Crystal-style engines build
//! *perfect* hash tables: slot `key - base` holds the join payload (or
//! a sentinel when the dimension row fails its filter). Build is one
//! streaming kernel over the dimension; probe is a warp gather from
//! inside the fused fact-table kernel — the random-access pattern whose
//! coalescing the simulator accounts faithfully.

use tlc_gpu_sim::{BlockCtx, Device, GlobalBuffer, KernelConfig, LaunchError, Phase, WARP_SIZE};

/// Sentinel slot value: dimension row absent or filtered out.
const EMPTY: i32 = i32::MIN;

/// A dense (perfect) join table from dimension key → payload.
#[derive(Debug)]
pub struct DenseTable {
    /// Smallest key.
    pub base: i32,
    slots: GlobalBuffer<i32>,
}

impl DenseTable {
    /// Build from host-side dimension data: `rows` yields `(key,
    /// Option<payload>)`; `None` payloads mark filtered-out rows.
    /// Launches one build kernel whose traffic covers reading the
    /// dimension columns and writing the table.
    pub fn build(
        dev: &Device,
        name: &str,
        base: i32,
        max_key: i32,
        rows: &[(i32, Option<i32>)],
        dim_bytes_read: u64,
    ) -> DenseTable {
        Self::try_build(dev, name, base, max_key, rows, dim_bytes_read)
            .unwrap_or_else(|e| panic!("build_{name} failed: {e}"))
    }

    /// Fallible [`DenseTable::build`]: a device fault surfaces as a
    /// [`LaunchError`] instead of a panic, so resilient executors can
    /// retry or fail the shard over.
    pub fn try_build(
        dev: &Device,
        name: &str,
        base: i32,
        max_key: i32,
        rows: &[(i32, Option<i32>)],
        dim_bytes_read: u64,
    ) -> Result<DenseTable, LaunchError> {
        let len = (max_key - base + 1) as usize;
        let mut slots = dev.alloc_zeroed::<i32>(len);
        slots.as_mut_slice_unaccounted().fill(EMPTY);
        // Stand-in allocation for the dimension columns the build scans
        // (key + filter + payload columns); sized by the caller so the
        // read traffic is exact.
        let dim_bytes = dev.alloc_zeroed::<u8>(dim_bytes_read as usize);
        let chunk = 2048usize;
        let grid = rows.len().div_ceil(chunk).max(1);
        let cfg = KernelConfig::new(format!("build_{name}"), grid, 128).regs_per_thread(24);
        dev.try_launch(cfg, |ctx| {
            let lo = ctx.block_id() * chunk;
            let hi = (lo + chunk).min(rows.len());
            if lo >= hi {
                return;
            }
            // Read this slice's share of the dimension columns.
            let blo = lo * dim_bytes.len() / rows.len();
            let bhi = hi * dim_bytes.len() / rows.len();
            if bhi > blo {
                ctx.read_coalesced_with(&dim_bytes, blo, bhi - blo, |_| ());
            }
            ctx.add_int_ops((hi - lo) as u64 * 4);
            let writes: Vec<(usize, i32)> = rows[lo..hi]
                .iter()
                .filter_map(|&(k, p)| p.map(|payload| ((k - base) as usize, payload)))
                .collect();
            ctx.warp_scatter(&mut slots, &writes);
        })?;
        Ok(DenseTable { base, slots })
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the table has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Probe a tile of foreign keys from inside a kernel: for each
    /// *selected* lane, gather the slot and return its payload (`None`
    /// for misses). Unselected lanes don't issue loads — but they also
    /// don't save transactions unless a whole warp is inactive, exactly
    /// as on hardware.
    pub fn probe(
        &self,
        ctx: &mut BlockCtx<'_>,
        keys: &[i32],
        selected: &[bool],
        out: &mut Vec<Option<i32>>,
    ) {
        debug_assert_eq!(keys.len(), selected.len());
        ctx.set_phase(Phase::Predicate);
        out.clear();
        out.reserve(keys.len());
        for (kw, sw) in keys.chunks(WARP_SIZE).zip(selected.chunks(WARP_SIZE)) {
            // The warp's active lanes, compacted: slot indices in, slot
            // contents out, both on the stack. Compaction and expansion
            // advance a cursor by the lane's flag instead of branching
            // on it (selections are not predictable). A warp with no
            // active lane issues nothing. (An unselected lane's key is
            // filler: its index is computed, wrapping, and overwritten.)
            let mut idx = [0usize; WARP_SIZE];
            let mut active = 0;
            for (&k, &s) in kw.iter().zip(sw) {
                idx[active] = k.wrapping_sub(self.base) as usize;
                active += usize::from(s);
            }
            let mut hits = [EMPTY; WARP_SIZE];
            ctx.warp_gather_into(
                &self.slots,
                idx[..active].iter().copied(),
                &mut hits[..active],
            );
            let mut next = 0;
            out.extend(sw.iter().map(|&s| {
                let v = hits[next];
                next += usize::from(s);
                (s && v != EMPTY).then_some(v)
            }));
        }
        ctx.add_int_ops(keys.len() as u64 * 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlc_gpu_sim::KernelConfig;

    fn table(dev: &Device) -> DenseTable {
        let rows: Vec<(i32, Option<i32>)> = (1..=100)
            .map(|k| (k, (k % 2 == 0).then_some(k * 10)))
            .collect();
        DenseTable::build(dev, "t", 1, 100, &rows, 400)
    }

    #[test]
    fn probe_hits_and_misses() {
        let dev = Device::v100();
        let t = table(&dev);
        let mut out = Vec::new();
        dev.launch(KernelConfig::new("probe", 1, 128), |ctx| {
            let keys = vec![2, 3, 4, 100];
            let sel = vec![true, true, true, true];
            t.probe(ctx, &keys, &sel, &mut out);
        });
        assert_eq!(out, vec![Some(20), None, Some(40), Some(1000)]);
    }

    #[test]
    fn unselected_lanes_probe_nothing() {
        let dev = Device::v100();
        let t = table(&dev);
        let mut out = Vec::new();
        dev.reset_timeline();
        dev.launch(KernelConfig::new("probe", 1, 128), |ctx| {
            let keys = vec![2; 64];
            let sel = vec![false; 64];
            t.probe(ctx, &keys, &sel, &mut out);
        });
        assert_eq!(out, vec![None; 64]);
    }

    #[test]
    fn selective_probe_issues_fewer_transactions() {
        let dev = Device::v100();
        let t = table(&dev);
        let run = |sel_every: usize| {
            dev.reset_timeline();
            dev.launch(KernelConfig::new("probe", 1, 128), |ctx| {
                let keys: Vec<i32> = (0..1024).map(|i| (i % 100) + 1).collect();
                let sel: Vec<bool> = (0..1024).map(|i| i % sel_every == 0).collect();
                let mut out = Vec::new();
                t.probe(ctx, &keys, &sel, &mut out);
            });
            dev.with_timeline(|tl| tl.total_traffic().global_read_segments)
        };
        assert!(run(64) < run(1));
    }
}
