//! Dimension-table hash joins.
//!
//! SSB dimension keys are dense (1..n), so Crystal-style engines build
//! *perfect* hash tables: slot `key - base` holds the join payload (or
//! a sentinel when the dimension row fails its filter). Build is one
//! streaming pass over the dimension, a **part** of a launch
//! ([`DenseTable::build_part`]) so that every table a wave needs is
//! built by one launch; probe is a warp gather from inside the fused
//! fact-table kernel — the random-access pattern whose coalescing the
//! simulator accounts faithfully.

use tlc_gpu_sim::{
    ballot, BlockCtx, Device, GlobalBuffer, KernelConfig, LaunchPart, Phase, WARP_SIZE,
};

/// Sentinel slot value: dimension row absent or filtered out.
const EMPTY: i32 = i32::MIN;

/// Dimension rows one build block streams.
const BUILD_CHUNK: usize = 2048;

/// A dense (perfect) join table from dimension key → payload.
#[derive(Debug)]
pub struct DenseTable {
    /// Smallest key.
    pub base: i32,
    slots: GlobalBuffer<i32>,
}

impl DenseTable {
    /// A table over the keys `base..=max_key` in which every probe
    /// misses, until a launch runs its [`DenseTable::build_part`].
    pub fn empty(dev: &Device, base: i32, max_key: i32) -> DenseTable {
        let len = (max_key - base + 1) as usize;
        let mut slots = dev.alloc_zeroed::<i32>(len);
        slots.as_mut_slice_unaccounted().fill(EMPTY);
        DenseTable { base, slots }
    }

    /// The build of this table from host-side dimension data, as one
    /// part (`build_{name}`) of a launch: `rows` yields `(key,
    /// Option<payload>)`; `None` payloads mark filtered-out rows. The
    /// part's traffic covers reading `dim_bytes_read` bytes of
    /// dimension columns (key + filter + payload columns; sized by the
    /// caller so the read traffic is exact) and writing the table.
    pub fn build_part<'a>(
        &'a mut self,
        dev: &Device,
        name: &str,
        rows: &'a [(i32, Option<i32>)],
        dim_bytes_read: u64,
    ) -> LaunchPart<'a> {
        // Stand-in allocation for the dimension columns the build scans.
        let dim_bytes = dev.alloc_zeroed::<u8>(dim_bytes_read as usize);
        let grid = rows.len().div_ceil(BUILD_CHUNK).max(1);
        let cfg = KernelConfig::new(format!("build_{name}"), grid, 128).regs_per_thread(24);
        let base = self.base;
        let slots = &mut self.slots;
        LaunchPart::new(
            cfg,
            || (),
            move |(), ctx| {
                let lo = ctx.block_id() * BUILD_CHUNK;
                let hi = (lo + BUILD_CHUNK).min(rows.len());
                if lo >= hi {
                    return Vec::new();
                }
                // Read this slice's share of the dimension columns.
                let blo = lo * dim_bytes.len() / rows.len();
                let bhi = hi * dim_bytes.len() / rows.len();
                if bhi > blo {
                    ctx.read_coalesced_with(&dim_bytes, blo, bhi - blo, |_| ());
                }
                ctx.add_int_ops((hi - lo) as u64 * 4);
                rows[lo..hi]
                    .iter()
                    .filter_map(|&(k, p)| p.map(|payload| ((k - base) as usize, payload)))
                    .collect::<Vec<(usize, i32)>>()
            },
            move |ctx, _block, writes| ctx.warp_scatter(slots, &writes),
        )
    }

    /// Build a table with a launch of its own (the one-part case of
    /// [`DenseTable::build_part`]). Panics on a device fault.
    pub fn build(
        dev: &Device,
        name: &str,
        base: i32,
        max_key: i32,
        rows: &[(i32, Option<i32>)],
        dim_bytes_read: u64,
    ) -> DenseTable {
        let mut table = DenseTable::empty(dev, base, max_key);
        let part = table.build_part(dev, name, rows, dim_bytes_read);
        dev.try_launch_parts("", vec![part])
            .unwrap_or_else(|e| panic!("build_{name} failed: {e}"));
        table
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the table has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Probe a tile of foreign keys from inside a kernel.
    ///
    /// `sel` is the tile's selection as ballot words (one `u32` per
    /// warp of 32 keys, see [`tlc_gpu_sim::live_lanes`]), updated in
    /// place: a selected lane whose key hits keeps its bit and gets
    /// its payload written to `pays[lane]`; a miss — a filtered-out
    /// dimension row, or a key outside the table's range, which issues
    /// no load at all — clears its bit. `pays` of a lane left dead is
    /// unspecified. Words missing from a short `sel` are dead warps.
    ///
    /// Unselected lanes don't issue loads — but they also don't save
    /// transactions unless a whole warp is inactive, exactly as on
    /// hardware: a dead warp costs nothing, a live one is charged the
    /// distinct segments its live lanes touch.
    pub fn probe(&self, ctx: &mut BlockCtx<'_>, keys: &[i32], sel: &mut [u32], pays: &mut [i32]) {
        debug_assert_eq!(keys.len(), pays.len());
        ctx.set_phase(Phase::Predicate);
        let slots = self.slots.len();
        for ((kw, pw), word) in keys
            .chunks(WARP_SIZE)
            .zip(pays.chunks_mut(WARP_SIZE))
            .zip(sel.iter_mut())
        {
            if *word == 0 {
                continue;
            }
            // Slot index per lane and the ballot of the lanes whose key
            // the table covers. (An unselected lane's key is filler:
            // its index is computed, wrapping, and never used.)
            let mut idx = [0usize; WARP_SIZE];
            for (i, &k) in idx.iter_mut().zip(kw) {
                *i = k.wrapping_sub(self.base) as u32 as usize;
            }
            let idx = &idx[..kw.len()];
            let live = *word & ballot(idx.iter().map(|&i| i < slots));
            ctx.warp_gather_masked(&self.slots, live, idx, pw);
            *word = live & ballot(pw.iter().map(|&p| p != EMPTY));
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
        let (mut sel, mut pays) = (vec![0b1111], vec![0; 4]);
        dev.launch(KernelConfig::new("probe", 1, 128), |ctx| {
            t.probe(ctx, &[2, 3, 4, 100], &mut sel, &mut pays);
        });
        assert_eq!(sel, [0b1101]);
        assert_eq!((pays[0], pays[2], pays[3]), (20, 40, 1000));
    }

    #[test]
    fn unselected_lanes_probe_nothing() {
        let dev = Device::v100();
        let t = table(&dev);
        let (mut sel, mut pays) = (vec![0; 2], vec![7; 64]);
        let report = dev.launch(KernelConfig::new("probe", 1, 128), |ctx| {
            t.probe(ctx, &[2; 64], &mut sel, &mut pays);
        });
        assert_eq!(sel, [0, 0]);
        assert_eq!(pays, [7; 64], "dead warps write nothing");
        assert_eq!(report.traffic.global_read_segments, 0);
    }

    /// The ballot-word probe against a per-lane scalar reference, for
    /// tile lengths around every word boundary: random selections, a
    /// selection one word short, all-dead and all-live warps, and keys
    /// on both sides of the table's range.
    #[test]
    fn probe_matches_a_per_lane_reference() {
        use tlc_gpu_sim::memory::gather_segments;
        use tlc_gpu_sim::{all_lanes, live_lanes};
        let mut rng = tlc_rng::Rng::seed_from_u64(0xBA_1107);
        let dev = Device::v100();
        let t = table(&dev);
        for n in [0usize, 1, 31, 32, 33, 511, 512] {
            for shape in ["random", "short", "dead", "live", "one live warp"] {
                let keys: Vec<i32> = (0..n).map(|_| rng.gen_range(-3..=104)).collect();
                let mut sel = Vec::new();
                all_lanes(n, &mut sel);
                match shape {
                    "random" => sel.iter_mut().for_each(|w| *w &= rng.next_u64() as u32),
                    "short" => {
                        sel.iter_mut().for_each(|w| *w &= rng.next_u64() as u32);
                        sel.pop();
                    }
                    "dead" => sel.fill(0),
                    "one live warp" => {
                        let keep = sel.len() / 2;
                        for (w, word) in sel.iter_mut().enumerate() {
                            *word &= if w == keep { u32::MAX } else { 0 };
                        }
                    }
                    _ => {}
                }
                // Per lane: selected, in range, slot not empty.
                let selected: Vec<usize> = live_lanes(&sel).collect();
                let slot_of = |k: i32| (1..=100).contains(&k).then(|| (k - 1) as usize);
                let want: Vec<(usize, i32)> = selected
                    .iter()
                    .filter(|&&i| slot_of(keys[i]).is_some() && keys[i] % 2 == 0)
                    .map(|&i| (i, keys[i] * 10))
                    .collect();
                let want_segments: usize = (0..n.div_ceil(WARP_SIZE))
                    .map(|w| {
                        let addrs: Vec<u64> = selected
                            .iter()
                            .filter(|&&i| i / WARP_SIZE == w)
                            .filter_map(|&i| Some(t.slots.addr_of(slot_of(keys[i])?)))
                            .collect();
                        gather_segments(&addrs, 4).len()
                    })
                    .sum();

                let mut pays = vec![-1; n];
                let report = dev.launch(KernelConfig::new("probe", 1, 128), |ctx| {
                    t.probe(ctx, &keys, &mut sel, &mut pays);
                    assert_eq!(ctx.current_phase(), Phase::Predicate);
                });
                let got: Vec<(usize, i32)> = live_lanes(&sel).map(|i| (i, pays[i])).collect();
                assert_eq!(got, want, "n = {n}, {shape}");
                assert_eq!(
                    report.traffic.global_read_segments, want_segments as u64,
                    "n = {n}, {shape}"
                );
                assert_eq!(report.traffic.int_ops, n as u64 * 2, "n = {n}, {shape}");
            }
        }
    }

    #[test]
    fn selective_probe_issues_fewer_transactions() {
        let dev = Device::v100();
        let t = table(&dev);
        let run = |sel_every: usize| {
            dev.reset_timeline();
            dev.launch(KernelConfig::new("probe", 1, 128), |ctx| {
                let keys: Vec<i32> = (0..1024).map(|i| (i % 100) + 1).collect();
                let mut sel = vec![0u32; 32];
                for i in (0..1024).step_by(sel_every) {
                    sel[i / 32] |= 1 << (i % 32);
                }
                t.probe(ctx, &keys, &mut sel, &mut vec![0; 1024]);
            });
            dev.with_timeline(|tl| tl.total_traffic().global_read_segments)
        };
        assert!(run(64) < run(1));
    }
}
