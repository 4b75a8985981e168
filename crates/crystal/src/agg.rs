//! Aggregation primitives.

use tlc_gpu_sim::{BlockCtx, Device, GlobalBuffer, Phase, WARP_SIZE};

/// Charge a block-wide reduction of `n` values to one (Crystal's
/// `BlockSum`): the adds, the depth of the shared-memory tree on top
/// of them, and the tree's traffic.
pub fn block_reduce(ctx: &mut BlockCtx<'_>, n: u64) {
    ctx.add_int_ops(n + 8);
    ctx.smem_traffic(2 * WARP_SIZE as u64 * 8);
}

/// A single running sum: each thread block reduces its tile locally
/// (shared-memory tree) and issues one atomic to global memory —
/// Crystal's block-wide reduction.
#[derive(Debug)]
pub struct ScalarSum {
    acc: GlobalBuffer<u64>,
}

impl ScalarSum {
    /// Allocate a zeroed accumulator.
    pub fn new(dev: &Device) -> Self {
        ScalarSum {
            acc: dev.alloc_zeroed::<u64>(1),
        }
    }

    /// Block-local reduction of `values` + one global atomic.
    pub fn add_tile(&mut self, ctx: &mut BlockCtx<'_>, values: impl Iterator<Item = u64>) {
        ctx.set_phase(Phase::Aggregate);
        let mut local = 0u64;
        let mut n = 0u64;
        for v in values {
            local = local.wrapping_add(v);
            n += 1;
        }
        block_reduce(ctx, n);
        ctx.warp_atomic_add_u64(&mut self.acc, &[(0, local)]);
    }

    /// Final value.
    pub fn value(&self) -> u64 {
        self.acc.as_slice_unaccounted()[0]
    }
}

/// A fixed-domain group-by sum: `sums[group]` accumulated with global
/// atomics (the SSB group-by domains — year × brand, year × nation — are
/// small dense grids, which is how Crystal implements them).
#[derive(Debug)]
pub struct GroupBySum {
    sums: GlobalBuffer<u64>,
    /// Host-side: groups a pair found at zero (with repeats). Every
    /// group whose sum is not zero is in here, so reading the answer
    /// out never walks the domain, which for q4.3 is 1.75 M slots
    /// around two dozen groups.
    touched: Vec<usize>,
}

impl GroupBySum {
    /// Allocate `groups` zeroed slots.
    pub fn new(dev: &Device, groups: usize) -> Self {
        GroupBySum {
            sums: dev.alloc_zeroed::<u64>(groups),
            touched: Vec::new(),
        }
    }

    /// Accumulate `(group, value)` pairs from one tile. Pairs are
    /// applied warp-wise; colliding groups within a warp coalesce into
    /// the same transaction, as on hardware.
    pub fn add_tile(&mut self, ctx: &mut BlockCtx<'_>, pairs: &[(usize, u64)]) {
        ctx.set_phase(Phase::Aggregate);
        let sums = self.sums.as_slice_unaccounted();
        let at_zero = pairs.iter().map(|&(g, _)| g).filter(|&g| sums[g] == 0);
        self.touched.extend(at_zero);
        ctx.warp_atomic_add_u64(&mut self.sums, pairs);
        ctx.add_int_ops(pairs.len() as u64 * 2);
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.sums.len()
    }

    /// True when the table has no groups.
    pub fn is_empty(&self) -> bool {
        self.sums.is_empty()
    }

    /// Final values.
    pub fn values(&self) -> &[u64] {
        self.sums.as_slice_unaccounted()
    }

    /// Non-zero groups as `(group, sum)` pairs, in group order.
    pub fn non_zero(&self) -> Vec<(usize, u64)> {
        let mut groups = self.touched.clone();
        groups.sort_unstable();
        groups.dedup();
        let sums = self.values();
        let non_zero = groups.into_iter().filter(|&g| sums[g] != 0);
        non_zero.map(|g| (g, sums[g])).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlc_gpu_sim::KernelConfig;

    #[test]
    fn scalar_sum_across_blocks() {
        let dev = Device::v100();
        let mut sum = ScalarSum::new(&dev);
        dev.launch(KernelConfig::new("sum", 4, 128), |ctx| {
            let base = ctx.block_id() as u64;
            sum.add_tile(ctx, (0..10u64).map(|v| v + base));
        });
        // 4 blocks x (45 + 10*block_id)
        assert_eq!(sum.value(), 45 * 4 + 10 * (1 + 2 + 3));
    }

    #[test]
    fn group_by_sum() {
        let dev = Device::v100();
        let mut g = GroupBySum::new(&dev, 8);
        dev.launch(KernelConfig::new("gb", 2, 128), |ctx| {
            g.add_tile(ctx, &[(1, 10), (3, 5), (1, 1)]);
        });
        assert_eq!(g.values()[1], 22);
        assert_eq!(g.values()[3], 10);
        assert_eq!(g.non_zero(), vec![(1, 22), (3, 10)]);
    }

    /// `non_zero` against a scan of the whole domain: repeated groups
    /// within and across tiles, a sum that wraps to zero (and one that
    /// leaves zero again afterwards), an empty tile, the last group.
    #[test]
    fn non_zero_is_the_domain_scan() {
        let dev = Device::v100();
        let len = 1000;
        let mut g = GroupBySum::new(&dev, len);
        let tiles: [&[(usize, u64)]; 6] = [
            &[(7, 5), (7, 6), (len - 1, 1), (3, u64::MAX)],
            &[],
            &[(3, 1), (500, 9)],
            &[(500, 9u64.wrapping_neg()), (12, 0)],
            &[(500, 4), (0, 2)],
            &[(7, 1)],
        ];
        dev.launch(KernelConfig::new("gb", tiles.len(), 128), |ctx| {
            g.add_tile(ctx, tiles[ctx.block_id()]);
        });
        let scan: Vec<(usize, u64)> = (0..len)
            .map(|group| (group, g.values()[group]))
            .filter(|&(_, v)| v != 0)
            .collect();
        assert_eq!(g.non_zero(), scan);
        assert_eq!(scan, [(0, 2), (7, 12), (500, 4), (len - 1, 1)]);
    }

    #[test]
    fn atomics_are_charged() {
        let dev = Device::v100();
        let mut g = GroupBySum::new(&dev, 1024);
        dev.reset_timeline();
        dev.launch(KernelConfig::new("gb", 1, 128), |ctx| {
            let pairs: Vec<(usize, u64)> = (0..256).map(|i| (i * 4 % 1024, 1)).collect();
            g.add_tile(ctx, &pairs);
        });
        let t = dev.with_timeline(|tl| tl.total_traffic());
        assert!(t.global_write_segments > 0 && t.global_read_segments > 0);
    }
}
