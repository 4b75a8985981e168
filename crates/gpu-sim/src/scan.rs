//! Block-wide prefix sums (Blelloch work-efficient scan).
//!
//! Crystal ships a block-level scan used by the paper for delta decoding
//! (Section 5.2) and RLE expansion (Section 6). The functional result
//! here is an ordinary sequential scan; the *accounting* charges what the
//! parallel tree algorithm would do: ~2·n shared-memory accesses and
//! O(n) add operations over the up-sweep and down-sweep phases, executed
//! in `Θ(log n)` steps [Blelloch 1989].

use crate::kernel::BlockCtx;

/// Charge one block-wide scan over `n` elements of `elem_bytes` each,
/// without running it. Every scan below charges exactly this; a kernel
/// that computes the same result another way (a run expander placing
/// runs directly, say) charges the scans it stands for through here.
pub fn charge_block_scan(ctx: &mut BlockCtx<'_>, n: usize, elem_bytes: u64) {
    // Up-sweep + down-sweep each touch every element about twice.
    ctx.smem_traffic(4 * n as u64 * elem_bytes);
    ctx.add_int_ops(2 * n as u64);
}

/// In-place exclusive prefix sum over `data`; returns the total.
pub fn block_exclusive_scan_u32(ctx: &mut BlockCtx<'_>, data: &mut [u32]) -> u32 {
    charge_block_scan(ctx, data.len(), 4);
    let mut acc = 0u32;
    for v in data.iter_mut() {
        let next = acc.wrapping_add(*v);
        *v = acc;
        acc = next;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Device, KernelConfig};

    #[test]
    fn exclusive_scan_values_and_total() {
        let dev = Device::v100();
        dev.launch(KernelConfig::new("k", 1, 128), |blk| {
            let mut data = vec![3u32, 1, 4, 1];
            let total = block_exclusive_scan_u32(blk, &mut data);
            assert_eq!(data, vec![0, 3, 4, 8]);
            assert_eq!(total, 9);
        });
    }

    #[test]
    fn scan_charges_shared_traffic() {
        let dev = Device::v100();
        let scanned = dev.launch(KernelConfig::new("k", 1, 128), |blk| {
            let mut data = vec![0u32; 512];
            block_exclusive_scan_u32(blk, &mut data);
        });
        assert_eq!(scanned.traffic.shared_bytes, 4 * 512 * 4);
        assert_eq!(scanned.traffic.int_ops, 2 * 512);
        let charged = dev.launch(KernelConfig::new("k", 1, 128), |blk| {
            charge_block_scan(blk, 512, 4);
        });
        assert_eq!(charged.traffic, scanned.traffic);
    }
}
