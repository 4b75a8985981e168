//! Kernel resource estimates feeding the simulator's occupancy model.
//!
//! On a real GPU these numbers come from the compiler (`-Xptxas -v`);
//! here they are analytic estimates calibrated to the paper's
//! observations: decode kernels are cheap at `D = 4`, keep full
//! occupancy through `D = 16`, and spill registers at `D = 32`
//! (Section 4.2, Figure 5).

use tlc_gpu_sim::KernelConfig;

use crate::format::BLOCK;
use crate::validate::DEFAULT_TILE_FUEL;

/// Registers per thread for a decode kernel holding `d` output values
/// live, plus `extra_live` additional live words per thread (used by
/// query kernels for their output columns).
pub fn decode_regs(d: usize, extra_live: usize) -> usize {
    // ~26 registers of bookkeeping (pointers, offsets, bitwidths) plus
    // 1.5 registers per live element (value + scratch shared across the
    // unpack window).
    26 + (3 * (d + extra_live)).div_ceil(2)
}

/// Shared memory per block for staging `d` compressed data blocks.
/// Sized for the worst case (32-bit entries), as the paper does when it
/// reports 64 B/thread at `D = 16` and 128 B/thread at `D = 32`.
pub fn stage_smem(d: usize) -> usize {
    d * BLOCK * 4 + 64
}

/// Launch configuration for a tile-based decode kernel over `tiles`
/// thread blocks with `d` data blocks each. Decode kernels always run
/// under the default per-tile fuel budget: a hostile stream that
/// demands unbounded work per tile trips the budget instead of
/// spinning the simulator (see [`crate::validate`]).
pub fn decode_config(name: &str, tiles: usize, d: usize, extra_live: usize) -> KernelConfig {
    KernelConfig::new(name, tiles, BLOCK)
        .smem_per_block(stage_smem(d))
        .regs_per_thread(decode_regs(d, extra_live))
        .fuel_per_block(DEFAULT_TILE_FUEL)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d4_stays_cheap() {
        assert!(decode_regs(4, 0) <= 40);
        assert!(stage_smem(4) <= 3 * 1024);
    }

    #[test]
    fn d32_spills() {
        // The paper observes register spilling and reduced occupancy at
        // D = 32; the estimate must cross the V100 spill threshold (64).
        assert!(decode_regs(32, 0) > 64);
        assert!(decode_regs(16, 0) <= 64);
        assert_eq!(stage_smem(32), 32 * 128 * 4 + 64);
    }
}
