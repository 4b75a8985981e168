//! Shared format constants and decode options.

/// Values per block in GPU-FOR / GPU-DFOR (paper Section 4.1).
pub const BLOCK: usize = 128;

/// Values per miniblock; a miniblock of bitwidth `b` occupies exactly
/// `b` 32-bit words.
pub const MINIBLOCK: usize = 32;

/// Miniblocks per block (4 × 32 = 128), so the four u8 bitwidths pack
/// into a single 32-bit "bitwidth word".
pub const MINIBLOCKS_PER_BLOCK: usize = 4;

/// Values per logical block in GPU-RFOR (paper Section 6).
pub const RFOR_BLOCK: usize = 512;

/// Default number of data blocks processed per thread block; the paper
/// settles on `D = 4` for query workloads (Sections 4.2 and 8).
pub const DEFAULT_D: usize = 4;

/// Deepest tile the block formats decode, in 128-value blocks: the cap
/// [`crate::validate`] puts on an untrusted GPU-DFOR stream's `d`, and
/// what lets the tile loaders keep block starts and checksums in fixed
/// stack arrays.
pub const MAX_D: usize = 128;

/// Words in the block header (reference + bitwidth word).
pub(crate) const BLOCK_HEADER_WORDS: usize = 2;

/// Physical arrangement of a block's packed payload words.
///
/// Both layouts share the identical header (reference + bitwidth word),
/// the identical sizes, and the identical `block_starts` — only the bit
/// positions of the values inside the payload differ:
///
/// * [`Layout::Horizontal`] — the paper §4.1 layout: miniblock `m`
///   packs its 32 values LSB-first into its own `bᵐ` words.
/// * [`Layout::Vertical`] — the SIMD-BP128 lane-transposed layout
///   (paper §4.3, Figure 1): the block's 128 values are striped over
///   4 lanes at one shared width `w` (`bitwidth word = w repeated
///   four times`), with lane `l`'s in-lane word `k` at payload word
///   `k·4 + l`. Four consecutive logical values occupy the same bit
///   window of four adjacent words — the shape SIMD loads want.
///
/// A column records its layout out of band (format minor 2 on the
/// wire); the per-block decode rule ([`crate::block::unpack_group`]) is:
/// under `Vertical`, a block whose four declared widths are equal is
/// lane-transposed, and a block whose widths differ falls back to the
/// horizontal interpretation (such blocks are never produced by the
/// encoder, but hostile minor-2 streams must still decode
/// deterministically).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Layout {
    /// Per-miniblock horizontal packing (format minor ≤ 1).
    #[default]
    Horizontal,
    /// 4-lane vertical (lane-transposed) packing at a shared per-block
    /// width (format minor 2).
    Vertical,
}

/// Decode-time options for the fast bit-unpacking routine; each field
/// corresponds to one optimization of paper Section 4.2. The base
/// Algorithm 1 (no shared-memory staging at all) lives in
/// [`crate::base_alg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForDecodeOpts {
    /// Optimization 2: data blocks per thread block (`D`).
    pub d: usize,
    /// Optimization 3: precompute the 4·D miniblock offsets on the
    /// first 4·D threads instead of redundantly on all 128.
    pub precompute_offsets: bool,
}

impl Default for ForDecodeOpts {
    fn default() -> Self {
        ForDecodeOpts {
            d: DEFAULT_D,
            precompute_offsets: true,
        }
    }
}

impl ForDecodeOpts {
    /// Opts with a given `D` and all later optimizations enabled.
    pub fn with_d(d: usize) -> Self {
        ForDecodeOpts {
            d,
            ..Default::default()
        }
    }

    /// Optimization 1 only (staging, `D = 1`, redundant offset loops).
    pub fn opt1() -> Self {
        ForDecodeOpts {
            d: 1,
            precompute_offsets: false,
        }
    }
}

/// Number of 128-value blocks covering `n` values.
pub(crate) fn blocks_for(n: usize) -> usize {
    n.div_ceil(BLOCK)
}

/// Number of tiles (groups of `d` blocks) covering `n` values.
pub(crate) fn tiles_for(n: usize, d: usize) -> usize {
    blocks_for(n).div_ceil(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_geometry() {
        assert_eq!(BLOCK, MINIBLOCK * MINIBLOCKS_PER_BLOCK);
        assert_eq!(blocks_for(0), 0);
        assert_eq!(blocks_for(1), 1);
        assert_eq!(blocks_for(128), 1);
        assert_eq!(blocks_for(129), 2);
        assert_eq!(tiles_for(129, 4), 1);
        assert_eq!(tiles_for(4 * 128 + 1, 4), 2);
    }

    #[test]
    fn default_opts_match_paper() {
        let opts = ForDecodeOpts::default();
        assert_eq!(opts.d, 4);
        assert!(opts.precompute_offsets);
    }
}
