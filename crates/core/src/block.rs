//! Reading the block format `[ref][bitwidth word][four miniblocks]`
//! (paper Sections 4–5) that GPU-FOR and GPU-DFOR blocks share and
//! GPU-RFOR's stream groups reuse.
//!
//! Each rule a reader of that format applies is written once here, and
//! every reader calls it: the parse-time validators, the host decoders,
//! the simulated tile kernels, the fused select and the baselines'
//! cascaded decoders.
//!
//! * `check_widths` — the width check: every width is at most 32 and
//!   the widths fill the block.
//! * `GroupKernel::of` — the layout rule: which kernel decodes a
//!   four-miniblock group. [`unpack_group`] is its plain form and
//!   `unpack_group_scan` its delta-scan form.
//!
//! GPU-DFOR's tile geometry, the third rule, is
//! `gpu_dfor::TileGeometry`.

use tlc_bitpack::simd::{vunpack_block_ref, vunpack_block_scan};
use tlc_bitpack::unpack::{
    unpack_block_ref, unpack_block_scan, unpack_miniblock_ref, unpack_miniblock_scan,
};

use crate::error::DecodeError;
use crate::format::{Layout, BLOCK, BLOCK_HEADER_WORDS, MINIBLOCK, MINIBLOCKS_PER_BLOCK};
use crate::serialize::FormatError;

/// The four miniblock widths a bitwidth word declares, one per byte.
#[inline]
pub(crate) fn widths(bw_word: u32) -> [u32; MINIBLOCKS_PER_BLOCK] {
    std::array::from_fn(|m| (bw_word >> (8 * m)) & 0xFF)
}

/// Payload words of a four-miniblock group: the sum of its widths.
#[inline]
pub(crate) fn group_words(bw_word: u32) -> usize {
    widths(bw_word).iter().map(|&w| w as usize).sum()
}

/// Why a block's declared widths cannot be read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BadWidths {
    /// The block is shorter than its reference and bitwidth word.
    ShortHeader,
    /// A miniblock declares more than 32 bits; the unpackers are only
    /// defined for widths 0..=32.
    TooWide,
    /// The widths do not add up to the block's payload.
    Unfilled,
}

impl BadWidths {
    /// The parse-time validators' error for block `block`.
    pub fn format_error(self, block: usize) -> FormatError {
        let reason = match self {
            BadWidths::ShortHeader => "shorter than header",
            BadWidths::TooWide => "miniblock width > 32",
            BadWidths::Unfilled => "widths disagree with block length",
        };
        FormatError::BadBlock { block, reason }
    }

    /// The tile kernels' error for block `block` of `scheme`.
    pub fn decode_error(self, scheme: &'static str, block: usize) -> DecodeError {
        let reason = match self {
            BadWidths::ShortHeader => "block shorter than its header",
            BadWidths::TooWide => "miniblock width exceeds 32",
            BadWidths::Unfilled => "miniblock widths do not fill the block",
        };
        DecodeError::Structure {
            scheme,
            block,
            reason,
        }
    }
}

/// The width check, over one whole block's words `[ref][bitwidth
/// word][payload]`: every declared width is at most 32 and the widths
/// fill the block exactly. Returns the bitwidth word. A block that
/// passes decodes through [`unpack_group`] without reading past its
/// end.
pub(crate) fn check_widths(block: &[u32]) -> Result<u32, BadWidths> {
    let [_, bw_word, ..] = *block else {
        return Err(BadWidths::ShortHeader);
    };
    if widths(bw_word).iter().any(|&w| w > 32) {
        return Err(BadWidths::TooWide);
    }
    if BLOCK_HEADER_WORDS + group_words(bw_word) != block.len() {
        return Err(BadWidths::Unfilled);
    }
    Ok(bw_word)
}

/// The kernel that decodes one four-miniblock group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GroupKernel {
    /// Lane-transposed at this shared width (Lemire–Boytsov's
    /// SIMD-BP128 arrangement).
    Vertical(u32),
    /// Four horizontal miniblocks that share this width: one
    /// whole-group kernel.
    Uniform(u32),
    /// Four horizontal miniblocks at their own widths.
    Miniblocks,
}

impl GroupKernel {
    /// The layout rule (DESIGN §15): in a vertical column, a group
    /// whose four declared widths agree is lane-transposed at that
    /// width. Every other group is four horizontal miniblocks. The
    /// encoder never writes a width-heterogeneous group into a vertical
    /// column, but a hostile minor-2 stream may, and it still decodes
    /// deterministically.
    #[inline]
    pub fn of(layout: Layout, bw_word: u32) -> Self {
        let w = bw_word & 0xFF;
        if bw_word != w.wrapping_mul(0x0101_0101) {
            GroupKernel::Miniblocks
        } else if layout == Layout::Vertical {
            GroupKernel::Vertical(w)
        } else {
            GroupKernel::Uniform(w)
        }
    }
}

/// Decode one four-miniblock group, whose payload starts at `payload`,
/// into `out`, adding `reference` to every value (wrapping): the plain
/// form of the layout rule. Declared widths must pass `check_widths`
/// (or, for a stream group, fit its slice).
///
/// Always inlined: it runs once per 128 values, and a call per block
/// measured 1–3 % of a host decode.
#[inline(always)]
pub fn unpack_group(
    payload: &[u32],
    bw_word: u32,
    layout: Layout,
    reference: i32,
    out: &mut [i32; BLOCK],
) {
    match GroupKernel::of(layout, bw_word) {
        GroupKernel::Vertical(w) => vunpack_block_ref(payload, w, reference, out),
        GroupKernel::Uniform(w) => unpack_block_ref(payload, w, reference, out),
        GroupKernel::Miniblocks => {
            let mut offset = 0;
            let miniblocks = out.chunks_exact_mut(MINIBLOCK);
            for (w, mb_out) in widths(bw_word).into_iter().zip(miniblocks) {
                let mb_out = mb_out.try_into().expect("exact miniblock");
                unpack_miniblock_ref(&payload[offset..], w, reference, mb_out);
                offset += w as usize;
            }
        }
    }
}

/// The delta-scan form of [`unpack_group`] (GPU-DFOR): value `i` is
/// `acc` plus the referenced deltas up to and including `i`, and the
/// accumulator after the last lane is returned.
#[inline(always)]
pub(crate) fn unpack_group_scan(
    payload: &[u32],
    bw_word: u32,
    layout: Layout,
    reference: i32,
    mut acc: i32,
    out: &mut [i32; BLOCK],
) -> i32 {
    match GroupKernel::of(layout, bw_word) {
        GroupKernel::Vertical(w) => vunpack_block_scan(payload, w, reference, acc, out),
        GroupKernel::Uniform(w) => unpack_block_scan(payload, w, reference, acc, out),
        GroupKernel::Miniblocks => {
            let mut offset = 0;
            let miniblocks = out.chunks_exact_mut(MINIBLOCK);
            for (w, mb_out) in widths(bw_word).into_iter().zip(miniblocks) {
                let mb_out = mb_out.try_into().expect("exact miniblock");
                acc = unpack_miniblock_scan(&payload[offset..], w, reference, acc, mb_out);
                offset += w as usize;
            }
            acc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_width_check_names_each_fault() {
        assert_eq!(check_widths(&[7]), Err(BadWidths::ShortHeader));
        assert_eq!(check_widths(&[7, 33]), Err(BadWidths::TooWide));
        assert_eq!(check_widths(&[7, 0x0000_0201]), Err(BadWidths::Unfilled));
        assert_eq!(check_widths(&[7, 0x0000_0201, 0, 0, 0]), Ok(0x0000_0201));
    }

    #[test]
    fn the_layout_rule_reads_the_bitwidth_word() {
        let uniform = 5u32 * 0x0101_0101;
        assert_eq!(
            GroupKernel::of(Layout::Vertical, uniform),
            GroupKernel::Vertical(5)
        );
        assert_eq!(
            GroupKernel::of(Layout::Horizontal, uniform),
            GroupKernel::Uniform(5)
        );
        for layout in [Layout::Horizontal, Layout::Vertical] {
            assert_eq!(
                GroupKernel::of(layout, uniform + 1),
                GroupKernel::Miniblocks
            );
        }
    }
}
