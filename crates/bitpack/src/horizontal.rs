//! Horizontal (LSB-first) bit packing.
//!
//! Value `i` of a stream with bitwidth `b` occupies stream bits
//! `[i·b, (i+1)·b)`; stream bit `k` is bit `k mod 32` of word `k / 32`.
//! This matches the data format of GPU-FOR (paper Section 4.1) and the
//! extraction arithmetic of Algorithm 1.

/// Number of 32-bit words needed to hold `count` values of `bitwidth`
/// bits.
#[inline]
pub fn words_for(count: usize, bitwidth: u32) -> usize {
    debug_assert!(bitwidth <= 32);
    (count * bitwidth as usize).div_ceil(32)
}

/// Append `values` packed at `bitwidth` bits each to `out`.
///
/// Values must fit in `bitwidth` bits (`debug_assert`ed). The packed run
/// starts on a fresh word boundary at the current end of `out`.
pub fn pack_into(values: &[u32], bitwidth: u32, out: &mut Vec<u32>) {
    debug_assert!(bitwidth <= 32);
    let start = out.len();
    out.resize(start + words_for(values.len(), bitwidth), 0);
    if bitwidth == 0 {
        debug_assert!(values.iter().all(|&v| v == 0));
        return;
    }
    let words = &mut out[start..];
    for (i, &v) in values.iter().enumerate() {
        debug_assert!(
            bitwidth == 32 || v < (1u32 << bitwidth),
            "value {v} does not fit in {bitwidth} bits"
        );
        let bit = i * bitwidth as usize;
        let word = bit / 32;
        let off = (bit % 32) as u32;
        words[word] |= v << off;
        if off + bitwidth > 32 {
            words[word + 1] |= v >> (32 - off);
        }
    }
}

/// Pack `values` at `bitwidth` bits into a fresh vector.
pub fn pack_stream(values: &[u32], bitwidth: u32) -> Vec<u32> {
    let mut out = Vec::new();
    pack_into(values, bitwidth, &mut out);
    out
}

/// Extract the `bitwidth`-bit value starting at stream bit `start_bit`,
/// using Algorithm 1's 64-bit window. Reads at most two words; an
/// out-of-range second word is treated as zero so callers need no
/// explicit padding.
#[inline]
pub fn extract(words: &[u32], start_bit: usize, bitwidth: u32) -> u32 {
    debug_assert!(bitwidth <= 32);
    if bitwidth == 0 {
        return 0;
    }
    let idx = start_bit / 32;
    let off = (start_bit % 32) as u32;
    let lo = words[idx] as u64;
    let hi = *words.get(idx + 1).unwrap_or(&0) as u64;
    let window = lo | (hi << 32);
    let mask = if bitwidth == 32 {
        u64::from(u32::MAX)
    } else {
        (1u64 << bitwidth) - 1
    };
    ((window >> off) & mask) as u32
}

/// Unpack `count` values of `bitwidth` bits from the start of `words`
/// into a fresh vector.
///
/// Note: allocates per call. Hot decode paths should prefer
/// [`unpack_stream_into`](crate::unpack::unpack_stream_into) with a
/// reused buffer, or
/// [`unpack_miniblock_ref`](crate::unpack::unpack_miniblock_ref) with
/// stack scratch; this wrapper remains for convenience and as the
/// oracle-backed reference entry point.
pub fn unpack_stream(words: &[u32], bitwidth: u32, count: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(count);
    crate::unpack::unpack_stream_into(words, bitwidth, count, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_for_exact_miniblock() {
        // 32 values of any bitwidth end exactly on a word boundary —
        // the invariant the paper's miniblock format relies on.
        for b in 0..=32 {
            assert_eq!(words_for(32, b), b as usize);
        }
    }

    #[test]
    fn roundtrip_simple() {
        let values = [1u32, 2, 2, 3, 2, 2, 3, 2]; // paper Fig. 4 miniblock 1
        let packed = pack_stream(&values, 2);
        assert_eq!(packed.len(), 1);
        assert_eq!(unpack_stream(&packed, 2, 8), values);
    }

    #[test]
    fn paper_figure4_encoding() {
        // Fig. 4: values 100..114 with reference 99, two miniblocks of 8
        // at widths 2 and 4. Check the width-4 deltas roundtrip.
        let deltas = [0u32, 1, 6, 8, 15, 13, 11, 6];
        let packed = pack_stream(&deltas, 4);
        assert_eq!(unpack_stream(&packed, 4, 8), deltas);
    }

    #[test]
    fn roundtrip_spanning_word_boundaries() {
        let values: Vec<u32> = (0..100).map(|i| (i * 37) % (1 << 7)).collect();
        let packed = pack_stream(&values, 7);
        assert_eq!(packed.len(), words_for(100, 7));
        assert_eq!(unpack_stream(&packed, 7, 100), values);
    }

    #[test]
    fn bitwidth_zero() {
        let values = [0u32; 32];
        let packed = pack_stream(&values, 0);
        assert!(packed.is_empty());
        assert_eq!(unpack_stream(&packed, 0, 32), values);
    }

    #[test]
    fn bitwidth_32_roundtrip() {
        let values = [u32::MAX, 0, 0x8000_0000, 12345];
        let packed = pack_stream(&values, 32);
        assert_eq!(packed.len(), 4);
        assert_eq!(unpack_stream(&packed, 32, 4), values);
    }

    #[test]
    fn extract_at_end_without_padding_word() {
        // Last value ends exactly at the final word; the 64-bit window
        // would read one word past the end — must be treated as zero.
        let values = [3u32; 32];
        let packed = pack_stream(&values, 2); // exactly 2 words
        assert_eq!(extract(&packed, 31 * 2, 2), 3);
    }

    #[test]
    fn pack_into_appends_at_word_boundary() {
        let mut out = vec![0xdead_beef];
        pack_into(&[1, 1, 1, 1], 3, &mut out);
        assert_eq!(out[0], 0xdead_beef);
        assert_eq!(unpack_stream(&out[1..], 3, 4), [1, 1, 1, 1]);
    }

    #[test]
    fn odd_bitwidths_roundtrip() {
        for b in [1u32, 3, 5, 11, 13, 17, 23, 29, 31] {
            let mask = if b == 32 { u32::MAX } else { (1 << b) - 1 };
            let values: Vec<u32> = (0..64u32)
                .map(|i| i.wrapping_mul(2654435761) & mask)
                .collect();
            let packed = pack_stream(&values, b);
            assert_eq!(unpack_stream(&packed, b, 64), values, "bitwidth {b}");
        }
    }
}
