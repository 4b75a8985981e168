//! Monomorphized per-width miniblock unpackers (the paper's Section 4.4
//! "templated" fast path, in the spirit of Lemire & Boytsov's
//! per-width kernels).
//!
//! [`extract`] recomputes `start_bit / 32`,
//! `start_bit % 32`, a 64-bit window, and a mask for every value. For a
//! full 32-value miniblock all of that is a function of the bit width
//! alone, so [`unpack32_ref`] — the base kernel, which fuses the
//! frame-of-reference add — is compiled once per width `B`: the loop
//! trip count is fixed at 32, every word index / shift /
//! spans-a-boundary test constant-folds after unrolling, and the whole
//! miniblock unpacks with straight-line shift/or/and arithmetic — no
//! per-value `div`, `mod`, or branch. [`UNPACKERS_REF`] is the
//! precomputed dispatch table (one fn pointer per width 0..=32);
//! [`unpack_miniblock_ref`] is the ergonomic front door, and a caller
//! that wants the raw offsets passes reference 0. [`unpack32_scan`]
//! additionally fuses the delta prefix scan, and the 128-value block
//! kernels inline four miniblocks back to back.
//!
//! The generic `extract` remains the fallback for partial tail
//! miniblocks (see [`unpack_stream_into`]) and serves as the
//! differential-test oracle: in debug builds every dispatch wrapper
//! cross-checks every value it produces against `extract`, so the
//! entire test suite (and the fuzz corpus replayed under `cargo test`)
//! exercises fast path and oracle together.

use crate::horizontal::extract;
use crate::MINIBLOCK;

/// Unpack one full 32-value miniblock packed at `B` bits per value from
/// the front of `words`, add `reference` to each offset (wrapping), and
/// store the results as `i32` into `out`. At `reference = 0` this is the
/// plain unpack (cast the slots back to `u32`).
///
/// `words` must hold at least `B` words — a 32-value miniblock at width
/// `B` occupies exactly `B` words and ends on a word boundary, which is
/// what lets every access stay in bounds with a single up-front slice.
///
/// Monomorphized per width: with `B` const, the 32 explicit `step`
/// calls below let LLVM fold each value's word index, shift amounts,
/// and the crosses-a-word-boundary test into constants, leaving pure
/// straight-line shift/or/and arithmetic.
///
/// The unroll is written out by hand rather than as a `for` loop
/// because LLVM declines to fully unroll the 32-iteration loop for
/// word-boundary-crossing widths (13, 17, 20, …), leaving a branchy
/// rolled body that runs at less than half the throughput of the
/// straight-line form.
///
/// The reference add is fused for throughput: a separate
/// unpack-to-scratch / add-from-scratch split costs an extra full
/// store+load pass over every value, which on wide columns is as
/// expensive as the unpack itself.
#[inline(always)]
pub fn unpack32_ref<const B: u32>(words: &[u32], reference: i32, out: &mut [i32; MINIBLOCK]) {
    if B == 0 {
        out.fill(reference);
        return;
    }
    // One bounds check up front; everything below indexes provably
    // inside `words[..B]` (value 31 ends at bit 32·B − 1, in word B − 1).
    let words = &words[..B as usize];
    let mask: u32 = if B == 32 { u32::MAX } else { (1u32 << B) - 1 };
    let mut step = |i: usize| {
        let bit = i as u32 * B;
        let w = (bit >> 5) as usize;
        let off = bit & 31;
        // A value whose bits span two words reads both through one
        // 64-bit window, Algorithm 1 style; `w + 1 ≤ B − 1` whenever
        // the span crosses, so the slice above still covers it.
        let v = if off + B > 32 {
            let win = words[w] as u64 | (words[w + 1] as u64) << 32;
            (win >> off) as u32
        } else {
            words[w] >> off
        };
        out[i] = reference.wrapping_add((v & mask) as i32);
    };
    step(0);
    step(1);
    step(2);
    step(3);
    step(4);
    step(5);
    step(6);
    step(7);
    step(8);
    step(9);
    step(10);
    step(11);
    step(12);
    step(13);
    step(14);
    step(15);
    step(16);
    step(17);
    step(18);
    step(19);
    step(20);
    step(21);
    step(22);
    step(23);
    step(24);
    step(25);
    step(26);
    step(27);
    step(28);
    step(29);
    step(30);
    step(31);
}

/// Like [`unpack32_ref`], but additionally fuses the inclusive prefix
/// scan that turns frame-of-reference deltas back into values: each
/// slot receives `acc ∑ (reference + delta)` up to and including its
/// own lane, and the carried accumulator is returned for the next
/// miniblock.
///
/// This is the GPU-DFOR reconstruction kernel collapsed into one pass:
/// unpack, reference add, and scan share a single traversal, so the
/// serial accumulator chain overlaps with the shift/mask work of
/// neighbouring lanes instead of costing a separate pass over the
/// decoded tile.
///
/// The decomposition matters: lane `i` holds
/// `acc + (i+1)·reference + ∑_{j≤i} δ_j`, so the kernel runs **two**
/// one-add-deep serial chains — the raw delta sum `a` and the
/// reference fixup `fix` — and combines them off-chain at the store.
/// Writing the obvious `acc += reference + δ` instead lets LLVM
/// reassociate both adds onto one chain, doubling the critical-path
/// latency; the split form measures ~40% faster at crossing widths.
#[inline(always)]
pub fn unpack32_scan<const B: u32>(
    words: &[u32],
    reference: i32,
    acc: i32,
    out: &mut [i32; MINIBLOCK],
) -> i32 {
    let words = if B == 0 { words } else { &words[..B as usize] };
    let mask: u32 = if B == 0 {
        0
    } else if B == 32 {
        u32::MAX
    } else {
        (1u32 << B) - 1
    };
    let a = 0i32;
    let fix = acc.wrapping_add(reference);
    let mut step = |i: usize, a: i32, fix: i32| -> (i32, i32) {
        let v = if B == 0 {
            0
        } else {
            let bit = i as u32 * B;
            let w = (bit >> 5) as usize;
            let off = bit & 31;
            if off + B > 32 {
                let win = words[w] as u64 | (words[w + 1] as u64) << 32;
                (win >> off) as u32 & mask
            } else {
                (words[w] >> off) & mask
            }
        };
        let a = a.wrapping_add(v as i32);
        out[i] = fix.wrapping_add(a);
        (a, fix.wrapping_add(reference))
    };
    let (a, fix) = step(0, a, fix);
    let (a, fix) = step(1, a, fix);
    let (a, fix) = step(2, a, fix);
    let (a, fix) = step(3, a, fix);
    let (a, fix) = step(4, a, fix);
    let (a, fix) = step(5, a, fix);
    let (a, fix) = step(6, a, fix);
    let (a, fix) = step(7, a, fix);
    let (a, fix) = step(8, a, fix);
    let (a, fix) = step(9, a, fix);
    let (a, fix) = step(10, a, fix);
    let (a, fix) = step(11, a, fix);
    let (a, fix) = step(12, a, fix);
    let (a, fix) = step(13, a, fix);
    let (a, fix) = step(14, a, fix);
    let (a, fix) = step(15, a, fix);
    let (a, fix) = step(16, a, fix);
    let (a, fix) = step(17, a, fix);
    let (a, fix) = step(18, a, fix);
    let (a, fix) = step(19, a, fix);
    let (a, fix) = step(20, a, fix);
    let (a, fix) = step(21, a, fix);
    let (a, fix) = step(22, a, fix);
    let (a, fix) = step(23, a, fix);
    let (a, fix) = step(24, a, fix);
    let (a, fix) = step(25, a, fix);
    let (a, fix) = step(26, a, fix);
    let (a, fix) = step(27, a, fix);
    let (a, fix) = step(28, a, fix);
    let (a, fix) = step(29, a, fix);
    let (a, fix) = step(30, a, fix);
    let (a, fix) = step(31, a, fix);
    let _ = (a, fix);
    // Lane 31 already holds acc + 32·reference + ∑δ — exactly the
    // accumulator to carry into the next miniblock.
    out[MINIBLOCK - 1]
}

/// Four miniblocks — one decode block in the paper's tile format.
pub const MINIBLOCKS_PER_BLOCK: usize = 4;

/// Values in one decode block (4 miniblocks × 32 lanes).
pub const BLOCK_VALUES: usize = MINIBLOCKS_PER_BLOCK * MINIBLOCK;

/// Fused unpack + reference + scan over one whole 128-value block whose
/// four miniblocks all share bit width `B` (the common case on
/// homogeneous data, where the per-miniblock width bytes are equal).
///
/// Inlining the four monomorphized miniblock kernels back-to-back
/// amortizes the indirect-call and offset bookkeeping over 128 values
/// instead of 32 — at narrow widths the call overhead is a measurable
/// fraction of the miniblock's whole decode cost.
#[inline]
pub fn unpack128_scan<const B: u32>(
    words: &[u32],
    reference: i32,
    mut acc: i32,
    out: &mut [i32; BLOCK_VALUES],
) -> i32 {
    let b = B as usize;
    let (m0, rest) = out.split_at_mut(MINIBLOCK);
    let (m1, rest) = rest.split_at_mut(MINIBLOCK);
    let (m2, m3) = rest.split_at_mut(MINIBLOCK);
    acc = unpack32_scan::<B>(words, reference, acc, m0.try_into().expect("miniblock"));
    acc = unpack32_scan::<B>(
        &words[b..],
        reference,
        acc,
        m1.try_into().expect("miniblock"),
    );
    acc = unpack32_scan::<B>(
        &words[2 * b..],
        reference,
        acc,
        m2.try_into().expect("miniblock"),
    );
    acc = unpack32_scan::<B>(
        &words[3 * b..],
        reference,
        acc,
        m3.try_into().expect("miniblock"),
    );
    acc
}

/// Like [`unpack128_scan`] but for the plain frame-of-reference path:
/// four equal-width miniblocks unpacked and reference-added in one
/// inlined monomorphized sweep.
#[inline]
pub fn unpack128_ref<const B: u32>(words: &[u32], reference: i32, out: &mut [i32; BLOCK_VALUES]) {
    let b = B as usize;
    let (m0, rest) = out.split_at_mut(MINIBLOCK);
    let (m1, rest) = rest.split_at_mut(MINIBLOCK);
    let (m2, m3) = rest.split_at_mut(MINIBLOCK);
    unpack32_ref::<B>(words, reference, m0.try_into().expect("miniblock"));
    unpack32_ref::<B>(&words[b..], reference, m1.try_into().expect("miniblock"));
    unpack32_ref::<B>(
        &words[2 * b..],
        reference,
        m2.try_into().expect("miniblock"),
    );
    unpack32_ref::<B>(
        &words[3 * b..],
        reference,
        m3.try_into().expect("miniblock"),
    );
}

/// A monomorphized fused unpack-and-add-reference kernel:
/// `(packed words, reference, output)`.
pub type UnpackerRef = fn(&[u32], i32, &mut [i32; MINIBLOCK]);

/// A monomorphized fused unpack + reference + inclusive-prefix-scan
/// kernel: `(packed words, reference, carried accumulator, output)`,
/// returning the accumulator after the miniblock's last lane.
pub type UnpackerScan = fn(&[u32], i32, i32, &mut [i32; MINIBLOCK]) -> i32;

/// A monomorphized whole-block (128-value) scan kernel for blocks whose
/// miniblocks share one width.
pub type BlockUnpackerScan = fn(&[u32], i32, i32, &mut [i32; BLOCK_VALUES]) -> i32;

/// A monomorphized whole-block (128-value) frame-of-reference kernel
/// for blocks whose miniblocks share one width.
pub type BlockUnpackerRef = fn(&[u32], i32, &mut [i32; BLOCK_VALUES]);

macro_rules! unpacker_ref_table {
    ($($b:literal),+ $(,)?) => {
        [$(unpack32_ref::<$b> as UnpackerRef),+]
    };
}

macro_rules! unpacker_scan_table {
    ($($b:literal),+ $(,)?) => {
        [$(unpack32_scan::<$b> as UnpackerScan),+]
    };
}

macro_rules! block_scan_table {
    ($($b:literal),+ $(,)?) => {
        [$(unpack128_scan::<$b> as BlockUnpackerScan),+]
    };
}

macro_rules! block_ref_table {
    ($($b:literal),+ $(,)?) => {
        [$(unpack128_ref::<$b> as BlockUnpackerRef),+]
    };
}

/// Dispatch table: `UNPACKERS_REF[b]` unpacks one 32-value miniblock
/// packed at `b` bits per value and adds the reference
/// ([`unpack32_ref`]). Indexing past 32 is a compile-time-sized bounds
/// error, matching the format's bitwidth domain.
pub static UNPACKERS_REF: [UnpackerRef; 33] = unpacker_ref_table!(
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25,
    26, 27, 28, 29, 30, 31, 32
);

/// Dispatch table for the fused unpack+reference+scan kernels
/// ([`unpack32_scan`]), indexed by bit width like [`UNPACKERS_REF`].
pub static UNPACKERS_SCAN: [UnpackerScan; 33] = unpacker_scan_table!(
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25,
    26, 27, 28, 29, 30, 31, 32
);

/// Dispatch table for the whole-block scan kernels
/// ([`unpack128_scan`]), indexed by the shared bit width.
pub static BLOCK_UNPACKERS_SCAN: [BlockUnpackerScan; 33] = block_scan_table!(
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25,
    26, 27, 28, 29, 30, 31, 32
);

/// Dispatch table for the whole-block frame-of-reference kernels
/// ([`unpack128_ref`]), indexed by the shared bit width.
pub static BLOCK_UNPACKERS_REF: [BlockUnpackerRef; 33] = block_ref_table!(
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25,
    26, 27, 28, 29, 30, 31, 32
);

/// Fused unpack + frame-of-reference add for one full miniblock, via
/// the monomorphized [`UNPACKERS_REF`] table.
///
/// Panics if `bitwidth > 32` or `words` holds fewer than `bitwidth`
/// words. In debug builds every produced value is cross-checked against
/// the generic [`extract`] oracle.
#[inline]
pub fn unpack_miniblock_ref(
    words: &[u32],
    bitwidth: u32,
    reference: i32,
    out: &mut [i32; MINIBLOCK],
) {
    UNPACKERS_REF[bitwidth as usize](words, reference, out);
    #[cfg(debug_assertions)]
    for (i, &v) in out.iter().enumerate() {
        debug_assert_eq!(
            v,
            reference.wrapping_add(extract(words, i * bitwidth as usize, bitwidth) as i32),
            "unpack32_ref::<{bitwidth}> disagrees with extract at value {i}"
        );
    }
}

/// Fused unpack + frame-of-reference add + inclusive prefix scan for
/// one full miniblock, via the monomorphized [`UNPACKERS_SCAN`] table.
/// Returns the carried accumulator after the last lane.
///
/// Panics if `bitwidth > 32` or `words` holds fewer than `bitwidth`
/// words. In debug builds every produced value is cross-checked against
/// the generic [`extract`] oracle plus a manual scan.
#[inline]
pub fn unpack_miniblock_scan(
    words: &[u32],
    bitwidth: u32,
    reference: i32,
    acc: i32,
    out: &mut [i32; MINIBLOCK],
) -> i32 {
    let ret = UNPACKERS_SCAN[bitwidth as usize](words, reference, acc, out);
    #[cfg(debug_assertions)]
    {
        let mut check = acc;
        for (i, &v) in out.iter().enumerate() {
            check = check.wrapping_add(reference.wrapping_add(extract(
                words,
                i * bitwidth as usize,
                bitwidth,
            ) as i32));
            debug_assert_eq!(
                v, check,
                "unpack32_scan::<{bitwidth}> disagrees with extract+scan at value {i}"
            );
        }
        debug_assert_eq!(ret, check);
    }
    ret
}

/// Whole-block fused unpack + reference + scan for a 128-value block
/// whose four miniblocks all share `bitwidth`, via
/// [`BLOCK_UNPACKERS_SCAN`]. Returns the carried accumulator.
///
/// Panics if `bitwidth > 32` or `words` holds fewer than `4·bitwidth`
/// words. In debug builds every produced value is cross-checked against
/// the generic [`extract`] oracle plus a manual scan.
#[inline]
pub fn unpack_block_scan(
    words: &[u32],
    bitwidth: u32,
    reference: i32,
    acc: i32,
    out: &mut [i32; BLOCK_VALUES],
) -> i32 {
    let ret = BLOCK_UNPACKERS_SCAN[bitwidth as usize](words, reference, acc, out);
    #[cfg(debug_assertions)]
    {
        let mut check = acc;
        for (i, &v) in out.iter().enumerate() {
            check = check.wrapping_add(reference.wrapping_add(extract(
                words,
                i * bitwidth as usize,
                bitwidth,
            ) as i32));
            debug_assert_eq!(
                v, check,
                "unpack128_scan::<{bitwidth}> disagrees with extract+scan at value {i}"
            );
        }
        debug_assert_eq!(ret, check);
    }
    ret
}

/// Whole-block fused unpack + reference add for a 128-value block whose
/// four miniblocks all share `bitwidth`, via [`BLOCK_UNPACKERS_REF`].
///
/// Panics if `bitwidth > 32` or `words` holds fewer than `4·bitwidth`
/// words. In debug builds every produced value is cross-checked against
/// the generic [`extract`] oracle.
#[inline]
pub fn unpack_block_ref(
    words: &[u32],
    bitwidth: u32,
    reference: i32,
    out: &mut [i32; BLOCK_VALUES],
) {
    BLOCK_UNPACKERS_REF[bitwidth as usize](words, reference, out);
    #[cfg(debug_assertions)]
    for (i, &v) in out.iter().enumerate() {
        debug_assert_eq!(
            v,
            reference.wrapping_add(extract(words, i * bitwidth as usize, bitwidth) as i32),
            "unpack128_ref::<{bitwidth}> disagrees with extract at value {i}"
        );
    }
}

/// Append `count` values of `bitwidth` bits unpacked from the start of
/// `words` to `out`.
///
/// Full miniblocks whose words are entirely present go through the
/// monomorphized fast path; a partial tail falls back to the generic
/// [`extract`], which treats an out-of-range second window word as zero
/// so callers need no explicit padding word.
pub fn unpack_stream_into(words: &[u32], bitwidth: u32, count: usize, out: &mut Vec<u32>) {
    debug_assert!(bitwidth <= 32);
    out.reserve(count);
    if bitwidth == 0 {
        out.resize(out.len() + count, 0);
        return;
    }
    let b = bitwidth as usize;
    let full = count / MINIBLOCK;
    let mut scratch = [0i32; MINIBLOCK];
    let mut mb = 0;
    while mb < full && (mb + 1) * b <= words.len() {
        unpack_miniblock_ref(&words[mb * b..], bitwidth, 0, &mut scratch);
        out.extend(scratch.iter().map(|&v| v as u32));
        mb += 1;
    }
    for i in mb * MINIBLOCK..count {
        out.push(extract(words, i * b, bitwidth));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::horizontal::pack_stream;

    #[test]
    fn table_covers_every_width() {
        for b in 0u32..=32 {
            let mask = if b == 32 { u32::MAX } else { (1u32 << b) - 1 };
            let values: Vec<u32> = (0..MINIBLOCK as u32)
                .map(|i| i.wrapping_mul(2654435761) & mask)
                .collect();
            let packed = pack_stream(&values, b);
            let mut out = [0i32; MINIBLOCK];
            unpack_miniblock_ref(&packed, b, 0, &mut out);
            let got: Vec<u32> = out.iter().map(|&v| v as u32).collect();
            assert_eq!(got, values, "bitwidth {b}");
        }
    }

    #[test]
    fn stream_into_appends() {
        let values: Vec<u32> = (0..77).map(|i| i % (1 << 5)).collect();
        let packed = pack_stream(&values, 5);
        let mut out = vec![42u32];
        unpack_stream_into(&packed, 5, 77, &mut out);
        assert_eq!(out[0], 42);
        assert_eq!(&out[1..], values.as_slice());
    }

    #[test]
    fn partial_tail_reads_no_padding_word() {
        // 40 values at width 3 occupy 4 words (120 bits): one full
        // miniblock takes the fast path, and the last tail value's
        // 64-bit extract window would read a fifth word — which must be
        // treated as zero, exactly like the old per-value path.
        let values: Vec<u32> = (0..40).map(|i| i % 8).collect();
        let packed = pack_stream(&values, 3);
        assert_eq!(packed.len(), 4);
        let mut out = Vec::new();
        unpack_stream_into(&packed, 3, 40, &mut out);
        assert_eq!(out, values);
    }
}
