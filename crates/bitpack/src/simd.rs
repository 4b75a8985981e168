//! Kernels for the 4-lane vertical (lane-transposed) block layout, plus
//! runtime SIMD capability detection.
//!
//! A vertical block is [`crate::vertical`]'s layout pinned to the
//! SIMD-BP128 shape (paper Section 4.3, Figure 1): 4 lanes × 32
//! in-lane positions = 128 values, one shared bit width `B`, words
//! interleaved so in-lane word `w` of lane `l` sits at `w·4 + l`.
//! Logical value `j` lives in lane `j % 4` at position `j / 4` — so
//! the four values of "row" `r` (`out[4r..4r+4)`) occupy the same bit
//! window of four adjacent words, which is exactly one 128-bit
//! load/shift/mask away. That row-major contiguity is what the
//! horizontal layout can never offer a vector unit: there, value `j+1`
//! continues at a different bit offset of the *same* lane.
//!
//! The pack and unpack-and-add kernels are portable Rust written in
//! that shape: a row is four lane words shifted right by one count,
//! or-ed on a word-crossing row with the next four words shifted left,
//! and masked. LLVM lowers that `[u32; 4]` arithmetic to 128-bit vector
//! shifts with the SSE2 every x86_64 CPU has, so no runtime dispatch is
//! needed; the 32 rows are written out with literal indices so every
//! word index and shift count folds.
//!
//! The delta scan ([`vunpack_block_scan`], GPU-DFOR) also has an
//! explicit `core::arch::x86_64` AVX2 form, selected by [`simd_level`]
//! when the CPU reports AVX2. LLVM lowers the portable scan's serial
//! prefix to a scalar add chain, and the AVX2 form decodes the `codec`
//! benchmark's vertical DFOR columns at about 1.9× its speed
//! (DESIGN.md §15). The two are **bit-identical by construction**: both
//! compute the same wrapping-add / shift / mask expressions, and
//! wrapping addition is associative and commutative, so the AVX2
//! grouping (in-vector prefix + vector carry) produces the same bits as
//! the portable serial chain. The front doors
//! ([`vunpack_block_ref`], [`vunpack_block_scan`], [`vpack_block`])
//! cross-check every value against the [`crate::vertical`] reference
//! oracle in debug builds.

use crate::unpack::{BLOCK_VALUES, MINIBLOCKS_PER_BLOCK};

/// Lanes in a vertical block: fixed at 4, so a block is 128 values and
/// a lane is one 32-value miniblock — the same geometry as the
/// horizontal format, which is what lets both layouts share headers,
/// sizes and checksums.
pub const VLANES: usize = MINIBLOCKS_PER_BLOCK;

/// Which delta-scan kernel [`vunpack_block_scan`] runs. Every other
/// vertical kernel is portable and the same on every CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// The portable scan: the CPU has no AVX2, or is not x86_64.
    Portable,
    /// The explicit AVX2 scan (runtime-detected on x86_64).
    Avx2,
}

/// The [`SimdLevel`] of this CPU: [`SimdLevel::Avx2`] when it reports
/// AVX2. Detection is cached by the standard library, so the answer is
/// fixed for the life of the process.
pub fn simd_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return SimdLevel::Avx2;
    }
    SimdLevel::Portable
}

/// Comma-joined list of the CPU's detected SIMD feature flags relevant
/// to the decode kernels (empty on non-x86_64 targets). Recorded in
/// bench metadata so throughput rows are attributable across machines.
pub fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let probes: [(&str, bool); 6] = [
            ("sse2", std::arch::is_x86_feature_detected!("sse2")),
            ("sse4.2", std::arch::is_x86_feature_detected!("sse4.2")),
            ("avx", std::arch::is_x86_feature_detected!("avx")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
            ("avx512bw", std::arch::is_x86_feature_detected!("avx512bw")),
        ];
        probes
            .iter()
            .filter(|(_, on)| *on)
            .map(|(name, _)| *name)
            .collect::<Vec<_>>()
            .join(",")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        String::new()
    }
}

#[inline(always)]
fn mask_for(b: u32) -> u32 {
    if b == 0 {
        0
    } else {
        (((1u64 << b) - 1) & 0xFFFF_FFFF) as u32
    }
}

/// Run `$body` once per row 0..32 with `$r` bound to the literal row
/// index, written out explicitly: LLVM declines to fully unroll a
/// 32-iteration loop at word-crossing widths (see
/// [`crate::unpack::unpack32_ref`]), and the literal indices are what let
/// every word index and shift count fold.
macro_rules! rows32 {
    (|$r:ident| $body:block) => {
        rows32!(@ $r $body 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15
                16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31)
    };
    (@ $r:ident $body:block $($n:literal)+) => {
        $({
            let $r: usize = $n;
            $body
        })+
    };
}

// ---------------------------------------------------------------------
// Portable kernels
// ---------------------------------------------------------------------

/// Portable vertical pack: 128 values at width `B` into the front of
/// `out`, which must hold at least `4·B` **zeroed** words.
#[inline(always)]
pub fn vpack128<const B: u32>(values: &[u32; BLOCK_VALUES], out: &mut [u32]) {
    if B == 0 {
        debug_assert!(values.iter().all(|&v| v == 0));
        return;
    }
    let out = &mut out[..VLANES * B as usize];
    rows32!(|r| {
        let bit = r as u32 * B;
        let w = ((bit >> 5) as usize) * VLANES;
        let off = bit & 31;
        let cross = off + B > 32;
        for l in 0..VLANES {
            let v = values[r * VLANES + l];
            debug_assert!(
                B == 32 || v < (1u32 << B),
                "value {v} does not fit in {B} bits"
            );
            out[w + l] |= v << off;
            if cross {
                out[w + VLANES + l] |= v >> (32 - off);
            }
        }
    });
}

/// Row `r`'s four lane values at width `B`, from `words` sliced to
/// exactly `4·B`: the same bit window of four adjacent words, so every
/// lane shifts by one count. A row that crosses a word takes its high
/// bits from the next four words, which exist because a crossing row
/// ends inside in-lane word `B − 1` or earlier.
#[inline(always)]
fn row<const B: u32>(words: &[u32], r: usize) -> [u32; VLANES] {
    if B == 0 {
        return [0; VLANES];
    }
    let bit = r as u32 * B;
    let w = ((bit >> 5) as usize) * VLANES;
    let off = bit & 31;
    let mask = mask_for(B);
    let lo = &words[w..w + VLANES];
    if off + B > 32 {
        let hi = &words[w + VLANES..w + 2 * VLANES];
        // The high word is masked before it is or-ed in: LLVM reads the
        // bare `lo >> off | hi << (32 - off)` as a funnel shift, which
        // it leaves scalar on the SSE2 baseline (~0.7× this form).
        let hi_mask = mask >> (32 - off);
        core::array::from_fn(|l| (lo[l] >> off) | ((hi[l] & hi_mask) << (32 - off)))
    } else {
        core::array::from_fn(|l| (lo[l] >> off) & mask)
    }
}

/// Portable vertical unpack + frame-of-reference add: 128 values at
/// width `B` from the front of `words` (≥ `4·B` words), each added to
/// `reference` (wrapping).
#[inline(always)]
pub fn vunpack128_ref<const B: u32>(words: &[u32], reference: i32, out: &mut [i32; BLOCK_VALUES]) {
    let words = &words[..VLANES * B as usize];
    rows32!(|r| {
        for (o, v) in out[r * VLANES..][..VLANES]
            .iter_mut()
            .zip(row::<B>(words, r))
        {
            *o = reference.wrapping_add(v as i32);
        }
    });
}

/// Portable vertical unpack + reference + inclusive prefix scan (the
/// GPU-DFOR reconstruction over a vertical delta block): logical slot
/// `j` receives `acc + (j+1)·reference + Σ_{k≤j} δ_k` (all wrapping),
/// and the carried accumulator — equal to the last slot — is returned.
///
/// Like [`crate::unpack::unpack32_scan`], the kernel runs two
/// one-add-deep serial chains (raw delta sum and reference fixup) so
/// the critical path stays one add per value.
#[inline(always)]
pub fn vunpack128_scan<const B: u32>(
    words: &[u32],
    reference: i32,
    acc: i32,
    out: &mut [i32; BLOCK_VALUES],
) -> i32 {
    let words = &words[..VLANES * B as usize];
    let mut a = 0i32;
    let mut fix = acc.wrapping_add(reference);
    rows32!(|r| {
        for (o, v) in out[r * VLANES..][..VLANES]
            .iter_mut()
            .zip(row::<B>(words, r))
        {
            a = a.wrapping_add(v as i32);
            *o = fix.wrapping_add(a);
            fix = fix.wrapping_add(reference);
        }
    });
    out[BLOCK_VALUES - 1]
}

// ---------------------------------------------------------------------
// AVX2 delta scan (x86_64, runtime-detected)
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{mask_for, BLOCK_VALUES, VLANES};
    use core::arch::x86_64::*;

    /// Decode one row pair (rows `2K`, `2K+1` → 8 logical values) as a
    /// single masked 256-bit vector using variable per-half shifts: one
    /// or two 256-bit loads, one `srlv`, and — only at
    /// compile-time-crossing widths — one `sllv` (whose ≥32 shift
    /// counts conveniently yield zero for the non-crossing half).
    ///
    /// # Safety
    /// Requires AVX2 and `words.len() ≥ 4·B` with `B ≥ 1` and `K < 16`.
    #[inline(always)]
    unsafe fn pair256<const B: u32, const K: u32>(wp: *const u32, mask: __m256i) -> __m256i {
        let b0 = 2 * K * B;
        let b1 = (2 * K + 1) * B;
        let w0 = (b0 >> 5) as usize;
        let w1 = (b1 >> 5) as usize;
        let off0 = (b0 & 31) as i32;
        let off1 = (b1 & 31) as i32;
        // Adjacent rows start at most one lane word apart (B ≤ 32), so
        // [row0 words | row1 words] is either one straight 256-bit load
        // or a broadcast of one 128-bit word group.
        let lov = if w1 == w0 {
            _mm256_broadcastsi128_si256(_mm_loadu_si128(wp.add(w0 * VLANES) as *const __m128i))
        } else {
            _mm256_loadu_si256(wp.add(w0 * VLANES) as *const __m256i)
        };
        let lo = _mm256_srlv_epi32(
            lov,
            _mm256_setr_epi32(off0, off0, off0, off0, off1, off1, off1, off1),
        );
        let cross0 = off0 as u32 + B > 32;
        let cross1 = off1 as u32 + B > 32;
        if !cross0 && !cross1 {
            return _mm256_and_si256(lo, mask);
        }
        // High words: groups w0+1 and w1+1. A crossing row's second
        // word always exists (its value ends inside word ≤ B−1), so
        // each branch below only touches groups the payload contains;
        // when only row0 crosses at the tail, the zero-extended load
        // never reads group w1+1 and row1's sllv-by-≥32 ignores it.
        let nb = B as usize;
        let hiv = if w1 + 1 < nb {
            if w1 == w0 {
                _mm256_broadcastsi128_si256(_mm_loadu_si128(
                    wp.add((w0 + 1) * VLANES) as *const __m128i
                ))
            } else {
                _mm256_loadu_si256(wp.add((w0 + 1) * VLANES) as *const __m256i)
            }
        } else {
            _mm256_zextsi128_si256(_mm_loadu_si128(wp.add((w0 + 1) * VLANES) as *const __m128i))
        };
        let s0 = 32 - off0; // = 32 when off0 == 0 → sllv yields 0
        let s1 = 32 - off1;
        let hi = _mm256_sllv_epi32(hiv, _mm256_setr_epi32(s0, s0, s0, s0, s1, s1, s1, s1));
        _mm256_and_si256(_mm256_or_si256(lo, hi), mask)
    }

    /// AVX2 form of [`super::vunpack128_scan`]: [`pair256`] delta
    /// decode, in-vector inclusive prefix over 8 deltas, and a carry
    /// kept in the vector domain (broadcast of the pair's delta total)
    /// so no value round-trips through a scalar register per pair.
    /// Bit-identical to the portable serial chain because wrapping
    /// addition is associative.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2 (see
    /// [`super::simd_level`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn vunpack128_scan_avx2<const B: u32>(
        words: &[u32],
        reference: i32,
        acc: i32,
        out: &mut [i32; BLOCK_VALUES],
    ) -> i32 {
        if B == 0 {
            return super::vunpack128_scan::<0>(words, reference, acc, out);
        }
        let words = &words[..VLANES * B as usize];
        let wp = words.as_ptr();
        let op = out.as_mut_ptr();
        let mask = _mm256_set1_epi32(mask_for(B) as i32);
        // ramp[t] = (t+1)·reference — the per-slot reference fixup.
        let ramp = _mm256_setr_epi32(
            reference,
            reference.wrapping_mul(2),
            reference.wrapping_mul(3),
            reference.wrapping_mul(4),
            reference.wrapping_mul(5),
            reference.wrapping_mul(6),
            reference.wrapping_mul(7),
            reference.wrapping_mul(8),
        );
        let c8 = _mm256_set1_epi32(reference.wrapping_mul(8));
        let seven = _mm256_set1_epi32(7);
        // Every lane of bvec = acc + (8k)·reference + Σ deltas before
        // this pair.
        let mut bvec = _mm256_set1_epi32(acc);
        macro_rules! pairs16_acc {
            ($($k:literal)+) => { $( {
                let d = pair256::<B, $k>(wp, mask);
                // Inclusive prefix within each 128-bit half…
                let x = _mm256_add_epi32(d, _mm256_slli_si256::<4>(d));
                let x = _mm256_add_epi32(x, _mm256_slli_si256::<8>(x));
                // …then add the low half's total into the high half.
                let tot = _mm256_shuffle_epi32::<0b1111_1111>(x);
                let carry = _mm256_permute2x128_si256::<0x08>(tot, tot);
                let p = _mm256_add_epi32(x, carry);
                let v = _mm256_add_epi32(bvec, _mm256_add_epi32(ramp, p));
                _mm256_storeu_si256(op.add(8 * $k) as *mut __m256i, v);
                // p[7] is this pair's delta total; fold it and 8·ref
                // into the base vector without leaving the SIMD domain.
                let tlast = _mm256_permutevar8x32_epi32(p, seven);
                bvec = _mm256_add_epi32(bvec, _mm256_add_epi32(c8, tlast));
            } )+ };
        }
        pairs16_acc!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);
        _mm256_extract_epi32::<0>(bvec)
    }
}

// ---------------------------------------------------------------------
// Dispatch tables and front doors
// ---------------------------------------------------------------------

/// A vertical-block pack kernel: `(values, zeroed 4·b output words)`.
pub type VPacker = fn(&[u32; BLOCK_VALUES], &mut [u32]);

/// A vertical-block unpack+reference kernel.
pub type VUnpackerRef = fn(&[u32], i32, &mut [i32; BLOCK_VALUES]);

/// A vertical-block unpack+reference+scan kernel returning the carried
/// accumulator.
pub type VUnpackerScan = fn(&[u32], i32, i32, &mut [i32; BLOCK_VALUES]) -> i32;

#[cfg(target_arch = "x86_64")]
type VUnpackerScanUnsafe = unsafe fn(&[u32], i32, i32, &mut [i32; BLOCK_VALUES]) -> i32;

macro_rules! vtable {
    ($f:ident as $t:ty) => {
        [
            $f::<0> as $t,
            $f::<1> as $t,
            $f::<2> as $t,
            $f::<3> as $t,
            $f::<4> as $t,
            $f::<5> as $t,
            $f::<6> as $t,
            $f::<7> as $t,
            $f::<8> as $t,
            $f::<9> as $t,
            $f::<10> as $t,
            $f::<11> as $t,
            $f::<12> as $t,
            $f::<13> as $t,
            $f::<14> as $t,
            $f::<15> as $t,
            $f::<16> as $t,
            $f::<17> as $t,
            $f::<18> as $t,
            $f::<19> as $t,
            $f::<20> as $t,
            $f::<21> as $t,
            $f::<22> as $t,
            $f::<23> as $t,
            $f::<24> as $t,
            $f::<25> as $t,
            $f::<26> as $t,
            $f::<27> as $t,
            $f::<28> as $t,
            $f::<29> as $t,
            $f::<30> as $t,
            $f::<31> as $t,
            $f::<32> as $t,
        ]
    };
}

/// Dispatch table for the portable vertical packers ([`vpack128`]),
/// indexed by the shared bit width.
pub static VPACKERS: [VPacker; 33] = vtable!(vpack128 as VPacker);

/// Dispatch table for the portable vertical unpack+reference kernels
/// ([`vunpack128_ref`]), indexed by the shared bit width.
pub static VUNPACKERS_REF: [VUnpackerRef; 33] = vtable!(vunpack128_ref as VUnpackerRef);

/// Dispatch table for the portable vertical scan kernels
/// ([`vunpack128_scan`]), indexed by the shared bit width.
pub static VUNPACKERS_SCAN: [VUnpackerScan; 33] = vtable!(vunpack128_scan as VUnpackerScan);

#[cfg(target_arch = "x86_64")]
static VUNPACKERS_SCAN_AVX2: [VUnpackerScanUnsafe; 33] =
    vtable!(avx2_vunpack128_scan as VUnpackerScanUnsafe);

#[cfg(target_arch = "x86_64")]
use avx2::vunpack128_scan_avx2 as avx2_vunpack128_scan;

/// Pack one 128-value vertical block at `bitwidth` bits into the front
/// of `out` (≥ `4·bitwidth` zeroed words), via [`VPACKERS`].
///
/// In debug builds the packed words are cross-checked against the
/// [`crate::vertical::vertical_pack`] reference.
#[inline]
pub fn vpack_block(values: &[u32; BLOCK_VALUES], bitwidth: u32, out: &mut [u32]) {
    VPACKERS[bitwidth as usize](values, out);
    #[cfg(debug_assertions)]
    {
        let oracle = crate::vertical::vertical_pack(values, bitwidth, VLANES);
        debug_assert_eq!(
            &out[..VLANES * bitwidth as usize],
            oracle.as_slice(),
            "vpack128::<{bitwidth}> disagrees with vertical_pack"
        );
    }
}

/// Unpack one 128-value vertical block at `bitwidth` bits from the
/// front of `words` (≥ `4·bitwidth` words), adding `reference`
/// (wrapping) to every value, via [`VUNPACKERS_REF`].
///
/// In debug builds every value is cross-checked against the
/// [`crate::vertical::vertical_unpack`] reference oracle.
#[inline]
pub fn vunpack_block_ref(
    words: &[u32],
    bitwidth: u32,
    reference: i32,
    out: &mut [i32; BLOCK_VALUES],
) {
    VUNPACKERS_REF[bitwidth as usize](words, reference, out);
    #[cfg(debug_assertions)]
    {
        let oracle = crate::vertical::vertical_unpack(
            &words[..VLANES * bitwidth as usize],
            bitwidth,
            VLANES,
        );
        for (i, &v) in out.iter().enumerate() {
            debug_assert_eq!(
                v,
                reference.wrapping_add(oracle[i] as i32),
                "vertical ref unpack at width {bitwidth} disagrees with the oracle at value {i}"
            );
        }
    }
}

/// Unpack one 128-value vertical **delta** block at `bitwidth` bits,
/// reconstructing values via the fused reference add + inclusive prefix
/// scan (GPU-DFOR), and return the carried accumulator. Dispatches to
/// the AVX2 kernel when [`simd_level`] reports it, else the portable
/// one; both are bit-identical.
///
/// In debug builds every value is cross-checked against the
/// [`crate::vertical::vertical_unpack`] oracle plus a manual scan.
#[inline]
pub fn vunpack_block_scan(
    words: &[u32],
    bitwidth: u32,
    reference: i32,
    acc: i32,
    out: &mut [i32; BLOCK_VALUES],
) -> i32 {
    let ret = match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: simd_level() only reports Avx2 after
        // is_x86_feature_detected!("avx2") succeeded.
        SimdLevel::Avx2 => unsafe {
            VUNPACKERS_SCAN_AVX2[bitwidth as usize](words, reference, acc, out)
        },
        _ => VUNPACKERS_SCAN[bitwidth as usize](words, reference, acc, out),
    };
    #[cfg(debug_assertions)]
    {
        let oracle = crate::vertical::vertical_unpack(
            &words[..VLANES * bitwidth as usize],
            bitwidth,
            VLANES,
        );
        let mut check = acc;
        for (i, &v) in out.iter().enumerate() {
            check = check.wrapping_add(reference.wrapping_add(oracle[i] as i32));
            debug_assert_eq!(
                v, check,
                "vertical scan unpack at width {bitwidth} disagrees with the oracle at value {i}"
            );
        }
        debug_assert_eq!(ret, check);
    }
    ret
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vertical::{vertical_pack, vertical_unpack};
    use tlc_rng::Rng;

    fn sample(bw: u32, salt: u32) -> [u32; BLOCK_VALUES] {
        let mask = mask_for(bw);
        core::array::from_fn(|i| (i as u32 ^ salt).wrapping_mul(2654435761) & mask)
    }

    #[test]
    fn portable_pack_and_unpack_roundtrip_every_width() {
        for bw in 0u32..=32 {
            let values = sample(bw, 0xA5);
            let mut packed = vec![0u32; VLANES * bw as usize];
            vpack_block(&values, bw, &mut packed);
            assert_eq!(
                packed,
                vertical_pack(&values, bw, VLANES),
                "pack width {bw}"
            );
            let mut out = [0i32; BLOCK_VALUES];
            VUNPACKERS_REF[bw as usize](&packed, 0, &mut out);
            let expect: Vec<i32> = values.iter().map(|&v| v as i32).collect();
            assert_eq!(out.as_slice(), expect.as_slice(), "unpack width {bw}");
        }
    }

    #[test]
    fn dispatched_ref_kernels_match_the_vertical_oracle() {
        for bw in 0u32..=32 {
            let values = sample(bw, 0x3C);
            let packed = vertical_pack(&values, bw, VLANES);
            let mut out = [0i32; BLOCK_VALUES];
            vunpack_block_ref(&packed, bw, -17, &mut out);
            let oracle = vertical_unpack(&packed, bw, VLANES);
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(
                    v,
                    (-17i32).wrapping_add(oracle[i] as i32),
                    "width {bw} value {i}"
                );
            }
        }
    }

    #[test]
    fn dispatched_scan_kernels_match_a_serial_scan() {
        for bw in 0u32..=32 {
            let deltas = sample(bw, 0x77);
            let packed = vertical_pack(&deltas, bw, VLANES);
            let mut out = [0i32; BLOCK_VALUES];
            let reference = if bw > 0 { -3 } else { 5 };
            let acc = 1000;
            let ret = vunpack_block_scan(&packed, bw, reference, acc, &mut out);
            let mut check = acc;
            for (i, &d) in deltas.iter().enumerate() {
                check = check.wrapping_add(reference.wrapping_add(d as i32));
                assert_eq!(out[i], check, "width {bw} value {i}");
            }
            assert_eq!(ret, check, "width {bw} carry");
        }
    }

    /// The boundary differential. For every width, an all-ones payload
    /// and three random ones are decoded from a slice exactly `4·B`
    /// words long that starts 0..8 words into its allocation and ends
    /// it, so the AVX2 loads run at every 4-byte alignment mod 32 and
    /// any over-read panics or trips AddressSanitizer. Every reference
    /// and accumulator in {0, 1, −1, `i32::MIN`, `i32::MAX`, random}
    /// pins the portable kernels against the `vertical_unpack` oracle
    /// and the AVX2 scan against the portable one.
    #[test]
    fn avx2_kernels_are_bit_identical_to_portable() {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        let mut rng = Rng::seed_from_u64(0x5CA4_B0D1);
        let mut a = [0i32; BLOCK_VALUES];
        for bw in 0u32..=32 {
            let mask = mask_for(bw);
            for payload in 0..4 {
                let values: [u32; BLOCK_VALUES] = core::array::from_fn(|_| {
                    if payload == 0 {
                        mask
                    } else {
                        rng.next_u32() & mask
                    }
                });
                let packed = vertical_pack(&values, bw, VLANES);
                let oracle = vertical_unpack(&packed, bw, VLANES);
                let edges = [0, 1, -1, i32::MIN, i32::MAX, rng.next_u32() as i32];
                for start in 0..8 {
                    let buf: Box<[u32]> = [vec![0; start], packed.clone()].concat().into();
                    let words = &buf[start..];
                    let at = format!("width {bw} payload {payload} start {start}");
                    for reference in edges {
                        VUNPACKERS_REF[bw as usize](words, reference, &mut a);
                        for (i, (&got, &v)) in a.iter().zip(&oracle).enumerate() {
                            assert_eq!(got, reference.wrapping_add(v as i32), "ref {at} value {i}");
                        }
                        for acc in edges {
                            let ra = VUNPACKERS_SCAN[bw as usize](words, reference, acc, &mut a);
                            let mut check = acc;
                            for (i, (&got, &v)) in a.iter().zip(&oracle).enumerate() {
                                check = check.wrapping_add(reference.wrapping_add(v as i32));
                                assert_eq!(
                                    got, check,
                                    "scan {at} ref {reference} acc {acc} value {i}"
                                );
                            }
                            assert_eq!(ra, check, "scan carry {at} ref {reference} acc {acc}");
                            #[cfg(target_arch = "x86_64")]
                            if avx2 {
                                let mut b = [0i32; BLOCK_VALUES];
                                // SAFETY: avx2 was detected above.
                                let rb = unsafe {
                                    VUNPACKERS_SCAN_AVX2[bw as usize](words, reference, acc, &mut b)
                                };
                                assert_eq!(a, b, "avx2 scan {at} ref {reference} acc {acc}");
                                assert_eq!(ra, rb, "avx2 carry {at} ref {reference} acc {acc}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn simd_level_is_stable_within_a_process() {
        assert_eq!(simd_level(), simd_level());
    }
}
