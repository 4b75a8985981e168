//! Differential tests for the monomorphized per-width unpackers.
//!
//! Every `unpack32_ref::<B>` — reached directly and through the
//! `UNPACKERS_REF` dispatch table — must agree with the generic window
//! `extract` oracle plus the reference add on random miniblocks for all
//! widths 0..=32 (including `u32::MAX` payloads at width 32), at
//! reference 0 (the plain unpack) and at random references, and
//! `unpack_stream_into` must agree on streams whose partial tails span
//! word boundaries. `extract` is the slow, per-value reference the
//! fast path is measured against; any disagreement is a bug in the
//! fast path by definition.

use tlc_bitpack::{
    extract, pack_stream, unpack32_ref, unpack_miniblock_ref, unpack_stream_into, MINIBLOCK,
    UNPACKERS_REF,
};
use tlc_rng::Rng;

fn values_for_width(rng: &mut Rng, bw: u32, len: usize) -> Vec<u32> {
    let max = if bw == 0 {
        0u32
    } else if bw == 32 {
        u32::MAX
    } else {
        (1u32 << bw) - 1
    };
    (0..len).map(|_| rng.gen_range(0u32..=max)).collect()
}

/// Reference 0 (the plain unpack) and one random reference.
fn references(rng: &mut Rng) -> [i32; 2] {
    [0, rng.gen_range(0u32..=u32::MAX) as i32]
}

/// `extract` at value `i` plus `reference`, wrapping.
fn oracle(packed: &[u32], bw: u32, reference: i32, i: usize) -> i32 {
    reference.wrapping_add(extract(packed, i * bw as usize, bw) as i32)
}

#[test]
fn dispatch_table_matches_extract_on_random_miniblocks() {
    let mut rng = Rng::seed_from_u64(0xD1F_0001);
    for bw in 0u32..=32 {
        for _ in 0..32 {
            let values = values_for_width(&mut rng, bw, MINIBLOCK);
            let packed = pack_stream(&values, bw);
            for reference in references(&mut rng) {
                let mut out = [0i32; MINIBLOCK];
                UNPACKERS_REF[bw as usize](&packed, reference, &mut out);
                for (i, &got) in out.iter().enumerate() {
                    assert_eq!(
                        got,
                        oracle(&packed, bw, reference, i),
                        "width {bw}, reference {reference}, lane {i}"
                    );
                    assert_eq!(
                        got.wrapping_sub(reference) as u32,
                        values[i],
                        "width {bw}, reference {reference}, lane {i}"
                    );
                }
            }
        }
    }
}

#[test]
fn width_32_carries_u32_max() {
    let values = [u32::MAX; MINIBLOCK];
    let packed = pack_stream(&values, 32);
    let mut out = [0i32; MINIBLOCK];
    unpack32_ref::<32>(&packed, 0, &mut out);
    assert_eq!(out.map(|v| v as u32), values);
    for (i, &got) in out.iter().enumerate() {
        assert_eq!(got as u32, extract(&packed, i * 32, 32));
    }
    // A nonzero reference wraps: u32::MAX + 1 = 0.
    unpack32_ref::<32>(&packed, 1, &mut out);
    assert_eq!(out, [0; MINIBLOCK]);
}

#[test]
fn direct_instantiations_match_the_table() {
    // Spot-check that the const-generic entry points and the table
    // dispatch are the same functions (widths around word boundaries).
    let mut rng = Rng::seed_from_u64(0xD1F_0002);
    macro_rules! check {
        ($($b:literal),*) => {$({
            let values = values_for_width(&mut rng, $b, MINIBLOCK);
            let packed = pack_stream(&values, $b);
            for reference in references(&mut rng) {
                let (mut direct, mut table) = ([0i32; MINIBLOCK], [0i32; MINIBLOCK]);
                unpack32_ref::<$b>(&packed, reference, &mut direct);
                UNPACKERS_REF[$b as usize](&packed, reference, &mut table);
                assert_eq!(direct, table, "width {}, reference {reference}", $b);
            }
        })*};
    }
    check!(0, 1, 7, 8, 13, 16, 17, 24, 31, 32);
}

#[test]
fn stream_partial_tails_match_extract() {
    // Tail lengths chosen so the final partial miniblock's windows
    // straddle word boundaries at almost every width.
    let mut rng = Rng::seed_from_u64(0xD1F_0003);
    for bw in 0u32..=32 {
        for tail in [1usize, 7, 13, 31] {
            let count = MINIBLOCK * 3 + tail;
            let values = values_for_width(&mut rng, bw, count);
            let packed = pack_stream(&values, bw);
            let mut out = Vec::new();
            unpack_stream_into(&packed, bw, count, &mut out);
            assert_eq!(out, values, "width {bw}, tail {tail}");
            for (i, &got) in out.iter().enumerate() {
                assert_eq!(got, extract(&packed, i * bw as usize, bw));
            }
        }
    }
}

#[test]
fn unpack_miniblock_dispatch_matches_extract() {
    // The runtime-width wrapper used by the decode kernels.
    let mut rng = Rng::seed_from_u64(0xD1F_0004);
    for bw in 0u32..=32 {
        let values = values_for_width(&mut rng, bw, MINIBLOCK);
        let packed = pack_stream(&values, bw);
        for reference in references(&mut rng) {
            let mut out = [0i32; MINIBLOCK];
            unpack_miniblock_ref(&packed, bw, reference, &mut out);
            for (i, &got) in out.iter().enumerate() {
                assert_eq!(
                    got,
                    oracle(&packed, bw, reference, i),
                    "width {bw}, reference {reference}"
                );
            }
        }
    }
}
