//! Vertical (lane-striped) bit packing, the SIMD-BP128 / GPU-SIMDBP128
//! layout of paper Section 4.3 and Figure 1.
//!
//! A block holds `lanes * 32` values. Value `j` belongs to lane
//! `j % lanes` at in-lane position `j / lanes`; each lane's 32 values
//! are packed LSB-first into `bitwidth` words, and lane words are
//! interleaved (`output[w * lanes + l]` = word `w` of lane `l`) so that
//! on a GPU, thread `l` of a warp streams through words `l, l+lanes, …`
//! with fully coalesced accesses.

use crate::horizontal::pack_stream;
use crate::unpack::unpack_miniblock_ref;
use crate::MINIBLOCK;

/// Pack `values` (length must be `lanes * 32`) at `bitwidth` bits in the
/// vertical layout. Returns `lanes * bitwidth` words.
pub fn vertical_pack(values: &[u32], bitwidth: u32, lanes: usize) -> Vec<u32> {
    assert_eq!(
        values.len(),
        lanes * MINIBLOCK,
        "vertical block must hold lanes * 32 values"
    );
    let mut out = vec![0u32; lanes * bitwidth as usize];
    let mut lane_vals = Vec::with_capacity(MINIBLOCK);
    for l in 0..lanes {
        lane_vals.clear();
        lane_vals.extend((0..MINIBLOCK).map(|p| values[p * lanes + l]));
        let lane_words = pack_stream(&lane_vals, bitwidth);
        for (w, &word) in lane_words.iter().enumerate() {
            out[w * lanes + l] = word;
        }
    }
    out
}

/// Unpack a vertical block of `lanes * 32` values.
pub fn vertical_unpack(words: &[u32], bitwidth: u32, lanes: usize) -> Vec<u32> {
    assert_eq!(words.len(), lanes * bitwidth as usize);
    let mut out = vec![0u32; lanes * MINIBLOCK];
    let mut lane_words = Vec::with_capacity(bitwidth as usize);
    let mut vals = [0i32; MINIBLOCK];
    for l in 0..lanes {
        lane_words.clear();
        lane_words.extend((0..bitwidth as usize).map(|w| words[w * lanes + l]));
        // A de-interleaved lane is exactly one full miniblock — take the
        // monomorphized fast path at reference 0.
        unpack_miniblock_ref(&lane_words, bitwidth, 0, &mut vals);
        for (p, &v) in vals.iter().enumerate() {
            out[p * lanes + l] = v as u32;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_four_lanes() {
        // SIMD-BP128 shape: 4 lanes of 32 values.
        let values: Vec<u32> = (0..128).map(|i| (i * 7) % 1024).collect();
        let packed = vertical_pack(&values, 10, 4);
        assert_eq!(packed.len(), 40);
        assert_eq!(vertical_unpack(&packed, 10, 4), values);
    }

    #[test]
    fn roundtrip_thirtytwo_lanes() {
        // GPU-SIMDBP128 shape: 32 lanes (one warp), block of 1024.
        let values: Vec<u32> = (0..1024).map(|i| i % (1 << 9)).collect();
        let packed = vertical_pack(&values, 9, 32);
        assert_eq!(packed.len(), 32 * 9);
        assert_eq!(vertical_unpack(&packed, 9, 32), values);
    }

    #[test]
    fn figure1_striping() {
        // Figure 1: Int1..Int4 start in four different words; Int5 is
        // adjacent to Int1 within the same word at 14-bit width.
        let mut values = vec![0u32; 128];
        values[0] = 0x1111; // Int1 -> lane 0, position 0
        values[4] = 0x2222; // Int5 -> lane 0, position 1
        let packed = vertical_pack(&values, 14, 4);
        // Lane 0's first word holds Int1 in bits [0,14) and the low bits
        // of Int5 starting at bit 14.
        assert_eq!(packed[0] & 0x3FFF, 0x1111);
        assert_eq!((packed[0] >> 14) & 0x3FFF, 0x2222 & 0x3FFF);
    }

    #[test]
    fn zero_bitwidth_block() {
        let values = vec![0u32; 128];
        let packed = vertical_pack(&values, 0, 4);
        assert!(packed.is_empty());
        assert_eq!(vertical_unpack(&packed, 0, 4), values);
    }

    #[test]
    fn full_width_block() {
        let values: Vec<u32> = (0..128).map(|i| u32::MAX - i).collect();
        let packed = vertical_pack(&values, 32, 4);
        assert_eq!(vertical_unpack(&packed, 32, 4), values);
    }
}
