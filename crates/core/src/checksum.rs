//! Per-block FNV-1a checksums over the encoded word streams.
//!
//! Compressed columns are the state a deployment actually persists and
//! ships between host, disk and device, so they are the state that
//! arrives damaged. Every scheme therefore carries one 32-bit checksum
//! per decode block, stored next to the payload (format minor version
//! 1, see [`crate::serialize`]) and verified from shared memory right
//! after a tile is staged — before any width is trusted.
//!
//! The hash is word-granular FNV-1a: `h = (h ^ word) * prime` per
//! 32-bit word. Each step is a bijection on `u32` (xor with a constant,
//! then multiplication by an odd constant), so *any* change confined to
//! a single word — in particular any single bit flip — always changes
//! the digest. Multi-word corruption is detected with probability
//! `1 - 2^-32` per block.
//!
//! Checksums are **derived**, not stored in the host structs: two
//! encodings of the same data stay bit-identical (`PartialEq`), and the
//! metadata pinned against the paper's Section 9.2 overhead figures
//! ([`crate::GpuFor::compressed_bytes`] et al.) is unchanged.
//!
//! One digest is a dependent chain (each step waits on the previous
//! multiply), but the digests of different blocks are independent — on
//! the device each is its own warp. [`fnv1a_lockstep`] therefore
//! advances [`LOCKSTEP`] blocks' chains together, which is how every
//! many-block digest here (tile verification, `block_checksums`) runs.
//! For the same reason [`stream_and_file_digests`] steps a stored
//! file's two whole-stream chains in one loop.

use tlc_gpu_sim::BlockCtx;

use crate::format::MAX_D;
use crate::gpu_dfor::{GpuDFor, TileGeometry};
use crate::gpu_for::GpuFor;
use crate::gpu_rfor::GpuRFor;

/// FNV-1a 32-bit offset basis.
pub const FNV_OFFSET: u32 = 0x811C_9DC5;

/// FNV-1a 32-bit prime (odd, so each mix step is invertible mod 2^32).
pub const FNV_PRIME: u32 = 0x0100_0193;

/// Continue an FNV-1a digest over `words` from `state`.
#[inline]
pub fn fnv1a_continue(state: u32, words: &[u32]) -> u32 {
    let mut h = state;
    for &w in words {
        h = (h ^ w).wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a digest of a word slice.
#[inline]
pub fn fnv1a(words: &[u32]) -> u32 {
    fnv1a_continue(FNV_OFFSET, words)
}

/// One little-endian word of a byte stream, from a four-byte chunk.
/// The chunk converts as one `[u8; 4]` rather than four indexed bytes,
/// so a copy loop over these compiles to plain loads (about 4× faster).
#[inline]
pub(crate) fn le_word(c: &[u8]) -> u32 {
    u32::from_le_bytes(c.try_into().expect("exact chunk"))
}

/// [`fnv1a_continue`] over the little-endian words of `bytes`, read in
/// place (a trailing partial word is ignored).
#[inline]
pub fn fnv1a_continue_le(state: u32, bytes: &[u8]) -> u32 {
    bytes
        .chunks_exact(4)
        .fold(state, |h, c| (h ^ le_word(c)).wrapping_mul(FNV_PRIME))
}

/// Both digests a stored column is checked against, in one pass over
/// the little-endian words of `bytes` (a trailing partial word is
/// ignored): `(stream, file)`, where
/// - `stream` is [`fnv1a`] over every word but the last, what a
///   serialized column's trailing digest word must equal;
/// - `file` is [`fnv1a_continue`]`(file_basis, every word)`.
///
/// Each chain waits on its own multiply, so stepping both in one loop
/// costs what one chain costs.
pub fn stream_and_file_digests(bytes: &[u8], file_basis: u32) -> (u32, u32) {
    let body = bytes.len() / 4 * 4;
    let (body, last) = bytes[..body].split_at(body.saturating_sub(4));
    let (mut stream, mut file) = (FNV_OFFSET, file_basis);
    for c in body.chunks_exact(4) {
        let w = le_word(c);
        stream = (stream ^ w).wrapping_mul(FNV_PRIME);
        file = (file ^ w).wrapping_mul(FNV_PRIME);
    }
    (stream, fnv1a_continue_le(file, last))
}

/// Chains [`fnv1a_lockstep`] advances together: enough independent
/// multiplies in flight to hide one chain's latency.
pub const LOCKSTEP: usize = 4;

/// Continue one FNV-1a digest per block: `states[i]` advances over
/// `block(i)`, exactly as [`fnv1a_continue`] would. Blocks are taken
/// [`LOCKSTEP`] at a time and stepped together over their common
/// length; each ragged tail (and a final group of fewer blocks) then
/// finishes on its own.
pub fn fnv1a_lockstep<'a>(states: &mut [u32], block: impl Fn(usize) -> &'a [u32]) {
    for (g, group) in states.chunks_mut(LOCKSTEP).enumerate() {
        let first = g * LOCKSTEP;
        let [h0, h1, h2, h3] = group else {
            for (i, h) in group.iter_mut().enumerate() {
                *h = fnv1a_continue(*h, block(first + i));
            }
            continue;
        };
        let (a, b, c, d) = (
            block(first),
            block(first + 1),
            block(first + 2),
            block(first + 3),
        );
        let common = a.len().min(b.len()).min(c.len()).min(d.len());
        let (mut s0, mut s1, mut s2, mut s3) = (*h0, *h1, *h2, *h3);
        for (((&w0, &w1), &w2), &w3) in a[..common]
            .iter()
            .zip(&b[..common])
            .zip(&c[..common])
            .zip(&d[..common])
        {
            s0 = (s0 ^ w0).wrapping_mul(FNV_PRIME);
            s1 = (s1 ^ w1).wrapping_mul(FNV_PRIME);
            s2 = (s2 ^ w2).wrapping_mul(FNV_PRIME);
            s3 = (s3 ^ w3).wrapping_mul(FNV_PRIME);
        }
        *h0 = fnv1a_continue(s0, &a[common..]);
        *h1 = fnv1a_continue(s1, &b[common..]);
        *h2 = fnv1a_continue(s2, &c[common..]);
        *h3 = fnv1a_continue(s3, &d[common..]);
    }
}

/// **Device function**: verify staged blocks against their stored
/// checksums. Block `i` is the `(word offset, length)` range
/// `range(i)` of shared memory and must digest to `expected[i]`;
/// `Err(i)` names the first block that does not.
///
/// Charged as the warps of a tile verifying in block order: one shared
/// read plus ~2 integer ops (xor + multiply) per word of every block up
/// to and including the first bad one.
pub fn verify_staged(
    ctx: &mut BlockCtx<'_>,
    expected: &[u32],
    range: impl Fn(usize) -> (usize, usize),
) -> Result<(), usize> {
    debug_assert!(expected.len() <= MAX_D);
    let (shared, traffic) = ctx.shared_and_traffic();
    let mut digests = [FNV_OFFSET; MAX_D];
    let digests = &mut digests[..expected.len()];
    fnv1a_lockstep(digests, |i| {
        let (off, len) = range(i);
        &shared[off..off + len]
    });
    let bad = digests
        .iter()
        .zip(expected)
        .position(|(got, want)| got != want);
    let checked = bad.map_or(expected.len(), |i| i + 1);
    let words: u64 = (0..checked).map(|i| range(i).1 as u64).sum();
    traffic.shared_bytes += words * 4;
    traffic.int_ops += words * 2;
    bad.map_or(Ok(()), Err)
}

impl GpuFor {
    /// One checksum per 128-value block, over the block's words
    /// `data[block_starts[b]..block_starts[b + 1]]`.
    pub fn block_checksums(&self) -> Vec<u32> {
        let mut sums = vec![FNV_OFFSET; self.blocks()];
        fnv1a_lockstep(&mut sums, |b| {
            &self.data[self.block_starts[b] as usize..self.block_starts[b + 1] as usize]
        });
        sums
    }
}

impl GpuDFor {
    /// One checksum per 128-entry delta block, over the words the block
    /// covers (`TileGeometry::cover`): a block that heads a tile
    /// covers the tile's first-value word too, so the whole `data` array
    /// is tiled exactly by the per-block ranges.
    pub fn block_checksums(&self) -> Vec<u32> {
        let geometry = TileGeometry::new(self.d, &self.block_starts, self.data.len())
            .expect("an encoded or validated column has a tile geometry");
        let mut sums = vec![FNV_OFFSET; self.blocks()];
        fnv1a_lockstep(&mut sums, |b| {
            let (lo, hi) = geometry
                .cover(b, self.block_starts[b], self.block_starts[b + 1])
                .expect("an encoded or validated column has every first-value word");
            &self.data[lo..hi]
        });
        sums
    }
}

impl GpuRFor {
    /// One checksum per 512-value logical block, chained over the
    /// block's values-stream words then its lengths-stream words.
    pub fn block_checksums(&self) -> Vec<u32> {
        let mut sums = vec![FNV_OFFSET; self.blocks()];
        fnv1a_lockstep(&mut sums, |b| {
            &self.values_data[self.values_starts[b] as usize..self.values_starts[b + 1] as usize]
        });
        fnv1a_lockstep(&mut sums, |b| {
            &self.lengths_data[self.lengths_starts[b] as usize..self.lengths_starts[b + 1] as usize]
        });
        sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_word_change_always_detected() {
        // The mix step is bijective, so flipping any one word (any bit
        // pattern) must change the digest.
        let words: Vec<u32> = (0..256u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        let clean = fnv1a(&words);
        for i in 0..words.len() {
            for bit in [0, 7, 31] {
                let mut dirty = words.clone();
                dirty[i] ^= 1 << bit;
                assert_ne!(fnv1a(&dirty), clean, "flip word {i} bit {bit}");
            }
        }
    }

    #[test]
    fn empty_and_chaining() {
        assert_eq!(fnv1a(&[]), FNV_OFFSET);
        let words = [1u32, 2, 3, 4];
        assert_eq!(
            fnv1a(&words),
            fnv1a_continue(fnv1a(&words[..2]), &words[2..])
        );
    }

    /// The one-pass pair against its two serial definitions over staged
    /// words.
    fn assert_pair_is_serial(words: &[u32], basis: u32) {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let stream = fnv1a(&words[..words.len().saturating_sub(1)]);
        let file = fnv1a_continue(basis, words);
        assert_eq!(
            stream_and_file_digests(&bytes, basis),
            (stream, file),
            "{} words",
            words.len()
        );
        assert_eq!(fnv1a_continue_le(basis, &bytes), file);
        // A torn trailing word is not a word.
        for tail in 1..4 {
            let mut torn = bytes.clone();
            torn.extend(std::iter::repeat_n(0xA5, tail));
            assert_eq!(stream_and_file_digests(&torn, basis), (stream, file));
        }
    }

    #[test]
    fn one_pass_digests_match_the_serial_definitions() {
        let mut rng = tlc_rng::Rng::seed_from_u64(0xF1A_0003);
        let words: Vec<u32> = (0..64).map(|_| rng.next_u64() as u32).collect();
        for n in 0..=words.len() {
            assert_pair_is_serial(&words[..n], 0x5EED_F11E);
            assert_pair_is_serial(&words[..n], FNV_OFFSET);
        }
        let large: Vec<u32> = (0..100_003).map(|_| rng.next_u64() as u32).collect();
        assert_pair_is_serial(&large, rng.next_u64() as u32);
    }

    /// Seeded ragged blocks: lengths 0..40 with zeros forced in.
    fn ragged_blocks(rng: &mut tlc_rng::Rng, d: usize) -> Vec<Vec<u32>> {
        (0..d)
            .map(|_| {
                let len = if rng.gen_bool(0.15) {
                    0
                } else {
                    rng.gen_range(0usize..40)
                };
                (0..len).map(|_| rng.next_u64() as u32).collect()
            })
            .collect()
    }

    #[test]
    fn lockstep_matches_the_serial_digest_for_every_depth() {
        let mut rng = tlc_rng::Rng::seed_from_u64(0xF1A_0001);
        for d in 1..=MAX_D {
            let blocks = ragged_blocks(&mut rng, d);
            let seeds: Vec<u32> = (0..d).map(|_| rng.next_u64() as u32).collect();
            for start in [vec![FNV_OFFSET; d], seeds] {
                let mut got = start.clone();
                fnv1a_lockstep(&mut got, |i| &blocks[i]);
                let want: Vec<u32> = start
                    .iter()
                    .zip(&blocks)
                    .map(|(&h, b)| fnv1a_continue(h, b))
                    .collect();
                assert_eq!(got, want, "d = {d}");
            }
        }
    }

    /// One staged verify of `blocks` laid end to end in shared memory:
    /// the verdict and the shared bytes / int ops it charged.
    fn verify(blocks: &[Vec<u32>], expected: &[u32]) -> (Result<(), usize>, u64, u64) {
        use tlc_gpu_sim::{Device, KernelConfig};
        let words: Vec<u32> = blocks.concat();
        let mut offs = vec![0usize];
        for b in blocks {
            offs.push(offs.last().expect("seeded") + b.len());
        }
        let dev = Device::v100();
        let mut verdict = Ok(());
        let cfg = KernelConfig::new("verify", 1, 128).smem_per_block(words.len() * 4 + 4);
        let report = dev.launch(cfg, |ctx| {
            ctx.shared_mut()[..words.len()].copy_from_slice(&words);
            verdict = verify_staged(ctx, expected, |i| (offs[i], offs[i + 1] - offs[i]));
        });
        (verdict, report.traffic.shared_bytes, report.traffic.int_ops)
    }

    #[test]
    fn staged_verify_names_the_first_bad_block_and_charges_up_to_it() {
        let mut rng = tlc_rng::Rng::seed_from_u64(0xF1A_0002);
        for d in 1..=MAX_D {
            let mut blocks = ragged_blocks(&mut rng, d);
            for b in &mut blocks {
                // A block needs a word to flip.
                b.push(rng.next_u64() as u32);
            }
            let expected: Vec<u32> = blocks.iter().map(|b| fnv1a(b)).collect();
            let words_through = |i: usize| blocks[..=i].iter().map(Vec::len).sum::<usize>() as u64;
            let (clean, shared, ops) = verify(&blocks, &expected);
            assert_eq!(clean, Ok(()), "d = {d}");
            assert_eq!(
                (shared, ops),
                (words_through(d - 1) * 4, words_through(d - 1) * 2)
            );
            // Every block position at shallow depths, three per deep one.
            let positions: Vec<usize> = if d <= 12 {
                (0..d).collect()
            } else {
                vec![0, rng.gen_range(1..d - 1), d - 1]
            };
            for bad in positions {
                let mut dirty = blocks.clone();
                let w = rng.gen_range(0..dirty[bad].len());
                dirty[bad][w] ^= 1 << rng.gen_range(0u32..32);
                // A later block damaged too: serial order stops first.
                if bad + 1 < d {
                    dirty[d - 1][0] ^= 1;
                }
                let (verdict, shared, ops) = verify(&dirty, &expected);
                assert_eq!(verdict, Err(bad), "d = {d}");
                assert_eq!(
                    (shared, ops),
                    (words_through(bad) * 4, words_through(bad) * 2),
                    "d = {d}, bad = {bad}"
                );
            }
        }
    }

    #[test]
    fn block_checksums_are_the_serial_digests_of_their_ranges() {
        // Mixed widths so neighbouring blocks differ in length; 1 100
        // values leave a final group of fewer than LOCKSTEP blocks.
        let values: Vec<i32> = (0..1_100).map(|i| (i / 7) << (i / 150)).collect();
        let col = GpuFor::encode(&values);
        let want: Vec<u32> = col
            .block_starts
            .windows(2)
            .map(|w| fnv1a(&col.data[w[0] as usize..w[1] as usize]))
            .collect();
        assert_eq!(col.block_checksums(), want);

        let col = GpuRFor::encode(&values);
        let want: Vec<u32> = (0..col.blocks())
            .map(|b| {
                let v = col.values_starts[b] as usize..col.values_starts[b + 1] as usize;
                let l = col.lengths_starts[b] as usize..col.lengths_starts[b + 1] as usize;
                fnv1a_continue(fnv1a(&col.values_data[v]), &col.lengths_data[l])
            })
            .collect();
        assert_eq!(col.block_checksums(), want);

        // DFOR's ranges tile `data` exactly: chaining them in block
        // order is the digest of the whole array.
        let col = GpuDFor::encode_with_d(&values, 4);
        let cover = |b: usize| col.block_starts[b] as usize - usize::from(b.is_multiple_of(4));
        let want: Vec<u32> = (0..col.blocks())
            .map(|b| {
                let hi = if b + 1 == col.blocks() {
                    col.data.len()
                } else {
                    cover(b + 1)
                };
                fnv1a(&col.data[cover(b)..hi])
            })
            .collect();
        assert_eq!(col.block_checksums(), want);
    }

    #[test]
    fn for_checksums_cover_every_block() {
        let values: Vec<i32> = (0..1000).map(|i| i * 7 % 321).collect();
        let col = GpuFor::encode(&values);
        let sums = col.block_checksums();
        assert_eq!(sums.len(), col.blocks());
        // Any single-bit flip anywhere in data changes exactly the
        // covering block's checksum.
        let mut dirty = col.clone();
        dirty.data[3] ^= 1 << 5;
        let dirty_sums = dirty.block_checksums();
        let changed: Vec<usize> = (0..sums.len())
            .filter(|&b| sums[b] != dirty_sums[b])
            .collect();
        assert_eq!(changed.len(), 1);
    }

    #[test]
    fn dfor_checksums_tile_the_data_exactly() {
        for d in [1, 2, 4] {
            let values: Vec<i32> = (0..2000).map(|i| i / 3).collect();
            let col = GpuDFor::encode_with_d(&values, d);
            let sums = col.block_checksums();
            assert_eq!(sums.len(), col.blocks(), "d = {d}");
            // Flipping the first word (a first-value word) must change
            // the first block's checksum: tile heads are covered.
            let mut dirty = col.clone();
            dirty.data[0] ^= 1;
            assert_ne!(dirty.block_checksums()[0], sums[0], "d = {d}");
        }
    }

    #[test]
    fn rfor_checksums_cover_both_streams() {
        let values: Vec<i32> = (0..1500).map(|i| i / 40).collect();
        let col = GpuRFor::encode(&values);
        let sums = col.block_checksums();
        assert_eq!(sums.len(), col.blocks());
        let mut dirty = col.clone();
        dirty.lengths_data[0] ^= 1 << 9;
        assert_ne!(dirty.block_checksums()[0], sums[0]);
    }
}
