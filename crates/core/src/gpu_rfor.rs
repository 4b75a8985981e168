//! GPU-RFOR: run-length encoding + FOR + bit packing (paper Section 6).
//!
//! The array is partitioned into logical blocks of 512 values; RLE is
//! applied to each block independently (runs never straddle blocks),
//! producing a *values* array and a *run lengths* array. Both arrays
//! are then FOR + bit-packed with 32-entry miniblocks and stored as two
//! separate compressed streams, each with its own block-starts array.
//! Each values block additionally records its run count.
//!
//! Tile-based decoding loads one compressed values block and one
//! compressed lengths block into shared memory, bit-unpacks both, and
//! expands the runs with the four-step routine of Fang et al. \[18\]:
//! an exclusive prefix sum over the lengths (output offsets), a scatter
//! of head flags, an inclusive prefix sum over the flags (run ids), and
//! a gather of the values — all entirely in shared memory, fused into a
//! single kernel pass. The simulator charges those four steps; the host
//! computes the same output in one pass, `expand_runs`, which places
//! each run and fills it with one broadcast store.

use tlc_bitpack::pack::pack_miniblock;
use tlc_bitpack::unpack::unpack_miniblock_ref;
use tlc_bitpack::width::bits_for;
use tlc_bitpack::MINIBLOCK;
use tlc_gpu_sim::scan::charge_block_scan;
use tlc_gpu_sim::{BlockCtx, Counter, Device, GlobalBuffer, KernelConfig, Phase};

use crate::block::{group_words, unpack_group, widths};
use crate::checksum::{fnv1a, fnv1a_continue};
use crate::error::DecodeError;
use crate::format::{Layout, BLOCK, MINIBLOCKS_PER_BLOCK, RFOR_BLOCK};
use crate::gpu_for::run_decode;

const SCHEME: &str = "GPU-RFOR";

/// A column encoded with GPU-RFOR (host-side representation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GpuRFor {
    /// Number of logical values.
    pub total_count: usize,
    /// Word offsets of values blocks (`blocks + 1` entries).
    pub values_starts: Vec<u32>,
    /// Compressed values stream.
    pub values_data: Vec<u32>,
    /// Word offsets of lengths blocks (`blocks + 1` entries).
    pub lengths_starts: Vec<u32>,
    /// Compressed run-lengths stream.
    pub lengths_data: Vec<u32>,
    /// Physical stream payload arrangement (see [`Layout`]). Under
    /// `Vertical`, every *complete* group of four miniblocks (128
    /// entries) in a stream block is lane-transposed at the group's
    /// max width; tail miniblocks stay horizontal.
    pub layout: Layout,
}

/// Reusable per-stream-block encode scratch (offsets + widths), hoisted
/// out of the per-block loop so steady-state encode allocates nothing.
#[derive(Default)]
struct StreamScratch {
    deltas: Vec<u32>,
    widths: Vec<u32>,
}

/// Encode one FOR+bit-packed stream block (used for both values and
/// lengths). `raw` is padded to a multiple of 32 with the reference
/// (zero-width deltas). Layout: `[ref][bw bytes, 4/word][miniblocks]`.
///
/// Under [`Layout::Vertical`] every complete group of four miniblocks
/// packs lane-transposed at the group's shared (max) width — the four
/// width bytes of that group's bitwidth word repeat it — while a tail
/// of fewer than four miniblocks keeps the horizontal form.
fn encode_stream_block(raw: &[i32], layout: Layout, s: &mut StreamScratch, data: &mut Vec<u32>) {
    let reference = *raw.iter().min().expect("stream block is non-empty");
    let padded = raw.len().div_ceil(MINIBLOCK) * MINIBLOCK;
    s.deltas.clear();
    s.deltas.resize(padded, 0);
    for (d, &v) in s.deltas.iter_mut().zip(raw) {
        *d = v.wrapping_sub(reference) as u32;
    }
    let miniblocks = padded / MINIBLOCK;
    s.widths.clear();
    s.widths.resize(miniblocks, 0);
    for (m, w) in s.widths.iter_mut().enumerate() {
        let mut or = 0u32;
        for &d in &s.deltas[m * MINIBLOCK..(m + 1) * MINIBLOCK] {
            or |= d;
        }
        *w = bits_for(or);
    }
    if layout == Layout::Vertical {
        // Promote each complete group of four widths to the group max.
        for group in s.widths.chunks_exact_mut(MINIBLOCKS_PER_BLOCK) {
            let w = group.iter().copied().max().unwrap_or(0);
            group.fill(w);
        }
    }
    data.push(reference as u32);
    for chunk in s.widths.chunks(4) {
        let mut word = 0u32;
        for (i, &w) in chunk.iter().enumerate() {
            word |= w << (8 * i);
        }
        data.push(word);
    }
    let full_groups = if layout == Layout::Vertical {
        miniblocks / MINIBLOCKS_PER_BLOCK
    } else {
        0
    };
    for g in 0..full_groups {
        let w = s.widths[g * MINIBLOCKS_PER_BLOCK];
        let start = data.len();
        data.resize(start + MINIBLOCKS_PER_BLOCK * w as usize, 0);
        let vals: &[u32; BLOCK] = s.deltas[g * BLOCK..(g + 1) * BLOCK]
            .try_into()
            .expect("exact group");
        tlc_bitpack::simd::vpack_block(vals, w, &mut data[start..]);
    }
    for m in full_groups * MINIBLOCKS_PER_BLOCK..miniblocks {
        let w = s.widths[m];
        let start = data.len();
        data.resize(start + w as usize, 0);
        let mb: &[u32; MINIBLOCK] = s.deltas[m * MINIBLOCK..(m + 1) * MINIBLOCK]
            .try_into()
            .expect("exact miniblock");
        pack_miniblock(mb, w, &mut data[start..]);
    }
}

/// Decode one stream block (a word slice beginning at the reference
/// word) into `out`: `out.len() / 32` whole miniblocks, the entry count
/// rounded up (the encoder pads with zero-width deltas, so the padding
/// decodes to the reference). Callers keep `out` on the stack. Each
/// complete four-miniblock group decodes through the kernel the layout
/// rule picks ([`unpack_group`]), as a block of the block formats does;
/// tail miniblocks are horizontal.
///
/// Declared widths must be `<= 32` and fit inside `block`; run
/// [`checked_stream_words`] first on untrusted input.
pub(crate) fn decode_stream_block_to(block: &[u32], layout: Layout, out: &mut [i32]) {
    let reference = block[0] as i32;
    let miniblocks = out.len() / MINIBLOCK;
    let mut offset = 1 + miniblocks.div_ceil(MINIBLOCKS_PER_BLOCK);
    let mut groups = out.chunks_exact_mut(BLOCK);
    for (g, group_out) in (&mut groups).enumerate() {
        let bw_word = block[1 + g];
        let group_out = group_out.try_into().expect("exact group");
        unpack_group(&block[offset..], bw_word, layout, reference, group_out);
        offset += group_words(bw_word);
    }
    let tail = groups.into_remainder();
    if tail.is_empty() {
        return;
    }
    let bw_word = block[1 + miniblocks / MINIBLOCKS_PER_BLOCK];
    let tail = tail.chunks_exact_mut(MINIBLOCK);
    for (w, mb_out) in widths(bw_word).into_iter().zip(tail) {
        let mb_out = mb_out.try_into().expect("exact chunk");
        unpack_miniblock_ref(&block[offset..], w, reference, mb_out);
        offset += w as usize;
    }
}

/// Allocating decode of one stream block of `count` entries in the
/// column's `layout`. Public so the cascaded-decompression baselines
/// can decode the same format one layer at a time.
pub fn decode_stream_block(block: &[u32], count: usize, layout: Layout) -> Vec<i32> {
    let mut out = vec![0; count.div_ceil(MINIBLOCK) * MINIBLOCK];
    decode_stream_block_to(block, layout, &mut out);
    out.truncate(count);
    out
}

/// Values one splat store writes. A run shorter than this writes past
/// its end into slack that the next run overwrites, so an expansion
/// buffer holds `SPLAT` values more than it produces.
const SPLAT: usize = 8;

/// Expand one block's runs into `out`: run `i` is `lens[i]` copies of
/// `vals[i]`, placed after run `i - 1`. Each run is one `SPLAT`-wide
/// store, or a fill when it is longer; values of `out` past the
/// returned count are unspecified. Returns the expanded count, or why
/// the runs are malformed: a length outside `[1, RFOR_BLOCK]` (the
/// rule `validate_deep` applies) or lengths summing past `RFOR_BLOCK`.
fn expand_runs(
    vals: &[i32],
    lens: &[i32],
    out: &mut [i32; RFOR_BLOCK + SPLAT],
) -> Result<usize, &'static str> {
    if vals.len() == RFOR_BLOCK && lens.iter().all(|&len| len == 1) {
        // A full block of runs of one (incompressible data): the values
        // are the output. A copy moves them at memory speed, where one
        // store per value would not.
        out[..RFOR_BLOCK].copy_from_slice(vals);
        return Ok(RFOR_BLOCK);
    }
    let mut at = 0usize;
    for (&v, &len) in vals.iter().zip(lens) {
        if !(1..=RFOR_BLOCK as i32).contains(&len) {
            return Err("run length out of range");
        }
        let end = at + len as usize;
        if end > RFOR_BLOCK {
            return Err("expanded run lengths overflow the block");
        }
        if end - at <= SPLAT {
            out[at..at + SPLAT].copy_from_slice(&[v; SPLAT]);
        } else {
            out[at..end].fill(v);
        }
        at = end;
    }
    Ok(at)
}

/// Words occupied by an encoded stream block of `count` entries
/// (reference word, bitwidth words and packed payload), or `None` when
/// the header does not fit, a declared width exceeds 32 bits, or the
/// declared payload overruns `block`. Decoding a slice that passes this
/// check cannot read out of bounds.
pub fn checked_stream_words(block: &[u32], count: usize) -> Option<usize> {
    let padded = count.div_ceil(MINIBLOCK) * MINIBLOCK;
    let miniblocks = padded / MINIBLOCK;
    let bw_words = miniblocks.div_ceil(4);
    if block.len() < 1 + bw_words {
        return None;
    }
    let mut words = 1 + bw_words;
    for m in 0..miniblocks {
        let w = ((block[1 + m / 4] >> (8 * (m % 4))) & 0xFF) as usize;
        if w > 32 {
            return None;
        }
        words += w;
    }
    (words <= block.len()).then_some(words)
}

impl GpuRFor {
    /// Encode a column: RLE per 512-value block, then FOR + bit packing
    /// on the values and lengths arrays of each block.
    pub fn encode(values: &[i32]) -> Self {
        // RFOR's run streams are short and width-heterogeneous in
        // practice, so the automatic layout choice is always
        // horizontal; [`Self::encode_with_layout`] exposes the forced
        // vertical form for tests and serialization.
        Self::encode_with_layout(values, Layout::Horizontal)
    }

    /// Encode with an explicit stream layout (see [`GpuRFor::layout`]).
    pub fn encode_with_layout(values: &[i32], layout: Layout) -> Self {
        let blocks = values.len().div_ceil(RFOR_BLOCK);
        let mut enc = GpuRFor {
            total_count: values.len(),
            values_starts: Vec::with_capacity(blocks + 1),
            values_data: Vec::new(),
            lengths_starts: Vec::with_capacity(blocks + 1),
            lengths_data: Vec::new(),
            layout,
        };
        let mut scratch = StreamScratch::default();
        let mut run_values: Vec<i32> = Vec::with_capacity(RFOR_BLOCK);
        let mut run_lengths: Vec<i32> = Vec::with_capacity(RFOR_BLOCK);
        for chunk in values.chunks(RFOR_BLOCK) {
            run_values.clear();
            run_lengths.clear();
            // Boundary scan: each run is one inner loop that stops at
            // the first differing value, so the hot path is a plain
            // compare-and-advance the optimizer vectorizes.
            let mut i = 0;
            while i < chunk.len() {
                let v = chunk[i];
                let mut j = i + 1;
                while j < chunk.len() && chunk[j] == v {
                    j += 1;
                }
                run_values.push(v);
                run_lengths.push((j - i) as i32);
                i = j;
            }
            enc.values_starts.push(enc.values_data.len() as u32);
            enc.values_data.push(run_values.len() as u32);
            encode_stream_block(&run_values, layout, &mut scratch, &mut enc.values_data);
            enc.lengths_starts.push(enc.lengths_data.len() as u32);
            encode_stream_block(&run_lengths, layout, &mut scratch, &mut enc.lengths_data);
        }
        enc.values_starts.push(enc.values_data.len() as u32);
        enc.lengths_starts.push(enc.lengths_data.len() as u32);
        enc
    }

    /// Number of 512-value logical blocks.
    pub fn blocks(&self) -> usize {
        self.values_starts.len().saturating_sub(1)
    }

    /// Compressed footprint in bytes: both streams, both block-start
    /// arrays, and a 3-word header.
    pub fn compressed_bytes(&self) -> u64 {
        (self.values_data.len()
            + self.lengths_data.len()
            + self.values_starts.len()
            + self.lengths_starts.len()
            + 3) as u64
            * 4
    }

    /// Compression rate in bits per integer.
    pub fn bits_per_int(&self) -> f64 {
        self.compressed_bytes() as f64 * 8.0 / self.total_count.max(1) as f64
    }

    /// Sequential reference decoder: both streams of a block unpack
    /// into stack arrays, and `expand_runs` writes the block's runs
    /// straight into the output.
    ///
    /// # Panics
    ///
    /// On run lengths that `validate_deep` rejects (a hand-built
    /// column; parsed and freshly encoded ones always pass).
    pub fn decode_cpu(&self) -> Vec<i32> {
        let mut out = Vec::new();
        self.decode_cpu_into(&mut out);
        out
    }

    /// Decode into a caller-provided buffer, replacing its contents.
    /// Loops that decode repeatedly should pass a reused buffer to
    /// amortize the output allocation across calls. Panics where
    /// [`Self::decode_cpu`] does.
    pub fn decode_cpu_into(&self, out: &mut Vec<i32>) {
        // Every block but the last is full, so block `b` starts at
        // `b * RFOR_BLOCK`. A block expands in place when its splat
        // slack lands inside `out` (on the next block's head, which that
        // block then overwrites); the last block or two expand into
        // `tail` and are copied, so `out` never grows past the column.
        out.resize(self.total_count, 0);
        let (mut vals, mut lens) = ([0i32; RFOR_BLOCK], [0i32; RFOR_BLOCK]);
        let mut tail = [0i32; RFOR_BLOCK + SPLAT];
        for b in 0..self.blocks() {
            let vstart = self.values_starts[b] as usize;
            let run_count = self.values_data[vstart] as usize;
            let padded = run_count.div_ceil(MINIBLOCK) * MINIBLOCK;
            decode_stream_block_to(
                &self.values_data[vstart + 1..],
                self.layout,
                &mut vals[..padded],
            );
            let lstart = self.lengths_starts[b] as usize;
            decode_stream_block_to(
                &self.lengths_data[lstart..],
                self.layout,
                &mut lens[..padded],
            );
            let start = b * RFOR_BLOCK;
            let in_place = start + RFOR_BLOCK + SPLAT <= out.len();
            let block_out: &mut [i32; RFOR_BLOCK + SPLAT] = if in_place {
                (&mut out[start..start + RFOR_BLOCK + SPLAT])
                    .try_into()
                    .expect("block plus slack")
            } else {
                &mut tail
            };
            let n = expand_runs(&vals[..run_count], &lens[..run_count], block_out)
                .expect("run lengths pass validate_deep");
            if !in_place {
                out[start..start + n].copy_from_slice(&tail[..n]);
            }
            debug_assert_eq!(n, RFOR_BLOCK.min(self.total_count - start));
        }
    }

    /// Upload to the simulated device (payload plus derived per-block
    /// checksums).
    pub fn to_device(&self, dev: &Device) -> GpuRForDevice {
        GpuRForDevice {
            total_count: self.total_count,
            values_starts: dev.alloc_from_slice(&self.values_starts),
            values_data: dev.alloc_from_slice(&self.values_data),
            lengths_starts: dev.alloc_from_slice(&self.lengths_starts),
            lengths_data: dev.alloc_from_slice(&self.lengths_data),
            checksums: dev.alloc_from_slice(&self.block_checksums()),
            layout: self.layout,
        }
    }
}

/// Device-resident GPU-RFOR column.
#[derive(Debug)]
pub struct GpuRForDevice {
    /// Logical value count.
    pub total_count: usize,
    /// Values-stream block offsets.
    pub values_starts: GlobalBuffer<u32>,
    /// Compressed values stream.
    pub values_data: GlobalBuffer<u32>,
    /// Lengths-stream block offsets.
    pub lengths_starts: GlobalBuffer<u32>,
    /// Compressed run-lengths stream.
    pub lengths_data: GlobalBuffer<u32>,
    /// Per-block FNV-1a checksums, chained over the block's values
    /// words then its lengths words (`blocks` entries).
    pub checksums: GlobalBuffer<u32>,
    /// Physical stream payload arrangement (see [`Layout`]).
    pub layout: Layout,
}

impl GpuRForDevice {
    /// Number of 512-value logical blocks (= decode tiles).
    pub fn blocks(&self) -> usize {
        self.values_starts.len().saturating_sub(1)
    }

    /// Bytes a PCIe transfer of this column would move.
    pub fn size_bytes(&self) -> u64 {
        self.values_starts.size_bytes()
            + self.values_data.size_bytes()
            + self.lengths_starts.size_bytes()
            + self.lengths_data.size_bytes()
            + self.checksums.size_bytes()
            + 12
    }
}

/// Shared memory a GPU-RFOR decode block needs: two worst-case staged
/// stream blocks plus the 512-entry expansion buffers — "twice more
/// resources than GPU-DFOR" (Section 6).
pub fn rfor_smem() -> usize {
    2 * (RFOR_BLOCK * 4 + 128) + RFOR_BLOCK * 4
}

/// Launch configuration for an RFOR decode-style kernel, armed with
/// the default per-tile decode fuel budget (see [`crate::validate`]).
pub fn rfor_config(name: &str, blocks: usize) -> KernelConfig {
    KernelConfig::new(name, blocks, 128)
        .smem_per_block(rfor_smem())
        .regs_per_thread(38)
        .fuel_per_block(crate::validate::DEFAULT_TILE_FUEL)
}

/// **Device function**: decode logical block `block_id` (512 values)
/// with the fused unpack + 4-step RLE expansion (charged as such; see
/// the module docs). This is Crystal's
/// `LoadRBitPack`. Returns the number of logical values decoded, or a
/// [`DecodeError`] when the staged block fails its checksum or either
/// stream's metadata is inconsistent.
pub fn load_tile(
    ctx: &mut BlockCtx<'_>,
    col: &GpuRForDevice,
    block_id: usize,
    out: &mut Vec<i32>,
) -> Result<usize, DecodeError> {
    ctx.set_phase(Phase::GlobalLoad);
    let (mut vstarts, mut lstarts) = ([0u32; 2], [0u32; 2]);
    ctx.warp_gather_into(&col.values_starts, block_id..=block_id + 1, &mut vstarts);
    ctx.warp_gather_into(&col.lengths_starts, block_id..=block_id + 1, &mut lstarts);
    let (vs, ve) = (vstarts[0] as usize, vstarts[1] as usize);
    let (ls, le) = (lstarts[0] as usize, lstarts[1] as usize);

    let structure = |reason: &'static str| DecodeError::Structure {
        scheme: SCHEME,
        block: block_id,
        reason,
    };
    // Structural guards before staging.
    if ve < vs || ve > col.values_data.len() || le < ls || le > col.lengths_data.len() {
        return Err(structure("stream bounds out of range"));
    }
    if ve - vs < 2 || le - ls < 1 {
        return Err(structure("stream block shorter than its header"));
    }
    if (ve - vs) + (le - ls) > ctx.shared().len() {
        return Err(structure("staged streams larger than shared memory"));
    }
    // Fuel: staging + checksum + unpack + the two scans + expansion are
    // all linear in the staged words and the 512-value expansion
    // (see `crate::validate`).
    let work = ((ve - vs) + (le - ls)) as u64 + 3 * RFOR_BLOCK as u64;
    if !ctx.consume_fuel(work) {
        return Err(DecodeError::Hostile {
            scheme: SCHEME,
            block: block_id,
            reason: "decode fuel exhausted",
        });
    }

    // Stage both compressed blocks: values at shared offset 0, lengths
    // right after. One staging per tile: both streams of the tile's
    // compressed payload are fetched from global memory exactly once.
    ctx.set_phase(Phase::SharedStage);
    ctx.bump(Counter::EncodedTileReads, 1);
    ctx.stage_to_shared(&col.values_data, vs, ve - vs, 0);
    let lengths_off = ve - vs;
    ctx.stage_to_shared(&col.lengths_data, ls, le - ls, lengths_off);

    // Verify the chained checksum over both staged streams before any
    // header word is trusted.
    let mut expected = [0u32];
    ctx.warp_gather_into(&col.checksums, [block_id], &mut expected);
    let actual = {
        let (shared, traffic) = ctx.shared_and_traffic();
        let words = (ve - vs) + (le - ls);
        traffic.shared_bytes += words as u64 * 4;
        traffic.int_ops += words as u64 * 2;
        let h = fnv1a(&shared[..ve - vs]);
        fnv1a_continue(h, &shared[lengths_off..lengths_off + (le - ls)])
    };
    if actual != expected[0] {
        return Err(DecodeError::Corrupt {
            scheme: SCHEME,
            block: block_id,
        });
    }

    let run_count = ctx.shared()[0] as usize;
    ctx.smem_traffic(4);
    if run_count == 0 || run_count > RFOR_BLOCK {
        return Err(structure("run count out of range"));
    }
    // Declared widths must fit the staged slices before unpacking; the
    // walk's word counts are what the unpack below charges.
    let (Some(values_words), Some(lengths_words)) = (
        checked_stream_words(&ctx.shared()[1..ve - vs], run_count),
        checked_stream_words(
            &ctx.shared()[lengths_off..lengths_off + (le - ls)],
            run_count,
        ),
    ) else {
        return Err(structure("stream widths overrun the block"));
    };

    // Bit-unpack both streams (monomorphized miniblock unpackers, as in
    // GPU-FOR) into stack buffers; `run_count <= RFOR_BLOCK`, so whole
    // miniblocks of either stream fit.
    ctx.set_phase(Phase::Unpack);
    ctx.bump(
        Counter::MiniblocksUnpacked,
        2 * run_count.div_ceil(MINIBLOCK) as u64,
    );
    let (mut vals, mut lens) = ([0i32; RFOR_BLOCK], [0i32; RFOR_BLOCK]);
    {
        let padded = run_count.div_ceil(MINIBLOCK) * MINIBLOCK;
        let shared = ctx.shared();
        decode_stream_block_to(&shared[1..ve - vs], col.layout, &mut vals[..padded]);
        decode_stream_block_to(
            &shared[lengths_off..lengths_off + (le - ls)],
            col.layout,
            &mut lens[..padded],
        );
    }
    let payload_words = values_words + lengths_words;
    // The monomorphized unpackers stream each staged payload word once;
    // ~4 shift/or/and/add ops per entry across both streams.
    ctx.smem_traffic(payload_words as u64 * 4);
    ctx.add_int_ops(run_count as u64 * 2 * 4 + payload_words as u64);

    // The device expands in four steps, and the model charges them: an
    // exclusive scan of the lengths (output offsets), a scatter of head
    // flags, an inclusive scan of the flags (run ids), and a gather of
    // the values by run id. The host places and fills each run in one
    // pass instead; its output is the same, and it rejects the lengths
    // `validate_deep` rejects.
    ctx.set_phase(Phase::Expand);
    charge_block_scan(ctx, run_count, 4);
    out.resize(RFOR_BLOCK + SPLAT, 0);
    let total = expand_runs(
        &vals[..run_count],
        &lens[..run_count],
        (&mut out[..]).try_into().expect("block plus slack"),
    )
    .map_err(structure)?;
    out.truncate(total);
    ctx.smem_traffic(run_count as u64 * 4);
    charge_block_scan(ctx, total, 4);
    ctx.smem_traffic(total as u64 * 8);
    ctx.bump(Counter::TilesDecoded, 1);
    ctx.bump(Counter::RunsExpanded, run_count as u64);
    ctx.bump(Counter::ValuesProduced, total as u64);
    Ok(total)
}

/// Standalone decompression kernel (decode + write back).
pub fn decompress(dev: &Device, col: &GpuRForDevice) -> Result<GlobalBuffer<i32>, DecodeError> {
    let mut out = dev.alloc_zeroed::<i32>(col.total_count);
    run_rfor_decode(dev, col, Some(&mut out), "gpu_rfor_decompress")?;
    Ok(out)
}

/// Decode-only kernel (decode into registers, discard).
pub fn decode_only(dev: &Device, col: &GpuRForDevice) -> Result<(), DecodeError> {
    run_rfor_decode(dev, col, None, "gpu_rfor_decode")
}

fn run_rfor_decode(
    dev: &Device,
    col: &GpuRForDevice,
    out: Option<&mut GlobalBuffer<i32>>,
    name: &str,
) -> Result<(), DecodeError> {
    let cfg = rfor_config(name, col.blocks());
    run_decode(dev, cfg, RFOR_BLOCK, out, |ctx, block_id, vals| {
        load_tile(ctx, col, block_id, vals)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[i32]) {
        let enc = GpuRFor::encode(values);
        assert_eq!(enc.decode_cpu(), values, "CPU roundtrip");
        let dev = Device::v100();
        let dcol = enc.to_device(&dev);
        let out = decompress(&dev, &dcol).expect("decode");
        assert_eq!(out.as_slice_unaccounted(), values, "device roundtrip");
    }

    #[test]
    fn roundtrip_long_runs() {
        let values: Vec<i32> = (0..3000).map(|i| i / 100).collect();
        roundtrip(&values);
    }

    #[test]
    fn roundtrip_single_run() {
        roundtrip(&vec![42i32; 2048]);
    }

    #[test]
    fn roundtrip_all_distinct() {
        let values: Vec<i32> = (0..1024).map(|i| i * 3 - 500).collect();
        roundtrip(&values);
    }

    #[test]
    fn roundtrip_partial_block() {
        let values: Vec<i32> = (0..700).map(|i| i / 9).collect();
        roundtrip(&values);
    }

    #[test]
    fn roundtrip_run_straddling_block_boundary() {
        // A run of the same value across the 512 boundary is split into
        // two runs; decode must still be exact.
        let mut values = vec![1i32; 500];
        values.extend(vec![2i32; 500]);
        roundtrip(&values);
    }

    #[test]
    fn roundtrip_tiny() {
        roundtrip(&[5, 5, 5]);
        roundtrip(&[7]);
    }

    #[test]
    fn roundtrip_negative_runs() {
        let values: Vec<i32> = (0..2000).map(|i| -(i / 50)).collect();
        roundtrip(&values);
    }

    /// A one-block column with the given runs, as no encoder writes it:
    /// `total_count` is the lengths' sum, and `to_device` derives
    /// checksums that match, so only the structural checks stand
    /// between the runs and the expansion.
    fn hand_built(vals: &[i32], lens: &[i32]) -> GpuRFor {
        let mut scratch = StreamScratch::default();
        let mut col = GpuRFor {
            total_count: lens.iter().sum::<i32>() as usize,
            values_starts: vec![0],
            values_data: vec![vals.len() as u32],
            lengths_starts: vec![0],
            lengths_data: Vec::new(),
            layout: Layout::Horizontal,
        };
        encode_stream_block(vals, Layout::Horizontal, &mut scratch, &mut col.values_data);
        encode_stream_block(
            lens,
            Layout::Horizontal,
            &mut scratch,
            &mut col.lengths_data,
        );
        col.values_starts.push(col.values_data.len() as u32);
        col.lengths_starts.push(col.lengths_data.len() as u32);
        col
    }

    #[test]
    fn device_rejects_run_lengths_the_validator_rejects() {
        let limits = crate::validate::Limits::strict();
        let vals = [10, 20, 30];
        for lens in [[2, 0, 3], [2, 3, 0], [2, -1, 4]] {
            let col = hand_built(&vals, &lens);
            assert!(col.validate_deep(&limits).is_err(), "{lens:?} validator");
            let dev = Device::v100();
            let got =
                decompress(&dev, &col.to_device(&dev)).map(|o| o.as_slice_unaccounted().to_vec());
            assert!(
                matches!(
                    got,
                    Err(DecodeError::Structure {
                        block: 0,
                        reason: "run length out of range",
                        ..
                    })
                ),
                "{lens:?} device: {got:?}"
            );
        }
        // The same builder makes an honest column that both decoders
        // accept.
        let col = hand_built(&vals, &[2, 1, 3]);
        col.validate_deep(&limits).expect("honest runs");
        let want = [10, 10, 20, 30, 30, 30];
        assert_eq!(col.decode_cpu(), want);
        let dev = Device::v100();
        let out = decompress(&dev, &col.to_device(&dev)).expect("honest runs");
        assert_eq!(out.as_slice_unaccounted(), want);
    }

    #[test]
    fn high_run_length_compresses_hard() {
        // 512-value blocks of a single run: ~1 run per block.
        let values: Vec<i32> = (0..1 << 16).map(|i| i / 4096).collect();
        let enc = GpuRFor::encode(&values);
        assert!(
            enc.bits_per_int() < 1.0,
            "bits/int = {}",
            enc.bits_per_int()
        );
    }

    #[test]
    fn random_data_costs_value_width_plus_overhead() {
        // All runs are length 1: lengths pack at width 0, values at
        // their natural width, ~0.8 bits/int of metadata.
        let values: Vec<i32> = (0..1 << 16)
            .map(|i| ((i as u64 * 2_654_435_761) % (1 << 12)) as i32)
            .collect();
        let enc = GpuRFor::encode(&values);
        let bpi = enc.bits_per_int();
        assert!(bpi > 12.0 && bpi < 13.3, "bits/int = {bpi}");
    }
}
