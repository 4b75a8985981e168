//! Encoded columns and the GPU-* scheme chooser.
//!
//! Section 8 of the paper: "The rule-of-thumb when choosing a
//! compression scheme is to use the one that has the lowest storage
//! footprint for each column" — tile-based decompression makes every
//! scheme decode at close to memory bandwidth, so no decompression-cost
//! planner is needed. The hybrid that picks the smallest of GPU-FOR /
//! GPU-DFOR / GPU-RFOR per column is what the paper calls **GPU-\***.
//!
//! With the default `D = 4`, all three schemes decode in uniform tiles
//! of [`TILE`] = 512 values, which is what the Crystal integration
//! iterates over.

use tlc_gpu_sim::{BlockCtx, Device, GlobalBuffer, Phase, WARP_SIZE};

use crate::error::DecodeError;
use crate::format::{ForDecodeOpts, BLOCK, DEFAULT_D, RFOR_BLOCK};
use crate::gpu_dfor::{self, GpuDFor, GpuDForDevice};
use crate::gpu_for::{self, select_word, word_at, GpuFor, GpuForDevice};
use crate::gpu_rfor::{self, GpuRFor, GpuRForDevice};
use crate::model::decode_config;

/// Values per decode tile for every scheme at the default `D`.
pub const TILE: usize = RFOR_BLOCK;

/// Which compression scheme a column uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Frame-of-reference + bit packing.
    GpuFor,
    /// Delta + FOR + bit packing.
    GpuDFor,
    /// RLE + FOR + bit packing.
    GpuRFor,
}

impl Scheme {
    /// All schemes, in paper order.
    pub const ALL: [Scheme; 3] = [Scheme::GpuFor, Scheme::GpuDFor, Scheme::GpuRFor];

    /// Display name as used in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::GpuFor => "GPU-FOR",
            Scheme::GpuDFor => "GPU-DFOR",
            Scheme::GpuRFor => "GPU-RFOR",
        }
    }
}

/// A host-side column encoded with one of the three schemes.
#[derive(Debug, Clone)]
pub enum EncodedColumn {
    /// GPU-FOR payload.
    For(GpuFor),
    /// GPU-DFOR payload.
    DFor(GpuDFor),
    /// GPU-RFOR payload.
    RFor(GpuRFor),
}

impl EncodedColumn {
    /// Encode with an explicit scheme (at the default `D = 4`).
    ///
    /// The FOR-family schemes pick their physical layout automatically:
    /// columns whose blocks all plan to one shared miniblock width come
    /// out lane-transposed ([`crate::format::Layout::Vertical`], same
    /// size, SIMD-friendly decode); everything else stays horizontal.
    /// GPU-RFOR's short, width-heterogeneous run streams always stay
    /// horizontal.
    pub fn encode_as(values: &[i32], scheme: Scheme) -> Self {
        match scheme {
            Scheme::GpuFor => EncodedColumn::For(GpuFor::encode_auto(values)),
            Scheme::GpuDFor => EncodedColumn::DFor(GpuDFor::encode_auto(values)),
            Scheme::GpuRFor => EncodedColumn::RFor(GpuRFor::encode(values)),
        }
    }

    /// GPU-*: encode with whichever scheme yields the smallest
    /// footprint (ties broken in paper order: FOR, DFOR, RFOR).
    pub fn encode_best(values: &[i32]) -> Self {
        Scheme::ALL
            .iter()
            .map(|&s| Self::encode_as(values, s))
            .min_by_key(EncodedColumn::compressed_bytes)
            .expect("at least one scheme")
    }

    /// The scheme this column uses.
    pub fn scheme(&self) -> Scheme {
        match self {
            EncodedColumn::For(_) => Scheme::GpuFor,
            EncodedColumn::DFor(_) => Scheme::GpuDFor,
            EncodedColumn::RFor(_) => Scheme::GpuRFor,
        }
    }

    /// Logical value count.
    pub fn total_count(&self) -> usize {
        match self {
            EncodedColumn::For(c) => c.total_count,
            EncodedColumn::DFor(c) => c.total_count,
            EncodedColumn::RFor(c) => c.total_count,
        }
    }

    /// Compressed footprint in bytes.
    pub fn compressed_bytes(&self) -> u64 {
        match self {
            EncodedColumn::For(c) => c.compressed_bytes(),
            EncodedColumn::DFor(c) => c.compressed_bytes(),
            EncodedColumn::RFor(c) => c.compressed_bytes(),
        }
    }

    /// Compression rate in bits per integer.
    pub fn bits_per_int(&self) -> f64 {
        self.compressed_bytes() as f64 * 8.0 / self.total_count().max(1) as f64
    }

    /// Sequential reference decoder.
    pub fn decode_cpu(&self) -> Vec<i32> {
        match self {
            EncodedColumn::For(c) => c.decode_cpu(),
            EncodedColumn::DFor(c) => c.decode_cpu(),
            EncodedColumn::RFor(c) => c.decode_cpu(),
        }
    }

    /// Decode into a caller-provided buffer, replacing its contents.
    /// Repeated decodes into one reused buffer skip the per-call output
    /// allocation (and, for the FOR-family schemes, the zeroing pass).
    pub fn decode_cpu_into(&self, out: &mut Vec<i32>) {
        match self {
            EncodedColumn::For(c) => c.decode_cpu_into(out),
            EncodedColumn::DFor(c) => c.decode_cpu_into(out),
            EncodedColumn::RFor(c) => c.decode_cpu_into(out),
        }
    }

    /// Upload to the simulated device.
    pub fn to_device(&self, dev: &Device) -> DeviceColumn {
        match self {
            EncodedColumn::For(c) => DeviceColumn::For(c.to_device(dev)),
            EncodedColumn::DFor(c) => DeviceColumn::DFor(c.to_device(dev)),
            EncodedColumn::RFor(c) => DeviceColumn::RFor(c.to_device(dev)),
        }
    }
}

/// A device-resident encoded column, decodable tile by tile from inside
/// any kernel.
#[derive(Debug)]
pub enum DeviceColumn {
    /// GPU-FOR payload.
    For(GpuForDevice),
    /// GPU-DFOR payload.
    DFor(GpuDForDevice),
    /// GPU-RFOR payload.
    RFor(GpuRForDevice),
}

impl DeviceColumn {
    /// Logical value count.
    pub fn total_count(&self) -> usize {
        match self {
            DeviceColumn::For(c) => c.total_count,
            DeviceColumn::DFor(c) => c.total_count,
            DeviceColumn::RFor(c) => c.total_count,
        }
    }

    /// Number of 512-value decode tiles.
    pub fn tiles(&self) -> usize {
        self.total_count().div_ceil(TILE)
    }

    /// Bytes a PCIe transfer of this column would move.
    pub fn size_bytes(&self) -> u64 {
        match self {
            DeviceColumn::For(c) => c.size_bytes(),
            DeviceColumn::DFor(c) => c.size_bytes(),
            DeviceColumn::RFor(c) => c.size_bytes(),
        }
    }

    /// **Device function**: decode tile `tile_id` (512 values) into
    /// `out`, dispatching to `LoadBitPack` / `LoadDBitPack` /
    /// `LoadRBitPack`. Returns the logical value count of the tile, or
    /// a [`DecodeError`] when the tile fails verification.
    pub fn load_tile(
        &self,
        ctx: &mut BlockCtx<'_>,
        tile_id: usize,
        out: &mut Vec<i32>,
    ) -> Result<usize, DecodeError> {
        match self {
            DeviceColumn::For(c) => {
                gpu_for::load_tile(ctx, c, tile_id, ForDecodeOpts::default(), out)
            }
            DeviceColumn::DFor(c) => {
                debug_assert_eq!(c.d * BLOCK, TILE, "DFOR tile depth must match TILE");
                gpu_dfor::load_tile(ctx, c, tile_id, out)
            }
            DeviceColumn::RFor(c) => gpu_rfor::load_tile(ctx, c, tile_id, out),
        }
    }

    /// **Device function**: fused decode→predicate over tile `tile_id`.
    /// Decoded values stay in registers (`out`); `sel` receives the
    /// fused selection (`sel_in ∧ pred`) as ballot words — one `u32`
    /// per warp of 32 values, bits past the tile's logical length zero
    /// — and nothing is written back to global memory.
    ///
    /// GPU-FOR evaluates the predicate miniblock by miniblock as it
    /// unpacks and skips miniblocks whose word is zero in `sel_in`
    /// (see [`gpu_for::load_tile_select`]); skipped lanes carry
    /// unspecified filler values, so callers must only consume selected
    /// lanes. GPU-DFOR and GPU-RFOR must expand their full cascade first
    /// (the delta prefix-scan and run expansion are tile-wide data
    /// dependencies), then fuse the predicate over the in-register
    /// values.
    #[allow(clippy::too_many_arguments)]
    pub fn load_tile_select(
        &self,
        ctx: &mut BlockCtx<'_>,
        tile_id: usize,
        pred: impl Fn(i32) -> bool,
        sel_in: Option<&[u32]>,
        sel: &mut Vec<u32>,
        out: &mut Vec<i32>,
    ) -> Result<usize, DecodeError> {
        match self {
            DeviceColumn::For(c) => gpu_for::load_tile_select(
                ctx,
                c,
                tile_id,
                ForDecodeOpts::default(),
                pred,
                sel_in,
                sel,
                out,
            ),
            _ => {
                let n = self.load_tile(ctx, tile_id, out)?;
                fused_predicate(ctx, &out[..n], pred, sel_in, sel);
                Ok(n)
            }
        }
    }

    /// Standalone decompression kernel: decode everything and write the
    /// plain values back to global memory.
    pub fn decompress(&self, dev: &Device) -> Result<GlobalBuffer<i32>, DecodeError> {
        match self {
            DeviceColumn::For(c) => gpu_for::decompress(dev, c, ForDecodeOpts::default()),
            DeviceColumn::DFor(c) => gpu_dfor::decompress(dev, c),
            DeviceColumn::RFor(c) => gpu_rfor::decompress(dev, c),
        }
    }

    /// Decode-only kernel (no write-back).
    pub fn decode_only(&self, dev: &Device) -> Result<(), DecodeError> {
        match self {
            DeviceColumn::For(c) => gpu_for::decode_only(dev, c, ForDecodeOpts::default()),
            DeviceColumn::DFor(c) => gpu_dfor::decode_only(dev, c),
            DeviceColumn::RFor(c) => gpu_rfor::decode_only(dev, c),
        }
    }

    /// Shared memory one tile-decode of this column needs inside a
    /// fused query kernel.
    pub fn tile_smem(&self) -> usize {
        match self {
            DeviceColumn::For(_) | DeviceColumn::DFor(_) => crate::model::stage_smem(DEFAULT_D),
            DeviceColumn::RFor(_) => gpu_rfor::rfor_smem(),
        }
    }

    /// A kernel config suitable for a per-tile kernel over this column.
    pub fn tile_kernel_config(&self, name: &str, extra_live: usize) -> tlc_gpu_sim::KernelConfig {
        let cfg = decode_config(name, self.tiles(), DEFAULT_D, extra_live);
        match self {
            DeviceColumn::RFor(_) => cfg.smem_per_block(gpu_rfor::rfor_smem()),
            _ => cfg,
        }
    }
}

/// Evaluate `pred` over in-register tile values, fusing with an
/// optional incoming selection, into one ballot word per started warp
/// of `vals` (words missing from a short `sel_in` are dead; bits past
/// `vals` come out zero). Used by the cascaded schemes after full tile
/// expansion, and by callers fusing a predicate over plain
/// (uncompressed) tile loads.
pub fn fused_predicate(
    ctx: &mut BlockCtx<'_>,
    vals: &[i32],
    pred: impl Fn(i32) -> bool,
    sel_in: Option<&[u32]>,
    sel: &mut Vec<u32>,
) {
    ctx.set_phase(Phase::Predicate);
    ctx.add_int_ops(vals.len() as u64 * 2);
    sel.clear();
    sel.extend(
        vals.chunks(WARP_SIZE)
            .enumerate()
            .map(|(warp, lanes)| select_word(lanes, &pred, word_at(sel_in, warp))),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlc_gpu_sim::live_lanes;

    #[test]
    fn chooser_prefers_dfor_on_sorted_data() {
        let values: Vec<i32> = (0..1 << 14).collect();
        let col = EncodedColumn::encode_best(&values);
        assert_eq!(col.scheme(), Scheme::GpuDFor);
    }

    #[test]
    fn chooser_prefers_rfor_on_runs() {
        let values: Vec<i32> = (0..1 << 14).map(|i| i / 256).collect();
        let col = EncodedColumn::encode_best(&values);
        assert_eq!(col.scheme(), Scheme::GpuRFor);
    }

    #[test]
    fn chooser_prefers_for_on_uniform_random() {
        let values: Vec<i32> = (0..1 << 14)
            .map(|i| ((i as u64 * 2_654_435_761) % (1 << 20)) as i32)
            .collect();
        let col = EncodedColumn::encode_best(&values);
        assert_eq!(col.scheme(), Scheme::GpuFor);
    }

    #[test]
    fn chooser_is_no_worse_than_each_scheme() {
        let datasets: Vec<Vec<i32>> = vec![
            (0..5000).collect(),
            (0..5000).map(|i| i / 100).collect(),
            (0..5000)
                .map(|i| ((i as u64 * 48_271) % 1024) as i32)
                .collect(),
        ];
        for values in datasets {
            let best = EncodedColumn::encode_best(&values).compressed_bytes();
            for s in Scheme::ALL {
                let alt = EncodedColumn::encode_as(&values, s).compressed_bytes();
                assert!(best <= alt, "best {best} > {} via {:?}", alt, s);
            }
        }
    }

    #[test]
    fn all_schemes_roundtrip_on_device() {
        let values: Vec<i32> = (0..2500).map(|i| (i / 10) * 3 - 40).collect();
        let dev = Device::v100();
        for s in Scheme::ALL {
            let col = EncodedColumn::encode_as(&values, s);
            assert_eq!(col.decode_cpu(), values, "{s:?} CPU");
            let dcol = col.to_device(&dev);
            let out = dcol.decompress(&dev).expect("decode");
            assert_eq!(out.as_slice_unaccounted(), values, "{s:?} device");
        }
    }

    #[test]
    fn fused_select_matches_decode_then_filter() {
        let values: Vec<i32> = (0..3000).map(|i| (i * 37) % 211).collect();
        let dev = Device::v100();
        let pred = |v: i32| v < 50;
        for s in Scheme::ALL {
            let dcol = EncodedColumn::encode_as(&values, s).to_device(&dev);
            let mut got: Vec<i32> = Vec::new();
            let (mut tile, mut sel) = (Vec::new(), Vec::new());
            let cfg = dcol.tile_kernel_config("fused_select", 1);
            dev.launch(cfg, |ctx| {
                let n = dcol
                    .load_tile_select(ctx, ctx.block_id(), pred, None, &mut sel, &mut tile)
                    .expect("decode");
                assert_eq!(sel.len(), n.div_ceil(32), "{s:?} bitmap length");
                got.extend(live_lanes(&sel).map(|i| tile[i]));
            });
            let want: Vec<i32> = values.iter().copied().filter(|&v| pred(v)).collect();
            assert_eq!(got, want, "{s:?}");
        }
    }

    #[test]
    fn fused_select_chains_incoming_bitmap() {
        // Chain two fused predicates; dead lanes from the first must
        // stay dead, and values on surviving lanes must be exact even
        // though the FOR path skips all-dead miniblocks.
        let values: Vec<i32> = (0..2048).map(|i| i % 640).collect();
        let dev = Device::v100();
        let p1 = |v: i32| v >= 512; // kills whole 32-value miniblocks of the i%640 ramp
        let p2 = |v: i32| v % 2 == 0;
        for s in Scheme::ALL {
            let dcol = EncodedColumn::encode_as(&values, s).to_device(&dev);
            let mut got: Vec<i32> = Vec::new();
            let (mut tile, mut sel1, mut sel2) = (Vec::new(), Vec::new(), Vec::new());
            let cfg = dcol.tile_kernel_config("fused_chain", 2);
            dev.launch(cfg, |ctx| {
                let t = ctx.block_id();
                dcol.load_tile_select(ctx, t, p1, None, &mut sel1, &mut tile)
                    .expect("first select");
                let n = dcol
                    .load_tile_select(ctx, t, p2, Some(&sel1), &mut sel2, &mut tile)
                    .expect("second select");
                assert!(live_lanes(&sel2).all(|i| i < n));
                got.extend(live_lanes(&sel2).map(|i| tile[i]));
            });
            let want: Vec<i32> = values.iter().copied().filter(|&v| p1(v) && p2(v)).collect();
            assert_eq!(got, want, "{s:?}");
        }
    }

    /// Incoming selections over `n` lanes, by shape: none, random,
    /// random with its last word missing, all dead, all live.
    fn incoming(rng: &mut tlc_rng::Rng, n: usize) -> Vec<(&'static str, Option<Vec<u32>>)> {
        let mut live = Vec::new();
        tlc_gpu_sim::all_lanes(n, &mut live);
        let random: Vec<u32> = live.iter().map(|w| w & rng.next_u64() as u32).collect();
        let mut short = random.clone();
        short.pop();
        vec![
            ("none", None),
            ("random", Some(random)),
            ("short", Some(short)),
            ("dead", Some(vec![0; live.len()])),
            ("live", Some(live)),
        ]
    }

    /// The per-lane reference: lane `i` survives iff it is live coming
    /// in (every lane when there is no incoming selection, no lane past
    /// a short one) and its value passes.
    fn reference_select(
        vals: &[i32],
        pred: impl Fn(i32) -> bool,
        sel_in: Option<&[u32]>,
    ) -> Vec<u32> {
        let mut words = vec![0u32; vals.len().div_ceil(32)];
        for (i, &v) in vals.iter().enumerate() {
            let live = sel_in.is_none_or(|s| s.get(i / 32).is_some_and(|w| w >> (i % 32) & 1 == 1));
            words[i / 32] |= u32::from(live && pred(v)) << (i % 32);
        }
        words
    }

    #[test]
    fn ballot_word_selects_match_a_per_lane_reference() {
        let mut rng = tlc_rng::Rng::seed_from_u64(0xBA_1107);
        let dev = Device::v100();
        let pred = |v: i32| v % 3 != 0;
        for n in [0usize, 1, 31, 32, 33, 511, 512] {
            // Widths differ from miniblock to miniblock, so the default
            // FOR encoding stays horizontal and skips per miniblock.
            let values: Vec<i32> = (0..n).map(|i| (i as i32 * 37) % (5 << (i / 40))).collect();
            for (shape, sel_in) in incoming(&mut rng, n) {
                let sel_in = sel_in.as_deref();
                let want = reference_select(&values, pred, sel_in);
                let mut sel = vec![0xDEAD_BEEF; 3];
                dev.launch(tlc_gpu_sim::KernelConfig::new("pred", 1, 128), |ctx| {
                    fused_predicate(ctx, &values, pred, sel_in, &mut sel);
                });
                assert_eq!(sel, want, "fused_predicate, n = {n}, {shape}");
                if n == 0 {
                    continue;
                }
                let columns = [
                    ("FOR", EncodedColumn::For(GpuFor::encode(&values))),
                    (
                        "FOR vertical",
                        EncodedColumn::For(GpuFor::encode_with_layout(
                            &values,
                            crate::format::Layout::Vertical,
                        )),
                    ),
                    ("DFOR", EncodedColumn::encode_as(&values, Scheme::GpuDFor)),
                    ("RFOR", EncodedColumn::encode_as(&values, Scheme::GpuRFor)),
                ];
                for (name, col) in columns {
                    let dcol = col.to_device(&dev);
                    let (mut sel, mut tile) = (vec![0xDEAD_BEEF; 40], Vec::new());
                    let cfg = dcol.tile_kernel_config("select", 1);
                    let report = dev.launch(cfg, |ctx| {
                        let got = dcol
                            .load_tile_select(ctx, 0, pred, sel_in, &mut sel, &mut tile)
                            .expect("clean tile");
                        assert_eq!(got, n);
                    });
                    assert_eq!(sel, want, "{name}, n = {n}, {shape}");
                    for i in live_lanes(&sel) {
                        assert_eq!(tile[i], values[i], "{name}, n = {n}, {shape}, lane {i}");
                    }
                    if name == "FOR" {
                        // Liveness per miniblock is the incoming word.
                        let miniblocks = n.div_ceil(BLOCK) * 4;
                        let dead = (0..miniblocks)
                            .filter(|&m| gpu_for::word_at(sel_in, m) == 0)
                            .count() as u64;
                        let counter = |c| report.spans.counter(c);
                        assert_eq!(
                            counter(tlc_gpu_sim::Counter::MiniblocksSkipped),
                            dead,
                            "n = {n}, {shape}"
                        );
                        assert_eq!(
                            counter(tlc_gpu_sim::Counter::MiniblocksUnpacked),
                            miniblocks as u64 - dead,
                            "n = {n}, {shape}"
                        );
                    }
                }
            }
        }
    }

    /// Flip one word inside block `b` of the first tile of each scheme's
    /// column: both tile loads must name that block, every time.
    #[test]
    fn a_flipped_word_in_any_block_of_a_tile_is_reported_for_that_block() {
        let values: Vec<i32> = (0..3 * TILE as i32)
            .map(|i| (i * 13) % 1021 + i / 64)
            .collect();
        let dev = Device::v100();
        for s in Scheme::ALL {
            let enc = EncodedColumn::encode_as(&values, s);
            // (word to flip, in which stream, block the damage is in).
            let targets: Vec<(usize, bool, usize)> = match &enc {
                EncodedColumn::For(c) => (4..8)
                    .map(|b| (c.block_starts[b] as usize + 2, false, b))
                    .collect(),
                EncodedColumn::DFor(c) => (4..8)
                    .map(|b| (c.block_starts[b] as usize + 2, false, b))
                    // The tile's first-value word belongs to its first block.
                    .chain([(c.block_starts[4] as usize - 1, false, 4)])
                    .collect(),
                EncodedColumn::RFor(c) => vec![
                    (c.values_starts[1] as usize + 1, false, 1),
                    (c.lengths_starts[1] as usize, true, 1),
                ],
            };
            for (word, second_stream, block) in targets {
                let mut dcol = enc.to_device(&dev);
                let data = match (&mut dcol, second_stream) {
                    (DeviceColumn::For(c), _) => &mut c.data,
                    (DeviceColumn::DFor(c), _) => &mut c.data,
                    (DeviceColumn::RFor(c), false) => &mut c.values_data,
                    (DeviceColumn::RFor(c), true) => &mut c.lengths_data,
                };
                data.as_mut_slice_unaccounted()[word] ^= 1 << 9;
                let (mut sel, mut tile) = (Vec::new(), Vec::new());
                let mut errors = Vec::new();
                dev.launch(dcol.tile_kernel_config("corrupt", 1), |ctx| {
                    if ctx.block_id() != 1 {
                        return;
                    }
                    errors.push(dcol.load_tile(ctx, 1, &mut tile).unwrap_err());
                    errors.push(
                        dcol.load_tile_select(ctx, 1, |_| true, None, &mut sel, &mut tile)
                            .unwrap_err(),
                    );
                });
                for e in errors {
                    assert!(
                        matches!(e, DecodeError::Corrupt { block: b, .. } if b == block),
                        "{s:?}: word {word} is in block {block}, got {e:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn tile_loads_match_decompress() {
        let values: Vec<i32> = (0..3000).map(|i| i % 97).collect();
        let dev = Device::v100();
        for s in Scheme::ALL {
            let dcol = EncodedColumn::encode_as(&values, s).to_device(&dev);
            let mut collected = Vec::new();
            let mut tile = Vec::new();
            let cfg = dcol.tile_kernel_config("collect", 0);
            dev.launch(cfg, |ctx| {
                let n = dcol
                    .load_tile(ctx, ctx.block_id(), &mut tile)
                    .expect("decode");
                collected.extend_from_slice(&tile[..n]);
            });
            assert_eq!(collected, values, "{s:?}");
        }
    }
}
