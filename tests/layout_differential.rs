//! Differential coverage for the lane-transposed (vertical) payload
//! layout introduced with format minor 2: for every bit width 0..=32
//! and every scheme, the forced-vertical encoding must decode to the
//! same values as the horizontal one — on the CPU reference decoder,
//! through the simulated device kernels, through the baselines'
//! cascaded decoders and the nvCOMP model that reuse the formats, after
//! a serialized roundtrip, and through the fused decode→select path.
//! GPU-RFOR's run expander
//! is held to its input the same way, under both layouts, on run
//! lengths around its splat width and the miniblock and block sizes.

use tlc::baselines::cascaded;
use tlc::baselines::nvcomp::NvComp;
use tlc::crystal::{select, QueryColumn};
use tlc::fuzz::minor0_stream;
use tlc::schemes::column::DeviceColumn;
use tlc::schemes::{EncodedColumn, GpuDFor, GpuFor, GpuRFor, Layout, Scheme, DEFAULT_D};
use tlc::sim::Device;

/// Deterministic values whose FOR deltas need about `w` bits: masked
/// LCG outputs shifted to mix signs (the reference absorbs the shift).
fn values_of_width(w: u32, n: usize) -> Vec<i32> {
    if w == 0 {
        return vec![-3; n];
    }
    let mask: u32 = if w == 32 { u32::MAX } else { (1 << w) - 1 };
    let offset = (mask >> 1) as i32;
    let mut state = 0x0123_4567_89AB_CDEFu64 ^ u64::from(w);
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (((state >> 33) as u32 & mask) as i32).wrapping_sub(offset)
        })
        .collect()
}

/// Runs shaped so RFOR's two streams both see the width.
fn runs_of_width(w: u32, n: usize) -> Vec<i32> {
    values_of_width(w, n.div_ceil(5))
        .into_iter()
        .flat_map(|v| std::iter::repeat_n(v, 5))
        .take(n)
        .collect()
}

fn encode_both(values: &[i32], scheme: Scheme) -> [EncodedColumn; 2] {
    match scheme {
        Scheme::GpuFor => [
            EncodedColumn::For(GpuFor::encode_with_layout(values, Layout::Horizontal)),
            EncodedColumn::For(GpuFor::encode_with_layout(values, Layout::Vertical)),
        ],
        Scheme::GpuDFor => [
            EncodedColumn::DFor(GpuDFor::encode_with_d_layout(
                values,
                DEFAULT_D,
                Layout::Horizontal,
            )),
            EncodedColumn::DFor(GpuDFor::encode_with_d_layout(
                values,
                DEFAULT_D,
                Layout::Vertical,
            )),
        ],
        Scheme::GpuRFor => [
            EncodedColumn::RFor(GpuRFor::encode_with_layout(values, Layout::Horizontal)),
            EncodedColumn::RFor(GpuRFor::encode_with_layout(values, Layout::Vertical)),
        ],
    }
}

/// The serialized stream's format-minor byte (scheme word, byte 1).
fn wire_minor(bytes: &[u8]) -> u8 {
    bytes[5]
}

#[test]
fn width_sweep_vertical_matches_horizontal() {
    let dev = Device::v100();
    for w in 0..=32u32 {
        for scheme in Scheme::ALL {
            let values = match scheme {
                Scheme::GpuRFor => runs_of_width(w, 700),
                _ => values_of_width(w, 700),
            };
            let [horizontal, vertical] = encode_both(&values, scheme);
            assert_eq!(horizontal.decode_cpu(), values, "w={w} {scheme:?} H cpu");
            assert_eq!(vertical.decode_cpu(), values, "w={w} {scheme:?} V cpu");
            for (col, tag) in [(&horizontal, "H"), (&vertical, "V")] {
                let dcol = col.to_device(&dev);
                let out = dcol.decompress(&dev).expect("decode");
                assert_eq!(
                    out.as_slice_unaccounted(),
                    values,
                    "w={w} {scheme:?} {tag} device"
                );
                let cascade = match &dcol {
                    DeviceColumn::For(c) => cascaded::for_cascaded(&dev, c),
                    DeviceColumn::DFor(c) => cascaded::dfor_cascaded(&dev, c),
                    DeviceColumn::RFor(c) => cascaded::rfor_cascaded(&dev, c),
                };
                assert_eq!(
                    cascade.expect("no fault plan").as_slice_unaccounted(),
                    values,
                    "w={w} {scheme:?} {tag} cascade"
                );
                let nvcomp = NvComp { inner: col.clone() }.to_device(&dev);
                assert_eq!(
                    nvcomp
                        .decompress(&dev)
                        .expect("no fault plan")
                        .as_slice_unaccounted(),
                    values,
                    "w={w} {scheme:?} {tag} nvCOMP"
                );
            }
            // Serialized roundtrip: vertical stamps minor 2, parses
            // back as vertical, and still decodes identically. A
            // minor-0 stream carries the horizontal payload and parses
            // back to the horizontal column.
            let bytes = vertical.to_bytes();
            assert_eq!(wire_minor(&bytes), 2, "w={w} {scheme:?} wire minor");
            let restored = EncodedColumn::from_bytes(&bytes).expect("minor-2 parses");
            assert_eq!(restored.decode_cpu(), values, "w={w} {scheme:?} roundtrip");
            let minor0 = minor0_stream(&values, scheme);
            assert_eq!(wire_minor(&minor0), 0, "w={w} {scheme:?} minor0 stamp");
            let restored0 = EncodedColumn::from_bytes(&minor0).expect("minor-0 parses");
            assert_eq!(restored0.decode_cpu(), values, "w={w} {scheme:?} minor0");
            assert_eq!(
                restored0.to_bytes(),
                horizontal.to_bytes(),
                "w={w} {scheme:?} minor0 is the horizontal encoding"
            );
        }
    }
}

#[test]
fn auto_layout_only_changes_bytes_when_width_uniform() {
    // Width-uniform shape: auto picks vertical (minor 2) at identical
    // size. Mixed-width shape: auto stays horizontal and the stream is
    // byte-identical to the pre-minor-2 writer's output.
    let uniform = values_of_width(16, 512);
    let col = GpuFor::encode_auto(&uniform);
    assert_eq!(col.layout, Layout::Vertical);
    let horizontal = GpuFor::encode_with_layout(&uniform, Layout::Horizontal);
    assert_eq!(col.data.len(), horizontal.data.len(), "no size inflation");

    let mixed: Vec<i32> = (0..512).flat_map(|i| [i, i * 65_536]).collect();
    let auto = GpuFor::encode_auto(&mixed);
    assert_eq!(auto.layout, Layout::Horizontal);
    assert_eq!(
        auto.to_bytes(),
        GpuFor::encode_with_layout(&mixed, Layout::Horizontal).to_bytes()
    );
    assert_eq!(wire_minor(&auto.to_bytes()), 1);
}

#[test]
fn vertical_for_fused_select_matches_scalar_filter() {
    let dev = Device::v100();
    for w in [1u32, 7, 16, 32] {
        let values = values_of_width(w, 5_000);
        let expected: Vec<i32> = values.iter().copied().filter(|&v| v & 1 == 0).collect();
        for layout in [Layout::Horizontal, Layout::Vertical] {
            let col = QueryColumn::Encoded(
                EncodedColumn::For(GpuFor::encode_with_layout(&values, layout)).to_device(&dev),
            );
            let (out, count) = select(&dev, &col, |v| v & 1 == 0).expect("select");
            assert_eq!(count, expected.len(), "w={w} {layout:?} count");
            assert_eq!(
                &out.as_slice_unaccounted()[..count],
                &expected[..],
                "w={w} {layout:?} payload"
            );
        }
    }
}

/// Runs of `len` equal values, consecutive runs distinct, `n` values.
fn runs_of_length(len: usize, n: usize) -> Vec<i32> {
    (0..n).map(|i| (i / len) as i32 * 7 - 900).collect()
}

/// Inputs for the run expander: every length around the splat width
/// and the miniblock and block sizes, a block that is one run, an
/// all-ones block, a partial final block, and a run across a block
/// boundary (which the encoder splits into two).
fn expander_inputs() -> Vec<(String, Vec<i32>)> {
    let mut inputs: Vec<(String, Vec<i32>)> = [1, 7, 8, 9, 63, 64, 65, 511, 512]
        .into_iter()
        .map(|len| (format!("runs of {len}"), runs_of_length(len, 2_048)))
        .collect();
    inputs.push(("one run per block".into(), vec![42; 1_024]));
    // A full block of runs of one, then a partial one.
    inputs.push(("all-ones blocks".into(), runs_of_length(1, 700)));
    inputs.push(("partial final block".into(), runs_of_length(3, 1_300)));
    inputs.push((
        "final block shorter than a splat".into(),
        runs_of_length(2, 1_027),
    ));
    let mut straddle = runs_of_length(5, 500);
    straddle.extend(std::iter::repeat_n(77, 40));
    straddle.extend(runs_of_length(6, 500));
    inputs.push(("run across a block boundary".into(), straddle));
    inputs
}

#[test]
fn rfor_expander_matches_input_on_every_decoder() {
    let dev = Device::v100();
    let pred = |v: i32| v % 2 == 0;
    for (label, values) in expander_inputs() {
        for layout in [Layout::Horizontal, Layout::Vertical] {
            let col = EncodedColumn::RFor(GpuRFor::encode_with_layout(&values, layout));
            assert_eq!(col.decode_cpu(), values, "{label} {layout:?} cpu");
            let dcol = col.to_device(&dev);
            let out = dcol.decompress(&dev).expect("decompress");
            assert_eq!(
                out.as_slice_unaccounted(),
                values,
                "{label} {layout:?} decompress"
            );
            // Tile by tile through the fused decode→select: the values
            // land in `tile`, the ballot words in `sel`.
            let mut decoded = Vec::new();
            let mut ballots = Vec::new();
            let (mut sel, mut tile) = (Vec::new(), Vec::new());
            let cfg = dcol.tile_kernel_config("rfor_expander_select", 0);
            dev.launch(cfg, |ctx| {
                let t = ctx.block_id();
                let n = dcol
                    .load_tile_select(ctx, t, pred, None, &mut sel, &mut tile)
                    .expect("select");
                decoded.extend_from_slice(&tile[..n]);
                ballots.extend_from_slice(&sel);
            });
            assert_eq!(decoded, values, "{label} {layout:?} load_tile_select");
            let want: Vec<u32> = values
                .chunks(512)
                .flat_map(|tile| tile.chunks(32))
                .map(|warp| {
                    warp.iter()
                        .enumerate()
                        .filter(|&(_, &v)| pred(v))
                        .fold(0u32, |w, (lane, _)| w | 1 << lane)
                })
                .collect();
            assert_eq!(ballots, want, "{label} {layout:?} ballots");
        }
    }
}
