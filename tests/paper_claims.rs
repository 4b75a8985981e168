//! The paper's headline quantitative claims, asserted as (loose) model
//! invariants. These are the bars EXPERIMENTS.md reports exactly; here
//! they act as regression guards on the cost model's *shape*.

use tlc::baselines::{cascaded, none::NoneDevice, nvcomp::NvComp};
use tlc::schemes::gpu_for;
use tlc::schemes::{EncodedColumn, ForDecodeOpts, GpuDFor, GpuFor};
use tlc::sim::Device;
use tlc::ssb::{run_query, LoColumns, QueryId, SsbData, System};

fn uniform(n: usize, bits: u32) -> Vec<i32> {
    let mut state = 7u64;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) & ((1 << bits) - 1)) as i32
        })
        .collect()
}

/// Section 1 / 9.2: tile-based decompression decodes at close to
/// memory-bandwidth speed — within 35% of reading the raw data.
#[test]
fn decode_close_to_memory_bandwidth() {
    let values = uniform(1 << 20, 16);
    let dev = Device::v100();
    let col = GpuFor::encode(&values).to_device(&dev);
    let plain = NoneDevice::upload(&dev, &values);

    dev.reset_timeline();
    gpu_for::decode_only(&dev, &col, ForDecodeOpts::default()).expect("decode");
    let t_decode = dev.elapsed_seconds_scaled(500.0);

    dev.reset_timeline();
    tlc::baselines::none::read_only(&dev, &plain);
    let t_read = dev.elapsed_seconds_scaled(500.0);

    assert!(
        t_decode < t_read * 1.35,
        "decode {t_decode} vs read {t_read}"
    );
}

/// Section 4.2: the base algorithm is many times slower than reading
/// uncompressed data (paper: 7.5x).
#[test]
fn base_algorithm_penalty() {
    let values = uniform(1 << 20, 16);
    let dev = Device::v100();
    let col = GpuFor::encode(&values).to_device(&dev);
    let plain = NoneDevice::upload(&dev, &values);

    dev.reset_timeline();
    tlc::schemes::base_alg::decode_only_base(&dev, &col);
    let t_base = dev.elapsed_seconds_scaled(500.0);
    dev.reset_timeline();
    tlc::baselines::none::read_only(&dev, &plain);
    let t_read = dev.elapsed_seconds_scaled(500.0);

    let ratio = t_base / t_read;
    assert!((4.0..12.0).contains(&ratio), "ratio = {ratio}, paper = 7.5");
}

/// Figure 5: D=4 beats D=1 substantially; D=32 deteriorates.
#[test]
fn d_sweep_shape() {
    let values = uniform(1 << 20, 16);
    let dev = Device::v100();
    let col = GpuFor::encode(&values).to_device(&dev);
    let t = |d: usize| {
        dev.reset_timeline();
        gpu_for::decode_only(&dev, &col, ForDecodeOpts::with_d(d)).expect("decode");
        dev.elapsed_seconds_scaled(500.0)
    };
    let (t1, t4, t16, t32) = (t(1), t(4), t(16), t(32));
    assert!(t1 > t4 * 1.8, "D=1 {t1} vs D=4 {t4}");
    assert!(t4 > t16, "D=4 {t4} vs D=16 {t16}");
    assert!(t32 > t16 * 1.8, "D=32 {t32} must deteriorate vs D=16 {t16}");
}

/// Figure 7a: tile-based decompression beats the cascading model.
#[test]
fn tile_based_beats_cascading() {
    let values = uniform(1 << 20, 16);
    let dev = Device::v100();

    let f = GpuFor::encode(&values).to_device(&dev);
    dev.reset_timeline();
    let _ = gpu_for::decompress(&dev, &f, ForDecodeOpts::default());
    let t_tile = dev.elapsed_seconds_scaled(250.0);
    dev.reset_timeline();
    cascaded::for_cascaded(&dev, &f).expect("clean device");
    let t_casc = dev.elapsed_seconds_scaled(250.0);
    let r_for = t_casc / t_tile;
    assert!(
        (1.8..3.5).contains(&r_for),
        "FOR cascade ratio {r_for}, paper 2.6"
    );

    let d = GpuDFor::encode(&values).to_device(&dev);
    dev.reset_timeline();
    let _ = tlc::schemes::gpu_dfor::decompress(&dev, &d);
    let t_tile = dev.elapsed_seconds_scaled(250.0);
    dev.reset_timeline();
    cascaded::dfor_cascaded(&dev, &d).expect("clean device");
    let t_casc = dev.elapsed_seconds_scaled(250.0);
    let r_dfor = t_casc / t_tile;
    assert!(
        (2.5..5.0).contains(&r_dfor),
        "DFOR cascade ratio {r_dfor}, paper 4"
    );
}

/// Figure 9: GPU-* compresses SSB at least 2x, and nvCOMP lands within
/// a few percent of it.
#[test]
fn ssb_compression_ratios() {
    let data = SsbData::generate(0.01);
    let mut none = 0u64;
    let mut star = 0u64;
    let mut nv = 0u64;
    for c in tlc::ssb::LoColumn::ALL {
        let values = data.lineorder.column(c);
        none += values.len() as u64 * 4;
        star += EncodedColumn::encode_best(values).compressed_bytes();
        nv += NvComp::encode(values).compressed_bytes();
    }
    assert!(none as f64 / star as f64 > 2.0, "paper: 2.8x");
    let nv_gap = nv as f64 / star as f64;
    assert!(
        (1.0..1.05).contains(&nv_gap),
        "paper: ~2% gap, got {nv_gap}"
    );
}

/// Figure 11: GPU-* query time beats nvCOMP / Planner / GPU-BP /
/// OmniSci on a representative join query.
#[test]
fn ssb_query_ranking() {
    let data = SsbData::generate(0.02);
    let dev = Device::v100();
    let q = QueryId::Q31;
    let time = |sys: System| {
        let cols = LoColumns::build(&dev, &data, sys, q.columns());
        dev.reset_timeline();
        let _ = run_query(&dev, &data, &cols, q);
        dev.elapsed_seconds_scaled(20.0 / 0.02)
    };
    let star = time(System::GpuStar);
    for (sys, min_ratio) in [
        (System::NvComp, 1.5),
        (System::Planner, 1.5),
        (System::GpuBp, 1.3),
        (System::OmniSci, 4.0),
    ] {
        let t = time(sys);
        assert!(
            t > star * min_ratio,
            "{:?} = {t}, GPU-* = {star} (need > {min_ratio}x)",
            sys
        );
    }
}

/// Figure 12: compression speeds up the coprocessor path (paper 2.3x).
#[test]
fn coprocessor_speedup() {
    let data = SsbData::generate(0.01);
    let dev = Device::v100();
    let q = QueryId::Q11;
    let time = |sys: System| {
        let cols = LoColumns::build(&dev, &data, sys, q.columns());
        dev.reset_timeline();
        dev.pcie_transfer(cols.size_bytes());
        let _ = run_query(&dev, &data, &cols, q);
        dev.elapsed_seconds()
    };
    let ratio = time(System::None) / time(System::GpuStar);
    assert!(ratio > 1.8, "coprocessor speedup = {ratio}, paper 2.3");
}
