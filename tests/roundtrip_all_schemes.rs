//! Cross-crate integration: every compression scheme in the workspace
//! (the paper's three, every baseline, and the planner) must roundtrip
//! the same battery of datasets, both via its CPU reference decoder and
//! through the simulated device kernels.

use tlc::baselines::{cascaded, gpu_bp, nsf, nsv, rle, simdbp128};
use tlc::planner::PlannedColumn;
use tlc::schemes::{EncodedColumn, Scheme};
use tlc::sim::Device;

fn datasets() -> Vec<(&'static str, Vec<i32>)> {
    let mut state = 1u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as i32
    };
    vec![
        ("empty", vec![]),
        ("single", vec![42]),
        ("constant", vec![7; 2000]),
        ("sorted", (0..3000).collect()),
        ("descending", (0..3000).rev().collect()),
        ("runs", (0..3000).map(|i| i / 100).collect()),
        ("random_small", (0..3000).map(|_| next() & 0xFFF).collect()),
        ("random_full", (0..3000).map(|_| next()).collect()),
        ("negatives", (0..3000).map(|i| -i * 7).collect()),
        (
            "extremes",
            vec![i32::MIN, i32::MAX, 0, -1, 1, i32::MIN, i32::MAX]
                .into_iter()
                .chain((0..500).map(|_| next()))
                .collect(),
        ),
    ]
}

#[test]
fn paper_schemes_roundtrip_cpu_and_device() {
    let dev = Device::v100();
    for (name, values) in datasets() {
        for scheme in Scheme::ALL {
            let col = EncodedColumn::encode_as(&values, scheme);
            assert_eq!(col.decode_cpu(), values, "{name} / {scheme:?} CPU");
            let out = col.to_device(&dev).decompress(&dev).expect("decode");
            assert_eq!(
                out.as_slice_unaccounted(),
                values,
                "{name} / {scheme:?} device"
            );
        }
    }
}

#[test]
fn cascaded_decompression_matches_tile_based() {
    let dev = Device::v100();
    for (name, values) in datasets() {
        if values.is_empty() {
            continue;
        }
        let f = tlc::schemes::GpuFor::encode(&values).to_device(&dev);
        assert_eq!(
            cascaded::for_cascaded(&dev, &f)
                .expect("clean device")
                .as_slice_unaccounted(),
            values,
            "{name} FOR cascade"
        );
        let d = tlc::schemes::GpuDFor::encode(&values).to_device(&dev);
        assert_eq!(
            cascaded::dfor_cascaded(&dev, &d)
                .expect("clean device")
                .as_slice_unaccounted(),
            values,
            "{name} DFOR cascade"
        );
        let r = tlc::schemes::GpuRFor::encode(&values).to_device(&dev);
        assert_eq!(
            cascaded::rfor_cascaded(&dev, &r)
                .expect("clean device")
                .as_slice_unaccounted(),
            values,
            "{name} RFOR cascade"
        );
    }
}

#[test]
fn baselines_roundtrip() {
    let dev = Device::v100();
    for (name, values) in datasets() {
        let e = nsf::Nsf::encode(&values);
        assert_eq!(e.decode_cpu(), values, "{name} NSF cpu");
        assert_eq!(
            nsf::decompress(&dev, &e.to_device(&dev)).as_slice_unaccounted(),
            values,
            "{name} NSF dev"
        );

        let e = nsv::Nsv::encode(&values);
        assert_eq!(e.decode_cpu(), values, "{name} NSV cpu");
        assert_eq!(
            nsv::decompress(&dev, &e.to_device(&dev)).as_slice_unaccounted(),
            values,
            "{name} NSV dev"
        );

        let e = rle::Rle::encode(&values);
        assert_eq!(e.decode_cpu(), values, "{name} RLE cpu");
        assert_eq!(
            rle::decompress(&dev, &e.to_device(&dev))
                .expect("clean device")
                .as_slice_unaccounted(),
            values,
            "{name} RLE dev"
        );

        let e = gpu_bp::GpuBp::encode(&values);
        assert_eq!(e.decode_cpu(), values, "{name} GPU-BP cpu");
        assert_eq!(
            gpu_bp::decompress(&dev, &e.to_device(&dev))
                .expect("clean device")
                .as_slice_unaccounted(),
            values,
            "{name} GPU-BP dev"
        );

        let e = simdbp128::SimdBp128::encode(&values);
        assert_eq!(e.decode_cpu(), values, "{name} SIMDBP cpu");
        assert_eq!(
            simdbp128::decompress(&dev, &e.to_device(&dev)).as_slice_unaccounted(),
            values,
            "{name} SIMDBP dev"
        );
    }
}

#[test]
fn planner_roundtrips_and_never_loses_to_its_parts() {
    for (name, values) in datasets() {
        let planned = PlannedColumn::encode(&values);
        assert_eq!(planned.decode_cpu(), values, "{name} planner");
        // The planner searched NSF as a candidate, so it can never be
        // larger than plain NSF (modulo its fixed header).
        let nsf_bytes = nsf::Nsf::encode(&values).compressed_bytes();
        assert!(
            planned.compressed_bytes() <= nsf_bytes + 16,
            "{name}: planner {} > NSF {}",
            planned.compressed_bytes(),
            nsf_bytes
        );
    }
}

#[test]
fn gpu_star_never_loses_to_individual_schemes() {
    for (name, values) in datasets() {
        let best = EncodedColumn::encode_best(&values).compressed_bytes();
        for scheme in Scheme::ALL {
            let alt = EncodedColumn::encode_as(&values, scheme).compressed_bytes();
            assert!(best <= alt, "{name}: GPU-* {best} > {scheme:?} {alt}");
        }
    }
}
