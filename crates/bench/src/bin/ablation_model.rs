//! Ablation: sensitivity of the headline results to the simulator's
//! calibration constants.
//!
//! The reproduction's claims are *shapes*, so they should survive
//! perturbation of the cost model. This harness re-runs two headline
//! comparisons — the Figure 5 D-sweep knee and the Figure 7a
//! tile-vs-cascade ratio — under perturbed device parameters and
//! reports whether the qualitative result holds.

use tlc_baselines::cascaded;
use tlc_bench::{print_table, sim_n, uniform_bits};
use tlc_core::gpu_for::{decode_only, decompress, GpuFor};
use tlc_core::ForDecodeOpts;
use tlc_gpu_sim::{Device, DeviceParams};

struct Variant {
    name: &'static str,
    params: DeviceParams,
}

fn variants() -> Vec<Variant> {
    let base = DeviceParams::v100();
    let mut v = vec![Variant {
        name: "baseline V100",
        params: base.clone(),
    }];
    let mut p = base.clone();
    p.block_latency_s *= 2.0;
    v.push(Variant {
        name: "2x block latency",
        params: p,
    });
    let mut p = base.clone();
    p.block_latency_s *= 0.5;
    v.push(Variant {
        name: "0.5x block latency",
        params: p,
    });
    let mut p = base.clone();
    p.bw_saturation_occupancy = 0.6;
    v.push(Variant {
        name: "saturation @ 60% occ",
        params: p,
    });
    let mut p = base.clone();
    p.spill_threshold_regs = 96;
    v.push(Variant {
        name: "96-reg spill threshold",
        params: p,
    });
    let mut p = base.clone();
    p.global_bw = 2.0e12; // A100-class HBM
    p.shared_bw = 2.0e13;
    v.push(Variant {
        name: "A100-class bandwidth",
        params: p,
    });
    v
}

fn main() {
    let n = sim_n();
    println!("Model-sensitivity ablation (N_sim = {n})");
    let values = uniform_bits(n, 16, 99);
    let enc = GpuFor::encode(&values);

    let mut rows = Vec::new();
    for variant in variants() {
        let dev = Device::with_params(variant.params);
        let col = enc.to_device(&dev);
        let t = |d: usize| {
            dev.reset_timeline();
            decode_only(&dev, &col, ForDecodeOpts::with_d(d)).expect("decode");
            dev.elapsed_seconds()
        };
        let (t1, t4, t16, t32) = (t(1), t(4), t(16), t(32));
        let knee_holds = t1 > t4 && t4 >= t16 * 0.8 && t32 > t16;

        dev.reset_timeline();
        let _ = decompress(&dev, &col, ForDecodeOpts::default());
        let tile = dev.elapsed_seconds();
        dev.reset_timeline();
        cascaded::for_cascaded(&dev, &col).expect("clean device");
        let cascade = dev.elapsed_seconds();
        let ratio = cascade / tile;

        rows.push(vec![
            variant.name.to_string(),
            format!("{:.2}", t1 / t4),
            format!("{:.2}", t32 / t16),
            if knee_holds { "yes" } else { "NO" }.to_string(),
            format!("{ratio:.2}x"),
        ]);
    }
    print_table(
        "Sensitivity of headline shapes",
        &[
            "device variant",
            "D1/D4",
            "D32/D16",
            "knee holds",
            "cascade/tile",
        ],
        &rows,
    );
    println!("\nexpected: every variant keeps D1/D4 > 1, D32/D16 > 1, cascade/tile > 1.5");
}
