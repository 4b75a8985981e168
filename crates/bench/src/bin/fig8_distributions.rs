//! Figure 8 — compression rate and decompression time across data
//! distributions (Section 9.3).
//!
//! * D1: sorted array, unique count swept 2^2 … 2^28.
//! * D2: normal, σ = 20, mean swept 2^8 … 2^30 (wider steps here).
//! * D3: Zipf, α swept 1 … 5 (adds NSV).
//!
//! Schemes: None, NSF, NSV (D3), GPU-FOR, GPU-DFOR, GPU-RFOR, RLE
//! (D1 only, as in the paper).

use tlc_baselines::{none::NoneDevice, nsf::Nsf, nsv::Nsv, rle::Rle};
use tlc_bench::{ms, normal, print_table, sim_n, sorted_unique, zipf, PAPER_N_FIG7};
use tlc_core::{GpuDFor, GpuFor, GpuRFor};
use tlc_gpu_sim::Device;

struct Measured {
    bits_per_int: String,
    decomp_ms: String,
}

fn measure_all(
    values: &[i32],
    scale: f64,
    with_rle: bool,
    with_nsv: bool,
) -> Vec<(String, Measured)> {
    let dev = Device::v100();
    let mut out = Vec::new();
    let mut push = |name: &str, bpi: f64, f: &dyn Fn(&Device)| {
        dev.reset_timeline();
        f(&dev);
        out.push((
            name.to_string(),
            Measured {
                bits_per_int: format!("{bpi:.2}"),
                decomp_ms: ms(dev.elapsed_seconds_scaled(scale)),
            },
        ));
    };

    let none = NoneDevice::upload(&dev, values);
    push("None", 32.0, &|d| drop(tlc_baselines::none::copy(d, &none)));
    let nsf = Nsf::encode(values);
    let nsf_dev = nsf.to_device(&dev);
    push("NSF", nsf.bits_per_int(), &|d| {
        drop(tlc_baselines::nsf::decompress(d, &nsf_dev))
    });
    if with_nsv {
        let nsv = Nsv::encode(values);
        let nsv_dev = nsv.to_device(&dev);
        push("NSV", nsv.bits_per_int(), &|d| {
            drop(tlc_baselines::nsv::decompress(d, &nsv_dev))
        });
    }
    let gfor = GpuFor::encode(values);
    let gfor_dev = gfor.to_device(&dev);
    push("GPU-FOR", gfor.bits_per_int(), &|d| {
        drop(tlc_core::gpu_for::decompress(
            d,
            &gfor_dev,
            tlc_core::ForDecodeOpts::default(),
        ))
    });
    let gdfor = GpuDFor::encode(values);
    let gdfor_dev = gdfor.to_device(&dev);
    push("GPU-DFOR", gdfor.bits_per_int(), &|d| {
        drop(tlc_core::gpu_dfor::decompress(d, &gdfor_dev))
    });
    let grfor = GpuRFor::encode(values);
    let grfor_dev = grfor.to_device(&dev);
    push("GPU-RFOR", grfor.bits_per_int(), &|d| {
        drop(tlc_core::gpu_rfor::decompress(d, &grfor_dev))
    });
    if with_rle {
        let rle = Rle::encode(values);
        let rle_dev = rle.to_device(&dev);
        push("RLE", rle.bits_per_int(), &|d| {
            drop(tlc_baselines::rle::decompress(d, &rle_dev).expect("clean device"))
        });
    }
    out
}

fn report(title: &str, param_name: &str, sweeps: Vec<(String, Vec<(String, Measured)>)>) {
    let schemes: Vec<String> = sweeps[0].1.iter().map(|(n, _)| n.clone()).collect();
    let mut rate_rows = Vec::new();
    let mut time_rows = Vec::new();
    for (param, measured) in &sweeps {
        let mut rr = vec![param.clone()];
        let mut tr = vec![param.clone()];
        for (_, m) in measured {
            rr.push(m.bits_per_int.clone());
            tr.push(m.decomp_ms.clone());
        }
        rate_rows.push(rr);
        time_rows.push(tr);
    }
    let mut header = vec![param_name];
    header.extend(schemes.iter().map(String::as_str));
    print_table(
        &format!("{title}: compression rate (bits/int)"),
        &header,
        &rate_rows,
    );
    print_table(
        &format!("{title}: decompression time (model ms)"),
        &header,
        &time_rows,
    );
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let n = sim_n();
    let scale = PAPER_N_FIG7 as f64 / n as f64;
    println!("Figure 8: distributions (N_sim = {n}, scaled to {PAPER_N_FIG7})");

    if which == "all" || which.contains("d1") {
        let mut sweeps = Vec::new();
        for log_u in [2u32, 5, 10, 15, 20, 22, 25, 28] {
            let unique = 1u64 << log_u;
            let values = sorted_unique(n, unique.min(n as u64 * 16));
            sweeps.push((
                format!("2^{log_u}"),
                measure_all(&values, scale, true, false),
            ));
        }
        report("Fig 8a-b (D1 sorted)", "unique", sweeps);
        println!("paper shape: RFOR best below ~2^22 distinct, DFOR best above; DFOR hits 1.8 bits/int at 2^28");
    }

    if which == "all" || which.contains("d2") {
        let mut sweeps = Vec::new();
        for log_m in [8u32, 12, 16, 20, 24, 28, 30] {
            let values = normal(n, (1u64 << log_m) as f64, 800 + log_m as u64);
            sweeps.push((
                format!("2^{log_m}"),
                measure_all(&values, scale, false, false),
            ));
        }
        report("Fig 8c-d (D2 normal)", "mean", sweeps);
        println!("paper shape: FOR-based schemes flat at ~9 bits/int regardless of mean; NSF staircases to 32");
    }

    if which == "all" || which.contains("d3") {
        let mut sweeps = Vec::new();
        for alpha10 in [10u32, 20, 30, 40, 50] {
            let values = zipf(n, alpha10 as f64 / 10.0, 1 << 20, 900 + alpha10 as u64);
            sweeps.push((
                format!("{:.1}", alpha10 as f64 / 10.0),
                measure_all(&values, scale, false, true),
            ));
        }
        report("Fig 8e-f (D3 zipf)", "alpha", sweeps);
        println!("paper shape: bit-aligned schemes adapt to skew; NSV compresses better than NSF but decodes far slower");
    }
}
