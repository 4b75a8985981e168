//! Figure 7 — performance with varying bitwidths.
//!
//! Fifteen unsorted datasets of 250 M entries, dataset *i* uniform in
//! `[0, 2^i)` for i = 2, 4, …, 30.
//!
//! * (a) decompression time (read compressed → decode → write back)
//!   for None, NSF, GPU-FOR/DFOR/RFOR, and the same formats under the
//!   cascading decompression model (FOR+BitPack, Delta+FOR+BitPack,
//!   RLE+FOR+BitPack).
//! * (b) compression rate (bits per int) for None, NSF, GPU-FOR,
//!   GPU-DFOR, GPU-RFOR.

use tlc_baselines::{cascaded, none::NoneDevice, nsf::Nsf};
use tlc_bench::{ms, print_table, sim_n, uniform_bits, PAPER_N_FIG7};
use tlc_core::{GpuDFor, GpuFor, GpuRFor};
use tlc_gpu_sim::Device;

fn main() {
    let n = sim_n();
    let scale = PAPER_N_FIG7 as f64 / n as f64;
    println!("Figure 7: varying bitwidths (N_sim = {n}, scaled to {PAPER_N_FIG7})");

    let mut time_rows = Vec::new();
    let mut rate_rows = Vec::new();
    for bits in (2..=30).step_by(2) {
        let values = uniform_bits(n, bits, 700 + bits as u64);
        let dev = Device::v100();

        let none = NoneDevice::upload(&dev, &values);
        let nsf = Nsf::encode(&values);
        let nsf_dev = nsf.to_device(&dev);
        let gfor = GpuFor::encode(&values);
        let gfor_dev = gfor.to_device(&dev);
        let gdfor = GpuDFor::encode(&values);
        let gdfor_dev = gdfor.to_device(&dev);
        let grfor = GpuRFor::encode(&values);
        let grfor_dev = grfor.to_device(&dev);

        let t = |f: &dyn Fn(&Device)| {
            dev.reset_timeline();
            f(&dev);
            ms(dev.elapsed_seconds_scaled(scale))
        };
        time_rows.push(vec![
            bits.to_string(),
            t(&|d| drop(tlc_baselines::none::copy(d, &none))),
            t(&|d| drop(tlc_baselines::nsf::decompress(d, &nsf_dev))),
            t(&|d| {
                drop(tlc_core::gpu_for::decompress(
                    d,
                    &gfor_dev,
                    tlc_core::ForDecodeOpts::default(),
                ))
            }),
            t(&|d| drop(tlc_core::gpu_dfor::decompress(d, &gdfor_dev))),
            t(&|d| drop(tlc_core::gpu_rfor::decompress(d, &grfor_dev))),
            t(&|d| drop(cascaded::for_cascaded(d, &gfor_dev).expect("clean device"))),
            t(&|d| drop(cascaded::dfor_cascaded(d, &gdfor_dev).expect("clean device"))),
            t(&|d| drop(cascaded::rfor_cascaded(d, &grfor_dev).expect("clean device"))),
        ]);
        rate_rows.push(vec![
            bits.to_string(),
            "32.00".to_string(),
            format!("{:.2}", nsf.bits_per_int()),
            format!("{:.2}", gfor.bits_per_int()),
            format!("{:.2}", gdfor.bits_per_int()),
            format!("{:.2}", grfor.bits_per_int()),
        ]);
    }

    print_table(
        "Figure 7a: decompression time (model ms)",
        &[
            "bits",
            "None",
            "NSF",
            "GPU-FOR",
            "GPU-DFOR",
            "GPU-RFOR",
            "FOR+BP",
            "Delta+FOR+BP",
            "RLE+FOR+BP",
        ],
        &time_rows,
    );
    print_table(
        "Figure 7b: compression rate (bits per int)",
        &["bits", "None", "NSF", "GPU-FOR", "GPU-DFOR", "GPU-RFOR"],
        &rate_rows,
    );
    println!(
        "\npaper shape: tile-based beats cascaded by ~2.6x (FOR), ~4x (DFOR), ~8x (RFOR);\n\
         NSF staircases at 8/16/32 bits; bit-packed rates are linear: i + ~0.75 bits/int"
    );
}
