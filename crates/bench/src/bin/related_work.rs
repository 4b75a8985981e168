//! Extended shootout across the related-work schemes the paper's
//! Section 2.2 surveys, alongside the paper's own. Three facets:
//!
//! 1. compression rate (bits/int) on uniform 12-bit codes,
//! 2. full-decompression model time,
//! 3. predicate-scan model time — where BitWeaving/ByteSlice get to
//!    play their decode-free card against decode-then-filter.

use tlc_baselines::{bitweaving, byteslice, gpu_bp, nsf, nsv, pfor, simple8b, vbyte};
use tlc_bench::{ms, print_table, sim_n, uniform_bits, PAPER_N_FIG7};
use tlc_core::{EncodedColumn, Scheme};
use tlc_gpu_sim::Device;

fn main() {
    let n = sim_n();
    let scale = PAPER_N_FIG7 as f64 / n as f64;
    println!("Related-work shootout (N_sim = {n}, 12-bit uniform codes, scaled to {PAPER_N_FIG7})");
    let values = uniform_bits(n, 12, 2022);
    let dev = Device::v100();

    let mut rows = Vec::new();
    let mut add = |name: &str, bpi: f64, decomp: &dyn Fn(&Device)| {
        dev.reset_timeline();
        decomp(&dev);
        rows.push(vec![
            name.to_string(),
            format!("{bpi:.2}"),
            ms(dev.elapsed_seconds_scaled(scale)),
        ]);
    };

    let gf = EncodedColumn::encode_as(&values, Scheme::GpuFor);
    let gf_dev = gf.to_device(&dev);
    add("GPU-FOR (paper)", gf.bits_per_int(), &|d| {
        drop(gf_dev.decompress(d))
    });

    let bp = gpu_bp::GpuBp::encode(&values);
    let bp_dev = bp.to_device(&dev);
    add("GPU-BP", bp.bits_per_int(), &|d| {
        drop(gpu_bp::decompress(d, &bp_dev).expect("clean device"))
    });

    let pf = pfor::PFor::encode(&values);
    let pf_dev = pf.to_device(&dev);
    add("PFOR", pf.bits_per_int(), &|d| {
        drop(pfor::decompress(d, &pf_dev))
    });

    let s8 = simple8b::Simple8b::encode(&values);
    let s8_dev = s8.to_device(&dev);
    add("Simple-8b", s8.bits_per_int(), &|d| {
        drop(simple8b::decompress(d, &s8_dev))
    });

    let vb = vbyte::VByte::encode(&values);
    let vb_dev = vb.to_device(&dev);
    add("VByte", vb.bits_per_int(), &|d| {
        drop(vbyte::decompress(d, &vb_dev))
    });

    let ns = nsf::Nsf::encode(&values);
    let ns_dev = ns.to_device(&dev);
    add("NSF", ns.bits_per_int(), &|d| {
        drop(nsf::decompress(d, &ns_dev))
    });

    let nv = nsv::Nsv::encode(&values);
    let nv_dev = nv.to_device(&dev);
    add("NSV", nv.bits_per_int(), &|d| {
        drop(nsv::decompress(d, &nv_dev))
    });

    let bw = bitweaving::BitWeaving::encode(&values);
    let bw_dev = bw.to_device(&dev);
    add("BitWeaving/V", bw.bits_per_int(), &|d| {
        drop(bitweaving::decompress(d, &bw_dev))
    });

    let bs = byteslice::ByteSlice::encode(&values);
    let bs_dev = bs.to_device(&dev);
    add("ByteSlice", bs.bits_per_int(), &|d| {
        drop(byteslice::decompress(d, &bs_dev))
    });

    print_table(
        "Compression rate + full decompression",
        &["scheme", "bits/int", "decompress ms"],
        &rows,
    );

    // Predicate scan: value < 1024 (selectivity 1/4 on 12-bit codes).
    let constant = 1 << 10;
    let mut scan_rows = Vec::new();

    // Decode-then-filter path for the horizontal schemes.
    dev.reset_timeline();
    let decoded = gf_dev.decompress(&dev).expect("decode");
    let _ = tlc_crystal::select(&dev, &tlc_crystal::QueryColumn::Plain(decoded), |v| {
        v < constant
    });
    scan_rows.push(vec![
        "GPU-FOR decode + filter".to_string(),
        ms(dev.elapsed_seconds_scaled(scale)),
    ]);

    // Fused decode+filter (the paper's inline model).
    dev.reset_timeline();
    let col = tlc_crystal::QueryColumn::Encoded(gf.to_device(&dev));
    let _ = tlc_crystal::select(&dev, &col, |v| v < constant);
    scan_rows.push(vec![
        "GPU-FOR fused select (inline)".to_string(),
        ms(dev.elapsed_seconds_scaled(scale)),
    ]);

    dev.reset_timeline();
    let _ = bitweaving::scan_lt(&dev, &bw_dev, constant);
    scan_rows.push(vec![
        "BitWeaving/V scan (no decode)".to_string(),
        ms(dev.elapsed_seconds_scaled(scale)),
    ]);

    dev.reset_timeline();
    let _ = byteslice::scan_lt(&dev, &bs_dev, constant);
    scan_rows.push(vec![
        "ByteSlice scan (no decode)".to_string(),
        ms(dev.elapsed_seconds_scaled(scale)),
    ]);

    print_table(
        "Predicate scan: value < 1024",
        &["path", "model ms"],
        &scan_rows,
    );
    println!(
        "\nexpected: bit-aligned FOR schemes win bits/int; byte/word-aligned trade space for\n\
         simpler decode; the vertical layouts win pure scans but lose decompress-everything."
    );
}
