//! Section 8 — compression (encoding) speed, measured as real CPU
//! wall-clock time. Compression is a host-side, one-time activity in
//! the paper's workflow; it reports ≈1.2 s (GPU-FOR), 1.3 s (GPU-DFOR)
//! and 2.2 s (GPU-RFOR) for 250 M random entries on a 6-core CPU.
//! We encode at N_sim single-threaded and scale linearly.

use std::time::Instant;

use tlc_bench::{print_table, sim_n, uniform_bits, PAPER_N_FIG7};
use tlc_core::{GpuDFor, GpuFor, GpuRFor};

fn main() {
    let n = sim_n();
    let scale = PAPER_N_FIG7 as f64 / n as f64;
    println!("Section 8: compression speed (N_sim = {n}, scaled to {PAPER_N_FIG7}, wall clock)");
    let values = uniform_bits(n, 20, 82);

    let mut rows = Vec::new();
    let mut measure = |name: &str, f: &dyn Fn() -> u64| {
        let start = Instant::now();
        let bytes = f();
        let secs = start.elapsed().as_secs_f64();
        rows.push(vec![
            name.to_string(),
            format!("{:.2}", secs * scale),
            format!("{:.1}", n as f64 / secs / 1e6),
            format!("{:.2}", bytes as f64 * 8.0 / n as f64),
        ]);
    };
    measure("GPU-FOR", &|| GpuFor::encode(&values).compressed_bytes());
    measure("GPU-DFOR", &|| GpuDFor::encode(&values).compressed_bytes());
    measure("GPU-RFOR", &|| GpuRFor::encode(&values).compressed_bytes());

    print_table(
        "Section 8 compression speed",
        &["scheme", "scaled seconds (250M)", "M values/s", "bits/int"],
        &rows,
    );
    println!("\npaper (6-core CPU): 1.2 s / 1.3 s / 2.2 s for 250M random entries");
}
