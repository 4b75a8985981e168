//! # tlc-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (see
//! `DESIGN.md` §4 for the full index), plus shared dataset generators
//! and reporting helpers. Every harness executes functionally at a
//! reduced N (override with `TLC_N` / `TLC_SF`) and reports model time
//! scaled to the paper's dataset size — the scaling is exact for these
//! streaming workloads (see `tlc_gpu_sim::Timeline::scaled_seconds`).

use tlc_rng::Rng;

/// The tiny JSON writer, which lives in [`tlc_profile::json`] since the
/// profiler emits the same artifacts.
pub use tlc_profile::json::{write_bench_json, Json};

/// Machine-attribution metadata fields shared by every JSON-writing
/// harness: CPU architecture, the detected SIMD feature flags, and the
/// kernel dispatch level in effect. Throughput rows are only
/// comparable between runs whose machine fields match —
/// `scripts/bench_compare` warns when they differ.
pub fn machine_meta() -> Vec<(&'static str, Json)> {
    vec![
        ("target_arch", Json::Str(std::env::consts::ARCH.to_string())),
        ("cpu_features", Json::Str(tlc_bitpack::cpu_features())),
        (
            "simd_level",
            Json::Str(format!("{:?}", tlc_bitpack::simd_level())),
        ),
    ]
}

/// Datasets used in Section 9.2 have 250 M entries; Section 4.2 uses
/// 500 M.
pub const PAPER_N_FIG7: usize = 250_000_000;
/// Section 4.2 dataset size.
pub const PAPER_N_SEC4: usize = 500_000_000;
/// SSB scale factor used in Section 9.4.
pub const PAPER_SF: f64 = 20.0;

/// Simulation size: `TLC_N` env var or 4 Mi entries.
pub fn sim_n() -> usize {
    std::env::var("TLC_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1 << 22)
}

/// Simulation scale factor for SSB harnesses: `TLC_SF` or 0.05.
pub fn sim_sf() -> f64 {
    std::env::var("TLC_SF")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.05)
}

/// Deterministic RNG for a named experiment.
pub fn rng(tag: u64) -> Rng {
    Rng::seed_from_u64(0xC0FFEE ^ tag)
}

/// `n` uniform values with exactly `bits` effective bits (the Fig. 7
/// datasets: values uniform in `[0, 2^bits)`).
pub fn uniform_bits(n: usize, bits: u32, tag: u64) -> Vec<i32> {
    let mut r = rng(tag);
    let max = if bits >= 31 {
        i32::MAX
    } else {
        (1 << bits) - 1
    };
    (0..n).map(|_| r.gen_range(0..=max)).collect()
}

/// `n` values in runs of 1–7 equal values, each run's value uniform
/// below 2^20: the shape of SSB's per-order repeated lineorder columns
/// (`lo_orderdate`, `lo_custkey`, `lo_ordtotalprice`).
pub fn short_runs(n: usize, tag: u64) -> Vec<i32> {
    let mut r = rng(tag);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let v = r.gen_range(0..1 << 20);
        let run = r.gen_range(1..8usize).min(n - out.len());
        out.extend(std::iter::repeat_n(v, run));
    }
    out
}

/// D1: a sorted array with `unique` distinct values (Section 9.3).
pub fn sorted_unique(n: usize, unique: u64) -> Vec<i32> {
    (0..n)
        .map(|i| ((i as u64 * unique) / n as u64) as i32)
        .collect()
}

/// D2: normal distribution, σ = 20, given mean (Section 9.3).
/// Values are clamped to `i32::MAX` (means go up to 2^30).
pub fn normal(n: usize, mean: f64, tag: u64) -> Vec<i32> {
    let mut r = rng(tag);
    (0..n)
        .map(|_| {
            // Box-Muller.
            let u1: f64 = r.gen_range(f64::EPSILON..1.0);
            let u2: f64 = r.gen_f64();
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            (mean + 20.0 * z).round().clamp(0.0, i32::MAX as f64) as i32
        })
        .collect()
}

/// D3: Zipf distribution with exponent `alpha` over a dictionary of
/// `domain` words (Section 9.3), values are word ranks.
pub fn zipf(n: usize, alpha: f64, domain: usize, tag: u64) -> Vec<i32> {
    let mut cdf = Vec::with_capacity(domain);
    let mut acc = 0.0f64;
    for k in 1..=domain {
        acc += 1.0 / (k as f64).powf(alpha);
        cdf.push(acc);
    }
    let total = acc;
    let mut r = rng(tag);
    (0..n)
        .map(|_| {
            let u = r.gen_f64() * total;
            cdf.partition_point(|&c| c < u) as i32
        })
        .collect()
}

/// Pretty-print a table: header row then data rows, columns padded.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: Vec<String>| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(header.iter().map(|s| s.to_string()).collect())
    );
    for row in rows {
        println!("{}", fmt_row(row.clone()));
    }
}

/// Format seconds as milliseconds with 3 decimals.
pub fn ms(seconds: f64) -> String {
    format!("{:.3}", seconds * 1e3)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_bits_respects_range() {
        for bits in [1u32, 7, 16, 30] {
            let v = uniform_bits(1000, bits, 1);
            let max = *v.iter().max().expect("non-empty");
            assert!(max < (1i64 << bits) as i32 || bits >= 31);
            assert!(v.iter().all(|&x| x >= 0));
        }
    }

    #[test]
    fn sorted_unique_is_sorted_with_right_cardinality() {
        let v = sorted_unique(10_000, 128);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
        let distinct: std::collections::HashSet<i32> = v.iter().copied().collect();
        assert_eq!(distinct.len(), 128);
    }

    #[test]
    fn zipf_is_skewed() {
        let v = zipf(10_000, 2.0, 1000, 7);
        let zeros = v.iter().filter(|&&x| x == 0).count();
        assert!(
            zeros > 5_000,
            "rank 0 should dominate at alpha=2, got {zeros}"
        );
    }

    #[test]
    fn geomean_basic() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
