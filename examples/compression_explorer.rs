//! Explore how the three schemes, GPU-*'s choice among them, and the
//! Fang-et-al. planner behave across data shapes.
//!
//! ```sh
//! cargo run --release --example compression_explorer
//! ```

use tlc::planner::{ColumnStats, PlannedColumn};
use tlc::schemes::{EncodedColumn, Scheme};

fn analyze(name: &str, values: &[i32]) {
    let stats = ColumnStats::compute(values);
    println!(
        "\n{name}: n = {}, range = [{}, {}], distinct = {}, avg run = {:.1}, sorted = {}",
        stats.count, stats.min, stats.max, stats.distinct, stats.avg_run_length, stats.is_sorted
    );
    for scheme in Scheme::ALL {
        let col = EncodedColumn::encode_as(values, scheme);
        println!("  {:9} {:6.2} bits/int", scheme.name(), col.bits_per_int());
    }
    let planned = PlannedColumn::encode(values);
    println!(
        "  Planner   {:6.2} bits/int via {:?} ({} decompression passes)",
        planned.bits_per_int(),
        planned.plan,
        planned.plan.decompression_passes()
    );
    let best = EncodedColumn::encode_best(values);
    println!(
        "  GPU-* picks {} ({:.2} bits/int)",
        best.scheme().name(),
        best.bits_per_int()
    );
}

fn main() {
    let n = 500_000usize;
    let mut state = 0x9E37_79B9_u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as i32
    };

    analyze("sorted primary key", &(0..n as i32).collect::<Vec<_>>());
    analyze(
        "timestamps with runs",
        &(0..n)
            .map(|i| 1_600_000_000 + (i / 32) as i32)
            .collect::<Vec<_>>(),
    );
    analyze(
        "uniform random 20-bit",
        &(0..n).map(|_| next() & 0xF_FFFF).collect::<Vec<_>>(),
    );
    analyze(
        "low-cardinality dictionary codes",
        &(0..n).map(|_| next() & 0x1F).collect::<Vec<_>>(),
    );
    analyze(
        "normal-ish measurements around 1e9",
        &(0..n)
            .map(|_| 1_000_000_000 + (next() % 64) - 32)
            .collect::<Vec<_>>(),
    );
}
