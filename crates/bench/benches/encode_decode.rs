//! Timing harness (plain `fn main`, no criterion — the workspace builds
//! offline): real CPU time of the single-threaded encoders and of a
//! full simulated decompression pass, one group per scheme — the
//! decode pass timed on the serial simulator backend and, when there
//! is more than one worker, on the multi-core one (at one worker the
//! two are the same code, so there is no second column and no
//! `speedup` to report).
//! The decode rows run every scheme on uniform 16-bit values; GPU-RFOR
//! also decodes SSB-shaped runs of 1–7 (`decode_sim_short`,
//! `decode_cpu_short`), the case its run expansion bounds.
//!
//! Alongside the printed tables the run writes
//! `BENCH_encode_decode.json` (to `TLC_BENCH_DIR` or the current
//! directory): wall-clock throughput per scheme, the analytic model
//! time of the simulated decode (worker-count-invariant), and the
//! worker counts used. Size: `TLC_N`, default 2^18; best-of iteration
//! count: `TLC_ITERS`, default 5.
//!
//! Run with `cargo bench -p tlc-bench --bench encode_decode`.

use std::time::Instant;
use tlc_bench::{
    machine_meta, print_table, short_runs, sorted_unique, uniform_bits, write_bench_json, Json,
};
use tlc_core::{EncodedColumn, Scheme};
use tlc_gpu_sim::{set_sim_threads_override, sim_threads, Device};

fn iters() -> usize {
    std::env::var("TLC_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5)
}

fn time_best<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let n = std::env::var("TLC_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1 << 18);
    let iters = iters();
    let workers = sim_threads();
    let uniform = uniform_bits(n, 16, 1);
    let sorted = sorted_unique(n, 1 << 16);
    let runs: Vec<i32> = (0..n).map(|i| (i / 64) as i32).collect();
    let short = short_runs(n, 7);
    let mvals = |t: f64| n as f64 / t / 1e6;
    let mut json_rows = Vec::new();

    let mut rows = Vec::new();
    for (scheme, data) in [
        (Scheme::GpuFor, &uniform),
        (Scheme::GpuDFor, &sorted),
        (Scheme::GpuRFor, &runs),
    ] {
        let t = time_best(iters, || {
            EncodedColumn::encode_as(data, scheme).compressed_bytes()
        });
        rows.push(vec![scheme.name().to_string(), format!("{:.1}", mvals(t))]);
        json_rows.push(Json::Obj(vec![
            ("scheme", Json::Str(scheme.name().to_string())),
            ("op", Json::Str("encode".to_string())),
            ("wall_s", Json::Num(t)),
            ("mvals_per_s", Json::Num(mvals(t))),
        ]));
    }
    print_table(
        &format!("encode (best of {iters})"),
        &["scheme", "Mvals/s"],
        &rows,
    );

    let mut rows = Vec::new();
    let sim_cases = Scheme::ALL
        .map(|s| (s, &uniform, "decode_sim"))
        .into_iter()
        .chain([(Scheme::GpuRFor, &short, "decode_sim_short")]);
    for (scheme, data, op) in sim_cases {
        let dev = Device::v100();
        let col = EncodedColumn::encode_as(data, scheme).to_device(&dev);
        let run = || {
            dev.reset_timeline();
            col.decode_only(&dev).expect("decode");
            dev.elapsed_seconds()
        };
        set_sim_threads_override(Some(1));
        let wall_serial = time_best(iters, run);
        let wall_parallel = (workers > 1).then(|| {
            set_sim_threads_override(Some(workers));
            time_best(iters, run)
        });
        set_sim_threads_override(None);
        let modelled = dev.elapsed_seconds();
        let mut row = vec![
            scheme.name().to_string(),
            op.to_string(),
            format!("{:.1}", mvals(wall_serial)),
        ];
        let mut json_row = vec![
            ("scheme", Json::Str(scheme.name().to_string())),
            ("op", Json::Str(op.to_string())),
            ("wall_serial_s", Json::Num(wall_serial)),
        ];
        if let Some(wall_parallel) = wall_parallel {
            row.push(format!("{:.1}", mvals(wall_parallel)));
            json_row.push(("wall_parallel_s", Json::Num(wall_parallel)));
            json_row.push(("speedup", Json::Num(wall_serial / wall_parallel)));
        }
        row.push(format!("{:.3}", modelled * 1e3));
        json_row.push(("modelled_s", Json::Num(modelled)));
        rows.push(row);
        json_rows.push(Json::Obj(json_row));
    }
    let header: &[&str] = if workers > 1 {
        &[
            "scheme",
            "op",
            "serial Mvals/s",
            "parallel Mvals/s",
            "model ms",
        ]
    } else {
        &["scheme", "op", "serial Mvals/s", "model ms"]
    };
    print_table(
        &format!("decompress_simulated (best of {iters}, {workers} worker(s))"),
        header,
        &rows,
    );

    let mut rows = Vec::new();
    let mut decoded = Vec::new();
    let cpu_cases = Scheme::ALL
        .map(|s| (s, &uniform, "decode_cpu"))
        .into_iter()
        .chain([(Scheme::GpuRFor, &short, "decode_cpu_short")]);
    for (scheme, data, op) in cpu_cases {
        let col = EncodedColumn::encode_as(data, scheme);
        // Reuse one output buffer across iterations: decode_cpu_into
        // overwrites it in place, so the timing captures the decode
        // kernels rather than a 4 MB allocation + zeroing per call.
        let t = time_best(iters, || {
            col.decode_cpu_into(&mut decoded);
            decoded.len()
        });
        rows.push(vec![
            scheme.name().to_string(),
            op.to_string(),
            format!("{:.1}", mvals(t)),
        ]);
        json_rows.push(Json::Obj(vec![
            ("scheme", Json::Str(scheme.name().to_string())),
            ("op", Json::Str(op.to_string())),
            ("wall_s", Json::Num(t)),
            ("mvals_per_s", Json::Num(mvals(t))),
        ]));
    }
    print_table(
        &format!("decode_cpu (best of {iters})"),
        &["scheme", "op", "Mvals/s"],
        &rows,
    );

    let mut fields = vec![
        ("bench", Json::Str("encode_decode".to_string())),
        ("n", Json::Int(n as u64)),
        ("workers", Json::Int(workers as u64)),
        ("iters", Json::Int(iters as u64)),
    ];
    fields.extend(machine_meta());
    fields.push(("rows", Json::Arr(json_rows)));
    let doc = Json::Obj(fields);
    match write_bench_json("BENCH_encode_decode.json", &doc) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write BENCH_encode_decode.json: {e}"),
    }
}
