//! Timing harness (plain `fn main`, no criterion — the workspace builds
//! offline): full SSB query pipelines (generation excluded), all 13
//! queries under all six systems, and the serial simulator backend
//! against the multi-core one.
//!
//! Two different clocks appear here (see README "wall-clock vs modelled
//! time"): `serial ms` / `parallel ms` are real CPU time of the
//! simulation itself, which the `TLC_SIM_THREADS` workers speed up;
//! `model ms` is the analytic V100 time, which is bit-identical for
//! every worker count.
//!
//! Alongside the printed table the run writes `BENCH_query_ssb.json`
//! (to `TLC_BENCH_DIR` or the current directory) so the perf trajectory
//! is machine-readable; each row embeds a `tlc-profile/v1` phase
//! profile of its query. Scale factor: `TLC_SF`, default 0.01. The
//! committed baseline is `benchmarks/BENCH_query_ssb.json`;
//! `scripts/bench_compare` fails when a row's `modelled_s` differs from
//! it at equal scale factor.
//!
//! Run with `cargo bench -p tlc-bench --bench query_ssb`.

use std::time::Instant;
use tlc_bench::{print_table, write_bench_json, Json};
use tlc_gpu_sim::{set_sim_threads_override, sim_threads, Device};
use tlc_profile::Profile;
use tlc_ssb::{run_query, LoColumns, QueryId, SsbData, System};

const ITERS: usize = 3;

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
    let sf = std::env::var("TLC_SF")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.01);
    let workers = sim_threads();
    let data = SsbData::generate(sf);
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for q in QueryId::ALL {
        for sys in System::ALL {
            let dev = Device::v100();
            let cols = LoColumns::build(&dev, &data, sys, q.columns());
            let run = || {
                dev.reset_timeline();
                run_query(&dev, &data, &cols, q).len()
            };
            set_sim_threads_override(Some(1));
            let wall_serial = time_best(ITERS, run);
            set_sim_threads_override(Some(workers));
            let wall_parallel = time_best(ITERS, run);
            set_sim_threads_override(None);
            let modelled = dev.elapsed_seconds();
            // Phase profile of the last (timed) run — deterministic, so
            // identical to every other iteration's timeline.
            let profile = dev.with_timeline(|tl| Profile::from_reports(tl.events(), dev.params()));
            rows.push(vec![
                q.name().to_string(),
                sys.name().to_string(),
                format!("{:.2}", wall_serial * 1e3),
                format!("{:.2}", wall_parallel * 1e3),
                format!("{:.3}", modelled * 1e3),
            ]);
            json_rows.push(Json::Obj(vec![
                ("query", Json::Str(q.name().to_string())),
                ("system", Json::Str(sys.name().to_string())),
                ("wall_serial_s", Json::Num(wall_serial)),
                ("wall_parallel_s", Json::Num(wall_parallel)),
                ("speedup", Json::Num(wall_serial / wall_parallel)),
                ("modelled_s", Json::Num(modelled)),
                ("profile", profile.to_json()),
            ]));
        }
    }
    print_table(
        &format!("ssb query wall time (best of {ITERS}, {workers} worker(s))"),
        &["query", "system", "serial ms", "parallel ms", "model ms"],
        &rows,
    );
    let mut fields = vec![
        ("bench", Json::Str("query_ssb".to_string())),
        ("scale_factor", Json::Num(sf)),
        ("workers", Json::Int(workers as u64)),
        ("iters", Json::Int(ITERS as u64)),
    ];
    fields.extend(tlc_bench::machine_meta());
    fields.push(("rows", Json::Arr(json_rows)));
    let doc = Json::Obj(fields);
    match write_bench_json("BENCH_query_ssb.json", &doc) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write BENCH_query_ssb.json: {e}"),
    }
}
