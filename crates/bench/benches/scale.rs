//! Paper-scale out-of-core SSB run (Section 4.2's 500 M-row dataset):
//! ingest the fact table into an on-disk `tlc-store`, then stream SSB
//! flight 1 through the bounded-memory executor twice per query — once
//! fault-free and once under an injected campaign that kills a shard
//! mid-query, tears one partition file and bit-flips another. The run
//! fails (exit 1) unless every faulted result is byte-identical to the
//! fault-free one and the store verifies clean after each campaign.
//!
//! Row count: `TLC_SCALE_ROWS` (default 4 M for a quick local run; the
//! committed `BENCH_scale.json` is produced at the paper's 500 M).
//! Orders per partition chunk: `TLC_SCALE_CHUNK` (default 1 M orders ≈
//! 4 M rows per partition at 500 M scale). Partition-memory budget:
//! `TLC_SCALE_BUDGET_MB` (default 256). Store directory:
//! `TLC_SCALE_DIR` (default under the system temp dir, removed on exit
//! unless `TLC_SCALE_KEEP=1`).
//!
//! `wall_*` columns are real single-process CPU time (ingest includes
//! generation + encode of all 14 columns); `model ms` is the analytic
//! V100 end-to-end latency (slowest worker + merge), bit-identical at
//! any `TLC_SIM_THREADS`.
//!
//! Run with `cargo bench -p tlc-bench --bench scale`.

use std::time::Instant;

use tlc_bench::{print_table, write_bench_json, Json};
use tlc_gpu_sim::{FaultPlan, StorageFaults};
use tlc_ssb::{run_query_streamed_bounded, QueryId, SsbStore, StreamOptions, StreamSpec};

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let rows = env_u64("TLC_SCALE_ROWS", 4_000_000);
    let orders_per_chunk = env_u64("TLC_SCALE_CHUNK", 1_000_000) as usize;
    let budget_bytes = env_u64("TLC_SCALE_BUDGET_MB", 256) << 20;
    let keep = std::env::var("TLC_SCALE_KEEP").is_ok_and(|v| v == "1");
    let dir = std::env::var("TLC_SCALE_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir().join(format!("tlc_scale_{}", std::process::id())));

    let spec = StreamSpec::for_rows(0x5CA1E, rows, orders_per_chunk);
    println!(
        "ingesting {rows} rows ({} chunks of {orders_per_chunk} orders) into {}",
        spec.chunks,
        dir.display()
    );
    let start = Instant::now();
    let store = match SsbStore::ingest(&dir, &spec) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("scale: ingest failed: {e}");
            std::process::exit(1);
        }
    };
    let wall_ingest = start.elapsed().as_secs_f64();
    let n_parts = store.store().partition_count();
    let total_rows: u64 = (0..n_parts).map(|p| store.store().rows(p)).sum();
    let disk_bytes: u64 = (0..n_parts).map(|p| store.store().partition_bytes(p)).sum();
    println!(
        "ingested {total_rows} rows / {n_parts} partitions / {:.1} MiB \
         ({:.3} B/row) in {wall_ingest:.1}s",
        disk_bytes as f64 / (1 << 20) as f64,
        disk_bytes as f64 / total_rows as f64
    );

    let mut table = Vec::new();
    let mut json_rows = Vec::new();
    let mut failures = 0usize;
    let run_opts = |plan: Option<FaultPlan>| StreamOptions {
        budget_bytes,
        plan,
        ..StreamOptions::default()
    };
    for (i, q) in [QueryId::Q11, QueryId::Q12, QueryId::Q13]
        .iter()
        .enumerate()
    {
        let start = Instant::now();
        let clean = match run_query_streamed_bounded(&store, *q, &run_opts(None)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("scale: {} clean run failed: {e}", q.name());
                std::process::exit(1);
            }
        };
        let wall_clean = start.elapsed().as_secs_f64();

        // Kill one shard mid-query, tear one partition, flip a bit in a
        // third — distinct partitions, rotated per query.
        let plan = FaultPlan {
            transient_launch_rate: 0.01,
            storage: StorageFaults {
                kill_shard_at_partition: Some(i % n_parts),
                truncate_at_partition: Some((i + n_parts / 3 + 1) % n_parts),
                flip_bit_at_partition: Some((i + 2 * (n_parts / 3) + 2) % n_parts),
            },
            ..FaultPlan::seeded(0xB5 + i as u64)
        };
        let start = Instant::now();
        let faulted = match run_query_streamed_bounded(&store, *q, &run_opts(Some(plan))) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("scale: {} faulted run failed: {e}", q.name());
                std::process::exit(1);
            }
        };
        let wall_faulted = start.elapsed().as_secs_f64();

        let identical = faulted.result == clean.result;
        if !identical {
            eprintln!(
                "scale: {} faulted result diverged from fault-free",
                q.name()
            );
            failures += 1;
        }
        if let Err(e) = store.store().verify() {
            eprintln!("scale: store dirty after {} campaign: {e}", q.name());
            failures += 1;
        }
        println!("{}: recovery: {}", q.name(), faulted.report);
        table.push(vec![
            q.name().to_string(),
            format!("{}", clean.workers),
            format!("{:.1}", clean.peak_resident_bytes as f64 / (1 << 20) as f64),
            format!("{:.1}", wall_clean),
            format!("{:.1}", wall_faulted),
            format!("{:.3}", clean.total_s() * 1e3),
            format!("{}", faulted.report.recoveries()),
            if identical { "yes" } else { "NO" }.to_string(),
        ]);
        json_rows.push(Json::Obj(vec![
            ("query", Json::Str(q.name().to_string())),
            ("workers", Json::Int(clean.workers as u64)),
            ("peak_resident_bytes", Json::Int(clean.peak_resident_bytes)),
            ("wall_clean_s", Json::Num(wall_clean)),
            ("wall_faulted_s", Json::Num(wall_faulted)),
            ("model_total_s", Json::Num(clean.total_s())),
            ("model_device_s", Json::Num(clean.device_s)),
            ("model_merge_s", Json::Num(clean.merge_s)),
            (
                "devices_lost",
                Json::Int(faulted.report.devices_lost as u64),
            ),
            (
                "partitions_quarantined",
                Json::Int(faulted.report.partitions_quarantined as u64),
            ),
            (
                "partitions_regenerated",
                Json::Int(faulted.report.partitions_regenerated as u64),
            ),
            (
                "shards_failed_over",
                Json::Int(faulted.report.shards_failed_over as u64),
            ),
            ("result_identical", Json::Int(identical as u64)),
            ("groups", Json::Int(clean.result.len() as u64)),
        ]));
    }
    print_table(
        &format!(
            "out-of-core SSB flight 1, {total_rows} rows, budget {} MiB",
            budget_bytes >> 20
        ),
        &[
            "query",
            "workers",
            "peak MiB",
            "clean s",
            "faulted s",
            "model ms",
            "recoveries",
            "identical",
        ],
        &table,
    );

    let mut fields = vec![
        ("bench", Json::Str("scale".to_string())),
        ("total_rows", Json::Int(total_rows)),
        ("partitions", Json::Int(n_parts as u64)),
        ("orders_per_chunk", Json::Int(orders_per_chunk as u64)),
        ("budget_bytes", Json::Int(budget_bytes)),
        ("disk_bytes", Json::Int(disk_bytes)),
        (
            "bytes_per_row",
            Json::Num(disk_bytes as f64 / total_rows as f64),
        ),
        ("wall_ingest_s", Json::Num(wall_ingest)),
    ];
    fields.extend(tlc_bench::machine_meta());
    fields.push(("rows", Json::Arr(json_rows)));
    let doc = Json::Obj(fields);
    match write_bench_json("BENCH_scale.json", &doc) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write BENCH_scale.json: {e}"),
    }
    if !keep {
        let _ = std::fs::remove_dir_all(&dir);
    }
    if failures > 0 {
        eprintln!("scale: {failures} campaign(s) failed the byte-identical bar");
        std::process::exit(1);
    }
}
