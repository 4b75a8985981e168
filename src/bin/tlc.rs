//! `tlc` — command-line front end for the compression library.
//!
//! Columns are flat little-endian `i32` files on the way in and the
//! self-describing serialized format (`tlc::schemes::serialize`) on the
//! way out.
//!
//! ```text
//! tlc stats      <input.bin>
//! tlc compress   <input.bin> <output.tlc> [--scheme auto|for|dfor|rfor]
//! tlc decompress <input.tlc> <output.bin>
//! tlc inspect    <input.tlc>
//! tlc verify     <input.tlc>
//! tlc verify     --manifest <store-dir>
//! tlc ingest     <store-dir> [--rows N] [--orders-per-chunk N] [--seed S]
//! tlc compact    <store-dir> [--merge K]
//! tlc chaos      [--seed N | --seed A..B] [--rows N]
//! tlc faultsim   [--seed N | --seed A..B]
//! tlc fuzz       [--seed N | --seed A..B] [--iters M]
//! tlc profile    (<input.tlc> | --query <q>) [--sf N] [--system S] [--json PATH]
//! tlc serve      <store-dir> [--workers N] [--queue N] [--requests N] [--seed S] [--kill-shard P] [--cache-mb N] [--batch-window W]
//! tlc loadgen    [--rows N] [--requests N] [--rate QPS] [--servers K] [--queue N] [--seed S] [--cache-mb N] [--batch-window W]
//! ```
//!
//! `verify` checks a serialized column end to end (stream digest,
//! per-block checksums, structural validation, then a full device-side
//! decode with tile verification). Its exit code classifies the damage
//! so scripts can react without parsing stderr:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | stream verified |
//! | 1    | I/O or usage error |
//! | 2    | integrity damage (stream digest / block checksum mismatch) |
//! | 3    | structural or hostile stream (malformed / over-limit metadata) |
//! | 4    | kernel launch failure |
//!
//! `verify --manifest` applies the same contract to a whole `tlc-store`
//! directory: deep-open recovery (torn-tmp sweep, stale sweep,
//! whole-file digest scan), then a full walk verifying every
//! partition's stream digest and per-block checksums, then a
//! device-side decode of partition 0 to exercise the launch path. A
//! store that carries its generation spec (any `tlc ingest` store)
//! **self-heals** first: files quarantined at open are regenerated
//! deterministically and verified against the committed digests, so a
//! quarantine-and-healed store exits 0 — integrity exit codes are for
//! damage the store could *not* repair.
//!
//! `ingest` generates an SSB fact table chunk by chunk (bounded
//! memory) into a crash-safe store; `compact` merges adjacent
//! partitions under a bumped generation; `chaos` runs the out-of-core
//! fault campaign — kill-shard, torn partition and flipped bit per
//! seed — asserting the streamed result and recovery report are
//! bit-identical at 1 and 4 workers and that the store self-heals.
//!
//! `faultsim` runs the seeded fault-injection campaign: sharded SSB
//! queries with bit flips, transient launch failures and a killed
//! device, asserting the kill fired and the recovered answers match a
//! fault-free run.
//! `fuzz` runs the offline differential fuzzer (`tlc::fuzz`): honest
//! streams are structurally mutated and every mutant must decode
//! identically on CPU and GPU-sim or die with a typed error — never a
//! panic, never past the allocation cap. The checked-in regression
//! corpus runs on every invocation. For `chaos`, `faultsim` and `fuzz`,
//! `--seed A..B` runs one campaign per seed in the (Rust-style,
//! exclusive) range.
//!
//! `serve` runs the overload-safe concurrent query service
//! (`tlc::serve`) over an ingested store: a deterministic mixed batch
//! (SSB flight 1, point filters, scans) is offered to a bounded
//! admission queue and executed by a worker pool with retries,
//! per-shard circuit breakers and degradation tiers; the terminal
//! counters and latency percentiles are printed as JSON. `loadgen`
//! drives an open-loop Poisson workload against a freshly ingested
//! store and writes the `tlc-serving/v1` bench artifact
//! (`BENCH_serving.json`, p50/p99/p999 + saturation throughput) to
//! `TLC_BENCH_DIR`; see docs/PROFILING.md.
//!
//! `profile` runs a workload on the simulated V100 and reports where
//! the modelled time went, phase by phase (global load → shared staging
//! → unpack → expand → predicate → aggregate → writeback), with
//! achieved vs. modelled bandwidth and roofline utilization. Column
//! mode (`tlc profile col.tlc`) profiles a full device-side decode;
//! query mode (`tlc profile --query q2.1`) profiles an SSB query
//! (`--sf` scale factor, default 0.01; `--system` one of
//! `none|gpu-star|nvcomp|gpu-bp|planner|omnisci`, default `gpu-star`).
//! A `tlc-profile/v1` JSON artifact is written to `--json` (default
//! `PROFILE.json`); see docs/PROFILING.md.

use std::process::ExitCode;

use std::path::Path;

use std::sync::Arc;

use tlc::fuzz::{run_corpus, run_fuzz, FuzzConfig};
use tlc::planner::ColumnStats;
use tlc::profile::{write_bench_json, Profile};
use tlc::schemes::{DecodeError, EncodedColumn, FormatError, Limits, Scheme};
use tlc::serve::{run_loadgen, LoadgenConfig, QuerySpec, Rejected, Request, ServeConfig, Service};
use tlc::sim::{set_sim_threads_override, Device, FaultPlan, StorageFaults};
use tlc::ssb::fleet::{campaign_plans, campaign_verdict, run_query_sharded};
use tlc::ssb::{
    run_query, run_query_streamed_bounded, LoColumn, LoColumns, QueryId, SsbData, SsbStore,
    StreamError, StreamOptions, StreamSpec, System,
};
use tlc::store::{Store, StoreError};

fn read_i32_column(path: &str) -> Result<Vec<i32>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    if bytes.len() % 4 != 0 {
        return Err(format!(
            "{path}: length {} is not a multiple of 4",
            bytes.len()
        ));
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

fn write_i32_column(path: &str, values: &[i32]) -> Result<(), String> {
    let mut bytes = Vec::with_capacity(values.len() * 4);
    for v in values {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    std::fs::write(path, bytes).map_err(|e| format!("{path}: {e}"))
}

fn parse_scheme(s: &str) -> Result<Option<Scheme>, String> {
    match s {
        "auto" => Ok(None),
        "for" => Ok(Some(Scheme::GpuFor)),
        "dfor" => Ok(Some(Scheme::GpuDFor)),
        "rfor" => Ok(Some(Scheme::GpuRFor)),
        other => Err(format!("unknown scheme '{other}' (auto|for|dfor|rfor)")),
    }
}

fn cmd_stats(input: &str) -> Result<(), String> {
    let values = read_i32_column(input)?;
    let stats = ColumnStats::compute(&values);
    println!("rows:            {}", stats.count);
    println!("range:           [{}, {}]", stats.min, stats.max);
    println!("distinct:        {}", stats.distinct);
    println!("avg run length:  {:.2}", stats.avg_run_length);
    println!("sorted:          {}", stats.is_sorted);
    println!("range bits:      {}", stats.range_bits());
    // The scheme `tlc compress` writes: the smallest exact footprint.
    let best = EncodedColumn::encode_best(&values).scheme();
    println!("recommendation:  {}", best.name());
    for scheme in Scheme::ALL {
        let col = EncodedColumn::encode_as(&values, scheme);
        println!(
            "  {:9} -> {:8.3} bits/int",
            scheme.name(),
            col.bits_per_int()
        );
    }
    Ok(())
}

fn cmd_compress(args: &[String]) -> Result<(), String> {
    let (mut input, mut output, mut scheme) = (None, None, None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scheme" => {
                scheme = parse_scheme(&flag_value::<String>(&mut it, "--scheme")?)?;
            }
            _ if input.is_none() && !a.starts_with("--") => input = Some(a.clone()),
            _ if output.is_none() && !a.starts_with("--") => output = Some(a.clone()),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    let input = input.ok_or("usage: tlc compress <input.bin> <output.tlc> [...]")?;
    let output = output.ok_or("usage: tlc compress <input.bin> <output.tlc> [...]")?;

    let values = read_i32_column(&input)?;
    let col = match scheme {
        Some(s) => EncodedColumn::encode_as(&values, s),
        None => EncodedColumn::encode_best(&values),
    };
    col.validate().map_err(|e| e.to_string())?;
    let bytes = col.to_bytes();
    std::fs::write(&output, &bytes).map_err(|e| format!("{output}: {e}"))?;
    println!(
        "{} values -> {} via {} ({:.3} bits/int, {:.2}x)",
        values.len(),
        output,
        col.scheme().name(),
        col.bits_per_int(),
        (values.len() as f64 * 4.0) / bytes.len() as f64,
    );
    Ok(())
}

fn cmd_decompress(input: &str, output: &str) -> Result<(), String> {
    let bytes = std::fs::read(input).map_err(|e| format!("{input}: {e}"))?;
    let col = EncodedColumn::from_bytes(&bytes).map_err(|e| format!("{input}: {e}"))?;
    let values = col.decode_cpu();
    write_i32_column(output, &values)?;
    println!(
        "{} -> {} ({} values, {})",
        input,
        output,
        values.len(),
        col.scheme().name()
    );
    Ok(())
}

fn cmd_inspect(input: &str) -> Result<(), String> {
    let bytes = std::fs::read(input).map_err(|e| format!("{input}: {e}"))?;
    let col = EncodedColumn::from_bytes(&bytes).map_err(|e| format!("{input}: {e}"))?;
    println!("scheme:       {}", col.scheme().name());
    println!("values:       {}", col.total_count());
    println!("compressed:   {} bytes", col.compressed_bytes());
    println!("bits per int: {:.3}", col.bits_per_int());
    println!("validated:    ok");
    Ok(())
}

/// A CLI failure carrying its process exit code. `verify` uses the
/// distinct codes documented in the module header; everything else
/// reports code 1.
struct CliError {
    code: u8,
    message: String,
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError { code: 1, message }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError {
            code: 1,
            message: message.to_string(),
        }
    }
}

/// Exit code for a parse-time failure: integrity damage (digest /
/// checksum mismatch) is distinguishable from random structural or
/// hostile malformation.
fn format_error_code(e: &FormatError) -> u8 {
    match e {
        FormatError::StreamChecksum | FormatError::ChecksumMismatch { .. } => 2,
        _ => 3,
    }
}

/// Exit code for a device-side decode failure.
fn decode_error_code(e: &DecodeError) -> u8 {
    match e {
        DecodeError::Corrupt { .. } => 2,
        DecodeError::Structure { .. } | DecodeError::Hostile { .. } => 3,
        DecodeError::Launch(_) => 4,
    }
}

fn cmd_verify(input: &str) -> Result<(), CliError> {
    let bytes = std::fs::read(input).map_err(|e| format!("{input}: {e}"))?;
    // Parsing already verifies the stream digest, the per-block
    // checksum array, the structural invariants and the resource caps.
    let col = EncodedColumn::from_bytes(&bytes).map_err(|e| CliError {
        code: format_error_code(&e),
        message: format!("{input}: {e}"),
    })?;
    // Then decode every tile on the simulated device, which re-verifies
    // each block checksum from shared memory before trusting any width.
    let dev = Device::v100();
    let decoded = col.to_device(&dev).decompress(&dev).map_err(|e| CliError {
        code: decode_error_code(&e),
        message: format!("{input}: {e}"),
    })?;
    let n = decoded.as_slice_unaccounted().len();
    println!(
        "{input}: ok ({n} values, {}, {} bytes, stream digest + per-block checksums verified)",
        col.scheme().name(),
        col.compressed_bytes(),
    );
    Ok(())
}

/// Map a store failure onto the CLI exit-code contract.
fn store_err(e: StoreError) -> CliError {
    CliError {
        code: e.exit_code(),
        message: e.to_string(),
    }
}

/// Map a streamed query that produced no full result: a storage
/// failure keeps its exit-code class, a deadline is an ordinary
/// failure (exit 1) that says how far the query got.
fn stream_err(e: StreamError) -> CliError {
    match e {
        StreamError::Store(e) => store_err(e),
        deadline @ StreamError::DeadlineExceeded(_) => deadline.to_string().into(),
    }
}

/// `tlc verify --manifest <dir>`: deep-open recovery, self-heal of
/// quarantined files when the store carries its generation spec, then
/// a full-store walk (manifest lengths, whole-file digests, stream
/// digests, per-block checksums) and a device-side decode of partition
/// 0's columns so a launch-layer failure surfaces as exit code 4.
///
/// Exit-code contract: a quarantine that **healed** is a recovered
/// store, and a recovered store is a healthy store — it exits 0. The
/// integrity code 2 is reserved for damage that could not be repaired
/// (no generation spec, or the healed bytes failed the committed
/// digest).
fn cmd_verify_manifest(dir: &str) -> Result<(), CliError> {
    let (store, recovery) = Store::open_deep(Path::new(dir)).map_err(store_err)?;
    if !recovery.is_clean() {
        println!("{dir}: recovery: {recovery}");
        for q in &recovery.quarantined {
            println!(
                "  quarantined p{:05} `{}`: {:?}",
                q.partition, q.column, q.cause
            );
        }
    }
    // A store whose manifest carries the SSB generation spec can
    // regenerate every quarantined file deterministically; stores
    // without one fall through to the plain (non-regenerable) walk.
    enum Opened {
        Ssb(SsbStore),
        Plain(Store),
    }
    let opened = match SsbStore::from_open(store) {
        Ok(ssb) => Opened::Ssb(ssb),
        Err(back) => Opened::Plain(back.0),
    };
    if let Opened::Ssb(ssb) = &opened {
        let healed = ssb.heal_damaged().map_err(store_err)?;
        if healed > 0 {
            println!("{dir}: healed {healed} quarantined file(s) from the generation spec");
        }
    }
    let store: &Store = match &opened {
        Opened::Ssb(ssb) => ssb.store(),
        Opened::Plain(store) => store,
    };
    let stats = store.verify().map_err(store_err)?;
    if store.partition_count() > 0 {
        let dev = Device::v100();
        for column in &store.manifest().columns {
            let col = store.load_column(0, column).map_err(store_err)?;
            col.to_device(&dev).decompress(&dev).map_err(|e| CliError {
                code: decode_error_code(&e),
                message: format!("{dir}: partition 0 `{column}`: {e}"),
            })?;
        }
    }
    println!(
        "{dir}: ok (generation {}, {} partition(s), {} file(s), {} rows, {} compressed bytes; \
         every stream digest + per-block checksum verified, partition 0 decoded on device)",
        store.manifest().generation,
        stats.partitions,
        stats.files,
        stats.rows,
        stats.bytes,
    );
    Ok(())
}

/// `tlc ingest <dir> [--rows N] [--orders-per-chunk N] [--seed S]`:
/// generate and commit an SSB fact-table store chunk by chunk.
fn cmd_ingest(args: &[String]) -> Result<(), CliError> {
    let mut dir: Option<String> = None;
    let mut rows: u64 = 1_000_000;
    let mut orders_per_chunk: usize = 50_000;
    let mut seed: u64 = 0x55B_2022;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--rows" => {
                rows = flag_value(&mut it, "--rows")?;
            }
            "--orders-per-chunk" => {
                orders_per_chunk = flag_value(&mut it, "--orders-per-chunk")?;
            }
            "--seed" => {
                seed = flag_value(&mut it, "--seed")?;
            }
            _ if dir.is_none() && !a.starts_with("--") => dir = Some(a.clone()),
            other => return Err(format!("unexpected argument '{other}'").into()),
        }
    }
    let dir = dir.ok_or("usage: tlc ingest <store-dir> [--rows N] [...]")?;
    let spec = StreamSpec::for_rows(seed, rows, orders_per_chunk);
    let store = SsbStore::ingest(Path::new(&dir), &spec).map_err(store_err)?;
    let total_rows = store.store().manifest().total_rows;
    let bytes: u64 = (0..store.store().partition_count())
        .map(|p| store.store().partition_bytes(p))
        .sum();
    println!(
        "{dir}: committed {} partition(s), {} rows, {} compressed bytes \
         ({:.3} bytes/row vs 56 plain)",
        store.store().partition_count(),
        total_rows,
        bytes,
        bytes as f64 / total_rows.max(1) as f64,
    );
    Ok(())
}

/// `tlc compact <dir> [--merge K]`: merge adjacent partitions under a
/// bumped generation, then sweep the stale files.
fn cmd_compact(args: &[String]) -> Result<(), CliError> {
    let mut dir: Option<String> = None;
    let mut merge: usize = 2;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--merge" => {
                merge = flag_value(&mut it, "--merge")?;
                if merge == 0 {
                    return Err("--merge must be >= 1".into());
                }
            }
            _ if dir.is_none() && !a.starts_with("--") => dir = Some(a.clone()),
            other => return Err(format!("unexpected argument '{other}'").into()),
        }
    }
    let dir = dir.ok_or("usage: tlc compact <store-dir> [--merge K]")?;
    let (store, report) = tlc::ssb::stream::compact(Path::new(&dir), merge).map_err(store_err)?;
    println!(
        "{dir}: {} -> {} partition(s) (generation {}), {} -> {} bytes, \
         {} stale file(s) swept",
        report.partitions_before,
        report.partitions_after,
        store.store().manifest().generation,
        report.bytes_before,
        report.bytes_after,
        report.stale_files_removed,
    );
    Ok(())
}

/// `tlc chaos [--seed N | --seed A..B] [--rows N]`: the out-of-core
/// fault campaign. Per seed, one partition's shard is killed mid-query,
/// one partition file is torn and one is bit-flipped; the streamed
/// result and recovery report must be bit-identical to the fault-free
/// run at both 1 and 4 workers, and the store must verify clean (the
/// damaged files healed in place) afterwards.
fn cmd_chaos(args: &[String]) -> Result<(), CliError> {
    let mut seeds: Vec<u64> = (0..4).collect();
    let mut rows: u64 = 120_000;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                seeds = parse_seed_spec(&flag_value::<String>(&mut it, "--seed")?)?;
            }
            "--rows" => {
                rows = flag_value(&mut it, "--rows")?;
            }
            other => return Err(format!("unexpected argument '{other}'").into()),
        }
    }
    if seeds.is_empty() {
        return Err("--seed range is empty".into());
    }

    let dir = std::env::temp_dir().join(format!("tlc_chaos_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = StreamSpec::for_rows(1, rows, ((rows / 4).max(4) as usize).div_ceil(6));
    let store = SsbStore::ingest(&dir, &spec).map_err(store_err)?;
    let n = store.store().partition_count();
    let q = QueryId::Q11;

    let run_at = |w: usize, plan: Option<FaultPlan>| {
        set_sim_threads_override(Some(w));
        let opts = StreamOptions {
            plan,
            ..StreamOptions::default()
        };
        let run = run_query_streamed_bounded(&store, q, &opts).map_err(stream_err);
        set_sim_threads_override(None);
        run
    };

    let clean = run_at(1, None)?;
    let clean4 = run_at(4, None)?;
    let mut mismatches = 0usize;
    if clean4.result != clean.result {
        mismatches += 1;
        println!("clean: RESULT DIVERGES between 1 and 4 workers");
    }
    for &seed in &seeds {
        let plan = FaultPlan {
            transient_launch_rate: 0.02,
            storage: StorageFaults {
                kill_shard_at_partition: Some(seed as usize % n),
                truncate_at_partition: Some((seed as usize + 1) % n),
                flip_bit_at_partition: Some((seed as usize + 2) % n),
            },
            ..FaultPlan::seeded(seed)
        };
        let one = run_at(1, Some(plan.clone()))?;
        let four = run_at(4, Some(plan))?;
        let ok =
            one.result == clean.result && four.result == clean.result && one.report == four.report;
        if !ok {
            mismatches += 1;
        }
        println!(
            "seed {seed}: {} — {}",
            if ok {
                "bit-identical at 1 and 4 workers"
            } else {
                "MISMATCH"
            },
            one.report,
        );
        store.store().verify().map_err(|e| CliError {
            code: e.exit_code(),
            message: format!("store failed to self-heal after seed {seed}: {e}"),
        })?;
    }
    let _ = std::fs::remove_dir_all(&dir);
    if mismatches > 0 {
        return Err(format!("{mismatches} campaign(s) diverged from the fault-free run").into());
    }
    println!(
        "chaos: {} seed(s) x {} partition(s), every recovered run bit-identical, \
         store verified clean after every campaign",
        seeds.len(),
        n
    );
    Ok(())
}

/// The value after `flag` in `it`, parsed: "`flag` needs a value" when
/// there is none, "`flag`: <why>" when it does not parse.
fn flag_value<'a, T>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let value = it.next().ok_or(format!("{flag} needs a value"))?;
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Parse `--seed` for `chaos`, `faultsim` and `fuzz`: a single seed
/// (`7`) or a Rust-style range (`0..4` exclusive, `0..=4` inclusive).
fn parse_seed_spec(s: &str) -> Result<Vec<u64>, String> {
    let parse_one =
        |t: &str| -> Result<u64, String> { t.parse().map_err(|e| format!("--seed '{s}': {e}")) };
    if let Some((a, b)) = s.split_once("..=") {
        let (a, b) = (parse_one(a)?, parse_one(b)?);
        Ok((a..=b).collect())
    } else if let Some((a, b)) = s.split_once("..") {
        let (a, b) = (parse_one(a)?, parse_one(b)?);
        Ok((a..b).collect())
    } else {
        Ok(vec![parse_one(s)?])
    }
}

fn cmd_fuzz(args: &[String]) -> Result<(), String> {
    let mut seeds: Vec<u64> = vec![0];
    let mut iters = 1000usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                seeds = parse_seed_spec(&flag_value::<String>(&mut it, "--seed")?)?;
            }
            "--iters" => {
                iters = flag_value(&mut it, "--iters")?;
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    if seeds.is_empty() {
        return Err("--seed range is empty".to_string());
    }

    let limits = Limits::strict();
    // Each seed is an independent campaign with its own RNG and device,
    // so campaigns run on `TLC_SIM_THREADS` workers; reports print in
    // seed order, so output and verdicts match a serial sweep exactly.
    let ranges = tlc::sim::partitions(seeds.len(), tlc::sim::sim_threads());
    let reports = tlc::sim::map_ranges(&ranges, |_, r| {
        let campaign = |&seed| {
            let cfg = FuzzConfig {
                seed,
                iters,
                limits,
            };
            (seed, run_fuzz(&cfg))
        };
        seeds[r].iter().map(campaign).collect::<Vec<_>>()
    });
    let reports: Vec<_> = reports.into_iter().flatten().collect();
    let mut findings = 0usize;
    for (seed, report) in &reports {
        println!("seed {seed}: {report}");
        for f in &report.findings {
            findings += 1;
            println!(
                "  FINDING (seed {seed}, iter {}): {:?}\n  reproducer ({} bytes): {}",
                f.iter,
                f.verdict,
                f.bytes.len(),
                f.bytes
                    .iter()
                    .map(|b| format!("{b:02x}"))
                    .collect::<String>(),
            );
        }
    }

    // The checked-in regression corpus runs on every invocation, so a
    // validator regression trips even with few iterations.
    let dirty = run_corpus(&limits)?;
    for (name, verdict) in &dirty {
        println!("  CORPUS REGRESSION {name}: {verdict:?}");
    }
    println!(
        "corpus: {} cases {}",
        tlc::fuzz::corpus::load_corpus()?.len(),
        if dirty.is_empty() { "clean" } else { "DIRTY" },
    );
    if findings + dirty.len() > 0 {
        return Err(format!(
            "{} finding(s), {} corpus regression(s)",
            findings,
            dirty.len()
        ));
    }
    println!(
        "fuzz: {} campaign(s) x {iters} mutants, no panics, no over-cap \
         allocations, no CPU/GPU-sim divergence",
        seeds.len()
    );
    Ok(())
}

/// `tlc faultsim [--seed N | --seed A..B]`: DESIGN.md §9's acceptance
/// campaign (`fleet::campaign_plans`) on q1.1, q2.1 and q4.1 per seed,
/// seeds 0..8 by default. Fails if any campaign fails
/// `fleet::campaign_verdict`, the checks `tests/fault_campaign.rs`
/// makes: a recovered answer that diverges from the fault-free run, a
/// kill that never fired, a CPU fallback, or a fault the report does
/// not cover.
fn cmd_faultsim(args: &[String]) -> Result<(), String> {
    let mut seeds: Vec<u64> = (0..8).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                seeds = parse_seed_spec(&flag_value::<String>(&mut it, "--seed")?)?;
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    if seeds.is_empty() {
        return Err("--seed range is empty".to_string());
    }

    let data = SsbData::generate(0.01);
    let mut failed = 0usize;
    for &seed in &seeds {
        let plans = campaign_plans(seed);
        let shards = plans.len();
        for q in [QueryId::Q11, QueryId::Q21, QueryId::Q41] {
            let clean = run_query_sharded(&data, System::GpuStar, q, shards, 1.0, &[]);
            let run = run_query_sharded(&data, System::GpuStar, q, shards, 1.0, &plans);
            match campaign_verdict(&run, &clean) {
                Ok(()) => println!(
                    "seed {seed} {}: result matches fault-free run — {}",
                    q.name(),
                    run.report
                ),
                Err(e) => {
                    failed += 1;
                    println!("seed {seed} {}: FAILED — {e}", q.name());
                }
            }
        }
    }
    if failed > 0 {
        return Err(format!("{failed} campaign(s) failed the acceptance checks"));
    }
    println!("faultsim: all recovered results match the fault-free run");
    Ok(())
}

/// Parse `--system` for `profile`.
fn parse_system(s: &str) -> Result<System, String> {
    match s.to_ascii_lowercase().as_str() {
        "none" => Ok(System::None),
        "gpu-star" | "gpu*" | "gpu-*" | "star" => Ok(System::GpuStar),
        "nvcomp" => Ok(System::NvComp),
        "gpu-bp" | "gpubp" => Ok(System::GpuBp),
        "planner" => Ok(System::Planner),
        "omnisci" => Ok(System::OmniSci),
        other => Err(format!(
            "unknown system '{other}' (none|gpu-star|nvcomp|gpu-bp|planner|omnisci)"
        )),
    }
}

/// Parse `--query` for `profile`: any SSB flight name, e.g. `q2.1`.
fn parse_query(s: &str) -> Result<QueryId, String> {
    QueryId::ALL
        .iter()
        .copied()
        .find(|q| q.name().eq_ignore_ascii_case(s))
        .ok_or_else(|| {
            let names: Vec<&str> = QueryId::ALL.iter().map(|q| q.name()).collect();
            format!("unknown query '{s}' (one of: {})", names.join(", "))
        })
}

fn cmd_profile(args: &[String]) -> Result<(), CliError> {
    let mut input: Option<String> = None;
    let mut query: Option<QueryId> = None;
    let mut sf = 0.01f64;
    let mut system = System::GpuStar;
    let mut json_path = "PROFILE.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--query" => {
                query = Some(parse_query(&flag_value::<String>(&mut it, "--query")?)?);
            }
            "--sf" => {
                sf = flag_value(&mut it, "--sf")?;
            }
            "--system" => {
                system = parse_system(&flag_value::<String>(&mut it, "--system")?)?;
            }
            "--json" => {
                json_path = flag_value(&mut it, "--json")?;
            }
            _ if input.is_none() && !a.starts_with("--") => input = Some(a.clone()),
            other => return Err(format!("unexpected argument '{other}'").into()),
        }
    }

    let dev = Device::v100();
    match (&input, query) {
        (Some(path), None) => {
            // Column mode: profile a full device-side decode.
            let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
            let col = EncodedColumn::from_bytes(&bytes).map_err(|e| CliError {
                code: format_error_code(&e),
                message: format!("{path}: {e}"),
            })?;
            let dcol = col.to_device(&dev);
            dev.reset_timeline();
            let decoded = dcol.decompress(&dev).map_err(|e| CliError {
                code: decode_error_code(&e),
                message: format!("{path}: {e}"),
            })?;
            println!(
                "{path}: decoded {} values ({})",
                decoded.as_slice_unaccounted().len(),
                col.scheme().name(),
            );
        }
        (None, Some(q)) => {
            // Query mode: profile one SSB flight end to end.
            let data = SsbData::generate(sf);
            let cols = LoColumns::build(&dev, &data, system, q.columns());
            dev.reset_timeline();
            let result = run_query(&dev, &data, &cols, q);
            println!(
                "{} under {} at SF {sf}: {} result group(s)",
                q.name(),
                system.name(),
                result.len(),
            );
        }
        _ => {
            return Err(CliError::from(
                "usage: tlc profile (<input.tlc> | --query <q>) [--sf N] [--system S] \
                 [--json PATH]"
                    .to_string(),
            ))
        }
    }
    let profile = dev.with_timeline(|tl| Profile::from_reports(tl.events(), dev.params()));
    print!("{}", profile.render_text());
    std::fs::write(&json_path, profile.to_json().render())
        .map_err(|e| format!("{json_path}: {e}"))?;
    println!("\nwrote {json_path}");
    Ok(())
}

/// `tlc serve <store-dir> [--workers N] [--queue N] [--requests N]
/// [--seed S] [--kill-shard P] [--cache-mb N] [--batch-window N]`:
/// offer a deterministic mixed batch (flight 1, point filters, scans)
/// to the concurrent query service and print the terminal counters and
/// latency percentiles as JSON. `--kill-shard P` arms a kill-shard
/// fault at partition P on every flight query, exercising the failover
/// path under live traffic; the command still requires every admitted
/// query to reach exactly one terminal state. `--cache-mb N` shares an
/// N-MiB compressed-partition cache across the worker pool (0, the
/// default, disables it); cache counters appear in the JSON metrics.
/// `--batch-window N` sets the shared-scan wave size (default 4; 0 or
/// 1 disables batching) — the batching counters (`batched_queries`,
/// `shared_decodes`, `launches_saved`) appear in the JSON metrics.
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let mut dir: Option<String> = None;
    let mut workers = 2usize;
    let mut queue = 64usize;
    let mut requests = 32usize;
    let mut seed = 7u64;
    let mut cache_mb = 0u64;
    let mut batch_window = ServeConfig::default().batch_window;
    let mut kill_shard: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workers" => workers = flag_value::<usize>(&mut it, "--workers")?.max(1),
            "--queue" => queue = flag_value(&mut it, "--queue")?,
            "--requests" => requests = flag_value(&mut it, "--requests")?,
            "--kill-shard" => kill_shard = Some(flag_value(&mut it, "--kill-shard")?),
            "--cache-mb" => cache_mb = flag_value(&mut it, "--cache-mb")?,
            "--batch-window" => batch_window = flag_value(&mut it, "--batch-window")?,
            "--seed" => {
                seed = flag_value(&mut it, "--seed")?;
            }
            _ if dir.is_none() && !a.starts_with("--") => dir = Some(a.clone()),
            other => return Err(format!("unexpected argument '{other}'").into()),
        }
    }
    let dir = dir.ok_or(
        "usage: tlc serve <store-dir> [--workers N] [--queue N] [--requests N] \
         [--seed S] [--kill-shard P] [--cache-mb N] [--batch-window N]",
    )?;

    let (store, _recovery) = SsbStore::open_deep(Path::new(&dir)).map_err(store_err)?;
    let healed = store.heal_damaged().map_err(store_err)?;
    if healed > 0 {
        println!("{dir}: healed {healed} quarantined file(s) before serving");
    }
    let store = Arc::new(store);
    let svc = Service::start(
        Arc::clone(&store),
        ServeConfig {
            workers,
            queue_capacity: queue,
            cache_budget_bytes: cache_mb << 20,
            batch_window,
            ..ServeConfig::default()
        },
    );

    // Deterministic mixed batch: flights, point filters and scans in a
    // fixed rotation, parameterized by the seed.
    let mut tickets = Vec::new();
    let mut shed = 0usize;
    for i in 0..requests {
        let v = seed.wrapping_add(i as u64);
        let query = match v % 6 {
            0 => QuerySpec::Flight(QueryId::Q11),
            1 => QuerySpec::PointFilter {
                column: LoColumn::Discount,
                value: (v % 11) as i32,
            },
            2 => QuerySpec::Scan {
                column: LoColumn::Revenue,
            },
            3 => QuerySpec::Flight(QueryId::Q12),
            4 => QuerySpec::PointFilter {
                column: LoColumn::Quantity,
                value: 1 + (v % 50) as i32,
            },
            _ => QuerySpec::Scan {
                column: LoColumn::Quantity,
            },
        };
        let mut req = Request::new(i as u64, query);
        if let Some(p) = kill_shard {
            if matches!(req.query, QuerySpec::Flight(_)) {
                req.plan = Some(FaultPlan {
                    storage: StorageFaults {
                        kill_shard_at_partition: Some(p),
                        ..StorageFaults::default()
                    },
                    ..FaultPlan::seeded(seed)
                });
            }
        }
        match svc.submit(req) {
            Ok(t) => tickets.push(t),
            Err(Rejected::Overloaded { .. } | Rejected::ShuttingDown) => shed += 1,
        }
    }
    for t in tickets {
        // Every ticket resolves: the terminal-state contract says each
        // admitted query gets exactly one response.
        let _ = t.wait();
    }
    let snap = svc.shutdown();
    println!("{}", snap.to_json().render());
    if !snap.is_balanced() {
        return Err(format!(
            "terminal-state books do not balance: {} admitted, {} terminal",
            snap.admitted,
            snap.terminals(),
        )
        .into());
    }
    println!(
        "serve: {} submitted, {} admitted, {} shed, {} completed / {} deadline / {} failed — \
         books balance",
        snap.submitted, snap.admitted, shed, snap.completed, snap.deadline_exceeded, snap.failed,
    );
    Ok(())
}

/// `tlc loadgen [--rows N] [--requests N] [--rate QPS] [--servers K]
/// [--queue N] [--seed S] [--cache-mb N] [--batch-window N]`: ingest a
/// scratch store, drive the open-loop Poisson workload through the
/// service, print the tail latency report and write the
/// `tlc-serving/v1` bench artifact (`BENCH_serving.json`) to
/// `TLC_BENCH_DIR`. `--cache-mb N` sizes the shared
/// compressed-partition cache (default 64; 0 disables it and skips the
/// cache-off control pass); the artifact then carries the cache
/// counters and the cache-on vs cache-off p50 speedup.
/// `--batch-window N` sets the shared-scan wave size (default 4; 0 or
/// 1 disables batching); at ≥ 2 the run adds a batching-off control
/// pass over the same arrivals, so the artifact carries
/// `p50_batch_speedup` and the batching counters.
fn cmd_loadgen(args: &[String]) -> Result<(), CliError> {
    let mut rows = 120_000u64;
    let mut cfg = LoadgenConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--rows" => rows = flag_value(&mut it, "--rows")?,
            "--requests" => cfg.requests = flag_value(&mut it, "--requests")?,
            "--rate" => cfg.arrival_rate_qps = flag_value(&mut it, "--rate")?,
            "--servers" => cfg.servers = flag_value(&mut it, "--servers")?,
            "--queue" => cfg.queue_capacity = flag_value(&mut it, "--queue")?,
            "--seed" => cfg.seed = flag_value(&mut it, "--seed")?,
            "--cache-mb" => cfg.cache_mb = flag_value(&mut it, "--cache-mb")?,
            "--batch-window" => cfg.batch_window = flag_value(&mut it, "--batch-window")?,
            other => return Err(format!("unexpected argument '{other}'").into()),
        }
    }

    let dir = std::env::temp_dir().join(format!("tlc_loadgen_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = StreamSpec::for_rows(1, rows, ((rows / 4).max(4) as usize).div_ceil(6));
    let ran = SsbStore::ingest(&dir, &spec).map(|store| {
        let partitions = store.store().partition_count();
        (partitions, run_loadgen(&Arc::new(store), &cfg))
    });
    // The scratch store goes whether or not the ingest succeeded.
    let _ = std::fs::remove_dir_all(&dir);
    let (partitions, report) = ran.map_err(store_err)?;

    println!(
        "loadgen: {} request(s) at {} qps offered over {partitions} partition(s)",
        report.requests, report.offered_qps,
    );
    println!(
        "  terminals: {} completed / {} deadline / {} failed, {} shed by admission",
        report.completed, report.deadline_exceeded, report.failed, report.rejected_overloaded,
    );
    println!("  saturation: {:.1} qps sustained", report.saturation_qps);
    let l = &report.latency;
    println!(
        "  sojourn latency (simulated): p50 {:.6}s  p90 {:.6}s  p99 {:.6}s  p999 {:.6}s",
        l.p50, l.p90, l.p99, l.p999,
    );
    let s = &report.service;
    println!(
        "  service time only:          p50 {:.6}s  p90 {:.6}s  p99 {:.6}s  p999 {:.6}s",
        s.p50, s.p90, s.p99, s.p999,
    );
    if let Some(c) = &report.cache {
        println!(
            "  cache ({} MiB): {} hit(s) / {} miss(es), {} eviction(s), \
             {} revalidation(s), {} coalesced, {} byte(s) resident",
            cfg.cache_mb,
            c.hits,
            c.misses,
            c.evictions,
            c.revalidations,
            c.coalesced,
            c.bytes_resident,
        );
    }
    if let (Some(nc), Some(speedup)) = (&report.service_nocache, report.p50_service_speedup) {
        println!(
            "  cache-off control: p50 {:.6}s — cache-on p50 speedup {speedup:.2}x",
            nc.p50,
        );
    }
    if let (Some(nb), Some(speedup)) = (&report.latency_nobatch, report.p50_batch_speedup) {
        println!(
            "  batching (window {}): {} batched quer(ies), {} shared decode(s), \
             {} launch(es) saved",
            report.batch_window,
            report.metrics.batched_queries,
            report.metrics.shared_decodes,
            report.metrics.launches_saved,
        );
        println!(
            "  batching-off control: p50 {:.6}s — batching-on p50 speedup {speedup:.2}x",
            nb.p50,
        );
    }
    if !report.metrics.is_balanced() {
        return Err(format!(
            "terminal-state books do not balance under load: {} admitted, {} terminal",
            report.metrics.admitted,
            report.metrics.terminals(),
        )
        .into());
    }
    println!(
        "loadgen: {} submitted, {} admitted, {} terminal — books balance",
        report.metrics.submitted,
        report.metrics.admitted,
        report.metrics.terminals(),
    );
    let path = write_bench_json("BENCH_serving.json", &report.to_json())
        .map_err(|e| format!("BENCH_serving.json: {e}"))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn run() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("stats") if args.len() == 2 => cmd_stats(&args[1]).map_err(CliError::from),
        Some("compress") => cmd_compress(&args[1..]).map_err(CliError::from),
        Some("decompress") if args.len() == 3 => {
            cmd_decompress(&args[1], &args[2]).map_err(CliError::from)
        }
        Some("inspect") if args.len() == 2 => cmd_inspect(&args[1]).map_err(CliError::from),
        Some("verify") if args.len() == 3 && args[1] == "--manifest" => {
            cmd_verify_manifest(&args[2])
        }
        Some("verify") if args.len() == 2 => cmd_verify(&args[1]),
        Some("ingest") => cmd_ingest(&args[1..]),
        Some("compact") => cmd_compact(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("faultsim") => cmd_faultsim(&args[1..]).map_err(CliError::from),
        Some("fuzz") => cmd_fuzz(&args[1..]).map_err(CliError::from),
        Some("profile") => cmd_profile(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]),
        _ => Err(CliError::from(
            "usage: tlc <stats|compress|decompress|inspect|verify|ingest|compact|chaos|\
             faultsim|fuzz|profile|serve|loadgen> ... (see --help in README)"
                .to_string(),
        )),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tlc: {}", e.message);
            ExitCode::from(e.code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlc::ssb::DeadlinePartial;

    #[test]
    fn a_deadline_exits_1_with_its_progress_and_a_store_error_keeps_its_class() {
        let cut = stream_err(StreamError::DeadlineExceeded(Box::new(DeadlinePartial {
            partitions_completed: 2,
            partitions: 6,
            rows_scanned: 7_882,
            device_s: 0.000040,
            deadline_device_s: 0.000049,
            report: Default::default(),
        })));
        assert_eq!(cut.code, 1);
        assert_eq!(
            cut.message,
            "deadline exceeded after 2/6 partition(s) (7882 rows, 0.000040s of 0.000049s device budget)"
        );
        let structural = StoreError::ManifestStructure {
            reason: "zero chunk factor".to_string(),
        };
        assert_eq!(stream_err(StreamError::Store(structural)).code, 3);
    }
}
