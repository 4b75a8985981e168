//! Counter-based observability invariants.
//!
//! The profiler's semantic counters turn informal claims about the
//! decode paths into checked invariants: a [`CounterSink`] attached to
//! the device observes every kernel report, so a test can assert — not
//! just hope — that each encoded tile's payload is fetched from global
//! memory exactly once per decode, for every scheme and for the fused
//! query path alike.

use std::sync::{Mutex, MutexGuard};

use tlc::crystal::{select, QueryColumn};
use tlc::schemes::column::TILE;
use tlc::schemes::{
    DecodeError, EncodedColumn, GpuDFor, GpuFor, GpuRFor, Layout, Scheme, DEFAULT_D,
};
use tlc::sim::{
    set_sim_threads_override, Counter, CounterSink, Device, FaultPlan, KernelConfig, KernelReport,
    LaunchPart, Phase, PhaseSpans,
};
use tlc::ssb::encode::StoredColumn;
use tlc::ssb::queries::{scalar_filters, wave_build, wave_scan, FlightScan, ScalarScan};
use tlc::ssb::reference::{fold_scalar, run_reference};
use tlc::ssb::{
    run_wave_streamed, LoColumn, LoColumns, QueryId, SsbData, SsbStore, StreamOptions, StreamSpec,
    System, WaveQuery, WaveSpec,
};

/// Data that exercises all three schemes: runs (RFOR), a rising trend
/// (DFOR), and a bounded range (FOR).
fn sample(n: usize) -> Vec<i32> {
    (0..n).map(|i| (i as i32 / 7) % 300 + 50).collect()
}

#[test]
fn each_encoded_tile_is_read_from_global_exactly_once_per_decode() {
    let values = sample(50_000);
    let tiles = values.len().div_ceil(TILE) as u64;
    for scheme in [Scheme::GpuFor, Scheme::GpuDFor, Scheme::GpuRFor] {
        let dev = Device::v100();
        let dcol = EncodedColumn::encode_as(&values, scheme).to_device(&dev);
        let sink = CounterSink::new();
        dev.set_profile_sink(Box::new(sink.clone()));
        let decoded = dcol.decompress(&dev).expect("column verifies");
        assert_eq!(decoded.as_slice_unaccounted().len(), values.len());
        assert_eq!(
            sink.counter(Counter::EncodedTileReads),
            tiles,
            "{}: encoded tile payloads must be staged exactly once each",
            scheme.name()
        );
        assert_eq!(
            sink.counter(Counter::TilesDecoded),
            tiles,
            "{}: every tile decodes exactly once",
            scheme.name()
        );
        assert_eq!(
            sink.counter(Counter::ValuesProduced),
            values.len() as u64,
            "{}: every logical value is produced exactly once",
            scheme.name()
        );
        assert!(
            sink.counter(Counter::MiniblocksUnpacked) > 0,
            "{}: unpack work must be visible to the profiler",
            scheme.name()
        );
        if scheme == Scheme::GpuRFor {
            assert!(sink.counter(Counter::RunsExpanded) > 0);
        } else {
            assert_eq!(sink.counter(Counter::RunsExpanded), 0);
        }
    }
}

#[test]
fn fused_query_path_also_reads_each_tile_once() {
    let values = sample(40_000);
    let tiles = values.len().div_ceil(TILE) as u64;
    let dev = Device::v100();
    let col = QueryColumn::Encoded(EncodedColumn::encode_best(&values).to_device(&dev));
    let sink = CounterSink::new();
    dev.set_profile_sink(Box::new(sink.clone()));
    let (_, count) = select(&dev, &col, |v| v < 100).expect("column verifies");
    assert!(count > 0);
    assert_eq!(
        sink.counter(Counter::EncodedTileReads),
        tiles,
        "fused select must not re-fetch compressed payloads"
    );
    assert_eq!(sink.counter(Counter::ValuesProduced), values.len() as u64);
}

#[test]
fn fused_select_writes_back_only_survivors() {
    // The fused decode→predicate path never stages decompressed tiles
    // back to global memory: with a never-matching predicate the
    // writeback phase issues zero global writes even though every
    // encoded tile was read and fully decoded exactly once.
    let values = sample(40_000);
    let tiles = values.len().div_ceil(TILE) as u64;
    let dev = Device::v100();
    let col = QueryColumn::Encoded(EncodedColumn::encode_best(&values).to_device(&dev));
    let sink = CounterSink::new();
    dev.set_profile_sink(Box::new(sink.clone()));
    let (_, count) = select(&dev, &col, |_| false).expect("column verifies");
    assert_eq!(count, 0);
    assert_eq!(
        sink.counter(Counter::EncodedTileReads),
        tiles,
        "every encoded tile is read exactly once"
    );
    assert_eq!(sink.counter(Counter::ValuesProduced), values.len() as u64);
    assert_eq!(
        sink.phase(Phase::Writeback).global_write_segments,
        0,
        "no survivors must mean zero writeback traffic for decoded values"
    );
    assert_eq!(sink.phase(Phase::Writeback).int_ops, 0);
}

#[test]
fn scalar_kernel_reads_each_tile_once_per_launch_and_writes_nothing_back() {
    // One launch answers a scan, a filter that matches and one that
    // matches nothing; 40 000 values leave a short last tile.
    let values = sample(40_000);
    assert_ne!(values.len() % TILE, 0);
    let tiles = values.len().div_ceil(TILE) as u64;
    let filters = [None, Some(values[0]), Some(-1)];
    for layout in [Layout::Horizontal, Layout::Vertical] {
        for encoded in [
            EncodedColumn::For(GpuFor::encode_with_layout(&values, layout)),
            EncodedColumn::DFor(GpuDFor::encode_with_d_layout(&values, DEFAULT_D, layout)),
            EncodedColumn::RFor(GpuRFor::encode_with_layout(&values, layout)),
        ] {
            let label = format!("{} {layout:?}", encoded.scheme().name());
            let dev = Device::v100();
            let col = QueryColumn::Encoded(encoded.to_device(&dev));
            let sink = CounterSink::new();
            dev.set_profile_sink(Box::new(sink.clone()));
            let got = scalar_filters(&dev, &col, &filters).expect("column verifies");
            let decoded = encoded.decode_cpu();
            let want: Vec<(u64, i64)> = filters.iter().map(|f| fold_scalar(&decoded, *f)).collect();
            assert_eq!(got, want, "{label}");
            assert!(want[1].0 > 0 && want[2].0 == 0, "{label}");
            assert_eq!(
                sink.counter(Counter::EncodedTileReads),
                tiles,
                "{label}: three filters, one read of each encoded tile"
            );
            assert_eq!(
                sink.counter(Counter::ValuesProduced),
                values.len() as u64,
                "{label}"
            );
            assert_eq!(
                sink.phase(Phase::Writeback).global_write_segments,
                0,
                "{label}: no decoded value goes back to global memory"
            );
        }
    }
}

#[test]
fn decode_traffic_lands_in_named_phases() {
    let values = sample(30_000);
    let dev = Device::v100();
    let dcol = EncodedColumn::encode_as(&values, Scheme::GpuDFor).to_device(&dev);
    let sink = CounterSink::new();
    dev.set_profile_sink(Box::new(sink.clone()));
    dcol.decompress(&dev).expect("column verifies");
    // The staging phase is the only one allowed to fetch compressed
    // payload bytes; unpack and expand run entirely out of shared
    // memory; decoded output goes back in the writeback phase.
    assert!(sink.phase(Phase::SharedStage).global_read_segments > 0);
    assert!(sink.phase(Phase::Unpack).shared_bytes > 0);
    assert_eq!(sink.phase(Phase::Unpack).global_read_segments, 0);
    assert!(sink.phase(Phase::Expand).shared_bytes > 0);
    assert_eq!(sink.phase(Phase::Expand).global_read_segments, 0);
    assert!(sink.phase(Phase::Writeback).global_write_segments > 0);
    // Instrumentation is exhaustive on this path: nothing falls through
    // to the catch-all phase.
    assert_eq!(sink.phase(Phase::Other).global_read_segments, 0);
    assert_eq!(sink.phase(Phase::Other).int_ops, 0);
}

// ---- the launch itself: a wave is two launches of parts ----------------

/// The sim-thread override is process-global; the tests that set it
/// take turns.
static OVERRIDE: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    OVERRIDE.lock().unwrap_or_else(|e| e.into_inner())
}

/// The scalar members of a wave: per column, its filters.
type Scalars = Vec<(LoColumn, Vec<Option<i32>>)>;

/// What a wave answered and launched: per scalar column its `(count,
/// sum)` per filter, per flight its groups, and the timeline's events.
struct Flown {
    scalars: Vec<Vec<(u64, i64)>>,
    flights: Vec<Vec<(u64, u64)>>,
    events: Vec<KernelReport>,
}

/// Every lineorder column a wave could touch, GPU-* encoded on `dev`.
fn resident(dev: &Device, data: &SsbData) -> LoColumns {
    LoColumns::build(dev, data, System::GpuStar, &LoColumn::ALL)
}

/// Fly a wave on `dev` the way the partition executor does: prepare
/// the flights' columns, one build launch, one scan launch.
fn fly(
    dev: &Device,
    data: &SsbData,
    cols: &LoColumns,
    scalars: &[(LoColumn, Vec<Option<i32>>)],
    flights: &[QueryId],
) -> Result<Flown, DecodeError> {
    dev.reset_timeline();
    let prepared: Vec<Vec<QueryColumn>> = flights
        .iter()
        .map(|q| cols.prepare(dev, q.columns()))
        .collect();
    let (tables, _) = wave_build(dev, data, flights)?;
    let scalar_scans: Vec<ScalarScan<'_>> = scalars
        .iter()
        .map(|(c, filters)| {
            let StoredColumn::Star(col) = cols.stored(*c) else {
                unreachable!("GPU-* storage")
            };
            ScalarScan { col, filters }
        })
        .collect();
    let flight_scans: Vec<FlightScan<'_>> = flights
        .iter()
        .zip(prepared.iter().zip(&tables))
        .map(|(&q, (cols, tables))| FlightScan { q, cols, tables })
        .collect();
    let (answers, _) = wave_scan(dev, &scalar_scans, &flight_scans)?;
    Ok(Flown {
        scalars: answers.scalars,
        flights: answers.flights,
        events: dev.with_timeline(|tl| tl.events().to_vec()),
    })
}

fn summed(reports: &[KernelReport]) -> PhaseSpans {
    reports
        .iter()
        .fold(PhaseSpans::default(), |acc, r| acc.merge(&r.spans))
}

#[test]
fn a_wave_is_two_launches_whose_parts_are_their_solo_runs() {
    let _guard = lock();
    let data = SsbData::generate(0.01);
    let scalars = [
        (LoColumn::Discount, vec![None, Some(4)]),
        (LoColumn::Tax, vec![Some(2)]),
    ];
    let flights = [QueryId::Q11, QueryId::Q21, QueryId::Q43];
    let mut across_threads = Vec::new();
    for threads in [1, 4] {
        set_sim_threads_override(Some(threads));
        let dev = Device::v100();
        let cols = resident(&dev, &data);
        let flown = fly(&dev, &data, &cols, &scalars, &flights).expect("clean columns");
        let wave = flown.events;
        // Two launches, whatever the wave: the tables, then the scans.
        assert_eq!(wave.len(), 2, "{threads} thread(s)");
        let (build, scan) = (&wave[0], &wave[1]);
        assert_eq!((build.name.as_str(), build.parts.len()), ("wave_build", 8));
        assert_eq!((scan.name.as_str(), scan.parts.len()), ("wave_scan", 5));

        // Every member alone: a flight is a build and a scan, a scalar
        // column one scan, and a launch of one part has the part's name.
        let mut solo_builds = Vec::new();
        let mut solo_scans = Vec::new();
        for (i, (c, filters)) in scalars.iter().enumerate() {
            let one = [(*c, filters.clone())];
            let alone = fly(&dev, &data, &cols, &one, &[]).expect("clean");
            assert_eq!(alone.scalars[0], flown.scalars[i], "{c:?}");
            let decoded = data.lineorder.column(*c);
            let want: Vec<(u64, i64)> = filters.iter().map(|f| fold_scalar(decoded, *f)).collect();
            assert_eq!(alone.scalars[0], want, "{c:?}");
            assert_eq!(alone.events.len(), 1, "{c:?}");
            assert_eq!(alone.events[0].name, "scalar_filters");
            solo_scans.extend(alone.events);
        }
        for (i, q) in flights.iter().enumerate() {
            let alone = fly(&dev, &data, &cols, &[], &[*q]).expect("clean");
            assert_eq!(alone.flights[0], flown.flights[i], "{}", q.name());
            assert_eq!(alone.flights[0], run_reference(&data, *q), "{}", q.name());
            assert_eq!(alone.events.len(), 2, "{}", q.name());
            let fused = if i == 0 {
                "ssb_q1_fused"
            } else {
                "ssb_join_fused"
            };
            assert_eq!(alone.events[1].name, fused);
            solo_builds.push(alone.events[0].clone());
            solo_scans.push(alone.events[1].clone());
        }

        // A launch's traffic, phase by phase, and its counters are the
        // sums of its parts launched alone; each part is kept as it was
        // alone, with the seconds it cost alone.
        assert_eq!(scan.spans, summed(&solo_scans));
        assert_eq!(build.spans, summed(&solo_builds));
        for (part, alone) in scan.parts.iter().zip(&solo_scans) {
            assert_eq!(part.name, alone.name);
            assert_eq!(part.spans, alone.spans, "{}", part.name);
            assert_eq!(part.solo_seconds.to_bits(), alone.seconds.to_bits());
        }
        let build_parts = solo_builds.iter().flat_map(|b| &b.parts);
        for (part, alone) in build.parts.iter().zip(build_parts) {
            assert_eq!(part, alone, "{}", part.name);
        }
        // Inline decode, once per (part, tile), nothing written back.
        let reads = |r: &KernelReport| r.spans.counter(Counter::EncodedTileReads);
        assert_eq!(reads(scan), solo_scans.iter().map(reads).sum::<u64>());
        assert!(reads(scan) > 0);
        assert_eq!(scan.spans.phase(Phase::Writeback).global_write_segments, 0);
        // q4.3 needs 68 registers and spills; nothing else does, and
        // its spill is its own: the scan of `lo_tax` beside it is
        // charged none.
        let spill = |spans: &PhaseSpans| spans.total().spill_bytes;
        let q43 = scan.parts.last().expect("q4.3 flies last");
        assert!(spill(&q43.spans) > 0);
        assert_eq!(spill(&scan.spans), spill(&q43.spans));
        assert_eq!(spill(&scan.parts[1].spans), 0);
        // One launch overhead per launch, so less than the parts apart;
        // the shares split the launch's seconds and leave nothing over.
        for (launch, apart) in [(build, &solo_builds), (scan, &solo_scans)] {
            let apart: f64 = apart.iter().map(|r| r.seconds).sum();
            assert!(launch.seconds <= apart, "{}: {apart}", launch.name);
            let parts = launch.parts.len();
            assert_eq!(launch.share(0..parts), 1.0);
            let shares: f64 = (0..parts).map(|i| launch.share(i..i + 1)).sum();
            assert!((shares - 1.0).abs() < 1e-12, "{}: {shares}", launch.name);
        }
        across_threads.push(wave);
    }
    set_sim_threads_override(None);
    assert_eq!(across_threads[0], across_threads[1]);
}

#[test]
fn a_failing_part_fails_the_launch_with_its_typed_error() {
    let _guard = lock();
    let data = SsbData::generate(0.01);
    for threads in [1, 4] {
        set_sim_threads_override(Some(threads));
        // Every encoded word stream uploaded under the plan takes bit
        // flips; the dimension data and the accumulators stay clean.
        let dev = Device::v100();
        dev.inject_faults(FaultPlan {
            bitflip_rate: 1e-3,
            ..FaultPlan::seeded(5)
        });
        let cols = resident(&dev, &data);
        dev.clear_faults();
        let tax = [(LoColumn::Tax, vec![None])];
        let alone = fly(&dev, &data, &cols, &tax, &[]).map(|_| ());
        let alone = alone.expect_err("a flipped word");
        assert!(matches!(alone, DecodeError::Corrupt { .. }), "{alone:?}");
        // In a wave, the first failing tile in part and tile order is
        // the launch's error: the tax part comes before the flights.
        let wave = fly(&dev, &data, &cols, &tax, &[QueryId::Q11, QueryId::Q21]).map(|_| ());
        assert_eq!(wave.expect_err("the tax part fails"), alone);
    }
    set_sim_threads_override(None);

    // Fuel is a part's own: a decode with a budget of one unit runs dry
    // beside the same decode unbounded, and raises what it raises alone.
    let values = sample(4 * TILE);
    let dev = Device::v100();
    let col =
        QueryColumn::Encoded(EncodedColumn::encode_as(&values, Scheme::GpuFor).to_device(&dev));
    fn decode<'a>(
        col: &'a QueryColumn,
        name: &str,
        fuel: Option<u64>,
        errors: &'a std::cell::RefCell<Vec<DecodeError>>,
    ) -> LaunchPart<'a> {
        let cfg = KernelConfig::new(name, col.tiles(), 128).smem_per_block(col.tile_smem());
        let cfg = fuel.map_or(cfg.clone(), |units| cfg.fuel_per_block(units));
        LaunchPart::new(
            cfg,
            Vec::new,
            move |buf, ctx| col.load_tile(ctx, ctx.block_id(), buf).map(|_| ()),
            move |_, _, result: Result<(), DecodeError>| errors.borrow_mut().extend(result.err()),
        )
    }
    let (free, starved) = Default::default();
    let parts = vec![
        decode(&col, "free", None, &free),
        decode(&col, "starved", Some(1), &starved),
    ];
    dev.try_launch_parts("decodes", parts)
        .expect("no faults armed");
    assert!(free.borrow().is_empty());
    let starved = starved.into_inner();
    assert_eq!(starved.len(), col.tiles());
    assert!(
        matches!(starved[0], DecodeError::Hostile { .. }),
        "{:?}",
        starved[0]
    );
}

/// A small store, its rows spread over `chunks` partitions.
fn small_store(tag: &str, chunks: usize) -> (SsbStore, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("tlc_profile_inv_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = StreamSpec::for_rows(23, 4_000 * chunks as u64, 1_000);
    let store = SsbStore::ingest(&dir, &spec).expect("ingest");
    assert_eq!(store.store().partition_count(), chunks);
    (store, dir)
}

fn members(specs: &[WaveSpec]) -> Vec<WaveQuery> {
    let member = |spec: &WaveSpec| WaveQuery {
        spec: spec.clone(),
        deadline_device_s: None,
    };
    specs.iter().map(member).collect()
}

#[test]
fn a_partition_of_any_wave_makes_at_most_two_launches_in_any_member_order() {
    let _guard = lock();
    let (store, dir) = small_store("order", 3);
    let n = store.store().partition_count() as u64;
    let scalar = |column, filter| WaveSpec::Scalar { column, filter };
    let wave = [
        WaveSpec::Flight(QueryId::Q21),
        scalar(LoColumn::Discount, Some(4)),
        WaveSpec::Flight(QueryId::Q11),
        scalar(LoColumn::Tax, None),
        scalar(LoColumn::Discount, None),
        WaveSpec::Flight(QueryId::Q43),
    ];
    // The same members, listed back to front and rotated.
    let reversed: Vec<usize> = (0..wave.len()).rev().collect();
    let rotated: Vec<usize> = (0..wave.len()).map(|i| (i + 2) % wave.len()).collect();
    let opts = StreamOptions::default();
    let mut first: Option<Vec<(u64, u64)>> = None;
    for threads in [1, 4] {
        set_sim_threads_override(Some(threads));
        let run = run_wave_streamed(&store, &members(&wave), &opts).expect("wave");
        // Alone the flights launch twice a partition and the scalars
        // once: 9 launches where the wave makes 2.
        assert_eq!(run.launches_saved, (3 * 2 + 3 - 2) * n);
        assert_eq!(run.shared_decodes, n);
        let bits: Vec<(u64, u64)> = run
            .queries
            .iter()
            .map(|m| (m.device_s.to_bits(), m.io_s.to_bits()))
            .collect();
        for order in [&reversed, &rotated] {
            let listed: Vec<WaveSpec> = order.iter().map(|&i| wave[i].clone()).collect();
            let again = run_wave_streamed(&store, &members(&listed), &opts).expect("wave");
            assert_eq!(again.launches_saved, run.launches_saved);
            for (m, &i) in again.queries.iter().zip(order) {
                assert_eq!(
                    m.outcome.as_ref().ok(),
                    run.queries[i].outcome.as_ref().ok()
                );
                assert_eq!(
                    (m.device_s.to_bits(), m.io_s.to_bits()),
                    bits[i],
                    "member {i}"
                );
            }
        }
        // A wave without a flight launches once; a member alone saves
        // nothing, and pays more than it does in the wave.
        let scalars = [wave[1].clone(), wave[3].clone(), wave[4].clone()];
        let scans = run_wave_streamed(&store, &members(&scalars), &opts).expect("scalars");
        assert_eq!(scans.launches_saved, (3 - 1) * n);
        for (i, spec) in wave.iter().enumerate() {
            let alone = run_wave_streamed(&store, &members(std::slice::from_ref(spec)), &opts);
            let alone = alone.expect("alone");
            assert_eq!(alone.launches_saved, 0, "member {i}");
            assert!(
                run.queries[i].device_s < alone.queries[0].device_s,
                "member {i}"
            );
        }
        assert_eq!(
            *first.get_or_insert(bits.clone()),
            bits,
            "1 vs {threads} threads"
        );
    }
    set_sim_threads_override(None);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The table of DESIGN.md §17: the first wave `serve_mixed` offers
/// (`FPSPFPSP`) cut to 1, 2, 4 and 8 members, over partition 0 of the
/// benchmark's store (seed 1). Device seconds of one partition's
/// launches, and how much of them is launch overhead. Print it with
/// `cargo test --release --test profile_invariants wave_table -- --nocapture`.
#[test]
fn wave_table_launch_overhead_share_by_wave_size() {
    let spec = StreamSpec {
        chunks: 1,
        ..StreamSpec::for_rows(1, 2_000_000, 62_500)
    };
    let mut data = spec.dims();
    data.lineorder = spec.chunk(0);
    let dev = Device::v100();
    let touched = [
        LoColumn::OrderDate,
        LoColumn::Quantity,
        LoColumn::Discount,
        LoColumn::ExtendedPrice,
        LoColumn::Revenue,
        LoColumn::Tax,
    ];
    let cols = LoColumns::build(&dev, &data, System::GpuStar, &touched);
    // F P S P F P S P: q1.1, discount = 3, scan revenue, quantity = 7,
    // q1.2, tax = 2, scan extendedprice, discount = 5.
    let waves: [(usize, Scalars, Vec<QueryId>); 4] = [
        (1, vec![], vec![QueryId::Q11]),
        (
            2,
            vec![(LoColumn::Discount, vec![Some(3)])],
            vec![QueryId::Q11],
        ),
        (
            4,
            vec![
                (LoColumn::Quantity, vec![Some(7)]),
                (LoColumn::Discount, vec![Some(3)]),
                (LoColumn::Revenue, vec![None]),
            ],
            vec![QueryId::Q11],
        ),
        (
            8,
            vec![
                (LoColumn::Quantity, vec![Some(7)]),
                (LoColumn::Discount, vec![Some(3), Some(5)]),
                (LoColumn::ExtendedPrice, vec![None]),
                (LoColumn::Revenue, vec![None]),
                (LoColumn::Tax, vec![Some(2)]),
            ],
            vec![QueryId::Q11, QueryId::Q12],
        ),
    ];
    let launch_s = dev.params().kernel_launch_s;
    println!(
        "| members | launches | device µs | per member µs | of it launch overhead \
         | parts launched apart | device µs apart |"
    );
    println!("|---|---|---|---|---|---|---|");
    let mut per_member = Vec::new();
    for (size, scalars, flights) in &waves {
        let flown = fly(&dev, &data, &cols, scalars, flights).expect("clean columns");
        let events = flown.events;
        let device_s: f64 = events.iter().map(|e| e.seconds).sum();
        let overhead_s = events.len() as f64 * launch_s;
        // A part's solo seconds are what its own launch cost before
        // parts shared one.
        let parts = events.iter().flat_map(|e| &e.parts);
        let apart_s: f64 = parts.clone().map(|p| p.solo_seconds).sum();
        println!(
            "| {size} | {} | {:.1} | {:.1} | {:.1} µs, {:.0} % | {} | {:.1} |",
            events.len(),
            device_s * 1e6,
            device_s * 1e6 / *size as f64,
            overhead_s * 1e6,
            100.0 * overhead_s / device_s,
            parts.count(),
            apart_s * 1e6,
        );
        assert_eq!(events.len(), 2);
        assert!(device_s <= apart_s);
        per_member.push(device_s / *size as f64);
    }
    // The launches are the fixed cost: a member of a larger wave pays
    // less of them.
    assert!(per_member.windows(2).all(|w| w[1] < w[0]), "{per_member:?}");
}
