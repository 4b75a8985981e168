//! Counter-based observability invariants.
//!
//! The profiler's semantic counters turn informal claims about the
//! decode paths into checked invariants: a [`CounterSink`] attached to
//! the device observes every kernel report, so a test can assert — not
//! just hope — that each encoded tile's payload is fetched from global
//! memory exactly once per decode, for every scheme and for the fused
//! query path alike.

use std::sync::{Mutex, MutexGuard};

use tlc::crystal::exec::{fused_config, fused_select_config};
use tlc::crystal::{select, DenseTable, GroupBySum, QueryColumn, ScalarSum};
use tlc::schemes::column::TILE;
use tlc::schemes::{
    DecodeError, EncodedColumn, GpuDFor, GpuFor, GpuRFor, Layout, Scheme, DEFAULT_D,
};
use tlc::sim::{
    live_lanes, set_sim_threads_override, Counter, CounterSink, Device, FaultPlan, KernelConfig,
    KernelReport, LaunchPart, Phase, PhaseSpans,
};
use tlc::ssb::encode::StoredColumn;
use tlc::ssb::queries::{
    scalar_filters, wave_build, wave_scan, FilterMember, FilterScan, FlightScan, WaveAnswer,
};
use tlc::ssb::reference::{fold_scalar, run_reference};
use tlc::ssb::{
    run_wave_streamed, try_run_query, LoColumn, LoColumns, QueryId, SsbData, SsbStore,
    StreamOptions, StreamSpec, System, WaveQuery, WaveSpec,
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

// ---- the launch itself: a wave is one or two launches of parts ---------

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

fn stored(cols: &LoColumns, c: LoColumn) -> &QueryColumn {
    match cols.stored(c) {
        StoredColumn::Star(col) => col,
        _ => unreachable!("GPU-* storage"),
    }
}

/// Fly a wave on `dev` the way the partition executor does: the
/// flight-1 members and the scalars are the members of one filter part
/// over the resident columns, the join flights prepare their columns
/// and build their tables in one launch, and one scan launch runs the
/// filter part and the join flights.
fn fly(
    dev: &Device,
    data: &SsbData,
    cols: &LoColumns,
    scalars: &[(LoColumn, Vec<Option<i32>>)],
    flights: &[QueryId],
) -> Result<Flown, DecodeError> {
    fly_over(dev, data, &|_| cols, scalars, flights)
}

/// [`fly`] over columns that do not live in one [`LoColumns`]:
/// `holding(c)` is the set that holds column `c`.
fn fly_over<'a>(
    dev: &Device,
    data: &SsbData,
    holding: &dyn Fn(LoColumn) -> &'a LoColumns,
    scalars: &[(LoColumn, Vec<Option<i32>>)],
    flights: &[QueryId],
) -> Result<Flown, DecodeError> {
    dev.reset_timeline();
    let (probe_free, joins): (Vec<QueryId>, Vec<QueryId>) =
        flights.iter().partition(|q| q.launches() == 1);
    let mut read: Vec<LoColumn> = Vec::new();
    let mut at = |c: LoColumn| {
        read.iter().position(|&r| r == c).unwrap_or_else(|| {
            read.push(c);
            read.len() - 1
        })
    };
    let mut members = Vec::new();
    for &q in &probe_free {
        let columns = [0, 1, 2, 3].map(|k| at(q.columns()[k]));
        members.push(FilterMember::Flight1 { q, columns });
    }
    for (c, filters) in scalars {
        let column = at(*c);
        let member = |&filter| FilterMember::Scalar { column, filter };
        members.extend(filters.iter().map(member));
    }
    let columns: Vec<&QueryColumn> = read.iter().map(|&c| stored(holding(c), c)).collect();
    let filter = FilterScan {
        columns: &columns,
        members: &members,
    };
    let prepare = |q: &QueryId| -> Vec<QueryColumn> {
        let one = |c: &LoColumn| holding(*c).prepare(dev, &[*c]).remove(0);
        q.columns().iter().map(one).collect()
    };
    let prepared: Vec<Vec<QueryColumn>> = joins.iter().map(prepare).collect();
    let (tables, _) = wave_build(dev, data, &joins)?;
    let flight_scans: Vec<FlightScan<'_>> = joins
        .iter()
        .zip(prepared.iter().zip(&tables))
        .map(|(&q, (cols, tables))| FlightScan { q, cols, tables })
        .collect();
    let (answers, _) = wave_scan(dev, &filter, &flight_scans)?;
    let mut filters = answers.filters.into_iter();
    let mut flown1: Vec<Vec<(u64, u64)>> = Vec::new();
    for _ in &probe_free {
        match filters.next() {
            Some(WaveAnswer::Groups(groups)) => flown1.push(groups),
            other => unreachable!("a flight answers with groups: {other:?}"),
        }
    }
    let scalars = scalars.iter().map(|(_, on_column)| {
        let answers = filters.by_ref().take(on_column.len()).map(|a| match a {
            WaveAnswer::Scalar { count, sum } => (count, sum),
            other => unreachable!("a scalar answers with a count and a sum: {other:?}"),
        });
        answers.collect()
    });
    let scalars = scalars.collect();
    // Back in the order `flights` lists them.
    let (mut flown1, mut joined) = (flown1.into_iter(), answers.flights.into_iter());
    let flights = flights.iter().map(|q| match q.launches() {
        1 => flown1.next().expect("one answer per flight"),
        _ => joined.next().expect("one answer per flight"),
    });
    Ok(Flown {
        scalars,
        flights: flights.collect(),
        events: dev.with_timeline(|tl| tl.events().to_vec()),
    })
}

/// Each phase's traffic and each counter of `spans`, for a readable
/// diff when two span sets are held equal.
fn fields(spans: &PhaseSpans) -> Vec<(&'static str, [u64; 5])> {
    let traffic = |t: &tlc::sim::Traffic| {
        [
            t.global_read_segments,
            t.global_write_segments,
            t.shared_bytes,
            t.int_ops,
            t.spill_bytes,
        ]
    };
    let phases = Phase::ALL
        .iter()
        .map(|&p| (p.name(), traffic(spans.phase(p))));
    let counters = Counter::ALL
        .iter()
        .map(|&c| (c.name(), [spans.counter(c), 0, 0, 0, 0]));
    phases.chain(counters).collect()
}

#[test]
fn the_filter_part_reads_each_column_tile_once_for_all_its_members() {
    let _guard = lock();
    let data = SsbData::generate(0.01);
    let tiles = data.lineorder.len.div_ceil(TILE) as u64;
    // Two flight 1s, a join flight, and scalars on discount twice,
    // quantity, tax, revenue and extendedprice. Member by member that
    // is 4 + 4 + 6 column decodes a tile for the probe-free ones; their
    // union is orderdate, quantity, discount, extendedprice, revenue,
    // tax.
    let scalars = [
        (LoColumn::Discount, vec![Some(3), Some(5)]),
        (LoColumn::Quantity, vec![Some(7)]),
        (LoColumn::Tax, vec![Some(2)]),
        (LoColumn::Revenue, vec![None]),
        (LoColumn::ExtendedPrice, vec![None]),
    ];
    let flights = [QueryId::Q11, QueryId::Q12, QueryId::Q21];
    let mut across_threads = Vec::new();
    for threads in [1, 4] {
        set_sim_threads_override(Some(threads));
        let dev = Device::v100();
        let cols = resident(&dev, &data);
        let flown = fly(&dev, &data, &cols, &scalars, &flights).expect("clean columns");
        let wave = &flown.events;
        // The tables of the one join flight, then every scan: flight 1
        // builds nothing, and the probe-free members are one part.
        assert_eq!(wave.len(), 2, "{threads} thread(s)");
        let (build, scan) = (&wave[0], &wave[1]);
        let names = |r: &KernelReport| r.parts.iter().map(|p| p.name.clone()).collect::<Vec<_>>();
        assert_eq!(build.name, "wave_build");
        assert_eq!(names(build), ["build_date", "build_supplier", "build_part"]);
        assert_eq!(scan.name, "wave_scan");
        assert_eq!(names(scan), ["filter", "ssb_join_fused"]);
        let filter = &scan.parts[0].spans;
        // Once per (wave, column, tile), decoded inline, nothing
        // written back, and no byte of a dimension: the date join is a
        // range test in registers.
        assert_eq!(filter.counter(Counter::EncodedTileReads), tiles * 6);
        assert_eq!(filter.counter(Counter::TilesDecoded), tiles * 6);
        assert_eq!(filter.phase(Phase::Writeback).global_bytes(), 0);
        assert_eq!(filter.phase(Phase::Predicate).global_bytes(), 0);
        assert_eq!(filter.total().spill_bytes, 0);

        // Every answer is its member's alone, the CPU fold's and the
        // reference executor's.
        for (i, (c, filters)) in scalars.iter().enumerate() {
            let one = [(*c, filters.clone())];
            let alone = fly(&dev, &data, &cols, &one, &[]).expect("clean");
            assert_eq!(alone.scalars[0], flown.scalars[i], "{c:?}");
            let decoded = data.lineorder.column(*c);
            let want: Vec<(u64, i64)> = filters.iter().map(|f| fold_scalar(decoded, *f)).collect();
            assert_eq!(alone.scalars[0], want, "{c:?}");
            // Alone it is one launch of a one-part filter.
            assert_eq!(alone.events.len(), 1, "{c:?}");
            assert_eq!(alone.events[0].name, "filter");
        }
        for (i, q) in flights.iter().enumerate() {
            let alone = fly(&dev, &data, &cols, &[], &[*q]).expect("clean");
            assert_eq!(alone.flights[0], flown.flights[i], "{}", q.name());
            assert_eq!(alone.flights[0], run_reference(&data, *q), "{}", q.name());
            assert_eq!(alone.events.len() as u64, q.launches(), "{}", q.name());
            let reads = alone.events.last().expect("a scan");
            assert_eq!(
                reads.spans.counter(Counter::EncodedTileReads),
                tiles * q.columns().len() as u64
            );
        }

        // The part's reads follow the members' union, not their number
        // or their order: the same wave listed backwards, and with a
        // second scan of every scalar column.
        let mut backwards: Scalars = scalars.iter().rev().cloned().collect();
        let reversed = [QueryId::Q21, QueryId::Q12, QueryId::Q11];
        for scalars in [backwards.clone(), {
            backwards.iter_mut().for_each(|(_, f)| f.push(None));
            backwards
        }] {
            let again = fly(&dev, &data, &cols, &scalars, &reversed).expect("clean");
            let filter = &again.events[1].parts[0].spans;
            assert_eq!(filter.counter(Counter::EncodedTileReads), tiles * 6);
            assert_eq!(filter.phase(Phase::Writeback).global_bytes(), 0);
        }
        across_threads.push(flown.events);
    }
    set_sim_threads_override(None);
    assert_eq!(across_threads[0], across_threads[1]);
}

/// The kernel `scalar_filters` launched before the filter part, from
/// the public pieces: one block a tile loads the tile and counts and
/// sums the values equal to `filter` (or all of them).
fn scalar_kernel_of_old(dev: &Device, col: &QueryColumn, filter: Option<i32>) -> KernelReport {
    let mut acc = GroupBySum::new(dev, 2);
    let cfg = fused_select_config("scalar_filters", &[col]);
    let report = dev.try_launch_par(
        cfg,
        Vec::new,
        |vals: &mut Vec<i32>, ctx| {
            let n = col
                .load_tile(ctx, ctx.block_id(), vals)
                .expect("clean column");
            ctx.set_phase(Phase::Predicate);
            ctx.add_int_ops(n as u64 * 2);
            ctx.set_phase(Phase::Aggregate);
            ctx.add_int_ops(n as u64 * 2);
            let (count, sum) = fold_scalar(&vals[..n], filter);
            vec![(0, count), (1, sum as u64)]
        },
        |ctx, _, partials: Vec<(usize, u64)>| acc.add_tile(ctx, &partials),
    );
    report.expect("no faults armed")
}

/// The kernel flight 1 launched before the filter part (`ssb_q1_fused`)
/// from the public pieces, over `cols` in [`QueryId::columns`] order
/// and a date table built beforehand: quantity → discount → orderdate
/// chained through the fused loads, the date probe, then the price
/// against what the probe left. Returns the sum and the launch.
fn flight1_kernel_of_old(
    dev: &Device,
    cols: &[QueryColumn],
    date: &DenseTable,
    qty: (i32, i32),
    disc: (i32, i32),
) -> (u64, KernelReport) {
    #[derive(Default)]
    struct Scratch {
        vals: [Vec<i32>; 4],
        pays: Vec<i32>,
        sel: Vec<u32>,
        next: Vec<u32>,
    }
    let within = |(lo, hi): (i32, i32)| move |v: i32| lo <= v && v <= hi;
    let [od, qt, dc, ep] = [0, 1, 2, 3];
    let refs: Vec<&QueryColumn> = cols.iter().collect();
    let mut sum = ScalarSum::new(dev);
    let report = dev.try_launch_par(
        fused_config("ssb_q1_fused", &refs, 2),
        Scratch::default,
        |w: &mut Scratch, ctx| {
            let t = ctx.block_id();
            let load =
                |w: &mut Scratch, ctx: &mut _, i: usize, pred: &dyn Fn(i32) -> bool, chain| {
                    let sel_in = if chain { Some(w.sel.as_slice()) } else { None };
                    let n =
                        cols[i].load_tile_select(ctx, t, pred, sel_in, &mut w.next, &mut w.vals[i]);
                    std::mem::swap(&mut w.sel, &mut w.next);
                    n.expect("clean column")
                };
            let n = load(w, ctx, qt, &within(qty), false);
            load(w, ctx, dc, &within(disc), true);
            load(w, ctx, od, &|_| true, true);
            w.pays.resize(n, 0);
            date.probe(ctx, &w.vals[od][..n], &mut w.sel, &mut w.pays);
            load(w, ctx, ep, &|_| true, true);
            ctx.set_phase(Phase::Aggregate);
            let lanes = live_lanes(&w.sel);
            let local: u64 = lanes
                .map(|i| w.vals[ep][i] as u64 * w.vals[dc][i] as u64)
                .sum();
            ctx.add_int_ops(n as u64 * 2);
            local
        },
        |ctx, _, local| sum.add_tile(ctx, std::iter::once(local)),
    );
    (sum.value(), report.expect("no faults armed"))
}

#[test]
fn a_one_member_filter_part_is_the_kernel_it_replaces() {
    // A scan, a filter that matches and one that matches nothing, one
    // launch each; 40 000 values leave a short last tile.
    let values = sample(40_000);
    assert_ne!(values.len() % TILE, 0);
    for layout in [Layout::Horizontal, Layout::Vertical] {
        for encoded in [
            EncodedColumn::For(GpuFor::encode_with_layout(&values, layout)),
            EncodedColumn::DFor(GpuDFor::encode_with_d_layout(&values, DEFAULT_D, layout)),
            EncodedColumn::RFor(GpuRFor::encode_with_layout(&values, layout)),
        ] {
            let dev = Device::v100();
            let col = QueryColumn::Encoded(encoded.to_device(&dev));
            for filter in [None, Some(values[0]), Some(-1)] {
                let label = format!("{} {layout:?} {filter:?}", encoded.scheme().name());
                let old = scalar_kernel_of_old(&dev, &col, filter);
                dev.reset_timeline();
                scalar_filters(&dev, &col, &[filter]).expect("column verifies");
                let new = dev.with_timeline(|tl| tl.events()[0].clone());
                // The same launch: grid, residency, seconds, traffic,
                // every counter and every phase.
                assert_eq!(new.seconds.to_bits(), old.seconds.to_bits(), "{label}");
                assert_eq!(
                    (new.grid_blocks, new.occupancy, new.bound_by),
                    (old.grid_blocks, old.occupancy, old.bound_by),
                    "{label}"
                );
                let (mut new, mut old) = (fields(&new.spans), fields(&old.spans));
                if encoded.scheme() == Scheme::GpuFor {
                    // GPU-FOR's fused select is charged miniblock by
                    // miniblock where its plain load is charged block
                    // by block: 8 shared bytes and 32 operations of
                    // offset bookkeeping a block fewer in `Unpack`, and
                    // the predicate over the whole last block, not its
                    // logical length. Global traffic, counters and the
                    // other phases are the old kernel's.
                    for spans in [&mut new, &mut old] {
                        spans.retain(|(name, _)| !["unpack", "predicate"].contains(name));
                    }
                }
                assert_eq!(new, old, "{label}");
            }
        }
    }

    // Flight 1: the old kernel minus exactly the gathers of its date
    // probe, and no build launch before it.
    let data = SsbData::generate(0.01);
    let dev = Device::v100();
    for (q, in_range, qty, disc) in [
        (
            QueryId::Q11,
            (19_930_101, 19_931_231),
            (i32::MIN, 24),
            (1, 3),
        ),
        (QueryId::Q12, (19_940_101, 19_940_131), (26, 35), (4, 6)),
        (QueryId::Q13, (19_940_205, 19_940_211), (26, 35), (5, 7)),
    ] {
        let cols = LoColumns::build(&dev, &data, System::GpuStar, q.columns());
        let keys = &data.date.datekey;
        let rows: Vec<(i32, Option<i32>)> = keys
            .iter()
            .map(|&k| (k, (in_range.0 <= k && k <= in_range.1).then_some(0)))
            .collect();
        let (first, last) = (keys[0], keys[keys.len() - 1]);
        let date = DenseTable::build(&dev, "date", first, last, &rows, data.date_dim_bytes());
        let prepared = cols.prepare(&dev, q.columns());
        let (sum, old) = flight1_kernel_of_old(&dev, &prepared, &date, qty, disc);
        dev.reset_timeline();
        let groups = try_run_query(&dev, &data, &cols, q).expect("clean columns");
        assert_eq!(groups, run_reference(&data, q), "{}", q.name());
        assert_eq!(groups, [(0, sum)], "{}", q.name());
        let events = dev.with_timeline(|tl| tl.events().to_vec());
        assert_eq!(events.len(), 1, "{}: one launch", q.name());
        let new = &events[0];
        assert_eq!(
            (new.grid_blocks, new.occupancy),
            (old.grid_blocks, old.occupancy)
        );
        let gathers = old.spans.phase(Phase::Predicate).global_read_segments;
        assert!(gathers > 0, "{}", q.name());
        let mut want = fields(&old.spans);
        for (name, traffic) in &mut want {
            if *name == "predicate" {
                traffic[0] = 0;
            }
        }
        assert_eq!(fields(&new.spans), want, "{}", q.name());
        assert!(new.seconds < old.seconds, "{}", q.name());
    }
}

#[test]
fn a_failing_part_fails_the_launch_with_its_typed_error() {
    let _guard = lock();
    let data = SsbData::generate(0.01);
    for threads in [1, 4] {
        set_sim_threads_override(Some(threads));
        // The encoded words of `lo_tax` take bit flips as they are
        // uploaded; every other column, the dimension data and the
        // accumulators stay clean.
        let dev = Device::v100();
        let cols = resident(&dev, &data);
        dev.inject_faults(FaultPlan {
            bitflip_rate: 1e-3,
            ..FaultPlan::seeded(5)
        });
        let rotten = LoColumns::build(&dev, &data, System::GpuStar, &[LoColumn::Tax]);
        dev.clear_faults();
        let holding = |c: LoColumn| if c == LoColumn::Tax { &rotten } else { &cols };
        let tax = [(LoColumn::Tax, vec![None])];
        let alone = fly_over(&dev, &data, &holding, &tax, &[]).map(|_| ());
        let alone = alone.expect_err("a flipped word");
        assert!(matches!(alone, DecodeError::Corrupt { .. }), "{alone:?}");
        // In a wave the launch fails with the error of the column that
        // raised it, whoever else is in the part or beside it; the
        // members that do not read the column are clean without it.
        let flights = [QueryId::Q11, QueryId::Q21];
        let wave = fly_over(&dev, &data, &holding, &tax, &flights).map(|_| ());
        assert_eq!(wave.expect_err("the scan of lo_tax fails"), alone);
        fly_over(&dev, &data, &holding, &[], &flights).expect("nobody reads lo_tax");
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
        WaveSpec::Flight(QueryId::Q12),
    ];
    // The same members, listed back to front and rotated.
    let reversed: Vec<usize> = (0..wave.len()).rev().collect();
    let rotated: Vec<usize> = (0..wave.len()).map(|i| (i + 2) % wave.len()).collect();
    let opts = StreamOptions::default();
    let mut first: Option<Vec<(u64, u64)>> = None;
    for threads in [1, 4] {
        set_sim_threads_override(Some(threads));
        let run = run_wave_streamed(&store, &members(&wave), &opts).expect("wave");
        // Alone the join flights launch twice a partition, the flight
        // 1s and the scalars once: 9 launches where the wave makes 2.
        // The filter part decodes orderdate, quantity, discount and
        // extendedprice once for both flight 1s (discount for the two
        // scalars on it too).
        assert_eq!(run.launches_saved, (2 * 2 + 2 + 3 - 2) * n);
        assert_eq!(run.shared_decodes, 4 * n);
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
        // A wave without a join flight launches once; a member alone
        // saves nothing, and pays more than it does in the wave.
        let probe_free = [1, 2, 3, 4, 6].map(|i| wave[i].clone());
        let scans = run_wave_streamed(&store, &members(&probe_free), &opts).expect("one launch");
        assert_eq!(scans.launches_saved, (5 - 1) * n);
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
/// benchmark's store (seed 1). Device seconds of one partition's one
/// launch, how much of them is launch overhead, and how many column
/// decodes a tile the filter part makes against the members' own.
/// Print it with
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
    let tiles = data.lineorder.len.div_ceil(TILE) as u64;
    println!(
        "| members | launches | device µs | per member µs | of it launch overhead \
         | global MB | column decodes a tile | member by member |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    let mut per_member = Vec::new();
    for (size, scalars, flights) in &waves {
        let flown = fly(&dev, &data, &cols, scalars, flights).expect("clean columns");
        let events = flown.events;
        // No member joins, so the wave is one launch of one part.
        assert_eq!(events.len(), 1);
        let device_s = events[0].seconds;
        let decodes = events[0].spans.counter(Counter::EncodedTileReads) / tiles;
        let own: usize = scalars
            .iter()
            .map(|(_, filters)| filters.len())
            .sum::<usize>()
            + flights.iter().map(|q| q.columns().len()).sum::<usize>();
        println!(
            "| {size} | 1 | {:.1} | {:.1} | {:.1} µs, {:.0} % | {:.2} | {decodes} | {own} |",
            device_s * 1e6,
            device_s * 1e6 / *size as f64,
            launch_s * 1e6,
            100.0 * launch_s / device_s,
            events[0].traffic.global_bytes() as f64 / 1e6,
        );
        assert!(decodes as usize <= own);
        per_member.push(device_s / *size as f64);
    }
    // The launch is the fixed cost and a shared column is read once: a
    // member of a larger wave pays less of both.
    assert!(per_member.windows(2).all(|w| w[1] < w[0]), "{per_member:?}");
}

/// The table of DESIGN.md §3: one filter part, q1.1 and point filters
/// on five more columns in turn, grown from 1 member to 32. From six
/// members on the reads do not change and the registers do: a member
/// adds its ballot word and its accumulators, the part spills past 64
/// registers, and that is where a merged part stops paying. Print it
/// with
/// `cargo test --release --test profile_invariants filter_part_sweep -- --nocapture`.
#[test]
fn filter_part_sweep_members_per_part() {
    let spec = StreamSpec {
        chunks: 1,
        ..StreamSpec::for_rows(1, 2_000_000, 62_500)
    };
    let mut data = spec.dims();
    data.lineorder = spec.chunk(0);
    let dev = Device::v100();
    let scanned = [
        LoColumn::Quantity,
        LoColumn::Discount,
        LoColumn::ExtendedPrice,
        LoColumn::Revenue,
        LoColumn::Tax,
    ];
    let touched: Vec<LoColumn> = scanned.into_iter().chain([LoColumn::OrderDate]).collect();
    let cols = LoColumns::build(&dev, &data, System::GpuStar, &touched);
    println!(
        "| members | registers | resident blocks | occupancy | spill MB | global MB \
         | device µs | per member µs |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    let params = dev.params().clone();
    let mut rows = Vec::new();
    for size in [1usize, 2, 4, 6, 8, 12, 16, 24, 32] {
        // q1.1 and a scalar member on each column in turn: from six
        // members on, every one of the six columns is read.
        let mut scalars: Scalars = scanned.iter().map(|c| (*c, Vec::new())).collect();
        for k in 0..size - 1 {
            scalars[k % scanned.len()].1.push(Some(k as i32));
        }
        scalars.retain(|(_, filters)| !filters.is_empty());
        let flown = fly(&dev, &data, &cols, &scalars, &[QueryId::Q11]).expect("clean columns");
        let event = &flown.events[0];
        // The rule of `filter_config`: q1.1's 44, then a ballot word
        // and two accumulators a scalar.
        let registers = 44 + 3 * (size - 1);
        let resident = event.occupancy * params.max_threads_per_sm as f64 / 128.0;
        let spill = event.traffic.spill_bytes;
        println!(
            "| {size} | {registers} | {resident:.0} | {:.2} | {:.2} | {:.2} | {:.1} | {:.2} |",
            event.occupancy,
            spill as f64 / 1e6,
            event.traffic.global_bytes() as f64 / 1e6,
            event.seconds * 1e6,
            event.seconds * 1e6 / size as f64,
        );
        // Spilled registers live in local memory, so residency stops
        // at the threshold's and stays above what saturates bandwidth.
        assert!(event.occupancy >= params.bw_saturation_occupancy);
        assert_eq!(spill > 0, registers > params.spill_threshold_regs, "{size}");
        rows.push((size, event.seconds, spill));
    }
    // Until it spills, a member more costs next to nothing and every
    // member pays less. Past the spill every member costs every thread
    // a register's round trip through local memory: at 12 members the
    // part costs more than the same launch would with two parts of 6
    // (each decoding the six columns for itself), where at 8 it still
    // costs less than two parts of 4.
    let seconds = |size| rows.iter().find(|r| r.0 == size).expect("a swept size").1;
    let per_member = |size| seconds(size) / size as f64;
    assert!(per_member(8) < per_member(6) && per_member(6) < per_member(4));
    assert!(per_member(12) > per_member(8));
    let two_parts_of = |size| 2.0 * seconds(size) - params.kernel_launch_s;
    assert!(seconds(8) < two_parts_of(4));
    for size in [6, 8, 12, 16] {
        assert!(seconds(2 * size) > two_parts_of(size), "{size}");
    }
}
