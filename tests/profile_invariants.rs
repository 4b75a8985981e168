//! Counter-based observability invariants.
//!
//! The profiler's semantic counters turn informal claims about the
//! decode paths into checked invariants: a [`CounterSink`] attached to
//! the device observes every kernel report, so a test can assert — not
//! just hope — that each encoded tile's payload is fetched from global
//! memory exactly once per decode, for every scheme and for the fused
//! query path alike.

use tlc::crystal::{select, QueryColumn};
use tlc::schemes::column::TILE;
use tlc::schemes::{EncodedColumn, GpuDFor, GpuFor, GpuRFor, Layout, Scheme, DEFAULT_D};
use tlc::sim::{Counter, CounterSink, Device, Phase};
use tlc::ssb::queries::scalar_filters;
use tlc::ssb::reference::fold_scalar;

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
