//! Engine-level integration: the fused tile path and the materializing
//! operator-at-a-time path must agree with a scalar reference on a
//! synthetic star join, across plain and compressed columns.

use tlc_core::EncodedColumn;
use tlc_crystal::exec::{fused_config, materialize};
use tlc_crystal::{DenseTable, GroupBySum, QueryColumn};
use tlc_gpu_sim::{all_lanes, live_lanes, Device};

struct Workload {
    fk: Vec<i32>,
    measure: Vec<i32>,
    rows: Vec<(i32, Option<i32>)>, // dim: key -> payload (group id)
    groups: usize,
}

fn workload() -> Workload {
    let n = 20_000;
    let dim = 500;
    let fk: Vec<i32> = (0..n).map(|i| ((i * 769) % dim) + 1).collect();
    let measure: Vec<i32> = (0..n).map(|i| (i * 31) % 1000).collect();
    let rows: Vec<(i32, Option<i32>)> = (1..=dim)
        .map(|k| (k, (k % 3 != 0).then_some(k % 16)))
        .collect();
    Workload {
        fk,
        measure,
        rows,
        groups: 16,
    }
}

fn reference(w: &Workload) -> Vec<u64> {
    let mut sums = vec![0u64; w.groups];
    for (i, &k) in w.fk.iter().enumerate() {
        let (key, payload) = w.rows[(k - 1) as usize];
        assert_eq!(key, k);
        if let Some(g) = payload {
            sums[g as usize] += w.measure[i] as u64;
        }
    }
    sums
}

fn run_fused(dev: &Device, w: &Workload, fk: &QueryColumn, measure: &QueryColumn) -> Vec<u64> {
    let table = DenseTable::build(dev, "dim", 1, w.rows.len() as i32, &w.rows, 4_000);
    let cfg = fused_config("fused_join", &[fk, measure], 2);
    let mut agg = GroupBySum::new(dev, w.groups);
    let (mut keys, mut vals, mut sel, mut pays) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    dev.launch(cfg, |ctx| {
        let t = ctx.block_id();
        let n = fk.load_tile(ctx, t, &mut keys).expect("decode");
        measure.load_tile(ctx, t, &mut vals).expect("decode");
        all_lanes(n, &mut sel);
        pays.resize(n, 0);
        table.probe(ctx, &keys[..n], &mut sel, &mut pays);
        let pairs: Vec<(usize, u64)> = live_lanes(&sel)
            .map(|i| (pays[i] as usize, vals[i] as u64))
            .collect();
        agg.add_tile(ctx, &pairs);
    });
    agg.values().to_vec()
}

#[test]
fn fused_plain_matches_reference() {
    let w = workload();
    let dev = Device::v100();
    let fk = QueryColumn::plain(&dev, &w.fk);
    let measure = QueryColumn::plain(&dev, &w.measure);
    assert_eq!(run_fused(&dev, &w, &fk, &measure), reference(&w));
}

#[test]
fn fused_compressed_matches_reference() {
    let w = workload();
    let dev = Device::v100();
    let fk = QueryColumn::Encoded(EncodedColumn::encode_best(&w.fk).to_device(&dev));
    let measure = QueryColumn::Encoded(EncodedColumn::encode_best(&w.measure).to_device(&dev));
    assert_eq!(run_fused(&dev, &w, &fk, &measure), reference(&w));
}

#[test]
fn materialized_matches_reference() {
    let w = workload();
    let dev = Device::v100();
    let fk = dev.alloc_from_slice(&w.fk);
    let measure = dev.alloc_from_slice(&w.measure);
    let table = DenseTable::build(&dev, "dim", 1, w.rows.len() as i32, &w.rows, 4_000);
    let (pay, sel) = materialize::probe(&dev, "probe", &fk, &table, None).expect("no fault plan");
    let agg = materialize::aggregate(&dev, "agg", &[&pay, &measure], &sel, w.groups, |row| {
        (row[0] as usize, row[1] as u64)
    })
    .expect("no fault plan");
    assert_eq!(agg.values(), reference(&w).as_slice());
}

#[test]
fn fused_is_cheaper_than_materialized() {
    let w = workload();
    let dev = Device::v100();

    let fk = QueryColumn::plain(&dev, &w.fk);
    let measure = QueryColumn::plain(&dev, &w.measure);
    dev.reset_timeline();
    let _ = run_fused(&dev, &w, &fk, &measure);
    let fused = dev.elapsed_seconds_scaled(1_000.0);

    let fk_buf = dev.alloc_from_slice(&w.fk);
    let m_buf = dev.alloc_from_slice(&w.measure);
    dev.reset_timeline();
    let table = DenseTable::build(&dev, "dim", 1, w.rows.len() as i32, &w.rows, 4_000);
    let (pay, sel) =
        materialize::probe(&dev, "probe", &fk_buf, &table, None).expect("no fault plan");
    materialize::aggregate(&dev, "agg", &[&pay, &m_buf], &sel, w.groups, |row| {
        (row[0] as usize, row[1] as u64)
    })
    .expect("no fault plan");
    let materialized = dev.elapsed_seconds_scaled(1_000.0);

    assert!(
        materialized > fused * 1.5,
        "materialized = {materialized}, fused = {fused}"
    );
}

#[test]
fn empty_and_fully_filtered_tables() {
    let dev = Device::v100();
    // Every dimension row filtered out: all probes miss.
    let rows: Vec<(i32, Option<i32>)> = (1..=100).map(|k| (k, None)).collect();
    let table = DenseTable::build(&dev, "dim", 1, 100, &rows, 400);
    let mut sel = vec![u32::MAX; 2];
    dev.launch(tlc_gpu_sim::KernelConfig::new("probe", 1, 128), |ctx| {
        let keys: Vec<i32> = (1..=64).collect();
        table.probe(ctx, &keys, &mut sel, &mut [0; 64]);
    });
    assert_eq!(sel, [0, 0]);
}

#[test]
fn a_foreign_key_outside_the_table_is_a_miss() {
    // A digest-valid partition whose keys do not match the dimension:
    // the probe must not turn such a key into a slot index.
    let dev = Device::v100();
    let rows: Vec<(i32, Option<i32>)> = (1..=100).map(|k| (k, Some(k * 3))).collect();
    let table = DenseTable::build(&dev, "dim", 1, 100, &rows, 400);
    let (mut sel, mut pays) = (vec![0b1111], vec![0; 4]);
    let report = dev.launch(tlc_gpu_sim::KernelConfig::new("probe", 1, 128), |ctx| {
        table.probe(ctx, &[5, 101, 0, i32::MIN], &mut sel, &mut pays);
    });
    assert_eq!(sel, [0b0001], "hit, miss, miss, miss");
    assert_eq!(pays[0], 15);
    assert_eq!(
        report.traffic.global_read_segments, 1,
        "only the in-range lane issues a load"
    );
}

#[test]
fn tile_loads_handle_ragged_tail() {
    // A column whose length is not a multiple of the tile size.
    let values: Vec<i32> = (0..tlc_crystal::TILE * 3 + 17).map(|i| i as i32).collect();
    let dev = Device::v100();
    for col in [
        QueryColumn::plain(&dev, &values),
        QueryColumn::Encoded(EncodedColumn::encode_best(&values).to_device(&dev)),
    ] {
        let mut seen = Vec::new();
        let mut tile = Vec::new();
        let cfg = fused_config("ragged", &[&col], 1);
        dev.launch(cfg, |ctx| {
            let n = col
                .load_tile(ctx, ctx.block_id(), &mut tile)
                .expect("decode");
            seen.extend_from_slice(&tile[..n]);
        });
        assert_eq!(seen, values);
    }
}
