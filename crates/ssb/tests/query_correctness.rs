//! Every SSB query, under every system, must produce exactly the same
//! groups and sums as the scalar CPU reference executor.

use tlc_core::{EncodedColumn, Layout};
use tlc_gpu_sim::Device;
use tlc_ssb::reference::run_reference;
use tlc_ssb::{run_query, LoColumn, LoColumns, QueryId, SsbData, System};

fn check_system(data: &SsbData, system: System) {
    let dev = Device::v100();
    let n = data.lineorder.len;
    for q in QueryId::ALL {
        let cols = LoColumns::build(&dev, data, system, q.columns());
        let got = run_query(&dev, data, &cols, q);
        let want = run_reference(data, q);
        assert_eq!(got, want, "{} under {:?} at {n} rows", q.name(), system);
    }
}

#[test]
fn none_matches_reference() {
    check_system(&SsbData::generate(0.005), System::None);
}

#[test]
fn gpu_star_matches_reference() {
    check_system(&SsbData::generate(0.005), System::GpuStar);
}

#[test]
fn nvcomp_matches_reference() {
    check_system(&SsbData::generate(0.005), System::NvComp);
}

#[test]
fn gpu_bp_matches_reference() {
    check_system(&SsbData::generate(0.005), System::GpuBp);
}

#[test]
fn planner_matches_reference() {
    check_system(&SsbData::generate(0.005), System::Planner);
}

#[test]
fn omnisci_matches_reference() {
    check_system(&SsbData::generate(0.005), System::OmniSci);
}

/// Lineorder columns `encode_best` lays out lane-transposed.
fn vertical_columns(data: &SsbData) -> usize {
    LoColumn::ALL
        .iter()
        .filter(|&&c| {
            let layout = match EncodedColumn::encode_best(data.lineorder.column(c)) {
                EncodedColumn::For(e) => e.layout,
                EncodedColumn::DFor(e) => e.layout,
                EncodedColumn::RFor(e) => e.layout,
            };
            layout == Layout::Vertical
        })
        .count()
}

/// `data` cut to its first `rows` lineorder rows.
fn truncated(mut data: SsbData, rows: usize) -> SsbData {
    let lo = &mut data.lineorder;
    for col in [
        &mut lo.orderkey,
        &mut lo.orderdate,
        &mut lo.ordtotalprice,
        &mut lo.custkey,
        &mut lo.partkey,
        &mut lo.suppkey,
        &mut lo.linenumber,
        &mut lo.quantity,
        &mut lo.tax,
        &mut lo.discount,
        &mut lo.commitdate,
        &mut lo.extendedprice,
        &mut lo.revenue,
        &mut lo.supplycost,
    ] {
        col.truncate(rows);
    }
    lo.len = rows;
    data
}

/// Every system against the reference on both block layouts. A row
/// count that is not a multiple of 128 pads the final block, which
/// keeps every column horizontal; cut to a multiple of 128, the
/// narrow columns go vertical. The vertical counts are asserted so
/// neither table can quietly stop covering its layout.
#[test]
fn every_system_matches_reference_on_both_layouts() {
    let data = SsbData::generate(0.005);
    assert_eq!(data.lineorder.len, 29_901);
    let rows = data.lineorder.len / 128 * 128;
    let vertical = truncated(data.clone(), rows);
    for (data, want_vertical) in [(data, 0), (vertical, 8)] {
        let n = data.lineorder.len;
        assert_eq!(vertical_columns(&data), want_vertical, "{n} rows");
        for system in System::ALL {
            check_system(&data, system);
        }
    }
}

#[test]
fn inline_star_is_faster_than_decompress_then_query() {
    // Figure 11's mechanism: nvCOMP must decompress every column to
    // global memory before the query kernel can run; GPU-* decodes
    // inline in one pass.
    let data = SsbData::generate(0.02);
    let dev = Device::v100();
    let q = QueryId::Q21;

    let star = LoColumns::build(&dev, &data, System::GpuStar, q.columns());
    dev.reset_timeline();
    let _ = run_query(&dev, &data, &star, q);
    let t_star = dev.elapsed_seconds();

    let nv = LoColumns::build(&dev, &data, System::NvComp, q.columns());
    dev.reset_timeline();
    let _ = run_query(&dev, &data, &nv, q);
    let t_nv = dev.elapsed_seconds();

    assert!(t_nv > t_star * 1.3, "t_nv = {t_nv}, t_star = {t_star}");
}

#[test]
fn omnisci_is_much_slower_than_fused_none() {
    let data = SsbData::generate(0.02);
    let dev = Device::v100();
    let q = QueryId::Q21;

    let none = LoColumns::build(&dev, &data, System::None, q.columns());
    dev.reset_timeline();
    let _ = run_query(&dev, &data, &none, q);
    let t_none = dev.elapsed_seconds();

    let oms = LoColumns::build(&dev, &data, System::OmniSci, q.columns());
    dev.reset_timeline();
    let _ = run_query(&dev, &data, &oms, q);
    let t_oms = dev.elapsed_seconds();

    assert!(t_oms > t_none * 2.0, "t_oms = {t_oms}, t_none = {t_none}");
}
