//! Multi-GPU sharding (paper Section 1: modern servers carry many
//! GPUs, and systems shard the working set across them [32, 36]).
//!
//! The fact table is range-partitioned across `K` simulated devices;
//! each device holds its shard's (compressed) columns and runs the
//! query kernel locally, and the per-group partial sums are merged over
//! the interconnect. Query latency is the *slowest shard* plus the
//! merge transfer — compression helps twice, by fitting more shard per
//! device and by shrinking any cross-device spill.

use tlc_gpu_sim::{Device, KernelReport};

use crate::encode::LoColumns;
use crate::gen::{LineOrder, SsbData};
use crate::queries::{run_query, QueryId};
use crate::System;

impl SsbData {
    /// Range-partition the fact table into `shards` pieces; dimensions
    /// are replicated (they are small, as real deployments do).
    pub fn shard(&self, shards: usize) -> Vec<SsbData> {
        assert!(shards >= 1);
        let n = self.lineorder.len;
        let per = n.div_ceil(shards);
        (0..shards)
            .map(|s| {
                let lo = (s * per).min(n);
                let hi = ((s + 1) * per).min(n);
                let slice = |v: &Vec<i32>| v[lo..hi].to_vec();
                let lineorder = LineOrder {
                    len: hi - lo,
                    orderkey: slice(&self.lineorder.orderkey),
                    orderdate: slice(&self.lineorder.orderdate),
                    ordtotalprice: slice(&self.lineorder.ordtotalprice),
                    custkey: slice(&self.lineorder.custkey),
                    partkey: slice(&self.lineorder.partkey),
                    suppkey: slice(&self.lineorder.suppkey),
                    linenumber: slice(&self.lineorder.linenumber),
                    quantity: slice(&self.lineorder.quantity),
                    tax: slice(&self.lineorder.tax),
                    discount: slice(&self.lineorder.discount),
                    commitdate: slice(&self.lineorder.commitdate),
                    extendedprice: slice(&self.lineorder.extendedprice),
                    revenue: slice(&self.lineorder.revenue),
                    supplycost: slice(&self.lineorder.supplycost),
                };
                SsbData {
                    sf: self.sf / shards as f64,
                    lineorder,
                    date: self.date.clone(),
                    customer: self.customer.clone(),
                    supplier: self.supplier.clone(),
                    part: self.part.clone(),
                }
            })
            .collect()
    }
}

/// Result of a sharded query.
#[derive(Debug)]
pub struct ShardedRun {
    /// Merged `(group, sum)` pairs, identical to a single-device run.
    pub result: Vec<(u64, u64)>,
    /// Slowest shard's simulated time.
    pub slowest_shard_s: f64,
    /// Merge transfer time (partial aggregates over the interconnect).
    pub merge_s: f64,
    /// Every kernel report each shard's device emitted, in shard order.
    /// Deterministic for any `TLC_SIM_THREADS`; feed a shard's reports
    /// to `tlc-profile` to break its run down phase by phase.
    pub shard_timelines: Vec<Vec<KernelReport>>,
}

impl ShardedRun {
    /// End-to-end latency.
    pub fn total_s(&self) -> f64 {
        self.slowest_shard_s + self.merge_s
    }
}

/// Map `f` over the indices in `range` on up to `workers` host threads,
/// returning results **in index order**. Each shard or partition owns
/// its simulated device, so the items share no state; callers fold the
/// ordered results serially, which keeps every sharded and streamed
/// report deterministic for any worker count. Also used by
/// [`crate::resilience`] and [`crate::stream`].
pub(crate) fn map_ordered<T: Send>(
    range: std::ops::Range<usize>,
    workers: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let ranges = tlc_gpu_sim::partitions(range.len(), 1, workers);
    let per_range = tlc_gpu_sim::map_ranges(&ranges, |_, r| {
        (range.start + r.start..range.start + r.end)
            .map(&f)
            .collect::<Vec<T>>()
    });
    per_range.into_iter().flatten().collect()
}

/// Run `q` sharded across `shards` simulated devices under `system`.
/// `scale` linearly scales each shard's traffic-proportional time (for
/// reporting a larger SF), exactly like `Device::elapsed_seconds_scaled`.
pub fn run_query_sharded(
    data: &SsbData,
    system: System,
    q: QueryId,
    shards: usize,
    scale: f64,
) -> ShardedRun {
    let parts = data.shard(shards);
    let shard_runs = map_ordered(0..parts.len(), tlc_gpu_sim::sim_threads(), |s| {
        let part = &parts[s];
        let dev = Device::v100();
        let cols = LoColumns::build(&dev, part, system, q.columns());
        dev.reset_timeline();
        let result = run_query(&dev, part, &cols, q);
        let timeline = dev.with_timeline(|tl| tl.events().to_vec());
        (result, dev.elapsed_seconds_scaled(scale), timeline)
    });
    let mut merged: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    let mut slowest = 0.0f64;
    let mut merge_bytes = 0u64;
    let mut shard_timelines = Vec::with_capacity(shards);
    for (result, shard_s, timeline) in shard_runs {
        shard_timelines.push(timeline);
        slowest = slowest.max(shard_s);
        merge_bytes += result.len() as u64 * 16; // (group, sum) pairs
        for (g, v) in result {
            let e = merged.entry(g).or_insert(0);
            *e = e.wrapping_add(v);
        }
    }
    // Merge over the interconnect to one device (tiny next to the scan).
    let merge_dev = Device::v100();
    let merge_s = merge_dev.pcie_transfer(merge_bytes);
    ShardedRun {
        result: merged.into_iter().filter(|&(_, v)| v != 0).collect(),
        slowest_shard_s: slowest,
        merge_s,
        shard_timelines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::run_reference;

    #[test]
    fn sharded_results_match_reference() {
        let data = SsbData::generate(0.01);
        for shards in [1, 2, 4] {
            for q in [QueryId::Q11, QueryId::Q21, QueryId::Q41] {
                let run = run_query_sharded(&data, System::GpuStar, q, shards, 1.0);
                assert_eq!(
                    run.result,
                    run_reference(&data, q),
                    "{} @ {shards} shards",
                    q.name()
                );
            }
        }
    }

    #[test]
    fn sharding_divides_latency() {
        let data = SsbData::generate(0.02);
        let one = run_query_sharded(&data, System::GpuStar, QueryId::Q21, 1, 1.0);
        let four = run_query_sharded(&data, System::GpuStar, QueryId::Q21, 4, 1.0);
        // Not perfectly linear (fixed launch overheads per shard), but
        // the scan leg divides.
        assert!(
            four.slowest_shard_s < one.slowest_shard_s,
            "4 shards {} vs 1 shard {}",
            four.slowest_shard_s,
            one.slowest_shard_s
        );
    }

    #[test]
    fn shards_partition_exactly() {
        let data = SsbData::generate(0.01);
        let parts = data.shard(3);
        let total: usize = parts.iter().map(|p| p.lineorder.len).sum();
        assert_eq!(total, data.lineorder.len);
        let mut rejoined = Vec::new();
        for p in &parts {
            rejoined.extend_from_slice(&p.lineorder.orderkey);
        }
        assert_eq!(rejoined, data.lineorder.orderkey);
    }
}
