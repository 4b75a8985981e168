//! Extension: multi-GPU sharding (paper Section 1's deployment story).
//!
//! Shard the SSB fact table across 1–8 simulated V100s and run q2.1 on
//! each shard in parallel; latency is the slowest shard plus the
//! partial-aggregate merge. Compression compounds with sharding: the
//! per-device footprint shrinks by (compression × shards).

use tlc_bench::{ms, print_table, sim_sf, PAPER_SF};
use tlc_ssb::fleet::run_query_sharded;
use tlc_ssb::{QueryId, SsbData, System};

fn main() {
    let sf = sim_sf();
    let scale = PAPER_SF / sf;
    println!("Multi-GPU sharding (SF_sim = {sf}, scaled to SF {PAPER_SF}, query q2.1)");
    let data = SsbData::generate(sf);

    let mut rows = Vec::new();
    let mut reference = None;
    for shards in [1usize, 2, 4, 8] {
        let mut row = vec![shards.to_string()];
        for sys in [System::None, System::GpuStar] {
            let run = run_query_sharded(&data, sys, QueryId::Q21, shards, scale, &[]);
            match &reference {
                None => reference = Some(run.result.clone()),
                Some(r) => assert_eq!(&run.result, r, "results must agree"),
            }
            row.push(ms(run.slowest_shard_s));
            row.push(ms(run.merge_s));
        }
        rows.push(row);
    }
    print_table(
        "q2.1 latency vs shard count (model ms)",
        &[
            "shards",
            "None scan",
            "None merge",
            "GPU-* scan",
            "GPU-* merge",
        ],
        &rows,
    );
    println!("\nexpected: scan leg divides by the shard count; the merge is microseconds;");
    println!("GPU-* stays ~1.1-1.3x faster per shard and fits ~3.5x more rows per device.");
}
