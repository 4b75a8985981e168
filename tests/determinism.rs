//! Worker-count invariance (tier-1 acceptance for the multi-core
//! backend).
//!
//! The contract (DESIGN.md §11): everything the simulator *reports* —
//! kernel timelines, fault tallies, fuzz verdicts — is a pure function
//! of the workload, never of `TLC_SIM_THREADS`. These tests hold the
//! full SSB suite, the sharded fault campaigns and the fuzz oracle to
//! bit-identical output at 1 worker vs 4.
//!
//! The override is process-global, so every test here serializes on
//! one mutex; the cargo test runner may interleave them otherwise.

use std::sync::{Mutex, MutexGuard};

use tlc::fuzz::{run_fuzz, FuzzConfig};
use tlc::profile::Profile;
use tlc::sim::{set_sim_threads_override, Device, KernelReport, Phase};
use tlc::ssb::fleet::{campaign_plans, run_query_sharded, ShardedRun};
use tlc::ssb::reference::run_reference;
use tlc::ssb::{run_query, LoColumns, QueryId, SsbData, System};

static OVERRIDE: Mutex<()> = Mutex::new(());

fn with_workers<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    set_sim_threads_override(Some(threads));
    let out = f();
    set_sim_threads_override(None);
    out
}

fn lock() -> MutexGuard<'static, ()> {
    OVERRIDE.lock().unwrap_or_else(|e| e.into_inner())
}

/// One query run's observables: group sums and the complete kernel
/// timeline, in launch order.
type QueryTrace = (Vec<(u64, u64)>, Vec<KernelReport>);

/// One run of every SSB query under every system.
fn ssb_suite(data: &SsbData) -> Vec<QueryTrace> {
    let mut out = Vec::new();
    for q in QueryId::ALL {
        for sys in [System::None, System::GpuStar, System::NvComp] {
            let dev = Device::v100();
            let cols = LoColumns::build(&dev, data, sys, q.columns());
            dev.reset_timeline();
            let result = run_query(&dev, data, &cols, q);
            let events = dev.with_timeline(|t| t.events().to_vec());
            out.push((result, events));
        }
    }
    out
}

/// `KernelReport` derives exact `PartialEq` (floats included); the
/// whole suite must compare equal event-by-event across worker counts.
#[test]
fn ssb_suite_timelines_are_bit_identical_across_worker_counts() {
    let _guard = lock();
    let data = SsbData::generate(0.01);
    let serial = with_workers(1, || ssb_suite(&data));
    let parallel = with_workers(4, || ssb_suite(&data));
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s.0, p.0, "run {i}: query results diverged");
        assert_eq!(
            s.1.len(),
            p.1.len(),
            "run {i}: different number of simulated events"
        );
        for (e1, e4) in s.1.iter().zip(&p.1) {
            assert_eq!(e1, e4, "run {i}: event {} diverged", e1.name);
        }
    }
}

/// A profiled SSB run must be reproducible down to the derived
/// artifacts: per-kernel phase spans, attributed phase seconds
/// (compared bit-for-bit), and the rendered `tlc-profile/v1` JSON and
/// text reports.
#[test]
fn profiled_ssb_run_is_identical_across_worker_counts() {
    let _guard = lock();
    let data = SsbData::generate(0.01);
    let profile_run = |data: &SsbData| {
        let dev = Device::v100();
        let cols = LoColumns::build(&dev, data, System::GpuStar, QueryId::Q21.columns());
        dev.reset_timeline();
        run_query(&dev, data, &cols, QueryId::Q21);
        dev.with_timeline(|tl| Profile::from_reports(tl.events(), dev.params()))
    };
    let serial = with_workers(1, || profile_run(&data));
    let parallel = with_workers(4, || profile_run(&data));
    assert_eq!(
        serial.spans, parallel.spans,
        "aggregate phase spans diverged"
    );
    assert_eq!(serial.kernels.len(), parallel.kernels.len());
    for (ks, kp) in serial.kernels.iter().zip(&parallel.kernels) {
        assert_eq!(ks.name, kp.name, "kernel order diverged");
        assert_eq!(ks.spans, kp.spans, "kernel {}: spans diverged", ks.name);
        for ph in Phase::ALL {
            assert_eq!(
                ks.phase_seconds(ph).to_bits(),
                kp.phase_seconds(ph).to_bits(),
                "kernel {}: {} seconds diverged",
                ks.name,
                ph.name()
            );
        }
    }
    assert_eq!(
        serial.to_json().render(),
        parallel.to_json().render(),
        "rendered JSON artifact diverged"
    );
    assert_eq!(serial.render_text(), parallel.render_text());
}

/// DESIGN.md §9's acceptance campaign on q2.1, seeds 0..8.
fn resilient_campaign(data: &SsbData) -> Vec<ShardedRun> {
    let q = QueryId::Q21;
    (0..8u64)
        .map(|seed| {
            let plans = campaign_plans(seed, q);
            run_query_sharded(data, System::GpuStar, q, plans.len(), 1.0, &plans)
        })
        .collect()
}

/// Fault injection draws from shard-private RNGs gated before any block
/// runs, so the seeded campaigns must tally identically whether the
/// shards (and the blocks inside them) run serially or concurrently.
#[test]
fn seeded_fault_campaigns_report_identically_across_worker_counts() {
    let _guard = lock();
    let data = SsbData::generate(0.01);
    let serial = with_workers(1, || resilient_campaign(&data));
    let parallel = with_workers(4, || resilient_campaign(&data));
    let clean = run_reference(&data, QueryId::Q21);
    for (seed, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s.report.devices_lost, 1, "seed {seed}: no kill");
        assert_eq!(s.report.cpu_fallbacks, 0, "seed {seed}: CPU fallback");
        assert_eq!(s.result, clean, "seed {seed}: not the fault-free answer");
        assert_eq!(s.result, p.result, "seed {seed}: recovered result diverged");
        assert_eq!(s.report, p.report, "seed {seed}: fault tallies diverged");
        assert_eq!(
            s.slowest_shard_s.to_bits(),
            p.slowest_shard_s.to_bits(),
            "seed {seed}: modelled shard time diverged"
        );
        assert_eq!(
            s.merge_s.to_bits(),
            p.merge_s.to_bits(),
            "seed {seed}: merge time diverged"
        );
    }
}

/// The differential fuzz oracle decodes mutants on the simulated GPU
/// path; its verdict stream for a given seed must not depend on the
/// backend. `FuzzReport` has no `PartialEq`, so compare the full Debug
/// rendering (tallies, findings, minimized reproducer bytes).
#[test]
fn fuzz_verdicts_are_identical_across_worker_counts() {
    let _guard = lock();
    let campaign = || {
        (0..8u64)
            .map(|seed| {
                format!(
                    "{:?}",
                    run_fuzz(&FuzzConfig {
                        seed,
                        iters: 60,
                        ..FuzzConfig::default()
                    })
                )
            })
            .collect::<Vec<_>>()
    };
    let serial = with_workers(1, campaign);
    let parallel = with_workers(4, campaign);
    for (seed, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s, p, "seed {seed}: fuzz verdicts diverged");
    }
}
