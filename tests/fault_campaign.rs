//! Seeded fault-injection campaign (tier-1 acceptance).
//!
//! Invariant under any injected fault: a decode either returns the
//! bit-exact original values or a typed [`DecodeError`] — never a
//! panic, never a silently wrong answer — and the sharded executor
//! recovers to the fault-free result while its report accounts for
//! every injected fault.

use tlc::fuzz::minor0_stream;
use tlc::schemes::{DecodeError, EncodedColumn, Scheme};
use tlc::sim::{Device, FaultPlan};
use tlc::ssb::fleet::{campaign_plans, campaign_verdict, run_query_sharded};
use tlc::ssb::{QueryId, SsbData, System, MAX_TRANSIENT_RETRIES};

fn campaign_values(seed: u64) -> Vec<i32> {
    // Mixed shape: runs, ramps and noise, so all three schemes see
    // non-trivial structure.
    (0..40_000)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(seed) >> 7;
            match i % 3 {
                0 => i / 50,
                1 => (x % 97) as i32,
                _ => i % 1000,
            }
        })
        .collect()
}

/// Device-side bit flips: every outcome is Ok-and-bit-exact or a typed
/// error. The flip rate is set so well over 1% of tiles take a hit.
#[test]
fn device_bit_flips_never_panic_and_never_decode_wrong() {
    let mut corrupt_rejections = 0usize;
    let mut flips_total = 0usize;
    for seed in 0..8u64 {
        let values = campaign_values(seed);
        for scheme in Scheme::ALL {
            let col = EncodedColumn::encode_as(&values, scheme);
            let dev = Device::v100();
            dev.inject_faults(FaultPlan {
                // ~1 flip per 500 words ≈ several flips per tile's
                // worth of encoded data.
                bitflip_rate: 2e-3,
                ..FaultPlan::seeded(seed)
            });
            let device_col = col.to_device(&dev);
            let stats = dev.fault_stats().expect("plan armed");
            flips_total += stats.bit_flips;
            match device_col.decompress(&dev) {
                Ok(out) => assert_eq!(
                    out.as_slice_unaccounted(),
                    values,
                    "seed {seed} {scheme:?}: decode succeeded but values differ"
                ),
                Err(e) => {
                    assert!(
                        matches!(
                            e,
                            DecodeError::Corrupt { .. } | DecodeError::Structure { .. }
                        ),
                        "seed {seed} {scheme:?}: unexpected error kind {e}"
                    );
                    corrupt_rejections += 1;
                }
            }
        }
    }
    assert!(flips_total > 0, "campaign injected nothing");
    // At this rate corruption lands in payload words essentially every
    // run; the campaign must actually exercise the rejection path.
    assert!(
        corrupt_rejections >= 12,
        "only {corrupt_rejections} rejections across 24 runs"
    );
}

/// Serialized-stream byte flips: `from_bytes` rejects every flipped
/// stream with a typed error (the whole-stream digest guarantees it).
#[test]
fn serialized_byte_flips_are_always_rejected() {
    let values = campaign_values(3);
    for scheme in Scheme::ALL {
        let bytes = EncodedColumn::encode_as(&values, scheme).to_bytes();
        // Sampled positions (serialize.rs covers every byte exhaustively
        // on smaller columns): header, checksum array, payload, digest.
        for pos in (0..bytes.len()).step_by(997).chain([bytes.len() - 1]) {
            let mut dirty = bytes.clone();
            dirty[pos] ^= 0x40;
            assert!(
                EncodedColumn::from_bytes(&dirty).is_err(),
                "{scheme:?}: flip at byte {pos} was accepted"
            );
        }
    }
}

/// Legacy minor-0 streams carry no digest and no per-block checksums,
/// so a byte flip is *allowed* to decode silently — but it must still
/// never panic, never out-allocate, and never make the CPU reference
/// and the GPU-sim path disagree. The differential oracle checks all
/// three.
#[test]
fn minor0_byte_flips_uphold_the_panic_free_contract() {
    use tlc::fuzz::oracle::{check_stream, Verdict};
    use tlc::schemes::Limits;

    let limits = Limits::strict();
    let mut silently_decoded = 0usize;
    let mut rejected = 0usize;
    for seed in 0..4u64 {
        let values = campaign_values(seed);
        for scheme in Scheme::ALL {
            let bytes = minor0_stream(&values, scheme);
            for pos in (0..bytes.len()).step_by(1499).chain([bytes.len() - 1]) {
                let mut dirty = bytes.clone();
                dirty[pos] ^= 1 << (seed % 8);
                match check_stream(&dirty, &limits) {
                    Verdict::Decoded { .. } => silently_decoded += 1,
                    Verdict::TypedError { .. } => rejected += 1,
                    v => panic!("seed {seed} {scheme:?} flip at {pos}: {v:?}"),
                }
            }
        }
    }
    // The campaign must exercise both outcomes: structural rejections
    // and (checksum-free) silent successes.
    assert!(rejected > 0, "no flip was ever rejected");
    assert!(silently_decoded > 0, "no flip ever decoded");
}

/// The acceptance campaign (`fleet::campaign_plans`): bit flips on
/// every shard, transient launch failures, one of four devices killed
/// at its fact scan, seeds 0..8. `fleet::campaign_verdict` holds the
/// checks: the kill must fire, the recovered result must equal the
/// fault-free result and the report must account for the injected
/// faults with no CPU fallback.
#[test]
fn sharded_campaign_recovers_to_fault_free_results() {
    let data = SsbData::generate(0.01);
    for seed in 0..8u64 {
        for q in [QueryId::Q11, QueryId::Q21, QueryId::Q41] {
            let plans = campaign_plans(seed);
            let shards = plans.len();
            let clean = run_query_sharded(&data, System::GpuStar, q, shards, 1.0, &[]);
            let run = run_query_sharded(&data, System::GpuStar, q, shards, 1.0, &plans);
            if let Err(e) = campaign_verdict(&run, &clean) {
                panic!("seed {seed} {}: {e}", q.name());
            }
        }
    }
}

/// A launch that *never* succeeds on the armed device must exhaust the
/// bounded retry budget and surface the stable terminal reason
/// (`retries_exhausted`) — not spin, and not be misfiled as corruption
/// or device loss. The failover device is clean, so the shard still
/// recovers without a CPU fallback.
#[test]
fn always_transient_shard_exhausts_retries_with_stable_reason() {
    let data = SsbData::generate(0.01);
    let clean = run_query_sharded(&data, System::GpuStar, QueryId::Q11, 2, 1.0, &[]);
    let plans = vec![Some(FaultPlan {
        transient_launch_rate: 1.0,
        ..FaultPlan::seeded(5)
    })];
    let run = run_query_sharded(&data, System::GpuStar, QueryId::Q11, 2, 1.0, &plans);
    assert_eq!(run.result, clean.result);
    let r = &run.report;
    assert_eq!(r.transient_retries, MAX_TRANSIENT_RETRIES);
    assert_eq!(r.retries_exhausted, 1, "exactly one attempt exhausted");
    assert_eq!(r.shards_failed_over, 1);
    assert_eq!(r.cpu_fallbacks, 0);
    assert_eq!(r.corrupt_tiles_detected, 0, "exhaustion is not corruption");
    assert_eq!(r.devices_lost, 0);
}
