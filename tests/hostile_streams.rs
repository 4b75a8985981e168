//! Hostile-bytes acceptance tests (tier-1).
//!
//! The serialized formats are a trust boundary: these tests feed the
//! decoders truncated, tampered and adversarially constructed streams
//! and assert the panic-free contract — every input either decodes
//! identically on the CPU reference and the GPU-sim path, or dies with
//! a typed error. Never a panic, never an allocation past the
//! configured [`Limits`], never a divergence.

use tlc::fuzz::oracle::{check_stream, Verdict};
use tlc::fuzz::{minor0_stream, regression_cases, run_corpus, run_fuzz, FuzzConfig};
use tlc::schemes::{EncodedColumn, FormatError, GpuRFor, Limits, Scheme};

fn sample_values() -> Vec<i32> {
    // Runs, ramps and negatives so all three schemes have structure.
    (0..900)
        .map(|i| match i % 3 {
            0 => i / 30,
            1 => -(i % 113),
            _ => i,
        })
        .collect()
}

/// Serialize → truncate at *every* byte boundary → parse: each prefix
/// must be rejected with a typed error, for all three codecs.
#[test]
fn every_truncation_is_a_typed_error() {
    let values = sample_values();
    for scheme in Scheme::ALL {
        let bytes = EncodedColumn::encode_as(&values, scheme).to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                EncodedColumn::from_bytes(&bytes[..cut]).is_err(),
                "{scheme:?}: prefix of {cut}/{} bytes was accepted",
                bytes.len()
            );
        }
        assert!(EncodedColumn::from_bytes(&bytes).is_ok(), "{scheme:?}");
    }
}

/// Minor-0 streams have no digest and no per-block checksums, so
/// truncation must be caught *structurally* — and still is, at every
/// byte boundary.
#[test]
fn every_minor0_truncation_is_a_typed_error() {
    let values = sample_values();
    for scheme in Scheme::ALL {
        let bytes = minor0_stream(&values, scheme);
        for cut in 0..bytes.len() {
            assert!(
                EncodedColumn::from_bytes(&bytes[..cut]).is_err(),
                "{scheme:?} minor0: prefix of {cut}/{} bytes was accepted",
                bytes.len()
            );
        }
        let col = EncodedColumn::from_bytes(&bytes).expect("full minor0 stream parses");
        assert_eq!(col.decode_cpu(), values, "{scheme:?} minor0 roundtrip");
    }
}

/// The full oracle over every truncation: no panic, no divergence —
/// not just "returns Err".
#[test]
fn truncation_oracle_sweep_is_clean() {
    let values = sample_values();
    let limits = Limits::strict();
    for scheme in Scheme::ALL {
        let bytes = EncodedColumn::encode_as(&values, scheme).to_bytes();
        // Sampled cuts (the exhaustive parse sweep runs above); the
        // oracle additionally decodes on both paths.
        for cut in (0..bytes.len()).step_by(41) {
            let v = check_stream(&bytes[..cut], &limits);
            assert!(v.is_clean(), "{scheme:?} cut {cut}: {v:?}");
        }
    }
}

/// The checked-in regression corpus stays clean under both the default
/// and the strict limits.
#[test]
fn regression_corpus_is_clean_under_both_limit_profiles() {
    for limits in [Limits::default(), Limits::strict()] {
        let dirty = run_corpus(&limits).expect("corpus loads");
        assert!(dirty.is_empty(), "{dirty:?}");
    }
}

/// Historical crasher: an RFOR stream block too short to hold its own
/// run-count header used to index out of bounds. It must be a typed
/// error at parse time — and stay one when constructed directly.
#[test]
fn rfor_empty_stream_block_is_a_typed_error() {
    let hostile = GpuRFor {
        total_count: 512,
        values_starts: vec![4, 4],
        values_data: vec![1, 0, 0, 0],
        lengths_starts: vec![0, 1],
        lengths_data: vec![0],
        layout: Default::default(),
    };
    assert!(hostile.validate().is_err());
    let bytes = hostile.to_bytes();
    assert!(matches!(
        EncodedColumn::from_bytes(&bytes),
        Err(FormatError::BadBlock { .. })
    ));
}

/// Historical over-allocation: run lengths inflated past the logical
/// block used to size the output buffer before any cross-check. The
/// count cap plus length-sum validation must reject it at parse time.
#[test]
fn rfor_inflated_lengths_are_rejected_before_allocation() {
    let values: Vec<i32> = (0..600).map(|i| i / 9).collect();
    let mut col = match EncodedColumn::encode_as(&values, Scheme::GpuRFor) {
        EncodedColumn::RFor(c) => c,
        _ => unreachable!(),
    };
    // Raise the lengths stream's FOR reference: decoded run lengths
    // become ~2^31 each while the stream stays internally well-formed.
    col.lengths_data[0] = 0x7FFF_FFFF;
    let bytes = col.to_bytes();
    assert!(
        EncodedColumn::from_bytes(&bytes).is_err(),
        "inflated run lengths were accepted"
    );
}

/// The declared value count is capped before any buffer is sized.
#[test]
fn over_cap_count_is_rejected_at_parse_time() {
    let (name, bytes) = regression_cases()
        .into_iter()
        .find(|(n, _)| *n == "for-count-over-cap")
        .expect("authored case exists");
    match EncodedColumn::from_bytes_with_limits(&bytes, &Limits::strict()) {
        Err(FormatError::CapExceeded { .. }) => {}
        other => panic!("{name}: expected CapExceeded, got {other:?}"),
    }
}

/// A short differential campaign runs inside tier-1 so the fuzzer
/// itself (mutator, oracle, limits plumbing) can't silently rot.
#[test]
fn fuzz_smoke_campaign_is_clean() {
    for seed in 0..2u64 {
        let report = run_fuzz(&FuzzConfig {
            seed,
            iters: 250,
            limits: Limits::strict(),
        });
        assert!(report.is_clean(), "seed {seed}: {:?}", report.findings);
        assert!(report.typed_errors > 0, "seed {seed}: nothing was hostile");
    }
}

/// Mutated minor-0 streams — no integrity words at all — still uphold
/// the oracle contract: any parse that succeeds decodes identically on
/// both paths.
#[test]
fn minor0_bitflip_sweep_never_panics_or_diverges() {
    let values = sample_values();
    let limits = Limits::strict();
    let mut accepted = 0usize;
    for scheme in Scheme::ALL {
        let bytes = minor0_stream(&values, scheme);
        for pos in (0..bytes.len()).step_by(23) {
            for bit in [0x01u8, 0x80] {
                let mut dirty = bytes.clone();
                dirty[pos] ^= bit;
                let v = check_stream(&dirty, &limits);
                assert!(v.is_clean(), "{scheme:?} flip at {pos}: {v:?}");
                if matches!(v, Verdict::Decoded { .. }) {
                    accepted += 1;
                }
            }
        }
    }
    // Without checksums some flips legally decode (to different
    // values); the sweep must exercise that silent-success path too.
    assert!(accepted > 0, "no minor0 flip ever decoded");
}
