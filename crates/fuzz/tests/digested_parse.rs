//! Differential check of the pre-digested parse the store's load path
//! uses: `EncodedColumn::from_bytes_digested` handed the stream digest
//! from `checksum::stream_and_file_digests` must return the same
//! `Result` as `from_bytes_with_limits` hashing on its own, on every
//! regression-corpus case, and on every truncation and every one-word
//! flip of one column per scheme in both payload layouts.

use tlc_core::checksum::{stream_and_file_digests, FNV_OFFSET};
use tlc_core::{EncodedColumn, FormatError, GpuDFor, GpuFor, GpuRFor, Layout, Limits, DEFAULT_D};
use tlc_fuzz::corpus::load_corpus;
use tlc_fuzz::regression_cases;

/// A parse's verdict in comparable form: the column's own stream or
/// the error.
fn verdict(r: Result<EncodedColumn, FormatError>) -> Result<Vec<u8>, FormatError> {
    r.map(|c| c.to_bytes())
}

fn assert_same_verdict(name: &str, bytes: &[u8]) {
    let (stream, _) = stream_and_file_digests(bytes, FNV_OFFSET);
    for limits in [Limits::default(), Limits::strict()] {
        let own = verdict(EncodedColumn::from_bytes_with_limits(bytes, &limits));
        let digested = verdict(EncodedColumn::from_bytes_digested(
            bytes,
            &limits,
            Some(stream),
        ));
        assert_eq!(digested, own, "{name} ({} bytes)", bytes.len());
    }
}

#[test]
fn digested_parse_agrees_on_the_regression_corpus() {
    let corpus = load_corpus().expect("corpus loads");
    assert!(corpus.len() >= 20, "{} corpus cases", corpus.len());
    for (name, bytes) in &corpus {
        assert_same_verdict(name, bytes);
    }
    for (name, bytes) in regression_cases() {
        assert_same_verdict(name, &bytes);
    }
}

#[test]
fn digested_parse_agrees_on_every_truncation_and_word_flip() {
    // Runs of a uniform-width ramp: every scheme has blocks and runs to
    // cut through, and the vertical encoders take it as is.
    let values: Vec<i32> = (0..1_500).map(|i| (i / 3) * 37 % 1_000).collect();
    for layout in [Layout::Horizontal, Layout::Vertical] {
        for col in [
            EncodedColumn::For(GpuFor::encode_with_layout(&values, layout)),
            EncodedColumn::DFor(GpuDFor::encode_with_d_layout(&values, DEFAULT_D, layout)),
            EncodedColumn::RFor(GpuRFor::encode_with_layout(&values, layout)),
        ] {
            let name = format!("{:?} {layout:?}", col.scheme());
            let bytes = col.to_bytes();
            assert!(
                EncodedColumn::from_bytes(&bytes).is_ok(),
                "{name}: the whole stream parses"
            );
            for cut in 0..=bytes.len() {
                assert_same_verdict(&name, &bytes[..cut]);
            }
            // A flip the trailing digest must catch, whoever hashes it.
            for at in (0..bytes.len()).step_by(4) {
                let mut flipped = bytes.clone();
                flipped[at] ^= 0x10;
                assert_same_verdict(&format!("{name}, word {} flipped", at / 4), &flipped);
            }
        }
    }
}
