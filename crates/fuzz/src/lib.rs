//! # tlc-fuzz — offline differential fuzzing of the serialized formats
//!
//! Decompression is the trust boundary of the query path: serialized
//! columns arrive from disk or the network, and a hostile stream can
//! carry perfectly valid checksums yet declare metadata that would
//! over-allocate, spin, or index out of bounds. This crate drives that
//! boundary with a [structure-aware mutator](mod@mutate) over honest base
//! streams and checks every mutant against the
//! [differential oracle](oracle):
//!
//! * decode never panics,
//! * decode never produces more than the configured cap,
//! * CPU reference decode and GPU-sim tile decode always agree.
//!
//! Everything is pure Rust on the vendored [`tlc_rng`] — no network, no
//! external fuzzing engine — so `tlc fuzz --seed 0..4 --iters 2000`
//! reproduces bit-for-bit anywhere. Findings are [minimized](minimize)
//! and land in the checked-in [corpus] exercised by tier-1 tests.

pub mod corpus;
pub mod mutate;
pub mod oracle;

use tlc_core::{EncodedColumn, Limits, Scheme};
use tlc_rng::Rng;

use crate::mutate::mutate;
use crate::oracle::{check_stream, Verdict};

/// One fuzzing campaign's parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Seed for the deterministic mutation stream.
    pub seed: u64,
    /// Number of mutants to generate and check.
    pub iters: usize,
    /// Resource limits the oracle enforces.
    pub limits: Limits,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0,
            iters: 1000,
            limits: Limits::strict(),
        }
    }
}

/// A mutant that violated a guarantee, minimized.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Seed of the campaign that found it.
    pub seed: u64,
    /// Iteration within the campaign.
    pub iter: usize,
    /// The oracle's verdict (never `is_clean`).
    pub verdict: Verdict,
    /// Minimized reproducer bytes.
    pub bytes: Vec<u8>,
}

/// Tallies of one campaign.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Mutants checked.
    pub iters: usize,
    /// Mutants that parsed and decoded identically on both paths.
    pub decoded: usize,
    /// Mutants rejected with typed errors.
    pub typed_errors: usize,
    /// Guarantee violations (already minimized).
    pub findings: Vec<Finding>,
}

impl FuzzReport {
    /// True when no guarantee was violated.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

impl std::fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} mutants: {} decoded, {} typed errors, {} findings",
            self.iters,
            self.decoded,
            self.typed_errors,
            self.findings.len()
        )
    }
}

/// The legacy minor-0 stream of `values` under `scheme`: the horizontal
/// encoding's minor-1 stream without its per-block checksum array and
/// trailing digest, stamped minor 0. No writer emits minor 0, but the
/// reader accepts it, so the fixtures that keep that parse checked come
/// from here.
pub fn minor0_stream(values: &[i32], scheme: Scheme) -> Vec<u8> {
    use crate::mutate::{array_len_positions, to_bytes, to_words};
    use tlc_core::{GpuDFor, GpuFor, GpuRFor};

    let horizontal = match scheme {
        Scheme::GpuFor => GpuFor::encode(values).to_bytes(),
        Scheme::GpuDFor => GpuDFor::encode(values).to_bytes(),
        Scheme::GpuRFor => GpuRFor::encode(values).to_bytes(),
    };
    let mut words = to_words(&horizontal);
    // Drop the trailing digest; the checksum array is then the last
    // length-prefixed array.
    words.pop();
    let sums = *array_len_positions(&words)
        .last()
        .expect("a checksum array");
    words.truncate(sums);
    // Keep the scheme id, clear the minor.
    words[1] &= 0xFF;
    to_bytes(&words)
}

/// Honest base streams spanning the format space: every scheme, varied
/// value shapes, both format minors. Mutation starts from these so the
/// mutants are deep into the layout instead of dying at the magic word.
pub fn base_streams(rng: &mut Rng) -> Vec<Vec<u8>> {
    let shapes: Vec<Vec<i32>> = vec![
        (0..900).collect(),                                      // sorted
        (0..700).map(|i| i / 9).collect(),                       // runs
        (0..600).map(|_| rng.gen_range(-500i32..500)).collect(), // random
        vec![7; 550],                                            // constant
        vec![rng.gen_range(i32::MIN..0)],                        // single
        (0..150).map(|i| i * 1_000_000).collect(),               // wide
    ];
    let mut out = Vec::new();
    for values in &shapes {
        for scheme in Scheme::ALL {
            let col = EncodedColumn::encode_as(values, scheme);
            out.push(col.to_bytes());
            out.push(minor0_stream(values, scheme));
        }
    }
    // Forced lane-transposed (format minor 2) streams for every scheme,
    // so mutants probe the vertical decode rule too. The auto paths
    // above already yield minor 2 where the shape is width-uniform;
    // these cover forced-vertical RFOR (never automatic) and vertical
    // blocks with heterogeneous natural widths.
    use tlc_core::{GpuDFor, GpuFor, GpuRFor, Layout, DEFAULT_D};
    out.push(GpuFor::encode_with_layout(&shapes[0], Layout::Vertical).to_bytes());
    out.push(GpuDFor::encode_with_d_layout(&shapes[2], DEFAULT_D, Layout::Vertical).to_bytes());
    out.push(GpuRFor::encode_with_layout(&shapes[1], Layout::Vertical).to_bytes());
    out
}

/// Shrink a failing stream while `fails` keeps returning a non-clean
/// verdict: drop tails, then zero words, then drop single words. Not a
/// full ddmin, but reliably turns multi-KB mutants into few-word
/// reproducers.
pub fn minimize(bytes: &[u8], limits: &Limits) -> Vec<u8> {
    let fails = |b: &[u8]| !check_stream(b, limits).is_clean();
    debug_assert!(fails(bytes));
    let mut best = bytes.to_vec();
    // Phase 1: binary-search the shortest failing prefix.
    let mut lo = 0usize;
    let mut hi = best.len();
    while lo < hi {
        let mid = (lo + hi) / 2;
        if fails(&best[..mid]) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    if hi < best.len() {
        best.truncate(hi);
    }
    // Phase 2: try removing one aligned word at a time.
    let mut i = 0;
    while i + 4 <= best.len() {
        let mut cand = best.clone();
        cand.drain(i..i + 4);
        if fails(&cand) {
            best = cand;
        } else {
            i += 4;
        }
    }
    // Phase 3: zero out words to simplify the reproducer.
    let mut i = 0;
    while i + 4 <= best.len() {
        if best[i..i + 4] != [0; 4] {
            let mut cand = best.clone();
            cand[i..i + 4].fill(0);
            if fails(&cand) {
                best = cand;
            }
        }
        i += 4;
    }
    best
}

/// Run one seeded campaign: mutate honest base streams `iters` times,
/// check each mutant, minimize any finding. Panics from decode paths
/// are caught (and the default panic hook is silenced for the
/// duration, so a campaign over buggy code doesn't spew backtraces).
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let bases = base_streams(&mut rng);
    let mut report = FuzzReport {
        iters: cfg.iters,
        ..FuzzReport::default()
    };

    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for iter in 0..cfg.iters {
        let base = &bases[rng.gen_range(0..bases.len())];
        // Stack 1–3 mutations so mutants drift further from honest.
        let mut mutant = mutate(base, &mut rng);
        for _ in 0..rng.gen_range(0u32..3) {
            mutant = mutate(&mutant, &mut rng);
        }
        match check_stream(&mutant, &cfg.limits) {
            Verdict::Decoded { .. } => report.decoded += 1,
            Verdict::TypedError { .. } => report.typed_errors += 1,
            verdict => {
                let bytes = minimize(&mutant, &cfg.limits);
                report.findings.push(Finding {
                    seed: cfg.seed,
                    iter,
                    verdict,
                    bytes,
                });
            }
        }
    }
    std::panic::set_hook(prev_hook);
    report
}

/// The authored regression corpus: one minimized stream per historical
/// failure shape plus boundary cases. Deterministic — regenerating the
/// corpus files always produces identical bytes. Each entry is
/// `(file stem, bytes)`.
pub fn regression_cases() -> Vec<(&'static str, Vec<u8>)> {
    use crate::mutate::{refix_digest, to_bytes, to_words};
    use tlc_core::GpuRFor;

    // Rewrite one word and re-sign, so the mutation reaches the
    // structural validator instead of dying at the digest.
    fn rewrite(bytes: &[u8], idx: usize, val: u32) -> Vec<u8> {
        let mut words = to_words(bytes);
        words[idx] = val;
        refix_digest(&mut words);
        to_bytes(&words)
    }

    let sorted: Vec<i32> = (0..600).collect();
    let runs: Vec<i32> = (0..700).map(|i| i / 9).collect();
    let for_bytes = EncodedColumn::encode_as(&sorted, Scheme::GpuFor).to_bytes();
    let for_minor0 = minor0_stream(&sorted, Scheme::GpuFor);
    let dfor_bytes = EncodedColumn::encode_as(&runs, Scheme::GpuDFor).to_bytes();
    let dfor_minor0 = minor0_stream(&runs, Scheme::GpuDFor);
    let rfor = match EncodedColumn::encode_as(&runs, Scheme::GpuRFor) {
        EncodedColumn::RFor(c) => c,
        _ => unreachable!("encode_as returned the wrong variant"),
    };
    let rfor_bytes = rfor.to_bytes();

    // Word indices in the serialized layout: [magic][scheme][count]
    // (+[d] for DFOR), then length-prefixed arrays. FOR's second array
    // (packed data) starts with [len][ref][bw word], so data_pos + 3 is
    // block 0's miniblock-width word.
    let for_arrays = mutate::array_len_positions(&to_words(&for_bytes));
    let for_starts_pos = for_arrays[0];
    let for_data_pos = for_arrays[1];

    // Hostile struct: one stream block with no room for its own header.
    // Historically indexed out of bounds before the validator learned
    // to reject it.
    let rfor_empty_block = GpuRFor {
        total_count: 512,
        values_starts: vec![4, 4],
        values_data: vec![1, 0, 0, 0],
        lengths_starts: vec![0, 1],
        lengths_data: vec![0],
        layout: Default::default(),
    }
    .to_bytes();
    // Inflated run lengths: raise the lengths stream's FOR reference so
    // decoded runs exceed the logical block. Historically expanded to a
    // huge buffer before length sums were checked.
    let mut tampered = rfor.clone();
    tampered.lengths_data[0] = 0x7FFF_FFFF;
    let rfor_inflated = tampered.to_bytes();
    // All-ones width word in the values stream: per-miniblock widths of
    // 255 bits would read far past the block's words.
    let mut tampered = rfor.clone();
    tampered.values_data[2] = u32::MAX;
    let rfor_width = tampered.to_bytes();
    // Zero run count with a non-empty stream behind it.
    let mut tampered = rfor.clone();
    tampered.values_data[0] = 0;
    let rfor_zero_runs = tampered.to_bytes();

    // Minor-2 boundary cases. A width-uniform shape encodes vertical
    // automatically; 16-bit pseudo-random values make every miniblock
    // width 16.
    use tlc_core::{GpuFor, GpuRFor as RF, Layout};
    let uni: Vec<i32> = (0..512)
        .map(|i| ((i as u32).wrapping_mul(2_654_435_761) >> 16) as i32)
        .collect();
    let vcol = GpuFor::encode_auto(&uni);
    assert_eq!(vcol.layout, Layout::Vertical, "shape must encode vertical");
    // Hostile minor-2 stream whose block 0 declares unequal widths that
    // still sum to the block length: passes structural validation, and
    // the decode rule must fall back to the horizontal interpretation
    // identically on the CPU and sim paths.
    let mut tampered = vcol.clone();
    let w = tampered.data[1] & 0xFF;
    tampered.data[1] = (w - 1) | ((w + 1) << 8) | (w << 16) | (w << 24);
    let vertical_mismatch = tampered.to_bytes();
    // A vertical payload mislabeled as minor 1: decodes as horizontal
    // on both paths (wrong values, but consistently wrong — the oracle
    // only requires agreement).
    let vertical_mislabeled = {
        let mut words = to_words(&vcol.to_bytes());
        words[1] = 1 | (1 << 8);
        refix_digest(&mut words);
        to_bytes(&words)
    };
    // Forced-vertical RFOR (the automatic path never produces one).
    let rfor_vertical = RF::encode_with_layout(&runs, Layout::Vertical).to_bytes();

    vec![
        ("empty", Vec::new()),
        ("tiny-3-bytes", vec![0x31, 0x43, 0x4c]),
        ("bad-magic", rewrite(&for_bytes, 0, 0x5452_4545)),
        ("unknown-scheme", rewrite(&for_bytes, 1, 9 | (1 << 8))),
        ("future-minor", rewrite(&for_bytes, 1, 1 | (7 << 8))),
        ("all-zero-words", vec![0u8; 64]),
        (
            "for-truncated-mid-array",
            for_bytes[..for_bytes.len() / 2].to_vec(),
        ),
        ("for-count-inflated", rewrite(&for_bytes, 2, u32::MAX)),
        (
            "for-count-inflated-minor0",
            rewrite(&for_minor0, 2, u32::MAX),
        ),
        ("for-count-over-cap", rewrite(&for_bytes, 2, 1 << 23)),
        (
            "for-nonmonotone-starts",
            rewrite(&for_bytes, for_starts_pos + 2, u32::MAX),
        ),
        (
            "for-width-overrun",
            rewrite(&for_bytes, for_data_pos + 3, u32::MAX),
        ),
        ("for-trailing-garbage", {
            let mut words = to_words(&for_bytes);
            words.extend_from_slice(&[0xDEAD_BEEF, 0xDEAD_BEEF, 0xDEAD_BEEF]);
            refix_digest(&mut words);
            to_bytes(&words)
        }),
        (
            "for-minor0-truncated",
            for_minor0[..for_minor0.len() - 6].to_vec(),
        ),
        ("dfor-depth-zero", rewrite(&dfor_bytes, 3, 0)),
        ("dfor-depth-huge", rewrite(&dfor_bytes, 3, u32::MAX)),
        (
            "dfor-truncated-firsts",
            dfor_bytes[..dfor_bytes.len() * 3 / 4].to_vec(),
        ),
        ("dfor-minor0-bitflip", {
            let mut b = dfor_minor0.clone();
            let mid = b.len() / 2;
            b[mid] ^= 0x40;
            b
        }),
        ("dfor-count-mismatch", rewrite(&dfor_bytes, 2, 1)),
        ("rfor-empty-stream-block", rfor_empty_block),
        ("rfor-inflated-run-lengths", rfor_inflated),
        ("rfor-width-overrun", rfor_width),
        ("rfor-zero-run-count", rfor_zero_runs),
        ("rfor-count-mismatch", rewrite(&rfor_bytes, 2, 7)),
        ("vertical-width-mismatch", vertical_mismatch),
        ("vertical-mislabeled-minor1", vertical_mislabeled),
        ("rfor-vertical-honest", rfor_vertical),
    ]
}

/// Run the whole checked-in regression corpus through the oracle;
/// returns the cases whose verdict is not clean.
pub fn run_corpus(limits: &Limits) -> Result<Vec<(String, Verdict)>, String> {
    let cases = corpus::load_corpus()?;
    if cases.len() < 20 {
        return Err(format!(
            "regression corpus has only {} cases (expected >= 20)",
            cases.len()
        ));
    }
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let dirty = cases
        .into_iter()
        .filter_map(|(name, bytes)| {
            let v = check_stream(&bytes, limits);
            (!v.is_clean()).then_some((name, v))
        })
        .collect();
    std::panic::set_hook(prev_hook);
    Ok(dirty)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_campaign_is_clean_and_deterministic() {
        let cfg = FuzzConfig {
            seed: 1,
            iters: 150,
            ..FuzzConfig::default()
        };
        let a = run_fuzz(&cfg);
        assert!(a.is_clean(), "findings: {:?}", a.findings);
        let b = run_fuzz(&cfg);
        assert_eq!(a.decoded, b.decoded);
        assert_eq!(a.typed_errors, b.typed_errors);
    }

    #[test]
    fn campaign_exercises_both_outcomes() {
        let report = run_fuzz(&FuzzConfig {
            seed: 2,
            iters: 200,
            ..FuzzConfig::default()
        });
        // Mutants must not all die the same way: some decode (e.g.
        // splice of identical words, minor-0 payload rewrites), many
        // hit typed errors.
        assert!(report.typed_errors > 0);
        assert_eq!(report.decoded + report.typed_errors, report.iters);
    }

    #[test]
    fn truncations_are_typed_errors_not_findings() {
        let bytes =
            EncodedColumn::encode_as(&(0..300).collect::<Vec<_>>(), Scheme::GpuFor).to_bytes();
        for cut in [0, 3, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                matches!(
                    check_stream(&bytes[..cut], &Limits::strict()),
                    Verdict::TypedError { .. }
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn regression_cases_are_all_hostile_yet_clean() {
        // Every authored corpus case must (a) NOT decode to the same
        // values as some honest stream by accident of being honest
        // itself — i.e. be genuinely malformed or boundary — and
        // (b) produce a clean verdict (typed error or agreeing decode).
        let cases = regression_cases();
        assert!(cases.len() >= 20, "only {} authored cases", cases.len());
        for (name, bytes) in &cases {
            let v = check_stream(bytes, &Limits::strict());
            assert!(v.is_clean(), "{name}: {v:?}");
        }
    }

    #[test]
    fn regression_corpus_is_clean() {
        let dirty = run_corpus(&Limits::strict()).expect("corpus loads");
        assert!(dirty.is_empty(), "corpus regressions: {dirty:?}");
    }

    #[test]
    fn corpus_files_match_authored_cases() {
        let on_disk = corpus::load_corpus().expect("corpus loads");
        for (name, bytes) in regression_cases() {
            let file = format!("{name}.hex");
            let found = on_disk.iter().find(|(n, _)| n == &file);
            match found {
                Some((_, disk_bytes)) => assert_eq!(
                    disk_bytes, &bytes,
                    "{file} drifted from regression_cases(); rerun regenerate_corpus"
                ),
                None => panic!("{file} missing from corpus/; rerun regenerate_corpus"),
            }
        }
    }

    /// Writes `regression_cases()` to `corpus/`. Run once after adding
    /// or changing a case:
    /// `cargo test -p tlc-fuzz -- --ignored regenerate_corpus`
    #[test]
    #[ignore = "rewrites the checked-in corpus files"]
    fn regenerate_corpus() {
        let dir = corpus::corpus_dir();
        std::fs::create_dir_all(&dir).expect("create corpus dir");
        for (name, bytes) in regression_cases() {
            let header = format!("# {name}: authored regression case (see regression_cases())\n");
            std::fs::write(
                dir.join(format!("{name}.hex")),
                header + &corpus::to_hex(&bytes),
            )
            .expect("write corpus file");
        }
    }
}
