//! End-to-end tests of the `tlc` command-line binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tlc"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("tlc_cli_test_{}_{name}", std::process::id()));
    p
}

fn write_column(path: &PathBuf, values: &[i32]) {
    let mut bytes = Vec::new();
    for v in values {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    std::fs::write(path, bytes).expect("write column");
}

#[test]
fn compress_inspect_decompress_roundtrip() {
    let input = tmp("in.bin");
    let packed = tmp("col.tlc");
    let output = tmp("out.bin");
    let values: Vec<i32> = (0..50_000).map(|i| i / 5).collect();
    write_column(&input, &values);

    let st = bin()
        .args(["compress"])
        .arg(&input)
        .arg(&packed)
        .status()
        .expect("run");
    assert!(st.success());

    let out = bin().args(["inspect"]).arg(&packed).output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("values:       50000"), "{text}");

    let st = bin()
        .args(["decompress"])
        .arg(&packed)
        .arg(&output)
        .status()
        .expect("run");
    assert!(st.success());
    assert_eq!(
        std::fs::read(&input).expect("in"),
        std::fs::read(&output).expect("out"),
        "bit-exact roundtrip"
    );

    for p in [input, packed, output] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn explicit_scheme_is_honored() {
    let input = tmp("scheme_in.bin");
    let packed = tmp("scheme.tlc");
    write_column(&input, &(0..10_000).collect::<Vec<i32>>());

    let st = bin()
        .args(["compress"])
        .arg(&input)
        .arg(&packed)
        .args(["--scheme", "rfor"])
        .status()
        .expect("run");
    assert!(st.success());
    let out = bin().args(["inspect"]).arg(&packed).output().expect("run");
    assert!(String::from_utf8_lossy(&out.stdout).contains("GPU-RFOR"));

    let _ = std::fs::remove_file(input);
    let _ = std::fs::remove_file(packed);
}

/// `tlc stats` recommends the scheme `tlc compress` writes for the same
/// file: one chooser. The `i % 500` column has few distinct values, yet
/// GPU-DFOR, not GPU-RFOR, is its smallest encoding.
#[test]
fn stats_reports_recommendation() {
    let input = tmp("stats_in.bin");
    let packed = tmp("stats.tlc");
    let columns: [Vec<i32>; 2] = [
        (0..5_000).map(|i| i / 100).collect(),
        (0..65_536).map(|i| i % 500).collect(),
    ];
    for values in &columns {
        write_column(&input, values);
        let out = bin().args(["stats"]).arg(&input).output().expect("run");
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("recommendation:"), "{text}");
        assert!(text.contains("avg run length"), "{text}");
        let recommended = text
            .lines()
            .find_map(|l| l.strip_prefix("recommendation:"))
            .expect("recommendation line")
            .trim()
            .to_string();

        let out = bin()
            .args(["compress"])
            .arg(&input)
            .arg(&packed)
            .output()
            .expect("run");
        assert!(out.status.success());
        let written = String::from_utf8_lossy(&out.stdout);
        assert!(
            written.contains(&format!(" via {recommended} (")),
            "stats recommends {recommended}; compress says: {written}"
        );
    }
    let _ = std::fs::remove_file(input);
    let _ = std::fs::remove_file(packed);
}

#[test]
fn rejects_garbage_input() {
    let garbage = tmp("garbage.tlc");
    std::fs::write(&garbage, b"not a tlc file!!").expect("write");
    let out = bin()
        .args(["decompress"])
        .arg(&garbage)
        .arg(tmp("never.bin"))
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("magic"));
    let _ = std::fs::remove_file(garbage);
}

#[test]
fn rejects_misaligned_column() {
    let input = tmp("odd.bin");
    std::fs::write(&input, [1u8, 2, 3]).expect("write");
    let out = bin().args(["stats"]).arg(&input).output().expect("run");
    assert!(!out.status.success());
    let _ = std::fs::remove_file(input);
}

#[test]
fn usage_on_bad_args() {
    let out = bin().output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

/// `verify` classifies failures into distinct exit codes: 1 I/O, 2
/// integrity damage, 3 structural/hostile malformation.
#[test]
fn verify_exit_codes_classify_the_failure() {
    let input = tmp("verify_in.bin");
    let packed = tmp("verify.tlc");
    write_column(&input, &(0..20_000).map(|i| i / 7).collect::<Vec<i32>>());
    let st = bin()
        .args(["compress"])
        .arg(&input)
        .arg(&packed)
        .status()
        .expect("run");
    assert!(st.success());

    // Clean stream: exit 0.
    let st = bin().args(["verify"]).arg(&packed).status().expect("run");
    assert_eq!(st.code(), Some(0));

    // Payload byte flip: the whole-stream digest catches it -> exit 2.
    let bytes = std::fs::read(&packed).expect("read");
    let damaged = tmp("verify_damaged.tlc");
    let mut dirty = bytes.clone();
    let mid = dirty.len() / 2;
    dirty[mid] ^= 0xFF;
    std::fs::write(&damaged, &dirty).expect("write");
    let st = bin().args(["verify"]).arg(&damaged).status().expect("run");
    assert_eq!(st.code(), Some(2), "digest damage must exit 2");

    // Truncation: structural rejection -> exit 3.
    let truncated = tmp("verify_trunc.tlc");
    std::fs::write(&truncated, &bytes[..9]).expect("write");
    let st = bin()
        .args(["verify"])
        .arg(&truncated)
        .status()
        .expect("run");
    assert_eq!(st.code(), Some(3), "truncation must exit 3");

    // Missing file: I/O error -> exit 1.
    let st = bin()
        .args(["verify"])
        .arg(tmp("verify_missing.tlc"))
        .status()
        .expect("run");
    assert_eq!(st.code(), Some(1), "missing file must exit 1");

    for p in [input, packed, damaged, truncated] {
        let _ = std::fs::remove_file(p);
    }
}

/// `verify --manifest` exit-code contract (DESIGN.md §14 companion):
/// a store that carries its generation spec self-heals quarantined
/// files before verifying, so bit-rot on disk is **exit 0** — the
/// integrity exit code is reserved for damage the store cannot repair.
#[test]
fn verify_manifest_heals_regenerable_bitrot_and_exits_zero() {
    use tlc::ssb::{SsbStore, StreamSpec};

    let dir = tmp("heal_store");
    let _ = std::fs::remove_dir_all(&dir);
    let store = SsbStore::ingest(&dir, &StreamSpec::for_rows(3, 12_800, 800)).expect("ingest");
    let rotted = store.store().path_of(1, "quantity");
    drop(store);
    tlc::store::damage::flip_bit(&rotted, 77).expect("rot");

    let out = bin()
        .args(["verify", "--manifest"])
        .arg(&dir)
        .output()
        .expect("run");
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "healed store must exit 0: {text}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("healed 1 quarantined file(s)"), "{text}");
    assert!(text.contains("ok ("), "{text}");

    // And the heal is durable: a second verify is clean with no healing.
    let out = bin()
        .args(["verify", "--manifest"])
        .arg(&dir)
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(!text.contains("healed"), "{text}");

    // "compressed bytes" counts the bytes read: the committed file
    // lengths, the same figure `tlc ingest` prints for the store.
    let printed: u64 = text
        .split(" compressed bytes")
        .next()
        .and_then(|head| head.rsplit(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no byte count in {text}"));
    let (store, _) = tlc::store::Store::open(&dir).expect("open");
    let committed: u64 = store
        .manifest()
        .partitions
        .iter()
        .flat_map(|p| &p.files)
        .map(|f| u64::from(f.bytes))
        .sum();
    assert_eq!(printed, committed, "{text}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A store with no generation spec cannot regenerate, so bit-rot stays
/// an integrity failure: exit 2, unchanged from the old contract.
#[test]
fn verify_manifest_still_fails_on_non_regenerable_damage() {
    use tlc::schemes::EncodedColumn;
    use tlc::store::Ingest;

    let dir = tmp("plain_store");
    let _ = std::fs::remove_dir_all(&dir);
    let mut ing = Ingest::create(&dir, &["vals"]).expect("create");
    let col = EncodedColumn::encode_best(&(0..4_000).map(|i| i % 97).collect::<Vec<i32>>());
    ing.append_partition(std::slice::from_ref(&col))
        .expect("append");
    let store = ing.commit().expect("commit");
    let rotted = store.path_of(0, "vals");
    drop(store);
    tlc::store::damage::flip_bit(&rotted, 77).expect("rot");

    let out = bin()
        .args(["verify", "--manifest"])
        .arg(&dir)
        .output()
        .expect("run");
    assert_eq!(
        out.status.code(),
        Some(2),
        "non-regenerable damage must keep exit 2: {}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// `serve` end to end through the binary: mixed batch, kill-shard
/// injection, JSON metrics, balanced terminal books.
#[test]
fn serve_subcommand_balances_its_books_under_injected_faults() {
    use tlc::ssb::{SsbStore, StreamSpec};

    let dir = tmp("serve_store");
    let _ = std::fs::remove_dir_all(&dir);
    SsbStore::ingest(&dir, &StreamSpec::for_rows(3, 12_800, 800)).expect("ingest");

    let out = bin()
        .args(["serve"])
        .arg(&dir)
        .args(["--requests", "12", "--kill-shard", "1"])
        .output()
        .expect("run");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "serve failed: {text}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("\"submitted\": 12"), "{text}");
    assert!(text.contains("books balance"), "{text}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `loadgen` end to end: writes the `tlc-serving/v1` artifact with
/// percentile rows into `TLC_BENCH_DIR`, closes its books over the
/// whole run and leaves no scratch store behind.
#[test]
fn loadgen_subcommand_writes_the_serving_artifact() {
    let bench_dir = tmp("bench_dir");
    let _ = std::fs::remove_dir_all(&bench_dir);
    let scratch = tmp("loadgen_scratch");
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let out = bin()
        .args([
            "loadgen",
            "--rows",
            "12800",
            "--requests",
            "16",
            "--rate",
            "500",
        ])
        .env("TLC_BENCH_DIR", &bench_dir)
        .env("TMPDIR", &scratch)
        .output()
        .expect("run");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "loadgen failed: {text}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("loadgen: 16 submitted"), "{text}");
    assert!(text.contains("books balance"), "{text}");
    let artifact = std::fs::read_to_string(bench_dir.join("BENCH_serving.json")).expect("artifact");
    for key in ["tlc-serving/v1", "\"workload\": \"all\"", "\"p999\""] {
        assert!(artifact.contains(key), "missing {key} in {artifact}");
    }
    let left: Vec<_> = std::fs::read_dir(&scratch).expect("scratch").collect();
    assert!(left.is_empty(), "scratch store left behind: {left:?}");
    let _ = std::fs::remove_dir_all(&bench_dir);
    let _ = std::fs::remove_dir_all(&scratch);
}

/// A tiny `fuzz` campaign through the binary: exercises arg parsing
/// (including the range syntax), the corpus runner and the exit path.
#[test]
fn fuzz_subcommand_runs_a_bounded_campaign() {
    let out = bin()
        .args(["fuzz", "--seed", "0..2", "--iters", "50"])
        .output()
        .expect("run");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "fuzz failed: {text}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("seed 0:"), "{text}");
    assert!(text.contains("seed 1:"), "{text}");
    assert!(text.contains("corpus:"), "{text}");
}

/// `faultsim --seed A..B` runs the acceptance campaign once per seed in
/// the range, three queries each, and every campaign loses its device.
#[test]
fn faultsim_subcommand_takes_a_seed_range() {
    let out = bin()
        .args(["faultsim", "--seed", "3..5"])
        .output()
        .expect("run");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "faultsim failed: {text}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for seed in [3, 4] {
        for q in ["q1.1", "q2.1", "q4.1"] {
            assert!(
                text.contains(&format!("seed {seed} {q}: result matches fault-free run")),
                "{text}"
            );
        }
    }
    assert!(
        !text.contains("seed 2 ") && !text.contains("seed 5 "),
        "{text}"
    );
    assert_eq!(text.matches("1 device(s) lost").count(), 6, "{text}");
}

/// An empty seed range is a usage error, not a vacuous pass.
#[test]
fn faultsim_rejects_an_empty_seed_range() {
    let out = bin()
        .args(["faultsim", "--seed", "4..4"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--seed range is empty"), "{err}");
}

/// A flag given last, with no value, is a usage error naming the flag.
#[test]
fn a_flag_without_a_value_is_named() {
    let out = bin().args(["faultsim", "--seed"]).output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--seed needs a value"), "{err}");
}

/// A value that does not parse is a usage error naming the flag and
/// the parse failure.
#[test]
fn a_flag_value_that_does_not_parse_is_named() {
    let out = bin()
        .args(["loadgen", "--requests", "many"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--requests: invalid digit found in string"),
        "{err}"
    );
}

/// An unknown `--` flag given to `compress` is rejected by name, not
/// taken as the input path (which would blame the next argument).
#[test]
fn compress_rejects_an_unknown_flag_by_name() {
    let out = bin()
        .args(["compress", "--thread", "4"])
        .arg(tmp("flag_in.bin"))
        .arg(tmp("flag_out.tlc"))
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unexpected argument '--thread'"), "{err}");
}
