//! Crash-safety and recovery-determinism acceptance for the out-of-core
//! store (DESIGN.md §13).
//!
//! * **Truncate-at-every-byte** (mirroring `tests/hostile_streams.rs`):
//!   every prefix of the manifest must fail to open with a typed error
//!   — never a panic, never a silently half-open store — and every
//!   prefix of a partition file must be caught at open time and
//!   quarantined, with the streamed executor still producing the exact
//!   fault-free answer by regenerating the partition.
//! * **Kill-shard determinism**: for fault seeds 0..8, a campaign that
//!   kills a shard mid-query, tears one partition and bit-flips another
//!   must produce a result and a `ResilienceReport` bit-identical at 1
//!   and 4 workers — the ISSUE's acceptance bar for the streamed path.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use tlc::sim::{set_sim_threads_override, FaultPlan, StorageFaults};
use tlc::ssb::reference::run_reference;
use tlc::ssb::stream::{run_query_streamed_bounded, SsbStore, StreamOptions};
use tlc::ssb::{QueryId, StreamSpec};
use tlc::store::{Store, StoreError, MANIFEST_NAME};

static OVERRIDE: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    OVERRIDE.lock().unwrap_or_else(|e| e.into_inner())
}

fn with_workers<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    set_sim_threads_override(Some(threads));
    let out = f();
    set_sim_threads_override(None);
    out
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("tlc_store_recovery_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Small spec: ~3.2k orders in 4 chunks, so partition files are a few
/// KB and byte sweeps stay fast.
fn small_spec() -> StreamSpec {
    StreamSpec::for_rows(7, 12_800, 800)
}

#[test]
fn manifest_truncated_at_every_byte_is_a_typed_error() {
    let dir = tmp_dir("manifest_trunc");
    let spec = StreamSpec::for_rows(2, 3_200, 800);
    SsbStore::ingest(&dir, &spec).expect("ingest");
    let manifest_path = dir.join(MANIFEST_NAME);
    let good = std::fs::read(&manifest_path).expect("read manifest");
    assert!(good.len() > 100, "manifest should be non-trivial");

    for cut in 0..good.len() {
        std::fs::write(&manifest_path, &good[..cut]).expect("write truncated");
        match Store::open(&dir) {
            Err(StoreError::ManifestIntegrity { .. } | StoreError::ManifestStructure { .. }) => {}
            Err(other) => panic!("cut {cut}: unexpected error class: {other}"),
            Ok(_) => panic!("cut {cut}: truncated manifest opened"),
        }
    }
    // Restoring the full manifest restores the store.
    std::fs::write(&manifest_path, &good).expect("restore");
    let (_, recovery) = Store::open(&dir).expect("reopen");
    assert!(recovery.is_clean());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn partition_truncated_at_every_byte_is_quarantined_and_recoverable() {
    let _guard = lock();
    let dir = tmp_dir("partition_trunc");
    let spec = StreamSpec::for_rows(2, 3_200, 800);
    let store = SsbStore::ingest(&dir, &spec).expect("ingest");
    let clean = run_query_streamed_bounded(&store, QueryId::Q11, &StreamOptions::default())
        .expect("clean run")
        .result;
    drop(store);

    let path = {
        let (s, _) = Store::open(&dir).expect("open");
        s.path_of(0, "orderdate")
    };
    let good = std::fs::read(&path).expect("read partition file");
    assert!(good.len() > 64);

    for cut in 0..good.len() {
        std::fs::write(&path, &good[..cut]).expect("write truncated");
        let (s, recovery) = Store::open(&dir).expect("open survives torn partition");
        assert_eq!(
            recovery.quarantined.len(),
            1,
            "cut {cut}: torn file must be quarantined at open"
        );
        drop(s);
        // Spot-check full recovery (regenerate + heal + correct answer)
        // on a sample; a streamed query per byte would be wasteful.
        if cut % 97 == 0 {
            let (ssb, _) = SsbStore::open(&dir).expect("reopen");
            let run = run_query_streamed_bounded(&ssb, QueryId::Q11, &StreamOptions::default())
                .expect("streamed run");
            assert_eq!(run.result, clean, "cut {cut}: recovered result diverged");
            assert_eq!(run.report.partitions_regenerated, 1, "cut {cut}");
            ssb.store().verify().expect("store heals back to clean");
        } else {
            // Restore by hand so the next cut starts from a clean file.
            std::fs::write(&path, &good).expect("restore");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_shard_recovery_is_bit_identical_across_workers_and_seeds() {
    let _guard = lock();
    let dir = tmp_dir("kill_shard");
    let spec = small_spec();
    let store = SsbStore::ingest(&dir, &spec).expect("ingest");
    let n = store.store().partition_count();
    assert!(n >= 4, "want several partitions, got {n}");
    let reference = run_reference(&spec.materialize(), QueryId::Q11);

    let clean1 = with_workers(1, || {
        run_query_streamed_bounded(&store, QueryId::Q11, &StreamOptions::default())
            .expect("clean @1")
    });
    let clean4 = with_workers(4, || {
        run_query_streamed_bounded(&store, QueryId::Q11, &StreamOptions::default())
            .expect("clean @4")
    });
    assert_eq!(
        clean1.result, reference,
        "streamed result must match CPU reference"
    );
    assert_eq!(clean1.result, clean4.result);
    assert_eq!(clean1.report, clean4.report);

    for seed in 0..8u64 {
        let plan = FaultPlan {
            transient_launch_rate: 0.02,
            storage: StorageFaults {
                kill_shard_at_partition: Some(seed as usize % n),
                truncate_at_partition: Some((seed as usize + 1) % n),
                flip_bit_at_partition: Some((seed as usize + 2) % n),
            },
            ..FaultPlan::seeded(seed)
        };
        let opts = StreamOptions {
            plan: Some(plan),
            ..StreamOptions::default()
        };
        let one = with_workers(1, || {
            run_query_streamed_bounded(&store, QueryId::Q11, &opts).expect("faulted @1")
        });
        let four = with_workers(4, || {
            run_query_streamed_bounded(&store, QueryId::Q11, &opts).expect("faulted @4")
        });
        assert_eq!(
            one.result, reference,
            "seed {seed}: recovered result diverged from fault-free"
        );
        assert_eq!(
            one.result, four.result,
            "seed {seed}: result depends on workers"
        );
        assert_eq!(
            one.report, four.report,
            "seed {seed}: report depends on workers"
        );
        assert_eq!(one.report.devices_lost, 1, "seed {seed}");
        assert!(
            one.report.partitions_regenerated >= 1,
            "seed {seed}: {}",
            one.report
        );
        // The run healed every injected storage fault in place.
        store
            .store()
            .verify()
            .expect("store verifies clean after campaign");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_ingest_leaves_no_store_and_its_orphans_are_swept() {
    let dir = tmp_dir("crash_points");
    let spec = StreamSpec::for_rows(4, 3_200, 800);
    // Simulate a crash before commit: partitions written, no manifest.
    {
        use tlc::store::Ingest;
        let mut ing = Ingest::create(&dir, &["a"]).expect("create");
        ing.append_partition(&[tlc::schemes::EncodedColumn::encode_best(&[1, 2, 3])])
            .expect("append");
        // Dropped without commit().
    }
    assert!(
        matches!(Store::open(&dir), Err(StoreError::Io { .. })),
        "no manifest means no store"
    );
    // A later successful ingest sweeps the orphaned files at commit+open.
    let store = SsbStore::ingest(&dir, &spec).expect("ingest over orphans");
    drop(store);
    let (reopened, recovery) = SsbStore::open(&dir).expect("open");
    assert!(recovery.quarantined.is_empty(), "{recovery}");
    // The orphan p00000-a.g0.tlc collides with nothing (different column
    // layout name) and was swept as unreferenced.
    assert!(
        recovery.stale_files_removed > 0 || {
            // Already swept by the post-commit open inside ingest().
            !dir.join("p00000-a.g0.tlc").exists()
        }
    );
    reopened.store().verify().expect("clean");
    let _ = std::fs::remove_dir_all(&dir);
}
