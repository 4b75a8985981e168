//! Open-time recovery and verified partition reads.
//!
//! [`Store::open`] is the recovery state machine (DESIGN.md §13):
//!
//! 1. parse + digest-verify the manifest (the commit record);
//! 2. sweep `*.tmp` siblings (torn writes from a dead ingest) and
//!    `*.tlc` files the manifest does not name (stale generations from
//!    an interrupted compaction);
//! 3. scan every committed file against its manifest entry — missing
//!    or wrong-length files are **quarantined** (moved to
//!    `quarantine/`, never deleted: damaged data is evidence), and
//!    [`Store::open_deep`] additionally re-digests every file to catch
//!    bit rot with the manifest's whole-file FNV-1a.
//!
//! Reads go through [`Store::load_column`], which runs every check
//! once, in this order, quarantining on the first failure so a damaged
//! file is detected exactly once and recorded for the caller to heal
//! ([`Store::heal_column`]) or re-derive:
//!
//! 1. the file's length against the manifest (`TornLength`);
//! 2. the whole-file digest against the manifest (`Digest`);
//! 3. the stream parse (`Format`): structure, the trailing stream
//!    digest, deep validation, then the stored per-block checksums.
//!
//! One pass over the bytes hashes both digests (2 and 3's stream
//! digest), and the parse reads words in place from the buffer the
//! file was read into.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use tlc_core::{EncodedColumn, Limits};

use crate::ingest::{file_digest, load_digests};
use crate::manifest::{write_atomic, Manifest, MANIFEST_NAME};
use crate::StoreError;

/// Subdirectory damaged files are moved into.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Why a file was quarantined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DamageCause {
    /// The committed file is gone.
    Missing,
    /// On-disk length disagrees with the manifest (torn / truncated
    /// write).
    TornLength {
        /// Bytes the manifest committed.
        expected: u64,
        /// Bytes found.
        actual: u64,
    },
    /// Whole-file digest disagrees with the manifest (bit rot).
    Digest,
    /// The stream inside failed its own format validation.
    Format(tlc_core::serialize::FormatError),
}

/// One quarantined partition file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantined {
    /// Partition index.
    pub partition: usize,
    /// Column name.
    pub column: String,
    /// What was wrong.
    pub cause: DamageCause,
}

/// What open-time recovery found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Torn `*.tmp` writes deleted.
    pub tmp_files_removed: usize,
    /// Complete but unreferenced files (stale generations) deleted.
    pub stale_files_removed: usize,
    /// Damaged committed files moved to `quarantine/`.
    pub quarantined: Vec<Quarantined>,
}

impl RecoveryReport {
    /// True when recovery found nothing to do.
    pub fn is_clean(&self) -> bool {
        self.tmp_files_removed == 0 && self.stale_files_removed == 0 && self.quarantined.is_empty()
    }
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} torn tmp file(s) removed, {} stale file(s) swept, {} file(s) quarantined",
            self.tmp_files_removed,
            self.stale_files_removed,
            self.quarantined.len()
        )
    }
}

/// Totals from a full store verification walk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// Partitions walked.
    pub partitions: usize,
    /// Files verified (manifest length + digest + full stream parse).
    pub files: usize,
    /// Compressed bytes read: the committed file lengths, so headers,
    /// checksums and digest words included.
    pub bytes: u64,
    /// Rows covered.
    pub rows: u64,
}

/// An opened, recovered store. Concurrent readers share `&Store`;
/// the damage ledger is internally synchronized so worker threads can
/// quarantine independently.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    manifest: Manifest,
    damaged: Mutex<BTreeMap<(usize, usize), DamageCause>>,
    /// Per-`(partition, column)` change epochs, bumped on every
    /// quarantine and heal. [`crate::cache::PartitionCache`] compares
    /// a cached entry's epoch against this to invalidate entries that
    /// pre-date a quarantine/heal (hit-after-heal revalidation).
    epochs: Mutex<BTreeMap<(usize, usize), u64>>,
}

impl Store {
    pub(crate) fn from_parts(dir: PathBuf, manifest: Manifest) -> Self {
        Store {
            dir,
            manifest,
            damaged: Mutex::new(BTreeMap::new()),
            epochs: Mutex::new(BTreeMap::new()),
        }
    }

    /// Open with stat-level recovery: manifest digest check, torn/stale
    /// sweep, and existence + length scan of every committed file.
    pub fn open(dir: &Path) -> Result<(Self, RecoveryReport), StoreError> {
        Self::open_inner(dir, false)
    }

    /// [`Store::open`] plus a whole-file digest re-read of every
    /// committed file, catching bit rot that leaves lengths intact.
    pub fn open_deep(dir: &Path) -> Result<(Self, RecoveryReport), StoreError> {
        Self::open_inner(dir, true)
    }

    fn open_inner(dir: &Path, deep: bool) -> Result<(Self, RecoveryReport), StoreError> {
        let manifest_path = dir.join(MANIFEST_NAME);
        let bytes = std::fs::read(&manifest_path).map_err(|e| StoreError::Io {
            path: manifest_path.clone(),
            source: e,
        })?;
        let manifest = Manifest::from_bytes(&bytes)?;

        let mut report = RecoveryReport::default();
        let (tmp, stale) = sweep_unreferenced(dir, &manifest)?;
        report.tmp_files_removed = tmp;
        report.stale_files_removed = stale;

        let store = Store::from_parts(dir.to_path_buf(), manifest);
        for p in 0..store.manifest.partitions.len() {
            for (c, column) in store.manifest.columns.clone().iter().enumerate() {
                let entry = store.manifest.partitions[p].files[c];
                let path = store.path_of(p, column);
                let cause = match std::fs::metadata(&path) {
                    Err(_) => Some(DamageCause::Missing),
                    Ok(md) if md.len() != entry.bytes as u64 => Some(DamageCause::TornLength {
                        expected: entry.bytes as u64,
                        actual: md.len(),
                    }),
                    Ok(_) if deep => {
                        let file = std::fs::read(&path).map_err(|e| StoreError::Io {
                            path: path.clone(),
                            source: e,
                        })?;
                        (file_digest(&file) != entry.digest).then_some(DamageCause::Digest)
                    }
                    Ok(_) => None,
                };
                if let Some(cause) = cause {
                    store.quarantine(p, c, &path, cause.clone())?;
                    report.quarantined.push(Quarantined {
                        partition: p,
                        column: column.clone(),
                        cause,
                    });
                }
            }
        }
        Ok((store, report))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The committed manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.manifest.partitions.len()
    }

    /// Rows in partition `p`.
    pub fn rows(&self, p: usize) -> u64 {
        self.manifest.partitions[p].rows as u64
    }

    /// Committed compressed bytes of partition `p` across all columns.
    pub fn partition_bytes(&self, p: usize) -> u64 {
        self.manifest.partitions[p]
            .files
            .iter()
            .map(|f| f.bytes as u64)
            .sum()
    }

    /// On-disk path of one partition column file.
    pub fn path_of(&self, partition: usize, column: &str) -> PathBuf {
        self.dir.join(self.manifest.file_name(partition, column))
    }

    /// Damage ledger entry for one partition column, if any.
    pub fn damage(&self, partition: usize, column: &str) -> Option<DamageCause> {
        let c = self.manifest.column_index(column)?;
        self.damaged_lock().get(&(partition, c)).cloned()
    }

    /// Snapshot of the damage ledger as `(partition, column, cause)`
    /// triples in `(partition, column)` order — the work list a healing
    /// pass (e.g. `tlc-ssb`'s regenerate-and-heal) walks to bring a
    /// recovered store back to a clean verify.
    pub fn damaged_entries(&self) -> Vec<Quarantined> {
        self.damaged_lock()
            .iter()
            .map(|(&(partition, c), cause)| Quarantined {
                partition,
                column: self.manifest.columns[c].clone(),
                cause: cause.clone(),
            })
            .collect()
    }

    fn damaged_lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<(usize, usize), DamageCause>> {
        self.damaged.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Change epoch of one partition column: 0 until the file is first
    /// quarantined or healed, bumped by one on each such event. A
    /// cached copy of the file's bytes is only as fresh as the epoch
    /// it was read under.
    pub fn epoch(&self, partition: usize, column_idx: usize) -> u64 {
        self.epochs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&(partition, column_idx))
            .copied()
            .unwrap_or(0)
    }

    fn bump_epoch(&self, partition: usize, column_idx: usize) {
        *self
            .epochs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry((partition, column_idx))
            .or_insert(0) += 1;
    }

    /// Move a damaged file aside and record it in the ledger.
    fn quarantine(
        &self,
        partition: usize,
        column_idx: usize,
        path: &Path,
        cause: DamageCause,
    ) -> Result<(), StoreError> {
        if !matches!(cause, DamageCause::Missing) {
            let qdir = self.dir.join(QUARANTINE_DIR);
            std::fs::create_dir_all(&qdir).map_err(|e| StoreError::Io {
                path: qdir.clone(),
                source: e,
            })?;
            let dest = qdir.join(path.file_name().expect("store files have names"));
            // A second quarantine of the same name overwrites: the
            // freshest evidence wins.
            std::fs::rename(path, &dest).map_err(|e| StoreError::Io {
                path: path.to_path_buf(),
                source: e,
            })?;
        }
        self.damaged_lock().insert((partition, column_idx), cause);
        self.bump_epoch(partition, column_idx);
        Ok(())
    }

    fn damage_error(&self, partition: usize, column: &str, cause: &DamageCause) -> StoreError {
        match cause {
            DamageCause::Missing => StoreError::PartitionMissing {
                partition,
                column: column.to_string(),
                path: self.path_of(partition, column),
            },
            DamageCause::TornLength { expected, actual } => StoreError::PartitionLength {
                partition,
                column: column.to_string(),
                expected: *expected,
                actual: *actual,
            },
            DamageCause::Digest => StoreError::PartitionDigest {
                partition,
                column: column.to_string(),
            },
            DamageCause::Format(e) => StoreError::PartitionFormat {
                partition,
                column: column.to_string(),
                source: e.clone(),
            },
        }
    }

    /// Read, cross-check (manifest length + digest) and fully parse
    /// one partition column, each check once (module docs). Any damage
    /// quarantines the file, records it in the ledger, and surfaces as
    /// a typed error — a later call for the same file fails fast from
    /// the ledger.
    pub fn load_column(&self, partition: usize, column: &str) -> Result<EncodedColumn, StoreError> {
        let c = self
            .manifest
            .column_index(column)
            .ok_or_else(|| StoreError::UnknownColumn {
                column: column.to_string(),
            })?;
        if let Some(cause) = self.damaged_lock().get(&(partition, c)).cloned() {
            return Err(self.damage_error(partition, column, &cause));
        }
        let entry = self.manifest.partitions[partition].files[c];
        let path = self.path_of(partition, column);
        let bytes = match read_committed(&path, entry.bytes as u64) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.quarantine(partition, c, &path, DamageCause::Missing)?;
                return Err(self.damage_error(partition, column, &DamageCause::Missing));
            }
            Err(e) => return Err(StoreError::Io { path, source: e }),
        };
        if bytes.len() as u64 != entry.bytes as u64 {
            let cause = DamageCause::TornLength {
                expected: entry.bytes as u64,
                actual: bytes.len() as u64,
            };
            self.quarantine(partition, c, &path, cause.clone())?;
            return Err(self.damage_error(partition, column, &cause));
        }
        // One pass hashes both chains; the manifest's digest is compared
        // first, so damage is `Digest` before it can be `Format`.
        let (stream_digest, digest) = load_digests(&bytes);
        if digest != entry.digest {
            self.quarantine(partition, c, &path, DamageCause::Digest)?;
            return Err(self.damage_error(partition, column, &DamageCause::Digest));
        }
        match EncodedColumn::from_bytes_digested(&bytes, &Limits::default(), Some(stream_digest)) {
            Ok(col) => Ok(col),
            Err(e) => {
                let cause = DamageCause::Format(e);
                self.quarantine(partition, c, &path, cause.clone())?;
                Err(self.damage_error(partition, column, &cause))
            }
        }
    }

    /// Re-commit a regenerated column. The healed bytes must reproduce
    /// the manifest's committed length and digest exactly (regeneration
    /// is deterministic by construction in `tlc-ssb`); on success the
    /// file is rewritten atomically and the ledger entry cleared.
    pub fn heal_column(
        &self,
        partition: usize,
        column: &str,
        col: &EncodedColumn,
    ) -> Result<(), StoreError> {
        let c = self
            .manifest
            .column_index(column)
            .ok_or_else(|| StoreError::UnknownColumn {
                column: column.to_string(),
            })?;
        let entry = self.manifest.partitions[partition].files[c];
        let bytes = col.to_bytes();
        if bytes.len() as u64 != entry.bytes as u64 || file_digest(&bytes) != entry.digest {
            return Err(StoreError::HealMismatch {
                partition,
                column: column.to_string(),
            });
        }
        write_atomic(
            &self.dir,
            &self.manifest.file_name(partition, column),
            &bytes,
        )?;
        self.damaged_lock().remove(&(partition, c));
        // Healing changes the on-disk state (even though the bytes are
        // digest-identical): any cached copy read before the heal must
        // revalidate rather than assume it saw this file.
        self.bump_epoch(partition, c);
        Ok(())
    }

    /// Walk the whole store, fully verifying every partition column
    /// (manifest length + whole-file digest + stream parse with its
    /// per-block checksums). Fails fast on the first damaged file.
    pub fn verify(&self) -> Result<VerifyStats, StoreError> {
        let mut stats = VerifyStats {
            partitions: self.partition_count(),
            ..VerifyStats::default()
        };
        for p in 0..self.partition_count() {
            for column in &self.manifest.columns {
                self.load_column(p, column)?;
                stats.files += 1;
            }
            stats.bytes += self.partition_bytes(p);
            stats.rows += self.rows(p);
        }
        Ok(stats)
    }
}

/// Read a committed partition file of known size with positioned
/// reads (`pread`) into an exactly-sized buffer — the std stand-in
/// for an mmap-backed read in this dependency-free workspace: the
/// kernel pages the file straight into the destination with no
/// intermediate growable heap buffer and no over-allocation, which is
/// what matters when cold-streaming a 500 M-row flight. The file is
/// stat'd first so a torn write is detected without reading it; a
/// file that shrinks between stat and read comes back short and fails
/// the caller's length check the same way.
///
/// Only the happy path is positioned: a file whose size already
/// disagrees with the manifest is read whole (rare, and the bytes are
/// evidence that goes to quarantine).
fn read_committed(path: &Path, expected: u64) -> std::io::Result<Vec<u8>> {
    let file = std::fs::File::open(path)?;
    let len = file.metadata()?.len();
    if len != expected {
        drop(file);
        return std::fs::read(path);
    }
    let mut buf = vec![0u8; expected as usize];
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        let mut filled = 0usize;
        while filled < buf.len() {
            let n = file.read_at(&mut buf[filled..], filled as u64)?;
            if n == 0 {
                break; // shrank underneath us: surface as short
            }
            filled += n;
        }
        buf.truncate(filled);
    }
    #[cfg(not(unix))]
    {
        use std::io::Read;
        let mut file = file;
        let mut filled = 0usize;
        loop {
            let n = file.read(&mut buf[filled..])?;
            if n == 0 || filled + n == buf.len() {
                filled += n;
                break;
            }
            filled += n;
        }
        buf.truncate(filled);
    }
    Ok(buf)
}

/// Sweep torn `*.tmp` files and committed-format files the manifest
/// does not reference (stale generations). Returns
/// `(tmp_removed, stale_removed)`. Shared by [`Store::open`] and
/// [`crate::ingest::compact`].
pub(crate) fn sweep_unreferenced(
    dir: &Path,
    manifest: &Manifest,
) -> Result<(usize, usize), StoreError> {
    let referenced: std::collections::BTreeSet<String> = (0..manifest.partitions.len())
        .flat_map(|p| {
            manifest
                .columns
                .iter()
                .map(move |c| manifest.file_name(p, c))
        })
        .collect();
    let mut tmp = 0usize;
    let mut stale = 0usize;
    let entries = std::fs::read_dir(dir).map_err(|e| StoreError::Io {
        path: dir.to_path_buf(),
        source: e,
    })?;
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::Io {
            path: dir.to_path_buf(),
            source: e,
        })?;
        if entry.file_type().map(|t| t.is_dir()).unwrap_or(false) {
            continue; // quarantine/ and friends
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        let remove = if name.ends_with(".tmp") {
            tmp += 1;
            true
        } else if name.ends_with(".tlc") && !referenced.contains(&name) {
            stale += 1;
            true
        } else {
            false
        };
        if remove {
            std::fs::remove_file(entry.path()).map_err(|e| StoreError::Io {
                path: entry.path(),
                source: e,
            })?;
        }
    }
    Ok((tmp, stale))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::damage;
    use crate::ingest::{compact, Ingest};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tlc_store_test_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn values(partition: usize, n: usize) -> Vec<i32> {
        (0..n as i32).map(|i| i / 9 + partition as i32).collect()
    }

    fn build(dir: &Path, partitions: usize, rows: usize) -> Store {
        let mut ing = Ingest::create(dir, &["alpha", "beta"]).expect("create");
        ing.set_meta("demo.key", 42);
        for p in 0..partitions {
            let a = EncodedColumn::encode_best(&values(p, rows));
            let b = EncodedColumn::encode_best(
                &values(p, rows).iter().map(|v| v * 3).collect::<Vec<_>>(),
            );
            ing.append_partition(&[a, b]).expect("append");
        }
        ing.commit().expect("commit")
    }

    #[test]
    fn ingest_open_load_roundtrip() {
        let dir = tmp_dir("roundtrip");
        build(&dir, 3, 700);
        let (store, report) = Store::open_deep(&dir).expect("open");
        assert!(report.is_clean(), "{report}");
        assert_eq!(store.partition_count(), 3);
        assert_eq!(store.manifest().total_rows, 2100);
        assert_eq!(store.manifest().meta_u64("demo.key"), Some(42));
        for p in 0..3 {
            let col = store.load_column(p, "alpha").expect("load");
            assert_eq!(col.decode_cpu(), values(p, 700));
        }
        assert!(matches!(
            store.load_column(0, "nope"),
            Err(StoreError::UnknownColumn { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tmp_and_stale_files_are_swept_at_open() {
        let dir = tmp_dir("sweep");
        build(&dir, 2, 300);
        std::fs::write(dir.join("p00000-alpha.g0.tlc.tmp"), b"torn").expect("write");
        std::fs::write(dir.join("p00099-alpha.g9.tlc"), b"stale generation").expect("write");
        let (_, report) = Store::open(&dir).expect("open");
        assert_eq!(report.tmp_files_removed, 1);
        assert_eq!(report.stale_files_removed, 1);
        assert!(report.quarantined.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_is_quarantined_at_open() {
        let dir = tmp_dir("trunc");
        let store = build(&dir, 2, 500);
        let path = store.path_of(1, "beta");
        let len = std::fs::metadata(&path).expect("md").len();
        damage::truncate_at(&path, len / 2).expect("truncate");
        let (store, report) = Store::open(&dir).expect("open");
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].partition, 1);
        assert_eq!(report.quarantined[0].column, "beta");
        assert!(matches!(
            report.quarantined[0].cause,
            DamageCause::TornLength { .. }
        ));
        assert!(dir.join(QUARANTINE_DIR).exists());
        assert!(matches!(
            store.load_column(1, "beta"),
            Err(StoreError::PartitionLength { .. })
        ));
        // The other files still read fine.
        store.load_column(0, "beta").expect("clean partition");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_rot_is_caught_by_deep_open_and_by_load() {
        let dir = tmp_dir("rot");
        let store = build(&dir, 2, 500);
        damage::flip_bit(&store.path_of(0, "alpha"), 8 * 40 + 3).expect("flip");
        // Shallow open: lengths intact, nothing quarantined yet.
        let (store, report) = Store::open(&dir).expect("open");
        assert!(report.quarantined.is_empty());
        // ...but the read path catches it.
        assert!(matches!(
            store.load_column(0, "alpha"),
            Err(StoreError::PartitionDigest { .. })
        ));
        // Ledger remembers (the file is in quarantine now; the error
        // stays the original digest classification, not Missing).
        assert!(matches!(
            store.load_column(0, "alpha"),
            Err(StoreError::PartitionDigest { .. })
        ));
        // Deep open catches fresh bit rot up front.
        damage::flip_bit(&store.path_of(1, "beta"), 77).expect("flip");
        let (_, report) = Store::open_deep(&dir).expect("open");
        let digested: Vec<_> = report
            .quarantined
            .iter()
            .filter(|q| q.cause == DamageCause::Digest)
            .collect();
        assert_eq!(digested.len(), 1);
        assert_eq!(
            (digested[0].partition, digested[0].column.as_str()),
            (1, "beta")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Commit `clean` as a one-column store, rewrite its file as
    /// `bytes`, optionally re-fix the manifest to match (length and
    /// digest, so only the stream parse can object), then load it.
    /// Returns the load's error and the ledger's cause; a damaged file
    /// must have moved to `quarantine/`.
    fn load_rewritten(
        name: &str,
        clean: tlc_core::GpuFor,
        bytes: &[u8],
        refix_manifest: bool,
    ) -> (StoreError, Option<DamageCause>) {
        let dir = tmp_dir(name);
        let mut ing = Ingest::create(&dir, &["vals"]).expect("create");
        ing.append_partition(&[EncodedColumn::For(clean)])
            .expect("append");
        let mut store = ing.commit().expect("commit");
        let path = store.path_of(0, "vals");
        std::fs::write(&path, bytes).expect("rewrite");
        if refix_manifest {
            let mut manifest = store.manifest().clone();
            manifest.partitions[0].files[0] = crate::manifest::FileEntry {
                bytes: bytes.len() as u32,
                digest: file_digest(bytes),
            };
            manifest.commit(&dir).expect("re-fix the manifest");
            store = Store::open(&dir).expect("open").0;
        }
        let err = store.load_column(0, "vals").expect_err(name);
        let moved = dir
            .join(QUARANTINE_DIR)
            .join(path.file_name().expect("named"));
        assert!(!path.exists() && moved.exists(), "{name}: not quarantined");
        let cause = store.damage(0, "vals");
        let _ = std::fs::remove_dir_all(&dir);
        (err, cause)
    }

    #[test]
    fn the_load_path_runs_every_inner_check() {
        use tlc_core::checksum::fnv1a;
        use tlc_core::format::Layout;
        use tlc_core::serialize::FormatError;
        use tlc_core::GpuFor;

        let col = GpuFor::encode_with_layout(&values(0, 700), Layout::Horizontal);
        let mut words: Vec<u32> = col
            .to_bytes()
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        let as_bytes =
            |words: &[u32]| -> Vec<u8> { words.iter().flat_map(|w| w.to_le_bytes()).collect() };
        // [magic][scheme][count][len][block_starts..][len][data..]; block
        // 0's first payload word follows its reference and width words.
        let data = 5 + col.block_starts.len();
        words[data + 2] ^= 1 << 3;
        let flipped = as_bytes(&words);
        let n = words.len();
        words[n - 1] = fnv1a(&words[..n - 1]);
        let resigned = as_bytes(&words);
        let mut bad = col.clone();
        bad.data[2] ^= 1 << 3;
        bad.data[1] = (bad.data[1] & !0xFF) | 33;
        let cases = [
            // The flip alone: the trailing stream digest catches it.
            ("inner_stream", flipped.clone(), FormatError::StreamChecksum),
            // Stream digest re-fixed: the stored block sum catches it.
            (
                "inner_sums",
                resigned,
                FormatError::ChecksumMismatch { block: 0 },
            ),
            // Both re-fixed plus a 33-bit width: only validation is left.
            (
                "inner_width",
                bad.to_bytes(),
                FormatError::BadBlock {
                    block: 0,
                    reason: "miniblock width > 32",
                },
            ),
        ];
        for (name, bytes, want) in cases {
            match load_rewritten(name, col.clone(), &bytes, true) {
                (StoreError::PartitionFormat { source, .. }, Some(DamageCause::Format(cause))) => {
                    assert_eq!((&source, &cause), (&want, &want), "{name}");
                }
                other => panic!("{name}: want Format({want:?}), got {other:?}"),
            }
        }
        // Without a re-fixed manifest the flip is the file digest's.
        let (err, cause) = load_rewritten("inner_digest", col, &flipped, false);
        assert!(matches!(err, StoreError::PartitionDigest { .. }), "{err:?}");
        assert_eq!(cause, Some(DamageCause::Digest));
    }

    #[test]
    fn heal_restores_a_quarantined_column() {
        let dir = tmp_dir("heal");
        let store = build(&dir, 2, 400);
        let path = store.path_of(1, "alpha");
        let len = std::fs::metadata(&path).expect("md").len();
        damage::truncate_at(&path, len - 1).expect("truncate");
        let (store, _) = Store::open(&dir).expect("open");
        assert!(store.load_column(1, "alpha").is_err());
        // Wrong data refuses to commit.
        let wrong = EncodedColumn::encode_best(&values(0, 400));
        assert!(matches!(
            store.heal_column(1, "alpha", &wrong),
            Err(StoreError::HealMismatch { .. })
        ));
        // The exact regeneration heals.
        let right = EncodedColumn::encode_best(&values(1, 400));
        store.heal_column(1, "alpha", &right).expect("heal");
        assert_eq!(
            store.load_column(1, "alpha").expect("load").decode_cpu(),
            values(1, 400)
        );
        assert!(store.damaged_entries().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_walks_everything_and_fails_fast_on_damage() {
        let dir = tmp_dir("verify");
        let store = build(&dir, 3, 200);
        let stats = store.verify().expect("clean store verifies");
        assert_eq!(stats.partitions, 3);
        assert_eq!(stats.files, 6);
        assert_eq!(stats.rows, 600);
        let path = store.path_of(2, "beta");
        damage::flip_bit(&path, 65).expect("flip");
        let (store, _) = Store::open(&dir).expect("open");
        assert!(store.verify().is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_merges_and_sweeps_the_old_generation() {
        let dir = tmp_dir("compact");
        build(&dir, 4, 300);
        let (store, report) = compact(&dir, 2, |meta| {
            if let Some(e) = meta.iter_mut().find(|(k, _)| k == "demo.key") {
                e.1 *= 2;
            }
        })
        .expect("compact");
        assert_eq!(report.partitions_before, 4);
        assert_eq!(report.partitions_after, 2);
        assert_eq!(report.stale_files_removed, 8);
        assert_eq!(store.manifest().generation, 1);
        assert_eq!(store.manifest().meta_u64("demo.key"), Some(84));
        assert_eq!(store.manifest().total_rows, 1200);
        // Merged content is the concatenation of the old partitions.
        let merged = store.load_column(0, "alpha").expect("load").decode_cpu();
        let mut expect = values(0, 300);
        expect.extend(values(1, 300));
        assert_eq!(merged, expect);
        // A re-open after compaction is clean.
        let (_, rep) = Store::open_deep(&dir).expect("open");
        assert!(rep.is_clean(), "{rep}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
