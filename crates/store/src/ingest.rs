//! Ingest pipeline and compaction.
//!
//! [`Ingest`] streams fixed-size partitions into a store directory:
//! every partition column file is written crash-safely (temp + atomic
//! rename), and nothing is *committed* until [`Ingest::commit`]
//! atomically renames the manifest into place. A crash at any earlier
//! point leaves either `.tmp` siblings or complete-but-unreferenced
//! files — both states that [`crate::Store::open`] cleans up.
//!
//! [`compact`] re-chunks a store by merging groups of adjacent
//! partitions into larger ones. New files carry a bumped generation
//! tag in their names so they can never collide with the live
//! generation; the new manifest's rename is again the single commit
//! point, after which the previous generation's files are unreferenced
//! garbage and are swept (by `compact` itself, or by the next `open`
//! if the process dies first).

use std::path::{Path, PathBuf};

use tlc_core::checksum::{fnv1a_continue_le, stream_and_file_digests};
use tlc_core::EncodedColumn;

use crate::manifest::{file_name, write_atomic, FileEntry, Manifest, PartitionEntry};
use crate::store::Store;
use crate::StoreError;

/// Offset basis for whole-file digests. Deliberately NOT the standard
/// FNV offset: a serialized column ends with its own stream-digest
/// word, which equals the running FNV state at that point, so under
/// the standard basis every valid stream would fold to
/// `(h ^ h) * prime = 0` — detecting damage but not substitution. A
/// distinct basis keeps the whole-file digest discriminating, which
/// [`crate::Store::heal_column`] relies on to prove a regenerated
/// column is byte-identical to the committed one.
const FILE_DIGEST_BASIS: u32 = 0x5EED_F11E;

/// FNV-1a digest over a file's little-endian words, read in place
/// (store files are always word streams; a non-multiple-of-4 length is
/// torn and is caught by the length check before any digest
/// comparison).
pub fn file_digest(bytes: &[u8]) -> u32 {
    fnv1a_continue_le(FILE_DIGEST_BASIS, bytes)
}

/// `(stream digest, file digest)` of a stored column in one pass: the
/// stream digest is what [`EncodedColumn::from_bytes_digested`] takes,
/// the file digest is [`file_digest`].
pub(crate) fn load_digests(bytes: &[u8]) -> (u32, u32) {
    stream_and_file_digests(bytes, FILE_DIGEST_BASIS)
}

/// Streaming store builder. Append partitions, then [`commit`].
///
/// [`commit`]: Ingest::commit
#[derive(Debug)]
pub struct Ingest {
    dir: PathBuf,
    generation: u64,
    columns: Vec<String>,
    meta: Vec<(String, u64)>,
    partitions: Vec<PartitionEntry>,
    total_rows: u64,
}

impl Ingest {
    /// Start a generation-0 ingest into `dir` (created if missing)
    /// with the given column layout.
    pub fn create(dir: &Path, columns: &[&str]) -> Result<Self, StoreError> {
        Self::create_generation(dir, columns, 0)
    }

    /// Start an ingest at an explicit generation (compaction uses the
    /// next generation so old and new files never share names).
    pub fn create_generation(
        dir: &Path,
        columns: &[&str],
        generation: u64,
    ) -> Result<Self, StoreError> {
        std::fs::create_dir_all(dir).map_err(|e| StoreError::Io {
            path: dir.to_path_buf(),
            source: e,
        })?;
        assert!(!columns.is_empty(), "a store needs at least one column");
        Ok(Ingest {
            dir: dir.to_path_buf(),
            generation,
            columns: columns.iter().map(|c| c.to_string()).collect(),
            meta: Vec::new(),
            partitions: Vec::new(),
            total_rows: 0,
        })
    }

    /// Record an application metadata entry (kept in the manifest).
    pub fn set_meta(&mut self, key: &str, value: u64) {
        if let Some(e) = self.meta.iter_mut().find(|(k, _)| k == key) {
            e.1 = value;
        } else {
            self.meta.push((key.to_string(), value));
        }
    }

    /// Write one partition: `cols` are the encoded columns in layout
    /// order (all with the same row count). Each file is written
    /// atomically; the partition only becomes live at [`commit`].
    ///
    /// [`commit`]: Ingest::commit
    pub fn append_partition(&mut self, cols: &[EncodedColumn]) -> Result<usize, StoreError> {
        assert_eq!(cols.len(), self.columns.len(), "column layout mismatch");
        let rows = cols[0].total_count();
        assert!(
            cols.iter().all(|c| c.total_count() == rows),
            "partition columns disagree on row count"
        );
        let partition = self.partitions.len();
        let mut files = Vec::with_capacity(cols.len());
        for (col, name) in cols.iter().zip(&self.columns) {
            let bytes = col.to_bytes();
            files.push(FileEntry {
                bytes: bytes.len() as u32,
                digest: file_digest(&bytes),
            });
            write_atomic(
                &self.dir,
                &file_name(self.generation, partition, name),
                &bytes,
            )?;
        }
        self.partitions.push(PartitionEntry {
            rows: rows as u32,
            files,
        });
        self.total_rows += rows as u64;
        Ok(partition)
    }

    /// Commit: atomically rename the manifest into place, making every
    /// appended partition live, and return the opened store.
    pub fn commit(self) -> Result<Store, StoreError> {
        let manifest = Manifest {
            generation: self.generation,
            total_rows: self.total_rows,
            columns: self.columns,
            meta: self.meta,
            partitions: self.partitions,
        };
        manifest.commit(&self.dir)?;
        Ok(Store::from_parts(self.dir, manifest))
    }
}

/// What compaction did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactReport {
    /// Partitions before.
    pub partitions_before: usize,
    /// Partitions after merging.
    pub partitions_after: usize,
    /// Compressed bytes before.
    pub bytes_before: u64,
    /// Compressed bytes after re-encoding the merged partitions.
    pub bytes_after: u64,
    /// Previous-generation files swept after the commit.
    pub stale_files_removed: usize,
}

/// Merge groups of `merge` adjacent partitions into single partitions,
/// re-encoding each merged column (larger partitions amortize per-tile
/// metadata, and re-encoding picks the best scheme for the merged
/// shape). `meta_update` may rewrite the manifest metadata before the
/// commit — `tlc-ssb` uses it to keep its regeneration mapping in step
/// with the new chunk grouping.
///
/// Crash-safe: new files carry generation `g+1` names; the new
/// manifest's atomic rename is the commit point; stale generation-`g`
/// files are swept afterwards (or by the next [`Store::open`]).
pub fn compact(
    dir: &Path,
    merge: usize,
    meta_update: impl FnOnce(&mut Vec<(String, u64)>),
) -> Result<(Store, CompactReport), StoreError> {
    assert!(merge >= 1);
    let (store, _) = Store::open(dir)?;
    let old = store.manifest().clone();
    let bytes_before: u64 = old
        .partitions
        .iter()
        .flat_map(|p| p.files.iter())
        .map(|f| f.bytes as u64)
        .sum();

    let columns: Vec<&str> = old.columns.iter().map(String::as_str).collect();
    let mut ingest = Ingest::create_generation(dir, &columns, old.generation + 1)?;
    let mut meta = old.meta.clone();
    meta_update(&mut meta);
    for (k, v) in &meta {
        ingest.set_meta(k, *v);
    }

    for group in (0..old.partitions.len()).collect::<Vec<_>>().chunks(merge) {
        let mut merged: Vec<EncodedColumn> = Vec::with_capacity(old.columns.len());
        for name in &old.columns {
            let mut values: Vec<i32> = Vec::new();
            for &p in group {
                values.extend(store.load_column(p, name)?.decode_cpu());
            }
            merged.push(EncodedColumn::encode_best(&values));
        }
        ingest.append_partition(&merged)?;
    }
    let new_store = ingest.commit()?;
    let stale = crate::store::sweep_unreferenced(dir, new_store.manifest())?;
    let bytes_after: u64 = new_store
        .manifest()
        .partitions
        .iter()
        .flat_map(|p| p.files.iter())
        .map(|f| f.bytes as u64)
        .sum();
    let report = CompactReport {
        partitions_before: old.partitions.len(),
        partitions_after: new_store.manifest().partitions.len(),
        bytes_before,
        bytes_after,
        stale_files_removed: stale.1,
    };
    Ok((new_store, report))
}
