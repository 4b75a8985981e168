//! On-disk serialization and structural validation of the encoded
//! formats.
//!
//! A downstream system persists compressed columns and ships them to
//! the GPU verbatim, so the wire format matters: each column serializes
//! to a little-endian word stream with a magic tag, a scheme id, and
//! the arrays of its format (paper Figures 3 and 6). Each scheme has
//! one writer (`to_bytes`) and one parse entry,
//! [`EncodedColumn::from_bytes`], which dispatches on the scheme tag and
//! validates structure (monotone block starts, in-range widths,
//! consistent lengths) before constructing a column, so corrupted input
//! is rejected instead of decoded into garbage.
//!
//! Format minor version 1 appends the per-block FNV-1a checksum array
//! of [`crate::checksum`] and a trailing whole-stream digest word. The
//! digest makes *every* single-byte change to a serialized column
//! detectable (the FNV mix step is bijective per word), and the
//! per-block array rides along to the device so decode kernels can
//! verify staged tiles. Minor version 0 streams (no checksums) are
//! still read, never written.
//!
//! Format minor version 2 marks the payload as lane-transposed
//! ([`crate::format::Layout::Vertical`]); the field layout is identical
//! to minor 1 — only the bit arrangement inside block payloads differs.
//! The writer emits minor 2 exactly when the column is vertical, so
//! horizontal columns keep producing byte-identical minor-1 streams.
//!
//! A parse reads words in place from the borrowed bytes; copying each
//! array into the column is the only copy it makes. `from_bytes` hashes
//! the stream digest itself. [`EncodedColumn::from_bytes_digested`] is
//! the same parse for a caller that already hashed these bytes (the
//! store's load path), and takes that digest instead.

use std::fmt;

use crate::block::check_widths;
use crate::checksum::{fnv1a, fnv1a_continue_le, le_word, FNV_OFFSET};
use crate::column::EncodedColumn;
use crate::format::{Layout, BLOCK, BLOCK_HEADER_WORDS, RFOR_BLOCK};
use crate::gpu_dfor::{GpuDFor, TileGeometry};
use crate::gpu_for::GpuFor;
use crate::gpu_rfor::GpuRFor;
use crate::validate::Limits;
use crate::Scheme;

/// Magic word at the head of every serialized column ("TLC1").
pub const MAGIC: u32 = 0x544C_4331;

/// Newest format minor version this reader accepts: the low byte of
/// the scheme word is the scheme id, the high bytes the minor version.
/// Minor 1 adds per-block checksums and a trailing whole-stream digest;
/// minor 2 marks a lane-transposed (vertical) payload. The writer
/// stamps each stream with the *lowest* minor that can represent it
/// (1 for horizontal columns, 2 for vertical), and minor 0 (no
/// checksums) is still read but never written.
pub const FORMAT_MINOR: u32 = 2;

/// The minor version a column's layout requires on the wire.
fn wire_minor(layout: Layout) -> u32 {
    match layout {
        Layout::Horizontal => 1,
        Layout::Vertical => 2,
    }
}

/// The payload layout a stream's minor version declares.
fn layout_for_minor(minor: u32) -> Layout {
    if minor >= 2 {
        Layout::Vertical
    } else {
        Layout::Horizontal
    }
}

/// Why a byte stream was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// Not long enough to hold the fixed header.
    Truncated,
    /// Magic word mismatch.
    BadMagic(u32),
    /// Unknown scheme id.
    UnknownScheme(u32),
    /// Array lengths in the header exceed the payload.
    LengthMismatch {
        /// What the header promised, in words.
        expected_words: usize,
        /// What the payload holds, in words.
        actual_words: usize,
    },
    /// `block_starts` is not strictly within bounds / monotone.
    BadBlockStarts(usize),
    /// A block's miniblock widths exceed 32 bits or overrun the block.
    BadBlock {
        /// Index of the offending block.
        block: usize,
        /// Human-readable reason.
        reason: &'static str,
    },
    /// The logical count disagrees with the block structure.
    BadCount {
        /// Logical count from the header.
        count: usize,
        /// Number of blocks found.
        blocks: usize,
    },
    /// The stream declares a minor version newer than this reader.
    UnsupportedVersion(u32),
    /// A stored per-block checksum disagrees with the payload.
    ChecksumMismatch {
        /// Index of the first mismatching block.
        block: usize,
    },
    /// The trailing whole-stream digest disagrees with the bytes: the
    /// stream was altered after serialization.
    StreamChecksum,
    /// Words remain after the last field of the format.
    TrailingGarbage {
        /// How many unconsumed words follow the format.
        extra_words: usize,
    },
    /// The stream declares a resource demand past the configured
    /// [`crate::validate::Limits`] — it may be internally consistent
    /// (even correctly checksummed), but decoding it would allocate or
    /// work beyond what the trust boundary allows.
    CapExceeded {
        /// Which resource bound was violated.
        what: &'static str,
        /// What the stream demands.
        requested: u64,
        /// The configured cap.
        cap: u64,
    },
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::Truncated => write!(f, "byte stream too short for header"),
            FormatError::BadMagic(m) => write!(f, "bad magic 0x{m:08X}"),
            FormatError::UnknownScheme(s) => write!(f, "unknown scheme id {s}"),
            FormatError::LengthMismatch {
                expected_words,
                actual_words,
            } => write!(
                f,
                "header promises {expected_words} words, payload has {actual_words}"
            ),
            FormatError::BadBlockStarts(i) => write!(f, "block_starts[{i}] out of order/bounds"),
            FormatError::BadBlock { block, reason } => write!(f, "block {block}: {reason}"),
            FormatError::BadCount { count, blocks } => {
                write!(f, "count {count} inconsistent with {blocks} blocks")
            }
            FormatError::UnsupportedVersion(v) => {
                write!(f, "format minor version {v} is newer than this reader")
            }
            FormatError::ChecksumMismatch { block } => {
                write!(
                    f,
                    "stored checksum for block {block} disagrees with the payload"
                )
            }
            FormatError::StreamChecksum => {
                write!(
                    f,
                    "whole-stream digest mismatch: bytes were altered after serialization"
                )
            }
            FormatError::TrailingGarbage { extra_words } => {
                write!(
                    f,
                    "{extra_words} unconsumed words after the end of the format"
                )
            }
            FormatError::CapExceeded {
                what,
                requested,
                cap,
            } => {
                write!(
                    f,
                    "hostile stream rejected: {what} of {requested} exceeds the cap of {cap}"
                )
            }
        }
    }
}

impl std::error::Error for FormatError {}

fn scheme_id(s: Scheme) -> u32 {
    match s {
        Scheme::GpuFor => 1,
        Scheme::GpuDFor => 2,
        Scheme::GpuRFor => 3,
    }
}

struct Writer {
    words: Vec<u32>,
}

impl Writer {
    /// Start a stream stamped with the minor `layout` requires.
    fn new(scheme: Scheme, layout: Layout) -> Self {
        Writer {
            words: vec![MAGIC, scheme_id(scheme) | (wire_minor(layout) << 8)],
        }
    }

    fn word(&mut self, w: u32) -> &mut Self {
        self.words.push(w);
        self
    }

    fn array(&mut self, a: &[u32]) -> &mut Self {
        self.words.push(a.len() as u32);
        self.words.extend_from_slice(a);
        self
    }

    /// Append the whole-stream digest word and serialize.
    fn finish(mut self) -> Vec<u8> {
        let digest = fnv1a(&self.words);
        self.words.push(digest);
        let mut out = Vec::with_capacity(self.words.len() * 4);
        for w in self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }
}

/// Reads words in place from the borrowed stream: [`Reader::array`]
/// is the only copy a parse makes.
struct Reader<'a> {
    bytes: &'a [u8],
    /// Next word to read.
    pos: usize,
    /// The stream digest ([`fnv1a`] over every word but the last), when
    /// the caller already computed it over these bytes.
    stream_digest: Option<u32>,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8], stream_digest: Option<u32>) -> Result<Self, FormatError> {
        if !bytes.len().is_multiple_of(4) || bytes.len() < 8 {
            return Err(FormatError::Truncated);
        }
        Ok(Reader {
            bytes,
            pos: 0,
            stream_digest,
        })
    }

    /// Words in the stream.
    fn len(&self) -> usize {
        self.bytes.len() / 4
    }

    fn word(&mut self) -> Result<u32, FormatError> {
        let c = self
            .bytes
            .get(4 * self.pos..4 * self.pos + 4)
            .ok_or(FormatError::Truncated)?;
        self.pos += 1;
        Ok(le_word(c))
    }

    fn array(&mut self) -> Result<Vec<u32>, FormatError> {
        let len = self.word()? as usize;
        let left = self.len() - self.pos;
        if len > left {
            return Err(FormatError::LengthMismatch {
                expected_words: len,
                actual_words: left,
            });
        }
        let a = self.bytes[4 * self.pos..4 * (self.pos + len)]
            .chunks_exact(4)
            .map(le_word)
            .collect();
        self.pos += len;
        Ok(a)
    }

    /// Minor >= 1 tail: read the stored per-block checksum array and
    /// the trailing digest, require full consumption, and verify the
    /// digest over everything before it (hashed here unless the caller
    /// passed it in). Returns the stored checksums.
    fn verified_tail(&mut self) -> Result<Vec<u32>, FormatError> {
        let stored = self.array()?;
        let trailing = self.word()?;
        if self.pos != self.len() {
            return Err(FormatError::TrailingGarbage {
                extra_words: self.len() - self.pos,
            });
        }
        let digest = self
            .stream_digest
            .unwrap_or_else(|| fnv1a_continue_le(FNV_OFFSET, &self.bytes[..self.bytes.len() - 4]));
        if digest != trailing {
            return Err(FormatError::StreamChecksum);
        }
        Ok(stored)
    }
}

/// Compare stored per-block checksums against the derived ones.
fn check_block_sums(stored: &[u32], derived: &[u32]) -> Result<(), FormatError> {
    if stored.len() != derived.len() {
        return Err(FormatError::ChecksumMismatch {
            block: stored.len().min(derived.len()),
        });
    }
    for (block, (s, d)) in stored.iter().zip(derived).enumerate() {
        if s != d {
            return Err(FormatError::ChecksumMismatch { block });
        }
    }
    Ok(())
}

/// Validate a GPU-FOR `(block_starts, data)` pair, where each block is
/// `[ref][bw word][miniblocks]` and covers exactly its own words.
fn validate_for_layout(block_starts: &[u32], data: &[u32]) -> Result<(), FormatError> {
    match block_starts.last() {
        None => return Err(FormatError::BadBlockStarts(0)),
        Some(&last) if last as usize != data.len() => {
            return Err(FormatError::BadBlockStarts(block_starts.len() - 1));
        }
        Some(_) => {}
    }
    for (i, w) in block_starts.windows(2).enumerate() {
        if w[1] < w[0] || w[1] as usize > data.len() {
            return Err(FormatError::BadBlockStarts(i + 1));
        }
        check_widths(&data[w[0] as usize..w[1] as usize]).map_err(|e| e.format_error(i))?;
    }
    Ok(())
}

impl GpuFor {
    /// Structural validation (cheap; no decode).
    pub fn validate(&self) -> Result<(), FormatError> {
        validate_for_layout(&self.block_starts, &self.data)?;
        let blocks = self.block_starts.len() - 1;
        if self.total_count > blocks * BLOCK
            || (blocks > 0 && self.total_count <= (blocks - 1) * BLOCK)
        {
            return Err(FormatError::BadCount {
                count: self.total_count,
                blocks,
            });
        }
        Ok(())
    }

    /// Serialize to a self-describing little-endian byte stream
    /// (minor 1 for horizontal columns, minor 2 for vertical).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(Scheme::GpuFor, self.layout);
        w.word(self.total_count as u32);
        w.array(&self.block_starts);
        w.array(&self.data);
        w.array(&self.block_checksums());
        w.finish()
    }

    /// The body after [`read_header`]: every field, the verified tail,
    /// deep validation, then the stored block sums against the payload.
    fn parse(minor: u32, mut r: Reader<'_>, limits: &Limits) -> Result<Self, FormatError> {
        let total_count = r.word()? as usize;
        limits.check_values(total_count)?;
        let block_starts = r.array()?;
        let data = r.array()?;
        let stored_sums = if minor >= 1 {
            Some(r.verified_tail()?)
        } else {
            None
        };
        let col = GpuFor {
            total_count,
            block_starts,
            data,
            layout: layout_for_minor(minor),
        };
        col.validate_deep(limits)?;
        if let Some(sums) = stored_sums {
            check_block_sums(&sums, &col.block_checksums())?;
        }
        Ok(col)
    }
}

impl GpuDFor {
    /// Structural validation (cheap; no decode): every block's cover
    /// (`TileGeometry`) lies in `data` and its declared widths fill
    /// it.
    pub fn validate(&self) -> Result<(), FormatError> {
        let geometry = TileGeometry::new(self.d, &self.block_starts, self.data.len())?;
        for (b, w) in self.block_starts.windows(2).enumerate() {
            let (_, end) = geometry
                .cover(b, w[0], w[1])
                .map_err(|head| FormatError::BadBlock {
                    block: head,
                    reason: "no first-value word",
                })?;
            let start = w[0] as usize;
            if end < start + BLOCK_HEADER_WORDS || end > self.data.len() {
                return Err(FormatError::BadBlock {
                    block: b,
                    reason: "bad block bounds",
                });
            }
            check_widths(&self.data[start..end]).map_err(|e| e.format_error(b))?;
        }
        Ok(())
    }

    /// Serialize to a self-describing little-endian byte stream
    /// (minor 1 for horizontal columns, minor 2 for vertical).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(Scheme::GpuDFor, self.layout);
        w.word(self.total_count as u32);
        w.word(self.d as u32);
        w.array(&self.block_starts);
        w.array(&self.data);
        w.array(&self.block_checksums());
        w.finish()
    }

    /// The body after [`read_header`]; see [`GpuFor::parse`].
    fn parse(minor: u32, mut r: Reader<'_>, limits: &Limits) -> Result<Self, FormatError> {
        let total_count = r.word()? as usize;
        limits.check_values(total_count)?;
        let d = r.word()? as usize;
        let block_starts = r.array()?;
        let data = r.array()?;
        let stored_sums = if minor >= 1 {
            Some(r.verified_tail()?)
        } else {
            None
        };
        let col = GpuDFor {
            total_count,
            d,
            block_starts,
            data,
            layout: layout_for_minor(minor),
        };
        col.validate_deep(limits)?;
        if let Some(sums) = stored_sums {
            check_block_sums(&sums, &col.block_checksums())?;
        }
        Ok(col)
    }
}

impl GpuRFor {
    /// Structural validation (cheap; no full decode).
    pub fn validate(&self) -> Result<(), FormatError> {
        let blocks = self.blocks();
        if self.lengths_starts.len() != self.values_starts.len() {
            return Err(FormatError::BadBlockStarts(self.lengths_starts.len()));
        }
        for (starts, data) in [
            (&self.values_starts, &self.values_data),
            (&self.lengths_starts, &self.lengths_data),
        ] {
            if starts.last().map(|&w| w as usize) != Some(data.len()) {
                return Err(FormatError::BadBlockStarts(starts.len().saturating_sub(1)));
            }
            for (i, w) in starts.windows(2).enumerate() {
                if w[1] < w[0] || w[1] as usize > data.len() {
                    return Err(FormatError::BadBlockStarts(i + 1));
                }
            }
        }
        for b in 0..blocks {
            let vstart = self.values_starts[b] as usize;
            let vend = self.values_starts[b + 1] as usize;
            // A block must hold at least [run count][bw word]; indexing
            // vstart on an empty block would read out of bounds.
            if vend - vstart < 2 {
                return Err(FormatError::BadBlock {
                    block: b,
                    reason: "values block shorter than its header",
                });
            }
            let run_count = self.values_data[vstart] as usize;
            if run_count == 0 || run_count > RFOR_BLOCK {
                return Err(FormatError::BadBlock {
                    block: b,
                    reason: "run count out of range",
                });
            }
        }
        if self.total_count > blocks * RFOR_BLOCK
            || (blocks > 0 && self.total_count <= (blocks - 1) * RFOR_BLOCK)
        {
            return Err(FormatError::BadCount {
                count: self.total_count,
                blocks,
            });
        }
        Ok(())
    }

    /// Serialize to a self-describing little-endian byte stream
    /// (minor 1 for horizontal columns, minor 2 for vertical).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(Scheme::GpuRFor, self.layout);
        w.word(self.total_count as u32);
        w.array(&self.values_starts);
        w.array(&self.values_data);
        w.array(&self.lengths_starts);
        w.array(&self.lengths_data);
        w.array(&self.block_checksums());
        w.finish()
    }

    /// The body after [`read_header`]; see [`GpuFor::parse`].
    fn parse(minor: u32, mut r: Reader<'_>, limits: &Limits) -> Result<Self, FormatError> {
        let total_count = r.word()? as usize;
        limits.check_values(total_count)?;
        let values_starts = r.array()?;
        let values_data = r.array()?;
        let lengths_starts = r.array()?;
        let lengths_data = r.array()?;
        let stored_sums = if minor >= 1 {
            Some(r.verified_tail()?)
        } else {
            None
        };
        let col = GpuRFor {
            total_count,
            values_starts,
            values_data,
            lengths_starts,
            lengths_data,
            layout: layout_for_minor(minor),
        };
        col.validate_deep(limits)?;
        if let Some(sums) = stored_sums {
            check_block_sums(&sums, &col.block_checksums())?;
        }
        Ok(col)
    }
}

fn read_header(
    bytes: &[u8],
    stream_digest: Option<u32>,
) -> Result<(Scheme, u32, Reader<'_>), FormatError> {
    let mut r = Reader::new(bytes, stream_digest)?;
    let magic = r.word()?;
    if magic != MAGIC {
        return Err(FormatError::BadMagic(magic));
    }
    let scheme_word = r.word()?;
    let scheme = match scheme_word & 0xFF {
        1 => Scheme::GpuFor,
        2 => Scheme::GpuDFor,
        3 => Scheme::GpuRFor,
        s => return Err(FormatError::UnknownScheme(s)),
    };
    let minor = scheme_word >> 8;
    if minor > FORMAT_MINOR {
        return Err(FormatError::UnsupportedVersion(minor));
    }
    Ok((scheme, minor, r))
}

impl EncodedColumn {
    /// Structural validation of the underlying format.
    pub fn validate(&self) -> Result<(), FormatError> {
        match self {
            EncodedColumn::For(c) => c.validate(),
            EncodedColumn::DFor(c) => c.validate(),
            EncodedColumn::RFor(c) => c.validate(),
        }
    }

    /// Deep validation under explicit [`Limits`]; see
    /// [`GpuFor::validate_deep`].
    pub fn validate_deep(&self, limits: &Limits) -> Result<(), FormatError> {
        match self {
            EncodedColumn::For(c) => c.validate_deep(limits),
            EncodedColumn::DFor(c) => c.validate_deep(limits),
            EncodedColumn::RFor(c) => c.validate_deep(limits),
        }
    }

    /// Serialize with the scheme tag embedded.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            EncodedColumn::For(c) => c.to_bytes(),
            EncodedColumn::DFor(c) => c.to_bytes(),
            EncodedColumn::RFor(c) => c.to_bytes(),
        }
    }

    /// Parse any serialized column, dispatching on the scheme tag
    /// (default [`Limits`]).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, FormatError> {
        Self::from_bytes_with_limits(bytes, &Limits::default())
    }

    /// Parse any untrusted serialized column under explicit [`Limits`].
    pub fn from_bytes_with_limits(bytes: &[u8], limits: &Limits) -> Result<Self, FormatError> {
        Self::from_bytes_digested(bytes, limits, None)
    }

    /// [`EncodedColumn::from_bytes_with_limits`] for a caller that has
    /// already hashed `bytes`: `stream_digest`, when given, must be
    /// [`fnv1a`] over every little-endian word of `bytes` but the last
    /// (the `stream` half of
    /// [`crate::checksum::stream_and_file_digests`]). The parse then
    /// compares it against the trailing digest word instead of hashing
    /// the stream again; every other check runs as in `from_bytes`, in
    /// the same order, so both return the same `Result`. `None` hashes
    /// here.
    pub fn from_bytes_digested(
        bytes: &[u8],
        limits: &Limits,
        stream_digest: Option<u32>,
    ) -> Result<Self, FormatError> {
        let (scheme, minor, r) = read_header(bytes, stream_digest)?;
        Ok(match scheme {
            Scheme::GpuFor => EncodedColumn::For(GpuFor::parse(minor, r, limits)?),
            Scheme::GpuDFor => EncodedColumn::DFor(GpuDFor::parse(minor, r, limits)?),
            Scheme::GpuRFor => EncodedColumn::RFor(GpuRFor::parse(minor, r, limits)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Vec<i32>> {
        vec![
            (0..1000).collect(),
            (0..1000).map(|i| i / 40).collect(),
            (0..1000u64)
                .map(|i| ((i * 2_654_435) % 4096) as i32)
                .collect(),
            vec![5],
            vec![-3; 700],
        ]
    }

    #[test]
    fn roundtrip_every_scheme() {
        for values in samples() {
            for scheme in Scheme::ALL {
                let col = EncodedColumn::encode_as(&values, scheme);
                col.validate().expect("fresh encoding validates");
                let bytes = col.to_bytes();
                let back = EncodedColumn::from_bytes(&bytes).expect("parse");
                assert_eq!(back.scheme(), scheme);
                assert_eq!(back.decode_cpu(), values, "{scheme:?}");
            }
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let col = EncodedColumn::encode_best(&[1, 2, 3]);
        let mut bytes = col.to_bytes();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            EncodedColumn::from_bytes(&bytes),
            Err(FormatError::BadMagic(_))
        ));
    }

    #[test]
    fn rejects_unknown_scheme() {
        let col = EncodedColumn::encode_as(&[1, 2, 3], Scheme::GpuFor);
        let mut bytes = col.to_bytes();
        bytes[4] = 99;
        assert!(matches!(
            EncodedColumn::from_bytes(&bytes),
            Err(FormatError::UnknownScheme(99))
        ));
    }

    #[test]
    fn rejects_truncation() {
        let col = EncodedColumn::encode_as(&(0..500).collect::<Vec<_>>(), Scheme::GpuFor);
        let bytes = col.to_bytes();
        for cut in [0, 4, 7, bytes.len() / 2, bytes.len() - 4] {
            assert!(
                EncodedColumn::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn rejects_corrupted_widths() {
        let col = GpuFor::encode(&(0..500).collect::<Vec<_>>());
        let mut bytes = col.to_bytes();
        // Blast a byte in the middle of the data array; structural
        // validation must catch widths/length inconsistencies.
        let mid = bytes.len() / 2;
        bytes[mid] = 0xFF;
        // Either parse fails, or (if the flip landed in a packed
        // payload) the structure still validates; both are acceptable,
        // but a width corruption must never panic.
        let _ = EncodedColumn::from_bytes(&bytes);
    }

    #[test]
    fn rejects_non_monotone_block_starts() {
        let mut col = GpuFor::encode(&(0..500).collect::<Vec<_>>());
        col.block_starts.swap(1, 2);
        // Depending on block sizes this trips either the monotonicity
        // check or the width-vs-length consistency check; both reject.
        assert!(col.validate().is_err());
    }

    #[test]
    fn rejects_wrong_count() {
        let mut col = GpuFor::encode(&(0..500).collect::<Vec<_>>());
        col.total_count = 10_000;
        assert!(matches!(col.validate(), Err(FormatError::BadCount { .. })));
    }

    #[test]
    fn rfor_rejects_zero_run_count() {
        let mut col = GpuRFor::encode(&(0..600).map(|i| i / 3).collect::<Vec<_>>());
        let start = col.values_starts[0] as usize;
        col.values_data[start] = 0;
        assert!(matches!(col.validate(), Err(FormatError::BadBlock { .. })));
    }

    #[test]
    fn error_display_is_informative() {
        let e = FormatError::BadBlock {
            block: 7,
            reason: "demo",
        };
        assert!(e.to_string().contains("block 7"));
        let e = FormatError::BadMagic(0xDEAD_BEEF);
        assert!(e.to_string().contains("DEADBEEF"));
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        // The trailing whole-stream digest makes any one-byte change
        // detectable: parsing must return a typed error, never succeed.
        let values: Vec<i32> = (0..600).map(|i| i / 5).collect();
        for scheme in Scheme::ALL {
            let bytes = EncodedColumn::encode_as(&values, scheme).to_bytes();
            for pos in 0..bytes.len() {
                let mut dirty = bytes.clone();
                dirty[pos] ^= 0x5A;
                assert!(
                    EncodedColumn::from_bytes(&dirty).is_err(),
                    "{scheme:?}: flip at byte {pos} went undetected"
                );
            }
        }
    }

    #[test]
    fn legacy_minor_zero_streams_still_parse() {
        // Minor 0 carried no checksum array and no trailing digest.
        let col = GpuFor::encode(&(0..500).collect::<Vec<_>>());
        let mut words = vec![MAGIC, scheme_id(Scheme::GpuFor), col.total_count as u32];
        words.push(col.block_starts.len() as u32);
        words.extend_from_slice(&col.block_starts);
        words.push(col.data.len() as u32);
        words.extend_from_slice(&col.data);
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        match EncodedColumn::from_bytes(&bytes).expect("legacy stream parses") {
            EncodedColumn::For(back) => assert_eq!(back, col),
            other => panic!("parsed as {:?}", other.scheme()),
        }
    }

    #[test]
    fn dfor_without_block_starts_is_rejected() {
        // A minor-0 GPU-DFOR stream: count 0, d = 2, an empty
        // block-starts array, an empty data array, two more words. A
        // column has at least the end of its data as a block start.
        let words = [MAGIC, 2, 0, 2, 0, 0, 0, 0];
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(
            EncodedColumn::from_bytes(&bytes).err(),
            Some(FormatError::BadBlockStarts(0))
        );
    }

    #[test]
    fn rejects_future_minor_version() {
        let col = GpuFor::encode(&[1, 2, 3]);
        let mut bytes = col.to_bytes();
        // Bump the minor version byte (second byte of the scheme word).
        bytes[5] = 0x7F;
        assert!(matches!(
            EncodedColumn::from_bytes(&bytes),
            Err(FormatError::UnsupportedVersion(0x7F))
        ));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let col = GpuFor::encode(&(0..300).collect::<Vec<_>>());
        let mut bytes = col.to_bytes();
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert!(matches!(
            EncodedColumn::from_bytes(&bytes),
            Err(FormatError::TrailingGarbage { .. })
        ));
    }
}
