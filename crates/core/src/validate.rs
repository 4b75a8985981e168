//! Untrusted-stream hardening: resource limits and deep structural
//! validation.
//!
//! [`crate::serialize`] rejects *randomly* damaged bytes via the
//! whole-stream digest and per-block checksums, but a decoder that
//! ingests serialized columns is a **trust boundary**: an adversarial
//! stream can carry perfectly valid FNV-1a checksums yet declare a run
//! length of four billion, a miniblock width past the end of its block,
//! or a value count that would allocate gigabytes. This module is the
//! line of defense for that case:
//!
//! * [`Limits`] — caps on output values, stream words, and per-tile
//!   decode fuel. Parsing with
//!   [`crate::EncodedColumn::from_bytes_with_limits`] enforces the caps
//!   *before* any output buffer is sized, so a hostile stream cannot
//!   over-allocate.
//! * **Deep validation** (`validate_deep`) — everything the cheap
//!   [`crate::GpuFor::validate`]-style structural pass checks, plus the
//!   invariants that require partially decoding metadata: every RFOR
//!   stream block's declared widths must fit its slice, every run
//!   length must be in `[1, RFOR_BLOCK]`, and each block's run lengths
//!   must sum to exactly the block's logical value count. A column that
//!   passes deep validation decodes without panicking, without reading
//!   out of bounds, and without producing more than `total_count`
//!   values.
//! * **Decode fuel** — tile-decode kernels run with a per-thread-block
//!   fuel budget ([`DEFAULT_TILE_FUEL`], threaded through
//!   [`tlc_gpu_sim::KernelConfig::fuel_per_block`]); a stream that
//!   somehow demands more work per tile than any legitimate encoding
//!   surfaces as [`crate::DecodeError::Hostile`] instead of spinning
//!   the simulator.
//!
//! The guarantees are exercised by the differential fuzzer in
//! `crates/fuzz` (`tlc fuzz`), whose oracle asserts: decode of any
//! mutated stream either returns the original values or a typed error —
//! never a panic, never an over-cap allocation, never a CPU/GPU-sim
//! divergence.

use tlc_bitpack::MINIBLOCK;

use crate::format::{BLOCK, MAX_D, RFOR_BLOCK};
use crate::gpu_dfor::GpuDFor;
use crate::gpu_for::GpuFor;
use crate::gpu_rfor::{checked_stream_words, decode_stream_block_to, GpuRFor};
use crate::serialize::FormatError;

/// Decode fuel per thread block, in abstract work units (words staged +
/// values produced). Legitimate tiles cost well under 10k units even at
/// `D = 32`; the default leaves ~8x headroom while still bounding any
/// hostile stream to linear work per tile.
pub const DEFAULT_TILE_FUEL: u64 = 1 << 16;

/// Resource limits applied when parsing and decoding untrusted streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum logical values a stream may declare (caps the output
    /// allocation of every decode path).
    pub max_values: usize,
    /// Maximum total words across a stream's payload arrays (caps the
    /// parse-time allocation relative to what the header promises).
    pub max_stream_words: usize,
    /// Decode fuel per tile/thread block (see [`DEFAULT_TILE_FUEL`]).
    pub tile_fuel: u64,
}

impl Default for Limits {
    fn default() -> Self {
        // Generous production defaults: a 2^30-value column is ~4 GiB
        // decoded — larger inputs should be sharded anyway.
        Limits {
            max_values: 1 << 30,
            max_stream_words: 1 << 30,
            tile_fuel: DEFAULT_TILE_FUEL,
        }
    }
}

impl Limits {
    /// Tight limits for fuzzing and tests: small enough that an
    /// over-allocation bug is observable, large enough for real test
    /// columns.
    pub fn strict() -> Self {
        Limits {
            max_values: 1 << 22,
            max_stream_words: 1 << 22,
            tile_fuel: DEFAULT_TILE_FUEL,
        }
    }

    /// Check a declared logical value count against the cap.
    pub fn check_values(&self, count: usize) -> Result<(), FormatError> {
        if count > self.max_values {
            return Err(FormatError::CapExceeded {
                what: "logical value count",
                requested: count as u64,
                cap: self.max_values as u64,
            });
        }
        Ok(())
    }

    /// Check a total payload word count against the cap.
    pub fn check_words(&self, words: usize) -> Result<(), FormatError> {
        if words > self.max_stream_words {
            return Err(FormatError::CapExceeded {
                what: "stream payload words",
                requested: words as u64,
                cap: self.max_stream_words as u64,
            });
        }
        Ok(())
    }
}

impl GpuFor {
    /// Deep validation for untrusted input: the structural pass of
    /// [`GpuFor::validate`] plus the [`Limits`] caps. GPU-FOR's cheap
    /// pass already proves every miniblock width fills its block, so no
    /// metadata decode is needed.
    pub fn validate_deep(&self, limits: &Limits) -> Result<(), FormatError> {
        limits.check_values(self.total_count)?;
        limits.check_words(self.data.len() + self.block_starts.len())?;
        self.validate()
    }
}

impl GpuDFor {
    /// Deep validation for untrusted input: the structural pass of
    /// [`GpuDFor::validate`] plus the [`Limits`] caps and a bound on
    /// the tile depth (a hostile `d` inflates the per-tile shared
    /// memory and fuel demand).
    pub fn validate_deep(&self, limits: &Limits) -> Result<(), FormatError> {
        limits.check_values(self.total_count)?;
        limits.check_words(self.data.len() + self.block_starts.len())?;
        // Any legitimate D is a small constant; 128 blocks per tile is
        // already 16384 values staged at once.
        if self.d > MAX_D {
            return Err(FormatError::CapExceeded {
                what: "blocks per tile (d)",
                requested: self.d as u64,
                cap: MAX_D as u64,
            });
        }
        // Logical count must be consistent with the block count, as in
        // GPU-FOR (the cheap pass only validates block layout).
        let blocks = self.blocks();
        if self.total_count > blocks * BLOCK
            || (blocks > 0 && self.total_count <= (blocks - 1) * BLOCK)
        {
            return Err(FormatError::BadCount {
                count: self.total_count,
                blocks,
            });
        }
        self.validate()
    }
}

impl GpuRFor {
    /// Deep validation for untrusted input. Beyond the cheap pass this
    /// proves, per logical block, that:
    ///
    /// * both stream blocks' declared miniblock widths fit their
    ///   slices (so bit-unpacking cannot read out of bounds),
    /// * every run length is in `[1, RFOR_BLOCK]`,
    /// * the block's run lengths sum to exactly its logical value
    ///   count.
    ///
    /// This requires decoding the (small) run-length metadata, which is
    /// exactly the point: an adversarial stream must not get to size
    /// any buffer from unverified lengths.
    pub fn validate_deep(&self, limits: &Limits) -> Result<(), FormatError> {
        limits.check_values(self.total_count)?;
        limits.check_words(
            self.values_data.len()
                + self.lengths_data.len()
                + self.values_starts.len()
                + self.lengths_starts.len(),
        )?;
        self.validate()?;
        let blocks = self.blocks();
        let mut lens = [0i32; RFOR_BLOCK];
        for b in 0..blocks {
            let (vs, ve) = (
                self.values_starts[b] as usize,
                self.values_starts[b + 1] as usize,
            );
            let (ls, le) = (
                self.lengths_starts[b] as usize,
                self.lengths_starts[b + 1] as usize,
            );
            let bad = |reason: &'static str| FormatError::BadBlock { block: b, reason };
            if ve - vs < 2 || le - ls < 1 {
                return Err(bad("stream block shorter than its header"));
            }
            let run_count = self.values_data[vs] as usize;
            if checked_stream_words(&self.values_data[vs + 1..ve], run_count).is_none()
                || checked_stream_words(&self.lengths_data[ls..le], run_count).is_none()
            {
                return Err(bad("stream widths overrun the block"));
            }
            // Decode under the column's own layout: a lane-transposed
            // lengths stream read horizontally would yield garbage
            // lengths and reject honest minor-2 streams. `validate`
            // bounded `run_count` by `RFOR_BLOCK`.
            let padded = run_count.div_ceil(MINIBLOCK) * MINIBLOCK;
            decode_stream_block_to(&self.lengths_data[ls..le], self.layout, &mut lens[..padded]);
            let mut sum = 0usize;
            for &l in &lens[..run_count] {
                if l < 1 || l as usize > RFOR_BLOCK {
                    return Err(bad("run length out of range"));
                }
                sum += l as usize;
                if sum > RFOR_BLOCK {
                    return Err(bad("run lengths overflow the block"));
                }
            }
            let logical = if b + 1 == blocks {
                self.total_count - (blocks - 1) * RFOR_BLOCK
            } else {
                RFOR_BLOCK
            };
            if sum != logical {
                return Err(bad("run lengths disagree with the block's value count"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EncodedColumn, Scheme};

    fn sample() -> Vec<i32> {
        (0..3000).map(|i| i / 7).collect()
    }

    #[test]
    fn fresh_encodings_pass_deep_validation() {
        let values = sample();
        let limits = Limits::strict();
        GpuFor::encode(&values).validate_deep(&limits).unwrap();
        GpuDFor::encode(&values).validate_deep(&limits).unwrap();
        GpuRFor::encode(&values).validate_deep(&limits).unwrap();
    }

    #[test]
    fn value_cap_rejects_oversized_counts() {
        let limits = Limits {
            max_values: 100,
            ..Limits::strict()
        };
        let col = GpuFor::encode(&sample());
        assert!(matches!(
            col.validate_deep(&limits),
            Err(FormatError::CapExceeded { .. })
        ));
    }

    #[test]
    fn word_cap_rejects_oversized_streams() {
        let limits = Limits {
            max_stream_words: 10,
            ..Limits::strict()
        };
        let col = GpuRFor::encode(&sample());
        assert!(matches!(
            col.validate_deep(&limits),
            Err(FormatError::CapExceeded { .. })
        ));
    }

    #[test]
    fn rfor_inflated_run_length_is_rejected_not_expanded() {
        // The historical OOM/spin shape: a hostile stream whose run
        // lengths sum past the block. Rewriting the lengths stream to
        // huge values must be caught before any output is sized.
        let mut col = GpuRFor::encode(&(0..600).map(|i| i / 3).collect::<Vec<_>>());
        // Lengths block layout: [ref][bw...]; making the reference huge
        // inflates every decoded run length.
        let ls = col.lengths_starts[0] as usize;
        col.lengths_data[ls] = 1 << 20;
        assert!(col.validate_deep(&Limits::strict()).is_err());
    }

    #[test]
    fn rfor_empty_stream_block_is_rejected_not_indexed() {
        // values_starts = [len, len] used to index values_data[len] and
        // panic; deep validation must reject it instead. (The cheap
        // pass is also hardened; this pins the no-panic guarantee.)
        let col = GpuRFor {
            total_count: 1,
            values_starts: vec![4, 4],
            values_data: vec![1, 0, 0, 0],
            lengths_starts: vec![0, 1],
            lengths_data: vec![0],
            layout: Default::default(),
        };
        assert!(col.validate_deep(&Limits::strict()).is_err());
        assert!(col.validate().is_err());
    }

    #[test]
    fn dfor_hostile_tile_depth_is_capped() {
        let mut col = GpuDFor::encode(&sample());
        col.d = 1 << 20;
        assert!(matches!(
            col.validate_deep(&Limits::strict()),
            Err(FormatError::CapExceeded { .. })
        ));
    }

    #[test]
    fn deep_validation_then_decode_is_total() {
        // Deep-validated columns decode without panicking and to the
        // right length for every scheme.
        let values = sample();
        for scheme in Scheme::ALL {
            let col = EncodedColumn::encode_as(&values, scheme);
            col.validate().unwrap();
            assert_eq!(col.decode_cpu().len(), values.len());
        }
    }
}
