//! # tlc-bitpack — bit-level integer packing primitives
//!
//! Pure-CPU building blocks shared by every compression scheme in the
//! workspace:
//!
//! * [`width`] — effective-bitwidth computation (`⌈log2(max+1)⌉`).
//! * [`horizontal`] — LSB-first horizontal layout: the compressed
//!   representation of subsequent values sits in subsequent bit
//!   positions, ignoring word boundaries (the layout of GPU-FOR /
//!   SIMD-scan; paper Section 4.1). Extraction follows Algorithm 1's
//!   64-bit window: `(w[i] | w[i+1] << 32) >> start_bit & mask`.
//! * [`vertical`] — lane-striped vertical layout (SIMD-BP128 /
//!   GPU-SIMDBP128; paper Section 4.3 and Figure 1): value `j` of a
//!   block lives in lane `j % lanes`, and each lane's words are
//!   interleaved so lane `l` reads words `l, l + lanes, …`.
//! * [`unpack`] — monomorphized per-width miniblock unpackers (paper
//!   Section 4.4): one branch-free routine per bitwidth 0..=32 that
//!   fuses the frame-of-reference add, dispatched through the
//!   [`UNPACKERS_REF`] table, with the generic
//!   [`extract`] kept as the partial-tail fallback and test oracle.
//! * [`pack`] — the encode-side counterpart: monomorphized per-width
//!   miniblock packers dispatched through [`PACKERS`].
//! * [`simd`] — kernels for the fixed 4-lane 128-value vertical block
//!   (the on-disk lane-transposed layout): portable row kernels that
//!   LLVM vectorizes with baseline SSE2, plus an AVX2 delta scan
//!   chosen by [`simd::simd_level`] and bit-identical to its portable
//!   twin.
//!
//! All functions are deterministic, allocation-conscious, and defined
//! for bitwidths 0..=32 inclusive (bitwidth 0 encodes a run of zeros in
//! zero space).

#![warn(missing_docs)]

pub mod horizontal;
pub mod pack;
pub mod simd;
pub mod unpack;
pub mod vertical;
pub mod width;

pub use horizontal::{extract, pack_into, pack_stream, unpack_stream, words_for};
pub use pack::{pack32, pack_miniblock, Packer, PACKERS};
pub use simd::{
    cpu_features, simd_level, vpack_block, vunpack_block_ref, vunpack_block_scan, SimdLevel, VLANES,
};
pub use unpack::{
    unpack128_ref, unpack128_scan, unpack32_ref, unpack32_scan, unpack_block_ref,
    unpack_block_scan, unpack_miniblock_ref, unpack_miniblock_scan, unpack_stream_into,
    BlockUnpackerRef, BlockUnpackerScan, UnpackerRef, UnpackerScan, BLOCK_UNPACKERS_REF,
    BLOCK_UNPACKERS_SCAN, BLOCK_VALUES, UNPACKERS_REF, UNPACKERS_SCAN,
};
pub use vertical::{vertical_pack, vertical_unpack};
pub use width::{bits_for, max_bits};

/// Values per miniblock in the paper's formats: 32, so a miniblock of
/// any bitwidth `b` occupies exactly `b` 32-bit words and always ends on
/// a word boundary (Section 4.1).
pub const MINIBLOCK: usize = 32;
