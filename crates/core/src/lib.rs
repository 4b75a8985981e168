//! # tlc-core — tile-based lightweight integer compression
//!
//! The paper's primary contribution: three bit-packing-based compression
//! schemes and their single-pass, tile-based decompression routines.
//!
//! * [`gpu_for`] — **GPU-FOR**: frame-of-reference + bit packing over
//!   blocks of 128 integers, four 32-integer miniblocks per block
//!   (paper Section 4, Figures 3–4), with the fast bit-unpacking kernel
//!   and its three optimizations (shared-memory staging, `D` blocks per
//!   thread block, precomputed miniblock offsets).
//! * [`gpu_dfor`] — **GPU-DFOR**: delta coding + FOR + bit packing, with
//!   the delta scope limited to a tile of `D` blocks so tiles decode
//!   independently, fusing bit unpacking with a block-wide prefix sum
//!   (Section 5, Figure 6).
//! * [`gpu_rfor`] — **GPU-RFOR**: run-length encoding + FOR + bit
//!   packing over logical blocks of 512 integers, two packed streams
//!   (values, run lengths), expanded in shared memory with the 4-step
//!   scatter/prefix-sum routine (Section 6).
//! * [`block`] — the rules every reader of the shared block format
//!   applies, each written once: the width check and the layout rule.
//! * [`base_alg`] — the *unoptimized* Algorithm 1 (every access goes to
//!   global memory), kept as the starting rung of the Section 4.2
//!   optimization ladder.
//! * [`no_miniblock`] — the Section 4.3 ablation: one bitwidth per
//!   128-integer block instead of four miniblocks.
//! * [`mod@column`] — [`column::EncodedColumn`]: a column encoded with any
//!   of the three schemes, plus the GPU-* chooser that picks whichever
//!   compresses best (Section 8).
//!
//! Decompression is exposed at two levels, mirroring the paper's
//! database integration (Section 7):
//!
//! 1. **Device functions** (`load_tile`) that decode one tile into
//!    registers from inside an arbitrary kernel — this is what Crystal's
//!    `LoadBitPack` / `LoadDBitPack` / `LoadRBitPack` wrap, and what
//!    makes decompression inlinable with query execution.
//! 2. **Standalone kernels** (`decompress`, `decode_only`) used by the
//!    microbenchmarks.
//!
//! ## Example
//!
//! ```
//! use tlc_core::EncodedColumn;
//! use tlc_gpu_sim::Device;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // GPU-*: pick the smallest of the three schemes for this column.
//! let values: Vec<i32> = (0..10_000).map(|i| i / 4).collect();
//! let encoded = EncodedColumn::encode_best(&values);
//! assert!(encoded.bits_per_int() < 4.0);
//!
//! // Upload and decompress in a single tile-based kernel pass. Decode
//! // is fallible: damaged payloads surface as `DecodeError`, not UB.
//! let dev = Device::v100();
//! let decoded = encoded.to_device(&dev).decompress(&dev)?;
//! assert_eq!(decoded.as_slice_unaccounted(), values);
//!
//! // Persist and restore through the validated byte format.
//! let restored = EncodedColumn::from_bytes(&encoded.to_bytes())?;
//! assert_eq!(restored.decode_cpu(), values);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod base_alg;
pub mod block;
pub mod checksum;
pub mod column;
pub mod error;
pub mod format;
pub mod gpu_dfor;
pub mod gpu_for;
pub mod gpu_rfor;
pub mod model;
pub mod no_miniblock;
pub mod random_access;
pub mod serialize;
pub mod typed;
pub mod validate;

pub use column::{EncodedColumn, Scheme};
pub use error::DecodeError;
pub use format::{
    ForDecodeOpts, Layout, BLOCK, DEFAULT_D, MINIBLOCK, MINIBLOCKS_PER_BLOCK, RFOR_BLOCK,
};
pub use gpu_dfor::GpuDFor;
pub use gpu_for::GpuFor;
pub use gpu_rfor::GpuRFor;
pub use serialize::FormatError;
pub use typed::{DecimalColumn, DictStringColumn, TypedError};
pub use validate::{Limits, DEFAULT_TILE_FUEL};
