//! # tlc-baselines — every comparison scheme from the paper's evaluation
//!
//! * [`none`] — uncompressed 4-byte integers (**None** in every figure),
//!   plus the plain streaming read/write kernels used as the
//!   memory-bandwidth yardstick.
//! * [`nsf`] — **NSF**: null suppression with fixed length; the whole
//!   column is encoded as 1-, 2- or 4-byte entries (Fang et al. \[18\]).
//! * [`nsv`] — **NSV**: null suppression with per-value variable byte
//!   length plus a 2-bit length stream; decoding needs a global prefix
//!   sum over the lengths (multi-kernel, Section 9.3 D3).
//! * [`rle`] — plain run-length encoding over the whole column, decoded
//!   with the 4-step global scatter/scan pipeline of Fang et al. —
//!   multiple kernel passes over global memory.
//! * [`gpu_bp`] — **GPU-BP** (Mallia et al. \[33\]): one horizontal
//!   bit-packed layer for the entire column, no FOR/Delta/RLE.
//! * [`simdbp128`] — **GPU-SIMDBP128** (paper Section 4.3): the
//!   SIMD-BP128 vertical layout translated to 32 GPU lanes, block size
//!   4096, high register pressure.
//! * [`cascaded`] — the paper's own formats decoded with the *cascading
//!   decompression model* (one kernel per layer, Figure 2 left):
//!   FOR+BitPack, Delta+FOR+BitPack, RLE+FOR+BitPack.
//! * [`nvcomp`] — an nvCOMP-style cascade: same scheme choices and
//!   near-identical ratios as GPU-* (within ~2%, Figure 9), but
//!   decompression is multi-pass and cannot be inlined with queries.

pub mod cascaded;
pub mod gpu_bp;
pub mod none;
pub mod nsf;
pub mod nsv;
pub mod nvcomp;
pub mod rle;
pub mod simdbp128;
