//! # tlc-crystal — a tile-based query execution engine
//!
//! A reproduction of the Crystal framework \[40\] that the paper
//! integrates with (Section 7): SQL operators are composed from
//! block-wide device functions, each thread block processes one *tile*
//! of fact-table entries, and — the paper's contribution — a compressed
//! column is consumed by swapping `BlockLoad` for `LoadBitPack` /
//! `LoadDBitPack` / `LoadRBitPack`, decompressing inline with query
//! execution in a single pass over global memory.
//!
//! * [`query_column`] — [`QueryColumn`]: a fact-table column that is
//!   either plain or compressed; both load one 512-value tile at a
//!   time from inside a kernel.
//! * [`hash`] — dimension hash tables: build kernels over the dimension
//!   columns, warp-gather probes from inside the fused kernel.
//! * [`agg`] — scalar and group-by aggregation primitives.
//! * [`exec`] — launch-configuration helpers for fused kernels, the
//!   *decompress-then-query* path used by systems that cannot inline
//!   (nvCOMP, Planner, GPU-BP), and the operator-at-a-time
//!   materializing executor that models OmniSci.

pub mod agg;
pub mod exec;
pub mod hash;
pub mod query_column;
pub mod select;

pub use agg::{GroupBySum, ScalarSum};
pub use exec::{fused_config, materialize};
pub use hash::DenseTable;
pub use query_column::QueryColumn;
pub use select::select;

/// Values per query tile (matches the compression tile at `D = 4`).
pub const TILE: usize = tlc_core::column::TILE;
