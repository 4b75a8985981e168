//! # tlc-planner — compression planning
//!
//! * [`plan`] — a reproduction of the **compression planner** of Fang
//!   et al. \[18\] (the `Planner` system of Figures 9–11): it enumerates
//!   cascades of the five basic lightweight schemes — RLE, DELTA, FOR,
//!   DICT and byte-aligned null suppression (NSF/NSV) — computes the
//!   exact compressed size of each valid cascade, and picks the
//!   smallest. Bit-aligned packing is *not* in its vocabulary, which is
//!   why it loses to GPU-* on high-entropy columns.
//! * [`stats`] — column statistics, as `tlc stats` reports them.
//!
//! GPU-*'s own chooser is not here: it is
//! `tlc_core::EncodedColumn::encode_best`, the smallest exact
//! footprint of the three schemes (paper Section 8).

pub mod plan;
pub mod stats;

pub use plan::{Physical, Plan, PlannedColumn};
pub use stats::ColumnStats;
