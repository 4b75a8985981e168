//! # tlc-planner — compression planning
//!
//! Two planners live here:
//!
//! * [`plan`] — a reproduction of the **compression planner** of Fang
//!   et al. \[18\] (the `Planner` system of Figures 9–11): it enumerates
//!   cascades of the five basic lightweight schemes — RLE, DELTA, FOR,
//!   DICT and byte-aligned null suppression (NSF/NSV) — computes the
//!   exact compressed size of each valid cascade, and picks the
//!   smallest. Bit-aligned packing is *not* in its vocabulary, which is
//!   why it loses to GPU-* on high-entropy columns.
//! * [`hybrid`] — the paper's own Section 8 rule of thumb for GPU-*:
//!   since tile-based decompression makes every scheme decode at
//!   similar speed, simply pick the scheme with the smallest footprint
//!   (plus the stats-based heuristic the paper describes for choosing
//!   without trial encoding).
//! * [`stats`] — column statistics both planners consume.

pub mod hybrid;
pub mod plan;
pub mod stats;

pub use hybrid::{recommend_scheme, ColumnKind};
pub use plan::{Physical, Plan, PlannedColumn};
pub use stats::ColumnStats;
