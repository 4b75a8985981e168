//! # tlc — Tile-based Lightweight Integer Compression (GPU), in Rust
//!
//! Facade crate re-exporting the whole workspace. See the README for the
//! architecture overview and `DESIGN.md` for the paper-reproduction map.
//!
//! * [`sim`] — the SIMT GPU simulator substrate ([`tlc_gpu_sim`]).
//! * [`bitpack`] — bit-level packing primitives ([`tlc_bitpack`]).
//! * [`schemes`] — the paper's contribution: GPU-FOR / GPU-DFOR /
//!   GPU-RFOR with single-pass tile-based decompression ([`tlc_core`]).
//! * [`baselines`] — every comparison scheme ([`tlc_baselines`]).
//! * [`planner`] — the Fang-et-al. compression planner and column
//!   statistics ([`tlc_planner`]).
//! * [`crystal`] — the tile-based query engine ([`tlc_crystal`]).
//! * [`ssb`] — the Star Schema Benchmark ([`tlc_ssb`]).
//! * [`store`] — the crash-safe out-of-core partitioned column store
//!   ([`tlc_store`]): checksummed manifest with atomic-rename commits,
//!   torn-write/bit-rot quarantine, generation-tagged compaction.
//! * [`fuzz`] — offline differential fuzzing of the serialized formats
//!   ([`tlc_fuzz`]): structure-aware mutation, a
//!   panic/allocation/divergence oracle, a checked-in regression
//!   corpus.
//! * [`profile`] — the kernel-phase profiler ([`tlc_profile`]):
//!   per-phase time attribution, roofline utilization, and the stable
//!   `tlc-profile/v1` JSON artifact format.
//! * [`serve`] — the overload-safe concurrent query service
//!   ([`tlc_serve`]): bounded admission queue with typed load
//!   shedding, per-query device-time deadlines, retry/backoff with
//!   per-shard circuit breakers, graceful degradation tiers, and an
//!   open-loop load generator reporting p50/p99/p999.
//!
//! ## Example: compressed scan inside a query kernel
//!
//! ```
//! use tlc::crystal::{select, QueryColumn};
//! use tlc::schemes::EncodedColumn;
//! use tlc::sim::Device;
//!
//! let values: Vec<i32> = (0..100_000).map(|i| i % 1000).collect();
//! let dev = Device::v100();
//! let col = QueryColumn::Encoded(EncodedColumn::encode_best(&values).to_device(&dev));
//!
//! // Fused selection: decompress tiles inline, filter, compact.
//! // Tile checksums are verified as part of every load; a corrupt or
//! // truncated tile surfaces as a typed `DecodeError`, never a panic.
//! let (out, count) = select(&dev, &col, |v| v < 10).expect("column verifies");
//! assert_eq!(count, 1_000);
//! assert!(out.as_slice_unaccounted()[..count].iter().all(|&v| v < 10));
//! ```

pub use tlc_baselines as baselines;
pub use tlc_bitpack as bitpack;
pub use tlc_core as schemes;
pub use tlc_crystal as crystal;
pub use tlc_fuzz as fuzz;
pub use tlc_gpu_sim as sim;
pub use tlc_planner as planner;
pub use tlc_profile as profile;
pub use tlc_serve as serve;
pub use tlc_ssb as ssb;
pub use tlc_store as store;
