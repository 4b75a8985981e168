//! # tlc-ssb — the Star Schema Benchmark
//!
//! A Rust reproduction of SSB dbgen plus the paper's evaluation harness
//! (Section 9.4): one fact table (`lineorder`) and four dimensions
//! (`date`, `customer`, `supplier`, `part`) in a star schema, string
//! attributes dictionary-encoded to integers ahead of loading (as the
//! paper and prior work do), and the 13 SSB queries implemented on the
//! Crystal engine with per-system column encodings.
//!
//! * [`gen`] — deterministic scale-factor-parameterized generator with
//!   dbgen's column distributions: sorted `lo_orderkey` with 1–7-line
//!   runs, per-order repeated columns (`lo_orderdate`, `lo_custkey`,
//!   `lo_ordtotalprice`), date-dimension foreign keys, Zipf-free
//!   uniform measures.
//! * [`encode`] — encode the lineorder columns under each evaluated
//!   system: None, GPU-\*, nvCOMP, GPU-BP, Planner, OmniSci.
//! * [`queries`] — q1.1–q4.3 as fused Crystal kernels (decompressing
//!   inline where the system supports it) and the
//!   decompress-then-query / operator-at-a-time paths for the systems
//!   that don't.
//! * [`mod@reference`] — a scalar CPU executor; every query result is
//!   verified against it in the test suite.
//! * [`fleet`] — the fact table range-partitioned across simulated
//!   devices, any of them optionally armed with a
//!   [`tlc_gpu_sim::FaultPlan`]; with no plans it is the fault-free
//!   fleet.
//! * [`resilience`] — the recovery primitives under [`fleet`] and
//!   [`stream`]: bounded retries, failover to a fresh device and CPU
//!   fallback, with a [`resilience::ResilienceReport`] reconciling
//!   injected faults against recovery actions.
//! * [`stream`] — paper-scale out-of-core execution: the fact table
//!   persisted as a `tlc-store` partitioned compressed store
//!   ([`stream::SsbStore`]), streamed through one partition executor
//!   under a bounded partition-memory budget, with storage-fault
//!   recovery (quarantine → regenerate → heal) layered under the
//!   device-fault ladder.

pub mod encode;
pub mod fleet;
pub mod gen;
pub mod queries;
pub mod reference;
pub mod resilience;
pub mod stream;

pub use encode::{LoColumns, System};
pub use gen::{LoColumn, SsbData, StreamSpec};
pub use queries::{run_query, try_run_query, QueryId};
pub use resilience::{ResilienceReport, MAX_TRANSIENT_RETRIES};
pub use stream::{
    run_query_streamed_bounded, run_wave_streamed, DeadlinePartial, SsbStore, StreamError,
    StreamOptions, StreamedRun, WaveAnswer, WaveQuery, WaveQueryRun, WaveRun, WaveSpec,
};
