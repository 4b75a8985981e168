//! # tlc-gpu-sim — a software SIMT GPU simulator
//!
//! This crate is the hardware substrate for the tile-based compression
//! reproduction. No physical GPU is available, so every "kernel" in the
//! workspace executes *functionally* on the CPU (bit-exact results,
//! verifiable against reference implementations) while the simulator
//! accounts the memory traffic the same code would generate on a real
//! device:
//!
//! * **Global memory** accesses are grouped per warp and charged by the
//!   number of distinct 128-byte segments touched (the coalescing rule the
//!   paper relies on in Section 4.2, Optimization 2).
//! * **Shared memory** traffic is counted in bytes and charged against an
//!   order-of-magnitude-higher bandwidth (10 TB/s vs 880 GB/s on V100).
//! * **Occupancy** is derived from threads/registers/shared-memory limits
//!   per SM; kernels whose occupancy falls below the saturation point lose
//!   effective bandwidth, and kernels that declare more registers per
//!   thread than the spill threshold pay spill round-trips to global
//!   memory — this is what makes `D = 32` deteriorate in Figure 5.
//! * Each kernel launch pays a fixed host-side overhead, and each thread
//!   block pays a small scheduling/tail latency amortized over the SMs;
//!   this is what separates one-block-per-thread-block decoding (`D = 1`)
//!   from `D = 4` in the paper's optimization ladder. Small kernels can
//!   share that overhead: a launch is a list of [`LaunchPart`]s, block
//!   ranges with a configuration, body and merge each
//!   ([`Device::try_launch_parts`]), and a plain launch is the list of
//!   one.
//!
//! Simulated time is the roofline maximum of the global-memory leg, the
//! shared-memory leg and the integer-compute leg, plus the fixed
//! overheads. All results in `EXPERIMENTS.md` are *model* times; the
//! calibration constants live in [`DeviceParams`] and are documented
//! there.
//!
//! Execution is multi-core on the host: [`Device::try_launch_par`] and
//! [`Device::try_launch_parts`] partition the grid across
//! `std::thread::scope` workers (`TLC_SIM_THREADS`, default
//! `available_parallelism`), each accumulating its own [`Traffic`], and
//! merge the per-block results on the host in block order. Because
//! traffic counters are integers and the time model is a pure function
//! of their sums, every analytic output — traffic, modelled time,
//! occupancy, fault statistics — is **bit-identical** for any worker
//! count, including 1, so every figure harness remains exactly
//! reproducible (the determinism contract is spelled out in
//! DESIGN.md §11). Worker count changes host wall-clock time only.
//!
//! ## Observability
//!
//! Traffic is attributed to logical kernel [`Phase`]s (global load →
//! shared staging → unpack → expand → predicate/aggregate →
//! writeback): instrumented kernels call [`BlockCtx::set_phase`] at
//! phase boundaries and [`BlockCtx::bump`] on semantic events, and
//! every [`KernelReport`] carries the resulting [`PhaseSpans`].
//! A [`ProfileSink`] registered via [`Device::set_profile_sink`]
//! observes each report as it lands, so tests can assert invariants on
//! [`Counter`]s (see [`CounterSink`]); the `tlc-profile` crate turns
//! timelines into roofline-utilization profiles.
//!
//! ## Example
//!
//! ```
//! use tlc_gpu_sim::{Device, KernelConfig};
//!
//! let dev = Device::v100();
//! let input = dev.alloc_from_slice::<u32>(&(0..1024).collect::<Vec<_>>());
//! let mut output = dev.alloc_zeroed::<u32>(1024);
//!
//! let cfg = KernelConfig::new("double", 8, 128).regs_per_thread(16);
//! dev.launch(cfg, |blk| {
//!     let base = blk.block_id() * 128;
//!     let vals = blk.read_coalesced(&input, base, 128);
//!     let doubled: Vec<u32> = vals.iter().map(|v| v * 2).collect();
//!     blk.add_int_ops(128);
//!     blk.write_coalesced(&mut output, base, &doubled);
//! });
//!
//! assert_eq!(output.as_slice_unaccounted()[10], 20);
//! assert!(dev.elapsed_seconds() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod device;
pub mod fault;
pub mod kernel;
pub mod memory;
pub mod profile;
pub mod report;
pub mod scan;
pub mod threads;

pub use device::{Device, DeviceParams};
pub use fault::{FaultPlan, FaultStats, LaunchError, StorageFaults};
pub use kernel::{all_lanes, ballot, live_lanes, BlockCtx, KernelConfig, LaunchPart, Occupancy};
pub use memory::{GlobalBuffer, Scalar, SEGMENT_BYTES, WARP_SIZE};
pub use profile::{CounterSink, ProfileSink};
pub use report::{Counter, KernelReport, PartReport, Phase, PhaseSpans, Timeline, Traffic};
pub use threads::{map_ranges, partitions, set_sim_threads_override, sim_threads};
