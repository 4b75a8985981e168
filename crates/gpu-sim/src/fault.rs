//! Deterministic, seeded fault injection for the simulated device.
//!
//! A [`FaultPlan`] armed on a [`crate::Device`] models the failure
//! modes a production multi-GPU deployment must survive:
//!
//! * **Bit flips in global memory** — applied at allocation time to
//!   *corruptible* buffers (the `u32` word streams that hold encoded
//!   columns; see [`crate::memory::Scalar::CORRUPTIBLE`]), modelling
//!   persisted/transferred compressed data arriving damaged.
//! * **Transient kernel-launch failures** — a seeded Bernoulli draw per
//!   launch attempt, modelling ECC retirement stalls, driver hiccups
//!   and preemption timeouts that succeed on retry.
//! * **Whole-device loss** — at the first attempt of the launch the
//!   plan names, the device goes dark and every later launch fails,
//!   modelling a fallen-off-the-bus GPU (Xid 79 and friends).
//! * **Degraded bandwidth** — a multiplier on global-memory bandwidth,
//!   modelling thermal throttling or a sick HBM stack.
//!
//! Every decision is keyed by its **site**, not by its place in a
//! sequence (a counter-based draw, as in Salmon et al., "Parallel
//! Random Numbers: As Easy as 1, 2, 3", SC 2011): a buffer's flips by
//! [`FaultPlan::seed`] and a hash of the words it holds, a transient by
//! the seed, the kernel's name and how many times that name was
//! attempted on the device, and the kill by name. So adding, dropping
//! or reordering an upload or a launch moves no other draw, and a
//! campaign is exactly reproducible. Every injected fault is counted in
//! [`FaultStats`] so tests can reconcile observed errors against
//! injected ones.

use std::collections::HashMap;

use tlc_rng::{splitmix64, Rng};

/// Storage-level fault injection for out-of-core execution. The
/// simulated device never interprets these — they are directions to a
/// streaming executor (`tlc-ssb::stream`) for damaging the on-disk
/// shard a query is about to read, or killing the device that owns a
/// partition mid-query. Faults are keyed by **partition index**, not
/// by worker, so an injected campaign is bit-identical at any
/// `TLC_SIM_THREADS`: whichever worker happens to pick the partition
/// up hits exactly the same fault.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StorageFaults {
    /// Kill the device processing this partition mid-query (at its fact
    /// scan, `wave_scan`), modelling a shard worker dying with work in
    /// flight.
    pub kill_shard_at_partition: Option<usize>,
    /// Truncate this partition's first queried column file at a
    /// seed-derived byte before it is read, modelling a torn write
    /// surfacing mid-query.
    pub truncate_at_partition: Option<usize>,
    /// Flip a seed-derived bit in this partition's first queried
    /// column file before it is read, modelling bit rot at rest.
    pub flip_bit_at_partition: Option<usize>,
}

impl StorageFaults {
    /// True when no storage fault is armed.
    pub fn is_empty(&self) -> bool {
        self.kill_shard_at_partition.is_none()
            && self.truncate_at_partition.is_none()
            && self.flip_bit_at_partition.is_none()
    }
}

/// What faults to inject, and how often. Arm with
/// [`crate::Device::inject_faults`].
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed every draw is keyed by; same seed + same workload = same
    /// faults.
    pub seed: u64,
    /// Probability that any given corruptible word is bit-flipped at
    /// allocation time.
    pub bitflip_rate: f64,
    /// Probability that a kernel launch fails transiently.
    pub transient_launch_rate: f64,
    /// Lose the whole device at the first attempt of a launch with this
    /// kernel name.
    pub kill_at_launch: Option<&'static str>,
    /// Out-of-core storage faults (interpreted by the streaming
    /// executor, not the device; see [`StorageFaults`]).
    pub storage: StorageFaults,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            bitflip_rate: 0.0,
            transient_launch_rate: 0.0,
            kill_at_launch: None,
            storage: StorageFaults::default(),
        }
    }
}

impl FaultPlan {
    /// A plan with the given seed and no faults armed; set fields to
    /// taste.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Default::default()
        }
    }
}

/// Running tally of injected faults, for reconciling against observed
/// errors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Words bit-flipped at allocation time.
    pub bit_flips: usize,
    /// Launches that failed transiently.
    pub transient_failures: usize,
    /// Launch attempts observed (including failed ones).
    pub launches_attempted: usize,
    /// Whether the device has been lost.
    pub device_lost: bool,
}

/// A kernel launch that did not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// The launch failed transiently; retrying may succeed.
    Transient {
        /// Kernel name, for diagnostics.
        kernel: String,
    },
    /// The device is gone; no launch on it will ever succeed again.
    DeviceLost,
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::Transient { kernel } => {
                write!(f, "transient launch failure in kernel `{kernel}`")
            }
            LaunchError::DeviceLost => write!(f, "device lost"),
        }
    }
}

impl std::error::Error for LaunchError {}

/// Armed fault state on a device: the plan, each kernel name's attempt
/// count and the tally.
#[derive(Debug)]
pub(crate) struct FaultState {
    pub(crate) plan: FaultPlan,
    attempts: HashMap<String, u64>,
    pub(crate) stats: FaultStats,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultState {
            plan,
            attempts: HashMap::new(),
            stats: FaultStats::default(),
        }
    }

    /// Gate one launch attempt: device loss, then the named kill, then
    /// a transient draw keyed by (seed, `kernel`, this attempt's
    /// ordinal among `kernel`'s).
    pub(crate) fn gate_launch(&mut self, kernel: &str) -> Result<(), LaunchError> {
        self.stats.launches_attempted += 1;
        if self.plan.kill_at_launch == Some(kernel) {
            self.stats.device_lost = true;
        }
        if self.stats.device_lost {
            return Err(LaunchError::DeviceLost);
        }
        let p = self.plan.transient_launch_rate;
        if p > 0.0 {
            let attempt = self.attempts.entry(kernel.to_string()).or_insert(0);
            let name = kernel.bytes().fold(TRANSIENT_KEY, |h, b| mix(h, b.into()));
            let key = mix(name, *attempt);
            *attempt += 1;
            if self.rng(key).gen_bool(p) {
                self.stats.transient_failures += 1;
                return Err(LaunchError::Transient {
                    kernel: kernel.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Flip bits in a freshly allocated corruptible word buffer,
    /// geometric-skipping between hits so huge clean stretches cost
    /// almost nothing. The draws are keyed by the buffer's words.
    pub(crate) fn corrupt_words(&mut self, words: &mut [u32]) {
        let p = self.plan.bitflip_rate;
        if p <= 0.0 || words.is_empty() {
            return;
        }
        let key = words.iter().fold(FLIP_KEY, |h, &w| mix(h, w.into()));
        let mut rng = self.rng(key);
        let mut i = if p >= 1.0 { 0 } else { gap(&mut rng, p) };
        while i < words.len() {
            let bit = rng.gen_range(0u32..32);
            words[i] ^= 1 << bit;
            self.stats.bit_flips += 1;
            i += 1 + if p >= 1.0 { 0 } else { gap(&mut rng, p) };
        }
    }

    /// The generator for one site: the plan seed mixed with `site`.
    fn rng(&self, site: u64) -> Rng {
        Rng::seed_from_u64(mix(self.plan.seed, site))
    }
}

/// Start values of the two kinds of site key, so a buffer and a kernel
/// name never share one.
const FLIP_KEY: u64 = 0xF11B_F11B;
const TRANSIENT_KEY: u64 = 0x7A45_1E47;

/// Fold `x` into the key `h` (one splitmix64 step over `h ^ x`).
fn mix(h: u64, x: u64) -> u64 {
    let mut state = h ^ x;
    splitmix64(&mut state)
}

/// Number of clean words before the next flip (geometric draw).
fn gap(rng: &mut Rng, p: f64) -> usize {
    let u = rng.gen_f64().max(f64::MIN_POSITIVE);
    let g = u.ln() / (1.0 - p).ln();
    if g >= usize::MAX as f64 {
        usize::MAX
    } else {
        g as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flips_are_deterministic_and_counted() {
        let plan = FaultPlan {
            bitflip_rate: 0.01,
            ..FaultPlan::seeded(7)
        };
        // The same buffer, alone and after other corruptible buffers on
        // the same device: its flips are keyed by its words only.
        let run = |others: u32| {
            let mut st = FaultState::new(plan.clone());
            for k in 0..others {
                st.corrupt_words(&mut vec![k + 1; 1_000 * k as usize + 17]);
            }
            let before = st.stats.bit_flips;
            let mut words: Vec<u32> = (0..100_000).collect();
            st.corrupt_words(&mut words);
            (words, st.stats.bit_flips - before)
        };
        let (a, flips_a) = run(0);
        for others in [0, 1, 3] {
            let (b, flips_b) = run(others);
            assert_eq!(a, b, "after {others} other buffers");
            assert_eq!(flips_a, flips_b, "after {others} other buffers");
        }
        let touched = a.iter().zip(0..).filter(|&(&w, i)| w != i).count();
        // Each flip touches one word; rarely two flips hit the same word.
        assert!(touched >= flips_a * 9 / 10 && touched <= flips_a);
        // ~1% of 100k words, loosely.
        assert!((500..2_000).contains(&flips_a), "flips = {flips_a}");
    }

    #[test]
    fn rate_one_flips_every_word() {
        let mut st = FaultState::new(FaultPlan {
            bitflip_rate: 1.0,
            ..FaultPlan::seeded(1)
        });
        let mut words = vec![0u32; 64];
        st.corrupt_words(&mut words);
        assert!(words.iter().all(|&w| w != 0));
        assert_eq!(st.stats.bit_flips, 64);
    }

    #[test]
    fn kill_countdown_loses_device_permanently() {
        let mut st = FaultState::new(FaultPlan {
            kill_at_launch: Some("scan"),
            ..FaultPlan::seeded(0)
        });
        assert!(st.gate_launch("build").is_ok());
        assert!(st.gate_launch("build").is_ok());
        assert_eq!(st.gate_launch("scan"), Err(LaunchError::DeviceLost));
        // Lost for every launch after it, of any name.
        assert_eq!(st.gate_launch("build"), Err(LaunchError::DeviceLost));
        assert_eq!(st.gate_launch("scan"), Err(LaunchError::DeviceLost));
        assert!(st.stats.device_lost);
        assert_eq!(st.stats.launches_attempted, 5);
    }

    #[test]
    fn transient_rate_is_seeded() {
        let plan = FaultPlan {
            transient_launch_rate: 0.3,
            ..FaultPlan::seeded(42)
        };
        // 100 attempts of `k`, with `between` launches of other names
        // after each: `k`'s outcomes are keyed by its own attempts only.
        let run = |between: usize| {
            let mut st = FaultState::new(plan.clone());
            (0..100)
                .map(|i| {
                    let failed = st.gate_launch("k").is_err();
                    for j in 0..between {
                        let _ = st.gate_launch(&format!("other{}", i + j));
                    }
                    failed
                })
                .collect::<Vec<_>>()
        };
        let alone = run(0);
        assert_eq!(alone, run(0));
        assert_eq!(alone, run(1));
        assert_eq!(alone, run(3));
        let failures = alone.iter().filter(|&&f| f).count();
        assert!((10..60).contains(&failures), "failures = {failures}");
        // Rate 1.0 fails every attempt.
        let mut st = FaultState::new(FaultPlan {
            transient_launch_rate: 1.0,
            ..plan
        });
        assert!((0..50).all(|i| st.gate_launch(&format!("k{}", i % 3)).is_err()));
    }
}
