//! Graceful-degradation tiers: the service-wide health state machine.
//!
//! Shard-level trouble is the breaker bank's job ([`crate::breaker`]);
//! this module reacts to trouble that is *systemic* — many queries in
//! a row needing recovery, retry budgets exhausting, devices lost —
//! by stepping the whole service down a degradation ladder:
//!
//! 1. [`Tier::Full`] — normal: full partition-memory budget, device
//!    path everywhere the breakers allow.
//! 2. [`Tier::ReducedBudget`] — the streaming budget is divided by
//!    `REDUCED_BUDGET_DIVISOR` (4), shrinking resident
//!    partitions (and with them the blast radius and memory pressure
//!    of a failing device fleet) at the cost of parallelism.
//! 3. [`Tier::CpuOnly`] — devices are taken out of the path entirely;
//!    every partition is answered by the CPU reference executor.
//!    Slow, but it cannot lose a device.
//!
//! Transitions are counter-driven and deterministic: a query that
//! needed any recovery (or worse, exhausted retries / lost a device)
//! is a *strike*; [`HealthConfig::demote_after`] consecutive strikes
//! step one tier down, [`HealthConfig::promote_after`] consecutive
//! clean queries step one tier up. Tests can pin the tier with
//! [`HealthConfig::disabled`].

/// Degradation tier the service is currently running at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Full GPU-sim execution under the configured budget.
    Full,
    /// Reduced partition-memory budget (fewer resident partitions).
    ReducedBudget,
    /// CPU reference execution only; no devices touched.
    CpuOnly,
}

impl Tier {
    /// Stable label for metrics and logs.
    pub fn label(&self) -> &'static str {
        match self {
            Tier::Full => "full",
            Tier::ReducedBudget => "reduced_budget",
            Tier::CpuOnly => "cpu_only",
        }
    }

    fn down(self) -> Tier {
        match self {
            Tier::Full => Tier::ReducedBudget,
            _ => Tier::CpuOnly,
        }
    }

    fn up(self) -> Tier {
        match self {
            Tier::CpuOnly => Tier::ReducedBudget,
            _ => Tier::Full,
        }
    }
}

/// Health policy knobs.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Consecutive queries needing recovery before stepping one tier
    /// down. `usize::MAX` pins the tier at [`Tier::Full`].
    pub demote_after: usize,
    /// Consecutive clean queries before stepping one tier up.
    pub promote_after: usize,
}

/// Divisor applied to `StreamOptions::budget_bytes` (and the service's
/// cache budget) on [`Tier::ReducedBudget`].
pub(crate) const REDUCED_BUDGET_DIVISOR: u64 = 4;

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            demote_after: 4,
            promote_after: 8,
        }
    }
}

impl HealthConfig {
    /// A machine pinned at [`Tier::Full`] (static behavior for tests).
    pub fn disabled() -> Self {
        HealthConfig {
            demote_after: usize::MAX,
            promote_after: usize::MAX,
        }
    }
}

/// The service-wide health state machine.
#[derive(Debug)]
pub struct HealthMachine {
    cfg: HealthConfig,
    tier: Tier,
    strikes: usize,
    clean: usize,
    transitions: usize,
}

impl HealthMachine {
    /// Fresh machine at [`Tier::Full`].
    pub fn new(cfg: HealthConfig) -> HealthMachine {
        HealthMachine {
            cfg,
            tier: Tier::Full,
            strikes: 0,
            clean: 0,
            transitions: 0,
        }
    }

    /// Current tier.
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// Tier transitions so far (for metrics).
    pub fn transitions(&self) -> usize {
        self.transitions
    }

    /// Fold one terminal query in: `struck` is true when the query
    /// needed any recovery action, exhausted its retries, or failed
    /// outright. Returns the tier the *next* query should run at.
    pub fn observe(&mut self, struck: bool) -> Tier {
        if self.cfg.demote_after == usize::MAX {
            return self.tier;
        }
        if struck {
            self.clean = 0;
            self.strikes += 1;
            if self.strikes >= self.cfg.demote_after && self.tier != Tier::CpuOnly {
                self.tier = self.tier.down();
                self.transitions += 1;
                self.strikes = 0;
            }
        } else {
            self.strikes = 0;
            self.clean += 1;
            if self.clean >= self.cfg.promote_after && self.tier != Tier::Full {
                self.tier = self.tier.up();
                self.transitions += 1;
                self.clean = 0;
            }
        }
        self.tier
    }

    /// The effective partition-memory budget at the current tier.
    pub fn effective_budget(&self, budget_bytes: u64) -> u64 {
        match self.tier {
            Tier::Full => budget_bytes,
            // Keep at least one partition admissible: the streaming
            // layer floors the worker count at 1 anyway, but a zero
            // budget would be a lie in the metrics.
            Tier::ReducedBudget | Tier::CpuOnly => (budget_bytes / REDUCED_BUDGET_DIVISOR).max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(demote: usize, promote: usize) -> HealthMachine {
        HealthMachine::new(HealthConfig {
            demote_after: demote,
            promote_after: promote,
        })
    }

    #[test]
    fn walks_the_full_ladder_down_and_back() {
        let mut h = machine(2, 3);
        assert_eq!(h.tier(), Tier::Full);
        h.observe(true);
        assert_eq!(h.observe(true), Tier::ReducedBudget);
        h.observe(true);
        assert_eq!(h.observe(true), Tier::CpuOnly);
        // Stays pinned at the bottom under further strikes.
        assert_eq!(h.observe(true), Tier::CpuOnly);
        // Three clean queries per step back up.
        h.observe(false);
        h.observe(false);
        assert_eq!(h.observe(false), Tier::ReducedBudget);
        h.observe(false);
        h.observe(false);
        assert_eq!(h.observe(false), Tier::Full);
        assert_eq!(h.transitions(), 4);
    }

    #[test]
    fn clean_query_resets_the_strike_streak() {
        let mut h = machine(3, 100);
        h.observe(true);
        h.observe(true);
        h.observe(false);
        h.observe(true);
        h.observe(true);
        assert_eq!(h.tier(), Tier::Full);
    }

    #[test]
    fn reduced_tier_divides_the_budget() {
        let mut h = machine(1, 1);
        assert_eq!(h.effective_budget(1 << 20), 1 << 20);
        h.observe(true);
        assert_eq!(h.tier(), Tier::ReducedBudget);
        assert_eq!(h.effective_budget(1 << 20), 1 << 18);
    }

    #[test]
    fn disabled_machine_is_pinned_full() {
        let mut h = HealthMachine::new(HealthConfig::disabled());
        for _ in 0..50 {
            h.observe(true);
        }
        assert_eq!(h.tier(), Tier::Full);
        assert_eq!(h.transitions(), 0);
    }
}
