//! Traffic counters, per-phase spans, and per-kernel execution reports.

/// A logical phase of a decode/query kernel, used to attribute traffic.
///
/// Every [`crate::BlockCtx`] carries a *current phase*; all traffic the
/// block charges lands in that phase's [`Traffic`] span. Kernels opt in
/// by calling [`crate::BlockCtx::set_phase`] at phase boundaries —
/// uninstrumented kernels simply accumulate everything under
/// [`Phase::Other`], so the per-kernel totals are always exact
/// regardless of instrumentation coverage.
///
/// The phases follow the life of a tile in the paper's Algorithm 1 and
/// the Crystal query pipeline: gather the tile's block offsets from
/// global memory, stage the compressed words into shared memory (with
/// checksum verification), unpack the miniblocks, expand deltas/runs,
/// evaluate predicates and join probes, aggregate, and write decoded
/// output back to global memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Gathering tile/block metadata (offsets, checksums) from global
    /// memory, and uncompressed column loads.
    GlobalLoad,
    /// Staging compressed words into shared memory, including checksum
    /// verification and structural validation of the staged tile.
    SharedStage,
    /// Bit-unpacking miniblocks from shared memory into registers.
    Unpack,
    /// Cascade expansion: delta prefix-scan (DFOR) or run-length
    /// expansion (RFOR).
    Expand,
    /// Predicate evaluation and hash-table probes.
    Predicate,
    /// Aggregation: block-local reductions and global atomics.
    Aggregate,
    /// Writing decoded values or materialized results back to global
    /// memory.
    Writeback,
    /// Everything not attributed to a named phase (including register
    /// spill traffic, which is charged at launch granularity).
    Other,
}

impl Phase {
    /// Number of phases (the length of [`Phase::ALL`]).
    pub const COUNT: usize = 8;

    /// Every phase, in pipeline order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::GlobalLoad,
        Phase::SharedStage,
        Phase::Unpack,
        Phase::Expand,
        Phase::Predicate,
        Phase::Aggregate,
        Phase::Writeback,
        Phase::Other,
    ];

    /// Stable snake_case name (used in JSON artifacts).
    pub fn name(self) -> &'static str {
        match self {
            Phase::GlobalLoad => "global_load",
            Phase::SharedStage => "shared_stage",
            Phase::Unpack => "unpack",
            Phase::Expand => "expand",
            Phase::Predicate => "predicate",
            Phase::Aggregate => "aggregate",
            Phase::Writeback => "writeback",
            Phase::Other => "other",
        }
    }

    /// Index into [`Phase::ALL`] (and into [`PhaseSpans`] storage).
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// A semantic event counter, incremented by instrumented kernels via
/// [`crate::BlockCtx::bump`].
///
/// Unlike [`Traffic`], which measures *cost*, counters measure *what
/// happened*, so tests can state invariants such as "each encoded tile
/// is read from global memory exactly once per decode".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Times a tile's compressed payload was fetched from global
    /// memory (once per [`Phase::SharedStage`] staging, per tile).
    EncodedTileReads,
    /// Tiles fully decoded.
    TilesDecoded,
    /// 32-value miniblocks bit-unpacked.
    MiniblocksUnpacked,
    /// 32-value miniblocks skipped outright by the fused
    /// decode→predicate path because every lane was already dead in the
    /// incoming selection bitmap.
    MiniblocksSkipped,
    /// Decoded values materialized (after cascade expansion).
    ValuesProduced,
    /// RLE runs expanded (RFOR only).
    RunsExpanded,
}

impl Counter {
    /// Number of counters (the length of [`Counter::ALL`]).
    pub const COUNT: usize = 6;

    /// Every counter.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::EncodedTileReads,
        Counter::TilesDecoded,
        Counter::MiniblocksUnpacked,
        Counter::MiniblocksSkipped,
        Counter::ValuesProduced,
        Counter::RunsExpanded,
    ];

    /// Stable snake_case name (used in JSON artifacts).
    pub fn name(self) -> &'static str {
        match self {
            Counter::EncodedTileReads => "encoded_tile_reads",
            Counter::TilesDecoded => "tiles_decoded",
            Counter::MiniblocksUnpacked => "miniblocks_unpacked",
            Counter::MiniblocksSkipped => "miniblocks_skipped",
            Counter::ValuesProduced => "values_produced",
            Counter::RunsExpanded => "runs_expanded",
        }
    }

    /// Index into [`Counter::ALL`] (and into [`PhaseSpans`] storage).
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// Per-phase traffic spans plus semantic counters for one kernel.
///
/// Everything here is an integer accumulated with commutative sums, so
/// the determinism contract (DESIGN.md §11) extends to phase spans:
/// they are bit-identical for any `TLC_SIM_THREADS` worker count.
/// `PartialEq` is exact, and the determinism tests compare span by
/// span.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseSpans {
    phases: [Traffic; Phase::COUNT],
    counters: [u64; Counter::COUNT],
}

impl PhaseSpans {
    /// Traffic attributed to `phase`.
    pub fn phase(&self, phase: Phase) -> &Traffic {
        &self.phases[phase.index()]
    }

    /// Mutable traffic span for `phase`.
    pub(crate) fn phase_mut(&mut self, phase: Phase) -> &mut Traffic {
        &mut self.phases[phase.index()]
    }

    /// Value of a semantic counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// Increment a semantic counter by `n`.
    pub(crate) fn bump(&mut self, counter: Counter, n: u64) {
        self.counters[counter.index()] += n;
    }

    /// Sum of all phase spans — the kernel's total [`Traffic`].
    pub fn total(&self) -> Traffic {
        self.phases
            .iter()
            .fold(Traffic::default(), |acc, t| acc.merge(t))
    }

    /// Element-wise sum of two span sets.
    pub fn merge(&self, other: &PhaseSpans) -> PhaseSpans {
        let mut out = self.clone();
        for p in Phase::ALL {
            out.phases[p.index()] = out.phases[p.index()].merge(other.phase(p));
        }
        for c in Counter::ALL {
            out.counters[c.index()] += other.counter(c);
        }
        out
    }

    /// Phases with any recorded traffic, in pipeline order.
    pub fn active_phases(&self) -> impl Iterator<Item = (Phase, &Traffic)> {
        Phase::ALL
            .iter()
            .map(|&p| (p, self.phase(p)))
            .filter(|(_, t)| **t != Traffic::default())
    }
}

/// Raw traffic counters accumulated while a kernel executes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Traffic {
    /// 128-byte global read transactions.
    pub global_read_segments: u64,
    /// 128-byte global write transactions.
    pub global_write_segments: u64,
    /// Bytes moved through shared memory (reads + writes).
    pub shared_bytes: u64,
    /// Integer/ALU operations executed.
    pub int_ops: u64,
    /// Bytes of register spill round-trips charged to global memory.
    pub spill_bytes: u64,
}

impl Traffic {
    /// Total bytes moved through global memory, including spills.
    pub fn global_bytes(&self) -> u64 {
        (self.global_read_segments + self.global_write_segments) * crate::SEGMENT_BYTES
            + self.spill_bytes
    }

    /// Element-wise sum of two traffic reports.
    pub fn merge(&self, other: &Traffic) -> Traffic {
        Traffic {
            global_read_segments: self.global_read_segments + other.global_read_segments,
            global_write_segments: self.global_write_segments + other.global_write_segments,
            shared_bytes: self.shared_bytes + other.shared_bytes,
            int_ops: self.int_ops + other.int_ops,
            spill_bytes: self.spill_bytes + other.spill_bytes,
        }
    }
}

/// One part of a launch (see [`crate::LaunchPart`]) as the launch's
/// [`KernelReport`] keeps it: what the part moved, and what the model
/// would have charged had it been launched alone.
#[derive(Debug, Clone, PartialEq)]
pub struct PartReport {
    /// The part's kernel name.
    pub name: String,
    /// Thread blocks of the part.
    pub grid_blocks: usize,
    /// The part's own per-phase spans and counters, its register spill
    /// included. The launch's spans are the sum over its parts.
    pub spans: PhaseSpans,
    /// Modelled seconds of this part as a launch of its own, launch
    /// overhead included: the weight of its share of the launch.
    pub solo_seconds: f64,
}

/// What one simulated event (kernel launch or PCIe transfer) cost.
///
/// `PartialEq` compares every field, floats included, with no epsilon:
/// the determinism contract (DESIGN.md §11) promises bit-identical
/// reports across worker counts, and the tests hold it to that.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelReport {
    /// Kernel name (or `"pcie"` for transfers).
    pub name: String,
    /// Thread blocks launched (0 for transfers).
    pub grid_blocks: usize,
    /// Threads per block (0 for transfers).
    pub threads_per_block: usize,
    /// Achieved occupancy, in [0, 1] (1.0 for transfers).
    pub occupancy: f64,
    /// Traffic counters (sum over all phase spans).
    pub traffic: Traffic,
    /// Per-phase spans and semantic counters. Empty (all defaults) for
    /// PCIe transfers and faulted launches.
    pub spans: PhaseSpans,
    /// Simulated execution time in seconds.
    pub seconds: f64,
    /// Which roofline leg dominated: "global", "shared", "compute",
    /// "overhead", or "pcie".
    pub bound_by: &'static str,
    /// The launch's parts, in launch order (one for a plain launch;
    /// none for PCIe transfers and faulted launches).
    pub parts: Vec<PartReport>,
}

impl KernelReport {
    /// The fraction of this launch's seconds that `parts` (a range of
    /// indices into [`KernelReport::parts`]) pay: their solo seconds
    /// over the solo seconds of all parts. Both sums run in part order,
    /// so the range of every part pays exactly 1.0.
    pub fn share(&self, parts: std::ops::Range<usize>) -> f64 {
        let solo = |parts: &[PartReport]| parts.iter().map(|p| p.solo_seconds).sum::<f64>();
        solo(&self.parts[parts]) / solo(&self.parts)
    }

    /// This event's seconds under linear scaling of the workload by
    /// `factor` (see [`Timeline::scaled_seconds`]).
    pub fn scaled_seconds(&self, factor: f64, launch_overhead_s: f64) -> f64 {
        if self.name == "pcie" {
            self.seconds * factor
        } else {
            let variable = (self.seconds - launch_overhead_s).max(0.0);
            launch_overhead_s + variable * factor
        }
    }
}

/// An ordered record of every simulated event since the last reset.
///
/// Harnesses measure an operation by `device.reset_timeline()`, running
/// the kernels, then summing [`Timeline::total_seconds`].
#[derive(Debug, Default)]
pub struct Timeline {
    events: Vec<KernelReport>,
}

impl Timeline {
    pub(crate) fn push(&mut self, report: KernelReport) {
        self.events.push(report);
    }

    /// All events in launch order.
    pub fn events(&self) -> &[KernelReport] {
        &self.events
    }

    /// Number of kernel launches (excluding PCIe transfers).
    pub fn kernel_launches(&self) -> usize {
        self.events.iter().filter(|e| e.name != "pcie").count()
    }

    /// Sum of simulated time over all events.
    pub fn total_seconds(&self) -> f64 {
        self.events.iter().map(|e| e.seconds).sum()
    }

    /// Aggregate traffic over all events.
    pub fn total_traffic(&self) -> Traffic {
        self.events
            .iter()
            .fold(Traffic::default(), |acc, e| acc.merge(&e.traffic))
    }

    /// Aggregate phase spans and counters over all events.
    pub fn total_spans(&self) -> PhaseSpans {
        self.events
            .iter()
            .fold(PhaseSpans::default(), |acc, e| acc.merge(&e.spans))
    }

    /// Simulated time under linear scaling of the workload by `factor`.
    ///
    /// Traffic-proportional legs (memory, compute, per-block overhead)
    /// scale linearly with dataset size for every streaming kernel in
    /// this workspace; the fixed per-launch overhead does not. This lets
    /// harnesses execute functionally at a reduced N and report the model
    /// time for the paper's N (see DESIGN.md §1).
    pub fn scaled_seconds(&self, factor: f64, launch_overhead_s: f64) -> f64 {
        self.events
            .iter()
            .map(|e| e.scaled_seconds(factor, launch_overhead_s))
            .sum()
    }

    pub(crate) fn clear(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(name: &str, secs: f64) -> KernelReport {
        let mut spans = PhaseSpans::default();
        spans.phase_mut(Phase::GlobalLoad).global_read_segments = 10;
        spans.bump(Counter::TilesDecoded, 1);
        KernelReport {
            name: name.to_string(),
            grid_blocks: 1,
            threads_per_block: 128,
            occupancy: 1.0,
            traffic: spans.total(),
            spans,
            seconds: secs,
            bound_by: "global",
            parts: Vec::new(),
        }
    }

    #[test]
    fn timeline_sums() {
        let mut t = Timeline::default();
        t.push(report("a", 1.0));
        t.push(report("b", 2.0));
        assert_eq!(t.total_seconds(), 3.0);
        assert_eq!(t.kernel_launches(), 2);
        assert_eq!(t.total_traffic().global_read_segments, 20);
        let spans = t.total_spans();
        assert_eq!(spans.phase(Phase::GlobalLoad).global_read_segments, 20);
        assert_eq!(spans.counter(Counter::TilesDecoded), 2);
        assert_eq!(spans.total(), t.total_traffic());
    }

    #[test]
    fn phase_spans_merge_and_active() {
        let mut a = PhaseSpans::default();
        a.phase_mut(Phase::Unpack).int_ops = 5;
        a.bump(Counter::ValuesProduced, 128);
        let mut b = PhaseSpans::default();
        b.phase_mut(Phase::Unpack).int_ops = 7;
        b.phase_mut(Phase::Expand).shared_bytes = 64;
        let m = a.merge(&b);
        assert_eq!(m.phase(Phase::Unpack).int_ops, 12);
        assert_eq!(m.phase(Phase::Expand).shared_bytes, 64);
        assert_eq!(m.counter(Counter::ValuesProduced), 128);
        let active: Vec<Phase> = m.active_phases().map(|(p, _)| p).collect();
        assert_eq!(active, vec![Phase::Unpack, Phase::Expand]);
        assert_eq!(m.total().int_ops, 12);
        assert_eq!(m.total().shared_bytes, 64);
    }

    #[test]
    fn scaling_keeps_launch_overhead_fixed() {
        let mut t = Timeline::default();
        t.push(report("a", 1.0));
        // overhead 0.25 fixed, variable 0.75 scales 2x => 0.25 + 1.5
        assert!((t.scaled_seconds(2.0, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn pcie_scales_fully() {
        let mut t = Timeline::default();
        t.push(report("pcie", 1.0));
        assert!((t.scaled_seconds(3.0, 0.25) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn traffic_global_bytes_includes_spill() {
        let tr = Traffic {
            global_read_segments: 2,
            global_write_segments: 1,
            spill_bytes: 100,
            ..Default::default()
        };
        assert_eq!(tr.global_bytes(), 3 * 128 + 100);
    }
}
