//! What every workload shares: the run's context, its report, the
//! time-bounded cycle loop, repeated set-up, and the store set-up.

use std::path::PathBuf;
use std::time::Instant;

use tlc_ssb::{LoColumn, SsbStore, StreamSpec};

use crate::env::Scratch;
use crate::metrics::Metrics;
use crate::stats::median;
use crate::trace::Tracer;

/// Arguments of one workload run.
pub struct Ctx {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: how long the run measures.
    pub seconds: f64,
    /// `--trace 1`: the per-layer pass.
    pub trace: bool,
    /// Where stores go.
    pub scratch: Scratch,
}

impl Ctx {
    /// Times set-up runs: [`SETUP_REPS`] untraced, so `setup_s` is a
    /// median; once traced, where it is not reported.
    pub fn setup_reps(&self) -> usize {
        if self.trace {
            1
        } else {
            SETUP_REPS
        }
    }

    /// Seconds of untraced cycles: all of `--seconds`, or `traced_share`
    /// of it in a traced run, as the control the traced cycles are held
    /// against.
    pub fn control_seconds(&self, traced_share: f64) -> f64 {
        if self.trace {
            self.seconds * traced_share
        } else {
            self.seconds
        }
    }
}

/// What one workload run found.
#[derive(Default)]
pub struct Report {
    /// Metric values.
    pub metrics: Metrics,
    /// Operations whose answer was checked.
    pub attempted: u64,
    /// Operations that failed, were refused or answered wrongly.
    pub failed: u64,
    /// Why the run is not correct (first few), beyond failed operations.
    pub problems: Vec<String>,
    /// Exact metrics that did not repeat from cycle to cycle.
    pub unstable: Vec<String>,
    /// Free-form rows for the reader (sample counts, sizes).
    pub notes: Vec<(String, String)>,
    /// Spans of the traced pass.
    pub tracer: Option<Tracer>,
}

impl Report {
    /// Count one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problem(what());
        }
    }

    /// Hold a condition the workload rests on (a clean reopen, a cache
    /// that is in fact cold). Not an operation, but the run is not
    /// correct without it.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problem(what());
        }
    }

    fn problem(&mut self, what: String) {
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }

    /// Record that an exact quantity differed between two cycles of this
    /// run, so it is reported as unstable and not silently compared.
    pub fn expect_same(&mut self, name: &str, first: f64, later: f64) {
        if first.to_bits() != later.to_bits() && !self.unstable.iter().any(|n| n == name) {
            self.unstable.push(name.to_string());
        }
    }

    /// Add a row for the reader.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// True when every operation and every required condition held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Fewest cycles a timed phase runs, however long one takes.
pub const MIN_CYCLES: usize = 3;

/// Run whole cycles of a fixed operation list until `seconds` have
/// passed, and at least `min` of them. The operations of a cycle are
/// constants in the source; only how many cycles fit is decided by the
/// clock, so a per-cycle count is the same on a fast and a slow commit.
pub fn cycles(seconds: f64, min: usize, mut cycle: impl FnMut(usize)) -> usize {
    let t0 = Instant::now();
    let mut n = 0;
    while n < min || t0.elapsed().as_secs_f64() < seconds {
        cycle(n);
        n += 1;
    }
    n
}

/// Times set-up is repeated in an untraced run; `setup_s` is the median.
pub const SETUP_REPS: usize = 7;

/// Reopen passes in each store set-up.
pub const SETUP_REOPENS: usize = 3;

/// Run `setup` `reps` times, handing each product but the last to
/// `discard`. Returns the last product, every product's timings, and the
/// median wall time of one set-up.
pub fn repeat_setup<T, S>(
    reps: usize,
    mut setup: impl FnMut() -> (T, S),
    mut discard: impl FnMut(T),
) -> (T, Vec<S>, f64) {
    let mut walls = Vec::with_capacity(reps);
    let mut timings = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        if let Some(old) = last.take() {
            discard(old);
        }
        let t = Instant::now();
        let (product, timing) = setup();
        walls.push(t.elapsed().as_secs_f64());
        timings.push(timing);
        last = Some(product);
    }
    (last.expect("at least one set-up"), timings, median(&walls))
}

/// `encode_mvals_per_s` of a workload that ingests only in set-up: rows
/// × 14 columns over the fastest of the set-ups' `SsbStore::ingest`
/// calls. A run has seven of them, two fifths of each is writing and
/// syncing files, and the sandbox's disk only ever adds time: over twelve
/// runs the fastest moved by 5 % (quartile distance) where the median
/// moved by 10 %.
pub fn fastest_ingest_mvals_per_s(rows: u64, ingest_s: impl Iterator<Item = f64>) -> f64 {
    let fastest = ingest_s.fold(f64::INFINITY, f64::min);
    (rows * LoColumn::ALL.len() as u64) as f64 / fastest / 1e6
}

/// A freshly ingested and deeply reopened store, with what it cost.
pub struct OpenedStore {
    /// Its directory, under the scratch root.
    pub dir: PathBuf,
    /// The store, opened the way a serving process would.
    pub store: SsbStore,
    /// Wall seconds of `SsbStore::ingest`.
    pub ingest_s: f64,
    /// Wall seconds of each `open_deep` plus `Store::verify` pass.
    pub reopen_verify_s: Vec<f64>,
    /// Whether `open_deep` found nothing to recover and `verify` passed
    /// over every row.
    pub clean: bool,
}

impl OpenedStore {
    /// Fact rows.
    pub fn rows(&self) -> u64 {
        let s = self.store.store();
        (0..s.partition_count()).map(|p| s.rows(p)).sum()
    }

    /// Bytes of every partition file.
    pub fn bytes(&self) -> u64 {
        let s = self.store.store();
        (0..s.partition_count()).map(|p| s.partition_bytes(p)).sum()
    }

    /// Stored bytes per fact row over the 14 columns.
    pub fn bytes_per_row(&self) -> f64 {
        self.bytes() as f64 / self.rows() as f64
    }
}

/// Ingest `spec` into a fresh directory, drop the writer's handle, then
/// reopen deep and verify `reopens` times (at least once), keeping the
/// last handle: one cycle of `ingest` (one reopen) and the store set-up
/// of every store workload (three, so `reopen_verify_s` has enough
/// samples there for its median to hold still).
pub fn ingest_and_reopen(scratch: &mut Scratch, spec: &StreamSpec, reopens: usize) -> OpenedStore {
    let dir = scratch.fresh();
    let t = Instant::now();
    let written = SsbStore::ingest(&dir, spec).expect("ingest into a fresh directory");
    let ingest_s = t.elapsed().as_secs_f64();
    drop(written);
    let mut reopen_verify_s = Vec::with_capacity(reopens);
    let mut clean = true;
    let mut last = None;
    for _ in 0..reopens.max(1) {
        drop(last.take());
        let t = Instant::now();
        let (store, recovery) = SsbStore::open_deep(&dir).expect("reopen what was just committed");
        let verified = store.store().verify();
        reopen_verify_s.push(t.elapsed().as_secs_f64());
        let rows: u64 = (0..store.store().partition_count())
            .map(|p| store.store().rows(p))
            .sum();
        clean &= recovery.is_clean() && verified.is_ok_and(|v| v.rows == rows);
        last = Some(store);
    }
    OpenedStore {
        dir,
        store: last.expect("at least one reopen"),
        ingest_s,
        reopen_verify_s,
        clean,
    }
}
