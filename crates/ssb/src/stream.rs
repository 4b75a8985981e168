//! Out-of-core streamed execution over a `tlc-store` shard store.
//!
//! Paper-scale SSB (Section 4.2's 500 M-row runs) does not fit in
//! memory, so the fact table lives on disk as a [`tlc_store::Store`] of
//! fixed-size compressed partitions ([`SsbStore`]) and streams through
//! **one partition executor** under a bounded partition-memory budget:
//! at most `workers` partitions are resident at once, where `workers`
//! is capped by `TLC_SIM_THREADS` and by `budget_bytes` over the
//! largest partition's uncached working set.
//!
//! Every entry point is a run of that executor over a list of members
//! ([`WaveQuery`]) and a list of columns: [`run_query_streamed_bounded`]
//! is the one-member run over the flight's own columns,
//! [`run_wave_streamed`] the N-member run over the union. Per
//! partition, once: the forced-CPU route
//! ([`StreamOptions::force_cpu_partitions`]: regenerated rows, no file,
//! no device), the plan's storage faults ([`StreamOptions::plan`]), the
//! **storage ladder** (load → quarantine → regenerate from the chunked
//! generator, [`StreamSpec`] → heal in place; regeneration is
//! deterministic, so the healed file is byte-identical to the
//! committed one) and the **device ladder** of [`crate::resilience`] on
//! a partition-private device (bounded transient retries → fresh
//! device → CPU). Then one fold, in partition order: each column's cost
//! split across the members that consume it, each member's device-time
//! deadline checked between partitions (a cut is a typed
//! [`StreamError::DeadlineExceeded`] carrying a [`DeadlinePartial`]),
//! reports absorbed, partial aggregates merged.
//!
//! Only the *evaluate* step has two arms, fixed by the entry point and
//! never by an option. **Inline** (a solo flight) uploads the encoded
//! columns and decodes inside the fused query kernel — the paper's path
//! (§Crystal integration, Fig. 11). **Shared** (a wave; a solo scan or
//! point filter is its one-member case) decompresses each column once
//! to a plain buffer and evaluates every member on the buffers. Shared
//! cannot replace inline yet: a one-member flight wave costs 2–3× the
//! inline run in modelled device time (table in docs/ARCHITECTURE.md),
//! so the inline arm stays until waves decode inline too.
//!
//! Determinism contract: injected faults ([`StorageFaults`], and each
//! partition's fault PRNG seed) are keyed by **partition index**, a
//! partition's record does not depend on which members are still live,
//! and the fold is serial — so answers, attributed costs, deadline cuts
//! and every [`ResilienceReport`] are bit-identical at any worker
//! count. Only host wall-clock and the worker-assignment time fields
//! vary with `TLC_SIM_THREADS`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;

use tlc_core::EncodedColumn;
use tlc_gpu_sim::{Device, FaultPlan, StorageFaults};
use tlc_rng::Rng;
use tlc_store::{
    damage, modeled_read_s, CompactReport, Ingest, PartitionCache, RecoveryReport, Store,
    StoreError,
};

use crate::encode::LoColumns;
use crate::fleet::map_ordered;
use crate::gen::{LineOrder, LoColumn, SsbData, StreamSpec};
use crate::queries::QueryId;
use crate::reference::run_reference;
use crate::resilience::{device_ladder, run_query_checked, ResilienceReport};

/// Manifest metadata keys that persist the [`StreamSpec`] so a store
/// reopened by a later process can regenerate any partition.
const META_SEED: &str = "ssb.seed";
const META_ORDERS_PER_CHUNK: &str = "ssb.orders_per_chunk";
const META_CHUNKS: &str = "ssb.chunks";
const META_CHUNK_FACTOR: &str = "ssb.chunk_factor";
const META_N_CUST: &str = "ssb.n_cust";
const META_N_SUPP: &str = "ssb.n_supp";
const META_N_PART: &str = "ssb.n_part";

/// An SSB fact table persisted as a partitioned compressed store, plus
/// the generation spec that can re-create any partition from scratch.
#[derive(Debug)]
pub struct SsbStore {
    store: Store,
    spec: StreamSpec,
    /// Generator chunks per store partition (1 after ingest; multiplied
    /// by every compaction).
    factor: usize,
}

impl SsbStore {
    /// Ingest `spec` into `dir`: one store partition per generator
    /// chunk, all 14 lineorder columns GPU-*-encoded, committed by the
    /// manifest's atomic rename. Memory use is bounded by one chunk.
    pub fn ingest(dir: &Path, spec: &StreamSpec) -> Result<SsbStore, StoreError> {
        let names: Vec<&str> = LoColumn::ALL.iter().map(|c| c.name()).collect();
        let mut ing = Ingest::create(dir, &names)?;
        ing.set_meta(META_SEED, spec.seed);
        ing.set_meta(META_ORDERS_PER_CHUNK, spec.orders_per_chunk as u64);
        ing.set_meta(META_CHUNKS, spec.chunks as u64);
        ing.set_meta(META_CHUNK_FACTOR, 1);
        ing.set_meta(META_N_CUST, spec.n_cust as u64);
        ing.set_meta(META_N_SUPP, spec.n_supp as u64);
        ing.set_meta(META_N_PART, spec.n_part as u64);
        for c in 0..spec.chunks {
            let lo = spec.chunk(c);
            let cols: Vec<EncodedColumn> = LoColumn::ALL
                .iter()
                .map(|col| EncodedColumn::encode_best(lo.column(*col)))
                .collect();
            ing.append_partition(&cols)?;
        }
        let store = ing.commit()?;
        Ok(SsbStore {
            store,
            spec: spec.clone(),
            factor: 1,
        })
    }

    /// Open an existing store with crash recovery (torn-tmp/stale
    /// sweep, length scan, quarantine) and re-derive the generation
    /// spec from the manifest metadata.
    pub fn open(dir: &Path) -> Result<(SsbStore, RecoveryReport), StoreError> {
        let (store, report) = Store::open(dir)?;
        Ok((SsbStore::from_store(store)?, report))
    }

    /// [`SsbStore::open`] plus a whole-file digest re-read of every
    /// partition file, catching bit rot that leaves lengths intact.
    pub fn open_deep(dir: &Path) -> Result<(SsbStore, RecoveryReport), StoreError> {
        let (store, report) = Store::open_deep(dir)?;
        Ok((SsbStore::from_store(store)?, report))
    }

    fn from_store(store: Store) -> Result<SsbStore, StoreError> {
        SsbStore::from_open(store).map_err(|e| e.1)
    }

    /// Wrap an already-opened [`Store`] whose manifest carries the
    /// generation spec. On failure the store is handed back untouched
    /// (boxed, to keep the error variant small), so a caller (e.g.
    /// `tlc verify --manifest`) can fall back to the generic,
    /// non-regenerable walk without re-running recovery.
    pub fn from_open(store: Store) -> Result<SsbStore, Box<(Store, StoreError)>> {
        let parsed = (|| -> Result<(StreamSpec, usize), StoreError> {
            let meta = |key: &str| {
                store
                    .manifest()
                    .meta_u64(key)
                    .ok_or_else(|| StoreError::ManifestStructure {
                        reason: format!("missing metadata key `{key}`"),
                    })
            };
            let spec = StreamSpec {
                seed: meta(META_SEED)?,
                orders_per_chunk: meta(META_ORDERS_PER_CHUNK)? as usize,
                chunks: meta(META_CHUNKS)? as usize,
                n_cust: meta(META_N_CUST)? as usize,
                n_supp: meta(META_N_SUPP)? as usize,
                n_part: meta(META_N_PART)? as usize,
            };
            let factor = meta(META_CHUNK_FACTOR)? as usize;
            if factor == 0 || spec.orders_per_chunk == 0 {
                return Err(StoreError::ManifestStructure {
                    reason: "zero chunk factor or orders per chunk".to_string(),
                });
            }
            let expect = spec.chunks.div_ceil(factor);
            if store.partition_count() != expect {
                return Err(StoreError::ManifestStructure {
                    reason: format!(
                        "{} partitions but spec implies {expect} ({} chunks / factor {factor})",
                        store.partition_count(),
                        spec.chunks
                    ),
                });
            }
            Ok((spec, factor))
        })();
        match parsed {
            Ok((spec, factor)) => Ok(SsbStore {
                store,
                spec,
                factor,
            }),
            Err(e) => Err(Box::new((store, e))),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The generation spec.
    pub fn spec(&self) -> &StreamSpec {
        &self.spec
    }

    /// Generator chunks per store partition.
    pub fn chunk_factor(&self) -> usize {
        self.factor
    }

    /// Regenerate partition `p`'s rows from the chunked generator —
    /// `O(partition)`, independent of every other partition, and
    /// bit-identical on every call (which is what lets
    /// [`tlc_store::Store::heal_column`] verify a healed file against
    /// the committed digest).
    pub fn regenerate_partition(&self, p: usize) -> LineOrder {
        let lo_chunk = p * self.factor;
        let hi_chunk = ((p + 1) * self.factor).min(self.spec.chunks);
        let mut lo = LineOrder::default();
        for c in lo_chunk..hi_chunk {
            lo.extend_from(&self.spec.chunk(c));
        }
        lo
    }

    /// Regenerate and heal every column currently in the store's
    /// damage ledger (quarantined at open or on a failed read),
    /// returning the number of files healed. Because regeneration is
    /// deterministic, every healed file reproduces the committed
    /// digest exactly — a store that heals here verifies clean
    /// afterwards, which is why `tlc verify --manifest` exits 0 for a
    /// quarantine-and-healed run.
    pub fn heal_damaged(&self) -> Result<usize, StoreError> {
        let mut by_partition: BTreeMap<usize, Vec<LoColumn>> = BTreeMap::new();
        for d in self.store.damaged_entries() {
            let col = LoColumn::ALL.iter().find(|c| c.name() == d.column);
            let col = col.ok_or(StoreError::UnknownColumn { column: d.column })?;
            by_partition.entry(d.partition).or_default().push(*col);
        }
        for (&p, columns) in &by_partition {
            self.regenerate_and_heal(p, columns)?;
        }
        Ok(by_partition.values().map(Vec::len).sum())
    }

    /// Regenerate partition `p`, re-encode `columns` exactly as
    /// ingest/compact did (deterministic `encode_best`), and heal each
    /// of them that is in the damage ledger.
    fn regenerate_and_heal(
        &self,
        p: usize,
        columns: &[LoColumn],
    ) -> Result<Vec<EncodedColumn>, StoreError> {
        let lo = self.regenerate_partition(p);
        let heal = |c: &LoColumn| {
            let encoded = EncodedColumn::encode_best(lo.column(*c));
            if self.store.damage(p, c.name()).is_some() {
                self.store.heal_column(p, c.name(), &encoded)?;
            }
            Ok(encoded)
        };
        columns.iter().map(heal).collect()
    }
}

/// Merge `merge` adjacent partitions at a time (re-encoding each merged
/// column) and keep the regeneration mapping in step by multiplying the
/// persisted chunk factor.
pub fn compact(dir: &Path, merge: usize) -> Result<(SsbStore, CompactReport), StoreError> {
    let (store, report) = tlc_store::ingest::compact(dir, merge, |meta| {
        if let Some(e) = meta.iter_mut().find(|(k, _)| k == META_CHUNK_FACTOR) {
            e.1 *= merge as u64;
        }
    })?;
    Ok((SsbStore::from_store(store)?, report))
}

/// Knobs for a streamed query run.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Partition-memory budget: at most
    /// `budget_bytes / largest-partition-working-set` partitions are
    /// resident (decoded on a device) at once.
    pub budget_bytes: u64,
    /// Linear scale on each partition's simulated time (as
    /// `Device::elapsed_seconds_scaled`).
    pub scale: f64,
    /// Fault campaign to run under, if any. Storage faults
    /// ([`StorageFaults`]) damage the named partitions on disk before
    /// they are read; device-level rates arm each partition's device
    /// with a PRNG seeded by `plan.seed` mixed with the partition
    /// index, so the campaign is identical at any worker count.
    pub plan: Option<FaultPlan>,
    /// Device-time budget of a one-query run, in simulated seconds (a
    /// wave's members carry their own, [`WaveQuery`]). Checked between
    /// partitions in partition order against the cumulative device
    /// time, so the cut point is bit-identical at any worker count.
    /// `None` (the default) means no deadline.
    pub deadline_device_s: Option<f64>,
    /// Partitions the caller wants answered by the CPU reference
    /// executor from regenerated rows, without touching a device or
    /// the on-disk files — the serving layer's circuit breaker routes
    /// around a sick shard this way. Each hit counts as a
    /// `cpu_fallbacks` recovery in the report and contributes zero
    /// device seconds to the deadline budget.
    pub force_cpu_partitions: BTreeSet<usize>,
    /// Shared compressed-partition cache ([`PartitionCache`]). When
    /// set, column loads go through the cache (single-flight, digest
    /// revalidation after heals) and partitions whose queried columns
    /// are already resident count **zero** bytes against
    /// `budget_bytes` — the cached copy is shared, not a second
    /// resident copy. `None` (the default) reads every column from
    /// disk; results are bit-identical either way.
    pub cache: Option<Arc<PartitionCache>>,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            budget_bytes: 256 << 20,
            scale: 1.0,
            plan: None,
            deadline_device_s: None,
            force_cpu_partitions: BTreeSet::new(),
            cache: None,
        }
    }
}

/// Result of a streamed out-of-core query.
#[derive(Debug)]
pub struct StreamedRun {
    /// Merged `(group, sum)` pairs — identical to an in-memory run of
    /// the same data, and to the fault-free streamed run whenever
    /// recovery succeeded.
    pub result: Vec<(u64, u64)>,
    /// Total fact rows streamed.
    pub rows: u64,
    /// Partitions executed.
    pub partitions: usize,
    /// Host workers used (= resident-partition cap).
    pub workers: usize,
    /// Deterministic upper bound on resident compressed bytes:
    /// `workers × largest partition working set` for the query's
    /// columns.
    pub peak_resident_bytes: u64,
    /// Sum of per-partition simulated device time (worker-count
    /// independent; the serial-device total).
    pub device_s: f64,
    /// Modelled storage-read seconds summed over partitions
    /// (worker-count independent). Cold reads price at disk
    /// bandwidth, cache hits at host-memory bandwidth
    /// ([`modeled_read_s`]); forced-CPU and regenerated partitions
    /// read nothing and charge nothing. Kept separate from
    /// `device_s` so the deadline contract is untouched by caching.
    pub io_s: f64,
    /// Slowest worker's summed simulated time under the actual
    /// partition assignment (depends on worker count).
    pub slowest_worker_s: f64,
    /// Merge transfer time for the partial aggregates.
    pub merge_s: f64,
    /// Injected faults and recovery actions, folded in partition order.
    pub report: ResilienceReport,
    /// Partition indices that needed any recovery action (storage
    /// quarantine/regeneration, device failover or CPU fallback), in
    /// partition order. The serving layer's per-shard circuit breaker
    /// feeds on this; forced-CPU partitions
    /// ([`StreamOptions::force_cpu_partitions`]) are *not* listed —
    /// being routed around is policy, not a new failure.
    pub recovered_partitions: Vec<usize>,
}

impl StreamedRun {
    /// End-to-end modelled latency.
    pub fn total_s(&self) -> f64 {
        self.slowest_worker_s + self.merge_s
    }
}

/// Partial-progress stats carried by a typed deadline rejection: what
/// the query got through before its device-time budget ran out.
#[derive(Debug, Clone)]
pub struct DeadlinePartial {
    /// Partitions fully executed and folded before the cut.
    pub partitions_completed: usize,
    /// Partitions the full query would have covered.
    pub partitions: usize,
    /// Fact rows covered by the completed partitions.
    pub rows_scanned: u64,
    /// Cumulative simulated device seconds over the completed
    /// partitions (the budget consumed).
    pub device_s: f64,
    /// The budget that was exceeded.
    pub deadline_device_s: f64,
    /// Faults and recovery actions over the completed partitions.
    pub report: ResilienceReport,
}

/// A streamed query that did not produce a full result: either the
/// store failed in a way the recovery ladder cannot absorb, or the
/// query's device-time deadline fired between partitions.
#[derive(Debug)]
pub enum StreamError {
    /// Unrecoverable storage failure.
    Store(StoreError),
    /// The per-query deadline fired; partial-progress stats attached.
    DeadlineExceeded(Box<DeadlinePartial>),
}

impl From<StoreError> for StreamError {
    fn from(e: StoreError) -> Self {
        StreamError::Store(e)
    }
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Store(e) => write!(f, "{e}"),
            StreamError::DeadlineExceeded(p) => write!(
                f,
                "deadline exceeded after {}/{} partition(s) ({} rows, \
                 {:.6}s of {:.6}s device budget)",
                p.partitions_completed,
                p.partitions,
                p.rows_scanned,
                p.device_s,
                p.deadline_device_s,
            ),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Store(e) => Some(e),
            StreamError::DeadlineExceeded(_) => None,
        }
    }
}

/// Run `q` against every partition of `store`, streaming under
/// `opts.budget_bytes`, recovering per the module policy, and merging
/// partial aggregates in partition order: a one-member run of the
/// partition executor on the **inline** arm. Ends in a complete
/// [`StreamedRun`], a typed [`StreamError::DeadlineExceeded`] with
/// partial-progress stats ([`StreamOptions::deadline_device_s`]), or an
/// unrecoverable storage error.
pub fn run_query_streamed_bounded(
    store: &SsbStore,
    q: QueryId,
    opts: &StreamOptions,
) -> Result<StreamedRun, StreamError> {
    let member = WaveQuery {
        spec: WaveSpec::Flight(q),
        deadline_device_s: opts.deadline_device_s,
    };
    let mut run = run_members(store, &[member], q.columns(), Evaluate::Inline(q), opts)?;
    let m = run.queries.pop().expect("one member in, one member out");
    let result = match m.outcome {
        Ok(WaveAnswer::Groups(result)) => result,
        Ok(WaveAnswer::Scalar { .. }) => unreachable!("a flight answers with groups"),
        Err(partial) => return Err(StreamError::DeadlineExceeded(partial)),
    };
    let part_s = &m.partition_device_s;
    let slowest_worker_s = tlc_gpu_sim::partitions(part_s.len(), 1, run.workers)
        .iter()
        .map(|&(lo, hi)| part_s[lo..hi].iter().sum::<f64>())
        .fold(0.0f64, f64::max);
    Ok(StreamedRun {
        result,
        rows: m.rows,
        partitions: m.partitions,
        workers: run.workers,
        peak_resident_bytes: run.workers as u64 * largest_working_set(store, q.columns(), None),
        device_s: m.device_s,
        io_s: m.io_s,
        slowest_worker_s,
        merge_s: Device::v100().pcie_transfer(m.merge_bytes),
        report: m.report,
        recovered_partitions: m.recovered_partitions,
    })
}

/// What one member of a run asks for.
///
/// The serving layer's `tlc_serve::QuerySpec` maps onto this 1:1:
/// flights keep their [`QueryId`], point filters and scans both become
/// [`WaveSpec::Scalar`] (a point filter is a scan with a `filter`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaveSpec {
    /// An SSB flight query (grouped aggregate).
    Flight(QueryId),
    /// Count + wrapping sum over one column, keeping only values equal
    /// to `filter` when set.
    Scalar {
        /// The scanned column.
        column: LoColumn,
        /// Equality predicate, `None` for a full scan.
        filter: Option<i32>,
    },
}

impl WaveSpec {
    /// Columns this query consumes: a flight's in
    /// [`QueryId::columns`] order, a scalar's one column.
    fn columns(&self) -> Vec<LoColumn> {
        match self {
            WaveSpec::Flight(q) => q.columns().to_vec(),
            WaveSpec::Scalar { column, .. } => vec![*column],
        }
    }
}

/// One member of a run: what to compute and the member's own
/// device-time budget, checked between partitions against its
/// *attributed* device time — members never share a deadline.
#[derive(Debug, Clone)]
pub struct WaveQuery {
    /// The query.
    pub spec: WaveSpec,
    /// Per-member deadline in simulated device seconds, or `None`.
    pub deadline_device_s: Option<f64>,
}

/// A member's answer payload (`tlc_serve::QueryAnswer` is this type).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaveAnswer {
    /// Grouped aggregate rows from a flight query, merged in partition
    /// order, zero-sum groups dropped.
    Groups(Vec<(u64, u64)>),
    /// Count and wrapping sum from a scan or point filter.
    Scalar {
        /// Values matched (scan: all values).
        count: u64,
        /// Wrapping sum of the matched values.
        sum: i64,
    },
}

/// What one wave member got: its answer (or a deadline cut with
/// partial progress) plus its *attributed* share of the wave's cost.
#[derive(Debug, Clone)]
pub struct WaveQueryRun {
    /// The answer, or the member's deadline partial.
    pub outcome: Result<WaveAnswer, Box<DeadlinePartial>>,
    /// Fact rows covered by this member's completed partitions.
    pub rows: u64,
    /// Partitions the full query covers.
    pub partitions: usize,
    /// Attributed simulated device seconds: this member's share of
    /// every decode it consumed (decode cost / consumer count) plus
    /// its own predicate/aggregate evaluation time.
    pub device_s: f64,
    /// Attributed modelled storage-read seconds (same share rule).
    pub io_s: f64,
    /// Attributed device seconds of each completed partition, in
    /// partition order (`device_s` is their running sum).
    pub partition_device_s: Vec<f64>,
    /// Bytes of per-partition partial aggregates a merge across
    /// devices would move (16 per group row; none for a scalar).
    pub merge_bytes: u64,
    /// Faults observed and recovery actions taken on the partitions
    /// this member completed.
    pub report: ResilienceReport,
    /// Partitions that needed a recovery action, in partition order.
    pub recovered_partitions: Vec<usize>,
}

/// Result of a shared-scan wave: one entry per input query, plus the
/// wave-level sharing tallies.
#[derive(Debug)]
pub struct WaveRun {
    /// Per-member outcomes, in input order.
    pub queries: Vec<WaveQueryRun>,
    /// `(partition, column)` decodes consumed by ≥ 2 live members —
    /// decodes that solo execution would have repeated.
    pub shared_decodes: u64,
    /// Σ (consumers − 1) over every decode: the number of
    /// decode-kernel launches the wave avoided versus solo execution.
    pub launches_saved: u64,
    /// Host workers used for the raw partition pass.
    pub workers: usize,
}

/// Run every query in `queries` over every partition of `store` as one
/// **shared-scan wave**: the N-member run of the partition executor on
/// the **shared** arm, over the union of the members' columns in
/// [`LoColumn::ALL`] order (stable whatever the wave's composition
/// order). Each `(partition, column)` any member needs is loaded and
/// decoded **once**, and every member evaluates against the decoded
/// buffers before the wave moves on. Cost attribution and the
/// per-member deadline cut are the module's fold rule; fault plans
/// ([`StreamOptions::plan`]) apply as on every other path.
/// `opts.deadline_device_s` is not read: each member carries its own.
pub fn run_wave_streamed(
    store: &SsbStore,
    queries: &[WaveQuery],
    opts: &StreamOptions,
) -> Result<WaveRun, StoreError> {
    let union_cols: Vec<LoColumn> = LoColumn::ALL
        .iter()
        .copied()
        .filter(|c| queries.iter().any(|q| q.spec.columns().contains(c)))
        .collect();
    run_members(store, queries, &union_cols, Evaluate::Shared, opts)
}

/// The evaluate step of [`run_partition`] — the one place the executor
/// has two arms. Fixed by the public entry point, never by an option.
#[derive(Clone, Copy)]
enum Evaluate {
    /// One flight over the encoded columns, decoding inline in the
    /// fused query kernel: the paper's path, and the only inline
    /// evaluation defined today.
    Inline(QueryId),
    /// Decode-once: each listed column is decompressed to a plain
    /// buffer once, then every member evaluates on the plain buffers.
    Shared,
}

/// Raw, liveness-independent record of one partition's work, computed
/// in parallel; deadline cuts and attribution belong to the fold.
struct PartRaw {
    /// Per listed column, in list order: `(decode_s, io_s)`.
    col_costs: Vec<(f64, f64)>,
    /// Per member, in input order: this partition's piece of its
    /// answer, and what its own evaluation cost.
    members: Vec<(WaveAnswer, Eval)>,
    /// Storage-ladder, shared-decode and injected-fault tallies —
    /// absorbed into every member live at this partition.
    report: ResilienceReport,
    /// Whether the storage or decode ladder had to recover.
    recovered: bool,
    /// Whether this partition was answered on the forced-CPU route.
    forced_cpu: bool,
    /// Whether the listed columns came through the shared cache.
    from_cache: bool,
}

/// What one member's own evaluation cost and reported at a partition.
/// All zero for a scalar, which folds host-side over a decoded buffer.
#[derive(Default)]
struct Eval {
    seconds: f64,
    report: ResilienceReport,
    recovered: bool,
}

/// The largest partition's compressed bytes over `columns`: the working
/// set of one resident partition. Bytes already fresh in `cache` are
/// one copy shared by every worker, so they are left out.
fn largest_working_set(
    store: &SsbStore,
    columns: &[LoColumn],
    cache: Option<&PartitionCache>,
) -> u64 {
    let charged = |p: usize, c: &LoColumn| {
        !cache.is_some_and(|cache| cache.contains_fresh(store.store(), p, c.name()))
    };
    (0..store.store().partition_count())
        .map(|p| {
            let charged = columns.iter().filter(|c| charged(p, c));
            charged.map(|c| file_bytes(store, p, c.name())).sum::<u64>()
        })
        .max()
        .unwrap_or(0)
}

/// The partition executor. Runs `members` over every partition of
/// `store`, loading `columns` (the caller's list, in the caller's
/// order) once per partition, and folds the per-partition records in
/// partition order.
///
/// Fold rule: at each partition, a column's decode cost and modelled
/// read time are split evenly across the members **live at partition
/// entry** that consume it; a member additionally pays its own
/// evaluation time. A member's deadline is checked against its
/// cumulative attributed device time, so cuts are a pure function of
/// the run's composition and the data. A member cut at a partition
/// still counted as a consumer there — shares never reprice
/// retroactively — and stops counting from the next one.
fn run_members(
    store: &SsbStore,
    members: &[WaveQuery],
    columns: &[LoColumn],
    evaluate: Evaluate,
    opts: &StreamOptions,
) -> Result<WaveRun, StoreError> {
    let n = store.store().partition_count();
    let dims = store.spec().dims();
    // Per member, the positions in `columns` of the columns it consumes
    // (ascending, so per-member sums run in list order).
    let member_cols: Vec<Vec<usize>> = members
        .iter()
        .map(|m| {
            let mine = m.spec.columns();
            (0..columns.len())
                .filter(|&ci| mine.contains(&columns[ci]))
                .collect()
        })
        .collect();

    // Only the uncached part of a partition's working set charges
    // against the budget; a fully warm cache lifts the cap.
    let working_set = largest_working_set(store, columns, opts.cache.as_deref());
    let budget_cap = opts
        .budget_bytes
        .checked_div(working_set)
        .map_or(usize::MAX, |cap| cap.max(1) as usize);
    let workers = tlc_gpu_sim::sim_threads().min(budget_cap).min(n.max(1));

    // Without a deadline one chunk covers everything; with one, chunks
    // of `workers` keep the check close to the work, and the loop stops
    // once no member is live (work past the last cut is discarded).
    let chunk = if members.iter().any(|m| m.deadline_device_s.is_some()) {
        workers
    } else {
        n.max(1)
    };
    // A member is live while its `outcome` is `Ok`; a flight's pieces
    // merge into its entry of `groups` until the fold is over.
    let mut runs: Vec<WaveQueryRun> = members
        .iter()
        .map(|m| WaveQueryRun {
            outcome: Ok(match m.spec {
                WaveSpec::Flight(_) => WaveAnswer::Groups(Vec::new()),
                WaveSpec::Scalar { .. } => WaveAnswer::Scalar { count: 0, sum: 0 },
            }),
            rows: 0,
            partitions: n,
            device_s: 0.0,
            io_s: 0.0,
            partition_device_s: Vec::new(),
            merge_bytes: 0,
            report: ResilienceReport::default(),
            recovered_partitions: Vec::new(),
        })
        .collect();
    let mut groups: Vec<BTreeMap<u64, u64>> = vec![BTreeMap::new(); members.len()];
    let mut shared_decodes = 0u64;
    let mut launches_saved = 0u64;
    let any_live = |runs: &[WaveQueryRun]| runs.iter().any(|r| r.outcome.is_ok());
    let mut next = 0usize;
    while next < n && any_live(&runs) {
        let hi = (next + chunk).min(n);
        let raws = map_ordered(next..hi, workers, |p| {
            run_partition(store, &dims, p, members, columns, evaluate, opts)
        });
        for (p, raw) in (next..hi).zip(raws) {
            if !any_live(&runs) {
                break;
            }
            let raw = raw?;
            // Consumers per listed column among members live at entry.
            let mut consumers = vec![0u64; columns.len()];
            for (run, cols) in runs.iter().zip(&member_cols) {
                if run.outcome.is_ok() {
                    cols.iter().for_each(|&ci| consumers[ci] += 1);
                }
            }
            if !raw.forced_cpu {
                for &k in consumers.iter().filter(|&&k| k >= 2) {
                    shared_decodes += 1;
                    launches_saved += k - 1;
                    if let Some(cache) = opts.cache.as_ref().filter(|_| raw.from_cache) {
                        cache.note_shared_readers(k - 1);
                    }
                }
            }
            for (qi, run) in runs.iter_mut().enumerate() {
                let Ok(answer) = &mut run.outcome else {
                    continue;
                };
                let (piece, eval) = &raw.members[qi];
                let mut attributed_dev = 0.0f64;
                let mut attributed_io = 0.0f64;
                for &ci in &member_cols[qi] {
                    let k = consumers[ci] as f64;
                    attributed_dev += raw.col_costs[ci].0 / k;
                    attributed_io += raw.col_costs[ci].1 / k;
                }
                attributed_dev += eval.seconds;
                if let Some(deadline) = members[qi].deadline_device_s {
                    if run.device_s + attributed_dev > deadline {
                        // The cut partition is discarded: partial
                        // progress covers exactly the partitions whose
                        // cumulative device time fits the budget.
                        run.outcome = Err(Box::new(DeadlinePartial {
                            partitions_completed: p,
                            partitions: n,
                            rows_scanned: run.rows,
                            device_s: run.device_s,
                            deadline_device_s: deadline,
                            report: run.report.clone(),
                        }));
                        continue;
                    }
                }
                match (piece, answer) {
                    (WaveAnswer::Groups(piece), WaveAnswer::Groups(_)) => {
                        run.merge_bytes += piece.len() as u64 * 16;
                        for &(g, v) in piece {
                            let e = groups[qi].entry(g).or_insert(0);
                            *e = e.wrapping_add(v);
                        }
                    }
                    (
                        WaveAnswer::Scalar { count: c, sum: s },
                        WaveAnswer::Scalar { count, sum },
                    ) => {
                        *count += c;
                        *sum = sum.wrapping_add(*s);
                    }
                    _ => unreachable!("a piece has the kind of its member's answer"),
                }
                run.device_s += attributed_dev;
                run.io_s += attributed_io;
                run.partition_device_s.push(attributed_dev);
                run.rows += store.store().rows(p);
                run.report.absorb(&raw.report);
                run.report.absorb(&eval.report);
                if raw.recovered || eval.recovered {
                    run.recovered_partitions.push(p);
                }
            }
        }
        next = hi;
    }
    // A flight that ran to the end answers with its merged groups.
    for (run, groups) in runs.iter_mut().zip(groups) {
        if let Ok(WaveAnswer::Groups(answer)) = &mut run.outcome {
            *answer = groups.into_iter().filter(|&(_, v)| v != 0).collect();
        }
    }
    Ok(WaveRun {
        queries: runs,
        shared_decodes,
        launches_saved,
        workers,
    })
}

/// One partition of a run: the forced-CPU route, injected storage
/// faults, the storage ladder over `columns`, then the evaluate step
/// on a partition-private (possibly fault-armed) device.
fn run_partition(
    store: &SsbStore,
    dims: &SsbData,
    p: usize,
    members: &[WaveQuery],
    columns: &[LoColumn],
    evaluate: Evaluate,
    opts: &StreamOptions,
) -> Result<PartRaw, StoreError> {
    let mut report = ResilienceReport::default();
    // The CPU rung of every ladder: the partition's rows, regenerated.
    let regenerated = || {
        let mut part_data = dims.clone();
        part_data.lineorder = store.regenerate_partition(p);
        part_data
    };

    // Degraded-mode routing (circuit open, device tier lost): one
    // regeneration answers every member. Zero device time, and not
    // "recovered" — nothing failed here, the service chose the route.
    if opts.force_cpu_partitions.contains(&p) {
        report.cpu_fallbacks += 1;
        let part_data = regenerated();
        let members = members
            .iter()
            .map(|m| {
                let answer = match &m.spec {
                    WaveSpec::Flight(id) => WaveAnswer::Groups(run_reference(&part_data, *id)),
                    WaveSpec::Scalar { column, filter } => {
                        fold_scalar(part_data.lineorder.column(*column), *filter)
                    }
                };
                (answer, Eval::default())
            })
            .collect();
        return Ok(PartRaw {
            col_costs: vec![(0.0, 0.0); columns.len()],
            members,
            report,
            recovered: false,
            forced_cpu: true,
            from_cache: false,
        });
    }

    if let (Some(plan), Some(&target)) = (&opts.plan, columns.first()) {
        if !plan.storage.is_empty() {
            apply_storage_faults(store, p, target, plan)?;
        }
    }

    // Storage ladder. Loads go through the shared cache when armed
    // (cold reads price at disk bandwidth, hits at host-memory
    // bandwidth; a quarantine bumps the store epoch, so a stale cached
    // copy revalidates away). Regenerated columns never came from disk:
    // they charge no read time and skip the cache — the next read loads
    // the healed file through the verified path.
    let mut cols: Vec<(LoColumn, Arc<EncodedColumn>, f64)> = Vec::with_capacity(columns.len());
    let mut damaged = false;
    for &c in columns {
        let loaded = match &opts.cache {
            Some(cache) => cache
                .load(store.store(), p, c.name())
                .map(|l| (l.col, modeled_read_s(l.bytes, l.hit))),
            None => store.store().load_column(p, c.name()).map(|col| {
                let read_s = modeled_read_s(file_bytes(store, p, c.name()), false);
                (Arc::new(col), read_s)
            }),
        };
        match loaded {
            Ok((col, read_s)) => cols.push((c, col, read_s)),
            Err(e) if matches!(e, StoreError::Io { .. } | StoreError::UnknownColumn { .. }) => {
                return Err(e);
            }
            Err(_) => {
                damaged = true;
                break;
            }
        }
    }
    if damaged {
        report.partitions_quarantined += 1;
        let healed = store.regenerate_and_heal(p, columns)?;
        cols = columns
            .iter()
            .zip(healed)
            .map(|(&c, e)| (c, Arc::new(e), 0.0))
            .collect();
        report.partitions_regenerated += 1;
    }

    // Device ladders, all on one partition-private device. The host
    // copies are clean (loaded and digest-verified, or regenerated),
    // so a failover rebuilds from them.
    let dev = partition_device(opts.plan.as_ref(), p);
    let mut recovered = damaged;
    // A flight's evaluation, on either arm: the fused query kernels on
    // `dev`, on a fresh device over `rebuild`'s columns, on the CPU.
    let fly = |lo: &LoColumns, rebuild: &dyn Fn(&Device) -> LoColumns, q: QueryId| {
        let mut report = ResilienceReport::default();
        let (groups, seconds, recovered) = device_ladder(
            &dev,
            lo,
            rebuild,
            |d, lo, report| run_query_checked(d, dims, lo, q, report),
            || run_reference(&regenerated(), q),
            opts.scale,
            &mut report,
        );
        let eval = Eval {
            seconds,
            report,
            recovered,
        };
        (WaveAnswer::Groups(groups), eval)
    };
    // `(decode_s, io_s)` per column; the inline arm decodes inside the
    // member's evaluation, so its decode seconds stay zero.
    let mut col_costs: Vec<(f64, f64)> = cols.iter().map(|(_, _, io_s)| (0.0, *io_s)).collect();
    let members = match evaluate {
        Evaluate::Inline(q) => {
            let upload =
                |d: &Device| LoColumns::from_encoded(d, cols.iter().map(|(c, e, _)| (*c, &**e)));
            vec![fly(&upload(&dev), &upload, q)]
        }
        Evaluate::Shared => {
            // Each listed column decompresses exactly once; its device
            // time is the ladder's timeline delta.
            let mut buffers = Vec::with_capacity(cols.len());
            for ((c, enc, _), cost) in cols.iter().zip(&mut col_costs) {
                let (buf, decode_s, decode_recovered) = device_ladder(
                    &dev,
                    &enc.to_device(&dev),
                    |d| enc.to_device(d),
                    |d, dc, _| dc.decompress(d),
                    || dev.alloc_from_slice(&enc.decode_cpu()),
                    opts.scale,
                    &mut report,
                );
                cost.0 = decode_s;
                recovered |= decode_recovered;
                buffers.push((*c, buf));
            }
            let lo_cols = LoColumns::from_plain(&dev, buffers);
            let plain = |c: LoColumn| lo_cols.plain_slice(c).expect("decoded above");
            let copy_to = |d: &Device| {
                let copies = columns.iter().map(|&c| (c, d.alloc_from_slice(plain(c))));
                LoColumns::from_plain(d, copies)
            };
            // Flights run over the plain columns (`prepare` launches no
            // decode kernel for plain storage), timed per member;
            // scalars fold host-side.
            members
                .iter()
                .map(|m| match &m.spec {
                    WaveSpec::Flight(id) => fly(&lo_cols, &copy_to, *id),
                    WaveSpec::Scalar { column, filter } => {
                        (fold_scalar(plain(*column), *filter), Eval::default())
                    }
                })
                .collect()
        }
    };
    report.absorb_device(&dev);
    Ok(PartRaw {
        col_costs,
        members,
        report,
        recovered,
        forced_cpu: false,
        from_cache: opts.cache.is_some() && !damaged,
    })
}

/// Count + wrapping sum, keeping only values equal to `filter` when
/// set.
fn fold_scalar(values: &[i32], filter: Option<i32>) -> WaveAnswer {
    let mut count = 0u64;
    let mut sum = 0i64;
    for &v in values {
        if filter.is_none_or(|want| v == want) {
            count += 1;
            sum = sum.wrapping_add(v as i64);
        }
    }
    WaveAnswer::Scalar { count, sum }
}

/// Damage `target`'s file in partition `p` per the armed
/// [`StorageFaults`]. Positions are drawn from a PRNG seeded by the
/// plan seed and the partition index, so a campaign is byte-exact
/// reproducible and independent of worker scheduling.
fn apply_storage_faults(
    store: &SsbStore,
    p: usize,
    target: LoColumn,
    plan: &FaultPlan,
) -> Result<(), StoreError> {
    let storage = &plan.storage;
    let target = target.name();
    let committed = file_bytes(store, p, target);
    let path = store.store().path_of(p, target);
    let mut rng = Rng::seed_from_u64(plan.seed ^ 0x57_0F_A1_75 ^ (p as u64) << 8);
    let io = |source| StoreError::Io {
        path: path.clone(),
        source,
    };
    if storage.truncate_at_partition == Some(p) {
        let cut = rng.gen_range(0..committed.max(1) as usize) as u64;
        damage::truncate_at(&path, cut).map_err(io)?;
    }
    if storage.flip_bit_at_partition == Some(p) {
        let bit = rng.gen_range(0..(committed.max(1) * 8) as usize) as u64;
        damage::flip_bit(&path, bit).map_err(io)?;
    }
    Ok(())
}

/// A partition-private device, armed from the run's fault plan: the
/// fault PRNG is keyed by the partition index (not the worker), and
/// the kill is armed only when this partition is the campaign's
/// victim.
fn partition_device(plan: Option<&FaultPlan>, p: usize) -> Device {
    let dev = Device::v100();
    if let Some(plan) = plan {
        let armed = FaultPlan {
            seed: plan.seed ^ (p as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            // Die after the first launch: in a flight the dimension
            // build lands, then the fused fact scan is lost mid-query.
            kill_after_launches: (plan.storage.kill_shard_at_partition == Some(p)).then_some(1),
            storage: StorageFaults::default(),
            ..plan.clone()
        };
        if armed.bitflip_rate > 0.0
            || armed.transient_launch_rate > 0.0
            || armed.kill_after_launches.is_some()
            || armed.bandwidth_factor != 1.0
        {
            dev.inject_faults(armed);
        }
    }
    dev
}

/// Committed size of partition `p`'s file for the column `name`.
fn file_bytes(store: &SsbStore, p: usize, name: &str) -> u64 {
    let manifest = store.store().manifest();
    let c = manifest
        .column_index(name)
        .expect("queried columns are in the layout");
    manifest.partitions[p].files[c].bytes as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tlc_ssb_stream_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_spec() -> StreamSpec {
        StreamSpec::for_rows(5, 16_000, 1_000)
    }

    #[test]
    fn streamed_clean_run_matches_reference() {
        let dir = tmp_dir("clean");
        let spec = small_spec();
        let store = SsbStore::ingest(&dir, &spec).expect("ingest");
        let run = run_query_streamed_bounded(&store, QueryId::Q11, &StreamOptions::default())
            .expect("stream");
        assert_eq!(run.result, run_reference(&spec.materialize(), QueryId::Q11));
        assert_eq!(run.report, ResilienceReport::default());
        assert_eq!(run.partitions, spec.chunks);
        assert!(run.rows > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopened_store_streams_identically() {
        let dir = tmp_dir("reopen");
        let spec = small_spec();
        let store = SsbStore::ingest(&dir, &spec).expect("ingest");
        let a = run_query_streamed_bounded(&store, QueryId::Q12, &StreamOptions::default())
            .expect("stream")
            .result;
        drop(store);
        let (reopened, recovery) = SsbStore::open(&dir).expect("open");
        assert!(recovery.is_clean());
        let b = run_query_streamed_bounded(&reopened, QueryId::Q12, &StreamOptions::default())
            .expect("stream")
            .result;
        assert_eq!(a, b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn storage_faults_are_recovered_and_the_store_self_heals() {
        let dir = tmp_dir("faults");
        let spec = small_spec();
        let store = SsbStore::ingest(&dir, &spec).expect("ingest");
        let clean = run_query_streamed_bounded(&store, QueryId::Q11, &StreamOptions::default())
            .expect("stream")
            .result;
        let plan = FaultPlan {
            storage: StorageFaults {
                kill_shard_at_partition: Some(0),
                truncate_at_partition: Some(1),
                flip_bit_at_partition: Some(2),
            },
            ..FaultPlan::seeded(9)
        };
        let opts = StreamOptions {
            plan: Some(plan),
            ..StreamOptions::default()
        };
        let run = run_query_streamed_bounded(&store, QueryId::Q11, &opts).expect("stream");
        assert_eq!(
            run.result, clean,
            "recovery must reproduce the clean result"
        );
        assert_eq!(run.report.partitions_quarantined, 2);
        assert_eq!(run.report.partitions_regenerated, 2);
        assert_eq!(run.report.devices_lost, 1);
        assert_eq!(run.report.shards_failed_over, 1);
        assert_eq!(run.report.cpu_fallbacks, 0);
        // The damaged files were healed byte-identically in place.
        store
            .store()
            .verify()
            .expect("store verifies clean after healing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_caps_resident_partitions() {
        let dir = tmp_dir("budget");
        let spec = small_spec();
        let store = SsbStore::ingest(&dir, &spec).expect("ingest");
        let opts = StreamOptions {
            budget_bytes: 1, // smaller than any partition: serial streaming
            ..StreamOptions::default()
        };
        let run = run_query_streamed_bounded(&store, QueryId::Q13, &opts).expect("stream");
        assert_eq!(run.workers, 1);
        assert_eq!(run.result, run_reference(&spec.materialize(), QueryId::Q13));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn scalar_reference(store: &SsbStore, column: LoColumn, filter: Option<i32>) -> WaveAnswer {
        let values: Vec<i32> = (0..store.store().partition_count())
            .flat_map(|p| store.regenerate_partition(p).column(column).to_vec())
            .collect();
        fold_scalar(&values, filter)
    }

    fn mixed_wave() -> Vec<WaveQuery> {
        [
            WaveSpec::Flight(QueryId::Q11),
            WaveSpec::Flight(QueryId::Q12),
            WaveSpec::Scalar {
                column: LoColumn::Quantity,
                filter: None,
            },
            WaveSpec::Scalar {
                column: LoColumn::Discount,
                filter: Some(4),
            },
        ]
        .into_iter()
        .map(|spec| WaveQuery {
            spec,
            deadline_device_s: None,
        })
        .collect()
    }

    #[test]
    fn wave_answers_match_solo_execution() {
        let dir = tmp_dir("wave");
        let spec = small_spec();
        let store = SsbStore::ingest(&dir, &spec).expect("ingest");
        let opts = StreamOptions::default();
        let wave = run_wave_streamed(&store, &mixed_wave(), &opts).expect("wave");
        let data = spec.materialize();
        assert_eq!(
            wave.queries[0].outcome.as_ref().unwrap(),
            &WaveAnswer::Groups(run_reference(&data, QueryId::Q11))
        );
        assert_eq!(
            wave.queries[1].outcome.as_ref().unwrap(),
            &WaveAnswer::Groups(run_reference(&data, QueryId::Q12))
        );
        assert_eq!(
            wave.queries[2].outcome.as_ref().unwrap(),
            &scalar_reference(&store, LoColumn::Quantity, None)
        );
        assert_eq!(
            wave.queries[3].outcome.as_ref().unwrap(),
            &scalar_reference(&store, LoColumn::Discount, Some(4))
        );
        // Q11 and Q12 share all four flight-1 columns and the scan
        // shares Quantity with them: every partition has shared
        // decodes, and each saves at least one launch.
        assert!(wave.shared_decodes >= spec.chunks as u64);
        assert!(wave.launches_saved > wave.shared_decodes);
        // Every member pays less device time than a singleton wave of
        // just itself (sharing strictly reduces attributed decode
        // cost for shared columns).
        for (i, q) in mixed_wave().into_iter().enumerate() {
            let solo = run_wave_streamed(&store, &[q], &opts).expect("solo wave");
            assert_eq!(
                solo.queries[0].outcome.as_ref().unwrap(),
                wave.queries[i].outcome.as_ref().unwrap(),
                "singleton wave answer must match member {i}"
            );
            assert_eq!(solo.shared_decodes, 0);
            assert!(
                wave.queries[i].device_s < solo.queries[0].device_s,
                "member {i} must be cheaper batched: {} vs {}",
                wave.queries[i].device_s,
                solo.queries[0].device_s
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wave_deadline_cuts_one_member_without_repricing_the_rest() {
        let dir = tmp_dir("wave_deadline");
        let spec = small_spec();
        let store = SsbStore::ingest(&dir, &spec).expect("ingest");
        let opts = StreamOptions::default();
        let full = run_wave_streamed(&store, &mixed_wave(), &opts).expect("full");
        // Arm one member with a deadline its first partition overruns.
        let mut queries = mixed_wave();
        queries[2].deadline_device_s = Some(1e-12);
        let cut = run_wave_streamed(&store, &queries, &opts).expect("cut");
        match &cut.queries[2].outcome {
            Err(p) => {
                assert_eq!(p.partitions_completed, 0);
                assert_eq!(p.partitions, spec.chunks);
                assert_eq!(p.rows_scanned, 0);
            }
            other => panic!("expected deadline cut, got {other:?}"),
        }
        // Survivors' answers are unchanged; partition 0's shares were
        // computed from the live-at-entry set, so the cut member still
        // counted as a consumer there — later partitions drop it.
        for i in [0usize, 1, 3] {
            assert_eq!(
                cut.queries[i].outcome.as_ref().unwrap(),
                full.queries[i].outcome.as_ref().unwrap()
            );
        }
        // Deterministic: re-running reproduces every attributed cost.
        let again = run_wave_streamed(&store, &queries, &opts).expect("again");
        for (a, b) in cut.queries.iter().zip(again.queries.iter()) {
            assert_eq!(a.device_s, b.device_s);
            assert_eq!(a.io_s, b.io_s);
        }
        assert_eq!(cut.shared_decodes, again.shared_decodes);
        assert_eq!(cut.launches_saved, again.launches_saved);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wave_forced_cpu_routes_share_one_regeneration() {
        let dir = tmp_dir("wave_cpu");
        let spec = small_spec();
        let store = SsbStore::ingest(&dir, &spec).expect("ingest");
        let all: BTreeSet<usize> = (0..store.store().partition_count()).collect();
        let opts = StreamOptions {
            force_cpu_partitions: all.clone(),
            ..StreamOptions::default()
        };
        let wave = run_wave_streamed(&store, &mixed_wave(), &opts).expect("wave");
        let clean = run_wave_streamed(&store, &mixed_wave(), &StreamOptions::default()).unwrap();
        for (routed, normal) in wave.queries.iter().zip(clean.queries.iter()) {
            assert_eq!(
                routed.outcome.as_ref().unwrap(),
                normal.outcome.as_ref().unwrap()
            );
            assert_eq!(routed.device_s, 0.0);
            assert_eq!(routed.io_s, 0.0);
            assert_eq!(routed.report.cpu_fallbacks, all.len());
        }
        assert_eq!(wave.shared_decodes, 0, "no decodes on the CPU route");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wave_heals_storage_damage_for_every_member() {
        let dir = tmp_dir("wave_rot");
        let spec = small_spec();
        let store = SsbStore::ingest(&dir, &spec).expect("ingest");
        let clean = run_wave_streamed(&store, &mixed_wave(), &StreamOptions::default()).unwrap();
        let path = store.store().path_of(1, "quantity");
        drop(store);
        damage::flip_bit(&path, 137).expect("rot");
        let (store, recovery) = SsbStore::open_deep(&dir).expect("reopen");
        assert_eq!(recovery.quarantined.len(), 1);
        let healed = run_wave_streamed(&store, &mixed_wave(), &StreamOptions::default()).unwrap();
        for (h, c) in healed.queries.iter().zip(clean.queries.iter()) {
            assert_eq!(h.outcome.as_ref().unwrap(), c.outcome.as_ref().unwrap());
            assert_eq!(h.report.partitions_regenerated, 1);
            assert!(h.recovered_partitions.contains(&1));
        }
        store.store().verify().expect("healed in place");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wave_under_a_fault_plan_recovers_every_member() {
        let dir = tmp_dir("wave_plan");
        let spec = small_spec();
        let store = SsbStore::ingest(&dir, &spec).expect("ingest");
        let clean = run_wave_streamed(&store, &mixed_wave(), &StreamOptions::default()).unwrap();
        let opts = StreamOptions {
            plan: Some(FaultPlan {
                bitflip_rate: 1e-4,
                transient_launch_rate: 0.2,
                storage: StorageFaults {
                    kill_shard_at_partition: Some(0),
                    truncate_at_partition: Some(1),
                    flip_bit_at_partition: Some(2),
                },
                ..FaultPlan::seeded(9)
            }),
            ..StreamOptions::default()
        };
        let drilled = run_wave_streamed(&store, &mixed_wave(), &opts).expect("the drill recovers");
        for (d, c) in drilled.queries.iter().zip(clean.queries.iter()) {
            assert_eq!(d.outcome.as_ref().unwrap(), c.outcome.as_ref().unwrap());
            // The storage ladder and the lost device are the wave's,
            // so every member reports them.
            assert_eq!(d.report.partitions_quarantined, 2);
            assert_eq!(d.report.partitions_regenerated, 2);
            assert_eq!(d.report.devices_lost, 1);
            assert!(d.recovered_partitions.starts_with(&[0, 1, 2]));
        }
        assert!(drilled.queries[0].report.transient_failures_injected > 0);
        store.store().verify().expect("healed in place");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_preserves_results_and_regeneration() {
        let dir = tmp_dir("compact");
        let spec = small_spec();
        let store = SsbStore::ingest(&dir, &spec).expect("ingest");
        let before = run_query_streamed_bounded(&store, QueryId::Q11, &StreamOptions::default())
            .expect("stream")
            .result;
        drop(store);
        let (compacted, report) = compact(&dir, 2).expect("compact");
        assert_eq!(report.partitions_after, spec.chunks.div_ceil(2));
        assert_eq!(compacted.chunk_factor(), 2);
        let after = run_query_streamed_bounded(&compacted, QueryId::Q11, &StreamOptions::default())
            .expect("stream")
            .result;
        assert_eq!(before, after);
        // A damaged merged partition still regenerates byte-identically.
        let plan = FaultPlan {
            storage: StorageFaults {
                truncate_at_partition: Some(0),
                ..StorageFaults::default()
            },
            ..FaultPlan::seeded(3)
        };
        let opts = StreamOptions {
            plan: Some(plan),
            ..StreamOptions::default()
        };
        let run = run_query_streamed_bounded(&compacted, QueryId::Q11, &opts).expect("stream");
        assert_eq!(run.result, before);
        assert_eq!(run.report.partitions_regenerated, 1);
        compacted.store().verify().expect("healed after compaction");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
