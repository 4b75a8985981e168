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
//! device → CPU), **once**, around the whole evaluate step. Then one
//! fold, in partition order: each column's read split across the
//! members that consume it, the partition's device seconds split among
//! the parts of its launches and the filter part's across the members
//! it served by the encoded bytes each reads, each member's device-time
//! deadline checked between partitions (a cut is a typed
//! [`StreamError::DeadlineExceeded`] carrying a [`DeadlinePartial`]),
//! reports absorbed, partial aggregates merged.
//!
//! The *evaluate* step is the paper's (§Crystal integration, Fig. 11)
//! for every member of every run: the partition's encoded columns are
//! uploaded once and the run makes **at most two launches** on that
//! upload (`wave_pass`), one when no member joins. `wave_build` builds
//! the dimension tables of every join flight, one part a table.
//! `wave_scan` runs one **filter part** for all the probe-free members
//! (flight 1, whose date join is a range test in registers; point
//! filters; scans), which reads the upload directly and decodes each
//! (column, tile) of their union **once**, every member carrying its
//! own selection through its own conjunction, and one part per join
//! flight, its fused query kernel over its own copy. Every part decodes
//! its tiles inline; nothing is decompressed to a plain buffer first.
//! What a wave shares is therefore the storage ladder, the cache load,
//! the parse, the upload, the device ladder, the launch overheads and,
//! among probe-free members, the tile decodes; a join flight's decode
//! is its own.
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
use std::sync::{Arc, OnceLock};

use tlc_core::{DecodeError, EncodedColumn};
use tlc_crystal::QueryColumn;
use tlc_gpu_sim::{Device, FaultPlan, KernelReport, StorageFaults};
use tlc_rng::Rng;
use tlc_store::{
    damage, modeled_read_s, CompactReport, Ingest, PartitionCache, RecoveryReport, Store,
    StoreError,
};

use crate::encode::{LoColumns, StoredColumn};
use crate::fleet::map_ordered;
use crate::gen::{LineOrder, LoColumn, SsbData, StreamSpec};
pub use crate::queries::WaveAnswer;
use crate::queries::{wave_build, wave_scan, FilterMember, FilterScan, FlightScan, QueryId};
use crate::reference::{fold_scalar, run_reference};
use crate::resilience::{device_ladder, retry_transients, ResilienceReport};

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
    /// The spec's dimension tables, generated by the first run over
    /// this store and shared by every later one (boxed: the store
    /// handle moves around by value).
    dims: OnceLock<Box<SsbData>>,
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
            dims: OnceLock::new(),
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
                dims: OnceLock::new(),
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

    /// The dimension tables of [`SsbStore::spec`] (with an empty fact
    /// table), generated once per store rather than once per run: they
    /// are a pure function of the spec, which never changes.
    pub fn dims(&self) -> &SsbData {
        self.dims.get_or_init(|| Box::new(self.spec.dims()))
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
/// partial aggregates in partition order: the one-member run of the
/// partition executor over the flight's own columns. Ends in a complete
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
    let mut run = run_members(store, &[member], q.columns(), opts)?;
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
    fn columns(&self) -> &[LoColumn] {
        match self {
            WaveSpec::Flight(q) => q.columns(),
            WaveSpec::Scalar { column, .. } => std::slice::from_ref(column),
        }
    }

    /// Kernel launches a partition of this query makes alone
    /// ([`QueryId::launches`]; a scalar is one fused scan).
    fn launches(&self) -> u64 {
        match self {
            WaveSpec::Flight(q) => q.launches(),
            WaveSpec::Scalar { .. } => 1,
        }
    }

    /// Whether the query probes no dimension table (flight 1, point
    /// filters, scans): it makes no build launch, and in a wave it is a
    /// member of the scan launch's one filter part.
    fn probe_free(&self) -> bool {
        self.launches() == 1
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
    /// Attributed simulated device seconds: the member's share of each
    /// partition's launches. A join flight pays its fact scan's part
    /// and its table builds' parts, inline decode included; a
    /// probe-free member (flight 1, point filter, scan) pays its share
    /// of the filter part by the encoded bytes it reads, a column's
    /// bytes split evenly over the live members that read it. A run of
    /// one member pays the whole of its launches.
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
    /// `(partition, column)` tile decodes of the filter part that
    /// served ≥ 2 live members (flight 1s, point filters, scans): decodes
    /// that solo execution would have repeated. Join flights add nothing
    /// here; each decodes inline in its own part.
    pub shared_decodes: u64,
    /// The kernel launches the wave avoided versus solo execution: per
    /// partition, what every live member launches alone
    /// ([`QueryId::launches`]: two for a join flight, one for a flight 1
    /// or a scalar), less the one or two the partition made.
    pub launches_saved: u64,
    /// Host workers used for the raw partition pass.
    pub workers: usize,
}

/// Run every query in `queries` over every partition of `store` as one
/// **shared-scan wave**: the N-member run of the partition executor
/// over the union of the members' columns in [`LoColumn::ALL`] order
/// (stable whatever the wave's composition order). Each
/// `(partition, column)` any member needs is loaded and uploaded
/// **once**, and every member evaluates on that upload before the wave
/// moves on. Cost attribution and the per-member deadline cut are the
/// module's fold rule; fault plans ([`StreamOptions::plan`]) apply as on
/// every other path. `opts.deadline_device_s` is not read: each member
/// carries its own.
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
    run_members(store, queries, &union_cols, opts)
}

/// Raw, liveness-independent record of one partition's work, computed
/// in parallel; deadline cuts and attribution belong to the fold.
struct PartRaw {
    /// Per listed column, in list order: modelled read seconds.
    io_s: Vec<f64>,
    /// Per listed column: its encoded bytes, the weights by which the
    /// fold splits the filter part among its members.
    bytes: Vec<u64>,
    /// Per member, in input order: this partition's piece of its
    /// answer, and the device seconds of the parts that served it. A
    /// join flight's are its own (its fact scan and its table builds);
    /// a probe-free member's are the filter part's, which the fold
    /// splits over the part's live members. All zero on the forced-CPU
    /// route.
    members: Vec<(WaveAnswer, f64)>,
    /// Storage-ladder, device-ladder and injected-fault tallies —
    /// absorbed into every member live at this partition.
    report: ResilienceReport,
    /// Whether the storage ladder or the device ladder had to recover.
    recovered: bool,
    /// Whether this partition was answered on the forced-CPU route.
    forced_cpu: bool,
    /// Whether the listed columns came through the shared cache.
    from_cache: bool,
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
/// Fold rule: at each partition, a column's modelled read time is split
/// evenly across the members **live at partition entry** that consume
/// it. The partition's device seconds are split among the parts of its
/// launches by what each part costs alone ([`wave_pass`]): a join
/// flight pays its fact scan and its table builds, and the filter part
/// is split over its live members by the encoded bytes each reads, a
/// column's bytes divided evenly among the live members that read it
/// (the rule the reads follow). A member alone in the part pays all of
/// it; a point filter beside a flight 1 does not pay for
/// `lo_orderdate`. The parts are the run's composition, live or not,
/// so a cut join flight's share is paid by no one. A member's deadline
/// is checked against its cumulative attributed device time, so cuts
/// are a pure function of the run's composition and the data. A member
/// cut at a partition still counted as a consumer there — shares never
/// reprice retroactively — and stops counting from the next one.
fn run_members(
    store: &SsbStore,
    members: &[WaveQuery],
    columns: &[LoColumn],
    opts: &StreamOptions,
) -> Result<WaveRun, StoreError> {
    let n = store.store().partition_count();
    let dims = store.dims();
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
    let order = Composition::of(members, columns);
    let any_live = |runs: &[WaveQueryRun]| runs.iter().any(|r| r.outcome.is_ok());
    let mut next = 0usize;
    while next < n && any_live(&runs) {
        let hi = (next + chunk).min(n);
        let raws = map_ordered(next..hi, workers, |p| {
            run_partition(store, dims, p, members, columns, &order, opts)
        });
        for (p, raw) in (next..hi).zip(raws) {
            if !any_live(&runs) {
                break;
            }
            let raw = raw?;
            // Per listed column, among members live at entry: everyone
            // who consumes it, and the members of the filter part,
            // which decoded it once for all of them.
            let mut consumers = vec![0u64; columns.len()];
            let mut served = vec![0u64; columns.len()];
            let mut solo = 0u64;
            for ((run, cols), m) in runs.iter().zip(&member_cols).zip(members) {
                if run.outcome.is_ok() {
                    cols.iter().for_each(|&ci| consumers[ci] += 1);
                    if m.spec.probe_free() {
                        cols.iter().for_each(|&ci| served[ci] += 1);
                    }
                    solo += m.spec.launches();
                }
            }
            // What the filter part read for its live members. The sum
            // is an integer, so it does not follow the members' order.
            let served_bytes = (0..columns.len()).filter(|&ci| served[ci] > 0);
            let served_bytes: u64 = served_bytes.map(|ci| raw.bytes[ci]).sum();
            if !raw.forced_cpu {
                shared_decodes += served.iter().filter(|&&k| k >= 2).count() as u64;
                launches_saved += solo.saturating_sub(order.launches);
                if let Some(cache) = opts.cache.as_ref().filter(|_| raw.from_cache) {
                    for &k in consumers.iter().filter(|&&k| k >= 2) {
                        cache.note_shared_readers(k - 1);
                    }
                }
            }
            for (qi, run) in runs.iter_mut().enumerate() {
                let Ok(answer) = &mut run.outcome else {
                    continue;
                };
                let (piece, seconds) = &raw.members[qi];
                let attributed_dev = if members[qi].spec.probe_free() {
                    let mut mine = 0.0f64;
                    for &ci in &member_cols[qi] {
                        mine += raw.bytes[ci] as f64 / served[ci] as f64;
                    }
                    seconds * (mine / served_bytes as f64)
                } else {
                    *seconds
                };
                let mut attributed_io = 0.0f64;
                for &ci in &member_cols[qi] {
                    attributed_io += raw.io_s[ci] / consumers[ci] as f64;
                }
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
                if raw.recovered {
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
    order: &Composition,
    opts: &StreamOptions,
) -> Result<PartRaw, StoreError> {
    let mut report = ResilienceReport::default();
    let bytes: Vec<u64> = columns
        .iter()
        .map(|c| file_bytes(store, p, c.name()))
        .collect();
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
                        scalar_answer(fold_scalar(part_data.lineorder.column(*column), *filter))
                    }
                };
                (answer, 0.0)
            })
            .collect();
        return Ok(PartRaw {
            io_s: vec![0.0; columns.len()],
            bytes,
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

    // The device ladder, once, on a partition-private device and one
    // upload of the encoded columns. The host copies are clean (loaded
    // and digest-verified, or regenerated), so a failover uploads them
    // again to a fresh device.
    let dev = partition_device(opts.plan.as_ref(), p, order.launches);
    let upload = |d: &Device| LoColumns::from_encoded(d, cols.iter().map(|(c, e, _)| (*c, &**e)));
    let (filter, flights) = (&order.filter, &order.flights);
    let (pass, seconds, ladder_recovered) = device_ladder(
        &dev,
        &upload(&dev),
        upload,
        |d, lo, report| {
            retry_transients(report, || {
                wave_pass(d, dims, lo, &order.read, filter, flights, opts.scale)
            })
        },
        // The CPU rung folds the clean host copies and flies the
        // regenerated rows; it launched nothing, so the seconds the
        // rungs above it spent split evenly.
        || {
            let flies = |m: &WaveQuery| matches!(m.spec, WaveSpec::Flight(_));
            let rows = members.iter().any(flies).then(regenerated);
            let fly = |q| run_reference(rows.as_ref().expect("regenerated for the flights"), q);
            let host = |c: LoColumn| &cols.iter().find(|l| l.0 == c).expect("a listed column").1;
            let mut decoded: Vec<Option<Vec<i32>>> = vec![None; order.read.len()];
            let filters = filter.iter().map(|m| match *m {
                FilterMember::Flight1 { q, .. } => WaveAnswer::Groups(fly(q)),
                FilterMember::Scalar { column, filter } => {
                    let values = decoded[column]
                        .get_or_insert_with(|| host(order.read[column]).decode_cpu());
                    scalar_answer(fold_scalar(values, filter))
                }
            });
            let filters: Vec<WaveAnswer> = filters.collect();
            let owners = usize::from(!filters.is_empty()) + flights.len();
            WavePass {
                filters,
                flights: flights.iter().map(|&q| fly(q)).collect(),
                shares: vec![1.0 / owners as f64; owners],
            }
        },
        opts.scale,
        &mut report,
    );
    report.absorb_device(&dev);
    // Hand each member its piece, with the seconds of its owner: the
    // filter part for a probe-free member, its own parts for a join
    // flight.
    let mut handed: Vec<Option<(WaveAnswer, f64)>> = vec![None; members.len()];
    let filter_owner = usize::from(!filter.is_empty());
    for (&i, answer) in order.filter_of.iter().zip(pass.filters) {
        handed[i] = Some((answer, seconds * pass.shares[0]));
    }
    for (k, (&i, groups)) in order.flight_of.iter().zip(pass.flights).enumerate() {
        let share = pass.shares[filter_owner + k];
        handed[i] = Some((WaveAnswer::Groups(groups), seconds * share));
    }
    let members = handed
        .into_iter()
        .map(|piece| piece.expect("every member is in the filter part or flies"))
        .collect();
    Ok(PartRaw {
        io_s: cols.iter().map(|(_, _, io_s)| *io_s).collect(),
        bytes,
        members,
        report,
        recovered: damaged || ladder_recovered,
        forced_cpu: false,
        from_cache: opts.cache.is_some() && !damaged,
    })
}

/// The run's members in the order its launches take them, which must
/// not follow the order the run lists them in: the parts of a launch,
/// and with them the float sums behind every share, are the same for
/// any listing of one composition.
struct Composition {
    /// The listed columns some probe-free member reads, in list order:
    /// the filter part's columns.
    read: Vec<LoColumn>,
    /// The filter part's members: the flight-1 members in
    /// [`QueryId::ALL`] order, then the scalars by listed column.
    /// Column positions index `read`.
    filter: Vec<FilterMember>,
    /// Per member of `filter`, its index in the run's list.
    filter_of: Vec<usize>,
    /// The join flights in [`QueryId::ALL`] order.
    flights: Vec<QueryId>,
    /// Per flight of `flights`, its index in the run's list.
    flight_of: Vec<usize>,
    /// Launches a partition of the run makes: the scan, and a build
    /// before it where a member joins.
    launches: u64,
}

impl Composition {
    fn of(members: &[WaveQuery], columns: &[LoColumn]) -> Self {
        let probe_free = |m: &&WaveQuery| m.spec.probe_free();
        let read: Vec<LoColumn> = columns
            .iter()
            .copied()
            .filter(|c| {
                let mut readers = members.iter().filter(probe_free);
                readers.any(|m| m.spec.columns().contains(c))
            })
            .collect();
        let at = |c: &LoColumn| read.iter().position(|r| r == c).expect("a read column");
        let flying = QueryId::ALL.into_iter().flat_map(|q| {
            let members = members.iter().enumerate();
            members.filter_map(move |(i, m)| (m.spec == WaveSpec::Flight(q)).then_some((i, q)))
        });
        let (flight1, flights): (Vec<_>, Vec<_>) = flying.partition(|(_, q)| q.launches() == 1);
        let flight1 = flight1.into_iter().map(|(i, q)| {
            let [od, qt, dc, ep] = [0, 1, 2, 3].map(|k| at(&q.columns()[k]));
            let columns = [od, qt, dc, ep];
            (i, FilterMember::Flight1 { q, columns })
        });
        let scalars = read.iter().enumerate().flat_map(|(column, c)| {
            let members = members.iter().enumerate();
            members.filter_map(move |(i, m)| match m.spec {
                WaveSpec::Scalar { column: on, filter } if on == *c => {
                    Some((i, FilterMember::Scalar { column, filter }))
                }
                _ => None,
            })
        });
        let (filter_of, filter) = flight1.chain(scalars).unzip();
        let (flight_of, flights) = flights.into_iter().unzip();
        Composition {
            filter,
            filter_of,
            flights,
            flight_of,
            read,
            launches: members.iter().map(|m| m.spec.launches()).max().unwrap_or(1),
        }
    }
}

/// What one pass over a partition's upload answered, and how its
/// device seconds split among its owners: the filter part (when the
/// run has a probe-free member), then the join flights.
struct WavePass {
    /// Per member of the filter part, in the part's order.
    filters: Vec<WaveAnswer>,
    /// Per join flight: its groups.
    flights: Vec<Vec<(u64, u64)>>,
    /// Per owner, its fraction of the pass's seconds; they sum to 1.
    shares: Vec<f64>,
}

/// The evaluate step of one partition: at most two launches on `dev`
/// over the upload `lo`. [`wave_build`] builds the dimension tables of
/// every join flight (no launch without one) and [`wave_scan`] runs the
/// filter part, which reads the columns `read` straight from the upload
/// and decodes each once a tile for all of `filter`, and one part per
/// join flight, each decoding its own copy inline.
///
/// Shares: a launch's seconds `T` split among its parts by what the
/// model charges each part alone, `T × sᵢ / Σs`
/// ([`KernelReport::share`]); an owner's parts are the filter part, or
/// its flight's scan and table builds. An owner of every part pays
/// exactly 1: a one-member run is priced as its launches are.
fn wave_pass(
    dev: &Device,
    dims: &SsbData,
    lo: &LoColumns,
    read: &[LoColumn],
    filter: &[FilterMember],
    flights: &[QueryId],
    scale: f64,
) -> Result<WavePass, DecodeError> {
    let prepared = flights
        .iter()
        .map(|q| lo.try_prepare(dev, q.columns()))
        .collect::<Result<Vec<_>, _>>()?;
    let (tables, build) = wave_build(dev, dims, flights)?;
    let columns: Vec<&QueryColumn> = read
        .iter()
        .map(|c| match lo.stored(*c) {
            StoredColumn::Star(col) => col,
            _ => unreachable!("`from_encoded` stores GPU-* columns"),
        })
        .collect();
    let filter_scan = FilterScan {
        columns: &columns,
        members: filter,
    };
    let flight_scans: Vec<FlightScan<'_>> = flights
        .iter()
        .zip(prepared.iter().zip(&tables))
        .map(|(&q, (cols, tables))| FlightScan { q, cols, tables })
        .collect();
    let (answers, scan) = wave_scan(dev, &filter_scan, &flight_scans)?;

    let launch_s = dev.params().kernel_launch_s;
    let scaled = |launch: &KernelReport| launch.scaled_seconds(scale, launch_s);
    let filter_owner = usize::from(!filter.is_empty());
    let mut owed = vec![0.0f64; filter_owner + flights.len()];
    let mut total = 0.0f64;
    if let Some(build) = &build {
        let seconds = scaled(build);
        total += seconds;
        let mut first = 0;
        for (owed, tables) in owed[filter_owner..].iter_mut().zip(&tables) {
            let parts = first..first + tables.built();
            first = parts.end;
            *owed += seconds * build.share(parts);
        }
    }
    let seconds = scaled(&scan);
    total += seconds;
    for (part, owed) in owed.iter_mut().enumerate() {
        *owed += seconds * scan.share(part..part + 1);
    }
    Ok(WavePass {
        filters: answers.filters,
        flights: answers.flights,
        shares: owed.into_iter().map(|owed| owed / total).collect(),
    })
}

/// A scalar member's `(count, sum)` as its answer.
fn scalar_answer((count, sum): (u64, i64)) -> WaveAnswer {
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
/// victim. `launches` is what a partition of the run makes.
fn partition_device(plan: Option<&FaultPlan>, p: usize, launches: u64) -> Device {
    let dev = Device::v100();
    if let Some(plan) = plan {
        let armed = FaultPlan {
            seed: plan.seed ^ (p as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            // Die at the run's last launch: with a join flight in the
            // run the dimension build lands, then the fact scan is
            // lost mid-query; without one the scan is all there is to
            // lose.
            kill_after_launches: (plan.storage.kill_shard_at_partition == Some(p))
                .then_some(launches as usize - 1),
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
    fn dimensions_are_generated_once_per_store() {
        let dir = tmp_dir("dims_once");
        let spec = small_spec();
        let store = SsbStore::ingest(&dir, &spec).expect("ingest");
        let first: *const SsbData = store.dims();
        for q in [QueryId::Q21, QueryId::Q31] {
            run_query_streamed_bounded(&store, q, &StreamOptions::default()).expect("stream");
        }
        assert!(std::ptr::eq(first, store.dims()), "runs share one copy");
        let fresh = spec.dims();
        assert_eq!(store.dims().customer.city, fresh.customer.city);
        assert_eq!(store.dims().part.brand1, fresh.part.brand1);
        assert!(store
            .dims()
            .lineorder
            .column(LoColumn::OrderDate)
            .is_empty());
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
        scalar_answer(fold_scalar(&values, filter))
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
        // All four members probe nothing, so the wave is one launch of
        // one filter part a partition, where alone each member launches
        // once: three launches saved. The part decodes each of the two
        // flights' four columns once for both of them (quantity and
        // discount for a scalar too): four shared decodes. Every
        // member's answer is what a wave of itself gives, and it pays
        // less device time: its share of one launch.
        let n = spec.chunks as u64;
        assert_eq!((wave.shared_decodes, wave.launches_saved), (4 * n, 3 * n));
        for (i, q) in mixed_wave().into_iter().enumerate() {
            let solo = run_wave_streamed(&store, &[q], &opts).expect("solo wave");
            assert_eq!(
                solo.queries[0].outcome.as_ref().unwrap(),
                wave.queries[i].outcome.as_ref().unwrap(),
                "singleton wave answer must match member {i}"
            );
            assert_eq!(solo.launches_saved, 0, "member {i}");
            assert!(
                wave.queries[i].device_s < solo.queries[0].device_s,
                "member {i}"
            );
            assert!(wave.queries[i].io_s <= solo.queries[0].io_s, "member {i}");
        }
        // A second scalar on Discount reads what member 3 reads in every
        // partition, so the two pay the same, and less than member 3
        // did without it.
        let mut shared = mixed_wave();
        shared.push(WaveQuery {
            spec: WaveSpec::Scalar {
                column: LoColumn::Discount,
                filter: None,
            },
            deadline_device_s: None,
        });
        let both = run_wave_streamed(&store, &shared, &opts).expect("wave");
        assert_eq!((both.shared_decodes, both.launches_saved), (4 * n, 4 * n));
        assert_eq!(
            both.queries[3].outcome.as_ref().unwrap(),
            wave.queries[3].outcome.as_ref().unwrap()
        );
        assert_eq!(
            both.queries[4].outcome.as_ref().unwrap(),
            &scalar_reference(&store, LoColumn::Discount, None)
        );
        assert_eq!(both.queries[3].device_s, both.queries[4].device_s);
        assert!(both.queries[3].device_s < wave.queries[3].device_s);
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
    fn a_scalar_launch_climbs_the_ladder_a_flight_climbs() {
        let dir = tmp_dir("scalar_ladder");
        let spec = small_spec();
        let store = SsbStore::ingest(&dir, &spec).expect("ingest");
        let scalars: Vec<WaveQuery> = [None, Some(4), Some(7)]
            .into_iter()
            .map(|filter| WaveQuery {
                spec: WaveSpec::Scalar {
                    column: LoColumn::Discount,
                    filter,
                },
                deadline_device_s: None,
            })
            .collect();
        let flight = [WaveQuery {
            spec: WaveSpec::Flight(QueryId::Q11),
            deadline_device_s: None,
        }];
        let clean = run_wave_streamed(&store, &scalars, &StreamOptions::default()).unwrap();
        let under = |members: &[WaveQuery], plan: FaultPlan| {
            let opts = StreamOptions {
                plan: Some(plan),
                ..StreamOptions::default()
            };
            run_wave_streamed(&store, members, &opts).expect("the ladder recovers")
        };
        // What the ladder did, without what the plan injected (a flight
        // allocates and launches more, so it draws more faults).
        let rungs = |r: &ResilienceReport| {
            [
                r.transient_retries,
                r.retries_exhausted,
                r.corrupt_tiles_detected,
                r.shards_failed_over,
                r.cpu_fallbacks,
            ]
        };
        let n = spec.chunks;
        // Every launch fails: three retries in place, then the fresh
        // device. Every upload is corrupt: a typed error, then the
        // fresh device.
        let always_transient = FaultPlan {
            transient_launch_rate: 1.0,
            ..FaultPlan::seeded(3)
        };
        let corrupt = FaultPlan {
            bitflip_rate: 0.05,
            ..FaultPlan::seeded(4)
        };
        for (plan, want) in [
            (always_transient, [3 * n, n, 0, n, 0]),
            (corrupt, [0, 0, n, n, 0]),
        ] {
            let drilled = under(&scalars, plan.clone());
            for (d, c) in drilled.queries.iter().zip(&clean.queries) {
                assert_eq!(d.outcome.as_ref().unwrap(), c.outcome.as_ref().unwrap());
                // One launch served all three: counted once, not thrice.
                assert_eq!(rungs(&d.report), want);
                assert_eq!(d.recovered_partitions, (0..n).collect::<Vec<_>>());
            }
            let flown = under(&flight, plan);
            assert_eq!(rungs(&flown.queries[0].report), want);
        }
        // A kill takes the device at the run's last launch: a run that
        // builds nothing loses its scan, a join flight its scan after
        // the build has landed. Either way one device, one failover.
        let killed = FaultPlan {
            storage: StorageFaults {
                kill_shard_at_partition: Some(1),
                ..StorageFaults::default()
            },
            ..FaultPlan::seeded(5)
        };
        let join = [WaveQuery {
            spec: WaveSpec::Flight(QueryId::Q21),
            deadline_device_s: None,
        }];
        for run in [&scalars[..], &flight, &join] {
            let drilled = under(run, killed.clone());
            for d in &drilled.queries {
                assert_eq!(d.report.devices_lost, 1);
                assert_eq!(rungs(&d.report), [0, 0, 0, 1, 0]);
                assert_eq!(d.recovered_partitions, [1]);
            }
        }
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
