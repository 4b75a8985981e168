//! `ingest`: the write and maintenance side. A cycle ingests the shared
//! spec into a fresh directory, drops the store, reopens it deep and
//! verifies it. `ssb.gen`, `encode_best`, `store.ingest` and the reopen
//! path do all the work; the simulator does none.

use std::time::Instant;

use tlc_core::{EncodedColumn, Scheme};
use tlc_ssb::{LoColumn, SsbStore, StreamSpec};
use tlc_store::{modeled_read_s, Ingest, MANIFEST_NAME};

use crate::codec::{scheme_index, scheme_suffix};
use crate::env::{remove_store, Scratch};
use crate::inputs;
use crate::run::{cycles, ingest_and_reopen, repeat_setup, Ctx, OpenedStore, Report, MIN_CYCLES};
use crate::stats::{median, median_rate};
use crate::trace::{Tracer, CYCLE};

/// What a cycle leaves behind once its directory is gone.
struct Cycle {
    ingest_s: f64,
    reopen_verify_s: f64,
    clean: bool,
    rows: u64,
    bytes: u64,
    /// `(bytes, digest)` of every partition file, in manifest order.
    files: Vec<(u32, u32)>,
    /// Columns by the scheme `encode_best` chose, in `Scheme::ALL` order
    /// (traced cycles only: the library keeps the encoded columns to
    /// itself).
    scheme_columns: [usize; 3],
    /// Size of the committed manifest (traced cycles only).
    manifest_bytes: u64,
}

impl Cycle {
    fn of(opened: &OpenedStore) -> Cycle {
        let manifest = opened.store.store().manifest();
        Cycle {
            ingest_s: opened.ingest_s,
            reopen_verify_s: opened.reopen_verify_s[0],
            clean: opened.clean,
            rows: opened.rows(),
            bytes: opened.bytes(),
            files: manifest
                .partitions
                .iter()
                .flat_map(|p| p.files.iter().map(|f| (f.bytes, f.digest)))
                .collect(),
            scheme_columns: [0; 3],
            manifest_bytes: 0,
        }
    }

    fn wall_s(&self) -> f64 {
        self.ingest_s + self.reopen_verify_s
    }

    fn values(&self) -> f64 {
        (self.rows * LoColumn::ALL.len() as u64) as f64
    }
}

fn library_cycle(scratch: &mut Scratch, spec: &StreamSpec) -> Cycle {
    let opened = ingest_and_reopen(scratch, spec, 1);
    let cycle = Cycle::of(&opened);
    remove_store(&opened.dir);
    cycle
}

/// The same cycle step by step through the public pieces of
/// `SsbStore::ingest`, each call in a span. The manifest keys are those
/// `tlc_ssb::stream` persists (private there); the reopen below fails if
/// they drift.
fn traced_cycle(scratch: &mut Scratch, spec: &StreamSpec, tr: &mut Tracer, n: usize) -> Cycle {
    let root = tr.begin(CYCLE, n as u32);
    let dir = scratch.fresh();
    let names: Vec<&str> = LoColumn::ALL.iter().map(|c| c.name()).collect();
    let t = Instant::now();
    let mut ing = tr.leaf("store.ingest.create", 0, || {
        Ingest::create(&dir, &names).expect("create a fresh store directory")
    });
    for (key, value) in [
        ("ssb.seed", spec.seed),
        ("ssb.orders_per_chunk", spec.orders_per_chunk as u64),
        ("ssb.chunks", spec.chunks as u64),
        ("ssb.chunk_factor", 1),
        ("ssb.n_cust", spec.n_cust as u64),
        ("ssb.n_supp", spec.n_supp as u64),
        ("ssb.n_part", spec.n_part as u64),
    ] {
        ing.set_meta(key, value);
    }
    let mut scheme_columns = [0usize; 3];
    for c in 0..spec.chunks {
        let lo = tr.leaf("ssb.gen.chunk", c as u32, || spec.chunk(c));
        let cols: Vec<EncodedColumn> = tr.leaf("core.encode_best", c as u32, || {
            LoColumn::ALL
                .iter()
                .map(|col| EncodedColumn::encode_best(lo.column(*col)))
                .collect()
        });
        for col in &cols {
            scheme_columns[scheme_index(col.scheme())] += 1;
        }
        tr.leaf("store.ingest.append", c as u32, || {
            ing.append_partition(&cols).expect("append a partition")
        });
    }
    let written = tr.leaf("store.ingest.commit", 0, || ing.commit().expect("commit"));
    let ingest_s = t.elapsed().as_secs_f64();
    drop(written);
    let t = Instant::now();
    let (store, recovery) = tr.leaf("store.open_deep", 0, || {
        SsbStore::open_deep(&dir).expect("reopen what was just committed")
    });
    let verified = tr.leaf("store.verify", 0, || store.store().verify());
    let reopen_verify_s = t.elapsed().as_secs_f64();
    tr.end(root);
    let mut opened = OpenedStore {
        dir,
        store,
        ingest_s,
        reopen_verify_s: vec![reopen_verify_s],
        clean: false,
    };
    opened.clean = recovery.is_clean() && verified.is_ok_and(|v| v.rows == opened.rows());
    let mut cycle = Cycle::of(&opened);
    cycle.scheme_columns = scheme_columns;
    cycle.manifest_bytes = std::fs::metadata(opened.dir.join(MANIFEST_NAME)).map_or(0, |m| m.len());
    remove_store(&opened.dir);
    cycle
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) -> Report {
    let mut rep = Report::default();
    let spec = inputs::spec(ctx.seed);

    // Set-up: one untimed cycle (page cache, allocator, directory).
    let (first, _, setup_s) = repeat_setup(
        ctx.setup_reps(),
        || (library_cycle(&mut ctx.scratch, &spec), ()),
        drop,
    );
    rep.metrics.set("setup_s", setup_s);

    let control_s = ctx.control_seconds(1.0 / 3.0);
    let mut timed: Vec<Cycle> = Vec::new();
    cycles(control_s, MIN_CYCLES, |_| {
        timed.push(library_cycle(&mut ctx.scratch, &spec));
    });
    let mut tr = Tracer::new(true);
    let mut traced: Vec<Cycle> = Vec::new();
    if ctx.trace {
        cycles(ctx.seconds - control_s, MIN_CYCLES, |n| {
            traced.push(traced_cycle(&mut ctx.scratch, &spec, &mut tr, n));
        });
    }

    // Correctness: every reopen is clean, and every cycle (the
    // recomposed ones too) wrote the same bytes as the first.
    for (n, c) in timed.iter().chain(&traced).enumerate() {
        rep.check(c.clean, || format!("cycle {n}: reopen or verify not clean"));
        rep.check(c.files == first.files && c.rows == first.rows, || {
            format!("cycle {n}: store differs from the first cycle's")
        });
    }
    let bytes_per_row = first.bytes as f64 / first.rows as f64;
    for c in &timed {
        rep.expect_same(
            "bytes_per_row",
            bytes_per_row,
            c.bytes as f64 / c.rows as f64,
        );
    }
    rep.note("rows", first.rows);
    rep.note("store_bytes", first.bytes);
    rep.note("op_wall_samples", timed.len());

    let m = &mut rep.metrics;
    let cycle_rates: Vec<(f64, f64)> = timed.iter().map(|c| (c.values(), c.wall_s())).collect();
    m.set("wall_mvals_per_s", median_rate(&cycle_rates) / 1e6);
    let ingest_rates: Vec<(f64, f64)> = timed.iter().map(|c| (c.values(), c.ingest_s)).collect();
    m.set("encode_mvals_per_s", median_rate(&ingest_rates) / 1e6);
    let walls: Vec<f64> = timed.iter().map(|c| c.wall_s() * 1e3).collect();
    m.set("op_wall_p50_ms", median(&walls));
    // No kernel runs here; the modelled cost of an op is reading the
    // store back cold from the modelled disk, as the reopen does.
    m.set("model_ms_per_op", modeled_read_s(first.bytes, false) * 1e3);
    m.set("bytes_per_row", bytes_per_row);
    let reopens: Vec<f64> = timed.iter().map(|c| c.reopen_verify_s).collect();
    m.set("reopen_verify_s", median(&reopens));

    if ctx.trace {
        let untraced: Vec<f64> = timed.iter().map(Cycle::wall_s).collect();
        let with_spans: Vec<f64> = traced.iter().map(Cycle::wall_s).collect();
        m.set(
            "trace_overhead_share",
            median(&with_spans) / median(&untraced) - 1.0,
        );
        for (metric, span) in [
            ("ssb.gen.chunk_s", "ssb.gen.chunk"),
            ("core.encode_best_s", "core.encode_best"),
            ("store.ingest.append_s", "store.ingest.append"),
            ("store.ingest.commit_s", "store.ingest.commit"),
            ("store.open_deep_s", "store.open_deep"),
            ("store.verify_s", "store.verify"),
        ] {
            m.set(metric, median(&tr.per_cycle(span)));
        }
        // open_deep and verify each read every partition file once.
        m.set("store.files_loaded", 2.0 * first.files.len() as f64);
        m.set("store.bytes_read", 2.0 * first.bytes as f64);
        // Every partition file and the manifest.
        let last = traced.last().expect("at least one traced cycle");
        m.set("store.ingest.files_written", first.files.len() as f64 + 1.0);
        m.set(
            "store.ingest.bytes_written",
            (first.bytes + last.manifest_bytes) as f64,
        );
        for (s, n) in Scheme::ALL.iter().zip(last.scheme_columns) {
            m.set(
                &format!("core.scheme_columns.{}", scheme_suffix(*s)),
                n as f64,
            );
        }
        rep.tracer = Some(tr);
    }
    rep
}
