//! `codec`: the library round trip. `tlc-core` and `tlc-bitpack` do all
//! the timed work; the store and the service do none, and the simulator
//! only prices the decode once, outside the timed phase.

use std::hint::black_box;
use std::time::Instant;

use tlc_core::{EncodedColumn, Scheme};
use tlc_gpu_sim::Device;
use tlc_ssb::LoColumn;

use crate::inputs;
use crate::run::{cycles, repeat_setup, Ctx, Report, MIN_CYCLES};
use crate::stats::{median, median_rate};
use crate::trace::{Tracer, CYCLE};

/// Decode passes per cycle, so the decode phase is long enough to time.
const DECODE_REPS: usize = 8;

/// The 14 lineorder columns of chunk 0 followed by the three synthetic
/// columns; `scheme` is `None` where `encode_best` chooses.
struct Inputs {
    columns: Vec<(Option<Scheme>, Vec<i32>)>,
    lineorder_rows: usize,
    gen_chunk_s: f64,
}

impl Inputs {
    fn values(&self) -> usize {
        self.columns.iter().map(|(_, v)| v.len()).sum()
    }
}

fn make_inputs(seed: u64) -> Inputs {
    let spec = inputs::spec(seed);
    let t = Instant::now();
    let lo = spec.chunk(0);
    let gen_chunk_s = t.elapsed().as_secs_f64();
    let mut columns: Vec<(Option<Scheme>, Vec<i32>)> = LoColumn::ALL
        .iter()
        .map(|c| (None, lo.column(*c).to_vec()))
        .collect();
    columns.extend(
        inputs::synthetic(seed)
            .into_iter()
            .map(|(s, v)| (Some(s), v)),
    );
    Inputs {
        columns,
        lineorder_rows: lo.len,
        gen_chunk_s,
    }
}

/// Wall seconds of the phases of one cycle, and the serialised size of
/// its 14 lineorder columns.
struct Cycle {
    encode_s: f64,
    parse_s: f64,
    decode_s: f64,
    lineorder_bytes: usize,
}

impl Cycle {
    /// One round trip of every column: encode once, parse once, decode
    /// once.
    fn op_s(&self) -> f64 {
        self.encode_s + self.parse_s + self.decode_s / DECODE_REPS as f64
    }
}

/// One cycle; also hands back the columns as parsed from their own
/// bytes, which the caller checks and prices (the last cycle's only, so
/// memory stays one cycle's).
fn one_cycle(
    inp: &Inputs,
    buf: &mut Vec<i32>,
    tr: &mut Tracer,
    cycle: usize,
) -> (Cycle, Vec<EncodedColumn>) {
    let root = tr.begin(CYCLE, cycle as u32);
    let t = Instant::now();
    let encoded: Vec<EncodedColumn> = inp
        .columns
        .iter()
        .enumerate()
        .map(|(i, (scheme, values))| match scheme {
            None => tr.leaf("core.encode_best", i as u32, || {
                EncodedColumn::encode_best(values)
            }),
            Some(s) => tr.leaf("core.encode_as", i as u32, || {
                EncodedColumn::encode_as(values, *s)
            }),
        })
        .collect();
    let encode_s = t.elapsed().as_secs_f64();

    let files: Vec<Vec<u8>> = encoded
        .iter()
        .enumerate()
        .map(|(i, e)| tr.leaf("core.to_bytes", i as u32, || e.to_bytes()))
        .collect();
    drop(encoded);
    let t = Instant::now();
    let parsed: Vec<EncodedColumn> = files
        .iter()
        .enumerate()
        .map(|(i, bytes)| {
            tr.leaf("core.parse", i as u32, || {
                EncodedColumn::from_bytes(black_box(bytes)).expect("own bytes parse")
            })
        })
        .collect();
    let parse_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    for _ in 0..DECODE_REPS {
        for (i, col) in parsed.iter().enumerate() {
            tr.leaf("core.decode_cpu", i as u32, || {
                black_box(col).decode_cpu_into(buf)
            });
            black_box(&buf);
        }
    }
    let decode_s = t.elapsed().as_secs_f64();
    tr.end(root);
    let lineorder_bytes = files[..LoColumn::ALL.len()].iter().map(Vec::len).sum();
    let timing = Cycle {
        encode_s,
        parse_s,
        decode_s,
        lineorder_bytes,
    };
    (timing, parsed)
}

/// Suffix of the per-scheme metric names.
pub fn scheme_suffix(s: Scheme) -> &'static str {
    match s {
        Scheme::GpuFor => "for",
        Scheme::GpuDFor => "dfor",
        Scheme::GpuRFor => "rfor",
    }
}

/// Position of `s` in `Scheme::ALL`.
pub fn scheme_index(s: Scheme) -> usize {
    match s {
        Scheme::GpuFor => 0,
        Scheme::GpuDFor => 1,
        Scheme::GpuRFor => 2,
    }
}

/// Modelled V100 seconds and host wall seconds of one standalone
/// `decode_only` kernel over `col`.
pub fn sim_decode(col: &EncodedColumn) -> (f64, f64) {
    let dev = Device::v100();
    let on_device = col.to_device(&dev);
    dev.reset_timeline();
    let t = Instant::now();
    on_device.decode_only(&dev).expect("clean column decodes");
    (dev.elapsed_seconds(), t.elapsed().as_secs_f64())
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) -> Report {
    let mut rep = Report::default();
    let mut buf: Vec<i32> = Vec::new();
    let mut tr = Tracer::new(false);

    // Set-up: generate the inputs and make one untimed round trip.
    let (inp, _, setup_s) = repeat_setup(
        ctx.setup_reps(),
        || {
            let inp = make_inputs(ctx.seed);
            one_cycle(&inp, &mut buf, &mut Tracer::new(false), 0);
            (inp, ())
        },
        drop,
    );
    let values = inp.values() as f64;
    rep.metrics.set("setup_s", setup_s);
    rep.note("values_per_pass", inp.values());
    rep.note("lineorder_rows", inp.lineorder_rows);

    // Timed phase. A traced run spends the first third untraced, as the
    // control the tracing overhead is measured against.
    let control_s = ctx.control_seconds(1.0 / 3.0);
    let mut timed: Vec<Cycle> = Vec::new();
    let mut parsed: Vec<EncodedColumn> = Vec::new();
    cycles(control_s, MIN_CYCLES, |n| {
        let (timing, columns) = one_cycle(&inp, &mut buf, &mut tr, n);
        timed.push(timing);
        parsed = columns;
    });
    let mut traced: Vec<Cycle> = Vec::new();
    if ctx.trace {
        tr.set_enabled(true);
        cycles(ctx.seconds - control_s, MIN_CYCLES, |n| {
            let (timing, columns) = one_cycle(&inp, &mut buf, &mut tr, n);
            traced.push(timing);
            parsed = columns;
        });
        tr.set_enabled(false);
    }

    // Correctness: what the last cycle encoded, serialised and parsed
    // decodes to the input.
    for (i, ((_, want), col)) in inp.columns.iter().zip(&parsed).enumerate() {
        col.decode_cpu_into(&mut buf);
        rep.check(buf == *want, || format!("column {i} did not round-trip"));
    }

    // Modelled V100 time of the same decode, priced once by the
    // simulator outside every wall metric.
    let sim: Vec<(f64, f64)> = parsed.iter().map(sim_decode).collect();
    let model_s: f64 = sim.iter().map(|s| s.0).sum();
    let bytes_per_row = timed[0].lineorder_bytes as f64 / inp.lineorder_rows as f64;
    for c in timed.iter().chain(&traced) {
        let b = c.lineorder_bytes as f64 / inp.lineorder_rows as f64;
        rep.expect_same("bytes_per_row", bytes_per_row, b);
    }

    rep.note("op_wall_samples", timed.len());
    let m = &mut rep.metrics;
    let decodes: Vec<(f64, f64)> = timed
        .iter()
        .map(|c| (values * DECODE_REPS as f64, c.decode_s))
        .collect();
    m.set("wall_mvals_per_s", median_rate(&decodes) / 1e6);
    let encodes: Vec<(f64, f64)> = timed.iter().map(|c| (values, c.encode_s)).collect();
    m.set("encode_mvals_per_s", median_rate(&encodes) / 1e6);
    let ops: Vec<f64> = timed.iter().map(|c| c.op_s() * 1e3).collect();
    m.set("op_wall_p50_ms", median(&ops));
    m.set("model_ms_per_op", model_s * 1e3);
    m.set("bytes_per_row", bytes_per_row);
    let parses: Vec<f64> = timed.iter().map(|c| c.parse_s).collect();
    m.set("reopen_verify_s", median(&parses));

    if ctx.trace {
        let untraced: Vec<f64> = timed.iter().map(Cycle::op_s).collect();
        let with_spans: Vec<f64> = traced.iter().map(Cycle::op_s).collect();
        m.set(
            "trace_overhead_share",
            median(&with_spans) / median(&untraced) - 1.0,
        );
        m.set("ssb.gen.chunk_s", inp.gen_chunk_s);
        m.set(
            "core.encode_best_s",
            median(&tr.per_cycle("core.encode_best")),
        );
        m.set("core.parse_s", median(&tr.per_cycle("core.parse")));
        for s in Scheme::ALL {
            let n = parsed[..LoColumn::ALL.len()]
                .iter()
                .filter(|c| c.scheme() == s)
                .count();
            m.set(
                &format!("core.scheme_columns.{}", scheme_suffix(s)),
                n as f64,
            );
        }
        // The synthetic columns, one per scheme, give the per-scheme rates.
        for (i, (scheme, column)) in inp.columns.iter().enumerate() {
            let Some(s) = scheme else { continue };
            let suffix = scheme_suffix(*s);
            let n = column.len() as f64;
            let span_median = |name: &str| {
                let d: Vec<f64> = tr
                    .spans()
                    .iter()
                    .filter(|sp| sp.name == name && sp.op == i as u32)
                    .map(|sp| (sp.end_ns - sp.start_ns) as f64 / 1e9)
                    .collect();
                median(&d)
            };
            m.set(
                &format!("core.encode_mvals_per_s.{suffix}"),
                n / span_median("core.encode_as") / 1e6,
            );
            m.set(
                &format!("core.decode_cpu_mvals_per_s.{suffix}"),
                n / span_median("core.decode_cpu") / 1e6,
            );
            let (model, wall) = sim[i];
            m.set(
                &format!("gpu-sim.decode_model_gvals_per_s.{suffix}"),
                n / model / 1e9,
            );
            m.set(
                &format!("gpu-sim.decode_wall_mvals_per_s.{suffix}"),
                n / wall / 1e6,
            );
        }
        rep.tracer = Some(tr);
    }
    rep
}
