//! Modelled numbers pinned across commits.
//!
//! `determinism.rs` compares 1 worker against 4 workers *of the same
//! build*; nothing there notices a commit that changes what a kernel
//! is charged. The rows below were captured on the commit before the
//! simulator's accounting helpers were rewritten for host speed
//! (DESIGN.md "Host cost of the simulator"), and every later commit
//! must reproduce them bit for bit at 1 and 4 sim threads: modelled
//! seconds, every total `Traffic` field, every `Counter`, and a digest
//! over each event's name, seconds and per-phase spans. The OmniSci
//! and `crystal::select` rows were captured one round later, on the
//! commit before selections became ballot words (DESIGN.md §19): they
//! pin `materialize::probe` and the fused select, which the first rows
//! do not reach. The two fused q1.1 rows were refreshed by the commit
//! after which flight 1 joins nothing: one event where two were (no
//! `build_date` launch), no gathers in the scan, every counter and the
//! shared-memory bytes as they were. The q2.1 / q3.1 / q4.3 rows under
//! both systems and every OmniSci row were refreshed by the commit after
//! which a dimension table's slot is as narrow as its payloads (a bit,
//! a byte, two bytes): fewer read segments in the probes and fewer
//! write segments in the builds, every counter, operation count and
//! shared-memory byte as it was. The short-run GPU-RFOR rows were
//! captured on the commit before the host stopped executing RFOR's
//! four-step run expansion literally: the model still charges those
//! four steps, and these rows hold it to that. The vertical FOR and
//! DFOR rows, and the cascades over them, were captured on the commit
//! before every reader of the block format went through one width
//! check, one layout rule and one DFOR tile geometry.
//!
//! A deliberate model change refreshes a row: the failure message
//! prints the observed row as a Rust literal.

use std::sync::{Mutex, MutexGuard};

use tlc::baselines::cascaded;
use tlc::crystal::{select, QueryColumn};
use tlc::schemes::column::DeviceColumn;
use tlc::schemes::{EncodedColumn, Layout, Scheme};
use tlc::sim::{set_sim_threads_override, Counter, Device, Phase, Traffic};
use tlc::ssb::{try_run_query, LoColumns, QueryId, SsbData, System};
use tlc_rng::Rng;

/// The override is process-global; serialize the tests that set it.
static OVERRIDE: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    OVERRIDE.lock().unwrap_or_else(|e| e.into_inner())
}

/// One pinned measurement: everything the model reports for a region
/// of the timeline.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    /// `f64::to_bits` of `Device::elapsed_seconds()`.
    seconds_bits: u64,
    /// Total traffic: read segments, write segments, shared bytes,
    /// integer ops, spill bytes.
    traffic: [u64; 5],
    /// Every `Counter`, in `Counter::ALL` order.
    counters: [u64; Counter::COUNT],
    /// FNV-1a 64 over every event in launch order: name, seconds bits,
    /// the five traffic fields of each phase, the counters.
    digest: u64,
}

fn traffic_fields(t: &Traffic) -> [u64; 5] {
    [
        t.global_read_segments,
        t.global_write_segments,
        t.shared_bytes,
        t.int_ops,
        t.spill_bytes,
    ]
}

fn fnv64(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Read the pin off the device's timeline (events since the last
/// `reset_timeline`).
fn observe(dev: &Device) -> Pin {
    let seconds_bits = dev.elapsed_seconds().to_bits();
    dev.with_timeline(|tl| {
        let spans = tl.total_spans();
        let mut digest = 0xCBF2_9CE4_8422_2325u64;
        for e in tl.events() {
            fnv64(&mut digest, e.name.as_bytes());
            fnv64(&mut digest, &e.seconds.to_bits().to_le_bytes());
            for p in Phase::ALL {
                for f in traffic_fields(e.spans.phase(p)) {
                    fnv64(&mut digest, &f.to_le_bytes());
                }
            }
            for c in Counter::ALL {
                fnv64(&mut digest, &e.spans.counter(c).to_le_bytes());
            }
        }
        Pin {
            seconds_bits,
            traffic: traffic_fields(&tl.total_traffic()),
            counters: Counter::ALL.map(|c| spans.counter(c)),
            digest,
        }
    })
}

/// Run `f` at 1 and at 4 sim threads and hold both to `want`.
fn check(label: &str, want: &Pin, f: impl Fn() -> Pin) {
    for threads in [1, 4] {
        set_sim_threads_override(Some(threads));
        let got = f();
        set_sim_threads_override(None);
        assert_eq!(
            &got, want,
            "{label} at {threads} sim thread(s): modelled numbers moved; observed\n{got:#x?}"
        );
    }
}

const QUERIES: [QueryId; 4] = [QueryId::Q11, QueryId::Q21, QueryId::Q31, QueryId::Q43];

/// `(query, system)` → pin, in `QUERIES` × `[GpuStar, None]` order.
const QUERY_PINS: [Pin; 8] = [
    // q1.1 under GpuStar
    Pin {
        seconds_bits: 0x3ed7f4f0a2b2e776,
        traffic: [0xe55, 0x76, 0x262d10, 0x18e0cd, 0x0],
        counters: [0x1d8, 0x1d8, 0x159d, 0x493, 0x3aa5c, 0x3adf],
        digest: 0x55289b785cd3c59b,
    },
    // q1.1 under None
    Pin {
        seconds_bits: 0x3eda5ef25cfbecde,
        traffic: [0x1dca, 0x76, 0xec00, 0xb033a, 0x0],
        counters: [0x0, 0x0, 0x0, 0x0, 0x0, 0x0],
        digest: 0xb4904b25b794410f,
    },
    // q2.1 under GpuStar
    Pin {
        seconds_bits: 0x3eea3bc1a80351f8,
        traffic: [0x3c14, 0x1ec, 0x26ffd0, 0x18d43b, 0x0],
        counters: [0x1d8, 0x1d8, 0x1417, 0x619, 0x3aa5c, 0x3adf],
        digest: 0x1d6840bad44f791d,
    },
    // q2.1 under None
    Pin {
        seconds_bits: 0x3eeb53a1d50a723e,
        traffic: [0x4a14, 0x1ec, 0x0, 0xb493c, 0x0],
        counters: [0x0, 0x0, 0x0, 0x0, 0x0, 0x0],
        digest: 0xd32a5bd00783b4f8,
    },
    // q3.1 under GpuStar
    Pin {
        seconds_bits: 0x3ee97bbb7db0c9c1,
        traffic: [0x313a, 0x32b, 0x3f2760, 0x19dd84, 0x0],
        counters: [0x1d8, 0x1d8, 0x1292, 0x46c, 0x3aa5c, 0x7591],
        digest: 0xa6e2be939dbcf083,
    },
    // q3.1 under None
    Pin {
        seconds_bits: 0x3eeaa39dd8b8f6f2,
        traffic: [0x4007, 0x32b, 0x0, 0xb34d4, 0x0],
        counters: [0x0, 0x0, 0x0, 0x0, 0x0, 0x0],
        digest: 0x63a0a8ae8c7b1b46,
    },
    // q4.3 under GpuStar
    Pin {
        seconds_bits: 0x3ee9b08e99568ce2,
        traffic: [0x275d, 0x3d, 0x46862c, 0x1f513e, 0x76000],
        counters: [0x2c4, 0x2c4, 0x16fe, 0xeb0, 0x57f8a, 0x7591],
        digest: 0x4878dda0b47a4530,
    },
    // q4.3 under None
    Pin {
        seconds_bits: 0x3eeb43e4bc83bf9b,
        traffic: [0x3b8a, 0x3d, 0x0, 0xef5a4, 0x76000],
        counters: [0x0, 0x0, 0x0, 0x0, 0x0, 0x0],
        digest: 0x8c3016b2a2d7fb50,
    },
];

#[test]
fn ssb_queries_reproduce_the_pinned_model() {
    let _guard = lock();
    let data = SsbData::generate(0.01);
    let mut pins = QUERY_PINS.iter();
    for q in QUERIES {
        for sys in [System::GpuStar, System::None] {
            let want = pins.next().expect("one pin per (query, system)");
            check(&format!("{} under {sys:?}", q.name()), want, || {
                let dev = Device::v100();
                let cols = LoColumns::build(&dev, &data, sys, q.columns());
                dev.reset_timeline();
                try_run_query(&dev, &data, &cols, q).expect("clean data");
                observe(&dev)
            });
        }
    }
}

/// The same four queries operator-at-a-time: every
/// `materialize::probe` feeds the dimension probe a byte mask read
/// back from global memory, so these rows pin the probe's charges
/// where the fused kernels' bitmaps never reach.
const OMNISCI_PINS: [Pin; 4] = [
    // q1.1 under OmniSci
    Pin {
        seconds_bits: 0x3f0265507760d77d,
        traffic: [0x40e7, 0xd0d, 0x0, 0x86fbf, 0x0],
        counters: [0x0, 0x0, 0x0, 0x0, 0x0, 0x0],
        digest: 0x2fbfad8712c08c56,
    },
    // q2.1 under OmniSci
    Pin {
        seconds_bits: 0x3f10a2eace1a0fd9,
        traffic: [0x9c56, 0x492d, 0x0, 0xa5ea5, 0x0],
        counters: [0x0, 0x0, 0x0, 0x0, 0x0, 0x0],
        digest: 0x659e89f8b0acba91,
    },
    // q3.1 under OmniSci
    Pin {
        seconds_bits: 0x3f105348dc25b1ee,
        traffic: [0x915e, 0x4981, 0x0, 0xa4a3d, 0x0],
        counters: [0x0, 0x0, 0x0, 0x0, 0x0, 0x0],
        digest: 0x2e4668c00be9f20a,
    },
    // q4.3 under OmniSci
    Pin {
        seconds_bits: 0x3f176a05ff74b807,
        traffic: [0xd3b3, 0x92e4, 0x0, 0xd2076, 0x0],
        counters: [0x0, 0x0, 0x0, 0x0, 0x0, 0x0],
        digest: 0x74379806fd2c0f6e,
    },
];

#[test]
fn materialized_queries_reproduce_the_pinned_model() {
    let _guard = lock();
    let data = SsbData::generate(0.01);
    for (q, want) in QUERIES.into_iter().zip(&OMNISCI_PINS) {
        check(&format!("{} under OmniSci", q.name()), want, || {
            let dev = Device::v100();
            let cols = LoColumns::build(&dev, &data, System::OmniSci, q.columns());
            dev.reset_timeline();
            try_run_query(&dev, &data, &cols, q).expect("clean data");
            observe(&dev)
        });
    }
}

/// One column per scheme, shaped so `encode_as` exercises the scheme's
/// own cascade: bounded random (FOR), rising with jitter (DFOR), runs
/// (RFOR). 100 000 values: a short final tile and a short final block.
fn scheme_column(scheme: Scheme) -> Vec<i32> {
    let mut rng = Rng::seed_from_u64(0x7153_C0DE);
    let n = 100_000;
    match scheme {
        Scheme::GpuFor => (0..n).map(|_| rng.gen_range(-5_000..60_000)).collect(),
        Scheme::GpuDFor => {
            let mut v = 19_920_101;
            (0..n)
                .map(|_| {
                    v += rng.gen_range(0..9);
                    v
                })
                .collect()
        }
        Scheme::GpuRFor => {
            let mut out = Vec::with_capacity(n);
            while out.len() < n {
                let v = rng.gen_range(0..500);
                let run = rng.gen_range(1..40usize).min(n - out.len());
                out.extend(std::iter::repeat_n(v, run));
            }
            out
        }
    }
}

const SCHEMES: [Scheme; 3] = [Scheme::GpuFor, Scheme::GpuDFor, Scheme::GpuRFor];

/// `decode_only` then `decompress` of each scheme's column, one pin
/// covering both launches.
const DECODE_PINS: [Pin; 3] = [
    // GPU-FOR
    Pin {
        seconds_bits: 0x3ee805bbf9d45180,
        traffic: [0x10fe, 0xc35, 0x13a5a0, 0x102130, 0x0],
        counters: [0x188, 0x188, 0x1870, 0x0, 0x30d40, 0x0],
        digest: 0x7fae5100bd1301ee,
    },
    // GPU-DFOR
    Pin {
        seconds_bits: 0x3ee771a6f0640f97,
        traffic: [0x834, 0xc35, 0x36d510, 0x13f518, 0x0],
        counters: [0x188, 0x188, 0x1870, 0x0, 0x30d40, 0x0],
        digest: 0x7e69e4a28bff10d3,
    },
    // GPU-RFOR
    Pin {
        seconds_bits: 0x3ee7d1f09c4b762f,
        traffic: [0x8aa, 0xc35, 0x4dead8, 0x810c0, 0x0],
        counters: [0x188, 0x188, 0x338, 0x0, 0x30d40, 0x28ea],
        digest: 0x3c6ce7abfc8c85d4,
    },
];

#[test]
fn standalone_decodes_reproduce_the_pinned_model() {
    let _guard = lock();
    for (scheme, want) in SCHEMES.into_iter().zip(&DECODE_PINS) {
        let values = scheme_column(scheme);
        let enc = EncodedColumn::encode_as(&values, scheme);
        check(scheme.name(), want, || {
            let dev = Device::v100();
            let dcol = enc.to_device(&dev);
            dev.reset_timeline();
            dcol.decode_only(&dev).expect("clean column");
            let out = dcol.decompress(&dev).expect("clean column");
            assert_eq!(out.as_slice_unaccounted(), values);
            observe(&dev)
        });
    }
}

/// One `crystal::select` launch (fused decode→predicate, block scan,
/// compacted writeback) over the GPU-FOR column stored plain, then
/// over each scheme's column encoded.
const SELECT_PINS: [Pin; 4] = [
    // plain
    Pin {
        seconds_bits: 0x3ed8afed5fa3b36b,
        traffic: [0xcf9, 0x58e, 0x186a00, 0x61a80, 0x0],
        counters: [0x0, 0x0, 0x0, 0x0, 0x0, 0x0],
        digest: 0xac90bf9833964c8,
    },
    // GPU-FOR
    Pin {
        seconds_bits: 0x3ed81b8e3ea03573,
        traffic: [0x943, 0x58e, 0x222460, 0xdca18, 0x0],
        counters: [0xc4, 0xc4, 0xc38, 0x0, 0x186a0, 0x0],
        digest: 0xf9cdb63c210e01ea,
    },
    // GPU-DFOR
    Pin {
        seconds_bits: 0x3ed76d920734a2d1,
        traffic: [0x4de, 0x599, 0x33d488, 0x10150c, 0x0],
        counters: [0xc4, 0xc4, 0xc38, 0x0, 0x186a0, 0x0],
        digest: 0xed5486eea9a6eb5e,
    },
    // GPU-RFOR
    Pin {
        seconds_bits: 0x3ed7c5eb5b6f15c6,
        traffic: [0x519, 0x58b, 0x3f5f6c, 0xa22e0, 0x0],
        counters: [0xc4, 0xc4, 0x19c, 0x0, 0x186a0, 0x1475],
        digest: 0x40524d1fb9985f1e,
    },
];

#[test]
fn fused_select_reproduces_the_pinned_model() {
    let _guard = lock();
    let pred = |v: i32| v % 3 == 0;
    let cases = std::iter::once(None).chain(SCHEMES.into_iter().map(Some));
    for (scheme, want) in cases.zip(&SELECT_PINS) {
        let values = scheme_column(scheme.unwrap_or(Scheme::GpuFor));
        let kept: Vec<i32> = values.iter().copied().filter(|&v| pred(v)).collect();
        let label = scheme.map_or("select over plain", |s| s.name());
        check(label, want, || {
            let dev = Device::v100();
            let col = match scheme {
                None => QueryColumn::plain(&dev, &values),
                Some(s) => {
                    QueryColumn::Encoded(EncodedColumn::encode_as(&values, s).to_device(&dev))
                }
            };
            dev.reset_timeline();
            let (out, count) = select(&dev, &col, pred).expect("clean column");
            assert_eq!(&out.as_slice_unaccounted()[..count], kept.as_slice());
            observe(&dev)
        });
    }
}

/// An SSB-shaped RFOR column: runs of 1–7 (the per-order repeats of
/// `lo_orderdate`, `lo_custkey`, `lo_ordtotalprice`), 3 000 values, so
/// the last block is partial.
fn short_run_column() -> Vec<i32> {
    let mut rng = Rng::seed_from_u64(0x5EED_0007);
    let n = 3_000;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let v = rng.gen_range(0..100_000);
        let run = rng.gen_range(1..8usize).min(n - out.len());
        out.extend(std::iter::repeat_n(v, run));
    }
    out
}

/// One `decode_only` launch, then one `crystal::select` launch, over
/// the short-run RFOR column.
const SHORT_RUN_PINS: [Pin; 2] = [
    // decode_only
    Pin {
        seconds_bits: 0x3ed50ba49a5a69de,
        traffic: [0x2e, 0x0, 0x1702c, 0x3c20, 0x0],
        counters: [0x6, 0x6, 0x36, 0x0, 0xbb8, 0x2ff],
        digest: 0x32b67fe30f3a08b4,
    },
    // crystal::select
    Pin {
        seconds_bits: 0x3ed51082341a5f62,
        traffic: [0x34, 0x29, 0x22bac, 0x6b00, 0x0],
        counters: [0x6, 0x6, 0x36, 0x0, 0xbb8, 0x2ff],
        digest: 0xd22b7b5a74085e1e,
    },
];

#[test]
fn short_run_rfor_reproduces_the_pinned_model() {
    let _guard = lock();
    let values = short_run_column();
    let enc = EncodedColumn::encode_as(&values, Scheme::GpuRFor);
    check("short-run GPU-RFOR decode_only", &SHORT_RUN_PINS[0], || {
        let dev = Device::v100();
        let dcol = enc.to_device(&dev);
        dev.reset_timeline();
        dcol.decode_only(&dev).expect("clean column");
        observe(&dev)
    });
    let pred = |v: i32| v % 3 == 0;
    let kept: Vec<i32> = values.iter().copied().filter(|&v| pred(v)).collect();
    check("short-run GPU-RFOR select", &SHORT_RUN_PINS[1], || {
        let dev = Device::v100();
        let col = QueryColumn::Encoded(enc.to_device(&dev));
        dev.reset_timeline();
        let (out, count) = select(&dev, &col, pred).expect("clean column");
        assert_eq!(&out.as_slice_unaccounted()[..count], kept.as_slice());
        observe(&dev)
    });
}

/// Vertical twins of the FOR and DFOR columns: 100 096 values, a
/// multiple of 128, so no block is padded and `encode_as` lays every
/// block out lane-transposed. The DFOR deltas are 0..8, so every
/// miniblock needs 3 bits.
fn vertical_column(scheme: Scheme) -> EncodedColumn {
    let mut rng = Rng::seed_from_u64(0x7E27_1CA1);
    let n = 782 * 128;
    let values: Vec<i32> = match scheme {
        Scheme::GpuDFor => {
            let mut v = 19_920_101;
            (0..n)
                .map(|_| {
                    v += rng.gen_range(0..8);
                    v
                })
                .collect()
        }
        _ => (0..n).map(|_| rng.gen_range(-5_000..60_000)).collect(),
    };
    let enc = EncodedColumn::encode_as(&values, scheme);
    let layout = match &enc {
        EncodedColumn::For(c) => c.layout,
        EncodedColumn::DFor(c) => c.layout,
        EncodedColumn::RFor(c) => c.layout,
    };
    assert_eq!(layout, Layout::Vertical, "{scheme:?} column is vertical");
    assert_eq!(enc.decode_cpu(), values, "{scheme:?} host decode");
    enc
}

const VERTICAL: [Scheme; 2] = [Scheme::GpuFor, Scheme::GpuDFor];

/// Over each vertical column: `decode_only` then `decompress` (one pin
/// covering both launches), then one `crystal::select` launch.
const VERTICAL_PINS: [[Pin; 2]; 2] = [
    // GPU-FOR
    [
        Pin {
            seconds_bits: 0x3ee8061fee76af78,
            traffic: [0x1100, 0xc38, 0x13aa20, 0x1021f0, 0x0],
            counters: [0x188, 0x188, 0x1870, 0x0, 0x30e00, 0x0],
            digest: 0xa2b3d3da95b1af01,
        },
        Pin {
            seconds_bits: 0x3ed81c7e235916fd,
            traffic: [0x944, 0x593, 0x222ca0, 0xdcb38, 0x0],
            counters: [0xc4, 0xc4, 0xc38, 0x0, 0x18700, 0x0],
            digest: 0x9de5c23fc12cbba2,
        },
    ],
    // GPU-DFOR
    [
        Pin {
            seconds_bits: 0x3ee74745a20b412e,
            traffic: [0x774, 0xc38, 0x414c0, 0x161020, 0x0],
            counters: [0x188, 0x188, 0x1870, 0x0, 0x30e00, 0x0],
            digest: 0xef098c265edb4459,
        },
        Pin {
            seconds_bits: 0x3ed75e1bc94a1976,
            traffic: [0x47e, 0x596, 0x1a7a60, 0x112410, 0x0],
            counters: [0xc4, 0xc4, 0xc38, 0x0, 0x18700, 0x0],
            digest: 0x15eb0afd1310914c,
        },
    ],
];

#[test]
fn vertical_decodes_reproduce_the_pinned_model() {
    let _guard = lock();
    let pred = |v: i32| v % 3 == 0;
    for (scheme, [decode, selected]) in VERTICAL.into_iter().zip(&VERTICAL_PINS) {
        let enc = vertical_column(scheme);
        let values = enc.decode_cpu();
        let label = format!("vertical {}", scheme.name());
        check(&format!("{label} decode"), decode, || {
            let dev = Device::v100();
            let dcol = enc.to_device(&dev);
            dev.reset_timeline();
            dcol.decode_only(&dev).expect("clean column");
            let out = dcol.decompress(&dev).expect("clean column");
            assert_eq!(out.as_slice_unaccounted(), values);
            observe(&dev)
        });
        let kept: Vec<i32> = values.iter().copied().filter(|&v| pred(v)).collect();
        check(&format!("{label} select"), selected, || {
            let dev = Device::v100();
            let col = QueryColumn::Encoded(enc.to_device(&dev));
            dev.reset_timeline();
            let (out, count) = select(&dev, &col, pred).expect("clean column");
            assert_eq!(&out.as_slice_unaccounted()[..count], kept.as_slice());
            observe(&dev)
        });
    }
}

/// `cascaded::for_cascaded` and `dfor_cascaded` over the vertical
/// columns. What a cascade pass is charged does not depend on the
/// values it decodes, so these rows pin the model alone.
const CASCADE_PINS: [Pin; 2] = [
    // FOR+BitPack
    Pin {
        seconds_bits: 0x3ee92c5542478d50,
        traffic: [0x1733, 0x1870, 0x157a70, 0x10cd00, 0x0],
        counters: [0x0, 0x0, 0x0, 0x0, 0x0, 0x0],
        digest: 0xb43f8cc554612230,
    },
    // Delta+FOR+BitPack
    Pin {
        seconds_bits: 0x3ef2c984f27c498e,
        traffic: [0x1e93, 0x24a8, 0x13021c, 0x13db00, 0x0],
        counters: [0x0, 0x0, 0x0, 0x0, 0x0, 0x0],
        digest: 0xf005ffe41f5e021a,
    },
];

#[test]
fn cascades_over_vertical_columns_reproduce_the_pinned_model() {
    let _guard = lock();
    for (scheme, want) in VERTICAL.into_iter().zip(&CASCADE_PINS) {
        let enc = vertical_column(scheme);
        let label = format!("cascaded vertical {}", scheme.name());
        check(&label, want, || {
            let dev = Device::v100();
            match enc.to_device(&dev) {
                DeviceColumn::For(c) => {
                    dev.reset_timeline();
                    cascaded::for_cascaded(&dev, &c).expect("no fault plan");
                }
                DeviceColumn::DFor(c) => {
                    dev.reset_timeline();
                    cascaded::dfor_cascaded(&dev, &c).expect("no fault plan");
                }
                DeviceColumn::RFor(_) => unreachable!("FOR and DFOR only"),
            }
            observe(&dev)
        });
    }
}
