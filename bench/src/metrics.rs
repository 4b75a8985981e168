//! The benchmark's declaration: workloads, end-to-end metrics with their
//! bounds, per-layer metrics with the end-to-end metric each should
//! move. `BENCHMARK.json` at the repository root is rendered from these
//! tables (`run.sh --manifest`); a unit test keeps the two identical.

use std::collections::BTreeMap;

use tlc_profile::Json;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`, and the
/// default of `--seconds`).
pub const RUN_SECONDS: u64 = 15;

/// One workload and why it exists.
pub struct Workload {
    /// Name later issues refer to.
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
}

/// The five workloads.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "codec",
        why: "library round trip: tlc-core and tlc-bitpack do all the work; store, simulator and service none",
    },
    Workload {
        name: "ingest",
        why: "write and maintenance side: generate, encode_best, write, fsync, commit, reopen deep, verify; no simulator",
    },
    Workload {
        name: "flight_cold",
        why: "out-of-core queries with a cache smaller than one query's working set: every load reads, digests and parses",
    },
    Workload {
        name: "flight_warm",
        why: "the same queries with the whole store cached: the store path drops out and the simulated kernel dominates",
    },
    Workload {
        name: "serve_mixed",
        why: "closed loop through the real Service: admission, batcher, dedup, wave executor and the scalar path",
    },
];

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system would see.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Modelled or counted, not timed: must repeat bit for bit at one
    /// seed (the exactness gate of `--repeat`).
    pub exact: bool,
}

/// The end-to-end metrics. Every workload reports every one of them;
/// `bench/README.md` says what each means on each workload.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "wall_mvals_per_s",
        unit: "Mvals/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "encode_mvals_per_s",
        unit: "Mvals/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "op_wall_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "model_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        bound: 0.03,
        exact: true,
    },
    EndToEnd {
        name: "bytes_per_row",
        unit: "B",
        better: Better::Lower,
        bound: 0.01,
        exact: true,
    },
    EndToEnd {
        name: "reopen_verify_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
];

/// A per-layer metric, measured in the traced pass.
pub struct PerLayer {
    /// Metric name, prefixed with its layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The end-to-end metric it should move, as `metric@workload`.
    pub moves: &'static str,
    /// Counted or modelled: must repeat bit for bit at one seed.
    pub exact: bool,
}

const fn timed(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        exact: false,
    }
}

const fn exact(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        exact: true,
    }
}

use Better::{Higher, Lower};

const COLD: &str = "wall_mvals_per_s@flight_cold";
const WARM: &str = "wall_mvals_per_s@flight_warm";
const FLIGHTS: &str = "wall_mvals_per_s@flight_cold, @flight_warm";
const INGEST: &str = "wall_mvals_per_s@ingest";
const REOPEN: &str = "reopen_verify_s@ingest";
const CACHE: &str = "wall_mvals_per_s@flight_warm, @serve_mixed; model_ms_per_op";
const MODEL: &str = "model_ms_per_op@flight_cold, @flight_warm, @serve_mixed";
const SERVE: &str = "wall_mvals_per_s, op_wall_p50_ms, model_ms_per_op@serve_mixed";

/// The per-layer metrics. A traced run prints all of them; one whose
/// layer the workload never calls reads 0 (no calls, no time).
pub const PER_LAYER: [PerLayer; 78] = [
    // store
    timed("store.load_column_s", "s", Lower, COLD),
    timed("store.read_s", "s", Lower, COLD),
    timed("store.digest_s", "s", Lower, COLD),
    exact("store.files_loaded", "count", Lower, COLD),
    exact("store.bytes_read", "B", Lower, COLD),
    timed("store.open_deep_s", "s", Lower, REOPEN),
    timed("store.verify_s", "s", Lower, REOPEN),
    // store.cache
    exact("store.cache.hits", "count", Higher, CACHE),
    exact("store.cache.misses", "count", Lower, CACHE),
    exact("store.cache.evictions", "count", Lower, CACHE),
    exact("store.cache.coalesced", "count", Higher, CACHE),
    exact("store.cache.hit_ratio", "ratio", Higher, CACHE),
    timed("store.cache.load_hit_us", "us", Lower, CACHE),
    // store.ingest
    timed("store.ingest.append_s", "s", Lower, INGEST),
    timed("store.ingest.commit_s", "s", Lower, INGEST),
    exact("store.ingest.bytes_written", "B", Lower, INGEST),
    exact("store.ingest.files_written", "count", Lower, INGEST),
    // core
    timed("core.parse_s", "s", Lower, COLD),
    timed("core.to_device_s", "s", Lower, FLIGHTS),
    timed("core.encode_best_s", "s", Lower, INGEST),
    timed(
        "core.encode_mvals_per_s.for",
        "Mvals/s",
        Higher,
        "encode_mvals_per_s@codec",
    ),
    timed(
        "core.encode_mvals_per_s.dfor",
        "Mvals/s",
        Higher,
        "encode_mvals_per_s@codec",
    ),
    timed(
        "core.encode_mvals_per_s.rfor",
        "Mvals/s",
        Higher,
        "encode_mvals_per_s@codec",
    ),
    timed(
        "core.decode_cpu_mvals_per_s.for",
        "Mvals/s",
        Higher,
        "wall_mvals_per_s@codec",
    ),
    timed(
        "core.decode_cpu_mvals_per_s.dfor",
        "Mvals/s",
        Higher,
        "wall_mvals_per_s@codec",
    ),
    timed(
        "core.decode_cpu_mvals_per_s.rfor",
        "Mvals/s",
        Higher,
        "wall_mvals_per_s@codec",
    ),
    exact(
        "core.scheme_columns.for",
        "count",
        Higher,
        "bytes_per_row@ingest",
    ),
    exact(
        "core.scheme_columns.dfor",
        "count",
        Higher,
        "bytes_per_row@ingest",
    ),
    exact(
        "core.scheme_columns.rfor",
        "count",
        Higher,
        "bytes_per_row@ingest",
    ),
    // gpu-sim: host wall
    timed(
        "gpu-sim.decode_wall_mvals_per_s.for",
        "Mvals/s",
        Higher,
        WARM,
    ),
    timed(
        "gpu-sim.decode_wall_mvals_per_s.dfor",
        "Mvals/s",
        Higher,
        WARM,
    ),
    timed(
        "gpu-sim.decode_wall_mvals_per_s.rfor",
        "Mvals/s",
        Higher,
        WARM,
    ),
    timed("gpu-sim.host_ns_per_value", "ns", Lower, WARM),
    timed("gpu-sim.par_speedup", "ratio", Higher, WARM),
    // gpu-sim: modelled V100, all exact
    exact(
        "gpu-sim.decode_model_gvals_per_s.for",
        "Gvals/s",
        Higher,
        MODEL,
    ),
    exact(
        "gpu-sim.decode_model_gvals_per_s.dfor",
        "Gvals/s",
        Higher,
        MODEL,
    ),
    exact(
        "gpu-sim.decode_model_gvals_per_s.rfor",
        "Gvals/s",
        Higher,
        MODEL,
    ),
    exact("gpu-sim.launches", "count", Lower, MODEL),
    exact("gpu-sim.global_bytes", "B", Lower, MODEL),
    exact("gpu-sim.encoded_tile_reads", "count", Lower, MODEL),
    exact("gpu-sim.decoded_writeback_bytes", "B", Lower, MODEL),
    exact(
        "gpu-sim.phase_model_share.global_load",
        "ratio",
        Lower,
        MODEL,
    ),
    exact(
        "gpu-sim.phase_model_share.shared_stage",
        "ratio",
        Lower,
        MODEL,
    ),
    exact("gpu-sim.phase_model_share.unpack", "ratio", Lower, MODEL),
    exact("gpu-sim.phase_model_share.expand", "ratio", Lower, MODEL),
    exact("gpu-sim.phase_model_share.predicate", "ratio", Lower, MODEL),
    exact("gpu-sim.phase_model_share.aggregate", "ratio", Lower, MODEL),
    exact("gpu-sim.phase_model_share.writeback", "ratio", Lower, MODEL),
    exact("gpu-sim.phase_model_share.other", "ratio", Lower, MODEL),
    // ssb
    timed(
        "ssb.gen.chunk_s",
        "s",
        Lower,
        "wall_mvals_per_s@ingest; setup_s",
    ),
    timed("ssb.queries.run_query_s.q1.1", "s", Lower, WARM),
    timed("ssb.queries.run_query_s.q2.1", "s", Lower, WARM),
    timed("ssb.queries.run_query_s.q3.1", "s", Lower, WARM),
    timed("ssb.queries.run_query_s.q4.3", "s", Lower, WARM),
    timed("ssb.stream.query_s.q1.1", "s", Lower, FLIGHTS),
    timed("ssb.stream.query_s.q2.1", "s", Lower, FLIGHTS),
    timed("ssb.stream.query_s.q3.1", "s", Lower, FLIGHTS),
    timed("ssb.stream.query_s.q4.3", "s", Lower, FLIGHTS),
    timed("ssb.stream.self_s", "s", Lower, FLIGHTS),
    timed(
        "ssb.stream.wave_s",
        "s",
        Lower,
        "wall_mvals_per_s@serve_mixed",
    ),
    exact(
        "ssb.stream.shared_decodes",
        "count",
        Higher,
        "model_ms_per_op@serve_mixed",
    ),
    exact(
        "ssb.stream.launches_saved",
        "count",
        Higher,
        "model_ms_per_op@serve_mixed",
    ),
    // serve
    exact("serve.submitted", "count", Higher, SERVE),
    exact("serve.admitted", "count", Higher, SERVE),
    exact("serve.rejected", "count", Lower, SERVE),
    exact("serve.completed", "count", Higher, SERVE),
    exact("serve.failed", "count", Lower, SERVE),
    exact("serve.retries", "count", Lower, SERVE),
    exact("serve.batched_queries", "count", Higher, SERVE),
    exact("serve.shared_decodes", "count", Higher, SERVE),
    exact("serve.launches_saved", "count", Higher, SERVE),
    timed("serve.round_wall_p50_ms", "ms", Lower, SERVE),
    timed("serve.request_wall_p90_ms", "ms", Lower, SERVE),
    timed("serve.solo_exec_s", "s", Lower, SERVE),
    timed("serve.overhead_ratio", "ratio", Lower, SERVE),
    timed("serve.window1_wall_ratio", "ratio", Lower, SERVE),
    exact("serve.window1_model_ratio", "ratio", Lower, SERVE),
    // the tracing itself
    timed(
        "trace_overhead_share",
        "ratio",
        Lower,
        "none: traced wall over untraced wall, minus 1",
    ),
];

/// Unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// True when `name` is declared exact (modelled or counted).
pub fn is_exact(name: &str) -> bool {
    END_TO_END.iter().any(|m| m.name == name && m.exact)
        || PER_LAYER.iter().any(|m| m.name == name && m.exact)
}

/// Values of one run, keyed by declared metric name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Set a declared metric. Panics on an undeclared name or a value
    /// JSON cannot hold: both are bugs in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let declared = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared in metrics.rs"));
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        self.0.insert(declared, value);
    }

    /// The value set for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Every end-to-end metric in declaration order. Panics when one is
    /// missing: every workload defines all of them.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        END_TO_END
            .iter()
            .map(|m| {
                let v = self
                    .get(m.name)
                    .unwrap_or_else(|| panic!("end-to-end metric `{}` was not measured", m.name));
                (m.name, v)
            })
            .collect()
    }

    /// Every per-layer metric in declaration order; 0 for a layer the
    /// workload never called.
    pub fn per_layer(&self) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|m| (m.name, self.get(m.name).unwrap_or(0.0)))
            .collect()
    }
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> String {
    let s = |v: &str| Json::Str(v.to_string());
    Json::Obj(vec![
        ("command", Json::Arr(vec![s("bash"), s("bench/run.sh")])),
        ("paths", Json::Arr(vec![s("bench")])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::Obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::Obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.name())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::Obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
}

/// The layer → end-to-end map as the markdown table `bench/README.md`
/// carries (`run.sh --map`).
pub fn layer_map() -> String {
    let mut out = String::from(
        "| per-layer metric | unit | better | exact | should move |\n|---|---|---|---|---|\n",
    );
    for m in &PER_LAYER {
        let exact = if m.exact { "yes" } else { "" };
        out.push_str(&format!(
            "| `{}` | {} | {} | {exact} | `{}` |\n",
            m.name,
            m.unit,
            m.better.name(),
            m.moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readme_carries_the_layer_map() {
        let readme = include_str!("../README.md");
        for line in layer_map().lines() {
            assert!(
                readme.contains(line),
                "README.md lacks: {line}\n(bench/run.sh --map)"
            );
        }
    }

    #[test]
    fn benchmark_json_is_rendered_from_these_tables() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with: bench/run.sh --manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for n in names {
            assert!(seen.insert(n), "{n} is declared twice");
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(PER_LAYER.len() <= 128 && manifest().len() <= 64 * 1024);
    }
}
