//! # tlc-profile — kernel-phase profiler
//!
//! Turns a simulator [`Timeline`](tlc_gpu_sim::Timeline) into a
//! structured profile: per-kernel and per-phase time attribution,
//! achieved vs. modelled bandwidth, roofline utilization, and the
//! compression-specific derived metrics the paper's evaluation reasons
//! about (bytes per decoded value, shared-memory staging ratio, unpack
//! cost per miniblock).
//!
//! Everything is computed from the deterministic integer counters the
//! simulator records, so a profile is bit-identical for any
//! `TLC_SIM_THREADS` worker count — profiles can be diffed
//! file-against-file across commits like any other bench artifact.
//!
//! ## How time is attributed to phases
//!
//! The simulator's roofline model prices a kernel launch as
//! `launch + block_overhead + max(global, shared, compute)` (see
//! `tlc-gpu-sim`). A [`KernelReport`] records which leg dominated
//! (`bound_by`) and per-phase traffic spans. This crate recovers the
//! fixed overhead from the device parameters and splits the remaining
//! *variable* time across phases **proportionally to each phase's
//! contribution along the dominant leg** — e.g. for a global-bound
//! kernel, a phase that moved 60% of the global bytes is charged 60% of
//! the variable time. Phase seconds therefore always sum to the
//! kernel's variable time, even under degraded-bandwidth fault plans.
//!
//! ## Typical use
//!
//! ```
//! use tlc_gpu_sim::Device;
//! use tlc_profile::Profile;
//!
//! let dev = Device::v100();
//! let buf = dev.alloc_zeroed::<u32>(1 << 16);
//! dev.launch(tlc_gpu_sim::KernelConfig::new("scan", 16, 128), |ctx| {
//!     ctx.read_coalesced_with(&buf, 0, 4096, |_| ());
//! });
//! let profile = dev.with_timeline(|tl| Profile::from_reports(tl.events(), dev.params()));
//! println!("{}", profile.render_text());
//! let json = profile.to_json().render(); // schema tlc-profile/v1
//! # assert!(json.contains("tlc-profile/v1"));
//! ```

#![warn(missing_docs)]

pub mod json;
pub mod latency;

pub use json::{bench_dir, write_bench_json, Json};
pub use latency::{LatencyHistogram, LatencySummary};

use tlc_gpu_sim::{Counter, DeviceParams, KernelReport, Phase, PhaseSpans, Traffic};

/// JSON schema identifier emitted by [`Profile::to_json`]. Bump only
/// with a format change; tests pin the layout against this.
pub const SCHEMA: &str = "tlc-profile/v1";

/// Fixed per-launch overhead of `e` under `p`: kernel launch cost plus
/// per-block scheduling latency amortized over resident concurrency
/// (the same formula the simulator prices, reconstructed from the
/// report's occupancy).
fn overhead_seconds(e: &KernelReport, p: &DeviceParams) -> f64 {
    if e.threads_per_block == 0 {
        return 0.0; // PCIe transfer: no launch machinery.
    }
    let resident = (e.occupancy * p.max_threads_per_sm as f64 / e.threads_per_block as f64)
        .round()
        .max(1.0);
    let concurrency = p.num_sms as f64 * resident;
    p.kernel_launch_s + e.grid_blocks as f64 * p.block_latency_s / concurrency
}

/// `t`'s magnitude along the named roofline leg.
fn leg_value(t: &Traffic, bound_by: &str) -> f64 {
    match bound_by {
        "global" => t.global_bytes() as f64,
        "shared" => t.shared_bytes as f64,
        "compute" => t.int_ops as f64,
        _ => 0.0,
    }
}

/// `a / b`, or 0 when `b` is 0 — profile ratios over empty runs render
/// as zeros instead of poisoning the JSON with NaN.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Aggregated profile of one kernel name across all its launches.
#[derive(Debug, Clone)]
pub struct KernelProfile {
    /// Kernel name as launched.
    pub name: String,
    /// Number of launches aggregated.
    pub launches: usize,
    /// Total thread blocks across launches.
    pub grid_blocks: usize,
    /// Threads per block (first launch).
    pub threads_per_block: usize,
    /// Achieved occupancy (first launch).
    pub occupancy: f64,
    /// Total simulated seconds across launches.
    pub seconds: f64,
    /// Portion of [`KernelProfile::seconds`] that is fixed launch +
    /// block-scheduling overhead (not attributable to any phase).
    pub overhead_seconds: f64,
    /// The roofline leg that dominated the most time.
    pub bound_by: &'static str,
    /// Merged per-phase traffic spans and semantic counters.
    pub spans: PhaseSpans,
    /// The parts of this kernel's multi-part launches, merged by part
    /// name in first-launch order. Empty for a kernel only ever
    /// launched as one part: the kernel is the part.
    pub parts: Vec<PartProfile>,
    phase_seconds: [f64; Phase::COUNT],
}

/// One part name's contribution to a kernel of multi-part launches
/// (`tlc_gpu_sim::Device::try_launch_parts`).
#[derive(Debug, Clone)]
pub struct PartProfile {
    /// The part's kernel name.
    pub name: String,
    /// Parts of this name merged (a launch may hold several).
    pub count: usize,
    /// Total thread blocks of those parts.
    pub grid_blocks: usize,
    /// Their shares of their launches' seconds: a part pays
    /// `T × sᵢ / Σs` of its launch's `T`
    /// ([`tlc_gpu_sim::KernelReport::share`]).
    pub seconds: f64,
    /// What the same parts cost launched alone, launch overhead
    /// included (`sᵢ` summed).
    pub solo_seconds: f64,
    /// Their merged per-phase spans and counters.
    pub spans: PhaseSpans,
}

impl KernelProfile {
    /// Seconds attributed to `phase` (see the crate docs for the
    /// attribution rule). Sums over all phases to
    /// `seconds - overhead_seconds`.
    pub fn phase_seconds(&self, phase: Phase) -> f64 {
        self.phase_seconds[phase.index()]
    }

    /// Total traffic (sum over phases).
    pub fn traffic(&self) -> Traffic {
        self.spans.total()
    }

    /// Achieved global-memory bandwidth in bytes/second.
    pub fn achieved_global_bw(&self) -> f64 {
        ratio(self.traffic().global_bytes() as f64, self.seconds)
    }

    /// Achieved bandwidth as a fraction of the device's modelled peak.
    pub fn roofline_utilization(&self, params_global_bw: f64) -> f64 {
        ratio(self.achieved_global_bw(), params_global_bw)
    }
}

/// A full profile of a timeline: kernels, PCIe transfers, and derived
/// whole-run metrics.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Device name the timeline ran on.
    pub device: String,
    /// Modelled peak global bandwidth (bytes/second) of that device.
    pub modelled_global_bw: f64,
    /// Per-kernel profiles, in first-launch order (PCIe excluded).
    pub kernels: Vec<KernelProfile>,
    /// Number of PCIe transfer events.
    pub pcie_transfers: usize,
    /// Total seconds spent in PCIe transfers.
    pub pcie_seconds: f64,
    /// Spans and counters summed over every kernel.
    pub spans: PhaseSpans,
    /// Total simulated seconds (kernels + transfers).
    pub total_seconds: f64,
}

impl Profile {
    /// Build a profile from timeline events (see
    /// [`Timeline::events`](tlc_gpu_sim::Timeline::events)) and the
    /// parameters of the device that produced them.
    pub fn from_reports(events: &[KernelReport], params: &DeviceParams) -> Profile {
        struct Acc {
            profile: KernelProfile,
            bounds: Vec<(&'static str, f64)>,
        }
        let mut order: Vec<String> = Vec::new();
        let mut accs: std::collections::HashMap<String, Acc> = std::collections::HashMap::new();
        let mut pcie_transfers = 0usize;
        let mut pcie_seconds = 0.0f64;
        let mut total_seconds = 0.0f64;

        for e in events {
            total_seconds += e.seconds;
            if e.name == "pcie" {
                pcie_transfers += 1;
                pcie_seconds += e.seconds;
                continue;
            }
            let acc = accs.entry(e.name.clone()).or_insert_with(|| {
                order.push(e.name.clone());
                Acc {
                    profile: KernelProfile {
                        name: e.name.clone(),
                        launches: 0,
                        grid_blocks: 0,
                        threads_per_block: e.threads_per_block,
                        occupancy: e.occupancy,
                        seconds: 0.0,
                        overhead_seconds: 0.0,
                        bound_by: e.bound_by,
                        spans: PhaseSpans::default(),
                        parts: Vec::new(),
                        phase_seconds: [0.0; Phase::COUNT],
                    },
                    bounds: Vec::new(),
                }
            });
            let k = &mut acc.profile;
            k.launches += 1;
            k.grid_blocks += e.grid_blocks;
            k.seconds += e.seconds;
            k.spans = k.spans.merge(&e.spans);
            let overhead = overhead_seconds(e, params).min(e.seconds);
            k.overhead_seconds += overhead;
            // Split this launch's variable time across phases along its
            // dominant leg.
            let variable = e.seconds - overhead;
            let total_leg = leg_value(&e.traffic, e.bound_by);
            if total_leg > 0.0 {
                for p in Phase::ALL {
                    let share = leg_value(e.spans.phase(p), e.bound_by) / total_leg;
                    k.phase_seconds[p.index()] += variable * share;
                }
            }
            if e.parts.len() > 1 {
                for (i, part) in e.parts.iter().enumerate() {
                    let at = k.parts.iter().position(|p| p.name == part.name);
                    let at = at.unwrap_or_else(|| {
                        k.parts.push(PartProfile {
                            name: part.name.clone(),
                            count: 0,
                            grid_blocks: 0,
                            seconds: 0.0,
                            solo_seconds: 0.0,
                            spans: PhaseSpans::default(),
                        });
                        k.parts.len() - 1
                    });
                    let p = &mut k.parts[at];
                    p.count += 1;
                    p.grid_blocks += part.grid_blocks;
                    p.seconds += e.seconds * e.share(i..i + 1);
                    p.solo_seconds += part.solo_seconds;
                    p.spans = p.spans.merge(&part.spans);
                }
            }
            match acc.bounds.iter_mut().find(|(b, _)| *b == e.bound_by) {
                Some((_, s)) => *s += e.seconds,
                None => acc.bounds.push((e.bound_by, e.seconds)),
            }
        }

        let mut spans = PhaseSpans::default();
        let kernels: Vec<KernelProfile> = order
            .into_iter()
            .map(|name| {
                let acc = accs.remove(&name).expect("accumulated above");
                let mut k = acc.profile;
                // Report the leg that dominated the most launch time;
                // ties go to the first leg seen (deterministic).
                let mut best = (k.bound_by, f64::NEG_INFINITY);
                for (b, s) in acc.bounds {
                    if s > best.1 {
                        best = (b, s);
                    }
                }
                k.bound_by = best.0;
                spans = spans.merge(&k.spans);
                k
            })
            .collect();

        Profile {
            device: params.name.to_string(),
            modelled_global_bw: params.global_bw,
            kernels,
            pcie_transfers,
            pcie_seconds,
            spans,
            total_seconds,
        }
    }

    /// Total seconds spent in kernels (excludes PCIe).
    pub fn kernel_seconds(&self) -> f64 {
        self.total_seconds - self.pcie_seconds
    }

    /// Total traffic over every kernel.
    pub fn traffic(&self) -> Traffic {
        self.spans.total()
    }

    /// Achieved global-memory bandwidth across all kernel time, in
    /// bytes/second.
    pub fn achieved_global_bw(&self) -> f64 {
        ratio(self.traffic().global_bytes() as f64, self.kernel_seconds())
    }

    /// Achieved bandwidth over modelled peak, in [0, 1].
    pub fn roofline_utilization(&self) -> f64 {
        ratio(self.achieved_global_bw(), self.modelled_global_bw)
    }

    /// Shared-memory bytes moved per global byte — how hard the staging
    /// layer works relative to the wire.
    pub fn staging_ratio(&self) -> f64 {
        let t = self.traffic();
        ratio(t.shared_bytes as f64, t.global_bytes() as f64)
    }

    /// Global bytes per decoded value — the on-the-wire cost of the
    /// compression cascade (4.0 would be uncompressed i32).
    pub fn bytes_per_value(&self) -> f64 {
        ratio(
            self.traffic().global_bytes() as f64,
            self.spans.counter(Counter::ValuesProduced) as f64,
        )
    }

    /// Integer ops in the unpack phase per miniblock unpacked.
    pub fn unpack_ops_per_miniblock(&self) -> f64 {
        ratio(
            self.spans.phase(Phase::Unpack).int_ops as f64,
            self.spans.counter(Counter::MiniblocksUnpacked) as f64,
        )
    }

    /// Serialize to the stable `tlc-profile/v1` JSON layout.
    pub fn to_json(&self) -> Json {
        let counters = Json::Obj(
            Counter::ALL
                .iter()
                .map(|&c| (c.name(), Json::Int(self.spans.counter(c))))
                .collect(),
        );
        let kernels = Json::Arr(
            self.kernels
                .iter()
                .map(|k| {
                    let t = k.traffic();
                    let phases = Json::Arr(
                        k.spans
                            .active_phases()
                            .map(|(p, pt)| {
                                Json::Obj(vec![
                                    ("phase", Json::Str(p.name().to_string())),
                                    ("seconds", Json::Num(k.phase_seconds(p))),
                                    ("global_bytes", Json::Int(pt.global_bytes())),
                                    ("shared_bytes", Json::Int(pt.shared_bytes)),
                                    ("int_ops", Json::Int(pt.int_ops)),
                                ])
                            })
                            .collect(),
                    );
                    let mut fields = vec![
                        ("name", Json::Str(k.name.clone())),
                        ("launches", Json::Int(k.launches as u64)),
                        ("grid_blocks", Json::Int(k.grid_blocks as u64)),
                        ("threads_per_block", Json::Int(k.threads_per_block as u64)),
                        ("occupancy", Json::Num(k.occupancy)),
                        ("bound_by", Json::Str(k.bound_by.to_string())),
                        ("seconds", Json::Num(k.seconds)),
                        ("overhead_seconds", Json::Num(k.overhead_seconds)),
                        ("achieved_global_bw", Json::Num(k.achieved_global_bw())),
                        (
                            "roofline_utilization",
                            Json::Num(k.roofline_utilization(self.modelled_global_bw)),
                        ),
                        ("global_bytes", Json::Int(t.global_bytes())),
                        ("shared_bytes", Json::Int(t.shared_bytes)),
                        ("int_ops", Json::Int(t.int_ops)),
                        ("phases", phases),
                    ];
                    // Additive: only kernels launched as several parts
                    // carry the field.
                    if !k.parts.is_empty() {
                        let part = |p: &PartProfile| {
                            let t = p.spans.total();
                            Json::Obj(vec![
                                ("name", Json::Str(p.name.clone())),
                                ("count", Json::Int(p.count as u64)),
                                ("grid_blocks", Json::Int(p.grid_blocks as u64)),
                                ("seconds", Json::Num(p.seconds)),
                                ("solo_seconds", Json::Num(p.solo_seconds)),
                                ("global_bytes", Json::Int(t.global_bytes())),
                                ("shared_bytes", Json::Int(t.shared_bytes)),
                                ("int_ops", Json::Int(t.int_ops)),
                            ])
                        };
                        fields.push(("parts", Json::Arr(k.parts.iter().map(part).collect())));
                    }
                    Json::Obj(fields)
                })
                .collect(),
        );
        Json::Obj(vec![
            ("schema", Json::Str(SCHEMA.to_string())),
            ("device", Json::Str(self.device.clone())),
            ("modelled_global_bw", Json::Num(self.modelled_global_bw)),
            ("total_seconds", Json::Num(self.total_seconds)),
            ("kernel_seconds", Json::Num(self.kernel_seconds())),
            ("pcie_seconds", Json::Num(self.pcie_seconds)),
            ("pcie_transfers", Json::Int(self.pcie_transfers as u64)),
            ("achieved_global_bw", Json::Num(self.achieved_global_bw())),
            (
                "roofline_utilization",
                Json::Num(self.roofline_utilization()),
            ),
            ("staging_ratio", Json::Num(self.staging_ratio())),
            ("bytes_per_value", Json::Num(self.bytes_per_value())),
            (
                "unpack_ops_per_miniblock",
                Json::Num(self.unpack_ops_per_miniblock()),
            ),
            ("counters", counters),
            ("kernels", kernels),
        ])
    }

    /// Human-readable phase table (the `tlc profile` text output).
    pub fn render_text(&self) -> String {
        let ms = |s: f64| format!("{:.4}", s * 1e3);
        let gbs = |bw: f64| format!("{:.1}", bw / 1e9);
        let pct = |f: f64| format!("{:.1}%", f * 100.0);
        let mut out = String::new();
        out.push_str(&format!(
            "profile: {}  ({} kernel launches, {} pcie transfers)\n",
            self.device,
            self.kernels.iter().map(|k| k.launches).sum::<usize>(),
            self.pcie_transfers,
        ));
        out.push_str(&format!(
            "total {} ms  |  kernels {} ms  |  pcie {} ms\n",
            ms(self.total_seconds),
            ms(self.kernel_seconds()),
            ms(self.pcie_seconds),
        ));
        out.push_str(&format!(
            "achieved {} GB/s  |  roofline {}  |  staging x{:.2}  |  {:.2} B/value  |  {:.1} ops/miniblock\n",
            gbs(self.achieved_global_bw()),
            pct(self.roofline_utilization()),
            self.staging_ratio(),
            self.bytes_per_value(),
            self.unpack_ops_per_miniblock(),
        ));
        out.push_str("counters:");
        for c in Counter::ALL {
            out.push_str(&format!("  {}={}", c.name(), self.spans.counter(c)));
        }
        out.push('\n');
        for k in &self.kernels {
            let t = k.traffic();
            out.push_str(&format!(
                "\nkernel {}  x{}  occ {}  bound {}  {} ms (overhead {} ms)  {} GB/s  roofline {}\n",
                k.name,
                k.launches,
                pct(k.occupancy),
                k.bound_by,
                ms(k.seconds),
                ms(k.overhead_seconds),
                gbs(k.achieved_global_bw()),
                pct(k.roofline_utilization(self.modelled_global_bw)),
            ));
            let variable = (k.seconds - k.overhead_seconds).max(0.0);
            out.push_str(&format!(
                "  {:<14} {:>10} {:>7} {:>14} {:>14} {:>12}\n",
                "phase", "ms", "time%", "global-bytes", "shared-bytes", "int-ops"
            ));
            for (p, pt) in k.spans.active_phases() {
                out.push_str(&format!(
                    "  {:<14} {:>10} {:>7} {:>14} {:>14} {:>12}\n",
                    p.name(),
                    ms(k.phase_seconds(p)),
                    pct(ratio(k.phase_seconds(p), variable)),
                    pt.global_bytes(),
                    pt.shared_bytes,
                    pt.int_ops,
                ));
            }
            if t == Traffic::default() {
                out.push_str("  (no traffic recorded)\n");
            }
            for p in &k.parts {
                out.push_str(&format!(
                    "  part {:<20} x{:<4} {:>10} ms ({} ms alone)  {:>14} global-bytes\n",
                    p.name,
                    p.count,
                    ms(p.seconds),
                    ms(p.solo_seconds),
                    p.spans.total().global_bytes(),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlc_gpu_sim::{Device, KernelConfig};

    fn sample_profile() -> Profile {
        let dev = Device::v100();
        let buf = dev.alloc_zeroed::<u32>(1 << 18);
        dev.reset_timeline();
        dev.launch(KernelConfig::new("scan", 32, 128), |ctx| {
            ctx.set_phase(Phase::GlobalLoad);
            ctx.read_coalesced_with(&buf, ctx.block_id() * 8192, 8192, |_| ());
            ctx.set_phase(Phase::Unpack);
            ctx.add_int_ops(100);
            ctx.bump(Counter::MiniblocksUnpacked, 4);
            ctx.bump(Counter::ValuesProduced, 8192);
        });
        dev.pcie_transfer(1 << 20);
        dev.with_timeline(|tl| Profile::from_reports(tl.events(), dev.params()))
    }

    #[test]
    fn phase_seconds_sum_to_variable_time() {
        let p = sample_profile();
        assert_eq!(p.kernels.len(), 1);
        let k = &p.kernels[0];
        assert_eq!(k.launches, 1);
        assert_eq!(k.bound_by, "global");
        let phase_sum: f64 = Phase::ALL.iter().map(|&ph| k.phase_seconds(ph)).sum();
        let variable = k.seconds - k.overhead_seconds;
        assert!(
            (phase_sum - variable).abs() < 1e-12 * variable.max(1.0),
            "phases {phase_sum} vs variable {variable}"
        );
        // Global-bound kernel whose only global traffic is GlobalLoad:
        // all variable time lands there.
        assert!((k.phase_seconds(Phase::GlobalLoad) - variable).abs() < 1e-15);
        assert_eq!(k.phase_seconds(Phase::Unpack), 0.0);
    }

    #[test]
    fn derived_metrics_are_sane() {
        let p = sample_profile();
        assert!(p.roofline_utilization() > 0.0 && p.roofline_utilization() <= 1.0);
        assert!(p.achieved_global_bw() > 0.0);
        assert_eq!(p.pcie_transfers, 1);
        assert!(p.pcie_seconds > 0.0);
        // 32 blocks x 8192 u32 = 1 MiB read; 8192 values per block.
        assert_eq!(p.spans.counter(Counter::ValuesProduced), 32 * 8192);
        assert!((p.bytes_per_value() - 4.0).abs() < 0.5);
        assert_eq!(p.unpack_ops_per_miniblock(), 100.0 / 4.0);
    }

    #[test]
    fn json_schema_is_pinned() {
        let p = sample_profile();
        let rendered = p.to_json().render();
        // Top-level layout: key order is part of the format.
        let top_keys: Vec<&str> = rendered
            .lines()
            .filter(|l| l.starts_with("  \""))
            .map(|l| l.trim().split('"').nth(1).expect("quoted key"))
            .collect();
        assert_eq!(
            top_keys,
            vec![
                "schema",
                "device",
                "modelled_global_bw",
                "total_seconds",
                "kernel_seconds",
                "pcie_seconds",
                "pcie_transfers",
                "achieved_global_bw",
                "roofline_utilization",
                "staging_ratio",
                "bytes_per_value",
                "unpack_ops_per_miniblock",
                "counters",
                "kernels",
            ]
        );
        assert!(rendered.starts_with("{\n  \"schema\": \"tlc-profile/v1\""));
        for c in Counter::ALL {
            assert!(rendered.contains(c.name()), "missing counter {}", c.name());
        }
        for key in [
            "\"name\": \"scan\"",
            "\"bound_by\": \"global\"",
            "\"phases\": [",
            "\"phase\": \"global_load\"",
            "\"phase\": \"unpack\"",
        ] {
            assert!(rendered.contains(key), "missing {key} in:\n{rendered}");
        }
    }

    #[test]
    fn text_report_mentions_phases_and_counters() {
        let p = sample_profile();
        let text = p.render_text();
        assert!(text.contains("profile: V100-sim"));
        assert!(text.contains("kernel scan"));
        assert!(text.contains("global_load"));
        assert!(text.contains("values_produced=262144"));
        assert!(text.contains("roofline"));
    }

    #[test]
    fn multi_part_launches_profile_their_parts() {
        use tlc_gpu_sim::LaunchPart;
        let dev = Device::v100();
        let buf = dev.alloc_zeroed::<u32>(1 << 16);
        let reader = |name: &str, grid: usize| {
            let buf = &buf;
            LaunchPart::new(
                KernelConfig::new(name, grid, 128),
                || (),
                move |(), ctx| ctx.read_coalesced_with(buf, ctx.block_id() * 512, 512, |_| ()),
                |_, _, ()| {},
            )
        };
        dev.reset_timeline();
        for _ in 0..2 {
            let parts = vec![reader("a", 8), reader("b", 24), reader("a", 8)];
            dev.try_launch_parts("wave", parts).expect("no faults");
        }
        dev.try_launch_parts("", vec![reader("a", 8)])
            .expect("no faults");
        let p = dev.with_timeline(|tl| Profile::from_reports(tl.events(), dev.params()));
        let (wave, alone) = (&p.kernels[0], &p.kernels[1]);
        assert_eq!((wave.name.as_str(), wave.launches), ("wave", 2));
        // Parts merge by name: four `a` parts and two `b` parts.
        let got: Vec<(&str, usize, usize)> = wave
            .parts
            .iter()
            .map(|p| (p.name.as_str(), p.count, p.grid_blocks))
            .collect();
        assert_eq!(got, [("a", 4, 32), ("b", 2, 48)]);
        let shares: f64 = wave.parts.iter().map(|p| p.seconds).sum();
        assert!((shares - wave.seconds).abs() < 1e-12 * wave.seconds);
        assert!(wave.parts.iter().all(|p| p.seconds < p.solo_seconds));
        let merged = wave.parts[0].spans.merge(&wave.parts[1].spans);
        assert_eq!(merged, wave.spans);
        // A kernel of one part is the part: the field stays out.
        assert_eq!((alone.name.as_str(), alone.parts.len()), ("a", 0));
        let rendered = p.to_json().render();
        assert_eq!(rendered.matches("\"parts\": [").count(), 1, "{rendered}");
        assert!(rendered.contains("\"solo_seconds\""));
        assert!(p.render_text().contains("part b"));
    }

    #[test]
    fn empty_timeline_profiles_to_zeros() {
        let p = Profile::from_reports(&[], &DeviceParams::v100());
        assert_eq!(p.kernels.len(), 0);
        assert_eq!(p.total_seconds, 0.0);
        assert_eq!(p.roofline_utilization(), 0.0);
        assert_eq!(p.bytes_per_value(), 0.0);
        // Still renders valid JSON (no NaN panics).
        let rendered = p.to_json().render();
        assert!(rendered.contains("\"kernels\": []"));
    }
}
