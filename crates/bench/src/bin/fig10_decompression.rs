//! Figure 10 — decompression performance on the SSB columns.
//!
//! * (a) one-on-one per cascade: GPU-FOR vs nvCOMP(FOR+BitPack),
//!   GPU-DFOR vs nvCOMP(Delta+FOR+BitPack), GPU-RFOR vs
//!   nvCOMP(RLE+FOR+BitPack), averaged over the SSB columns that
//!   GPU-* assigns to each scheme. Paper: 2.4× / 3.5× / 2×.
//! * (b) geomean decompression time across all SSB columns for
//!   Planner, GPU-BP, nvCOMP, GPU-*. Paper: GPU-* wins by 5.5× / 2× /
//!   2.2×.

use std::collections::HashMap;

use tlc_baselines::gpu_bp::{self, GpuBp};
use tlc_baselines::nvcomp::NvComp;
use tlc_bench::{geomean, ms, print_table, sim_sf, PAPER_SF};
use tlc_core::{EncodedColumn, Scheme};
use tlc_gpu_sim::Device;
use tlc_planner::PlannedColumn;
use tlc_ssb::{LoColumn, SsbData};

fn main() {
    let sf = sim_sf();
    let scale = PAPER_SF / sf;
    println!("Figure 10: SSB decompression (SF_sim = {sf}, scaled to SF {PAPER_SF})");
    let data = SsbData::generate(sf);
    let dev = Device::v100();

    let mut per_scheme: HashMap<Scheme, (Vec<f64>, Vec<f64>)> = HashMap::new();
    let mut sys_times: HashMap<&'static str, Vec<f64>> = HashMap::new();

    for col in LoColumn::ALL {
        let values = data.lineorder.column(col);

        let star = EncodedColumn::encode_best(values);
        let scheme = star.scheme();
        let star_dev = star.to_device(&dev);
        dev.reset_timeline();
        let _ = star_dev.decompress(&dev);
        let t_star = dev.elapsed_seconds_scaled(scale);

        let nv = NvComp::encode(values).to_device(&dev);
        dev.reset_timeline();
        nv.decompress(&dev).expect("clean device");
        let t_nv = dev.elapsed_seconds_scaled(scale);

        let bp = GpuBp::encode(values).to_device(&dev);
        dev.reset_timeline();
        gpu_bp::decompress(&dev, &bp).expect("clean device");
        let t_bp = dev.elapsed_seconds_scaled(scale);

        let pl = PlannedColumn::encode(values).to_device(&dev);
        dev.reset_timeline();
        pl.decompress(&dev).expect("clean device");
        let t_pl = dev.elapsed_seconds_scaled(scale);

        let entry = per_scheme.entry(scheme).or_default();
        entry.0.push(t_star);
        entry.1.push(t_nv);
        sys_times.entry("GPU-*").or_default().push(t_star);
        sys_times.entry("nvCOMP").or_default().push(t_nv);
        sys_times.entry("GPU-BP").or_default().push(t_bp);
        sys_times.entry("Planner").or_default().push(t_pl);
    }

    let mut rows_a = Vec::new();
    for (scheme, label) in [
        (Scheme::GpuRFor, "RLE+FOR+BP"),
        (Scheme::GpuDFor, "Delta+FOR+BP"),
        (Scheme::GpuFor, "FOR+BP"),
    ] {
        if let Some((star, nv)) = per_scheme.get(&scheme) {
            let s = geomean(star);
            let v = geomean(nv);
            rows_a.push(vec![
                label.to_string(),
                format!("{} cols", star.len()),
                ms(v),
                ms(s),
                format!("{:.2}x", v / s),
            ]);
        }
    }
    print_table(
        "Figure 10a: per-cascade decompression (model ms)",
        &["cascade", "columns", "nvCOMP", "GPU-*", "speedup"],
        &rows_a,
    );
    println!("paper: GPU-FOR 2.4x, GPU-DFOR 3.5x, GPU-RFOR 2x faster than nvCOMP");

    let star_gm = geomean(&sys_times["GPU-*"]);
    let mut rows_b = Vec::new();
    for name in ["Planner", "GPU-BP", "nvCOMP", "GPU-*"] {
        let gm = geomean(&sys_times[name]);
        rows_b.push(vec![
            name.to_string(),
            ms(gm),
            format!("{:.2}x", gm / star_gm),
        ]);
    }
    print_table(
        "Figure 10b: geomean decompression across SSB columns",
        &["system", "model ms", "vs GPU-*"],
        &rows_b,
    );
    println!("paper: GPU-* beats Planner 5.5x, GPU-BP 2x, nvCOMP 2.2x");
}
