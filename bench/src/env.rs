//! What a row set must carry to be comparable with another, and the
//! scratch directory every store of a run lives under.

use std::path::{Path, PathBuf};

/// Host facts printed with every row set: throughput rows are only
/// comparable between runs whose facts match.
pub fn facts(seed: u64) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("sim_threads", tlc_gpu_sim::sim_threads().to_string()),
        ("cpu_features", tlc_bitpack::cpu_features()),
        ("simd_level", format!("{:?}", tlc_bitpack::simd_level())),
        ("seed", seed.to_string()),
        // run.sh asks git; the driver's checkout is not a repository.
        (
            "git_commit",
            std::env::var("TLC_BENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string()),
        ),
    ]
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A directory under `<out>/` that holds every store this process
/// ingests and is removed when the guard drops: on return, on error and
/// on a panic's unwind alike. `run.sh` removes it too if the process is
/// killed.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
    next: usize,
}

impl Scratch {
    /// Create `<out>/tmp-<pid>`.
    pub fn create(out: &Path) -> std::io::Result<Scratch> {
        let root = out.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root, next: 0 })
    }

    /// A path for a new store directory (not created).
    pub fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(format!("store-{}", self.next))
    }
}

/// Remove one store directory made by [`Scratch::fresh`], once nothing
/// reads it any more (the guard removes whatever is left at exit).
pub fn remove_store(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
