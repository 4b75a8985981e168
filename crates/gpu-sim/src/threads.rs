//! Host-side worker-thread plumbing shared by every parallel subsystem
//! in the workspace.
//!
//! One knob, `TLC_SIM_THREADS`, sets the simulator execution workers:
//! thread blocks of a kernel launch, fleet shards, streamed partitions
//! and fuzz seed campaigns. Whatever the work, it is split by
//! [`partitions`] and fanned out by [`map_ranges`], the one scoped
//! fan-out in the workspace.
//!
//! [`sim_threads`] resolves the knob: a process-global override
//! ([`set_sim_threads_override`]) if set, so tests and benches can pin
//! the worker count without the data race that `std::env::set_var`
//! would cause under the multi-threaded test runner; else the
//! environment variable if it parses to a positive integer; else
//! [`std::thread::available_parallelism`].
//!
//! Determinism contract: the simulator's analytic outputs (traffic,
//! modelled time, occupancy, fault statistics) are **bit-identical** for
//! every worker count, including 1. Worker counts change wall-clock time
//! only. See `DESIGN.md` §11.

use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// 0 = no override (consult the environment).
static SIM_THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Pin the simulator worker count for this process, overriding
/// `TLC_SIM_THREADS`. `None` restores environment resolution. Intended
/// for tests and benches; racing `std::env::set_var` against a
/// multi-threaded test runner is UB-adjacent, an atomic is not.
pub fn set_sim_threads_override(threads: Option<usize>) {
    SIM_THREADS_OVERRIDE.store(threads.unwrap_or(0), Ordering::SeqCst);
}

/// Number of simulator execution workers: the process-global override if
/// set, else `TLC_SIM_THREADS` if it parses to a positive integer, else
/// available parallelism. Always at least 1.
pub fn sim_threads() -> usize {
    match SIM_THREADS_OVERRIDE.load(Ordering::SeqCst) {
        0 => std::env::var("TLC_SIM_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1)
            })
            .max(1),
        n => n,
    }
}

/// Split `n` work items into at most `threads` contiguous, equal-sized
/// ranges (the last may be shorter). Ranges are returned in order,
/// cover `[0, n)` exactly, and never overlap — so a fold over them in
/// index order visits every item in the same order a serial loop would.
pub fn partitions(n: usize, threads: usize) -> Vec<(usize, usize)> {
    if n == 0 {
        return vec![];
    }
    let per_thread = n.div_ceil(threads.max(1));
    let mut out = Vec::new();
    let mut lo = 0;
    while lo < n {
        let hi = (lo + per_thread).min(n);
        out.push((lo, hi));
        lo = hi;
    }
    out
}

/// Map `f` over `ranges` (as [`partitions`] returns them; `f` also gets
/// the range's position) and return the results **in range order**: a
/// single range runs on the calling thread, several run on one scoped
/// thread each. The ranges share no state, and a caller that folds the
/// ordered results serially visits every item in the order a serial
/// loop would — the workspace's one fan-out, whatever the work is. A
/// worker's panic resumes on the caller.
pub fn map_ranges<T: Send>(
    ranges: &[(usize, usize)],
    f: impl Fn(usize, std::ops::Range<usize>) -> T + Sync,
) -> Vec<T> {
    let f = &f;
    let indexed = ranges.iter().enumerate();
    if ranges.len() <= 1 {
        return indexed.map(|(i, &(lo, hi))| f(i, lo..hi)).collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = indexed
            .map(|(i, &(lo, hi))| scope.spawn(move || f(i, lo..hi)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| resume_unwind(panic)))
            .collect()
    })
}

/// Serializes unit tests that touch the process-global override (the
/// test runner is itself multi-threaded).
#[cfg(test)]
pub(crate) static TEST_OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_empty_input() {
        assert!(partitions(0, 4).is_empty());
        assert!(partitions(0, 1).is_empty());
    }

    #[test]
    fn partitions_more_threads_than_chunks() {
        // 3 items, 16 threads: one item per partition, never an empty
        // range.
        let parts = partitions(3, 16);
        assert_eq!(parts, vec![(0, 1), (1, 2), (2, 3)]);
        for &(lo, hi) in &parts {
            assert!(lo < hi);
        }
    }

    #[test]
    fn partitions_cover_in_order() {
        for (n, threads) in [(10_000, 4), (8191, 3), (512, 2), (7, 9), (10, 0)] {
            let parts = partitions(n, threads);
            assert_eq!(parts.first().expect("non-empty").0, 0);
            assert_eq!(parts.last().expect("non-empty").1, n);
            for w in parts.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous");
            }
            assert!(parts.len() <= threads.max(1), "n={n} threads={threads}");
        }
    }

    #[test]
    fn map_ranges_returns_results_in_range_order() {
        for threads in [1, 3, 16] {
            let parts = partitions(10, threads);
            let got = map_ranges(&parts, |i, r| (i, r.collect::<Vec<_>>()));
            let positions: Vec<usize> = got.iter().map(|(i, _)| *i).collect();
            assert_eq!(positions, (0..parts.len()).collect::<Vec<_>>());
            let items: Vec<usize> = got.into_iter().flat_map(|(_, r)| r).collect();
            assert_eq!(items, (0..10).collect::<Vec<_>>(), "threads = {threads}");
        }
        assert!(map_ranges(&[], |_, _| ()).is_empty());
    }

    #[test]
    fn sim_threads_override_wins() {
        let _guard = TEST_OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_sim_threads_override(Some(3));
        assert_eq!(sim_threads(), 3);
        set_sim_threads_override(None);
        assert!(sim_threads() >= 1);
    }
}
