//! Multi-threaded encoding.
//!
//! Compression is a host-side, one-time activity in the paper's
//! workflow (Section 8 measures it on a 6-core CPU). All three formats
//! partition the input at block/tile boundaries with no cross-partition
//! state, so encoding parallelizes embarrassingly: encode chunks on
//! `std::thread::scope` workers, then splice the outputs, rebasing each
//! chunk's `block_starts` by the words that precede it.

use tlc_gpu_sim::threads::{map_ranges, partitions, threads_from_env};

use crate::format::{Layout, BLOCK, DEFAULT_D, RFOR_BLOCK};
use crate::gpu_dfor::GpuDFor;
use crate::gpu_for::{auto_layout, chunk_plan, BlockPlan, GpuFor};
use crate::gpu_rfor::GpuRFor;
use crate::{EncodedColumn, Scheme};

/// Number of encoder threads: `TLC_ENCODE_THREADS` or available
/// parallelism (the paper's box had 6 cores). Shares its resolver (and
/// the aligned range splitter) with the simulator's `TLC_SIM_THREADS`
/// — see [`tlc_gpu_sim::threads`].
pub fn encoder_threads() -> usize {
    threads_from_env("TLC_ENCODE_THREADS")
}

fn map_chunks<E: Send>(
    values: &[i32],
    align: usize,
    threads: usize,
    encode: impl Fn(usize, &[i32]) -> E + Sync,
) -> Vec<E> {
    let parts = partitions(values.len(), align, threads);
    map_ranges(&parts, |i, r| encode(i, &values[r]))
}

impl GpuFor {
    /// Encode on multiple threads; bit-identical to
    /// [`GpuFor::encode_auto`]. Runs as two chunked passes: plan every
    /// block, decide the column-global layout from all plans (the
    /// layout is a whole-column property, so no chunk may choose it
    /// alone), then pack each chunk with that layout and its stored
    /// plans.
    pub fn encode_parallel(values: &[i32], threads: usize) -> Self {
        if partitions(values.len(), BLOCK, threads).len() <= 1 {
            // One chunk: the fused serial encoder produces the same
            // bytes without the plan-store/pack/splice round trips.
            return Self::encode_auto(values);
        }
        let chunk_plans: Vec<Vec<BlockPlan>> = map_chunks(values, BLOCK, threads, |_, chunk| {
            chunk.chunks(BLOCK).map(chunk_plan).collect()
        });
        let layout = auto_layout(chunk_plans.iter().flatten().copied());
        let chunks = map_chunks(values, BLOCK, threads, |i, chunk| {
            GpuFor::encode_planned(chunk, &chunk_plans[i], layout)
        });
        let mut merged = GpuFor {
            total_count: values.len(),
            block_starts: vec![],
            data: vec![],
            layout,
        };
        for c in chunks {
            let base = merged.data.len() as u32;
            merged.block_starts.extend(
                c.block_starts[..c.block_starts.len() - 1]
                    .iter()
                    .map(|s| s + base),
            );
            merged.data.extend_from_slice(&c.data);
        }
        merged.block_starts.push(merged.data.len() as u32);
        merged
    }
}

impl GpuDFor {
    /// Encode on multiple threads; bit-identical to
    /// [`GpuDFor::encode_auto`] (partitions align to tile boundaries,
    /// the delta scope, so chunk-local plans equal the global ones).
    /// Same two-pass plan-then-pack structure as [`GpuFor`].
    pub fn encode_parallel(values: &[i32], threads: usize) -> Self {
        let d = DEFAULT_D;
        if partitions(values.len(), d * BLOCK, threads).len() <= 1 {
            return Self::encode_auto(values);
        }
        let chunk_plans: Vec<Vec<BlockPlan>> =
            map_chunks(values, d * BLOCK, threads, |_, chunk| {
                GpuDFor::plan_blocks(chunk, d)
            });
        let layout = auto_layout(chunk_plans.iter().flatten().copied());
        let chunks = map_chunks(values, d * BLOCK, threads, |i, chunk| {
            GpuDFor::encode_planned(chunk, d, layout, Some(&chunk_plans[i]))
        });
        let mut merged = GpuDFor {
            total_count: values.len(),
            d,
            block_starts: vec![],
            data: vec![],
            layout,
        };
        for c in chunks {
            let base = merged.data.len() as u32;
            merged.block_starts.extend(
                c.block_starts[..c.block_starts.len() - 1]
                    .iter()
                    .map(|s| s + base),
            );
            merged.data.extend_from_slice(&c.data);
        }
        merged.block_starts.push(merged.data.len() as u32);
        merged
    }
}

impl GpuRFor {
    /// Encode on multiple threads; bit-identical to [`GpuRFor::encode`]
    /// (partitions align to the 512-value RLE blocks, which runs never
    /// cross).
    pub fn encode_parallel(values: &[i32], threads: usize) -> Self {
        if partitions(values.len(), RFOR_BLOCK, threads).len() <= 1 {
            return Self::encode(values);
        }
        let chunks = map_chunks(values, RFOR_BLOCK, threads, |_, c| GpuRFor::encode(c));
        let mut merged = GpuRFor {
            total_count: values.len(),
            values_starts: vec![],
            values_data: vec![],
            lengths_starts: vec![],
            lengths_data: vec![],
            layout: Layout::Horizontal,
        };
        for c in chunks {
            let vbase = merged.values_data.len() as u32;
            let lbase = merged.lengths_data.len() as u32;
            merged.values_starts.extend(
                c.values_starts[..c.values_starts.len() - 1]
                    .iter()
                    .map(|s| s + vbase),
            );
            merged.lengths_starts.extend(
                c.lengths_starts[..c.lengths_starts.len() - 1]
                    .iter()
                    .map(|s| s + lbase),
            );
            merged.values_data.extend_from_slice(&c.values_data);
            merged.lengths_data.extend_from_slice(&c.lengths_data);
        }
        merged.values_starts.push(merged.values_data.len() as u32);
        merged.lengths_starts.push(merged.lengths_data.len() as u32);
        merged
    }
}

impl EncodedColumn {
    /// Parallel variant of [`EncodedColumn::encode_as`].
    pub fn encode_as_parallel(values: &[i32], scheme: Scheme, threads: usize) -> Self {
        match scheme {
            Scheme::GpuFor => EncodedColumn::For(GpuFor::encode_parallel(values, threads)),
            Scheme::GpuDFor => EncodedColumn::DFor(GpuDFor::encode_parallel(values, threads)),
            Scheme::GpuRFor => EncodedColumn::RFor(GpuRFor::encode_parallel(values, threads)),
        }
    }

    /// Parallel variant of [`EncodedColumn::encode_best`]: the three
    /// candidate encodings run concurrently, each itself chunked.
    pub fn encode_best_parallel(values: &[i32], threads: usize) -> Self {
        let per_scheme = (threads / 3).max(1);
        std::thread::scope(|scope| {
            let handles: Vec<_> = Scheme::ALL
                .iter()
                .map(|&s| scope.spawn(move || Self::encode_as_parallel(values, s, per_scheme)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("encoder thread panicked"))
                .min_by_key(EncodedColumn::compressed_bytes)
                .expect("three candidates")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn datasets() -> Vec<Vec<i32>> {
        vec![
            vec![],
            vec![9],
            (0..10_000).collect(),
            (0..10_000).map(|i| i / 33).collect(),
            (0..9_999).map(|i| (i * 37) % 512 - 100).collect(), // non-aligned length
        ]
    }

    #[test]
    fn parallel_for_is_bit_identical() {
        for values in datasets() {
            for threads in [1, 2, 3, 8] {
                assert_eq!(
                    GpuFor::encode_parallel(&values, threads),
                    GpuFor::encode_auto(&values),
                    "threads = {threads}, n = {}",
                    values.len()
                );
            }
        }
    }

    #[test]
    fn parallel_dfor_is_bit_identical() {
        for values in datasets() {
            for threads in [2, 5] {
                assert_eq!(
                    GpuDFor::encode_parallel(&values, threads),
                    GpuDFor::encode_auto(&values),
                    "n = {}",
                    values.len()
                );
            }
        }
    }

    #[test]
    fn parallel_rfor_is_bit_identical() {
        for values in datasets() {
            for threads in [2, 7] {
                assert_eq!(
                    GpuRFor::encode_parallel(&values, threads),
                    GpuRFor::encode(&values),
                    "n = {}",
                    values.len()
                );
            }
        }
    }

    #[test]
    fn parallel_best_matches_sequential_choice() {
        for values in datasets() {
            let seq = EncodedColumn::encode_best(&values);
            let par = EncodedColumn::encode_best_parallel(&values, 6);
            assert_eq!(seq.scheme(), par.scheme());
            assert_eq!(seq.compressed_bytes(), par.compressed_bytes());
            assert_eq!(par.decode_cpu(), values);
        }
    }

    #[test]
    fn partitions_are_aligned_and_cover() {
        let parts = partitions(10_000, 512, 4);
        assert_eq!(parts.first().expect("non-empty").0, 0);
        assert_eq!(parts.last().expect("non-empty").1, 10_000);
        for w in parts.windows(2) {
            assert_eq!(w[0].1, w[1].0);
            assert_eq!(w[0].1 % 512, 0);
        }
    }
}
