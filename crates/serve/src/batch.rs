//! Cross-query shared-scan batching: turn one popped **wave** of
//! admitted jobs into one pass over the partitions they read.
//!
//! A worker pops up to [`crate::ServeConfig::batch_window`] waiting
//! jobs at once ([`crate::service`]) and hands them here. The batcher:
//!
//! 1. runs **plan-carrying** requests (fault drills) one by one — the
//!    executor honours a plan on any run, but sharing a device with a
//!    drill would leak its injected damage into wave-mates' costs;
//! 2. **deduplicates** the rest by `(query, deadline)`: one execution
//!    per distinct request, its outcome cloned to every duplicate
//!    ticket;
//! 3. runs the distinct set through the streaming layer's partition
//!    executor as one wave ([`run_wave_streamed`]), which loads and
//!    uploads each `(partition, column)` the wave needs exactly
//!    **once** — through the shared [`tlc_store::PartitionCache`] when
//!    armed — answers the scans and point filters of one column in
//!    one fused launch, and flies each flight over the same upload,
//!    decoding inline, before moving on;
//! 4. on an unrecoverable storage error, falls back to solo execution
//!    per member, which keeps the retry/backoff ladder and the
//!    exactly-one-response books intact.
//!
//! Batching never changes an answer: the executor merges partial
//! aggregates in partition order and cuts per-member deadlines between
//! partitions, so batched answers are bit-identical to solo answers at
//! any `TLC_SIM_THREADS`. What changes is **attributed cost** — a
//! member pays `read / consumers` for every shared column and a scalar
//! `launch / scalar members` of its column; a flight's device time is
//! its solo device time — and the wave-level tallies
//! (`batched_queries`, `shared_decodes`, `launches_saved`) surfaced
//! through [`crate::MetricsSnapshot`].

use std::sync::atomic::Ordering;

use tlc_ssb::{run_wave_streamed, WaveQuery};

use crate::exec::{member_outcome, wave_spec};
use crate::service::{feed_back, record_terminal, routing_snapshot, run_solo, Job, Shared};
use crate::{Outcome, QuerySpec, Response};

/// Dedup key: two requests are "identical" (one execution answers
/// both) when they ask the same query under the same deadline.
type DedupKey = (QuerySpec, Option<u64>);

fn dedup_key(job: &Job) -> DedupKey {
    (
        job.req.query.clone(),
        job.req.deadline_device_s.map(f64::to_bits),
    )
}

/// Execute one popped wave of jobs, delivering exactly one response
/// per job on every path.
pub(crate) fn run_wave_batch(shared: &Shared, jobs: Vec<Job>) {
    // Plan-carrying requests (chaos drills) run solo: a fault campaign
    // is a per-query contract, and sharing a device with it would leak
    // injected damage into innocent wave-mates' attributed costs.
    let (batchable, solo): (Vec<Job>, Vec<Job>) =
        jobs.into_iter().partition(|j| j.req.plan.is_none());
    for job in solo {
        run_solo(shared, job);
    }
    if batchable.is_empty() {
        return;
    }
    if batchable.len() == 1 {
        // A wave of one goes through `run_job`, where the retry/backoff
        // ladder lives (same executor, no batching counters).
        for job in batchable {
            run_solo(shared, job);
        }
        return;
    }

    // Dedup: group tickets by (query, deadline), first-seen order.
    let mut groups: Vec<(DedupKey, Vec<Job>)> = Vec::new();
    for job in batchable {
        let key = dedup_key(&job);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, g)) => g.push(job),
            None => groups.push((key, vec![job])),
        }
    }

    let queries: Vec<WaveQuery> = groups
        .iter()
        .map(|(_, g)| WaveQuery {
            spec: wave_spec(&g[0].req.query),
            deadline_device_s: g[0].req.deadline_device_s,
        })
        .collect();

    // One routing/degradation snapshot for the whole wave.
    let routing = routing_snapshot(shared);
    match run_wave_streamed(&shared.store, &queries, &routing.opts) {
        Ok(wave) => {
            let m = &shared.metrics;
            m.shared_decodes
                .fetch_add(wave.shared_decodes, Ordering::Relaxed);
            m.launches_saved
                .fetch_add(wave.launches_saved, Ordering::Relaxed);
            let distinct = groups.len();
            for (run, (_, group)) in wave.queries.into_iter().zip(groups) {
                // Feedback once per distinct execution, mirroring the
                // solo path: completions feed the breaker bank, a
                // deadline only nudges the health machine.
                match &run.outcome {
                    Ok(_) => feed_back(
                        shared,
                        run.partitions,
                        &run.recovered_partitions,
                        &routing.routed,
                    ),
                    Err(partial) => {
                        let struck = partial.report.recoveries() > 0;
                        shared.health.lock().expect("health lock").observe(struck);
                    }
                }
                if distinct >= 2 || group.len() >= 2 {
                    m.batched_queries
                        .fetch_add(group.len() as u64, Ordering::Relaxed);
                }
                let outcome = match member_outcome(run) {
                    Ok(out) => Outcome::Completed(out),
                    Err(partial) => Outcome::DeadlineExceeded(partial),
                };
                for job in group {
                    let response = Response {
                        id: job.req.id,
                        outcome: outcome.clone(),
                        attempts: 1,
                        backoff_s: 0.0,
                        tier: routing.tier,
                        routed_around: routing.routed.clone(),
                    };
                    record_terminal(shared, &response);
                    let _ = job.tx.send(response);
                }
            }
        }
        Err(_) => {
            // Unrecoverable storage error at the wave level: fall back
            // to solo execution per ticket, which re-attempts with the
            // full retry/backoff ladder and keeps the books balanced.
            for (_, group) in groups {
                for job in group {
                    run_solo(shared, job);
                }
            }
        }
    }
}
