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
use crate::service::{feed_back, record_terminal, routing_snapshot, run_solo, Shared};
use crate::{Outcome, QuerySpec, Request, Response};

/// Dedup key: two requests are "identical" (one execution answers
/// both) when they ask the same query under the same deadline.
pub(crate) type DedupKey = (QuerySpec, Option<u64>);

pub(crate) fn dedup_key(req: &Request) -> DedupKey {
    (req.query.clone(), req.deadline_device_s.map(f64::to_bits))
}

/// Execute one popped wave. Returns exactly one counted terminal
/// response per request, in request order, and the simulated seconds
/// the wave kept its worker busy: the latency of every execution it
/// performed, each once (duplicate tickets fan out for free).
pub(crate) fn run_wave_batch(shared: &Shared, reqs: Vec<Request>) -> (Vec<Response>, f64) {
    let mut slots: Vec<Option<Response>> = reqs.iter().map(|_| None).collect();
    let mut busy_s = 0.0f64;
    let mut solo = |(slot, req): (usize, Request)| {
        let response = run_solo(shared, req);
        busy_s += response.latency_s();
        slots[slot] = Some(response);
    };

    // Plan-carrying requests (chaos drills) run solo: a fault campaign
    // is a per-query contract, and sharing a device with it would leak
    // injected damage into innocent wave-mates' attributed costs.
    let (batchable, planned): (Vec<_>, Vec<_>) = reqs
        .into_iter()
        .enumerate()
        .partition(|(_, req)| req.plan.is_none());
    planned.into_iter().for_each(&mut solo);
    if batchable.len() <= 1 {
        // A wave of one goes through `run_job`, where the retry/backoff
        // ladder lives (same executor, no batching counters).
        batchable.into_iter().for_each(&mut solo);
    } else {
        // Dedup: group tickets by (query, deadline), first-seen order.
        let mut groups: Vec<(DedupKey, Vec<(usize, Request)>)> = Vec::new();
        for member in batchable {
            let key = dedup_key(&member.1);
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, g)) => g.push(member),
                None => groups.push((key, vec![member])),
            }
        }

        let queries: Vec<WaveQuery> = groups
            .iter()
            .map(|(_, g)| WaveQuery {
                spec: wave_spec(&g[0].1.query),
                deadline_device_s: g[0].1.deadline_device_s,
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
                    for (k, (slot, req)) in group.into_iter().enumerate() {
                        let response = Response {
                            id: req.id,
                            outcome: outcome.clone(),
                            attempts: 1,
                            backoff_s: 0.0,
                            tier: routing.tier,
                            routed_around: routing.routed.clone(),
                        };
                        if k == 0 {
                            busy_s += response.latency_s();
                        }
                        record_terminal(shared, &response);
                        slots[slot] = Some(response);
                    }
                }
            }
            // Unrecoverable storage error at the wave level: fall back
            // to solo execution per ticket, which re-attempts with the
            // full retry/backoff ladder and keeps the books balanced.
            Err(_) => groups.into_iter().flat_map(|(_, g)| g).for_each(&mut solo),
        }
    }
    let responses = slots
        .into_iter()
        .map(|r| r.expect("one response per request"));
    (responses.collect(), busy_s)
}
