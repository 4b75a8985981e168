//! The one request path: every popped job reaches the executor through
//! [`run_wave_batch`] as a member of a **wave**, and a request that
//! runs alone is a wave of one. A worker pops up to
//! [`crate::ServeConfig::batch_window`] waiting jobs at once
//! ([`crate::service`]) and hands them here. The batcher:
//!
//! 1. **makes waves**: each plan-carrying request (a fault drill) is a
//!    wave of its one ticket, run under its plan — sharing a device
//!    with a drill would leak its injected damage into wave-mates'
//!    costs — and everything else is one wave;
//! 2. **deduplicates** that wave by `(query, deadline)` into groups:
//!    one execution per group, its outcome cloned to every ticket;
//! 3. **runs** a wave through the streaming layer's partition executor
//!    ([`run_wave_streamed`]), which loads and uploads each
//!    `(partition, column)` the wave needs exactly **once** — through
//!    the shared [`tlc_store::PartitionCache`] when armed — and
//!    evaluates the wave over that upload in at most two launches a
//!    partition: one builds every join flight's dimension tables (none
//!    when no member joins), one runs a part per join flight and one
//!    **filter part** for every flight 1, point filter and scan, which
//!    decodes each (column, tile) of their union once for all of them,
//!    every part decoding inline: one routing snapshot per attempt,
//!    then one feedback per group and one [`Response`] per ticket;
//! 4. on an unrecoverable storage error **splits or retries**: a wave
//!    of several groups splits into waves of one group, each from
//!    attempt 1 (the shared attempt is neither counted nor struck, and
//!    a healthy member does not fail with a sick wave-mate); a wave of
//!    one group strikes the health machine, counts a retry and runs
//!    again until [`crate::service::MAX_RETRIES`] is spent, which
//!    is the typed [`Outcome::Failed`] of every ticket in the group.
//!
//! Batching never changes an answer: the executor merges partial
//! aggregates in partition order and cuts per-member deadlines between
//! partitions, so batched answers are bit-identical to solo answers at
//! any `TLC_SIM_THREADS`. What changes is **attributed cost** — a
//! member pays `read / consumers` for every shared column and its
//! parts' share of the partition's launches (a launch's seconds split
//! by what each part costs alone; the filter part then split over its
//! members by the encoded bytes each reads), so every member of a wave
//! of two or more pays less device time than it does alone — and the
//! wave-level tallies
//! (`batched_queries`, `shared_decodes`, `launches_saved`) surfaced
//! through [`crate::MetricsSnapshot`].

use std::sync::atomic::Ordering;

use tlc_ssb::{run_wave_streamed, WaveQuery};

use crate::exec::{member_outcome, wave_spec};
use crate::service::{
    backoff_s, feed_back, observe_health, record_terminal, routing_snapshot, Shared, MAX_RETRIES,
};
use crate::{Outcome, QuerySpec, Request, Response};

/// Dedup key: two requests are "identical" (one execution answers
/// both) when they ask the same query under the same deadline.
pub(crate) type DedupKey = (QuerySpec, Option<u64>);

pub(crate) fn dedup_key(req: &Request) -> DedupKey {
    (req.query.clone(), req.deadline_device_s.map(f64::to_bits))
}

/// The tickets one execution answers, first-seen first: each request
/// with its slot in the popped wave.
type Group = Vec<(usize, Request)>;

/// Execute one popped wave. Returns exactly one counted terminal
/// response per request, in request order, and the simulated seconds
/// the wave kept its worker busy: the latency of every execution it
/// performed, each once (duplicate tickets fan out for free).
pub(crate) fn run_wave_batch(shared: &Shared, reqs: Vec<Request>) -> (Vec<Response>, f64) {
    let mut slots: Vec<Option<Response>> = reqs.iter().map(|_| None).collect();
    let mut busy_s = 0.0f64;

    // Drills first, each a wave of its one ticket; the rest dedup into
    // groups by (query, deadline), first-seen order, and form one wave.
    let mut wave: Vec<Group> = Vec::new();
    for ticket in reqs.into_iter().enumerate() {
        if ticket.1.plan.is_some() {
            run_wave(shared, vec![vec![ticket]], &mut slots, &mut busy_s);
            continue;
        }
        let key = dedup_key(&ticket.1);
        match wave.iter_mut().find(|g| dedup_key(&g[0].1) == key) {
            Some(group) => group.push(ticket),
            None => wave.push(vec![ticket]),
        }
    }
    if !wave.is_empty() {
        run_wave(shared, wave, &mut slots, &mut busy_s);
    }
    let responses = slots
        .into_iter()
        .map(|r| r.expect("one response per request"));
    (responses.collect(), busy_s)
}

/// Run one wave — one execution per group — to the counted terminal
/// response of every ticket in it. A plan-carrying ticket is alone in
/// its wave, so the wave's plan is its first ticket's.
fn run_wave(shared: &Shared, wave: Vec<Group>, slots: &mut [Option<Response>], busy_s: &mut f64) {
    let m = &shared.metrics;
    let queries: Vec<WaveQuery> = wave
        .iter()
        .map(|g| WaveQuery {
            spec: wave_spec(&g[0].1.query),
            deadline_device_s: g[0].1.deadline_device_s,
        })
        .collect();
    let mut attempts = 0usize;
    let (outcomes, routing) = loop {
        attempts += 1;
        // Route and degrade per current feedback state, once per attempt.
        let routing = routing_snapshot(shared, wave[0][0].1.plan.clone());
        match run_wave_streamed(&shared.store, &queries, &routing.opts) {
            Ok(run) => {
                m.shared_decodes
                    .fetch_add(run.shared_decodes, Ordering::Relaxed);
                m.launches_saved
                    .fetch_add(run.launches_saved, Ordering::Relaxed);
                // Feedback once per execution, not per ticket.
                let outcomes = run.queries.into_iter().map(|run| {
                    feed_back(shared, &run, &routing.routed);
                    match member_outcome(run) {
                        Ok(out) => Outcome::Completed(out),
                        Err(partial) => Outcome::DeadlineExceeded(partial),
                    }
                });
                break (outcomes.collect::<Vec<_>>(), routing);
            }
            // Whose column failed is not known here, so every group
            // runs again on its own, duplicates still sharing one
            // execution; the ladder below then fails only the sick.
            Err(_) if wave.len() > 1 => {
                for group in wave {
                    run_wave(shared, vec![group], slots, busy_s);
                }
                return;
            }
            Err(e) => {
                observe_health(shared, true);
                if attempts > MAX_RETRIES {
                    let failed = Outcome::Failed {
                        error: e.to_string(),
                        report: Default::default(),
                    };
                    break (vec![failed], routing);
                }
                m.retries.fetch_add(1, Ordering::Relaxed);
            }
        }
    };

    let shared_wave = wave.len() >= 2;
    for (outcome, group) in outcomes.into_iter().zip(wave) {
        if shared_wave || group.len() >= 2 {
            m.batched_queries
                .fetch_add(group.len() as u64, Ordering::Relaxed);
        }
        for (k, (slot, req)) in group.into_iter().enumerate() {
            // Backoff is simulated, and its jitter is keyed by the
            // ticket's own id: duplicates share attempts, not waits.
            let response = Response {
                id: req.id,
                outcome: outcome.clone(),
                attempts,
                backoff_s: (1..attempts).fold(0.0, |s, step| s + backoff_s(req.id, step)),
                tier: routing.tier,
                routed_around: routing.routed.clone(),
            };
            if k == 0 {
                *busy_s += response.latency_s();
            }
            record_terminal(shared, &response);
            slots[slot] = Some(response);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute, ServeConfig, Service};
    use std::sync::Arc;
    use tlc_ssb::{LoColumn, QueryId, SsbStore, StreamOptions, StreamSpec};

    /// A partition file replaced by a directory reads as `EISDIR`: a
    /// `StoreError::Io`, which the storage ladder does not absorb.
    #[test]
    fn the_retry_ladder_fails_the_sick_group_and_only_it() {
        let dir = std::env::temp_dir().join(format!("tlc_serve_batch_sick_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(
            SsbStore::ingest(&dir, &StreamSpec::for_rows(7, 12_000, 1_000)).expect("ingest"),
        );
        let scan = |column| QuerySpec::Scan { column };
        let queries = [
            scan(LoColumn::Tax),
            scan(LoColumn::Tax),
            scan(LoColumn::Quantity),
            QuerySpec::Flight(QueryId::Q11),
        ];
        let healthy: Vec<_> = queries[2..]
            .iter()
            .map(|q| execute(&store, q, &StreamOptions::default()).expect("solo"))
            .collect();
        let sick = store.store().path_of(1, "tax");
        std::fs::remove_file(&sick).expect("remove");
        std::fs::create_dir(&sick).expect("mkdir");

        // Alone, each duplicate climbs the ladder; in one wave the wave
        // splits and their group climbs it once.
        let mut backoffs = Vec::new();
        for (batch_window, retries) in [(1, 4), (4, 2)] {
            let cfg = ServeConfig {
                workers: 1,
                batch_window,
                ..ServeConfig::deterministic()
            };
            let svc = Service::start(Arc::clone(&store), cfg.clone());
            let offered = queries
                .iter()
                .cloned()
                .zip(0..)
                .map(|(q, id)| Request::new(id, q));
            let tickets = svc.submit_many(offered.collect());
            let responses: Vec<Response> = tickets
                .into_iter()
                .map(|t| t.expect("admitted").wait())
                .collect();
            let m = svc.shutdown();

            for r in &responses[..2] {
                let Outcome::Failed { error, .. } = &r.outcome else {
                    panic!("expected a typed failure, got {r:?}");
                };
                assert!(error.contains(&sick.display().to_string()), "{error}");
                assert_eq!(r.attempts, MAX_RETRIES + 1);
                let waits = (1..=MAX_RETRIES).map(|k| backoff_s(r.id, k));
                assert_eq!(r.backoff_s, waits.fold(0.0, |total, s| total + s));
                backoffs.push(r.backoff_s);
            }
            for (r, want) in responses[2..].iter().zip(&healthy) {
                let Outcome::Completed(out) = &r.outcome else {
                    panic!("a healthy member failed with a sick wave-mate: {r:?}");
                };
                assert_eq!(out.answer, want.answer);
                assert_eq!((r.attempts, r.backoff_s), (1, 0.0));
            }
            assert!(m.is_balanced(), "{m:?}");
            assert_eq!((m.failed, m.completed, m.retries), (2, 2, retries));
        }
        // Keyed by the ticket's own id: the same waits, batched or not.
        assert_eq!(backoffs[..2], backoffs[2..]);
        assert_ne!(backoffs[0], backoffs[1]);
    }
}
