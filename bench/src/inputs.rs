//! Inputs shared by the workloads, all made from `--seed`. The library
//! only ever sees the generated inputs.
//!
//! Sizes are constants in the source. They are a quarter of what
//! ISSUE 11 proposed (2 M rows, not 8 M) because the driver that
//! accepts this benchmark makes 114 runs inside 57 minutes: a run,
//! set-up included, has to fit in about 25 s on two cores.

use std::collections::BTreeMap;

use tlc_core::Scheme;
use tlc_rng::Rng;
use tlc_serve::{QuerySpec, Request};
use tlc_ssb::reference::run_reference;
use tlc_ssb::{LoColumn, QueryId, StreamSpec};

/// Target fact rows of the shared store.
pub const STORE_ROWS: u64 = 2_000_000;
/// Orders per generator chunk: 8 partitions of ~250 k rows × 14 columns.
pub const ORDERS_PER_CHUNK: usize = 62_500;
/// Values in each synthetic codec column.
pub const SYNTH_VALUES: usize = 4 << 20;

/// The shared store spec: ≈34 MiB on disk, ≈17.9 B/row.
pub fn spec(seed: u64) -> StreamSpec {
    StreamSpec::for_rows(seed, STORE_ROWS, ORDERS_PER_CHUNK)
}

/// The three synthetic codec columns, one shaped for each scheme:
/// uniform 16-bit values (GPU-FOR), a sorted sequence (GPU-DFOR) and
/// runs of 64 equal values (GPU-RFOR).
pub fn synthetic(seed: u64) -> [(Scheme, Vec<i32>); 3] {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5EED_C0DE);
    let uniform = (0..SYNTH_VALUES)
        .map(|_| rng.gen_range(0..1 << 16))
        .collect();
    let mut acc = 0i32;
    let sorted = (0..SYNTH_VALUES)
        .map(|_| {
            acc += rng.gen_range(0..16);
            acc
        })
        .collect();
    let mut run = 0i32;
    let runs = (0..SYNTH_VALUES)
        .map(|i| {
            if i % 64 == 0 {
                run = rng.gen_range(0..1 << 20);
            }
            run
        })
        .collect();
    [
        (Scheme::GpuFor, uniform),
        (Scheme::GpuDFor, sorted),
        (Scheme::GpuRFor, runs),
    ]
}

/// One query of each join shape: a cycle of the flight workloads.
pub const FLIGHT_QUERIES: [QueryId; 4] = [QueryId::Q11, QueryId::Q21, QueryId::Q31, QueryId::Q43];

/// Expected answers of `queries` over the whole spec: `run_reference`
/// over each generator chunk, merged by group with wrapping adds (the
/// rule the streaming executor itself folds by). Chunk by chunk, so the
/// oracle holds one chunk in memory and `peak_rss_mb` stays the
/// program's and not the oracle's.
pub fn reference_answers(spec: &StreamSpec, queries: &[QueryId]) -> Vec<Vec<(u64, u64)>> {
    let mut merged: Vec<BTreeMap<u64, u64>> = vec![BTreeMap::new(); queries.len()];
    let mut part = spec.dims();
    for c in 0..spec.chunks {
        part.lineorder = spec.chunk(c);
        for (q, groups) in queries.iter().zip(merged.iter_mut()) {
            for (g, v) in run_reference(&part, *q) {
                let e = groups.entry(g).or_insert(0);
                *e = e.wrapping_add(v);
            }
        }
    }
    merged
        .into_iter()
        .map(|m| m.into_iter().filter(|&(_, v)| v != 0).collect())
        .collect()
}

/// Requests one round offers with one `submit_many`.
pub const ROUND_REQUESTS: usize = 32;

// The pools of `tlc_serve::loadgen` (private there): flight-1 queries,
// low-cardinality columns where an equality filter selects something,
// and the wide measure columns for scans.
const FLIGHTS: [QueryId; 3] = [QueryId::Q11, QueryId::Q12, QueryId::Q13];
const POINT_COLS: [(LoColumn, i32, i32); 3] = [
    (LoColumn::Discount, 0, 11),
    (LoColumn::Quantity, 1, 51),
    (LoColumn::Tax, 0, 9),
];
const SCAN_COLS: [LoColumn; 4] = [
    LoColumn::Revenue,
    LoColumn::ExtendedPrice,
    LoColumn::Quantity,
    LoColumn::SupplyCost,
];
/// Request classes of one round, in offer order. flight : point : scan
/// = 6 : 16 : 10, which is 2 : 5 : 3 of 32 to the nearest request, and
/// every window of 8 (one wave at `batch_window` 8) holds the mix too.
const ROUND_PATTERN: &[u8; ROUND_REQUESTS] = b"FPSPFPSPFPSPSPSPFPSPFPSPFPSPSPSP";

/// `rounds` rounds of [`ROUND_REQUESTS`] requests. The order of classes
/// is fixed ([`ROUND_PATTERN`]) and each class walks its pool
/// round-robin, across rounds too, so the work offered and what shares a
/// wave do not depend on the seed; the seed draws the filter values.
/// Ids are unique across rounds.
pub fn request_rounds(seed: u64, rounds: usize) -> Vec<Vec<Request>> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x10AD_6E4E);
    let (mut flights, mut points, mut scans) = (0usize, 0usize, 0usize);
    // A wave holds at most two filters on one column, and they are
    // consecutive draws for it: were they equal the service would
    // deduplicate them, and the work would depend on the seed.
    let mut last_value = [i32::MIN; POINT_COLS.len()];
    let mut next_id = 0u64;
    (0..rounds)
        .map(|_| {
            ROUND_PATTERN
                .iter()
                .map(|class| {
                    let spec = match class {
                        b'F' => {
                            flights += 1;
                            QuerySpec::Flight(FLIGHTS[(flights - 1) % FLIGHTS.len()])
                        }
                        b'P' => {
                            points += 1;
                            let k = (points - 1) % POINT_COLS.len();
                            let (column, lo, hi) = POINT_COLS[k];
                            let mut value = rng.gen_range(lo..hi);
                            while value == last_value[k] {
                                value = rng.gen_range(lo..hi);
                            }
                            last_value[k] = value;
                            QuerySpec::PointFilter { column, value }
                        }
                        _ => {
                            scans += 1;
                            QuerySpec::Scan {
                                column: SCAN_COLS[(scans - 1) % SCAN_COLS.len()],
                            }
                        }
                    };
                    next_id += 1;
                    Request::new(next_id, spec)
                })
                .collect()
        })
        .collect()
}

/// Lineorder columns a request reads.
pub fn columns_touched(spec: &QuerySpec) -> usize {
    match spec {
        QuerySpec::Flight(q) => q.columns().len(),
        QuerySpec::PointFilter { .. } | QuerySpec::Scan { .. } => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class_counts(round: &[Request]) -> [usize; 3] {
        let mut n = [0usize; 3];
        for r in round {
            match r.query {
                QuerySpec::Flight(_) => n[0] += 1,
                QuerySpec::PointFilter { .. } => n[1] += 1,
                QuerySpec::Scan { .. } => n[2] += 1,
            }
        }
        n
    }

    fn specs(rounds: &[Vec<Request>]) -> Vec<(u64, QuerySpec)> {
        rounds
            .iter()
            .flatten()
            .map(|r| (r.id, r.query.clone()))
            .collect()
    }

    #[test]
    fn same_seed_same_requests() {
        assert_eq!(specs(&request_rounds(3, 5)), specs(&request_rounds(3, 5)));
    }

    #[test]
    fn another_seed_differs_but_keeps_the_mix() {
        let a = request_rounds(1, 5);
        let b = request_rounds(2, 5);
        assert_ne!(specs(&a), specs(&b));
        for round in a.iter().chain(b.iter()) {
            assert_eq!(round.len(), ROUND_REQUESTS);
            let [f, p, s] = class_counts(round);
            // 2:5:3 of 32 is 6.4 : 16 : 9.6
            assert!(f.abs_diff(6) <= 1 && p.abs_diff(16) <= 1 && s.abs_diff(10) <= 1);
            assert_eq!(class_counts(round), class_counts(&a[0]));
            // Every wave at `batch_window` 8 holds the mix as well.
            for window in round.chunks(8) {
                let [f, p, s] = class_counts(window);
                assert!((1..=2).contains(&f) && p == 4 && (2..=3).contains(&s));
                // ... and nothing the service would deduplicate.
                for (i, a) in window.iter().enumerate() {
                    assert!(window[i + 1..].iter().all(|b| a.query != b.query));
                }
            }
        }
        let ids: std::collections::BTreeSet<u64> = a.iter().flatten().map(|r| r.id).collect();
        assert_eq!(ids.len(), 5 * ROUND_REQUESTS);
    }

    #[test]
    fn synthetic_columns_take_their_scheme() {
        // Smaller than SYNTH_VALUES would be nicer, but the shapes are
        // what is under test and they do not depend on the length.
        for (scheme, values) in synthetic(1) {
            let best = tlc_core::EncodedColumn::encode_best(&values[..1 << 16]);
            assert_eq!(best.scheme(), scheme);
        }
    }

    #[test]
    fn chunked_oracle_equals_reference_over_materialized_data() {
        let spec = StreamSpec::for_rows(5, 40_000, 2_500);
        assert!(spec.chunks > 1);
        let data = spec.materialize();
        let got = reference_answers(&spec, &FLIGHT_QUERIES);
        for (q, got) in FLIGHT_QUERIES.iter().zip(got) {
            assert_eq!(got, run_reference(&data, *q), "{}", q.name());
        }
    }
}
