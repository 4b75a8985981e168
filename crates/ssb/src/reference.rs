//! A scalar CPU reference executor for the 13 SSB queries. Shares the
//! per-query `crate::queries::spec` with the device executors, so a
//! divergence between the fused kernel and this loop is a real engine
//! bug, not a drifted predicate. [`fold_scalar`] is the same for a scan
//! or point filter.

use std::collections::HashMap;

use crate::gen::SsbData;
use crate::queries::{spec, within, QueryId};

/// Count and wrapping sum of `values`, keeping only those equal to
/// `filter` when set: the CPU twin of
/// [`crate::queries::scalar_filters`] and the CPU rung of its ladder.
pub fn fold_scalar(values: &[i32], filter: Option<i32>) -> (u64, i64) {
    let kept = values
        .iter()
        .filter(|&&v| filter.is_none_or(|want| v == want));
    kept.fold((0, 0), |(count, sum), &v| {
        (count + 1, sum.wrapping_add(v as i64))
    })
}

/// Run query `q` with plain nested loops; returns sorted
/// `(group index, wrapped signed sum)` pairs, matching
/// [`crate::queries::run_query`]'s output format exactly.
pub fn run_reference(data: &SsbData, q: QueryId) -> Vec<(u64, u64)> {
    let s = spec(q);
    let lo = &data.lineorder;

    // Dimension lookup tables (datekey -> row; FK keys are 1-based
    // dense row numbers already).
    let date_by_key: HashMap<i32, usize> = data
        .date
        .datekey
        .iter()
        .enumerate()
        .map(|(r, &k)| (k, r))
        .collect();

    let mut sums: HashMap<u64, u64> = HashMap::new();
    let flight1 = matches!(q, QueryId::Q11 | QueryId::Q12 | QueryId::Q13);
    for i in 0..lo.len {
        let date_row = date_by_key[&lo.orderdate[i]];
        let Some(y) = s.date_payload(data, date_row) else {
            continue;
        };
        if flight1 {
            if !within(s.qty)(lo.quantity[i]) || !within(s.disc)(lo.discount[i]) {
                continue;
            }
            *sums.entry(0).or_insert(0) += lo.extendedprice[i] as u64 * lo.discount[i] as u64;
            continue;
        }
        let Some(spay) = (s.supp)(data, (lo.suppkey[i] - 1) as usize) else {
            continue;
        };
        let cpay = match q {
            QueryId::Q31
            | QueryId::Q32
            | QueryId::Q33
            | QueryId::Q34
            | QueryId::Q41
            | QueryId::Q42
            | QueryId::Q43 => match (s.cust)(data, (lo.custkey[i] - 1) as usize) {
                Some(p) => p,
                None => continue,
            },
            _ => 0,
        };
        let ppay = match q {
            QueryId::Q21
            | QueryId::Q22
            | QueryId::Q23
            | QueryId::Q41
            | QueryId::Q42
            | QueryId::Q43 => match (s.part)(data, (lo.partkey[i] - 1) as usize) {
                Some(p) => p,
                None => continue,
            },
            _ => 0,
        };
        let g = (s.group)(cpay, spay, ppay, y) as u64;
        let v = match q {
            QueryId::Q41 | QueryId::Q42 | QueryId::Q43 => {
                (lo.revenue[i] as i64 - lo.supplycost[i] as i64) as u64
            }
            _ => lo.revenue[i] as u64,
        };
        let e = sums.entry(g).or_insert(0);
        *e = e.wrapping_add(v);
    }
    let mut out: Vec<(u64, u64)> = sums.into_iter().filter(|&(_, v)| v != 0).collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q11_selectivity_is_plausible() {
        // Year 1993 (1/7) x discount 1-3 (3/11) x quantity < 25 (~half).
        let data = SsbData::generate(0.01);
        let res = run_reference(&data, QueryId::Q11);
        assert_eq!(res.len(), 1);
        assert!(res[0].1 > 0);
    }

    #[test]
    fn join_queries_produce_groups() {
        let data = SsbData::generate(0.01);
        for q in [QueryId::Q21, QueryId::Q31, QueryId::Q41] {
            let res = run_reference(&data, q);
            assert!(!res.is_empty(), "{} returned no groups", q.name());
        }
    }

    #[test]
    fn q34_is_highly_selective() {
        let data = SsbData::generate(0.01);
        let q33 = run_reference(&data, QueryId::Q33);
        let q34 = run_reference(&data, QueryId::Q34);
        // One month instead of six years of dates.
        assert!(q34.len() <= q33.len());
    }
}
