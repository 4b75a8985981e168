//! Order statistics used by every workload and by `--repeat`.

/// A sorted copy of `v`.
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the two middle samples for an even count). 0 when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Arithmetic mean. 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Nearest-rank percentile `q` in `[0, 1]`: the `ceil(q·n)`-th smallest
/// sample, the rule of `tlc_profile::latency` (a unit test holds the two
/// together).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(v, n=4)` gives them (the exclusive method),
/// because that is what the driver that accepts this benchmark computes.
/// Needs at least two samples; with fewer all three are the median.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let s = sorted(v);
    let m = s.len();
    if m < 2 {
        return [median(v); 3];
    }
    [1usize, 2, 3].map(|i| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    })
}

/// Inter-quartile distance as a share of the median: the spread the
/// driver holds against a metric's bound.
pub fn iqr_share(v: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(v);
    if q2 == 0.0 {
        return 0.0;
    }
    (q3 - q1) / q2.abs()
}

/// Largest relative distance of any sample from the median.
pub fn max_rel_spread(v: &[f64]) -> f64 {
    let m = median(v);
    if m == 0.0 {
        return 0.0;
    }
    v.iter()
        .map(|x| (x - m).abs() / m.abs())
        .fold(0.0, f64::max)
}

/// Throughput as the median over cycles of each cycle's own rate:
/// `samples` are `(work, seconds)` per cycle. A burst of sandbox noise
/// that slows fewer than half the cycles does not move it, which a mean,
/// or a median over a few long blocks, would not survive.
pub fn median_rate(samples: &[(f64, f64)]) -> f64 {
    let rates: Vec<f64> = samples.iter().map(|(work, secs)| work / secs).collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlc_profile::LatencyHistogram;

    #[test]
    fn percentile_matches_tlc_profile_latency() {
        let mut rng = tlc_rng::Rng::seed_from_u64(11);
        for n in [1usize, 2, 3, 10, 97, 128] {
            let v: Vec<f64> = (0..n).map(|_| rng.gen_f64() * 50.0).collect();
            let mut h = LatencyHistogram::new();
            v.iter().for_each(|&x| h.record(x));
            for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(percentile(&v, q), h.percentile(q), "n={n} q={q}");
            }
        }
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), [7.5, 15.0, 22.5]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_rate_ignores_a_burst_of_slow_cycles() {
        // 10 cycles at 100/s; a burst slows four of them fourfold. The
        // mean rate would read 70, the rate of the summed run 45.
        let mut s = vec![(100.0, 1.0); 10];
        for slow in &mut s[3..7] {
            slow.1 = 4.0;
        }
        assert_eq!(median_rate(&s), 100.0);
        // Rates, not times: cycles of unequal work compare by work/second.
        assert_eq!(median_rate(&[(10.0, 1.0), (60.0, 2.0), (40.0, 2.0)]), 20.0);
        assert_eq!(median_rate(&[]), 0.0);
    }
}
