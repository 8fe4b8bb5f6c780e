//! Small order statistics and the seed mixer.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `(max − min) / median` of `values`; 0 when the median is 0.
pub fn rel_spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / m
}

/// First and third quartile of `values` exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the rule the driver
/// applies to ten runs). Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let m = v.len();
    assert!(m >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Fewest samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `q` of an ascending `sorted` slice, lowered to
/// the highest rank that still leaves [`TAIL_SAMPLES`] samples beyond it
/// (the median when there are fewer than twice that many); 0 for an
/// empty slice.
pub fn percentile_capped(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let rank =
        if n < 2 * TAIL_SAMPLES { rank.min(n.div_ceil(2)) } else { rank.min(n - TAIL_SAMPLES) };
    sorted[rank - 1]
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// SplitMix64 finalizer: one well-mixed output per input.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!((mean(&[]), mean(&[1.0, 2.0, 6.0])), (0.0, 3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(rel_spread(&[1.0, 2.0, 3.0]), 1.0);
        assert_eq!(rel_spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn percentile_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=3000).map(f64::from).collect();
        // p99 of 3000 leaves 30 beyond: honoured as asked.
        assert_eq!(percentile_capped(&v, 0.99), 2970.0);
        let v: Vec<f64> = (1..=300).map(f64::from).collect();
        // p99 of 300 would leave 3 beyond: lowered to rank 290.
        assert_eq!(percentile_capped(&v, 0.99), 290.0);
        assert_eq!(percentile_capped(&v, 0.5), 150.0);
        // Too few samples for any tail: the median.
        let v: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(percentile_capped(&v, 0.99), 8.0);
        assert_eq!(percentile_capped(&[], 0.5), 0.0);
        assert_eq!(percentile_capped(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn splitmix_matches_reference_vector() {
        // First output of the reference SplitMix64 generator seeded with 0.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
    }
}
