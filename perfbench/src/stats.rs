//! Order statistics over timing samples.

/// Median of `values` (mean of the middle pair for even lengths); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// spreads computed here and there agree. `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let m = s.len();
    if m < 2 {
        return None;
    }
    // Python's integer arithmetic, including its extrapolation (a negative
    // or >4 `delta`) at the clamped ends.
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Nearest-rank percentile `p` (0 < p ≤ 100, resolved to 0.01) of
/// ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    Some(sorted[rank(sorted.len(), (p * 100.0).round() as usize) - 1])
}

/// 1-based nearest rank of the `bp`-basis-point percentile among `n`
/// samples, in integer arithmetic so 99 % of 1000 is exactly rank 990.
fn rank(n: usize, bp: usize) -> usize {
    (n * bp).div_ceil(10_000).clamp(1, n)
}

/// The highest reportable tail of a timing distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Percentiles tried for [`tail`] in basis points, highest first.
const TAIL_CANDIDATES_BP: [usize; 5] = [9999, 9990, 9900, 9000, 5000];

/// The highest of 99.99, 99.9, 99, 90 and 50 that has at least ten samples
/// beyond it in ascending `sorted`, so no reported tail rests on fewer than
/// ten observations. `None` with fewer than twenty samples.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    TAIL_CANDIDATES_BP.iter().find_map(|&bp| {
        let r = rank(n, bp);
        (n - r >= 10).then(|| Tail {
            percentile: bp as f64 / 100.0,
            value: sorted[r - 1],
            beyond: n - r,
        })
    })
}

/// Ascending copy of `values` (NaN sorts last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_reports_the_highest_percentile_with_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));

        let v: Vec<f64> = (1..=100_000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.99, 99_990.0, 10));

        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));

        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().percentile, 50.0);
        assert_eq!(tail(&v[..19]), None);
        assert_eq!(tail(&[]), None);
    }
}
