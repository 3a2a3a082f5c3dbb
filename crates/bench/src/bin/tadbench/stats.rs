//! Order statistics used by every metric: medians over blocks/windows,
//! nearest-rank percentiles over raw samples, and the quartile rule the
//! benchmark driver applies (Python's `statistics.quantiles(v, n=4)`).

/// Median of `v` (mean of the two middle values for an even count, like
/// Python's `statistics.median`). `NaN` when `v` is empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` of `v`: the smallest value with at least `q`
/// of the values at or below it. `NaN` when `v` is empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s[((q * s.len() as f64).ceil() as usize).clamp(1, s.len()) - 1]
}

/// Nearest-rank percentile of raw `u32` samples: the smallest sample with
/// at least `q` of the samples at or below it. Reorders `samples`.
/// `None` when there are no samples.
pub fn percentile(samples: &mut [u32], q: f64) -> Option<u32> {
    if samples.is_empty() {
        return None;
    }
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let (_, v, _) = samples.select_nth_unstable(rank - 1);
    Some(*v)
}

/// The three quartile cut points of `v` by the exclusive method —
/// exactly what `statistics.quantiles(v, n=4)` returns. Needs at least
/// two values.
pub fn quartiles(v: &[f64]) -> Option<[f64; 3]> {
    let n = v.len();
    if n < 2 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Inter-quartile range of `v` as a share of its median — the spread the
/// driver compares against a metric's bound.
pub fn iqr_share(v: &[f64]) -> Option<f64> {
    let q = quartiles(v)?;
    let med = median(v);
    (med != 0.0).then(|| (q[2] - q[0]) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.10), 2.0);
        assert_eq!(quantile(&v, 0.90), 18.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 20.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.9), 3.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let base: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut base.clone(), 0.50), Some(50));
        assert_eq!(percentile(&mut base.clone(), 0.99), Some(99));
        assert_eq!(percentile(&mut base.clone(), 0.999), Some(100));
        assert_eq!(percentile(&mut base.clone(), 0.0), Some(1));
        assert_eq!(percentile(&mut [7], 0.5), Some(7));
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn iqr_share_of_known_samples() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_share(&v), Some(5.5 / 5.5));
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), None);
    }
}
