//! Order statistics under the reporting rule of the benchmark: a
//! timing is a median with its sample count, and a percentile is
//! reported only when at least ten samples lie beyond it.

/// Median of `xs` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(max − min) / median`: how far the passes of one run disagree.
pub fn spread_share(xs: &[f64]) -> f64 {
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    (max - min) / median(xs)
}

/// Samples needed beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of `xs`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie strictly beyond that rank — a p99 of 200
/// samples rests on two of them and is noise, not a tail.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..1.0).contains(&q));
    let n = xs.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    Some(v[rank - 1])
}

/// The highest of p99 / p95 / p90 that [`percentile`] supports,
/// falling back to the median: `(q, value)`.
pub fn highest_supported(xs: &[f64]) -> (f64, f64) {
    for q in [0.99, 0.95, 0.90] {
        if let Some(v) = percentile(xs, q) {
            return (q, v);
        }
    }
    (0.5, median(xs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread_share(&[9.0, 10.0, 11.0]), 0.2);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 samples: rank 990, ten samples beyond it.
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        // One sample fewer and only nine lie beyond: refused.
        assert_eq!(percentile(&xs[..999], 0.99), None);
        // The same 999 samples still support a p95.
        assert_eq!(percentile(&xs[..999], 0.95), Some(950.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn highest_supported_degrades_to_the_median() {
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(highest_supported(&many), (0.99, 1980.0));
        let some: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(highest_supported(&some), (0.95, 190.0));
        let few: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(highest_supported(&few), (0.5, 5.0));
    }
}
