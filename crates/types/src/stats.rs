//! Latency/throughput summary statistics.
//!
//! The paper reports average latency, 99th-percentile latency and
//! throughput for every service (Table 4), plus tail-to-average ratios and
//! median comparisons in §5.6. This module provides the one summary type
//! every harness uses, so that "99th percentile" means the same thing in
//! the RTL pipeline, the host-stack simulator, and the benches.

/// Summary of a sample set (latencies in nanoseconds by convention).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Median (p50).
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
    /// Population standard deviation.
    pub stddev: f64,
}

impl Summary {
    /// Computes a summary; returns `None` for an empty sample set.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
        let var = sorted.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / count as f64;
        Some(Summary {
            count,
            mean,
            min: sorted[0],
            p50: percentile_sorted(&sorted, 50.0),
            p99: percentile_sorted(&sorted, 99.0),
            max: sorted[count - 1],
            stddev: var.sqrt(),
        })
    }

    /// Tail-to-average ratio (p99 / mean), the §5.6 predictability metric:
    /// 1.02–1.04 for Emu services vs 1.09–2.98 for host services.
    pub fn tail_to_average(&self) -> f64 {
        self.p99 / self.mean
    }
}

/// Percentile (nearest-rank) over a pre-sorted slice.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `0..=100`.
pub(crate) fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "empty sample set");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_set() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p99, 99.0);
    }

    #[test]
    fn empty_yields_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn single_sample() {
        let s = Summary::of(&[42.0]).unwrap();
        assert_eq!(s.p50, 42.0);
        assert_eq!(s.p99, 42.0);
        assert_eq!(s.stddev, 0.0);
        assert!((s.tail_to_average() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_ratio_reflects_spread() {
        let tight: Vec<f64> = vec![100.0; 98].into_iter().chain([104.0, 104.0]).collect();
        let heavy: Vec<f64> = vec![100.0; 98]
            .into_iter()
            .chain([1000.0, 1000.0])
            .collect();
        let t = Summary::of(&tight).unwrap().tail_to_average();
        let h = Summary::of(&heavy).unwrap().tail_to_average();
        assert!(t < 1.05);
        assert!(h > 2.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile_sorted(&[], 50.0);
    }
}
