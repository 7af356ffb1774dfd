//! Log-bucketed (HDR-style) histograms with exact quantile bounds.
//!
//! Values are `u64` (per-frame cycles by convention). Bucket layout:
//! values below 32 get one bucket each (exact); above that, each power
//! of two is split into 32 sub-buckets, so a bucket's width is at most
//! 1/32 of its lower bound — every quantile is known to within 3.125 %
//! relative error, and the bounds themselves are exact (the recorded
//! value provably lies in `[low, high]`).
//!
//! Merging is **lossless**: two histograms over disjoint sample sets
//! merge bucket-by-bucket into exactly the histogram of the union, so
//! per-shard histograms roll up into engine totals and per-run
//! histograms roll up across runs without approximation on top of the
//! bucketing. Merge is associative and commutative (proptested in
//! `tests/props.rs`).

use crate::json::Json;

/// Sub-bucket resolution: 2^5 = 32 sub-buckets per power of two.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave.
const SUBS: u64 = 1 << SUB_BITS;
/// Total bucket count: 32 exact small-value buckets plus 32 per octave
/// for exponents 5..=63.
const BUCKETS: usize = (SUBS as usize) * (64 - SUB_BITS as usize + 1);

/// Bucket index of `v`. Total order: `v <= w` implies
/// `bucket_index(v) <= bucket_index(w)`.
fn bucket_index(v: u64) -> usize {
    if v < SUBS {
        v as usize
    } else {
        let k = 63 - v.leading_zeros(); // 2^k <= v < 2^(k+1), k >= SUB_BITS
        let shift = k - SUB_BITS;
        let sub = ((v >> shift) & (SUBS - 1)) as usize;
        SUBS as usize + ((k - SUB_BITS) as usize) * SUBS as usize + sub
    }
}

/// Inclusive `[low, high]` value range of bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < SUBS as usize {
        (i as u64, i as u64)
    } else {
        let b = i - SUBS as usize;
        let shift = (b / SUBS as usize) as u32;
        let sub = (b % SUBS as usize) as u64;
        let low = (SUBS + sub) << shift;
        (low, low + ((1u64 << shift) - 1))
    }
}

/// A log-bucketed value distribution. See the module docs for the
/// bucket layout and error bound.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact arithmetic mean, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Exact minimum recorded value, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum recorded value, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact bounds `[low, high]` containing the `q`-quantile
    /// (nearest-rank: the `ceil(q·count)`-th smallest sample), `None`
    /// when empty. `high - low <= low/32`, so reporting `high` is at
    /// most 3.125 % pessimistic.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `0.0..=1.0`.
    pub fn quantile_bounds(&self, q: f64) -> Option<(u64, u64)> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (low, high) = bucket_bounds(i);
                // The true min/max tighten the outermost buckets.
                return Some((low.max(self.min), high.min(self.max)));
            }
        }
        unreachable!("rank {rank} <= count {} must land in a bucket", self.count)
    }

    /// Upper bound of the `q`-quantile (the conservative single number
    /// reports quote), `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.quantile_bounds(q).map(|(_, high)| high)
    }

    /// Folds `other` into `self`, losslessly: the result is exactly the
    /// histogram of the union of both sample sets.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(index, low, count)` triples, in value
    /// order — the compact lossless serialization.
    pub(crate) fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, bucket_bounds(i).0, c))
    }

    /// JSON form: summary quantiles plus the sparse bucket array
    /// (`[index, low, count]` triples), so merged reports stay lossless.
    pub fn to_json(&self) -> Json {
        let q = |p: f64| self.quantile(p).map_or(Json::Null, Json::from);
        Json::obj(vec![
            ("count", Json::from(self.count)),
            ("min", self.min().map_or(Json::Null, Json::from)),
            ("mean", self.mean().map_or(Json::Null, Json::from)),
            ("p50", q(0.50)),
            ("p99", q(0.99)),
            ("p999", q(0.999)),
            ("max", self.max().map_or(Json::Null, Json::from)),
            (
                "buckets",
                Json::Arr(
                    self.nonzero_buckets()
                        .map(|(i, low, c)| {
                            Json::Arr(vec![Json::from(i as u64), Json::from(low), Json::from(c)])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("p50", &self.quantile(0.5))
            .field("p99", &self.quantile(0.99))
            .field("max", &self.max())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_have_exact_buckets() {
        let mut h = Histogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        // Values below 64 land in single-value buckets, so quantile
        // bounds are exact.
        for v in 0..64u64 {
            let i = bucket_index(v);
            assert_eq!(bucket_bounds(i), (v, v), "value {v}");
        }
        assert_eq!(h.quantile_bounds(0.5), Some((31, 31)));
        assert_eq!(h.quantile_bounds(1.0), Some((63, 63)));
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(63));
    }

    #[test]
    fn bucket_boundaries_round_trip() {
        // Every power of two and its neighbours, plus the extremes:
        // a value must lie in its own bucket's bounds, and bucket
        // indices must be monotone in the value.
        let mut probes = vec![0u64, 1, 31, 32, 33, 63, 64, 65, u64::MAX - 1, u64::MAX];
        for k in 1..64u32 {
            let p = 1u64 << k;
            probes.extend([p - 1, p, p + 1]);
        }
        probes.sort_unstable();
        let mut last_idx = 0usize;
        for &v in &probes {
            let i = bucket_index(v);
            let (low, high) = bucket_bounds(i);
            assert!(low <= v && v <= high, "v={v} not in [{low}, {high}]");
            assert!(i >= last_idx, "index must be monotone at v={v}");
            // Bucket endpoints map back to the same bucket.
            assert_eq!(bucket_index(low), i, "low endpoint of bucket {i}");
            assert_eq!(bucket_index(high), i, "high endpoint of bucket {i}");
            last_idx = i;
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        for i in 0..BUCKETS {
            let (low, high) = bucket_bounds(i);
            if low >= SUBS {
                assert!(
                    (high - low) as f64 / low as f64 <= 1.0 / SUBS as f64,
                    "bucket {i}: [{low}, {high}] wider than 1/32 of low"
                );
            } else {
                assert_eq!(low, high, "small-value bucket {i} must be exact");
            }
        }
    }

    #[test]
    fn quantile_bounds_contain_exact_nearest_rank() {
        // A skewed sample set with duplicates and large values.
        let mut vals: Vec<u64> = (0..500u64).map(|i| i * i % 7919 + 1).collect();
        vals.extend([100_000, 1_000_000, 1_000_000, u64::MAX / 3]);
        let mut h = Histogram::new();
        for &v in &vals {
            h.record(v);
        }
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let (low, high) = h.quantile_bounds(q).unwrap();
            assert!(
                low <= exact && exact <= high,
                "q={q}: exact {exact} outside [{low}, {high}]"
            );
            // And the bound is tight: at most 1/32 relative slack.
            assert!(high - low <= low / 32 + 1, "q={q}: [{low}, {high}]");
        }
    }

    #[test]
    fn merge_is_lossless() {
        let (mut a, mut b, mut whole) = (Histogram::new(), Histogram::new(), Histogram::new());
        for i in 0..1000u64 {
            let v = i * 37 % 4096;
            whole.record(v);
            if i % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
        assert_eq!(a.sum(), whole.sum());
    }

    #[test]
    fn empty_histogram_reports_none() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile_bounds(0.99), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_quantile_panics() {
        Histogram::new().quantile_bounds(1.5);
    }

    #[test]
    fn json_form_has_sparse_buckets() {
        let mut h = Histogram::new();
        h.record(7);
        h.record(7);
        h.record(100);
        let j = h.to_json();
        assert_eq!(j.get("count").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("min").and_then(Json::as_u64), Some(7));
        let buckets = j.get("buckets").and_then(Json::as_arr).unwrap();
        assert_eq!(buckets.len(), 2, "two distinct buckets");
    }
}
