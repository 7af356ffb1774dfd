//! Offline stand-in for the `rand` crate.
//!
//! The container build has no network access to crates.io, so this crate
//! provides the (small) subset of the `rand` 0.8 API the workspace uses:
//! `Rng::{gen_range, gen_bool, fill}`, `SeedableRng::seed_from_u64`, and
//! `rngs::StdRng`. The generator is xoshiro256** seeded via splitmix64 —
//! deterministic across platforms, which the latency-model tests rely on.

#![forbid(unsafe_code)]

use std::ops::Range;

/// Core source of randomness: a stream of `u64`s.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Types that can be sampled uniformly from a range.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draws one value uniformly from `self`.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

/// Converts 53 random bits into a float uniform in `[0, 1)`.
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + (self.end - self.start) * unit_f64(rng)
    }
}

macro_rules! int_range {
    ($wide:ty; $($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                // Span and offset arithmetic happen in a 128-bit type of
                // the operands' signedness, so signed ranges with
                // negative starts neither overflow nor wrap.
                let span = ((self.end as $wide).wrapping_sub(self.start as $wide)) as u128;
                let r = ((rng.next_u64() as u128) << 64 | rng.next_u64() as u128) % span;
                ((self.start as $wide).wrapping_add(r as $wide)) as $t
            }
        }
    )*};
}
int_range!(u128; u8, u16, u32, u64, usize);
int_range!(i128; i8, i16, i32, i64);

/// Convenience sampling methods, blanket-implemented for every source.
pub trait Rng: RngCore {
    /// Samples uniformly from a range.
    fn gen_range<T: SampleRange>(&mut self, range: T) -> T::Output
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        unit_f64(self) < p
    }

    /// Fills a byte slice with random data.
    fn fill(&mut self, dest: &mut [u8])
    where
        Self: Sized,
    {
        for chunk in dest.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

impl<T: RngCore> Rng for T {}

/// Construction from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Concrete generators.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// The standard generator: xoshiro256**.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for slot in s.iter_mut() {
                *slot = splitmix64(&mut sm);
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0u64..1_000_000), b.gen_range(0u64..1_000_000));
        }
    }

    #[test]
    fn unit_floats_in_range_and_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.gen_range(0.0..1.0);
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(2);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.9)).count();
        assert!((hits as f64 / 100_000.0 - 0.9).abs() < 0.01);
    }

    #[test]
    fn fill_covers_every_byte() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut buf = [0u8; 37];
        rng.fill(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn int_ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10_000 {
            let v = rng.gen_range(5usize..17);
            assert!((5..17).contains(&v));
        }
    }

    #[test]
    fn signed_ranges_with_negative_start() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut saw_neg = false;
        for _ in 0..10_000 {
            let v = rng.gen_range(-5i32..5);
            assert!((-5..5).contains(&v));
            saw_neg |= v < 0;
        }
        assert!(saw_neg, "negative half never sampled");
        // Extremes must not overflow the span arithmetic.
        let v = rng.gen_range(i64::MIN..i64::MAX);
        assert!(v < i64::MAX);
    }
}
