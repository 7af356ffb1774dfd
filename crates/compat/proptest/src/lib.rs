//! Offline stand-in for the `proptest` crate.
//!
//! The container build has no network access to crates.io, so this crate
//! implements the subset of the proptest API the test suites use: the
//! `proptest!` macro with an optional `#![proptest_config(..)]` header,
//! `any::<T>()`, integer range strategies, `proptest::collection::vec`,
//! tuple strategies, and the `prop_assert!` / `prop_assert_eq!` macros.
//!
//! Unlike real proptest there is no shrinking: a failing case panics with
//! its case number, and the RNG is seeded deterministically from the test
//! path so failures reproduce exactly. Case count defaults to 64 and can
//! be overridden with the `PROPTEST_CASES` environment variable or
//! `ProptestConfig::with_cases`.

#![forbid(unsafe_code)]

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Error carried out of a failing property body by `prop_assert!`.
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Builds a failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Runner configuration (case count only).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        ProptestConfig { cases }
    }
}

/// Deterministic per-test RNG (xoshiro256**, seeded from the test path).
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Seeds the generator from a test's module path + name.
    pub fn for_test(name: &str) -> Self {
        // FNV-1a over the name, then splitmix64 to spread the state.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut s = [0u64; 4];
        for slot in s.iter_mut() {
            h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = h;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            *slot = z ^ (z >> 31);
        }
        TestRng { s }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
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

    /// Next 128 random bits.
    pub fn next_u128(&mut self) -> u128 {
        (u128::from(self.next_u64()) << 64) | u128::from(self.next_u64())
    }

    /// Uniform draw from `[0, span)` (`span > 0`).
    pub fn below(&mut self, span: u128) -> u128 {
        self.next_u128() % span
    }
}

/// A source of random values of one type.
pub trait Strategy {
    /// The generated value type.
    type Value;
    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! int_strategies {
    ($wide:ty; $($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                // Span/offset arithmetic in a 128-bit type of matching
                // signedness: negative starts must not overflow.
                let span = ((self.end as $wide).wrapping_sub(self.start as $wide)) as u128;
                ((self.start as $wide).wrapping_add(rng.below(span) as $wide)) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span =
                    ((hi as $wide).wrapping_sub(lo as $wide) as u128).wrapping_add(1);
                if span == 0 {
                    // Full 128-bit domain: every draw is in range.
                    return rng.next_u128() as $t;
                }
                ((lo as $wide).wrapping_add(rng.below(span) as $wide)) as $t
            }
        }
    )*};
}
int_strategies!(u128; u8, u16, u32, u64, u128, usize);
int_strategies!(i128; i8, i16, i32, i64);

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u128() as $t
            }
        }
    )*};
}
int_arbitrary!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy for [`Arbitrary`] types; built by [`any`].
pub struct Any<T>(PhantomData<T>);

/// The unconstrained strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! tuple_strategies {
    ($(($($n:ident $i:tt),+))*) => {$(
        impl<$($n: Strategy),+> Strategy for ($($n,)+) {
            type Value = ($($n::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.sample(rng),)+)
            }
        }
    )*};
}
tuple_strategies! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Element-count bounds for [`vec`](fn@vec): `min..=max`.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        /// Minimum length (inclusive).
        pub min: usize,
        /// Maximum length (inclusive).
        pub max: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    /// Strategy producing `Vec`s of another strategy's values.
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// `Vec` strategy with element strategy `elem` and length in `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min + 1) as u128;
            let len = self.size.min + rng.below(span) as usize;
            (0..len).map(|_| self.elem.sample(rng)).collect()
        }
    }
}

/// The names almost every property test wants.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, proptest, Arbitrary, ProptestConfig, Strategy,
        TestCaseError,
    };
}

/// Asserts a condition inside a `proptest!` body, failing the case (with
/// the case number reported) rather than unwinding immediately.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (lhs, rhs) = (&$a, &$b);
        if !(*lhs == *rhs) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` != `{:?}`",
                lhs, rhs
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$a, &$b);
        if !(*lhs == *rhs) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` != `{:?}`: {}",
                lhs,
                rhs,
                format!($($fmt)+)
            )));
        }
    }};
}

/// Defines property tests: each `fn name(pat in strategy, ..) { body }`
/// becomes a `#[test]` running `body` over sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr) $( $(#[$meta:meta])* fn $name:ident ( $( $pat:pat in $strat:expr ),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut __proptest_rng =
                    $crate::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
                for __proptest_case in 0..config.cases {
                    $( let $pat = $crate::Strategy::sample(&($strat), &mut __proptest_rng); )+
                    #[allow(clippy::redundant_closure_call)]
                    let __proptest_outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (move || {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(e) = __proptest_outcome {
                        panic!(
                            "proptest {} failed at case {}/{}: {}",
                            stringify!($name),
                            __proptest_case + 1,
                            config.cases,
                            e
                        );
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(v in 10u64..20, w in 1u16..=3) {
            prop_assert!((10..20).contains(&v));
            prop_assert!((1..=3).contains(&w));
        }

        #[test]
        fn vecs_respect_size(xs in crate::collection::vec(any::<u8>(), 2..5)) {
            prop_assert!(xs.len() >= 2 && xs.len() < 5, "len {}", xs.len());
        }

        #[test]
        fn tuples_sample_elementwise(t in (0u8..4, 100u64..200)) {
            prop_assert!(t.0 < 4);
            prop_assert_eq!(t.1 / 100, 1);
        }

        #[test]
        fn signed_ranges_with_negative_start(v in -5i32..5, w in -3i64..=3) {
            prop_assert!((-5..5).contains(&v));
            prop_assert!((-3..=3).contains(&w));
        }
    }

    #[test]
    fn full_domain_inclusive_range_does_not_overflow() {
        let mut rng = crate::TestRng::for_test("full-domain");
        let _ = crate::Strategy::sample(&(0u128..=u128::MAX), &mut rng);
        let _ = crate::Strategy::sample(&(i64::MIN..i64::MAX), &mut rng);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]
        #[test]
        fn config_header_parses(x in any::<u32>()) {
            let _ = x;
        }
    }

    #[test]
    fn deterministic_per_test_name() {
        let mut a = crate::TestRng::for_test("a::b");
        let mut b = crate::TestRng::for_test("a::b");
        let mut c = crate::TestRng::for_test("a::c");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }
}
