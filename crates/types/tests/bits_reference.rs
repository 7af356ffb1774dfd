//! `Bits` against two references, across every width `1..=512`: native
//! `u128` arithmetic where the width allows it, and `Eight`, a frozen
//! copy of the original representation (a width plus eight 64-bit limbs
//! at every width, every operation over all eight). Whatever `Bits`
//! stores inside, every operation must agree with `Eight` on width,
//! value, `Display`, bytes, equality and comparison.
//!
//! Widths are drawn with weight on the limb and inline/spill boundaries
//! (64, 128, 256 and their neighbours); operands on mixed widths are
//! covered too, because the API allows them.

use emu_types::bits::{Bits, MAX_WIDTH};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::hash::{BuildHasher, RandomState};

/// The reference: `Bits` as it was first written, kept verbatim but for
/// names, and only ever used by this test.
mod eight {
    use std::fmt;

    const N: usize = 8;

    #[derive(Clone, PartialEq, Eq)]
    pub struct Eight {
        width: u16,
        pub words: [u64; N],
    }

    impl Eight {
        pub fn zero(width: u16) -> Self {
            assert!((1..=512).contains(&width), "invalid width {width}");
            Eight {
                width,
                words: [0; N],
            }
        }

        pub fn from_limbs(limbs: &[u64], width: u16) -> Self {
            let mut b = Eight::zero(width);
            b.words[..limbs.len()].copy_from_slice(limbs);
            b.normalize();
            b
        }

        pub fn from_be_bytes(bytes: &[u8]) -> Self {
            let width = (bytes.len() * 8) as u16;
            let mut b = Eight::zero(width);
            for (i, &byte) in bytes.iter().rev().enumerate() {
                b.words[i / 8] |= u64::from(byte) << ((i % 8) * 8);
            }
            b
        }

        pub fn to_be_bytes(&self) -> Vec<u8> {
            let nbytes = usize::from(self.width).div_ceil(8);
            let mut out = vec![0u8; nbytes];
            for i in 0..nbytes {
                out[nbytes - 1 - i] = (self.words[i / 8] >> ((i % 8) * 8)) as u8;
            }
            out
        }

        pub fn width(&self) -> u16 {
            self.width
        }

        pub fn is_zero(&self) -> bool {
            self.words.iter().all(|&l| l == 0)
        }

        fn normalize(&mut self) {
            let w = usize::from(self.width);
            for (i, limb) in self.words.iter_mut().enumerate() {
                let lo = i * 64;
                if lo >= w {
                    *limb = 0;
                } else if w - lo < 64 {
                    *limb &= (1u64 << (w - lo)) - 1;
                }
            }
        }

        pub fn resize(&self, width: u16) -> Self {
            let mut b = self.clone();
            b.width = width;
            assert!((1..=512).contains(&width), "invalid width {width}");
            b.normalize();
            b
        }

        pub fn bit(&self, i: u16) -> bool {
            if i >= self.width {
                return false;
            }
            let i = usize::from(i);
            (self.words[i / 64] >> (i % 64)) & 1 == 1
        }

        pub fn slice(&self, hi: u16, lo: u16) -> Self {
            assert!(hi >= lo && hi < self.width);
            self.shr(u32::from(lo)).resize(hi - lo + 1)
        }

        pub fn concat(&self, low: &Eight) -> Self {
            let w = self.width + low.width;
            assert!(w <= 512, "concat width {w} exceeds max");
            let mut hi = self.resize(w).shl(u32::from(low.width));
            let lo = low.resize(w);
            for i in 0..N {
                hi.words[i] |= lo.words[i];
            }
            hi
        }

        pub fn wrapping_add(&self, rhs: &Eight) -> Self {
            let mut out = Eight::zero(self.width);
            let mut carry = 0u64;
            for i in 0..N {
                let (s1, c1) = self.words[i].overflowing_add(rhs.words[i]);
                let (s2, c2) = s1.overflowing_add(carry);
                out.words[i] = s2;
                carry = u64::from(c1) + u64::from(c2);
            }
            out.normalize();
            out
        }

        pub fn wrapping_sub(&self, rhs: &Eight) -> Self {
            let mut out = Eight::zero(self.width);
            let mut borrow = 0u64;
            for i in 0..N {
                let (d1, b1) = self.words[i].overflowing_sub(rhs.words[i]);
                let (d2, b2) = d1.overflowing_sub(borrow);
                out.words[i] = d2;
                borrow = u64::from(b1) + u64::from(b2);
            }
            out.normalize();
            out
        }

        pub fn wrapping_mul(&self, rhs: &Eight) -> Self {
            let mut acc = [0u128; N + 1];
            for i in 0..N {
                if self.words[i] == 0 {
                    continue;
                }
                for j in 0..N - i {
                    let p = u128::from(self.words[i]) * u128::from(rhs.words[j]);
                    acc[i + j] += p & u128::from(u64::MAX);
                    acc[i + j + 1] += p >> 64;
                }
            }
            let mut out = Eight::zero(self.width);
            let mut carry = 0u128;
            for (slot, &a) in out.words.iter_mut().zip(acc.iter()) {
                let v = a + carry;
                *slot = v as u64;
                carry = v >> 64;
            }
            out.normalize();
            out
        }

        pub fn zip(&self, rhs: &Eight, f: impl Fn(u64, u64) -> u64) -> Self {
            let mut out = Eight::zero(self.width);
            for i in 0..N {
                out.words[i] = f(self.words[i], rhs.words[i]);
            }
            out.normalize();
            out
        }

        pub fn not(&self) -> Self {
            self.zip(self, |a, _| !a)
        }

        pub fn shl(&self, n: u32) -> Self {
            let mut out = Eight::zero(self.width);
            if n as usize >= N * 64 {
                return out;
            }
            let (limb_shift, bit_shift) = ((n / 64) as usize, n % 64);
            for i in (limb_shift..N).rev() {
                let mut v = self.words[i - limb_shift] << bit_shift;
                if bit_shift > 0 && i > limb_shift {
                    v |= self.words[i - limb_shift - 1] >> (64 - bit_shift);
                }
                out.words[i] = v;
            }
            out.normalize();
            out
        }

        pub fn shr(&self, n: u32) -> Self {
            let mut out = Eight::zero(self.width);
            if n as usize >= N * 64 {
                return out;
            }
            let (limb_shift, bit_shift) = ((n / 64) as usize, n % 64);
            for i in 0..N - limb_shift {
                let mut v = self.words[i + limb_shift] >> bit_shift;
                if bit_shift > 0 && i + limb_shift + 1 < N {
                    v |= self.words[i + limb_shift + 1] << (64 - bit_shift);
                }
                out.words[i] = v;
            }
            out.normalize();
            out
        }

        pub fn cmp_u(&self, rhs: &Eight) -> std::cmp::Ordering {
            for i in (0..N).rev() {
                match self.words[i].cmp(&rhs.words[i]) {
                    std::cmp::Ordering::Equal => continue,
                    ord => return ord,
                }
            }
            std::cmp::Ordering::Equal
        }
    }

    impl fmt::Display for Eight {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{}'h", self.width)?;
            let digits = usize::from(self.width).div_ceil(4);
            let mut started = false;
            for d in (0..digits).rev() {
                let nibble = (self.words[d / 16] >> ((d % 16) * 4)) & 0xf;
                if nibble != 0 || started || d == 0 {
                    started = true;
                    write!(f, "{nibble:x}")?;
                }
            }
            Ok(())
        }
    }
}

use eight::Eight;

/// Widths where a representation changes shape: limb edges and the
/// candidate inline capacities.
const EDGES: [u16; 14] = [
    1, 63, 64, 65, 127, 128, 129, 191, 192, 255, 256, 257, 511, 512,
];

/// Half the draws land on an edge, the rest anywhere in `1..=512`.
fn width(sel: u32, any: u16) -> u16 {
    if sel.is_multiple_of(2) {
        EDGES[(sel / 2) as usize % EDGES.len()]
    } else {
        any
    }
}

/// Eight limbs of a drawn value, shaped to reach carries, borrows and
/// the all-zero and all-ones edges as well as random words.
fn limbs(shape: u32, raw: &[u64]) -> Vec<u64> {
    match shape % 5 {
        0 => vec![u64::MAX; 8],
        1 => raw.iter().take(1).copied().collect(),
        2 => {
            let bit = raw[1] % 512;
            let mut v = vec![0; 8];
            v[(bit / 64) as usize] = 1 << (bit % 64);
            v
        }
        3 => vec![0; 8],
        _ => raw.to_vec(),
    }
}

/// Both representations of one drawn value.
fn pair(shape: u32, raw: &[u64], w: u16) -> (Bits, Eight) {
    let l = limbs(shape, raw);
    (Bits::from_limbs(&l, w), Eight::from_limbs(&l, w))
}

/// `b` and `r` hold the same width and value, seen through every
/// read-only accessor.
fn agree(b: &Bits, r: &Eight) -> Result<(), TestCaseError> {
    prop_assert_eq!(b.width(), r.width());
    let mut words = [0u64; 8];
    for (w, l) in words.iter_mut().zip(b.limbs().iter()) {
        *w = *l;
    }
    prop_assert_eq!(words, r.words, "{} vs {}", b, r);
    prop_assert_eq!(b.to_string(), r.to_string());
    prop_assert_eq!(format!("{b:?}"), r.to_string());
    prop_assert_eq!(b.to_be_bytes(), r.to_be_bytes());
    prop_assert_eq!(b.to_u64(), r.words[0]);
    prop_assert_eq!(
        b.to_u128(),
        u128::from(r.words[0]) | u128::from(r.words[1]) << 64
    );
    prop_assert_eq!(b.is_zero(), r.is_zero());
    prop_assert_eq!(b.to_bool(), !r.is_zero());
    Ok(())
}

fn config() -> ProptestConfig {
    ProptestConfig::with_cases(ProptestConfig::default().cases * 8)
}

fn mask(w: u16) -> u128 {
    if w >= 128 {
        u128::MAX
    } else {
        (1u128 << w) - 1
    }
}

proptest! {
    #![proptest_config(config())]

    #[test]
    fn arithmetic_and_logic_agree_with_the_reference(
        (sa, sb) in (0u32..1000, 0u32..1000),
        (wa, wb) in (1u16..=MAX_WIDTH, 1u16..=MAX_WIDTH),
        (ka, kb) in (0u32..1000, 0u32..1000),
        raw_a in proptest::collection::vec(any::<u64>(), 8),
        raw_b in proptest::collection::vec(any::<u64>(), 8),
        same in any::<bool>(),
    ) {
        let wa = width(sa, wa);
        // Half the pairs share a width, as `eval`'s operands do.
        let wb = if same { wa } else { width(sb, wb) };
        let (a, ra) = pair(ka, &raw_a, wa);
        let (b, rb) = pair(kb, &raw_b, wb);
        agree(&a, &ra)?;
        agree(&b, &rb)?;
        agree(&a.wrapping_add(&b), &ra.wrapping_add(&rb))?;
        agree(&a.wrapping_sub(&b), &ra.wrapping_sub(&rb))?;
        agree(&a.wrapping_mul(&b), &ra.wrapping_mul(&rb))?;
        agree(&a.and(&b), &ra.zip(&rb, |x, y| x & y))?;
        agree(&a.or(&b), &ra.zip(&rb, |x, y| x | y))?;
        agree(&a.xor(&b), &ra.zip(&rb, |x, y| x ^ y))?;
        agree(&a.not(), &ra.not())?;
        prop_assert_eq!(a.cmp_u(&b), ra.cmp_u(&rb));
        prop_assert_eq!(b.cmp_u(&a), rb.cmp_u(&ra));
        prop_assert_eq!(a.cmp_u(&a), Ordering::Equal);
        // Equality and hashing are width-and-value.
        prop_assert_eq!(a == b, ra == rb);
        let c = a.clone();
        prop_assert!(c == a);
        let h = RandomState::new();
        prop_assert_eq!(h.hash_one(&c), h.hash_one(&a));
        if wa + wb <= MAX_WIDTH {
            agree(&a.concat(&b), &ra.concat(&rb))?;
        }
    }

    #[test]
    fn shifts_slices_and_resizes_agree_with_the_reference(
        sa in 0u32..1000,
        wa in 1u16..=MAX_WIDTH,
        ka in 0u32..1000,
        raw in proptest::collection::vec(any::<u64>(), 8),
        (n, far) in (0u32..600, any::<bool>()),
        (sr, wr) in (0u32..1000, 1u16..=MAX_WIDTH),
        (x, y) in (any::<u16>(), any::<u16>()),
    ) {
        let w = width(sa, wa);
        let (a, ra) = pair(ka, &raw, w);
        let n = if far { n * 1000 } else { n };
        agree(&a.shl(n), &ra.shl(n))?;
        agree(&a.shr(n), &ra.shr(n))?;
        let wr = width(sr, wr);
        agree(&a.resize(wr), &ra.resize(wr))?;
        let lo = x % w;
        let hi = lo + y % (w - lo);
        agree(&a.slice(hi, lo), &ra.slice(hi, lo))?;
        for i in [lo, hi, x % 520, w, w.saturating_sub(1)] {
            prop_assert_eq!(a.bit(i), ra.bit(i), "bit {}", i);
        }
    }

    #[test]
    fn constructors_agree_with_the_reference(
        (sw, w) in (0u32..1000, 1u16..=MAX_WIDTH),
        raw in proptest::collection::vec(any::<u64>(), 0..=8),
        bytes in proptest::collection::vec(any::<u8>(), 1..=64),
    ) {
        let w = width(sw, w);
        agree(&Bits::from_limbs(&raw, w), &Eight::from_limbs(&raw, w))?;
        let v = u128::from(raw.first().copied().unwrap_or(7)) << 64 | 0x1234;
        agree(&Bits::from_u128(v, w), &Eight::from_limbs(&[v as u64, (v >> 64) as u64], w))?;
        agree(&Bits::from_u64(v as u64, w), &Eight::from_limbs(&[v as u64], w))?;
        agree(&Bits::zero(w), &Eight::zero(w))?;
        agree(&Bits::one(w), &Eight::from_limbs(&[1], w))?;
        agree(&Bits::from_be_bytes(&bytes), &Eight::from_be_bytes(&bytes))?;
        let b = Bits::from_be_bytes(&bytes);
        prop_assert_eq!(b.to_be_bytes(), bytes);
    }

    #[test]
    fn narrow_values_agree_with_u128(
        (sw, w) in (0u32..1000, 1u16..=128),
        (a, b) in (any::<u128>(), any::<u128>()),
        n in 0u32..200,
    ) {
        let w = if sw.is_multiple_of(2) { [1, 63, 64, 65, 127, 128][(sw / 2) as usize % 6] } else { w };
        let (a, b) = (a & mask(w), b & mask(w));
        let (ba, bb) = (Bits::from_u128(a, w), Bits::from_u128(b, w));
        prop_assert_eq!(ba.wrapping_add(&bb).to_u128(), a.wrapping_add(b) & mask(w));
        prop_assert_eq!(ba.wrapping_sub(&bb).to_u128(), a.wrapping_sub(b) & mask(w));
        prop_assert_eq!(ba.wrapping_mul(&bb).to_u128(), a.wrapping_mul(b) & mask(w));
        prop_assert_eq!(ba.and(&bb).to_u128(), a & b);
        prop_assert_eq!(ba.or(&bb).to_u128(), a | b);
        prop_assert_eq!(ba.xor(&bb).to_u128(), a ^ b);
        prop_assert_eq!(ba.not().to_u128(), !a & mask(w));
        prop_assert_eq!(ba.cmp_u(&bb), a.cmp(&b));
        let shl = if n >= 128 { 0 } else { (a << n) & mask(w) };
        let shr = if n >= 128 { 0 } else { a >> n };
        prop_assert_eq!(ba.shl(n).to_u128(), shl);
        prop_assert_eq!(ba.shr(n).to_u128(), shr);
        prop_assert_eq!(ba.is_zero(), a == 0);
        prop_assert_eq!(ba.to_u64(), a as u64);
    }
}
