//! Arbitrary-width unsigned words up to 512 bits.
//!
//! The Emu paper (§3.2(iv)) notes that the largest primitive in C# is the
//! 64-bit word, while high-performance network datapaths need much wider
//! I/O busses (the NetFPGA SUME reference pipeline is 256 bits wide). Emu
//! therefore defines user types for larger words with overloads for all
//! arithmetic operators. [`Bits`] is that type here: the dynamic-width
//! value representation used across the IR interpreter and the RTL
//! simulator.

use std::fmt;

/// Maximum supported width in bits.
pub const MAX_WIDTH: u16 = 512;

/// Number of 64-bit limbs backing a [`Bits`] value.
const LIMBS: usize = (MAX_WIDTH as usize) / 64;

/// An unsigned integer value with an explicit bit width in `1..=512`.
///
/// All arithmetic is modular in the value's width (hardware semantics:
/// results are truncated to the destination register width). Unused high
/// bits are always zero — this invariant is maintained by every operation.
///
/// # Examples
///
/// ```
/// use emu_types::Bits;
///
/// let a = Bits::from_u64(0xffff_ffff, 32);
/// let b = Bits::from_u64(1, 32);
/// assert_eq!(a.wrapping_add(&b).to_u64(), 0); // modular in 32 bits
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bits {
    width: u16,
    limbs: [u64; LIMBS],
}

impl Bits {
    /// Creates an all-zero value of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds [`MAX_WIDTH`].
    #[inline]
    pub fn zero(width: u16) -> Self {
        assert!((1..=MAX_WIDTH).contains(&width), "invalid width {width}");
        Bits {
            width,
            limbs: [0; LIMBS],
        }
    }

    /// Creates a value of the given width holding `1`.
    #[inline]
    pub fn one(width: u16) -> Self {
        Bits::from_u64(1, width)
    }

    /// Creates a value of the given width from a `u64`, truncating if needed.
    #[inline]
    pub fn from_u64(v: u64, width: u16) -> Self {
        let mut b = Bits::zero(width);
        b.limbs[0] = v;
        b.normalize();
        b
    }

    /// Creates a value of the given width from a `u128`, truncating if needed.
    #[inline]
    pub fn from_u128(v: u128, width: u16) -> Self {
        let mut b = Bits::zero(width);
        b.limbs[0] = v as u64;
        b.limbs[1] = (v >> 64) as u64;
        b.normalize();
        b
    }

    /// Creates a value of the given width from little-endian 64-bit
    /// limbs (the layout [`Bits::limbs`] exposes), zero-extending a short
    /// slice and truncating to `width`.
    ///
    /// # Panics
    ///
    /// Panics if `limbs` is longer than the backing store
    /// ([`MAX_WIDTH`]` / 64` limbs) or `width` is invalid.
    #[inline]
    pub fn from_limbs(limbs: &[u64], width: u16) -> Self {
        let mut b = Bits::zero(width);
        b.limbs[..limbs.len()].copy_from_slice(limbs);
        b.normalize();
        b
    }

    /// Creates a value from a boolean, with width 1.
    #[inline]
    pub fn from_bool(v: bool) -> Self {
        Bits::from_u64(u64::from(v), 1)
    }

    /// Creates a value of width `8 * bytes.len()` from big-endian bytes
    /// (network byte order, the natural order for packet fields).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is empty or longer than 64 bytes.
    pub fn from_be_bytes(bytes: &[u8]) -> Self {
        assert!(!bytes.is_empty() && bytes.len() <= 64, "bad byte length");
        let width = (bytes.len() * 8) as u16;
        let mut b = Bits::zero(width);
        for (i, &byte) in bytes.iter().rev().enumerate() {
            b.limbs[i / 8] |= u64::from(byte) << ((i % 8) * 8);
        }
        b
    }

    /// Returns the value as big-endian bytes (`width/8` rounded up).
    pub fn to_be_bytes(&self) -> Vec<u8> {
        let nbytes = usize::from(self.width).div_ceil(8);
        let mut out = vec![0u8; nbytes];
        for i in 0..nbytes {
            let byte = (self.limbs[i / 8] >> ((i % 8) * 8)) as u8;
            out[nbytes - 1 - i] = byte;
        }
        out
    }

    /// Width of the value in bits.
    #[inline]
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Low 64 bits of the value.
    #[inline]
    pub fn to_u64(&self) -> u64 {
        self.limbs[0]
    }

    /// Low 128 bits of the value.
    #[inline]
    pub fn to_u128(&self) -> u128 {
        u128::from(self.limbs[0]) | (u128::from(self.limbs[1]) << 64)
    }

    /// Interprets the value as a boolean (true iff non-zero).
    #[inline]
    pub fn to_bool(&self) -> bool {
        !self.is_zero()
    }

    /// Returns true iff the value is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// Raw limbs (little-endian 64-bit words). Used by the RTL simulator's
    /// trace dump.
    #[inline]
    pub fn limbs(&self) -> &[u64; LIMBS] {
        &self.limbs
    }

    /// Masks off bits above `width`, restoring the representation invariant.
    #[inline]
    fn normalize(&mut self) {
        let w = usize::from(self.width);
        for (i, limb) in self.limbs.iter_mut().enumerate() {
            let lo = i * 64;
            if lo >= w {
                *limb = 0;
            } else if w - lo < 64 {
                *limb &= (1u64 << (w - lo)) - 1;
            }
        }
    }

    /// Returns a copy resized to `width` (zero-extend or truncate).
    pub fn resize(&self, width: u16) -> Self {
        let mut b = self.clone();
        b.width = width;
        assert!((1..=MAX_WIDTH).contains(&width), "invalid width {width}");
        b.normalize();
        b
    }

    /// Returns bit `i` (false if `i >= width`).
    #[inline]
    pub fn bit(&self, i: u16) -> bool {
        if i >= self.width {
            return false;
        }
        let i = usize::from(i);
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn set_bit(&mut self, i: u16, v: bool) {
        assert!(i < self.width, "bit index {i} out of range");
        let i = usize::from(i);
        if v {
            self.limbs[i / 64] |= 1u64 << (i % 64);
        } else {
            self.limbs[i / 64] &= !(1u64 << (i % 64));
        }
    }

    /// Extracts bits `hi..=lo` (inclusive, `hi >= lo`) as a new value of
    /// width `hi - lo + 1`. Mirrors Verilog's `x[hi:lo]`.
    ///
    /// # Panics
    ///
    /// Panics if `hi < lo` or `hi >= width`.
    pub fn slice(&self, hi: u16, lo: u16) -> Self {
        assert!(hi >= lo, "slice hi {hi} < lo {lo}");
        assert!(hi < self.width, "slice hi {hi} out of range");
        let out_w = hi - lo + 1;
        let shifted = self.shr(u32::from(lo));
        shifted.resize(out_w)
    }

    /// Concatenates `self` (high bits) with `low` (low bits).
    ///
    /// # Panics
    ///
    /// Panics if the combined width exceeds [`MAX_WIDTH`].
    pub fn concat(&self, low: &Bits) -> Self {
        let w = self.width + low.width;
        assert!(w <= MAX_WIDTH, "concat width {w} exceeds max");
        let mut hi = self.resize(w).shl(u32::from(low.width));
        let lo = low.resize(w);
        for i in 0..LIMBS {
            hi.limbs[i] |= lo.limbs[i];
        }
        hi
    }

    /// Modular addition in `self`'s width.
    pub fn wrapping_add(&self, rhs: &Bits) -> Self {
        let mut out = Bits::zero(self.width);
        let mut carry = 0u64;
        for i in 0..LIMBS {
            let (s1, c1) = self.limbs[i].overflowing_add(rhs.limbs[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            out.limbs[i] = s2;
            carry = u64::from(c1) + u64::from(c2);
        }
        out.normalize();
        out
    }

    /// Modular subtraction in `self`'s width.
    pub fn wrapping_sub(&self, rhs: &Bits) -> Self {
        let mut out = Bits::zero(self.width);
        let mut borrow = 0u64;
        for i in 0..LIMBS {
            let (d1, b1) = self.limbs[i].overflowing_sub(rhs.limbs[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.limbs[i] = d2;
            borrow = u64::from(b1) + u64::from(b2);
        }
        out.normalize();
        out
    }

    /// Modular multiplication (low `width` bits of the product).
    pub fn wrapping_mul(&self, rhs: &Bits) -> Self {
        let mut acc = [0u128; LIMBS + 1];
        for i in 0..LIMBS {
            if self.limbs[i] == 0 {
                continue;
            }
            for j in 0..LIMBS - i {
                let p = u128::from(self.limbs[i]) * u128::from(rhs.limbs[j]);
                let k = i + j;
                acc[k] += p & u128::from(u64::MAX);
                acc[k + 1] += p >> 64;
            }
        }
        let mut out = Bits::zero(self.width);
        let mut carry = 0u128;
        for (slot, &a) in out.limbs.iter_mut().zip(acc.iter()) {
            let v = a + carry;
            *slot = v as u64;
            carry = v >> 64;
        }
        out.normalize();
        out
    }

    /// Bitwise AND.
    pub fn and(&self, rhs: &Bits) -> Self {
        self.zip(rhs, |a, b| a & b)
    }

    /// Bitwise OR.
    pub fn or(&self, rhs: &Bits) -> Self {
        self.zip(rhs, |a, b| a | b)
    }

    /// Bitwise XOR.
    pub fn xor(&self, rhs: &Bits) -> Self {
        self.zip(rhs, |a, b| a ^ b)
    }

    /// Bitwise NOT (in `self`'s width).
    pub fn not(&self) -> Self {
        let mut out = Bits::zero(self.width);
        for i in 0..LIMBS {
            out.limbs[i] = !self.limbs[i];
        }
        out.normalize();
        out
    }

    fn zip(&self, rhs: &Bits, f: impl Fn(u64, u64) -> u64) -> Self {
        let mut out = Bits::zero(self.width);
        for i in 0..LIMBS {
            out.limbs[i] = f(self.limbs[i], rhs.limbs[i]);
        }
        out.normalize();
        out
    }

    /// Logical left shift (in `self`'s width). Shifts ≥ width yield zero.
    pub fn shl(&self, n: u32) -> Self {
        let mut out = Bits::zero(self.width);
        if n as usize >= LIMBS * 64 {
            return out;
        }
        let limb_shift = (n / 64) as usize;
        let bit_shift = n % 64;
        for i in (0..LIMBS).rev() {
            if i < limb_shift {
                break;
            }
            let mut v = self.limbs[i - limb_shift] << bit_shift;
            if bit_shift > 0 && i > limb_shift {
                v |= self.limbs[i - limb_shift - 1] >> (64 - bit_shift);
            }
            out.limbs[i] = v;
        }
        out.normalize();
        out
    }

    /// Logical right shift. Shifts ≥ width yield zero.
    pub fn shr(&self, n: u32) -> Self {
        let mut out = Bits::zero(self.width);
        if n as usize >= LIMBS * 64 {
            return out;
        }
        let limb_shift = (n / 64) as usize;
        let bit_shift = n % 64;
        for i in 0..LIMBS {
            if i + limb_shift >= LIMBS {
                break;
            }
            let mut v = self.limbs[i + limb_shift] >> bit_shift;
            if bit_shift > 0 && i + limb_shift + 1 < LIMBS {
                v |= self.limbs[i + limb_shift + 1] << (64 - bit_shift);
            }
            out.limbs[i] = v;
        }
        out.normalize();
        out
    }

    /// Unsigned comparison.
    pub fn cmp_u(&self, rhs: &Bits) -> std::cmp::Ordering {
        for i in (0..LIMBS).rev() {
            match self.limbs[i].cmp(&rhs.limbs[i]) {
                std::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        std::cmp::Ordering::Equal
    }

    /// Number of significant bits (position of highest set bit + 1; 0 for zero).
    pub fn significant_bits(&self) -> u16 {
        for i in (0..LIMBS).rev() {
            if self.limbs[i] != 0 {
                return (i * 64) as u16 + (64 - self.limbs[i].leading_zeros() as u16);
            }
        }
        0
    }

    /// Population count (number of set bits).
    pub fn count_ones(&self) -> u32 {
        self.limbs.iter().map(|l| l.count_ones()).sum()
    }
}

impl fmt::Debug for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Bits {
    /// Formats as `<width>'h<hex>`, Verilog style.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'h", self.width)?;
        let digits = usize::from(self.width).div_ceil(4);
        let mut started = false;
        for d in (0..digits).rev() {
            let nibble = (self.limbs[d / 16] >> ((d % 16) * 4)) & 0xf;
            if nibble != 0 || started || d == 0 {
                started = true;
                write!(f, "{nibble:x}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one() {
        assert!(Bits::zero(32).is_zero());
        assert_eq!(Bits::one(32).to_u64(), 1);
        assert_eq!(Bits::zero(512).width(), 512);
    }

    #[test]
    #[should_panic(expected = "invalid width")]
    fn zero_width_rejected() {
        let _ = Bits::zero(0);
    }

    #[test]
    #[should_panic(expected = "invalid width")]
    fn overwide_rejected() {
        let _ = Bits::zero(513);
    }

    #[test]
    fn from_u64_truncates() {
        assert_eq!(Bits::from_u64(0x1ff, 8).to_u64(), 0xff);
        assert_eq!(Bits::from_u64(u64::MAX, 1).to_u64(), 1);
    }

    #[test]
    fn from_limbs_zero_extends_and_truncates() {
        let wide = Bits::from_u128((0xabcd_u128 << 64) | 0x1234, 80);
        assert_eq!(Bits::from_limbs(&wide.limbs()[..2], 80), wide);
        assert_eq!(Bits::from_limbs(wide.limbs(), 80), wide);
        // A short slice zero-extends; bits above the width are dropped.
        assert_eq!(Bits::from_limbs(&[0x1234], 80).to_u128(), 0x1234);
        assert_eq!(Bits::from_limbs(&[0x1234, 0xabcd], 72), wide.resize(72));
        assert_eq!(Bits::from_limbs(&[u64::MAX], 8), Bits::from_u64(0xff, 8));
    }

    #[test]
    fn be_bytes_round_trip() {
        let b = Bits::from_be_bytes(&[0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(b.width(), 32);
        assert_eq!(b.to_u64(), 0xdead_beef);
        assert_eq!(b.to_be_bytes(), vec![0xde, 0xad, 0xbe, 0xef]);
    }

    #[test]
    fn be_bytes_wide() {
        let bytes: Vec<u8> = (0..64).collect();
        let b = Bits::from_be_bytes(&bytes);
        assert_eq!(b.width(), 512);
        assert_eq!(b.to_be_bytes(), bytes);
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = Bits::from_u128(u128::from(u64::MAX), 128);
        let b = Bits::one(128);
        assert_eq!(a.wrapping_add(&b).to_u128(), u128::from(u64::MAX) + 1);
    }

    #[test]
    fn add_wraps_at_width() {
        let a = Bits::from_u64(0xffff, 16);
        assert_eq!(a.wrapping_add(&Bits::one(16)).to_u64(), 0);
    }

    #[test]
    fn sub_borrows() {
        let a = Bits::from_u128(1u128 << 64, 128);
        let b = Bits::one(128);
        assert_eq!(a.wrapping_sub(&b).to_u128(), u64::MAX as u128);
    }

    #[test]
    fn sub_wraps_below_zero() {
        let a = Bits::zero(8);
        assert_eq!(a.wrapping_sub(&Bits::one(8)).to_u64(), 0xff);
    }

    #[test]
    fn mul_truncates_to_width() {
        let a = Bits::from_u64(0x1_0000, 32);
        assert_eq!(a.wrapping_mul(&a).to_u64(), 0); // 2^32 mod 2^32
        let b = Bits::from_u64(3, 32);
        let c = Bits::from_u64(7, 32);
        assert_eq!(b.wrapping_mul(&c).to_u64(), 21);
    }

    #[test]
    fn mul_wide() {
        let a = Bits::from_u128(u128::MAX, 256);
        let sq = a.wrapping_mul(&a);
        // (2^128 - 1)^2 = 2^256 - 2^129 + 1
        let expect = Bits::one(256)
            .shl(256)
            .wrapping_sub(&Bits::one(256).shl(129))
            .wrapping_add(&Bits::one(256));
        assert_eq!(sq, expect);
    }

    #[test]
    fn logic_ops() {
        let a = Bits::from_u64(0b1100, 4);
        let b = Bits::from_u64(0b1010, 4);
        assert_eq!(a.and(&b).to_u64(), 0b1000);
        assert_eq!(a.or(&b).to_u64(), 0b1110);
        assert_eq!(a.xor(&b).to_u64(), 0b0110);
        assert_eq!(a.not().to_u64(), 0b0011);
    }

    #[test]
    fn shifts() {
        let a = Bits::from_u64(1, 128);
        assert_eq!(a.shl(100).shr(100).to_u64(), 1);
        assert!(a.shl(127).bit(127));
        assert!(a.shl(128).is_zero());
        assert_eq!(a.shl(64).to_u128(), 1u128 << 64);
        assert!(Bits::from_u64(0xff, 8).shr(8).is_zero());
        // Shift far beyond the limb count must not panic and yields zero.
        assert!(a.shl(100_000).is_zero());
        assert!(a.shr(100_000).is_zero());
    }

    #[test]
    fn slice_matches_verilog_semantics() {
        let v = Bits::from_u64(0xabcd, 16);
        assert_eq!(v.slice(15, 8).to_u64(), 0xab);
        assert_eq!(v.slice(7, 0).to_u64(), 0xcd);
        assert_eq!(v.slice(11, 4).to_u64(), 0xbc);
        assert_eq!(v.slice(0, 0).width(), 1);
    }

    #[test]
    fn concat_is_slice_inverse() {
        let hi = Bits::from_u64(0xab, 8);
        let lo = Bits::from_u64(0xcd, 8);
        let c = hi.concat(&lo);
        assert_eq!(c.width(), 16);
        assert_eq!(c.to_u64(), 0xabcd);
        assert_eq!(c.slice(15, 8), hi);
        assert_eq!(c.slice(7, 0), lo);
    }

    #[test]
    fn bit_set_get() {
        let mut b = Bits::zero(65);
        b.set_bit(64, true);
        assert!(b.bit(64));
        assert_eq!(b.significant_bits(), 65);
        b.set_bit(64, false);
        assert!(b.is_zero());
    }

    #[test]
    fn compare_unsigned() {
        use std::cmp::Ordering;
        let a = Bits::from_u128(1u128 << 100, 128);
        let b = Bits::from_u64(u64::MAX, 128);
        assert_eq!(a.cmp_u(&b), Ordering::Greater);
        assert_eq!(b.cmp_u(&a), Ordering::Less);
        assert_eq!(a.cmp_u(&a), Ordering::Equal);
    }

    #[test]
    fn display_verilog_style() {
        assert_eq!(Bits::from_u64(0xbeef, 16).to_string(), "16'hbeef");
        assert_eq!(Bits::zero(8).to_string(), "8'h0");
        assert_eq!(Bits::from_u64(5, 3).to_string(), "3'h5");
    }

    #[test]
    fn count_ones_works() {
        assert_eq!(Bits::from_u64(0xf0f0, 16).count_ones(), 8);
        assert_eq!(Bits::zero(512).count_ones(), 0);
    }

    #[test]
    fn resize_zero_extends_and_truncates() {
        let a = Bits::from_u64(0x1ff, 16);
        assert_eq!(a.resize(8).to_u64(), 0xff);
        assert_eq!(a.resize(64).to_u64(), 0x1ff);
    }
}
