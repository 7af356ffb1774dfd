//! Arbitrary-width unsigned words up to 512 bits.
//!
//! The Emu paper (§3.2(iv)) notes that the largest primitive in C# is the
//! 64-bit word, while high-performance network datapaths need much wider
//! I/O busses (the NetFPGA SUME reference pipeline is 256 bits wide). Emu
//! therefore defines user types for larger words with overloads for all
//! arithmetic operators. [`Bits`] is that type here: the dynamic-width
//! value representation used across the IR interpreter and the RTL
//! simulator.
//!
//! # Representation
//!
//! A value is its width plus little-endian 64-bit limbs:
//!
//! * a value of at most 256 bits is stored **inline**, in four limbs
//!   (40 bytes in all);
//! * a wider value **spills**: its limbs live in one heap block,
//!   allocated when the value is built, with limb 0 repeated inline.
//!
//! Almost every value a service holds fits one limb. The inline width is
//! 256 rather than 128 bits because of the DNS server's 208-bit query
//! key: spilled, every expression node over it allocates, which made a
//! query frame cost twice as much host time on a 2-vCPU Xeon host.
//!
//! Which of the two a value uses is a function of its width alone, so
//! the derived equality and hash are width-and-value. Limb 0 sits at the
//! same offset in both layouts, so reading a value's low 64 bits, the
//! executors' most frequent access, does not branch on the layout. Bits
//! above the width are always zero. An operation on values of at most
//! 128 bits is `u128` arithmetic; a wider one works on a copy of the
//! limbs on the stack.

use std::fmt;

/// Maximum supported width in bits.
pub const MAX_WIDTH: u16 = 512;

/// Widest value stored inline; a wider one spills to the heap.
const INLINE_BITS: u16 = 256;

/// Limbs of an inline value.
const INLINE: usize = INLINE_BITS as usize / 64;

/// Limbs of the widest value.
const MAX_LIMBS: usize = MAX_WIDTH as usize / 64;

/// A value's limbs zero-extended to [`MAX_WIDTH`]: the scratch an
/// operation on values wider than 128 bits computes on.
type Wide = [u64; MAX_LIMBS];

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
pub struct Bits(Repr);

/// The two layouts (see the module docs); the variant follows from the
/// width. `repr(u8)` lays each variant out as a C struct behind the tag,
/// which puts limb 0 at offset 8 in both.
#[derive(Clone, PartialEq, Eq, Hash)]
#[repr(u8)]
enum Repr {
    /// Width `1..=INLINE_BITS`; limbs above the width's are zero.
    Inline { width: u16, limbs: [u64; INLINE] },
    /// Wider: `lo` is limb 0, and the heap block holds every limb, zero
    /// above the width's.
    Spill {
        width: u16,
        lo: u64,
        limbs: Box<Wide>,
    },
}

/// Panics unless `width` is in `1..=MAX_WIDTH`.
#[inline]
fn check(width: u16) {
    assert!((1..=MAX_WIDTH).contains(&width), "invalid width {width}");
}

/// Limbs a value of `width` bits occupies.
#[inline]
fn n_limbs(width: u16) -> usize {
    usize::from(width).div_ceil(64)
}

/// Limb `i` of a value of `width` bits whose limb `i` is `v` before the
/// cut: all of a limb below the width's top one, the low bits of the top
/// one, nothing above it.
#[inline]
fn cut(width: u16, i: usize, v: u64) -> u64 {
    match usize::from(width).saturating_sub(64 * i) {
        0 => 0,
        r @ 1..64 => v & (u64::MAX >> (64 - r)),
        _ => v,
    }
}

/// `a << n` over the whole scratch (`n < MAX_WIDTH`).
fn shl_wide(a: &Wide, n: usize) -> Wide {
    let (q, r) = (n / 64, n % 64);
    let at = |i: usize| i.checked_sub(q).map_or(0, |j| a[j]);
    std::array::from_fn(|i| {
        let carry = if r == 0 || i == 0 {
            0
        } else {
            at(i - 1) >> (64 - r)
        };
        (at(i) << r) | carry
    })
}

/// `a >> n` over the whole scratch (`n < MAX_WIDTH`).
fn shr_wide(a: &Wide, n: usize) -> Wide {
    let (q, r) = (n / 64, n % 64);
    let at = |i: usize| a.get(i + q).copied().unwrap_or(0);
    std::array::from_fn(|i| {
        let carry = if r == 0 { 0 } else { at(i + 1) << (64 - r) };
        (at(i) >> r) | carry
    })
}

impl Bits {
    /// The value of `width` bits held in the front of `a`, cut to the
    /// width.
    #[inline]
    fn from_wide(width: u16, a: Wide) -> Self {
        check(width);
        let cut = |i: usize| cut(width, i, a[i]);
        if width > INLINE_BITS {
            return Bits::spill(width, std::array::from_fn(cut));
        }
        let limbs = std::array::from_fn(cut);
        Bits(Repr::Inline { width, limbs })
    }

    /// The spilled value of `width` bits whose limbs are `a`, built out
    /// of line so that the inline path stays small where it is inlined.
    #[cold]
    #[inline(never)]
    fn spill(width: u16, a: Wide) -> Self {
        Bits(Repr::Spill {
            width,
            lo: a[0],
            limbs: Box::new(a),
        })
    }

    /// The value of `width` (`1..=128`) holding `v` cut to the width:
    /// the fast path of everything that fits a `u128`.
    #[inline]
    fn narrow(width: u16, v: u128) -> Self {
        let v = v & (u128::MAX >> (128 - width));
        let mut limbs = [0; INLINE];
        limbs[0] = v as u64;
        limbs[1] = (v >> 64) as u64;
        Bits(Repr::Inline { width, limbs })
    }

    /// The value's limbs, zero-extended.
    #[inline]
    fn wide(&self) -> Wide {
        match &self.0 {
            Repr::Inline { limbs, .. } => {
                let mut a = [0; MAX_LIMBS];
                a[..INLINE].copy_from_slice(limbs);
                a
            }
            Repr::Spill { limbs, .. } => **limbs,
        }
    }

    /// Creates an all-zero value of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds [`MAX_WIDTH`].
    #[inline]
    pub fn zero(width: u16) -> Self {
        Bits::from_u64(0, width)
    }

    /// Creates a value of the given width holding `1`.
    #[inline]
    pub fn one(width: u16) -> Self {
        Bits::from_u64(1, width)
    }

    /// Creates a value of the given width from a `u64`, truncating if needed.
    #[inline]
    pub fn from_u64(v: u64, width: u16) -> Self {
        if (1..=64).contains(&width) {
            let mut limbs = [0; INLINE];
            limbs[0] = v & (u64::MAX >> (64 - width));
            return Bits(Repr::Inline { width, limbs });
        }
        Bits::from_u128(u128::from(v), width)
    }

    /// Creates a value of the given width from a `u128`, truncating if needed.
    ///
    /// Out of line: it is [`Bits::from_u64`]'s path past 64 bits, and
    /// inlined there it made every caller that builds a word larger (the
    /// compiled executor's observer hooks spilled its registers).
    #[inline(never)]
    pub fn from_u128(v: u128, width: u16) -> Self {
        if (1..=128).contains(&width) {
            return Bits::narrow(width, v);
        }
        Bits::from_limbs(&[v as u64, (v >> 64) as u64], width)
    }

    /// Creates a value of the given width from little-endian 64-bit
    /// limbs (the layout [`Bits::limbs`] exposes), zero-extending a short
    /// slice and truncating to `width`.
    ///
    /// One limb costs what [`Bits::from_u64`] costs, and a value of at
    /// most 256 bits is built in place: reading a register, signal or
    /// array element out of the machine state's words is this call.
    ///
    /// # Panics
    ///
    /// Panics if `limbs` is longer than [`MAX_WIDTH`]` / 64` or `width`
    /// is invalid.
    #[inline]
    pub fn from_limbs(limbs: &[u64], width: u16) -> Self {
        if let [v] = limbs {
            return Bits::from_u64(*v, width);
        }
        assert!(limbs.len() <= MAX_LIMBS, "too many limbs");
        if width <= INLINE_BITS {
            check(width);
            let limbs = std::array::from_fn(|i| cut(width, i, limbs.get(i).copied().unwrap_or(0)));
            return Bits(Repr::Inline { width, limbs });
        }
        let mut a = [0; MAX_LIMBS];
        a[..limbs.len()].copy_from_slice(limbs);
        Bits::from_wide(width, a)
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
        let mut a = [0; MAX_LIMBS];
        for (i, &byte) in bytes.iter().rev().enumerate() {
            a[i / 8] |= u64::from(byte) << ((i % 8) * 8);
        }
        Bits::from_wide((bytes.len() * 8) as u16, a)
    }

    /// Returns the value as big-endian bytes (`width/8` rounded up).
    pub fn to_be_bytes(&self) -> Vec<u8> {
        let nbytes = usize::from(self.width()).div_ceil(8);
        let limbs = self.limbs();
        (0..nbytes)
            .rev()
            .map(|i| (limbs[i / 8] >> ((i % 8) * 8)) as u8)
            .collect()
    }

    /// Width of the value in bits.
    #[inline]
    pub fn width(&self) -> u16 {
        match self.0 {
            Repr::Inline { width, .. } | Repr::Spill { width, .. } => width,
        }
    }

    /// Low 64 bits of the value.
    #[inline]
    pub fn to_u64(&self) -> u64 {
        match &self.0 {
            Repr::Inline { limbs, .. } => limbs[0],
            Repr::Spill { lo, .. } => *lo,
        }
    }

    /// Low 128 bits of the value.
    #[inline]
    pub fn to_u128(&self) -> u128 {
        let hi = match &self.0 {
            Repr::Inline { limbs, .. } => limbs[1],
            Repr::Spill { limbs, .. } => limbs[1],
        };
        u128::from(self.to_u64()) | (u128::from(hi) << 64)
    }

    /// Interprets the value as a boolean (true iff non-zero).
    #[inline]
    pub fn to_bool(&self) -> bool {
        !self.is_zero()
    }

    /// Returns true iff the value is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        match &self.0 {
            Repr::Inline { limbs, .. } => limbs.iter().fold(0, |a, l| a | l) == 0,
            Repr::Spill { limbs, .. } => limbs.iter().fold(0, |a, l| a | l) == 0,
        }
    }

    /// The `⌈width/64⌉` limbs the value occupies, little-endian 64-bit
    /// words (the layout [`Bits::from_limbs`] takes).
    #[inline]
    pub fn limbs(&self) -> &[u64] {
        match &self.0 {
            Repr::Inline { width, limbs } => &limbs[..n_limbs(*width)],
            Repr::Spill { width, limbs, .. } => &limbs[..n_limbs(*width)],
        }
    }

    /// Returns a copy resized to `width` (zero-extend or truncate).
    pub fn resize(&self, width: u16) -> Self {
        check(width);
        if width <= 128 {
            return Bits::narrow(width, self.to_u128());
        }
        Bits::from_wide(width, self.wide())
    }

    /// Returns bit `i` (false if `i >= width`).
    #[inline]
    pub fn bit(&self, i: u16) -> bool {
        i < self.width() && (self.limbs()[usize::from(i / 64)] >> (i % 64)) & 1 == 1
    }

    /// Extracts bits `hi..=lo` (inclusive, `hi >= lo`) as a new value of
    /// width `hi - lo + 1`. Mirrors Verilog's `x[hi:lo]`.
    ///
    /// # Panics
    ///
    /// Panics if `hi < lo` or `hi >= width`.
    pub fn slice(&self, hi: u16, lo: u16) -> Self {
        assert!(hi >= lo, "slice hi {hi} < lo {lo}");
        assert!(hi < self.width(), "slice hi {hi} out of range");
        let width = hi - lo + 1;
        if hi < 128 {
            return Bits::narrow(width, self.to_u128() >> lo);
        }
        Bits::from_wide(width, shr_wide(&self.wide(), usize::from(lo)))
    }

    /// Concatenates `self` (high bits) with `low` (low bits).
    ///
    /// # Panics
    ///
    /// Panics if the combined width exceeds [`MAX_WIDTH`].
    pub fn concat(&self, low: &Bits) -> Self {
        let (lw, w) = (low.width(), self.width() + low.width());
        assert!(w <= MAX_WIDTH, "concat width {w} exceeds max");
        if w <= 128 {
            return Bits::narrow(w, (self.to_u128() << lw) | low.to_u128());
        }
        let mut a = shl_wide(&self.wide(), usize::from(lw));
        for (x, y) in a.iter_mut().zip(low.wide()) {
            *x |= y;
        }
        Bits::from_wide(w, a)
    }

    /// Modular addition in `self`'s width.
    pub fn wrapping_add(&self, rhs: &Bits) -> Self {
        let w = self.width();
        if w <= 128 {
            return Bits::narrow(w, self.to_u128().wrapping_add(rhs.to_u128()));
        }
        let (mut a, b, mut carry) = (self.wide(), rhs.wide(), false);
        for (x, y) in a.iter_mut().zip(b) {
            let (s, c1) = x.overflowing_add(y);
            let (s, c2) = s.overflowing_add(u64::from(carry));
            (*x, carry) = (s, c1 | c2);
        }
        Bits::from_wide(w, a)
    }

    /// Modular subtraction in `self`'s width.
    pub fn wrapping_sub(&self, rhs: &Bits) -> Self {
        let w = self.width();
        if w <= 128 {
            return Bits::narrow(w, self.to_u128().wrapping_sub(rhs.to_u128()));
        }
        let (mut a, b, mut borrow) = (self.wide(), rhs.wide(), false);
        for (x, y) in a.iter_mut().zip(b) {
            let (d, b1) = x.overflowing_sub(y);
            let (d, b2) = d.overflowing_sub(u64::from(borrow));
            (*x, borrow) = (d, b1 | b2);
        }
        Bits::from_wide(w, a)
    }

    /// Modular multiplication (low `width` bits of the product).
    pub fn wrapping_mul(&self, rhs: &Bits) -> Self {
        let w = self.width();
        if w <= 128 {
            return Bits::narrow(w, self.to_u128().wrapping_mul(rhs.to_u128()));
        }
        // Schoolbook over the limbs of the result width only.
        let (a, b, n) = (self.wide(), rhs.wide(), n_limbs(w));
        let mut acc = [0; MAX_LIMBS];
        for i in 0..n {
            let mut carry = 0u128;
            for j in 0..n - i {
                let t = u128::from(a[i]) * u128::from(b[j]) + u128::from(acc[i + j]) + carry;
                acc[i + j] = t as u64;
                carry = t >> 64;
            }
        }
        Bits::from_wide(w, acc)
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
        self.zip(self, |a, _| !a)
    }

    /// `f` limb by limb over `self` and `rhs`, in `self`'s width.
    #[inline]
    fn zip(&self, rhs: &Bits, f: impl Fn(u64, u64) -> u64) -> Self {
        let w = self.width();
        if w <= 128 {
            let (x, y) = (self.to_u128(), rhs.to_u128());
            let hi = f((x >> 64) as u64, (y >> 64) as u64);
            return Bits::narrow(
                w,
                u128::from(f(x as u64, y as u64)) | (u128::from(hi) << 64),
            );
        }
        let (mut a, b) = (self.wide(), rhs.wide());
        for (x, y) in a.iter_mut().zip(b) {
            *x = f(*x, y);
        }
        Bits::from_wide(w, a)
    }

    /// Logical left shift (in `self`'s width). Shifts ≥ width yield zero.
    pub fn shl(&self, n: u32) -> Self {
        let w = self.width();
        if n >= u32::from(w) {
            return Bits::zero(w);
        }
        if w <= 128 {
            return Bits::narrow(w, self.to_u128() << n);
        }
        Bits::from_wide(w, shl_wide(&self.wide(), n as usize))
    }

    /// Logical right shift. Shifts ≥ width yield zero.
    pub fn shr(&self, n: u32) -> Self {
        let w = self.width();
        if n >= u32::from(w) {
            return Bits::zero(w);
        }
        if w <= 128 {
            return Bits::narrow(w, self.to_u128() >> n);
        }
        Bits::from_wide(w, shr_wide(&self.wide(), n as usize))
    }

    /// Unsigned comparison.
    pub fn cmp_u(&self, rhs: &Bits) -> std::cmp::Ordering {
        if self.width().max(rhs.width()) <= 128 {
            return self.to_u128().cmp(&rhs.to_u128());
        }
        self.wide().iter().rev().cmp(rhs.wide().iter().rev())
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
        write!(f, "{}'h", self.width())?;
        let digits = usize::from(self.width()).div_ceil(4);
        let mut started = false;
        for d in (0..digits).rev() {
            let nibble = (self.limbs()[d / 16] >> ((d % 16) * 4)) & 0xf;
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
    fn resize_zero_extends_and_truncates() {
        let a = Bits::from_u64(0x1ff, 16);
        assert_eq!(a.resize(8).to_u64(), 0xff);
        assert_eq!(a.resize(64).to_u64(), 0x1ff);
    }

    #[test]
    fn a_value_spills_past_inline_bits() {
        assert_eq!(std::mem::size_of::<Bits>(), 8 + 8 * INLINE);
        for w in [1, 63, 64, 65, 128, 129, 208, 256, 257, 511, 512] {
            let b = Bits::zero(w).not();
            assert_eq!(b.limbs().len(), usize::from(w).div_ceil(64), "width {w}");
            let inline = matches!(b.0, Repr::Inline { .. });
            assert_eq!(inline, w <= INLINE_BITS, "width {w}");
            assert_eq!(b.resize(512).resize(w), b, "width {w}");
            // One limb or up to four build in place, as a spill does.
            assert_eq!(
                Bits::from_limbs(&b.limbs()[..1], w),
                Bits::from_u64(u64::MAX, w)
            );
            assert_eq!(Bits::from_limbs(b.limbs(), w), b, "width {w}");
        }
    }
}
