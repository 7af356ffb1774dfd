//! Width-typed array storage for [`crate::interp::MachineState`].
//!
//! The paper's dataplane contract (Figure 6) DMA-copies a frame into a
//! *byte array*, so an array of elements up to 8 bits is a byte slab the
//! platform driver can `memcpy` into and out of; every other array is a
//! slab of 64-bit limbs, as many per element as its width needs.

use crate::compile::mask_of;
use emu_types::Bits;
use std::ops::Range;

/// The contents of one program array, stored by the width class of its
/// **declared** element width:
///
/// | declared width | storage    | per element                          |
/// |----------------|------------|--------------------------------------|
/// | 1..=8          | `Vec<u8>`  | 1 byte                               |
/// | 9..=512        | `Vec<u64>` | `⌈width/64⌉` limbs, as [`Bits::limbs`] |
///
/// The class is fixed at construction from what the program declares;
/// the tree-walker, the compiled machine and the RTL FSM all read and
/// write arrays through this one type, so they share one representation
/// and `assert_eq!(a.arrays, b.arrays)` compares them directly.
///
/// **Masking invariant.** Every stored element is below `2^width`, the
/// invariant [`Bits`] keeps for its unused high bits. [`Cells::set`] and
/// [`Cells::set_u64`] mask the value themselves rather than trusting the
/// caller, and [`Cells::bytes_mut`] hands out raw bytes only when every
/// byte value is valid (width exactly 8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cells {
    width: u16,
    store: Store,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Store {
    U8(Vec<u8>),
    Limbs(Vec<u64>),
}

impl Cells {
    /// `len` zero elements of `width` bits each (`1..=512`: program
    /// validation rejects any other width before a state exists).
    pub(crate) fn zeroed(width: u16, len: usize) -> Self {
        let store = match width {
            1..=8 => Store::U8(vec![0; len]),
            _ => Store::Limbs(vec![0; len * limbs_of(width)]),
        };
        Cells { width, store }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.store {
            Store::U8(d) => d.len(),
            Store::Limbs(d) => d.len() / limbs_of(self.width),
        }
    }

    /// True for a zero-length array.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Declared element width in bits.
    #[inline]
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Element `i` as a [`Bits`] of the declared width, or `None` when
    /// `i` is out of range.
    #[inline]
    pub fn get(&self, i: usize) -> Option<Bits> {
        match &self.store {
            Store::U8(d) => d.get(i).map(|&v| Bits::from_u64(u64::from(v), self.width)),
            Store::Limbs(d) => Some(Bits::from_limbs(&d[run(d, self.width, i)?], self.width)),
        }
    }

    /// The low 64 bits of element `i` (the whole element for arrays up
    /// to 64 bits wide), or `None` when `i` is out of range.
    #[inline]
    pub(crate) fn get_u64(&self, i: usize) -> Option<u64> {
        match &self.store {
            Store::U8(d) => d.get(i).map(|&v| u64::from(v)),
            Store::Limbs(d) => low_limb(d, self.width, i),
        }
    }

    /// Stores `v`, zero-extended or truncated to the declared width, in
    /// element `i`. Returns `false` and stores nothing when `i` is out
    /// of range.
    #[inline]
    pub fn set(&mut self, i: usize, v: &Bits) -> bool {
        match &mut self.store {
            Store::U8(_) => self.set_u64(i, v.to_u64()),
            Store::Limbs(d) => store(d, self.width, i, v.limbs()),
        }
    }

    /// Stores `v` masked to the declared width in element `i`. Returns
    /// `false` and stores nothing when `i` is out of range.
    #[inline]
    pub fn set_u64(&mut self, i: usize, v: u64) -> bool {
        match &mut self.store {
            Store::U8(d) => d
                .get_mut(i)
                .map(|b| *b = (v & mask_of(self.width)) as u8)
                .is_some(),
            Store::Limbs(d) => store(d, self.width, i, &[v]),
        }
    }

    /// The elements as a byte slab, for arrays of the `u8` class
    /// (declared width 1..=8); `None` otherwise.
    #[inline]
    pub fn bytes(&self) -> Option<&[u8]> {
        match &self.store {
            Store::U8(d) => Some(d),
            Store::Limbs(_) => None,
        }
    }

    /// The elements as a writable byte slab, for arrays declared exactly
    /// 8 bits wide; `None` otherwise. Narrower `u8`-class arrays are
    /// refused because a raw byte write could break the masking
    /// invariant.
    #[inline]
    pub fn bytes_mut(&mut self) -> Option<&mut [u8]> {
        match &mut self.store {
            Store::U8(d) if self.width == 8 => Some(d),
            _ => None,
        }
    }
}

/// The limbs a value of `width` bits occupies: `⌈width/64⌉`.
#[inline]
pub(crate) fn limbs_of(width: u16) -> usize {
    usize::from(width).div_ceil(64)
}

/// Writes the value whose little-endian limbs are `limbs` into `run`
/// (`⌈width/64⌉` words), zero-extended or truncated to `width` bits:
/// the cold store of a value wider than 64 bits or of a limb slab.
#[inline(never)]
pub(crate) fn fit_limbs(run: &mut [u64], limbs: &[u64], width: u16) {
    for (k, w) in run.iter_mut().enumerate() {
        *w = limbs.get(k).copied().unwrap_or(0);
    }
    if let Some(top) = run.last_mut() {
        *top &= u64::MAX >> (width.wrapping_neg() & 63);
    }
}

/// The words of element `i` in a slab `d` of `width`-bit elements, or
/// `None` when `i` is out of range.
#[inline]
fn run(d: &[u64], width: u16, i: usize) -> Option<Range<usize>> {
    let n = limbs_of(width);
    let at = i.checked_mul(n).filter(|&at| at < d.len())?;
    Some(at..at + n)
}

// The limb slab's accessors, each `None` or `false` when `i` is out of
// range. They stay out of line and cold, so the compiled executor's
// array arms inline only the byte slab's, the one class the benchmark's
// services declare: inlined, or not cold, they slowed `l7-memcached`'s
// micro-op execution by 5-20 % (2-vCPU Xeon host).

/// The low limb of element `i`.
#[cold]
#[inline(never)]
fn low_limb(d: &[u64], width: u16, i: usize) -> Option<u64> {
    run(d, width, i).map(|r| d[r.start])
}

/// Stores the value whose limbs are `limbs` in element `i`.
#[cold]
#[inline(never)]
fn store(d: &mut [u64], width: u16, i: usize, limbs: &[u64]) -> bool {
    run(d, width, i)
        .map(|r| fit_limbs(&mut d[r], limbs, width))
        .is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_follows_declared_width() {
        for (width, class, stride) in [
            (1, "u8", 1),
            (8, "u8", 1),
            (9, "limbs", 1),
            (64, "limbs", 1),
            (65, "limbs", 2),
            (300, "limbs", 5),
            (512, "limbs", 8),
        ] {
            let c = Cells::zeroed(width, 4);
            let (got, words) = match &c.store {
                Store::U8(d) => ("u8", d.len()),
                Store::Limbs(d) => ("limbs", d.len()),
            };
            assert_eq!((got, words), (class, 4 * stride), "width {width}");
            assert_eq!((c.width(), c.len(), c.is_empty()), (width, 4, false));
            assert_eq!(c.bytes().is_some(), class == "u8", "width {width}");
        }
    }

    #[test]
    fn round_trip_masks_to_the_width_in_every_class() {
        for width in [1u16, 5, 8, 9, 24, 64, 65, 96, 128, 300, 512] {
            let mut c = Cells::zeroed(width, 3);
            let ones = Bits::zero(width).not();

            // set_u64 does not trust the caller: an all-ones word lands
            // as the width's low-64 mask.
            assert!(c.set_u64(1, u64::MAX));
            assert_eq!(c.get_u64(1), Some(ones.to_u64()), "width {width}");
            assert_eq!(c.get(1), Some(Bits::from_u64(u64::MAX, width)));

            // set truncates a wider value and zero-extends a narrower one.
            assert!(c.set(2, &Bits::zero(512).not()));
            assert_eq!(c.get(2), Some(ones.clone()), "width {width}");
            assert_eq!(c.get_u64(2), Some(ones.to_u64()), "width {width}");
            assert!(c.set(2, &Bits::from_u64(1, 1)));
            assert_eq!(c.get(2), Some(Bits::from_u64(1, width)));
            assert_eq!(c.get(2).unwrap().width(), width);

            // Untouched and out-of-range elements.
            assert_eq!(c.get(0), Some(Bits::zero(width)));
            assert_eq!((c.get(3), c.get_u64(3)), (None, None));
            assert_eq!(c.get_u64(usize::MAX), None);
            assert!(!c.set(3, &ones) && !c.set_u64(usize::MAX, 1));
            assert_eq!(c.len(), 3);
        }
    }

    #[test]
    fn byte_slab_is_writable_only_at_width_8() {
        let mut frame = Cells::zeroed(8, 4);
        frame.bytes_mut().unwrap().copy_from_slice(&[1, 2, 0xff, 4]);
        assert_eq!(frame.bytes(), Some(&[1, 2, 0xff, 4][..]));
        assert_eq!(frame.get(2), Some(Bits::from_u64(0xff, 8)));

        let mut nibbles = Cells::zeroed(4, 4);
        assert!(nibbles.bytes_mut().is_none());
        nibbles.set_u64(0, 0xab);
        assert_eq!(nibbles.bytes(), Some(&[0x0b, 0, 0, 0][..]));
        assert!(Cells::zeroed(16, 4).bytes_mut().is_none());
    }

    #[test]
    fn equality_is_by_width_and_contents() {
        let mut a = Cells::zeroed(24, 2);
        let mut b = Cells::zeroed(24, 2);
        assert_eq!(a, b);
        a.set_u64(1, 7);
        assert_ne!(a, b);
        // Values that differ only above the width are the same element.
        b.set_u64(1, 7 | 1 << 24);
        assert_eq!(a, b);
        assert_ne!(Cells::zeroed(24, 2), Cells::zeroed(25, 2));
        assert_ne!(Cells::zeroed(8, 2), Cells::zeroed(8, 3));
    }
}
