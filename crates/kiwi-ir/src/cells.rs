//! Width-typed array storage for [`crate::interp::MachineState`].
//!
//! The paper's dataplane contract (Figure 6) DMA-copies a frame into a
//! *byte array*, and §3.2(iv) brings in wide words only where the
//! datapath needs them. The machine state follows suit: an array is
//! stored in the narrowest host representation that holds its declared
//! element width, so the frame buffer is a plain byte slab the platform
//! driver can `memcpy` into and out of, and only arrays wider than a
//! machine word pay for [`Bits`] cells.

use crate::compile::mask_of;
use emu_types::Bits;

/// The contents of one program array, stored by the width class of its
/// **declared** element width:
///
/// | declared width | storage      | bytes per element           |
/// |----------------|--------------|-----------------------------|
/// | 1..=8          | `Vec<u8>`    | 1                           |
/// | 9..=64         | `Vec<u64>`   | 8                           |
/// | 65..=512       | `Vec<Bits>`  | 40, +64 heap past 256 bits  |
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
    U64(Vec<u64>),
    Wide(Vec<Bits>),
}

impl Cells {
    /// `len` zero elements of `width` bits each.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds [`emu_types::bits::MAX_WIDTH`]
    /// (program validation rejects such arrays before any state exists).
    pub fn zeroed(width: u16, len: usize) -> Self {
        let store = match width {
            1..=8 => Store::U8(vec![0; len]),
            9..=64 => Store::U64(vec![0; len]),
            _ => Store::Wide(vec![Bits::zero(width); len]),
        };
        Cells { width, store }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.store {
            Store::U8(d) => d.len(),
            Store::U64(d) => d.len(),
            Store::Wide(d) => d.len(),
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
            Store::U64(d) => d.get(i).map(|&v| Bits::from_u64(v, self.width)),
            Store::Wide(d) => d.get(i).cloned(),
        }
    }

    /// The low 64 bits of element `i` (the whole element for arrays up
    /// to 64 bits wide), or `None` when `i` is out of range.
    #[inline]
    pub fn get_u64(&self, i: usize) -> Option<u64> {
        match &self.store {
            Store::U8(d) => d.get(i).map(|&v| u64::from(v)),
            Store::U64(d) => d.get(i).copied(),
            Store::Wide(d) => d.get(i).map(Bits::to_u64),
        }
    }

    /// Stores `v`, zero-extended or truncated to the declared width, in
    /// element `i`. Returns `false` and stores nothing when `i` is out
    /// of range.
    #[inline]
    pub fn set(&mut self, i: usize, v: &Bits) -> bool {
        match &mut self.store {
            Store::Wide(d) => store_at(d, i, v.resize(self.width)),
            _ => self.set_u64(i, v.to_u64()),
        }
    }

    /// Stores `v` masked to the declared width in element `i`. Returns
    /// `false` and stores nothing when `i` is out of range.
    #[inline]
    pub fn set_u64(&mut self, i: usize, v: u64) -> bool {
        let mask = mask_of(self.width);
        match &mut self.store {
            Store::U8(d) => store_at(d, i, (v & mask) as u8),
            Store::U64(d) => store_at(d, i, v & mask),
            Store::Wide(d) => store_wide(d, i, v, self.width),
        }
    }

    /// The elements as a byte slab, for arrays of the `u8` class
    /// (declared width 1..=8); `None` otherwise.
    #[inline]
    pub fn bytes(&self) -> Option<&[u8]> {
        match &self.store {
            Store::U8(d) => Some(d),
            _ => None,
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

/// [`Cells::set_u64`] into an array wider than 64 bits, out of line: no
/// shipped service declares one, and inlined it kept `set_u64` itself
/// out of the compiled executor's store micro-ops.
#[cold]
#[inline(never)]
fn store_wide(d: &mut [Bits], i: usize, v: u64, width: u16) -> bool {
    store_at(d, i, Bits::from_u64(v, width))
}

/// `d[i] = v` when `i` is in range; says whether it was.
#[inline]
fn store_at<T>(d: &mut [T], i: usize, v: T) -> bool {
    match d.get_mut(i) {
        Some(slot) => {
            *slot = v;
            true
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_follows_declared_width() {
        for (width, class) in [
            (1, "u8"),
            (8, "u8"),
            (9, "u64"),
            (64, "u64"),
            (65, "wide"),
            (512, "wide"),
        ] {
            let c = Cells::zeroed(width, 4);
            let got = match c.store {
                Store::U8(_) => "u8",
                Store::U64(_) => "u64",
                Store::Wide(_) => "wide",
            };
            assert_eq!(got, class, "width {width}");
            assert_eq!((c.width(), c.len(), c.is_empty()), (width, 4, false));
            assert_eq!(c.bytes().is_some(), class == "u8", "width {width}");
        }
    }

    #[test]
    fn round_trip_masks_to_the_width_in_every_class() {
        for width in [1u16, 5, 8, 9, 24, 64, 65, 96, 512] {
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
            assert!(c.set(2, &Bits::from_u64(1, 1)));
            assert_eq!(c.get(2), Some(Bits::from_u64(1, width)));
            assert_eq!(c.get(2).unwrap().width(), width);

            // Untouched and out-of-range elements.
            assert_eq!(c.get(0), Some(Bits::zero(width)));
            assert_eq!((c.get(3), c.get_u64(3)), (None, None));
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
