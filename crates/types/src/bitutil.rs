//! Byte-buffer field accessors in network byte order.
//!
//! Reproduces the `BitUtil` helpers of the Emu paper (Figure 4), which the
//! protocol wrappers use to give packet bit fields names and types:
//!
//! ```csharp
//! public uint DestinationIPAddress
//! { get { return BitUtil.Get32( ips, 0); }
//!   set { BitUtil.Set32(ref ips, 0, value); } }
//! ```
//!
//! All getters return `0`-padded values when the read would run past the
//! end of the buffer, and all setters ignore out-of-range writes; hardware
//! reads past the end of a frame buffer return zeroes rather than trapping,
//! and the software target must match the hardware target byte-for-byte
//! (§3.3: one codebase over heterogeneous targets).

/// Reads a big-endian `u8` at `off`.
pub fn get8(buf: &[u8], off: usize) -> u8 {
    buf.get(off).copied().unwrap_or(0)
}

/// Reads a big-endian `u16` at `off`.
pub fn get16(buf: &[u8], off: usize) -> u16 {
    (u16::from(get8(buf, off)) << 8) | u16::from(get8(buf, off + 1))
}

/// Reads a big-endian `u32` at `off`.
pub fn get32(buf: &[u8], off: usize) -> u32 {
    (u32::from(get16(buf, off)) << 16) | u32::from(get16(buf, off + 2))
}

/// Reads a big-endian 48-bit value (e.g. a MAC address) at `off`.
pub fn get48(buf: &[u8], off: usize) -> u64 {
    (u64::from(get16(buf, off)) << 32) | u64::from(get32(buf, off + 2))
}

/// Reads a big-endian `u64` at `off`.
pub fn get64(buf: &[u8], off: usize) -> u64 {
    (u64::from(get32(buf, off)) << 32) | u64::from(get32(buf, off + 4))
}

/// Writes a `u8` at `off`; out-of-range writes are ignored.
pub fn set8(buf: &mut [u8], off: usize, v: u8) {
    if let Some(slot) = buf.get_mut(off) {
        *slot = v;
    }
}

/// Writes a big-endian `u16` at `off`.
pub fn set16(buf: &mut [u8], off: usize, v: u16) {
    set8(buf, off, (v >> 8) as u8);
    set8(buf, off + 1, v as u8);
}

/// Writes a big-endian `u32` at `off`.
pub fn set32(buf: &mut [u8], off: usize, v: u32) {
    set16(buf, off, (v >> 16) as u16);
    set16(buf, off + 2, v as u16);
}

/// Writes a big-endian 48-bit value at `off` (low 48 bits of `v`).
pub fn set48(buf: &mut [u8], off: usize, v: u64) {
    set16(buf, off, (v >> 32) as u16);
    set32(buf, off + 2, v as u32);
}

/// Writes a big-endian `u64` at `off`.
pub fn set64(buf: &mut [u8], off: usize, v: u64) {
    set32(buf, off, (v >> 32) as u32);
    set32(buf, off + 4, v as u32);
}

/// Extracts the bit field `[hi:lo]` (inclusive, Verilog order) from `v`.
///
/// # Panics
///
/// Panics if `hi < lo` or `hi > 63`.
pub fn field(v: u64, hi: u32, lo: u32) -> u64 {
    assert!(hi >= lo && hi < 64, "bad field [{hi}:{lo}]");
    let w = hi - lo + 1;
    let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
    (v >> lo) & mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_round_trip() {
        let mut buf = [0u8; 16];
        set32(&mut buf, 4, 0xdead_beef);
        assert_eq!(get32(&buf, 4), 0xdead_beef);
        assert_eq!(get16(&buf, 4), 0xdead);
        assert_eq!(get8(&buf, 7), 0xef);
        set48(&mut buf, 0, 0x0011_2233_4455);
        assert_eq!(get48(&buf, 0), 0x0011_2233_4455);
        set64(&mut buf, 8, 0x0102_0304_0506_0708);
        assert_eq!(get64(&buf, 8), 0x0102_0304_0506_0708);
    }

    #[test]
    fn network_byte_order() {
        let mut buf = [0u8; 4];
        set32(&mut buf, 0, 0x0a00_0001); // 10.0.0.1
        assert_eq!(buf, [10, 0, 0, 1]);
    }

    #[test]
    fn out_of_range_reads_return_zero_padding() {
        let buf = [0xffu8; 2];
        assert_eq!(get32(&buf, 0), 0xffff_0000);
        assert_eq!(get16(&buf, 10), 0);
        assert_eq!(get64(&buf, 1), 0xff00_0000_0000_0000);
    }

    #[test]
    fn out_of_range_writes_ignored() {
        let mut buf = [0u8; 2];
        set32(&mut buf, 0, 0xaabb_ccdd);
        assert_eq!(buf, [0xaa, 0xbb]); // tail of the write fell off the end
        set16(&mut buf, 100, 0x1234); // fully out of range: no panic
        assert_eq!(buf, [0xaa, 0xbb]);
    }

    #[test]
    fn bit_fields() {
        let v = 0xdead_beefu64;
        assert_eq!(field(v, 31, 16), 0xdead);
        assert_eq!(field(v, 15, 0), 0xbeef);
        assert_eq!(field(v, 63, 0), v);
    }

    #[test]
    #[should_panic(expected = "bad field")]
    fn inverted_field_panics() {
        let _ = field(0, 3, 8);
    }
}
