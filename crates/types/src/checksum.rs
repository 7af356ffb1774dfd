//! Internet checksum (RFC 1071) and incremental update (RFC 1624).
//!
//! Emu services that touch IPv4/ICMP/TCP/UDP must maintain checksums; the
//! paper's debugging walkthrough (§5.5) even hinges on a checksum bug found
//! with direction packets. These helpers are the software reference; the
//! IR-level checksum helpers in `emu-core` compute the same function as a
//! tree of 16-bit adds so that hardware and software targets agree exactly.

/// Running ones-complement sum used to build an Internet checksum.
///
/// # Examples
///
/// ```
/// use emu_types::checksum::Csum;
///
/// let mut c = Csum::new();
/// c.add_bytes(&[0x45, 0x00, 0x00, 0x1c]);
/// let sum = c.finish();
/// assert_ne!(sum, 0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Csum {
    acc: u32,
}

impl Csum {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Csum { acc: 0 }
    }

    /// Adds one big-endian 16-bit word.
    pub fn add_word(&mut self, w: u16) {
        self.acc += u32::from(w);
    }

    /// Adds a byte slice, padding an odd tail byte with zero per RFC 1071.
    pub fn add_bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(2);
        for c in &mut chunks {
            self.add_word(u16::from_be_bytes([c[0], c[1]]));
        }
        if let [last] = chunks.remainder() {
            self.add_word(u16::from_be_bytes([*last, 0]));
        }
    }

    /// Folds the accumulator and returns the ones-complement checksum.
    pub fn finish(self) -> u16 {
        let mut acc = self.acc;
        while acc >> 16 != 0 {
            acc = (acc & 0xffff) + (acc >> 16);
        }
        !(acc as u16)
    }
}

/// Computes the Internet checksum of `bytes` in one call.
pub fn internet_checksum(bytes: &[u8]) -> u16 {
    let mut c = Csum::new();
    c.add_bytes(bytes);
    c.finish()
}

/// Verifies a buffer whose checksum field is already in place: the folded
/// sum over the whole buffer must be zero.
pub fn verify(bytes: &[u8]) -> bool {
    internet_checksum(bytes) == 0
}

/// Incrementally updates checksum `old_csum` when a 16-bit word changes
/// from `old_word` to `new_word` (RFC 1624, eqn. 3: `HC' = ~(~HC + ~m + m')`).
pub fn update_word(old_csum: u16, old_word: u16, new_word: u16) -> u16 {
    let mut acc = u32::from(!old_csum) + u32::from(!old_word) + u32::from(new_word);
    while acc >> 16 != 0 {
        acc = (acc & 0xffff) + (acc >> 16);
    }
    !(acc as u16)
}

/// Incrementally updates a checksum for a 32-bit field change (e.g. an IPv4
/// address rewritten by NAT) by applying [`update_word`] to both halves.
pub fn update_u32(old_csum: u16, old: u32, new: u32) -> u16 {
    let c = update_word(old_csum, (old >> 16) as u16, (new >> 16) as u16);
    update_word(c, old as u16, new as u16)
}

/// Pearson's 8-bit hash with an explicit seed byte: the software model of
/// the hashing IP block, whose streaming mode shifts the seed in first
/// (Figure 5). The table is the permutation from Pearson's original paper
/// (CACM 1990), fixed here so hardware and software targets produce
/// identical digests.
pub fn pearson8_seeded(seed: u8, bytes: &[u8]) -> u8 {
    let mut h = PEARSON_TABLE[usize::from(seed)];
    for &b in bytes {
        h = PEARSON_TABLE[usize::from(h ^ b)];
    }
    h
}

/// Pearson's permutation table (a fixed permutation of 0..=255).
pub const PEARSON_TABLE: [u8; 256] = [
    98, 6, 85, 150, 36, 23, 112, 164, 135, 207, 169, 5, 26, 64, 165, 219, 61, 20, 68, 89, 130, 63,
    52, 102, 24, 229, 132, 245, 80, 216, 195, 115, 90, 168, 156, 203, 177, 120, 2, 190, 188, 7,
    100, 185, 174, 243, 162, 10, 237, 18, 253, 225, 8, 208, 172, 244, 255, 126, 101, 79, 145, 235,
    228, 121, 123, 251, 67, 250, 161, 0, 107, 97, 241, 111, 181, 82, 249, 33, 69, 55, 59, 153, 29,
    9, 213, 167, 84, 93, 30, 46, 94, 75, 151, 114, 73, 222, 197, 96, 210, 45, 16, 227, 248, 202,
    51, 152, 252, 125, 81, 206, 215, 186, 39, 158, 178, 187, 131, 136, 1, 49, 50, 17, 141, 91, 47,
    129, 60, 99, 154, 35, 86, 171, 105, 34, 38, 200, 147, 58, 77, 118, 173, 246, 76, 254, 133, 232,
    196, 144, 198, 124, 53, 4, 108, 74, 223, 234, 134, 230, 157, 139, 189, 205, 199, 128, 176, 19,
    211, 236, 127, 192, 231, 70, 233, 88, 146, 44, 183, 201, 22, 83, 13, 214, 116, 109, 159, 32,
    95, 226, 140, 220, 57, 12, 221, 31, 209, 182, 143, 92, 149, 184, 148, 62, 113, 65, 37, 27, 106,
    166, 3, 14, 204, 72, 21, 41, 56, 66, 28, 193, 40, 217, 25, 54, 179, 117, 238, 87, 240, 155,
    180, 170, 242, 212, 191, 163, 78, 218, 137, 194, 175, 110, 43, 119, 224, 71, 122, 142, 42, 160,
    104, 48, 247, 103, 15, 11, 138, 239,
];

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 1071 worked example: words 0x0001, 0xf203, 0xf4f5, 0xf6f7.
    #[test]
    fn rfc1071_example() {
        let bytes = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // Sum = 0x2ddf0, folded = 0xddf0 + 2 = 0xddf2, checksum = ~0xddf2.
        assert_eq!(internet_checksum(&bytes), 0x220d);
    }

    #[test]
    fn verify_with_embedded_checksum() {
        // A real IPv4 header (20 bytes) with a valid checksum.
        let mut hdr = [
            0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8,
            0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        let c = internet_checksum(&hdr);
        hdr[10] = (c >> 8) as u8;
        hdr[11] = c as u8;
        assert!(verify(&hdr));
        // Known value for this classic example header.
        assert_eq!(c, 0xb861);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(internet_checksum(&[0xab]), internet_checksum(&[0xab, 0x00]));
    }

    #[test]
    fn empty_buffer_checksum() {
        assert_eq!(internet_checksum(&[]), 0xffff);
    }

    #[test]
    fn incremental_update_matches_recompute() {
        let mut hdr = [
            0x45, 0x00, 0x00, 0x54, 0x12, 0x34, 0x40, 0x00, 0x40, 0x01, 0x00, 0x00, 0x0a, 0x00,
            0x00, 0x01, 0x0a, 0x00, 0x00, 0x02,
        ];
        let c0 = internet_checksum(&hdr);
        hdr[10] = (c0 >> 8) as u8;
        hdr[11] = c0 as u8;

        // Rewrite the source address (NAT) and update incrementally.
        let old_ip = 0x0a00_0001u32;
        let new_ip = 0xc0a8_0105u32;
        let c1 = update_u32(c0, old_ip, new_ip);

        hdr[12..16].copy_from_slice(&new_ip.to_be_bytes());
        hdr[10] = 0;
        hdr[11] = 0;
        let c1_ref = internet_checksum(&hdr);
        assert_eq!(c1, c1_ref);
    }

    #[test]
    fn update_word_identity() {
        // Replacing a word with itself must not change the checksum.
        let c = 0x1234;
        assert_eq!(update_word(c, 0xabcd, 0xabcd), c);
    }

    #[test]
    fn pearson_table_is_permutation() {
        let mut seen = [false; 256];
        for &v in PEARSON_TABLE.iter() {
            assert!(!seen[usize::from(v)], "duplicate {v}");
            seen[usize::from(v)] = true;
        }
    }

    #[test]
    fn pearson_deterministic_and_spreads() {
        let a = pearson8_seeded(0, b"hello");
        let b = pearson8_seeded(0, b"hello");
        let c = pearson8_seeded(0, b"hellp");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn pearson_seed_changes_digest() {
        assert_ne!(pearson8_seeded(1, b"key"), pearson8_seeded(2, b"key"));
        // The seed goes through the table once before the bytes.
        assert_eq!(pearson8_seeded(0, b"key"), {
            let h0 = PEARSON_TABLE[0];
            let mut h = h0;
            for &b in b"key" {
                h = PEARSON_TABLE[usize::from(h ^ b)];
            }
            h
        });
    }
}
