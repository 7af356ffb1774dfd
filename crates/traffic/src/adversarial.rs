//! Adversarial traffic: frames crafted to hit parser edges — truncated
//! headers, lying length fields, corrupt checksums, unknown EtherTypes,
//! oversize frames, plain garbage. The engine contract under this
//! stream is *drop or pass, never trap*: an adversarial frame may be
//! rejected (`EngineError::Oversize`) or processed to a drop, but a
//! `Trap` is always a bug (asserted by `tests/differential_props.rs`).
//!
//! Source MACs and 5-tuples come from small fixed pools so stateful
//! consumers (NAT tables, switch learning, checker models) stay
//! bounded, and source MACs are always unicast so learning switches
//! behave canonically.

use crate::build::{tcp_flags, tcp_frame, udp_frame};
use crate::TrafficGen;
use emu_types::proto::{ether_type, offset};
use emu_types::{bitutil, Frame, Ipv4, MacAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The adversarial frame generator.
pub struct Adversarial {
    rng: StdRng,
    in_ports: Vec<u8>,
}

impl Adversarial {
    /// Distinct source endpoints the corrupt-but-parseable variants
    /// draw from (bounds any state they might allocate downstream).
    pub const POOL: u16 = 16;

    /// Creates the stream; frames arrive on ports drawn from
    /// `in_ports`.
    pub fn new(seed: u64, in_ports: &[u8]) -> Self {
        assert!(!in_ports.is_empty());
        Adversarial {
            rng: StdRng::seed_from_u64(seed ^ 0xad_5a11),
            in_ports: in_ports.to_vec(),
        }
    }

    fn mac(i: u16) -> MacAddr {
        MacAddr::from_u64(0x02_00_00_00_ad_00 + u64::from(i))
    }

    fn port(&mut self) -> u8 {
        self.in_ports[self.rng.gen_range(0usize..self.in_ports.len())]
    }

    /// A well-formed pooled UDP frame to corrupt.
    fn pooled_udp(&mut self) -> Frame {
        let k = self.rng.gen_range(0u16..Self::POOL);
        let port = self.port();
        udp_frame(
            Self::mac(k),
            Self::mac(k ^ 1),
            Ipv4::new(172, 16, 0, (k % 8) as u8 + 1),
            30_000 + k,
            Ipv4::new(198, 51, 100, 7),
            4_321,
            b"adversarial-udp",
            port,
        )
    }
}

impl TrafficGen for Adversarial {
    fn name(&self) -> &'static str {
        "adversarial"
    }

    fn next_frame(&mut self) -> Frame {
        match self.rng.gen_range(0u8..8) {
            // Truncated IPv4: the EtherType promises a header the frame
            // doesn't carry (the padded tail reads as zeros in-core).
            0 => {
                let k = self.rng.gen_range(0u16..Self::POOL);
                let port = self.port();
                let mut f = Frame::ethernet(
                    Self::mac(k ^ 1),
                    Self::mac(k),
                    ether_type::IPV4,
                    &[0x45, 0x00, 0x00],
                );
                f.in_port = port;
                f
            }
            // Options-bearing / absurd IHL.
            1 => {
                let mut f = self.pooled_udp();
                f.bytes_mut()[offset::IPV4] = 0x4f;
                f
            }
            // Corrupt IP header checksum on an otherwise valid frame.
            2 => {
                let mut f = self.pooled_udp();
                f.bytes_mut()[offset::IPV4_CSUM] ^= 0x55;
                f
            }
            // TCP SYN whose checksum lies.
            3 => {
                let k = self.rng.gen_range(0u16..Self::POOL);
                let port = self.port();
                let mut f = tcp_frame(
                    Self::mac(k),
                    Self::mac(k ^ 1),
                    Ipv4::new(172, 16, 1, (k % 8) as u8 + 1),
                    31_000 + k,
                    Ipv4::new(198, 51, 100, 9),
                    80,
                    0x600d_c0de,
                    0,
                    tcp_flags::SYN,
                    &[],
                    port,
                );
                f.bytes_mut()[offset::L4 + 16] ^= 0x80;
                f
            }
            // Unknown EtherType.
            4 => {
                let k = self.rng.gen_range(0u16..Self::POOL);
                let port = self.port();
                let len = self.rng.gen_range(4usize..80);
                let payload: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
                let mut f = Frame::ethernet(Self::mac(k ^ 1), Self::mac(k), 0x4242, &payload);
                f.in_port = port;
                f
            }
            // Oversize: beyond every service's frame buffer (1536 B max
            // across the shipped services) — must reject, not trap.
            5 => {
                let len = self.rng.gen_range(1_545usize..1_900);
                let mut bytes = vec![0xee; len];
                bytes[..6].copy_from_slice(&Self::mac(1).octets());
                bytes[6..12].copy_from_slice(&Self::mac(0).octets());
                bitutil::set16(&mut bytes, offset::ETH_TYPE, ether_type::IPV4);
                let mut f = Frame::new(bytes);
                f.in_port = self.port();
                f
            }
            // Garbage body under sane unicast MACs.
            6 => {
                let k = self.rng.gen_range(0u16..Self::POOL);
                let port = self.port();
                let len = self.rng.gen_range(60usize..300);
                let mut bytes = vec![0u8; len];
                self.rng.fill(&mut bytes[..]);
                bytes[..6].copy_from_slice(&Self::mac(k ^ 1).octets());
                bytes[6..12].copy_from_slice(&Self::mac(k).octets());
                let mut f = Frame::new(bytes);
                f.in_port = port;
                f
            }
            // UDP length field lying (larger than the datagram).
            _ => {
                let mut f = self.pooled_udp();
                bitutil::set16(f.bytes_mut(), offset::L4 + 4, 0xfff0);
                f
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{byte_at, ipv4_csum_ok, l4_csum_ok};

    #[test]
    fn stream_contains_every_malformation() {
        let mut g = Adversarial::new(3, &[0, 1, 2, 3]);
        let mut saw = [false; 6];
        for _ in 0..500 {
            let f = g.next_frame();
            assert_eq!(f.src_mac().0[0] & 1, 0, "unicast sources only");
            if f.len() > 1_536 {
                saw[0] = true; // oversize
            }
            if f.ethertype() == 0x4242 {
                saw[1] = true; // wrong ethertype
            }
            if f.ethertype() == ether_type::IPV4 {
                if byte_at(&f, offset::IPV4) == 0x4f {
                    saw[2] = true; // options/IHL
                }
                if ipv4_csum_ok(&f) == Some(false) {
                    saw[3] = true; // bad IP csum
                }
                if l4_csum_ok(&f) == Some(false) {
                    saw[4] = true; // bad L4 csum
                }
                if f.len() == 60 && byte_at(&f, offset::IPV4 + 3) == 0 {
                    saw[5] = true; // truncated header
                }
            }
        }
        assert_eq!(saw, [true; 6], "missing variants: {saw:?}");
    }

    #[test]
    fn corrupt_but_parseable_variants_use_a_bounded_pool() {
        let mut g = Adversarial::new(7, &[1]);
        let tuples: std::collections::HashSet<(u32, u16)> = (0..2_000)
            .filter_map(|_| {
                let f = g.next_frame();
                let b = f.bytes();
                // Only translatable-looking frames allocate downstream
                // state; count their 5-tuples.
                (f.ethertype() == ether_type::IPV4
                    && byte_at(&f, offset::IPV4) == 0x45
                    && (byte_at(&f, offset::IPV4_PROTO) == 6
                        || byte_at(&f, offset::IPV4_PROTO) == 17)
                    && f.len() <= 1_536)
                    .then(|| {
                        (
                            bitutil::get32(b, offset::IPV4_SRC),
                            bitutil::get16(b, offset::L4),
                        )
                    })
            })
            .collect();
        assert!(
            tuples.len() <= 2 * usize::from(Adversarial::POOL) + 4,
            "{} flows is unbounded",
            tuples.len()
        );
    }
}
