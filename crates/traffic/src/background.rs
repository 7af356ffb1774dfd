//! Background chatter: the ARP requests and ICMP echoes every real
//! Ethernet segment carries, regardless of which service is deployed.
//! Services that don't speak these protocols must drop them cleanly —
//! a switch floods/forwards them — so soak mixes always include a slice
//! of this generator.

use crate::TrafficGen;
use emu_types::wire::{self, Envelope, Payload, L4};
use emu_types::{Frame, Ipv4, MacAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// ARP/ICMP background traffic from a bounded pool of unicast hosts.
pub struct Background {
    rng: StdRng,
    in_ports: Vec<u8>,
    seq: u16,
}

impl Background {
    /// Number of distinct chattering hosts.
    pub(crate) const HOSTS: u64 = 32;

    /// Creates the stream; frames arrive on ports drawn from
    /// `in_ports`.
    pub fn new(seed: u64, in_ports: &[u8]) -> Self {
        assert!(!in_ports.is_empty());
        Background {
            rng: StdRng::seed_from_u64(seed ^ 0xb6_77e4),
            in_ports: in_ports.to_vec(),
            seq: 0,
        }
    }

    fn host_mac(i: u64) -> MacAddr {
        // Locally administered, unicast (bit 0 of the first octet clear).
        MacAddr::from_u64(0x02_00_00_00_b0_00 + i)
    }
}

impl TrafficGen for Background {
    fn name(&self) -> &'static str {
        "background"
    }

    fn next_frame(&mut self) -> Frame {
        let host = self.rng.gen_range(0u64..Self::HOSTS);
        let port = self.in_ports[self.rng.gen_range(0usize..self.in_ports.len())];
        let src_ip = Ipv4::new(10, 2, host as u8, 1);
        if self.rng.gen_bool(0.5) {
            let target = Ipv4::new(10, 2, self.rng.gen_range(0u8..32), 1);
            wire::arp_request(Self::host_mac(host), src_ip, target, port)
        } else {
            self.seq = self.seq.wrapping_add(1);
            let len = self.rng.gen_range(8usize..64);
            // The chattering host pings the echo responder of
            // `emu_services::icmp::echo_request_frame`.
            let env = Envelope {
                src_mac: Self::host_mac(host),
                dst_mac: MacAddr::from_u64(0x02_00_00_00_00_01),
                src: src_ip,
                dst: Ipv4::new(10, 0, 0, 2),
                ident: 0x1234,
                in_port: port,
            };
            let echo = L4::Echo {
                ident: 0x5678,
                seq: self.seq,
            };
            env.frame(echo, Payload::Ramp { first: 0, len })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::byte_at;
    use emu_types::proto::offset;

    #[test]
    fn chatter_is_arp_and_icmp_only_with_unicast_sources() {
        let mut g = Background::new(8, &[0, 1, 2, 3]);
        let (mut arp, mut icmp) = (0, 0);
        for _ in 0..400 {
            let f = g.next_frame();
            assert_eq!(f.src_mac().0[0] & 1, 0, "sources must be unicast");
            match f.ethertype() {
                emu_types::proto::ether_type::ARP => arp += 1,
                emu_types::proto::ether_type::IPV4 => {
                    assert_eq!(byte_at(&f, offset::IPV4_PROTO), 1, "ICMP only");
                    assert_eq!(crate::build::ipv4_csum_ok(&f), Some(true));
                    icmp += 1;
                }
                t => panic!("unexpected ethertype {t:#06x}"),
            }
        }
        assert!(arp > 100 && icmp > 100, "both kinds present: {arp}/{icmp}");
    }
}
