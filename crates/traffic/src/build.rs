//! The general frame builders and checksum verifiers of
//! [`emu_types::wire`] under the path the generators and `benchmark/`
//! import them by, plus the one NAT-specific builder, [`reply_to`].

use emu_types::proto::{ip_proto, offset};
use emu_types::{bitutil, Frame, Ipv4};

pub use emu_types::proto::tcp_flags;
pub use emu_types::wire::{arp_request, byte_at, ipv4_csum_ok, l4_csum_ok, tcp_frame, udp_frame};

/// Builds the remote peer's answer to a NAT-translated outbound frame:
/// endpoints swapped, same protocol (a SYN-ACK echoing the translated
/// sequence number for TCP, a datagram carrying `payload` for UDP),
/// arriving on the external port 0.
pub fn reply_to(translated: &Frame, payload: &[u8]) -> Frame {
    let b = translated.bytes();
    let src = Ipv4(bitutil::get32(b, offset::IPV4_DST));
    let sport = bitutil::get16(b, offset::L4 + 2);
    let dst = Ipv4(bitutil::get32(b, offset::IPV4_SRC));
    let dport = bitutil::get16(b, offset::L4);
    let (dmac, smac) = (translated.src_mac(), translated.dst_mac());
    if byte_at(translated, offset::IPV4_PROTO) == ip_proto::TCP {
        tcp_frame(
            smac,
            dmac,
            src,
            sport,
            dst,
            dport,
            0x5eed_0001,
            bitutil::get32(b, offset::L4 + 4).wrapping_add(1),
            tcp_flags::SYN | tcp_flags::ACK,
            &[],
            0,
        )
    } else {
        udp_frame(smac, dmac, src, sport, dst, dport, payload, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emu_types::proto::ether_type;
    use emu_types::MacAddr;

    fn mac(x: u64) -> MacAddr {
        MacAddr::from_u64(x)
    }

    #[test]
    fn udp_frames_carry_valid_checksums() {
        let f = udp_frame(
            mac(0x11),
            mac(0x22),
            Ipv4::new(10, 0, 0, 1),
            4000,
            Ipv4::new(10, 0, 0, 2),
            53,
            b"payload!",
            1,
        );
        assert_eq!(ipv4_csum_ok(&f), Some(true));
        assert_eq!(l4_csum_ok(&f), Some(true));
    }

    #[test]
    fn tcp_frames_carry_valid_checksums() {
        let f = tcp_frame(
            mac(0x11),
            mac(0x22),
            Ipv4::new(192, 168, 0, 7),
            40000,
            Ipv4::new(192, 168, 0, 2),
            80,
            0xdead_beef,
            0,
            tcp_flags::SYN,
            &[],
            2,
        );
        assert_eq!(ipv4_csum_ok(&f), Some(true));
        assert_eq!(l4_csum_ok(&f), Some(true));
    }

    #[test]
    fn generated_syn_gets_answered_like_the_service_fixture() {
        // A SYN built here must be accepted by the tcp_ping service,
        // which verifies the full pseudo-header checksum in-core.
        use emu_core::Target;
        let svc = emu_services::tcp_ping();
        let mut engine = svc.engine(Target::Cpu).build().unwrap();
        let f = tcp_frame(
            mac(0x1),
            mac(0x2),
            Ipv4::new(10, 0, 0, 5),
            41000,
            Ipv4::new(10, 0, 0, 6),
            80,
            7,
            0,
            tcp_flags::SYN,
            &[],
            0,
        );
        let out = engine.process(&f).unwrap();
        assert_eq!(out.tx.len(), 1, "service rejected a generated SYN");
    }

    #[test]
    fn corrupting_a_byte_invalidates_the_checksum_helpers() {
        let mut f = udp_frame(
            mac(1),
            mac(2),
            Ipv4::new(1, 2, 3, 4),
            9,
            Ipv4::new(5, 6, 7, 8),
            10,
            b"xyz",
            0,
        );
        f.bytes_mut()[offset::IPV4_SRC] ^= 0xff;
        assert_eq!(ipv4_csum_ok(&f), Some(false));
        assert_eq!(l4_csum_ok(&f), Some(false));
    }

    #[test]
    fn arp_request_is_broadcast() {
        let f = arp_request(mac(0xa), Ipv4::new(10, 0, 0, 1), Ipv4::new(10, 0, 0, 2), 3);
        assert_eq!(f.ethertype(), ether_type::ARP);
        assert_eq!(f.dst_mac(), MacAddr::BROADCAST);
        assert_eq!(f.in_port, 3);
    }
}
