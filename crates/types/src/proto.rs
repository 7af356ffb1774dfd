//! Protocol constants: EtherTypes, IP protocol numbers, well-known ports,
//! and header offset/length tables shared by all targets.
//!
//! These are the constants behind the paper's `EtherTypes.IPv4` style API
//! (Figure 2, line 2) and the fixed header layouts used by the protocol
//! wrappers (Figures 3 and 4).

/// EtherType values (Ethernet II framing).
pub mod ether_type {
    /// IPv4.
    pub const IPV4: u16 = 0x0800;
    /// ARP.
    pub const ARP: u16 = 0x0806;
    /// Emu direction packets (§3.5): an otherwise-unused experimental
    /// EtherType carrying CASP controller commands and replies.
    pub const DIRECTION: u16 = 0x88b5;
}

/// IP protocol numbers.
pub mod ip_proto {
    /// ICMP.
    pub const ICMP: u8 = 1;
    /// TCP.
    pub const TCP: u8 = 6;
    /// UDP.
    pub const UDP: u8 = 17;
}

/// TCP flag bits (low byte of the offset/flags word), used by the
/// tcp_ping service, the NAT tests, and the traffic generators.
pub mod tcp_flags {
    /// FIN.
    pub const FIN: u8 = 0x01;
    /// SYN.
    pub const SYN: u8 = 0x02;
    /// PSH.
    pub const PSH: u8 = 0x08;
    /// ACK.
    pub const ACK: u8 = 0x10;
}

/// Well-known UDP/TCP ports used by the paper's services.
pub mod port {
    /// DNS.
    pub const DNS: u16 = 53;
    /// Memcached (both ASCII and binary protocols).
    pub const MEMCACHED: u16 = 11211;
}

/// Fixed header offsets (bytes from start of frame) for untagged Ethernet II.
pub mod offset {
    /// Destination MAC.
    pub const ETH_DST: usize = 0;
    /// Source MAC.
    pub const ETH_SRC: usize = 6;
    /// EtherType.
    pub const ETH_TYPE: usize = 12;
    /// Start of the L3 payload.
    pub const L3: usize = 14;
    /// IPv4 header start (== L3 for untagged frames).
    pub const IPV4: usize = L3;
    /// IPv4 TTL.
    pub const IPV4_TTL: usize = IPV4 + 8;
    /// IPv4 protocol byte.
    pub const IPV4_PROTO: usize = IPV4 + 9;
    /// IPv4 header checksum.
    pub const IPV4_CSUM: usize = IPV4 + 10;
    /// IPv4 source address.
    pub const IPV4_SRC: usize = IPV4 + 12;
    /// IPv4 destination address.
    pub const IPV4_DST: usize = IPV4 + 16;
    /// Start of the L4 header assuming a 20-byte IPv4 header (IHL=5); the
    /// parsers recompute this from IHL for options-bearing packets.
    pub const L4: usize = IPV4 + 20;
}

/// Header lengths in bytes.
pub mod hdr_len {
    /// Minimal IPv4 header (IHL = 5).
    pub const IPV4: usize = 20;
    /// UDP header.
    pub const UDP: usize = 8;
    /// TCP header without options.
    pub const TCP: usize = 20;
    /// ICMP echo header.
    pub const ICMP_ECHO: usize = 8;
    /// ARP payload for IPv4-over-Ethernet.
    pub const ARP: usize = 28;
}

/// Ethernet frame size limits.
pub mod frame {
    /// Minimum frame size (without FCS).
    pub const MIN: usize = 60;
    /// Maximum standard frame (without FCS).
    pub const MAX: usize = 1514;
    /// Per-frame wire overhead beyond the frame bytes: preamble (7) +
    /// SFD (1) + FCS (4) + inter-frame gap (12) = 24 bytes... minus the FCS
    /// already counted in the 64-byte minimum frame on the wire. For throughput arithmetic we follow
    /// the convention of the paper's 59.52 Mpps figure: a 64-byte frame
    /// occupies 64 + 20 = 84 byte times on a 10G link.
    pub const WIRE_OVERHEAD: usize = 20;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_rate_arithmetic_matches_paper() {
        // Table 3 reports 59.52 Mpps for 64-byte packets across 4×10G.
        let frame_bits = (64 + frame::WIRE_OVERHEAD) * 8;
        let pps_per_port = 10_000_000_000f64 / frame_bits as f64;
        let total_mpps = 4.0 * pps_per_port / 1e6;
        assert!((total_mpps - 59.52).abs() < 0.01, "got {total_mpps}");
    }

    #[test]
    fn offsets_are_consistent() {
        assert_eq!(offset::L3, offset::ETH_TYPE + 2);
        assert_eq!(offset::L4, offset::L3 + hdr_len::IPV4);
        assert_eq!(offset::IPV4_DST + 4, offset::L4);
    }
}
