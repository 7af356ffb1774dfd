//! The one wire vocabulary: every frame the host side sends is built
//! here from fields, and every L3/L4/L7 field the host side reads back
//! is decoded here.
//!
//! The paper's answer to "how do I get packet fields" is a library
//! written once and reused by every service on every target (§3.3,
//! Figures 3–4). `emu_core::proto` is that library for *programs*; this
//! module is its counterpart for everything around them — fixtures,
//! traffic generators, closed-loop clients, host-native reference
//! services, benches and tests:
//!
//! * **L2/L3** — [`l2_frame`] (a minimum-size frame between two
//!   stations), [`arp_request`], and [`ipv4_frame`], the one place an
//!   IPv4 header is laid out (IHL 5, DF, TTL 64, valid checksum) around
//!   an already-assembled L4 segment.
//! * **L4** — [`udp_segment`] / [`tcp_segment`] lay out the header with
//!   the checksum field zero (for UDP over IPv4 that means "absent");
//!   [`with_l4_checksum`] fills it in over the one pseudo-header sum.
//!   [`udp_frame`] / [`tcp_frame`] are the composed, always-checksummed
//!   forms the generators and clients use.
//! * **L7 payloads** — DNS [`dns_name`] / [`dns_query`], the
//!   memcached-over-UDP [`mc_request`] and its reply decoder
//!   [`reply_text`], ICMP [`echo_request`].
//! * **Decoding** — [`byte_at`], [`ipv4_csum_ok`], [`l4_csum_ok`] and
//!   [`reply_text`] take frames off a (simulated, possibly hostile)
//!   wire: every length field is checked against the bytes actually
//!   present, and the answer for a frame that lies is `None` or a
//!   clamped slice, never a panic.
//!
//! The `emu_services` fixture builders (`nat::udp_frame`,
//! `dns::query_frame`, …) are a few lines over these functions with
//! their endpoints fixed; their exact bytes, and the streams of every
//! `emu-traffic` generator and `emu-hosts` client, are pinned by
//! `tests/wire_golden.rs`.

use crate::checksum::{self, Csum};
use crate::proto::{ether_type, hdr_len, ip_proto, offset};
use crate::{bitutil, Frame, Ipv4, MacAddr};

/// Offset of the ASCII text in a memcached-over-UDP frame: past the
/// UDP header and the 8-byte memcached frame header.
const MC_TEXT: usize = offset::L4 + hdr_len::UDP + 8;

/// A minimum-size IPv4-typed Ethernet frame from station `src` to
/// station `dst` (MACs as integers) arriving on `in_port` — what a
/// learning switch needs and nothing more.
pub fn l2_frame(src: u64, dst: u64, in_port: u8) -> Frame {
    let mut f = Frame::ethernet(
        MacAddr::from_u64(dst),
        MacAddr::from_u64(src),
        ether_type::IPV4,
        &[0; 46],
    );
    f.in_port = in_port;
    f
}

/// A minimal IPv4 header (IHL 5, DF, TTL 64) with a valid checksum.
fn ipv4_header(src: Ipv4, dst: Ipv4, proto: u8, payload_len: usize, ident: u16) -> [u8; 20] {
    let mut h = [0u8; 20];
    h[0] = 0x45;
    bitutil::set16(&mut h, 2, (hdr_len::IPV4 + payload_len) as u16);
    bitutil::set16(&mut h, 4, ident);
    h[6] = 0x40;
    h[8] = 64;
    h[9] = proto;
    h[12..16].copy_from_slice(&src.octets());
    h[16..20].copy_from_slice(&dst.octets());
    let c = checksum::internet_checksum(&h);
    bitutil::set16(&mut h, 10, c);
    h
}

/// Internet checksum over an L4 segment plus its IPv4 pseudo-header.
fn l4_checksum(src: Ipv4, dst: Ipv4, proto: u8, segment: &[u8]) -> u16 {
    let mut c = Csum::new();
    c.add_bytes(&src.octets());
    c.add_bytes(&dst.octets());
    c.add_word(u16::from(proto));
    c.add_word(segment.len() as u16);
    c.add_bytes(segment);
    c.finish()
}

/// Builds an IPv4 frame around an already-assembled L4 `segment`
/// (header and payload, checksum as the caller left it).
#[allow(clippy::too_many_arguments)]
pub fn ipv4_frame(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src: Ipv4,
    dst: Ipv4,
    proto: u8,
    ident: u16,
    segment: &[u8],
    in_port: u8,
) -> Frame {
    let mut bytes = Vec::with_capacity(offset::L4 + segment.len());
    bytes.extend_from_slice(&dst_mac.octets());
    bytes.extend_from_slice(&src_mac.octets());
    bytes.extend_from_slice(&ether_type::IPV4.to_be_bytes());
    bytes.extend_from_slice(&ipv4_header(src, dst, proto, segment.len(), ident));
    bytes.extend_from_slice(segment);
    let mut f = Frame::new(bytes);
    f.in_port = in_port;
    f
}

/// A UDP header plus `payload`, checksum field zero — "absent" over
/// IPv4, which is what the DNS and memcached fixtures send.
pub fn udp_segment(sport: u16, dport: u16, payload: &[u8]) -> Vec<u8> {
    let mut seg = Vec::with_capacity(hdr_len::UDP + payload.len());
    seg.extend_from_slice(&sport.to_be_bytes());
    seg.extend_from_slice(&dport.to_be_bytes());
    seg.extend_from_slice(&((hdr_len::UDP + payload.len()) as u16).to_be_bytes());
    seg.extend_from_slice(&[0, 0]);
    seg.extend_from_slice(payload);
    seg
}

/// A TCP header (no options, window 0xffff) plus `payload`, checksum
/// field zero.
pub fn tcp_segment(
    sport: u16,
    dport: u16,
    seq: u32,
    ack: u32,
    flags: u8,
    payload: &[u8],
) -> Vec<u8> {
    let mut seg = Vec::with_capacity(hdr_len::TCP + payload.len());
    seg.extend_from_slice(&sport.to_be_bytes());
    seg.extend_from_slice(&dport.to_be_bytes());
    seg.extend_from_slice(&seq.to_be_bytes());
    seg.extend_from_slice(&ack.to_be_bytes());
    seg.extend_from_slice(&[5 << 4, flags, 0xff, 0xff, 0, 0, 0, 0]);
    seg.extend_from_slice(payload);
    seg
}

/// Fills in the checksum of a UDP or (with `ip_proto::TCP`) TCP
/// `segment` whose checksum field is zero; a computed UDP checksum of 0
/// is sent as 0xffff.
pub fn with_l4_checksum(src: Ipv4, dst: Ipv4, proto: u8, mut segment: Vec<u8>) -> Vec<u8> {
    let c = l4_checksum(src, dst, proto, &segment);
    if proto == ip_proto::TCP {
        bitutil::set16(&mut segment, 16, c);
    } else {
        bitutil::set16(&mut segment, 6, if c == 0 { 0xffff } else { c });
    }
    segment
}

/// Builds a complete UDP frame with valid IP and UDP checksums.
#[allow(clippy::too_many_arguments)]
pub fn udp_frame(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src: Ipv4,
    sport: u16,
    dst: Ipv4,
    dport: u16,
    payload: &[u8],
    in_port: u8,
) -> Frame {
    let seg = with_l4_checksum(src, dst, ip_proto::UDP, udp_segment(sport, dport, payload));
    ipv4_frame(
        src_mac,
        dst_mac,
        src,
        dst,
        ip_proto::UDP,
        sport ^ dport,
        &seg,
        in_port,
    )
}

/// Builds a complete TCP segment (no options) with valid IP and TCP
/// checksums.
#[allow(clippy::too_many_arguments)]
pub fn tcp_frame(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src: Ipv4,
    sport: u16,
    dst: Ipv4,
    dport: u16,
    seq: u32,
    ack: u32,
    flags: u8,
    payload: &[u8],
    in_port: u8,
) -> Frame {
    let seg = with_l4_checksum(
        src,
        dst,
        ip_proto::TCP,
        tcp_segment(sport, dport, seq, ack, flags, payload),
    );
    ipv4_frame(
        src_mac,
        dst_mac,
        src,
        dst,
        ip_proto::TCP,
        seq as u16,
        &seg,
        in_port,
    )
}

/// Builds an ARP who-has request, broadcast from `src_mac`.
pub fn arp_request(src_mac: MacAddr, src_ip: Ipv4, target: Ipv4, in_port: u8) -> Frame {
    let mut p = vec![
        0, 1, // htype ethernet
        8, 0, // ptype IPv4
        6, 4, // hlen, plen
        0, 1, // op request
    ];
    p.extend_from_slice(&src_mac.octets());
    p.extend_from_slice(&src_ip.octets());
    p.extend_from_slice(&[0; 6]);
    p.extend_from_slice(&target.octets());
    let mut f = Frame::ethernet(MacAddr::BROADCAST, src_mac, ether_type::ARP, &p);
    f.in_port = in_port;
    f
}

/// An ICMP echo request (type 8, code 0) carrying `payload`, with a
/// valid ICMP checksum — the L4 segment for [`ipv4_frame`].
pub fn echo_request(ident: u16, seq: u16, payload: &[u8]) -> Vec<u8> {
    let mut icmp = Vec::with_capacity(hdr_len::ICMP_ECHO + payload.len());
    icmp.extend_from_slice(&[8, 0, 0, 0]);
    icmp.extend_from_slice(&ident.to_be_bytes());
    icmp.extend_from_slice(&seq.to_be_bytes());
    icmp.extend_from_slice(payload);
    let c = checksum::internet_checksum(&icmp);
    bitutil::set16(&mut icmp, 2, c);
    icmp
}

/// Encodes a dotted name into DNS wire format (labels + terminal zero).
pub fn dns_name(name: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(name.len() + 2);
    for label in name.split('.').filter(|l| !l.is_empty()) {
        out.push(label.len() as u8);
        out.extend_from_slice(label.as_bytes());
    }
    out.push(0);
    out
}

/// A DNS query message: transaction `id`, RD set, one A/IN question for
/// `name`.
pub fn dns_query(name: &str, id: u16) -> Vec<u8> {
    let mut dns = Vec::with_capacity(12 + name.len() + 2 + 4);
    dns.extend_from_slice(&id.to_be_bytes());
    dns.extend_from_slice(&[0x01, 0x00]); // RD
    dns.extend_from_slice(&[0, 1, 0, 0, 0, 0, 0, 0]); // QDCOUNT = 1
    dns.extend_from_slice(&dns_name(name));
    dns.extend_from_slice(&[0, 1, 0, 1]); // QTYPE A, QCLASS IN
    dns
}

/// A memcached-over-UDP request datagram: the 8-byte frame header
/// (request `id`, sequence 0, one datagram, reserved) and the ASCII
/// `body`.
pub fn mc_request(body: &str, id: u16) -> Vec<u8> {
    let mut p = Vec::with_capacity(8 + body.len());
    p.extend_from_slice(&id.to_be_bytes());
    p.extend_from_slice(&[0, 0, 0, 1, 0, 0]);
    p.extend_from_slice(body.as_bytes());
    p
}

/// The ASCII portion of a memcached-over-UDP frame: from past the two
/// 8-byte headers to the end the UDP length claims, clamped to the
/// bytes the frame actually carries (empty when the length is too
/// short to reach the text at all).
pub fn reply_text(frame: &Frame) -> Vec<u8> {
    let b = frame.bytes();
    let udp_len = usize::from(bitutil::get16(b, offset::L4 + 4));
    let end = (offset::L4 + udp_len).min(b.len());
    b.get(MC_TEXT..end).unwrap_or_default().to_vec()
}

/// Reads the frame's byte at `i` the way a service core does: bytes past
/// the frame's end read as zero (the driver zero-fills the buffer up to
/// its write high-water mark — see `DataplaneDriver::load_frame`).
pub fn byte_at(frame: &Frame, i: usize) -> u8 {
    bitutil::get8(frame.bytes(), i)
}

/// Verifies the IPv4 header checksum; `None` when the frame is too short
/// to carry the claimed header.
pub fn ipv4_csum_ok(frame: &Frame) -> Option<bool> {
    let ihl = usize::from(byte_at(frame, offset::IPV4) & 0x0f) * 4;
    if ihl < hdr_len::IPV4 {
        return None;
    }
    let hdr = frame.bytes().get(offset::IPV4..offset::IPV4 + ihl)?;
    Some(checksum::verify(hdr))
}

/// Verifies the L4 checksum of an IHL-5 IPv4 TCP/UDP frame against the
/// pseudo-header; `None` when the lengths don't allow a safe
/// computation (lying length fields, truncation, another protocol). A
/// UDP checksum of 0 counts as valid/absent.
pub fn l4_csum_ok(frame: &Frame) -> Option<bool> {
    let b = frame.bytes();
    if byte_at(frame, offset::IPV4) != 0x45 {
        return None;
    }
    let proto = byte_at(frame, offset::IPV4_PROTO);
    let l4_min = match proto {
        ip_proto::TCP => hdr_len::TCP,
        ip_proto::UDP => hdr_len::UDP,
        _ => return None,
    };
    let total = usize::from(bitutil::get16(b, offset::IPV4 + 2));
    if total < hdr_len::IPV4 + l4_min {
        return None;
    }
    let seg = b.get(offset::L4..offset::L3 + total)?;
    if proto == ip_proto::UDP {
        if bitutil::get16(seg, 6) == 0 {
            return Some(true);
        }
        if usize::from(bitutil::get16(seg, 4)) != seg.len() {
            return None;
        }
    }
    let src = Ipv4(bitutil::get32(b, offset::IPV4_SRC));
    let dst = Ipv4(bitutil::get32(b, offset::IPV4_DST));
    Some(l4_checksum(src, dst, proto, seg) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(x: u64) -> MacAddr {
        MacAddr::from_u64(x)
    }

    #[test]
    fn ipv4_frame_lays_out_one_valid_header() {
        let seg = udp_segment(4000, 53, b"payload!");
        let f = ipv4_frame(
            mac(0x11),
            mac(0x22),
            Ipv4::new(10, 0, 0, 1),
            Ipv4::new(10, 0, 0, 2),
            ip_proto::UDP,
            0xbeef,
            &seg,
            3,
        );
        let b = f.bytes();
        assert_eq!((f.src_mac(), f.dst_mac()), (mac(0x11), mac(0x22)));
        assert_eq!(f.ethertype(), ether_type::IPV4);
        assert_eq!(f.in_port, 3);
        assert_eq!(&b[14..24], &[0x45, 0, 0, 36, 0xbe, 0xef, 0x40, 0, 64, 17]);
        assert_eq!(ipv4_csum_ok(&f), Some(true));
        // The segment went in as given: checksum field still absent.
        assert_eq!(&b[offset::L4..offset::L4 + seg.len()], &seg[..]);
        assert_eq!(l4_csum_ok(&f), Some(true));
    }

    #[test]
    fn checksummed_segments_verify_and_absent_ones_pass_through() {
        let (src, dst) = (Ipv4::new(1, 2, 3, 4), Ipv4::new(5, 6, 7, 8));
        let udp = with_l4_checksum(src, dst, ip_proto::UDP, udp_segment(9, 10, b"xyz"));
        assert_ne!(bitutil::get16(&udp, 6), 0);
        assert_eq!(l4_checksum(src, dst, ip_proto::UDP, &udp), 0);
        let tcp = with_l4_checksum(
            src,
            dst,
            ip_proto::TCP,
            tcp_segment(9, 10, 7, 0, crate::proto::tcp_flags::SYN, &[]),
        );
        assert_eq!(tcp.len(), 20);
        assert_eq!(l4_checksum(src, dst, ip_proto::TCP, &tcp), 0);
    }

    /// A valid frame drawn by `pick`: a UDP datagram carrying a
    /// memcached request (with its text), or a TCP segment, with a
    /// payload of any length up to 63 bytes, odd ones included.
    fn valid_frame(pick: &[u64]) -> (Frame, Option<Vec<u8>>) {
        let (src, dst) = (Ipv4(pick[6] as u32), Ipv4((pick[6] >> 32) as u32));
        let (sport, dport) = (pick[7] as u16, (pick[7] >> 16) as u16);
        let body: String = (0..pick[7] >> 32 & 63)
            .map(|k| char::from(b'a' + (k % 26) as u8))
            .collect();
        if pick[7] >> 48 & 1 == 0 {
            let text = format!("get {body}");
            let payload = mc_request(&text, pick[6] as u16);
            let f = udp_frame(mac(1), mac(2), src, sport, dst, dport, &payload, 0);
            (f, Some(text.into_bytes()))
        } else {
            let (seq, ack, flags) = (pick[6] as u32, (pick[6] >> 16) as u32, pick[7] as u8);
            let f = tcp_frame(
                mac(1),
                mac(2),
                src,
                sport,
                dst,
                dport,
                seq,
                ack,
                flags,
                body.as_bytes(),
                0,
            );
            (f, None)
        }
    }

    /// One mutation of `valid`, chosen and placed by `pick`: flipped
    /// bits, a truncation, or a piece of the frame spliced into it, over
    /// part of it, or a piece cut out of it.
    fn mutate(valid: &[u8], pick: &[u64]) -> Vec<u8> {
        let mut bytes = valid.to_vec();
        let at = |k: usize, n: usize| (pick[k % pick.len()] as usize) % n.max(1);
        match pick[0] % 3 {
            0 => {
                for k in 1..=1 + at(1, 8) {
                    let bit = at(k + 1, bytes.len() * 8);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
            }
            1 => bytes.truncate(at(1, bytes.len())),
            _ => {
                let src = at(1, valid.len());
                let piece = valid[src..src + at(2, valid.len() - src + 1)].to_vec();
                let dst = at(3, bytes.len() + 1);
                match pick[4] % 3 {
                    0 => drop(bytes.splice(dst..dst, piece)),
                    1 => {
                        let end = (dst + piece.len()).min(bytes.len());
                        drop(bytes.splice(dst..end, piece));
                    }
                    _ => drop(bytes.drain(dst..dst + at(5, bytes.len() - dst + 1))),
                }
            }
        }
        bytes
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1024))]

        /// The decoders take frames off a hostile wire: every frame
        /// `udp_frame` / `tcp_frame` builds verifies, and a damaged one
        /// gets an answer (`Some`, `None` or a clamped slice), never a
        /// panic, within a second.
        #[test]
        fn mutated_frames_decode_or_fail_cleanly(
            pick in proptest::collection::vec(proptest::prelude::any::<u64>(), 8..9)
        ) {
            let (valid, text) = valid_frame(&pick);
            proptest::prop_assert_eq!(ipv4_csum_ok(&valid), Some(true));
            proptest::prop_assert_eq!(l4_csum_ok(&valid), Some(true));
            if let Some(text) = text {
                proptest::prop_assert_eq!(reply_text(&valid), text);
            }
            let frame = Frame::new(mutate(valid.bytes(), &pick));
            let t = std::time::Instant::now();
            let _ = (reply_text(&frame), ipv4_csum_ok(&frame), l4_csum_ok(&frame));
            proptest::prop_assert!(t.elapsed() < std::time::Duration::from_secs(1));
        }
    }

    #[test]
    fn payload_codecs_lay_out_their_headers() {
        assert_eq!(dns_name("a.b"), [1, b'a', 1, b'b', 0]);
        assert_eq!(dns_name("trailing.dot."), dns_name("trailing.dot"));
        assert_eq!(dns_name(""), [0]);
        assert_eq!(
            dns_query("a.b", 0x1234),
            [0x12, 0x34, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, b'a', 1, b'b', 0, 0, 1, 0, 1]
        );
        assert_eq!(
            mc_request("get k\r\n", 0x0102),
            [1, 2, 0, 0, 0, 1, 0, 0, b'g', b'e', b't', b' ', b'k', b'\r', b'\n']
        );
        let ping = echo_request(0x5678, 9, &[0xab; 5]);
        assert_eq!(&ping[..2], &[8, 0]);
        assert_eq!(&ping[4..8], &[0x56, 0x78, 0, 9]);
        assert!(checksum::verify(&ping), "odd-length payload checksums");
    }
}
