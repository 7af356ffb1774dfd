//! The one wire vocabulary: every frame the host side sends is built
//! here from fields, and every L3/L4/L7 field the host side reads back
//! is decoded here.
//!
//! The paper's answer to "how do I get packet fields" is a library
//! written once and reused by every service on every target (§3.3,
//! Figures 3–4). `emu_core::proto` is that library for *programs*; this
//! module is its counterpart for everything around them — fixtures,
//! traffic generators, closed-loop clients, host-native reference
//! services, benches and tests.
//!
//! **A frame is written once.** Every builder allocates one buffer, at
//! the frame's final length padded to the Ethernet minimum (so
//! [`Frame::new`] never reallocates), and writes the Ethernet, IPv4 and
//! L4 headers and the L7 payload in place. The IPv4 checksum and the L4
//! pseudo-header checksum are summed over the buffer's own slices. Each
//! header is laid out in one function here.
//!
//! * **L2** — [`l2_frame`] (a minimum-size frame between two stations)
//!   and [`arp_request`]; [`Frame::ethernet`] shares their Ethernet
//!   header.
//! * **L3/L4** — an [`Envelope`] (MACs, addresses, IPv4 identification,
//!   arrival port) builds an IPv4 frame (IHL 5, DF, TTL 64, valid
//!   checksum) around an [`L4`] header — UDP with or without its
//!   checksum, TCP, ICMP echo — and a [`Payload`]. [`udp_frame`] /
//!   [`tcp_frame`] are the always-checksummed forms the tests and
//!   fixtures use, and [`ipv4_frame`] wraps an already-assembled
//!   segment.
//! * **L7 payloads** — [`Payload`]: given bytes, a counting ramp, a
//!   memcached-over-UDP request whose text is written from pieces, or a
//!   DNS query. [`mc_request`], [`dns_query`], [`dns_name`] and the ICMP
//!   segment [`echo_request`] are the same layouts as bytes, and
//!   [`Decimal`] writes the digits of a key or value without `format!`.
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
use crate::proto::{ether_type, frame, hdr_len, ip_proto, offset};
use crate::{bitutil, Frame, Ipv4, MacAddr};

/// Bytes of the memcached-over-UDP frame header.
const MC_HDR: usize = 8;
/// Bytes of a DNS message header.
const DNS_HDR: usize = 12;
/// Offset of the ASCII text in a memcached-over-UDP frame: past the
/// UDP header and the memcached frame header.
const MC_TEXT: usize = offset::L4 + hdr_len::UDP + MC_HDR;

/// A zeroed frame buffer of `len` bytes padded to the Ethernet minimum,
/// its Ethernet header written: the one place that header is laid out.
pub(crate) fn ethernet_buf(dst: MacAddr, src: MacAddr, ethertype: u16, len: usize) -> Vec<u8> {
    let mut b = vec![0; len.max(frame::MIN)];
    b[offset::ETH_DST..offset::ETH_SRC].copy_from_slice(&dst.octets());
    b[offset::ETH_SRC..offset::ETH_TYPE].copy_from_slice(&src.octets());
    bitutil::set16(&mut b, offset::ETH_TYPE, ethertype);
    b
}

/// The finished buffer as a frame arriving on `in_port`.
fn arrived(bytes: Vec<u8>, in_port: u8) -> Frame {
    let mut f = Frame::new(bytes);
    f.in_port = in_port;
    f
}

/// A minimum-size IPv4-typed Ethernet frame from station `src` to
/// station `dst` (MACs as integers) arriving on `in_port` — what a
/// learning switch needs and nothing more.
pub fn l2_frame(src: u64, dst: u64, in_port: u8) -> Frame {
    let b = ethernet_buf(
        MacAddr::from_u64(dst),
        MacAddr::from_u64(src),
        ether_type::IPV4,
        frame::MIN,
    );
    arrived(b, in_port)
}

/// Builds an ARP who-has request, broadcast from `src_mac`.
pub fn arp_request(src_mac: MacAddr, src_ip: Ipv4, target: Ipv4, in_port: u8) -> Frame {
    let mut b = ethernet_buf(
        MacAddr::BROADCAST,
        src_mac,
        ether_type::ARP,
        offset::L3 + hdr_len::ARP,
    );
    let arp = &mut b[offset::L3..offset::L3 + hdr_len::ARP];
    arp[..8].copy_from_slice(&[
        0, 1, // htype ethernet
        8, 0, // ptype IPv4
        6, 4, // hlen, plen
        0, 1, // op request
    ]);
    arp[8..14].copy_from_slice(&src_mac.octets());
    arp[14..18].copy_from_slice(&src_ip.octets());
    // 18..24, the target hardware address, stays zero: unknown.
    arp[24..28].copy_from_slice(&target.octets());
    arrived(b, in_port)
}

/// Everything of an IPv4 frame below its L4 header: both stations, both
/// addresses, the IPv4 identification and the port the frame arrives
/// on. [`Envelope::frame`] builds the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope {
    /// Sending station.
    pub src_mac: MacAddr,
    /// Receiving station.
    pub dst_mac: MacAddr,
    /// IPv4 source address.
    pub src: Ipv4,
    /// IPv4 destination address.
    pub dst: Ipv4,
    /// IPv4 identification field.
    pub ident: u16,
    /// Port the frame arrives on (platform metadata).
    pub in_port: u8,
}

impl Envelope {
    /// The IPv4 frame carrying `l4`'s header and `payload`, every
    /// checksum `l4` carries filled in.
    pub fn frame(&self, l4: L4, payload: Payload<'_>) -> Frame {
        self.build(l4.proto(), l4.hdr_len() + payload.len(), |addrs, seg| {
            l4.write(addrs, seg, &payload)
        })
    }

    /// One zeroed buffer of the frame's padded length with the Ethernet
    /// and IPv4 headers (IHL 5, DF, TTL 64, valid checksum) written, then
    /// `write` fills in the `l4_len`-byte segment, given the IPv4
    /// header's address bytes for the pseudo-header.
    fn build(&self, proto: u8, l4_len: usize, write: impl FnOnce(&[u8], &mut [u8])) -> Frame {
        let end = offset::L4 + l4_len;
        let mut b = ethernet_buf(self.dst_mac, self.src_mac, ether_type::IPV4, end);
        let h = &mut b[offset::IPV4..offset::L4];
        h[..10].copy_from_slice(&[0x45, 0, 0, 0, 0, 0, 0x40, 0, 64, proto]);
        bitutil::set16(h, 2, (hdr_len::IPV4 + l4_len) as u16);
        bitutil::set16(h, 4, self.ident);
        h[12..16].copy_from_slice(&self.src.octets());
        h[16..20].copy_from_slice(&self.dst.octets());
        let c = checksum::internet_checksum(h);
        bitutil::set16(h, 10, c);
        let (hdrs, seg) = b.split_at_mut(offset::L4);
        write(&hdrs[offset::IPV4_SRC..], &mut seg[..l4_len]);
        arrived(b, self.in_port)
    }
}

/// The L4 header [`Envelope::frame`] lays out in front of a payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L4 {
    /// A UDP header. With `checksum: false` the field stays zero, which
    /// over IPv4 means "absent" (what the DNS and memcached fixtures
    /// send); a computed checksum of 0 is sent as 0xffff.
    Udp {
        sport: u16,
        dport: u16,
        checksum: bool,
    },
    /// A TCP header, no options, window 0xffff, checksummed.
    Tcp {
        sport: u16,
        dport: u16,
        seq: u32,
        ack: u32,
        flags: u8,
    },
    /// An ICMP echo request (type 8, code 0), checksummed.
    Echo { ident: u16, seq: u16 },
}

impl L4 {
    fn proto(self) -> u8 {
        match self {
            L4::Udp { .. } => ip_proto::UDP,
            L4::Tcp { .. } => ip_proto::TCP,
            L4::Echo { .. } => ip_proto::ICMP,
        }
    }

    fn hdr_len(self) -> usize {
        match self {
            L4::Udp { .. } => hdr_len::UDP,
            L4::Tcp { .. } => hdr_len::TCP,
            L4::Echo { .. } => hdr_len::ICMP_ECHO,
        }
    }

    /// Writes the whole segment into `seg`, which is zeroed and exactly
    /// its length: the header, `payload` behind it, then the checksum —
    /// over the pseudo-header with the address bytes `addrs` (source
    /// then destination) for UDP and TCP, over the segment alone for
    /// ICMP.
    fn write(self, addrs: &[u8], seg: &mut [u8], payload: &Payload<'_>) {
        let len = seg.len() as u16;
        let (hdr, body) = seg.split_at_mut(self.hdr_len());
        payload.write(body);
        match self {
            L4::Udp {
                sport,
                dport,
                checksum,
            } => {
                bitutil::set16(hdr, 0, sport);
                bitutil::set16(hdr, 2, dport);
                bitutil::set16(hdr, 4, len);
                if checksum {
                    let c = l4_checksum(addrs, ip_proto::UDP, seg);
                    bitutil::set16(seg, 6, if c == 0 { 0xffff } else { c });
                }
            }
            L4::Tcp {
                sport,
                dport,
                seq,
                ack,
                flags,
            } => {
                bitutil::set16(hdr, 0, sport);
                bitutil::set16(hdr, 2, dport);
                bitutil::set32(hdr, 4, seq);
                bitutil::set32(hdr, 8, ack);
                hdr[12..20].copy_from_slice(&[5 << 4, flags, 0xff, 0xff, 0, 0, 0, 0]);
                let c = l4_checksum(addrs, ip_proto::TCP, seg);
                bitutil::set16(seg, 16, c);
            }
            L4::Echo { ident, seq } => {
                hdr[..4].copy_from_slice(&[8, 0, 0, 0]);
                bitutil::set16(hdr, 4, ident);
                bitutil::set16(hdr, 6, seq);
                let c = checksum::internet_checksum(seg);
                bitutil::set16(seg, 2, c);
            }
        }
    }
}

/// The L7 bytes a builder writes in place behind the L4 header.
#[derive(Debug, Clone, Copy)]
pub enum Payload<'a> {
    /// These bytes.
    Bytes(&'a [u8]),
    /// `len` bytes counting up from `first`, wrapping at 256.
    Ramp { first: u8, len: usize },
    /// A memcached-over-UDP request datagram: the 8-byte frame header
    /// (request `id`, sequence 0, one datagram, reserved), then the
    /// ASCII text, the pieces of `text` one after another.
    Mc { id: u16, text: &'a [&'a [u8]] },
    /// A DNS query message: transaction `id`, RD set, one A/IN question
    /// for the dotted `name`.
    Dns { id: u16, name: &'a str },
}

impl Payload<'_> {
    fn len(&self) -> usize {
        match *self {
            Payload::Bytes(b) => b.len(),
            Payload::Ramp { len, .. } => len,
            Payload::Mc { text, .. } => MC_HDR + text.iter().map(|t| t.len()).sum::<usize>(),
            Payload::Dns { name, .. } => DNS_HDR + dns_name_len(name) + 4,
        }
    }

    /// Writes the payload into `out`, which is zeroed and exactly its
    /// length.
    fn write(&self, out: &mut [u8]) {
        match *self {
            Payload::Bytes(b) => out.copy_from_slice(b),
            Payload::Ramp { first, .. } => {
                for (i, o) in out.iter_mut().enumerate() {
                    *o = first.wrapping_add(i as u8);
                }
            }
            Payload::Mc { id, text } => {
                let [hi, lo] = id.to_be_bytes();
                out[..MC_HDR].copy_from_slice(&[hi, lo, 0, 0, 0, 1, 0, 0]);
                let mut at = MC_HDR;
                for t in text {
                    out[at..at + t.len()].copy_from_slice(t);
                    at += t.len();
                }
            }
            Payload::Dns { id, name } => {
                let [hi, lo] = id.to_be_bytes();
                // RD; QDCOUNT = 1
                out[..DNS_HDR].copy_from_slice(&[hi, lo, 0x01, 0, 0, 1, 0, 0, 0, 0, 0, 0]);
                let at = DNS_HDR + put_dns_name(&mut out[DNS_HDR..], name);
                out[at..at + 4].copy_from_slice(&[0, 1, 0, 1]); // QTYPE A, QCLASS IN
            }
        }
    }

    fn to_vec(self) -> Vec<u8> {
        let mut v = vec![0; self.len()];
        self.write(&mut v);
        v
    }
}

/// Internet checksum over an L4 `segment` plus its IPv4 pseudo-header,
/// whose addresses are `addrs` (source then destination, the eight
/// bytes the IPv4 header holds them in).
fn l4_checksum(addrs: &[u8], proto: u8, segment: &[u8]) -> u16 {
    let mut c = Csum::new();
    c.add_bytes(addrs);
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
    let env = Envelope {
        src_mac,
        dst_mac,
        src,
        dst,
        ident,
        in_port,
    };
    env.build(proto, segment.len(), |_, seg| seg.copy_from_slice(segment))
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
    let env = Envelope {
        src_mac,
        dst_mac,
        src,
        dst,
        ident: sport ^ dport,
        in_port,
    };
    let l4 = L4::Udp {
        sport,
        dport,
        checksum: true,
    };
    env.frame(l4, Payload::Bytes(payload))
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
    let env = Envelope {
        src_mac,
        dst_mac,
        src,
        dst,
        ident: seq as u16,
        in_port,
    };
    let l4 = L4::Tcp {
        sport,
        dport,
        seq,
        ack,
        flags,
    };
    env.frame(l4, Payload::Bytes(payload))
}

/// An ICMP echo request (type 8, code 0) carrying `payload`, with a
/// valid ICMP checksum — the L4 segment for [`ipv4_frame`], laid out as
/// [`L4::Echo`] lays it out in a frame.
pub fn echo_request(ident: u16, seq: u16, payload: &[u8]) -> Vec<u8> {
    let mut seg = vec![0; hdr_len::ICMP_ECHO + payload.len()];
    L4::Echo { ident, seq }.write(&[], &mut seg, &Payload::Bytes(payload));
    seg
}

/// The labels of a dotted name, empty ones skipped.
fn labels(name: &str) -> impl Iterator<Item = &str> {
    name.split('.').filter(|l| !l.is_empty())
}

/// Bytes of `name` in DNS wire format: the length of
/// [`dns_name`]`(name)`, without building it.
pub fn dns_name_len(name: &str) -> usize {
    labels(name).map(|l| 1 + l.len()).sum::<usize>() + 1
}

/// Writes `name` in DNS wire format (labels + terminal zero) at the
/// front of `out`; returns the bytes written.
fn put_dns_name(out: &mut [u8], name: &str) -> usize {
    let mut at = 0;
    for label in labels(name) {
        out[at] = label.len() as u8;
        out[at + 1..at + 1 + label.len()].copy_from_slice(label.as_bytes());
        at += 1 + label.len();
    }
    out[at] = 0;
    at + 1
}

/// Encodes a dotted name into DNS wire format (labels + terminal zero).
pub fn dns_name(name: &str) -> Vec<u8> {
    let mut out = vec![0; dns_name_len(name)];
    put_dns_name(&mut out, name);
    out
}

/// A DNS query message: transaction `id`, RD set, one A/IN question for
/// `name` — [`Payload::Dns`] as bytes.
pub fn dns_query(name: &str, id: u16) -> Vec<u8> {
    Payload::Dns { id, name }.to_vec()
}

/// A memcached-over-UDP request datagram: the 8-byte frame header
/// (request `id`, sequence 0, one datagram, reserved) and the ASCII
/// `body` — [`Payload::Mc`] as bytes.
pub fn mc_request(body: &str, id: u16) -> Vec<u8> {
    Payload::Mc {
        id,
        text: &[body.as_bytes()],
    }
    .to_vec()
}

/// `value` in decimal ASCII, zero-padded to at least `width` digits —
/// `format!("{value:0width$}")` without the formatting machinery or a
/// heap buffer, for the keys and values generators write per frame.
#[derive(Debug, Clone, Copy)]
pub struct Decimal {
    digits: [u8; 20],
    start: usize,
}

impl Decimal {
    /// Writes `value` with at least `width` digits (at most 20, the
    /// digits of `u64::MAX`).
    pub fn new(mut value: u64, width: usize) -> Self {
        let mut digits = [b'0'; 20];
        let mut start = digits.len();
        while value > 0 {
            start -= 1;
            digits[start] = b'0' + (value % 10) as u8;
            value /= 10;
        }
        let start = start.min(digits.len() - width.clamp(1, digits.len()));
        Decimal { digits, start }
    }

    /// The digits.
    pub fn as_bytes(&self) -> &[u8] {
        &self.digits[self.start..]
    }
}

/// The ASCII portion of a memcached-over-UDP frame: from past the two
/// 8-byte headers to the end the UDP length claims, clamped to the
/// bytes the frame actually carries (empty when the length is too
/// short to reach the text at all), borrowed from the frame.
pub fn reply_text(frame: &Frame) -> &[u8] {
    let b = frame.bytes();
    let udp_len = usize::from(bitutil::get16(b, offset::L4 + 4));
    let end = (offset::L4 + udp_len).min(b.len());
    b.get(MC_TEXT..end).unwrap_or_default()
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
    Some(l4_checksum(&b[offset::IPV4_SRC..offset::L4], proto, seg) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(x: u64) -> MacAddr {
        MacAddr::from_u64(x)
    }

    #[test]
    fn ipv4_frame_lays_out_one_valid_header() {
        let seg = echo_request(4000, 53, b"payload!");
        let f = ipv4_frame(
            mac(0x11),
            mac(0x22),
            Ipv4::new(10, 0, 0, 1),
            Ipv4::new(10, 0, 0, 2),
            ip_proto::ICMP,
            0xbeef,
            &seg,
            3,
        );
        let b = f.bytes();
        assert_eq!((f.src_mac(), f.dst_mac()), (mac(0x11), mac(0x22)));
        assert_eq!(f.ethertype(), ether_type::IPV4);
        assert_eq!(f.in_port, 3);
        assert_eq!(&b[14..24], &[0x45, 0, 0, 36, 0xbe, 0xef, 0x40, 0, 64, 1]);
        assert_eq!(ipv4_csum_ok(&f), Some(true));
        // The segment went in as given, and the frame is padded.
        assert_eq!(&b[offset::L4..offset::L4 + seg.len()], &seg[..]);
        assert_eq!(b.len(), frame::MIN);
        assert!(b[offset::L4 + seg.len()..].iter().all(|&x| x == 0));
    }

    #[test]
    fn checksummed_segments_verify_and_absent_ones_pass_through() {
        let env = Envelope {
            src_mac: mac(1),
            dst_mac: mac(2),
            src: Ipv4::new(1, 2, 3, 4),
            dst: Ipv4::new(5, 6, 7, 8),
            ident: 0,
            in_port: 0,
        };
        let udp = |checksum| {
            let l4 = L4::Udp {
                sport: 9,
                dport: 10,
                checksum,
            };
            env.frame(l4, Payload::Bytes(b"xyz"))
        };
        let (with, absent) = (udp(true), udp(false));
        assert_ne!(bitutil::get16(with.bytes(), offset::L4 + 6), 0);
        assert_eq!(l4_csum_ok(&with), Some(true));
        assert_eq!(bitutil::get16(absent.bytes(), offset::L4 + 6), 0);
        assert_eq!(l4_csum_ok(&absent), Some(true));
        assert_eq!(
            &with.bytes()[..offset::L4 + 6],
            &absent.bytes()[..offset::L4 + 6]
        );
        let syn = L4::Tcp {
            sport: 9,
            dport: 10,
            seq: 7,
            ack: 0,
            flags: crate::proto::tcp_flags::SYN,
        };
        let tcp = env.frame(syn, Payload::Bytes(&[]));
        assert_eq!(bitutil::get16(tcp.bytes(), offset::IPV4 + 2), 40);
        assert_eq!(l4_csum_ok(&tcp), Some(true));
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
        for name in ["a.b", "trailing.dot.", "", "x0..emu.test"] {
            assert_eq!(dns_name_len(name), dns_name(name).len(), "{name:?}");
        }
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
