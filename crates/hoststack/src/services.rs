//! ICMP echo, DNS and memcached as ordinary software, the "Linux native
//! counterparts" of §5.4, and the references the Emu services are
//! checked against: `emu_traffic::HostChecker` demands an engine's
//! replies equal these, byte for byte.
//!
//! So each answers what its Emu service answers, malformed frames
//! included, and reads a frame as a service core does: bytes past its
//! end read as zero (`DataplaneDriver::load_frame` zero-fills the
//! buffer). Where that or an Emu limit departs from a general-purpose
//! server, the type lists it under *Restrictions*. One holds for all
//! three: IPv4 is recognised by IHL 5 alone; the version is not read.

use emu_types::proto::{ether_type, ip_proto, offset, port};
use emu_types::{bitutil, checksum, wire, Frame, Ipv4};
use std::collections::HashMap;

/// A software network function: frames in, frames out.
pub trait HostService {
    /// Service label for reports.
    const NAME: &'static str;

    /// Processes one frame.
    fn process(&mut self, frame: &Frame) -> Vec<Frame>;
}

/// True for an IHL-5 IPv4 frame carrying `proto`.
fn is_plain_ipv4(b: &[u8], proto: u8) -> bool {
    bitutil::get16(b, offset::ETH_TYPE) == ether_type::IPV4
        && bitutil::get8(b, offset::IPV4) & 0x0f == 5
        && bitutil::get8(b, offset::IPV4_PROTO) == proto
}

/// True for an IHL-5 IPv4/UDP frame addressed to `dport`.
fn is_udp_to(b: &[u8], dport: u16) -> bool {
    is_plain_ipv4(b, ip_proto::UDP) && bitutil::get16(b, offset::L4 + 2) == dport
}

fn swap_l2_l3(b: &mut [u8]) {
    for i in 0..6 {
        b.swap(offset::ETH_DST + i, offset::ETH_SRC + i);
    }
    for i in 0..4 {
        b.swap(offset::IPV4_SRC + i, offset::IPV4_DST + i);
    }
}

/// Turns a UDP request into its reply's addressing in place: MACs,
/// addresses and ports swapped, UDP checksum cleared (absent).
fn swap_udp_endpoints(b: &mut [u8]) {
    swap_l2_l3(b);
    b.swap(offset::L4, offset::L4 + 2);
    b.swap(offset::L4 + 1, offset::L4 + 3);
    bitutil::set16(b, offset::L4 + 6, 0);
}

/// Sets the IP total length (updating the header checksum
/// incrementally) and the UDP length from the buffer's length.
fn fix_udp_lengths(out: &mut [u8]) {
    let new_total = (out.len() - offset::L3) as u16;
    let old_total = bitutil::get16(out, offset::IPV4 + 2);
    let c = bitutil::get16(out, offset::IPV4_CSUM);
    bitutil::set16(out, offset::IPV4 + 2, new_total);
    bitutil::set16(
        out,
        offset::IPV4_CSUM,
        checksum::update_word(c, old_total, new_total),
    );
    let udp_len = (out.len() - offset::L4) as u16;
    bitutil::set16(out, offset::L4 + 4, udp_len);
}

fn reply_frame(bytes: Vec<u8>, request: &Frame) -> Vec<Frame> {
    let mut f = Frame::new(bytes);
    f.in_port = request.in_port;
    vec![f]
}

/// ICMP echo responder.
#[derive(Debug, Default)]
pub struct HostIcmpEcho;

impl HostService for HostIcmpEcho {
    const NAME: &'static str = "icmp";

    fn process(&mut self, frame: &Frame) -> Vec<Frame> {
        let b = frame.bytes();
        if !is_plain_ipv4(b, ip_proto::ICMP) || bitutil::get8(b, offset::L4) != 8 {
            return Vec::new();
        }
        // A total length shorter than the headers or running past the
        // frame is a truncated datagram: nothing to verify, drop.
        let total = usize::from(bitutil::get16(b, offset::IPV4 + 2));
        match b.get(offset::L4..offset::L3 + total) {
            Some(icmp) if checksum::verify(icmp) => {}
            _ => return Vec::new(),
        }
        let mut out = b.to_vec();
        swap_l2_l3(&mut out);
        out[offset::L4] = 0;
        let c = bitutil::get16(&out, offset::L4 + 2);
        bitutil::set16(
            &mut out,
            offset::L4 + 2,
            checksum::update_word(c, 0x0800, 0x0000),
        );
        reply_frame(out, frame)
    }
}

/// Non-recursive DNS resolver over a static zone.
///
/// Restrictions:
/// - **Names of at most 26 bytes (§4.3).** The QNAME runs to its first
///   zero byte. One still running after [`HostDns::max_name`] wire bytes
///   is answered RCODE 4 (not implemented).
/// - **The answer follows the question in place.** The A record goes at
///   name end + 5, after QTYPE/QCLASS, even when the frame is cut short
///   of them: the missing bytes are the zero fill.
#[derive(Debug)]
pub struct HostDns {
    zone: HashMap<Vec<u8>, Ipv4>,
    /// Maximum accepted wire-name length (mirrors the Emu limit).
    pub max_name: usize,
}

impl HostDns {
    /// Builds a resolver for dotted names.
    pub fn new(zone: Vec<(String, Ipv4)>) -> Self {
        let zone = zone
            .into_iter()
            .map(|(n, a)| {
                let mut name = wire::dns_name(&n);
                name.pop(); // the zone is keyed without the terminal zero
                (name, a)
            })
            .collect();
        let max_name = 26;
        HostDns { zone, max_name }
    }
}

impl HostService for HostDns {
    const NAME: &'static str = "dns";

    fn process(&mut self, frame: &Frame) -> Vec<Frame> {
        let b = frame.bytes();
        let hdr = offset::L4 + 8;
        if !is_udp_to(b, port::DNS)
            || bitutil::get8(b, hdr + 2) & 0x80 != 0
            || bitutil::get16(b, hdr + 4) != 1
        {
            return Vec::new();
        }
        let q = hdr + 12;
        // Walk the QNAME; the zero fill ends a name cut by the frame's end.
        let mut i = q;
        while bitutil::get8(b, i) != 0 && i - q < self.max_name {
            i += 1;
        }
        let too_long = bitutil::get8(b, i) != 0;
        let mut out = b.to_vec();
        swap_udp_endpoints(&mut out);
        if let Some(addr) = self.zone.get(&b[q..i]).filter(|_| !too_long) {
            bitutil::set16(&mut out, hdr + 2, 0x8180);
            bitutil::set16(&mut out, hdr + 6, 1);
            let ans = i + 1 + 4;
            let record = [0xc0, 0x0c, 0, 1, 0, 1, 0, 0, 0, 0x3c, 0, 4];
            out.resize(ans, 0);
            out.extend_from_slice(&record);
            out.extend_from_slice(&addr.octets());
            fix_udp_lengths(&mut out);
        } else {
            // RCODE 4 (not implemented) or 3 (NXDOMAIN).
            bitutil::set16(&mut out, hdr + 2, if too_long { 0x8184 } else { 0x8183 });
            bitutil::set16(&mut out, hdr + 6, 0);
        }
        reply_frame(out, frame)
    }
}

/// Offset of the memcached text: past the UDP and memcached headers.
const MC_TEXT: usize = offset::L4 + 8 + 8;
/// Longest key in bytes (§4.3).
const MC_MAX_KEY: usize = 8;
/// The Emu memcached service's frame buffer in bytes.
const MC_FRAME_CAP: usize = 512;

/// Memcached ASCII-over-UDP server (GET/SET/DELETE, 8-byte values).
///
/// Restrictions:
/// - **One-byte commands.** The first text byte alone picks the
///   command — `g` GET, `s` SET, `d` DELETE — and the key starts at a
///   fixed offset after it (4 bytes for GET and SET, 7 for DELETE). So
///   `"gxx foo\r\n"` is a GET of `foo`.
/// - **Short keys (§4.3).** A key runs to the first space or CR and is
///   1 to 8 bytes long, or the request is dropped. Any other byte is a
///   key byte, `\n` and the zero fill included.
/// - **8-byte values (§4.3).** A SET stores the 8 bytes after the first
///   `\n` past the key, whatever length the command line gives. The scan
///   for that `\n` stops at `FRAME_CAP − 9` (503). A SET with no data
///   line stores the zero fill and answers `STORED`.
/// - **Lengths are not read.** The text runs through the zero-filled
///   buffer whatever the UDP length says, 0 and 1 included.
#[derive(Debug, Default)]
pub struct HostMemcached {
    store: HashMap<Vec<u8>, [u8; 8]>,
}

impl HostMemcached {
    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The key at `at` and the offset of the space or CR that ends it.
    fn key(b: &[u8], at: usize) -> Option<(Vec<u8>, usize)> {
        let len = (0..=MC_MAX_KEY).find(|&k| matches!(bitutil::get8(b, at + k), b' ' | b'\r'))?;
        let key = (at..at + len).map(|i| bitutil::get8(b, i)).collect();
        (len > 0).then_some((key, at + len))
    }

    /// The SET value: the 8 bytes after the first `\n` at or past `from`.
    fn value(b: &[u8], from: usize) -> [u8; 8] {
        let scan_end = MC_FRAME_CAP - 9;
        let nl = (from..scan_end)
            .find(|&i| bitutil::get8(b, i) == b'\n')
            .unwrap_or(scan_end);
        std::array::from_fn(|k| bitutil::get8(b, nl + 1 + k))
    }

    /// The reply text for the request in `b`, or `None` for a drop.
    /// Updates the store.
    fn reply(&mut self, b: &[u8]) -> Option<Vec<u8>> {
        let cmd = bitutil::get8(b, MC_TEXT);
        let (key, end) = Self::key(b, MC_TEXT + if cmd == b'd' { 7 } else { 4 })?;
        Some(match cmd {
            b'g' => match self.store.get(&key) {
                Some(v) => [&b"VALUE "[..], &key, b" 0 8\r\n", v, b"\r\nEND\r\n"].concat(),
                None => b"END\r\n".to_vec(),
            },
            b's' => {
                self.store.insert(key, Self::value(b, end));
                b"STORED\r\n".to_vec()
            }
            b'd' if self.store.remove(&key).is_some() => b"DELETED\r\n".to_vec(),
            b'd' => b"NOT_FOUND\r\n".to_vec(),
            _ => return None,
        })
    }
}

impl HostService for HostMemcached {
    const NAME: &'static str = "memcached";

    fn process(&mut self, frame: &Frame) -> Vec<Frame> {
        let b = frame.bytes();
        if !is_udp_to(b, port::MEMCACHED) {
            return Vec::new();
        }
        let Some(reply) = self.reply(b) else {
            return Vec::new();
        };
        // A frame is never shorter than the 60-byte Ethernet minimum.
        let mut out = b[..MC_TEXT].to_vec();
        out.extend_from_slice(&reply);
        swap_udp_endpoints(&mut out);
        fix_udp_lengths(&mut out);
        reply_frame(out, frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emu_types::MacAddr;

    const CLIENT: Ipv4 = Ipv4(0x0a00_0009);
    const SERVER: Ipv4 = Ipv4(0x0a00_000a);

    fn mac(x: u64) -> MacAddr {
        MacAddr::from_u64(x)
    }

    #[test]
    fn icmp_echo_replies_and_validates() {
        let mut svc = HostIcmpEcho;
        let f = wire::ipv4_frame(
            mac(2),
            mac(1),
            CLIENT,
            SERVER,
            ip_proto::ICMP,
            0,
            &wire::echo_request(1, 2, &[7; 56]),
            0,
        );
        let out = svc.process(&f);
        assert_eq!(out.len(), 1);
        let r = out[0].bytes();
        assert_eq!(r[34], 0);
        assert!(checksum::verify(&r[34..98]));
        // Corrupted checksum: dropped.
        let mut bad = f.clone();
        bad.bytes_mut()[40] ^= 1;
        assert!(svc.process(&bad).is_empty());
    }

    #[test]
    fn memcached_round_trip() {
        let mut svc = HostMemcached::default();
        let set = mc_frame("set foo 0 0 8\r\nAAAABBBB\r\n");
        let out = svc.process(&set);
        assert!(wire::reply_text(&out[0]).starts_with(b"STORED"));
        let get = mc_frame("get foo\r\n");
        let out = svc.process(&get);
        assert_eq!(
            wire::reply_text(&out[0]),
            b"VALUE foo 0 8\r\nAAAABBBB\r\nEND\r\n"
        );
        let del = mc_frame("delete foo\r\n");
        assert!(wire::reply_text(&svc.process(&del)[0]).starts_with(b"DELETED"));
        assert!(svc.is_empty());
    }

    /// One row per restriction of [`HostMemcached`], each on a store
    /// holding `foo` = `AAAABBBB`: the request text, an edit to its frame
    /// (byte 39 is the UDP length's low byte, its high byte is 0), the
    /// reply text (empty: dropped), and a key's value after it.
    #[test]
    fn memcached_restrictions() {
        const FOO: (&[u8], [u8; 8]) = (b"foo", *b"AAAABBBB");
        let (hit, stored) = ("VALUE foo 0 8\r\nAAAABBBB\r\nEND\r\n", "STORED\r\n");
        let long_line = format!("set foo {}12345678", "x".repeat(446));
        type Row<'a> = (
            &'a str,
            &'a str,
            fn(&mut [u8]),
            &'a str,
            (&'a [u8], [u8; 8]),
        );
        #[rustfmt::skip]
        let rows: [Row; 8] = [
            ("one-byte commands", "gxx foo\r\n", |_| {}, hit, FOO),
            ("zero fill: UDP length 0", "get foo\r\n", |b| b[39] = 0, hit, FOO),
            ("zero fill: UDP length 1", "get foo\r\n", |b| b[39] = 1, hit, FOO),
            ("IP version 5, IHL 5", "get foo\r\n", |b| b[14] = 0x55, hit, FOO),
            ("§4.3 values: no data line", "set foo 0 0 8\r\n", |_| {}, stored, (b"foo", [0; 8])),
            ("§4.3 values: scan end", &long_line, |_| {}, stored, (b"foo", *b"12345678")),
            ("§4.3 keys: `\\n`", "set f\no 0 0 8\r\nVVVVVVVV\r\n", |_| {}, stored, (b"f\no", *b"VVVVVVVV")),
            ("§4.3 keys: 9 bytes", "get foofoofoo\r\n", |_| {}, "", FOO),
        ];
        for (restriction, body, edit, reply, (key, value)) in rows {
            let mut svc = HostMemcached::default();
            svc.store.insert(FOO.0.to_vec(), FOO.1);
            let mut request = mc_frame(body);
            edit(request.bytes_mut());
            let out = svc.process(&request);
            let got = out.first().map(wire::reply_text).unwrap_or_default();
            assert_eq!(got, reply.as_bytes(), "{restriction}");
            assert_eq!(svc.store.get(key), Some(&value), "{restriction}");
        }
    }

    fn mc_frame(body: &str) -> Frame {
        let payload = wire::mc_request(body, 1);
        wire::udp_frame(
            mac(2),
            mac(1),
            CLIENT,
            31337,
            SERVER,
            port::MEMCACHED,
            &payload,
            0,
        )
    }

    /// A request each service answers: an ICMP echo, a DNS query for a
    /// zone name, memcached SET, GET and DELETE of a stored key.
    fn requests() -> [Frame; 5] {
        let echo = wire::echo_request(1, 2, &[7; 56]);
        [
            wire::ipv4_frame(mac(2), mac(1), CLIENT, SERVER, ip_proto::ICMP, 0, &echo, 0),
            dns_frame("a.b"),
            mc_frame("set foo 0 0 8\r\nAAAABBBB\r\n"),
            mc_frame("get foo\r\n"),
            mc_frame("delete foo\r\n"),
        ]
    }

    /// One mutation of a valid request, chosen and placed by `pick`:
    /// flipped bits, a truncation, or a piece of another request spliced
    /// into it, over part of it, or a piece cut out of it.
    fn mutate(valid: &[u8], other: &[u8], pick: &[u64]) -> Vec<u8> {
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
                let src = at(2, other.len());
                let piece = other[src..src + at(3, other.len() - src + 1)].to_vec();
                let dst = at(4, bytes.len() + 1);
                match pick[5] % 3 {
                    0 => drop(bytes.splice(dst..dst, piece)),
                    1 => {
                        let end = (dst + piece.len()).min(bytes.len());
                        drop(bytes.splice(dst..end, piece));
                    }
                    _ => drop(bytes.drain(dst..dst + at(6, bytes.len() - dst + 1))),
                }
            }
        }
        bytes
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1024))]

        /// Each service is fed whatever frame arrives, as a checker's
        /// reference is: a damaged request of any of the three protocols
        /// gives replies or none, never a panic, within a second, and
        /// every reply leaves by the port the request came in on.
        #[test]
        fn mutated_frames_get_replies_or_none(
            pick in proptest::collection::vec(proptest::prelude::any::<u64>(), 8..9)
        ) {
            let reqs = requests();
            let valid = &reqs[(pick[7] % 5) as usize];
            let other = &reqs[(pick[6] % 5) as usize];
            let mut frame = Frame::new(mutate(valid.bytes(), other.bytes(), &pick));
            frame.in_port = (pick[6] >> 8) as u8 % 4;
            let mut mc = HostMemcached::default();
            mc.process(&reqs[2]);
            let mut dns = HostDns::new(vec![("a.b".into(), "1.2.3.4".parse().unwrap())]);
            let t = std::time::Instant::now();
            let replies = [
                HostIcmpEcho.process(&frame),
                dns.process(&frame),
                mc.process(&frame),
            ];
            proptest::prop_assert!(t.elapsed() < std::time::Duration::from_secs(1));
            for reply in replies.iter().flatten() {
                proptest::prop_assert_eq!(reply.in_port, frame.in_port);
            }
        }
    }

    #[test]
    fn dns_resolves_and_nxdomains() {
        let mut svc = HostDns::new(vec![("a.b".into(), "1.2.3.4".parse().unwrap())]);
        let q = dns_frame("a.b");
        let out = svc.process(&q);
        let b = out[0].bytes();
        assert_eq!(bitutil::get16(b, 48), 1);
        assert_eq!(&b[b.len() - 4..], &[1, 2, 3, 4]);
        assert!(checksum::verify(&b[14..34]));

        let miss = dns_frame("x.y");
        let out = svc.process(&miss);
        assert_eq!(bitutil::get16(out[0].bytes(), 44) & 0xf, 3);

        // The name ends at 58, QTYPE and QCLASS take 59..63: cut at 61,
        // the record still goes at 63 over the zero fill, as the service
        // writes it.
        let out = svc.process(&Frame::new(q.bytes()[..61].to_vec()));
        let b = out[0].bytes();
        assert_eq!(b.len(), 63 + 16);
        assert_eq!(&b[59..65], &[0, 1, 0, 0, 0xc0, 0x0c]);
        assert_eq!(&b[75..], &[1, 2, 3, 4]);
    }

    /// The dotted name a DNS question holds at `at`, and the offset
    /// past its terminal zero.
    fn question_name(b: &[u8], mut at: usize) -> (String, usize) {
        let mut labels = Vec::new();
        while b[at] != 0 {
            let n = usize::from(b[at]);
            labels.push(String::from_utf8(b[at + 1..at + 1 + n].to_vec()).unwrap());
            at += 1 + n;
        }
        (labels.join("."), at + 1)
    }

    /// `raw` drawn over `alphabet`, as text.
    fn text(raw: &[u8], alphabet: &[u8]) -> String {
        raw.iter()
            .map(|&c| char::from(alphabet[usize::from(c)]))
            .collect()
    }

    const KEY_BYTES: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-:";

    proptest::proptest! {
        /// A reply's question is the request's name, at most 26 wire
        /// bytes, and it carries the zone's A record for it or says
        /// NXDOMAIN.
        #[test]
        fn dns_replies_carry_the_question_back(
            raw in proptest::collection::vec(0u8..37, 0..=25),
            hit in proptest::prelude::any::<bool>(),
            addr in proptest::prelude::any::<u32>(),
        ) {
            let name = text(&raw, b"abcdefghijklmnopqrstuvwxyz0123456789.");
            let asked = name.split('.').filter(|l| !l.is_empty()).collect::<Vec<_>>().join(".");
            let zoned = if hit { asked.clone() } else { "not.in.zone".to_string() };
            let mut svc = HostDns::new(vec![(zoned.clone(), Ipv4(addr))]);
            let out = svc.process(&dns_frame(&name));
            proptest::prop_assert_eq!(out.len(), 1);
            let b = out[0].bytes();
            let hdr = offset::L4 + 8;
            let (question, end) = question_name(b, hdr + 12);
            proptest::prop_assert_eq!(&question, &asked);
            proptest::prop_assert_eq!(bitutil::get16(b, hdr + 4), 1);
            if zoned == asked {
                proptest::prop_assert_eq!(bitutil::get16(b, hdr + 2), 0x8180);
                proptest::prop_assert_eq!(bitutil::get16(b, hdr + 6), 1);
                // TYPE A after the name pointer, then the address.
                proptest::prop_assert_eq!(bitutil::get16(b, end + 6), 1);
                proptest::prop_assert_eq!(&b[b.len() - 4..], &Ipv4(addr).octets()[..]);
            } else {
                proptest::prop_assert_eq!(bitutil::get16(b, hdr + 2), 0x8183);
                proptest::prop_assert_eq!(bitutil::get16(b, hdr + 6), 0);
            }
        }

        /// A GET of a stored key of 1 to 8 bytes answers a `VALUE` line
        /// that names that key, with the value stored under it.
        #[test]
        fn memcached_values_name_the_requested_key(
            raw in proptest::collection::vec(0u8..64, 1..=8),
            value in proptest::collection::vec(0u8..64, 8..=8),
        ) {
            let (key, value) = (text(&raw, KEY_BYTES), text(&value, KEY_BYTES));
            let mut svc = HostMemcached::default();
            svc.process(&mc_frame(&format!("set {key} 0 0 8\r\n{value}\r\n")));
            let out = svc.process(&mc_frame(&format!("get {key}\r\n")));
            let want = format!("VALUE {key} 0 8\r\n{value}\r\nEND\r\n");
            proptest::prop_assert_eq!(wire::reply_text(&out[0]), want.as_bytes());
        }
    }

    fn dns_frame(name: &str) -> Frame {
        let query = wire::dns_query(name, 7);
        wire::udp_frame(mac(2), mac(1), CLIENT, 4242, SERVER, port::DNS, &query, 0)
    }
}
