//! Host-native functional implementations of the paper's services.
//!
//! These are the "Linux native counterparts" of §5.4 — ordinary software
//! implementations that run inside the host-path model's application
//! stage. They are deliberately byte-compatible with the Emu services'
//! replies (same checksum conventions, same response formats), which lets
//! the integration tests diff a host service against the same service
//! compiled for the FPGA target — the strongest functional check the
//! reproduction has.

use emu_types::proto::{ether_type, ip_proto, offset, port};
use emu_types::{bitutil, checksum, wire, Frame, Ipv4};
use std::collections::HashMap;

/// A software network function: frames in, frames out.
pub trait HostService {
    /// Processes one frame.
    fn process(&mut self, frame: &Frame) -> Vec<Frame>;
}

/// True for an option-less IPv4 frame carrying `proto`.
fn is_plain_ipv4(b: &[u8], proto: u8) -> bool {
    bitutil::get16(b, offset::ETH_TYPE) == ether_type::IPV4
        && bitutil::get8(b, offset::IPV4) == 0x45
        && bitutil::get8(b, offset::IPV4_PROTO) == proto
}

/// True for an option-less IPv4/UDP frame addressed to `dport`.
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

/// ICMP echo responder (kernel behaviour).
#[derive(Debug, Default)]
pub struct HostIcmpEcho;

impl HostService for HostIcmpEcho {
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
#[derive(Debug)]
pub struct HostDns {
    zone: HashMap<Vec<u8>, Ipv4>,
    /// Maximum accepted wire-name length (mirrors the Emu limit).
    pub max_name: usize,
}

impl HostDns {
    /// Builds a resolver for dotted names.
    pub fn new(zone: Vec<(String, Ipv4)>) -> Self {
        let map = zone
            .into_iter()
            .map(|(n, a)| {
                let mut name = wire::dns_name(&n);
                name.pop(); // the zone is keyed without the terminal zero
                (name, a)
            })
            .collect();
        HostDns {
            zone: map,
            max_name: 26,
        }
    }
}

impl HostService for HostDns {
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
        // Walk the QNAME.
        let mut i = q;
        while i < b.len() && b[i] != 0 && i - q < self.max_name {
            i += 1;
        }
        let too_long = i - q >= self.max_name;
        let mut out = b.to_vec();
        swap_udp_endpoints(&mut out);
        if too_long {
            bitutil::set16(&mut out, hdr + 2, 0x8184);
            bitutil::set16(&mut out, hdr + 6, 0);
        } else if let Some(addr) = b.get(q..i).and_then(|name| self.zone.get(name)) {
            bitutil::set16(&mut out, hdr + 2, 0x8180);
            bitutil::set16(&mut out, hdr + 6, 1);
            let ans = i + 1 + 4;
            let record = [0xc0, 0x0c, 0, 1, 0, 1, 0, 0, 0, 0x3c, 0, 4];
            out.truncate(ans);
            out.extend_from_slice(&record);
            out.extend_from_slice(&addr.octets());
            fix_udp_lengths(&mut out);
        } else {
            bitutil::set16(&mut out, hdr + 2, 0x8183);
            bitutil::set16(&mut out, hdr + 6, 0);
        }
        reply_frame(out, frame)
    }
}

/// Memcached ASCII-over-UDP server (GET/SET/DELETE, 8-byte values).
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
}

impl HostService for HostMemcached {
    fn process(&mut self, frame: &Frame) -> Vec<Frame> {
        let b = frame.bytes();
        if !is_udp_to(b, port::MEMCACHED) {
            return Vec::new();
        }
        let cmd = offset::L4 + 8 + 8;
        let text = wire::reply_text(frame);
        let key_of = |rest: &[u8]| -> Option<Vec<u8>> {
            let end = rest.iter().position(|&c| c == b' ' || c == b'\r')?;
            if end == 0 || end > 8 {
                return None;
            }
            Some(rest[..end].to_vec())
        };

        let reply: Option<Vec<u8>> = if text.starts_with(b"get ") {
            key_of(&text[4..]).map(|key| match self.store.get(&key) {
                Some(v) => {
                    let mut r = b"VALUE ".to_vec();
                    r.extend_from_slice(&key);
                    r.extend_from_slice(b" 0 8\r\n");
                    r.extend_from_slice(v);
                    r.extend_from_slice(b"\r\nEND\r\n");
                    r
                }
                None => b"END\r\n".to_vec(),
            })
        } else if text.starts_with(b"set ") {
            key_of(&text[4..]).and_then(|key| {
                let nl = text.iter().position(|&c| c == b'\n')?;
                let data = text.get(nl + 1..nl + 9)?;
                let mut v = [0u8; 8];
                v.copy_from_slice(data);
                self.store.insert(key, v);
                Some(b"STORED\r\n".to_vec())
            })
        } else if text.starts_with(b"delete ") {
            key_of(&text[7..]).map(|key| {
                if self.store.remove(&key).is_some() {
                    b"DELETED\r\n".to_vec()
                } else {
                    b"NOT_FOUND\r\n".to_vec()
                }
            })
        } else {
            None
        };

        let Some(reply) = reply else {
            return Vec::new();
        };
        let mut out = b[..cmd].to_vec();
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
    }

    fn dns_frame(name: &str) -> Frame {
        let query = wire::dns_query(name, 7);
        wire::udp_frame(mac(2), mac(1), CLIENT, 4242, SERVER, port::DNS, &query, 0)
    }
}
