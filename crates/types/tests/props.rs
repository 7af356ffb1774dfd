//! Property tests for the primitive types: `Bits` arithmetic is checked
//! against native `u128` arithmetic for widths ≤ 128, checksum updates are
//! checked against full recomputation, codecs round-trip, and the
//! `wire` builders, which write each frame once into one buffer, are
//! checked against a frozen copy of the segment-by-segment composition
//! they replaced, and counted to one allocation per frame.

use emu_types::bits::Bits;
use emu_types::proto::ip_proto;
use emu_types::wire::{self, Decimal, Envelope, Payload, L4};
use emu_types::{bitutil, checksum, Frame, Ipv4, MacAddr};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

fn mask(w: u16) -> u128 {
    if w == 128 {
        u128::MAX
    } else {
        (1u128 << w) - 1
    }
}

proptest! {
    #[test]
    fn add_matches_u128(a in any::<u128>(), b in any::<u128>(), w in 1u16..=128) {
        let ba = Bits::from_u128(a, w);
        let bb = Bits::from_u128(b, w);
        let expect = (a & mask(w)).wrapping_add(b & mask(w)) & mask(w);
        prop_assert_eq!(ba.wrapping_add(&bb).to_u128(), expect);
    }

    #[test]
    fn sub_matches_u128(a in any::<u128>(), b in any::<u128>(), w in 1u16..=128) {
        let ba = Bits::from_u128(a, w);
        let bb = Bits::from_u128(b, w);
        let expect = (a & mask(w)).wrapping_sub(b & mask(w)) & mask(w);
        prop_assert_eq!(ba.wrapping_sub(&bb).to_u128(), expect);
    }

    #[test]
    fn mul_matches_u128(a in any::<u128>(), b in any::<u128>(), w in 1u16..=128) {
        let ba = Bits::from_u128(a, w);
        let bb = Bits::from_u128(b, w);
        let expect = (a & mask(w)).wrapping_mul(b & mask(w)) & mask(w);
        prop_assert_eq!(ba.wrapping_mul(&bb).to_u128(), expect);
    }

    #[test]
    fn logic_matches_u128(a in any::<u128>(), b in any::<u128>(), w in 1u16..=128) {
        let ba = Bits::from_u128(a, w);
        let bb = Bits::from_u128(b, w);
        prop_assert_eq!(ba.and(&bb).to_u128(), a & b & mask(w));
        prop_assert_eq!(ba.or(&bb).to_u128(), (a | b) & mask(w));
        prop_assert_eq!(ba.xor(&bb).to_u128(), (a ^ b) & mask(w));
        prop_assert_eq!(ba.not().to_u128(), !a & mask(w));
    }

    #[test]
    fn shifts_match_u128(a in any::<u128>(), n in 0u32..200, w in 1u16..=128) {
        let ba = Bits::from_u128(a, w);
        let expect_shl = if n >= 128 { 0 } else { ((a & mask(w)) << n) & mask(w) };
        let expect_shr = if n >= 128 { 0 } else { (a & mask(w)) >> n };
        prop_assert_eq!(ba.shl(n).to_u128(), expect_shl);
        prop_assert_eq!(ba.shr(n).to_u128(), expect_shr);
    }

    #[test]
    fn cmp_matches_u128(a in any::<u128>(), b in any::<u128>()) {
        let ba = Bits::from_u128(a, 128);
        let bb = Bits::from_u128(b, 128);
        prop_assert_eq!(ba.cmp_u(&bb), a.cmp(&b));
    }

    #[test]
    fn be_bytes_round_trip(bytes in proptest::collection::vec(any::<u8>(), 1..=64)) {
        let b = Bits::from_be_bytes(&bytes);
        prop_assert_eq!(b.to_be_bytes(), bytes);
    }

    #[test]
    fn slice_concat_inverse(a in any::<u128>(), split in 1u16..127) {
        let b = Bits::from_u128(a, 128);
        let hi = b.slice(127, split);
        let lo = b.slice(split - 1, 0);
        prop_assert_eq!(hi.concat(&lo), b);
    }

    #[test]
    fn bitutil_round_trip(off in 0usize..28, v in any::<u32>()) {
        let mut buf = [0u8; 32];
        bitutil::set32(&mut buf, off, v);
        prop_assert_eq!(bitutil::get32(&buf, off), v);
    }

    #[test]
    fn checksum_update_equals_recompute(
        mut data in proptest::collection::vec(any::<u8>(), 4..64),
        idx in 0usize..30,
        new_word in any::<u16>(),
    ) {
        // Force even length so word indices are stable.
        if data.len() % 2 == 1 { data.pop(); }
        let idx = (idx * 2) % data.len();
        let old_csum = checksum::internet_checksum(&data);
        let old_w = u16::from_be_bytes([data[idx], data[idx + 1]]);
        data[idx] = (new_word >> 8) as u8;
        data[idx + 1] = new_word as u8;
        let updated = checksum::update_word(old_csum, old_w, new_word);
        let recomputed = checksum::internet_checksum(&data);
        prop_assert_eq!(updated, recomputed);
    }

    #[test]
    fn checksum_verify_after_embedding(data in proptest::collection::vec(any::<u8>(), 2..64)) {
        // Append a checksum and verify the whole buffer folds to zero.
        let mut data = data;
        if data.len() % 2 == 1 { data.push(0); }
        let c = checksum::internet_checksum(&data);
        data.extend_from_slice(&c.to_be_bytes());
        prop_assert!(checksum::verify(&data));
    }
}

/// The frame builders as they were first composed — each L4 segment in
/// a buffer of its own, its checksum filled in, then the frame around a
/// copy of it, padded by `Frame::new` — kept verbatim but for names,
/// and only ever used by this test.
mod composed {
    use emu_types::checksum::{self, Csum};
    use emu_types::proto::{ether_type, hdr_len, ip_proto, offset};
    use emu_types::{bitutil, Frame, Ipv4, MacAddr};

    pub fn ethernet(dst: MacAddr, src: MacAddr, ethertype: u16, payload: &[u8]) -> Frame {
        let mut bytes = Vec::with_capacity(14 + payload.len());
        bytes.extend_from_slice(&dst.octets());
        bytes.extend_from_slice(&src.octets());
        bytes.extend_from_slice(&ethertype.to_be_bytes());
        bytes.extend_from_slice(payload);
        Frame::new(bytes)
    }

    pub fn l2_frame(src: u64, dst: u64, in_port: u8) -> Frame {
        let mut f = ethernet(
            MacAddr::from_u64(dst),
            MacAddr::from_u64(src),
            ether_type::IPV4,
            &[0; 46],
        );
        f.in_port = in_port;
        f
    }

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

    fn l4_checksum(src: Ipv4, dst: Ipv4, proto: u8, segment: &[u8]) -> u16 {
        let mut c = Csum::new();
        c.add_bytes(&src.octets());
        c.add_bytes(&dst.octets());
        c.add_word(u16::from(proto));
        c.add_word(segment.len() as u16);
        c.add_bytes(segment);
        c.finish()
    }

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

    pub fn udp_segment(sport: u16, dport: u16, payload: &[u8]) -> Vec<u8> {
        let mut seg = Vec::with_capacity(hdr_len::UDP + payload.len());
        seg.extend_from_slice(&sport.to_be_bytes());
        seg.extend_from_slice(&dport.to_be_bytes());
        seg.extend_from_slice(&((hdr_len::UDP + payload.len()) as u16).to_be_bytes());
        seg.extend_from_slice(&[0, 0]);
        seg.extend_from_slice(payload);
        seg
    }

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

    pub fn with_l4_checksum(src: Ipv4, dst: Ipv4, proto: u8, mut segment: Vec<u8>) -> Vec<u8> {
        let c = l4_checksum(src, dst, proto, &segment);
        if proto == ip_proto::TCP {
            bitutil::set16(&mut segment, 16, c);
        } else {
            bitutil::set16(&mut segment, 6, if c == 0 { 0xffff } else { c });
        }
        segment
    }

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
        let mut f = ethernet(MacAddr::BROADCAST, src_mac, ether_type::ARP, &p);
        f.in_port = in_port;
        f
    }

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

    pub fn dns_name(name: &str) -> Vec<u8> {
        let mut out = Vec::with_capacity(name.len() + 2);
        for label in name.split('.').filter(|l| !l.is_empty()) {
            out.push(label.len() as u8);
            out.extend_from_slice(label.as_bytes());
        }
        out.push(0);
        out
    }

    pub fn dns_query(name: &str, id: u16) -> Vec<u8> {
        let mut dns = Vec::with_capacity(12 + name.len() + 2 + 4);
        dns.extend_from_slice(&id.to_be_bytes());
        dns.extend_from_slice(&[0x01, 0x00]); // RD
        dns.extend_from_slice(&[0, 1, 0, 0, 0, 0, 0, 0]); // QDCOUNT = 1
        dns.extend_from_slice(&dns_name(name));
        dns.extend_from_slice(&[0, 1, 0, 1]); // QTYPE A, QCLASS IN
        dns
    }

    pub fn mc_request(body: &str, id: u16) -> Vec<u8> {
        let mut p = Vec::with_capacity(8 + body.len());
        p.extend_from_slice(&id.to_be_bytes());
        p.extend_from_slice(&[0, 0, 0, 1, 0, 0]);
        p.extend_from_slice(body.as_bytes());
        p
    }
}

/// What two frames must agree on: length, arrival port and bytes.
fn parts(f: &Frame) -> (usize, u8, Vec<u8>) {
    (f.len(), f.in_port, f.bytes().to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every builder lays out, byte for byte, what the composed
    /// reference did, for random fields and payloads of 0..=1480 bytes
    /// (odd lengths included), and every UDP and TCP frame verifies.
    #[test]
    fn builders_equal_the_composed_reference(
        pick in proptest::collection::vec(any::<u64>(), 4),
        len in 0usize..=1480,
    ) {
        let data: Vec<u8> = (0..len).map(|i| (pick[3] >> (i % 8 * 8)) as u8 ^ i as u8).collect();
        let (smac, dmac) = (MacAddr::from_u64(pick[0] >> 16), MacAddr::from_u64(pick[1] >> 16));
        let (src, dst) = (Ipv4(pick[0] as u32), Ipv4(pick[1] as u32));
        let (sport, dport, ident) = (pick[2] as u16, (pick[2] >> 16) as u16, (pick[2] >> 32) as u16);
        let (seq, ack) = (pick[3] as u32, (pick[3] >> 32) as u32);
        let (flags, in_port) = ((pick[2] >> 48) as u8, (pick[2] >> 56) as u8);
        let env = Envelope { src_mac: smac, dst_mac: dmac, src, dst, ident, in_port };
        let around = |proto: u8, seg: &[u8]| {
            parts(&composed::ipv4_frame(smac, dmac, src, dst, proto, ident, seg, in_port))
        };

        // The composed forms keep their signatures and their bytes.
        let udp = wire::udp_frame(smac, dmac, src, sport, dst, dport, &data, in_port);
        prop_assert_eq!(
            parts(&udp),
            parts(&composed::udp_frame(smac, dmac, src, sport, dst, dport, &data, in_port))
        );
        let tcp = wire::tcp_frame(smac, dmac, src, sport, dst, dport, seq, ack, flags, &data, in_port);
        prop_assert_eq!(
            parts(&tcp),
            parts(&composed::tcp_frame(smac, dmac, src, sport, dst, dport, seq, ack, flags, &data, in_port))
        );
        for f in [&udp, &tcp] {
            prop_assert_eq!(wire::ipv4_csum_ok(f), Some(true));
            prop_assert_eq!(wire::l4_csum_ok(f), Some(true));
        }
        prop_assert_eq!(
            parts(&wire::ipv4_frame(smac, dmac, src, dst, flags, ident, &data, in_port)),
            around(flags, &data)
        );

        // The envelope, under every L4 header.
        for checksum in [false, true] {
            let f = env.frame(L4::Udp { sport, dport, checksum }, Payload::Bytes(&data));
            let seg = composed::udp_segment(sport, dport, &data);
            let seg = if checksum {
                composed::with_l4_checksum(src, dst, ip_proto::UDP, seg)
            } else {
                seg
            };
            prop_assert_eq!(parts(&f), around(ip_proto::UDP, &seg));
            prop_assert_eq!(wire::l4_csum_ok(&f), Some(true));
        }
        let syn = L4::Tcp { sport, dport, seq, ack, flags };
        let seg = composed::tcp_segment(sport, dport, seq, ack, flags, &data);
        prop_assert_eq!(
            parts(&env.frame(syn, Payload::Bytes(&data))),
            around(ip_proto::TCP, &composed::with_l4_checksum(src, dst, ip_proto::TCP, seg))
        );
        let echo = composed::echo_request(sport, dport, &data);
        prop_assert_eq!(&wire::echo_request(sport, dport, &data), &echo);
        prop_assert_eq!(
            parts(&env.frame(L4::Echo { ident: sport, seq: dport }, Payload::Bytes(&data))),
            around(ip_proto::ICMP, &echo)
        );

        // The payloads written in place.
        let ramp: Vec<u8> = (0..len).map(|i| flags.wrapping_add(i as u8)).collect();
        prop_assert_eq!(
            parts(&env.frame(syn, Payload::Ramp { first: flags, len })),
            parts(&env.frame(syn, Payload::Bytes(&ramp)))
        );
        let text: String = data.iter().map(|b| char::from(32 + b % 95)).collect();
        let (a, b) = ((pick[0] as usize) % (len + 1), (pick[1] as usize) % (len + 1));
        let (a, b) = (a.min(b), a.max(b));
        let pieces: [&[u8]; 3] = [&text.as_bytes()[..a], &text.as_bytes()[a..b], &text.as_bytes()[b..]];
        let mc = composed::mc_request(&text, ident);
        prop_assert_eq!(&wire::mc_request(&text, ident), &mc);
        let l4 = L4::Udp { sport, dport, checksum: false };
        prop_assert_eq!(
            parts(&env.frame(l4, Payload::Mc { id: ident, text: &pieces })),
            around(ip_proto::UDP, &composed::udp_segment(sport, dport, &mc))
        );
        let name: String = data
            .iter()
            .map(|b| if b % 7 == 0 { '.' } else { char::from(b'a' + b % 26) })
            .collect();
        prop_assert_eq!(wire::dns_name(&name), composed::dns_name(&name));
        let query = composed::dns_query(&name, ident);
        prop_assert_eq!(&wire::dns_query(&name, ident), &query);
        prop_assert_eq!(
            parts(&env.frame(l4, Payload::Dns { id: ident, name: &name })),
            around(ip_proto::UDP, &composed::udp_segment(sport, dport, &query))
        );

        // The L2 builders.
        prop_assert_eq!(
            parts(&wire::arp_request(smac, src, dst, in_port)),
            parts(&composed::arp_request(smac, src, dst, in_port))
        );
        prop_assert_eq!(
            parts(&wire::l2_frame(pick[0] >> 16, pick[1] >> 16, in_port)),
            parts(&composed::l2_frame(pick[0] >> 16, pick[1] >> 16, in_port))
        );
        prop_assert_eq!(
            parts(&Frame::ethernet(dmac, smac, flags.into(), &data)),
            parts(&composed::ethernet(dmac, smac, flags.into(), &data))
        );
    }
}

/// The digits the generators write without `format!` are `format!`'s,
/// at the boundaries where the padded width stops padding.
#[test]
fn decimal_digits_equal_format_at_the_width_boundaries() {
    for rank in [0u64, 9_999, 10_000, 99_999, 100_000, 999_999] {
        let key = [b"z", Decimal::new(rank, 4).as_bytes()].concat();
        assert_eq!(key, format!("z{rank:04}").into_bytes(), "rank {rank}");
    }
    for counter in [0u64, 9_999_999] {
        let value = [b"V", Decimal::new(counter, 7).as_bytes()].concat();
        assert_eq!(
            value,
            format!("V{counter:07}").into_bytes(),
            "counter {counter}"
        );
    }
    // No width still writes one digit; `u64::MAX` fills all 20.
    for (v, w) in [(0u64, 0usize), (7, 0), (u64::MAX, 0), (9, 20)] {
        assert_eq!(Decimal::new(v, w).as_bytes(), format!("{v:0w$}").as_bytes());
    }
}

/// Counts heap allocations per thread, so one test can count what a
/// call allocates while other tests run beside it.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is passed on to `System` unchanged; counting only
// touches a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Each builder allocates one buffer — no segment, no text, no padding
/// reallocation — at small, odd and full-size frame lengths.
#[test]
fn every_builder_allocates_its_frame_once() {
    let (smac, dmac) = (MacAddr::from_u64(0x0200_0000_0001), MacAddr::from_u64(2));
    let (src, dst) = (Ipv4::new(10, 0, 0, 1), Ipv4::new(10, 0, 0, 2));
    let env = Envelope {
        src_mac: smac,
        dst_mac: dmac,
        src,
        dst,
        ident: 7,
        in_port: 1,
    };
    let udp = L4::Udp {
        sport: 5_042,
        dport: 11_211,
        checksum: false,
    };
    let data = vec![0x5a; 1472];
    let once = |name: &str, build: &dyn Fn() -> Frame| {
        let before = ALLOCS.with(Cell::get);
        let f = build();
        let n = ALLOCS.with(Cell::get) - before;
        assert_eq!(n, 1, "{name} ({} B) allocated {n} times", f.len());
    };
    once("l2_frame", &|| wire::l2_frame(1, 2, 0));
    once("arp_request", &|| wire::arp_request(smac, src, dst, 0));
    once("Frame::ethernet", &|| {
        Frame::ethernet(dmac, smac, 0x0800, &data[..3])
    });
    for n in [0, 17, 18, 1472] {
        once("udp_frame", &|| {
            wire::udp_frame(smac, dmac, src, 1, dst, 2, &data[..n], 0)
        });
        once("tcp_frame", &|| {
            wire::tcp_frame(smac, dmac, src, 1, dst, 2, 3, 4, 0x18, &data[..n], 0)
        });
        once("ipv4_frame", &|| {
            wire::ipv4_frame(smac, dmac, src, dst, 17, 0, &data[..n], 0)
        });
        once("echo", &|| {
            env.frame(
                L4::Echo { ident: 1, seq: 2 },
                Payload::Ramp { first: 0, len: n },
            )
        });
    }
    let key = Decimal::new(42, 4);
    let text: &[&[u8]] = &[b"get z", key.as_bytes(), b"\r\n"];
    once("memcached", &|| env.frame(udp, Payload::Mc { id: 9, text }));
    once("dns", &|| {
        env.frame(
            udp,
            Payload::Dns {
                id: 9,
                name: "example.com",
            },
        )
    });
}
