//! DNS server (§4.3).
//!
//! "We provide a simple DNS server that supports non-recursive queries.
//! Our prototype supports resolution queries from names (of length at
//! most 26 bytes) to IPv4 addresses... If the queried name is absent from
//! the resolution table, the server informs the client that it cannot
//! resolve the name." Table 4: 1.82 µs / 1.176 Mq/s vs 126.46 µs / 0.226
//! Mq/s on the host.
//!
//! The wire-format QNAME (up to `MAX_NAME_BYTES`) is accumulated one
//! byte per cycle into a wide key register — this is exactly the workload
//! the paper's wide-word extension (§3.2(iv)) exists for — then resolved
//! through a CAM holding the zone. Responses answer with an A record via
//! a compression pointer; absent names get RCODE 3 (NXDOMAIN), oversized
//! names RCODE 4 (not implemented).

use emu_core::csum::csum_update_word;
use emu_core::ipblock::CamIf;
use emu_core::proto::{DnsWrapper, Ipv4Wrapper, UdpWrapper};
use emu_core::{service_builder, Service};
use emu_rtl::{CamModel, IpEnv};
use emu_types::proto::{ether_type, ip_proto, port};
use emu_types::{Bits, Ipv4};
use kiwi_ir::dsl::*;

/// Maximum wire-format name length (paper: "length at most 26 bytes").
pub(crate) const MAX_NAME_BYTES: usize = 26;

/// CAM key width: 26 name bytes left-shifted into a wide register.
pub(crate) const KEY_BITS: u16 = (MAX_NAME_BYTES as u16) * 8;

/// Zone capacity.
pub(crate) const ZONE_ENTRIES: usize = 256;

const FRAME_CAP: usize = 512;

/// The CAM key for a name: wire bytes (excluding the terminal zero)
/// folded MSB-first, exactly as the hardware accumulation loop does.
pub(crate) fn dns_key(name: &str) -> Bits {
    let wire = emu_types::wire::dns_name(name);
    let mut key = Bits::zero(KEY_BITS);
    for &b in &wire[..wire.len() - 1] {
        key = key.shl(8).or(&Bits::from_u64(u64::from(b), KEY_BITS));
    }
    key
}

/// Builds the DNS service answering for the given zone.
pub fn dns_server(zone: Vec<(String, Ipv4)>) -> Service {
    let (mut pb, dp) = service_builder("emu_dns", FRAME_CAP);
    let ip = Ipv4Wrapper::new(dp);
    let udp = UdpWrapper::new(dp);
    let dns = DnsWrapper::new(dp);
    let cam = CamIf::declare(&mut pb, "zone", KEY_BITS, 32);

    let scratch48 = pb.reg("scratch48", 48);
    let scratch32 = pb.reg("scratch32", 32);
    let scratch16 = pb.reg("scratch16", 16);
    let key = pb.reg("qname_key", KEY_BITS);
    let idx = pb.reg("idx", 16);
    let b = pb.reg("b", 8);
    let too_long = pb.reg("too_long", 1);
    let hit = pb.reg("hit", 1);
    let answer_ip = pb.reg("answer_ip", 32);
    let ans_off = pb.reg("ans_off", 16);
    let old_total = pb.reg("old_total", 16);
    let csum_new = pb.reg("csum_new", 16);

    // --- QNAME accumulation: one byte per cycle ----------------------
    let parse_loop = vec![
        assign(key, lit(0, KEY_BITS)),
        assign(too_long, fls()),
        assign(idx, lit(DnsWrapper::QUESTION as u64, 16)),
        while_loop(
            tru(),
            vec![
                assign(b, dp.byte_dyn(var(idx))),
                if_then(eq(var(b), lit(0, 8)), vec![break_loop()]),
                if_then(
                    ge(
                        var(idx),
                        lit((DnsWrapper::QUESTION + MAX_NAME_BYTES) as u64, 16),
                    ),
                    vec![assign(too_long, tru()), break_loop()],
                ),
                assign(key, bor(shl(var(key), lit(8, 8)), resize(var(b), KEY_BITS))),
                assign(idx, add(var(idx), lit(1, 16))),
                pause(),
            ],
        ),
        // Answer section offset: name end (+1 for the zero) + QTYPE/QCLASS.
        assign(ans_off, add(var(idx), lit(5, 16))),
    ];

    // --- Response construction ---------------------------------------
    // Common reply plumbing: swap addresses/ports at L2/L3/L4.
    let mut reply_common = Vec::new();
    reply_common.extend(dp.swap_macs(scratch48));
    reply_common.extend(ip.swap_addrs(scratch32));
    reply_common.extend(udp.swap_ports(scratch16));
    reply_common.extend(udp.clear_checksum());

    // Success: append a 16-byte A record at ans_off.
    let ans = |k: u64| add(var(ans_off), lit(k, 16));
    let record: Vec<(u64, u64)> = vec![
        (0, 0xc0),
        (1, 0x0c), // compression pointer to the question name
        (2, 0x00),
        (3, 0x01), // TYPE A
        (4, 0x00),
        (5, 0x01), // CLASS IN
        (6, 0x00),
        (7, 0x00),
        (8, 0x00),
        (9, 0x3c), // TTL 60s
        (10, 0x00),
        (11, 0x04), // RDLENGTH 4
    ];
    let mut success = vec![assign(answer_ip, cam.value())];
    success.extend(dns.set_response_flags(0));
    success.extend(dns.set_ancount(lit(1, 16)));
    for (k, v) in record {
        success.push(dp.set8_dyn(ans(k), lit(v, 8)));
    }
    for k in 0..4u64 {
        let hi = (31 - 8 * k) as u16;
        success.push(dp.set8_dyn(ans(12 + k), slice(var(answer_ip), hi, hi - 7)));
    }
    // New lengths: frame = ans_off + 16; update IP total length (with an
    // incremental checksum fix, via a register since the update reads the
    // checksum field it rewrites) and the UDP length.
    let new_total = sub(add(var(ans_off), lit(16, 16)), lit(14, 16));
    success.push(assign(old_total, ip.total_len()));
    success.extend(dp.set16(16, new_total.clone()));
    success.extend(dp.set16_via(
        csum_new,
        emu_types::proto::offset::IPV4_CSUM,
        csum_update_word(ip.header_checksum(), var(old_total), new_total),
    ));
    success.extend(udp.set_len(sub(add(var(ans_off), lit(16, 16)), lit(34, 16))));
    success.push(dp.set_output_port(dp.input_port()));
    success.extend(dp.transmit(add(var(ans_off), lit(16, 16))));

    // Failure: NXDOMAIN (or NOTIMP for oversized names), no answer
    // records, frame length unchanged.
    let failure = |rcode: u8| {
        let mut f = Vec::new();
        f.extend(dns.set_response_flags(rcode));
        f.extend(dns.set_ancount(lit(0, 16)));
        f.push(dp.set_output_port(dp.input_port()));
        f.extend(dp.transmit(dp.rx_len()));
        f
    };

    // --- Main loop -----------------------------------------------------
    let is_query = band(
        band(
            dp.ethertype_is(ether_type::IPV4),
            ip.protocol_is(ip_proto::UDP),
        ),
        band(
            eq(udp.dst_port(), lit(u64::from(port::DNS), 16)),
            band(
                eq(slice(dns.flags(), 15, 15), lit(0, 1)), // QR = query
                band(eq(dns.qdcount(), lit(1, 16)), lnot(ip.has_options())),
            ),
        ),
    );

    let mut handle = parse_loop;
    // Every query gets a reply: swap L2/L3/L4 addressing once, up front.
    handle.extend(reply_common);
    let mut resolve = cam.lookup(var(key));
    resolve.push(assign(hit, cam.matched()));
    resolve.push(if_else(
        var(hit),
        success,
        failure(3), // NXDOMAIN
    ));
    handle.push(if_else(var(too_long), failure(4), resolve));

    let mut body = vec![dp.rx_wait(), label("rx"), ext_point(0)];
    body.push(if_then(is_query, handle));
    body.extend(dp.done());

    pb.thread("main", vec![forever(body)]);
    let prog = pb.build().expect("dns program is well-formed");

    Service::with_sized_env(prog, move |_| {
        let mut model = CamModel::new(&cam, ZONE_ENTRIES, false);
        for (name, addr) in &zone {
            model.insert(dns_key(name), Bits::from_u64(u64::from(addr.0), 32));
        }
        let mut env = IpEnv::new();
        env.attach(Box::new(model));
        env
    })
}

/// Builds a DNS query test frame for `name` with transaction `id`.
pub fn query_frame(name: &str, id: u16) -> emu_types::Frame {
    use emu_types::wire::{Envelope, Payload, L4};
    use emu_types::MacAddr;
    let env = Envelope {
        src_mac: MacAddr::from_u64(0x02_00_00_00_00_bb),
        dst_mac: MacAddr::from_u64(0x02_00_00_00_00_aa),
        src: Ipv4::new(10, 0, 0, 50),
        dst: Ipv4::new(10, 0, 0, 53),
        ident: id & 0xff,
        in_port: 1,
    };
    let l4 = L4::Udp {
        sport: 4242,
        dport: port::DNS,
        checksum: false,
    };
    env.frame(l4, Payload::Dns { id, name })
}

#[cfg(test)]
mod tests {
    use super::*;
    use emu_core::{assert_targets_agree, Target};
    use emu_types::bitutil;
    use emu_types::wire::dns_name;

    fn test_zone() -> Vec<(String, Ipv4)> {
        vec![
            ("example.com".into(), "93.184.216.34".parse().unwrap()),
            ("emu.cl.cam.ac.uk".into(), "128.232.0.20".parse().unwrap()),
            ("a.b".into(), "1.2.3.4".parse().unwrap()),
        ]
    }

    #[test]
    fn resolves_known_name() {
        let svc = dns_server(test_zone());
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        let q = query_frame("example.com", 0x1234);
        let out = inst.process(&q).unwrap();
        assert_eq!(out.tx.len(), 1);
        let b = out.tx[0].frame.bytes();
        // Response bit + NOERROR.
        assert_eq!(bitutil::get16(b, 44) & 0x800f, 0x8000);
        // ANCOUNT = 1.
        assert_eq!(bitutil::get16(b, 48), 1);
        // The answer's rdata carries the right address at the tail.
        let ans_off = 54 + dns_name("example.com").len() + 4;
        assert_eq!(&b[ans_off..ans_off + 2], &[0xc0, 0x0c]);
        assert_eq!(&b[ans_off + 12..ans_off + 16], &[93, 184, 216, 34]);
        // UDP ports swapped; transaction id preserved.
        assert_eq!(bitutil::get16(b, 34), 53);
        assert_eq!(bitutil::get16(b, 36), 4242);
        assert_eq!(bitutil::get16(b, 42), 0x1234);
        // IP header checksum still valid after the length fix.
        assert!(emu_types::checksum::verify(&b[14..34]));
    }

    #[test]
    fn unknown_name_gets_nxdomain() {
        let svc = dns_server(test_zone());
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        let out = inst.process(&query_frame("nope.invalid", 7)).unwrap();
        assert_eq!(out.tx.len(), 1);
        let b = out.tx[0].frame.bytes();
        assert_eq!(bitutil::get16(b, 44) & 0x000f, 3, "RCODE must be NXDOMAIN");
        assert_eq!(bitutil::get16(b, 48), 0, "no answers");
    }

    #[test]
    fn oversized_name_gets_notimp() {
        let svc = dns_server(test_zone());
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        let long = "aaaaaaaaaaaaaaaaaaaa.bbbbbbbbbbbbbbbbbbbb.cc";
        assert!(dns_name(long).len() > MAX_NAME_BYTES);
        let out = inst.process(&query_frame(long, 9)).unwrap();
        let b = out.tx[0].frame.bytes();
        assert_eq!(bitutil::get16(b, 44) & 0x000f, 4, "RCODE must be NOTIMP");
    }

    #[test]
    fn non_dns_traffic_ignored() {
        let svc = dns_server(test_zone());
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        let mut q = query_frame("example.com", 1);
        bitutil::set16(q.bytes_mut(), 36, 5353); // wrong port
        assert!(inst.process(&q).unwrap().tx.is_empty());
        // A DNS *response* (QR=1) must be ignored.
        let mut r = query_frame("example.com", 2);
        r.bytes_mut()[44] = 0x81;
        assert!(inst.process(&r).unwrap().tx.is_empty());
    }

    #[test]
    fn key_encoding_host_and_wire_agree() {
        // Injective on distinct short names.
        assert_ne!(dns_key("a.b"), dns_key("ab"));
        assert_ne!(dns_key("example.com"), dns_key("example.org"));
    }

    #[test]
    fn targets_agree() {
        let frames = vec![
            query_frame("example.com", 1),
            query_frame("nope.invalid", 2),
            query_frame("a.b", 3),
        ];
        assert_targets_agree(&dns_server(test_zone()), &frames).unwrap();
    }

    #[test]
    fn cycle_count_band() {
        // ~170 cycles implied by Table 4's 1.176 Mq/s; accept a band.
        let svc = dns_server(test_zone());
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        let out = inst.process(&query_frame("emu.cl.cam.ac.uk", 1)).unwrap();
        assert!(
            (30..=250).contains(&out.cycles),
            "dns took {} cycles",
            out.cycles
        );
    }
}
