//! Every frame the support code builds, pinned as literals.
//!
//! The fixture builders of `emu_services`, the general builders behind
//! `emu_traffic::build`, the seeded `emu-traffic` generators and the
//! `emu-hosts` client protocols all assemble frames from fields; the
//! digests below were recorded while each of them laid its bytes out by
//! hand. Whatever assembles them now must reproduce every byte, length
//! and `in_port`. (`-- --nocapture` prints a run's digests in literal
//! syntax.)

use emu::hosts::{ClientConfig, DnsClient, McClient, TcpClient, KICK};
use emu::prelude::*;
use emu::services::{dns, icmp, memcached, nat, tcp_ping};
use emu::simnet::HostAgent;
use emu::traffic::build;
use emu::traffic::{
    Adversarial, Background, DnsWeighted, FlowChurn, MacChurn, MemcachedZipf, TcpConversations,
    TrafficGen,
};
use emu::types::proto::tcp_flags;

/// FNV-1a over every frame's `in_port`, length and bytes.
fn digest(frames: impl IntoIterator<Item = Frame>) -> u64 {
    let fnv = |h: u64, bytes: &[u8]| {
        bytes.iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    frames.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, f| {
        let h = fnv(h, &[f.in_port]);
        let h = fnv(h, &(f.len() as u32).to_le_bytes());
        fnv(h, f.bytes())
    })
}

fn check(got: &[(&str, u64)], want: &[(&str, u64)]) {
    for (name, d) in got {
        println!("        (\"{name}\", {d:#018x}),");
    }
    assert_eq!(got, want, "a builder's bytes moved");
}

fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4 {
    Ipv4::new(a, b, c, d)
}

#[test]
fn fixture_and_general_builders_are_pinned() {
    let mac = MacAddr::from_u64;
    let udp = build::udp_frame(
        mac(0x0200_0000_0011),
        mac(0x0200_0000_0022),
        ip(192, 168, 1, 50),
        3333,
        ip(203, 0, 113, 1),
        40_000,
        b"translated",
        2,
    );
    let tcp = build::tcp_frame(
        mac(0x0200_0000_0011),
        mac(0x0200_0000_0022),
        ip(192, 168, 1, 50),
        40_001,
        ip(8, 8, 8, 8),
        443,
        0xfeed_f00d,
        0x0bad_cafe,
        tcp_flags::ACK | tcp_flags::PSH,
        b"hello, world",
        3,
    );
    let got = [
        (
            "nat::udp_frame",
            digest([
                nat::udp_frame(ip(192, 168, 1, 50), 3333, ip(8, 8, 8, 8), 53, 2),
                nat::udp_frame(ip(8, 8, 8, 8), 53, ip(203, 0, 113, 1), 1024, 0),
                nat::udp_frame(ip(10, 0, 0, 1), 0, ip(10, 0, 0, 2), 65_535, 3),
            ]),
        ),
        (
            "dns::query_frame",
            digest([
                dns::query_frame("example.com", 0x1234),
                dns::query_frame("a.b", 7),
                dns::query_frame("aaaaaaaaaaaaaaaaaaaa.bbbbbbbbbbbbbbbbbbbb.cc", 0xffff),
                dns::query_frame("", 0),
            ]),
        ),
        (
            "memcached::request_frame",
            digest([
                memcached::request_frame("get foo\r\n", 1),
                memcached::request_frame("set foo 0 0 8\r\nAAAABBBB\r\n", 0xabcd),
                memcached::request_frame("delete foo\r\n", 0),
                memcached::request_frame("", 9),
            ]),
        ),
        (
            "icmp::echo_request_frame",
            digest([
                icmp::echo_request_frame(0, 0),
                icmp::echo_request_frame(8, 1),
                icmp::echo_request_frame(56, 0x1234),
                icmp::echo_request_frame(1000, 0xffff),
            ]),
        ),
        (
            "tcp_ping::syn_frame",
            digest([
                tcp_ping::syn_frame(40_000, 80, 0x1000),
                tcp_ping::syn_frame(1, 2, 3),
                tcp_ping::syn_frame(65_535, 22, 0xffff_ffff),
            ]),
        ),
        ("build::udp_frame", digest([udp.clone()])),
        ("build::tcp_frame", digest([tcp.clone()])),
        (
            "build::arp_request",
            digest([
                build::arp_request(mac(0xa), ip(10, 0, 0, 1), ip(10, 0, 0, 2), 3),
                build::arp_request(mac(0x0200_0000_b001), ip(10, 2, 1, 1), ip(10, 2, 9, 1), 0),
            ]),
        ),
        (
            "build::reply_to",
            digest([
                build::reply_to(&udp, b"pong"),
                build::reply_to(&tcp, b"ignored"),
            ]),
        ),
    ];
    check(
        &got,
        &[
            ("nat::udp_frame", 0x6289e8b2101202f6),
            ("dns::query_frame", 0x15433fc4fc934258),
            ("memcached::request_frame", 0xbb4216c7bb871e83),
            ("icmp::echo_request_frame", 0xc329c2bbbbc19a97),
            ("tcp_ping::syn_frame", 0x5c21f146f81c32d5),
            ("build::udp_frame", 0x81ad04665b58ecb8),
            ("build::tcp_frame", 0x56330777a53f5ff6),
            ("build::arp_request", 0x4a33ed47befc5665),
            ("build::reply_to", 0xf267dc337b36fccd),
        ],
    );
}

#[test]
fn generator_streams_are_pinned() {
    const SEED: u64 = 0x601d_0022;
    fn first(mut g: impl TrafficGen) -> u64 {
        digest((0..512).map(|_| g.next_frame()))
    }
    let got = [
        (
            "MemcachedZipf",
            first(MemcachedZipf::new(SEED, 256, 1.1, 0.9)),
        ),
        (
            "DnsWeighted",
            first(DnsWeighted::new(
                SEED,
                &[("example.com", 6), ("a.b", 3), ("nope.invalid", 1)],
            )),
        ),
        ("Background", first(Background::new(SEED, &[0, 1, 2, 3]))),
        (
            "TcpConversations",
            first(TcpConversations::new(SEED, 8, &[1, 2, 3])),
        ),
        (
            "FlowChurn",
            first(FlowChurn::new(SEED, 40, 150, &[1, 2, 3])),
        ),
        ("MacChurn", first(MacChurn::new(SEED, 24, 120))),
        ("Adversarial", first(Adversarial::new(SEED, &[0, 1, 2, 3]))),
    ];
    check(
        &got,
        &[
            ("MemcachedZipf", 0x4b2ca449875cf592),
            ("DnsWeighted", 0xcbefc22d46cfa2ec),
            ("Background", 0x9a5e0f51fb679d5b),
            ("TcpConversations", 0x3e5c20acb42e0574),
            ("FlowChurn", 0x575d4036abcc5f05),
            ("MacChurn", 0x62f8ed6ff6188350),
            ("Adversarial", 0xde2b4ce1b8b3e86a),
        ],
    );
}

/// The first `n` requests a client issues when nothing ever answers:
/// kick, let the one transmission time out, take the next kick.
fn requests(mut client: impl HostAgent, n: u64) -> u64 {
    let mut sent = Vec::new();
    for serial in 0..n {
        let out = client.on_timer(0.0, KICK | serial);
        assert_eq!(out.tx.len(), 1, "request {serial} was not issued");
        sent.extend(out.tx.into_iter().map(|(_, f)| f));
        client.on_timer(1.0, serial);
    }
    digest(sent)
}

#[test]
fn client_requests_are_pinned() {
    const SEED: u64 = 0x601d_0023;
    let cfg = ClientConfig {
        requests: 32,
        retries: 0,
        ..ClientConfig::default()
    };
    let (mac, ip_, smac, sip) = (
        MacAddr::from_u64(0x0200_0000_c101),
        ip(10, 1, 0, 7),
        MacAddr::from_u64(0x0200_0000_5e01),
        ip(10, 9, 0, 1),
    );
    let names = vec![
        ("example.com".to_string(), Some(ip(93, 184, 216, 34))),
        ("a.b".to_string(), Some(ip(1, 2, 3, 4))),
        ("nope.invalid".to_string(), None),
    ];
    let got = [
        (
            "McClient",
            requests(
                McClient::new("mc", mac, ip_, 7001, smac, sip, "k7_", 16, SEED, cfg),
                32,
            ),
        ),
        (
            "DnsClient",
            requests(
                DnsClient::new("dns", mac, ip_, 7002, smac, sip, names, SEED, cfg),
                32,
            ),
        ),
        (
            "TcpClient",
            requests(
                TcpClient::new("tcp", mac, ip_, 20_000, smac, sip, 80, SEED, cfg),
                32,
            ),
        ),
    ];
    check(
        &got,
        &[
            ("McClient", 0x09c1289c2fc776b0),
            ("DnsClient", 0xf61c085c54c0985c),
            ("TcpClient", 0xfc5e8d1ab736d617),
        ],
    );
}
