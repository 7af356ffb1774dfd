//! Functional differential tests: the host services of
//! `hoststack::services` are the reference for the Emu services on
//! every target — the paper's claim that the *same service semantics*
//! move between host and hardware. [`HostChecker`] demands the engine's
//! replies equal the host's, byte for byte, each out of the arrival
//! port, over hand-written scripts and over a corpus of generated,
//! adversarial, truncated and length-lying frames.

use emu::host::{HostDns, HostIcmpEcho, HostMemcached, HostService};
use emu::prelude::*;
use emu::services as s;
use emu::stdlib::Service;
use emu::traffic::{
    Adversarial, Background, Checker, DnsWeighted, HostChecker, MemcachedZipf, TrafficGen,
};
use emu::types::proto::{ip_proto, offset};
use emu::types::{bitutil, wire};

fn zone() -> Vec<(String, Ipv4)> {
    vec![
        ("example.com".into(), "93.184.216.34".parse().unwrap()),
        ("a.b".into(), "1.2.3.4".parse().unwrap()),
        // 26 wire bytes: the longest name the service resolves.
        (LONGEST.into(), "5.6.7.8".parse().unwrap()),
    ]
}

const LONGEST: &str = "abcdefghijklmnopqrstuvwxy";

/// Offers `frames` to a fresh engine for `svc` on `target` under a
/// checker over `host`; returns the checker and the frames transmitted.
fn run<S: HostService>(
    svc: &Service,
    target: Target,
    host: S,
    frames: &[Frame],
) -> (HostChecker<S>, usize) {
    let mut engine = svc.engine(target).build().unwrap();
    let mut checker = HostChecker::from(host);
    let mut tx = 0;
    for chunk in frames.chunks(256) {
        let report = engine.process_batch(chunk);
        checker.check_batch(chunk, &report);
        tx += report.tx_count();
    }
    assert_eq!(
        checker.violations(),
        0,
        "{} on {target:?}: {:?}",
        checker.name(),
        checker.notes()
    );
    (checker, tx)
}

#[test]
fn icmp_echo_matches_host_implementation() {
    let mut frames: Vec<Frame> = [8usize, 56, 200, 1000]
        .iter()
        .enumerate()
        .map(|(i, len)| s::icmp::echo_request_frame(*len, i as u16))
        .collect();
    // A corrupted request: both drop it.
    let mut bad = s::icmp::echo_request_frame(56, 9);
    bad.bytes_mut()[50] ^= 0xff;
    frames.push(bad);
    let (_, tx) = run(&s::icmp::icmp_echo(), Target::Fpga, HostIcmpEcho, &frames);
    assert_eq!(tx, 4);
}

#[test]
fn dns_matches_host_implementation() {
    let too_long = format!("{LONGEST}z");
    let frames: Vec<Frame> = ["example.com", "a.b", "missing.org", LONGEST, &too_long]
        .iter()
        .enumerate()
        .map(|(i, name)| s::dns::query_frame(name, i as u16))
        .collect();
    let svc = s::dns::dns_server(zone());
    let (_, tx) = run(&svc, Target::Fpga, HostDns::new(zone()), &frames);
    assert_eq!(tx, 5);
}

#[test]
fn memcached_matches_host_implementation() {
    let script = [
        "set alpha 0 0 8\r\nAAAABBBB\r\n",
        "get alpha\r\n",
        "get beta\r\n",
        "set beta 0 0 8\r\nCCCCDDDD\r\n",
        "get beta\r\n",
        "delete alpha\r\n",
        "get alpha\r\n",
        "delete alpha\r\n",
    ];
    let frames: Vec<Frame> = script
        .iter()
        .enumerate()
        .map(|(i, body)| s::memcached::request_frame(body, i as u16))
        .collect();
    let svc = s::memcached::memcached();
    let (host, tx) = run(&svc, Target::Fpga, HostMemcached::default(), &frames);
    assert_eq!(tx, script.len());
    assert_eq!(host.service().len(), 1);
}

fn ping(payload: &[u8]) -> Frame {
    wire::ipv4_frame(
        MacAddr::from_u64(0x02_00_00_00_00_02),
        MacAddr::from_u64(0x02_00_00_00_00_01),
        Ipv4::new(10, 0, 0, 1),
        Ipv4::new(10, 0, 0, 2),
        ip_proto::ICMP,
        0x1234,
        &wire::echo_request(0x5678, 1, payload),
        0,
    )
}

/// An echo request whose payload ends in zeros: cut inside the zeros,
/// it is short of its IP total length yet its checksum still sums right
/// over a zero-filled buffer.
fn zero_tailed_ping() -> Frame {
    let mut payload = vec![0x5a; 16];
    payload.resize(56, 0);
    ping(&payload)
}

/// A 17-byte echo request followed by a non-zero Ethernet trailer,
/// which is no part of the checksum.
fn trailed_ping() -> Frame {
    let mut bytes = ping(&[7; 9]).bytes()[..51].to_vec();
    bytes.extend_from_slice(&[0xff; 9]);
    Frame::new(bytes)
}

/// Valid frames of every protocol, each with IP version 5 and cut at
/// every byte — as the MAC would deliver it (zero-padded to 60) — then
/// with the IP total length and the UDP length each claiming nothing,
/// next to nothing, and more than any frame holds; then `Adversarial`
/// frames.
fn malformed_corpus() -> Vec<Frame> {
    let mut frames = Vec::new();
    for whole in [
        s::icmp::echo_request_frame(56, 1),
        zero_tailed_ping(),
        trailed_ping(),
        s::dns::query_frame("a.b", 7),
        s::dns::query_frame("example.com", 8),
        s::memcached::request_frame("set foo 0 0 8\r\nAAAABBBB\r\n", 1),
        s::memcached::request_frame("get foo\r\n", 2),
        s::memcached::request_frame("delete foo\r\n", 3),
        // The restrictions `HostMemcached` lists: one-byte commands, `\n`
        // as a key byte, a SET with no data line, the value scan's end.
        s::memcached::request_frame("gxx foo\r\n", 4),
        s::memcached::request_frame("set f\no 0 0 8\r\nVVVVVVVV\r\n", 5),
        s::memcached::request_frame("set foo 0 0 8\r\n", 6),
        s::memcached::request_frame(&format!("set foo {}12345678", "x".repeat(446)), 7),
        s::tcp_ping::syn_frame(40_000, 80, 0x1000),
        s::nat::udp_frame(Ipv4::new(10, 0, 0, 1), 53, Ipv4::new(10, 0, 0, 2), 53, 1),
    ] {
        let mut v5 = whole.clone();
        v5.bytes_mut()[offset::IPV4] = 0x55;
        frames.push(v5);
        for cut in 0..=whole.len() {
            let f = Frame::new(whole.bytes()[..cut].to_vec());
            for len_field in [offset::IPV4 + 2, offset::L4 + 4] {
                for lie in [0, 1, 0xffff] {
                    let mut lying = f.clone();
                    bitutil::set16(lying.bytes_mut(), len_field, lie);
                    frames.push(lying);
                }
            }
            frames.push(f);
        }
    }
    frames.extend(Adversarial::new(0x601d_0024, &[0, 1, 2, 3]).take(5_000));
    frames
}

/// Each protocol's generator stream, then the malformed corpus, on the
/// CPU and the FPGA target: zero divergences from the host service.
fn assert_corpus_agrees<S: HostService>(
    svc: &Service,
    host: impl Fn() -> S,
    mut generated: impl TrafficGen,
) {
    let mut frames = generated.take(3_000);
    frames.extend(malformed_corpus());
    for target in [Target::Cpu, Target::Fpga] {
        let (checker, tx) = run(svc, target, host(), &frames);
        assert_eq!(checker.frames(), frames.len() as u64);
        assert!(tx > 0, "{} on {target:?} answered nothing", checker.name());
    }
}

#[test]
fn memcached_agrees_with_the_host_on_malformed_and_generated_frames() {
    assert_corpus_agrees(
        &s::memcached::memcached(),
        HostMemcached::default,
        MemcachedZipf::new(0x3c, 64, 1.1, 0.7),
    );
}

#[test]
fn dns_agrees_with_the_host_on_malformed_and_generated_frames() {
    assert_corpus_agrees(
        &s::dns::dns_server(zone()),
        || HostDns::new(zone()),
        DnsWeighted::new(
            0xd5,
            &[
                ("example.com", 3),
                ("a.b", 2),
                (LONGEST, 1),
                ("missing.org", 1),
            ],
        ),
    );
}

#[test]
fn icmp_echo_agrees_with_the_host_on_malformed_and_generated_frames() {
    assert_corpus_agrees(
        &s::icmp::icmp_echo(),
        || HostIcmpEcho,
        Background::new(0x1c, &[0, 1, 2, 3]),
    );
}
