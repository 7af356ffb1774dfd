//! A closed-loop client checks a verified reply in place, against the
//! frame's own bytes: classifying one allocates nothing. Each client
//! below talks to its service's engine directly, and every reply is
//! classified under a per-thread allocation counter.

use emu_core::{Engine, Target};
use emu_hosts::client::{Classify, RequestProto, Sent};
use emu_hosts::topo::{zone, DNS_SERVER_MAC, MC_SERVER_MAC};
use emu_hosts::{Client, ClientConfig, DnsClient, McClient};
use emu_types::proto::offset;
use emu_types::{bitutil, wire, Frame, Ipv4, MacAddr};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

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

const CLIENT_MAC: u64 = 0x02_00_00_00_c0_00;

/// Sends `requests` requests from `client` to `server` and classifies
/// each reply; returns the most allocations one classification made,
/// per reply kind (`kind` names a reply).
fn most_allocs_per_reply<P: RequestProto>(
    client: &mut Client<P>,
    server: &mut Engine,
    requests: u64,
    kind: impl Fn(&Frame) -> &'static str,
) -> BTreeMap<&'static str, u64> {
    let mut most = BTreeMap::new();
    for serial in 0..requests {
        let frame = client.proto_mut().build(serial);
        let out = server.process(&frame).expect("the service answers");
        assert_eq!(out.tx.len(), 1, "request {serial}: one reply");
        let reply = &out.tx[0].frame;
        let sent = Sent {
            serial,
            frame,
            first_ns: 0.0,
            retries: 0,
        };
        let before = ALLOCS.with(Cell::get);
        let verdict = client.proto_mut().classify(reply, Some(&sent));
        let allocs = ALLOCS.with(Cell::get) - before;
        assert!(
            matches!(
                verdict,
                Classify::Response {
                    verified: true,
                    note: None
                }
            ),
            "request {serial}: {verdict:?}"
        );
        let n = most.entry(kind(reply)).or_insert(0);
        *n = allocs.max(*n);
    }
    most
}

#[test]
fn classifying_a_verified_dns_reply_allocates_nothing() {
    let zone = zone(4);
    let mut names: Vec<(String, Option<Ipv4>)> =
        zone.iter().map(|(n, a)| (n.clone(), Some(*a))).collect();
    names.extend((0..4).map(|i| (format!("x{i}.emu.test"), None)));
    let mut client = DnsClient::new(
        "dns",
        MacAddr::from_u64(CLIENT_MAC),
        Ipv4::new(10, 0, 1, 0),
        20_000,
        MacAddr::from_u64(DNS_SERVER_MAC),
        Ipv4::new(10, 9, 0, 2),
        names,
        7,
        ClientConfig::default(),
    );
    let mut server = emu_services::dns_server(zone)
        .engine(Target::Cpu)
        .build()
        .unwrap();
    let most = most_allocs_per_reply(&mut client, &mut server, 64, |reply| {
        // The low nibble of the flags is the rcode; 3 is NXDOMAIN.
        match bitutil::get16(reply.bytes(), offset::L4 + 8 + 2) & 0x000f {
            3 => "NXDOMAIN",
            _ => "A answer",
        }
    });
    assert_eq!(most, BTreeMap::from([("A answer", 0), ("NXDOMAIN", 0)]));
}

#[test]
fn classifying_a_verified_memcached_reply_allocates_nothing() {
    let mut client = McClient::new(
        "mc",
        MacAddr::from_u64(CLIENT_MAC),
        Ipv4::new(10, 0, 1, 0),
        20_000,
        MacAddr::from_u64(MC_SERVER_MAC),
        Ipv4::new(10, 9, 0, 1),
        "k",
        2,
        7,
        ClientConfig::default(),
    );
    let mut server = emu_services::memcached()
        .engine(Target::Cpu)
        .build()
        .unwrap();
    let most = most_allocs_per_reply(
        &mut client,
        &mut server,
        256,
        |reply| match wire::reply_text(reply) {
            b"STORED\r\n" => "STORED",
            b"END\r\n" => "END",
            b"DELETED\r\n" => "DELETED",
            b"NOT_FOUND\r\n" => "NOT_FOUND",
            t if t.starts_with(b"VALUE ") => "VALUE…END",
            t => panic!("unexpected reply {:?}", String::from_utf8_lossy(t)),
        },
    );
    let none = ["DELETED", "END", "NOT_FOUND", "STORED", "VALUE…END"].map(|kind| (kind, 0));
    assert_eq!(most, BTreeMap::from(none));
}
