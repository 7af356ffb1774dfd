//! The table's observables, pinned as literals.
//!
//! Two seeded churn streams run through small aged tables so that
//! learning, refresh, expiry-on-lookup, the background sweep,
//! expired-first reclaim and round-robin eviction all fire; the
//! per-table counters, final occupancy and a digest over every
//! transmitted frame are asserted against numbers recorded when the
//! table was a `HashMap` over `Bits` keys. A change to the table's
//! storage must reproduce them exactly: slot order, victim choice and
//! expiry order all feed these numbers.
//!
//! The one property of the table that is not an observable — a lookup
//! costs the same however many entries are resident — is checked last,
//! against a bound wide enough to hold in a debug build on a busy host.

use emu::prelude::*;
use emu::traffic::{FlowChurn, MacChurn, TrafficGen};

const FRAMES: usize = 100_000;

/// FNV-1a, folded over every tx frame's port bitmap, length and bytes.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(prefix, lookups, hits, writes, evictions, expiries, occupancy)`.
type CamRow = (&'static str, u64, u64, u64, u64, u64, u64);

fn run(svc: &Service, mut gen: impl TrafficGen, entries: usize, want_digest: u64, want: &[CamRow]) {
    let mut engine = svc
        .engine(Target::Cpu)
        .table_entries(entries)
        .ttl_frames(3000)
        .build()
        .unwrap();
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let frames: Vec<Frame> = (0..FRAMES).map(|_| gen.next_frame()).collect();
    for chunk in frames.chunks(1024) {
        for out in engine.process_batch(chunk).outputs {
            for tx in out.expect("churn streams never trap").tx {
                digest = fnv(digest, &[tx.ports]);
                digest = fnv(digest, &(tx.frame.bytes().len() as u32).to_le_bytes());
                digest = fnv(digest, tx.frame.bytes());
            }
        }
    }
    let total = engine.telemetry().expect("telemetry on").total();
    let got: Vec<_> = total
        .cams
        .iter()
        .map(|c| {
            (
                c.prefix.as_str(),
                c.lookups,
                c.hits,
                c.writes,
                c.evictions,
                c.expiries,
                c.occupancy,
            )
        })
        .collect();
    assert_eq!(got, want, "{entries} entries: table counters moved");
    assert_eq!(
        digest, want_digest,
        "{entries} entries: tx stream moved: {digest:#018x}"
    );
}

fn switch() -> Service {
    emu::services::switch_ip_cam()
}

fn nat() -> Service {
    emu::services::nat("203.0.113.1".parse().unwrap())
}

#[test]
fn switch_mac_churn_is_pinned() {
    let gen = || MacChurn::new(0x601d_0001, 6000, 300);
    run(
        &switch(),
        gen(),
        4096,
        0xacec_fc88_da8f_1b92,
        &[("cam", 200_000, 76_506, 59_523, 0, 56_819, 2704)],
    );
    // One write a frame cannot fill 4096 entries inside a 3000-frame
    // TTL; a table just under the steady resident set makes expiry and
    // round-robin eviction fire together.
    run(
        &switch(),
        gen(),
        2560,
        0x7288_97f0_02b5_3497,
        &[("cam", 200_000, 72_141, 61_837, 9282, 49_997, 2558)],
    );
}

#[test]
fn nat_flow_churn_is_pinned() {
    let gen = || FlowChurn::new(0x601d_0002, 5000, 200, &[1, 2, 3]);
    run(
        &nat(),
        gen(),
        4096,
        0x2284_97f5_4cc3_a153,
        &[
            ("fwd", 100_000, 76_942, 23_058, 0, 22_084, 974),
            ("rev", 23_070, 12, 23_058, 0, 22_084, 974),
        ],
    );
    run(
        &nat(),
        gen(),
        896,
        0x7e26_927a_7d9c_9060,
        &[
            ("fwd", 100_000, 75_318, 24_682, 4930, 18_856, 896),
            ("rev", 24_682, 0, 24_682, 4930, 18_856, 896),
        ],
    );
}

#[test]
fn per_frame_cost_is_flat_in_resident_macs() {
    // A switch with 10^5 learned MACs must serve a frame about as fast
    // as one with 10^3: every frame is two table lookups, and a table
    // that scanned its entries would be 100x slower at the large point.
    // The streams are zero-churn, so nothing is learned or evicted
    // while the clock runs; trials alternate between the two engines so
    // a neighbour's burst of load lands on both, and the minimum of
    // three is compared.
    let mut points: Vec<_> = [1_000, 100_000]
        .into_iter()
        .map(|live| {
            let mut gen = MacChurn::new(0xf10a, live, 0);
            let mut engine = switch()
                .engine(Target::Cpu)
                .backend(Backend::Compiled)
                .table_entries(1 << 17)
                .build()
                .unwrap();
            let warmup = gen.warmup_frames();
            assert_eq!(engine.process_batch(&warmup).ok_count(), live);
            (engine, gen.take(20_000), std::time::Duration::MAX)
        })
        .collect();
    for _ in 0..3 {
        for (engine, frames, best) in &mut points {
            let t0 = std::time::Instant::now();
            for chunk in frames.chunks(1024) {
                assert_eq!(engine.process_batch(chunk).ok_count(), chunk.len());
            }
            *best = t0.elapsed().min(*best);
        }
    }
    let (small, large) = (points[0].2, points[1].2);
    assert!(
        large < 4 * small,
        "20k frames took {large:?} over 10^5 resident MACs, {small:?} over 10^3"
    );
}
