//! Telemetry determinism across the execution matrix:
//!
//! * sequential and parallel batch execution produce **equal** engine
//!   snapshots (counters and cycle histograms, shard by shard),
//! * the compiled and tree-walk CPU backends produce **equal**
//!   snapshots for the same frames,
//! * drops are attributed to the right outcome counter in every mode,
//! * a snapshot's JSON form survives a print/parse round trip.
//!
//! On top of equality, the model-cycle accounting itself is pinned as
//! literals for five seeded service mixes, so a change that moves every
//! execution path together still shows.

use emu::prelude::*;
use emu::telemetry::{EngineSnapshot, Json};
use emu::traffic::{Background, DnsWeighted, MemcachedZipf, Mix, TcpConversations, TrafficGen};

fn mixed_frames(seed: u64, n: usize) -> Vec<Frame> {
    let mut mix = Mix::new(seed)
        .add(3, TcpConversations::new(seed ^ 1, 16, &[0, 1, 2, 3]))
        .add(1, Background::new(seed ^ 2, &[0, 1, 2, 3]));
    (0..n).map(|_| mix.next_frame()).collect()
}

fn snapshot(backend: Backend, shards: usize, parallel: bool, frames: &[Frame]) -> EngineSnapshot {
    let svc = emu::services::switch_ip_cam();
    let mut engine = svc
        .engine(Target::Cpu)
        .backend(backend)
        .shards(shards)
        .parallel(parallel)
        .build()
        .unwrap();
    for chunk in frames.chunks(64) {
        engine.process_batch(chunk);
    }
    engine.telemetry().unwrap()
}

#[test]
fn sequential_equals_parallel_snapshots() {
    let frames = mixed_frames(0x7e1e_0001, 512);
    for shards in [1, 2, 4, 8] {
        let seq = snapshot(Backend::Compiled, shards, false, &frames);
        let par = snapshot(Backend::Compiled, shards, true, &frames);
        assert_eq!(seq, par, "shards={shards}: snapshots diverged");
        assert_eq!(seq.shards.len(), shards);
        assert_eq!(seq.total().counters.offered(), frames.len() as u64);
    }
}

#[test]
fn compiled_equals_treewalk_snapshots() {
    let frames = mixed_frames(0x7e1e, 384);
    for shards in [1, 4] {
        let compiled = snapshot(Backend::Compiled, shards, false, &frames);
        let treewalk = snapshot(Backend::TreeWalk, shards, false, &frames);
        assert_eq!(
            compiled, treewalk,
            "shards={shards}: cycle accounting must be backend-independent"
        );
    }
}

#[test]
fn oversize_drops_attributed_identically_in_both_modes() {
    let svc = emu::services::icmp_echo();
    let run = |parallel: bool| {
        let mut engine = svc
            .engine(Target::Cpu)
            .shards(2)
            .parallel(parallel)
            .build()
            .unwrap();
        let cap = engine.frame_capacity();
        let mut frames: Vec<Frame> = (0..16)
            .map(|i| emu::services::icmp::echo_request_frame(32, i))
            .collect();
        frames.push(Frame::new(vec![0; cap + 1]));
        engine.process_batch(&frames);
        engine.telemetry().unwrap()
    };
    let (seq, par) = (run(false), run(true));
    assert_eq!(seq, par);
    let total = seq.total();
    assert_eq!(total.counters.frames, 16);
    assert_eq!(total.counters.drop_oversize, 1);
    assert_eq!(total.counters.drop_trap, 0);
    assert_eq!(total.counters.drop_poisoned, 0);
    assert_eq!(total.cycles.count(), 16, "drops stay out of the histogram");
}

#[test]
fn snapshot_json_round_trips() {
    let frames = mixed_frames(0xabc, 128);
    let snap = snapshot(Backend::Compiled, 2, false, &frames);
    let json = snap.to_json();
    let parsed = Json::parse(&json.pretty()).unwrap();
    assert_eq!(parsed, json);
    let total = parsed.get("total").unwrap();
    assert_eq!(
        total
            .get("counters")
            .and_then(|c| c.get("offered"))
            .and_then(Json::as_u64),
        Some(frames.len() as u64)
    );
}

/// One shard's `(frames, busy_cycles, p50, p99, p999)`, the quantiles in
/// model cycles per frame.
type ShardRow = (u64, u64, u64, u64, u64);

/// Runs `frames` through a sequential `shards`-shard Cpu engine on the
/// default backend and returns one row per shard.
fn shard_rows(svc: &Service, nat: bool, shards: usize, frames: &[Frame]) -> Vec<ShardRow> {
    let mut b = svc.engine(Target::Cpu).shards(shards);
    if nat {
        b = b.dispatch(NatSteering);
    }
    let mut engine = b.build().unwrap();
    for chunk in frames.chunks(1024) {
        assert_eq!(engine.process_batch(chunk).ok_count(), chunk.len());
    }
    let snap = engine.telemetry().unwrap();
    snap.shards
        .iter()
        .map(|s| {
            let q = |q| s.cycles.quantile(q).expect("every shard sees frames");
            (
                s.counters.frames,
                s.counters.busy_cycles,
                q(0.50),
                q(0.99),
                q(0.999),
            )
        })
        .collect()
}

#[test]
fn pinned_mixes_reproduce_recorded_cycle_counts() {
    // Per-frame model cycles are the latency every paper table is built
    // from, and they are the same on every backend, pass list and
    // execution mode, so one set of literals holds under all three CI
    // legs. A service, scheduler or dispatch change that moves them
    // changed the model, not the host: re-record only with that said.
    const FRAMES: usize = 4000;
    let s: u64 = 0x5057; // every generator's seed derives from this one
    let dns_names = [
        ("example.com", 4),
        ("emu.cam.ac.uk", 2),
        ("a.b", 1),
        ("cache.io", 1),
    ];
    let zone = ["93.184.216.34", "128.232.0.20", "1.2.3.4", "10.9.8.7"];
    let zone = dns_names
        .iter()
        .zip(zone)
        .map(|((name, _), ip)| (name.to_string(), ip.parse().unwrap()))
        .collect();
    // (name, service, mix, NAT steering + internal-port pinning,
    //  1-shard row, 2-shard rows)
    type Case = (&'static str, Service, Mix, bool, ShardRow, [ShardRow; 2]);
    let cases: Vec<Case> = vec![
        (
            "icmp-echo",
            emu::services::icmp_echo(),
            Mix::new(s).add(1, Background::new(s ^ 1, &[0, 1, 2, 3])),
            false,
            (4000, 17_980, 4, 11, 11),
            [(2242, 10_246, 5, 11, 11), (1758, 7734, 1, 11, 11)],
        ),
        (
            "tcp-ping",
            emu::services::tcp_ping(),
            Mix::new(s).add(1, TcpConversations::new(s ^ 1, 48, &[0, 1, 2, 3])),
            false,
            (4000, 6984, 1, 5, 5),
            [(2095, 3647, 1, 5, 5), (1905, 3337, 1, 5, 5)],
        ),
        (
            "dns",
            emu::services::dns_server(zone),
            Mix::new(s).add(1, DnsWeighted::new(s ^ 1, &dns_names)),
            false,
            (4000, 56_591, 15, 17, 17),
            [(2306, 32_685, 15, 17, 17), (1694, 23_906, 15, 17, 17)],
        ),
        (
            "nat",
            emu::services::nat("203.0.113.1".parse().unwrap()),
            Mix::new(s)
                .add(8, TcpConversations::new(s ^ 1, 48, &[1, 2, 3]))
                .add(3, DnsWeighted::new(s ^ 2, &dns_names))
                .add(1, Background::new(s ^ 3, &[1, 2, 3])),
            true,
            (4000, 11_676, 3, 6, 6),
            [(2188, 6392, 3, 6, 6), (1812, 5284, 3, 6, 6)],
        ),
        (
            "memcached",
            emu::services::memcached(),
            Mix::new(s).add(1, MemcachedZipf::new(s ^ 1, 256, 1.1, 0.9)),
            false,
            (4000, 45_089, 13, 15, 15),
            [(2248, 25_718, 13, 15, 15), (1752, 19_371, 13, 15, 15)],
        ),
    ];
    for (name, svc, mut mix, nat, one, two) in cases {
        let mut frames = mix.take(FRAMES);
        if nat {
            // NAT treats port 0 as the external side: re-pin strays.
            for f in frames.iter_mut().filter(|f| f.in_port == 0) {
                f.in_port = 1 + (f.len() % 3) as u8;
            }
        }
        assert_eq!(shard_rows(&svc, nat, 1, &frames), [one], "{name}: 1 shard");
        assert_eq!(shard_rows(&svc, nat, 2, &frames), two, "{name}: 2 shards");
    }
}

/// `Engine::process` runs the statically dispatched executor (under
/// `NullObserver`); `process_observed` with a `&mut dyn Observer` runs
/// the virtual one. On a mixed stream, oversize frames included, both
/// give the same outputs, the same cycle counts and the same telemetry,
/// and the observer sees the program's assignments.
#[test]
fn process_equals_dyn_observed_process() {
    #[derive(Default)]
    struct Count(u64);
    impl emu::ir::Observer for Count {
        fn on_assign(&mut self, _v: u32, _old: &emu::types::Bits, _new: &emu::types::Bits) {
            self.0 += 1;
        }
    }
    let services = [
        (
            emu::services::switch_ip_cam(),
            mixed_frames(0x7e1e_0002, 256),
        ),
        (
            emu::services::memcached(),
            MemcachedZipf::new(0x7e1e_0003, 64, 1.1, 0.9).take(256),
        ),
    ];
    for (svc, mut frames) in services {
        let cap = svc.engine(Target::Cpu).build().unwrap().frame_capacity();
        frames.insert(17, Frame::new(vec![0; cap + 1]));
        let mut plain = svc.engine(Target::Cpu).build().unwrap();
        let mut observed = svc.engine(Target::Cpu).build().unwrap();
        let mut count = Count::default();
        for (i, f) in frames.iter().enumerate() {
            let want = plain.process(f);
            let got = observed.process_observed(f, &mut count as &mut dyn emu::ir::Observer);
            assert_eq!(want, got, "{}: frame {i}", svc.program.name);
        }
        assert!(
            count.0 > 0,
            "{}: the observer saw no assignment",
            svc.program.name
        );
        assert_eq!(
            plain.telemetry(),
            observed.telemetry(),
            "{}",
            svc.program.name
        );
    }
}
