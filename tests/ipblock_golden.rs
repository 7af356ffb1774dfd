//! Every IP-block-backed service's observables, pinned as literals.
//!
//! One seeded stream per service runs through the compiled Cpu backend,
//! the tree-walker and the Fpga FSM; a digest over every transmitted
//! frame and port bitmap, the per-frame cycle counts, the final CAM
//! counters and a few service registers are asserted against numbers
//! recorded before the IP-block models were rebuilt around port
//! handles. A change to how a model binds, samples or drives its ports
//! must reproduce them exactly — `lru_cache` (CAM + NaughtyQ) and
//! `filter_switch` have no other engine-level differential coverage.
//!
//! The same stream then runs through a 2-shard engine of each
//! execution, whose shards are copies of one built core: its tx digest
//! and per-shard cycles were recorded while every shard still compiled
//! its own.

use emu::prelude::*;
use emu::services::{FilterAction, FilterRule};
use emu::traffic::{
    Background, DnsWeighted, FlowChurn, MacChurn, MemcachedZipf, Mix, TcpConversations, TrafficGen,
};

const FRAMES: usize = 2048;

/// FNV-1a offset basis.
const FNV: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(prefix, capacity, occupancy, lookups, hits, writes, evictions, expiries)`.
type CamRow = (&'static str, u64, u64, u64, u64, u64, u64, u64);

/// What one service's stream must reproduce on every target.
struct Golden {
    /// Digest of every tx frame (port bitmap, length, bytes); the same
    /// on all three executions.
    tx: u64,
    /// `(total cycles, digest of the per-frame cycle counts)` on the Cpu
    /// target — compiled and tree-walk must both match it.
    cpu_cycles: (u64, u64),
    /// The same on the Fpga target.
    fpga_cycles: (u64, u64),
    cams: &'static [CamRow],
    regs: &'static [(&'static str, u64)],
    /// The stream through a 2-shard engine.
    two_shards: TwoShards,
}

/// A 2-shard engine's tx digest, in input order and the same on all
/// three executions, and each shard's busy cycles over the stream on
/// the Cpu target (compiled and tree-walk) and on the Fpga target.
struct TwoShards {
    tx: u64,
    cpu: [u64; 2],
    fpga: [u64; 2],
}

/// What a stream did on one engine.
struct Run {
    tx: u64,
    /// `(total cycles, digest of the per-frame cycle counts)`.
    cycles: (u64, u64),
    shard_cycles: Vec<u64>,
}

/// Drives `frames` through `engine` in batches of 256.
fn drive(engine: &mut Engine, frames: &[Frame]) -> Run {
    let mut run = Run {
        tx: FNV,
        cycles: (0, FNV),
        shard_cycles: vec![0; engine.num_shards()],
    };
    for chunk in frames.chunks(256) {
        let report = engine.process_batch(chunk);
        for (sum, c) in run.shard_cycles.iter_mut().zip(&report.shard_cycles) {
            *sum += c;
        }
        for out in report.outputs {
            let out = out.expect("golden streams never trap");
            run.cycles.0 += out.cycles;
            run.cycles.1 = fnv(run.cycles.1, &out.cycles.to_le_bytes());
            for t in out.tx {
                run.tx = fnv(run.tx, &[t.ports]);
                run.tx = fnv(run.tx, &(t.frame.bytes().len() as u32).to_le_bytes());
                run.tx = fnv(run.tx, t.frame.bytes());
            }
        }
    }
    run
}

fn run(
    name: &str,
    svc: &Service,
    frames: &[Frame],
    tune: impl Fn(EngineBuilder<'_>) -> EngineBuilder<'_>,
    want: &Golden,
) {
    assert!(frames.len() >= 2000);
    for (exec, target, backend) in [
        ("compiled", Target::Cpu, Backend::Compiled),
        ("treewalk", Target::Cpu, Backend::TreeWalk),
        ("fpga", Target::Fpga, Backend::Compiled),
    ] {
        let (want_cycles, want_shards) = match target {
            Target::Cpu => (want.cpu_cycles, want.two_shards.cpu),
            Target::Fpga => (want.fpga_cycles, want.two_shards.fpga),
        };
        let engine = |shards| {
            tune(svc.engine(target).backend(backend).shards(shards))
                .build()
                .unwrap()
        };
        let mut one = engine(1);
        let Run { tx, cycles, .. } = drive(&mut one, frames);
        let total = one.telemetry().expect("telemetry on").total();
        let cams: Vec<_> = total
            .cams
            .iter()
            .map(|c| {
                (
                    c.prefix.as_str(),
                    c.capacity,
                    c.occupancy,
                    c.lookups,
                    c.hits,
                    c.writes,
                    c.evictions,
                    c.expiries,
                )
            })
            .collect();
        let regs: Vec<(&str, u64)> = want
            .regs
            .iter()
            .map(|(r, _)| {
                let v = one.shard(0).read_reg(r).expect("register exists");
                (*r, v.to_u64())
            })
            .collect();
        let two = drive(&mut engine(2), frames);
        // `-- --nocapture` prints what a run produced, in literal syntax.
        eprintln!(
            "{name}/{exec}: tx: {tx:#018x}, cycles: ({}, {:#018x}), cams: {cams:?}, \
             regs: {regs:?}, two_shards: {{ tx: {:#018x}, cycles: {:?} }}",
            cycles.0, cycles.1, two.tx, two.shard_cycles
        );
        assert_eq!(tx, want.tx, "{name}/{exec}: tx stream moved: {tx:#018x}");
        assert_eq!(
            cycles, want_cycles,
            "{name}/{exec}: cycles moved: {cycles:?}"
        );
        assert_eq!(cams, want.cams, "{name}/{exec}: CAM counters moved");
        assert_eq!(regs, want.regs, "{name}/{exec}: registers moved");
        assert_eq!(
            two.tx, want.two_shards.tx,
            "{name}/{exec}: 2-shard tx stream moved: {:#018x}",
            two.tx
        );
        assert_eq!(
            two.shard_cycles, want_shards,
            "{name}/{exec}: 2-shard cycles moved"
        );
    }
}

#[test]
fn lru_cache_is_pinned() {
    // 400 Zipf keys over 64 slots: GET miss, SET, GET hit and NaughtyQ
    // eviction all fire, and in-port 0 frames take the from-server path.
    let frames = MemcachedZipf::new(0x1b10_0001, 400, 0.8, 0.6).take(FRAMES);
    run(
        "lru_cache",
        &emu::services::lru_cache(),
        &frames,
        |b| b,
        &Golden {
            tx: 0x1c23_1441_34a1_e921,
            cpu_cycles: (19_277, 0x7f02_1ba3_ca07_efc2),
            fpga_cycles: (52_720, 0xcfa6_944d_583d_79bd),
            cams: &[("lru_cam", 128, 128, 926, 491, 492, 104, 0)],
            regs: &[("n_hits", 351), ("n_misses", 687)],
            two_shards: TwoShards {
                tx: 0x953c_9441_20b5_a3f6,
                cpu: [10_446, 9587],
                fpga: [32_659, 28_880],
            },
        },
    );
}

#[test]
fn dns_server_is_pinned() {
    let zone = vec![
        ("example.com".to_string(), "93.184.216.34".parse().unwrap()),
        (
            "emu.cl.cam.ac.uk".to_string(),
            "128.232.0.20".parse().unwrap(),
        ),
        ("a.b".to_string(), "10.1.2.3".parse().unwrap()),
    ];
    let frames = DnsWeighted::new(
        0x1b10_0002,
        &[
            ("example.com", 5),
            ("emu.cl.cam.ac.uk", 3),
            ("a.b", 2),
            ("nonexistent.example", 2),
            ("a-name-much-too-long-for-the-resolver.example.org", 1),
        ],
    )
    .take(FRAMES);
    run(
        "dns_server",
        &emu::services::dns_server(zone),
        &frames,
        |b| b,
        &Golden {
            tx: 0xa403_3288_2451_6017,
            cpu_cycles: (35_168, 0xa23d_9dab_6bcf_a585),
            fpga_cycles: (124_971, 0xae52_8095_58ab_3340),
            cams: &[("zone", 256, 3, 1901, 1583, 3, 0, 0)],
            regs: &[],
            two_shards: TwoShards {
                tx: 0xa403_3288_2451_6017,
                cpu: [19_410, 15_758],
                fpga: [68_839, 56_131],
            },
        },
    );
}

#[test]
fn filter_switch_is_pinned() {
    let rules = [
        FilterRule {
            proto: Some(6),
            dport: Some((0, 79)),
            ..FilterRule::any(FilterAction::Drop)
        },
        FilterRule {
            proto: Some(17),
            src: Some(("10.0.0.64".parse().unwrap(), 26)),
            ..FilterRule::any(FilterAction::Drop)
        },
    ];
    let frames = Mix::new(0x1b10_0003)
        .add(4, TcpConversations::new(1, 12, &[0, 1, 2, 3]))
        .add(4, FlowChurn::new(2, 40, 100, &[1, 2, 3]))
        .add(1, Background::new(3, &[0, 1, 2, 3]))
        .take(FRAMES);
    run(
        "filter_switch",
        &emu::services::filter_switch(&rules, FilterAction::Accept),
        &frames,
        |b| b,
        &Golden {
            tx: 0x901d_e765_cb99_30bb,
            cpu_cycles: (6570, 0x5ccd_37db_b8b8_eda1),
            fpga_cycles: (11_236, 0x7034_7ce2_6f79_e5e7),
            cams: &[("cam", 256, 91, 2954, 1386, 91, 0, 0)],
            regs: &[("n_dropped", 571)],
            two_shards: TwoShards {
                tx: 0x901d_e765_cb99_30bb,
                cpu: [3451, 3135],
                fpga: [6051, 5200],
            },
        },
    );
}

#[test]
fn memcached_is_pinned() {
    // Half GETs; the rest splits 4:1 into SETs and DELETEs, so the
    // delete port pair is strobed too; 24 slots under 64 keys evict.
    let frames = MemcachedZipf::new(0x1b10_0004, 64, 1.0, 0.5).take(FRAMES);
    run(
        "memcached",
        &emu::services::memcached(),
        &frames,
        |b| b.table_entries(24),
        &Golden {
            tx: 0x738f_6593_b2e4_e9af,
            cpu_cycles: (25_273, 0x6fc0_2d44_0c5b_fc02),
            fpga_cycles: (125_742, 0x557d_5b5e_a66e_f653),
            cams: &[("store", 24, 22, 1213, 692, 835, 215, 0)],
            regs: &[("n_get", 1029), ("n_set", 835), ("n_hit", 588)],
            two_shards: TwoShards {
                tx: 0x59d9_70fd_cb58_81c6,
                cpu: [14_494, 11_720],
                fpga: [73_217, 59_583],
            },
        },
    );
}

#[test]
fn nat_is_pinned() {
    // A table smaller than the live flow set under a short TTL: paired
    // evictions and expiries both propagate to the twin table. Steering
    // partitions the ephemeral range across the 2-shard engine's shards
    // and leaves the 1-shard engine's allocation registers as they are.
    let frames = FlowChurn::new(0x1b10_0005, 120, 150, &[1, 2, 3]).take(FRAMES);
    run(
        "nat",
        &emu::services::nat("203.0.113.1".parse().unwrap()),
        &frames,
        |b| b.table_entries(48).ttl_frames(200).dispatch(NatSteering),
        &Golden {
            tx: 0x5f68_c941_3831_e665,
            cpu_cycles: (8019, 0xeb9b_ed36_2f07_0740),
            fpga_cycles: (44_084, 0x46e7_05df_d21a_f2c9),
            cams: &[
                ("fwd", 48, 48, 2048, 1423, 625, 553, 24),
                ("rev", 48, 48, 625, 0, 625, 553, 24),
            ],
            regs: &[("alloc_fail", 0)],
            two_shards: TwoShards {
                tx: 0x7787_1f45_1685_39ec,
                cpu: [2985, 4257],
                fpga: [17_304, 25_484],
            },
        },
    );
}

#[test]
fn switch_ip_cam_is_pinned() {
    let frames = MacChurn::new(0x1b10_0006, 150, 200).take(FRAMES);
    run(
        "switch_ip_cam",
        &emu::services::switch_ip_cam(),
        &frames,
        |b| b.table_entries(128).ttl_frames(300),
        &Golden {
            tx: 0x05d3_2910_a025_4b58,
            cpu_cycles: (8915, 0x2232_0b53_3c1e_baa4),
            fpga_cycles: (13_010, 0xed3f_2bec_a3bb_8ba5),
            cams: &[("cam", 128, 128, 4096, 2525, 723, 458, 137)],
            regs: &[],
            two_shards: TwoShards {
                tx: 0x9e09_cd2f_4e70_0c6b,
                cpu: [4576, 4503],
                fpga: [6641, 6532],
            },
        },
    );
}
