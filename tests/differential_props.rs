//! Property-based differential tests: random traffic through the same
//! service on both execution targets, and random programs through the
//! interpreter and the cycle-accurate executor, must agree exactly.

mod common;

use common::soak_pairings;
use emu::prelude::*;
use emu::services as s;
use emu_traffic::{Adversarial, Background, DnsWeighted, FlowChurn, MacChurn, Mix, TrafficGen};
use emu_types::proto::ip_proto;
use emu_types::wire;
use kiwi_ir::dsl::*;
use kiwi_ir::interp::{NullEnv, NullObserver};
use kiwi_ir::{Code, Core, VarId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn switch_targets_agree_on_random_traffic(
        seeds in proptest::collection::vec((0u64..16, 0u64..16, 0u8..4), 1..24)
    ) {
        let svc = s::switch::switch_ip_cam();
        let mut cpu = svc.engine(Target::Cpu).build().unwrap();
        let mut fpga = svc.engine(Target::Fpga).build().unwrap();
        for (i, (src, dst, port)) in seeds.iter().enumerate() {
            let f = wire::l2_frame(0x100 + src, 0x100 + dst, *port);
            let a = cpu.process(&f).unwrap();
            let b = fpga.process(&f).unwrap();
            prop_assert_eq!(&a.tx, &b.tx, "frame {}", i);
        }
    }

    #[test]
    fn memcached_targets_agree_on_random_scripts(
        ops in proptest::collection::vec((0u8..3, 0u64..8), 1..16)
    ) {
        let svc = s::memcached::memcached();
        let mut cpu = svc.engine(Target::Cpu).build().unwrap();
        let mut fpga = svc.engine(Target::Fpga).build().unwrap();
        for (i, (kind, key)) in ops.iter().enumerate() {
            let body = match kind {
                0 => format!("get key{key}\r\n"),
                1 => format!("set key{key} 0 0 8\r\nV{key:07}\r\n"),
                _ => format!("delete key{key}\r\n"),
            };
            let f = s::memcached::request_frame(&body, i as u16);
            let a = cpu.process(&f).unwrap();
            let b = fpga.process(&f).unwrap();
            prop_assert_eq!(&a.tx, &b.tx, "op {}: {}", i, body);
        }
    }

    #[test]
    fn random_straightline_programs_interp_equals_rtl(
        vals in proptest::collection::vec((0u64..1u64<<32, 0u8..6), 2..20)
    ) {
        // Build a random straight-line program over three registers.
        let mut pb = ProgramBuilder::new("rand");
        let a = pb.reg("a", 64);
        let b = pb.reg("b", 64);
        let c = pb.reg("c", 64);
        let regs = [a, b, c];
        let mut body = Vec::new();
        for (i, (v, op)) in vals.iter().enumerate() {
            let dst = regs[i % 3];
            let srcv = var(regs[(i + 1) % 3]);
            let k = lit(*v, 64);
            let e = match op {
                0 => add(srcv, k),
                1 => sub(srcv, k),
                2 => mul(srcv, k),
                3 => bxor(srcv, k),
                4 => shl(srcv, lit(v % 63, 8)),
                _ => mux(gt(srcv.clone(), k.clone()), srcv, k),
            };
            body.push(assign(dst, e));
            if i % 3 == 2 {
                body.push(pause());
            }
        }
        body.push(halt());
        pb.thread("main", body);
        let prog = pb.build().unwrap();

        let mut interp = Core::new(Code::TreeWalk(kiwi_ir::flatten(&prog).unwrap()));
        interp.run_cycles(10_000, &mut NullEnv, &mut NullObserver).unwrap();

        // A tight budget forces extra state splits — results must agree.
        let fsm = kiwi::compile_with(&prog, CostModel { period_units: 10 }).unwrap();
        let mut rtl = Core::new(Code::Fpga(fsm));
        rtl.run_cycles(100_000, &mut NullEnv, &mut NullObserver).unwrap();

        prop_assert!(interp.halted() && rtl.halted());
        for i in 0..3 {
            prop_assert_eq!(
                &interp.state().reg(VarId(i as u32)), &rtl.state().reg(VarId(i as u32)),
                "register {} diverged", i
            );
        }
    }

    #[test]
    fn nat_targets_agree_on_random_traffic(
        ops in proptest::collection::vec((0u8..4, 0u16..12, 0u8..3), 1..20)
    ) {
        // Random interleavings of outbound flows (varying sport/in_port),
        // inbound replies to already- or never-allocated external ports,
        // and non-IP noise: both targets must translate identically,
        // including identical drop decisions and checksum updates.
        let public: emu_types::Ipv4 = "203.0.113.1".parse().unwrap();
        let svc = s::nat::nat(public);
        let mut cpu = svc.engine(Target::Cpu).build().unwrap();
        let mut fpga = svc.engine(Target::Fpga).build().unwrap();
        for (i, (kind, flow, port)) in ops.iter().enumerate() {
            let f = match kind {
                0 | 1 => s::nat::udp_frame(
                    "192.168.1.50".parse().unwrap(),
                    3000 + flow,
                    "8.8.8.8".parse().unwrap(),
                    53,
                    1 + port % 3,
                ),
                2 => s::nat::udp_frame(
                    "8.8.8.8".parse().unwrap(),
                    53,
                    public,
                    s::nat::FIRST_EPHEMERAL + flow,
                    0,
                ),
                _ => Frame::ethernet(
                    MacAddr::from_u64(0x20 + u64::from(*flow)),
                    MacAddr::from_u64(0x30),
                    0x0806,
                    &[0u8; 46],
                ),
            };
            let a = cpu.process(&f).unwrap();
            let b = fpga.process(&f).unwrap();
            prop_assert_eq!(&a.tx, &b.tx, "op {}: kind {} flow {}", i, kind, flow);
        }
    }

    #[test]
    fn dns_targets_agree_on_random_queries(
        ops in proptest::collection::vec((0u8..5, any::<u16>(), 0u8..4), 1..20)
    ) {
        // Zone hits, misses, and varying transaction ids / arrival ports:
        // responses (and refusals) must match bit-for-bit across targets.
        let zone = vec![
            ("a.b".to_string(), "1.2.3.4".parse().unwrap()),
            ("example.com".to_string(), "93.184.216.34".parse().unwrap()),
            ("emu.cam.ac.uk".to_string(), "128.232.0.20".parse().unwrap()),
        ];
        let svc = s::dns::dns_server(zone);
        let mut cpu = svc.engine(Target::Cpu).build().unwrap();
        let mut fpga = svc.engine(Target::Fpga).build().unwrap();
        let names = ["a.b", "example.com", "emu.cam.ac.uk", "miss.example", "x.y"];
        for (i, (which, id, port)) in ops.iter().enumerate() {
            let mut f = s::dns::query_frame(names[usize::from(*which) % names.len()], *id);
            f.in_port = *port;
            let a = cpu.process(&f).unwrap();
            let b = fpga.process(&f).unwrap();
            prop_assert_eq!(&a.tx, &b.tx, "query {}: {}", i, names[usize::from(*which) % names.len()]);
        }
    }

    #[test]
    fn icmp_replies_always_checksum_valid(len in 0usize..512, seq in any::<u16>()) {
        let svc = s::icmp::icmp_echo();
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        let req = s::icmp::echo_request_frame(len, seq);
        let out = inst.process(&req).unwrap();
        prop_assert_eq!(out.tx.len(), 1);
        let b = out.tx[0].frame.bytes();
        let total = emu_types::bitutil::get16(b, 16) as usize;
        prop_assert!(emu_types::checksum::verify(&b[34..14 + total]));
        prop_assert!(emu_types::checksum::verify(&b[14..34]));
    }

    #[test]
    fn flow_affine_policies_keep_a_tuple_on_one_shard(
        flows in proptest::collection::vec((1u64..64, 1024u16..60_000, 0usize..400), 1..12),
        shards in 2usize..9
    ) {
        // For every flow-affine dispatch policy, all frames of one
        // 5-tuple — whatever their payload size — land on one shard.
        let svc = s::nat::nat("203.0.113.1".parse().unwrap());
        let policies: Vec<(&str, Engine)> = vec![
            ("rss-hash", svc.engine(Target::Cpu).shards(shards).build().unwrap()),
            (
                "nat-steering",
                svc.engine(Target::Cpu)
                    .shards(shards)
                    .dispatch(NatSteering)
                    .build()
                    .unwrap(),
            ),
        ];
        for (name, engine) in &policies {
            for (mac, sport, extra) in &flows {
                let frame = |extra: usize| {
                    wire::udp_frame(
                        MacAddr::from_u64(0x0200_0000_0042),
                        MacAddr::from_u64(0x0200_0000_0041),
                        Ipv4::new(10, 0, (*mac % 250) as u8 + 1, 2),
                        *sport,
                        Ipv4::new(8, 8, 8, 8),
                        53,
                        &vec![0x5a; 16 + extra],
                        1,
                    )
                };
                let home = engine.shard_of(&frame(0));
                prop_assert!(home < shards, "{}: shard out of range", name);
                prop_assert_eq!(
                    engine.shard_of(&frame(*extra)), home,
                    "{}: flow {}:{} split at +{}B over {} shards",
                    name, mac, sport, extra, shards
                );
            }
        }
    }

    #[test]
    fn every_policy_is_output_transparent_for_stateless_services(
        seqs in proptest::collection::vec((0u64..40, 8usize..200, 0u8..4), 1..16),
        shards in 1usize..9
    ) {
        // Sharded output == single-instance output for a stateless
        // service (ICMP echo) at arbitrary shard counts, under EVERY
        // dispatch policy — including round-robin, which scatters flows.
        let svc = s::icmp::icmp_echo();
        let frames: Vec<Frame> = seqs.iter().map(|(client, len, port)| {
            let payload: Vec<u8> = (0..*len).map(|i| i as u8).collect();
            wire::ipv4_frame(
                MacAddr::from_u64(0x0200_0000_0002),
                MacAddr::from_u64(0x0200_0000_0001),
                Ipv4::new(10, 0, 0, (*client % 200) as u8 + 1),
                Ipv4::new(10, 0, 0, 2),
                ip_proto::ICMP,
                0x1234,
                &wire::echo_request(0x5678, *client as u16, &payload),
                *port,
            )
        }).collect();

        let mut single = svc.engine(Target::Cpu).build().unwrap();
        let want: Vec<_> = frames.iter().map(|f| single.process(f).unwrap().tx).collect();

        let engines: Vec<(&str, Engine)> = vec![
            ("rss-hash", svc.engine(Target::Cpu).shards(shards).build().unwrap()),
            (
                "nat-steering",
                svc.engine(Target::Cpu)
                    .shards(shards)
                    .dispatch(NatSteering)
                    .build()
                    .unwrap(),
            ),
        ];
        for (name, mut engine) in engines {
            let report = engine.process_batch(&frames);
            prop_assert_eq!(report.ok_count(), frames.len(), "{}: frames failed", name);
            for (i, (got, want)) in report.outputs.iter().zip(&want).enumerate() {
                prop_assert_eq!(
                    &got.as_ref().unwrap().tx, want,
                    "{}: frame {} diverged at {} shards", name, i, shards
                );
            }
        }
    }
}

/// The traffic-generator property suite: heavier per case (each case
/// drives full service engines on both targets), so fewer cases.
mod traffic_props {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn generator_streams_agree_across_targets(seed in any::<u64>()) {
            // Every generator's stream — including its adversarial
            // slices — produces identical per-frame outcomes on the
            // interpreter (Cpu) and the cycle-accurate RTL (Fpga).
            for (label, svc, mut gen) in soak_pairings(seed) {
                let mut cpu = svc.engine(Target::Cpu).build().unwrap();
                let mut fpga = svc.engine(Target::Fpga).build().unwrap();
                for i in 0..24 {
                    let f = gen.next_frame();
                    match (cpu.process(&f), fpga.process(&f)) {
                        (Ok(a), Ok(b)) => prop_assert_eq!(
                            &a.tx, &b.tx, "{}: frame {} diverged", label, i
                        ),
                        (Err(EngineError::Oversize { .. }), Err(EngineError::Oversize { .. })) => {}
                        (a, b) => prop_assert!(
                            false,
                            "{}: frame {} outcomes diverged: {:?} vs {:?}",
                            label, i, a.map(|o| o.tx), b.map(|o| o.tx)
                        ),
                    }
                }
            }
        }

        #[test]
        fn churn_streams_agree_across_targets_with_ttl_tables(seed in any::<u64>()) {
            // Insert/expire/re-insert churn against small TTL'd tables:
            // the interpreter (Cpu) and the cycle-accurate RTL (Fpga)
            // must make identical aging decisions — a mapping that
            // expires on one target but lingers on the other changes
            // visible outputs (floods vs unicasts, fresh ports vs
            // reused ones) on the very next frame of that flow.
            let cases: Vec<(&str, emu::stdlib::Service, Box<dyn TrafficGen>)> = vec![
                (
                    "nat",
                    s::nat("203.0.113.1".parse().unwrap()),
                    Box::new(FlowChurn::new(seed, 12, 200, &[1, 2, 3])),
                ),
                (
                    "switch",
                    s::switch_ip_cam(),
                    Box::new(MacChurn::new(seed, 8, 250)),
                ),
            ];
            for (label, svc, mut gen) in cases {
                let mut cpu = svc
                    .engine(Target::Cpu)
                    .table_entries(32)
                    .ttl_frames(24)
                    .build()
                    .unwrap();
                let mut fpga = svc
                    .engine(Target::Fpga)
                    .table_entries(32)
                    .ttl_frames(24)
                    .build()
                    .unwrap();
                for i in 0..120 {
                    let f = gen.next_frame();
                    let a = cpu.process(&f).unwrap();
                    let b = fpga.process(&f).unwrap();
                    prop_assert_eq!(
                        &a.tx, &b.tx,
                        "{}: churn frame {} diverged across targets", label, i
                    );
                }
            }
        }

        #[test]
        fn generator_streams_are_shard_invariant_for_stateless_services(
            seed in any::<u64>(),
            shards in 2usize..7
        ) {
            // Stateless services must produce identical outputs whatever
            // the shard count, for whole generated streams (valid and
            // malformed alike).
            let cases: Vec<(&str, emu::stdlib::Service, Box<dyn TrafficGen>)> = vec![
                (
                    "dns",
                    s::dns_server(vec![
                        ("example.com".to_string(), "93.184.216.34".parse().unwrap()),
                    ]),
                    Box::new(
                        Mix::new(seed)
                            .add(3, DnsWeighted::new(seed ^ 1, &[("example.com", 1), ("nope.x", 1)]))
                            .add(1, Adversarial::new(seed ^ 2, &[0, 1, 2, 3])),
                    ),
                ),
                (
                    "icmp",
                    s::icmp_echo(),
                    Box::new(Background::new(seed, &[0, 1, 2, 3])),
                ),
            ];
            for (label, svc, mut gen) in cases {
                let frames: Vec<Frame> = (0..30).map(|_| gen.next_frame()).collect();
                let mut single = svc.engine(Target::Cpu).build().unwrap();
                let mut sharded = svc.engine(Target::Cpu).shards(shards).build().unwrap();
                let want = single.process_batch(&frames);
                let got = sharded.process_batch(&frames);
                for (i, (a, b)) in want.outputs.iter().zip(&got.outputs).enumerate() {
                    match (a, b) {
                        (Ok(a), Ok(b)) => prop_assert_eq!(
                            &a.tx, &b.tx,
                            "{}: frame {} changed under {} shards", label, i, shards
                        ),
                        (Err(EngineError::Oversize { .. }), Err(EngineError::Oversize { .. })) => {}
                        _ => prop_assert!(
                            false,
                            "{}: frame {} outcome changed under {} shards", label, i, shards
                        ),
                    }
                }
            }
        }

        #[test]
        fn adversarial_streams_never_trap_any_engine(
            seed in any::<u64>(),
            shards in 1usize..5
        ) {
            // The engine-wide robustness contract: adversarial frames
            // drop or pass — `EngineError::Trap` is unreachable and no
            // shard is ever poisoned.
            let services: Vec<(&str, emu::stdlib::Service)> = vec![
                ("nat", s::nat("203.0.113.1".parse().unwrap())),
                ("memcached", s::memcached()),
                ("switch", s::switch_ip_cam()),
                ("tcp-ping", s::tcp_ping()),
                ("icmp", s::icmp_echo()),
            ];
            for (label, svc) in services {
                let mut engine = svc.engine(Target::Cpu).shards(shards).build().unwrap();
                let mut gen = Adversarial::new(seed, &[0, 1, 2, 3]);
                let frames: Vec<Frame> = (0..40).map(|_| gen.next_frame()).collect();
                let report = engine.process_batch(&frames);
                for (i, out) in report.outputs.iter().enumerate() {
                    prop_assert!(
                        !matches!(
                            out,
                            Err(EngineError::Trap { .. }) | Err(EngineError::Poisoned { .. })
                        ),
                        "{}: adversarial frame {} trapped: {:?}", label, i, out
                    );
                }
                prop_assert_eq!(
                    engine.healthy_shards(), shards,
                    "{}: a shard was poisoned", label
                );
            }
        }
    }
}
