//! Integration suite for the unified sharded engine:
//!
//! * sharded output equals single-instance output for stateless services
//!   under any shard count,
//! * flow affinity — every frame of one 5-tuple lands on one shard — so
//!   stateful services (NAT) keep per-flow state consistent,
//! * `process_batch` is exactly equivalent to frame-by-frame `process`,
//!   on both execution targets and in both execution modes,
//! * `NatSteering` dispatch delivers inbound NAT replies to the shard
//!   that allocated the mapping — which plain RSS provably cannot,
//! * shards built as copies of one core share no state on any execution.

use emu::prelude::*;
use emu::services as s;
use emu::stdlib::{flow_hash, flow_key};
use emu_types::checksum::pearson8_seeded;
use emu_types::proto::{ip_proto, offset};
use emu_types::{bitutil, wire};
use proptest::prelude::*;

const CLIENT_MAC: MacAddr = MacAddr([0x02, 0, 0, 0, 0, 0x42]);
const SERVER_MAC: MacAddr = MacAddr([0x02, 0, 0, 0, 0, 0x41]);

/// Builds a UDP frame for client flow `flow` (distinct sport) with
/// `extra` more payload bytes, so the same flow can send varied frames.
fn client_frame(flow: u16, extra: usize) -> Frame {
    wire::udp_frame(
        CLIENT_MAC,
        SERVER_MAC,
        Ipv4::new(192, 168, 1, 50),
        2000 + flow,
        Ipv4::new(8, 8, 8, 8),
        53,
        &vec![0xa5; 16 + extra],
        1 + (flow % 3) as u8,
    )
}

/// ICMP echo request `i` from one of `flows` client addresses (ICMP has
/// no ports, so the flow hash spreads on the source address).
fn icmp_flow_frame(i: u64, flows: u64) -> Frame {
    let payload: Vec<u8> = (0..16 + (i % 48) as u8).collect();
    wire::ipv4_frame(
        CLIENT_MAC,
        SERVER_MAC,
        Ipv4::new(10, 0, 0, (i % flows) as u8 + 1),
        Ipv4::new(10, 0, 0, 2),
        ip_proto::ICMP,
        0x1234,
        &wire::echo_request(0x5678, i as u16, &payload),
        (i % 4) as u8,
    )
}

fn dns_zone() -> Vec<(String, emu_types::Ipv4)> {
    vec![
        ("a.b".to_string(), "1.2.3.4".parse().unwrap()),
        ("example.com".to_string(), "93.184.216.34".parse().unwrap()),
    ]
}

/// DNS query `i` from one of `flows` client source ports.
fn dns_flow_frame(i: u64, flows: u64) -> Frame {
    let name = if i.is_multiple_of(3) {
        "a.b"
    } else {
        "example.com"
    };
    wire::udp_frame(
        CLIENT_MAC,
        SERVER_MAC,
        Ipv4::new(10, 0, 0, 50),
        4000 + (i % flows) as u16,
        Ipv4::new(10, 0, 0, 53),
        53,
        &wire::dns_query(name, i as u16),
        (i % 4) as u8,
    )
}

#[test]
fn stateless_services_shard_transparently() {
    // ICMP echo and DNS hold no cross-frame state: sharded output must be
    // byte-identical to a single instance under every shard count.
    let cases: Vec<(&str, emu::stdlib::Service, Vec<Frame>)> = vec![
        (
            "icmp",
            s::icmp::icmp_echo(),
            (0..24).map(|i| icmp_flow_frame(i, 9)).collect(),
        ),
        (
            "dns",
            s::dns::dns_server(dns_zone()),
            (0..24).map(|i| dns_flow_frame(i, 11)).collect(),
        ),
    ];

    for (name, svc, frames) in cases {
        for target in [Target::Cpu, Target::Fpga] {
            let mut single = svc.engine(target).build().unwrap();
            for shards in [1usize, 2, 3, 4, 8] {
                let mut engine = svc.engine(target).shards(shards).build().unwrap();
                for f in &frames {
                    let want = single.process(f).unwrap();
                    let got = engine.process(f).unwrap();
                    assert_eq!(got.tx, want.tx, "{name}: {shards} shards, {target:?}");
                }
            }
        }
    }
}

#[test]
fn stateless_model_wall_time_falls_with_every_added_shard() {
    // The paper's §5.4 scale-out (3.7x at four memcached cores) for the
    // services that need no flow affinity: under the parallel-datapath
    // cost model a batch takes as long as its busiest shard, so with 64
    // client flows for the flow hash to spread, each doubling of the
    // pipelines must shorten the batch. A dispatcher that stops
    // spreading, or a `wall_cycles` that stops taking the maximum,
    // breaks the strict fall. Two requests a flow is as many as a debug
    // build affords: tcp-ping's RTL simulation runs ~20 ms a frame.
    const FLOWS: u64 = 64;
    const REQUESTS: u64 = 128;
    let cases: Vec<(&str, emu::stdlib::Service, Vec<Frame>)> = vec![
        (
            "icmp",
            s::icmp::icmp_echo(),
            (0..REQUESTS).map(|i| icmp_flow_frame(i, FLOWS)).collect(),
        ),
        (
            "tcp-ping",
            s::tcp_ping::tcp_ping(),
            (0..REQUESTS)
                .map(|i| s::tcp_ping::syn_frame(40_000 + (i % FLOWS) as u16, 80, i as u32))
                .collect(),
        ),
        (
            "dns",
            s::dns::dns_server(dns_zone()),
            (0..REQUESTS).map(|i| dns_flow_frame(i, FLOWS)).collect(),
        ),
    ];
    for (name, svc, frames) in cases {
        let wall = [1usize, 2, 4].map(|shards| {
            let mut engine = svc.engine(Target::Fpga).shards(shards).build().unwrap();
            let batch = engine.process_batch(&frames);
            assert_eq!(batch.ok_count(), frames.len(), "{name}: {shards} shards");
            batch.wall_cycles()
        });
        assert!(
            wall[0] > wall[1] && wall[1] > wall[2],
            "{name}: batch wall cycles must fall 1 -> 2 -> 4 shards: {wall:?}"
        );
    }
}

#[test]
fn flow_affinity_all_frames_of_a_tuple_share_a_shard() {
    let svc = s::nat::nat("203.0.113.1".parse().unwrap());
    for shards in [2usize, 3, 4, 8] {
        let engine = svc.engine(Target::Cpu).shards(shards).build().unwrap();
        for flow in 0..64u16 {
            // Same 5-tuple, different lengths/payloads: one home shard.
            let home = engine.shard_of(&client_frame(flow, 0));
            for extra in [1usize, 7, 64, 403] {
                assert_eq!(
                    engine.shard_of(&client_frame(flow, extra)),
                    home,
                    "flow {flow} split across shards at +{extra}B"
                );
            }
        }
        // And the hash actually uses more than one shard over the pool.
        let used: std::collections::HashSet<usize> = (0..64u16)
            .map(|flow| engine.shard_of(&client_frame(flow, 0)))
            .collect();
        assert!(used.len() > 1, "{shards} shards: dispatch degenerated");
    }
}

#[test]
fn sharded_nat_keeps_per_flow_mappings_consistent() {
    // Stateful correctness under sharding: each flow's allocated external
    // port must be stable across repeated frames (state lives on exactly
    // one shard), and translated frames must carry valid checksums.
    let svc = s::nat::nat("203.0.113.1".parse().unwrap());
    let mut engine = svc.engine(Target::Fpga).shards(4).build().unwrap();
    let mut first_port = std::collections::HashMap::new();
    for round in 0..3usize {
        for flow in 0..16u16 {
            let out = engine.process(&client_frame(flow, round)).unwrap();
            assert_eq!(out.tx.len(), 1, "flow {flow} round {round}");
            let b = out.tx[0].frame.bytes();
            let ext = bitutil::get16(b, 34);
            let prev = *first_port.entry(flow).or_insert(ext);
            assert_eq!(prev, ext, "flow {flow} changed external port");
            assert!(emu_types::checksum::verify(&b[14..34]), "bad IP csum");
            assert_eq!(
                wire::l4_csum_ok(&out.tx[0].frame),
                Some(true),
                "bad UDP csum"
            );
        }
    }
}

/// Builds the inbound reply to a translated outbound frame: from the
/// remote back to the public address at the allocated external port.
fn reply_to(translated: &Frame) -> Frame {
    let b = translated.bytes();
    let public = emu_types::Ipv4::new(b[26], b[27], b[28], b[29]);
    let ext_port = bitutil::get16(b, 34);
    s::nat::udp_frame("8.8.8.8".parse().unwrap(), 53, public, ext_port, 0)
}

#[test]
fn nat_steering_delivers_inbound_replies_to_the_owning_shard() {
    // The ROADMAP inbound-steering item, end-to-end: under `NatSteering`
    // every reply reaches the shard holding the reverse mapping and is
    // translated back; under plain RSS the reply 5-tuple hashes
    // independently of the owner, so (with 16 flows over 4 shards) some
    // replies land on the wrong shard and are dropped. Swapping the
    // NatSteering engine's dispatch for RssHash makes this test fail.
    let svc = s::nat::nat("203.0.113.1".parse().unwrap());
    let flows: Vec<u16> = (0..16).collect();

    // Returns how many replies came back *correctly* (translated to this
    // flow's internal port) vs wrong (dropped on a shard with no mapping,
    // or — worse — mistranslated to another client via a duplicate
    // mapping, since under RSS every shard allocates from the same
    // range).
    let run = |engine: &mut Engine| -> (usize, usize) {
        let mut correct = 0;
        let mut wrong = 0;
        for &flow in &flows {
            let out = engine.process(&client_frame(flow, 0)).unwrap();
            assert_eq!(out.tx.len(), 1, "outbound must translate");
            let reply = reply_to(&out.tx[0].frame);
            let back = engine.process(&reply).unwrap();
            let ok = back.tx.len() == 1 && {
                let b = back.tx[0].frame.bytes();
                b[30..34] == [192, 168, 1, 50] && bitutil::get16(b, 36) == 2000 + flow
            };
            if ok {
                correct += 1;
            } else {
                wrong += 1;
            }
        }
        (correct, wrong)
    };

    let mut steered = svc
        .engine(Target::Fpga)
        .shards(4)
        .dispatch(NatSteering)
        .build()
        .unwrap();
    let (correct, wrong) = run(&mut steered);
    assert_eq!(
        (correct, wrong),
        (flows.len(), 0),
        "NatSteering must deliver every reply to its owning shard"
    );

    let mut rss = svc.engine(Target::Fpga).shards(4).build().unwrap();
    let (_, rss_wrong) = run(&mut rss);
    assert!(
        rss_wrong > 0,
        "plain RSS mis-steers some replies (else this suite lost its teeth)"
    );
}

#[test]
fn nat_steering_partitions_the_ephemeral_range() {
    // Shard k allocates FIRST_EPHEMERAL + k, stepping by N: external
    // ports are globally unique across shards and their residue names
    // the owner.
    let svc = s::nat::nat("203.0.113.1".parse().unwrap());
    let shards = 4usize;
    let mut engine = svc
        .engine(Target::Cpu)
        .shards(shards)
        .dispatch(NatSteering)
        .build()
        .unwrap();
    let mut seen = std::collections::HashMap::new();
    for flow in 0..32u16 {
        let f = client_frame(flow, 0);
        let home = engine.shard_of(&f);
        let out = engine.process(&f).unwrap();
        let ext = bitutil::get16(out.tx[0].frame.bytes(), 34);
        assert_eq!(
            usize::from(ext - s::nat::FIRST_EPHEMERAL) % shards,
            home,
            "flow {flow}: port {ext} outside shard {home}'s residue class"
        );
        assert!(
            seen.insert(ext, flow).is_none(),
            "external port {ext} allocated twice"
        );
    }
}

#[test]
fn process_batch_equals_frame_by_frame() {
    // Both on a 1-shard engine and a 4-shard engine, batching must be
    // invisible to results — including for a stateful service fed affine
    // traffic.
    let svc = s::nat::nat("203.0.113.1".parse().unwrap());
    let frames: Vec<Frame> = (0..40u64)
        .map(|i| client_frame((i % 10) as u16, (i / 10) as usize))
        .collect();

    // Single pipeline: batch vs loop.
    let mut a = svc.engine(Target::Fpga).build().unwrap();
    let mut b = svc.engine(Target::Fpga).build().unwrap();
    let batch = a.process_batch(&frames);
    for (f, got) in frames.iter().zip(&batch.outputs) {
        assert_eq!(got.as_ref().unwrap(), &b.process(f).unwrap());
    }
    assert_eq!(batch.outputs.len(), frames.len());
    assert_eq!(batch.tx_count(), frames.len());

    // Sharded engine: batch vs one-at-a-time on a fresh engine.
    let mut eng_batch = svc.engine(Target::Fpga).shards(4).build().unwrap();
    let mut eng_loop = svc.engine(Target::Fpga).shards(4).build().unwrap();
    let sharded = eng_batch.process_batch(&frames);
    assert_eq!(sharded.ok_count(), frames.len());
    for (f, got) in frames.iter().zip(&sharded.outputs) {
        let want = eng_loop.process(f).unwrap();
        assert_eq!(got.as_ref().unwrap(), &want);
    }
    // Busy cycles land only on shards that saw frames.
    let busy = sharded.total_cycles();
    assert!(busy > 0 && sharded.wall_cycles() <= busy);
}

#[test]
fn parallel_execution_is_invisible_to_results() {
    // `.parallel(true)` moves shard slices onto real threads; outputs,
    // cycle accounting, and mapping stability must match the sequential
    // cost-model mode exactly.
    let svc = s::nat::nat("203.0.113.1".parse().unwrap());
    let frames: Vec<Frame> = (0..48u64)
        .map(|i| client_frame((i % 12) as u16, (i / 12) as usize))
        .collect();
    let mut seq = svc.engine(Target::Fpga).shards(4).build().unwrap();
    let mut par = svc
        .engine(Target::Fpga)
        .shards(4)
        .parallel(true)
        .build()
        .unwrap();
    let a = seq.process_batch(&frames);
    let b = par.process_batch(&frames);
    assert_eq!(a.shard_cycles, b.shard_cycles);
    assert_eq!(a.ok_count(), b.ok_count());
    for (i, (x, y)) in a.outputs.iter().zip(&b.outputs).enumerate() {
        assert_eq!(x.as_ref().unwrap(), y.as_ref().unwrap(), "frame {i}");
    }
}

#[test]
fn interpreter_and_fsm_agree_under_sharding() {
    // The engine is target-transparent: CPU shards and FPGA shards give
    // identical transmissions for the same affine traffic.
    let svc = s::nat::nat("203.0.113.1".parse().unwrap());
    let frames: Vec<Frame> = (0..24u64)
        .map(|i| client_frame((i % 8) as u16, 0))
        .collect();
    let mut cpu = svc.engine(Target::Cpu).shards(4).build().unwrap();
    let mut fpga = svc.engine(Target::Fpga).shards(4).build().unwrap();
    for f in &frames {
        assert_eq!(
            cpu.process(f).unwrap().tx,
            fpga.process(f).unwrap().tx,
            "targets diverged under sharding"
        );
    }
}

#[test]
fn shard_of_is_stable_and_engine_reports_shape() {
    let svc = s::icmp::icmp_echo();
    let engine: Engine = svc.engine(Target::Cpu).shards(5).build().unwrap();
    assert_eq!(engine.num_shards(), 5);
    assert_eq!(engine.healthy_shards(), 5);
    assert_eq!(engine.dispatch_name(), "rss-hash");
    assert!(format!("{engine:?}").contains("parallel: false"));
    let f = s::icmp::echo_request_frame(56, 1);
    assert_eq!(engine.shard_of(&f), (flow_hash(&f) % 5) as usize);
}

/// The frames the flow-hash golden walks: the first 512 of every
/// generator `tests/wire_golden.rs` pins, then the shapes `flow_key`
/// branches on — non-IP, every IPv4 header length (options push the
/// ports out, the longest past the end of a 60-byte frame), and six
/// valid frames cut at every byte with their length fields lying, as
/// `tests/failure_injection.rs` sweeps them.
fn flow_hash_corpus() -> Vec<Frame> {
    use emu::traffic::{
        Adversarial, Background, DnsWeighted, FlowChurn, MacChurn, MemcachedZipf, TcpConversations,
        TrafficGen,
    };
    const SEED: u64 = 0x601d_0022;
    let mut gens: Vec<Box<dyn TrafficGen>> = vec![
        Box::new(MemcachedZipf::new(SEED, 256, 1.1, 0.9)),
        Box::new(DnsWeighted::new(
            SEED,
            &[("example.com", 6), ("a.b", 3), ("nope.invalid", 1)],
        )),
        Box::new(Background::new(SEED, &[0, 1, 2, 3])),
        Box::new(TcpConversations::new(SEED, 8, &[1, 2, 3])),
        Box::new(FlowChurn::new(SEED, 40, 150, &[1, 2, 3])),
        Box::new(MacChurn::new(SEED, 24, 120)),
        Box::new(Adversarial::new(SEED, &[0, 1, 2, 3])),
        Box::new(Adversarial::new(0x601d_0024, &[0, 1, 2, 3])),
    ];
    let mut frames: Vec<Frame> = gens
        .iter_mut()
        .flat_map(|g| (0..512).map(|_| g.next_frame()).collect::<Vec<_>>())
        .collect();
    frames.push(Frame::ethernet(SERVER_MAC, CLIENT_MAC, 0x0806, &[0x5a; 28]));
    for ihl in 0..16u8 {
        for whole in [client_frame(7, 0), s::tcp_ping::syn_frame(40_000, 80, 1)] {
            let mut f = whole;
            f.bytes_mut()[offset::IPV4] = 0x40 | ihl;
            frames.push(f);
        }
    }
    for whole in [
        s::icmp::echo_request_frame(56, 1),
        s::dns::query_frame("a.b", 7),
        s::memcached::request_frame("get foo\r\n", 2),
        s::tcp_ping::syn_frame(40_000, 80, 0x1000),
        s::nat::udp_frame(Ipv4::new(10, 0, 0, 1), 53, Ipv4::new(10, 0, 0, 2), 53, 1),
    ] {
        for cut in 0..=whole.len() {
            let f = Frame::new(whole.bytes()[..cut].to_vec());
            for len_field in [offset::IPV4 + 2, offset::L4 + 4] {
                for lie in [0, 0xffff] {
                    let mut lying = f.clone();
                    bitutil::set16(lying.bytes_mut(), len_field, lie);
                    frames.push(lying);
                }
            }
            frames.push(f);
        }
    }
    frames
}

#[test]
fn flow_hash_digest_is_pinned() {
    // Recorded while `flow_hash` was four `pearson8_seeded` calls; shard
    // assignment, and with it every per-shard counter on file, hangs on
    // each of these values.
    let corpus = flow_hash_corpus();
    let digest = corpus.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, f| {
        flow_hash(f).to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    });
    println!("{} frames, digest {digest:#018x}", corpus.len());
    assert_eq!((corpus.len(), digest), (5859, 0xf47c_1b2b_4524_c628));
    // MACs only, + addresses, + protocol and ports: all three key shapes.
    let shapes: std::collections::BTreeSet<u8> = corpus.iter().map(|f| flow_key(f)[25]).collect();
    assert_eq!(shapes.into_iter().collect::<Vec<_>>(), [12, 20, 25]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn flow_hash_is_four_seeded_pearson_digests_of_the_flow_key(
        bytes in proptest::collection::vec(any::<u8>(), 0..160),
        shape in 0u8..4,
        ihl in 0u8..16,
        proto in 0u8..3,
        in_port in 0u8..4,
    ) {
        // Random bytes are almost never IPv4, let alone TCP or UDP:
        // three draws in four patch the fields `flow_key` branches on.
        let mut f = Frame::new(bytes);
        f.in_port = in_port;
        if shape > 0 {
            bitutil::set16(f.bytes_mut(), offset::ETH_TYPE, 0x0800);
            f.bytes_mut()[offset::IPV4] = 0x40 | if shape > 1 { ihl } else { 5 };
            f.bytes_mut()[offset::IPV4_PROTO] = [ip_proto::TCP, ip_proto::UDP, ip_proto::ICMP][proto as usize];
        }
        let key = flow_key(&f);
        let want = (1..=4u8).fold(0u64, |h, seed| {
            (h << 8) | u64::from(pearson8_seeded(seed, &key))
        });
        prop_assert_eq!(flow_hash(&f), want);
    }
}

/// Sequential and parallel 4-shard NAT engines fed the same `rounds`
/// of batches of `sizes`: every report and every snapshot must agree,
/// batch after batch — the workers of the parallel engine are parked
/// and woken, lent shards and handed them back, over a hundred times.
fn assert_modes_agree_batch_after_batch(target: Target, sizes: &[usize], rounds: usize) {
    let svc = s::nat::nat("203.0.113.1".parse().unwrap());
    let engine = |parallel: bool| {
        svc.engine(target)
            .shards(4)
            .dispatch(NatSteering)
            .parallel(parallel)
            .build()
            .unwrap()
    };
    let (mut seq, mut par) = (engine(false), engine(true));
    // Outbound frames of 96 client flows, and every fifth frame an
    // inbound one on the external port, steered by its destination.
    let mut serial = 0u64;
    let mut next_frame = |flow: Option<u16>| {
        serial += 1;
        let (inbound, flow) = match flow {
            Some(lone) => (false, lone),
            None => (serial.is_multiple_of(5), (serial * 7 % 96) as u16),
        };
        if inbound {
            let public = "203.0.113.1".parse().unwrap();
            s::nat::udp_frame("8.8.8.8".parse().unwrap(), 53, public, 50_000 + flow, 0)
        } else {
            client_frame(flow, (serial % 40) as usize)
        }
    };
    let mut lone_shards = std::collections::BTreeSet::new();
    let mut batches = 0;
    for round in 0..rounds {
        for &size in sizes {
            // Every other round all of a batch is one outbound flow's:
            // one shard busy, three idle, nobody to wake.
            let lone = (round % 2 == 1).then_some(round as u16 * 5);
            let frames: Vec<Frame> = (0..size).map(|_| next_frame(lone)).collect();
            let (a, b) = (seq.process_batch(&frames), par.process_batch(&frames));
            let at = format!("{target:?}, round {round}, batch of {size}");
            assert_eq!(a.outputs, b.outputs, "{at}");
            assert_eq!(a.shard_cycles, b.shard_cycles, "{at}");
            assert_eq!(seq.telemetry(), par.telemetry(), "{at}");
            if lone.is_some() {
                let busy: Vec<usize> = (0..4).filter(|&k| a.shard_cycles[k] > 0).collect();
                assert!(busy.len() <= 1, "{at}: {busy:?}");
                lone_shards.extend(busy);
            }
            batches += 1;
        }
    }
    assert!(batches >= 64, "{batches} batches");
    assert!(
        lone_shards.iter().any(|&k| k > 0) && lone_shards.len() > 1,
        "one-shard batches should land on worker-side shards too: {lone_shards:?}"
    );
    let total = seq.telemetry().unwrap().total().counters;
    assert!(total.frames > 0 && total.tx_frames > 0, "{total:?}");
}

#[test]
fn modes_agree_batch_after_batch_on_cpu() {
    assert_modes_agree_batch_after_batch(Target::Cpu, &[0, 1, 7, 256, 1024], 13);
}

#[test]
fn modes_agree_batch_after_batch_on_fpga() {
    // The RTL machine costs milliseconds a frame in a debug build.
    assert_modes_agree_batch_after_batch(Target::Fpga, &[0, 1, 7], 22);
}

#[test]
fn shards_share_no_state_on_any_execution() {
    // Every shard's core is a copy of one built core: a register written
    // on one shard and a station learned on another (the behavioural
    // switch keeps its MAC table in program arrays, i.e. in the core)
    // must stay invisible to their siblings.
    let svc = s::switch::switch_behavioural(16);
    let station = |mac: u64, dst: u64, port: u8| wire::l2_frame(mac, dst, port);
    for (exec, target, backend) in [
        ("compiled", Target::Cpu, Backend::Compiled),
        ("treewalk", Target::Cpu, Backend::TreeWalk),
        ("fpga", Target::Fpga, Backend::Compiled),
    ] {
        let mut engine = svc
            .engine(target)
            .backend(backend)
            .shards(3)
            .build()
            .unwrap();
        let free = |engine: &Engine| -> Vec<u64> {
            (0..3)
                .map(|k| engine.shard(k).read_reg("free").unwrap().to_u64())
                .collect()
        };
        assert!(engine.shard_mut(0).write_reg("free", 9));
        assert_eq!(free(&engine), [9, 0, 0], "{exec}");

        // A station on port 2 speaks first, on shard 1.
        let (mac, hello) = (0xA..)
            .map(|mac| (mac, station(mac, 0xB, 2)))
            .find(|(_, f)| engine.shard_of(f) == 1)
            .unwrap();
        assert_eq!(
            engine.process(&hello).unwrap().tx[0].ports,
            0b1011,
            "{exec}"
        );
        // Then one frame to it lands on each shard: only shard 1 knows
        // where it is, its siblings still flood.
        for k in 0..3 {
            let probe = (0x100..)
                .map(|src| station(src, mac, 0))
                .find(|f| engine.shard_of(f) == k)
                .unwrap();
            let want = if k == 1 { 0b0100 } else { 0b1110 };
            let ports = engine.process(&probe).unwrap().tx[0].ports;
            assert_eq!(ports, want, "{exec}: shard {k}");
        }
        // Each shard learned its probe's sender, shard 1 the station too.
        assert_eq!(free(&engine), [10, 2, 1], "{exec}");
    }
}
