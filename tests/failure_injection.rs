//! Failure injection across the stack: malformed frames, truncated
//! packets, table exhaustion, queue overflow, and bad direction packets
//! must degrade gracefully — dropped or rejected, never wedging a core.

use emu::debug::{extend_program, ControllerConfig, DirectionPacket, Opcode};
use emu::host::{HostDns, HostIcmpEcho, HostMemcached, HostService};
use emu::prelude::*;
use emu::services as s;
use emu::stdlib::Service;
use emu::traffic::{Adversarial, TrafficGen};
use emu::types::proto::offset;
use emu::types::{bitutil, wire};

#[test]
fn truncated_and_garbage_frames_are_survivable() {
    for svc in [
        s::icmp::icmp_echo(),
        s::tcp_ping::tcp_ping(),
        s::dns::dns_server(vec![("a.b".into(), "1.2.3.4".parse().unwrap())]),
        s::memcached::memcached(),
        s::nat::nat("203.0.113.1".parse().unwrap()),
    ] {
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        // A runt frame (padded to 60 by the Frame type, all zeroes).
        inst.process(&Frame::new(vec![0; 10])).unwrap();
        // Random-ish garbage.
        let junk: Vec<u8> = (0..90).map(|i| (i * 37 % 251) as u8).collect();
        inst.process(&Frame::new(junk)).unwrap();
        // An IPv4 header claiming a huge total length.
        let mut evil = s::icmp::echo_request_frame(56, 1);
        evil.bytes_mut()[16] = 0xff;
        evil.bytes_mut()[17] = 0xff;
        let out = inst.process(&evil);
        // Either cleanly dropped or cleanly errored — never a wedged core.
        if let Ok(o) = out {
            let _ = o;
        }
        // The service must still answer well-formed traffic afterwards.
        let probe = s::icmp::echo_request_frame(8, 2);
        inst.process(&probe).unwrap();
    }
}

#[test]
fn memcached_handles_malformed_commands() {
    let svc = s::memcached::memcached();
    let mut inst = svc.engine(Target::Fpga).build().unwrap();
    for body in [
        "gibberish\r\n",
        "get \r\n",               // empty key
        "set x 0 0 8\r\n",        // missing data block
        "get nokeyhereatall\r\n", // oversized key
        "\r\n",
    ] {
        // Must not wedge; replies optional.
        inst.process(&s::memcached::request_frame(body, 1)).unwrap();
    }
    // Still functional.
    inst.process(&s::memcached::request_frame(
        "set ok 0 0 8\r\nVVVVVVVV\r\n",
        2,
    ))
    .unwrap();
    let out = inst
        .process(&s::memcached::request_frame("get ok\r\n", 3))
        .unwrap();
    assert_eq!(
        s::memcached::reply_text(&out.tx[0].frame),
        b"VALUE ok 0 8\r\nVVVVVVVV\r\nEND\r\n"
    );
}

#[test]
fn mac_table_exhaustion_keeps_forwarding() {
    // More sources than table entries: the switch must keep forwarding
    // (with evictions), never crash or stall.
    let svc = s::switch::switch_behavioural(4);
    let mut inst = svc.engine(Target::Fpga).build().unwrap();
    for i in 0..64u64 {
        let f = wire::l2_frame(0x1000 + i, 0xE000 + (i % 7), (i % 4) as u8);
        let out = inst.process(&f).unwrap();
        assert!(!out.tx.is_empty(), "frame {i} must still forward");
    }
}

#[test]
fn output_queue_overflow_drops_cleanly() {
    use emu::platform::pipeline::OUT_QUEUE_FRAMES;
    use emu::platform::timing::{self, NodeClock};
    use emu::platform::{Baseline, PipelineSim};
    let mut sim = PipelineSim::new_native(Baseline::Reference);
    // All traffic converges on one egress port at 5.3x its line rate.
    sim.inject(&wire::l2_frame(0xB, 0xA, 1), 0.0).unwrap(); // learn A@1... (src 0xB)

    // Far beyond the port's 64 ns wire time, but the core's 10 ns
    // initiation keeps up: every wait is in the output queue.
    let gap = 12.0;
    let mut t = 1000.0;
    for i in 0..2000u64 {
        // Any ingress but port 1, where the destination lives.
        let port = [0, 3, 2][(i % 3) as usize];
        sim.inject(&wire::l2_frame(0xA, 0xB, port), t).unwrap();
        t += gap;
    }
    assert!(sim.queue_drops > 0, "oversubscription must drop");
    // And completed frames still have sane latencies.
    let s = sim.summary().unwrap();
    assert!(s.min > 0.0);
    // The bound the drop rule enforces: no delivered frame waited in
    // its output queue for more than `OUT_QUEUE_FRAMES` wire times of
    // its length. A frame's latency is its unqueued path — the switch's
    // fixed path, its 6 cycles and its egress wire time — plus that wait
    // and less than a cycle of clock-grid alignment.
    let wire_ns = timing::wire_ns(wire::l2_frame(0xA, 0xB, 0).len());
    let unqueued = NodeClock::FIXED_NS + 6.0 * timing::NS_PER_CYCLE + wire_ns;
    let bound = OUT_QUEUE_FRAMES as f64 * wire_ns;
    let worst = s.max - unqueued;
    assert!(
        worst > 0.9 * bound,
        "the queue must fill: waited {worst} ns"
    );
    assert!(
        worst < bound + timing::NS_PER_CYCLE,
        "waited {worst} ns > {bound} ns"
    );
}

/// A mirror service with a planted fault: any frame whose first payload
/// byte (offset 14) is `0xEE` sends the core into an idle loop that never
/// pulses `rx_done` — the "wedged core" failure the driver's cycle budget
/// converts into an error.
fn trappable_mirror() -> Service {
    use emu::ir::dsl::*;
    let (mut pb, dp) = emu::stdlib::service_builder("trappable", 256);
    let mut ok_path = vec![dp.set_output_port(dp.input_port())];
    ok_path.extend(dp.transmit(dp.rx_len()));
    ok_path.extend(dp.done());
    let body = vec![
        dp.rx_wait(),
        if_else(
            eq(dp.byte(14), lit(0xEE, 8)),
            vec![forever(vec![pause()])], // wedge: rx_done never comes
            ok_path,
        ),
    ];
    pb.thread("main", vec![forever(body)]);
    Service::new(pb.build().unwrap())
}

/// Builds a frame for `client` (distinct MACs ⇒ distinct flows); a
/// poison frame carries the 0xEE trigger byte that wedges the core.
fn frame_for(client: u64, poison: bool) -> Frame {
    let payload = if poison { [0xEEu8; 46] } else { [0x11u8; 46] };
    client_frame(client, &payload)
}

/// A frame of `client`'s flow too large for the 256 B frame buffer.
fn oversize_for(client: u64) -> Frame {
    client_frame(client, &[0x11; 1000])
}

fn client_frame(client: u64, payload: &[u8]) -> Frame {
    Frame::ethernet(
        MacAddr::from_u64(0xB),
        MacAddr::from_u64(client),
        0x0900,
        payload,
    )
}

/// A 4-shard trappable mirror: the wedge traps at the driver's fixed
/// per-frame cycle budget.
fn trappable_engine(parallel: bool) -> Engine {
    trappable_mirror()
        .engine(Target::Fpga)
        .shards(4)
        .parallel(parallel)
        .build()
        .unwrap()
}

/// One representative client per shard of a 4-shard RSS engine.
fn clients_per_shard(engine: &Engine) -> Vec<u64> {
    let mut per_shard: Vec<Option<u64>> = vec![None; engine.num_shards()];
    for client in 0..256u64 {
        let k = engine.shard_of(&frame_for(client, false));
        per_shard[k].get_or_insert(client);
    }
    per_shard.into_iter().map(|c| c.unwrap()).collect()
}

/// The trapped-shard isolation scenario, shared by the sequential and
/// parallel modes: poisoning semantics must be identical in both.
fn assert_trapped_shard_isolated(parallel: bool) {
    let mut engine = trappable_engine(parallel);
    let clients = clients_per_shard(&engine);
    let victim = engine.shard_of(&frame_for(clients[2], false));

    // A mixed batch: healthy traffic for every shard plus one poison
    // frame for the victim shard.
    let mut frames: Vec<Frame> = clients.iter().map(|&c| frame_for(c, false)).collect();
    frames.push(frame_for(clients[2], true));
    frames.extend(clients.iter().map(|&c| frame_for(c, false)));

    let report = engine.process_batch(&frames);

    // The trap is attributed and retained; only that shard is lost.
    assert!(engine.shard_error(victim).unwrap().contains("exceeded"));
    assert_eq!(engine.healthy_shards(), 3);
    let poison_at = clients.len(); // index of the poison frame
    for (i, (f, out)) in frames.iter().zip(&report.outputs).enumerate() {
        if engine.shard_of(f) == victim && i >= poison_at {
            // The poison frame reports the trap, the victim's later
            // frames report poisoning — both naming the shard...
            let err = out.as_ref().unwrap_err();
            match err {
                EngineError::Trap { shard, .. } | EngineError::Poisoned { shard, .. } => {
                    assert_eq!(*shard, victim, "frame {i}: {err}");
                }
                other => panic!("frame {i}: unexpected error {other}"),
            }
            assert!(
                err.to_string().contains(&format!("shard {victim}")),
                "{err}"
            );
        } else {
            // ...while frames before the trap and every sibling-shard
            // frame still mirror cleanly.
            let out = out.as_ref().unwrap();
            assert_eq!(out.tx.len(), 1, "sibling shard corrupted");
            assert_eq!(out.tx[0].frame.bytes(), f.bytes());
        }
    }

    // Later single-frame traffic: poisoned shard reports, siblings serve.
    let err = engine.process(&frame_for(clients[2], false)).unwrap_err();
    assert!(matches!(err, EngineError::Poisoned { shard, .. } if shard == victim));
    let ok = engine.process(&frame_for(clients[0], false)).unwrap();
    assert_eq!(ok.tx.len(), 1);

    // Every entry point agrees on a stream with a mid-stream trap *and*
    // oversized frames — one for a healthy shard (rejected), one for the
    // victim after its trap (refused as poisoned before its size is even
    // looked at): the same per-frame results and the same telemetry
    // from a `process` loop and from `process_batch`, whole and in
    // chunks of 1.
    let healthy: Vec<Frame> = clients.iter().map(|&c| frame_for(c, false)).collect();
    let mut stream = healthy.clone();
    stream.push(oversize_for(clients[0]));
    stream.push(frame_for(clients[2], true));
    stream.push(oversize_for(clients[2]));
    stream.extend(healthy);
    let mut scalar = trappable_engine(false);
    let want: Vec<_> = stream.iter().map(|f| scalar.process(f)).collect();
    let want_snap = scalar.telemetry().unwrap();
    let c = want_snap.total().counters;
    assert_eq!(
        (c.drop_oversize, c.drop_trap, c.drop_poisoned),
        (1, 1, 2),
        "{c:?}"
    );
    for chunk in [stream.len(), 1] {
        let mut batched = trappable_engine(parallel);
        let got: Vec<_> = stream
            .chunks(chunk)
            .flat_map(|frames| batched.process_batch(frames).outputs)
            .collect();
        assert_eq!(got, want, "chunks of {chunk}");
        assert_eq!(batched.telemetry().unwrap(), want_snap, "chunks of {chunk}");
    }
}

#[test]
fn trapped_shard_is_isolated_from_siblings() {
    assert_trapped_shard_isolated(false);
}

#[test]
fn trapped_shard_is_isolated_under_parallel_execution() {
    // The same wedge on real threads: the victim shard is poisoned and
    // isolated exactly as in sequential mode — same per-frame errors,
    // same surviving siblings.
    assert_trapped_shard_isolated(true);
}

/// An IP block with a planted bug: it panics while its shard's core
/// works on that shard's `at`-th frame — a host-side failure, where the
/// wedge above is a program-side one.
struct PanicsOnFrame {
    seen: u32,
    at: u32,
}

impl emu::rtl::IpBlockModel for PanicsOnFrame {
    fn step(&mut self, _prog: &emu::ir::Program, _st: &mut emu::ir::MachineState) {
        assert!(self.seen < self.at, "planted model bug");
    }
    fn resources(&self) -> Vec<IpBlock> {
        vec![IpBlock::Hash]
    }
    fn frame_start(&mut self) {
        self.seen += 1;
    }
}

/// A [`trappable_engine`] whose shard `victim` panics on its second
/// frame.
fn panicking_engine(parallel: bool, victim: usize) -> Engine {
    let mut engine = trappable_engine(parallel);
    engine
        .shard_mut(victim)
        .env_mut()
        .attach(Box::new(PanicsOnFrame { seen: 0, at: 2 }));
    engine
}

#[test]
fn checkpoint_refuses_a_model_that_cannot_be_copied_by_name() {
    // The planted model has no `clone_box`, so a checkpoint of its shard
    // cannot copy the shard's environment and says which model stops it;
    // the shards without it checkpoint as usual.
    let engine = panicking_engine(false, 1);
    let err = engine
        .shard(1)
        .checkpoint()
        .err()
        .expect("checkpoint refused");
    assert!(err.contains("PanicsOnFrame"), "{err}");
    assert!(engine.shard(0).checkpoint().is_ok());
}

#[test]
fn panicking_model_poisons_only_its_shard() {
    // A panic inside one shard's core is that shard's trap, not the
    // process's: the frame in flight reports `Trap`, the shard's later
    // frames `Poisoned`, what it had already produced stands, siblings
    // keep serving — the same through `process`, sequential
    // `process_batch` and worker threads. Shard 0's slice of a whole
    // round runs on the calling thread, the others' on their workers.
    for victim in [0, 1, 3] {
        assert_panic_poisons_only(victim);
    }
}

fn assert_panic_poisons_only(victim: usize) {
    let clients = clients_per_shard(&trappable_engine(false));
    // Three rounds over every shard: the victim serves round one,
    // panics in round two, refuses round three.
    let stream: Vec<Frame> = (0..3)
        .flat_map(|_| clients.iter().map(|&c| frame_for(c, false)))
        .collect();

    let mut scalar = panicking_engine(false, victim);
    let want: Vec<_> = stream.iter().map(|f| scalar.process(f)).collect();
    for (i, (f, out)) in stream.iter().zip(&want).enumerate() {
        let round = i / clients.len();
        match out {
            Ok(out) => {
                assert!(i % clients.len() != victim || round == 0, "frame {i}");
                assert_eq!(out.tx[0].frame.bytes(), f.bytes(), "frame {i}");
            }
            Err(EngineError::Trap { shard, reason }) => {
                assert_eq!((*shard, round), (victim, 1), "frame {i}");
                assert_eq!(reason, "panicked: planted model bug");
            }
            Err(EngineError::Poisoned { shard, .. }) => {
                assert_eq!((*shard, round), (victim, 2), "frame {i}");
            }
            Err(other) => panic!("frame {i}: unexpected error {other}"),
        }
    }
    assert_eq!(
        scalar.shard_error(victim),
        Some("panicked: planted model bug")
    );
    assert_eq!(scalar.healthy_shards(), 3);
    let want_snap = scalar.telemetry().unwrap();
    let c = want_snap.total().counters;
    assert_eq!((c.drop_trap, c.drop_poisoned), (1, 1), "{c:?}");

    for parallel in [false, true] {
        for chunk in [stream.len(), 1] {
            let mut batched = panicking_engine(parallel, victim);
            let got: Vec<_> = stream
                .chunks(chunk)
                .flat_map(|frames| batched.process_batch(frames).outputs)
                .collect();
            let label = format!("victim {victim}, parallel {parallel}, chunks of {chunk}");
            assert_eq!(got, want, "{label}");
            assert_eq!(batched.telemetry().unwrap(), want_snap, "{label}");
            // The shard came home from whichever thread its core
            // unwound on: it still answers, and keeps refusing.
            assert_eq!(
                batched.shard_error(victim),
                Some("panicked: planted model bug"),
                "{label}"
            );
            let drops = |e: &Engine| {
                let direct = e.shard(victim).stats().unwrap().counters.drop_poisoned;
                let snap = e.telemetry().unwrap();
                assert_eq!(snap.shards[victim].counters.drop_poisoned, direct);
                direct
            };
            assert_eq!(drops(&batched), 1, "{label}");
            let round = &stream[..clients.len()];
            for later in 1..=3 {
                let report = batched.process_batch(round);
                for (k, out) in report.outputs.iter().enumerate() {
                    match out {
                        Err(EngineError::Poisoned { shard, .. }) => {
                            assert_eq!((*shard, k), (victim, victim), "{label}")
                        }
                        other => assert!(other.is_ok() && k != victim, "{label}: {other:?}"),
                    }
                }
                assert_eq!(drops(&batched), 1 + later, "{label}");
                assert_eq!(batched.healthy_shards(), 3, "{label}");
            }
        }
    }
}

#[test]
fn oversized_frames_are_rejected_without_poisoning() {
    // An oversized frame is an input-validation failure: the shard never
    // sees it, so it must NOT be poisoned and must keep serving.
    let svc = trappable_mirror(); // 256 B frame buffer
    let mut engine = svc.engine(Target::Fpga).shards(2).build().unwrap();
    let small = Frame::new(vec![0x11; 64]);
    let big = Frame::new(vec![0x11; 1000]);

    let err = engine.process(&big).unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::Oversize {
                len: 1000,
                cap: 256,
                ..
            }
        ),
        "{err}"
    );
    assert_eq!(engine.healthy_shards(), 2, "validation must not poison");

    // Batch mixing valid and oversized frames: per-frame results.
    let report = engine.process_batch(&[small.clone(), big, small.clone()]);
    assert!(report.outputs[0].is_ok());
    assert!(matches!(
        report.outputs[1].as_ref().unwrap_err(),
        EngineError::Oversize { .. }
    ));
    assert!(report.outputs[2].is_ok());
    assert_eq!(engine.healthy_shards(), 2);
    assert_eq!(engine.process(&small).unwrap().tx.len(), 1);
}

#[test]
fn malformed_direction_packets_rejected() {
    let base = s::memcached::memcached();
    let cfg = ControllerConfig::read_only(&["n_get"]);
    let prog = extend_program(&base.program, &cfg).unwrap();
    let svc = Service::with_sized_env(prog, move |cfg| (base.make_env)(cfg));
    let mut inst = svc.engine(Target::Fpga).build().unwrap();

    // Unknown opcode byte: the controller answers BAD_OP (the opcode
    // decode falls through every compiled feature).
    let mut f = DirectionPacket::request(Opcode::ReadVar, 0, 0)
        .encode(MacAddr::from_u64(1), MacAddr::from_u64(2));
    f.bytes_mut()[14] = 0x55;
    let out = inst.process(&f).unwrap();
    assert_eq!(out.tx.len(), 1);
    assert_eq!(out.tx[0].frame.bytes()[24], 2, "BAD_OP status expected");

    // Bad variable index.
    let f = DirectionPacket::request(Opcode::ReadVar, 200, 0)
        .encode(MacAddr::from_u64(1), MacAddr::from_u64(2));
    let out = inst.process(&f).unwrap();
    assert_eq!(out.tx[0].frame.bytes()[24], 1, "BAD_VAR status expected");

    // Normal service traffic still works afterwards.
    let out = inst
        .process(&s::memcached::request_frame("get zz\r\n", 1))
        .unwrap();
    assert_eq!(s::memcached::reply_text(&out.tx[0].frame), b"END\r\n");
}

/// A service whose program drives one IP block per frame; `declare`
/// puts the block's ports on the program and returns what the recipe
/// needs, `attach` builds the model.
fn block_service<H: 'static>(
    declare: impl FnOnce(&mut ProgramBuilder) -> (H, Vec<emu::ir::Stmt>),
    attach: impl Fn(&H) -> Box<dyn emu::rtl::IpBlockModel> + 'static,
) -> Service {
    let (mut pb, dp) = emu::stdlib::service_builder("block_user", 128);
    let (handle, request) = declare(&mut pb);
    let mut body = vec![dp.rx_wait()];
    body.extend(request);
    body.extend(dp.done());
    pb.thread("main", vec![dsl::forever(body)]);
    Service::with_sized_env(pb.build().unwrap(), move |_| {
        let mut env = emu::rtl::IpEnv::new();
        env.attach(attach(&handle));
        env
    })
}

/// The message of the `EngineError::Build` that `svc` must fail with.
fn build_error(svc: &Service, target: Target) -> String {
    match svc.engine(target).build() {
        Err(EngineError::Build(msg)) => msg,
        Err(other) => panic!("expected a build error, got {other}"),
        Ok(_) => panic!("expected a build error, got an engine"),
    }
}

#[test]
fn model_on_another_programs_handle_is_a_build_error() {
    // The same CAM declared one signal later in a second program: every
    // port of that handle names a neighbour's signal in the first
    // program, and the last one is past its end. Attaching a model built
    // from it must fail the build and name the block — before any cycle
    // indexes the signal arrays with it.
    use emu::rtl::{CamIf, CamModel};
    let mut other = ProgramBuilder::new("other");
    other.sig_out("pad", 1);
    let _dp = emu::stdlib::Dataplane::declare(&mut other, 128);
    let foreign = CamIf::declare(&mut other, "tbl", 16, 8);

    let wired = |foreign: Option<CamIf>| {
        block_service(
            |pb| {
                let own = CamIf::declare(pb, "tbl", 16, 8);
                let request = own.lookup(dsl::lit(1, 16));
                (foreign.unwrap_or(own), request)
            },
            |cam| Box::new(CamModel::new(cam, 4, false)),
        )
    };
    for target in [Target::Cpu, Target::Fpga] {
        let msg = build_error(&wired(Some(foreign.clone())), target);
        assert!(msg.contains("IP block `tbl`"), "{msg}");
        // The program's own handle builds and serves.
        let mut engine = wired(None).engine(target).build().unwrap();
        engine.process(&Frame::new(vec![0; 60])).unwrap();
    }
}

#[test]
fn zero_capacity_naughtyq_is_a_build_error() {
    // A slot store with no slots has nothing to evict on the first
    // Enlist; like `table_entries(0)`, that is a configuration mistake
    // reported at build, not a panic on the first frame.
    use emu::rtl::{NaughtyQIf, NaughtyQModel};
    let with_slots = |cap: usize| {
        block_service(
            |pb| {
                let q = NaughtyQIf::declare(pb, "slots", 8);
                let request = q.enlist(dsl::lit(7, 8));
                (q, request)
            },
            move |q| Box::new(NaughtyQModel::new(q, cap)),
        )
    };
    let msg = build_error(&with_slots(0), Target::Cpu);
    assert!(msg.contains("IP block `slots`"), "{msg}");
    // One slot is enough to enlist (and evict) forever.
    let mut engine = with_slots(1).engine(Target::Cpu).build().unwrap();
    for _ in 0..3 {
        engine.process(&Frame::new(vec![0; 60])).unwrap();
    }
}

#[test]
fn extend_program_preserves_every_base_signal() {
    // IP-block models index signals by the ids their handles were
    // declared with, and directed services re-wrap the base recipe
    // around the extended program — so the transformation must keep
    // every base signal's index, name, direction and width.
    for base in [
        s::memcached::memcached(),
        s::nat::nat("203.0.113.1".parse().unwrap()),
        s::switch_ip_cam(),
        s::lru_cache(),
    ] {
        let cfg = ControllerConfig::full(&[], 8);
        let ext = extend_program(&base.program, &cfg).unwrap();
        let kept = &ext.signals()[..base.program.signals().len()];
        assert_eq!(kept, base.program.signals(), "{}", base.program.name);
        let env = (base.make_env)(&emu::stdlib::TableConfig::default());
        env.check(&ext).unwrap();
    }
}

// ---------------------------------------------------------------------
// Host-side decoders: frames off the wire may lie about their lengths
// ---------------------------------------------------------------------

#[test]
fn reply_text_clamps_a_lying_udp_length() {
    let mut f = s::memcached::request_frame("get foo\r\n", 1);
    for (udp_len, text) in [
        (25, &b"get foo\r\n"[..]),
        // Past the frame: the text runs to the end of what arrived.
        (0xffff, b"get foo\r\n\0"),
        // Short of the text, or of the UDP header itself: no text.
        (18, b"ge"),
        (15, b""),
        (0, b""),
    ] {
        bitutil::set16(f.bytes_mut(), offset::L4 + 4, udp_len);
        assert_eq!(s::memcached::reply_text(&f), text, "UDP length {udp_len}");
    }
}

#[test]
fn tcp_checksum_of_an_ip_total_length_below_the_header_is_none() {
    let mut f = s::tcp_ping::syn_frame(1, 2, 3);
    assert_eq!(wire::l4_csum_ok(&f), Some(true));
    bitutil::set16(f.bytes_mut(), offset::IPV4 + 2, 10);
    assert_eq!(wire::l4_csum_ok(&f), None);
}

#[test]
fn tcp_checksum_of_a_frame_cut_inside_the_ip_header_is_invalid() {
    let syn = s::tcp_ping::syn_frame(1, 2, 3);
    // 30 bytes: the addresses are gone, the MAC pads the rest with zeros.
    let cut = Frame::new(syn.bytes()[..30].to_vec());
    assert_eq!(wire::l4_csum_ok(&cut), Some(false));
}

#[test]
fn udp_checksum_of_a_length_past_the_frame_is_none() {
    let good = s::nat::udp_frame(Ipv4::new(10, 0, 0, 1), 1, Ipv4::new(10, 0, 0, 2), 2, 1);
    assert_eq!((good.len(), wire::l4_csum_ok(&good)), (60, Some(true)));
    for (field, lie) in [
        (offset::L4 + 4, 2000),   // UDP length past the frame
        (offset::L4 + 4, 3),      // … shorter than its own header
        (offset::IPV4 + 2, 2000), // IP total length past the frame
        (offset::IPV4 + 2, 27),   // … with no room for a UDP header
    ] {
        let mut f = good.clone();
        bitutil::set16(f.bytes_mut(), field, lie);
        assert_eq!(wire::l4_csum_ok(&f), None, "{field}: {lie}");
    }
    // An IHL of 15 claims a 60-byte header the 60-byte frame cannot hold.
    let mut options = good;
    options.bytes_mut()[offset::IPV4] = 0x4f;
    assert_eq!(wire::l4_csum_ok(&options), None);
    assert_eq!(wire::ipv4_csum_ok(&options), None);
}

#[test]
fn host_icmp_drops_an_echo_request_cut_short_of_its_total_length() {
    let ping = s::icmp::echo_request_frame(56, 1);
    assert_eq!(HostIcmpEcho.process(&ping).len(), 1);
    // 40 bytes survive, the MAC pads to 60, the IP header still says 84.
    let cut = Frame::new(ping.bytes()[..40].to_vec());
    assert_eq!(cut.len(), 60);
    assert!(HostIcmpEcho.process(&cut).is_empty());
}

#[test]
fn host_side_decoders_survive_adversarial_and_truncated_frames() {
    let mut dns = HostDns::new(vec![("a.b".into(), Ipv4::new(1, 2, 3, 4))]);
    let mut mc = HostMemcached::default();
    let mut decode = |f: &Frame| {
        let _ = HostIcmpEcho.process(f);
        let _ = dns.process(f);
        let _ = mc.process(f);
        let _ = wire::reply_text(f);
        let _ = wire::ipv4_csum_ok(f);
        let _ = wire::l4_csum_ok(f);
    };
    let mut adversarial = Adversarial::new(0x601d_0024, &[0, 1, 2, 3]);
    for _ in 0..20_000 {
        decode(&adversarial.next_frame());
    }
    // One valid frame per protocol, cut at every byte — as the MAC would
    // deliver it (zero-padded to 60), then with each length field
    // claiming nothing, next to nothing, and more than any frame holds.
    for whole in [
        s::icmp::echo_request_frame(56, 1),
        s::dns::query_frame("a.b", 7),
        s::memcached::request_frame("set foo 0 0 8\r\nAAAABBBB\r\n", 1),
        s::memcached::request_frame("get foo\r\n", 2),
        s::tcp_ping::syn_frame(40_000, 80, 0x1000),
        s::nat::udp_frame(Ipv4::new(10, 0, 0, 1), 53, Ipv4::new(10, 0, 0, 2), 53, 1),
    ] {
        for cut in 0..=whole.len() {
            let f = Frame::new(whole.bytes()[..cut].to_vec());
            decode(&f);
            for len_field in [offset::IPV4 + 2, offset::L4 + 4] {
                for lie in [0, 1, 0xffff] {
                    let mut lying = f.clone();
                    bitutil::set16(lying.bytes_mut(), len_field, lie);
                    decode(&lying);
                }
            }
        }
    }
}
