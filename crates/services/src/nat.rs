//! Network address translation (§4.4).
//!
//! "We provide a network address translation (NAT) service, supporting
//! both UDP and TCP, which was implemented by a second-year undergraduate
//! student... written entirely in C#, without the use of Verilog-based
//! cores, and has less than 1,000 lines." The paper uses NAT as its
//! three-target portability test case (software, Mininet, hardware);
//! the integration tests and the `nat_three_targets` example do the same
//! here. Table 4: 1.32 µs / 2.439 Mq/s vs 2.44 ms / 1.037 Mq/s for the
//! Linux-gateway host path.
//!
//! Port 0 ([`emu_core::NatSteering::EXTERNAL_PORT`]) is the external
//! (public) side; all other ports are internal.
//! Outbound flows get a translation allocated from an ephemeral port
//! counter; inbound packets are matched against the reverse table and
//! dropped when no mapping exists. TTL is decremented and both the IPv4
//! header checksum and the L4 checksum are updated incrementally
//! (RFC 1624) — the output frames carry *valid* checksums, which the
//! tests verify with an independent software implementation.
//!
//! # Flow-affinity requirements under sharding
//!
//! NAT is the canonical *stateful* service for the scale-out engine
//! (`emu_core::Engine`): its translation tables are keyed by flow, so
//! partitioning state across shards is correct **iff every frame of a
//! flow reaches the shard that allocated the flow's mapping**. RSS
//! dispatch (`emu_core::RssHash`) guarantees this for outbound traffic —
//! one 5-tuple always hashes to one shard — which `tests/sharding.rs`
//! asserts by checking that repeated frames of each flow keep their
//! allocated external port.
//!
//! Two caveats are inherent to NAT rather than to the engine, and both
//! are solved by deploying with the `emu_core::NatSteering` dispatch
//! policy instead of plain RSS:
//!
//! * **Return traffic** carries the *public* address and the *allocated
//!   external port*, so its 5-tuple differs from the outbound one and
//!   hashes independently — plain RSS strands replies on the wrong
//!   shard, where the reverse lookup misses and the frame is dropped.
//!   `NatSteering` keys inbound frames on the external port instead.
//! * **Ephemeral-port allocation** is per shard: under RSS two shards
//!   can hand out the same external port to different flows.
//!   `NatSteering` partitions the range — shard *k* allocates
//!   `FIRST_EPHEMERAL + k`, stepping by the shard count — restoring
//!   global uniqueness without cross-shard coordination, and making the
//!   port's residue identify the owning shard for inbound steering.
//!
//! The allocation contract the policy programs is three registers this
//! service declares: `next_port` (the allocation cursor), `port_base`
//! (where the cursor restarts after wrap-around), and `port_stride` (the
//! cursor's step). Their defaults — `FIRST_EPHEMERAL`, `FIRST_EPHEMERAL`,
//! 1 — reproduce the unsharded behaviour exactly. Both port numbers of
//! the contract, the external port and [`FIRST_EPHEMERAL`], are
//! `NatSteering`'s constants, so the policy and the service read one
//! definition.

use emu_core::csum::{csum_update_u32, csum_update_word};
use emu_core::ipblock::CamIf;
use emu_core::proto::Ipv4Wrapper;
use emu_core::{service_builder, NatSteering, Service};
use emu_rtl::{CamPair, CamTable, IpEnv, PairedCamModel};
use emu_types::proto::{ether_type, ip_proto, offset};
use emu_types::{Bits, Ipv4};
use kiwi_ir::dsl::*;

/// Translation table capacity (flows) — the paper-sized default; Cpu
/// engines may raise it via `EngineBuilder::table_entries`.
pub const NAT_ENTRIES: usize = 1024;

/// First ephemeral port handed out: `NatSteering`'s.
pub const FIRST_EPHEMERAL: u16 = NatSteering::FIRST_EPHEMERAL;

/// Upper bound on ports probed per allocation before the service gives
/// up and drops the frame (port-range exhaustion). The ephemeral space
/// above [`FIRST_EPHEMERAL`] is 15536 ports, so one full sweep always
/// fits; the cap exists to bound the cycle cost of a hopeless scan.
pub const PORT_SCAN_CAP: u16 = 16384;

const FRAME_CAP: usize = 1536;

/// Builds the paired forward/reverse translation tables of one NAT
/// shard: fwd `{int_ip, int_port, proto} → ext_port` and rev
/// `{ext_port, proto} → {int_ip, int_port, phys_port}` are two views
/// of the same mapping, so the pair evicts, expires, and touches them
/// atomically (`ttl` is the mapping's idle timeout in frames). The
/// engine's environment and the traffic checkers' shadow models share
/// this constructor so they age identically.
pub fn nat_cam_pair(entries: usize, ttl: Option<u64>) -> CamPair {
    fn fwd_to_rev(key: &Bits, value: &Bits) -> Bits {
        // rev key = {ext_port (the fwd value), proto (fwd key [7:0])}.
        Bits::from_u64((value.to_u64() << 8) | (key.to_u64() & 0xff), 24)
    }
    fn rev_to_fwd(key: &Bits, value: &Bits) -> Bits {
        // fwd key = {int_ip, int_port (rev value [55:8]), proto (rev
        // key [7:0])}; the rev value's low byte is the phys port.
        Bits::from_u64(((value.to_u64() >> 8) << 8) | (key.to_u64() & 0xff), 56)
    }
    CamPair::new(
        CamTable::new(entries, 56, 16).with_ttl(ttl),
        CamTable::new(entries, 24, 56).with_ttl(ttl),
        fwd_to_rev,
        rev_to_fwd,
    )
}

/// Builds the NAT service with the given public address.
pub fn nat(public_ip: Ipv4) -> Service {
    let (mut pb, dp) = service_builder("emu_nat", FRAME_CAP);
    let ip = Ipv4Wrapper::new(dp);
    // Forward table: {int_ip, int_port, proto} → ext_port.
    let fwd = CamIf::declare(&mut pb, "fwd", 56, 16);
    // Reverse table: {ext_port, proto} → {int_ip, int_port, phys_port}.
    let rev = CamIf::declare(&mut pb, "rev", 24, 56);

    // The ephemeral-port allocation contract (see the module docs):
    // `next_port` steps by `port_stride` and restarts at `port_base`,
    // so a dispatch policy can give each shard a disjoint residue class
    // of the range. Defaults reproduce the unsharded counter.
    let next_port = pb.reg_init(
        "next_port",
        16,
        emu_types::Bits::from_u64(u64::from(FIRST_EPHEMERAL), 16),
    );
    let port_base = pb.reg_init(
        "port_base",
        16,
        emu_types::Bits::from_u64(u64::from(FIRST_EPHEMERAL), 16),
    );
    let port_stride = pb.reg_init("port_stride", 16, emu_types::Bits::from_u64(1, 16));
    let alloc_ok = pb.reg("alloc_ok", 1);
    let scan_left = pb.reg("scan_left", 16);
    let alloc_fail = pb.reg("alloc_fail", 32);
    let proto = pb.reg("proto", 8);
    let l4_sport = pb.reg("l4_sport", 16);
    let l4_dport = pb.reg("l4_dport", 16);
    let ext_port = pb.reg("ext_port", 16);
    let hit = pb.reg("hit", 1);
    let mapping = pb.reg("mapping", 56);
    let csum_reg = pb.reg("csum_reg", 16);
    let ip_csum_reg = pb.reg("ip_csum_reg", 16);
    let old_word = pb.reg("old_word", 16);

    let pub_ip = lit(u64::from(public_ip.0), 32);

    // --- shared helpers ------------------------------------------------
    // TTL decrement + incremental IP checksum update for the TTL/proto
    // word at offset 22.
    let ttl_word_off = offset::IPV4_TTL; // 22
    let mut ttl_dec = vec![assign(old_word, dp.get16(ttl_word_off))];
    ttl_dec.push(dp.set8(ttl_word_off, sub(ip.ttl(), lit(1, 8))));
    ttl_dec.extend(dp.set16_via(
        ip_csum_reg,
        offset::IPV4_CSUM,
        csum_update_word(ip.header_checksum(), var(old_word), dp.get16(ttl_word_off)),
    ));

    // L4 checksum field offset depends on the protocol.
    let udp_csum_off = offset::L4 + 6;
    let tcp_csum_off = offset::L4 + 16;

    // Applies an incremental L4-checksum fix for an address change
    // (pseudo-header) and a port change. `csum_reg` threads the value.
    let fix_l4_csum = |ip_old: kiwi_ir::Expr,
                       ip_new: kiwi_ir::Expr,
                       port_old: kiwi_ir::Expr,
                       port_new: kiwi_ir::Expr|
     -> Vec<kiwi_ir::Stmt> {
        let fix_for = |off: usize, skip_zero: bool| -> Vec<kiwi_ir::Stmt> {
            let mut s = vec![assign(csum_reg, dp.get16(off))];
            let upd = vec![
                assign(
                    csum_reg,
                    csum_update_u32(var(csum_reg), ip_old.clone(), ip_new.clone()),
                ),
                assign(
                    csum_reg,
                    csum_update_word(var(csum_reg), port_old.clone(), port_new.clone()),
                ),
            ];
            if skip_zero {
                // UDP checksum 0 means "not computed" — leave it alone.
                s.push(if_then(ne(var(csum_reg), lit(0, 16)), upd));
            } else {
                s.extend(upd);
            }
            s.extend(dp.set16(off, var(csum_reg)));
            s
        };
        vec![if_else(
            eq(var(proto), lit(u64::from(ip_proto::UDP), 8)),
            fix_for(udp_csum_off, true),
            fix_for(tcp_csum_off, false),
        )]
    };

    // --- outbound path (internal → external) ----------------------------
    let fwd_key = concat_all([ip.src(), var(l4_sport), var(proto)]);
    let mut outbound = Vec::new();
    outbound.extend(fwd.lookup(fwd_key.clone()));
    outbound.push(assign(hit, fwd.matched()));
    outbound.push(assign(ext_port, fwd.value()));
    // A fwd hit means the flow already owns its port.
    outbound.push(assign(alloc_ok, var(hit)));
    // Allocate a mapping on first sight of the flow: walk the cursor
    // until it lands on a port with no live reverse mapping. The naive
    // cursor re-issued a live flow's port after one wrap of the range
    // (~15k allocations per shard residue); probing the reverse table
    // both skips live ports and — via the table's TTL — reclaims
    // expired ones before they are reused.
    let mut allocate = vec![assign(scan_left, lit(u64::from(PORT_SCAN_CAP), 16))];
    let mut probe = vec![assign(ext_port, var(next_port))];
    probe.push(assign(
        next_port,
        mux(
            // Wrap before the step would overflow 16 bits: restart at
            // `port_base` (with the default stride of 1 this fires only
            // at 0xffff, matching the unsharded counter).
            gt(var(next_port), sub(lit(0xffff, 16), var(port_stride))),
            var(port_base),
            add(var(next_port), var(port_stride)),
        ),
    ));
    probe.extend(rev.lookup(concat(var(ext_port), var(proto))));
    probe.push(assign(alloc_ok, lnot(rev.matched())));
    probe.push(assign(scan_left, sub(var(scan_left), lit(1, 16))));
    allocate.push(while_loop(
        band(lnot(var(alloc_ok)), ne(var(scan_left), lit(0, 16))),
        probe,
    ));
    let mut commit = fwd.write(fwd_key, var(ext_port));
    commit.extend(rev.write(
        concat(var(ext_port), var(proto)),
        concat_all([ip.src(), var(l4_sport), resize(dp.input_port(), 8)]),
    ));
    allocate.push(if_else(
        var(alloc_ok),
        commit,
        // Every probed port is live: the range is exhausted — count it
        // and drop the frame (no rewrite, no transmit).
        vec![assign(alloc_fail, add(var(alloc_fail), lit(1, 32)))],
    ));
    outbound.push(if_then(lnot(var(hit)), allocate));
    // Rewrite source: csum fixes first (they need the old values).
    let mut rewrite = Vec::new();
    rewrite.extend(fix_l4_csum(
        ip.src(),
        pub_ip.clone(),
        var(l4_sport),
        var(ext_port),
    ));
    rewrite.extend(dp.set16_via(
        ip_csum_reg,
        offset::IPV4_CSUM,
        csum_update_u32(ip.header_checksum(), ip.src(), pub_ip.clone()),
    ));
    rewrite.extend(ip.set_src(pub_ip.clone()));
    rewrite.extend(dp.set16(offset::L4, var(ext_port)));
    rewrite.extend(ttl_dec.clone());
    rewrite.push(dp.set_output_port(lit(NatSteering::EXTERNAL_PORT.into(), 8)));
    rewrite.extend(dp.transmit(dp.rx_len()));
    outbound.push(if_then(var(alloc_ok), rewrite));

    // --- inbound path (external → internal) ------------------------------
    let mut inbound = Vec::new();
    inbound.extend(rev.lookup(concat(var(l4_dport), var(proto))));
    inbound.push(assign(hit, rev.matched()));
    inbound.push(assign(mapping, rev.value()));
    let int_ip = slice(var(mapping), 55, 24);
    let int_port = slice(var(mapping), 23, 8);
    let phys_port = slice(var(mapping), 7, 0);
    let mut translate = Vec::new();
    translate.extend(fix_l4_csum(
        ip.dst(),
        int_ip.clone(),
        var(l4_dport),
        int_port.clone(),
    ));
    translate.extend(dp.set16_via(
        ip_csum_reg,
        offset::IPV4_CSUM,
        csum_update_u32(ip.header_checksum(), ip.dst(), int_ip.clone()),
    ));
    translate.extend(ip.set_dst(int_ip));
    translate.extend(dp.set16(offset::L4 + 2, int_port));
    translate.extend(ttl_dec.clone());
    translate.push(dp.set_output_port(resize(phys_port, 8)));
    translate.extend(dp.transmit(dp.rx_len()));
    // No mapping: implicit drop.
    inbound.push(if_then(var(hit), translate));

    // --- main loop ----------------------------------------------------------
    let translatable = band(
        band(dp.ethertype_is(ether_type::IPV4), lnot(ip.has_options())),
        bor(ip.protocol_is(ip_proto::TCP), ip.protocol_is(ip_proto::UDP)),
    );
    let mut handle = vec![
        assign(proto, ip.protocol()),
        assign(l4_sport, dp.get16(offset::L4)),
        assign(l4_dport, dp.get16(offset::L4 + 2)),
        if_else(
            eq(dp.input_port(), lit(NatSteering::EXTERNAL_PORT.into(), 8)),
            inbound,
            outbound,
        ),
    ];
    let mut body = vec![dp.rx_wait(), label("rx")];
    body.push(if_then(translatable, {
        handle.insert(0, label("translate"));
        handle
    }));
    body.extend(dp.done());

    pb.thread("main", vec![forever(body)]);
    let prog = pb.build().expect("nat program is well-formed");
    // The fwd/rev tables are one mapping viewed from two directions, so
    // they live in a CamPair: an eviction or expiry on either side
    // atomically removes its partner (no half-dead mappings), and the
    // engine's TableConfig scales/ages both together.
    Service::with_sized_env(prog, move |cfg| {
        let entries = cfg.entries.unwrap_or(NAT_ENTRIES);
        let mut env = IpEnv::new();
        env.attach(Box::new(PairedCamModel::new(
            &fwd,
            &rev,
            nat_cam_pair(entries, cfg.ttl_frames),
            false,
        )));
        env
    })
}

/// Builds a UDP test frame from `src/sport` to `dst/dport` on `in_port`.
pub fn udp_frame(src: Ipv4, sport: u16, dst: Ipv4, dport: u16, in_port: u8) -> emu_types::Frame {
    use emu_types::wire::{Envelope, Payload, L4};
    use emu_types::MacAddr;
    let env = Envelope {
        src_mac: MacAddr::from_u64(0x02_00_00_00_00_42),
        dst_mac: MacAddr::from_u64(0x02_00_00_00_00_41),
        src,
        dst,
        ident: 0x1122,
        in_port,
    };
    let l4 = L4::Udp {
        sport,
        dport,
        checksum: true,
    };
    env.frame(l4, Payload::Bytes(b"nat-test-payload"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use emu_core::{assert_targets_agree, EngineError, Target};
    use emu_types::bitutil;
    use emu_types::wire::l4_csum_ok;

    fn public() -> Ipv4 {
        "203.0.113.1".parse().unwrap()
    }

    fn internal() -> Ipv4 {
        "192.168.1.50".parse().unwrap()
    }

    fn remote() -> Ipv4 {
        "8.8.8.8".parse().unwrap()
    }

    #[test]
    fn outbound_rewrites_source() {
        let svc = nat(public());
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        let f = udp_frame(internal(), 3333, remote(), 53, 2);
        let out = inst.process(&f).unwrap();
        assert_eq!(out.tx.len(), 1);
        let b = out.tx[0].frame.bytes();
        // Source rewritten to the public address + ephemeral port.
        assert_eq!(&b[26..30], &public().octets());
        assert_eq!(bitutil::get16(b, 34), FIRST_EPHEMERAL);
        // Destination untouched; sent out of the external port 0.
        assert_eq!(&b[30..34], &remote().octets());
        assert_eq!(out.tx[0].ports, 1 << 0);
        // TTL decremented; checksums valid.
        assert_eq!(b[22], 63);
        assert!(emu_types::checksum::verify(&b[14..34]), "bad IP csum");
        assert_eq!(l4_csum_ok(&out.tx[0].frame), Some(true), "bad UDP csum");
    }

    #[test]
    fn inbound_translates_back() {
        let svc = nat(public());
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        // Open the pinhole outbound first.
        inst.process(&udp_frame(internal(), 3333, remote(), 53, 2))
            .unwrap();
        // Reply from the remote to the allocated external port.
        let reply = udp_frame(remote(), 53, public(), FIRST_EPHEMERAL, 0);
        let out = inst.process(&reply).unwrap();
        assert_eq!(out.tx.len(), 1);
        let b = out.tx[0].frame.bytes();
        assert_eq!(&b[30..34], &internal().octets());
        assert_eq!(bitutil::get16(b, 36), 3333);
        // Delivered to the internal physical port the flow came from.
        assert_eq!(out.tx[0].ports, 1 << 2);
        assert!(emu_types::checksum::verify(&b[14..34]));
        assert_eq!(l4_csum_ok(&out.tx[0].frame), Some(true));
    }

    #[test]
    fn unsolicited_inbound_dropped() {
        let svc = nat(public());
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        let stray = udp_frame(remote(), 53, public(), 55555, 0);
        assert!(inst.process(&stray).unwrap().tx.is_empty());
    }

    #[test]
    fn same_flow_reuses_mapping() {
        let svc = nat(public());
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        let f = udp_frame(internal(), 3333, remote(), 53, 2);
        let a = inst.process(&f).unwrap();
        let b = inst.process(&f).unwrap();
        assert_eq!(
            bitutil::get16(a.tx[0].frame.bytes(), 34),
            bitutil::get16(b.tx[0].frame.bytes(), 34),
            "one flow must keep one external port"
        );
        // A different flow gets a different port.
        let g = udp_frame(internal(), 4444, remote(), 53, 2);
        let c = inst.process(&g).unwrap();
        assert_ne!(
            bitutil::get16(a.tx[0].frame.bytes(), 34),
            bitutil::get16(c.tx[0].frame.bytes(), 34)
        );
    }

    #[test]
    fn tcp_flows_translated_with_valid_checksum() {
        let svc = nat(public());
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        let mut syn = crate::tcp_ping::syn_frame(4000, 80, 42);
        syn.in_port = 1;
        let out = inst.process(&syn).unwrap();
        assert_eq!(out.tx.len(), 1);
        let b = out.tx[0].frame.bytes();
        assert_eq!(&b[26..30], &public().octets());
        assert_eq!(
            l4_csum_ok(&out.tx[0].frame),
            Some(true),
            "bad TCP csum after NAT"
        );
    }

    #[test]
    fn non_ip_traffic_dropped() {
        let svc = nat(public());
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        let arp = emu_types::Frame::ethernet(
            emu_types::MacAddr::BROADCAST,
            emu_types::MacAddr::from_u64(5),
            ether_type::ARP,
            &[0; 46],
        );
        assert!(inst.process(&arp).unwrap().tx.is_empty());
    }

    #[test]
    fn targets_agree() {
        let frames = vec![
            udp_frame(internal(), 3333, remote(), 53, 2),
            udp_frame(remote(), 53, public(), FIRST_EPHEMERAL, 0),
            udp_frame(internal(), 4444, remote(), 123, 1),
        ];
        assert_targets_agree(&nat(public()), &frames).unwrap();
    }

    #[test]
    fn port_wrap_skips_live_mappings() {
        // Regression: the allocation cursor used to wrap to `port_base`
        // unconditionally and re-issue a port still owned by a live
        // flow. Simulate the wrap by resetting the cursor, then check
        // the next allocation probes past the live port.
        let svc = nat(public());
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        let a = inst
            .process(&udp_frame(internal(), 3333, remote(), 53, 2))
            .unwrap();
        assert_eq!(bitutil::get16(a.tx[0].frame.bytes(), 34), FIRST_EPHEMERAL);
        // The cursor has advanced; wrap it back onto the live port.
        inst.shard_mut(0)
            .write_reg("next_port", u64::from(FIRST_EPHEMERAL));
        let b = inst
            .process(&udp_frame(internal(), 4444, remote(), 53, 2))
            .unwrap();
        assert_eq!(b.tx.len(), 1, "a free port exists, so no drop");
        assert_eq!(
            bitutil::get16(b.tx[0].frame.bytes(), 34),
            FIRST_EPHEMERAL + 1,
            "the live port must be skipped, not re-issued"
        );
        // And the original flow still owns its mapping.
        let reply = udp_frame(remote(), 53, public(), FIRST_EPHEMERAL, 0);
        let out = inst.process(&reply).unwrap();
        assert_eq!(out.tx.len(), 1);
        assert_eq!(bitutil::get16(out.tx[0].frame.bytes(), 36), 3333);
    }

    #[test]
    fn expired_port_is_reclaimed_on_wrap() {
        // With a TTL, a wrapped cursor may reuse a port whose mapping
        // has gone idle: the probe lookup reclaims the expired pair.
        let svc = nat(public());
        let mut inst = svc.engine(Target::Cpu).ttl_frames(2).build().unwrap();
        let a = inst
            .process(&udp_frame(internal(), 3333, remote(), 53, 2))
            .unwrap();
        assert_eq!(bitutil::get16(a.tx[0].frame.bytes(), 34), FIRST_EPHEMERAL);
        // Age the mapping out: frames from another flow advance the
        // epoch while 3333 idles.
        for i in 0..4u16 {
            inst.process(&udp_frame(internal(), 5000 + i, remote(), 53, 2))
                .unwrap();
        }
        inst.shard_mut(0)
            .write_reg("next_port", u64::from(FIRST_EPHEMERAL));
        let b = inst
            .process(&udp_frame(internal(), 4444, remote(), 53, 2))
            .unwrap();
        assert_eq!(
            bitutil::get16(b.tx[0].frame.bytes(), 34),
            FIRST_EPHEMERAL,
            "an expired mapping's port is free for reuse"
        );
        // The expired flow's pinhole is gone on both sides.
        let stale = udp_frame(remote(), 53, public(), FIRST_EPHEMERAL, 0);
        let out = inst.process(&stale).unwrap();
        assert_eq!(out.tx.len(), 1, "the port now belongs to flow 4444");
        assert_eq!(bitutil::get16(out.tx[0].frame.bytes(), 36), 4444);
    }

    #[test]
    fn fill_past_capacity_keeps_pair_consistent_on_all_backends() {
        // Regression for the paired-CAM desync: overflowing the
        // translation tables must evict fwd/rev entries as a unit, so
        // every surviving mapping works in both directions and every
        // evicted mapping is dead in both.
        use emu_core::Backend;
        let entries = 4usize;
        let flows: Vec<u16> = (0..6).map(|i| 3000 + i * 11).collect();
        let run = |build: &dyn Fn(&Service) -> emu_core::Engine| {
            let svc = nat(public());
            let mut inst = build(&svc);
            let mut alloc = Vec::new();
            for &sport in &flows {
                let out = inst
                    .process(&udp_frame(internal(), sport, remote(), 53, 2))
                    .unwrap();
                assert_eq!(out.tx.len(), 1);
                alloc.push(bitutil::get16(out.tx[0].frame.bytes(), 34));
            }
            // Both tables sit exactly at capacity with equal eviction
            // counts (pair eviction charges both sides).
            let snap = inst.telemetry().unwrap();
            let cams = &snap.shards[0].cams;
            let fwd = cams.iter().find(|c| c.prefix == "fwd").unwrap();
            let rev = cams.iter().find(|c| c.prefix == "rev").unwrap();
            assert_eq!(fwd.occupancy, entries as u64);
            assert_eq!(rev.occupancy, entries as u64);
            // Each evicted mapping is charged on both sides: the side
            // that overflowed and its partner.
            assert_eq!(fwd.evictions, (flows.len() - entries) as u64);
            assert_eq!(rev.evictions, (flows.len() - entries) as u64);
            // Probe inbound: survivors translate back to exactly their
            // owner; evicted ports are dead.
            let mut survivors = Vec::new();
            for (i, &port) in alloc.iter().enumerate() {
                let out = inst
                    .process(&udp_frame(remote(), 53, public(), port, 0))
                    .unwrap();
                if out.tx.is_empty() {
                    continue;
                }
                let b = out.tx[0].frame.bytes();
                assert_eq!(&b[30..34], &internal().octets());
                assert_eq!(bitutil::get16(b, 36), flows[i], "wrong owner");
                survivors.push(i);
            }
            assert_eq!(survivors.len(), entries, "exactly capacity survive");
            // Each surviving flow still owns its port outbound (a fwd
            // hit — no mutation), closing the bidirectional check.
            for &i in &survivors {
                let out = inst
                    .process(&udp_frame(internal(), flows[i], remote(), 53, 2))
                    .unwrap();
                assert_eq!(bitutil::get16(out.tx[0].frame.bytes(), 34), alloc[i]);
            }
        };
        run(&|svc| {
            svc.engine(Target::Fpga)
                .table_entries(entries)
                .build()
                .unwrap()
        });
        run(&|svc| {
            svc.engine(Target::Cpu)
                .backend(Backend::Compiled)
                .table_entries(entries)
                .build()
                .unwrap()
        });
        run(&|svc| {
            svc.engine(Target::Cpu)
                .backend(Backend::TreeWalk)
                .table_entries(entries)
                .build()
                .unwrap()
        });
    }

    #[test]
    fn fpga_rejects_scaled_up_tables() {
        let svc = nat(public());
        let err = svc
            .engine(Target::Fpga)
            .table_entries(1_000_000)
            .build()
            .unwrap_err();
        assert!(format!("{err}").contains("BRAM"), "got: {err}");
        // The same size builds fine on Cpu.
        assert!(svc
            .engine(Target::Cpu)
            .table_entries(1_000_000)
            .build()
            .is_ok());
    }

    #[test]
    fn tables_of_no_or_unaddressable_size_are_build_errors() {
        let svc = nat(public());
        for target in [Target::Cpu, Target::Fpga] {
            for entries in [0, u32::MAX as usize + 1] {
                let err = svc
                    .engine(target)
                    .table_entries(entries)
                    .build()
                    .unwrap_err();
                assert!(
                    matches!(&err, EngineError::Build(m) if m.contains("table_entries")),
                    "{target:?}, {entries} entries: {err}"
                );
            }
        }
        // The largest addressable table costs nothing until it fills.
        assert!(svc
            .engine(Target::Cpu)
            .table_entries(u32::MAX as usize)
            .build()
            .is_ok());
    }
}
