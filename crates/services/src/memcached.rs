//! Memcached server (§4.3).
//!
//! The paper's headline application: "Memcached is sensitive to latency,
//! and even an extra 20 µs are enough to lose 25 % throughput." Their
//! deployed configuration — the one Table 4 measures with memaslap at a
//! 90 % GET / 10 % SET mix — runs the ASCII protocol over UDP. This
//! implementation does the same:
//!
//! * requests carry the 8-byte memcached-UDP frame header (request id,
//!   sequence, datagram count, reserved), which is echoed in replies;
//! * `get`, `set` and `delete` commands, keys up to 8 bytes, fixed
//!   8-byte values (the paper's first implementation used 6-byte keys and
//!   8-byte values; §5.4 discusses relaxing this with on-board DRAM);
//! * the store is a CAM keyed on `{key_len, key}`.
//!
//! Table 4: 1.21 µs / 1.932 Mq/s for Emu vs 24.29 µs / 0.876 Mq/s for a
//! 4-thread Linux memcached.

use emu_core::csum::csum_update_word;
use emu_core::ipblock::{CamDeleteIf, CamIf};
use emu_core::proto::{Ipv4Wrapper, UdpWrapper};
use emu_core::{service_builder, Service};
use emu_rtl::{CamModel, IpEnv};
use emu_types::proto::{ether_type, ip_proto, port};
use kiwi_ir::dsl::*;
use kiwi_ir::{Expr, Stmt, VarId};

pub use emu_types::wire::reply_text;

/// Maximum key length in bytes.
pub(crate) const MAX_KEY: usize = 8;

/// Fixed value size in bytes.
pub(crate) const VALUE_BYTES: usize = 8;

/// Store capacity in entries.
pub const STORE_ENTRIES: usize = 1024;

/// CAM key: length byte ++ key bytes (prevents `"ab"`/`"\0ab"` aliasing).
pub const CAM_KEY_BITS: u16 = 8 + (MAX_KEY as u16) * 8;

/// Offset of the memcached UDP frame header.
pub const MC_HDR: usize = UdpWrapper::PAYLOAD;
/// Offset of the ASCII command.
pub(crate) const CMD: usize = MC_HDR + 8;

/// Frame buffer size: longer frames are rejected before the program
/// sees them.
pub(crate) const FRAME_CAP: usize = 512;

/// Emits statements writing an ASCII literal at a constant offset.
fn put_ascii(dp: &emu_core::Dataplane, off: usize, s: &[u8]) -> Vec<Stmt> {
    s.iter()
        .enumerate()
        .map(|(i, &b)| dp.set8(off + i, lit(u64::from(b), 8)))
        .collect()
}

/// Emits statements writing an ASCII literal at `base + k` dynamic.
fn put_ascii_dyn(dp: &emu_core::Dataplane, base: VarId, k: usize, s: &[u8]) -> Vec<Stmt> {
    s.iter()
        .enumerate()
        .map(|(i, &b)| {
            dp.set8_dyn(
                add(var(base), lit((k + i) as u64, 16)),
                lit(u64::from(b), 8),
            )
        })
        .collect()
}

/// Builds the Memcached service.
pub fn memcached() -> Service {
    let (mut pb, dp) = service_builder("emu_memcached", FRAME_CAP);
    let ip = Ipv4Wrapper::new(dp);
    let udp = UdpWrapper::new(dp);
    let mut cam = CamIf::declare(&mut pb, "store", CAM_KEY_BITS, (VALUE_BYTES as u16) * 8);
    let del = CamDeleteIf::declare(&mut pb, &mut cam);

    let scratch48 = pb.reg("scratch48", 48);
    let scratch32 = pb.reg("scratch32", 32);
    let scratch16 = pb.reg("scratch16", 16);
    let key = pb.reg("key", (MAX_KEY as u16) * 8);
    let klen = pb.reg("klen", 8);
    let idx = pb.reg("idx", 16);
    let b = pb.reg("b", 8);
    let value = pb.reg("value", (VALUE_BYTES as u16) * 8);
    let hit = pb.reg("hit", 1);
    let reply_len = pb.reg("reply_len", 16);
    let bad = pb.reg("bad", 1);
    let old_total = pb.reg("old_total", 16);
    let csum_new = pb.reg("csum_new", 16);
    // Service statistics, also the §5.5 debugging targets.
    let n_get = pb.reg("n_get", 32);
    let n_set = pb.reg("n_set", 32);
    let n_hit = pb.reg("n_hit", 32);

    let cam_key = concat(var(klen), var(key));

    // --- key parser: from `idx` until space/CR, one byte per cycle ----
    let parse_key = vec![
        assign(key, lit(0, (MAX_KEY as u16) * 8)),
        assign(klen, lit(0, 8)),
        assign(bad, fls()),
        while_loop(
            tru(),
            vec![
                assign(b, dp.byte_dyn(var(idx))),
                if_then(
                    bor(
                        eq(var(b), lit(b' ' as u64, 8)),
                        eq(var(b), lit(b'\r' as u64, 8)),
                    ),
                    vec![break_loop()],
                ),
                if_then(
                    ge(var(klen), lit(MAX_KEY as u64, 8)),
                    vec![assign(bad, tru()), break_loop()],
                ),
                assign(
                    key,
                    bor(
                        shl(var(key), lit(8, 8)),
                        resize(var(b), (MAX_KEY as u16) * 8),
                    ),
                ),
                assign(klen, add(var(klen), lit(1, 8))),
                assign(idx, add(var(idx), lit(1, 16))),
                pause(),
            ],
        ),
        if_then(eq(var(klen), lit(0, 8)), vec![assign(bad, tru())]),
    ];

    // --- reply plumbing -------------------------------------------------
    // Swap addresses/ports; fix lengths + IP checksum; transmit. The
    // 8-byte memcached frame header at MC_HDR stays in place (echoed).
    let finish_reply = |reply_len_expr: Expr| -> Vec<Stmt> {
        let mut s = Vec::new();
        s.push(assign(reply_len, reply_len_expr));
        s.extend(dp.swap_macs(scratch48));
        s.extend(ip.swap_addrs(scratch32));
        s.extend(udp.swap_ports(scratch16));
        s.extend(udp.clear_checksum());
        let frame_len = add(lit((CMD) as u64, 16), var(reply_len));
        let new_total = sub(frame_len.clone(), lit(14, 16));
        s.push(assign(old_total, ip.total_len()));
        s.extend(dp.set16(16, new_total.clone()));
        s.extend(dp.set16_via(
            csum_new,
            emu_types::proto::offset::IPV4_CSUM,
            csum_update_word(ip.header_checksum(), var(old_total), new_total),
        ));
        s.extend(udp.set_len(sub(frame_len.clone(), lit(34, 16))));
        s.push(dp.set_output_port(dp.input_port()));
        s.extend(dp.transmit(frame_len));
        s
    };

    // --- GET --------------------------------------------------------------
    // "get <key>\r\n" → hit: "VALUE <key> 0 8\r\n<8B>\r\nEND\r\n",
    //                   miss: "END\r\n".
    let mut get_body = vec![
        assign(n_get, add(var(n_get), lit(1, 32))),
        assign(idx, lit((CMD + 4) as u64, 16)),
    ];
    get_body.extend(parse_key.clone());
    let mut get_ok = cam.lookup(cam_key.clone());
    get_ok.push(assign(hit, cam.matched()));
    get_ok.push(assign(value, cam.value()));

    // Hit path: write the VALUE response at CMD.
    let mut hit_path = vec![assign(n_hit, add(var(n_hit), lit(1, 32)))];
    hit_path.extend(put_ascii(&dp, CMD, b"VALUE "));
    // Key bytes: key[8*(klen-1-i) .. ] for i in 0..klen, one per cycle.
    hit_path.push(assign(idx, lit(0, 16))); // reuse idx as key write counter
    hit_path.push(while_loop(
        lt(var(idx), resize(var(klen), 16)),
        vec![
            dp.set8_dyn(
                add(lit((CMD + 6) as u64, 16), var(idx)),
                resize(
                    shr(
                        var(key),
                        mul(
                            sub(resize(var(klen), 16), add(var(idx), lit(1, 16))),
                            lit(8, 16),
                        ),
                    ),
                    8,
                ),
            ),
            assign(idx, add(var(idx), lit(1, 16))),
            pause(),
        ],
    ));
    // " 0 8\r\n" then value then "\r\nEND\r\n"; offsets depend on klen.
    let vstart = pb.reg("vstart", 16); // CMD + 6 + klen + 6
    hit_path.push(assign(
        vstart,
        add(
            lit((CMD + 6) as u64, 16),
            add(resize(var(klen), 16), lit(6, 16)),
        ),
    ));
    let tail = pb.reg("tail", 16);
    hit_path.extend(put_ascii_dyn(&dp, vstart, 0, b"")); // anchor (no-op)
                                                         // " 0 8\r\n" sits right after the key:
    {
        let mid_base = pb.reg("mid_base", 16);
        hit_path.push(assign(
            mid_base,
            add(lit((CMD + 6) as u64, 16), resize(var(klen), 16)),
        ));
        hit_path.extend(put_ascii_dyn(&dp, mid_base, 0, b" 0 8\r\n"));
    }
    for i in 0..VALUE_BYTES {
        let hi = ((VALUE_BYTES - 1 - i) * 8 + 7) as u16;
        hit_path.push(dp.set8_dyn(
            add(var(vstart), lit(i as u64, 16)),
            slice(var(value), hi, hi - 7),
        ));
    }
    hit_path.push(assign(tail, add(var(vstart), lit(VALUE_BYTES as u64, 16))));
    hit_path.extend(put_ascii_dyn(&dp, tail, 0, b"\r\nEND\r\n"));
    // reply_len = (tail + 7) - CMD + 8 for the frame header... computed
    // from CMD: header(8 already before CMD) — reply_len counts bytes
    // from CMD: 6 + klen + 6 + 8 + 7 = klen + 27.
    hit_path.extend(finish_reply(add(resize(var(klen), 16), lit(27, 16))));

    let mut miss_path = put_ascii(&dp, CMD, b"END\r\n");
    miss_path.extend(finish_reply(lit(5, 16)));

    get_ok.push(if_else(var(hit), hit_path, miss_path));
    get_body.push(if_then(lnot(var(bad)), get_ok));

    // --- SET ---------------------------------------------------------------
    // "set <key> <flags> <exptime> <bytes>\r\n<8B>\r\n" → "STORED\r\n".
    let mut set_body = vec![
        assign(n_set, add(var(n_set), lit(1, 32))),
        assign(idx, lit((CMD + 4) as u64, 16)),
    ];
    set_body.extend(parse_key.clone());
    // Skip to the end of the command line ('\n'), then read 8 data bytes.
    let mut skip_line = vec![while_loop(
        band(
            ne(dp.byte_dyn(var(idx)), lit(b'\n' as u64, 8)),
            lt(var(idx), lit((FRAME_CAP - VALUE_BYTES - 1) as u64, 16)),
        ),
        vec![assign(idx, add(var(idx), lit(1, 16))), pause()],
    )];
    skip_line.push(assign(idx, add(var(idx), lit(1, 16)))); // past '\n'
    let mut read_value = vec![assign(value, lit(0, (VALUE_BYTES as u16) * 8))];
    for _ in 0..VALUE_BYTES {
        read_value.push(assign(
            value,
            bor(
                shl(var(value), lit(8, 8)),
                resize(dp.byte_dyn(var(idx)), (VALUE_BYTES as u16) * 8),
            ),
        ));
        read_value.push(assign(idx, add(var(idx), lit(1, 16))));
    }
    let mut store = cam.write(cam_key.clone(), var(value));
    let mut stored_reply = put_ascii(&dp, CMD, b"STORED\r\n");
    stored_reply.extend(finish_reply(lit(8, 16)));
    store.extend(stored_reply);

    let mut set_ok = skip_line;
    set_ok.extend(read_value);
    set_ok.extend(store);
    set_body.push(if_then(lnot(var(bad)), set_ok));

    // --- DELETE -------------------------------------------------------------
    // "delete <key>\r\n" → "DELETED\r\n" | "NOT_FOUND\r\n".
    let mut del_body = vec![assign(idx, lit((CMD + 7) as u64, 16))];
    del_body.extend(parse_key.clone());
    let mut del_ok = cam.lookup(cam_key.clone());
    del_ok.push(assign(hit, cam.matched()));
    let mut deleted = del.delete(cam_key.clone());
    deleted.extend(put_ascii(&dp, CMD, b"DELETED\r\n"));
    deleted.extend(finish_reply(lit(9, 16)));
    let mut notfound = put_ascii(&dp, CMD, b"NOT_FOUND\r\n");
    notfound.extend(finish_reply(lit(11, 16)));
    del_ok.push(if_else(var(hit), deleted, notfound));
    del_body.push(if_then(lnot(var(bad)), del_ok));

    // --- dispatch -------------------------------------------------------------
    let is_mc = band(
        band(
            dp.ethertype_is(ether_type::IPV4),
            ip.protocol_is(ip_proto::UDP),
        ),
        band(
            eq(udp.dst_port(), lit(u64::from(port::MEMCACHED), 16)),
            lnot(ip.has_options()),
        ),
    );
    let cmd0 = dp.byte(CMD);
    let dispatch = if_else(
        eq(cmd0.clone(), lit(b'g' as u64, 8)),
        get_body,
        vec![if_else(
            eq(cmd0.clone(), lit(b's' as u64, 8)),
            set_body,
            vec![if_then(eq(cmd0, lit(b'd' as u64, 8)), del_body)],
        )],
    );

    let mut body = vec![dp.rx_wait(), label("rx"), ext_point(0)];
    body.push(if_then(is_mc, vec![dispatch]));
    body.extend(dp.done());

    pb.thread("main", vec![forever(body)]);
    let prog = pb.build().expect("memcached program is well-formed");
    // Only the capacity comes from the engine's TableConfig. The TTL is
    // deliberately ignored: the store is a key-value cache with
    // explicit `delete` semantics, not a flow table — silently expiring
    // a stored key would violate the memcached contract the checker
    // models (a GET after SET must hit until DELETE or eviction).
    Service::with_sized_env(prog, move |cfg| {
        let entries = cfg.entries.unwrap_or(STORE_ENTRIES);
        let mut env = IpEnv::new();
        env.attach(Box::new(CamModel::new(&cam, entries, false)));
        env
    })
}

/// Builds a memcached-over-UDP request frame with ASCII `body`.
pub fn request_frame(body: &str, req_id: u16) -> emu_types::Frame {
    use emu_types::wire::{Envelope, Payload, L4};
    use emu_types::{Ipv4, MacAddr};
    let env = Envelope {
        src_mac: MacAddr::from_u64(0x02_00_00_00_00_32),
        dst_mac: MacAddr::from_u64(0x02_00_00_00_00_31),
        src: Ipv4::new(10, 0, 0, 9),
        dst: Ipv4::new(10, 0, 0, 10),
        ident: 0x0001,
        in_port: 3,
    };
    let l4 = L4::Udp {
        sport: 31337,
        dport: port::MEMCACHED,
        checksum: false,
    };
    let text: &[&[u8]] = &[body.as_bytes()];
    env.frame(l4, Payload::Mc { id: req_id, text })
}

#[cfg(test)]
mod tests {
    use super::*;
    use emu_core::{assert_targets_agree, Target};

    #[test]
    fn set_then_get_round_trip() {
        let svc = memcached();
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        let set = request_frame("set foo 0 0 8\r\nAAAABBBB\r\n", 1);
        let out = inst.process(&set).unwrap();
        assert_eq!(reply_text(&out.tx[0].frame), b"STORED\r\n");

        let get = request_frame("get foo\r\n", 2);
        let out = inst.process(&get).unwrap();
        assert_eq!(
            reply_text(&out.tx[0].frame),
            b"VALUE foo 0 8\r\nAAAABBBB\r\nEND\r\n"
        );
        // The reply echoes the request id of the UDP frame header.
        assert_eq!(
            emu_types::bitutil::get16(out.tx[0].frame.bytes(), MC_HDR),
            2
        );
        // IP header checksum still valid after length rewrite.
        assert!(emu_types::checksum::verify(
            &out.tx[0].frame.bytes()[14..34]
        ));
    }

    #[test]
    fn get_miss_returns_end() {
        let svc = memcached();
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        let out = inst.process(&request_frame("get nothere\r\n", 1)).unwrap();
        // Key "nothere" is 7 bytes — fits; miss → END.
        assert_eq!(reply_text(&out.tx[0].frame), b"END\r\n");
    }

    #[test]
    fn delete_semantics() {
        let svc = memcached();
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        inst.process(&request_frame("set k1 0 0 8\r\n12345678\r\n", 1))
            .unwrap();
        let out = inst.process(&request_frame("delete k1\r\n", 2)).unwrap();
        assert_eq!(reply_text(&out.tx[0].frame), b"DELETED\r\n");
        let out = inst.process(&request_frame("delete k1\r\n", 3)).unwrap();
        assert_eq!(reply_text(&out.tx[0].frame), b"NOT_FOUND\r\n");
        let out = inst.process(&request_frame("get k1\r\n", 4)).unwrap();
        assert_eq!(reply_text(&out.tx[0].frame), b"END\r\n");
    }

    #[test]
    fn overwrite_replaces_value() {
        let svc = memcached();
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        inst.process(&request_frame("set k 0 0 8\r\nOLDVALUE\r\n", 1))
            .unwrap();
        inst.process(&request_frame("set k 0 0 8\r\nNEWVALUE\r\n", 2))
            .unwrap();
        let out = inst.process(&request_frame("get k\r\n", 3)).unwrap();
        assert_eq!(
            reply_text(&out.tx[0].frame),
            b"VALUE k 0 8\r\nNEWVALUE\r\nEND\r\n"
        );
    }

    #[test]
    fn oversized_key_rejected_silently() {
        let svc = memcached();
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        let out = inst
            .process(&request_frame("get waytoolongkey\r\n", 1))
            .unwrap();
        assert!(out.tx.is_empty(), "oversized key must be dropped");
    }

    #[test]
    fn wrong_port_ignored() {
        let svc = memcached();
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        let mut f = request_frame("get foo\r\n", 1);
        emu_types::bitutil::set16(f.bytes_mut(), 36, 11212);
        assert!(inst.process(&f).unwrap().tx.is_empty());
    }

    #[test]
    fn stats_registers_track_ops() {
        let svc = memcached();
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        inst.process(&request_frame("set a 0 0 8\r\nxxxxxxxx\r\n", 1))
            .unwrap();
        inst.process(&request_frame("get a\r\n", 2)).unwrap();
        inst.process(&request_frame("get b\r\n", 3)).unwrap();
        assert_eq!(inst.read_reg("n_set").unwrap().to_u64(), 1);
        assert_eq!(inst.read_reg("n_get").unwrap().to_u64(), 2);
        assert_eq!(inst.read_reg("n_hit").unwrap().to_u64(), 1);
    }

    #[test]
    fn targets_agree() {
        let frames = vec![
            request_frame("set foo 0 0 8\r\nAAAABBBB\r\n", 1),
            request_frame("get foo\r\n", 2),
            request_frame("get missing\r\n", 3),
            request_frame("delete foo\r\n", 4),
            request_frame("get foo\r\n", 5),
        ];
        assert_targets_agree(&memcached(), &frames).unwrap();
    }

    #[test]
    fn cycle_count_band() {
        // Table 4 implies ~103 cycles per query at 1.932 Mq/s.
        let svc = memcached();
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        inst.process(&request_frame("set mykey 0 0 8\r\nVVVVVVVV\r\n", 1))
            .unwrap();
        let out = inst.process(&request_frame("get mykey\r\n", 2)).unwrap();
        assert!(
            (25..=160).contains(&out.cycles),
            "memcached GET took {} cycles",
            out.cycles
        );
    }
}
