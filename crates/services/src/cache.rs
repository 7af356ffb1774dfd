//! In-dataplane look-aside LRU cache (§4.4).
//!
//! "SwitchKV uses SDN-enabled switches to dynamically route read requests
//! to a cache if content is available. This idea can be extended to
//! directly implement a cache in the data plane, reducing load on storage
//! servers. Implementing a cache in a DSL such as P4, however, would be
//! difficult, because the eviction logic must be managed by the control
//! plane. In contrast, with Emu, one can easily implement a look-aside,
//! least-recently-used (LRU) cache in a few lines" — Figure 9.
//!
//! The cache fronts a memcached storage server living on
//! `SERVER_PORT`: GET hits are answered from the LRU directly; misses
//! and SETs are forwarded to the server (write-through populates the
//! cache). Eviction is entirely in the dataplane, courtesy of the
//! NaughtyQ recency queue.

use emu_core::csum::csum_update_word;
use emu_core::ipblock::LruIf;
use emu_core::proto::{Ipv4Wrapper, UdpWrapper};
use emu_core::{service_builder, Service};
use emu_rtl::{CamModel, IpEnv, NaughtyQModel};
use emu_types::proto::{ether_type, ip_proto, port};
use kiwi_ir::dsl::*;

/// Physical port of the backing storage server.
pub(crate) const SERVER_PORT: u8 = 0;

/// Cache capacity in entries.
pub(crate) const CACHE_SLOTS: usize = 64;

/// Maximum key bytes (same wire format as the memcached service).
pub(crate) const MAX_KEY: usize = 8;

const CAM_KEY_BITS: u16 = 8 + (MAX_KEY as u16) * 8;
/// Slot store entry: key tag ++ 64-bit value.
const TAGGED_BITS: u16 = CAM_KEY_BITS + 64;
const MC_HDR: usize = UdpWrapper::PAYLOAD;
const CMD: usize = MC_HDR + 8;
const FRAME_CAP: usize = 512;

/// Builds the look-aside cache service.
pub fn lru_cache() -> Service {
    let (mut pb, dp) = service_builder("emu_lru_cache", FRAME_CAP);
    let ip = Ipv4Wrapper::new(dp);
    let udp = UdpWrapper::new(dp);
    // Slots store {key_tag, value}: the tag rejects stale CAM mappings
    // left behind when NaughtyQ reuses a slot (the Figure 9 sketch omits
    // this; a deployable cache cannot).
    let lru = LruIf::declare(&mut pb, "lru", CAM_KEY_BITS, TAGGED_BITS);

    let scratch48 = pb.reg("scratch48", 48);
    let scratch32 = pb.reg("scratch32", 32);
    let scratch16 = pb.reg("scratch16", 16);
    let key = pb.reg("key", (MAX_KEY as u16) * 8);
    let klen = pb.reg("klen", 8);
    let idx = pb.reg("idx", 16);
    let b = pb.reg("b", 8);
    let bad = pb.reg("bad", 1);
    let matched = pb.reg("matched", 1);
    let result = pb.reg("result", TAGGED_BITS);
    let idx_scratch = pb.reg("idx_scratch", 16);
    let value = pb.reg("value", 64);
    let old_total = pb.reg("old_total", 16);
    let csum_new = pb.reg("csum_new", 16);
    let reply_len = pb.reg("reply_len", 16);
    // Cache statistics.
    let n_hits = pb.reg("n_hits", 32);
    let n_misses = pb.reg("n_misses", 32);

    let cam_key = concat(var(klen), var(key));

    let parse_key = |start: usize| -> Vec<kiwi_ir::Stmt> {
        vec![
            assign(key, lit(0, (MAX_KEY as u16) * 8)),
            assign(klen, lit(0, 8)),
            assign(bad, fls()),
            assign(idx, lit(start as u64, 16)),
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
        ]
    };

    // Hit reply: VALUE <key> 0 8\r\n<value>\r\nEND\r\n, mirroring the
    // memcached service's response shape.
    let mut hit_reply = vec![assign(n_hits, add(var(n_hits), lit(1, 32)))];
    for (i, byte) in b"VALUE ".iter().enumerate() {
        hit_reply.push(dp.set8(CMD + i, lit(u64::from(*byte), 8)));
    }
    hit_reply.push(assign(idx, lit(0, 16)));
    hit_reply.push(while_loop(
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
    let mid = pb.reg("mid", 16);
    hit_reply.push(assign(
        mid,
        add(lit((CMD + 6) as u64, 16), resize(var(klen), 16)),
    ));
    for (i, byte) in b" 0 8\r\n".iter().enumerate() {
        hit_reply.push(dp.set8_dyn(add(var(mid), lit(i as u64, 16)), lit(u64::from(*byte), 8)));
    }
    let vstart = pb.reg("vstart", 16);
    hit_reply.push(assign(vstart, add(var(mid), lit(6, 16))));
    for i in 0..8usize {
        let hi = ((7 - i) * 8 + 7) as u16;
        hit_reply.push(dp.set8_dyn(
            add(var(vstart), lit(i as u64, 16)),
            slice(var(result), hi, hi - 7),
        ));
    }
    let tail = pb.reg("tail", 16);
    hit_reply.push(assign(tail, add(var(vstart), lit(8, 16))));
    for (i, byte) in b"\r\nEND\r\n".iter().enumerate() {
        hit_reply.push(dp.set8_dyn(add(var(tail), lit(i as u64, 16)), lit(u64::from(*byte), 8)));
    }
    // Reply plumbing.
    hit_reply.push(assign(reply_len, add(resize(var(klen), 16), lit(27, 16))));
    hit_reply.extend(dp.swap_macs(scratch48));
    hit_reply.extend(ip.swap_addrs(scratch32));
    hit_reply.extend(udp.swap_ports(scratch16));
    hit_reply.extend(udp.clear_checksum());
    let frame_len = add(lit(CMD as u64, 16), var(reply_len));
    let new_total = sub(frame_len.clone(), lit(14, 16));
    hit_reply.push(assign(old_total, ip.total_len()));
    hit_reply.extend(dp.set16(16, new_total.clone()));
    hit_reply.extend(dp.set16_via(
        csum_new,
        emu_types::proto::offset::IPV4_CSUM,
        csum_update_word(ip.header_checksum(), var(old_total), new_total),
    ));
    hit_reply.extend(udp.set_len(sub(frame_len.clone(), lit(34, 16))));
    hit_reply.push(dp.set_output_port(dp.input_port()));
    hit_reply.extend(dp.transmit(frame_len));

    // Miss: count and forward the original request to the server.
    let mut miss_fwd = vec![assign(n_misses, add(var(n_misses), lit(1, 32)))];
    miss_fwd.push(dp.set_output_port(lit(u64::from(SERVER_PORT), 8)));
    miss_fwd.extend(dp.transmit(dp.rx_len()));

    // GET: probe the LRU.
    let mut get_body = parse_key(CMD + 4);
    let mut probe = lru.lookup(cam_key.clone(), matched, result, idx_scratch);
    // Tag check: a slot reused for another key must read as a miss.
    probe.push(assign(
        matched,
        band(
            var(matched),
            eq(slice(var(result), TAGGED_BITS - 1, 64), cam_key.clone()),
        ),
    ));
    probe.push(if_else(var(matched), hit_reply, miss_fwd.clone()));
    get_body.push(if_else(var(bad), miss_fwd.clone(), probe));

    // SET: write-through — populate the LRU and forward to the server.
    let mut set_body = parse_key(CMD + 4);
    // Locate the 8-byte data block after the command line.
    let mut find_data = vec![while_loop(
        band(
            ne(dp.byte_dyn(var(idx)), lit(b'\n' as u64, 8)),
            lt(var(idx), lit((FRAME_CAP - 9) as u64, 16)),
        ),
        vec![assign(idx, add(var(idx), lit(1, 16))), pause()],
    )];
    find_data.push(assign(idx, add(var(idx), lit(1, 16))));
    find_data.push(assign(value, lit(0, 64)));
    for _ in 0..8 {
        find_data.push(assign(
            value,
            bor(
                shl(var(value), lit(8, 8)),
                resize(dp.byte_dyn(var(idx)), 64),
            ),
        ));
        find_data.push(assign(idx, add(var(idx), lit(1, 16))));
    }
    find_data.extend(lru.cache(
        cam_key.clone(),
        concat(cam_key.clone(), var(value)),
        idx_scratch,
    ));
    find_data.push(dp.set_output_port(lit(u64::from(SERVER_PORT), 8)));
    find_data.extend(dp.transmit(dp.rx_len()));
    set_body.push(if_else(var(bad), miss_fwd.clone(), find_data));

    // Server replies (arriving on SERVER_PORT) are flooded back toward
    // clients unchanged — this prototype keeps no per-request client
    // state, like the paper's look-aside sketch.
    let mut from_server = vec![dp.broadcast()];
    from_server.extend(dp.transmit(dp.rx_len()));

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
    let client_dispatch = if_else(
        eq(cmd0.clone(), lit(b'g' as u64, 8)),
        get_body,
        vec![if_else(eq(cmd0, lit(b's' as u64, 8)), set_body, miss_fwd)],
    );

    let mut body = vec![dp.rx_wait(), label("rx")];
    body.push(if_else(
        eq(dp.input_port(), lit(u64::from(SERVER_PORT), 8)),
        from_server,
        vec![if_then(is_mc, vec![client_dispatch])],
    ));
    body.extend(dp.done());

    pb.thread("main", vec![forever(body)]);
    let prog = pb.build().expect("cache program is well-formed");
    Service::with_sized_env(prog, move |_| {
        let mut env = IpEnv::new();
        env.attach(Box::new(CamModel::new(&lru.cam, 2 * CACHE_SLOTS, false)));
        env.attach(Box::new(NaughtyQModel::new(&lru.q, CACHE_SLOTS)));
        env
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memcached::{reply_text, request_frame};
    use emu_core::Target;

    fn client_frame(body: &str, id: u16) -> emu_types::Frame {
        let mut f = request_frame(body, id);
        f.in_port = 2; // a client port
        f
    }

    #[test]
    fn miss_forwards_to_server() {
        let svc = lru_cache();
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        let out = inst.process(&client_frame("get foo\r\n", 1)).unwrap();
        assert_eq!(out.tx.len(), 1);
        assert_eq!(out.tx[0].ports, 1 << SERVER_PORT);
        // Forwarded unchanged.
        assert_eq!(
            out.tx[0].frame.bytes(),
            client_frame("get foo\r\n", 1).bytes()
        );
        assert_eq!(inst.read_reg("n_misses").unwrap().to_u64(), 1);
    }

    #[test]
    fn set_populates_then_get_hits_locally() {
        let svc = lru_cache();
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        // SET goes through to the server AND populates the cache.
        let out = inst
            .process(&client_frame("set foo 0 0 8\r\nAAAABBBB\r\n", 1))
            .unwrap();
        assert_eq!(out.tx[0].ports, 1 << SERVER_PORT);
        // GET is now served from the dataplane, back to the client port.
        let out = inst.process(&client_frame("get foo\r\n", 2)).unwrap();
        assert_eq!(out.tx[0].ports, 1 << 2);
        assert_eq!(
            reply_text(&out.tx[0].frame),
            b"VALUE foo 0 8\r\nAAAABBBB\r\nEND\r\n"
        );
        assert_eq!(inst.read_reg("n_hits").unwrap().to_u64(), 1);
    }

    #[test]
    fn lru_evicts_coldest_entry() {
        let svc = lru_cache();
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        // Fill the cache beyond capacity with distinct keys.
        for i in 0..(CACHE_SLOTS + 1) {
            let k = format!("k{i:03}");
            inst.process(&client_frame(
                &format!("set {k} 0 0 8\r\nVVVV{i:04}\r\n"),
                i as u16,
            ))
            .unwrap();
        }
        // k000 was least recently used → must now miss.
        let out = inst.process(&client_frame("get k000\r\n", 999)).unwrap();
        assert_eq!(out.tx[0].ports, 1 << SERVER_PORT, "evicted key must miss");
        // The most recent key still hits.
        let last = format!("get k{:03}\r\n", CACHE_SLOTS);
        let out = inst.process(&client_frame(&last, 1000)).unwrap();
        assert_eq!(out.tx[0].ports, 1 << 2, "hot key must hit");
    }

    #[test]
    fn touch_on_get_protects_entry() {
        let svc = lru_cache();
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        for i in 0..CACHE_SLOTS {
            let k = format!("k{i:03}");
            inst.process(&client_frame(
                &format!("set {k} 0 0 8\r\nVVVV{i:04}\r\n"),
                i as u16,
            ))
            .unwrap();
        }
        // Touch k000 so k001 becomes the LRU victim.
        inst.process(&client_frame("get k000\r\n", 500)).unwrap();
        inst.process(&client_frame("set newkey 0 0 8\r\nNNNNNNNN\r\n", 501))
            .unwrap();
        let out = inst.process(&client_frame("get k000\r\n", 502)).unwrap();
        assert_eq!(out.tx[0].ports, 1 << 2, "touched key must survive eviction");
        let out = inst.process(&client_frame("get k001\r\n", 503)).unwrap();
        assert_eq!(out.tx[0].ports, 1 << SERVER_PORT, "victim must be k001");
    }

    #[test]
    fn server_replies_flooded_to_clients() {
        let svc = lru_cache();
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        let mut f = request_frame("VALUE x 0 8\r\nZZZZZZZZ\r\nEND\r\n", 9);
        f.in_port = SERVER_PORT;
        let out = inst.process(&f).unwrap();
        assert_eq!(out.tx[0].ports, 0b1111 & !(1 << SERVER_PORT));
    }
}
