//! TCP ping responder (§4.2).
//!
//! "TCP ping involves a simple reachability test by using the first two
//! steps of the three-way connection setup handshake." The service
//! answers any SYN with a SYN-ACK; the prober completes its RTT
//! measurement without a connection ever being established. The paper's
//! implementation is ~700 lines of C#; Table 4 reports 1.27 µs / 2.105
//! Mq/s against 21.79 µs / 1.012 Mq/s for the host.
//!
//! The responder verifies the TCP checksum (pseudo-header included)
//! before answering — the verification loop plus SYN-ACK construction is
//! what puts the cycle count in the ~90-cycle band implied by the paper's
//! throughput.

use emu_core::csum::{csum_update_u32, csum_update_word, fold16};
use emu_core::proto::{Ipv4Wrapper, TcpWrapper};
use emu_core::{service_builder, Service};
use emu_types::proto::{ether_type, ip_proto, offset};
use kiwi_ir::dsl::*;

const FRAME_CAP: usize = 256;

/// Builds the TCP ping (SYN → SYN-ACK) service.
pub fn tcp_ping() -> Service {
    let (mut pb, dp) = service_builder("emu_tcp_ping", FRAME_CAP);
    let ip = Ipv4Wrapper::new(dp);
    let tcp = TcpWrapper::new(dp);

    let scratch48 = pb.reg("scratch48", 48);
    let scratch32 = pb.reg("scratch32", 32);
    let scratch16 = pb.reg("scratch16", 16);
    let acc = pb.reg("csum_acc", 32);
    let idx = pb.reg("idx", 16);
    let end = pb.reg("end", 16);
    let ok = pb.reg("ok", 1);
    let client_seq = pb.reg("client_seq", 32);
    // Our ISN: a per-response counter, as minimal hardware responders do.
    let isn = pb.reg("isn", 32);

    // --- TCP checksum verification over header + pseudo-header --------
    let word_at = |off: kiwi_ir::Expr| -> kiwi_ir::Expr {
        concat(dp.byte_dyn(off.clone()), dp.byte_dyn(add(off, lit(1, 16))))
    };
    let mut sum_step = Vec::new();
    let mut sum_expr = var(acc);
    for k in 0..4 {
        sum_expr = add(sum_expr, resize(word_at(add(var(idx), lit(2 * k, 16))), 32));
    }
    sum_step.push(assign(acc, sum_expr));
    sum_step.push(assign(idx, add(var(idx), lit(8, 16))));
    sum_step.push(pause());

    let tcp_len = sub(ip.total_len(), lit(20, 16));
    let verify = vec![
        // Pseudo-header: src+dst addresses, protocol, TCP length.
        assign(
            acc,
            add(
                add(
                    add(
                        resize(slice(ip.src(), 31, 16), 32),
                        resize(slice(ip.src(), 15, 0), 32),
                    ),
                    add(
                        resize(slice(ip.dst(), 31, 16), 32),
                        resize(slice(ip.dst(), 15, 0), 32),
                    ),
                ),
                add(
                    lit(u64::from(ip_proto::TCP), 32),
                    resize(tcp_len.clone(), 32),
                ),
            ),
        ),
        assign(idx, lit(offset::L4 as u64, 16)),
        assign(end, add(lit(14, 16), ip.total_len())),
        while_loop(lt(var(idx), var(end)), sum_step),
        assign(ok, eq(fold16(var(acc)), lit(0xffff, 16))),
    ];

    // --- SYN-ACK construction ----------------------------------------
    let mut reply = Vec::new();
    reply.push(assign(client_seq, tcp.seq()));
    reply.extend(dp.swap_macs(scratch48));
    reply.extend(ip.swap_addrs(scratch32));
    reply.extend(tcp.swap_ports(scratch16));
    // seq := our ISN; ack := client_seq + 1; flags := SYN|ACK.
    // The checksum is updated incrementally per changed 16-bit word:
    // address/port swaps are sum-neutral, so only seq/ack/flags change.
    let old_flags_word = tcp.off_flags_word();
    let new_flags_word = bor(
        band(old_flags_word.clone(), lit(0xff00, 16)),
        lit(0x12, 16), // SYN|ACK
    );
    let new_ack = add(var(client_seq), lit(1, 32));
    let mut csum = tcp.checksum();
    csum = csum_update_u32(csum, tcp.seq(), var(isn));
    csum = csum_update_u32(csum, tcp.ack(), new_ack.clone());
    csum = csum_update_word(csum, old_flags_word.clone(), new_flags_word.clone());
    reply.extend(tcp.set_checksum(csum));
    reply.extend(tcp.set_seq(var(isn)));
    reply.extend(tcp.set_ack(new_ack));
    reply.extend(dp.set16(offset::L4 + 12, new_flags_word));
    reply.push(assign(isn, add(var(isn), lit(64000, 32))));
    reply.push(dp.set_output_port(dp.input_port()));
    reply.extend(dp.transmit(dp.rx_len()));

    let is_syn = band(
        band(
            dp.ethertype_is(ether_type::IPV4),
            ip.protocol_is(ip_proto::TCP),
        ),
        band(
            band(tcp.syn(), lnot(tcp.ack_flag())),
            lnot(ip.has_options()),
        ),
    );

    let mut handle = verify;
    handle.push(if_then(var(ok), reply));
    let mut body = vec![dp.rx_wait(), label("rx")];
    body.push(if_then(is_syn, handle));
    body.extend(dp.done());

    pb.thread("main", vec![forever(body)]);
    Service::new(pb.build().expect("tcp ping program is well-formed"))
}

/// Builds a valid TCP SYN test frame.
pub fn syn_frame(sport: u16, dport: u16, seq: u32) -> emu_types::Frame {
    use emu_types::proto::tcp_flags;
    use emu_types::wire::{Envelope, Payload, L4};
    use emu_types::{Ipv4, MacAddr};
    let env = Envelope {
        src_mac: MacAddr::from_u64(0x02_00_00_00_00_22),
        dst_mac: MacAddr::from_u64(0x02_00_00_00_00_11),
        src: Ipv4::new(192, 168, 0, 1),
        dst: Ipv4::new(192, 168, 0, 2),
        ident: 0xabcd,
        in_port: 2,
    };
    let syn = L4::Tcp {
        sport,
        dport,
        seq,
        ack: 0,
        flags: tcp_flags::SYN,
    };
    env.frame(syn, Payload::Bytes(&[]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use emu_core::{assert_targets_agree, Target};
    use emu_types::bitutil;

    #[test]
    fn syn_gets_synack() {
        let svc = tcp_ping();
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        let syn = syn_frame(40000, 80, 0x1000);
        let out = inst.process(&syn).unwrap();
        assert_eq!(out.tx.len(), 1);
        let b = out.tx[0].frame.bytes();
        // Ports swapped.
        assert_eq!(bitutil::get16(b, 34), 80);
        assert_eq!(bitutil::get16(b, 36), 40000);
        // SYN|ACK set.
        assert_eq!(b[47] & 0x12, 0x12);
        // ack = client seq + 1.
        assert_eq!(bitutil::get32(b, 42), 0x1001);
        // Addresses swapped.
        assert_eq!(&b[26..30], &[192, 168, 0, 2]);
        // TCP checksum of the reply verifies.
        assert_eq!(
            emu_types::wire::l4_csum_ok(&out.tx[0].frame),
            Some(true),
            "SYN-ACK checksum invalid"
        );
    }

    #[test]
    fn non_syn_ignored() {
        let svc = tcp_ping();
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        // Plain ACK.
        let mut f = syn_frame(40000, 80, 1);
        f.bytes_mut()[47] = 0x10;
        // Fix checksum for the flag change so it isn't dropped for THAT.
        let old = bitutil::get16(f.bytes(), 46);
        let newc = emu_types::checksum::update_word(
            bitutil::get16(f.bytes(), 50),
            old,
            (old & 0xff00) | 0x10,
        );
        bitutil::set16(f.bytes_mut(), 50, newc);
        assert!(inst.process(&f).unwrap().tx.is_empty());
        // SYN+ACK (second handshake step) must not be re-answered.
        let mut f2 = syn_frame(40000, 80, 1);
        f2.bytes_mut()[47] = 0x12;
        assert!(inst.process(&f2).unwrap().tx.is_empty());
    }

    #[test]
    fn bad_checksum_dropped() {
        let svc = tcp_ping();
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        let mut f = syn_frame(1234, 22, 77);
        f.bytes_mut()[38] ^= 0x40; // corrupt seq without checksum fix
        assert!(inst.process(&f).unwrap().tx.is_empty());
    }

    #[test]
    fn isn_advances_between_probes() {
        let svc = tcp_ping();
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        let a = inst.process(&syn_frame(1, 2, 3)).unwrap();
        let b = inst.process(&syn_frame(1, 2, 3)).unwrap();
        let seq_a = bitutil::get32(a.tx[0].frame.bytes(), 38);
        let seq_b = bitutil::get32(b.tx[0].frame.bytes(), 38);
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn targets_agree() {
        let frames = vec![
            syn_frame(40000, 80, 0x1000),
            syn_frame(40001, 443, 0xdead),
            syn_frame(40002, 22, 0),
        ];
        assert_targets_agree(&tcp_ping(), &frames).unwrap();
    }

    #[test]
    fn cycle_count_band() {
        let svc = tcp_ping();
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        let out = inst.process(&syn_frame(40000, 80, 1)).unwrap();
        assert!(
            (20..=140).contains(&out.cycles),
            "tcp ping took {} cycles",
            out.cycles
        );
    }
}
