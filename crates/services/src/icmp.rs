//! ICMP echo responder (§4.2).
//!
//! The paper uses this service for two baselines: a qualitative one ("how
//! hard is a simple network server") and a quantitative one ("how much
//! time is saved by avoiding the system bus, CPU, OS, and network
//! stack"). Table 4 reports 1.09 µs average latency and 3.226 M queries/s
//! against 12.28 µs / 1.068 Mq/s for the Linux host.
//!
//! The responder is RFC-1122-shaped: it verifies the ICMP checksum over
//! the full message (a per-8-byte loop — this dominates the cycle count,
//! which is what puts Emu's throughput near the paper's 3.2 Mq/s rather
//! than at some parse-only fantasy number), flips type 8 → 0 with an
//! RFC 1624 incremental checksum update, swaps addresses, and reflects
//! the frame out of its arrival port.

use emu_core::csum::csum_update_word;
use emu_core::proto::{IcmpWrapper, Ipv4Wrapper};
use emu_core::{service_builder, Service};
use emu_types::proto::{ether_type, ip_proto, offset};
use kiwi_ir::dsl::*;

/// Frame capacity: standard ping sizes (up to a 1500-byte MTU echo).
const FRAME_CAP: usize = 1536;

/// Builds the ICMP echo service.
pub fn icmp_echo() -> Service {
    let (mut pb, dp) = service_builder("emu_icmp_echo", FRAME_CAP);
    let ip = Ipv4Wrapper::new(dp);
    let icmp = IcmpWrapper::new(dp);

    let scratch48 = pb.reg("scratch48", 48);
    let scratch32 = pb.reg("scratch32", 32);
    let csum_new = pb.reg("csum_new", 16);
    let acc = pb.reg("csum_acc", 32);
    let idx = pb.reg("idx", 16);
    let end = pb.reg("end", 16);
    let ok = pb.reg("ok", 1);

    // Checksum-verification loop: sum 16-bit words of the ICMP message,
    // four words (8 bytes) per cycle. A byte at or past the message's
    // end sums as zero, whatever the frame carries there (padding, an
    // Ethernet trailer).
    let byte_at = |off: kiwi_ir::Expr| -> kiwi_ir::Expr {
        mux(lt(off.clone(), var(end)), dp.byte_dyn(off), lit(0, 8))
    };
    let word_at = |off: kiwi_ir::Expr| -> kiwi_ir::Expr {
        concat(byte_at(off.clone()), byte_at(add(off, lit(1, 16))))
    };
    let mut sum_step = Vec::new();
    let mut sum_expr = var(acc);
    for k in 0..4 {
        sum_expr = add(sum_expr, resize(word_at(add(var(idx), lit(2 * k, 16))), 32));
    }
    sum_step.push(assign(acc, sum_expr));
    sum_step.push(assign(idx, add(var(idx), lit(8, 16))));
    sum_step.push(pause());

    let verify_loop = vec![
        assign(acc, lit(0, 32)),
        assign(idx, lit(offset::L4 as u64, 16)),
        // The ICMP message ends at 14 + total_len; the last step's
        // bytes past it sum as zero, so summing to the next 8-byte
        // boundary is exact.
        assign(end, add(lit(14, 16), ip.total_len())),
        while_loop(lt(var(idx), var(end)), sum_step),
        // Fold and compare with 0xffff (valid checksum sums to ~0). A
        // request cut short of its total length is dropped: its sum
        // over the zero-filled buffer can still come out valid.
        assign(
            ok,
            band(
                eq(emu_core::csum::fold16(var(acc)), lit(0xffff, 16)),
                le(var(end), dp.rx_len()),
            ),
        ),
    ];

    // Reply construction: swap L2/L3 addresses, set type 0, update the
    // checksum incrementally for the type/code word 0x0800 → 0x0000.
    let mut reply = Vec::new();
    reply.extend(dp.swap_macs(scratch48));
    reply.extend(ip.swap_addrs(scratch32));
    reply.push(icmp.set_type(lit(0, 8)));
    // The update reads the checksum field it rewrites: go via a register.
    reply.extend(dp.set16_via(
        csum_new,
        offset::L4 + 2,
        csum_update_word(icmp.checksum(), lit(0x0800, 16), lit(0x0000, 16)),
    ));
    reply.push(dp.set_output_port(dp.input_port()));
    reply.extend(dp.transmit(dp.rx_len()));

    let is_echo_request = band(
        band(
            dp.ethertype_is(ether_type::IPV4),
            ip.protocol_is(ip_proto::ICMP),
        ),
        band(eq(icmp.icmp_type(), lit(8, 8)), lnot(ip.has_options())),
    );

    let mut body = vec![dp.rx_wait(), label("rx")];
    let mut handle = verify_loop;
    handle.push(if_then(var(ok), reply));
    body.push(if_then(is_echo_request, handle));
    body.extend(dp.done());

    pb.thread("main", vec![forever(body)]);
    Service::new(pb.build().expect("icmp echo program is well-formed"))
}

/// Builds a well-formed ICMP echo request test frame with `payload_len`
/// payload bytes (also used by the benches and examples).
pub fn echo_request_frame(payload_len: usize, seq: u16) -> emu_types::Frame {
    use emu_types::wire::{Envelope, Payload, L4};
    use emu_types::{Ipv4, MacAddr};
    let payload: Vec<u8> = (0..payload_len).map(|i| (i % 251) as u8).collect();
    let env = Envelope {
        src_mac: MacAddr::from_u64(0x02_00_00_00_00_02),
        dst_mac: MacAddr::from_u64(0x02_00_00_00_00_01),
        src: Ipv4::new(10, 0, 0, 1),
        dst: Ipv4::new(10, 0, 0, 2),
        ident: 0x1234,
        in_port: 0,
    };
    let echo = L4::Echo { ident: 0x5678, seq };
    env.frame(echo, Payload::Bytes(&payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use emu_core::{assert_targets_agree, Target};
    use emu_types::checksum;

    #[test]
    fn replies_to_valid_echo_request() {
        let svc = icmp_echo();
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        let req = echo_request_frame(56, 1);
        let out = inst.process(&req).unwrap();
        assert_eq!(out.tx.len(), 1, "one reply expected");
        let reply = out.tx[0].frame.bytes();

        // Type flipped, code intact.
        assert_eq!(reply[34], 0);
        assert_eq!(reply[35], 0);
        // Addresses swapped at both layers.
        assert_eq!(&reply[0..6], req.bytes()[6..12].to_vec().as_slice());
        assert_eq!(&reply[26..30], &[10, 0, 0, 2]);
        assert_eq!(&reply[30..34], &[10, 0, 0, 1]);
        // The ICMP checksum of the reply must verify.
        let total_len = emu_types::bitutil::get16(reply, 16) as usize;
        assert!(checksum::verify(&reply[34..14 + total_len]));
        // Payload echoed unmodified.
        assert_eq!(&reply[42..42 + 56], &req.bytes()[42..42 + 56]);
        // Reflected to the arrival port.
        assert_eq!(out.tx[0].ports, 1 << 0);
    }

    #[test]
    fn corrupt_checksum_is_dropped() {
        let svc = icmp_echo();
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        let mut req = echo_request_frame(56, 2);
        req.bytes_mut()[40] ^= 0xff; // corrupt payload without fixing csum
        let out = inst.process(&req).unwrap();
        assert!(out.tx.is_empty(), "corrupt request must be dropped");
    }

    #[test]
    fn the_checksum_covers_exactly_the_ip_datagram() {
        let mut inst = icmp_echo().engine(Target::Fpga).build().unwrap();
        // A payload ending in zeros, cut inside them: the missing bytes
        // read back as the zero fill and would still sum right.
        let mut payload = vec![0x5a; 16];
        payload.resize(56, 0);
        let mut req = echo_request_frame(56, 1);
        let icmp = emu_types::wire::echo_request(0x5678, 1, &payload);
        req.bytes_mut()[34..].copy_from_slice(&icmp);
        assert_eq!(inst.process(&req).unwrap().tx.len(), 1);
        let cut = emu_types::Frame::new(req.bytes()[..70].to_vec());
        assert!(inst.process(&cut).unwrap().tx.is_empty());
        // A 17-byte message followed by an Ethernet trailer: the last
        // 8-byte step reaches into the trailer, which must not count.
        let mut bytes = echo_request_frame(9, 1).bytes()[..51].to_vec();
        bytes.extend_from_slice(&[0xff; 9]);
        let trailed = emu_types::Frame::new(bytes);
        assert_eq!(inst.process(&trailed).unwrap().tx.len(), 1);
    }

    #[test]
    fn non_icmp_traffic_ignored() {
        let svc = icmp_echo();
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        // A UDP frame.
        let mut req = echo_request_frame(56, 3);
        req.bytes_mut()[23] = 17; // protocol = UDP
        let out = inst.process(&req).unwrap();
        assert!(out.tx.is_empty());
        // An echo *reply* (type 0) must not be answered.
        let mut rep = echo_request_frame(56, 4);
        rep.bytes_mut()[34] = 0;
        let out = inst.process(&rep).unwrap();
        assert!(out.tx.is_empty());
    }

    #[test]
    fn options_bearing_packets_dropped() {
        let svc = icmp_echo();
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        let mut req = echo_request_frame(56, 5);
        req.bytes_mut()[14] = 0x46; // IHL = 6
        let out = inst.process(&req).unwrap();
        assert!(out.tx.is_empty());
    }

    #[test]
    fn targets_agree_on_mixed_traffic() {
        let mut frames = vec![
            echo_request_frame(8, 1),
            echo_request_frame(56, 2),
            echo_request_frame(200, 3),
        ];
        frames[1].bytes_mut()[40] ^= 1; // one corrupt frame
        assert_targets_agree(&icmp_echo(), &frames).unwrap();
    }

    #[test]
    fn cycle_count_in_expected_band() {
        // The verification loop makes a 56-byte ping cost tens of cycles:
        // that is what grounds Table 4's ~3.2 Mq/s (≈ 62 cycle service
        // time at 200 MHz). Accept a band; `emu-bench`'s `paper` bin prints
        // the exact values.
        let svc = icmp_echo();
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        let out = inst.process(&echo_request_frame(56, 1)).unwrap();
        assert!(
            (20..=120).contains(&out.cycles),
            "icmp echo took {} cycles",
            out.cycles
        );
    }
}
