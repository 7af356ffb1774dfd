//! The L2 learning switch of §4.1 — the paper's flagship use case.
//!
//! Two variants, as the paper describes: "it provides an example of how
//! content addressable memory (CAM) is implemented in Emu, and how a
//! native FPGA IP CAM block can be used. While the first option does not
//! burden developers with implementation details, the latter provides
//! better resource usage and timing performance."
//!
//! * [`switch_ip_cam`] — uses the CAM IP block (the configuration behind
//!   Table 3's Emu column: "85 % [of the resources] are used by the CAM,
//!   which is an IP block, and only 15 % by the C# generated logic").
//! * [`switch_behavioural`] — the table lives in program arrays and the
//!   parallel match is generated logic (a LUT-based CAM), following the
//!   Figure 2 fragment: learn the source, look up the destination,
//!   forward or broadcast, with the `free` pointer wrap of line 17.

use emu_core::ipblock::CamIf;
use emu_core::{service_builder, Service, TableConfig};
use emu_rtl::{CamModel, IpEnv};
use kiwi_ir::dsl::*;
use kiwi_ir::program::ArrayBacking;
use kiwi_ir::{ArrId, Expr};

/// MAC table capacity used by Table 3 ("we use 256-entry tables").
pub const TABLE_ENTRIES: usize = 256;

/// Frame buffer capacity: switching is header-only, but the frame must
/// fit; 1514-byte standard maximum.
const FRAME_CAP: usize = 1536;

/// Builds the switch around the CAM IP block.
pub fn switch_ip_cam() -> Service {
    let (mut pb, dp) = service_builder("emu_switch_cam", FRAME_CAP);
    let cam = CamIf::declare(&mut pb, "cam", 48, 8);
    let dst_hit = pb.reg("dstmac_lut_hit", 1);
    let lut_element_op = pb.reg("lut_element_op", 8);
    let srcmac_lut_exist = pb.reg("srcmac_lut_exist", 1);

    let mut body = vec![dp.rx_wait(), label("rx")];

    // Look up the destination MAC.
    body.extend(cam.lookup(dp.dst_mac()));
    body.push(assign(dst_hit, cam.matched()));
    body.push(assign(lut_element_op, cam.value()));

    // Configure the metadata such that if we have a hit then set the
    // appropriate output port in the metadata, otherwise broadcast
    // (Figure 2, lines 4-9).
    body.push(if_else(
        var(dst_hit),
        vec![dp.set_output_port(resize(var(lut_element_op), 8))],
        vec![dp.broadcast()],
    ));
    body.extend(dp.transmit(dp.rx_len()));

    // Kiwi.Pause(); then add the source MAC to our LUT if it's not
    // already there, thus the switch "learns" (Figure 2, lines 11-18).
    body.extend(cam.lookup(dp.src_mac()));
    body.push(assign(srcmac_lut_exist, cam.matched()));
    body.push(if_then(
        lnot(var(srcmac_lut_exist)),
        cam.write(dp.src_mac(), resize(dp.input_port(), 8)),
    ));
    body.extend(dp.done());

    pb.thread("main", vec![forever(body)]);
    let prog = pb.build().expect("switch program is well-formed");
    Service::with_sized_env(prog, move |cfg| mac_table_env(&cam, cfg))
}

/// The learning switch's environment: its MAC table behind `cam`.
/// Sizing/aging comes from the engine's [`TableConfig`]: a Cpu
/// deployment can hold millions of MACs, and a TTL gives the learned
/// entries IEEE-style aging (an idle station's entry expires and its
/// traffic floods again until re-learned). Shared with the filter
/// switch, which learns exactly the same way.
pub(crate) fn mac_table_env(cam: &CamIf, cfg: &TableConfig) -> IpEnv {
    let entries = cfg.entries.unwrap_or(TABLE_ENTRIES);
    let mut env = IpEnv::new();
    env.attach(Box::new(
        CamModel::new(cam, entries, false).with_ttl(cfg.ttl_frames),
    ));
    env
}

/// Balanced-tree parallel match over a program array: returns
/// `(hit, port)` expressions. Entry layout: `[56] valid, [55:8] mac,
/// [7:0] port`. This is what "CAM implemented in C#" compiles to —
/// parallel comparators in generated logic.
fn lut_match(arr: ArrId, lo: usize, hi: usize, key: &Expr) -> (Expr, Expr) {
    if lo == hi {
        let e = arr_read(arr, lit(lo as u64, 16));
        let valid = slice(e.clone(), 56, 56);
        let mac = slice(e.clone(), 55, 8);
        let port = slice(e, 7, 0);
        (band(valid, eq(mac, key.clone())), port)
    } else {
        let mid = (lo + hi) / 2;
        let (h1, p1) = lut_match(arr, lo, mid, key);
        let (h2, p2) = lut_match(arr, mid + 1, hi, key);
        (bor(h1.clone(), h2), mux(h1, p1, p2))
    }
}

/// Builds the behavioural-CAM switch with `entries` table slots.
pub fn switch_behavioural(entries: usize) -> Service {
    assert!(
        entries.is_power_of_two() && entries >= 2,
        "entries must be a power of two"
    );
    let (mut pb, dp) = service_builder("emu_switch_behavioural", FRAME_CAP);
    let lut = pb.array("LUT", 64, entries, ArrayBacking::Cam);
    let free = pb.reg("free", 16);
    let dst_hit = pb.reg("dstmac_lut_hit", 1);
    let dst_port = pb.reg("dst_port", 8);
    let src_exist = pb.reg("srcmac_lut_exist", 1);

    let mut body = vec![dp.rx_wait()];

    // Parallel destination match (one cycle of wide logic).
    let (dhit, dport) = lut_match(lut, 0, entries - 1, &dp.dst_mac());
    body.push(assign(dst_hit, dhit));
    body.push(assign(dst_port, dport));
    body.push(pause());

    body.push(if_else(
        var(dst_hit),
        vec![dp.set_output_port(resize(var(dst_port), 8))],
        vec![dp.broadcast()],
    ));
    body.extend(dp.transmit(dp.rx_len()));

    // Learning: parallel source match, then fill LUT[free] on miss with
    // the Figure 2 line 17 wrap of the free pointer.
    let (shit, _) = lut_match(lut, 0, entries - 1, &dp.src_mac());
    body.push(assign(src_exist, shit));
    body.push(pause());
    body.push(if_then(
        lnot(var(src_exist)),
        vec![
            arr_write(
                lut,
                var(free),
                concat_all([lit(1, 1), dp.src_mac(), resize(dp.input_port(), 8)]),
            ),
            assign(
                free,
                mux(
                    ge(var(free), lit(entries as u64 - 1, 16)),
                    lit(0, 16),
                    add(var(free), lit(1, 16)),
                ),
            ),
        ],
    ));
    body.extend(dp.done());

    pb.thread("main", vec![forever(body)]);
    Service::new(pb.build().expect("switch program is well-formed"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use emu_core::{assert_targets_agree, Target};
    use emu_rtl::CamTable;
    use emu_traffic::{Checker, SwitchModel};
    use emu_types::wire::l2_frame as frame;
    use emu_types::Frame;
    use netfpga_sim::native::switch_forward;

    fn check_learning(svc: Service) {
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        // A@0 -> B: flood.
        let out = inst.process(&frame(0xA, 0xB, 0)).unwrap();
        assert_eq!(out.tx[0].ports, 0b1110, "unknown dst must flood");
        // B@1 -> A: unicast to 0.
        let out = inst.process(&frame(0xB, 0xA, 1)).unwrap();
        assert_eq!(out.tx[0].ports, 0b0001, "learned dst must unicast");
        // A@0 -> B: unicast to 1.
        let out = inst.process(&frame(0xA, 0xB, 0)).unwrap();
        assert_eq!(out.tx[0].ports, 0b0010);
        // Frame content must be forwarded unmodified.
        assert_eq!(out.tx[0].frame.bytes(), frame(0xA, 0xB, 0).bytes());
    }

    #[test]
    fn ip_cam_switch_learns() {
        check_learning(switch_ip_cam());
    }

    #[test]
    fn behavioural_switch_learns() {
        check_learning(switch_behavioural(16));
    }

    #[test]
    fn both_variants_match_reference_model() {
        // Differential test against the one learning-switch reference,
        // `switch_forward` on a `CamTable`, over a pseudo-random MAC
        // workload and then the addresses and ports past it: a
        // multicast and a broadcast source are learned like any other,
        // and an arrival port past the bitmap floods to every port.
        let mut x = 0x12345u64;
        let mut frames: Vec<Frame> = (0..60)
            .map(|i| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                frame((x >> 10) % 8 + 1, (x >> 20) % 8 + 1, (i % 4) as u8)
            })
            .collect();
        let (mcast, bcast) = (0x0100_5e00_0001, 0xffff_ffff_ffff);
        let edges = [
            (frame(mcast, 0xA, 0), 0b1110),
            (frame(0xB, mcast, 2), 0b0001),
            (frame(bcast, 0xC, 1), 0b1101),
            (frame(0xD, bcast, 3), 0b0010),
            (frame(0xE, 0xF, 9), 0b1111),
        ];
        frames.extend(edges.iter().map(|(f, _)| f.clone()));
        for svc in [switch_ip_cam(), switch_behavioural(16)] {
            let mut inst = svc.engine(Target::Fpga).build().unwrap();
            let mut reference = CamTable::new(TABLE_ENTRIES, 48, 8);
            let mut model = SwitchModel::new(1);
            for (i, f) in frames.iter().enumerate() {
                let got = inst.process(f);
                model.observe(f, &got);
                let got_ports = got.unwrap().tx.first().map(|t| t.ports).unwrap_or(0);
                let want_ports = switch_forward(&mut reference, f);
                assert_eq!(got_ports, want_ports, "frame {i}: {f:?}");
                if let Some(k) = i.checked_sub(60) {
                    assert_eq!(want_ports, edges[k].1, "edge case {k}");
                }
            }
            assert_eq!(model.violations(), 0, "notes: {:?}", model.notes());
        }
    }

    #[test]
    fn cpu_and_fpga_targets_agree() {
        let frames: Vec<Frame> = (0..20)
            .map(|i| frame((i % 5) + 1, ((i + 2) % 5) + 1, (i % 4) as u8))
            .collect();
        assert_targets_agree(&switch_ip_cam(), &frames).unwrap();
        assert_targets_agree(&switch_behavioural(16), &frames).unwrap();
    }

    #[test]
    fn module_latency_near_paper() {
        // Table 3: Emu switch module latency 8 cycles. Accept a small
        // band — `emu-bench`'s `paper` bin prints the exact measured value.
        let svc = switch_ip_cam();
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        inst.process(&frame(0xB, 0xA, 1)).unwrap();
        let out = inst.process(&frame(0xA, 0xB, 0)).unwrap();
        assert!(
            (5..=14).contains(&out.cycles),
            "switch took {} cycles",
            out.cycles
        );
    }

    #[test]
    fn behavioural_free_pointer_wraps() {
        let svc = switch_behavioural(4);
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        for i in 0..6u64 {
            inst.process(&frame(100 + i, 0xB, (i % 4) as u8)).unwrap();
        }
        let free = inst.read_reg("free").unwrap().to_u64();
        assert!(free < 4, "free pointer must wrap, got {free}");
    }
}
