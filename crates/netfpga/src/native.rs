//! The designs Table 3 compares Emu against: one type, [`Baseline`],
//! with two values.
//!
//! * [`Baseline::Reference`] models the NetFPGA SUME reference learning
//!   switch — the hand-written Verilog design (reference 45) — as a
//!   streaming pipeline with a 6-cycle module latency and a
//!   vendor-optimized (native) CAM.
//! * [`Baseline::P4Fpga`] models the P4FPGA-generated switch (reference
//!   47): a 250 MHz parse–match–action–deparse pipeline whose published
//!   characteristics (85-cycle latency, 53 Mpps at 64 B, a parser per
//!   port) are encoded as constants.
//!
//! Both are *models of third-party artifacts we cannot run*. Both
//! forward with [`switch_forward`], the Figure 2 step of the Emu switch,
//! over the 256-entry table the Emu switch deploys, so Table 3 compares
//! one switching function; the two differ only in their timing
//! constants and component lists. Their resources are computed from the
//! same cost model as Emu designs where possible, and their published
//! timing figures are constants. Each figure below
//! says whether it is a Table 3 cell or a modelling choice, and which
//! cell of `emu_bench::PAPER` pins it.

use crate::dataplane::{TxFrame, TxList};
use crate::timing;
use emu_rtl::CamTable;
use emu_types::{Bits, Frame};
use kiwi::resources::{IpBlock, ResourceReport};

/// The learning switch's forwarding decision: the Figure 2 step of
/// `emu_services::switch_ip_cam`, in program order, on `table` (MAC →
/// port, 48 → 8 bits). Returns the output-port bitmap.
///
/// 1. One frame epoch passes (`CamTable::tick_frame`), as the engine
///    ticks a shard's tables once per frame.
/// 2. The destination is looked up: a hit sends to the learned port, a
///    miss to every port but the arrival one.
/// 3. The source is learned on a lookup miss, whatever its address: a
///    multicast or broadcast source is learned like any other.
///
/// A port past the bitmap's eight bits selects no port.
pub fn switch_forward(table: &mut CamTable, frame: &Frame) -> u8 {
    let bit = |port: u8| 1u8.checked_shl(port.into()).unwrap_or(0);
    let all = (1u8 << timing::NUM_PORTS) - 1;
    table.tick_frame();
    let dst = Bits::from_u64(frame.dst_mac().to_u64(), 48);
    let src = Bits::from_u64(frame.src_mac().to_u64(), 48);
    let ports = match table.lookup(&dst) {
        // The value is 8 bits wide: the cast is exact.
        Some(p) => bit(p.to_u64() as u8),
        None => all & !bit(frame.in_port),
    };
    if table.lookup(&src).is_none() {
        table.write(src, Bits::from_u64(frame.in_port.into(), 8));
    }
    ports
}

/// A Table 3 baseline: a hand-written (non-Emu) main logical core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// The NetFPGA SUME reference learning switch (native Verilog).
    Reference,
    /// The P4FPGA-compiled switch. Its published figures are constants:
    /// latency and peak rate are Table 3 cells, pinned exactly and
    /// within 1 % by Table 3 · P4FPGA · module latency and 64 B
    /// throughput.
    P4Fpga,
}

impl Baseline {
    /// The empty MAC table (256 entries, MAC → port) both designs
    /// forward on.
    pub(crate) fn table() -> CamTable {
        CamTable::new(256, 48, 8)
    }

    /// Functional packet processing, the same for both designs: the
    /// frame, unmodified, out of the ports [`switch_forward`] picks on
    /// `table`; nothing when it picks none.
    pub(crate) fn process(table: &mut CamTable, frame: &Frame) -> TxList {
        match switch_forward(table, frame) {
            0 => TxList::Empty,
            ports => TxList::One(TxFrame {
                ports,
                frame: frame.clone(),
            }),
        }
    }

    /// Module latency in core cycles (first beat in → first beat out).
    pub fn module_latency_cycles(self) -> u64 {
        match self {
            // Table 3: 6 cycles through the main logical core. Pinned
            // exactly by Table 3 · reference · module latency.
            Baseline::Reference => 6,
            // Table 3: 85.
            Baseline::P4Fpga => 85,
        }
    }

    /// Core clock in Hz.
    pub(crate) fn clock_hz(self) -> u64 {
        match self {
            Baseline::Reference => timing::CLOCK_HZ,
            // The paper quotes 250 MHz.
            Baseline::P4Fpga => 250_000_000,
        }
    }

    /// Minimum time between successive packet admissions, given the
    /// frame length (the pipeline's initiation interval).
    pub(crate) fn initiation_ns(self, frame_len: usize) -> f64 {
        match self {
            // Fully streaming: a new packet every time its beats have
            // passed.
            Baseline::Reference => {
                emu_rtl::beats_for_len(frame_len.max(60)) as f64 * timing::NS_PER_CYCLE
            }
            // The deparser serializes the pipeline at the published peak
            // rate, 53 Mpps at 64 B (Table 3).
            Baseline::P4Fpga => 1e3 / 53.0,
        }
    }

    /// Utilization report: the design's component list.
    pub fn resources(self) -> ResourceReport {
        let mut rep = ResourceReport::default();
        match self {
            Baseline::Reference => {
                // Component model of the hand-written design: header
                // extraction over the first beat, learn/forward control,
                // AXI glue, plus the vendor CAM. The constants are
                // per-component LUT estimates from the same cost family
                // as `kiwi::resources`: a modelling choice, pinned by
                // Table 3 · reference · logic (near 2836) and memory (a
                // recorded deviation, 72 against 87).
                rep.add("parser", 190, 0, 160); // dst/src/ethertype extraction
                rep.add("learn-fsm", 240, 0, 96);
                rep.add("forward-mux", 90, 0, 24);
                rep.add("axi-glue", 160, 8, 128);
                let (l, m, f) = IpBlock::Cam {
                    entries: 256,
                    key_bits: 48,
                    value_bits: 8,
                    native: true,
                }
                .cost();
                rep.add("cam(native)", l, m, f);
                // Store-and-forward frame buffer (one max-size frame in BRAM).
                let (l, m, f) = IpBlock::Bram { bits: 1514 * 8 }.cost();
                rep.add("frame-buffer", l, m, f);
            }
            Baseline::P4Fpga => {
                // Generated pipeline: replicated parsers, wide match
                // stages with hash units, action ALUs, deparser.
                // Component values follow the published utilization
                // breakdown of P4FPGA-style pipelines: the generated code
                // dominates (Table 3's 24161 vs Emu's 3509). A modelling
                // choice, pinned by Table 3 · P4FPGA · memory (near 236)
                // and logic (a recorded deviation, 26708 against 24161).
                // A parser per port (§5.3: "a header parser for every
                // port") and four match-action stages (a modelling choice).
                for i in 0..timing::NUM_PORTS {
                    rep.add(&format!("parser{i}"), 1450, 8, 700);
                }
                for i in 0..4 {
                    let (l, m, f) = IpBlock::Cam {
                        entries: 256,
                        key_bits: 48,
                        value_bits: 8,
                        native: false,
                    }
                    .cost();
                    rep.add(&format!("match{i}"), l + 900, m + 16, f);
                    rep.add(&format!("action{i}"), 620, 0, 256);
                }
                rep.add("deparser", 1900, 16, 512);
                rep.add("pipeline-regs", 640, 0, 2048);
            }
        }
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emu_types::wire::l2_frame as frame;

    #[test]
    fn switch_learns_then_forwards_unicast() {
        let mut sw = Baseline::table();
        // A (port 0) -> B: flood (B unknown), learn A.
        let out = Baseline::process(&mut sw, &frame(0xA, 0xB, 0));
        assert_eq!(out[0].ports, 0b1110);
        // B (port 1) -> A: unicast to port 0, learn B.
        let out = Baseline::process(&mut sw, &frame(0xB, 0xA, 1));
        assert_eq!(out[0].ports, 0b0001);
        // A -> B now unicast to port 1.
        let out = Baseline::process(&mut sw, &frame(0xA, 0xB, 0));
        assert_eq!(out[0].ports, 0b0010);
    }

    #[test]
    fn unknown_broadcast_floods() {
        let mut sw = Baseline::table();
        let out = Baseline::process(&mut sw, &frame(0xA, 0xffff_ffff_ffff, 2));
        assert_eq!(out[0].ports, 0b1011);
    }

    #[test]
    fn hairpin_suppressed() {
        let mut sw = Baseline::table();
        Baseline::process(&mut sw, &frame(0xA, 0xB, 0)); // learn A@0
                                                         // B -> A arriving on port 0 (A's own port): bitmap is 1<<0, which
                                                         // includes the arrival port — the reference design forwards by
                                                         // table blindly; flooding never reflects though.
        let out = Baseline::process(&mut sw, &frame(0xC, 0xD, 1));
        assert_eq!(out[0].ports & (1 << 1), 0, "flood must exclude arrival");
    }

    #[test]
    fn baseline_timing_parameters() {
        let r = Baseline::Reference;
        assert_eq!(r.module_latency_cycles(), 6);
        // 64-byte frame = 2 beats = 10 ns initiation: faster than the
        // 16.8 ns aggregate line rate, hence full line rate in Table 3.
        assert!((r.initiation_ns(64) - 10.0).abs() < 1e-9);

        let p = Baseline::P4Fpga;
        assert_eq!(p.module_latency_cycles(), 85);
        // 53 Mpps -> 18.87 ns between packets.
        assert!((p.initiation_ns(64) - 18.867).abs() < 0.01);
    }

    #[test]
    fn baseline_resources_ordering() {
        // P4FPGA must dwarf the reference switch (Table 3: 24161 vs 2836).
        let r = Baseline::Reference.resources();
        let p = Baseline::P4Fpga.resources();
        assert!(p.logic > 5 * r.logic, "p4 {} vs ref {}", p.logic, r.logic);
        assert!(p.memory > r.memory);
    }
}
