//! Native baseline cores: the designs Table 3 compares Emu against.
//!
//! * [`RefSwitchCore`] models the NetFPGA SUME reference learning switch —
//!   the hand-written Verilog design (reference 45) — as a streaming pipeline with a
//!   6-cycle module latency and a vendor-optimized (native) CAM.
//! * [`P4FpgaCore`] models the P4FPGA-generated switch (reference 47): a 250 MHz
//!   parse–match–action–deparse pipeline whose published characteristics
//!   (85-cycle latency, 53 Mpps at 64 B, a parser per port) are encoded as
//!   model parameters.
//!
//! Both are *models of third-party artifacts we cannot run*. Both
//! forward with [`switch_forward`], the Figure 2 step of the Emu switch,
//! over a 256-entry [`CamTable`], the table the Emu switch deploys, so
//! Table 3 compares one switching function. Their resources are
//! computed from the same cost model as Emu designs where possible, and
//! their published timing figures are parameters. Each figure below
//! says whether it is a Table 3 cell or a modelling choice, and which
//! cell of `emu_bench::PAPER` pins it.

use crate::dataplane::TxFrame;
use crate::timing;
use emu_rtl::CamTable;
use emu_types::{Bits, Frame};
use kiwi::resources::{IpBlock, ResourceReport};

/// A hand-written (non-Emu) main logical core.
pub trait NativeCore {
    /// Design name for reports.
    fn name(&self) -> &str;
    /// Functional packet processing.
    fn process(&mut self, frame: &Frame) -> Vec<TxFrame>;
    /// Module latency in core cycles (first beat in → first beat out).
    fn module_latency_cycles(&self) -> u64;
    /// Core clock in Hz.
    fn clock_hz(&self) -> u64;
    /// Minimum time between successive packet admissions, given the frame
    /// length (the pipeline's initiation interval).
    fn initiation_ns(&self, frame_len: usize) -> f64;
    /// Utilization report.
    fn resources(&self) -> ResourceReport;
}

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

/// A baseline's transmission: the frame, unmodified, out of the ports
/// [`switch_forward`] picks; nothing when it picks none.
fn transmit(table: &mut CamTable, frame: &Frame) -> Vec<TxFrame> {
    match switch_forward(table, frame) {
        0 => Vec::new(),
        ports => vec![TxFrame {
            ports,
            frame: frame.clone(),
        }],
    }
}

/// The NetFPGA SUME reference learning switch (native Verilog baseline).
pub struct RefSwitchCore {
    table: CamTable,
}

impl RefSwitchCore {
    /// Creates the reference switch with a 256-entry MAC table.
    pub fn new() -> Self {
        RefSwitchCore {
            table: CamTable::new(256, 48, 8),
        }
    }
}

impl Default for RefSwitchCore {
    fn default() -> Self {
        Self::new()
    }
}

impl NativeCore for RefSwitchCore {
    fn name(&self) -> &str {
        "netfpga-reference-switch"
    }

    fn process(&mut self, frame: &Frame) -> Vec<TxFrame> {
        transmit(&mut self.table, frame)
    }

    fn module_latency_cycles(&self) -> u64 {
        // Table 3: 6 cycles through the main logical core. Pinned
        // exactly by Table 3 · reference · module latency.
        6
    }

    fn clock_hz(&self) -> u64 {
        timing::CLOCK_HZ
    }

    fn initiation_ns(&self, frame_len: usize) -> f64 {
        // Fully streaming: a new packet every time its beats have passed.
        emu_rtl::beats_for_len(frame_len.max(60)) as f64 * timing::NS_PER_CYCLE
    }

    fn resources(&self) -> ResourceReport {
        // Component model of the hand-written design: header extraction
        // over the first beat, learn/forward control, AXI glue, plus the
        // vendor CAM. The constants are per-component LUT estimates from
        // the same cost family as `kiwi::resources`: a modelling choice,
        // pinned by Table 3 · reference · logic (near 2836) and memory (a
        // recorded deviation, 72 against 87).
        let mut rep = ResourceReport::default();
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
        rep
    }
}

/// The P4FPGA-compiled switch baseline. Its published figures are
/// constants: latency and peak rate are Table 3 cells, pinned exactly
/// and within 1 % by Table 3 · P4FPGA · module latency and 64 B
/// throughput.
pub struct P4FpgaCore {
    table: CamTable,
}

impl P4FpgaCore {
    /// Pipeline latency in cycles (Table 3: 85).
    pub const LATENCY_CYCLES: u64 = 85;
    /// Clock (the paper quotes 250 MHz).
    pub const CLOCK_HZ: u64 = 250_000_000;
    /// Peak packet rate at 64 B (Table 3: 53 Mpps).
    pub const PEAK_MPPS_64B: f64 = 53.0;
    /// Parsers are replicated per port (§5.3: "a header parser for every
    /// port"). With [`Self::STAGES`] it sets the resource estimate,
    /// pinned by Table 3 · P4FPGA · memory and logic.
    pub const PARSERS: usize = 4;
    /// Match-action stages in the generated pipeline (a modelling choice;
    /// with the parsers it sets the resource estimate).
    pub const STAGES: usize = 4;

    /// Creates the baseline with an empty 256-entry MAC table.
    pub fn new() -> Self {
        P4FpgaCore {
            table: CamTable::new(256, 48, 8),
        }
    }
}

impl Default for P4FpgaCore {
    fn default() -> Self {
        Self::new()
    }
}

impl NativeCore for P4FpgaCore {
    fn name(&self) -> &str {
        "p4fpga-switch"
    }

    fn process(&mut self, frame: &Frame) -> Vec<TxFrame> {
        transmit(&mut self.table, frame)
    }

    fn module_latency_cycles(&self) -> u64 {
        Self::LATENCY_CYCLES
    }

    fn clock_hz(&self) -> u64 {
        Self::CLOCK_HZ
    }

    fn initiation_ns(&self, _frame_len: usize) -> f64 {
        // The deparser serializes the pipeline at the published peak rate.
        1e3 / Self::PEAK_MPPS_64B
    }

    fn resources(&self) -> ResourceReport {
        // Generated pipeline: replicated parsers, wide match stages with
        // hash units, action ALUs, deparser. Component values follow the
        // published utilization breakdown of P4FPGA-style pipelines: the
        // generated code dominates (Table 3's 24161 vs Emu's 3509). A
        // modelling choice, pinned by Table 3 · P4FPGA · memory (near 236)
        // and logic (a recorded deviation, 26708 against 24161).
        let mut rep = ResourceReport::default();
        for i in 0..Self::PARSERS {
            rep.add(&format!("parser{i}"), 1450, 8, 700);
        }
        for i in 0..Self::STAGES {
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
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emu_types::wire::l2_frame as frame;

    #[test]
    fn switch_learns_then_forwards_unicast() {
        let mut sw = RefSwitchCore::new();
        // A (port 0) -> B: flood (B unknown), learn A.
        let out = sw.process(&frame(0xA, 0xB, 0));
        assert_eq!(out[0].ports, 0b1110);
        // B (port 1) -> A: unicast to port 0, learn B.
        let out = sw.process(&frame(0xB, 0xA, 1));
        assert_eq!(out[0].ports, 0b0001);
        // A -> B now unicast to port 1.
        let out = sw.process(&frame(0xA, 0xB, 0));
        assert_eq!(out[0].ports, 0b0010);
    }

    #[test]
    fn unknown_broadcast_floods() {
        let mut sw = RefSwitchCore::new();
        let out = sw.process(&frame(0xA, 0xffff_ffff_ffff, 2));
        assert_eq!(out[0].ports, 0b1011);
    }

    #[test]
    fn hairpin_suppressed() {
        let mut sw = RefSwitchCore::new();
        sw.process(&frame(0xA, 0xB, 0)); // learn A@0
                                         // B -> A arriving on port 0 (A's own port): bitmap is 1<<0, which
                                         // includes the arrival port — the reference design forwards by
                                         // table blindly; flooding never reflects though.
        let out = sw.process(&frame(0xC, 0xD, 1));
        assert_eq!(out[0].ports & (1 << 1), 0, "flood must exclude arrival");
    }

    #[test]
    fn baseline_timing_parameters() {
        let r = RefSwitchCore::new();
        assert_eq!(r.module_latency_cycles(), 6);
        // 64-byte frame = 2 beats = 10 ns initiation: faster than the
        // 16.8 ns aggregate line rate, hence full line rate in Table 3.
        assert!((r.initiation_ns(64) - 10.0).abs() < 1e-9);

        let p = P4FpgaCore::default();
        assert_eq!(p.module_latency_cycles(), 85);
        // 53 Mpps -> 18.87 ns between packets.
        assert!((p.initiation_ns(64) - 18.867).abs() < 0.01);
    }

    #[test]
    fn baseline_resources_ordering() {
        // P4FPGA must dwarf the reference switch (Table 3: 24161 vs 2836).
        let r = RefSwitchCore::new().resources();
        let p = P4FpgaCore::default().resources();
        assert!(p.logic > 5 * r.logic, "p4 {} vs ref {}", p.logic, r.logic);
        assert!(p.memory > r.memory);
    }
}
