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
//! Both are *models of third-party artifacts we cannot run*: their
//! functional behaviour (MAC learning, forwarding) is implemented for
//! real, their resources are computed from the same cost model as Emu
//! designs where possible, and their published timing figures are
//! parameters. Each figure below says whether it is a Table 3 cell or a
//! modelling choice, and which cell of `emu_bench::PAPER` pins it.

use crate::dataplane::TxFrame;
use crate::timing;
use emu_types::{Frame, MacAddr};
use kiwi::resources::{IpBlock, ResourceReport};
use std::collections::HashMap;

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

/// Shared learning-switch functional behaviour (used by both baselines so
/// that Table 3 compares identical functionality).
#[derive(Debug, Default)]
pub struct MacTable {
    map: HashMap<u64, u8>,
    order: Vec<u64>,
    capacity: usize,
    rr: usize,
}

impl MacTable {
    /// Creates a table with `capacity` entries (Table 3 uses 256).
    pub fn new(capacity: usize) -> Self {
        MacTable {
            map: HashMap::new(),
            order: Vec::new(),
            capacity,
            rr: 0,
        }
    }

    /// Learns `mac → port`, evicting round-robin when full.
    pub fn learn(&mut self, mac: MacAddr, port: u8) {
        let key = mac.to_u64();
        if let std::collections::hash_map::Entry::Occupied(mut e) = self.map.entry(key) {
            e.insert(port);
            return;
        }
        if self.map.len() >= self.capacity {
            let victim = self.order[self.rr % self.order.len()];
            self.map.remove(&victim);
            self.order[self.rr % self.capacity] = key;
            self.rr = (self.rr + 1) % self.capacity;
        } else {
            self.order.push(key);
        }
        self.map.insert(key, port);
    }

    /// Looks up the port for `mac`.
    pub fn lookup(&self, mac: MacAddr) -> Option<u8> {
        self.map.get(&mac.to_u64()).copied()
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are present.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Switch forwarding decision shared by every switch implementation,
/// with Figure 2 semantics: look up the destination first (forward to the
/// learned port or flood, never reflecting a flood to the arrival port),
/// then learn the source only if it is not already in the table.
pub fn switch_forward(table: &mut MacTable, frame: &Frame, num_ports: usize) -> Vec<TxFrame> {
    let src = frame.src_mac();
    let dst = frame.dst_mac();
    let all: u8 = ((1u16 << num_ports) - 1) as u8;
    let ports = match table.lookup(dst) {
        Some(p) if !dst.is_broadcast() => 1u8 << p,
        _ => all & !(1u8 << frame.in_port),
    };
    if !src.is_multicast() && table.lookup(src).is_none() {
        table.learn(src, frame.in_port);
    }
    if ports == 0 {
        return Vec::new();
    }
    vec![TxFrame {
        ports,
        frame: frame.clone(),
    }]
}

/// The NetFPGA SUME reference learning switch (native Verilog baseline).
pub struct RefSwitchCore {
    table: MacTable,
}

impl RefSwitchCore {
    /// Creates the reference switch with a 256-entry MAC table.
    pub fn new() -> Self {
        RefSwitchCore {
            table: MacTable::new(256),
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
        switch_forward(&mut self.table, frame, timing::NUM_PORTS)
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

/// Configuration for the P4FPGA baseline, encoding its published figures.
/// Latency and peak rate are Table 3 cells, pinned exactly and within
/// 1 % by Table 3 · P4FPGA · module latency and 64 B throughput.
#[derive(Debug, Clone)]
pub struct P4FpgaConfig {
    /// Pipeline latency in cycles (Table 3: 85).
    pub latency_cycles: u64,
    /// Clock (the paper quotes 250 MHz).
    pub clock_hz: u64,
    /// Peak packet rate at 64 B (Table 3: 53 Mpps).
    pub peak_mpps_64b: f64,
    /// Parsers are replicated per port (§5.3: "a header parser for every
    /// port").
    pub parsers: usize,
    /// Match-action stages in the generated pipeline (a modelling choice;
    /// with the parsers it sets the resource estimate).
    pub stages: usize,
}

impl Default for P4FpgaConfig {
    fn default() -> Self {
        P4FpgaConfig {
            latency_cycles: 85,
            clock_hz: 250_000_000,
            peak_mpps_64b: 53.0,
            parsers: 4,
            stages: 4,
        }
    }
}

/// The P4FPGA-compiled switch baseline.
pub struct P4FpgaCore {
    cfg: P4FpgaConfig,
    table: MacTable,
}

impl P4FpgaCore {
    /// Creates the baseline with the published default parameters.
    pub fn new(cfg: P4FpgaConfig) -> Self {
        P4FpgaCore {
            cfg,
            table: MacTable::new(256),
        }
    }
}

impl Default for P4FpgaCore {
    fn default() -> Self {
        Self::new(P4FpgaConfig::default())
    }
}

impl NativeCore for P4FpgaCore {
    fn name(&self) -> &str {
        "p4fpga-switch"
    }

    fn process(&mut self, frame: &Frame) -> Vec<TxFrame> {
        switch_forward(&mut self.table, frame, timing::NUM_PORTS)
    }

    fn module_latency_cycles(&self) -> u64 {
        self.cfg.latency_cycles
    }

    fn clock_hz(&self) -> u64 {
        self.cfg.clock_hz
    }

    fn initiation_ns(&self, _frame_len: usize) -> f64 {
        // The deparser serializes the pipeline at the published peak rate.
        1e3 / self.cfg.peak_mpps_64b
    }

    fn resources(&self) -> ResourceReport {
        // Generated pipeline: replicated parsers, wide match stages with
        // hash units, action ALUs, deparser. Component values follow the
        // published utilization breakdown of P4FPGA-style pipelines: the
        // generated code dominates (Table 3's 24161 vs Emu's 3509). A
        // modelling choice, pinned by Table 3 · P4FPGA · memory (near 236)
        // and logic (a recorded deviation, 26708 against 24161).
        let mut rep = ResourceReport::default();
        for i in 0..self.cfg.parsers {
            rep.add(&format!("parser{i}"), 1450, 8, 700);
        }
        for i in 0..self.cfg.stages {
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
    use emu_types::proto::ether_type;
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
    fn broadcast_always_floods() {
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
    fn mac_table_eviction_at_capacity() {
        let mut t = MacTable::new(4);
        for i in 0..6u64 {
            t.learn(MacAddr::from_u64(i), (i % 4) as u8);
        }
        assert_eq!(t.len(), 4);
        // The first two entries were evicted round-robin.
        assert!(t.lookup(MacAddr::from_u64(0)).is_none());
        assert!(t.lookup(MacAddr::from_u64(1)).is_none());
        assert!(t.lookup(MacAddr::from_u64(5)).is_some());
    }

    #[test]
    fn multicast_source_not_learned() {
        let mut t = MacTable::new(8);
        let mcast = MacAddr([0x01, 0, 0x5e, 0, 0, 1]);
        let f = {
            let mut f = Frame::ethernet(MacAddr::from_u64(2), mcast, ether_type::IPV4, &[0; 46]);
            f.in_port = 0;
            f
        };
        switch_forward(&mut t, &f, 4);
        assert!(t.is_empty());
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
