//! The reference pipeline of Figure 10: ports → input arbiter → main
//! logical core → output queues → ports.
//!
//! The pipeline is simulated as a discrete-event model in nanoseconds
//! around a functionally-exact core: every frame is actually processed by
//! the compiled FSM (or a native baseline), and the cycles it consumed —
//! measured by the cycle-accurate executor — drive the timing model. This
//! split (functional model + timing model) is standard simulator practice
//! and is what lets the same harness produce Table 3's module
//! latency/throughput and Table 4's end-to-end service latencies.
//!
//! Two core timing disciplines exist, matching how the paper's designs
//! behave:
//!
//! * **iterative** — the core accepts the next frame only after finishing
//!   the current one (request/response services: ICMP echo, DNS,
//!   Memcached, NAT). Throughput is loop-limited, as in Table 4.
//! * **streaming** — Kiwi's "maximal pipelining" (§3.4) overlaps
//!   iterations; admission is limited by the 256-bit stream itself (one
//!   frame per its beat count), so the switch reaches full line rate
//!   (Table 3) while module latency stays the measured FSM path.

use crate::dataplane::{DataplaneDriver, TxFrame, TxList};
use crate::native::Baseline;
use crate::timing::{self, NodeClock};
use emu_rtl::IpEnv;
use emu_types::{Frame, Summary};
use kiwi_ir::interp::NullObserver;
use kiwi_ir::IrResult;

/// Timing discipline for an Emu core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreMode {
    /// One frame at a time; next admission after `rx_done`.
    Iterative,
    /// Pipelined admission at stream rate; latency = measured FSM cycles.
    Streaming,
}

/// Per-frame observation, the DAG-card analogue (§5.2: "all traffic is
/// captured by the DAG card and used to measure the latency of the
/// device-under-test alone").
#[derive(Debug, Clone, PartialEq)]
pub struct FrameRecord {
    /// Arrival port.
    pub in_port: u8,
    /// First bit on the ingress wire, ns.
    pub t_in_ns: f64,
    /// Last bit off the egress wire, ns (`None`: consumed or dropped).
    pub t_out_ns: Option<f64>,
    /// Destination bitmap of the first transmission (0 if none).
    pub out_ports: u8,
    /// Core cycles consumed (module latency for this frame).
    pub core_cycles: u64,
}

enum CoreBox {
    Emu {
        driver: Box<DataplaneDriver>,
        env: IpEnv,
        mode: CoreMode,
    },
    Native {
        design: Baseline,
        table: Box<emu_rtl::CamTable>,
    },
}

/// Output queue capacity in frames, per port: a frame that would wait
/// behind more than this many wire times of its own length is dropped.
pub const OUT_QUEUE_FRAMES: usize = 64;

/// The simulated pipeline.
pub struct PipelineSim {
    core: CoreBox,
    clock: NodeClock,
    out_port_free_ns: [f64; timing::NUM_PORTS],
    records: Vec<FrameRecord>,
    /// Frames dropped at full output queues.
    pub queue_drops: u64,
}

impl PipelineSim {
    /// Builds a pipeline around a compiled Emu core.
    pub fn new_emu(driver: DataplaneDriver, env: IpEnv, mode: CoreMode) -> Self {
        let driver = Box::new(driver);
        Self::around(CoreBox::Emu { driver, env, mode })
    }

    /// Builds a pipeline around a Table 3 baseline with an empty table.
    pub fn new_native(design: Baseline) -> Self {
        let table = Box::new(Baseline::table());
        Self::around(CoreBox::Native { design, table })
    }

    fn around(core: CoreBox) -> Self {
        PipelineSim {
            core,
            clock: NodeClock::default(),
            out_port_free_ns: [0.0; timing::NUM_PORTS],
            records: Vec::new(),
            queue_drops: 0,
        }
    }

    /// All per-frame records.
    pub fn records(&self) -> &[FrameRecord] {
        &self.records
    }

    /// Latency samples (ns) of frames that produced output.
    pub fn latencies_ns(&self) -> Vec<f64> {
        latencies_ns(&self.records)
    }

    /// Latency summary.
    pub fn summary(&self) -> Option<Summary> {
        Summary::of(&self.latencies_ns())
    }

    /// Achieved throughput in packets/s over the span of completed
    /// frames; 0 with fewer than two.
    pub fn throughput_pps(&self) -> f64 {
        throughput_pps(&self.records).unwrap_or(0.0)
    }

    /// Injects a frame whose first bit hits the ingress wire at `t_ns`.
    /// Frames must be injected in nondecreasing time order.
    pub fn inject(&mut self, frame: &Frame, t_ns: f64) -> IrResult<()> {
        let in_len = frame.len();
        // Every arm times the core with the node's `NodeClock`.
        let (outputs, cycles, t_leave): (TxList, _, _) = match &mut self.core {
            CoreBox::Emu { driver, env, mode } => {
                let out = driver.process(frame, env, &mut NullObserver)?;
                let cycles = out.cycles;
                let t_leave = match mode {
                    // Store-and-forward: the frame is fully received first.
                    CoreMode::Iterative => self.clock.serve(t_ns + timing::wire_ns(in_len), cycles),
                    CoreMode::Streaming => {
                        // Cut-through-ish: the core sees headers as beats
                        // arrive; admission is limited by the stream.
                        let ii = emu_rtl::beats_for_len(in_len) as f64 * timing::NS_PER_CYCLE;
                        let start = self.clock.admit(t_ns, timing::NS_PER_CYCLE, ii);
                        start + cycles as f64 * timing::NS_PER_CYCLE + timing::OUT_QUEUE_NS
                    }
                };
                (out.tx, cycles, t_leave)
            }
            CoreBox::Native { design, table } => {
                let tx = Baseline::process(table, frame);
                let cyc = design.module_latency_cycles();
                // Snap to the *core's* clock grid (e.g. P4FPGA at 250 MHz).
                let cyc_ns = 1e9 / design.clock_hz() as f64;
                let ii = design.initiation_ns(in_len);
                let done = self.clock.admit(t_ns, cyc_ns, ii) + cyc as f64 * cyc_ns;
                (tx, cyc, done + timing::OUT_QUEUE_NS)
            }
        };

        let mut rec = FrameRecord {
            in_port: frame.in_port,
            t_in_ns: t_ns,
            t_out_ns: None,
            out_ports: 0,
            core_cycles: cycles,
        };

        for tx in &outputs {
            let out = self.egress(tx, t_leave);
            if rec.t_out_ns.is_none() {
                rec.t_out_ns = out;
                rec.out_ports = tx.ports;
            }
        }
        self.records.push(rec);
        Ok(())
    }

    /// Enqueues a transmission that left the output queue at `t_q` on
    /// each destination port; returns the wire completion time of the
    /// earliest copy.
    fn egress(&mut self, tx: &TxFrame, t_q: f64) -> Option<f64> {
        let len = tx.frame.len();
        let wire = timing::wire_ns(len);
        let mut first: Option<f64> = None;
        for p in 0..timing::NUM_PORTS {
            if tx.ports & (1 << p) == 0 {
                continue;
            }
            let backlog = self.out_port_free_ns[p] - t_q;
            if backlog > OUT_QUEUE_FRAMES as f64 * wire {
                self.queue_drops += 1;
                continue;
            }
            let t_egress = t_q.max(self.out_port_free_ns[p]);
            self.out_port_free_ns[p] = t_egress + wire;
            let t_done = t_egress + wire + timing::MAC_PHY_NS;
            first = Some(first.map_or(t_done, |f: f64| f.min(t_done)));
        }
        first
    }
}

/// Latency samples (ns) of the `records` whose frames produced output.
pub fn latencies_ns(records: &[FrameRecord]) -> Vec<f64> {
    records
        .iter()
        .filter_map(|r| r.t_out_ns.map(|o| o - r.t_in_ns))
        .collect()
}

/// Throughput in packets/s of the `records`' completed frames, from the
/// first arrival to the last departure; `None` with fewer than two.
pub fn throughput_pps(records: &[FrameRecord]) -> Option<f64> {
    let outs: Vec<f64> = records.iter().filter_map(|r| r.t_out_ns).collect();
    if outs.len() < 2 {
        return None;
    }
    let t_first_in = records
        .iter()
        .map(|r| r.t_in_ns)
        .fold(f64::INFINITY, f64::min);
    let t_last = outs.iter().fold(0.0f64, |a, &b| a.max(b));
    Some((outs.len() as f64) / ((t_last - t_first_in) / 1e9))
}

#[cfg(test)]
mod tests {
    use super::*;
    use emu_types::wire::l2_frame as test_frame;

    #[test]
    fn native_switch_single_frame_latency() {
        let mut sim = PipelineSim::new_native(Baseline::Reference);
        sim.inject(&test_frame(0xA, 0xB, 0), 0.0).unwrap();
        let s = sim.summary().unwrap();
        // Wire (67.2) + 2×MAC (640) + arbiter + 6 cycles + queue + wire:
        // total should sit near 850–900 ns... the exact budget:
        // in-wire is not counted at head for native (cut-through at head),
        // so: MAC+ARB (340) + 30ns core + queue 15 + wire 67.2 + MAC 320.
        assert!(s.mean > 600.0 && s.mean < 1200.0, "mean {}", s.mean);
    }

    /// Learns MAC `100 + p` on each port `p`, then offers 64 B frames at
    /// aggregate line rate with each port sending to its neighbour's MAC,
    /// so egress load spreads evenly over all four ports.
    fn offer_line_rate(sim: &mut PipelineSim, n: u64) {
        for p in 0..4u8 {
            sim.inject(
                &test_frame(100 + u64::from(p), 0xEE, p),
                f64::from(p) * 100.0,
            )
            .unwrap();
        }
        let gap = timing::wire_ns(64) / timing::NUM_PORTS as f64;
        let mut t = 1000.0;
        for i in 0..n {
            let port = (i % 4) as u8;
            let dst = 100 + (u64::from(port) + 1) % 4;
            sim.inject(&test_frame(100 + u64::from(port), dst, port), t)
                .unwrap();
            t += gap;
        }
    }

    #[test]
    fn line_rate_through_reference_switch() {
        let mut sim = PipelineSim::new_native(Baseline::Reference);
        offer_line_rate(&mut sim, 4000);
        let mpps = sim.throughput_pps() / 1e6;
        assert!(mpps > 55.0 && mpps < 62.0, "got {mpps} Mpps");
        assert_eq!(sim.queue_drops, 0);
    }

    #[test]
    fn p4fpga_saturates_below_line_rate() {
        let mut sim = PipelineSim::new_native(Baseline::P4Fpga);
        offer_line_rate(&mut sim, 4000);
        let mpps = sim.throughput_pps() / 1e6;
        assert!(mpps > 48.0 && mpps < 56.0, "got {mpps} Mpps");
    }

    #[test]
    fn p4fpga_latency_exceeds_reference() {
        let mut ref_sim = PipelineSim::new_native(Baseline::Reference);
        let mut p4_sim = PipelineSim::new_native(Baseline::P4Fpga);
        ref_sim.inject(&test_frame(0xA, 0xB, 0), 0.0).unwrap();
        p4_sim.inject(&test_frame(0xA, 0xB, 0), 0.0).unwrap();
        let r = ref_sim.summary().unwrap().mean;
        let p = p4_sim.summary().unwrap().mean;
        // 85 cycles @4 ns vs 6 cycles @5 ns: ~310 ns extra.
        assert!(p > r + 250.0, "p4 {p} vs ref {r}");
    }

    #[test]
    fn snap_quantizes_to_cycle_grid() {
        // The only latency "jitter" a synchronous design exhibits (cf.
        // §5.6 on hardware predictability).
        let ingress = timing::MAC_PHY_NS + timing::ARBITER_NS;
        let snap = |t| NodeClock::default().admit(t - ingress, timing::NS_PER_CYCLE, 0.0);
        assert_eq!(snap(0.0), 0.0);
        assert_eq!(snap(0.1), 5.0);
        assert_eq!(snap(5.0), 5.0);
        assert_eq!(snap(12.3), 15.0);
    }
}
