//! Timing constants for the NetFPGA SUME platform model, and
//! [`NodeClock`], the one port-to-port timing model of an Emu node.
//!
//! Everything here reproduces §5.1's hardware description: a Virtex-7
//! fabric clocked at 200 MHz, four 10 GbE ports, and the reference
//! pipeline of Figure 10 (input arbiter → main logical core → output
//! queues). The MAC/PHY constants are the usual figures for 10GBASE-R
//! with a store-and-forward MAC, chosen so the end-to-end RTTs land in
//! the 1.0–2.0 µs band the paper measures with the DAG card (Table 4).
//!
//! Each constant says where its value comes from — a sentence of the
//! paper, or a modelling choice — and which cell of `emu_bench::PAPER`
//! pins it: the gate `every_paper_cell_holds` fails if a change here
//! moves that cell out of its check. `cargo run --release -p emu-bench
//! --bin paper` prints every cell beside the paper's.

/// Core clock: 200 MHz (§5.1, "NetFPGA SUME's native frequency").
/// Every Emu cycle count becomes time through it; pinned with the
/// others by the Table 4 Emu latency cells.
pub(crate) const CLOCK_HZ: u64 = 200_000_000;

/// Nanoseconds per core cycle.
pub const NS_PER_CYCLE: f64 = 1e9 / CLOCK_HZ as f64;

/// Port rate: 10 Gb/s per port (§5.1). Pinned by the line-rate cells,
/// Table 3 · Emu / reference · 64 B throughput (59.52 Mpps, within 1 %).
pub(crate) const PORT_GBPS: f64 = 10.0;

/// Number of front-panel ports.
pub const NUM_PORTS: usize = 4;

/// Nanoseconds to serialize one byte on a 10G link.
pub(crate) const NS_PER_BYTE: f64 = 8.0 / PORT_GBPS;

/// One-way PHY + MAC latency per direction (10GBASE-R PCS/PMA plus a
/// store-and-forward MAC FIFO): ~320 ns, a textbook figure for this
/// generation of hardware.
///
/// A modelling choice, not a paper figure: the paper reports only the
/// end-to-end latency, and 2 × 320 ns is most of it. It was chosen to
/// land Table 4's Emu latencies in their 1–2 µs band; pinned by
/// Table 4 · icmp-echo and memcached · Emu avg and p99 (near the
/// paper), the rows whose cycle counts match the paper's build.
pub const MAC_PHY_NS: f64 = 320.0;

/// Input arbiter grant delay: a 4-cycle round-robin decision. A
/// modelling choice (the paper gives no figure); pinned with
/// [`MAC_PHY_NS`] by the Table 4 Emu latency cells.
pub const ARBITER_NS: f64 = 4.0 * NS_PER_CYCLE;

/// Output queue enqueue/dequeue overhead: 3 cycles. A modelling choice
/// (the paper gives no figure); pinned with [`MAC_PHY_NS`] by the
/// Table 4 Emu latency cells.
pub const OUT_QUEUE_NS: f64 = 3.0 * NS_PER_CYCLE;

/// One Emu node's port-to-port timing around its one core, less the
/// port queues: `PipelineSim` (Tables 3/4, §5.4, §5.6) and NetSim's
/// service node both time frames with it. A frame is ready
/// [`MAC_PHY_NS`] + [`ARBITER_NS`] after its last bit is in, starts on
/// the clock grid behind the frame before it, is done after its cycles
/// and leaves [`OUT_QUEUE_NS`] later; the egress MAC adds [`MAC_PHY_NS`].
/// The core holds one frame at a time, so departures keep arrival order.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeClock {
    core_free_ns: f64,
}

impl NodeClock {
    /// What every frame pays on the path whatever its cycles and its
    /// queue: the MAC/PHY both ways, the arbiter and the output queue.
    pub const FIXED_NS: f64 = 2.0 * MAC_PHY_NS + ARBITER_NS + OUT_QUEUE_NS;

    /// Admits a frame that reached the MAC at `t_ns` (its last bit; a
    /// streaming core's first) to a core clocked every `cyc_ns`, busy
    /// for `busy_ns`; returns the start. The frame is ready after the
    /// MAC and the arbiter; an idle core samples it on its next clock
    /// edge, a busy one takes it as it frees up (re-snapping would
    /// over-quantize a clock-exact busy time).
    pub fn admit(&mut self, t_ns: f64, cyc_ns: f64, busy_ns: f64) -> f64 {
        let t_ready = t_ns + MAC_PHY_NS + ARBITER_NS;
        let start = if self.core_free_ns > t_ready {
            self.core_free_ns
        } else {
            (t_ready / cyc_ns).ceil() * cyc_ns
        };
        self.core_free_ns = start + busy_ns;
        start
    }

    /// Serves a frame whose last bit arrived at `t_in_ns` on an
    /// iterative Emu core busy for `cycles`; returns when it leaves the
    /// output queue for the egress MAC.
    pub fn serve(&mut self, t_in_ns: f64, cycles: u64) -> f64 {
        let busy = cycles as f64 * NS_PER_CYCLE;
        let start = self.admit(t_in_ns, NS_PER_CYCLE, busy);
        start + busy + OUT_QUEUE_NS
    }
}

/// Wire time of a frame (bytes on the wire including the 20-byte
/// preamble/IFG overhead convention used for the paper's 59.52 Mpps).
pub fn wire_ns(frame_bytes: usize) -> f64 {
    (frame_bytes.max(60) + emu_types::proto::frame::WIRE_OVERHEAD) as f64 * NS_PER_BYTE
}

/// Aggregate line rate in packets/s for a given frame size across all
/// four ports — 59.52 Mpps at 64 bytes.
pub fn line_rate_pps(frame_bytes: usize) -> f64 {
    NUM_PORTS as f64 * 1e9 / wire_ns(frame_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_rate_matches_table3() {
        let mpps = line_rate_pps(64) / 1e6;
        assert!((mpps - 59.52).abs() < 0.01, "got {mpps}");
    }

    #[test]
    fn wire_time_of_min_frame() {
        // 84 bytes at 0.8 ns/byte = 67.2 ns.
        assert!((wire_ns(64) - 67.2).abs() < 1e-9);
        // Short frames are padded to the 64-byte minimum.
        assert_eq!(wire_ns(10), wire_ns(60));
    }

    #[test]
    fn cycle_time_is_5ns() {
        assert!((NS_PER_CYCLE - 5.0).abs() < 1e-12);
    }
}
