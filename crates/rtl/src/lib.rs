//! Cycle-accurate execution substrate: the reproduction's "FPGA".
//!
//! The paper runs compiled services on a NetFPGA SUME card; this crate
//! runs the same compiled FSMs in a cycle-accurate simulator instead.
//! It provides:
//!
//! * [`RtlMachine`] — one 5 ns clock edge per step, with a state-occupancy
//!   profiler,
//! * [`Core`] — one service core on any of the three machines (the
//!   tree-walker, the compiled bytecode, or the FSM), which the platform
//!   driver steps the same way whatever runs it,
//! * IP blocks ([`ipblocks`]): each block's port handle and the
//!   behavioural model built from it — CAM, Pearson hash (Figure 5),
//!   FIFO, the Figure 9 LRU queue, and BRAM,
//! * AXI4-Stream beat arithmetic ([`axis`]) for the SUME 256-bit datapath,
//! * VCD waveform dumping ([`vcd`]) for debugging without an RTL
//!   simulator.

#![forbid(unsafe_code)]

pub mod axis;
pub mod cam;
pub mod exec;
pub mod ipblocks;
pub mod vcd;

pub use axis::beats_for_len;
pub use cam::{CamPair, CamStats, CamTable, PartnerKeyFn, RemoveCause, Removed, WriteEffect};
pub use exec::{Core, RtlMachine};
pub use ipblocks::{
    BramIf, BramModel, CamDeleteIf, CamIf, CamModel, FifoIf, FifoModel, HashIf, IpBlockModel,
    IpEnv, LruIf, NaughtyQIf, NaughtyQModel, PairedCamModel, PearsonHashModel,
};
pub use vcd::VcdTrace;
