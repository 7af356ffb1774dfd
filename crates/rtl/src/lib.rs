//! The hardware around the core: the reproduction's "FPGA" board.
//!
//! The paper runs compiled services on a NetFPGA SUME card; here the
//! compiled FSM runs cycle-accurately on `kiwi_ir::Core`
//! (`kiwi_ir::Code::Fpga`), and this crate models what it is wired to.
//! It provides:
//!
//! * IP blocks ([`ipblocks`]): each block's port handle and the
//!   behavioural model built from it — CAM, Pearson hash (Figure 5)
//!   and the Figure 9 LRU queue,
//! * the CAM tables behind them ([`CamTable`], and [`CamPair`] for NAT's
//!   two directions),
//! * AXI4-Stream beat arithmetic ([`beats_for_len`]) for the SUME 256-bit
//!   datapath,
//! * VCD waveform dumping ([`VcdTrace`]) for debugging without an RTL
//!   simulator.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod axis;
mod cam;
pub mod ipblocks;
mod vcd;

pub use axis::beats_for_len;
pub use cam::{CamPair, CamTable};
pub use ipblocks::{
    CamDeleteIf, CamIf, CamModel, HashIf, IpBlockModel, IpEnv, LruIf, NaughtyQIf, NaughtyQModel,
    PairedCamModel, PearsonHashModel,
};
pub use vcd::VcdTrace;
