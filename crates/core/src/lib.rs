//! The Emu standard library — the paper's primary contribution.
//!
//! "Emu provides the implementation for essential network functionality"
//! the way stdlib does for C (§1). Concretely:
//!
//! * [`Dataplane`] — the Figure 6 utility surface (`Get_Frame`,
//!   `Set_Output_Port`, `Broadcast`, `EtherType_Is`, ...) over the
//!   NetFPGA dataplane contract,
//! * [`proto`] — the protocol wrappers of Figures 3–4 (IPv4, ICMP, UDP,
//!   TCP, DNS; the Ethernet fields are [`Dataplane`] methods),
//! * [`csum`] — RFC 1071/1624 checksum arithmetic as IR expressions,
//! * [`ipblock`] — port handles for hardware IP blocks: CAM, the
//!   Figure 5 streaming hash and the Figure 9 LRU cache
//!   (re-exported from beside their models in `emu-rtl`),
//! * [`Service`] — the heterogeneous-target service description: one
//!   program targeting the CPU (compiled bytecode or tree-walking
//!   interpreter) or FPGA (cycle-accurate FSM), the RSS flow digest,
//!   and the differential-testing harness ([`assert_targets_agree`]),
//! * [`Engine`] — the unified execution surface: [`Service::engine`]
//!   builds an [`Engine`] of 1..N replicated pipelines behind a
//!   pluggable [`Dispatch`] policy, with sequential (cost-model) and
//!   real-thread parallel execution.
//!
//! Services built from these pieces live in `emu-services`; the Mininet
//! analogue in `netsim` provides the third target.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod csum;
mod dataplane;
mod engine;
pub mod ipblock;
pub mod proto;
mod runner;

pub use dataplane::Dataplane;
pub use engine::{
    BatchReport, Dispatch, Engine, EngineBuilder, EngineError, EngineResult, NatSteering, RssHash,
    Shard,
};
pub use ipblock::{CamDeleteIf, CamIf, HashIf, LruIf, NaughtyQIf};
pub use proto::{DnsWrapper, IcmpWrapper, Ipv4Wrapper, TcpWrapper, UdpWrapper};
pub use runner::{
    assert_targets_agree, flow_hash, flow_key, service_builder, Backend, Service, TableConfig,
    Target, FPGA_MAX_TABLE_ENTRIES,
};
