//! # `emu-hosts` — closed-loop endpoint agents for NetSim
//!
//! Everything the engines processed before this crate was pushed
//! open-loop: a harness generated frames, streamed them in, and
//! counted what came out. Loss, reordering, and latency could change
//! *counters* but never *behavior*. The emulation literature (EmuFog;
//! Lochin et al., *When Should I Use Network Emulation?*) is blunt
//! about what that misses: temporal behavior — timeouts, retries,
//! round-trip times — is the half of fidelity that separates a demo
//! from a testbed.
//!
//! This crate supplies the missing endpoints as [`netsim::HostAgent`]s
//! that live *inside* the event loop:
//!
//! * [`TcpClient`] — the paper's §4.2 TCP-ping prober as a real state
//!   machine: SYN, retransmission timeout, exponential backoff,
//!   SYN-ACK verification.
//! * [`McClient`] — a memcached client driving GET/SET/DELETE mixes
//!   against the §4.3 service, verifying every response against a
//!   shadow store that models timed-out-write uncertainty.
//! * [`DnsClient`] — a resolver client verifying A records and
//!   NXDOMAINs against the configured zone.
//! * [`Responder`] — the external peer that bounces NAT return traffic
//!   natively instead of the harness synthesizing it.
//! * [`topo`] — seeded fat-tree generation: dozens of sharded engines
//!   and impaired links from one [`topo::TopoSpec`], with merged
//!   client-side accounting ([`topo::TopoSummary`]).
//!
//! All three clients share one driver ([`Client`] over a
//! [`RequestProto`]): window-1 closed loop, per-request timers, bounded
//! retries, duplicate suppression, Karn-rule RTT sampling into
//! `emu-telemetry` histograms, and per-request
//! [`emu_traffic::ClientOutcome`] records for the
//! [`emu_traffic::ClientCheck`] invariant checker. Every quantity is
//! simulation-time, so a seed replays byte-identically.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod client;
mod dns;
mod mc;
mod responder;
mod stats;
mod tcp;
pub mod topo;

pub use client::{Client, ClientConfig, RequestProto, KICK};
pub use dns::DnsClient;
pub use mc::McClient;
pub use responder::Responder;
pub use tcp::TcpClient;
pub use topo::{fat_tree, Topo, TopoSpec, TopoSummary};
