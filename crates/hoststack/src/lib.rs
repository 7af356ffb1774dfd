//! The host baseline: a model of the Linux network path plus host-native
//! service implementations.
//!
//! Table 4 of the paper compares each Emu service against its "Linux
//! native counterpart" measured through the kernel stack (§5.4). This
//! crate provides that side of the comparison:
//!
//! * [`path`] — the staged receive/transmit path model (NIC DMA, IRQ,
//!   softirq, stack, socket wake-up, application) with per-service
//!   profiles calibrated to the paper's averages and tail ratios,
//! * [`services`] — software ICMP echo, DNS and memcached, the
//!   references the Emu services' replies are checked against byte for
//!   byte (`emu_traffic::HostChecker`),
//! * [`workload`] — a memaslap-style load generator,
//! * [`rng`] — auditable samplers (Box–Muller, lognormal).

#![forbid(unsafe_code)]

pub mod path;
pub mod rng;
pub mod services;
pub mod workload;

pub use path::{HostProfile, Stage};
pub use services::{HostDns, HostIcmpEcho, HostMemcached, HostService};
pub use workload::{McOp, Memaslap};
