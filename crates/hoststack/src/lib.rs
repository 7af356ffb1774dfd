//! The host baseline: a model of the Linux network path plus host-native
//! service implementations.
//!
//! Table 4 of the paper compares each Emu service against its "Linux
//! native counterpart" measured through the kernel stack (§5.4). This
//! crate provides that side of the comparison:
//!
//! * [`HostProfile`] — the staged receive/transmit path model (NIC DMA,
//!   IRQ, softirq, stack, socket wake-up, application) with per-service
//!   profiles calibrated to the paper's averages and tail ratios, drawn
//!   from auditable samplers (Box–Muller, lognormal) written out here,
//! * [`HostIcmpEcho`], [`HostDns`] and [`HostMemcached`] — software ICMP
//!   echo, DNS and memcached, the references the Emu services' replies
//!   are checked against byte for byte (`emu_traffic::HostChecker`),
//! * [`Memaslap`] — a memaslap-style load generator.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod path;
mod rng;
mod services;
mod workload;

pub use path::HostProfile;
pub use services::{HostDns, HostIcmpEcho, HostMemcached, HostService};
pub use workload::Memaslap;
