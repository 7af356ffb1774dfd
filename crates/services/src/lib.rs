//! The network services of the paper's §4, written against the Emu
//! standard library (`emu-core`) exactly as the paper's C# services are
//! written against Emu:
//!
//! * [`switch`] — L2 learning switch, behavioural-CAM and IP-CAM
//!   variants (§4.1, Figure 2; Table 3's device under test),
//! * [`filter`] — L3/L4 filter with an iptables-style rule front end
//!   that generates code slotting into the switch (§4.1),
//! * [`icmp`] — ICMP echo responder (§4.2),
//! * [`tcp_ping`](mod@tcp_ping) — SYN → SYN-ACK reachability responder (§4.2),
//! * [`dns`] — non-recursive DNS server, ≤26-byte names (§4.3),
//! * [`memcached`](mod@memcached) — ASCII-over-UDP memcached with GET/SET/DELETE
//!   (§4.3),
//! * [`nat`](mod@nat) — UDP+TCP network address translation (§4.4),
//! * [`cache`] — in-dataplane look-aside LRU cache (§4.4, Figure 9).
//!
//! Every service is a plain function returning an [`emu_core::Service`],
//! runnable unmodified on the CPU and FPGA targets (and inside `netsim`).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod cache;
pub mod dns;
pub mod filter;
pub mod icmp;
pub mod memcached;
pub mod nat;
pub mod switch;
pub mod tcp_ping;

pub use cache::lru_cache;
pub use dns::dns_server;
pub use filter::{filter_switch, filter_switch_from_lines, FilterAction, FilterRule};
pub use icmp::icmp_echo;
pub use memcached::memcached;
pub use nat::nat;
pub use switch::{switch_behavioural, switch_ip_cam};
pub use tcp_ping::tcp_ping;
