//! # `emu-traffic` — the scenario engine for the Emu reproduction
//!
//! The ROADMAP north-star is a system serving "heavy traffic from
//! millions of users" across "as many scenarios as you can imagine";
//! this crate manufactures that traffic. Every generator is a
//! deterministic, seeded stream of [`Frame`]s — the same seed always
//! yields the same byte-exact stream, on every platform — so a failing
//! soak run is reproducible from two integers (seed, frame index), and
//! any failing window can be cut into a committed fixture with
//! [`replay::Trace`].
//!
//! ## Generators
//!
//! | generator | workload |
//! |---|---|
//! | [`TcpConversations`] | stateful SYN → ACK → data → FIN client dialogues with correct seq/ack and real checksums (NAT, tcp_ping) |
//! | [`MemcachedZipf`] | Zipf-keyed GET/SET/DELETE mixes over the ASCII-over-UDP protocol, key↔flow lockstep for shard affinity |
//! | [`DnsWeighted`] | weighted name distributions of well-formed DNS queries |
//! | [`Background`] | ARP requests and ICMP echoes — the chatter every real segment carries |
//! | [`Adversarial`] | truncated headers, bad checksums, wrong EtherTypes, oversize frames — streams that must never trap an engine |
//! | [`FlowChurn`] | a bounded pool of live UDP flows with Zipf send rates and flow arrival/departure — departed flows' NAT state must age out |
//! | [`MacChurn`] | a sliding window of active stations — silent MACs age out of the switch and flood until re-learned |
//! | [`Mix`] | weighted composition of any of the above |
//!
//! All of them implement [`TrafficGen`]; [`Mix`] composes boxed
//! generators by weight:
//!
//! ```
//! use emu_traffic::{Adversarial, Mix, TcpConversations, TrafficGen};
//!
//! let mut mix = Mix::new(7)
//!     .add(9, TcpConversations::new(1, 8, &[1, 2, 3]))
//!     .add(1, Adversarial::new(2, &[0, 1, 2, 3]));
//! let frames = mix.take(1000);
//! assert_eq!(frames.len(), 1000);
//! // Same seeds → the same stream, byte for byte.
//! let mut again = Mix::new(7)
//!     .add(9, TcpConversations::new(1, 8, &[1, 2, 3]))
//!     .add(1, Adversarial::new(2, &[0, 1, 2, 3]));
//! assert_eq!(again.take(1000), frames);
//! ```
//!
//! ## Checkers
//!
//! The [`Checker`]s are per-service reference models that consume a batch's
//! inputs plus its [`emu_core::BatchReport`] and verify service
//! invariants frame by frame: [`NatChecker`] (translation consistency),
//! [`SwitchModel`] (learned forwarding), and [`HostChecker`], which
//! demands a request/reply service's replies equal those of its host
//! service in `hoststack::services`, byte for byte — memcached ([`McModel`]),
//! DNS and ICMP echo. The `soak` bench bin (`crates/bench/src/bin/soak.rs`)
//! wires generators and checkers around sharded parallel engines at the
//! million-frame scale.
//!
//! ## Record / replay
//!
//! [`Trace`] records a stream's inputs *and* the engine's
//! outputs into a compact binary format; committed fixtures under
//! `tests/fixtures/` replay byte-exact on every target, so generator or
//! service refactors cannot silently change semantics.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod adversarial;
mod background;
pub mod build;
mod check;
mod churn;
mod dns;
mod mc;
mod mix;
mod replay;
pub mod scenarios;
mod tcp;

pub use adversarial::Adversarial;
pub use background::Background;
pub use check::{
    Checker, ClientCheck, ClientOutcome, HostChecker, McModel, NatChecker, SwitchModel,
};
pub use churn::{FlowChurn, MacChurn};
pub use dns::DnsWeighted;
pub use mc::MemcachedZipf;
pub use mix::Mix;
pub use replay::Trace;
pub use tcp::TcpConversations;

use emu_types::Frame;

/// A deterministic, seeded source of frames. Generators are infinite:
/// [`TrafficGen::next_frame`] always produces the next frame of the
/// stream, and the stream is a pure function of the constructor
/// arguments (notably the seed).
pub trait TrafficGen {
    /// Short label for logs and bench tables.
    fn name(&self) -> &'static str;

    /// Produces the next frame of the stream.
    fn next_frame(&mut self) -> Frame;

    /// Collects the next `n` frames.
    fn take(&mut self, n: usize) -> Vec<Frame>
    where
        Self: Sized,
    {
        (0..n).map(|_| self.next_frame()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type NamedGen = (&'static str, fn() -> Box<dyn TrafficGen>);

    /// Every shipped generator replays identically for a fixed seed.
    #[test]
    fn all_generators_are_deterministic() {
        let build: Vec<NamedGen> = vec![
            ("tcp", || Box::new(TcpConversations::new(5, 6, &[1, 2]))),
            ("mc", || Box::new(MemcachedZipf::new(5, 32, 1.1, 0.9))),
            ("dns", || {
                Box::new(DnsWeighted::new(5, &[("a.b", 3), ("example.com", 1)]))
            }),
            ("bg", || Box::new(Background::new(5, &[0, 1, 2, 3]))),
            ("adv", || Box::new(Adversarial::new(5, &[0, 1]))),
            ("flow-churn", || {
                Box::new(FlowChurn::new(5, 40, 150, &[1, 2, 3]))
            }),
            ("mac-churn", || Box::new(MacChurn::new(5, 24, 120))),
            ("mix", || {
                Box::new(
                    Mix::new(5)
                        .add(2, Background::new(1, &[0]))
                        .add(1, Adversarial::new(2, &[1])),
                )
            }),
        ];
        for (name, mk) in build {
            let mut a = mk();
            let mut b = mk();
            for i in 0..200 {
                assert_eq!(a.next_frame(), b.next_frame(), "{name} frame {i}");
            }
        }
    }
}
