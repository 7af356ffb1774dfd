//! Flow-churn workloads: traffic whose *working set* turns over.
//!
//! The steady-state generators ([`crate::TcpConversations`],
//! [`crate::Background`]) keep a fixed population of flows alive
//! forever, so a stateful service's tables fill once and then idle.
//! Real deployments churn: flows arrive, live, and silently depart, and
//! the departed flows' state must age out (TTL expiry) or be evicted —
//! the million-flow regime the scaled-up tables exist for. These
//! generators manufacture that regime deterministically:
//!
//! * [`FlowChurn`] — a bounded pool of live UDP flows for NAT-style
//!   services. Senders are Zipf-picked (elephants and mice); churn
//!   events retire a random flow and admit a fresh one, so retired
//!   flows go idle and their translations expire.
//! * [`MacChurn`] — a sliding window of active stations for the
//!   learning switch. The window advances as stations fall silent, so
//!   aged-out MACs flood again until re-learned.
//!
//! Both are pure functions of their constructor arguments (same seed →
//! byte-identical stream), like every [`TrafficGen`].

use crate::build::udp_frame;
use crate::mc::Zipf;
use crate::TrafficGen;
use emu_types::proto::ether_type;
use emu_types::{Frame, Ipv4, MacAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A bounded pool of live UDP flows with Zipf-skewed send rates and
/// per-frame churn, for NAT-style stateful services.
///
/// Every flow is a unique `{src_ip, sport}` pair on an internal port
/// (never the NAT's external port 0), aimed at one remote server.
/// With probability `churn_permille`/1000 per frame, one random pool
/// slot is retired and replaced by a brand-new flow; the retired flow
/// never sends again, so its mapping idles until the table's TTL
/// reclaims it. Keep `live` under the deployment's ephemeral-port
/// budget (≈ 15 000 ports per NAT shard) or allocations will exhaust.
pub struct FlowChurn {
    rng: StdRng,
    zipf: Zipf,
    /// Flow id per pool slot; ids are never reused.
    pool: Vec<u64>,
    next_id: u64,
    churn_permille: u32,
    in_ports: Vec<u8>,
}

impl FlowChurn {
    /// `live` concurrent flows, replaced at `churn_permille`/1000 per
    /// frame, sending from internal `in_ports` (must not contain 0).
    pub fn new(seed: u64, live: usize, churn_permille: u32, in_ports: &[u8]) -> Self {
        assert!(live > 0);
        assert!(churn_permille <= 1000);
        assert!(
            !in_ports.is_empty() && !in_ports.contains(&0),
            "port 0 is external"
        );
        FlowChurn {
            rng: StdRng::seed_from_u64(seed ^ 0xf10c_44e1),
            zipf: Zipf::new(live, 1.05),
            pool: (0..live as u64).collect(),
            next_id: live as u64,
            churn_permille,
            in_ports: in_ports.to_vec(),
        }
    }

    /// The immutable 5-tuple ingredients of flow `id`: ids map to
    /// unique `{src_ip, sport}` pairs (10.0.0.0/8 hosts × 4096 ports),
    /// so fresh flows always need fresh translations.
    fn endpoint(&self, id: u64) -> (Ipv4, u16, u8) {
        let host = 0x0a00_0000 | (id as u32 & 0x00ff_ffff);
        let sport = 1024 + ((id >> 24) % 4096) as u16;
        let in_port = self.in_ports[(id % self.in_ports.len() as u64) as usize];
        (Ipv4(host), sport, in_port)
    }

    /// The frame flow `id` sends.
    fn frame_for(&self, id: u64) -> Frame {
        let (src, sport, in_port) = self.endpoint(id);
        udp_frame(
            MacAddr::from_u64(0x0200_0000_0000 | id),
            MacAddr::from_u64(0x0200_00ff_ffff),
            src,
            sport,
            Ipv4(0x0808_0808),
            443,
            b"churn-flow-payload",
            in_port,
        )
    }

    /// One frame per live pool slot, in slot order — prefill for
    /// benchmarks that need every live flow's state resident before
    /// measuring. Consumes no randomness (the stream is unchanged).
    pub fn warmup_frames(&self) -> Vec<Frame> {
        self.pool.iter().map(|&id| self.frame_for(id)).collect()
    }
}

impl TrafficGen for FlowChurn {
    fn name(&self) -> &'static str {
        "flow-churn"
    }

    fn next_frame(&mut self) -> Frame {
        if self.rng.gen_range(0u32..1000) < self.churn_permille {
            // One flow departs, a fresh one takes its slot.
            let slot = self.rng.gen_range(0..self.pool.len());
            self.pool[slot] = self.next_id;
            self.next_id += 1;
        }
        let id = self.pool[self.zipf.sample(&mut self.rng)];
        self.frame_for(id)
    }
}

/// A sliding window of active stations for the learning switch: MACs
/// enter at the head, chatter to window-mates, and fall silent when
/// the window passes them — exercising learn, forward, flood, aging,
/// and (when the window outruns the table) eviction.
pub struct MacChurn {
    rng: StdRng,
    /// The window is `[oldest, oldest + live)`; station `k`'s MAC and
    /// attachment port derive from `k`.
    oldest: u64,
    live: u64,
    churn_permille: u32,
}

impl MacChurn {
    /// `live` concurrently-active stations; the window advances at
    /// `churn_permille`/1000 per frame.
    pub fn new(seed: u64, live: usize, churn_permille: u32) -> Self {
        assert!(live > 0);
        assert!(churn_permille <= 1000);
        MacChurn {
            rng: StdRng::seed_from_u64(seed ^ 0x3ac5_0b1d),
            oldest: 0,
            live: live as u64,
            churn_permille,
        }
    }

    fn mac(station: u64) -> MacAddr {
        MacAddr::from_u64(0x0600_0000_0000 | station)
    }

    /// One frame per in-window station (each station sends once, so
    /// the switch learns every live MAC) — prefill for benchmarks.
    /// Consumes no randomness (the stream is unchanged).
    pub fn warmup_frames(&self) -> Vec<Frame> {
        (self.oldest..self.oldest + self.live)
            .map(|k| {
                let dst = self.oldest + (k - self.oldest + 1) % self.live;
                let mut f =
                    Frame::ethernet(Self::mac(dst), Self::mac(k), ether_type::IPV4, &[0x5a; 46]);
                f.in_port = (k % 4) as u8;
                f
            })
            .collect()
    }
}

impl TrafficGen for MacChurn {
    fn name(&self) -> &'static str {
        "mac-churn"
    }

    fn next_frame(&mut self) -> Frame {
        if self.rng.gen_range(0u32..1000) < self.churn_permille {
            self.oldest += 1; // the oldest station falls silent
        }
        let src = self.oldest + self.rng.gen_range(0..self.live);
        // Mostly window-mates (unicast once learned); occasionally a
        // recently-silenced station, whose aged-out entry floods.
        let dst = if self.oldest > 0 && self.rng.gen_range(0u32..8) == 0 {
            self.oldest - 1 - self.rng.gen_range(0..self.oldest.min(self.live))
        } else {
            self.oldest + self.rng.gen_range(0..self.live)
        };
        let mut f = Frame::ethernet(
            Self::mac(dst),
            Self::mac(src),
            ether_type::IPV4,
            &[0x5a; 46],
        );
        f.in_port = (src % 4) as u8;
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FlowChurn {
        /// Distinct flows started so far (live + departed).
        pub(crate) fn flows_started(&self) -> u64 {
            self.next_id
        }
    }

    impl MacChurn {
        /// Stations that have ever been in the window.
        pub(crate) fn stations_seen(&self) -> u64 {
            self.oldest + self.live
        }
    }

    #[test]
    fn flow_churn_turns_the_pool_over() {
        let mut gen = FlowChurn::new(7, 50, 200, &[1, 2, 3]);
        let frames = gen.take(2000);
        assert_eq!(frames.len(), 2000);
        // ~200/1000 × 2000 churn events started new flows.
        assert!(gen.flows_started() > 50 + 200, "{}", gen.flows_started());
        // All traffic stays on internal ports with valid checksums.
        for f in &frames {
            assert_ne!(f.in_port, 0);
            assert_eq!(crate::build::ipv4_csum_ok(f), Some(true));
            assert_eq!(crate::build::l4_csum_ok(f), Some(true));
        }
    }

    #[test]
    fn flow_churn_ids_give_unique_endpoints() {
        let gen = FlowChurn::new(1, 4, 0, &[1]);
        let mut seen = std::collections::HashSet::new();
        for id in 0..100_000u64 {
            let (ip, sport, _) = gen.endpoint(id);
            assert!(seen.insert((ip.0, sport)), "id {id} aliases an endpoint");
        }
    }

    #[test]
    fn mac_churn_slides_the_window() {
        let mut gen = MacChurn::new(9, 32, 100);
        let frames = gen.take(3000);
        assert!(gen.stations_seen() > 32 + 100);
        // Frames are plain ethernet with in_port derived from the
        // sending station.
        for f in &frames {
            assert!(f.in_port < 4);
            assert_eq!(f.ethertype(), ether_type::IPV4);
        }
    }
}
