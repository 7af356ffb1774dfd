//! Weighted DNS query streams: a fixed name catalogue queried with
//! caller-chosen weights (hot names, cold names, guaranteed misses),
//! transaction ids and client source ports drawn from the seeded RNG.

use crate::TrafficGen;
use emu_types::proto::port;
use emu_types::wire::{Envelope, Payload, L4};
use emu_types::{Frame, Ipv4, MacAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Weighted DNS query generator.
pub struct DnsWeighted {
    rng: StdRng,
    names: Vec<(String, u32)>,
    total: u32,
}

impl DnsWeighted {
    /// Builds the stream over `(name, weight)` pairs.
    pub fn new(seed: u64, names: &[(&str, u32)]) -> Self {
        assert!(!names.is_empty());
        let names: Vec<(String, u32)> = names.iter().map(|(n, w)| ((*n).to_string(), *w)).collect();
        let total = names.iter().map(|(_, w)| *w).sum();
        assert!(total > 0, "at least one positive weight");
        DnsWeighted {
            rng: StdRng::seed_from_u64(seed ^ 0xd5_0123),
            names,
            total,
        }
    }
}

impl TrafficGen for DnsWeighted {
    fn name(&self) -> &'static str {
        "dns-weighted"
    }

    fn next_frame(&mut self) -> Frame {
        let mut pick = self.rng.gen_range(0u32..self.total);
        let mut name = self.names[0].0.as_str();
        for (n, w) in &self.names {
            if pick < *w {
                name = n;
                break;
            }
            pick -= w;
        }
        let id = self.rng.gen_range(0u16..u16::MAX);
        // Client flows spread over a pool of source ports on the one
        // client host of `emu_services::dns::query_frame`; UDP checksum
        // absent.
        let l4 = L4::Udp {
            sport: 4_000 + self.rng.gen_range(0u16..64),
            dport: port::DNS,
            checksum: false,
        };
        let env = Envelope {
            src_mac: MacAddr::from_u64(0x02_00_00_00_00_bb),
            dst_mac: MacAddr::from_u64(0x02_00_00_00_00_aa),
            src: Ipv4::new(10, 0, 0, 50),
            dst: Ipv4::new(10, 0, 0, 53),
            ident: id & 0xff,
            in_port: self.rng.gen_range(0u8..4),
        };
        env.frame(l4, Payload::Dns { id, name })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_shape_the_name_distribution() {
        let mut g = DnsWeighted::new(4, &[("hot.example", 9), ("cold.example", 1)]);
        let mut hot = 0;
        for _ in 0..2_000 {
            let f = g.next_frame();
            // The first label length byte of "hot.example" is 3 and its
            // first character distinguishes the two names.
            if f.bytes()[55] == b'h' {
                hot += 1;
            }
        }
        let ratio = hot as f64 / 2_000.0;
        assert!((ratio - 0.9).abs() < 0.05, "hot ratio {ratio}");
    }
}
