//! Zipf-keyed memcached workloads: GET/SET/DELETE mixes over the
//! ASCII-over-UDP protocol, with the skew real cache traffic shows
//! (the paper benchmarks memcached with memaslap's 90/10 GET/SET mix;
//! production key popularity is famously Zipfian).
//!
//! **Shard affinity:** the client source port moves in lockstep with
//! the key index (modulo 60 536, the ports from 5 000 up), so every
//! operation on one key shares one 5-tuple — under RSS dispatch all ops
//! on a key land on one shard and per-shard stores stay coherent. This
//! is the documented precondition of [`crate::HostChecker`] over a
//! memcached store.

use crate::TrafficGen;
use emu_types::proto::port;
use emu_types::wire::{Decimal, Envelope, Payload, L4};
use emu_types::{Frame, Ipv4, MacAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Zipf-distributed sampler over `0..n` via inverse-CDF lookup.
#[derive(Debug, Clone)]
pub(crate) struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution over `n` ranks with exponent `alpha`
    /// (`alpha = 0` is uniform; ~1 is classic web-object popularity).
    pub(crate) fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draws one rank in `0..n`.
    pub(crate) fn sample(&self, rng: &mut StdRng) -> usize {
        let u = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Zipf-keyed memcached GET/SET/DELETE request stream.
pub struct MemcachedZipf {
    rng: StdRng,
    zipf: Zipf,
    get_ratio: f64,
    req_id: u16,
    counter: u64,
}

impl MemcachedZipf {
    /// `keys` distinct keys (≤ 1 000 000 so every key stays within the
    /// service's 8-byte limit), Zipf exponent `alpha`, and a GET
    /// fraction `get_ratio` (the remainder splits 4:1 into SETs and
    /// DELETEs).
    pub fn new(seed: u64, keys: usize, alpha: f64, get_ratio: f64) -> Self {
        assert!(keys > 0 && keys <= 1_000_000);
        assert!((0.0..=1.0).contains(&get_ratio));
        MemcachedZipf {
            rng: StdRng::seed_from_u64(seed ^ 0x5a1f_0cde),
            zipf: Zipf::new(keys, alpha),
            get_ratio,
            req_id: 0,
            counter: 0,
        }
    }
}

impl TrafficGen for MemcachedZipf {
    fn name(&self) -> &'static str {
        "memcached-zipf"
    }

    fn next_frame(&mut self) -> Frame {
        let idx = self.zipf.sample(&mut self.rng);
        // The key of rank `idx` is "z" and its digits, at least four
        // (at most 7 bytes for the ≤ 10^6 keys `new` admits).
        let key = Decimal::new(idx as u64, 4);
        let key = key.as_bytes();
        let value;
        let op = self.rng.gen_range(0.0..1.0);
        let text: &[&[u8]] = if op < self.get_ratio {
            &[b"get z", key, b"\r\n"]
        } else if op < self.get_ratio + (1.0 - self.get_ratio) * 0.8 {
            self.counter += 1;
            value = Decimal::new(self.counter % 10_000_000, 7);
            &[b"set z", key, b" 0 0 8\r\nV", value.as_bytes(), b"\r\n"]
        } else {
            &[b"delete z", key, b"\r\n"]
        };
        self.req_id = self.req_id.wrapping_add(1);
        // Key ↔ flow lockstep: the sport identifies the key modulo
        // 60 536 (ports 5 000..=65 535), so RSS keeps each key's ops on
        // one shard. One client host, the endpoints of
        // `emu_services::memcached::request_frame`, UDP checksum absent.
        let env = Envelope {
            src_mac: MacAddr::from_u64(0x02_00_00_00_00_32),
            dst_mac: MacAddr::from_u64(0x02_00_00_00_00_31),
            src: Ipv4::new(10, 0, 0, 9),
            dst: Ipv4::new(10, 0, 0, 10),
            ident: 0x0001,
            in_port: self.rng.gen_range(0u8..4),
        };
        let l4 = L4::Udp {
            sport: 5_000 + (idx % 60_536) as u16,
            dport: port::MEMCACHED,
            checksum: false,
        };
        env.frame(
            l4,
            Payload::Mc {
                id: self.req_id,
                text,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let z = Zipf::new(64, 1.1);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 64];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[40]);
        assert!(counts[0] > 20_000 / 16, "rank 0 must be hot");
    }

    #[test]
    fn ops_follow_the_requested_mix() {
        let mut g = MemcachedZipf::new(9, 32, 1.0, 0.9);
        let mut gets = 0;
        for _ in 0..5_000 {
            let f = g.next_frame();
            // Command byte sits at the fixed ASCII offset.
            if crate::build::byte_at(&f, 50) == b'g' {
                gets += 1;
            }
        }
        let ratio = gets as f64 / 5_000.0;
        assert!((ratio - 0.9).abs() < 0.03, "GET ratio {ratio}");
    }

    #[test]
    fn key_and_flow_move_in_lockstep() {
        let mut g = MemcachedZipf::new(2, 16, 1.0, 0.5);
        let mut seen = std::collections::HashMap::new();
        for _ in 0..2_000 {
            let f = g.next_frame();
            let sport = emu_types::bitutil::get16(f.bytes(), 34);
            // Extract the key from the ASCII command.
            let text = emu_types::wire::reply_text(&f);
            let key = String::from_utf8_lossy(text)
                .split_whitespace()
                .nth(1)
                .unwrap()
                .to_string();
            let prev = seen.entry(key.clone()).or_insert(sport);
            assert_eq!(*prev, sport, "key {key} changed flows");
        }
    }

    /// Above 60 536 keys the source port wraps within 5 000..=65 535
    /// (soak's 200 000-key mix draws ranks up there), never below it
    /// and never with an overflow.
    #[test]
    fn source_ports_stay_in_range_for_large_keyspaces() {
        let mut g = MemcachedZipf::new(3, 200_000, 1.1, 0.9);
        for i in 0..200_000 {
            let sport = emu_types::bitutil::get16(g.next_frame().bytes(), 34);
            assert!(sport >= 5_000, "frame {i} sent from port {sport}");
        }
    }
}
