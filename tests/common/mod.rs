//! What several root test suites share.

use emu::services as s;
use emu::stdlib::Service;
use emu_traffic::{
    Adversarial, Background, DnsWeighted, MemcachedZipf, Mix, TcpConversations, TrafficGen,
};

/// The five soak services paired with their generators, as
/// `(label, service, generator)` for a given seed: the same pairings as
/// the soak harness.
pub fn soak_pairings(seed: u64) -> Vec<(&'static str, Service, Box<dyn TrafficGen>)> {
    vec![
        (
            "tcp-ping",
            s::tcp_ping(),
            Box::new(TcpConversations::new(seed, 6, &[0, 1, 2, 3])),
        ),
        (
            "memcached",
            s::memcached(),
            Box::new(MemcachedZipf::new(seed, 16, 1.0, 0.8)),
        ),
        (
            "dns",
            s::dns_server(vec![
                ("example.com".to_string(), "93.184.216.34".parse().unwrap()),
                ("a.b".to_string(), "1.2.3.4".parse().unwrap()),
            ]),
            Box::new(DnsWeighted::new(
                seed,
                &[("example.com", 2), ("a.b", 1), ("x.y", 1)],
            )),
        ),
        (
            "nat",
            s::nat("203.0.113.1".parse().unwrap()),
            Box::new(
                Mix::new(seed)
                    .add(4, TcpConversations::new(seed ^ 1, 6, &[1, 2]))
                    .add(1, Adversarial::new(seed ^ 2, &[1, 2, 3])),
            ),
        ),
        (
            "switch",
            s::switch_ip_cam(),
            Box::new(
                Mix::new(seed)
                    .add(3, Background::new(seed ^ 1, &[0, 1, 2, 3]))
                    .add(1, Adversarial::new(seed ^ 2, &[0, 1, 2, 3])),
            ),
        ),
    ]
}
