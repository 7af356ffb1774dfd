//! Seeded fat-tree topology generation: dozens of sharded engines and
//! impaired links from one spec.
//!
//! The shape is the classic edge hierarchy (EmuFog's tiered emulation
//! topologies, pruned of multipath): one core learning switch, up to
//! four aggregation switches below it, up to three edge switches per
//! aggregation, three leaf slots per edge. Every switch is the paper's
//! §4.1 learning switch compiled to the CPU backend and sharded; the
//! first three leaf slots (on distinct edges when the tree is wide
//! enough) carry the memcached, DNS, and TCP-ping service engines, and
//! every remaining slot carries a closed-loop client cycling through
//! the three protocols. The tree is deliberately loop-free — learning
//! switches flood unknown destinations, and a loop would be a
//! broadcast storm, exactly why real deployments run spanning tree.
//!
//! Determinism: everything (client op mixes, ISNs, link impairment
//! draws) derives from [`TopoSpec::seed`], so two builds of the same
//! spec replay byte-identically — including the merged telemetry
//! snapshot — regardless of engine parallelism or CPU backend.

use crate::client::{Client, ClientConfig, RequestProto, KICK};
use crate::dns::DnsClient;
use crate::mc::McClient;
use crate::tcp::TcpClient;
use emu_core::{Backend, Engine, EngineResult, Service, Target};
use emu_telemetry::Histogram;
use emu_traffic::ClientCheck;
use emu_types::{Ipv4, MacAddr};
use netfpga_sim::timing::NodeClock;
use netsim::{Impairments, NetSim, NodeId};

/// The memcached server's address at its leaf slot.
pub const MC_SERVER_MAC: u64 = 0x02_00_00_00_a0_01;
/// The DNS server's address.
pub const DNS_SERVER_MAC: u64 = 0x02_00_00_00_a0_02;
/// The TCP-ping server's address.
pub(crate) const TCP_SERVER_MAC: u64 = 0x02_00_00_00_a0_03;

/// Everything a generated fat-tree derives from that a caller varies.
/// Node timing is not here: every switch and service node is timed as
/// an Emu node by its [`NodeClock`] (see `netsim`), whatever its shard
/// count or backend. Neither are the link rate (`LINK_GBPS`), the DNS
/// zone's size (`ZONE_NAMES`) or a memcached client's key count
/// (`MC_KEYS`), which every fabric shares.
#[derive(Debug, Clone, Copy)]
pub struct TopoSpec {
    /// Master seed for clients and impairments.
    pub seed: u64,
    /// Aggregation switches under the core (1..=4).
    pub aggs: usize,
    /// Edge switches under each aggregation switch (1..=3).
    pub edges_per_agg: usize,
    /// Shards per engine (switches and services alike).
    pub shards: usize,
    /// Build every engine with `Engine::parallel`. A NetSim node never
    /// uses the workers: it calls `Engine::process`, which runs each
    /// frame on the calling thread, so `true` (not the default) only
    /// parks an idle worker per extra shard of each engine.
    pub parallel: bool,
    /// CPU backend for every engine; by default `EMU_CPU_BACKEND`'s
    /// ([`Backend::env_default`]).
    pub backend: Backend,
    /// Propagation delay of every link.
    pub link_delay_ns: f64,
    /// Impairments applied to **every** link (each link gets its own
    /// derived RNG seed); `None` for a clean fabric.
    pub impair: Option<Impairments>,
    /// Closed-loop pacing/reliability knobs shared by every client.
    pub client: ClientConfig,
}

/// Serialization rate of every link, Gb/s.
const LINK_GBPS: f64 = 10.0;

/// Names in the DNS zone (clients also query this many absent names,
/// expecting NXDOMAIN).
const ZONE_NAMES: usize = 6;

/// Private keys per memcached client.
const MC_KEYS: usize = 6;

impl Default for TopoSpec {
    fn default() -> Self {
        TopoSpec {
            seed: 7,
            aggs: 2,
            edges_per_agg: 2,
            shards: 2,
            parallel: false,
            backend: Backend::env_default(),
            link_delay_ns: 1_000.0,
            impair: None,
            client: ClientConfig::default(),
        }
    }
}

/// Which protocol a generated client speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientKind {
    /// TCP handshake prober.
    Tcp,
    /// Memcached GET/SET/DELETE client.
    Mc,
    /// DNS resolver client.
    Dns,
}

/// A built fat-tree: the simulator plus a map of who is where.
pub struct Topo {
    /// The wired simulator (run it with [`netsim::NetSim::run_until`]).
    pub net: NetSim,
    /// Every switch node, core first.
    pub switches: Vec<NodeId>,
    /// The three service nodes: `(node, label)`.
    pub services: Vec<(NodeId, &'static str)>,
    /// Every client node and its protocol.
    pub clients: Vec<(NodeId, ClientKind)>,
    spec: TopoSpec,
}

/// Merged client-side accounting over a whole topology run.
#[derive(Debug, Default)]
pub struct TopoSummary {
    /// Requests issued across all clients.
    pub issued: u64,
    /// Retransmissions across all clients.
    pub retransmits: u64,
    /// Verified completions.
    pub completed: u64,
    /// Wrong responses (checker violations).
    pub mismatches: u64,
    /// Retry budgets exhausted.
    pub timeouts: u64,
    /// Duplicate / late responses suppressed.
    pub duplicates: u64,
    /// Flood copies ignored.
    pub ignored: u64,
    /// Response bytes of completions.
    pub response_bytes: u64,
    /// First request issue time across clients.
    pub first_issue_ns: f64,
    /// Last resolution time across clients.
    pub last_resolve_ns: f64,
    /// Merged clean-sample RTT distribution.
    pub rtt: Histogram,
}

impl TopoSummary {
    /// Completed requests per simulated second.
    pub fn goodput_rps(&self) -> f64 {
        let span = self.last_resolve_ns - self.first_issue_ns;
        if span.is_finite() && span > 0.0 {
            self.completed as f64 * 1e9 / span
        } else {
            0.0
        }
    }
}

fn build_engine(svc: &Service, spec: &TopoSpec) -> EngineResult<Engine> {
    svc.engine(Target::Cpu)
        .shards(spec.shards)
        .parallel(spec.parallel)
        .backend(spec.backend)
        .telemetry(true)
        .build()
}

/// A zone of `n` names `h{i}.emu.test` → `10.1.0.{i+1}`.
pub fn zone(n: usize) -> Vec<(String, Ipv4)> {
    (0..n)
        .map(|i| (format!("h{i}.emu.test"), Ipv4::new(10, 1, 0, (i + 1) as u8)))
        .collect()
}

/// Builds the fat-tree described by `spec`.
///
/// # Panics
///
/// Panics on out-of-range tree dimensions, or when reorder jitter is
/// not well below the clients' retransmission timeout (a timed-out
/// write overtaking a later request would invalidate the memcached
/// shadow model — see `crate::mc`).
pub fn fat_tree(spec: TopoSpec) -> EngineResult<Topo> {
    assert!((1..=4).contains(&spec.aggs), "1..=4 aggregation switches");
    assert!(
        (1..=3).contains(&spec.edges_per_agg),
        "1..=3 edge switches per aggregation"
    );
    if let Some(imp) = spec.impair {
        assert!(
            imp.jitter_ns <= spec.client.rto_ns / 10.0,
            "reorder jitter ({} ns) must stay well below the client RTO \
             ({} ns) for the shadow-store model to hold",
            imp.jitter_ns,
            spec.client.rto_ns
        );
    }

    let mut net = NetSim::new();
    let mut switches = Vec::new();
    let mut link_idx = 0u64;

    let impaired_link =
        |net: &mut NetSim, a: NodeId, pa: usize, b: NodeId, pb: usize, idx: &mut u64| {
            let l = net.link(a, pa, b, pb, spec.link_delay_ns, LINK_GBPS);
            if let Some(imp) = spec.impair {
                let per_link = Impairments {
                    seed: imp
                        .seed
                        .wrapping_add((*idx + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                    ..imp
                };
                net.impair(l, per_link);
            }
            *idx += 1;
        };

    // The switching fabric: core → aggs → edges (all 4-port switches;
    // the learning switch's broadcast mask is the low four ports).
    let switch_svc = emu_services::switch_ip_cam();
    let core = net.add_service("core", build_engine(&switch_svc, &spec)?, 4);
    switches.push(core);
    let mut edges = Vec::new();
    for a in 0..spec.aggs {
        let agg = net.add_service(&format!("agg{a}"), build_engine(&switch_svc, &spec)?, 4);
        switches.push(agg);
        impaired_link(&mut net, core, a, agg, 0, &mut link_idx);
        for e in 0..spec.edges_per_agg {
            let edge = net.add_service(
                &format!("edge{a}_{e}"),
                build_engine(&switch_svc, &spec)?,
                4,
            );
            switches.push(edge);
            impaired_link(&mut net, agg, 1 + e, edge, 0, &mut link_idx);
            edges.push(edge);
        }
    }

    // Leaf slots, port-major so the first three land on distinct edge
    // switches whenever the tree has three or more of them.
    let mut slots = Vec::new();
    for port in 1..4usize {
        for &edge in &edges {
            slots.push((edge, port));
        }
    }
    assert!(
        slots.len() >= 4,
        "tree too small: 3 service slots + at least 1 client required"
    );

    // Services on the first three slots.
    let dns_zone = zone(ZONE_NAMES);
    let mc_node = net.add_service(
        "mc_server",
        build_engine(&emu_services::memcached(), &spec)?,
        1,
    );
    let dns_node = net.add_service(
        "dns_server",
        build_engine(&emu_services::dns_server(dns_zone.clone()), &spec)?,
        1,
    );
    let tcp_node = net.add_service(
        "tcp_server",
        build_engine(&emu_services::tcp_ping(), &spec)?,
        1,
    );
    let services = vec![
        (mc_node, "memcached"),
        (dns_node, "dns"),
        (tcp_node, "tcp_ping"),
    ];
    for (i, &(node, _)) in services.iter().enumerate() {
        let (edge, port) = slots[i];
        impaired_link(&mut net, edge, port, node, 0, &mut link_idx);
    }

    // Clients on every remaining slot, cycling protocols.
    let mut query_names: Vec<(String, Option<Ipv4>)> = dns_zone
        .iter()
        .map(|(n, a)| (n.clone(), Some(*a)))
        .collect();
    for i in 0..ZONE_NAMES {
        query_names.push((format!("x{i}.emu.test"), None));
    }
    let mut clients = Vec::new();
    for (i, &(edge, port)) in slots[3..].iter().enumerate() {
        let kind = match i % 3 {
            0 => ClientKind::Mc,
            1 => ClientKind::Dns,
            _ => ClientKind::Tcp,
        };
        let name = format!("client{i}");
        let mac = MacAddr::from_u64(0x02_00_00_00_c0_00 + i as u64);
        let ip = Ipv4::new(10, 0, 1 + (i >> 8) as u8, i as u8);
        let sport = 20_000 + 17 * i as u16;
        let seed = spec
            .seed
            .wrapping_add((i as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
        let node = match kind {
            ClientKind::Mc => net.add_agent(
                &name,
                Box::new(McClient::new(
                    &name,
                    mac,
                    ip,
                    sport,
                    MacAddr::from_u64(MC_SERVER_MAC),
                    Ipv4::new(10, 9, 0, 1),
                    &format!("c{i}k"),
                    MC_KEYS,
                    seed,
                    spec.client,
                )),
                1,
            ),
            ClientKind::Dns => net.add_agent(
                &name,
                Box::new(DnsClient::new(
                    &name,
                    mac,
                    ip,
                    sport,
                    MacAddr::from_u64(DNS_SERVER_MAC),
                    Ipv4::new(10, 9, 0, 2),
                    query_names.clone(),
                    seed,
                    spec.client,
                )),
                1,
            ),
            ClientKind::Tcp => net.add_agent(
                &name,
                Box::new(TcpClient::new(
                    &name,
                    mac,
                    ip,
                    sport,
                    MacAddr::from_u64(TCP_SERVER_MAC),
                    Ipv4::new(10, 9, 0, 3),
                    7, // the echo port the paper's prober targets
                    seed,
                    spec.client,
                )),
                1,
            ),
        };
        impaired_link(&mut net, edge, port, node, 0, &mut link_idx);
        clients.push((node, kind));
    }

    Ok(Topo {
        net,
        switches,
        services,
        clients,
        spec,
    })
}

impl Topo {
    /// Total engines in the fabric (switches + services).
    pub fn engines(&self) -> usize {
        self.switches.len() + self.services.len()
    }

    /// Arms every client's first kick, staggered a few ns apart so the
    /// fabric does not see a synchronized burst at t=0.
    pub fn start(&mut self) {
        for (i, &(node, _)) in self.clients.iter().enumerate() {
            self.net.arm_timer(node, i as f64 * 97.0, KICK);
        }
    }

    /// Runs until every event (including retransmission tails) drains.
    pub fn run(&mut self) -> kiwi_ir::IrResult<u64> {
        self.net.run_until(f64::MAX)
    }

    /// A lower bound on any RTT the model can produce: the shortest
    /// path is client ↔ edge ↔ server, two links each way, and it
    /// crosses the edge switch twice and the server once, each paying
    /// at least the node's fixed path ([`NodeClock::FIXED_NS`]).
    pub fn rtt_floor_ns(&self) -> u64 {
        (4.0 * self.spec.link_delay_ns + 3.0 * NodeClock::FIXED_NS) as u64
    }

    /// Drains every client's outcomes into `check` and merges their
    /// stats into one summary.
    pub fn harvest(&mut self, check: &mut ClientCheck) -> TopoSummary {
        let mut sum = TopoSummary {
            first_issue_ns: f64::INFINITY,
            last_resolve_ns: f64::NEG_INFINITY,
            ..TopoSummary::default()
        };
        for &(node, kind) in &self.clients.clone() {
            match kind {
                ClientKind::Mc => {
                    harvest_one::<crate::mc::McProto>(&mut self.net, node, check, &mut sum)
                }
                ClientKind::Dns => {
                    harvest_one::<crate::dns::DnsProto>(&mut self.net, node, check, &mut sum)
                }
                ClientKind::Tcp => {
                    harvest_one::<crate::tcp::TcpProto>(&mut self.net, node, check, &mut sum)
                }
            }
        }
        sum
    }
}

fn harvest_one<P: RequestProto>(
    net: &mut NetSim,
    node: NodeId,
    check: &mut ClientCheck,
    sum: &mut TopoSummary,
) {
    let client: &mut Client<P> = net
        .agent_as::<Client<P>>(node)
        .expect("client kind matches the node");
    for o in client.take_outcomes() {
        check.observe(&o);
    }
    let s = client.stats();
    sum.issued += s.issued;
    sum.retransmits += s.retransmits;
    sum.completed += s.completed;
    sum.mismatches += s.mismatches;
    sum.timeouts += s.timeouts;
    sum.duplicates += s.duplicates;
    sum.ignored += s.ignored;
    sum.response_bytes += s.response_bytes;
    if s.first_issue_ns.is_finite() {
        sum.first_issue_ns = sum.first_issue_ns.min(s.first_issue_ns);
    }
    if s.last_resolve_ns.is_finite() {
        sum.last_resolve_ns = sum.last_resolve_ns.max(s.last_resolve_ns);
    }
    sum.rtt.merge(&s.rtt);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_fabric_parks_no_workers() {
        let mut topo = fat_tree(TopoSpec::default()).expect("engines build");
        let services = topo.services.iter().map(|&(node, _)| node);
        let engines: Vec<NodeId> = topo.switches.iter().copied().chain(services).collect();
        assert_eq!(engines.len(), topo.engines());
        for node in engines {
            let engine = topo.net.engine_mut(node).expect("an engine node");
            let engine = format!("{engine:?}");
            assert!(engine.contains("parallel: false"), "{node:?}: {engine}");
        }
    }
}
