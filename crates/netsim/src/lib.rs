//! A Mininet-analogue network simulator — the paper's third target.
//!
//! §3.3: "By using virtual interfaces, developers can test network
//! functions in a simulator", and §4.4 compiles the NAT service "to
//! three different targets: software, Mininet, and hardware". This crate
//! provides that middle target: a discrete-event network of hosts and
//! links where service nodes run the *same IR program* via the CPU
//! backend (`emu_core::Target::Cpu`), attached to virtual interfaces.
//!
//! Links model propagation delay and serialization at a configurable
//! rate; frames are delivered in global time order. Each direction of a
//! link is an independent lane (full duplex): serialization on a→b
//! never delays b→a, and a frame waits for its lane's wire to free up.
//!
//! A service node is timed like the Emu node of Tables 3 and 4, by the
//! [`netfpga_sim::timing::NodeClock`] `PipelineSim` uses: MAC/PHY and
//! arbiter, one core on the 200 MHz grid busy for the engine's model
//! cycles whatever its shard count, output queue and egress MAC/PHY.
//! The link adds the wire, so nothing is counted twice, and round-trip
//! times are deterministic per seed.
//!
//! A frame moves from hop to hop: the bytes a service's engine
//! transmitted are the bytes that cross the link and land in the next
//! node's event, with no copy and no per-hop allocation. A copy is made
//! only where the network itself makes one — for each earlier port of
//! a multicast (the last linked port takes the frame) and for a frame
//! an impaired link duplicates.
//!
//! Links can additionally carry seeded **impairments** — loss,
//! duplication, and reorder jitter — layered on the delay/rate model
//! (see [`Impairments`]). Emulation work (Lochin et al., *When Should I
//! Use Network Emulation?*) shows impaired links are what separate a
//! demo topology from a testbed; impairments here are deterministic per
//! seed, so an impaired scenario replays exactly.
//!
//! Service nodes carry **per-node drop accounting**: an engine refusing
//! one frame (oversize input, trapping core) increments the node's drop
//! counter (its `drops` in [`NetSim::telemetry`]) instead of aborting the
//! simulation, so adversarial traffic mixes can soak whole topologies.
//! Only simulation-fatal engine errors (`Build`, `Poisoned`) abort
//! [`NetSim::run_until`].
//!
//! Endpoints come in two shapes. A **host** is a passive inbox the
//! harness inspects after the run. An **agent** ([`HostAgent`],
//! [`NetSim::add_agent`]) is a closed-loop endpoint that reacts *inside*
//! the event loop: the simulator delivers frames and one-shot **timer**
//! events to it, and it answers with frames-to-send and timers-to-arm —
//! enough to express retransmission timeouts, exponential backoff, and
//! request/response dialogues (the `emu-hosts` crate builds TCP,
//! memcached, and DNS clients on this).
//!
//! The event queue is two heaps under one `(time, seq)` order: frame
//! arrivals in one, agent timers in the other, and
//! [`NetSim::run_until`] pops the earlier head, so events due at one
//! instant run in the order they were queued, whichever heap holds
//! them. Timers live apart because they are never cancelled: a client
//! arms a retransmission timeout per request that nearly always fires
//! stale, long after the reply. In the `emu-hosts` fat-tree those stale
//! timeouts kept one shared heap about 919 deep at each pop with some
//! 16 frames in flight, and every frame paid the sift through them.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

use emu_core::{Engine, EngineError};
use emu_telemetry::Json;
use emu_types::Frame;
use kiwi_ir::IrResult;
use netfpga_sim::timing::{NodeClock, MAC_PHY_NS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Frames to send and timers to arm, returned by a [`HostAgent`]
/// callback. Sends leave the agent's interfaces at the callback's
/// `now_ns`; timers fire as [`HostAgent::on_timer`] events at their
/// absolute times (clamped to never fire in the past).
#[derive(Debug, Default)]
pub struct AgentOutput {
    /// `(port, frame)` transmissions, in order.
    pub tx: Vec<(usize, Frame)>,
    /// `(at_ns, token)` one-shot timers to arm.
    pub timers: Vec<(f64, u64)>,
}

impl AgentOutput {
    /// No sends, no timers.
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds a transmission out of `port`.
    pub fn send(mut self, port: usize, frame: Frame) -> Self {
        self.tx.push((port, frame));
        self
    }

    /// Arms a one-shot timer for absolute time `at_ns` carrying `token`.
    pub fn arm(mut self, at_ns: f64, token: u64) -> Self {
        self.timers.push((at_ns, token));
        self
    }
}

/// A closed-loop endpoint living *inside* the event loop: where a
/// plain host node's inbox only accumulates deliveries for the harness
/// to inspect afterwards, an agent reacts to frames and to its own
/// timers **at simulation time** — it can retransmit on timeout, back
/// off, suppress duplicates, and issue its next request the moment a
/// response lands. This is the fidelity gap named by the emulation
/// literature (temporal behaviour, not just functional correctness) and
/// the ROADMAP's closed-loop-hosts item.
///
/// Timers are one-shot and carry an opaque `token`; there is no cancel —
/// agents implement cancellation by ignoring stale tokens (the idiomatic
/// discrete-event pattern: a retransmission timer that fires after the
/// response already arrived simply matches no outstanding request).
///
/// `emu-hosts` provides the standard implementations (TCP handshake
/// client, memcached/DNS request clients, NAT-side responder); anything
/// implementing this trait can be attached with [`NetSim::add_agent`].
pub trait HostAgent {
    /// A frame arrived on `port` at `now_ns`.
    fn on_frame(&mut self, now_ns: f64, port: usize, frame: &Frame) -> AgentOutput;

    /// A timer armed with `token` fired at `now_ns`.
    fn on_timer(&mut self, now_ns: f64, token: u64) -> AgentOutput;

    /// Optional telemetry snapshot, folded into [`NetSim::telemetry`]
    /// under the node's `agent` key. Implementations should emit only
    /// simulation-time quantities so snapshots stay deterministic per
    /// seed.
    fn telemetry(&self) -> Option<Json> {
        None
    }

    /// Concrete-type access for harvesting typed stats in tests and
    /// benches (see [`NetSim::agent_as`]).
    fn as_any(&self) -> &dyn Any;

    /// Mutable concrete-type access.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Node handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

/// Link handle, returned by [`NetSim::link`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub usize);

/// Seeded link impairments: probabilities are per transmitted frame,
/// drawn from a per-link RNG seeded by [`Impairments::seed`] — the same
/// seed and traffic always produce the same deliveries.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Impairments {
    /// Probability a frame is lost after occupying the wire.
    pub loss: f64,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Probability a frame's arrival is jittered (which reorders it
    /// relative to close neighbours).
    pub reorder: f64,
    /// Maximum extra delay added to a jittered frame (ns).
    pub jitter_ns: f64,
    /// RNG seed for this link's draws.
    pub seed: u64,
}

/// Frame-count accounting for impaired links: every offered frame is
/// either delivered or counted lost, and duplicates are counted on top
/// (`delivered == offered - lost + duplicated`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImpairStats {
    /// Frames dropped by link loss.
    pub lost: u64,
    /// Extra copies delivered by duplication.
    pub duplicated: u64,
    /// Frames whose arrival was jittered.
    pub reordered: u64,
}

/// A received frame with its arrival time.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// Arrival time (ns).
    pub t_ns: f64,
    /// The frame (with `in_port` set to the arrival interface).
    pub frame: Frame,
}

enum NodeKind {
    /// An end host: frames accumulate in its inbox.
    Host { inbox: Vec<Delivery> },
    /// A service node: an [`Engine`] of 1..N pipelines, built by the
    /// caller — the same engine (and dispatch policy) every other target
    /// uses, so the Mininet-analogue exercises identical behaviour —
    /// and the node's one core clock.
    Service(Box<Engine>, NodeClock),
    /// A closed-loop endpoint agent reacting to frames and timers
    /// inside `run_until` (see [`HostAgent`]).
    Agent(Box<dyn HostAgent>),
}

struct Node {
    name: String,
    kind: NodeKind,
    /// Interface table: port index → (link id) when connected.
    ifaces: Vec<Option<usize>>,
    /// Frames this node's engine refused per-frame (oversize input or a
    /// trapping core) — the per-node drop accounting that lets
    /// adversarial mixes run through topologies without aborting the
    /// simulation. Always zero for hosts.
    drops: u64,
    /// The most recent drop's error text (diagnostics).
    last_drop: Option<String>,
}

struct Link {
    a: (usize, usize), // (node, port)
    b: (usize, usize),
    delay_ns: f64,
    gbps: f64,
    /// Per-direction serialization horizon: `[0]` is the a→b lane,
    /// `[1]` the b→a lane. A full-duplex link's directions never
    /// contend for the wire.
    busy_until_ns: [f64; 2],
    /// Impairment model and its private RNG, when configured.
    impair: Option<(Impairments, StdRng)>,
}

/// An event's place in the queue: its time, then the order it was
/// queued in, as one integer — the time's bits above the sequence
/// number. Every queued time is ≥ 0 and never NaN (`transmit` and
/// `arm_timer` clamp with `max`), and the bits of such an `f64` order
/// as integers like its value. With no timers queued, comparing the
/// halves as a tuple cost ~8 % per event over the float compare this
/// replaced; one `u128` compare saves ~5 %.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key(u128);

impl Key {
    fn t_ns(self) -> f64 {
        f64::from_bits((self.0 >> 64) as u64)
    }
}

/// A queued event. `BinaryHeap` is a max-heap, so the earliest key
/// compares greatest.
struct Queued<T> {
    key: Key,
    event: T,
}

impl<T> PartialEq for Queued<T> {
    fn eq(&self, o: &Self) -> bool {
        self.key == o.key
    }
}
impl<T> Eq for Queued<T> {}
impl<T> PartialOrd for Queued<T> {
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}
impl<T> Ord for Queued<T> {
    fn cmp(&self, o: &Self) -> Ordering {
        o.key.cmp(&self.key)
    }
}

/// A frame arriving on a node's port.
struct Arrival {
    node: usize,
    port: usize,
    frame: Frame,
}

/// An agent's one-shot timer carrying its token.
struct Timer {
    node: usize,
    token: u64,
}

/// The earliest due event, out of either heap.
enum Due {
    Arrival(Arrival),
    Timer(Timer),
}

/// The event queue: frame arrivals and agent timers in two heaps under
/// one `(time, seq)` order (the crate docs say why timers live apart).
#[derive(Default)]
struct Queue {
    arrivals: BinaryHeap<Queued<Arrival>>,
    timers: BinaryHeap<Queued<Timer>>,
    seq: u64,
}

impl Queue {
    fn key(&mut self, t_ns: f64) -> Key {
        debug_assert!(t_ns >= 0.0, "queued time {t_ns} is negative or NaN");
        self.seq += 1;
        // `+ 0.0` makes −0.0 +0.0, which equals it and orders first.
        Key(u128::from((t_ns + 0.0).to_bits()) << 64 | u128::from(self.seq))
    }

    fn push_arrival(&mut self, t_ns: f64, event: Arrival) {
        let key = self.key(t_ns);
        self.arrivals.push(Queued { key, event });
    }

    fn push_timer(&mut self, t_ns: f64, event: Timer) {
        let key = self.key(t_ns);
        self.timers.push(Queued { key, event });
    }

    /// Pops the earlier of the two heads, with its time, unless it is
    /// due after `t_end_ns`.
    fn pop_due(&mut self, t_end_ns: f64) -> Option<(f64, Due)> {
        let arrival = self.arrivals.peek().map(|q| q.key);
        let timer = self.timers.peek().map(|q| q.key);
        let timer_first = match (arrival, timer) {
            (Some(a), Some(t)) => t < a,
            (arrival, _) => arrival.is_none(),
        };
        let t_ns = if timer_first { timer } else { arrival }?.t_ns();
        if t_ns > t_end_ns {
            return None;
        }
        let due = if timer_first {
            Due::Timer(self.timers.pop()?.event)
        } else {
            Due::Arrival(self.arrivals.pop()?.event)
        };
        Some((t_ns, due))
    }
}

/// The network simulator.
pub struct NetSim {
    nodes: Vec<Node>,
    links: Vec<Link>,
    queue: Queue,
    time_ns: f64,
    /// Frames delivered to a port with no link attached.
    pub dropped_no_link: u64,
    /// Aggregate impairment accounting across every impaired link.
    pub impair_stats: ImpairStats,
}

impl Default for NetSim {
    fn default() -> Self {
        Self::new()
    }
}

impl NetSim {
    /// Creates an empty network.
    pub fn new() -> Self {
        NetSim {
            nodes: Vec::new(),
            links: Vec::new(),
            queue: Queue::default(),
            time_ns: 0.0,
            dropped_no_link: 0,
            impair_stats: ImpairStats::default(),
        }
    }

    /// Adds an end host with `ports` interfaces.
    pub fn add_host(&mut self, name: &str, ports: usize) -> NodeId {
        self.nodes.push(Node {
            name: name.to_string(),
            kind: NodeKind::Host { inbox: Vec::new() },
            ifaces: vec![None; ports],
            drops: 0,
            last_drop: None,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Adds a service node running a caller-built [`Engine`] with
    /// `ports` interfaces. The engine carries the whole execution
    /// configuration — shard count, dispatch policy, target — so a
    /// single-pipeline node and a sharded scale-out node are the same
    /// API:
    ///
    /// ```ignore
    /// let node = net.add_service("nat", svc.engine(Target::Cpu).shards(4).build()?, 4);
    /// ```
    ///
    /// Any target works: the node's timing comes from the engine's model
    /// cycles and the node's [`NodeClock`], which are the same on every
    /// target's engine for the same program.
    ///
    /// # Panics
    ///
    /// Panics if `ports` exceeds 8: a service addresses its ports through
    /// the dataplane's 8-bit `tx_ports` bitmap, so a ninth port could
    /// never be transmitted on.
    pub fn add_service(&mut self, name: &str, engine: Engine, ports: usize) -> NodeId {
        assert!(
            ports <= 8,
            "add_service: {name} has {ports} ports, but tx_ports is an 8-bit bitmap"
        );
        self.nodes.push(Node {
            name: name.to_string(),
            kind: NodeKind::Service(Box::new(engine), NodeClock::default()),
            ifaces: vec![None; ports],
            drops: 0,
            last_drop: None,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Adds a closed-loop endpoint agent with `ports` interfaces. The
    /// agent's [`HostAgent::on_frame`]/[`HostAgent::on_timer`] callbacks
    /// run inside [`NetSim::run_until`]; kick it off by arming its first
    /// timer with [`NetSim::arm_timer`] (or by sending it a frame).
    pub fn add_agent(&mut self, name: &str, agent: Box<dyn HostAgent>, ports: usize) -> NodeId {
        self.nodes.push(Node {
            name: name.to_string(),
            kind: NodeKind::Agent(agent),
            ifaces: vec![None; ports],
            drops: 0,
            last_drop: None,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Arms a one-shot timer on an agent node: at `at_ns` (or the
    /// current simulation time, whichever is later) the agent's
    /// [`HostAgent::on_timer`] runs with `token`. This is how a harness
    /// starts agents before the first `run_until`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an agent node.
    pub fn arm_timer(&mut self, node: NodeId, at_ns: f64, token: u64) {
        assert!(
            matches!(self.nodes[node.0].kind, NodeKind::Agent(_)),
            "arm_timer: node {} ({:?}) is not an agent",
            self.nodes[node.0].name,
            node,
        );
        self.queue.push_timer(
            at_ns.max(self.time_ns),
            Timer {
                node: node.0,
                token,
            },
        );
    }

    /// Connects `a.port_a ↔ b.port_b` with the given delay and rate,
    /// returning a handle for further configuration ([`NetSim::impair`]).
    ///
    /// # Panics
    ///
    /// Panics if either port is out of range or already connected, if
    /// `delay_ns` is not a finite value `>= 0`, or if `gbps` is not a
    /// finite value `> 0`. Such a link would break the simulator far
    /// from its cause: a NaN time has no place in the event order, a zero
    /// rate parks every frame at t = ∞ and never delivers it, and a
    /// negative delay or rate delivers a frame before it was sent.
    pub fn link(
        &mut self,
        a: NodeId,
        port_a: usize,
        b: NodeId,
        port_b: usize,
        delay_ns: f64,
        gbps: f64,
    ) -> LinkId {
        assert!(
            delay_ns.is_finite() && delay_ns >= 0.0,
            "link: delay_ns must be finite and >= 0, got {delay_ns}"
        );
        assert!(
            gbps.is_finite() && gbps > 0.0,
            "link: gbps must be finite and > 0, got {gbps}"
        );
        assert!(self.nodes[a.0].ifaces[port_a].is_none(), "port in use");
        assert!(self.nodes[b.0].ifaces[port_b].is_none(), "port in use");
        let id = self.links.len();
        self.links.push(Link {
            a: (a.0, port_a),
            b: (b.0, port_b),
            delay_ns,
            gbps,
            busy_until_ns: [0.0; 2],
            impair: None,
        });
        self.nodes[a.0].ifaces[port_a] = Some(id);
        self.nodes[b.0].ifaces[port_b] = Some(id);
        LinkId(id)
    }

    /// Attaches seeded impairments to a link (both directions share the
    /// configuration and the RNG).
    ///
    /// # Panics
    ///
    /// Panics, naming the field, unless `loss`, `duplicate` and `reorder`
    /// are each finite and in `[0, 1]` and `jitter_ns` is finite and
    /// `>= 0`. An infinite jitter parks a frame at t = ∞, a NaN one
    /// has no place in the event order, and a probability above 1 would
    /// silently mean "always".
    pub fn impair(&mut self, link: LinkId, imp: Impairments) {
        for (field, p) in [
            ("loss", imp.loss),
            ("duplicate", imp.duplicate),
            ("reorder", imp.reorder),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "impair: {field} must be a probability in [0, 1], got {p}"
            );
        }
        let jitter = imp.jitter_ns;
        assert!(
            jitter.is_finite() && jitter >= 0.0,
            "impair: jitter_ns must be finite and >= 0, got {jitter}"
        );
        self.links[link.0].impair = Some((imp, StdRng::seed_from_u64(imp.seed ^ 0x11e7_51f1)));
    }

    /// Injects a frame leaving `node`'s `port` at time `t_ns`.
    pub fn send(&mut self, node: NodeId, port: usize, frame: Frame, t_ns: f64) {
        self.transmit(node.0, port, frame, t_ns);
    }

    fn transmit(&mut self, node: usize, port: usize, frame: Frame, t_ns: f64) {
        let Some(&Some(link_id)) = self.nodes[node].ifaces.get(port) else {
            self.dropped_no_link += 1;
            return;
        };
        let link = &mut self.links[link_id];
        // Serialization occupies only this direction's lane: a full-
        // duplex link's two directions never contend for the wire.
        let dir = usize::from(!(link.a.0 == node && link.a.1 == port));
        let ser_ns = frame.wire_bytes() as f64 * 8.0 / link.gbps;
        let start = t_ns.max(link.busy_until_ns[dir]);
        link.busy_until_ns[dir] = start + ser_ns;
        let arrive = start + ser_ns + link.delay_ns;
        let (dst_node, dst_port) = if dir == 0 { link.b } else { link.a };

        // Impairments: the frame occupied the wire either way; it is
        // then lost, delivered (possibly jittered), and possibly
        // delivered twice. Draws come from the link's seeded RNG in a
        // fixed order, so a seed fully determines the outcome sequence.
        let (first, copy) = match &mut link.impair {
            None => (arrive, None),
            Some((imp, rng)) => {
                if imp.loss > 0.0 && rng.gen_bool(imp.loss) {
                    self.impair_stats.lost += 1;
                    return;
                }
                // Each delivery draws its own reorder jitter.
                let jitter = |rng: &mut StdRng| {
                    (imp.reorder > 0.0 && imp.jitter_ns > 0.0 && rng.gen_bool(imp.reorder))
                        .then(|| rng.gen_range(0.0..imp.jitter_ns))
                };
                let first = jitter(rng);
                self.impair_stats.reordered += u64::from(first.is_some());
                let copy = (imp.duplicate > 0.0 && rng.gen_bool(imp.duplicate))
                    .then(|| arrive + jitter(rng).unwrap_or(0.0));
                self.impair_stats.duplicated += u64::from(copy.is_some());
                (arrive + first.unwrap_or(0.0), copy)
            }
        };
        // The frame moves into the last delivery; only a duplicate clones.
        let last = match copy {
            Some(t) => {
                self.deliver(first, dst_node, dst_port, frame.clone());
                t
            }
            None => first,
        };
        self.deliver(last, dst_node, dst_port, frame);
    }

    fn deliver(&mut self, t_ns: f64, node: usize, port: usize, frame: Frame) {
        self.queue.push_arrival(t_ns, Arrival { node, port, frame });
    }

    /// Runs until the event queue drains or `t_end_ns` passes. Returns the
    /// number of events processed.
    ///
    /// A service node refusing one frame — [`EngineError::Oversize`]
    /// input validation or a [`EngineError::Trap`] out of the core — is
    /// a *per-node drop* (`drops` and `last_drop` of the node's entry in
    /// [`NetSim::telemetry`]), exactly as a real
    /// NIC counts rx errors, so adversarial mixes run whole topologies
    /// without killing the simulation. Simulation-fatal errors —
    /// [`EngineError::Build`] and [`EngineError::Poisoned`] (the node
    /// kept receiving traffic after a trap already poisoned the shard) —
    /// still abort.
    pub fn run_until(&mut self, t_end_ns: f64) -> IrResult<u64> {
        let mut processed = 0;
        while let Some((now, due)) = self.queue.pop_due(t_end_ns) {
            self.time_ns = now;
            processed += 1;
            let Arrival {
                node: dst_node,
                port: dst_port,
                mut frame,
            } = match due {
                Due::Timer(Timer { node, token }) => {
                    // Timers only target agent nodes (`arm_timer`
                    // asserts at arm time; agents arm only themselves).
                    let NodeKind::Agent(agent) = &mut self.nodes[node].kind else {
                        debug_assert!(false, "timer fired on a non-agent node");
                        continue;
                    };
                    let out = agent.on_timer(now, token);
                    self.apply_agent_output(node, now, out);
                    continue;
                }
                Due::Arrival(arrival) => arrival,
            };
            frame.in_port = dst_port as u8;
            let node = &mut self.nodes[dst_node];
            let (out, t) = match &mut node.kind {
                NodeKind::Host { inbox } => {
                    inbox.push(Delivery { t_ns: now, frame });
                    continue;
                }
                NodeKind::Agent(agent) => {
                    let out = agent.on_frame(now, dst_port, &frame);
                    self.apply_agent_output(dst_node, now, out);
                    continue;
                }
                // The frame's last bit is in at `now`; it leaves the
                // node's egress MAC onto the link after the node's path.
                NodeKind::Service(engine, clock) => match engine.process(&frame) {
                    Ok(out) => {
                        let t = clock.serve(now, out.cycles) + MAC_PHY_NS;
                        (out, t)
                    }
                    Err(e @ (EngineError::Oversize { .. } | EngineError::Trap { .. })) => {
                        node.drops += 1;
                        node.last_drop = Some(e.to_string());
                        continue;
                    }
                    Err(e) => return Err(e.into()),
                },
            };
            let ifaces = &self.nodes[dst_node].ifaces;
            let (mut linked, mut unlinked) = (0u8, 0u8);
            for (p, iface) in ifaces.iter().enumerate() {
                match iface {
                    Some(_) => linked |= 1 << p,
                    None => unlinked |= 1 << p,
                }
            }
            for tx in out.tx {
                self.dropped_no_link += u64::from((tx.ports & unlinked).count_ones());
                // Ascending port order: earlier ports get copies, the
                // last linked port takes the frame itself.
                let mut ports = tx.ports & linked;
                while ports != 0 {
                    let p = ports.trailing_zeros() as usize;
                    ports &= ports - 1;
                    if ports == 0 {
                        self.transmit(dst_node, p, tx.frame, t);
                        break;
                    }
                    self.transmit(dst_node, p, tx.frame.clone(), t);
                }
            }
        }
        Ok(processed)
    }

    /// Applies one agent callback's output: transmissions leave now,
    /// timers are armed no earlier than now.
    fn apply_agent_output(&mut self, node: usize, now_ns: f64, out: AgentOutput) {
        for (port, frame) in out.tx {
            self.transmit(node, port, frame, now_ns);
        }
        for (at_ns, token) in out.timers {
            self.queue
                .push_timer(at_ns.max(now_ns), Timer { node, token });
        }
    }

    /// Drains a host's inbox.
    ///
    /// # Panics
    ///
    /// Panics if `host` is a service or agent node — those have no
    /// inbox, and the old behaviour of silently returning an empty
    /// `Vec` was indistinguishable from "no traffic arrived" (a real
    /// bug class: asserting on the inbox of the wrong node always
    /// passed vacuously).
    #[track_caller]
    pub fn inbox(&mut self, host: NodeId) -> Vec<Delivery> {
        match self.try_inbox(host) {
            Some(v) => v,
            None => panic!(
                "inbox: node {} ({host:?}) is not a host (services and \
                 agents have no inbox; did you assert on the wrong node?)",
                self.nodes[host.0].name,
            ),
        }
    }

    /// Drains a host's inbox, or `None` when `node` is a service or
    /// agent node (which have no inbox).
    pub(crate) fn try_inbox(&mut self, node: NodeId) -> Option<Vec<Delivery>> {
        match &mut self.nodes[node.0].kind {
            NodeKind::Host { inbox } => Some(std::mem::take(inbox)),
            NodeKind::Service(..) | NodeKind::Agent(_) => None,
        }
    }

    /// Node name (diagnostics).
    pub fn name(&self, n: NodeId) -> &str {
        &self.nodes[n.0].name
    }

    /// Access a service node's engine (register/shard inspection in
    /// tests) — the one accessor for every node shape.
    pub fn engine_mut(&mut self, n: NodeId) -> Option<&mut Engine> {
        match &mut self.nodes[n.0].kind {
            NodeKind::Service(engine, _) => Some(engine),
            NodeKind::Host { .. } | NodeKind::Agent(_) => None,
        }
    }

    /// Access an agent node's [`HostAgent`] (`None` for other node
    /// kinds).
    pub(crate) fn agent_mut(&mut self, n: NodeId) -> Option<&mut dyn HostAgent> {
        match &mut self.nodes[n.0].kind {
            NodeKind::Agent(agent) => Some(agent.as_mut()),
            _ => None,
        }
    }

    /// Typed access to an agent node's concrete implementation —
    /// harvesting client stats in tests and benches:
    ///
    /// ```ignore
    /// let stats = net.agent_as::<McClient>(c).unwrap().stats();
    /// ```
    pub fn agent_as<T: HostAgent + 'static>(&mut self, n: NodeId) -> Option<&mut T> {
        self.agent_mut(n)?.as_any_mut().downcast_mut::<T>()
    }

    /// Whole-network telemetry as one JSON object: per-node drop
    /// accounting (with the embedded engine's
    /// [`Engine::telemetry`] snapshot for service nodes), plus the
    /// network-level counters — frames offered to unlinked ports and
    /// the aggregate [`ImpairStats`].
    ///
    /// The snapshot is deterministic for a seeded scenario: it folds
    /// model-cycle histograms and frame counters, never wall time.
    pub fn telemetry(&self) -> Json {
        let nodes: Vec<Json> = self
            .nodes
            .iter()
            .map(|node| {
                let mut fields = vec![
                    ("node", Json::from(node.name.as_str())),
                    (
                        "kind",
                        Json::from(match node.kind {
                            NodeKind::Host { .. } => "host",
                            NodeKind::Service(..) => "service",
                            NodeKind::Agent(_) => "agent",
                        }),
                    ),
                    ("drops", Json::from(node.drops)),
                ];
                if let Some(reason) = &node.last_drop {
                    fields.push(("last_drop", Json::from(reason.as_str())));
                }
                if let NodeKind::Service(engine, _) = &node.kind {
                    if let Some(snap) = engine.telemetry() {
                        fields.push(("engine", snap.to_json()));
                    }
                }
                if let NodeKind::Agent(agent) = &node.kind {
                    if let Some(snap) = agent.telemetry() {
                        fields.push(("agent", snap));
                    }
                }
                Json::obj(fields)
            })
            .collect();
        Json::obj(vec![
            ("time_ns", Json::from(self.time_ns)),
            ("dropped_no_link", Json::from(self.dropped_no_link)),
            (
                "impairments",
                Json::obj(vec![
                    ("lost", Json::from(self.impair_stats.lost)),
                    ("duplicated", Json::from(self.impair_stats.duplicated)),
                    ("reordered", Json::from(self.impair_stats.reordered)),
                ]),
            ),
            ("nodes", Json::Arr(nodes)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emu_core::{service_builder, Service, Target};
    use kiwi_ir::dsl::*;
    use netfpga_sim::timing::{ARBITER_NS, NS_PER_CYCLE, OUT_QUEUE_NS};

    fn cpu_engine(svc: &Service, shards: usize) -> Engine {
        svc.engine(Target::Cpu).shards(shards).build().unwrap()
    }

    fn mirror_service() -> Service {
        let (mut pb, dp) = service_builder("mirror", 1536);
        let mut body = vec![dp.rx_wait(), dp.set_output_port(dp.input_port())];
        body.extend(dp.transmit(dp.rx_len()));
        body.extend(dp.done());
        pb.thread("main", vec![forever(body)]);
        Service::new(pb.build().unwrap())
    }

    #[test]
    fn frame_crosses_a_link_with_delay() {
        let mut net = NetSim::new();
        let a = net.add_host("a", 1);
        let b = net.add_host("b", 1);
        net.link(a, 0, b, 0, 1000.0, 10.0);
        net.send(a, 0, Frame::new(vec![0xaa; 60]), 0.0);
        net.run_until(1e9).unwrap();
        let inbox = net.inbox(b);
        assert_eq!(inbox.len(), 1);
        // 80 wire bytes at 10G = 64 ns + 1000 ns propagation.
        assert!((inbox[0].t_ns - 1064.0).abs() < 1e-9, "t {}", inbox[0].t_ns);
    }

    #[test]
    fn mirror_node_reflects() {
        let mut net = NetSim::new();
        let h = net.add_host("h", 1);
        let m = net.add_service("mirror", cpu_engine(&mirror_service(), 1), 4);
        net.link(h, 0, m, 2, 500.0, 10.0);
        net.send(h, 0, Frame::new(vec![1; 60]), 0.0);
        net.run_until(1e9).unwrap();
        let inbox = net.inbox(h);
        assert_eq!(inbox.len(), 1, "mirrored frame must come back");
        // Round trip: 2 × (serialization + delay).
        assert!(inbox[0].t_ns > 1000.0);
    }

    #[test]
    fn switch_learns_across_the_network() {
        let mut net = NetSim::new();
        let sw = net.add_service("sw", cpu_engine(&emu_services::switch_ip_cam(), 1), 4);
        let h: Vec<NodeId> = (0..4)
            .map(|i| {
                let h = net.add_host(&format!("h{i}"), 1);
                net.link(h, 0, sw, i, 100.0, 10.0);
                h
            })
            .collect();

        let mac = |i: u64| emu_types::MacAddr::from_u64(0x10 + i);
        // h0 -> h1 (unknown: floods to h1,h2,h3).
        let f = Frame::ethernet(mac(1), mac(0), 0x0800, &[0; 46]);
        net.send(h[0], 0, f, 0.0);
        net.run_until(1e6).unwrap();
        assert_eq!(net.inbox(h[1]).len(), 1);
        assert_eq!(net.inbox(h[2]).len(), 1);
        assert_eq!(net.inbox(h[3]).len(), 1);
        assert!(net.inbox(h[0]).is_empty(), "no hairpin");

        // h1 -> h0 (learned: unicast).
        let f = Frame::ethernet(mac(0), mac(1), 0x0800, &[0; 46]);
        net.send(h[1], 0, f, 1e6);
        net.run_until(2e6).unwrap();
        assert_eq!(net.inbox(h[0]).len(), 1);
        assert!(net.inbox(h[2]).is_empty());
        assert!(net.inbox(h[3]).is_empty());
    }

    #[test]
    fn sharded_mirror_node_reflects_like_single() {
        // The same topology behaves identically whether the service node
        // is a single instance or a sharded engine (mirror is stateless).
        let run = |shards: usize| {
            let mut net = NetSim::new();
            let h = net.add_host("h", 1);
            let svc = mirror_service();
            let m = net.add_service("mirror", cpu_engine(&svc, shards), 4);
            net.link(h, 0, m, 2, 500.0, 10.0);
            for i in 0..6u8 {
                net.send(
                    h,
                    0,
                    Frame::new(vec![i; 60 + i as usize * 9]),
                    i as f64 * 1e4,
                );
            }
            net.run_until(1e9).unwrap();
            net.inbox(h)
        };
        let single = run(1);
        let sharded = run(4);
        assert_eq!(single.len(), 6);
        assert_eq!(single, sharded);
    }

    #[test]
    fn telemetry_folds_node_and_engine_stats() {
        let mut net = NetSim::new();
        let h = net.add_host("h", 1);
        let m = net.add_service("mirror", cpu_engine(&mirror_service(), 2), 4);
        net.link(h, 0, m, 2, 500.0, 10.0);
        for i in 0..5u8 {
            net.send(h, 0, Frame::new(vec![i; 60]), f64::from(i) * 1e4);
        }
        net.run_until(1e9).unwrap();
        // An unlinked send shows up in the network-level counter.
        let h2 = net.add_host("h2", 2);
        net.send(h2, 1, Frame::new(vec![0; 60]), 0.0);
        net.run_until(2e9).unwrap();

        let t = net.telemetry();
        assert_eq!(t.get("dropped_no_link").and_then(Json::as_u64), Some(1));
        let nodes = t.get("nodes").and_then(Json::as_arr).unwrap();
        assert_eq!(nodes.len(), 3);
        let svc = nodes
            .iter()
            .find(|n| n.get("kind").and_then(Json::as_str) == Some("service"))
            .unwrap();
        assert_eq!(svc.get("node").and_then(Json::as_str), Some("mirror"));
        assert_eq!(svc.get("drops").and_then(Json::as_u64), Some(0));
        let total = svc
            .get("engine")
            .and_then(|e| e.get("total"))
            .expect("service node embeds its engine snapshot");
        assert_eq!(
            total
                .get("counters")
                .and_then(|c| c.get("frames"))
                .and_then(Json::as_u64),
            Some(5)
        );
        // Round-trips through the JSON writer/parser losslessly.
        let echo = Json::parse(&t.pretty()).unwrap();
        assert_eq!(echo, t);
    }

    #[test]
    fn service_node_exposes_engine() {
        let mut net = NetSim::new();
        let m = net.add_service("mirror", cpu_engine(&mirror_service(), 3), 4);
        let h = net.add_host("h", 1);
        assert_eq!(net.engine_mut(m).unwrap().num_shards(), 3);
        assert!(net.engine_mut(h).is_none());
    }

    #[test]
    fn multicast_reaches_linked_ports_in_ascending_order() {
        // Every frame goes to service ports 0–3; port 2 has no link.
        let (mut pb, dp) = service_builder("fan-out", 1536);
        let mut body = vec![dp.rx_wait(), sig_write(dp.ports.tx_ports, lit(0b1111, 8))];
        body.extend(dp.transmit(dp.rx_len()));
        body.extend(dp.done());
        pb.thread("main", vec![forever(body)]);
        let svc = Service::new(pb.build().unwrap());

        let mut net = NetSim::new();
        let src = net.add_host("src", 1);
        let sink = net.add_host("sink", 3);
        let fan = net.add_service("fan-out", cpu_engine(&svc, 1), 5);
        net.link(src, 0, fan, 4, 100.0, 10.0);
        // Service ports 0, 1 and 3 reach sink ports 2, 0 and 1: equal
        // links, so the three copies arrive together, in send order.
        for (svc_port, sink_port) in [(0, 2), (1, 0), (3, 1)] {
            net.link(fan, svc_port, sink, sink_port, 100.0, 10.0);
        }
        let sent = Frame::new((0..60).collect());
        net.send(src, 0, sent.clone(), 0.0);
        net.run_until(1e9).unwrap();

        let inbox = net.inbox(sink);
        let arrivals: Vec<u8> = inbox.iter().map(|d| d.frame.in_port).collect();
        assert_eq!(arrivals, [2, 0, 1], "service ports 0, 1, 3 in that order");
        for d in &inbox {
            assert_eq!(d.frame.bytes(), sent.bytes());
            assert_eq!(d.t_ns, inbox[0].t_ns);
        }
        assert_eq!(net.dropped_no_link, 1, "port 2 has no link");
        assert!(net.inbox(src).is_empty());
    }

    /// Two hosts joined by a link of the given delay and rate.
    fn linked_pair(delay_ns: f64, gbps: f64) {
        let mut net = NetSim::new();
        let a = net.add_host("a", 1);
        let b = net.add_host("b", 1);
        net.link(a, 0, b, 0, delay_ns, gbps);
    }

    #[test]
    fn a_link_of_zero_delay_is_accepted() {
        linked_pair(0.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "delay_ns must be finite and >= 0")]
    fn a_nan_link_delay_panics() {
        linked_pair(f64::NAN, 10.0);
    }

    #[test]
    #[should_panic(expected = "delay_ns must be finite and >= 0")]
    fn a_negative_link_delay_panics() {
        linked_pair(-1.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "gbps must be finite and > 0")]
    fn a_zero_link_rate_panics() {
        linked_pair(100.0, 0.0);
    }

    /// Two hosts joined by a link impaired with `imp`.
    fn impaired_pair(imp: Impairments) {
        let mut net = NetSim::new();
        let a = net.add_host("a", 1);
        let b = net.add_host("b", 1);
        let l = net.link(a, 0, b, 0, 100.0, 10.0);
        net.impair(l, imp);
    }

    #[test]
    #[should_panic(expected = "loss must be a probability in [0, 1]")]
    fn a_loss_above_one_panics() {
        impaired_pair(Impairments {
            loss: 1.5,
            ..Impairments::default()
        });
    }

    #[test]
    #[should_panic(expected = "duplicate must be a probability in [0, 1]")]
    fn a_nan_duplicate_panics() {
        impaired_pair(Impairments {
            duplicate: f64::NAN,
            ..Impairments::default()
        });
    }

    #[test]
    #[should_panic(expected = "reorder must be a probability in [0, 1]")]
    fn a_negative_reorder_panics() {
        impaired_pair(Impairments {
            reorder: -0.1,
            ..Impairments::default()
        });
    }

    #[test]
    #[should_panic(expected = "jitter_ns must be finite and >= 0")]
    fn an_infinite_jitter_panics() {
        impaired_pair(Impairments {
            reorder: 0.5,
            jitter_ns: f64::INFINITY,
            ..Impairments::default()
        });
    }

    #[test]
    fn unlinked_port_drops() {
        let mut net = NetSim::new();
        let h = net.add_host("h", 2);
        net.send(h, 1, Frame::new(vec![0; 60]), 0.0);
        net.run_until(1e9).unwrap();
        assert_eq!(net.dropped_no_link, 1);
    }

    #[test]
    fn serialization_queues_back_to_back_frames() {
        let mut net = NetSim::new();
        let a = net.add_host("a", 1);
        let b = net.add_host("b", 1);
        net.link(a, 0, b, 0, 0.0, 10.0);
        for _ in 0..3 {
            net.send(a, 0, Frame::new(vec![0; 60]), 0.0);
        }
        net.run_until(1e9).unwrap();
        let inbox = net.inbox(b);
        assert_eq!(inbox.len(), 3);
        // Arrivals spaced by one 80-byte serialization time (64 ns).
        assert!((inbox[1].t_ns - inbox[0].t_ns - 64.0).abs() < 1e-9);
        assert!((inbox[2].t_ns - inbox[1].t_ns - 64.0).abs() < 1e-9);
    }

    #[test]
    fn slow_link_sends_arrive_in_order_without_overlap() {
        // Regression for `Link::busy_until_ns` accounting: back-to-back
        // sends on a slow link must arrive in send order with at least
        // one full serialization time between arrivals — the wire can
        // hold one frame at a time per direction.
        let mut net = NetSim::new();
        let a = net.add_host("a", 1);
        let b = net.add_host("b", 1);
        net.link(a, 0, b, 0, 250.0, 0.1); // 80 wire bytes = 6400 ns each
        for i in 0..5u8 {
            net.send(a, 0, Frame::new(vec![i; 60]), 0.0);
        }
        net.run_until(1e9).unwrap();
        let inbox = net.inbox(b);
        assert_eq!(inbox.len(), 5);
        for (i, d) in inbox.iter().enumerate() {
            assert_eq!(d.frame.bytes()[0], i as u8, "arrival order broke");
        }
        for w in inbox.windows(2) {
            let gap = w[1].t_ns - w[0].t_ns;
            assert!(gap >= 6400.0 - 1e-9, "frames overlapped on the wire: {gap}");
        }
        // First frame: 6400 ns serialization + 250 ns propagation.
        assert!((inbox[0].t_ns - 6650.0).abs() < 1e-9, "{}", inbox[0].t_ns);
    }

    #[test]
    fn link_directions_are_independent_lanes() {
        // Full duplex: simultaneous sends in both directions must not
        // serialize behind each other (the old shared `busy_until_ns`
        // accounting delayed the reverse direction by a full frame).
        let mut net = NetSim::new();
        let a = net.add_host("a", 1);
        let b = net.add_host("b", 1);
        net.link(a, 0, b, 0, 100.0, 0.1);
        net.send(a, 0, Frame::new(vec![1; 60]), 0.0);
        net.send(b, 0, Frame::new(vec![2; 60]), 0.0);
        net.run_until(1e9).unwrap();
        let at_b = net.inbox(b);
        let at_a = net.inbox(a);
        assert_eq!((at_a.len(), at_b.len()), (1, 1));
        // Both see exactly serialization + propagation; neither waited.
        assert!((at_b[0].t_ns - 6500.0).abs() < 1e-9, "{}", at_b[0].t_ns);
        assert!((at_a[0].t_ns - 6500.0).abs() < 1e-9, "{}", at_a[0].t_ns);
    }

    fn lossy(loss: f64, dup: f64, reorder: f64, seed: u64) -> Impairments {
        Impairments {
            loss,
            duplicate: dup,
            reorder,
            jitter_ns: 5_000.0,
            seed,
        }
    }

    /// Sends `n` distinct frames a→b over a link impaired with `imp`,
    /// returning the delivered payload tags in arrival order plus the
    /// final stats.
    fn run_impaired(n: u16, imp: Impairments) -> (Vec<u16>, ImpairStats) {
        let mut net = NetSim::new();
        let a = net.add_host("a", 1);
        let b = net.add_host("b", 1);
        let l = net.link(a, 0, b, 0, 500.0, 10.0);
        net.impair(l, imp);
        for i in 0..n {
            let mut bytes = vec![0u8; 60];
            bytes[12..14].copy_from_slice(&[0x12, 0x34]); // inert ethertype
            bytes[14..16].copy_from_slice(&i.to_be_bytes());
            net.send(a, 0, Frame::new(bytes), f64::from(i) * 1_000.0);
        }
        net.run_until(1e12).unwrap();
        let tags = net
            .inbox(b)
            .into_iter()
            .map(|d| u16::from_be_bytes([d.frame.bytes()[14], d.frame.bytes()[15]]))
            .collect();
        (tags, net.impair_stats)
    }

    #[test]
    fn impairments_are_deterministic_for_a_seed() {
        let imp = lossy(0.1, 0.05, 0.2, 42);
        let (tags_a, stats_a) = run_impaired(400, imp);
        let (tags_b, stats_b) = run_impaired(400, imp);
        assert_eq!(tags_a, tags_b, "same seed must replay identically");
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.lost > 0 && stats_a.duplicated > 0 && stats_a.reordered > 0);
        // A different seed gives a different realization.
        let (tags_c, _) = run_impaired(400, lossy(0.1, 0.05, 0.2, 43));
        assert_ne!(tags_a, tags_c);
    }

    #[test]
    fn impairments_conserve_or_drop_frame_counts_exactly() {
        for seed in 0..5u64 {
            let (tags, stats) = run_impaired(500, lossy(0.15, 0.1, 0.0, seed));
            assert_eq!(
                tags.len() as u64,
                500 - stats.lost + stats.duplicated,
                "seed {seed}: delivered must equal offered - lost + duplicated"
            );
        }
        // No impairment: exact conservation.
        let (tags, stats) = run_impaired(100, Impairments::default());
        assert_eq!(tags.len(), 100);
        assert_eq!(stats, ImpairStats::default());
    }

    #[test]
    fn reorder_jitter_shuffles_arrivals() {
        let (tags, stats) = run_impaired(300, lossy(0.0, 0.0, 0.5, 7));
        assert_eq!(tags.len(), 300, "reorder must not lose frames");
        assert!(stats.reordered > 50);
        let mut sorted = tags.clone();
        sorted.sort_unstable();
        assert_ne!(tags, sorted, "jitter must actually reorder");
        // Loss/duplication untouched.
        assert_eq!((stats.lost, stats.duplicated), (0, 0));
    }

    #[test]
    fn dropped_no_link_accounting_correct_under_impairment() {
        // A flooding service behind an impaired link: deliveries that
        // the service floods to unlinked ports are counted in
        // `dropped_no_link`, and impairment losses are *not* (they are
        // link losses, not missing-link drops).
        let mut net = NetSim::new();
        let h = net.add_host("h", 1);
        let m = net.add_service("mirror", cpu_engine(&mirror_service(), 1), 4);
        let l = net.link(h, 0, m, 2, 500.0, 10.0);
        net.impair(l, lossy(0.3, 0.0, 0.0, 9));
        for i in 0..200u8 {
            net.send(h, 0, Frame::new(vec![i; 60]), f64::from(i) * 10_000.0);
        }
        net.run_until(1e12).unwrap();
        let delivered = net.inbox(h).len() as u64;
        let lost = net.impair_stats.lost;
        assert!(lost > 20, "loss must bite: {lost}");
        // The mirror echoes every frame it receives back through the
        // same impaired link; echoes can be lost again on the way back.
        assert_eq!(delivered + lost, 200, "h→m loss + m→h loss + deliveries");
        assert_eq!(net.dropped_no_link, 0, "no unlinked ports involved");
        // And an unlinked send still counts exactly once.
        let lone = net.add_host("lone", 2);
        net.send(lone, 1, Frame::new(vec![0; 60]), 0.0);
        net.run_until(1e12).unwrap();
        assert_eq!(net.dropped_no_link, 1);
    }

    #[test]
    fn adversarial_mix_through_impaired_link_counts_drops() {
        // The ROADMAP open item: a topology must survive an adversarial
        // mix. Oversize frames out of the generator are refused by the
        // service's engine and counted on the node — the simulation
        // keeps running and well-formed traffic still flows.
        use emu_traffic::{Adversarial, Background, Mix, TrafficGen};
        let mut net = NetSim::new();
        let h = net.add_host("h", 1);
        let sw = net.add_service("sw", cpu_engine(&emu_services::switch_ip_cam(), 4), 4);
        let l = net.link(h, 0, sw, 1, 500.0, 10.0);
        net.impair(l, lossy(0.05, 0.02, 0.1, 11));
        let mut mix = Mix::new(5)
            .add(3, Background::new(6, &[0]))
            .add(2, Adversarial::new(7, &[0]));
        let mut oversize_sent = 0u64;
        for i in 0..400u64 {
            let f = mix.next_frame();
            if f.len() > net.engine_mut(sw).unwrap().frame_capacity() {
                oversize_sent += 1;
            }
            net.send(h, 0, f, i as f64 * 20_000.0);
        }
        net.run_until(1e12)
            .expect("adversarial mix must not abort the sim");
        assert!(oversize_sent > 0, "generator must produce oversize frames");
        let telemetry = net.telemetry();
        let node = |name: &str| {
            let nodes = telemetry.get("nodes").and_then(Json::as_arr).unwrap();
            nodes
                .iter()
                .find(|n| n.get("node").and_then(Json::as_str) == Some(name))
                .unwrap()
        };
        let drops = node("sw").get("drops").and_then(Json::as_u64).unwrap();
        assert!(drops > 0, "oversize frames must count as node drops");
        assert!(
            drops <= oversize_sent,
            "drops {drops} cannot exceed oversize offered {oversize_sent} \
             (the impaired link may lose some first)"
        );
        let reason = node("sw").get("last_drop").and_then(Json::as_str);
        assert!(reason.unwrap().contains("exceeds"), "{reason:?}");
        // The switch still processed the well-formed majority: broadcast
        // frames flooded to unlinked ports count there, not as drops.
        assert!(net.dropped_no_link > 0);
        let host_drops = node("h").get("drops").and_then(Json::as_u64);
        assert_eq!(host_drops, Some(0), "hosts never drop");
        assert_eq!(
            net.engine_mut(sw).unwrap().healthy_shards(),
            4,
            "adversarial traffic must not poison shards"
        );
    }

    /// A minimal agent: sends a tagged frame every time its timer
    /// fires, re-arming `period_ns` later until `left` hits zero, and
    /// records each arrival time it sees.
    struct Ticker {
        period_ns: f64,
        left: u32,
        seen: Vec<f64>,
    }

    impl HostAgent for Ticker {
        fn on_frame(&mut self, now_ns: f64, _port: usize, _frame: &Frame) -> AgentOutput {
            self.seen.push(now_ns);
            AgentOutput::none()
        }
        fn on_timer(&mut self, now_ns: f64, token: u64) -> AgentOutput {
            if self.left == 0 {
                return AgentOutput::none();
            }
            self.left -= 1;
            AgentOutput::none()
                .send(0, Frame::new(vec![token as u8; 60]))
                .arm(now_ns + self.period_ns, token)
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn agent_timers_drive_sends_and_reflections_close_the_loop() {
        let mut net = NetSim::new();
        let a = net.add_agent(
            "ticker",
            Box::new(Ticker {
                period_ns: 10_000.0,
                left: 5,
                seen: Vec::new(),
            }),
            1,
        );
        let m = net.add_service("mirror", cpu_engine(&mirror_service(), 1), 1);
        net.link(a, 0, m, 0, 500.0, 10.0);
        net.arm_timer(a, 0.0, 7);
        net.run_until(1e9).unwrap();
        let t = net.agent_as::<Ticker>(a).unwrap();
        assert_eq!(t.left, 0, "every timer must have fired");
        assert_eq!(t.seen.len(), 5, "every send must reflect back");
        // Arrivals are one period apart and after one round trip.
        assert!(t.seen[0] > 1000.0);
        for w in t.seen.windows(2) {
            assert!((w[1] - w[0] - 10_000.0).abs() < 1e-6, "{:?}", t.seen);
        }
        // Agents appear in telemetry as their own node kind.
        let nodes = net.telemetry();
        let kinds: Vec<&str> = nodes
            .get("nodes")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|n| n.get("kind").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(kinds, ["agent", "service"]);
    }

    #[test]
    fn service_node_echo_takes_pipelinesim_port_to_port_latency() {
        // One timing model: an Fpga `icmp_echo` node behind a zero-delay
        // 10 Gb/s link echoes a ping after exactly the port-to-port
        // latency PipelineSim (Iterative) records for the same frame —
        // the link's wire time each way is the pipeline's ingress and
        // egress wire.
        use netfpga_sim::{CoreMode, PipelineSim};
        let svc = emu_services::icmp_echo();
        let ping = emu_services::icmp::echo_request_frame(56, 1);
        let fpga = || svc.engine(Target::Fpga).build().unwrap();
        let (driver, env) = fpga().into_fpga_parts().unwrap();
        let mut sim = PipelineSim::new_emu(driver, env, CoreMode::Iterative);
        sim.inject(&ping, 0.0).unwrap();
        let port_to_port = sim.latencies_ns()[0];

        let mut net = NetSim::new();
        let h = net.add_host("h", 1);
        let node = net.add_service("icmp", fpga(), 1);
        net.link(h, 0, node, 0, 0.0, 10.0);
        net.send(h, 0, ping, 0.0);
        net.run_until(1e9).unwrap();
        let echo = net.inbox(h);
        assert_eq!(echo.len(), 1, "the ping must be echoed");
        assert!(
            (echo[0].t_ns - port_to_port).abs() < 1e-6,
            "NetSim echo at {} ns, PipelineSim port to port {port_to_port} ns",
            echo[0].t_ns
        );
    }

    #[test]
    fn a_node_serves_frames_that_arrive_together_one_at_a_time() {
        // One core per node whatever its shard count: two frames in at
        // once on two ports leave one core-time apart.
        let svc = mirror_service();
        let frame = |tag: u8| Frame::new(vec![tag; 60]);
        let cycles = cpu_engine(&svc, 1).process(&frame(0)).unwrap().cycles;
        let mut net = NetSim::new();
        let (a, b) = (net.add_host("a", 1), net.add_host("b", 1));
        let m = net.add_service("mirror", cpu_engine(&svc, 2), 2);
        net.link(a, 0, m, 0, 0.0, 10.0);
        net.link(b, 0, m, 1, 0.0, 10.0);
        net.send(a, 0, frame(1), 0.0);
        net.send(b, 0, frame(2), 0.0);
        net.run_until(1e9).unwrap();
        let gap = net.inbox(b)[0].t_ns - net.inbox(a)[0].t_ns;
        let busy = cycles as f64 * NS_PER_CYCLE;
        assert!(busy > 0.0);
        assert!(
            (gap - busy).abs() < 1e-6,
            "echoes {gap} ns apart, core busy {busy} ns"
        );
    }

    /// `n` exponential gaps of mean `1 / rate_per_ns`, from `seed`.
    fn poisson_times(seed: u64, rate_per_ns: f64, n: usize) -> impl Iterator<Item = f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = 0.0;
        (0..n).map(move |_| {
            t += -(1.0 - rng.gen_range(0.0..1.0f64)).ln() / rate_per_ns;
            t
        })
    }

    /// Arrivals per queueing check: at 10^5 a Lindley simulation missed
    /// 3 % on some seeds (up to 4.8 % at ρ = 0.8).
    const ARRIVALS: usize = 400_000;

    /// Asserts a measured mean wait is within 3 % of theory.
    fn within_3_percent(what: &str, rho: f64, mean: f64, theory: f64) {
        let err = (mean - theory).abs() / theory;
        assert!(
            err < 0.03,
            "{what} at rho {rho}: mean wait {mean:.2} ns vs {theory:.2} ns ({:.2} %)",
            err * 100.0
        );
    }

    #[test]
    fn a_link_fed_poisson_frames_is_an_m_d_1_queue() {
        // Fixed-size frames at Poisson times on one lane: the mean wait
        // for the wire is ρ / (2μ(1 − ρ)), μ = 1 / serialisation time.
        let frame = Frame::new(vec![0; 60]);
        let ser_ns = frame.wire_bytes() as f64 * 8.0 / 10.0;
        for (rho, seed) in [(0.5, 1), (0.8, 2)] {
            let mut net = NetSim::new();
            let (a, b) = (net.add_host("a", 1), net.add_host("b", 1));
            net.link(a, 0, b, 0, 0.0, 10.0);
            let sent: Vec<f64> = poisson_times(seed, rho / ser_ns, ARRIVALS).collect();
            let mut waited = 0.0;
            // Batches keep the inbox small; a lane is FIFO, so the
            // k-th arrival is the k-th send.
            for batch in sent.chunks(10_000) {
                for &t in batch {
                    net.send(a, 0, frame.clone(), t);
                }
                net.run_until(f64::MAX).unwrap();
                let inbox = net.inbox(b);
                assert_eq!(inbox.len(), batch.len());
                waited += inbox
                    .iter()
                    .zip(batch)
                    .map(|(d, &t)| d.t_ns - ser_ns - t)
                    .sum::<f64>();
            }
            let theory = rho * ser_ns / (2.0 * (1.0 - rho));
            within_3_percent("link", rho, waited / ARRIVALS as f64, theory);
        }
    }

    #[test]
    fn an_icmp_echo_node_fed_poisson_frames_is_an_m_d_1_queue_on_the_clock_grid() {
        // The node value alone, busy for `icmp_echo`'s Fpga cycles per
        // frame (D = cycles × Δ, Δ = 5 ns). An idle core admits a frame
        // on the next clock edge, and a busy one frees up on an edge, so
        // a frame starts at max(core free, its ready time rounded up to
        // an edge): an M/D/1 queue fed the rounded times, plus the
        // rounding. For Poisson arrivals the mean wait from ready to
        // start is exactly
        //     W = ρ / (2μ(1 − ρ)) + Δ / 2,   μ = 1 / D, ρ = λD.
        let ping = emu_services::icmp::echo_request_frame(56, 1);
        let mut engine = emu_services::icmp_echo()
            .engine(Target::Fpga)
            .build()
            .unwrap();
        let cycles = engine.process(&ping).unwrap().cycles;
        assert!(
            (40..=60).contains(&cycles),
            "icmp_echo Fpga cycles {cycles}"
        );
        let d_ns = cycles as f64 * NS_PER_CYCLE;
        // What a frame pays besides its wait: the MAC/PHY and arbiter
        // in, its cycles and the output queue.
        let fixed = MAC_PHY_NS + ARBITER_NS + d_ns + OUT_QUEUE_NS;
        for (rho, seed) in [(0.5, 3), (0.8, 4)] {
            let mut clock = NodeClock::default();
            let waited: f64 = poisson_times(seed, rho / d_ns, ARRIVALS)
                .map(|t| clock.serve(t, cycles) - t - fixed)
                .sum();
            let theory = rho * d_ns / (2.0 * (1.0 - rho)) + NS_PER_CYCLE / 2.0;
            within_3_percent("node", rho, waited / ARRIVALS as f64, theory);
        }
    }

    #[test]
    fn impairment_counts_stay_inside_5_sigma_binomial_bounds() {
        // Loss is drawn once per offered frame, duplication once per
        // frame that survived the loss draw.
        let (n, loss, dup) = (20_000u16, 0.1, 0.05);
        let (_, stats) = run_impaired(n, lossy(loss, dup, 0.0, 0xb1));
        let inside = |what: &str, k: u64, trials: f64, p: f64| {
            let sigma = (trials * p * (1.0 - p)).sqrt();
            assert!(
                (k as f64 - trials * p).abs() <= 5.0 * sigma,
                "{what}: {k} of {trials} at p = {p} is outside 5 sigma ({sigma:.1})"
            );
        };
        inside("lost", stats.lost, f64::from(n), loss);
        inside(
            "duplicated",
            stats.duplicated,
            f64::from(n) - stats.lost as f64,
            dup,
        );
    }

    #[test]
    fn try_inbox_distinguishes_node_kinds() {
        let mut net = NetSim::new();
        let h = net.add_host("h", 1);
        let m = net.add_service("mirror", cpu_engine(&mirror_service(), 1), 1);
        assert!(net.try_inbox(h).is_some());
        assert!(net.try_inbox(m).is_none(), "services have no inbox");
        assert!(net.agent_mut(h).is_none());
        assert!(net.engine_mut(m).is_some());
    }

    #[test]
    #[should_panic(expected = "not a host")]
    fn inbox_on_a_service_node_panics() {
        let mut net = NetSim::new();
        let m = net.add_service("mirror", cpu_engine(&mirror_service(), 1), 1);
        let _ = net.inbox(m);
    }

    #[test]
    fn an_eight_port_service_node_is_accepted() {
        let mut net = NetSim::new();
        net.add_service("mirror", cpu_engine(&mirror_service(), 1), 8);
    }

    #[test]
    #[should_panic(expected = "8-bit bitmap")]
    fn a_ninth_service_port_panics() {
        // Port 8 would test bit 8 of the 8-bit `tx_ports` bitmap: a
        // shift overflow in a debug build, port 0's frames in a release
        // build.
        let mut net = NetSim::new();
        net.add_service("mirror", cpu_engine(&mirror_service(), 1), 9);
    }

    #[test]
    fn impaired_sharded_service_stays_deterministic() {
        // End-to-end: a sharded engine behind an impaired link still
        // yields a reproducible delivery sequence for a fixed seed.
        let run = || {
            let mut net = NetSim::new();
            let h = net.add_host("h", 1);
            let m = net.add_service("mirror", cpu_engine(&mirror_service(), 4), 4);
            let l = net.link(h, 0, m, 1, 300.0, 10.0);
            net.impair(l, lossy(0.2, 0.1, 0.3, 77));
            for i in 0..100u8 {
                net.send(
                    h,
                    0,
                    Frame::new(vec![i; 60 + usize::from(i % 32)]),
                    f64::from(i) * 5_000.0,
                );
            }
            net.run_until(1e12).unwrap();
            net.inbox(h)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(!a.is_empty() && a.len() < 100);
    }

    /// The single heap the two-heap queue replaced, ordered as it was:
    /// `partial_cmp` on the time, then the sequence number.
    struct OldEvent {
        t_ns: f64,
        seq: u64,
        /// `(is a timer, node or token)`: what the queue hands back.
        what: (bool, u64),
    }

    impl PartialEq for OldEvent {
        fn eq(&self, o: &Self) -> bool {
            self.cmp(o) == Ordering::Equal
        }
    }
    impl Eq for OldEvent {}
    impl PartialOrd for OldEvent {
        fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
            Some(self.cmp(o))
        }
    }
    impl Ord for OldEvent {
        fn cmp(&self, o: &Self) -> Ordering {
            o.t_ns
                .partial_cmp(&self.t_ns)
                .unwrap()
                .then(o.seq.cmp(&self.seq))
        }
    }

    #[test]
    fn the_queue_pops_in_the_single_heap_order() {
        // Few distinct times, so most pops break a tie; −0.0 and +0.0
        // are one time.
        const TIMES: [f64; 6] = [-0.0, 0.0, 1.0, 2.5, 2.500_000_000_000_001, 1e9];
        let mut rng = StdRng::seed_from_u64(0x9e7e);
        let (mut queue, mut old) = (Queue::default(), BinaryHeap::new());
        let (mut seq, mut popped, mut held) = (0, 0, 0);
        for step in 0..40_000u64 {
            let t_ns = TIMES[rng.gen_range(0..TIMES.len())];
            // Phases of 1000 steps fill the queue and drain it in turn.
            let push = if step / 1000 % 2 == 0 { 0.7 } else { 0.3 };
            match (rng.gen_bool(push), rng.gen_bool(0.5)) {
                (true, false) => {
                    queue.push_arrival(
                        t_ns,
                        Arrival {
                            node: step as usize,
                            port: 0,
                            frame: Frame::new(vec![0; 60]),
                        },
                    );
                    seq += 1;
                    let what = (false, step);
                    old.push(OldEvent { t_ns, seq, what });
                }
                (true, true) => {
                    queue.push_timer(
                        t_ns,
                        Timer {
                            node: 0,
                            token: step,
                        },
                    );
                    seq += 1;
                    let what = (true, step);
                    old.push(OldEvent { t_ns, seq, what });
                }
                _ => {
                    // Half the pops are bounded by a time of the set.
                    let t_end = if rng.gen_bool(0.5) { t_ns } else { f64::MAX };
                    let got = queue.pop_due(t_end).map(|(t, due)| match due {
                        Due::Arrival(a) => (t, (false, a.node as u64)),
                        Due::Timer(t_) => (t, (true, t_.token)),
                    });
                    let want = match old.peek() {
                        Some(head) if head.t_ns <= t_end => old.pop().map(|e| (e.t_ns, e.what)),
                        _ => None,
                    };
                    assert_eq!(got, want, "step {step}");
                    popped += u64::from(got.is_some());
                    held += u64::from(got.is_none() && !old.is_empty());
                }
            }
        }
        while let Some(e) = old.pop() {
            let (t, due) = queue
                .pop_due(f64::MAX)
                .expect("the queue drains with the heap");
            let what = match due {
                Due::Arrival(a) => (false, a.node as u64),
                Due::Timer(t_) => (true, t_.token),
            };
            assert_eq!((t, what), (e.t_ns, e.what));
        }
        assert!(queue.pop_due(f64::MAX).is_none());
        assert!(
            popped > 5_000 && held > 500,
            "{popped} pops, {held} held back"
        );
    }

    /// An agent that logs what reaches it: `(time, tag)`, where a
    /// frame's tag is its first byte and a timer's its token.
    #[derive(Default)]
    struct Log {
        seen: Vec<(f64, u64)>,
    }

    impl HostAgent for Log {
        fn on_frame(&mut self, now_ns: f64, _port: usize, frame: &Frame) -> AgentOutput {
            self.seen.push((now_ns, u64::from(frame.bytes()[0])));
            AgentOutput::none()
        }
        fn on_timer(&mut self, now_ns: f64, token: u64) -> AgentOutput {
            self.seen.push((now_ns, token));
            AgentOutput::none()
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A host sending frames tagged 1 that arrive at a [`Log`] agent
    /// at t = 1000 ns (64 ns on the wire, 936 ns of propagation).
    fn host_to_log() -> (NetSim, NodeId, NodeId) {
        let mut net = NetSim::new();
        let h = net.add_host("h", 1);
        let a = net.add_agent("log", Box::<Log>::default(), 1);
        net.link(h, 0, a, 0, 936.0, 10.0);
        (net, h, a)
    }

    #[test]
    fn a_timer_and_a_frame_due_together_fire_in_the_order_queued() {
        for frame_first in [true, false] {
            let (mut net, h, a) = host_to_log();
            for i in 0..2 {
                if (i == 0) == frame_first {
                    net.send(h, 0, Frame::new(vec![1; 60]), 0.0);
                } else {
                    net.arm_timer(a, 1000.0, 2);
                }
            }
            net.run_until(1e9).unwrap();
            let want = if frame_first { [1, 2] } else { [2, 1] };
            let seen = &net.agent_as::<Log>(a).unwrap().seen;
            assert_eq!(
                *seen,
                want.map(|tag| (1000.0, tag)),
                "frame first: {frame_first}"
            );
        }
    }

    #[test]
    fn run_until_stops_at_the_earlier_head() {
        // The frame arrives at 1000 ns; the timer fires before or after.
        for timer_ns in [500.0, 1500.0] {
            let (mut net, h, a) = host_to_log();
            net.send(h, 0, Frame::new(vec![1; 60]), 0.0);
            net.arm_timer(a, timer_ns, 2);
            let first = f64::min(timer_ns, 1000.0);
            assert_eq!(net.run_until(first).unwrap(), 1, "timer at {timer_ns}");
            assert_eq!(net.time_ns, first);
            assert_eq!(net.run_until(1e9).unwrap(), 1, "timer at {timer_ns}");
            let seen = &net.agent_as::<Log>(a).unwrap().seen;
            let (t1, t2) = (seen[0].0, seen[1].0);
            assert_eq!([t1, t2], [first, f64::max(timer_ns, 1000.0)]);
        }
    }
}
