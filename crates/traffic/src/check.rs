//! Per-service reference checkers: independent software models that
//! consume a batch's inputs plus its [`BatchReport`] and verify the
//! service's invariants frame by frame.
//!
//! Each checker mirrors its service's *observable contract* — not its
//! implementation — byte-reads included: a service core sees the frame
//! zero-extended to its buffer (see [`crate::build::byte_at`]), so the
//! models parse exactly the bytes the core parses, and malformed
//! traffic stays checkable. [`HostChecker`] holds memcached, DNS and
//! ICMP echo to their one reference, the host services.
//!
//! Every checker also enforces the engine-wide invariant that no frame
//! may *trap* a shard: [`EngineError::Trap`]/[`EngineError::Poisoned`]
//! results are violations regardless of the input (adversarial frames
//! must drop or pass, never wedge a core). `Oversize` rejections are
//! legitimate — the core never saw the frame.

use crate::build::{byte_at, ipv4_csum_ok, l4_csum_ok};
use emu_core::{BatchReport, Dispatch, EngineError, EngineResult, NatSteering, RssHash};
use emu_rtl::{CamPair, CamTable};
use emu_services::nat::{nat_cam_pair, FIRST_EPHEMERAL, NAT_ENTRIES, PORT_SCAN_CAP};
use emu_services::switch::TABLE_ENTRIES;
use emu_types::proto::{ether_type, ip_proto, offset};
use emu_types::{bitutil, Frame, Ipv4};
use hoststack::{HostMemcached, HostService};
use netfpga_sim::dataplane::CoreOutput;
use netfpga_sim::switch_forward;

/// A frame-by-frame invariant checker over engine results.
pub trait Checker {
    /// Checker label for reports.
    fn name(&self) -> &'static str;

    /// Checks one input/result pair.
    fn observe(&mut self, input: &Frame, result: &EngineResult<CoreOutput>);

    /// Checks a whole batch in offer order.
    fn check_batch(&mut self, inputs: &[Frame], report: &BatchReport) {
        assert_eq!(inputs.len(), report.outputs.len(), "report/batch mismatch");
        for (f, r) in inputs.iter().zip(&report.outputs) {
            self.observe(f, r);
        }
    }

    /// Frames observed so far.
    fn frames(&self) -> u64;

    /// Invariant violations so far.
    fn violations(&self) -> u64;

    /// Human-readable descriptions of the first violations.
    fn notes(&self) -> &[String];
}

/// Shared violation bookkeeping.
#[derive(Debug, Default, Clone)]
struct Tally {
    frames: u64,
    violations: u64,
    notes: Vec<String>,
}

impl Tally {
    fn violate(&mut self, msg: String) {
        self.violations += 1;
        if self.notes.len() < 8 {
            self.notes.push(msg);
        }
    }

    /// Returns `true` if the result may be inspected further; counts
    /// traps as violations and oversize rejections as benign.
    fn admit(&mut self, i: u64, result: &EngineResult<CoreOutput>) -> bool {
        self.frames += 1;
        match result {
            Ok(_) => true,
            Err(EngineError::Oversize { .. }) => false,
            Err(e) => {
                self.violate(format!("frame {i}: engine must never trap: {e}"));
                false
            }
        }
    }
}

fn l4_proto(f: &Frame) -> u8 {
    byte_at(f, offset::IPV4_PROTO)
}

// ---------------------------------------------------------------------
// NAT
// ---------------------------------------------------------------------

/// One shard's shadow of the NAT state: the *same* paired fwd/rev
/// tables the service deploys (via [`nat_cam_pair`]) plus the shard's
/// ephemeral-port cursor, replayed op for op. Because the shadow ages,
/// evicts, and reclaims exactly like the engine, the checker predicts
/// the *exact* external port of every allocation — including ports
/// re-issued after TTL expiry or capacity eviction.
struct NatShadow {
    pair: CamPair,
    next_port: u16,
    base: u16,
    stride: u16,
}

/// The fwd-table key `{int_ip, int_port, proto}` (56 bits).
fn nat_fwd_key(src: u32, sport: u16, proto: u8) -> u64 {
    (u64::from(src) << 24) | (u64::from(sport) << 8) | u64::from(proto)
}

/// The rev-table key `{ext_port, proto}` (24 bits).
fn nat_rev_key(ext: u16, proto: u8) -> u64 {
    (u64::from(ext) << 8) | u64::from(proto)
}

impl NatShadow {
    /// Replays the service's allocation probe loop: walk the cursor,
    /// probing the reverse table until a port with no live mapping
    /// turns up (each probe touches live entries and reclaims expired
    /// ones, exactly as the hardware lookup does). Returns the free
    /// port, or `None` after `PORT_SCAN_CAP` probes (range exhausted —
    /// the service drops the frame).
    fn allocate(&mut self, proto: u8) -> Option<u16> {
        for _ in 0..PORT_SCAN_CAP {
            let ext = self.next_port;
            self.next_port = if self.next_port > 0xffff - self.stride {
                self.base
            } else {
                self.next_port + self.stride
            };
            if self
                .pair
                .lookup_b_limbs(&[nat_rev_key(ext, proto)])
                .is_none()
            {
                return Some(ext);
            }
        }
        None
    }
}

/// Reference checker for `emu_services::nat`: translation consistency
/// (one flow ↔ one stable external port), exact ephemeral-port
/// allocation (per-shard cursor discipline under `NatSteering`,
/// including TTL reclaim and eviction), header-rewrite exactness, TTL
/// decrement, and checksum-validity preservation (RFC 1624 incremental
/// updates keep a valid checksum valid).
///
/// The checker is a full shadow dataplane: it instantiates the same
/// [`CamPair`] the service does and mirrors every table operation, so
/// it stays exact across mapping expiry (idle flows age out), capacity
/// eviction (tables overflow round-robin), and port reuse after wrap —
/// regimes where a grow-only map would drift from the engine.
pub struct NatChecker {
    public: Ipv4,
    shards: Vec<NatShadow>,
    tally: Tally,
}

impl NatChecker {
    /// Creates the checker for an engine of `shards` shards behind the
    /// given public address, with the paper-default table geometry
    /// (`NAT_ENTRIES`, no TTL). `shards > 1` assumes the `NatSteering`
    /// dispatch and allocation contract (shard *k* allocates
    /// `FIRST_EPHEMERAL + k`, stepping by the shard count).
    pub fn new(public: Ipv4, shards: usize) -> Self {
        assert!(shards >= 1);
        NatChecker {
            public,
            shards: Self::shadows(shards, NAT_ENTRIES, None),
            tally: Tally::default(),
        }
    }

    /// Re-sizes the shadow tables to match an engine built with
    /// `EngineBuilder::table_entries` / `ttl_frames`. Call before any
    /// traffic is observed (the shadows restart empty).
    pub fn with_table(mut self, entries: usize, ttl: Option<u64>) -> Self {
        let n = self.shards.len();
        self.shards = Self::shadows(n, entries, ttl);
        self
    }

    fn shadows(shards: usize, entries: usize, ttl: Option<u64>) -> Vec<NatShadow> {
        (0..shards)
            .map(|k| NatShadow {
                pair: nat_cam_pair(entries, ttl),
                next_port: FIRST_EPHEMERAL + k as u16,
                base: FIRST_EPHEMERAL + k as u16,
                stride: shards as u16,
            })
            .collect()
    }

    /// The service's view: IPv4 EtherType, IHL 5 (options are
    /// rejected), TCP or UDP.
    fn translatable(f: &Frame) -> bool {
        f.ethertype() == ether_type::IPV4
            && byte_at(f, offset::IPV4) & 0x0f == 5
            && matches!(l4_proto(f), p if p == ip_proto::TCP || p == ip_proto::UDP)
    }

    /// Compares `got` against the input with the NAT rewrites applied
    /// and both checksum fields masked (validity is checked
    /// separately).
    fn expect_rewritten(
        &mut self,
        i: u64,
        input: &Frame,
        got: &Frame,
        rewrite: impl FnOnce(&mut [u8]),
    ) {
        let proto = l4_proto(input);
        let mut want = input.bytes().to_vec();
        want[offset::IPV4_TTL] = want[offset::IPV4_TTL].wrapping_sub(1);
        rewrite(&mut want);
        let mut got_b = got.bytes().to_vec();
        let l4_csum = if proto == ip_proto::TCP {
            offset::L4 + 16
        } else {
            offset::L4 + 6
        };
        for b in [&mut want, &mut got_b] {
            bitutil::set16(b, offset::IPV4_CSUM, 0);
            if b.len() >= l4_csum + 2 {
                bitutil::set16(b, l4_csum, 0);
            }
        }
        if want != got_b {
            self.tally
                .violate(format!("frame {i}: translated bytes diverge from model"));
        }
        // Incremental checksum updates must preserve validity.
        if ipv4_csum_ok(input) == Some(true) && ipv4_csum_ok(got) != Some(true) {
            self.tally
                .violate(format!("frame {i}: IP checksum invalidated"));
        }
        if l4_csum_ok(input) == Some(true) && l4_csum_ok(got) == Some(false) {
            self.tally
                .violate(format!("frame {i}: L4 checksum invalidated"));
        }
    }
}

impl Checker for NatChecker {
    fn name(&self) -> &'static str {
        "nat"
    }

    fn observe(&mut self, input: &Frame, result: &EngineResult<CoreOutput>) {
        let i = self.tally.frames;
        if !self.tally.admit(i, result) {
            return;
        }
        let out = result.as_ref().expect("admitted");
        // Every admitted frame advances its owning shard's epoch — the
        // engine ticks the shard's tables once per processed frame,
        // translatable or not — so the shadow ages in lockstep.
        let shard = NatSteering.shard_of(input, self.shards.len());
        self.shards[shard].pair.tick_frame();
        if !Self::translatable(input) {
            if !out.tx.is_empty() {
                self.tally
                    .violate(format!("frame {i}: untranslatable frame transmitted"));
            }
            return;
        }
        let b = input.bytes();
        let proto = l4_proto(input);
        if input.in_port != 0 {
            // Outbound: replay the service's table ops in program
            // order — fwd lookup, then (on miss) the probe/commit
            // allocation — so the shadow predicts the exact port.
            let src = bitutil::get32(b, offset::IPV4_SRC);
            let sport = bitutil::get16(b, offset::L4);
            let key = nat_fwd_key(src, sport, proto);
            let shadow = &mut self.shards[shard];
            let (want, fresh) = match shadow.pair.lookup_a_limbs(&[key]).map(|v| v[0] as u16) {
                Some(ext) => (Some(ext), false),
                None => {
                    let ext = shadow.allocate(proto);
                    if let Some(p) = ext {
                        shadow.pair.write_a_limbs(&[key], &[u64::from(p)]);
                        let owner = (u64::from(src) << 24)
                            | (u64::from(sport) << 8)
                            | u64::from(input.in_port);
                        shadow
                            .pair
                            .write_b_limbs(&[nat_rev_key(p, proto)], &[owner]);
                    }
                    (ext, true)
                }
            };
            let Some(ext) = want else {
                // Port-range exhaustion: the service must drop.
                if !out.tx.is_empty() {
                    self.tally.violate(format!(
                        "frame {i}: ephemeral range exhausted but frame transmitted"
                    ));
                }
                return;
            };
            let [tx] = &out.tx[..] else {
                self.tally
                    .violate(format!("frame {i}: outbound produced {} tx", out.tx.len()));
                return;
            };
            if tx.ports != 1 {
                self.tally.violate(format!(
                    "frame {i}: outbound left via ports {:#06b}, not the external port",
                    tx.ports
                ));
            }
            let got_ext = bitutil::get16(tx.frame.bytes(), offset::L4);
            if got_ext < FIRST_EPHEMERAL {
                self.tally.violate(format!(
                    "frame {i}: allocated port {got_ext} below the ephemeral range"
                ));
            }
            if got_ext != ext {
                if fresh {
                    self.tally.violate(format!(
                        "frame {i}: allocated port {got_ext}, shadow allocator says {ext} \
                         (cursor/probe divergence)"
                    ));
                } else {
                    self.tally.violate(format!(
                        "frame {i}: flow remapped {ext} → {got_ext} (translation \
                         consistency broken)"
                    ));
                }
            }
            let public = self.public;
            self.expect_rewritten(i, input, &tx.frame, |w| {
                w[offset::IPV4_SRC..offset::IPV4_SRC + 4].copy_from_slice(&public.octets());
                bitutil::set16(w, offset::L4, ext);
            });
        } else {
            // Inbound: translate back iff the mapping is live in the
            // shadow (the lookup itself refreshes the mapping's idle
            // timer, as the hardware lookup does).
            let dport = bitutil::get16(b, offset::L4 + 2);
            let mapping = self.shards[shard]
                .pair
                .lookup_b_limbs(&[nat_rev_key(dport, proto)])
                .map(|v| v[0]);
            match mapping {
                Some(v) => {
                    let int_ip = (v >> 24) as u32;
                    let int_port = (v >> 8) as u16;
                    let phys = v as u8;
                    let [tx] = &out.tx[..] else {
                        self.tally.violate(format!(
                            "frame {i}: inbound to a live mapping produced {} tx",
                            out.tx.len()
                        ));
                        return;
                    };
                    if tx.ports != 1u8.checked_shl(phys.into()).unwrap_or(0) {
                        self.tally.violate(format!(
                            "frame {i}: reply delivered to ports {:#06b}, owner is port {phys}",
                            tx.ports
                        ));
                    }
                    self.expect_rewritten(i, input, &tx.frame, |w| {
                        w[offset::IPV4_DST..offset::IPV4_DST + 4]
                            .copy_from_slice(&Ipv4(int_ip).octets());
                        bitutil::set16(w, offset::L4 + 2, int_port);
                    });
                }
                None => {
                    if !out.tx.is_empty() {
                        self.tally.violate(format!(
                            "frame {i}: inbound to dead port {dport} was not dropped"
                        ));
                    }
                }
            }
        }
    }

    fn frames(&self) -> u64 {
        self.tally.frames
    }
    fn violations(&self) -> u64 {
        self.tally.violations
    }
    fn notes(&self) -> &[String] {
        &self.tally.notes
    }
}

// ---------------------------------------------------------------------
// Host services
// ---------------------------------------------------------------------

/// Reference checker for a request/reply service: for every admitted
/// frame the engine must transmit exactly the host service's replies
/// (`hoststack::services`), byte for byte, each out of the arrival port.
///
/// One service state shadows the whole engine. **Precondition for a
/// sharded memcached:** traffic must keep each key on one flow (as
/// [`crate::MemcachedZipf`] does), so per-shard stores partition the
/// keyspace and one shadow store stays exact.
#[derive(Default)]
pub struct HostChecker<S> {
    service: S,
    tally: Tally,
}

/// The memcached checker, under the name the workloads import.
pub type McModel = HostChecker<HostMemcached>;

impl<S: HostService + Default> HostChecker<S> {
    /// Creates the checker over a fresh service.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<S: HostService> From<S> for HostChecker<S> {
    fn from(service: S) -> Self {
        let tally = Tally::default();
        HostChecker { service, tally }
    }
}

impl<S> HostChecker<S> {
    /// The reference service, in the state the observed frames left.
    pub fn service(&self) -> &S {
        &self.service
    }
}

impl<S: HostService> Checker for HostChecker<S> {
    fn name(&self) -> &'static str {
        S::NAME
    }

    fn observe(&mut self, input: &Frame, result: &EngineResult<CoreOutput>) {
        let i = self.tally.frames;
        if !self.tally.admit(i, result) {
            return;
        }
        let got = &result.as_ref().expect("admitted").tx;
        let want = self.service.process(input);
        let ports = 1u8.checked_shl(input.in_port.into()).unwrap_or(0);
        if got.len() != want.len() {
            let (g, w) = (got.len(), want.len());
            self.tally
                .violate(format!("frame {i}: engine sent {g} frames, host {w}"));
        } else if let Some((k, (g, w))) = (got.iter().zip(&want).enumerate())
            .find(|(_, (g, w))| g.ports != ports || g.frame.bytes() != w.bytes())
        {
            let (gb, wb) = (g.frame.bytes(), w.bytes());
            let at = gb.iter().zip(wb).position(|(a, b)| a != b);
            self.tally.violate(format!(
                "frame {i}: reply {k} ({} B out of ports {:#06b}) differs from the host's \
                 ({} B out of {ports:#06b}), first differing byte {at:?}",
                gb.len(),
                g.ports,
                wb.len()
            ));
        }
    }

    fn frames(&self) -> u64 {
        self.tally.frames
    }
    fn violations(&self) -> u64 {
        self.tally.violations
    }
    fn notes(&self) -> &[String] {
        &self.tally.notes
    }
}

// ---------------------------------------------------------------------
// Switch
// ---------------------------------------------------------------------

/// Reference model for the learning switch: per-shard MAC tables
/// (shard state is private, so each RSS shard learns independently),
/// exact forward/flood prediction, and frame-transparency (a switch
/// must never modify bytes).
///
/// Each shard's shadow is the same [`CamTable`] the service deploys,
/// stepped by [`switch_forward`] (the Figure 2 step the Table 3
/// baselines run too), so the model stays exact through capacity
/// eviction and — when the engine is built with a TTL — MAC aging: an
/// idle station's entry expires in the shadow exactly when it expires
/// in the engine, and its traffic floods again until re-learned.
pub struct SwitchModel {
    tables: Vec<CamTable>,
    tally: Tally,
}

impl SwitchModel {
    /// Creates the model for an engine of `shards` shards under RSS
    /// dispatch, with the paper-default table geometry
    /// (`TABLE_ENTRIES`, no aging).
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1);
        SwitchModel {
            tables: (0..shards)
                .map(|_| CamTable::new(TABLE_ENTRIES, 48, 8))
                .collect(),
            tally: Tally::default(),
        }
    }

    /// Re-sizes the shadow tables to match an engine built with
    /// `EngineBuilder::table_entries` / `ttl_frames`. Call before any
    /// traffic is observed (the shadows restart empty).
    pub fn with_table(mut self, entries: usize, ttl: Option<u64>) -> Self {
        self.tables = (0..self.tables.len())
            .map(|_| CamTable::new(entries, 48, 8).with_ttl(ttl))
            .collect();
        self
    }
}

impl Checker for SwitchModel {
    fn name(&self) -> &'static str {
        "switch"
    }

    fn observe(&mut self, input: &Frame, result: &EngineResult<CoreOutput>) {
        let i = self.tally.frames;
        if !self.tally.admit(i, result) {
            return;
        }
        let out = result.as_ref().expect("admitted");
        let shard = if self.tables.len() == 1 {
            0
        } else {
            RssHash.shard_of(input, self.tables.len())
        };
        let want_ports = switch_forward(&mut self.tables[shard], input);
        let [tx] = &out.tx[..] else {
            self.tally
                .violate(format!("frame {i}: switch produced {} tx", out.tx.len()));
            return;
        };
        if tx.ports != want_ports {
            self.tally.violate(format!(
                "frame {i}: forwarded to {:#06b}, model says {want_ports:#06b} \
                 (learned forwarding)",
                tx.ports
            ));
        }
        if tx.frame.bytes() != input.bytes() {
            self.tally
                .violate(format!("frame {i}: switch modified frame bytes"));
        }
    }

    fn frames(&self) -> u64 {
        self.tally.frames
    }
    fn violations(&self) -> u64 {
        self.tally.violations
    }
    fn notes(&self) -> &[String] {
        &self.tally.notes
    }
}

// ---------------------------------------------------------------------
// Closed-loop client outcomes
// ---------------------------------------------------------------------

/// One closed-loop request's end-to-end outcome, as observed **at the
/// client**: did a verified response come back, how long did it take,
/// how many retransmissions did it cost. The frame-level checkers above
/// judge a service's per-frame contract; this record judges the whole
/// impaired path — client, fabric, impairments, service, and back. The
/// `emu-hosts` agents produce these; [`ClientCheck`] consumes them.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientOutcome {
    /// Client node name.
    pub client: String,
    /// Workload kind (`"tcp"`, `"memcached"`, `"dns"`).
    pub proto: &'static str,
    /// Per-client request serial (0, 1, 2, …).
    pub serial: u64,
    /// A response arrived and matched the client's model of what the
    /// service must answer. `false` + `timed_out == false` means a
    /// *wrong* response — always a violation.
    pub verified: bool,
    /// The request exhausted its retry budget without a response.
    pub timed_out: bool,
    /// Round-trip time (simulation ns) for responses that arrived
    /// without a retransmission (Karn's rule: a retransmitted
    /// request's RTT sample is ambiguous, so none is taken).
    pub rtt_ns: Option<u64>,
    /// Retransmissions spent on this request.
    pub retries: u32,
    /// Diagnostic detail for mismatches.
    pub note: Option<String>,
}

/// Invariant checker over [`ClientOutcome`]s — the closed-loop
/// counterpart of the frame-level [`Checker`]s, with the same
/// frames/violations/notes reporting surface:
///
/// * every outcome resolves exactly one way (verified xor timed out),
/// * a response that arrives must verify (a wrong payload is a
///   violation even on a lossy path — loss delays or kills a request,
///   it never corrupts a checksummed response into another valid one),
/// * a timeout must have spent the full retry budget (giving up early
///   is a client bug),
/// * retries never exceed the budget,
/// * measured RTTs respect the physical floor of the topology
///   ([`ClientCheck::rtt_floor_ns`], when set): nothing answers faster
///   than serialization + propagation.
#[derive(Debug, Default)]
pub struct ClientCheck {
    tally: Tally,
    retry_budget: u32,
    rtt_floor_ns: u64,
    completed: u64,
    timed_out: u64,
}

impl ClientCheck {
    /// Builds a checker for clients configured with `retry_budget`
    /// retransmissions per request.
    pub fn new(retry_budget: u32) -> Self {
        ClientCheck {
            retry_budget,
            ..Self::default()
        }
    }

    /// Sets the minimum physically possible RTT (2 × (serialization +
    /// propagation) along the shortest path); measured RTTs below it
    /// are violations.
    pub fn rtt_floor_ns(mut self, floor: u64) -> Self {
        self.rtt_floor_ns = floor;
        self
    }

    /// Consumes one outcome.
    pub fn observe(&mut self, o: &ClientOutcome) {
        self.tally.frames += 1;
        let id = format!("{}/{} #{}", o.client, o.proto, o.serial);
        match (o.verified, o.timed_out) {
            (true, true) => self
                .tally
                .violate(format!("{id}: both verified and timed out")),
            (false, false) => self.tally.violate(format!(
                "{id}: response mismatched the client model: {}",
                o.note.as_deref().unwrap_or("(no detail)")
            )),
            (true, false) => self.completed += 1,
            (false, true) => self.timed_out += 1,
        }
        if o.timed_out && o.retries != self.retry_budget {
            self.tally.violate(format!(
                "{id}: gave up after {} retries with a budget of {}",
                o.retries, self.retry_budget
            ));
        }
        if o.retries > self.retry_budget {
            self.tally.violate(format!(
                "{id}: {} retries exceed the budget of {}",
                o.retries, self.retry_budget
            ));
        }
        if let Some(rtt) = o.rtt_ns {
            if rtt < self.rtt_floor_ns {
                self.tally.violate(format!(
                    "{id}: rtt {rtt} ns beats the physical floor {} ns",
                    self.rtt_floor_ns
                ));
            }
        }
    }

    /// Checker label for reports.
    pub fn name(&self) -> &'static str {
        "client-end-to-end"
    }
    /// Outcomes observed.
    pub fn frames(&self) -> u64 {
        self.tally.frames
    }
    /// Requests that completed with a verified response.
    pub fn completed(&self) -> u64 {
        self.completed
    }
    /// Requests that exhausted their retry budget.
    pub fn timed_out(&self) -> u64 {
        self.timed_out
    }
    /// Invariant violations.
    pub fn violations(&self) -> u64 {
        self.tally.violations
    }
    /// First violation notes.
    pub fn notes(&self) -> &[String] {
        &self.tally.notes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Adversarial, Background, MemcachedZipf, Mix, TcpConversations, TrafficGen};
    use emu_core::{NatSteering, Target};

    fn public() -> Ipv4 {
        "203.0.113.1".parse().unwrap()
    }

    impl SwitchModel {
        /// MAC entries resident across shard shadows (live plus
        /// expired-but-not-yet-reclaimed, matching engine occupancy).
        fn learned(&self) -> usize {
            self.tables.iter().map(CamTable::occupancy).sum()
        }
    }

    impl NatChecker {
        /// Translation entries resident in the shadow tables (live plus
        /// expired-but-not-yet-reclaimed, exactly as the engine counts
        /// occupancy).
        fn mappings(&self) -> usize {
            self.shards.iter().map(|s| s.pair.a.occupancy()).sum()
        }
    }

    #[test]
    fn nat_checker_passes_an_honest_engine_and_models_replies() {
        let svc = emu_services::nat(public());
        let mut engine = svc
            .engine(Target::Cpu)
            .shards(4)
            .dispatch(NatSteering)
            .build()
            .unwrap();
        let mut checker = NatChecker::new(public(), 4);
        let mut gen = Mix::new(3)
            .add(6, TcpConversations::new(1, 12, &[1, 2, 3]))
            .add(2, Background::new(2, &[1, 2, 3]))
            .add(1, Adversarial::new(4, &[0, 1, 2, 3]));
        let frames = gen.take(400);
        let report = engine.process_batch(&frames);
        checker.check_batch(&frames, &report);
        // Bounce every translated outbound frame back as a reply.
        let replies: Vec<Frame> = frames
            .iter()
            .zip(&report.outputs)
            .filter(|(f, _)| f.in_port != 0)
            .filter_map(|(_, r)| r.as_ref().ok())
            .flat_map(|o| &o.tx)
            .map(|t| crate::build::reply_to(&t.frame, b"reply-payload"))
            .collect();
        assert!(!replies.is_empty(), "soak needs inbound traffic");
        let reply_report = engine.process_batch(&replies);
        checker.check_batch(&replies, &reply_report);
        assert_eq!(checker.violations(), 0, "notes: {:?}", checker.notes());
        assert!(checker.mappings() > 0);
    }

    #[test]
    fn nat_checker_stays_exact_under_flow_churn_and_ttl() {
        // Churning flows against a TTL'd, scaled-down table: the
        // checker's shadow pair must track expiry and reclaim exactly
        // (ports re-issued after idle timeout are predicted, not
        // flagged).
        let svc = emu_services::nat(public());
        let mut engine = svc
            .engine(Target::Cpu)
            .shards(2)
            .dispatch(NatSteering)
            .table_entries(512)
            .ttl_frames(300)
            .build()
            .unwrap();
        let mut checker = NatChecker::new(public(), 2).with_table(512, Some(300));
        let mut gen = crate::FlowChurn::new(11, 64, 150, &[1, 2, 3]);
        for _ in 0..5 {
            let frames = gen.take(400);
            let report = engine.process_batch(&frames);
            checker.check_batch(&frames, &report);
        }
        assert_eq!(checker.violations(), 0, "notes: {:?}", checker.notes());
        assert!(checker.mappings() > 0);
        // Churn outran the idle timeout: departed flows' mappings were
        // reclaimed, so residency sits below the flows-ever-started.
        assert!(gen.flows_started() as usize > checker.mappings());
    }

    #[test]
    fn switch_model_tracks_mac_aging_under_churn() {
        // A 64-entry table under a 48-station sliding window: aging
        // (TTL) and round-robin eviction both fire, and the shadow
        // table must predict every flood-after-expiry exactly.
        let svc = emu_services::switch_ip_cam();
        let mut engine = svc
            .engine(Target::Cpu)
            .table_entries(64)
            .ttl_frames(200)
            .build()
            .unwrap();
        let mut model = SwitchModel::new(1).with_table(64, Some(200));
        let mut gen = crate::MacChurn::new(13, 48, 120);
        for _ in 0..5 {
            let frames = gen.take(400);
            let report = engine.process_batch(&frames);
            model.check_batch(&frames, &report);
        }
        assert_eq!(model.violations(), 0, "notes: {:?}", model.notes());
        assert!(model.learned() > 0);
        assert!(gen.stations_seen() as usize > model.learned());
    }

    #[test]
    fn nat_checker_detects_a_tampered_translation() {
        let svc = emu_services::nat(public());
        let mut engine = svc.engine(Target::Cpu).build().unwrap();
        let f = emu_services::nat::udp_frame(
            "192.168.1.9".parse().unwrap(),
            4040,
            "8.8.8.8".parse().unwrap(),
            53,
            2,
        );
        let mut out = engine.process(&f).unwrap();
        // Corrupt the allocated port after the fact.
        let off = offset::L4;
        let b = out.tx[0].frame.bytes_mut();
        let v = bitutil::get16(b, off);
        bitutil::set16(b, off, v ^ 0x0101);
        let mut checker = NatChecker::new(public(), 1);
        checker.observe(&f, &Ok(out));
        assert!(checker.violations() > 0);
    }

    #[test]
    fn mc_model_agrees_with_the_service_over_a_zipf_stream() {
        let svc = emu_services::memcached();
        let mut engine = svc.engine(Target::Cpu).shards(4).build().unwrap();
        let mut model = McModel::new();
        let mut gen = MemcachedZipf::new(6, 24, 1.1, 0.7);
        for chunk in 0..4 {
            let frames = gen.take(150);
            let report = engine.process_batch(&frames);
            model.check_batch(&frames, &report);
            assert_eq!(
                model.violations(),
                0,
                "chunk {chunk}, notes: {:?}",
                model.notes()
            );
        }
        assert!(!model.service().is_empty());
    }

    #[test]
    fn mc_model_detects_a_stale_reply() {
        let svc = emu_services::memcached();
        let mut engine = svc.engine(Target::Cpu).build().unwrap();
        let mut model = McModel::new();
        let set = emu_services::memcached::request_frame("set kk 0 0 8\r\nAAAABBBB\r\n", 1);
        let r = engine.process(&set).unwrap();
        model.observe(&set, &Ok(r));
        // The model saw the SET; feed it a forged miss for the same key.
        let get = emu_services::memcached::request_frame("get kk\r\n", 2);
        let miss = engine
            .process(&emu_services::memcached::request_frame("get zz\r\n", 2))
            .unwrap();
        model.observe(&get, &Ok(miss));
        assert_eq!(model.violations(), 1, "stale END must be flagged");
        // A right reply out of the wrong port is flagged too.
        let mut hit = engine.process(&get).unwrap();
        hit.tx[0].ports <<= 1;
        model.observe(&get, &Ok(hit));
        assert_eq!(model.violations(), 2, "notes: {:?}", model.notes());
    }

    #[test]
    fn switch_model_tracks_sharded_learning() {
        let svc = emu_services::switch_ip_cam();
        for shards in [1usize, 4] {
            let mut engine = svc.engine(Target::Cpu).shards(shards).build().unwrap();
            let mut model = SwitchModel::new(shards);
            let mut gen = Mix::new(9)
                .add(3, Background::new(4, &[0, 1, 2, 3]))
                .add(1, Adversarial::new(5, &[0, 1, 2, 3]));
            for _ in 0..3 {
                let frames = gen.take(120);
                let report = engine.process_batch(&frames);
                model.check_batch(&frames, &report);
            }
            assert_eq!(
                model.violations(),
                0,
                "{shards} shards, notes: {:?}",
                model.notes()
            );
            assert!(model.learned() > 0);
        }
    }

    #[test]
    fn checkers_flag_traps() {
        let mut checker = SwitchModel::new(1);
        checker.observe(
            &Frame::new(vec![0; 60]),
            &Err(EngineError::Trap {
                shard: 0,
                reason: "wedged".into(),
            }),
        );
        assert_eq!(checker.violations(), 1);
        // Oversize is a legitimate rejection, not a violation.
        let mut checker = SwitchModel::new(1);
        checker.observe(
            &Frame::new(vec![0; 60]),
            &Err(EngineError::Oversize {
                shard: 0,
                len: 2000,
                cap: 1536,
            }),
        );
        assert_eq!(checker.violations(), 0);
    }

    fn outcome(verified: bool, timed_out: bool, retries: u32) -> ClientOutcome {
        ClientOutcome {
            client: "c0".into(),
            proto: "memcached",
            serial: 0,
            verified,
            timed_out,
            rtt_ns: None,
            retries,
            note: None,
        }
    }

    #[test]
    fn client_check_accepts_clean_completions_and_budgeted_timeouts() {
        let mut check = ClientCheck::new(3).rtt_floor_ns(1_000);
        check.observe(&ClientOutcome {
            rtt_ns: Some(4_200),
            ..outcome(true, false, 0)
        });
        check.observe(&outcome(false, true, 3)); // spent the whole budget
        assert_eq!(check.frames(), 2);
        assert_eq!((check.completed(), check.timed_out()), (1, 1));
        assert_eq!(check.violations(), 0, "notes: {:?}", check.notes());
    }

    #[test]
    fn client_check_flags_mismatch_early_giveup_and_impossible_rtt() {
        let mut check = ClientCheck::new(3).rtt_floor_ns(1_000);
        // Wrong response body: neither verified nor timed out.
        check.observe(&outcome(false, false, 0));
        // Gave up before exhausting the retry budget.
        check.observe(&outcome(false, true, 1));
        // Overspent the budget.
        check.observe(&outcome(true, false, 4));
        // RTT below the physical floor of the topology.
        check.observe(&ClientOutcome {
            rtt_ns: Some(10),
            ..outcome(true, false, 0)
        });
        // Contradictory resolution.
        check.observe(&outcome(true, true, 3));
        assert_eq!(check.violations(), 5, "notes: {:?}", check.notes());
    }
}
