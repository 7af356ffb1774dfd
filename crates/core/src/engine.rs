//! The unified execution engine: one API from a single pipeline to a
//! parallel multi-shard scale-out.
//!
//! The paper's NetFPGA deployment scales by replicating the service
//! pipeline across parallel datapaths — §5.4 runs "four Emu cores (one
//! per port)". One [`Engine`], configured through [`EngineBuilder`],
//! covers both the single pipeline and the scale-out:
//!
//! ```ignore
//! // Single pipeline:
//! let mut one = svc.engine(Target::Fpga).build()?;
//!
//! // Four shards behind the RSS flow hash, executed on real threads:
//! let mut four = svc
//!     .engine(Target::Fpga)
//!     .shards(4)
//!     .dispatch(RssHash)
//!     .parallel(true)
//!     .build()?;
//! ```
//!
//! [`Engine::process`] and [`Engine::process_batch`] share one frame
//! loop — a batch is the same per-shard step applied to each of its
//! frames — so a frame behaves identically through either entry point.
//!
//! # Dispatch policies
//!
//! Which shard a frame runs on is a pluggable policy — the [`Dispatch`]
//! trait — rather than a property of the engine:
//!
//! * [`RssHash`] (the default): the Pearson-digest flow hash of
//!   [`crate::flow_hash`]; every frame of one 5-tuple shares a shard, so
//!   flow-keyed state (NAT mappings, learned MACs) partitions cleanly.
//! * [`NatSteering`]: external-port-keyed steering for NAT-shaped
//!   services. Outbound frames follow the RSS hash; *inbound* frames are
//!   steered by their destination (external) port to the shard that
//!   allocated it, which plain RSS cannot do because the reply 5-tuple
//!   hashes independently of the outbound one. See [`NatSteering`] for
//!   the allocation-register contract.
//!
//! [`Dispatch::shard_of`] is pure: a function of the frame and the shard
//! count only. The engine keeps no dispatch state, so its shards hold
//! all of its mutable state.
//!
//! # Execution backends
//!
//! On [`Target::Cpu`] the builder additionally selects an execution
//! [`Backend`]: the **compiled** micro-op bytecode (the default — the
//! production software path) or the **tree-walking** interpreter (the
//! reference semantics). The two are byte-identical in every observable
//! and differ only in speed; `EngineBuilder::backend` pins one
//! explicitly, and the `EMU_CPU_BACKEND` environment variable flips the
//! default (CI uses it to run the whole suite on the reference
//! interpreter). `emubench` reports the per-frame cost of each as
//! `kiwi-ir.exec_ns_per_frame` and `kiwi-ir.treewalk_ns_per_frame`.
//!
//! Target and backend together pick the code image a [`kiwi_ir::Core`]
//! runs ([`kiwi_ir::Code`]): the tree-walker's ops, the compiled bytecode
//! or the FSM. [`EngineBuilder::build`] makes it once — one flatten, one
//! compile or FSM schedule, one dataplane port resolution — and every
//! shard gets a `clone()` of the resulting [`DataplaneDriver`] beside its
//! own environment. The clone shares the image behind an `Arc` and
//! copies only the machine state, so building an engine costs one
//! compilation whatever its shard count, and the shards' parallel
//! workers read one copy of the code. Every shard, on every target, runs
//! the one frame loop, [`DataplaneDriver::process`].
//!
//! # Execution modes
//!
//! By default shards execute **sequentially** on the calling thread under
//! the parallel-datapath *cost model* (the batch's wall-clock is the
//! busiest shard's busy cycles) — fully deterministic, the right mode for
//! tests and cycle accounting. [`EngineBuilder::parallel`] executes
//! shards on real OS threads; outputs and failure semantics are
//! identical by construction, only host wall-clock time changes.
//! `tests/telemetry_equiv.rs` runs both ways and fails on any snapshot
//! difference.
//!
//! A parallel engine of N > 1 shards spawns N − 1 **workers** at build,
//! one per shard but the first, parked in a channel `recv` between
//! batches and joined when the engine drops. The calling thread plans a
//! batch, keeps the first non-idle slice and hands every other non-idle
//! shard to its worker **by value**: the boxed shard plus a copy of its
//! frames in a buffer that travels with it and is refilled in place
//! (`Frame::clone_from`; no allocation once warm). The worker runs the
//! same `run_slice` and sends shard, buffer and results back before
//! `process_batch` returns, so nothing borrowed crosses a thread, the
//! crate needs no `unsafe`, and every shard is home whenever no batch
//! is in flight. A batch that lands on one shard — every one-frame
//! batch — wakes nobody and costs what it costs a sequential engine; a
//! second shard costs one wake-up and one copy of its frames.
//!
//! A transmitted frame costs one allocation, its bytes, sized once at
//! the padded length: a lone transmission sits inline in
//! [`CoreOutput::tx`](netfpga_sim::CoreOutput) (a
//! [`TxList`](netfpga_sim::TxList)), so only a second transmission on
//! the same input allocates a list. Left out by choice: chunked hand-off
//! while the caller still plans, and a per-shard arena for those bytes
//! (the worker allocates them, the caller frees them).
//!
//! # Failure isolation
//!
//! A shard whose program traps (hung core, executor error) or whose
//! core panics on a frame (a bug in an IP-block model or an executor;
//! retained as `panicked: <message>`) is *poisoned*: the failing frame
//! and every later frame dispatched to it report errors, its siblings
//! keep processing, and the error is retained on
//! [`Engine::shard_error`]. Input-validation failures (an oversized
//! frame) are rejected per frame *without* poisoning — the core never saw
//! the frame, so its state is still good. These semantics are identical
//! in sequential and parallel modes, and every error is an
//! [`EngineError`] that names the shard.
//!
//! # Telemetry
//!
//! Every engine maintains per-shard [`ShardStats`] — frames, bytes,
//! per-outcome drops, and a log-bucketed histogram of per-frame core
//! *cycles* (model time, so the numbers are byte-identical across the
//! compiled/tree-walk backends and sequential/parallel execution).
//! [`Engine::telemetry`] snapshots the whole engine; counters are
//! updated on whichever thread runs the shard's slice, so parallel
//! mode pays no synchronization. Builders can opt out with
//! [`EngineBuilder::telemetry`]`(false)` — `emubench` uses that to
//! measure what the instrumentation costs the hot path
//! (`telemetry.overhead_share`, budget 5 %).

use crate::runner::{flow_hash, Backend, Service, TableConfig, Target};
use emu_rtl::IpEnv;
use emu_telemetry::{DropKind, EngineSnapshot, ShardStats};
use emu_types::proto::{ether_type, ip_proto, offset};
use emu_types::{Bits, Frame};
use kiwi_ir::interp::{NullObserver, Observer};
use kiwi_ir::{Code, IrError, IrResult};
use netfpga_sim::dataplane::CoreOutput;
use netfpga_sim::DataplaneDriver;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// The engine's single error type: every failure names the shard it
/// happened on, and the variant tells the caller whether the shard's
/// state is still trustworthy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Building the engine failed (program flattening/compilation, a
    /// missing dataplane contract, zero shards, or a dispatch policy
    /// that could not configure its shards).
    Build(String),
    /// Input validation rejected the frame before it reached the core;
    /// the shard is *not* poisoned.
    Oversize {
        /// Shard the frame would have dispatched to.
        shard: usize,
        /// Offending frame length in bytes.
        len: usize,
        /// The shard's frame-buffer capacity in bytes.
        cap: usize,
    },
    /// The shard's core trapped while processing this frame (hung past
    /// its cycle budget, halted, executor error, or a panic, reported
    /// as `panicked: <message>`); the shard is now poisoned.
    Trap {
        /// Shard that trapped.
        shard: usize,
        /// The underlying executor error.
        reason: String,
    },
    /// The frame dispatched to a shard that was already poisoned by an
    /// earlier trap.
    Poisoned {
        /// The poisoned shard.
        shard: usize,
        /// The retained error of the original trap.
        reason: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Build(e) => write!(f, "engine build failed: {e}"),
            EngineError::Oversize { shard, len, cap } => {
                write!(
                    f,
                    "frame of {len} B exceeds shard {shard} buffer of {cap} B"
                )
            }
            EngineError::Trap { shard, reason } => write!(f, "shard {shard}: {reason}"),
            EngineError::Poisoned { shard, reason } => {
                write!(f, "shard {shard} is poisoned: {reason}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<IrError> for EngineError {
    fn from(e: IrError) -> Self {
        EngineError::Build(e.0)
    }
}

impl From<EngineError> for IrError {
    fn from(e: EngineError) -> Self {
        IrError(e.to_string())
    }
}

/// Result alias for engine operations.
pub type EngineResult<T> = Result<T, EngineError>;

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

/// A shard-selection policy: decides which of `shards` replicated
/// pipelines a frame runs on, and may configure per-shard state at build
/// time (e.g. disjoint resource ranges).
///
/// [`Dispatch::shard_of`] must be a pure function of the frame and the
/// shard count (a policy's fields are configuration it reads, never
/// state it updates), so sequential and parallel execution, and a
/// replay of the same frames, see the same assignment.
pub trait Dispatch: Send {
    /// Policy name (diagnostics, bench labels).
    fn name(&self) -> &'static str;

    /// Selects the shard for `frame` among `shards` shards (must return
    /// a value `< shards`).
    fn shard_of(&self, frame: &Frame, shards: usize) -> usize;

    /// Configures shard `shard` of `shards` right after instantiation
    /// (before any traffic). The default does nothing.
    fn configure(&self, shard: usize, shards: usize, inst: &mut Shard) -> IrResult<()> {
        let _ = (shard, shards, inst);
        Ok(())
    }
}

/// The default policy: RSS-style flow hashing via [`crate::flow_hash`].
/// Every frame of one 5-tuple lands on one shard, so flow-keyed state
/// partitions across shards without coordination.
#[derive(Debug, Clone, Copy, Default)]
pub struct RssHash;

impl Dispatch for RssHash {
    fn name(&self) -> &'static str {
        "rss-hash"
    }
    fn shard_of(&self, frame: &Frame, shards: usize) -> usize {
        (flow_hash(frame) % shards as u64) as usize
    }
}

/// External-port-keyed dispatch for NAT-shaped services, closing the gap
/// RSS cannot: a NAT reply's 5-tuple (remote → public:ext_port) hashes
/// independently of the outbound tuple that allocated the mapping, so
/// plain RSS strands return traffic on the wrong shard where the reverse
/// lookup misses and the frame is dropped.
///
/// `NatSteering` steers:
///
/// * **outbound** frames (arriving on any port other than
///   [`NatSteering::EXTERNAL_PORT`]) by the RSS flow hash — stable per
///   flow, so the allocating shard also sees every later outbound frame;
/// * **inbound** IPv4 TCP/UDP frames on the external port by their
///   destination port: shard `(dport - FIRST_EPHEMERAL) % N`.
///
/// That inversion works because `configure` partitions the ephemeral
/// range across shards — shard *k* allocates `FIRST_EPHEMERAL + k`,
/// stepping by *N* — so external ports are globally unique and their
/// residue identifies the owner. The policy programs this through the
/// service's allocation registers:
///
/// | register | written to |
/// |---|---|
/// | `next_port` | `FIRST_EPHEMERAL + shard` |
/// | `port_base` | `FIRST_EPHEMERAL + shard` (wrap-around restart) |
/// | `port_stride` | shard count |
///
/// `emu_services::nat` declares exactly this contract, and reads its
/// port numbers from the two constants here. Building an
/// engine errors if the service declares only *some* of the registers;
/// a service with none of them (e.g. a stateless service in a dispatch
/// comparison) is left untouched, but then only the steering half of the
/// policy applies.
///
/// Inbound frames whose destination port is below `FIRST_EPHEMERAL`
/// (never allocated) fall back to the RSS hash; every shard drops them
/// identically, so their placement is immaterial.
#[derive(Debug, Clone, Copy, Default)]
pub struct NatSteering;

impl NatSteering {
    /// The port index of the external (public) side.
    pub const EXTERNAL_PORT: u8 = 0;
    /// First ephemeral port of the allocation range.
    pub const FIRST_EPHEMERAL: u16 = 50_000;

    /// The registers of the allocation contract.
    const REGS: [&'static str; 3] = ["next_port", "port_base", "port_stride"];

    /// Extracts the L4 destination port of an IPv4 TCP/UDP frame.
    fn l4_dport(frame: &Frame) -> Option<u16> {
        let b = frame.bytes();
        if frame.ethertype() != ether_type::IPV4 || b.len() < offset::L4 {
            return None;
        }
        let proto = b[offset::IPV4_PROTO];
        if proto != ip_proto::TCP && proto != ip_proto::UDP {
            return None;
        }
        let l4 = offset::IPV4 + usize::from(b[offset::IPV4] & 0x0f) * 4;
        if b.len() < l4 + 4 {
            return None;
        }
        Some(emu_types::bitutil::get16(b, l4 + 2))
    }
}

impl Dispatch for NatSteering {
    fn name(&self) -> &'static str {
        "nat-steering"
    }

    fn shard_of(&self, frame: &Frame, shards: usize) -> usize {
        if frame.in_port == Self::EXTERNAL_PORT {
            if let Some(dport) = Self::l4_dport(frame) {
                if dport >= Self::FIRST_EPHEMERAL {
                    return usize::from(dport - Self::FIRST_EPHEMERAL) % shards;
                }
            }
        }
        RssHash.shard_of(frame, shards)
    }

    fn configure(&self, shard: usize, shards: usize, inst: &mut Shard) -> IrResult<()> {
        let present = Self::REGS
            .iter()
            .filter(|r| inst.read_reg(r).is_some())
            .count();
        if present == 0 {
            // No allocation contract: nothing to partition.
            return Ok(());
        }
        if present < Self::REGS.len() {
            return Err(IrError(format!(
                "NatSteering: service declares only {present} of the allocation \
                 registers {:?}",
                Self::REGS
            )));
        }
        let base = u64::from(Self::FIRST_EPHEMERAL) + shard as u64;
        inst.write_reg("next_port", base);
        inst.write_reg("port_base", base);
        inst.write_reg("port_stride", shards as u64);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Shard
// ---------------------------------------------------------------------

/// One replicated pipeline of an [`Engine`]: a copy of the engine's
/// driver plus its private IP-block environment.
///
/// Traffic goes through the engine (which owns dispatch and poisoning);
/// the shard handle exposes the inspection/configuration surface used by
/// tests, debug tooling, and [`Dispatch::configure`].
pub struct Shard {
    driver: DataplaneDriver,
    env: IpEnv,
    /// Per-shard telemetry, `None` when the engine was built with
    /// telemetry disabled. Boxed: the histogram's bucket array should
    /// not bloat `Shard` moves.
    stats: Option<Box<ShardStats>>,
    /// The retained trap of a poisoned shard: set by the first error
    /// out of the core, after which the shard refuses every frame.
    poisoned: Option<String>,
}

/// A [`Shard`]'s state at one point, taken by [`Shard::checkpoint`] and
/// put back by [`Shard::restore`]. It shares the code image with the
/// shard it came from and copies everything else.
pub struct ShardCheckpoint(Shard);

impl Shard {
    fn new(
        driver: DataplaneDriver,
        service: &Service,
        tables: &TableConfig,
        telemetry: bool,
    ) -> IrResult<Self> {
        let env = (service.make_env)(tables);
        // Every model indexes the signal file by its handle's ids, so
        // the handle must be this program's: checked here, once.
        env.check(&service.program).map_err(IrError)?;
        Ok(Shard {
            driver,
            env,
            stats: telemetry.then(|| Box::new(ShardStats::new())),
            poisoned: None,
        })
    }

    /// This shard's telemetry, `None` when disabled at build time.
    pub fn stats(&self) -> Option<&ShardStats> {
        self.stats.as_deref()
    }

    /// Records a refused frame against this shard's telemetry.
    #[inline]
    fn record_drop(&mut self, kind: DropKind) {
        if let Some(s) = self.stats.as_deref_mut() {
            s.record_drop(kind);
        }
    }

    /// Records a successfully processed frame against this shard's
    /// telemetry.
    #[inline]
    fn record_ok(&mut self, frame: &Frame, out: &CoreOutput) {
        if let Some(s) = self.stats.as_deref_mut() {
            let tx_bytes: u64 = out.tx.iter().map(|t| t.frame.len() as u64).sum();
            s.record_ok(
                frame.len() as u64,
                out.tx.len() as u64,
                tx_bytes,
                out.cycles,
            );
        }
    }

    /// Reads a register by name (debug/verification convenience).
    pub fn read_reg(&self, name: &str) -> Option<Bits> {
        let core = self.driver.core();
        let id = core.program().var_by_name(name)?;
        Some(core.state().reg(id))
    }

    /// Writes a register by name, truncating `value` to the register's
    /// width. Returns `false` (and writes nothing) if the program has no
    /// such register. This is the configuration hook dispatch policies
    /// use at build time; mid-traffic writes are for fault injection.
    pub fn write_reg(&mut self, name: &str, value: u64) -> bool {
        let Some(id) = self.driver.core().program().var_by_name(name) else {
            return false;
        };
        let state = self.driver.core_mut().state_mut();
        state.set_reg(id, Bits::from_u64(value, 64));
        true
    }

    /// The shard's IP-block environment (attaching extra models in
    /// tests; a model attached here is past the build-time port check).
    pub fn env_mut(&mut self) -> &mut IpEnv {
        &mut self.env
    }

    /// Frame buffer capacity of the underlying program.
    pub fn frame_capacity(&self) -> usize {
        self.driver.frame_capacity()
    }

    /// A copy of this shard that shares its code image; `Err` names the
    /// first IP-block model that cannot be copied.
    fn try_clone(&self) -> Result<Shard, String> {
        Ok(Shard {
            driver: self.driver.clone(),
            env: self.env.try_clone()?,
            stats: self.stats.clone(),
            poisoned: self.poisoned.clone(),
        })
    }

    /// A copy of everything this shard owns: its core's state, its
    /// IP-block environment, its telemetry and its poison state. `Err`
    /// names the first IP-block model that cannot be copied
    /// ([`emu_rtl::IpBlockModel::clone_box`]).
    pub fn checkpoint(&self) -> Result<ShardCheckpoint, String> {
        self.try_clone().map(ShardCheckpoint)
    }

    /// Puts this shard back in the state `cp` holds, which a shard of
    /// the same engine took: the next frames run as they ran after the
    /// checkpoint.
    pub fn restore(&mut self, cp: &ShardCheckpoint) {
        *self = cp.0.try_clone().expect("models copied once copy again");
    }

    /// The one per-frame step behind [`Engine::process`] and
    /// [`Engine::process_batch`], as shard `k`: refuse if poisoned,
    /// reject an oversized frame without touching the core, otherwise
    /// run the frame and record the outcome — an error out of the core
    /// poisons the shard, because its state can no longer be trusted.
    fn run<O: Observer + ?Sized>(
        &mut self,
        k: usize,
        frame: &Frame,
        obs: &mut O,
    ) -> EngineResult<CoreOutput> {
        if let Some(reason) = self.poisoned.clone() {
            self.record_drop(DropKind::Poisoned);
            return Err(EngineError::Poisoned { shard: k, reason });
        }
        let cap = self.frame_capacity();
        if frame.len() > cap {
            self.record_drop(DropKind::Oversize);
            return Err(EngineError::Oversize {
                shard: k,
                len: frame.len(),
                cap,
            });
        }
        match self.driver.process(frame, &mut self.env, obs) {
            Ok(out) => {
                self.record_ok(frame, &out);
                Ok(out)
            }
            Err(e) => {
                self.record_drop(DropKind::Trap);
                Err(self.trap(k, e))
            }
        }
    }

    /// Poisons the shard (as shard `k`) with the core's error.
    fn trap(&mut self, k: usize, e: IrError) -> EngineError {
        self.poisoned = Some(e.0.clone());
        EngineError::Trap {
            shard: k,
            reason: e.0,
        }
    }

    /// The trap for a frame whose [`Shard::run`] unwound (a bug in an
    /// IP-block model or an executor) with `payload`: counted and
    /// reported like any other trap, so the panic costs this shard and
    /// not its worker thread or its siblings. The callers catch per
    /// slice or per call, never inside `run`: an unwind guard around
    /// the core's step costs the executor-bound workloads ~5 %.
    fn panicked(&mut self, k: usize, payload: Box<dyn std::any::Any + Send>) -> EngineError {
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string payload");
        self.record_drop(DropKind::Trap);
        self.trap(k, IrError(format!("panicked: {msg}")))
    }
}

// ---------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------

impl Service {
    /// Starts building an [`Engine`] for this service on `target`.
    ///
    /// The default configuration — one shard, [`RssHash`] dispatch,
    /// sequential execution — is a single pipeline.
    pub fn engine(&self, target: Target) -> EngineBuilder<'_> {
        EngineBuilder {
            service: self,
            target,
            backend: None,
            shards: 1,
            dispatch: Box::new(RssHash),
            parallel: false,
            telemetry: true,
            tables: TableConfig::default(),
            passes: None,
        }
    }
}

/// Configures and instantiates an [`Engine`]; obtained from
/// [`Service::engine`].
pub struct EngineBuilder<'a> {
    service: &'a Service,
    target: Target,
    backend: Option<Backend>,
    shards: usize,
    dispatch: Box<dyn Dispatch>,
    parallel: bool,
    telemetry: bool,
    tables: TableConfig,
    passes: Option<Vec<kiwi_ir::Pass>>,
}

impl EngineBuilder<'_> {
    /// Number of replicated pipelines (default 1; must be ≥ 1).
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Selects the CPU execution backend (default [`Backend::Compiled`];
    /// ignored on [`Target::Fpga`]). An explicit call here always wins
    /// over the `EMU_CPU_BACKEND` environment override, so differential
    /// tests can pin both sides even under a forced-tree-walk CI run.
    pub fn backend(mut self, b: Backend) -> Self {
        self.backend = Some(b);
        self
    }

    /// Pins the compiled backend's optimization pass pipeline (ignored
    /// by [`Backend::TreeWalk`] and [`Target::Fpga`], which have no
    /// pass pipeline). An explicit call here always wins over the
    /// `EMU_CPU_PASSES` environment override — the builder-side mirror
    /// of that knob — so differential tests can pin both sides even
    /// under a passes-disabled CI run. Default: defer to
    /// `EMU_CPU_PASSES`, falling back to
    /// [`kiwi_ir::default_pipeline`] (value numbering, then dead scratch
    /// elimination).
    pub fn passes(mut self, passes: &[kiwi_ir::Pass]) -> Self {
        self.passes = Some(passes.to_vec());
        self
    }

    /// The dispatch policy steering frames to shards (default
    /// [`RssHash`]).
    pub fn dispatch(mut self, policy: impl Dispatch + 'static) -> Self {
        self.dispatch = Box::new(policy);
        self
    }

    /// Execute batch shards on real OS threads instead of sequentially
    /// under the cost model (default `false`). Results are identical;
    /// only host wall-clock time changes.
    pub fn parallel(mut self, yes: bool) -> Self {
        self.parallel = yes;
        self
    }

    /// Maintain per-shard telemetry (default `true`). Disabling skips
    /// every counter and histogram update; [`Engine::telemetry`] then
    /// returns `None`. Exists so the overhead of the instrumentation
    /// itself can be measured — leave it on otherwise.
    pub fn telemetry(mut self, yes: bool) -> Self {
        self.telemetry = yes;
        self
    }

    /// Overrides each stateful table's capacity (per shard, in
    /// entries). Cpu engines accept up to millions of entries; the
    /// Fpga target rejects anything beyond
    /// [`crate::FPGA_MAX_TABLE_ENTRIES`] at build time, so the
    /// cycle-accurate reference stays within the paper's BRAM budget,
    /// and every target rejects `0` and anything above `u32::MAX` (table
    /// slots are numbered in 32 bits). Every shipped service with a
    /// learned or stored table honours this; a recipe whose tables are
    /// sized by their contents (the DNS zone) or by a protocol constant
    /// (the LRU cache's slot count) has nothing to resize.
    pub fn table_entries(mut self, n: usize) -> Self {
        self.tables.entries = Some(n);
        self
    }

    /// Sets the idle timeout, in frame epochs, after which TTL-aware
    /// tables expire an untouched entry (NAT mapping timeout, switch
    /// MAC aging). Default: no expiry.
    ///
    /// Tables age by *frames processed*, not by a clock: every frame
    /// offered to a shard advances its epoch by one. A timeout the
    /// paper gives in seconds is `ceil(timeout_ns / ns_per_frame)` epochs,
    /// where `ns_per_frame` is the mean inter-frame gap the deployment
    /// expects (`1e9 / rate_fps`, or a NetSim scenario's send
    /// interval); rounding up means a mapping never expires before its
    /// wall-clock TTL at the stated rate.
    pub fn ttl_frames(mut self, frames: u64) -> Self {
        self.tables.ttl_frames = Some(frames);
        self
    }

    /// Instantiates the engine: builds the service's core on the target
    /// once — one flatten, one compile or FSM schedule, one port
    /// resolution — and gives each of the `shards` shards a copy of it
    /// beside its own environment, configured by the dispatch policy.
    pub fn build(self) -> EngineResult<Engine> {
        if self.shards == 0 {
            return Err(EngineError::Build(
                "an engine needs at least one shard".into(),
            ));
        }
        if let Some(n) = self.tables.entries {
            // `CamTable` numbers its slots in `u32` and asserts both
            // ends; a configuration mistake is an error, not a panic.
            if n == 0 || n > u32::MAX as usize {
                return Err(EngineError::Build(format!(
                    "table_entries({n}): a table holds between 1 and {} entries",
                    u32::MAX
                )));
            }
            if self.target == Target::Fpga && n > crate::runner::FPGA_MAX_TABLE_ENTRIES {
                return Err(EngineError::Build(format!(
                    "Fpga tables are BRAM-bounded: {n} entries exceeds the \
                     {max}-entry budget (use Target::Cpu for scaled-up tables)",
                    max = crate::runner::FPGA_MAX_TABLE_ENTRIES
                )));
            }
        }
        let backend = self.backend.unwrap_or_else(Backend::env_default);
        let core = crate::runner::core(self.service, self.target, backend, self.passes.as_deref())?;
        let driver = DataplaneDriver::new(core)?;
        let mut shards = Vec::with_capacity(self.shards);
        for (k, driver) in std::iter::repeat_n(driver, self.shards).enumerate() {
            let mut shard = Shard::new(driver, self.service, &self.tables, self.telemetry)?;
            self.dispatch.configure(k, self.shards, &mut shard)?;
            shards.push(Some(Box::new(shard)));
        }
        let pool = (self.parallel && self.shards > 1)
            .then(|| Pool::spawn(self.shards - 1))
            .transpose()?;
        Ok(Engine {
            plan: vec![Vec::new(); self.shards],
            assign: Vec::new(),
            shards,
            dispatch: self.dispatch,
            parallel: self.parallel,
            pool,
        })
    }
}

// ---------------------------------------------------------------------
// Batch report
// ---------------------------------------------------------------------

/// Per-input-frame results of one [`Engine::process_batch`] call — the
/// single report type for every engine shape (1 shard or N, sequential
/// or parallel).
///
/// Results are per-frame `Result`s: a trapped shard fails its own frames
/// and leaves every other shard's results intact (the failure-isolation
/// contract exercised by `tests/failure_injection.rs`).
#[derive(Debug)]
pub struct BatchReport {
    /// Per-frame outcome, in the order the frames were offered.
    pub outputs: Vec<EngineResult<CoreOutput>>,
    /// Busy core-cycles consumed by each shard during this batch.
    pub shard_cycles: Vec<u64>,
}

impl BatchReport {
    /// Wall-clock cycles of the batch under the parallel-datapath model:
    /// shards run concurrently, so the batch takes as long as its busiest
    /// shard. This is the denominator of the scaling benchmarks.
    pub fn wall_cycles(&self) -> u64 {
        self.shard_cycles.iter().copied().max().unwrap_or(0)
    }

    /// Total busy cycles summed over all shards (the single-pipeline
    /// equivalent cost).
    pub fn total_cycles(&self) -> u64 {
        self.shard_cycles.iter().sum()
    }

    /// Number of frames that processed successfully.
    pub fn ok_count(&self) -> usize {
        self.outputs.iter().filter(|o| o.is_ok()).count()
    }

    /// Total frames transmitted across the batch.
    pub fn tx_count(&self) -> usize {
        self.outputs
            .iter()
            .filter_map(|o| o.as_ref().ok())
            .map(|o| o.tx.len())
            .sum()
    }
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

/// N replicated pipelines of one service behind a pluggable dispatcher —
/// the single execution surface for every deployment shape, from the
/// paper's single-core software target to §5.4's one-core-per-port
/// hardware scale-out. Build one with [`Service::engine`].
pub struct Engine {
    /// `Some` between batches: a parallel batch lends shards out.
    shards: Vec<Option<Box<Shard>>>,
    dispatch: Box<dyn Dispatch>,
    parallel: bool,
    /// The workers of a parallel engine of more than one shard.
    pool: Option<Pool>,
    /// Per shard its input indices, per input its shard: the batch in
    /// flight, kept between batches for the capacity.
    plan: Vec<Vec<u32>>,
    assign: Vec<u32>,
}

const HOME: &str = "every shard is home between batches";

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("shards", &self.shards.len())
            .field("healthy", &self.healthy_shards())
            .field("dispatch", &self.dispatch.name())
            .field("parallel", &self.parallel)
            .finish()
    }
}

/// Outcome of running one shard's slice of a batch.
#[derive(Default)]
struct ShardRun {
    /// One result per frame of the slice, in that shard's arrival order.
    results: Vec<EngineResult<CoreOutput>>,
    /// Busy cycles this shard consumed.
    cycles: u64,
}

/// Runs `idxs` (indices into `frames`) through shard `k` in arrival
/// order, one [`Shard::run`] step each. Shared verbatim by the calling
/// thread and the workers so their semantics cannot drift — and kept a
/// plain function over slices: generic over a frame accessor, the
/// executor it inlines into read 9 % slower on `l7-memcached`.
fn run_slice(k: usize, shard: &mut Shard, frames: &[Frame], idxs: &[u32]) -> ShardRun {
    let mut run = ShardRun {
        results: Vec::with_capacity(idxs.len()),
        cycles: 0,
    };
    // A second pass only after a panic: the frame in flight is the one
    // `results` stops short of, and what is left of the slice then
    // finds the shard poisoned.
    while run.results.len() < idxs.len() {
        let rest = &idxs[run.results.len()..];
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            for &i in rest {
                let r = shard.run(k, &frames[i as usize], &mut NullObserver);
                if let Ok(out) = &r {
                    run.cycles += out.cycles;
                }
                run.results.push(r);
            }
        }));
        if let Err(payload) = unwound {
            run.results.push(Err(shard.panicked(k, payload)));
        }
    }
    run
}

/// What crosses threads in a parallel batch, by value and both ways:
/// shard `k`, an owned copy of its slice of the batch in
/// `frames[..len]` (the rest is capacity from earlier batches) and, on
/// the way back, the slice's outcome.
struct Lent {
    k: usize,
    shard: Box<Shard>,
    frames: Vec<Frame>,
    len: usize,
    run: ShardRun,
}

/// One parked thread per shard but the first — worker `k - 1` serves
/// shard `k` — each with its job channel and, between batches, its
/// frame buffer. Dropping the pool hangs up on the workers and joins
/// them.
struct Pool {
    workers: Vec<(Sender<Lent>, Vec<Frame>, JoinHandle<()>)>,
    done: Receiver<Lent>,
}

impl Pool {
    fn spawn(n: usize) -> EngineResult<Pool> {
        let (done_tx, done) = channel();
        let mut workers = Vec::with_capacity(n);
        for w in 0..n {
            let (jobs_tx, jobs) = channel();
            let done_tx = done_tx.clone();
            let thread = std::thread::Builder::new()
                .name(format!("emu-shard-{}", w + 1))
                .spawn(move || Pool::work(jobs, done_tx))
                .map_err(|e| EngineError::Build(format!("spawning a shard worker: {e}")))?;
            workers.push((jobs_tx, Vec::new(), thread));
        }
        Ok(Pool { workers, done })
    }

    /// Lends shard `k` to its worker with a copy of `batch[idxs]`,
    /// written over what the worker's buffer held. Out of line: most
    /// engines have no workers, and `process_batch` is theirs too.
    #[inline(never)]
    fn lend(&mut self, k: usize, shard: &mut Option<Box<Shard>>, batch: &[Frame], idxs: &[u32]) {
        let (jobs, buf, _) = &mut self.workers[k - 1];
        let mut frames = std::mem::take(buf);
        let warm = frames.len().min(idxs.len());
        for (slot, &i) in frames.iter_mut().zip(idxs) {
            slot.clone_from(&batch[i as usize]);
        }
        frames.extend(idxs[warm..].iter().map(|&i| batch[i as usize].clone()));
        let job = Lent {
            k,
            shard: shard.take().expect(HOME),
            frames,
            len: idxs.len(),
            run: ShardRun::default(),
        };
        jobs.send(job).expect("a worker outlives every batch");
    }

    /// A worker's life: parked in `recv` until a batch lends it a
    /// shard, until the engine hangs up.
    fn work(jobs: Receiver<Lent>, done: Sender<Lent>) {
        // The copied slice is dense: frame `i` is its `i`-th.
        let mut dense: Vec<u32> = Vec::new();
        while let Ok(mut job) = jobs.recv() {
            dense.extend(dense.len() as u32..job.len as u32);
            job.run = run_slice(job.k, &mut job.shard, &job.frames, &dense[..job.len]);
            if done.send(job).is_err() {
                return;
            }
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        for (jobs, _, thread) in self.workers.drain(..) {
            drop(jobs);
            // A worker that died has nothing left to report here.
            let _ = thread.join();
        }
    }
}

impl Engine {
    /// Number of shards (replicated pipelines).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Name of the active dispatch policy.
    pub fn dispatch_name(&self) -> &'static str {
        self.dispatch.name()
    }

    /// The shard index `frame` dispatches to.
    ///
    /// # Panics
    ///
    /// Panics if the dispatch policy violates its contract by returning
    /// an index `>= num_shards()` — silently rerouting such frames would
    /// turn a policy bug into subtle state corruption on one shard.
    pub fn shard_of(&self, frame: &Frame) -> usize {
        let n = self.shards.len();
        if n == 1 {
            return 0;
        }
        let k = self.dispatch.shard_of(frame, n);
        assert!(
            k < n,
            "dispatch policy `{}` returned shard {k} of {n}",
            self.dispatch.name()
        );
        k
    }

    /// Number of shards still accepting traffic.
    pub fn healthy_shards(&self) -> usize {
        let shards = self.shards.iter().flatten();
        shards.filter(|s| s.poisoned.is_none()).count()
    }

    /// The retained error of a poisoned shard, if any.
    pub fn shard_error(&self, shard: usize) -> Option<&str> {
        self.shard(shard).poisoned.as_deref()
    }

    /// One shard's handle (register inspection in tests and debug
    /// tooling).
    pub fn shard(&self, shard: usize) -> &Shard {
        self.shards[shard].as_deref().expect(HOME)
    }

    /// Mutable access to one shard's handle.
    pub fn shard_mut(&mut self, shard: usize) -> &mut Shard {
        self.shards[shard].as_deref_mut().expect(HOME)
    }

    /// Frame buffer capacity of the underlying program (uniform across
    /// shards — they run the same program).
    pub fn frame_capacity(&self) -> usize {
        self.shard(0).frame_capacity()
    }

    /// Reads a register by name on shard 0 — the single-pipeline
    /// convenience; use [`Engine::shard`] to address other shards.
    pub fn read_reg(&self, name: &str) -> Option<Bits> {
        self.shard(0).read_reg(name)
    }

    /// Shard 0's IP-block environment — the single-pipeline convenience.
    pub fn env_mut(&mut self) -> &mut IpEnv {
        self.shard_mut(0).env_mut()
    }

    /// Processes one frame on its flow's shard — the same step
    /// [`Engine::process_batch`] applies to each frame of a batch.
    ///
    /// Input-validation failures (an oversized frame) error without
    /// touching the core and do *not* poison the shard; an error out of
    /// the core itself (hung, halted, executor trap) does, because the
    /// core's state can no longer be trusted.
    pub fn process(&mut self, frame: &Frame) -> EngineResult<CoreOutput> {
        self.process_observed(frame, &mut NullObserver)
    }

    /// Processes one frame under an observer (debug tooling).
    /// Statically dispatched like [`kiwi_ir::Core::run`]: under
    /// [`NullObserver`], which [`Engine::process`] passes, the observer
    /// hooks compile away; a `&mut dyn Observer` works too (`?Sized`).
    pub fn process_observed<O: Observer + ?Sized>(
        &mut self,
        frame: &Frame,
        obs: &mut O,
    ) -> EngineResult<CoreOutput> {
        let k = self.shard_of(frame);
        let shard = self.shard_mut(k);
        catch_unwind(AssertUnwindSafe(|| shard.run(k, frame, obs)))
            .unwrap_or_else(|payload| Err(shard.panicked(k, payload)))
    }

    /// Processes a batch: frames are dispatched up front (one
    /// [`Dispatch::shard_of`] call each, in input order), each shard
    /// processes its slice in arrival order, and results come back in
    /// input order. A shard failure poisons only that shard — the
    /// trapping frame and that shard's later frames report the error,
    /// every other frame completes normally. Oversized frames fail
    /// individually without poisoning, exactly as in
    /// [`Engine::process`].
    ///
    /// With [`EngineBuilder::parallel`] the per-shard slices run
    /// concurrently: the calling thread keeps the first non-idle slice
    /// and lends every other non-idle shard — the shard itself, with a
    /// copy of its frames in a buffer the engine reuses — to its parked
    /// worker, which sends both back with the results before this call
    /// returns. A batch that lands on one shard therefore wakes nobody
    /// and costs what it costs a sequential engine; outputs, cycle
    /// accounting, and poisoning are identical to sequential execution
    /// by construction. Workers are spawned by [`EngineBuilder::build`]
    /// and joined when the engine drops; this call panics if one has
    /// died (`run_slice` catches what a core can throw, so that is an
    /// engine bug, and the shard it held is gone with it).
    pub fn process_batch(&mut self, frames: &[Frame]) -> BatchReport {
        let n = self.shards.len();
        let len = u32::try_from(frames.len()).expect("a batch of at most u32::MAX frames");
        let mut plan = std::mem::take(&mut self.plan);
        let mut assign = std::mem::take(&mut self.assign);
        plan.iter_mut().for_each(Vec::clear);
        assign.clear();
        for (i, f) in (0..len).zip(frames) {
            let k = self.shard_of(f);
            plan[k].push(i);
            assign.push(k as u32);
        }

        // The calling thread runs the first non-idle slice and, without
        // workers, every other one after it.
        let mut runs: Vec<ShardRun> = (0..n).map(|_| ShardRun::default()).collect();
        let mut busy = (0..n).filter(|&k| !plan[k].is_empty());
        let mine = busy.next();
        let mut lent = 0;
        if let Some(pool) = &mut self.pool {
            for k in busy.by_ref() {
                pool.lend(k, &mut self.shards[k], frames, &plan[k]);
                lent += 1;
            }
        }
        for k in mine.into_iter().chain(busy) {
            let shard = self.shards[k].as_deref_mut().expect(HOME);
            runs[k] = run_slice(k, shard, frames, &plan[k]);
        }
        for _ in 0..lent {
            let pool = self.pool.as_mut().expect("shards were lent to it");
            let back = pool.done.recv().expect("run_slice catches core panics");
            pool.workers[back.k - 1].1 = back.frames;
            (self.shards[back.k], runs[back.k]) = (Some(back.shard), back.run);
        }

        // Each shard's results are in its arrival order, so input order
        // is each frame taking the next result of its shard.
        let shard_cycles = runs.iter().map(|r| r.cycles).collect();
        let mut next: Vec<_> = runs.into_iter().map(|r| r.results.into_iter()).collect();
        let ran = "every frame ran on its shard";
        let outputs = assign
            .iter()
            .map(|&k| next[k as usize].next().expect(ran))
            .collect();
        (self.plan, self.assign) = (plan, assign);
        BatchReport {
            outputs,
            shard_cycles,
        }
    }

    /// Snapshot of every shard's telemetry, or `None` when the engine
    /// was built with [`EngineBuilder::telemetry`]`(false)`.
    ///
    /// The snapshot is deterministic: it counts frames and **model
    /// cycles**, never wall time, so two engines fed the same frames
    /// produce byte-identical snapshots regardless of execution mode
    /// (sequential vs parallel) or backend (compiled vs tree-walk).
    pub fn telemetry(&self) -> Option<EngineSnapshot> {
        let shards: Option<Vec<ShardStats>> = self
            .shards
            .iter()
            .flatten()
            .map(|s| {
                s.stats().cloned().map(|mut stats| {
                    // CAM lifecycle counters live in the shard's
                    // environment; fold them in at snapshot time.
                    stats.cams = s.env.cam_snapshots();
                    stats
                })
            })
            .collect();
        shards.map(|shards| EngineSnapshot { shards })
    }

    /// Zeroes every shard's telemetry (a bench's warm-up frames should
    /// not pollute its measured histogram). No-op when disabled. CAM
    /// *statistics* reset too; table contents are untouched.
    pub fn reset_telemetry(&mut self) {
        for s in self.shards.iter_mut().flatten() {
            if let Some(stats) = s.stats.as_deref_mut() {
                stats.reset();
            }
            s.env.reset_cam_stats();
        }
    }

    /// Consumes a **1-shard FPGA** engine, returning the raw driver and
    /// environment for the NetFPGA pipeline simulator. `None` for CPU
    /// engines or multi-shard engines (the pipeline model replicates
    /// cores itself).
    pub fn into_fpga_parts(self) -> Option<(DataplaneDriver, IpEnv)> {
        if self.shards.len() != 1 {
            return None;
        }
        let shard = *self.shards.into_iter().next().flatten().expect(HOME);
        match **shard.driver.core().code() {
            Code::Fpga(_) => Some((shard.driver, shard.env)),
            Code::TreeWalk(_) | Code::Compiled(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::service_builder;
    use crate::runner::tests::flow_frame;
    use kiwi_ir::dsl::*;
    use std::sync::Arc;

    fn port_mirror() -> Service {
        let (mut pb, dp) = service_builder("mirror", 128);
        let mut body = vec![dp.rx_wait(), dp.set_output_port(dp.input_port())];
        body.extend(dp.transmit(dp.rx_len()));
        body.extend(dp.done());
        pb.thread("main", vec![forever(body)]);
        Service::new(pb.build().unwrap())
    }

    #[test]
    fn read_reg_by_name() {
        let (mut pb, dp) = service_builder("counter", 64);
        let count = pb.reg("rx_count", 32);
        let mut body = vec![dp.rx_wait(), assign(count, add(var(count), lit(1, 32)))];
        body.extend(dp.done());
        pb.thread("main", vec![forever(body)]);
        let svc = Service::new(pb.build().unwrap());
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        for _ in 0..5 {
            inst.process(&Frame::new(vec![0; 60])).unwrap();
        }
        assert_eq!(inst.read_reg("rx_count").unwrap().to_u64(), 5);
        assert!(inst.read_reg("nonexistent").is_none());
    }

    #[test]
    fn write_reg_round_trips_and_rejects_unknown() {
        let (mut pb, dp) = service_builder("counter", 64);
        let _count = pb.reg("rx_count", 32);
        let mut body = vec![dp.rx_wait()];
        body.extend(dp.done());
        pb.thread("main", vec![forever(body)]);
        let svc = Service::new(pb.build().unwrap());
        let mut inst = svc.engine(Target::Cpu).build().unwrap();
        assert!(inst.shard_mut(0).write_reg("rx_count", 42));
        assert_eq!(inst.read_reg("rx_count").unwrap().to_u64(), 42);
        assert!(!inst.shard_mut(0).write_reg("missing", 1));
    }

    #[test]
    fn sharded_engine_matches_single_instance_on_stateless_service() {
        let svc = port_mirror();
        let frames: Vec<Frame> = (0..32)
            .map(|i| flow_frame(i % 5, i as u16 * 7, 60))
            .collect();
        let mut single = svc.engine(Target::Fpga).build().unwrap();
        let mut engine = svc.engine(Target::Fpga).shards(4).build().unwrap();
        let batch = engine.process_batch(&frames);
        assert_eq!(batch.ok_count(), frames.len());
        for (f, out) in frames.iter().zip(&batch.outputs) {
            let want = single.process(f).unwrap();
            assert_eq!(out.as_ref().unwrap().tx, want.tx);
        }
        assert!(batch.wall_cycles() > 0);
        assert!(batch.wall_cycles() <= batch.total_cycles());
    }

    #[test]
    fn parallel_mode_matches_sequential_exactly() {
        let svc = port_mirror();
        let frames: Vec<Frame> = (0..48)
            .map(|i| flow_frame(i % 7, i as u16 * 13, 60 + (i as usize % 40)))
            .collect();
        let mut seq = svc.engine(Target::Fpga).shards(4).build().unwrap();
        let mut par = svc
            .engine(Target::Fpga)
            .shards(4)
            .parallel(true)
            .build()
            .unwrap();
        assert!(par.parallel && !seq.parallel);
        let a = seq.process_batch(&frames);
        let b = par.process_batch(&frames);
        assert_eq!(a.shard_cycles, b.shard_cycles);
        for (x, y) in a.outputs.iter().zip(&b.outputs) {
            assert_eq!(x.as_ref().unwrap(), y.as_ref().unwrap());
        }
    }

    #[test]
    fn telemetry_counts_frames_and_matches_across_modes() {
        let svc = port_mirror();
        let frames: Vec<Frame> = (0..40)
            .map(|i| flow_frame(i % 6, i as u16 * 11, 60 + (i as usize % 30)))
            .collect();
        let mut seq = svc.engine(Target::Fpga).shards(4).build().unwrap();
        let mut par = svc
            .engine(Target::Fpga)
            .shards(4)
            .parallel(true)
            .build()
            .unwrap();
        seq.process_batch(&frames);
        par.process_batch(&frames);
        let (a, b) = (seq.telemetry().unwrap(), par.telemetry().unwrap());
        assert_eq!(a, b, "telemetry must not depend on execution mode");
        let total = a.total();
        assert_eq!(total.counters.frames, frames.len() as u64);
        assert_eq!(total.counters.drops(), 0);
        assert_eq!(
            total.counters.rx_bytes,
            frames.iter().map(|f| f.len() as u64).sum::<u64>()
        );
        assert_eq!(total.cycles.count(), frames.len() as u64);
        // A mirror transmits every frame back out unmodified.
        assert_eq!(total.counters.tx_frames, frames.len() as u64);
        assert_eq!(total.counters.tx_bytes, total.counters.rx_bytes);
        seq.reset_telemetry();
        assert_eq!(seq.telemetry().unwrap().total().counters.offered(), 0);
    }

    #[test]
    fn telemetry_records_oversize_drops_and_can_be_disabled() {
        let svc = port_mirror();
        let mut engine = svc.engine(Target::Cpu).build().unwrap();
        let cap = engine.frame_capacity();
        let big = Frame::new(vec![0; cap + 1]);
        assert!(matches!(
            engine.process(&big),
            Err(EngineError::Oversize { .. })
        ));
        engine.process_batch(&[big, Frame::new(vec![0; 60])]);
        let total = engine.telemetry().unwrap().total();
        assert_eq!(total.counters.drop_oversize, 2);
        assert_eq!(total.counters.frames, 1);
        assert_eq!(total.counters.offered(), 3);

        let off = svc.engine(Target::Cpu).telemetry(false).build().unwrap();
        assert!(off.telemetry().is_none());
    }

    #[test]
    fn batch_equals_frame_by_frame() {
        let svc = port_mirror();
        let frames: Vec<Frame> = (0..10).map(|i| flow_frame(3, i as u16, 80)).collect();
        let mut a = svc.engine(Target::Fpga).build().unwrap();
        let mut b = svc.engine(Target::Fpga).build().unwrap();
        let batch = a.process_batch(&frames);
        let single: Vec<CoreOutput> = frames.iter().map(|f| b.process(f).unwrap()).collect();
        assert_eq!(
            batch
                .outputs
                .iter()
                .map(|o| o.as_ref().unwrap().clone())
                .collect::<Vec<_>>(),
            single
        );
        assert_eq!(
            batch.total_cycles(),
            single.iter().map(|o| o.cycles).sum::<u64>(),
            "no idle cycles between back-to-back frames"
        );
    }

    #[test]
    fn nat_steering_keys_inbound_on_external_port() {
        let steer = NatSteering;
        // Inbound on the external port: dport picks the shard residue.
        for (dport, want) in [(50_000u16, 0usize), (50_001, 1), (50_006, 2), (50_011, 3)] {
            let mut f = flow_frame(9, 53, 40);
            emu_types::bitutil::set16(f.bytes_mut(), offset::L4 + 2, dport);
            f.in_port = 0;
            assert_eq!(steer.shard_of(&f, 4), want, "dport {dport}");
        }
        // Outbound (internal port): RSS, stable per flow.
        let mut out1 = flow_frame(7, 4000, 40);
        out1.in_port = 2;
        let mut out2 = flow_frame(7, 4000, 200);
        out2.in_port = 2;
        assert_eq!(steer.shard_of(&out1, 4), steer.shard_of(&out2, 4));
        // Below-range inbound falls back to RSS (and is dropped by NAT).
        let mut low = flow_frame(9, 53, 40);
        emu_types::bitutil::set16(low.bytes_mut(), offset::L4 + 2, 80);
        low.in_port = 0;
        assert_eq!(steer.shard_of(&low, 4), RssHash.shard_of(&low, 4));
    }

    #[test]
    fn cpu_backends_are_interchangeable() {
        // The compiled default and the tree-walk reference must agree on
        // outputs AND cycle accounting, sharded or not.
        let svc = port_mirror();
        let frames: Vec<Frame> = (0..24)
            .map(|i| flow_frame(i % 5, i as u16 * 11, 60 + (i as usize % 50)))
            .collect();
        let mut compiled = svc
            .engine(Target::Cpu)
            .backend(Backend::Compiled)
            .shards(3)
            .build()
            .unwrap();
        let mut treewalk = svc
            .engine(Target::Cpu)
            .backend(Backend::TreeWalk)
            .shards(3)
            .build()
            .unwrap();
        let a = compiled.process_batch(&frames);
        let b = treewalk.process_batch(&frames);
        assert_eq!(a.shard_cycles, b.shard_cycles);
        for (x, y) in a.outputs.iter().zip(&b.outputs) {
            assert_eq!(x.as_ref().unwrap(), y.as_ref().unwrap());
        }
    }

    #[test]
    fn shards_share_one_code_image_on_every_execution() {
        let svc = port_mirror();
        for (target, backend) in [
            (Target::Cpu, Backend::Compiled),
            (Target::Cpu, Backend::TreeWalk),
            (Target::Fpga, Backend::Compiled),
        ] {
            let engine = svc
                .engine(target)
                .backend(backend)
                .shards(3)
                .build()
                .unwrap();
            let codes: Vec<_> = engine
                .shards
                .iter()
                .map(|s| s.as_ref().expect(HOME).driver.core().code())
                .collect();
            assert!(
                codes.iter().all(|c| Arc::ptr_eq(c, codes[0])),
                "{target:?}/{backend:?}: every shard must share the engine's code image"
            );
        }
    }

    #[test]
    fn zero_shards_rejected() {
        let err = port_mirror()
            .engine(Target::Cpu)
            .shards(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, EngineError::Build(_)), "{err}");
    }

    #[test]
    fn into_fpga_parts_only_for_single_shard_fpga() {
        let svc = port_mirror();
        assert!(svc
            .engine(Target::Cpu)
            .build()
            .unwrap()
            .into_fpga_parts()
            .is_none());
        assert!(svc
            .engine(Target::Fpga)
            .shards(2)
            .build()
            .unwrap()
            .into_fpga_parts()
            .is_none());
        assert!(svc
            .engine(Target::Fpga)
            .build()
            .unwrap()
            .into_fpga_parts()
            .is_some());
    }
}
