//! # Emu — a Rust reproduction of *Rapid Prototyping of Networking Services*
//!
//! This crate is the facade over the full reproduction of Sultana et al.,
//! USENIX ATC 2017. The paper's system — a standard library and HLS
//! toolchain that lets network services written in a high-level language
//! run unchanged on CPUs, in network simulation, and on NetFPGA — is
//! rebuilt here with every hardware dependency replaced by a simulator
//! (the layout table below names the stand-in for each).
//!
//! ## Layout
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`types`] | `emu-types` | `Bits`, bit utilities, checksums, frames, the `wire` frame builders and codecs |
//! | [`ir`] | `kiwi-ir` | the IR + builder DSL + `Core`, the one machine (tree-walk, compiled, FSM) |
//! | [`compiler`] | `kiwi` | scheduling → FSM, resources, Verilog emission |
//! | [`rtl`] | `emu-rtl` | IP-block models, the CAM table, VCD traces |
//! | [`platform`] | `netfpga-sim` | NetFPGA pipeline model + baselines |
//! | [`stdlib`] | `emu-core` | the Emu standard library + unified engine |
//! | [`debug`] | `direction` | direction commands / controller / packets |
//! | [`services`] | `emu-services` | the eight §4 services |
//! | [`host`] | `hoststack` | Linux-path baseline model |
//! | [`simnet`] | `netsim` | Mininet-analogue network simulator |
//! | [`hosts`] | `emu-hosts` | closed-loop endpoint agents + generated topologies |
//! | [`traffic`] | `emu-traffic` | seeded workload generators, checkers, record/replay |
//! | [`telemetry`] | `emu-telemetry` | counters, latency histograms, JSON |
//!
//! ## Quickstart
//!
//! ```
//! use emu::prelude::*;
//!
//! // Build the paper's learning switch and run it on the FPGA target.
//! let svc = emu::services::switch_ip_cam();
//! let mut engine = svc.engine(Target::Fpga).build().unwrap();
//! let mut frame = Frame::ethernet(
//!     MacAddr::from_u64(0xB), MacAddr::from_u64(0xA), 0x0800, &[0; 46]);
//! frame.in_port = 0;
//! let out = engine.process(&frame).unwrap();
//! assert_eq!(out.tx[0].ports, 0b1110); // unknown destination floods
//! ```
//!
//! ## One engine, every deployment shape
//!
//! The paper's hardware scales by replicating the service pipeline across
//! parallel datapaths (§5.4 runs one Emu core per 10G port). Every
//! deployment shape — one pipeline or N, software or hardware target,
//! cost-model or real-thread execution — is one
//! [`Engine`](stdlib::Engine), configured through the builder returned by
//! [`Service::engine`](stdlib::Service::engine):
//!
//! ```
//! use emu::prelude::*;
//!
//! let svc = emu::services::icmp_echo();
//! let mut engine = svc.engine(Target::Fpga).shards(4).build().unwrap();
//! let pings: Vec<Frame> =
//!     (0..8).map(|i| emu::services::icmp::echo_request_frame(32, i)).collect();
//! let report = engine.process_batch(&pings);
//! assert_eq!(report.ok_count(), 8);
//! assert!(report.wall_cycles() <= report.total_cycles());
//! ```
//!
//! *Which shard* a frame runs on is a pluggable
//! [`Dispatch`](stdlib::Dispatch) policy: [`RssHash`](stdlib::RssHash)
//! (default — the Pearson flow hash, so one 5-tuple's frames share one
//! shard and per-flow state needs no coordination) and
//! [`NatSteering`](stdlib::NatSteering) (steers NAT return traffic to
//! the shard that allocated the external port — see
//! `examples/sharded_nat.rs`). Either is a pure function of the frame
//! and the shard count. Batches execute shards sequentially under
//! the parallel-datapath cost model by default; `.parallel(true)` runs
//! them on real OS threads with identical results
//! (`tests/telemetry_equiv.rs` and `tests/sharding.rs` run both ways and
//! fail on any difference, as does every `bash benchmark/run.sh`).
//!
//! A shard whose program traps is poisoned and isolated while its
//! siblings keep serving; every failure is an
//! [`EngineError`](stdlib::EngineError) naming the shard.
//!
//! The Mininet-analogue target takes the same engines via
//! [`simnet::NetSim::add_service`]. `tests/sharding.rs` holds the
//! scale-out claim — a stateless service's batch time under the cost
//! model falls with every added shard — and
//! `emu_bench::scaling` measures the paper's §5.4 multi-core memcached
//! figure (one pipeline per core; `cargo run --release -p emu-bench --bin
//! paper` prints it with every other §5 cell).
//!
//! ## Execution backends
//!
//! On the Cpu target the service program can execute on either of two
//! software backends, selected with
//! [`EngineBuilder::backend`](stdlib::EngineBuilder::backend):
//!
//! * [`Backend::Compiled`](stdlib::Backend) (**default**) — each thread
//!   is lowered once, at build time, to a linear micro-op bytecode with
//!   explicit scratch registers, pre-resolved ids and pre-computed
//!   widths. The bytecode is a 64-bit machine — 29 micro-ops over one
//!   `u64` slot file laid out as registers | signals | scratch | pool:
//!   the machine state's registers and signals, scratch above them and
//!   the program's constant pool above that, so no micro-op loads a
//!   register, a signal or a literal (the platform driver and the IP
//!   blocks read and drive the same signal words between cycles); the
//!   few sub-expressions
//!   wider than that (or directly on top of one that is) are not
//!   lowered but handed, as they stand, to the reference [`ir::eval`]
//!   by four of those micro-ops, so the product re-implements none of
//!   the spec's multi-limb arithmetic. It is then run through the
//!   **cross-statement** optimization pass pipeline ([`ir::Pass`]):
//!   observer-visibility analysis widens optimization regions past
//!   source-statement boundaries wherever no observer event intervenes,
//!   and the widened regions get two passes: value numbering, one
//!   forward scan that reuses loads, stored values and pure results,
//!   fuses byte fields into one load and reads uses through copies, then
//!   dead-scratch elimination. Each is kept because removing it changes
//!   the bytecode of a shipped service (`tests/pass_census.rs`); an
//!   access at a literal array index is lowered at its constant index
//!   with no pass at all. Pick it everywhere
//!   throughput matters — it is what `soak` and `emubench` drive, and
//!   `bash benchmark/run.sh` reports its per-frame cost beside the
//!   tree-walker's (`kiwi-ir.exec_ns_per_frame` vs
//!   `kiwi-ir.treewalk_ns_per_frame`).
//! * [`Backend::TreeWalk`](stdlib::Backend) — the recursive reference
//!   interpreter over the flattened statement stream ([`ir::interp`]).
//!   Pick it when debugging a suspected compiled-backend bug, or as the
//!   second opinion in differential tests. `EMU_CPU_BACKEND=treewalk`
//!   forces it process-wide without code changes (CI runs the whole
//!   test suite this way so the reference cannot rot).
//!
//! Target and backend pick the code image an [`ir::Core`] runs
//! ([`ir::Code`]) — the tree-walker's ops, the compiled bytecode or the
//! Fpga FSM — which an engine builds once, at build time, and shares
//! between its shards: each shard's core is the image behind an `Arc`
//! plus its own machine state, so a 4-shard engine costs one compilation,
//! not four, and holds one copy of the code. Building an image costs
//! what the program holds, not what it spells out: an expression's
//! children are shared `Arc` nodes (a service helper that uses a value
//! four times holds it once), validation and the FSM scheduler's delay
//! estimate visit a shared node once, and lowering compiles it once per
//! statement and reads its slot at every use, so a thread's scratch is
//! never larger than the micro-ops its lowering emits
//! (`scratch_is_numbered_by_what_lowering_emits` in
//! `tests/pass_census.rs`; the listings themselves are pinned by
//! `default_listings_are_pinned` in `tests/artifacts.rs`).
//! [`Engine::process`](stdlib::Engine::process) and
//! [`Engine::process_batch`](stdlib::Engine::process_batch) share one
//! frame loop over that core on every target, so a frame's outputs,
//! telemetry, and observer trace do not depend on how it was handed in.
//!
//! Three env knobs make the whole compilation story inspectable without
//! code changes: `EMU_CPU_BACKEND=treewalk|compiled` picks the backend,
//! `EMU_CPU_PASSES` overrides the pass list (`none` disables every
//! optimization; or a comma list like `dead_scratch,value_numbering` — the
//! builder mirror is
//! [`EngineBuilder::passes`](stdlib::EngineBuilder::passes)), and
//! `EMU_CPU_DUMP_MOPS=1` prints each thread's annotated micro-op listing
//! once per engine build. CI re-runs the entire suite under
//! `EMU_CPU_PASSES=none` so the unoptimized lowering stays a working
//! fallback and a miscompiling pass bisects with one env var.
//!
//! The two backends are **byte-identical in every observable**: machine
//! state after every cycle (registers, arrays, signals), observer
//! traces (assignments, labels, extension points, in order), cycle and
//! op counts, trap messages, and per-frame engine outcomes. The Fpga
//! target stays the golden reference for both. This is enforced by
//! directed lockstep tests in `kiwi-ir`, random-program proptests across
//! all three executions in `tests/backend_equiv.rs`, and the soak
//! harness.
//!
//! All three machines keep arrays in one width-typed representation,
//! [`ir::Cells`]: a `u8` slab for elements up to 8 bits and a slab of
//! `u64` limbs above, `⌈width/64⌉` per element, every element masked to
//! its declared width. Registers and signals are words of one file the
//! same way, a value wider than 64 bits a run of limbs in it: no machine
//! holds a [`types::Bits`] at rest. The dataplane `frame` array is therefore a plain
//! byte slab, and the platform driver loads a frame and harvests a
//! transmission with a `memcpy` each. Both backends also maintain the
//! `arr_high` per-array high-water contract
//! ([`ir::interp::MachineState::arr_high`]): after any run, `arr_high[a]`
//! is one past the highest slot of array `a` that may differ from zero.
//! The driver zero-fills the frame buffer only from the end of the new
//! frame up to that mark, so a backend that under-reports it leaks the
//! previous frame's bytes into the next one and one that never resets it
//! makes every frame clear the whole buffer.
//!
//! ## Stateful tables at scale
//!
//! Every stateful service keeps its per-flow state in
//! [`rtl::CamTable`] — a hashed, cache-conscious index behind the CAM
//! IP block's port protocol — so lookups and writes are O(1) in
//! resident entries whether a table holds 10^3 or 10^6 flows. The
//! service declares the block once: [`rtl::CamIf::declare`] puts the
//! ports on the program and returns their handle, the program's
//! `lookup`/`write` statements and the [`rtl::CamModel`] in the
//! environment recipe are both made from that handle, and the engine
//! checks the binding once at build — no port is looked up by name
//! while frames flow, and a handle from the wrong program is a build
//! error, not an inert table. The model serves its ports through the
//! table's limb entry points (`lookup_limbs`, `write_limbs`, …): a key
//! goes in as the port's signal word and a hit's value comes back into
//! the `value` port's word, with no [`Bits`](types::Bits) built on the
//! way; the `Bits` methods are thin wrappers over the same code. An
//! entry costs what its declared geometry says, not what a
//! [`Bits`](types::Bits) does: `8 × (⌈key_bits/64⌉ +
//! ⌈value_bits/64⌉ + 1)` bytes in one flat `u64` slab (key limbs, value
//! limbs, last-touch stamp — 24 B for the switch's 48-bit MAC → port
//! and for both NAT tables) plus 8 to 16 B of an open-addressed,
//! at-most-half-full `u32` slot index, so a lookup in a table far
//! larger than the cache reads two lines: one of the index, one of the
//! slab. With a TTL the expiry queue adds 16 B per entry per epoch it
//! was touched in. The index hash is std's keyed SipHash over the used
//! key limbs — table keys come out of received frames, and an unkeyed
//! hash would let a sender line them up in one probe run. The
//! capacity/expiry/eviction contract:
//!
//! * **Capacity** is configured per engine with
//!   [`EngineBuilder::table_entries`](stdlib::EngineBuilder::table_entries).
//!   Cpu deployments may request millions of entries (slots allocate
//!   lazily, so a sparsely-used million-entry table is cheap); the
//!   Fpga target refuses anything past the BRAM-sized
//!   [`FPGA_MAX_TABLE_ENTRIES`](stdlib::FPGA_MAX_TABLE_ENTRIES) — the
//!   paper's hardware resource wall, surfaced at build time instead of
//!   synthesis time — and every target refuses `0` and more than
//!   `u32::MAX` entries (slots are numbered in 32 bits). The same
//!   service code runs at either size.
//! * **Expiry** —
//!   [`EngineBuilder::ttl_frames`](stdlib::EngineBuilder::ttl_frames)
//!   arms TTL aging on a frame-count epoch: every admitted frame ticks
//!   the owning shard's tables, and an entry untouched for more than
//!   `ttl` ticks is expired — reclaimed lazily when its key or slot is
//!   next needed, plus a bounded background sweep per tick. NAT mapping
//!   timeout and switch MAC aging are this one mechanism.
//! * **Eviction** — a full table first reclaims its oldest expired
//!   entry; only when nothing has expired does round-robin eviction
//!   claim a live slot. Paired tables (NAT's forward/reverse maps,
//!   [`rtl::CamPair`]) stay in lockstep: evicting or expiring one side
//!   always removes its partner, and an expired mapping's external
//!   port becomes honestly re-allocatable.
//!
//! Per-table occupancy/hit/eviction/expiry counters ride the normal
//! telemetry snapshot ([`telemetry::CamCounters`]).
//! `tests/cam_golden.rs` holds the O(1) claim — per-frame cost flat from
//! 10^3 to 10^5 resident MACs — emubench's `flows-1m-churn` workload
//! measures the table beyond the last-level cache (`rtl.cam_hit_ns`,
//! `rtl.cam_miss_ns`), and `soak` churns ≥1M frames per service
//! against million-entry TTL'd tables under shadow checkers that replay
//! the very same `CamTable`s, so expiry and eviction are *predicted*,
//! not tolerated.
//!
//! ## Generating traffic
//!
//! Hand-rolled frames stop scaling long before an engine does. The
//! [`traffic`] crate manufactures deterministic, seeded workloads —
//! stateful TCP conversations, Zipf-keyed memcached mixes, weighted DNS
//! queries, ARP/ICMP chatter, churn pools whose working set turns over
//! ([`traffic::FlowChurn`], [`traffic::MacChurn`]), and adversarial
//! malformations — that
//! compose by weight into a [`Mix`](traffic::Mix) and feed
//! [`Engine::process_batch`](stdlib::Engine::process_batch) directly:
//!
//! ```
//! use emu::prelude::*;
//! use emu::traffic::{Background, Mix, TcpConversations, TrafficGen};
//!
//! let svc = emu::services::switch_ip_cam();
//! let mut engine = svc.engine(Target::Cpu).shards(4).build().unwrap();
//! let mut mix = Mix::new(7)
//!     .add(3, TcpConversations::new(1, 8, &[0, 1, 2, 3]))
//!     .add(1, Background::new(2, &[0, 1, 2, 3]));
//! let frames = mix.take(64);
//! let report: BatchReport = engine.process_batch(&frames);
//! assert_eq!(report.ok_count(), 64);
//! assert!(report.tx_count() >= 64); // floods fan out
//! ```
//!
//! Reference checkers consume each batch's
//! [`BatchReport`](stdlib::BatchReport) and assert service invariants
//! frame by frame: [`traffic::NatChecker`] and [`traffic::SwitchModel`]
//! replay the services' own tables, and [`traffic::HostChecker`] holds
//! memcached, DNS and ICMP echo to the replies of their host services
//! ([`host::HostMemcached`], [`host::HostDns`], [`host::HostIcmpEcho`]),
//! byte for byte. `cargo run --release -p emu-bench --bin soak` drives
//! ≥1M generated frames per service through 4-shard parallel engines
//! under those checkers, and [`traffic::Trace`] records any stream into
//! a byte-exact replay fixture (see `tests/fixtures/`). `netsim` links
//! accept seeded impairments — loss, duplication, reorder jitter — via
//! [`simnet::NetSim::impair`] (see `examples/traffic_soak.rs`).
//!
//! ## Observability
//!
//! Every engine keeps per-shard telemetry unless built with
//! [`EngineBuilder::telemetry`](stdlib::EngineBuilder::telemetry)`(false)`:
//! frame/byte counters per outcome (processed, oversize, trap,
//! poisoned) and a log-bucketed histogram of per-frame **model cycles**
//! with ≤ 1/32 relative quantile error
//! ([`telemetry::Histogram`]). Because it counts model cycles rather
//! than wall time, a snapshot is deterministic: sequential and parallel
//! execution — and the compiled and tree-walk backends — produce
//! *equal* [`EngineSnapshot`](telemetry::EngineSnapshot)s for the same
//! frames (asserted in `tests/telemetry_equiv.rs`, which also pins the
//! cycle counts of five seeded service mixes as literals).
//! [`simnet::NetSim::telemetry`] folds per-node
//! drops, impairment stats, and embedded engine snapshots into one JSON
//! document.
//!
//! ```
//! use emu::prelude::*;
//!
//! let svc = emu::services::icmp_echo();
//! let mut engine = svc.engine(Target::Cpu).shards(2).build().unwrap();
//! let pings: Vec<Frame> =
//!     (0..32).map(|i| emu::services::icmp::echo_request_frame(32, i)).collect();
//! engine.process_batch(&pings);
//! let total = engine.telemetry().unwrap().total();
//! assert_eq!(total.counters.frames, 32);
//! assert_eq!(total.counters.drops(), 0);
//! // Exact quantile bounds from the cycle histogram:
//! let (lo, hi) = total.cycles.quantile_bounds(0.99).unwrap();
//! assert!(lo <= hi && hi <= total.cycles.max().unwrap());
//! ```
//!
//! Host-speed numbers come from one place: `bash benchmark/run.sh`
//! (`emubench`, described in `benchmark/README.md`) runs six workloads
//! and writes three end-to-end metrics and the per-layer breakdown for
//! each; `BENCHMARK.json` is its contract. `crates/bench` holds the
//! paper's evaluation as one table of cited cells, measured in model
//! time, gated by its test and printed by the `paper` bin; its `soak`
//! bin hunts bugs. Neither is a performance record.
//!
//! ## Closed-loop hosts
//!
//! Open-loop streams measure what an engine *does*; they cannot measure
//! what a network *feels like*, because nothing in them reacts. The
//! [`hosts`] crate closes the loop: [`hosts::TcpClient`],
//! [`hosts::McClient`], and [`hosts::DnsClient`] are
//! [`simnet::HostAgent`]s living inside the event loop — they arm
//! retransmission timers, back off exponentially, suppress duplicated
//! responses, verify every answer against a model of the server, and
//! sample RTTs under Karn's rule into [`telemetry::Histogram`]s. A
//! service node is timed by [`platform::timing::NodeClock`], the
//! port-to-port arithmetic Table 4's pipeline uses (MAC/PHY, arbiter,
//! one core on the 200 MHz grid busy for the engine's model cycles,
//! output queue), so the measured RTT is wire + node, deterministic per
//! seed:
//!
//! ```
//! use emu::prelude::*;
//! use emu::hosts::{ClientConfig, TcpClient, KICK};
//!
//! let mut net = emu::simnet::NetSim::new();
//! let ping = emu::services::tcp_ping();
//! let server = net.add_service("ping", ping.engine(Target::Cpu).build().unwrap(), 1);
//! let client = net.add_agent(
//!     "prober",
//!     Box::new(TcpClient::new(
//!         "prober",
//!         MacAddr::from_u64(0x02_00_00_00_00_01), "10.0.0.1".parse().unwrap(), 40_000,
//!         MacAddr::from_u64(0x02_00_00_00_00_02), "10.0.0.2".parse().unwrap(), 7,
//!         1, ClientConfig { requests: 32, ..ClientConfig::default() },
//!     )),
//!     1,
//! );
//! net.link(client, 0, server, 0, 500.0, 10.0);
//! net.arm_timer(client, 0.0, KICK); // kick request #0; the rest self-schedule
//! net.run_until(f64::MAX).unwrap();
//! let probe = net.agent_as::<TcpClient>(client).unwrap();
//! assert_eq!(probe.stats().completed, 32); // every SYN got a verified SYN-ACK
//! // RTT ≥ two traversals of the 500 ns wire plus the server's fixed
//! // path (MAC/PHY both ways, arbiter, output queue), before its cycles.
//! let floor = 1_000.0 + emu::platform::timing::NodeClock::FIXED_NS;
//! assert!(probe.stats().rtt.quantile(0.5).unwrap() as f64 >= floor);
//! ```
//!
//! [`hosts::fat_tree`] scales the same machinery to whole topologies: a
//! seeded [`hosts::TopoSpec`] generates an edge-hierarchy fabric of
//! sharded learning-switch engines with impaired links, memcached, DNS,
//! and TCP-ping service leaves, and a closed-loop client on every
//! remaining slot; [`hosts::Topo::harvest`] merges the client-side
//! accounting and feeds every per-request outcome through
//! [`traffic::ClientCheck`]. emubench's `fabric-closed-loop` workload
//! measures that fabric (verified requests per second,
//! `netsim.events_per_s`, `hosts.retx_per_request`);
//! `tests/closed_loop.rs` holds the retries-recover-from-loss,
//! duplicate-suppression, all-impairments-at-once, RTT-monotonicity,
//! and whole-topology differential (seq==par, compiled==treewalk)
//! suites.

#![forbid(unsafe_code)]

pub use direction as debug;
pub use emu_core as stdlib;
pub use emu_hosts as hosts;
pub use emu_rtl as rtl;
pub use emu_services as services;
pub use emu_telemetry as telemetry;
pub use emu_traffic as traffic;
pub use emu_types as types;
pub use hoststack as host;
pub use kiwi as compiler;
pub use kiwi_ir as ir;
pub use netfpga_sim as platform;
pub use netsim as simnet;

/// The handful of names nearly every user needs.
pub mod prelude {
    pub use direction::{ControllerConfig, DirectionPacket, Director};
    pub use emu_core::{
        Backend, BatchReport, Dispatch, Engine, EngineBuilder, EngineError, NatSteering, RssHash,
        Service, Target,
    };
    pub use emu_types::{Frame, Ipv4, MacAddr, Summary};
    pub use kiwi::{compile, emit, estimate, CostModel, IpBlock};
    pub use kiwi_ir::{dsl, ProgramBuilder};
    pub use netfpga_sim::{CoreMode, PipelineSim};
}
