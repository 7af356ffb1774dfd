//! The multi-target service description: one program, several execution
//! targets.
//!
//! This is contribution 2 of the paper: "an execution environment that
//! supports running a single codebase over heterogeneous targets,
//! including CPUs, network simulators, and FPGAs." A [`Service`] bundles
//! a program with a recipe for its IP-block environment; [`Target`] and
//! [`Backend`] select the machine. Execution goes through the unified engine in
//! [`crate::engine`]: `service.engine(target).build()` yields an
//! [`crate::Engine`] whether the deployment is a single pipeline or a
//! sharded scale-out (§5.4's "one core per port"). The Mininet-analogue
//! target lives in the `netsim` crate (it embeds the same CPU backend in
//! a network simulation).
//!
//! This module also owns the RSS-style flow digest ([`flow_key`] /
//! [`flow_hash`]) the default dispatch policy uses, and the
//! [`assert_targets_agree`] differential harness.

use crate::dataplane::Dataplane;
use emu_rtl::IpEnv;
use emu_types::proto::{ether_type, ip_proto, offset};
use emu_types::{checksum, Frame};
use kiwi::CostModel;
use kiwi_ir::{Code, Core, IrResult, Program};

/// Execution target selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Software execution — the paper's x86 process target. Which CPU
    /// backend runs it is selected by [`Backend`] (compiled micro-ops
    /// by default).
    Cpu,
    /// Cycle-accurate compiled FSM — the FPGA target.
    Fpga,
}

/// CPU execution backend selector (ignored by [`Target::Fpga`]).
///
/// Both backends execute the identical flattened op stream with
/// byte-identical semantics — state, outputs, observer callbacks, cycle
/// and op counts, trap messages — which the differential suites assert.
/// They differ only in speed:
///
/// * [`Backend::Compiled`] (the default): each thread is lowered to a
///   pre-decoded micro-op bytecode through the optimization pipeline
///   ([`kiwi_ir::default_pipeline`]: value numbering, then dead scratch
///   elimination) and run by a tight non-recursive loop with a `u64`
///   fast path — the production software backend.
/// * [`Backend::TreeWalk`]: the recursive `Expr` interpreter — the
///   slow, obviously-correct reference. CI forces it once over the whole
///   test suite (`EMU_CPU_BACKEND=treewalk`) so it cannot rot.
///
/// With [`Target`] it selects which code image ([`kiwi_ir::Code`]) an
/// engine's [`kiwi_ir::Core`] runs: `Code::Compiled` or `Code::TreeWalk`
/// on [`Target::Cpu`], `Code::Fpga` whatever the backend on
/// [`Target::Fpga`]. The engine builds that image once and every shard's
/// core shares it.
///
/// An explicit [`crate::EngineBuilder::backend`] call always wins; the
/// `EMU_CPU_BACKEND` environment variable (`compiled` / `treewalk`)
/// overrides only the *default*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Pre-decoded micro-op bytecode (fast path; the default).
    #[default]
    Compiled,
    /// Recursive tree-walking interpreter (reference semantics).
    TreeWalk,
}

impl Backend {
    /// The default backend after consulting `EMU_CPU_BACKEND`.
    ///
    /// Panics on an unrecognized non-empty value: the variable exists so
    /// CI can force the reference interpreter over the whole suite, and
    /// a typo silently running the compiled backend instead would defeat
    /// exactly that run.
    pub fn env_default() -> Backend {
        match std::env::var("EMU_CPU_BACKEND").as_deref() {
            Ok("treewalk") | Ok("tree-walk") => Backend::TreeWalk,
            Ok("compiled") | Ok("") | Err(_) => Backend::Compiled,
            Ok(other) => panic!("EMU_CPU_BACKEND must be `compiled` or `treewalk`, got `{other}`"),
        }
    }

    /// Human-readable backend label (bench and report rows).
    pub fn label(self) -> &'static str {
        match self {
            Backend::Compiled => "compiled",
            Backend::TreeWalk => "treewalk",
        }
    }
}

/// Table sizing/lifecycle configuration handed to a service's
/// environment recipe at engine-build time.
///
/// The defaults (`None` everywhere) reproduce the paper's Table-3
/// geometry: BRAM-sized tables, no expiry. A Cpu deployment may raise
/// `entries` to millions; the Fpga target refuses anything beyond
/// [`FPGA_MAX_TABLE_ENTRIES`] so the hardware reference stays
/// BRAM-honest (see `EngineBuilder::table_entries`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableConfig {
    /// Override for each stateful table's capacity in entries. `None`
    /// keeps the service's paper-sized default.
    pub entries: Option<usize>,
    /// Idle timeout in frame epochs for TTL-aware tables (NAT mapping
    /// timeout, switch MAC aging). `None` disables expiry. Services
    /// whose tables are key-value stores with explicit deletes (e.g.
    /// memcached) ignore this.
    pub ttl_frames: Option<u64>,
}

/// Largest per-table capacity the Fpga target accepts: the BRAM budget
/// of the paper's NetFPGA SUME reference. Cpu deployments may exceed
/// it; the cycle-accurate target must not pretend to hardware that
/// doesn't exist.
pub const FPGA_MAX_TABLE_ENTRIES: usize = 4096;

/// A deployable service: program + IP-block environment recipe.
///
/// A `Service` is a *description*; to run it, build an engine:
///
/// ```ignore
/// let mut engine = svc.engine(Target::Fpga).shards(4).build()?;
/// ```
pub struct Service {
    /// The service program (must declare the dataplane contract).
    pub program: Program,
    /// Builds the IP-block environment the program expects, sized per
    /// the engine's [`TableConfig`]: each model is constructed from the
    /// port handle the program's builder returned, and the engine
    /// checks that binding once per shard at build time.
    pub make_env: Box<dyn Fn(&TableConfig) -> IpEnv>,
    /// Compiler cost model for the FPGA target.
    pub cost_model: CostModel,
}

impl Service {
    /// Wraps a program that needs no IP blocks.
    pub fn new(program: Program) -> Self {
        Service {
            program,
            make_env: Box::new(|_| IpEnv::new()),
            cost_model: CostModel::default(),
        }
    }

    /// Wraps a program with its IP-block environment recipe: the
    /// engine's [`TableConfig`] (capacity override, TTL) is passed
    /// through at build time. A recipe whose blocks have no table to
    /// size ignores it.
    pub fn with_sized_env(
        program: Program,
        make_env: impl Fn(&TableConfig) -> IpEnv + 'static,
    ) -> Self {
        Service {
            program,
            make_env: Box::new(make_env),
            cost_model: CostModel::default(),
        }
    }
}

/// Builds the core `service` runs on `target`, using `backend` when the
/// target is software: one flatten and one compile (or one FSM schedule)
/// per call, which [`crate::EngineBuilder::build`] makes once per engine.
/// `passes` pins the compiled backend's optimization pipeline; `None`
/// defers to `EMU_CPU_PASSES` / the default pipeline (ignored by the
/// other backends, which have no pass pipeline).
pub(crate) fn core(
    service: &Service,
    target: Target,
    backend: Backend,
    passes: Option<&[kiwi_ir::Pass]>,
) -> IrResult<Core> {
    let code = match (target, backend) {
        (Target::Cpu, Backend::TreeWalk) => Code::TreeWalk(kiwi_ir::flatten(&service.program)?),
        (Target::Cpu, Backend::Compiled) => {
            let flat = kiwi_ir::flatten(&service.program)?;
            Code::Compiled(match passes {
                Some(p) => kiwi_ir::compile_with_passes(&flat, p)?,
                None => kiwi_ir::compile(&flat)?,
            })
        }
        (Target::Fpga, _) => Code::Fpga(kiwi::compile_with(
            &service.program,
            service.cost_model.clone(),
        )?),
    };
    Ok(Core::new(code))
}

/// Runs the same frames through every execution backend — tree-walking
/// CPU, compiled CPU (frame by frame *and* as one batch), and the FPGA
/// FSM — and asserts identical transmissions, outputs, and telemetry.
/// The differential harness used across the test suite.
pub fn assert_targets_agree(service: &Service, frames: &[Frame]) -> IrResult<()> {
    let mut treewalk = service
        .engine(Target::Cpu)
        .backend(Backend::TreeWalk)
        .build()?;
    let mut compiled = service
        .engine(Target::Cpu)
        .backend(Backend::Compiled)
        .build()?;
    let mut fpga = service.engine(Target::Fpga).build()?;
    let mut scalar_outputs = Vec::with_capacity(frames.len());
    for (i, f) in frames.iter().enumerate() {
        let a = treewalk.process(f)?;
        let c = compiled.process(f)?;
        let b = fpga.process(f)?;
        if a.tx != b.tx {
            return Err(kiwi_ir::IrError(format!(
                "target divergence on frame {i}: cpu {:?} vs fpga {:?}",
                a.tx, b.tx
            )));
        }
        if a != c {
            return Err(kiwi_ir::IrError(format!(
                "backend divergence on frame {i}: treewalk {a:?} vs compiled {c:?}"
            )));
        }
        scalar_outputs.push(c);
    }
    // One `process_batch` call must reproduce the frame-by-frame
    // compiled run byte for byte: outputs, cycle counts, and telemetry
    // snapshot.
    let mut batched = service
        .engine(Target::Cpu)
        .backend(Backend::Compiled)
        .build()?;
    let report = batched.process_batch(frames);
    for (i, r) in report.outputs.iter().enumerate() {
        match r {
            Ok(out) if *out == scalar_outputs[i] => {}
            other => {
                return Err(kiwi_ir::IrError(format!(
                    "batched divergence on frame {i}: scalar {:?} vs batched {other:?}",
                    scalar_outputs[i]
                )));
            }
        }
    }
    if batched.telemetry() != compiled.telemetry() {
        return Err(kiwi_ir::IrError(format!(
            "batched telemetry diverges: scalar {:?} vs batched {:?}",
            compiled.telemetry(),
            batched.telemetry()
        )));
    }
    Ok(())
}

/// Extracts the RSS-style flow key of a frame: src/dst MAC, plus src/dst
/// IPv4 addresses when the frame is IPv4, plus protocol and L4 ports when
/// it carries TCP or UDP.
///
/// Frames of one flow (one 5-tuple) always produce the same key whatever
/// their payload, which is what gives the [`crate::RssHash`] dispatch
/// policy its flow-affinity guarantee. Non-IP frames hash on MAC
/// addresses alone.
pub fn flow_key(frame: &Frame) -> [u8; 26] {
    let b = frame.bytes();
    let mut key = [0u8; 26];
    let mut used = 12;
    key[..12].copy_from_slice(&b[..12]); // dst MAC ++ src MAC
    if frame.ethertype() == ether_type::IPV4 && b.len() >= offset::L4 {
        key[used..used + 8].copy_from_slice(&b[offset::IPV4_SRC..offset::IPV4_SRC + 8]);
        used += 8;
        let proto = b[offset::IPV4_PROTO];
        let ihl = usize::from(b[offset::IPV4] & 0x0f) * 4;
        let l4 = offset::IPV4 + ihl;
        if (proto == ip_proto::TCP || proto == ip_proto::UDP) && b.len() >= l4 + 4 {
            key[used] = proto;
            key[used + 1..used + 5].copy_from_slice(&b[l4..l4 + 4]); // sport ++ dport
            used += 5;
        }
    }
    // Trailing bytes stay zero; `used` itself is folded in so a short key
    // cannot collide with a longer key that happens to end in zeros.
    key[25] = used as u8;
    key
}

/// RSS-style flow hash over [`flow_key`], built from four independently
/// seeded lanes of the Pearson hash the platform's hashing IP block
/// models (Figure 5) — the same digest function on every target.
///
/// Lane `seed` (1 to 4, high byte to low) is
/// `checksum::pearson8_seeded(seed, &key)`. The lanes never read each
/// other, so one pass over the key steps all four: four table loads in
/// flight per key byte instead of four serial walks of the key, and
/// byte for byte the digest of four separate calls
/// (`tests/sharding.rs` pins it and checks it against that definition).
pub fn flow_hash(frame: &Frame) -> u64 {
    const T: [u8; 256] = checksum::PEARSON_TABLE;
    let mut lanes = [T[1], T[2], T[3], T[4]];
    for b in flow_key(frame) {
        for h in &mut lanes {
            *h = T[usize::from(*h ^ b)];
        }
    }
    u64::from(u32::from_be_bytes(lanes))
}

/// A convenience used by services and examples: declare the dataplane and
/// hand back both the builder and the handle.
pub fn service_builder(name: &str, frame_capacity: usize) -> (kiwi_ir::ProgramBuilder, Dataplane) {
    let mut pb = kiwi_ir::ProgramBuilder::new(name);
    let dp = Dataplane::declare(&mut pb, frame_capacity);
    (pb, dp)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use kiwi_ir::dsl::*;

    fn port_mirror() -> Service {
        let (mut pb, dp) = service_builder("mirror", 128);
        let mut body = vec![dp.rx_wait(), dp.set_output_port(dp.input_port())];
        body.extend(dp.transmit(dp.rx_len()));
        body.extend(dp.done());
        pb.thread("main", vec![forever(body)]);
        Service::new(pb.build().unwrap())
    }

    #[test]
    fn both_targets_run_and_agree() {
        let svc = port_mirror();
        let frames: Vec<Frame> = (0..10)
            .map(|i| {
                let mut f = Frame::new(vec![i as u8; 60 + i * 3]);
                f.in_port = (i % 4) as u8;
                f
            })
            .collect();
        assert_targets_agree(&svc, &frames).unwrap();
    }

    #[test]
    fn divergence_detection_works() {
        // A service reading an *uninitialized input signal* that only the
        // environment drives would diverge if envs differed; here targets
        // agree, so the harness must pass — this guards the harness itself.
        let svc = port_mirror();
        assert!(assert_targets_agree(&svc, &[Frame::new(vec![0; 60])]).is_ok());
    }

    /// A UDP frame of flow `{src_mac, sport}` carrying `len` bytes of
    /// IP packet (header included), shared with the engine's tests.
    pub(crate) fn flow_frame(src_mac: u64, sport: u16, len: usize) -> Frame {
        use emu_types::wire::{Envelope, Payload, L4};
        use emu_types::{Ipv4, MacAddr};
        let env = Envelope {
            src_mac: MacAddr::from_u64(src_mac),
            dst_mac: MacAddr::from_u64(0xB),
            src: Ipv4::new(10, 0, 0, 1),
            dst: Ipv4::new(10, 0, 0, 2),
            ident: 0,
            in_port: 0,
        };
        let l4 = L4::Udp {
            sport,
            dport: 53,
            checksum: false,
        };
        env.frame(l4, Payload::Bytes(&vec![0xaa; len.saturating_sub(28)]))
    }

    #[test]
    fn flow_hash_ignores_payload_but_not_ports() {
        let a = flow_hash(&flow_frame(1, 1000, 40));
        let b = flow_hash(&flow_frame(1, 1000, 200)); // same flow, longer payload
        let c = flow_hash(&flow_frame(1, 2000, 40)); // different sport
        let d = flow_hash(&flow_frame(2, 1000, 40)); // different src MAC
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn flow_hash_spreads_across_shards() {
        let mut seen = [0u32; 4];
        for sport in 0..256u16 {
            let h = flow_hash(&flow_frame(1, sport, 40)) % 4;
            seen[h as usize] += 1;
        }
        for (k, &count) in seen.iter().enumerate() {
            assert!(count > 24, "shard {k} starved: {seen:?}");
        }
    }
}
