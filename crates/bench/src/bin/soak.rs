//! The standing scenario engine: millions of generated frames through
//! sharded **parallel** engines, with reference checkers asserting
//! service invariants on every frame — translation consistency for
//! NAT, learned forwarding for the switch, and for memcached, DNS and
//! ICMP echo replies byte-identical to the host services' — and the
//! engine-wide rule that no input may ever trap a shard.
//!
//! Every service runs twice with the *same generator seed*: once on a
//! `shards(4).parallel(true)` engine (real OS threads) and once on the
//! sequential cost-model engine. The checker verdicts must be
//! identical — parallel execution is invisible to semantics — and both
//! must be **zero violations**.
//!
//! Prints one row per service × mode on stderr, each followed by its
//! checker's first violation notes verbatim; exits non-zero on any
//! violation or verdict divergence.
//!
//! Run: `cargo run --release -p emu-bench --bin soak
//! [-- --frames N] [-- --backend compiled|treewalk]`
//! (default 1,000,000 frames per service on the compiled CPU backend;
//! CI's `soak-smoke` job runs 50,000). Any other argument is an error.

use emu_bench::bench_zone;
use emu_core::{Backend, Engine, NatSteering, Target};
use emu_traffic::{
    Adversarial, Background, Checker, DnsWeighted, FlowChurn, HostChecker, MacChurn, McModel,
    MemcachedZipf, Mix, NatChecker, SwitchModel, TcpConversations, TrafficGen,
};
use emu_types::{Frame, Ipv4};
use hoststack::{HostDns, HostIcmpEcho};
use std::time::Instant;

const SHARDS: usize = 4;
const BATCH: usize = 1024;
const SEED: u64 = 0x50a1c;

/// Scaled-up Cpu table size (the million-flow regime; Fpga targets
/// stay BRAM-bounded and reject this).
const TABLE_ENTRIES: usize = 1_000_000;

/// Mapping/MAC idle timeout in frames for the stateful services. Short
/// enough that churned-away flows age out many times over a soak run,
/// long enough that live Zipf-tail flows survive between sends.
const TTL_FRAMES: u64 = 20_000;

/// Verdict of one engine run — the quantities that must match between
/// sequential and parallel execution.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Verdict {
    frames: u64,
    tx: u64,
    rejected: u64,
    violations: u64,
}

fn public() -> Ipv4 {
    "203.0.113.1".parse().expect("valid")
}

/// The per-service traffic recipe (fresh generator for every run, so
/// sequential and parallel consume identical streams).
fn nat_mix(seed: u64) -> Mix {
    // The FlowChurn pool stays under the per-shard ephemeral-port
    // budget (~3 900 ports per residue class); departed flows' mappings
    // are reclaimed by TTL_FRAMES-idle expiry, which the churn weight
    // exercises ~70k times over a million-frame run.
    Mix::new(seed)
        .add(10, FlowChurn::new(seed ^ 5, 4_000, 200, &[1, 2, 3]))
        .add(8, TcpConversations::new(seed ^ 1, 48, &[1, 2, 3]))
        .add(
            3,
            DnsWeighted::new(seed ^ 2, &[("example.com", 3), ("emu.cam.ac.uk", 1)]),
        )
        .add(2, Background::new(seed ^ 3, &[1, 2, 3]))
        .add(1, Adversarial::new(seed ^ 4, &[0, 1, 2, 3]))
}

fn mc_mix(seed: u64) -> Mix {
    // 200k-key Zipf working set against a million-entry store.
    Mix::new(seed)
        .add(12, MemcachedZipf::new(seed ^ 1, 200_000, 1.1, 0.9))
        .add(2, Background::new(seed ^ 2, &[0, 1, 2, 3]))
        .add(1, Adversarial::new(seed ^ 3, &[0, 1, 2, 3]))
}

fn dns_mix(seed: u64) -> Mix {
    // Zone hits, a miss, and the chatter and malformations around them.
    Mix::new(seed)
        .add(
            12,
            DnsWeighted::new(
                seed ^ 1,
                &[
                    ("example.com", 6),
                    ("emu.cam.ac.uk", 3),
                    ("a.b", 2),
                    ("miss.example", 1),
                ],
            ),
        )
        .add(2, Background::new(seed ^ 2, &[0, 1, 2, 3]))
        .add(1, Adversarial::new(seed ^ 3, &[0, 1, 2, 3]))
}

fn icmp_mix(seed: u64) -> Mix {
    Mix::new(seed)
        .add(8, Background::new(seed ^ 1, &[0, 1, 2, 3]))
        .add(1, Adversarial::new(seed ^ 2, &[0, 1, 2, 3]))
}

fn switch_mix(seed: u64) -> Mix {
    // A 5 000-station sliding window: ~100k distinct MACs learned over
    // a million-frame run, silent stations aging out along the way.
    Mix::new(seed)
        .add(8, MacChurn::new(seed ^ 4, 5_000, 300))
        .add(6, Background::new(seed ^ 1, &[0, 1, 2, 3]))
        .add(3, TcpConversations::new(seed ^ 2, 32, &[0, 1, 2, 3]))
        .add(1, Adversarial::new(seed ^ 3, &[0, 1, 2, 3]))
}

/// DNS queries in the NAT mix arrive with `in_port` 0..4; NAT treats
/// port 0 as the external side, so re-pin every generated frame to an
/// internal port while preserving determinism.
fn pin_internal(mut f: Frame) -> Frame {
    if f.in_port == 0 {
        f.in_port = 1 + (f.len() % 3) as u8;
    }
    f
}

/// Drives `frames` frames of `mix` through `engine` in batches,
/// checking every batch. When `bounce` is set (NAT), every 8th batch's
/// translated outputs come back as inbound replies — so the reverse
/// path soaks too.
fn run(
    engine: &mut Engine,
    checker: &mut dyn Checker,
    mut mix: Mix,
    frames: u64,
    bounce: bool,
) -> (Verdict, u64) {
    let mut offered = 0u64;
    let mut tx = 0u64;
    let mut rejected = 0u64;
    let mut batch_idx = 0u64;
    while offered < frames {
        let n = BATCH.min((frames - offered) as usize);
        let mut batch: Vec<Frame> = (0..n).map(|_| mix.next_frame()).collect();
        if bounce {
            batch = batch.into_iter().map(pin_internal).collect();
        }
        let report = engine.process_batch(&batch);
        checker.check_batch(&batch, &report);
        offered += n as u64;
        tx += report.tx_count() as u64;
        rejected += report.outputs.iter().filter(|o| o.is_err()).count() as u64;
        if bounce && batch_idx.is_multiple_of(8) {
            let replies: Vec<Frame> = batch
                .iter()
                .zip(&report.outputs)
                .filter(|(f, _)| f.in_port != 0)
                .filter_map(|(_, r)| r.as_ref().ok())
                .flat_map(|o| &o.tx)
                .take(256)
                .map(|t| emu_traffic::build::reply_to(&t.frame, b"soak-reply"))
                .collect();
            if !replies.is_empty() {
                let reply_report = engine.process_batch(&replies);
                checker.check_batch(&replies, &reply_report);
                offered += replies.len() as u64;
                tx += reply_report.tx_count() as u64;
            }
        }
        batch_idx += 1;
    }
    (
        Verdict {
            frames: checker.frames(),
            tx,
            rejected,
            violations: checker.violations(),
        },
        offered,
    )
}

/// `--frames N` and `--backend compiled|treewalk`, nothing else: a
/// misspelt flag must not silently run the million-frame default.
fn parse_args(mut args: impl Iterator<Item = String>) -> Option<(u64, Backend)> {
    let mut frames: u64 = 1_000_000;
    let mut backend = Backend::Compiled;
    while let Some(flag) = args.next() {
        match (flag.as_str(), args.next()?.as_str()) {
            ("--frames", n) => frames = n.parse().ok()?,
            ("--backend", "compiled") => backend = Backend::Compiled,
            ("--backend", "treewalk") => backend = Backend::TreeWalk,
            _ => return None,
        }
    }
    Some((frames, backend))
}

fn main() {
    let Some((frames, backend)) = parse_args(std::env::args().skip(1)) else {
        eprintln!("usage: soak [--frames N] [--backend compiled|treewalk]");
        std::process::exit(2);
    };

    type ServiceCase = (
        &'static str,
        fn() -> emu_core::Service,
        fn(u64) -> Mix,
        fn(usize, Option<u64>) -> Box<dyn Checker>,
        Option<u64>, // table TTL (idle timeout in frames)
        bool,        // bounce replies
        bool,        // NatSteering dispatch
    );
    // Every stateful service runs at the scaled-up Cpu table size; the
    // checkers' shadow tables are built with the *same* geometry, so
    // expiry and eviction are predicted, not tolerated.
    let cases: Vec<ServiceCase> = vec![
        (
            "nat",
            || emu_services::nat(public()),
            nat_mix,
            |shards, ttl| {
                Box::new(NatChecker::new(public(), shards).with_table(TABLE_ENTRIES, ttl))
            },
            Some(TTL_FRAMES),
            true,
            true,
        ),
        (
            "memcached",
            emu_services::memcached,
            mc_mix,
            // The store keeps keys until DELETE (GET-after-SET must
            // always hit), so no TTL — the model needs no resizing.
            |_, _| Box::new(McModel::new()),
            None,
            false,
            false,
        ),
        (
            "dns",
            || emu_services::dns_server(bench_zone()),
            dns_mix,
            |_, _| Box::new(HostChecker::from(HostDns::new(bench_zone()))),
            None,
            false,
            false,
        ),
        (
            "icmp",
            emu_services::icmp_echo,
            icmp_mix,
            |_, _| Box::new(HostChecker::<HostIcmpEcho>::new()),
            None,
            false,
            false,
        ),
        (
            "switch",
            emu_services::switch_ip_cam,
            switch_mix,
            |shards, ttl| Box::new(SwitchModel::new(shards).with_table(TABLE_ENTRIES, ttl)),
            Some(TTL_FRAMES),
            false,
            false,
        ),
    ];

    eprintln!(
        "== soak: {frames} churn frames/service through {SHARDS}-shard {} engines \
         ({TABLE_ENTRIES}-entry tables), parallel vs sequential ==",
        backend.label()
    );
    eprintln!(
        "{:<10} {:>10} {:>9} {:>10} {:>9} {:>10} {:>11} {:>10} {:>8}",
        "service", "mode", "frames", "tx", "rejected", "violations", "wall (s)", "kfps", "us/f"
    );

    let mut failed = false;
    for (name, build, mix, checker, ttl, bounce, steer) in &cases {
        let svc = build();
        let mut verdicts: Vec<Verdict> = Vec::new();
        for (mode, parallel) in [("parallel", true), ("sequential", false)] {
            let mut b = svc
                .engine(Target::Cpu)
                .backend(backend)
                .shards(SHARDS)
                .parallel(parallel)
                .table_entries(TABLE_ENTRIES);
            if let Some(t) = ttl {
                b = b.ttl_frames(*t);
            }
            if *steer {
                b = b.dispatch(NatSteering);
            }
            let mut engine = b.build().expect("engine build");
            let mut chk = checker(SHARDS, *ttl);
            let t0 = Instant::now();
            let (verdict, offered) = run(&mut engine, chk.as_mut(), mix(SEED), frames, *bounce);
            let wall_s = t0.elapsed().as_secs_f64();
            assert!(offered >= frames, "{name}: offered {offered} < {frames}");
            eprintln!(
                "{:<10} {:>10} {:>9} {:>10} {:>9} {:>10} {:>11.2} {:>10.1} {:>8.2}",
                name,
                mode,
                verdict.frames,
                verdict.tx,
                verdict.rejected,
                verdict.violations,
                wall_s,
                verdict.frames as f64 / wall_s / 1e3,
                wall_s / verdict.frames as f64 * 1e6,
            );
            for note in chk.notes() {
                eprintln!("    violation: {note}");
            }
            if verdict.violations > 0 {
                failed = true;
            }
            verdicts.push(verdict);
        }
        if verdicts[0] != verdicts[1] {
            eprintln!(
                "{name}: sequential and parallel verdicts DIVERGED: {:?} vs {:?}",
                verdicts[1], verdicts[0]
            );
            failed = true;
        }
    }

    if failed {
        eprintln!("\nsoak FAILED: violations or verdict divergence (see above)");
        std::process::exit(1);
    }
    eprintln!("\nsoak passed: zero violations, sequential == parallel ✓");
}
