//! `fabric-closed-loop`: the path users of the Mininet-analogue run —
//! `NetSim`'s event heap and timers, the `emu-hosts` agents, and the
//! scalar `Engine::process` behind every service node. Nine window-1
//! clients (TCP handshake, memcached, DNS) drive ten engines over a
//! clean fat-tree; one operation is one verified request.
//!
//! A pass builds the topology from nothing (`fat_tree`), runs it to
//! quiescence (`run_until`) and harvests every client through
//! `ClientCheck`, so every pass is also a correctness check.
//!
//! The simulation is run in *stretches* of [`STRETCH_SIM_NS`] of
//! simulated time with a reading of the [`Yardstick`] between them. A
//! stretch's rate is its events per nominal second times the pass's
//! requests per event (exact); `ops_per_s` is the median over all
//! stretches of the run.

use crate::spans::Tracer;
use crate::workloads::{station_stream, FabricWorkload, MIN_PAYLOAD};
use crate::yardstick::Yardstick;
use crate::{json_list, stats, Outcome, RunCfg};
use emu_core::Target;
use emu_hosts::{fat_tree, ClientConfig, TopoSpec};
use emu_telemetry::{Counters, Json};
use emu_traffic::ClientCheck;
use netsim::NetSim;
use std::hint::black_box;
use std::time::Instant;

const MIN_PASSES: usize = 3;
/// Simulated time between two readings of the yardstick: about 10 ms
/// of host time, an eightieth of a pass.
const STRETCH_SIM_NS: f64 = 500_000.0;
/// Frames of the scalar-engine and bare-link arms.
const ARM_FRAMES: usize = 65_536;

struct Pass {
    /// `fat_tree`, in host wall seconds and in nominal seconds.
    build_s: f64,
    setup_s: f64,
    /// Verified requests per nominal second, stretch by stretch.
    rates: Vec<f64>,
    /// Median of `rates`.
    ops_per_s: f64,
    /// Host wall seconds inside `run_until`.
    run_s: f64,
    events: u64,
    issued: u64,
    completed: u64,
    retransmits: u64,
    timeouts: u64,
    violations: u64,
    notes: Vec<String>,
    rtt_p50_ns: f64,
    rtt_p99_ns: f64,
    /// Counters of all ten engines, merged.
    engines: Counters,
}

fn pass(w: &FabricWorkload, cfg: &RunCfg, tr: &mut Tracer, ys: &mut Yardstick, idx: usize) -> Pass {
    let spec = TopoSpec {
        seed: cfg.seed,
        impair: None,
        client: ClientConfig {
            requests: w.requests_per_client / cfg.div as u64,
            retries: w.retries,
            ..ClientConfig::default()
        },
        ..TopoSpec::default()
    };
    let (p, _) = tr.scope(&format!("pass:{idx}"), |tr| {
        // Whatever ran since the last reading is not part of set-up.
        ys.speed();
        let (mut topo, build_s) = tr.scope("fat_tree", |_| fat_tree(spec).expect("engines build"));
        let setup_s = build_s * ys.speed();
        topo.start();
        // Events and nominal seconds of every stretch.
        let mut stretches = Vec::new();
        let (mut events, mut run_s) = (0, 0.0);
        tr.scope("run_until", |_| {
            let mut until_ns = 0.0;
            loop {
                until_ns += STRETCH_SIM_NS;
                let t = Instant::now();
                let n = topo.net.run_until(until_ns).expect("clean fabric runs");
                let s = t.elapsed().as_secs_f64();
                if n == 0 {
                    break;
                }
                events += n;
                run_s += s;
                stretches.push((n as f64, s * ys.speed()));
            }
            // Stale timers that lie further out than one empty stretch.
            let t = Instant::now();
            events += topo.run().expect("runs to quiescence");
            run_s += t.elapsed().as_secs_f64();
        });
        let ((sum, check), _) = tr.scope("harvest", |_| {
            let mut check = ClientCheck::new(w.retries).rtt_floor_ns(topo.rtt_floor_ns());
            (topo.harvest(&mut check), check)
        });
        let mut engines = Counters::default();
        let nodes = topo
            .switches
            .iter()
            .chain(topo.services.iter().map(|(n, _)| n));
        for &node in nodes.collect::<Vec<_>>() {
            let snap = topo
                .net
                .engine_mut(node)
                .and_then(|e| e.telemetry())
                .expect("service nodes carry telemetry");
            engines.merge(&snap.total().counters);
        }
        let q = |q: f64| sum.rtt.quantile(q).unwrap_or(0) as f64;
        let per_event = sum.completed as f64 / events as f64;
        let rates: Vec<f64> = stretches
            .iter()
            .map(|(n, nominal_s)| n * per_event / nominal_s)
            .collect();
        Pass {
            build_s,
            setup_s,
            ops_per_s: stats::median(&rates),
            rates,
            run_s,
            events,
            issued: sum.issued,
            completed: sum.completed,
            retransmits: sum.retransmits,
            timeouts: sum.timeouts,
            violations: check.violations(),
            notes: check.notes().to_vec(),
            rtt_p50_ns: q(0.50),
            rtt_p99_ns: q(0.99),
            engines,
        }
    });
    p
}

pub fn run(w: &FabricWorkload, cfg: &RunCfg) -> Outcome {
    let mut tr = Tracer::new(w.name);
    let mut out = Outcome::default();

    let mut ys = Yardstick::new();
    let started = Instant::now();
    // The traced run leaves half its time to the arms.
    let budget = cfg.seconds / if cfg.traced { 2.0 } else { 1.0 };
    let mut passes = Vec::new();
    let mut peak_rss_mb = 0.0;
    while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < budget {
        passes.push(pass(w, cfg, &mut tr, &mut ys, passes.len()));
        if passes.len() == 1 {
            peak_rss_mb = crate::peak_rss_mb();
        }
    }

    let first = &passes[0];
    for (i, p) in passes.iter().enumerate() {
        out.attempted += p.issued;
        let bad = p.violations + p.timeouts + (p.issued - p.completed - p.timeouts);
        if bad > 0 {
            out.fail(
                bad,
                format!(
                    "pass {i}: {} violations, {} timeouts of {} requests: {:?}",
                    p.violations, p.timeouts, p.issued, p.notes
                ),
            );
        }
        // The simulation is deterministic per seed.
        if (p.events, p.completed, p.engines.busy_cycles)
            != (first.events, first.completed, first.engines.busy_cycles)
        {
            out.fail(1, format!("pass {i}: simulation differs from pass 0"));
        }
    }
    out.passes = passes.len();
    let m = &mut out.metrics;

    let rates: Vec<f64> = passes.iter().map(|p| p.ops_per_s).collect();
    let setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let stretches: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.rates.iter().copied())
        .collect();
    m.set("ops_per_s", stats::median(&stretches));
    m.set("setup_s", stats::median(&setups));
    let walls: Vec<f64> = passes
        .iter()
        .map(|p| p.completed as f64 / p.run_s)
        .collect();
    let wall_ops_per_s = stats::median(&walls);
    m.set("peak_rss_mb", peak_rss_mb);
    m.set("model.p50_ns", first.rtt_p50_ns);
    m.set("model.p99_ns", first.rtt_p99_ns);
    let requests = first.completed as f64;
    m.set(
        "model.cycles_per_op",
        first.engines.busy_cycles as f64 / requests,
    );
    out.info = vec![
        (
            "stream_digest",
            Json::from("clients generate in-simulation from the seed"),
        ),
        ("passes", Json::from(passes.len())),
        ("stretches", Json::from(stretches.len())),
        ("host_speed", Json::from(ys.median_speed())),
        ("wall_ops_per_s", Json::from(wall_ops_per_s)),
        ("ops_per_pass", Json::from(first.completed)),
        ("pass_ops_per_s", json_list(&rates)),
        ("pass_setup_s", json_list(&setups)),
        ("telemetry", first.engines.to_json()),
    ];

    if cfg.traced {
        m.set("harness.wall_ops_per_s", wall_ops_per_s);
        m.set("harness.host_speed", ys.median_speed());
        m.set("harness.stretches", stretches.len() as f64);
        let builds: Vec<f64> = passes.iter().map(|p| p.build_s).collect();
        m.set("hosts.build_s", stats::median(&builds));
        m.set(
            "hosts.retx_per_request",
            first.retransmits as f64 / first.issued as f64,
        );
        m.set("hosts.timeouts", first.timeouts as f64);
        m.set("netsim.events_per_request", first.events as f64 / requests);
        let event_rates: Vec<f64> = passes.iter().map(|p| p.events as f64 / p.run_s).collect();
        m.set("netsim.events_per_s", stats::median(&event_rates));
        m.set(
            "traffic.mean_frame_bytes",
            first.engines.rx_bytes as f64 / first.engines.frames as f64,
        );
        m.set("harness.pass_spread_share", stats::spread_share(&rates));

        let n = ARM_FRAMES / cfg.div;
        let frames = station_stream(cfg.seed, n, MIN_PAYLOAD).frames;
        // A switch node as `fat_tree` builds it, driven the way NetSim
        // drives it: one scalar `process` call per delivered frame.
        let (scalar_ns, _) = tr.scope("scalar", |_| {
            let spec = TopoSpec::default();
            let mut e = emu_services::switch_ip_cam()
                .engine(Target::Cpu)
                .shards(spec.shards)
                .parallel(spec.parallel)
                .build()
                .expect("engine build");
            let t = Instant::now();
            for f in &frames {
                black_box(e.process(f).expect("no frame of the stream fails"));
            }
            t.elapsed().as_nanos() as f64 / n as f64
        });
        m.set("core.scalar_ns_per_frame", scalar_ns);
        // Engines answered `frames` deliveries in `run_s`: a lower
        // bound on their share, since service leaves cost more per
        // frame than the switch the arm times.
        let run_s: Vec<f64> = passes.iter().map(|p| p.run_s).collect();
        m.set(
            "hosts.engine_share",
            first.engines.frames as f64 * scalar_ns / (stats::median(&run_s) * 1e9),
        );
        // Two hosts and one link: the event loop with no service in it.
        let (forward_ns, _) = tr.scope("forward", |_| {
            let mut net = NetSim::new();
            let (a, b) = (net.add_host("a", 1), net.add_host("b", 1));
            net.link(a, 0, b, 0, 1_000.0, 10.0);
            for (i, f) in frames.into_iter().enumerate() {
                net.send(a, 0, f, i as f64 * 100.0);
            }
            let t = Instant::now();
            let events = net.run_until(f64::MAX).expect("hosts cannot trap");
            let ns = t.elapsed().as_nanos() as f64 / events as f64;
            assert_eq!(net.inbox(b).len(), n, "every frame crosses the link");
            ns
        });
        m.set("netsim.forward_ns_per_event", forward_ns);
    }

    out.tracer = Some(tr);
    out
}
