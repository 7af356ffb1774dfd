//! The five engine workloads: closed loop, one feeder thread, one
//! `process_batch` call in flight.
//!
//! A run is a sequence of *passes*. Every pass sets up from nothing —
//! generate the stream, build a fresh engine, warm it up — then times
//! a fixed number of replays of the stream; passes repeat until
//! `--seconds` is used up. A fresh engine per pass matters on this
//! kind of host: an engine's speed depends on where its state landed
//! in memory, so only a median over several engines describes the
//! code rather than one heap layout. An untimed verify pass through
//! the workload's reference model follows.
//!
//! A replay is timed in *stretches* of [`STRETCH_FRAMES`] frames with a
//! reading of the [`Yardstick`] between them, and every stretch's rate
//! is scaled by the host's speed next to it; `ops_per_s` is the median
//! over all stretches of the run.
//!
//! The traced run adds per-batch spans to every other pass and then
//! runs the ablation arms, each a substitution made through public
//! API (null programs, builder options, direct `CamTable` calls).

use crate::cam_probe;
use crate::spans::Tracer;
use crate::workloads::{station_stream, EngineWorkload, Stream, MIN_PAYLOAD, MTU_PAYLOAD};
use crate::yardstick::Yardstick;
use crate::{alloc, json_list, nullprog, stats, Outcome, RunCfg};
use emu_core::{Backend, Engine, Service, Target};
use emu_telemetry::{CamCounters, EngineSnapshot, Histogram, Json, ShardStats};
use emu_traffic::Checker;
use emu_types::Frame;
use netfpga_sim::timing::NS_PER_CYCLE;
use std::hint::black_box;
use std::time::Instant;

/// Passes a run makes at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Frames timed between two readings of the yardstick (whole batches):
/// 2 to 10 ms of work, long against the third of a millisecond a
/// reading costs and short against the host's changes of speed.
const STRETCH_FRAMES: usize = 4_096;
/// Frames the ablation arms replay (the head of the stream).
const ARM_FRAMES: usize = 16_384;
/// Frames of the two-size load/harvest probe.
const SIZE_PROBE_FRAMES: usize = 8_192;
const SIZE_PROBE_CAP: usize = 1536;
const TREEWALK_FRAMES: usize = 4_096;
const FPGA_FRAMES: usize = 2_048;

fn drive(e: &mut Engine, frames: &[Frame], batch: usize) {
    for chunk in frames.chunks(batch) {
        black_box(e.process_batch(chunk));
    }
}

/// How an arm hands the timed frames to its engine.
#[derive(Clone, Copy)]
enum Feed {
    /// `process_batch` over chunks of this many frames.
    Batches(usize),
    /// One `Engine::process` call per frame, as NetSim does.
    Scalar,
}

/// Host ns per frame over `frames`, on an engine that has first seen
/// `warmup` — table state, and enough traffic that its buffers and the
/// allocator are past their first-touch costs.
fn ns_per_frame(
    mut e: Engine,
    warmup: &[&[Frame]],
    batch: usize,
    frames: &[Frame],
    feed: Feed,
) -> f64 {
    for part in warmup {
        drive(&mut e, part, batch);
    }
    let t = Instant::now();
    match feed {
        Feed::Batches(n) => drive(&mut e, frames, n),
        Feed::Scalar => {
            for frame in frames {
                black_box(e.process(frame).expect("no frame of the stream fails"));
            }
        }
    }
    t.elapsed().as_nanos() as f64 / frames.len() as f64
}

struct Pass {
    gen_s: f64,
    build_s: f64,
    /// Generate + build + warm-up, in nominal seconds.
    setup_s: f64,
    /// Frames per nominal second, stretch by stretch.
    rates: Vec<f64>,
    /// Median of `rates`.
    ops_per_s: f64,
    /// Frames per second of host wall, over the whole pass.
    wall_ops_per_s: f64,
    snap: EngineSnapshot,
    /// Whether the pass recorded a span per batch.
    spans: bool,
    /// Host wall per `process_batch`, µs (passes with spans only).
    batch_us: Vec<f64>,
}

/// One full pass. Returns the stream too: the last one feeds the
/// verify pass and the arms, and dropping it *before* the next pass
/// generates its own keeps two streams from inflating peak RSS.
fn pass(
    w: &EngineWorkload,
    cfg: &RunCfg,
    tr: &mut Tracer,
    ys: &mut Yardstick,
    idx: usize,
    spans: bool,
) -> (Pass, Stream) {
    tr.scope(&format!("pass:{idx}"), |tr| {
        // Whatever ran since the last reading is not part of set-up.
        ys.speed();
        let (stream, gen_s) = tr.scope("generate", |_| (w.stream)(cfg.seed, w.frames / cfg.div));
        let (mut e, build_s) = tr.scope("build", |_| {
            let svc = (w.service)();
            w.builder(&svc, cfg.div)
                .parallel(w.parallel)
                .build()
                .expect("engine build")
        });
        let (_, warm_s) = tr.scope("warmup", |_| {
            drive(&mut e, &stream.warmup, w.batch);
            e.reset_telemetry();
        });
        let setup_s = (gen_s + build_s + warm_s) * ys.speed();
        let mut batch_us = Vec::new();
        let mut rates = Vec::new();
        let mut wall_s = 0.0;
        let stretch = (STRETCH_FRAMES / w.batch).max(1) * w.batch;
        tr.scope("replay", |tr| {
            for _ in 0..w.replays {
                for (i, part) in stream.frames.chunks(stretch).enumerate() {
                    let t = Instant::now();
                    if spans {
                        for (j, chunk) in part.chunks(w.batch).enumerate() {
                            let a = Instant::now();
                            black_box(e.process_batch(chunk));
                            let b = Instant::now();
                            tr.leaf(&format!("batch:{}", i * (stretch / w.batch) + j), a, b);
                            batch_us.push((b - a).as_nanos() as f64 / 1e3);
                        }
                    } else {
                        drive(&mut e, part, w.batch);
                    }
                    let s = t.elapsed().as_secs_f64();
                    wall_s += s;
                    rates.push(part.len() as f64 / (s * ys.speed()));
                }
            }
        });
        let (snap, _) = tr.scope("snapshot", |_| e.telemetry().expect("telemetry is on"));
        let ops = (w.replays * stream.frames.len()) as f64;
        let p = Pass {
            gen_s,
            build_s,
            setup_s,
            ops_per_s: stats::median(&rates),
            rates,
            wall_ops_per_s: ops / wall_s,
            snap,
            spans,
            batch_us,
        };
        (p, stream)
    })
    .0
}

fn medians(passes: &[Pass], of: impl Fn(&Pass) -> f64) -> (f64, Vec<f64>) {
    let xs: Vec<f64> = passes.iter().map(of).collect();
    (stats::median(&xs), xs)
}

pub fn run(w: &EngineWorkload, cfg: &RunCfg) -> Outcome {
    let mut tr = Tracer::new(w.name);
    let mut out = Outcome::default();

    let mut ys = Yardstick::new();
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut last_stream = None;
    let mut peak_rss_mb = 0.0;
    // The traced run spends half its time on passes, the rest on arms.
    let budget = cfg.seconds / if cfg.traced { 2.0 } else { 1.0 };
    while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < budget {
        drop(last_stream.take());
        let spans = cfg.traced && passes.len() % 2 == 1;
        let (p, s) = pass(w, cfg, &mut tr, &mut ys, passes.len(), spans);
        if passes.is_empty() {
            // What one pass needs; later passes only add however much
            // the allocator fragments, which depends on their number.
            peak_rss_mb = crate::peak_rss_mb();
        }
        passes.push(p);
        last_stream = Some(s);
    }
    let stream = last_stream.expect("at least one pass");
    out.passes = passes.len();

    // Determinism is part of correctness: every pass ran the same
    // frames, so every pass must report the same model-time telemetry.
    let total = passes[0].snap.total();
    let expect_frames = (w.replays * stream.frames.len()) as u64;
    for (i, p) in passes.iter().enumerate() {
        out.attempted += expect_frames;
        if p.snap != passes[0].snap {
            out.fail(1, format!("pass {i}: telemetry differs from pass 0"));
        }
    }
    let c = &total.counters;
    if c.drops() > 0 || c.frames != expect_frames {
        out.fail(
            c.drops().max(1) * passes.len() as u64,
            format!(
                "{} frames ok of {expect_frames}, {} dropped",
                c.frames,
                c.drops()
            ),
        );
    }
    // Every table of the engine, folded into one set of counters.
    let cams = total.cams.iter().fold(CamCounters::default(), |mut a, c| {
        a.merge(c);
        a
    });
    if w.table.is_some() && (cams.evictions == 0 || cams.expiries == 0) {
        out.fail(
            1,
            format!(
                "churn must evict and expire: {} evictions, {} expiries",
                cams.evictions, cams.expiries
            ),
        );
    }

    // Untimed verify pass: warm-up and stream through the reference model.
    tr.scope("verify", |_| {
        let svc = (w.service)();
        let mut e = w
            .builder(&svc, cfg.div)
            .parallel(w.parallel)
            .build()
            .expect("engine build");
        let mut checker: Box<dyn Checker> = (w.checker)(w, cfg.div);
        let batches = stream.warmup.chunks(w.batch);
        for chunk in batches.chain(stream.frames.chunks(w.batch)) {
            let report = e.process_batch(chunk);
            checker.check_batch(chunk, &report);
        }
        out.attempted += checker.frames();
        if checker.violations() > 0 {
            out.fail(
                checker.violations(),
                format!("{}: {:?}", checker.name(), checker.notes()),
            );
        }
    });

    let rates = medians(&passes, |p| p.ops_per_s).1;
    let stretches: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.rates.iter().copied())
        .collect();
    let ops_per_s = stats::median(&stretches);
    let (setup_s, setups) = medians(&passes, |p| p.setup_s);
    let wall_ops_per_s = medians(&passes, |p| p.wall_ops_per_s).0;
    let m = &mut out.metrics;
    m.set("ops_per_s", ops_per_s);
    m.set("setup_s", setup_s);
    m.set("peak_rss_mb", peak_rss_mb);

    let frames = c.frames as f64;
    let q = |q: f64| total.cycles.quantile(q).expect("frames were recorded") as f64 * NS_PER_CYCLE;
    m.set("model.p50_ns", q(0.50));
    m.set("model.p99_ns", q(0.99));
    m.set("model.cycles_per_op", c.busy_cycles as f64 / frames);
    out.info = vec![
        (
            "stream_digest",
            Json::from(format!("{:016x}", stream.digest())),
        ),
        ("passes", Json::from(passes.len())),
        ("stretches", Json::from(stretches.len())),
        ("host_speed", Json::from(ys.median_speed())),
        ("wall_ops_per_s", Json::from(wall_ops_per_s)),
        ("ops_per_pass", Json::from(expect_frames)),
        ("pass_ops_per_s", json_list(&rates)),
        ("pass_setup_s", json_list(&setups)),
        ("telemetry", total.to_json()),
    ];

    if cfg.traced {
        m.set("harness.wall_ops_per_s", wall_ops_per_s);
        m.set("harness.host_speed", ys.median_speed());
        m.set("harness.stretches", stretches.len() as f64);
        let offered = (stream.warmup.len() + stream.frames.len()) as f64;
        let gen_s = medians(&passes, |p| p.gen_s).0;
        m.set("traffic.gen_ns_per_frame", gen_s * 1e9 / offered);
        m.set("traffic.mean_frame_bytes", stream.mean_frame_bytes());
        m.set("core.build_s", medians(&passes, |p| p.build_s).0);
        m.set("rtl.cam_lookups_per_frame", cams.lookups as f64 / frames);
        m.set(
            "rtl.cam_hit_ratio",
            cams.hits as f64 / cams.lookups.max(1) as f64,
        );
        m.set("rtl.cam_writes_per_frame", cams.writes as f64 / frames);
        m.set(
            "rtl.cam_evictions_per_kframe",
            cams.evictions as f64 * 1e3 / frames,
        );
        m.set(
            "rtl.cam_expiries_per_kframe",
            cams.expiries as f64 * 1e3 / frames,
        );
        m.set("rtl.cam_occupancy", cams.occupancy as f64);

        let rate_of = |spans: bool| {
            let with: Vec<f64> = passes
                .iter()
                .filter(|p| p.spans == spans)
                .map(|p| p.ops_per_s)
                .collect();
            stats::median(&with)
        };
        m.set(
            "harness.trace_overhead_share",
            1.0 - rate_of(true) / rate_of(false),
        );
        m.set("harness.pass_spread_share", stats::spread_share(&rates));
        let batch_us: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.batch_us.iter().copied())
            .collect();
        m.set("harness.batch_wall_p50_us", stats::median(&batch_us));
        m.set(
            "harness.batch_wall_p99_us",
            stats::highest_supported(&batch_us).1,
        );
        m.set("harness.batch_wall_samples", batch_us.len() as f64);

        let real_ns = arms(w, cfg, &mut tr, &stream, &total, &cams, &mut out);
        // The terms come from the arms, the whole from the timed passes
        // (both in host wall time): if the two disagree the arms did not
        // measure the workload.
        let pass_ns = 1e9 / wall_ops_per_s;
        out.metrics
            .set("harness.attributed_share", real_ns / pass_ns);
    }

    out.tracer = Some(tr);
    out
}

/// One substitution: the same frames through an engine that differs
/// from the real one in exactly one respect.
struct Arm<'a> {
    name: &'static str,
    service: &'a Service,
    parallel: bool,
    telemetry: bool,
    /// Whether the service keeps state the warm-up has to build.
    stateful: bool,
    frames: &'a [Frame],
    feed: Feed,
}

/// The ablation arms. Arms are interleaved round by round so that a
/// drifting host disturbs all of them alike, and each reports its
/// median round. Returns the real service's ns per frame, the whole
/// the other arms are parts of.
fn arms(
    w: &EngineWorkload,
    cfg: &RunCfg,
    tr: &mut Tracer,
    stream: &Stream,
    total: &ShardStats,
    cams: &CamCounters,
    out: &mut Outcome,
) -> f64 {
    // Arms prime on one stretch of the stream and are timed on the
    // next, so a stateful service meets the timed frames for the first
    // time, as in a pass.
    let n = (ARM_FRAMES / cfg.div).min(stream.frames.len() / 2);
    let (prime, head) = (&stream.frames[..n], &stream.frames[n..2 * n]);
    let real = (w.service)();
    let engine = |svc: &Service, parallel: bool, telemetry: bool| {
        w.builder(svc, cfg.div)
            .parallel(parallel)
            .telemetry(telemetry)
            .build()
            .expect("engine build")
    };
    // The null programs declare the real service's frame buffer:
    // capacity is part of the load cost.
    let cap = engine(&real, false, true).frame_capacity();
    let null_drop = nullprog::null_drop(cap);
    let null_tx = nullprog::null_tx(cap);

    let arm = |name, service, feed| Arm {
        name,
        service,
        parallel: w.parallel,
        telemetry: true,
        stateful: true,
        frames: head,
        feed,
    };
    let whole = Feed::Batches(w.batch);
    let mut list = vec![
        arm("real", &real, whole),
        Arm {
            stateful: false,
            ..arm("null_drop", &null_drop, whole)
        },
        Arm {
            stateful: false,
            ..arm("null_tx", &null_tx, whole)
        },
        // One frame per call costs a thread spawn per frame on a
        // parallel engine: an eighth of the frames says as much.
        Arm {
            frames: &head[..n / 8],
            ..arm("batch1", &real, Feed::Batches(1))
        },
        arm("scalar", &real, Feed::Scalar),
        Arm {
            telemetry: false,
            ..arm("telemetry_off", &real, whole)
        },
    ];
    if w.parallel {
        list.push(Arm {
            parallel: false,
            ..arm("par_off", &real, whole)
        });
    }
    // A long warm-up (the churn workload's half-million stations) is
    // paid by every stateful arm of every round, so it gets one round.
    let rounds = if stream.warmup.len() > 4_096 { 1 } else { 9 };
    let mut samples = vec![Vec::new(); list.len()];
    for _ in 0..rounds {
        for (a, ns) in list.iter().zip(&mut samples) {
            let warm: &[&[Frame]] = if a.stateful {
                &[&stream.warmup, prime]
            } else {
                &[prime]
            };
            let e = engine(a.service, a.parallel, a.telemetry);
            ns.push(
                tr.scope(a.name, |_| ns_per_frame(e, warm, w.batch, a.frames, a.feed))
                    .0,
            );
        }
    }
    let ns = |name: &str| {
        let i = list.iter().position(|a| a.name == name).expect("arm ran");
        stats::median(&samples[i])
    };

    let m = &mut out.metrics;
    let (real_ns, drop_ns, tx_ns) = (ns("real"), ns("null_drop"), ns("null_tx"));
    m.set("core.null_drop_ns_per_frame", drop_ns);
    m.set("core.null_tx_ns_per_frame", tx_ns);
    m.set("core.per_call_overhead_ns", ns("batch1") - real_ns);
    m.set("core.scalar_ns_per_frame", ns("scalar"));
    m.set(
        "telemetry.overhead_share",
        real_ns / ns("telemetry_off") - 1.0,
    );
    let harvest_ns = tx_ns - drop_ns;
    m.set("netfpga.harvest_ns_per_frame", harvest_ns);

    if w.parallel {
        let seq_ns = ns("par_off");
        m.set("core.par2_speedup", seq_ns / real_ns);
        // Excess of a parallel batch over a perfect split of the
        // sequential one: spawn/join plus shard skew.
        let per_batch_us = |ns: f64| ns * w.batch as f64 / 1e3;
        m.set(
            "core.par_batch_overhead_us",
            per_batch_us(real_ns) - per_batch_us(seq_ns) / w.shards as f64,
        );
        let dispatch_s = tr
            .scope("dispatch", |_| {
                let e = engine(&real, false, true);
                for f in head {
                    black_box(e.shard_of(f));
                }
            })
            .1;
        m.set("core.dispatch_ns_per_frame", dispatch_s * 1e9 / n as f64);
        // Sequential and parallel execution must agree on everything
        // the engine reports.
        let snapshot = |parallel: bool| {
            let mut e = engine(&real, parallel, true);
            drive(&mut e, head, w.batch);
            e.telemetry().expect("telemetry is on")
        };
        out.check(
            snapshot(false) == snapshot(true),
            "sequential and parallel snapshots differ",
        );
    }
    let m = &mut out.metrics;

    // Exact allocation counts over one more replay of the head.
    tr.scope("alloc_count", |_| {
        let mut e = engine(&real, w.parallel, true);
        drive(&mut e, &stream.warmup, w.batch);
        drive(&mut e, prime, w.batch);
        let ((), allocs, bytes) = alloc::counted(|| drive(&mut e, head, w.batch));
        m.set("core.allocs_per_frame", allocs as f64 / n as f64);
        m.set("core.alloc_bytes_per_frame", bytes as f64 / n as f64);
        let t = Instant::now();
        black_box(e.telemetry());
        m.set(
            "core.telemetry_snapshot_us",
            t.elapsed().as_nanos() as f64 / 1e3,
        );
    });

    // Load and harvest cost per frame byte: the null programs over the
    // same station pairs at the smallest and the largest frame size,
    // with a buffer that holds either.
    tr.scope("size_probe", |_| {
        let n = SIZE_PROBE_FRAMES / cfg.div;
        let per_byte = |svc: &Service| {
            let cost = |payload: usize| {
                let s = station_stream(cfg.seed, n, payload);
                let e = svc.engine(Target::Cpu).build().expect("engine build");
                let (prime, timed) = s.frames.split_at(n / 2);
                (
                    ns_per_frame(e, &[prime], 256, timed, Feed::Batches(256)),
                    s.mean_frame_bytes(),
                )
            };
            let ((small_ns, small_b), (large_ns, large_b)) = (cost(MIN_PAYLOAD), cost(MTU_PAYLOAD));
            (large_ns - small_ns) / (large_b - small_b)
        };
        let load = per_byte(&nullprog::null_drop(SIZE_PROBE_CAP));
        m.set("netfpga.load_ns_per_byte", load);
        m.set(
            "netfpga.harvest_ns_per_byte",
            per_byte(&nullprog::null_tx(SIZE_PROBE_CAP)) - load,
        );
    });

    let (costs, _) = tr.scope("cam_direct", |_| cam_probe::probe(&w.cam, cfg.div, stream));
    m.set("rtl.cam_hit_ns", costs.hit_ns);
    m.set("rtl.cam_miss_ns", costs.miss_ns);
    m.set("rtl.cam_refresh_ns", costs.refresh_ns);
    m.set("rtl.cam_insert_ns", costs.insert_ns);
    m.set("rtl.cam_evict_ns", costs.evict_ns);
    // Per-frame counts of the timed passes, priced by the direct probe.
    let frames = total.counters.frames as f64;
    let env_ns = (cams.hits as f64 * costs.hit_ns
        + (cams.lookups - cams.hits) as f64 * costs.miss_ns
        + (cams.writes - cams.evictions) as f64 * costs.insert_ns
        + cams.evictions as f64 * costs.evict_ns)
        / frames;
    m.set("rtl.env_ns_per_frame", env_ns);

    // What is left of the real service once load, report, harvest and
    // the tables are taken out is micro-op execution.
    let tx_per_frame = total.counters.tx_frames as f64 / frames;
    let exec_ns = real_ns - drop_ns - harvest_ns * tx_per_frame - env_ns;
    m.set("kiwi-ir.exec_ns_per_frame", exec_ns);
    let cycles_per_op = m.get("model.cycles_per_op").expect("measured");
    m.set("kiwi-ir.exec_ns_per_model_cycle", exec_ns / cycles_per_op);
    tr.scope("compile", |_| {
        let t = Instant::now();
        let flat = kiwi_ir::flatten(&real.program).expect("service flattens");
        let cp = kiwi_ir::compile_with_passes(&flat, kiwi_ir::default_pipeline())
            .expect("service compiles");
        m.set(
            "kiwi-ir.flatten_compile_ms",
            t.elapsed().as_nanos() as f64 / 1e6,
        );
        let mops: usize = cp.threads.iter().map(|t| t.mops.len()).sum();
        m.set("kiwi-ir.mops_total", mops as f64);
    });

    // The RTL machine is the golden reference; its tables are
    // BRAM-bounded, so it runs at the service's default geometry.
    tr.scope("fpga_prefix", |_| {
        let prefix = &head[..n.min(FPGA_FRAMES / cfg.div)];
        let mut b = real.engine(Target::Fpga).shards(w.shards);
        if w.nat_steering {
            b = b.dispatch(emu_core::NatSteering::default());
        }
        let e = b.build().expect("fpga engine build");
        m.set(
            "rtl.fpga_ns_per_frame",
            ns_per_frame(e, &[], w.batch, prefix, whole),
        );
    });

    tr.scope("hist_record", |_| {
        let mut h = Histogram::new();
        let n = 1 << 20;
        let t = Instant::now();
        for i in 0..n {
            h.record(black_box(4 + (i & 63)));
        }
        black_box(&h);
        m.set(
            "telemetry.hist_record_ns",
            t.elapsed().as_nanos() as f64 / n as f64,
        );
    });

    // The tree-walker is the spec: time it, and hold the compiled
    // backend to byte-identical reports, on cold engines.
    let (same, _) = tr.scope("treewalk_prefix", |_| {
        let prefix = &head[..n.min(TREEWALK_FRAMES / cfg.div)];
        let reports = |backend: Backend| {
            let mut e = w
                .builder(&real, cfg.div)
                .backend(backend)
                .build()
                .expect("engine build");
            let t = Instant::now();
            let r: Vec<_> = prefix.chunks(w.batch).map(|c| e.process_batch(c)).collect();
            (t.elapsed().as_nanos() as f64 / prefix.len() as f64, r)
        };
        let (ns, spec) = reports(Backend::TreeWalk);
        let (_, compiled) = reports(Backend::Compiled);
        m.set("kiwi-ir.treewalk_ns_per_frame", ns);
        spec.iter()
            .zip(&compiled)
            .all(|(a, b)| a.outputs == b.outputs && a.shard_cycles == b.shard_cycles)
    });
    out.check(same, "compiled and tree-walk reports differ");
    real_ns
}
