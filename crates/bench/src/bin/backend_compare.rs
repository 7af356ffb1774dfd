//! CPU backend comparison: per-frame processing time for every Table 4
//! service on the tree-walking reference interpreter and on the compiled
//! micro-op backend, as a `{service, backend, us_per_frame}` row matrix
//! in the shared bench-report schema.
//!
//! This is the speed leg of the compiled-backend story (the equivalence
//! leg is `tests/backend_equiv.rs` and the differential proptests): the
//! backends are byte-identical in every observable — this harness
//! re-checks outputs while timing — so the only difference left to
//! report is throughput. Both columns go through
//! `Engine::process_batch`:
//!
//! * `treewalk` — the recursive reference interpreter,
//! * `compiled` — the micro-op backend with the default (cross-statement)
//!   pass pipeline, the production default.
//!
//! The harness **exits non-zero** unless compiled beats tree-walk on
//! every service and at least 2× on at least three of them.
//!
//! Run: `cargo run --release -p emu-bench --bin backend_compare
//! [-- --frames N]` (default 3000 frames per service per backend).

use emu_bench::table4_services;
use emu_core::{Backend, Target};
use emu_telemetry::{BenchReport, Json};
use emu_types::Frame;
use std::time::Instant;

const BATCH: usize = 256;

/// One service's µs/frame on each backend.
struct Row {
    service: &'static str,
    compiled_us: f64,
    treewalk_us: f64,
}

impl Row {
    /// Compiled speedup over the tree-walker (the gate).
    fn speedup(&self) -> f64 {
        self.treewalk_us / self.compiled_us
    }
}

/// Timed repetitions per backend; the fastest one is reported, which
/// hedges scheduler and frequency-scaling noise (every repetition
/// executes the full workload, so a minimum is still a real run).
const REPS: usize = 3;

/// Times `frames` through a fresh engine on `backend`, returning
/// (best-of-[`REPS`] µs/frame, per-frame tx counts as an output
/// fingerprint).
fn run(build: fn() -> emu_core::Service, frames: &[Frame], backend: Backend) -> (f64, Vec<usize>) {
    let svc = build();
    let mut engine = svc
        .engine(Target::Cpu)
        .backend(backend)
        .passes(kiwi_ir::default_pipeline())
        .build()
        .expect("engine build");
    // Warm-up: populate caches/stores so both backends time steady state.
    let warm = frames.len().min(BATCH);
    engine.process_batch(&frames[..warm]);

    let mut fingerprint = Vec::with_capacity(frames.len());
    let mut best = f64::INFINITY;
    for rep in 0..REPS {
        let t0 = Instant::now();
        for chunk in frames.chunks(BATCH) {
            let report = engine.process_batch(chunk);
            if rep == 0 {
                for out in &report.outputs {
                    fingerprint.push(out.as_ref().map(|o| o.tx.len()).unwrap_or(usize::MAX));
                }
            }
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best / frames.len() as f64 * 1e6, fingerprint)
}

fn main() {
    let mut frames_n: usize = 3_000;
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--frames") {
        frames_n = args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .expect("--frames N");
    }

    eprintln!("== backend_compare: {frames_n} frames/service, compiled vs tree-walk ==");
    eprintln!(
        "{:<12} {:>16} {:>16} {:>9}",
        "service", "compiled (us/f)", "treewalk (us/f)", "speedup"
    );

    let mut rows = Vec::new();
    let mut failed = false;
    for svc in table4_services() {
        let frames: Vec<Frame> = (0..frames_n as u64).map(svc.request).collect();
        let (compiled_us, compiled_fp) = run(svc.build, &frames, Backend::Compiled);
        let (treewalk_us, treewalk_fp) = run(svc.build, &frames, Backend::TreeWalk);
        assert_eq!(
            compiled_fp, treewalk_fp,
            "{}: backend outputs diverged while timing",
            svc.name
        );
        let row = Row {
            service: svc.name,
            compiled_us,
            treewalk_us,
        };
        eprintln!(
            "{:<12} {:>16.3} {:>16.3} {:>8.2}x",
            row.service,
            compiled_us,
            treewalk_us,
            row.speedup()
        );
        if compiled_us >= treewalk_us {
            eprintln!("    FAIL: compiled must beat tree-walk on {}", svc.name);
            failed = true;
        }
        rows.push(row);
    }

    let twox = rows.iter().filter(|r| r.speedup() >= 2.0).count();
    if twox < 3 {
        eprintln!("FAIL: only {twox} services reach 2x compiled-over-treewalk (need >= 3)");
        failed = true;
    }

    let mut report =
        BenchReport::new("backend_compare").param("frames_per_service", frames_n as u64);
    for r in &rows {
        for (backend, us) in [
            (Backend::Compiled, r.compiled_us),
            (Backend::TreeWalk, r.treewalk_us),
        ] {
            report.push_row(Json::obj(vec![
                ("service", Json::from(r.service)),
                ("backend", Json::from(backend.label())),
                ("us_per_frame", Json::from(us)),
                ("speedup", Json::from(r.speedup())),
            ]));
        }
    }
    println!("{}", report.render());

    if failed {
        eprintln!("\nbackend_compare FAILED (see above)");
        std::process::exit(1);
    }
    eprintln!("\nbackend_compare passed: compiled > treewalk everywhere, {twox}/5 at >= 2x");
}
