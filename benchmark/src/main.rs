//! `emubench` — the one benchmark of the Emu reproduction: six
//! workloads, three end-to-end metrics measured with tracing off, and
//! a separate traced run that attributes host time to layers (crates)
//! from outside. See `benchmark/README.md` for every definition.
//!
//! ```text
//! emubench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! emubench --all      [--seed N] [--seconds S] [--smoke]
//! emubench --selftest [--seed N] [--seconds S] [--smoke]
//! ```
//!
//! A `--workload` run prints its numbers by name to stderr and, as the
//! last line of stdout, one JSON object `{correct, attempted, failed,
//! metrics}`. `--all` re-executes this binary once per workload and
//! trace mode, one child at a time, so peak memory and allocation
//! counts are per workload.

mod alloc;
mod cam_probe;
mod engine_run;
mod fabric;
mod names;
mod nullprog;
mod spans;
mod stats;
mod suite;
mod workloads;
mod yardstick;

use emu_telemetry::Json;
use names::Metrics;
use spans::Tracer;
use workloads::Workload;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Where runs leave their detail files (spans, per-pass samples).
const OUT_DIR: &str = "benchmark/out";

pub struct RunCfg {
    pub seed: u64,
    /// Wall time the timed passes may use.
    pub seconds: f64,
    pub traced: bool,
    /// Size divisor: 1, or `SMOKE_DIV` under `--smoke`.
    pub div: usize,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// Timed passes made: the sample count behind every median.
    pub passes: usize,
    pub metrics: Metrics,
    pub info: Vec<(&'static str, Json)>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Counts `n` failed operations and keeps the reason.
    pub fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        self.notes.push(why);
    }

    /// One more attempted check; a failed one if `ok` is false.
    pub fn check(&mut self, ok: bool, why: &str) {
        self.attempted += 1;
        if !ok {
            self.fail(1, why.to_string());
        }
    }
}

pub fn json_list(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::from(x)).collect())
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

pub struct Args {
    pub mode: Mode,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
}

pub enum Mode {
    Workload(String),
    All,
    Selftest,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::All,
        seed: workloads::DEFAULT_SEED,
        seconds: 20.0,
        traced: false,
        smoke: false,
    };
    let mut mode = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => mode = Some(Mode::Workload(value()?.clone())),
            "--all" => mode = Some(Mode::All),
            "--selftest" => mode = Some(Mode::Selftest),
            "--smoke" => args.smoke = true,
            "--seed" => {
                let v = value()?;
                let parsed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                args.seed = parsed.map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(format!("--seconds {v}: must be in (0, 60]"));
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.mode = mode.ok_or("one of --workload NAME, --all, --selftest is required")?;
    if args.smoke {
        // Same code path, a sixteenth of the work: not comparable.
        args.seconds = args.seconds.min(0.25);
    }
    Ok(args)
}

/// Runs one workload in this process; returns the exit code.
fn run_workload(name: &str, args: &Args) -> i32 {
    let Some(w) = workloads::lookup(name) else {
        eprintln!(
            "emubench: unknown workload `{name}`; known: {:?}",
            workloads::NAMES
        );
        return 2;
    };
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        div: if args.smoke { workloads::SMOKE_DIV } else { 1 },
    };
    let mut out = match &w {
        Workload::Engine(w) => engine_run::run(w, &cfg),
        Workload::Fabric(w) => fabric::run(w, &cfg),
    };
    if cfg.traced {
        // Host wall time, as the arms it is compared with.
        let ops = out.metrics.get("harness.wall_ops_per_s").expect("measured");
        out.metrics.set("harness.passes", out.passes as f64);
        out.metrics.set("harness.ns_per_op", 1e9 / ops);
        let failed_share = out.failed as f64 / out.attempted as f64;
        out.metrics.set("harness.failed_share", failed_share);
    }

    let result = Json::obj(vec![
        ("correct", Json::from(out.failed == 0)),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(out.failed)),
        ("metrics", out.metrics.result(cfg.traced)),
    ]);

    let smoke = if args.smoke {
        " [smoke: not comparable]"
    } else {
        ""
    };
    eprintln!(
        "== {name} seed {:#x} trace {} {}s{smoke}",
        cfg.seed,
        u8::from(cfg.traced),
        cfg.seconds
    );
    for (k, v) in &out.info {
        if matches!(v, Json::Str(_) | Json::Num(_)) {
            eprintln!("  {k:<34} {v}");
        }
    }
    for (k, v) in result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("object")
    {
        let value = v.get("value").and_then(Json::as_f64).expect("number");
        let unit = v.get("unit").and_then(Json::as_str).expect("unit");
        eprintln!("  {k:<34} {value:>16.4} {unit}");
    }
    eprintln!("  {:<34} {} of {}", "failed", out.failed, out.attempted);
    for n in &out.notes {
        eprintln!("  FAILED: {n}");
    }

    let mut detail = vec![
        ("workload", Json::from(name)),
        ("seed", Json::from(cfg.seed)),
        ("seconds", Json::from(cfg.seconds)),
        ("trace", Json::from(cfg.traced)),
        ("smoke", Json::from(args.smoke)),
        ("host", emu_telemetry::report::host_info()),
        ("result", result.clone()),
    ];
    detail.extend(out.info.iter().map(|(k, v)| (*k, v.clone())));
    if let (true, Some(tr)) = (cfg.traced, &out.tracer) {
        detail.push(("trace_spans", tr.to_json()));
    }
    let path = format!("{OUT_DIR}/{name}.trace{}.json", u8::from(cfg.traced));
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, Json::obj(detail).pretty()));
    match written {
        Ok(()) => eprintln!("  detail: {path}"),
        Err(e) => eprintln!("  detail not written to {path}: {e}"),
    }

    println!("{result}");
    i32::from(out.failed > 0)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("emubench: {e}");
            std::process::exit(2);
        }
    };
    let code = match &args.mode {
        Mode::Workload(name) => run_workload(name, &args),
        Mode::All => suite::all(&args),
        Mode::Selftest => suite::selftest(&args),
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse_args(&argv("--workload par2-nat --seed 7 --seconds 10 --trace 1")).unwrap();
        assert!(matches!(a.mode, Mode::Workload(ref w) if w == "par2-nat"));
        assert_eq!((a.seed, a.seconds, a.traced), (7, 10.0, true));
        assert_eq!(parse_args(&argv("--all --seed 0x10")).unwrap().seed, 16);
    }

    #[test]
    fn bad_arguments_are_errors() {
        for bad in [
            "",
            "--workload",
            "--all --trace 2",
            "--all --seconds 0",
            "--all --frames 9",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn an_unknown_workload_is_an_error_not_a_skip() {
        let args = parse_args(&argv("--workload nope")).unwrap();
        assert_eq!(run_workload("nope", &args), 2);
    }
}
