//! `--all` and `--selftest`: the whole benchmark in one command.
//!
//! Each workload runs in a child process of its own — this binary
//! re-executed with `--workload`, first with tracing off, then traced —
//! one child at a time, so peak memory and allocation counts belong to
//! one workload and no two runs compete for the two cores.

use crate::names::{END_TO_END, PER_LAYER};
use crate::workloads::{HELD_OUT_SEED, NAMES};
use crate::{Args, OUT_DIR};
use emu_telemetry::Json;
use std::process::{Command, Stdio};

/// Both result lines of one workload, plus what the detail file adds.
struct Row {
    workload: &'static str,
    untraced: Json,
    traced: Json,
    stream_digest: String,
}

impl Row {
    fn value(result: &Json, name: &str) -> f64 {
        result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("result line lacks `{name}`"))
    }

    fn e2e(&self, name: &str) -> f64 {
        Self::value(&self.untraced, name)
    }

    fn layer(&self, name: &str) -> f64 {
        Self::value(&self.traced, name)
    }

    fn failed(&self) -> u64 {
        [&self.untraced, &self.traced]
            .iter()
            .map(|r| {
                r.get("failed")
                    .and_then(Json::as_u64)
                    .expect("failed count")
            })
            .sum()
    }

    fn is_engine(&self) -> bool {
        self.workload != "fabric-closed-loop"
    }
}

/// Runs one workload in a child; its last stdout line is the result.
fn child(args: &Args, workload: &str, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{workload}: no result line (exit {})", out.status))?;
    Json::parse(line).map_err(|e| format!("{workload}: result line: {e}"))
}

fn collect(args: &Args) -> Result<Vec<Row>, String> {
    NAMES
        .iter()
        .map(|&workload| {
            let untraced = child(args, workload, false)?;
            let traced = child(args, workload, true)?;
            let detail = std::fs::read_to_string(format!("{OUT_DIR}/{workload}.trace0.json"))
                .map_err(|e| format!("{workload}: detail file: {e}"))?;
            let stream_digest = Json::parse(&detail)?
                .get("stream_digest")
                .and_then(Json::as_str)
                .ok_or("detail file lacks stream_digest")?
                .to_string();
            Ok(Row {
                workload,
                untraced,
                traced,
                stream_digest,
            })
        })
        .collect()
}

fn print_tables(rows: &[Row]) {
    println!("### End to end (tracing off)\n");
    print!("| workload |");
    for m in &END_TO_END {
        print!(" {} [{}, {} is better] |", m.name, m.unit, m.better);
    }
    println!(" failed | stream_digest |");
    println!("|---|{}---|---|", "---|".repeat(END_TO_END.len()));
    for r in rows {
        print!("| {} |", r.workload);
        for m in &END_TO_END {
            print!(" {:.4} |", r.e2e(m.name));
        }
        println!(" {} | {} |", r.failed(), r.stream_digest);
    }
    println!("\n### Per layer (traced run; 0 = does not apply to the workload)\n");
    print!("| metric [unit] |");
    for r in rows {
        print!(" {} |", r.workload);
    }
    println!("\n|---|{}", "---|".repeat(rows.len()));
    for m in &PER_LAYER {
        print!("| {} [{}, {}] |", m.name, m.unit, m.better);
        for r in rows {
            print!(" {:.4} |", r.layer(m.name));
        }
        println!();
    }
}

/// Does each workload stress the layer it was chosen for? Returns
/// false when an operation failed or a metric shows up on a workload
/// it cannot apply to. Expectations that rest on host timings only
/// warn: on a shared host any of them fails now and then with nothing
/// wrong in the code.
fn separation_checks(rows: &[Row]) -> bool {
    let row = |name: &str| rows.iter().find(|r| r.workload == name).expect("ran");
    let mut ok = true;
    let mut check = |pass: bool, hard: bool, what: String| {
        let tag = match (pass, hard) {
            (true, _) => "ok  ",
            (false, true) => "FAIL",
            (false, false) => "warn",
        };
        println!("- {tag} {what}");
        ok &= pass || !hard;
    };
    println!("\n### Checks\n");
    for r in rows {
        check(
            r.failed() == 0,
            true,
            format!("{}: {} operations failed", r.workload, r.failed()),
        );
    }
    let ratio = row("min64-switch").e2e("ops_per_s") / row("mtu1500-switch").e2e("ops_per_s");
    check(
        ratio >= 3.0,
        false,
        format!(
            "mtu1500-switch costs {ratio:.2}x min64-switch per frame (per-byte cost shows: >= 3x)"
        ),
    );
    let engines: Vec<&Row> = rows.iter().filter(|r| r.is_engine()).collect();
    let share = |r: &Row, metric: &str| r.layer(metric) / r.layer("harness.ns_per_op");
    for (metric, want) in [
        ("rtl.env_ns_per_frame", "flows-1m-churn"),
        ("kiwi-ir.exec_ns_per_frame", "l7-memcached"),
    ] {
        let top = engines
            .iter()
            .max_by(|a, b| share(a, metric).total_cmp(&share(b, metric)))
            .expect("engine workloads ran");
        check(
            top.workload == want,
            false,
            format!(
                "{metric} takes its largest share on {} ({:.2} of a frame; expected {want})",
                top.workload,
                share(top, metric)
            ),
        );
    }
    for metric in ["core.dispatch_ns_per_frame", "core.par_batch_overhead_us"] {
        let nonzero: Vec<_> = rows
            .iter()
            .filter(|r| r.layer(metric) != 0.0)
            .map(|r| r.workload)
            .collect();
        check(
            nonzero == ["par2-nat"],
            true,
            format!("{metric} is non-zero only on {nonzero:?}"),
        );
    }
    for r in &engines {
        let a = r.layer("harness.attributed_share");
        check(
            (a - 1.0).abs() <= 0.10,
            false,
            format!(
                "{}: arms sum to {a:.2} of the per-frame time of the passes (trusted within 0.10)",
                r.workload
            ),
        );
        let t = r.layer("harness.trace_overhead_share");
        check(
            t <= 0.05,
            false,
            format!("{}: trace overhead {t:.3} (<= 0.05)", r.workload),
        );
    }
    for r in rows {
        let s = r.layer("harness.pass_spread_share");
        check(
            s <= 0.10,
            false,
            format!(
                "{}: passes spread {s:.3} of their median (<= 0.10)",
                r.workload
            ),
        );
    }
    ok
}

fn header(args: &Args) {
    let smoke = if args.smoke {
        ", SMOKE: sizes / 16, numbers not comparable"
    } else {
        ""
    };
    println!(
        "emubench: seed {:#x} (a claim must also hold on the held-out seed {:#x}), \
         {} s per run, host {}{smoke}\n",
        args.seed,
        HELD_OUT_SEED,
        args.seconds,
        emu_telemetry::host_info()
    );
}

pub fn all(args: &Args) -> i32 {
    let rows = match collect(args) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("emubench: {e}");
            return 1;
        }
    };
    header(args);
    print_tables(&rows);
    let ok = separation_checks(&rows);
    let report = Json::obj(vec![
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("smoke", Json::from(args.smoke)),
        ("host", emu_telemetry::host_info()),
        (
            "workloads",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("name", Json::from(r.workload)),
                            ("stream_digest", Json::from(r.stream_digest.as_str())),
                            ("untraced", r.untraced.clone()),
                            ("traced", r.traced.clone()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = format!("{OUT_DIR}/report.json");
    if let Err(e) = std::fs::write(&path, report.pretty()) {
        eprintln!("emubench: {path} not written: {e}");
    }
    i32::from(!ok)
}

/// Two full sets back to back: simulated time, counts, digests and
/// allocation counts must be identical and memory within its bound;
/// host timings are compared against their bounds and reported.
pub fn selftest(args: &Args) -> i32 {
    let (a, b) = match (collect(args), collect(args)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("emubench: {e}");
            return 1;
        }
    };
    header(args);
    let mut ok = true;
    println!("### Self-test: two sets of runs of the same code\n");
    println!("| workload | metric | set 1 | set 2 | difference | allowed | verdict |");
    println!("|---|---|---|---|---|---|---|");
    for (ra, rb) in a.iter().zip(&b) {
        let w = ra.workload;
        for m in &END_TO_END {
            let (x, y) = (ra.e2e(m.name), rb.e2e(m.name));
            let diff = (x - y).abs() / x;
            // Two single runs of a timing can differ by more than the
            // bound on a shared host with nothing wrong in the code
            // (the bound is for medians of ten): report, do not fail.
            let verdict = match (diff <= m.bound, m.unit == "MiB") {
                (true, _) => "ok",
                (false, true) => {
                    ok = false;
                    "FAIL"
                }
                (false, false) => "warn",
            };
            println!(
                "| {w} | {} [{}] | {x:.4} | {y:.4} | {diff:.4} | {} | {verdict} |",
                m.name, m.unit, m.bound
            );
        }
        let mut exact = |name: &str, x: String, y: String| {
            let pass = x == y;
            ok &= pass;
            let verdict = if pass { "ok" } else { "FAIL" };
            println!(
                "| {w} | {name} | {x} | {y} | {} | identical | {verdict} |",
                if pass { "0" } else { "differs" }
            );
        };
        exact(
            "stream_digest",
            ra.stream_digest.clone(),
            rb.stream_digest.clone(),
        );
        exact("failed", ra.failed().to_string(), rb.failed().to_string());
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let unit = format!("{} [{}]", m.name, m.unit);
            exact(
                &unit,
                ra.layer(m.name).to_string(),
                rb.layer(m.name).to_string(),
            );
        }
        ok &= ra.failed() == 0;
    }
    println!("\nself-test {}", if ok { "passed" } else { "FAILED" });
    i32::from(!ok)
}
