//! Regenerates Table 5: utilization and performance of DNS and Memcached
//! extended with direction-controller features (+R read, +W write,
//! +I increment), relative to the unextended service.
//!
//! Run: `cargo run --release -p emu-bench --bin table5`

use direction::{extend_program, ControllerConfig};
use emu_bench::{
    bench_zone, dns_request, emu_latency, emu_throughput, memcached_request, pct, pnr_factor,
};
use emu_core::Service;
use emu_services::{dns, memcached};
use emu_types::Frame;

struct Artefact {
    name: &'static str,
    build: fn() -> Service,
    request: fn(u64) -> Frame,
    ctl_vars: &'static [&'static str],
}

fn variants(vars: &[&str]) -> Vec<(&'static str, Option<ControllerConfig>)> {
    vec![
        ("base", None),
        ("+R", Some(ControllerConfig::read_only(vars))),
        ("+W", Some(ControllerConfig::read_write(vars))),
        ("+I", Some(ControllerConfig::read_increment(vars))),
    ]
}

fn main() {
    println!("== Table 5: profile of utilization and performance ==");
    println!("(R/W/I are controller instructions; all values % of the base design)\n");
    println!(
        "{:<16} {:>14} {:>16} {:>14}",
        "artefact", "utilization %", "p99 latency %", "queries/s %"
    );

    let artefacts = [
        Artefact {
            name: "dns",
            build: || dns::dns_server(bench_zone()),
            request: dns_request,
            ctl_vars: &["hit", "too_long"],
        },
        Artefact {
            name: "memcached",
            build: memcached::memcached,
            request: memcached_request,
            ctl_vars: &["n_get", "n_set", "n_hit"],
        },
    ];

    for art in &artefacts {
        let base = (art.build)();
        let warm = art.name == "memcached";

        let mut base_logic = 0.0;
        let mut base_p99 = 0.0;
        let mut base_qps = 0.0;

        for (label, cfg) in variants(art.ctl_vars) {
            let svc = match &cfg {
                None => (art.build)(),
                Some(c) => {
                    let prog = extend_program(&base.program, c).expect("transform");
                    let inner = (art.build)();
                    Service::with_sized_env(prog, move |cfg| (inner.make_env)(cfg))
                }
            };
            let design_name = format!("{}{}", art.name, label);
            let fsm = kiwi::compile(&svc.program).expect("compile");
            // IP blocks are identical across variants; utilization deltas
            // come from the generated logic. P&R noise: see `pnr_factor`.
            let logic = kiwi::estimate(&fsm, &[]).logic as f64 * pnr_factor(&design_name);

            let lat = emu_latency(&svc, art.request, 1_500, warm).expect("latency");
            let qps = emu_throughput(&svc, art.request, 6_000, warm).expect("throughput");

            if label == "base" {
                base_logic = logic;
                base_p99 = lat.p99;
                base_qps = qps;
                println!(
                    "{:<16} {:>14.1} {:>16.1} {:>14.1}",
                    art.name, 100.0, 100.0, 100.0
                );
            } else {
                println!(
                    "{:<16} {:>14.1} {:>16.1} {:>14.1}",
                    format!("{}{}", art.name, label),
                    pct(logic, base_logic),
                    pct(lat.p99, base_p99),
                    pct(qps, base_qps)
                );
            }
        }
        println!();
    }

    println!("paper values:");
    println!("dns       base 100.0 / +R 103.4, 100.0, 100.0 / +W 115.1, 99.5, 100.0 / +I 109.8, 99.5, 100.0");
    println!("memcached base 100.0 / +R  99.2, 100.0, 100.0 / +W  99.8, 100.5, 100.0 / +I 100.6, 100.0, 100.0");
}
