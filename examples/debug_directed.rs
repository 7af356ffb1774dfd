//! The §5.5 debugging story: extend a running service with a direction
//! controller, then interrogate it with in-band direction packets — the
//! way the paper's authors found their Memcached checksum bug ("directing
//! the packets to report the checksum calculated within Emu revealed a
//! bug in the checksum implementation"). The same traffic then runs on
//! the software target with the commands that have no hardware mapping
//! (a watchpoint and a call counter) attached as an observer.
//!
//! Run: `cargo run --release --example debug_directed`

use emu::debug::{
    extend_program, parse, Command, ControllerConfig, DirectionObserver, Director, Outcome,
};
use emu::prelude::*;
use emu::services::memcached::{memcached, request_frame};
use emu::stdlib::Service;

fn main() {
    // Take the stock Memcached service and compile in a controller that
    // can read its statistics registers and trace them (Figure 11).
    let base = memcached();
    let cfg = ControllerConfig::full(&["n_get", "n_set", "n_hit"], 32);
    let directed = extend_program(&base.program, &cfg).expect("transform");
    let svc = Service::with_sized_env(directed, move |cfg| (base.make_env)(cfg));

    let mut inst = svc.engine(Target::Fpga).build().expect("instantiate");
    let director = Director::new(vec!["n_get".into(), "n_set".into(), "n_hit".into()]);

    // Arm a trace on n_hit (captured at the service's extension point on
    // every main-loop iteration).
    director
        .run(&mut inst, &parse("trace start n_hit 16").expect("cmd"))
        .expect("trace start");

    // Live traffic.
    println!("== traffic ==");
    for body in TRAFFIC {
        inst.process(&request_frame(body, 1)).expect("request");
        println!("  sent {}", body.replace("\r\n", "\\r\\n"));
    }

    // Interrogate the running service, gdb-style, over the wire.
    println!("\n== direction session (in-band packets) ==");
    for cmd in ["print n_get", "print n_set", "print n_hit"] {
        let out = director
            .run(&mut inst, &parse(cmd).expect("cmd"))
            .expect("exchange");
        println!("  (emu-dbg) {cmd:<14} -> {out:?}");
    }

    let out = director
        .run(&mut inst, &parse("trace print n_hit").expect("cmd"))
        .expect("trace print");
    if let Outcome::Values(vals) = out {
        println!("  (emu-dbg) trace print n_hit -> {vals:?}");
        println!("\nThe trace shows n_hit's value at each loop iteration — the");
        println!("§5.5 method: watch an internal value evolve without stopping");
        println!("the service or attaching an RTL simulator.");
    }

    // On the software target the commands the controller cannot run
    // (`Outcome::SoftwareOnly`) are an observer on the engine: a
    // watchpoint on n_hit and a counter of `rx` label crossings.
    println!("\n== software-target session (observer) ==");
    let mut cpu = svc.engine(Target::Cpu).build().expect("instantiate");
    let mut obs = DirectionObserver::new();
    for cmd in ["watch n_hit", "count calls rx"] {
        let parsed = parse(cmd).expect("cmd");
        let out = director.run(&mut cpu, &parsed).expect("run");
        assert_eq!(out, Outcome::SoftwareOnly, "{cmd}");
        if let Command::Watch(name, cond) = parsed {
            let var = svc.program.var_by_name(&name).expect("a register");
            obs.watches.insert(var.0, cond);
        }
        println!("  (emu-dbg) {cmd:<14} -> attached to the observer");
    }
    for body in TRAFFIC {
        cpu.process_observed(&request_frame(body, 1), &mut obs)
            .expect("request");
    }
    for (_, old, new) in &obs.watch_hits {
        println!("  watch n_hit: {old} -> {new}");
    }
    let rx = obs.call_counts.get("rx").copied().unwrap_or(0);
    println!("  count calls rx -> {rx}");
    assert_eq!(obs.watch_hits.len(), 3, "one hit per `get k1`");

    // The controller costs almost nothing (Table 5):
    let base_fsm = compile(&memcached().program).expect("compile");
    let dir_fsm = compile(&svc.program).expect("compile");
    let b = estimate(&base_fsm, &[]).logic as f64;
    let d = estimate(&dir_fsm, &[]).logic as f64;
    println!(
        "\ncontroller logic overhead: {:.1}% (paper Table 5: ±a few %)",
        100.0 * d / b - 100.0
    );
}

/// The Memcached requests both sessions send: a set, then three hits
/// and one miss.
const TRAFFIC: [&str; 5] = [
    "set k1 0 0 8\r\nAAAAAAAA\r\n",
    "get k1\r\n",
    "get k2\r\n",
    "get k1\r\n",
    "get k1\r\n",
];
