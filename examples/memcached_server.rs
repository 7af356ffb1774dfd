//! The paper's Memcached-in-hardware use case (§4.3): run the service
//! under a memaslap-style 90/10 workload, print the latency distribution
//! next to the Linux host baseline, and demonstrate a live GET/SET
//! conversation.
//!
//! Run: `cargo run --release --example memcached_server`

use emu::host::HostProfile;
use emu::prelude::*;
use emu::services::memcached::{memcached, reply_text, request_frame};
use emu::stdlib::Service;
use hoststack::Memaslap;

fn main() {
    let svc: Service = memcached();

    // --- a live conversation -------------------------------------------
    println!("== conversation ==");
    let mut inst = svc.engine(Target::Fpga).build().expect("instantiate");
    for body in [
        "set motd 0 0 8\r\nHELLOEMU\r\n",
        "get motd\r\n",
        "delete motd\r\n",
        "get motd\r\n",
    ] {
        let out = inst.process(&request_frame(body, 1)).expect("request");
        let reply = String::from_utf8_lossy(reply_text(&out.tx[0].frame)).replace("\r\n", "\\r\\n");
        println!("  {:<34} -> {}", body.replace("\r\n", "\\r\\n"), reply);
    }

    // --- memaslap-style latency run --------------------------------------
    let inst = svc.engine(Target::Fpga).build().expect("instantiate");
    let (driver, env) = inst.into_fpga_parts().expect("fpga");
    let mut sim = PipelineSim::new_emu(driver, env, CoreMode::Iterative);

    let mut gen = Memaslap::new(64, 7);
    let mut t = 0.0;
    for (i, op) in gen.warmup().iter().enumerate() {
        let mut f = request_frame(&op.request_body(), i as u16);
        f.in_port = (i % 4) as u8;
        sim.inject(&f, t).expect("warm");
        t += 10_000.0;
    }
    let warmed = sim.records().len();
    for (i, op) in gen.ops(5_000).iter().enumerate() {
        let mut f = request_frame(&op.request_body(), i as u16);
        f.in_port = (i % 4) as u8;
        sim.inject(&f, t).expect("inject");
        t += 9_973.0;
    }
    let lat: Vec<f64> = sim.records()[warmed..]
        .iter()
        .filter_map(|r| r.t_out_ns.map(|o| o - r.t_in_ns))
        .collect();
    let emu = Summary::of(&lat).expect("samples");

    let host = HostProfile::memcached().latency_run(100_000, 42);
    println!("\n== latency: 90% GET / 10% SET ==");
    println!(
        "           {:>10} {:>10} {:>10} {:>12}",
        "mean (us)", "p50 (us)", "p99 (us)", "tail/avg"
    );
    println!(
        "emu (hw) : {:>10.2} {:>10.2} {:>10.2} {:>12.3}",
        emu.mean / 1e3,
        emu.p50 / 1e3,
        emu.p99 / 1e3,
        emu.tail_to_average()
    );
    println!(
        "linux    : {:>10.2} {:>10.2} {:>10.2} {:>12.3}",
        host.mean / 1e3,
        host.p50 / 1e3,
        host.p99 / 1e3,
        host.tail_to_average()
    );
    println!("\npaper (Table 4): emu 1.21/1.26 us, host 24.29/28.65 us;");
    println!("'even an extra 20 us are enough to lose 25% throughput' (§4.3)");
}
