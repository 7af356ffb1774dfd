//! The paper's flagship use case (§4.1, Figure 2): the L2 learning
//! switch, driven through the full NetFPGA pipeline model at line rate,
//! with its utilization report and Verilog output.
//!
//! Run: `cargo run --release --example learning_switch`

use emu::platform::{timing, Baseline};
use emu::prelude::*;
use emu::services::switch::switch_ip_cam;
use emu::stdlib::TableConfig;
use emu::types::wire::l2_frame as frame;

fn main() {
    let svc = switch_ip_cam();

    // --- watch it learn ------------------------------------------------
    let mut inst = svc.engine(Target::Fpga).build().expect("instantiate");
    println!("== learning demonstration ==");
    let out = inst.process(&frame(0xA, 0xB, 0)).expect("frame");
    println!(
        "A@0 -> B : out ports {:#06b} (flooded: B unknown)",
        out.tx[0].ports
    );
    let out = inst.process(&frame(0xB, 0xA, 1)).expect("frame");
    println!(
        "B@1 -> A : out ports {:#06b} (unicast: A learned)",
        out.tx[0].ports
    );
    let out = inst.process(&frame(0xA, 0xB, 0)).expect("frame");
    println!(
        "A@0 -> B : out ports {:#06b} (unicast: B learned)",
        out.tx[0].ports
    );
    println!(
        "module latency: {} cycles (paper: 8, reference: 6)",
        out.cycles
    );

    // --- line-rate sweep through the pipeline ---------------------------
    let inst = svc.engine(Target::Fpga).build().expect("instantiate");
    let (driver, env) = inst.into_fpga_parts().expect("fpga");
    let mut sim = PipelineSim::new_emu(driver, env, CoreMode::Streaming);
    for p in 0..4u8 {
        sim.inject(&frame(100 + u64::from(p), 0xEE, p), f64::from(p) * 100.0)
            .expect("learn");
    }
    let gap = timing::wire_ns(64) / 4.0;
    let mut t = 1000.0;
    for i in 0..20_000u64 {
        let port = (i % 4) as u8;
        let dst = 100 + (u64::from(port) + 1) % 4;
        sim.inject(&frame(100 + u64::from(port), dst, port), t)
            .expect("inject");
        t += gap;
    }
    println!(
        "\n== line-rate sweep ==\nthroughput: {:.2} Mpps (line rate {:.2}), drops: {}",
        sim.throughput_pps() / 1e6,
        timing::line_rate_pps(64) / 1e6,
        sim.queue_drops
    );

    // --- resources vs the hand-written reference ------------------------
    let fsm = compile(&svc.program).expect("compile");
    let emu_res = estimate(&fsm, &(svc.make_env)(&TableConfig::default()).resources());
    let ref_res = Baseline::Reference.resources();
    println!("\n== utilization ==");
    println!(
        "emu switch     : logic {:>6}, memory {:>4}",
        emu_res.logic, emu_res.memory
    );
    println!(
        "reference (HDL): logic {:>6}, memory {:>4}",
        ref_res.logic, ref_res.memory
    );

    let v = emit(&fsm).expect("emit");
    println!(
        "\ngenerated Verilog: {} lines (paper: ~500 for the switch)",
        v.lines().count()
    );
}
