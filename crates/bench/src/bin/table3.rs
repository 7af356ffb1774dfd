//! Regenerates Table 3: Emu switch vs NetFPGA reference switch vs
//! P4FPGA switch — logic/memory resources, module latency, throughput at
//! 64-byte packets.
//!
//! Run: `cargo run --release -p emu-bench --bin table3`

use emu_bench::{emu_pipeline, line_rate_mpps};
use emu_core::{TableConfig, Target};
use emu_services::switch::switch_ip_cam;
use emu_types::wire::l2_frame as switch_frame;
use netfpga_sim::{CoreMode, NativeCore, P4FpgaCore, PipelineSim, RefSwitchCore};

fn main() {
    println!("== Table 3: switch comparison (64-byte packets, 256-entry tables) ==\n");

    // --- Emu switch (C# → Kiwi analogue) -----------------------------
    let svc = switch_ip_cam();
    let fsm = kiwi::compile(&svc.program).expect("compile");
    let resources = kiwi::estimate(&fsm, &(svc.make_env)(&TableConfig::default()).resources());

    // Module latency: measured on a learned unicast path.
    let mut inst = svc.engine(Target::Fpga).build().expect("instantiate");
    inst.process(&switch_frame(0xB, 0xA, 1)).expect("learn");
    inst.process(&switch_frame(0xA, 0xB, 0)).expect("learn");
    let out = inst.process(&switch_frame(0xA, 0xB, 0)).expect("forward");
    let emu_latency = out.cycles;

    let mut emu_sim = emu_pipeline(&svc, CoreMode::Streaming).expect("pipeline");
    let emu_mpps = line_rate_mpps(&mut emu_sim, 20_000);

    // --- Baselines -----------------------------------------------------
    let refsw = RefSwitchCore::new();
    let ref_res = refsw.resources();
    let ref_latency = refsw.module_latency_cycles();
    let mut ref_sim = PipelineSim::new_native(Box::new(RefSwitchCore::new()));
    let ref_mpps = line_rate_mpps(&mut ref_sim, 20_000);

    let p4 = P4FpgaCore::default();
    let p4_res = p4.resources();
    let p4_latency = p4.module_latency_cycles();
    let mut p4_sim = PipelineSim::new_native(Box::new(P4FpgaCore::default()));
    let p4_mpps = line_rate_mpps(&mut p4_sim, 20_000);

    println!(
        "{:<22} {:>12} {:>12} {:>16} {:>14}",
        "design", "logic", "memory", "latency (cyc)", "tput (Mpps)"
    );
    let row = |name: &str, logic: u64, mem: u64, lat: u64, mpps: f64| {
        println!("{name:<22} {logic:>12} {mem:>12} {lat:>16} {mpps:>14.2}");
    };
    row(
        "emu (C#)",
        resources.logic,
        resources.memory,
        emu_latency,
        emu_mpps,
    );
    row(
        "netfpga-reference",
        ref_res.logic,
        ref_res.memory,
        ref_latency,
        ref_mpps,
    );
    row("p4fpga", p4_res.logic, p4_res.memory, p4_latency, p4_mpps);

    println!("\npaper values:");
    row("emu (paper)", 3509, 118, 8, 59.52);
    row("reference (paper)", 2836, 87, 6, 59.52);
    row("p4fpga (paper)", 24161, 236, 85, 53.0);

    // §5.3: CAM share of the Emu design.
    let cam_logic: u64 = resources
        .breakdown
        .iter()
        .filter(|(n, _, _)| n.contains("cam"))
        .map(|(_, l, _)| *l)
        .sum();
    println!(
        "\nCAM share of Emu logic: {:.0}% (paper: 85%)",
        100.0 * cam_logic as f64 / resources.logic as f64
    );

    // §5.3 ClickNP-relative note: resource ratio vs the reference design.
    println!(
        "Emu/reference logic ratio: {:.2}x (paper: 1.24x; ClickNP reports 0.9x vs parser)",
        resources.logic as f64 / ref_res.logic as f64
    );
}
