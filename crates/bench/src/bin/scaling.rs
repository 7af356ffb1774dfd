//! Regenerates the §5.4 multi-core Memcached result: "using four Emu
//! cores (one per port) further increases \[throughput\] by 3.7× when
//! considering a workload of 90 % GET and 10 % SET requests. SET requests
//! must be applied to all instances, thus their relative ratio in
//! performance cannot improve."
//!
//! Run: `cargo run --release -p emu-bench --bin scaling`

use emu_bench::memcached_frame;
use emu_core::Target;
use emu_services::memcached::memcached;
use hoststack::Memaslap;
use netfpga_sim::MultiCoreSim;

/// Runs `n` requests of a 90/10 mix through a `cores`-wide pipeline.
fn run(cores: usize, n: usize, seed: u64) -> f64 {
    let mut drivers = Vec::new();
    let mut envs = Vec::new();
    for _ in 0..cores {
        let inst = memcached()
            .engine(Target::Fpga)
            .build()
            .expect("instantiate");
        let (d, e) = inst.into_fpga_parts().expect("fpga");
        drivers.push(d);
        envs.push(e);
    }
    let mut sim = MultiCoreSim::new(drivers, envs);

    let mut gen = Memaslap::new(64, 0.9, seed);
    // Warm every core with the keyspace (SETs replicate).
    let mut t = 0.0;
    for (i, op) in gen.warmup().iter().enumerate() {
        let f = memcached_frame(&op.request_body(), i as u64);
        sim.inject(&f, t, i % 4, true).expect("warm");
        t += 5_000.0;
    }
    // Offered load beyond single-core capacity.
    let gap = 100.0;
    for (i, op) in gen.ops(n).iter().enumerate() {
        let f = memcached_frame(&op.request_body(), i as u64);
        sim.inject(&f, t, i % 4, op.is_set()).expect("inject");
        t += gap;
    }
    sim.throughput_rps()
}

fn main() {
    println!("== §5.4: multi-core Memcached scaling (90% GET / 10% SET) ==\n");
    let n = 8_000;
    let single = run(1, n, 11);
    println!("1 core : {:>10.3} Mq/s", single / 1e6);
    let mut four_x = 0.0;
    for cores in [2usize, 4] {
        let rps = run(cores, n, 11);
        println!(
            "{cores} cores: {:>10.3} Mq/s  ({:.2}x)",
            rps / 1e6,
            rps / single
        );
        if cores == 4 {
            four_x = rps / single;
        }
    }
    println!("\npaper: 4 cores -> 3.7x (GETs scale 4x, replicated SETs do not:");
    println!("       0.9 * 4 + 0.1 * 1 = 3.7)");
    println!("measured 4-core speedup: {four_x:.2}x");
}
