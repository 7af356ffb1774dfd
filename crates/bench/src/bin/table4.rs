//! Regenerates Table 4: average / 99th-percentile latency and throughput
//! for ICMP echo, TCP ping, DNS, NAT and Memcached — Emu (cycle-accurate
//! pipeline) vs host (Linux-path model). The paper's rows and the cells
//! we knowingly miss are `emu_bench::TABLE4` and
//! `emu_bench::TABLE4_DEVIATIONS`, which `table4_stays_near_the_paper`
//! gates; this bin only prints.
//!
//! Run: `cargo run --release -p emu-bench --bin table4`

use emu_bench::{table4_row, table4_services, Table4Row, TABLE4, TABLE4_BIN_SAMPLES};
use hoststack::HostProfile;

fn print_row(r: &Table4Row) {
    println!(
        "{:<12} | {:>10.2} {:>10.2} {:>10.3} | {:>10.2} {:>10.2} {:>10.3}",
        r.service,
        r.emu_avg_us,
        r.emu_p99_us,
        r.emu_mqps,
        r.host_avg_us,
        r.host_p99_us,
        r.host_mqps,
    );
}

fn main() {
    println!("== Table 4: Emu-based services vs host-based services ==\n");
    println!(
        "{:<12} | {:>10} {:>10} {:>10} | {:>10} {:>10} {:>10}",
        "", "emu avg", "emu p99", "emu Mq/s", "host avg", "host p99", "host Mq/s"
    );
    println!(
        "{:<12} | {:>10} {:>10} {:>10} | {:>10} {:>10} {:>10}",
        "service", "(us)", "(us)", "", "(us)", "(us)", ""
    );
    println!("{}", "-".repeat(84));

    for (svc, host) in table4_services().iter().zip(HostProfile::all()) {
        print_row(&table4_row(svc, &host, TABLE4_BIN_SAMPLES).expect(svc.name));
    }

    println!("\npaper values:");
    for r in &TABLE4 {
        print_row(r);
    }
}
