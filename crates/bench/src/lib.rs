//! The paper's evaluation (§5) as one table of cited cells, the
//! functions that measure each cell, and the gate that holds them.
//!
//! Every number of §5 this reproduction compares itself with is one
//! [`Cell`] of `PAPER`: Tables 3, 4 and 5, the four-core memcached
//! speedup of §5.4, the §5.3 parallelism ablation and the §5.6 tail
//! bounds. A cell is checked one of three ways ([`Check`]): near the
//! paper's value, on the right side of a bound the paper states, or — a
//! cell we knowingly miss — as a named [`Deviation`] held to its own
//! recorded reading. One function measures each artefact (`table3`,
//! `table4`, which also gives the §5.6 cells, `table5`, `scaling`,
//! `ablation`), at the one sample count both the gate test
//! (`every_paper_cell_holds`) and the `paper` bin use; the bin only
//! prints what [`readings`] returns. The `soak` bin drives the engine
//! under the reference checkers. Host-speed numbers are not measured
//! here: that is `bash benchmark/run.sh` (ROADMAP "Measuring
//! performance").

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

use direction::{extend_program, ControllerConfig};
use emu_core::{Service, TableConfig, Target};
use emu_services::switch::switch_ip_cam;
use emu_services::{dns, icmp, memcached, nat, tcp_ping};
use emu_types::wire::l2_frame as switch_frame;
use emu_types::{Frame, Ipv4, Summary};
use hoststack::{HostProfile, Memaslap};
use kiwi::CostModel;
use kiwi_ir::IrResult;
use netfpga_sim::{pipeline, timing, Baseline, CoreMode, PipelineSim};

/// The five Table 4 services with request generators.
struct Table4Service {
    /// Row label, matching `hoststack::HostProfile` names.
    name: &'static str,
    /// Builds the Emu service.
    build: fn() -> Service,
    /// Builds the i-th request frame.
    request: fn(u64) -> Frame,
}

/// DNS zone used across benches.
pub fn bench_zone() -> Vec<(String, Ipv4)> {
    vec![
        (
            "example.com".into(),
            "93.184.216.34".parse().expect("valid"),
        ),
        (
            "emu.cam.ac.uk".into(),
            "128.232.0.20".parse().expect("valid"),
        ),
        ("a.b".into(), "1.2.3.4".parse().expect("valid")),
        ("cache.io".into(), "10.9.8.7".parse().expect("valid")),
    ]
}

/// The `i`-th DNS query of the benches: the four zone names in turn,
/// arriving round-robin over the four ports.
fn dns_request(i: u64) -> Frame {
    let names = ["example.com", "emu.cam.ac.uk", "a.b", "cache.io"];
    let mut f = dns::query_frame(names[(i % 4) as usize], i as u16);
    f.in_port = (i % 4) as u8;
    f
}

/// The `i`-th memcached request of the benches: 90/10 GET/SET over a
/// small hot keyset (pre-warmed by the harness).
fn memcached_request(i: u64) -> Frame {
    let key = format!("k{:04}", i % 64);
    let body = if i % 10 == 9 {
        format!("set {key} 0 0 8\r\nVALUE{:03}\r\n", i % 1000)
    } else {
        format!("get {key}\r\n")
    };
    memcached_frame(&body, i)
}

/// Request `i` carrying ASCII `body`, arriving round-robin over the
/// four ports.
fn memcached_frame(body: &str, i: u64) -> Frame {
    let mut f = memcached::request_frame(body, i as u16);
    f.in_port = (i % 4) as u8;
    f
}

fn nat_request(i: u64) -> Frame {
    // A modest set of flows from the internal side.
    let sport = 2000 + (i % 32) as u16;
    nat::udp_frame(
        "192.168.1.50".parse().expect("valid"),
        sport,
        "8.8.8.8".parse().expect("valid"),
        53,
        1 + (i % 3) as u8,
    )
}

fn icmp_request(i: u64) -> Frame {
    let mut f = icmp::echo_request_frame(56, i as u16);
    f.in_port = (i % 4) as u8;
    f
}

fn tcp_request(i: u64) -> Frame {
    let mut f = tcp_ping::syn_frame(40_000 + (i % 1000) as u16, 80, i as u32);
    f.in_port = (i % 4) as u8;
    f
}

/// The Table 4 service set, in the paper's row order.
fn table4_services() -> Vec<Table4Service> {
    vec![
        Table4Service {
            name: "icmp-echo",
            build: icmp::icmp_echo,
            request: icmp_request,
        },
        Table4Service {
            name: "tcp-ping",
            build: tcp_ping::tcp_ping,
            request: tcp_request,
        },
        Table4Service {
            name: "dns",
            build: || dns::dns_server(bench_zone()),
            request: dns_request,
        },
        Table4Service {
            name: "nat",
            build: || nat::nat("203.0.113.1".parse().expect("valid")),
            request: nat_request,
        },
        Table4Service {
            name: "memcached",
            build: memcached::memcached,
            request: memcached_request,
        },
    ]
}

/// How a measured cell is held against the paper's value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Check {
    /// Within this share of the paper's value (0 holds it exactly).
    Near(f64),
    /// Strictly below the paper's value, a bound the paper states.
    Below,
    /// Strictly above the paper's value, a bound the paper states.
    Above,
}

impl Check {
    /// Whether `ours` passes this check against `paper`.
    pub fn holds(self, ours: f64, paper: f64) -> bool {
        match self {
            Check::Near(tol) => near(ours, paper, tol),
            Check::Below => ours < paper,
            Check::Above => ours > paper,
        }
    }
}

fn near(got: f64, want: f64, tol: f64) -> bool {
    (got / want - 1.0).abs() <= tol
}

/// The tolerance a cell gets unless an older test held it tighter.
const NEAR: Check = Check::Near(0.10);

/// One number of the paper's evaluation: where it is (artefact, row,
/// column), its value, and how our reading is held against it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// The table or section: "Table 3", "§5.6", ….
    pub artefact: &'static str,
    /// The row label (a design, a service, a variant).
    pub row: &'static str,
    /// The column label, with its unit.
    pub column: &'static str,
    /// The paper's value.
    pub paper: f64,
    /// How our reading is checked, unless `DEVIATIONS` lists the cell.
    pub check: Check,
}

const fn cell(
    artefact: &'static str,
    row: &'static str,
    column: &'static str,
    paper: f64,
    check: Check,
) -> Cell {
    Cell {
        artefact,
        row,
        column,
        paper,
        check,
    }
}

const T3: &str = "Table 3";
const LOGIC: &str = "logic (units)";
const MEMORY: &str = "memory (units)";
const LATENCY: &str = "module latency (cycles)";
const LINE_RATE: &str = "64 B throughput (Mpps)";
const CAM_SHARE: &str = "CAM share of logic (%)";
const LOGIC_RATIO: &str = "logic ÷ reference's";

/// Table 3 (64 B packets, 256-entry tables), the Emu switch against the
/// NetFPGA reference switch and P4FPGA's: logic 3509 / 2836 / 24161,
/// memory 118 / 87 / 236, module latency 8 / 6 / 85 cycles (the
/// baselines' held exactly) and 59.52 / 59.52 / 53.0 Mpps (held within
/// 1 %). Below the table, §5.3: the CAM is 85 % of the Emu switch's
/// logic; and the Emu switch's logic is 1.24× the reference's (3509 /
/// 2836, held within 8 %).
pub(crate) const TABLE3: [Cell; 14] = [
    cell(T3, "Emu", LOGIC, 3509.0, NEAR),
    cell(T3, "Emu", MEMORY, 118.0, NEAR),
    cell(T3, "Emu", LATENCY, 8.0, NEAR),
    cell(T3, "Emu", LINE_RATE, 59.52, Check::Near(0.01)),
    cell(T3, "Emu", CAM_SHARE, 85.0, NEAR),
    cell(T3, "Emu", LOGIC_RATIO, 1.24, Check::Near(0.08)),
    cell(T3, "reference", LOGIC, 2836.0, NEAR),
    cell(T3, "reference", MEMORY, 87.0, NEAR),
    cell(T3, "reference", LATENCY, 6.0, Check::Near(0.0)),
    cell(T3, "reference", LINE_RATE, 59.52, Check::Near(0.01)),
    cell(T3, "P4FPGA", LOGIC, 24161.0, NEAR),
    cell(T3, "P4FPGA", MEMORY, 236.0, NEAR),
    cell(T3, "P4FPGA", LATENCY, 85.0, Check::Near(0.0)),
    cell(T3, "P4FPGA", LINE_RATE, 53.0, Check::Near(0.01)),
];

const T4: &str = "Table 4";
const EMU_AVG: &str = "Emu avg (µs)";
const EMU_P99: &str = "Emu p99 (µs)";
const EMU_MQPS: &str = "Emu throughput (Mq/s)";
const HOST_AVG: &str = "host avg (µs)";
const HOST_P99: &str = "host p99 (µs)";
const HOST_MQPS: &str = "host throughput (Mq/s)";

/// Table 4, Emu-based services against host-based ones: average and
/// 99th-percentile latency and throughput of each. ICMP echo: Emu
/// 1.09 / 1.11 µs and 3.226 Mq/s, host 12.28 / 22.63 µs and 1.068 Mq/s.
/// TCP ping: 1.27 / 1.29, 2.105; 21.79 / 65.00, 1.012. DNS: 1.82 /
/// 1.86, 1.176; 126.46 / 138.33, 0.226. NAT: 1.32 / 1.34, 2.439;
/// 2444.76 / 6185.27, 1.037. Memcached: 1.21 / 1.26, 1.932; 24.29 /
/// 28.65, 0.876.
pub(crate) const TABLE4: [Cell; 30] = [
    cell(T4, "icmp-echo", EMU_AVG, 1.09, NEAR),
    cell(T4, "icmp-echo", EMU_P99, 1.11, NEAR),
    cell(T4, "icmp-echo", EMU_MQPS, 3.226, NEAR),
    cell(T4, "icmp-echo", HOST_AVG, 12.28, NEAR),
    cell(T4, "icmp-echo", HOST_P99, 22.63, NEAR),
    cell(T4, "icmp-echo", HOST_MQPS, 1.068, NEAR),
    cell(T4, "tcp-ping", EMU_AVG, 1.27, NEAR),
    cell(T4, "tcp-ping", EMU_P99, 1.29, NEAR),
    cell(T4, "tcp-ping", EMU_MQPS, 2.105, NEAR),
    cell(T4, "tcp-ping", HOST_AVG, 21.79, NEAR),
    cell(T4, "tcp-ping", HOST_P99, 65.00, NEAR),
    cell(T4, "tcp-ping", HOST_MQPS, 1.012, NEAR),
    cell(T4, "dns", EMU_AVG, 1.82, NEAR),
    cell(T4, "dns", EMU_P99, 1.86, NEAR),
    cell(T4, "dns", EMU_MQPS, 1.176, NEAR),
    cell(T4, "dns", HOST_AVG, 126.46, NEAR),
    cell(T4, "dns", HOST_P99, 138.33, NEAR),
    cell(T4, "dns", HOST_MQPS, 0.226, NEAR),
    cell(T4, "nat", EMU_AVG, 1.32, NEAR),
    cell(T4, "nat", EMU_P99, 1.34, NEAR),
    cell(T4, "nat", EMU_MQPS, 2.439, NEAR),
    cell(T4, "nat", HOST_AVG, 2444.76, NEAR),
    cell(T4, "nat", HOST_P99, 6185.27, NEAR),
    cell(T4, "nat", HOST_MQPS, 1.037, NEAR),
    cell(T4, "memcached", EMU_AVG, 1.21, NEAR),
    cell(T4, "memcached", EMU_P99, 1.26, NEAR),
    cell(T4, "memcached", EMU_MQPS, 1.932, NEAR),
    cell(T4, "memcached", HOST_AVG, 24.29, NEAR),
    cell(T4, "memcached", HOST_P99, 28.65, NEAR),
    cell(T4, "memcached", HOST_MQPS, 0.876, NEAR),
];

const S56: &str = "§5.6";
const TAIL_SPREAD: &str = "Emu p99 − p50 (ns)";
const MEDIAN_GAP: &str = "host p50 ÷ Emu p50";
const MIN_TAIL: &str = "lowest tail-to-average";
const MAX_TAIL: &str = "highest tail-to-average";

/// §5.6 on the Table 4 services. For each, "the difference between the
/// median and the 99th percentile latency is less than 200 ns" on Emu,
/// and the host's median is "at least an order of magnitude" above
/// Emu's. Over all five, Emu's "tail-to-average latency ratio" (p99 ÷
/// mean) spans 1.02 to 1.04, and the host's "varies from 1.09 to 2.98"
/// (its lowest held within 8 %, inside the 1.0 to 1.2 an older test
/// held).
pub(crate) const TAILS: [Cell; 14] = [
    cell(S56, "icmp-echo", TAIL_SPREAD, 200.0, Check::Below),
    cell(S56, "icmp-echo", MEDIAN_GAP, 10.0, Check::Above),
    cell(S56, "tcp-ping", TAIL_SPREAD, 200.0, Check::Below),
    cell(S56, "tcp-ping", MEDIAN_GAP, 10.0, Check::Above),
    cell(S56, "dns", TAIL_SPREAD, 200.0, Check::Below),
    cell(S56, "dns", MEDIAN_GAP, 10.0, Check::Above),
    cell(S56, "nat", TAIL_SPREAD, 200.0, Check::Below),
    cell(S56, "nat", MEDIAN_GAP, 10.0, Check::Above),
    cell(S56, "memcached", TAIL_SPREAD, 200.0, Check::Below),
    cell(S56, "memcached", MEDIAN_GAP, 10.0, Check::Above),
    cell(S56, "Emu", MIN_TAIL, 1.02, NEAR),
    cell(S56, "Emu", MAX_TAIL, 1.04, NEAR),
    cell(S56, "host", MIN_TAIL, 1.09, Check::Near(0.08)),
    cell(S56, "host", MAX_TAIL, 2.98, NEAR),
];

const T5: &str = "Table 5";
const UTILISATION: &str = "utilisation (% of base)";
const P99: &str = "p99 latency (% of base)";
const QPS: &str = "queries/s (% of base)";

/// Table 5, DNS and memcached extended with the direction controller's
/// read (+R), write (+W) and increment (+I) instructions, as a
/// percentage of the unextended design's utilisation, p99 latency and
/// queries/s. DNS: +R 103.4 / 100.0 / 100.0, +W 115.1 / 99.5 / 100.0,
/// +I 109.8 / 99.5 / 100.0. Memcached: +R 99.2 / 100.0 / 100.0, +W
/// 99.8 / 100.5 / 100.0, +I 100.6 / 100.0 / 100.0.
pub(crate) const TABLE5: [Cell; 18] = [
    cell(T5, "dns+R", UTILISATION, 103.4, NEAR),
    cell(T5, "dns+R", P99, 100.0, NEAR),
    cell(T5, "dns+R", QPS, 100.0, NEAR),
    cell(T5, "dns+W", UTILISATION, 115.1, NEAR),
    cell(T5, "dns+W", P99, 99.5, NEAR),
    cell(T5, "dns+W", QPS, 100.0, NEAR),
    cell(T5, "dns+I", UTILISATION, 109.8, NEAR),
    cell(T5, "dns+I", P99, 99.5, NEAR),
    cell(T5, "dns+I", QPS, 100.0, NEAR),
    cell(T5, "memcached+R", UTILISATION, 99.2, NEAR),
    cell(T5, "memcached+R", P99, 100.0, NEAR),
    cell(T5, "memcached+R", QPS, 100.0, NEAR),
    cell(T5, "memcached+W", UTILISATION, 99.8, NEAR),
    cell(T5, "memcached+W", P99, 100.5, NEAR),
    cell(T5, "memcached+W", QPS, 100.0, NEAR),
    cell(T5, "memcached+I", UTILISATION, 100.6, NEAR),
    cell(T5, "memcached+I", P99, 100.0, NEAR),
    cell(T5, "memcached+I", QPS, 100.0, NEAR),
];

/// §5.4: "using four Emu cores (one per port) further increases
/// \[throughput\] by 3.7× when considering a workload of 90 % GET and
/// 10 % SET requests".
pub(crate) const SCALING: [Cell; 1] = [cell(
    "§5.4",
    "memcached 90/10",
    "4-core ÷ 1-core",
    3.7,
    NEAR,
)];

/// The clock-period budgets of the §5.3 ablation, loosest first:
/// `(label, period units)`; the label names the clock a budget stands
/// for. A tighter budget is a higher clock and a deeper pipeline.
const BUDGETS: [(&str, u32); 4] = [
    ("relaxed (150 MHz)", 36),
    ("NetFPGA default (200 MHz)", 24),
    ("aggressive (300 MHz)", 14),
    ("max pipeline (400 MHz)", 8),
];

const CYCLES_RISE: &str = "cycles/request ÷ looser budget's";

/// §5.3 (and §2): "increasing parallelism adds to latency". The paper
/// gives no figure, only the ordering: under each tighter budget of
/// `BUDGETS` an ICMP echo request takes more cycles than under the
/// next looser one, a ratio above 1.
pub(crate) const ABLATION: [Cell; 3] = [
    cell("§5.3", BUDGETS[1].0, CYCLES_RISE, 1.0, Check::Above),
    cell("§5.3", BUDGETS[2].0, CYCLES_RISE, 1.0, Check::Above),
    cell("§5.3", BUDGETS[3].0, CYCLES_RISE, 1.0, Check::Above),
];

/// Every cell of the paper's evaluation this reproduction reads.
pub(crate) const PAPER: [&[Cell]; 6] = [&TABLE3, &TABLE4, &TAILS, &TABLE5, &SCALING, &ABLATION];

/// Every cell of `PAPER`.
pub fn cells() -> impl Iterator<Item = &'static Cell> {
    PAPER.iter().flat_map(|table| table.iter())
}

/// A cell of `PAPER` this reproduction does not bring within its
/// check. It is recorded, not tuned away: our reading is held to
/// `DEVIATION_TOLERANCE` of the recorded one instead, so it cannot
/// drift unnoticed either, and a recorded reading that passes the
/// paper's check must be struck from `DEVIATIONS`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deviation {
    /// The cell's artefact.
    pub artefact: &'static str,
    /// The cell's row.
    pub row: &'static str,
    /// The cell's column.
    pub column: &'static str,
    /// Our reading, at the sample count [`readings`] takes.
    pub ours: f64,
    /// Why ours and the paper's disagree, as far as it is known.
    pub why: &'static str,
}

/// How close a cell listed in `DEVIATIONS` must stay to our recorded
/// reading, as a share of that reading.
pub(crate) const DEVIATION_TOLERANCE: f64 = 0.05;

const fn deviation(
    artefact: &'static str,
    row: &'static str,
    column: &'static str,
    ours: f64,
    why: &'static str,
) -> Deviation {
    Deviation {
        artefact,
        row,
        column,
        ours,
        why,
    }
}

const ESTIMATE: &str = "`kiwi::estimate` is a per-component sum, not a Vivado report: it \
     counts memory for the program's arrays, its IP blocks and a fixed substrate only";
const SIX_CYCLES: &str = "our FSM schedules the learned unicast path in 6 cycles, the \
     reference switch's count; the paper's Kiwi build took 8";
const REFERENCE_MODEL: &str = "the reference switch is a component model of a design we do \
     not synthesise (`Baseline::resources`); its components miss memory the real one uses";
const P4FPGA_MODEL: &str = "the P4FPGA switch is a component model of a design we cannot \
     build (`Baseline::resources`); its per-parser and per-stage figures sum above the \
     published logic";
const THROUGHPUT_ABOVE_PAPER: &str = "the simulated core saturates at fewer cycles per request \
     than the paper's measured rate implies; what bounded the paper's runs is not modelled";
const FEWER_CYCLES: &str = "our FSM schedules the service's request path in fewer cycles \
     than the paper's Kiwi build";
const HOST_TAIL: &str = "the Linux-path model's memcached stages give a heavier tail than \
     the paper's host measured";
const ADDITIVE_ESTIMATE: &str = "`kiwi::estimate` adds the controller's logic to the base \
     design's; the paper credits place-and-route with packing some extended designs into \
     less, which an additive estimate cannot show";
const REPLICATED_SETS: &str = "one pipeline per core, each SET applied to all four, reads \
     3.27x; the paper's \"0.9 x 4 + 0.1 x 1 = 3.7\" weights the two shares, where Amdahl's \
     law with SETs as the serial tenth gives 1 / (0.9/4 + 0.1) = 3.08; ours lies between";

/// Every cell held to our own reading instead of the paper's.
#[rustfmt::skip]
pub(crate) const DEVIATIONS: [Deviation; 21] = [
    deviation(T3, "Emu", MEMORY, 88.0, ESTIMATE),
    deviation(T3, "Emu", LATENCY, 6.0, SIX_CYCLES),
    deviation(T3, "reference", MEMORY, 72.0, REFERENCE_MODEL),
    deviation(T3, "P4FPGA", LOGIC, 26708.0, P4FPGA_MODEL),
    deviation(T4, "icmp-echo", EMU_MQPS, 3.908, THROUGHPUT_ABOVE_PAPER),
    deviation(T4, "tcp-ping", EMU_AVG, 1.045, FEWER_CYCLES),
    deviation(T4, "tcp-ping", EMU_P99, 1.047, FEWER_CYCLES),
    deviation(T4, "tcp-ping", EMU_MQPS, 4.153, THROUGHPUT_ABOVE_PAPER),
    deviation(T4, "dns", EMU_AVG, 1.142, FEWER_CYCLES),
    deviation(T4, "dns", EMU_P99, 1.171, FEWER_CYCLES),
    deviation(T4, "dns", EMU_MQPS, 3.230, THROUGHPUT_ABOVE_PAPER),
    deviation(T4, "nat", EMU_AVG, 0.921, FEWER_CYCLES),
    deviation(T4, "nat", EMU_P99, 0.932, FEWER_CYCLES),
    deviation(T4, "nat", EMU_MQPS, 7.950, THROUGHPUT_ABOVE_PAPER),
    deviation(T4, "memcached", EMU_MQPS, 2.501, THROUGHPUT_ABOVE_PAPER),
    deviation(T4, "memcached", HOST_P99, 35.15, HOST_TAIL),
    deviation(T5, "dns+R", UTILISATION, 118.52, ADDITIVE_ESTIMATE),
    deviation(T5, "memcached+R", UTILISATION, 109.48, ADDITIVE_ESTIMATE),
    deviation(T5, "memcached+W", UTILISATION, 111.18, ADDITIVE_ESTIMATE),
    deviation(T5, "memcached+I", UTILISATION, 113.61, ADDITIVE_ESTIMATE),
    deviation("§5.4", "memcached 90/10", "4-core ÷ 1-core", 3.268, REPLICATED_SETS),
];

/// Our measurement of one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// The cell measured.
    pub cell: &'static Cell,
    /// Our value, in the cell's unit.
    pub ours: f64,
}

impl Reading {
    /// Our reading `ours` of the cell at `artefact` · `row` · `column`.
    ///
    /// # Panics
    ///
    /// If `PAPER` has no such cell: a measuring function and the table
    /// disagree on a label.
    pub fn of(artefact: &str, row: &str, column: &str, ours: f64) -> Reading {
        let cell = cells()
            .find(|c| (c.artefact, c.row, c.column) == (artefact, row, column))
            .unwrap_or_else(|| panic!("no paper cell {artefact} · {row} · {column}"));
        Reading { cell, ours }
    }

    /// Holds this reading to its cell. `Ok(None)`: the cell's check
    /// holds. `Ok(Some(d))`: the cell is the recorded deviation `d`, our
    /// reading is within `DEVIATION_TOLERANCE` of `d`'s, and `d`'s
    /// still fails the cell's check.
    pub fn verdict(&self) -> Result<Option<&'static Deviation>, String> {
        let (c, ours) = (self.cell, self.ours);
        let at = format!("{} · {} · {}", c.artefact, c.row, c.column);
        let recorded = DEVIATIONS
            .iter()
            .find(|d| (d.artefact, d.row, d.column) == (c.artefact, c.row, c.column));
        match recorded {
            Some(d) if !near(ours, d.ours, DEVIATION_TOLERANCE) => {
                Err(format!("{at}: {ours} vs our recorded {}", d.ours))
            }
            Some(d) if c.check.holds(d.ours, c.paper) => Err(format!(
                "{at}: the recorded {} passes against the paper's {}; strike it",
                d.ours, c.paper
            )),
            None if !c.check.holds(ours, c.paper) => Err(format!(
                "{at}: {ours} vs the paper's {} ({:?})",
                c.paper, c.check
            )),
            _ => Ok(recorded),
        }
    }
}

/// Every cell of `PAPER` measured, in the table's order; the five
/// measuring functions run side by side.
pub fn readings() -> IrResult<Vec<Reading>> {
    let measures: [fn() -> IrResult<Vec<Reading>>; 5] = [table3, table4, table5, scaling, ablation];
    std::thread::scope(|s| {
        let runs: Vec<_> = measures.iter().map(|m| s.spawn(m)).collect();
        let mut all = Vec::new();
        for run in runs {
            all.extend(run.join().expect("a measuring thread panicked")?);
        }
        all.sort_by_key(|r| cells().position(|c| c == r.cell));
        Ok(all)
    })
}

/// Builds an iterative-mode pipeline around a service's FPGA instance.
fn emu_pipeline(svc: &Service, mode: CoreMode) -> IrResult<PipelineSim> {
    let inst = svc.engine(Target::Fpga).build()?;
    let (driver, env) = inst
        .into_fpga_parts()
        .ok_or_else(|| kiwi_ir::IrError("expected FPGA instance".into()))?;
    Ok(PipelineSim::new_emu(driver, env, mode))
}

/// Pre-warms a memcached-shaped service with SETs for the harness keyset.
fn warm_memcached(sim: &mut PipelineSim) -> IrResult<()> {
    let mut t = 0.0;
    for i in 0..64u64 {
        let body = format!("set k{i:04} 0 0 8\r\nVALUE{:03}\r\n", i);
        let f = memcached::request_frame(&body, i as u16);
        sim.inject(&f, t)?;
        t += 10_000.0;
    }
    Ok(())
}

/// Measures request/response latency: `n` requests spaced far apart (an
/// unloaded DUT, as the paper's latency runs are), returning the summary
/// in nanoseconds.
fn emu_latency(
    svc: &Service,
    request: fn(u64) -> Frame,
    n: usize,
    warm_mc: bool,
) -> IrResult<Summary> {
    let mut sim = emu_pipeline(svc, CoreMode::Iterative)?;
    if warm_mc {
        warm_memcached(&mut sim)?;
    }
    let t0 = 2_000_000.0;
    // Prime-spaced arrivals vary the clock-grid phase, exposing the
    // (small) alignment jitter a synchronous design has.
    let mut t = t0;
    let warm_records = {
        let r = sim.records().len();
        for i in 0..n as u64 {
            sim.inject(&request(i), t)?;
            t += 9_973.0;
        }
        r
    };
    Summary::of(&pipeline::latencies_ns(&sim.records()[warm_records..]))
        .ok_or_else(|| kiwi_ir::IrError("no completions".into()))
}

/// Measures saturation throughput: requests offered faster than the core
/// can serve, completions counted over the busy interval. Returns
/// requests/s.
fn emu_throughput(
    svc: &Service,
    request: fn(u64) -> Frame,
    n: usize,
    warm_mc: bool,
) -> IrResult<f64> {
    let mut sim = emu_pipeline(svc, CoreMode::Iterative)?;
    if warm_mc {
        warm_memcached(&mut sim)?;
    }
    let skip = sim.records().len();
    // Offer at 8 Mpps across the four ports — beyond any Table 4 service.
    let gap = 125.0;
    let mut t = 2_000_000.0;
    for i in 0..n as u64 {
        sim.inject(&request(i), t)?;
        t += gap;
    }
    pipeline::throughput_pps(&sim.records()[skip..])
        .ok_or_else(|| kiwi_ir::IrError("too few completions".into()))
}

/// Table 3's throughput column: teaches a switch one station per port,
/// then offers `n` 64 B frames at aggregate line rate with egress spread
/// over all four ports; returns achieved Mpps.
fn line_rate_mpps(sim: &mut PipelineSim, n: u64) -> f64 {
    for p in 0..4u8 {
        sim.inject(
            &switch_frame(100 + u64::from(p), 0xEE, p),
            f64::from(p) * 100.0,
        )
        .expect("inject");
    }
    let gap = timing::wire_ns(64) / timing::NUM_PORTS as f64;
    let mut t = 1000.0;
    for i in 0..n {
        let port = (i % 4) as u8;
        let dst = 100 + (u64::from(port) + 1) % 4;
        sim.inject(&switch_frame(100 + u64::from(port), dst, port), t)
            .expect("inject");
        t += gap;
    }
    sim.throughput_pps() / 1e6
}

/// Frames each Table 3 line-rate run offers (the microsecond of table
/// learning before the stream starts is inside the measured interval).
const LINE_RATE_FRAMES: u64 = 20_000;

/// Measures Table 3: the Emu switch against the NetFPGA reference and
/// P4FPGA switches, with §5.3's CAM share and logic ratio.
pub(crate) fn table3() -> IrResult<Vec<Reading>> {
    let svc = switch_ip_cam();
    let fsm = kiwi::compile(&svc.program)?;
    let emu = kiwi::estimate(&fsm, &(svc.make_env)(&TableConfig::default()).resources());
    // Module latency: a learned unicast path.
    let mut inst = svc.engine(Target::Fpga).build()?;
    inst.process(&switch_frame(0xB, 0xA, 1))?;
    inst.process(&switch_frame(0xA, 0xB, 0))?;
    let cycles = inst.process(&switch_frame(0xA, 0xB, 0))?.cycles;
    let mpps = line_rate_mpps(
        &mut emu_pipeline(&svc, CoreMode::Streaming)?,
        LINE_RATE_FRAMES,
    );
    let cam: u64 = emu
        .breakdown
        .iter()
        .filter(|b| b.0.contains("cam"))
        .map(|b| b.1)
        .sum();
    let reference = Baseline::Reference.resources().logic;
    let mut out = vec![
        Reading::of(T3, "Emu", LOGIC, emu.logic as f64),
        Reading::of(T3, "Emu", MEMORY, emu.memory as f64),
        Reading::of(T3, "Emu", LATENCY, cycles as f64),
        Reading::of(T3, "Emu", LINE_RATE, mpps),
        Reading::of(T3, "Emu", CAM_SHARE, 100.0 * cam as f64 / emu.logic as f64),
        Reading::of(T3, "Emu", LOGIC_RATIO, emu.logic as f64 / reference as f64),
    ];
    for (row, design) in [
        ("reference", Baseline::Reference),
        ("P4FPGA", Baseline::P4Fpga),
    ] {
        let (res, cycles) = (design.resources(), design.module_latency_cycles());
        let mpps = line_rate_mpps(&mut PipelineSim::new_native(design), LINE_RATE_FRAMES);
        out.extend([
            Reading::of(T3, row, LOGIC, res.logic as f64),
            Reading::of(T3, row, MEMORY, res.memory as f64),
            Reading::of(T3, row, LATENCY, cycles as f64),
            Reading::of(T3, row, LINE_RATE, mpps),
        ]);
    }
    Ok(out)
}

/// Requests of an Emu latency run, spaced far apart. Model time is
/// deterministic, so a few give the cells a long run reads.
const LATENCY_PROBES: usize = 50;

/// Requests of an Emu throughput run, offered back to back.
const SATURATING_REQUESTS: usize = 1_000;

/// Measures Table 4 — each service on the pipeline simulator and its
/// host profile on the Linux-path model ([`table4_host`]) — and, from
/// the same runs, the §5.6 cells.
pub(crate) fn table4() -> IrResult<Vec<Reading>> {
    let (mut out, host_latency) = table4_host();
    let mut emu_tails = Vec::new();
    for (svc, lat) in table4_services().iter().zip(&host_latency) {
        let (service, warm) = ((svc.build)(), svc.name == "memcached");
        let emu = emu_latency(&service, svc.request, LATENCY_PROBES, warm)?;
        let emu_rps = emu_throughput(&service, svc.request, SATURATING_REQUESTS, warm)?;
        for (column, ours) in [
            (EMU_AVG, emu.mean / 1e3),
            (EMU_P99, emu.p99 / 1e3),
            (EMU_MQPS, emu_rps / 1e6),
        ] {
            out.push(Reading::of(T4, svc.name, column, ours));
        }
        out.push(Reading::of(S56, svc.name, TAIL_SPREAD, emu.p99 - emu.p50));
        out.push(Reading::of(S56, svc.name, MEDIAN_GAP, lat.p50 / emu.p50));
        emu_tails.push(emu.tail_to_average());
    }
    push_tail_span(&mut out, "Emu", &emu_tails);
    Ok(out)
}

/// Measures Table 4's host columns — each [`HostProfile`] on the
/// Linux-path model, 20 000 latency samples (seed 42) and 50 000
/// throughput requests (seed 7) — and §5.6's host tail-to-average span.
/// Also returns each profile's latency summary, in
/// [`HostProfile::all`]'s order, for `table4`'s §5.6 median gap.
pub fn table4_host() -> (Vec<Reading>, Vec<Summary>) {
    let (mut out, mut latency) = (Vec::new(), Vec::new());
    for host in HostProfile::all() {
        let lat = host.latency_run(20_000, 42);
        for (column, ours) in [
            (HOST_AVG, lat.mean / 1e3),
            (HOST_P99, lat.p99 / 1e3),
            (HOST_MQPS, host.throughput_rps(50_000, 7) / 1e6),
        ] {
            out.push(Reading::of(T4, host.name, column, ours));
        }
        latency.push(lat);
    }
    let tails: Vec<f64> = latency.iter().map(Summary::tail_to_average).collect();
    push_tail_span(&mut out, "host", &tails);
    (out, latency)
}

/// Pushes §5.6's lowest and highest tail-to-average ratio of `row`.
fn push_tail_span(out: &mut Vec<Reading>, row: &str, tails: &[f64]) {
    let min = tails.iter().copied().fold(f64::INFINITY, f64::min);
    let max = tails.iter().copied().fold(0.0, f64::max);
    out.push(Reading::of(S56, row, MIN_TAIL, min));
    out.push(Reading::of(S56, row, MAX_TAIL, max));
}

/// Measures Table 5: DNS and memcached extended with the direction
/// controller's +R, +W and +I instructions, each relative to the
/// unextended service. Utilisation is `kiwi::estimate`'s logic for the
/// generated design alone (the IP blocks are the same in every variant).
pub(crate) fn table5() -> IrResult<Vec<Reading>> {
    type Artefact = (
        &'static str,
        fn() -> Service,
        fn(u64) -> Frame,
        &'static [&'static str],
    );
    let artefacts: [Artefact; 2] = [
        (
            "dns",
            || dns::dns_server(bench_zone()),
            dns_request,
            &["hit", "too_long"],
        ),
        (
            "memcached",
            memcached::memcached,
            memcached_request,
            &["n_get", "n_set", "n_hit"],
        ),
    ];
    let mut out = Vec::new();
    for (name, build, request, vars) in artefacts {
        let warm = name == "memcached";
        let measure = |svc: &Service| -> IrResult<[f64; 3]> {
            let logic = kiwi::estimate(&kiwi::compile(&svc.program)?, &[]).logic as f64;
            let p99 = emu_latency(svc, request, LATENCY_PROBES, warm)?.p99;
            Ok([
                logic,
                p99,
                emu_throughput(svc, request, SATURATING_REQUESTS, warm)?,
            ])
        };
        let base = build();
        let base_cells = measure(&base)?;
        for (variant, cfg) in [
            ("+R", ControllerConfig::read_only(vars)),
            ("+W", ControllerConfig::read_write(vars)),
            ("+I", ControllerConfig::read_increment(vars)),
        ] {
            let inner = build();
            let program = extend_program(&base.program, &cfg)?;
            let svc = Service::with_sized_env(program, move |t| (inner.make_env)(t));
            let row = format!("{name}{variant}");
            for (column, (ours, base)) in [UTILISATION, P99, QPS]
                .into_iter()
                .zip(measure(&svc)?.into_iter().zip(base_cells))
            {
                out.push(Reading::of(T5, &row, column, 100.0 * ours / base));
            }
        }
    }
    Ok(out)
}

/// Memcached requests §5.4 offers after the warm-up.
const SCALING_REQUESTS: usize = 4_000;

/// Gap between §5.4's warm-up SETs: far enough apart that each is served
/// before the next, and outside the measured interval either way.
const WARM_GAP_NS: f64 = 5_000.0;

/// Measures §5.4: memcached's four-core speedup.
pub(crate) fn scaling() -> IrResult<Vec<Reading>> {
    let speedup = memcached_rps(4, WARM_GAP_NS)? / memcached_rps(1, WARM_GAP_NS)?;
    let c = &SCALING[0];
    Ok(vec![Reading::of(c.artefact, c.row, c.column, speedup)])
}

/// Memcached's request rate on `cores` cores, one per port, each its
/// own [`PipelineSim`] (§5.4). memaslap's 64 keys are SET on every core
/// `warm_gap_ns` apart; then its 90/10 mix is offered at 10 Mq/s, beyond
/// what the cores serve. A GET goes to its arrival port's core and a
/// SET to every core ("SET requests must be applied to all
/// instances"); a request completes when its last copy leaves. The
/// rate is completions over the span from the first offered request to
/// the last completion, so the warm-up is not measured.
fn memcached_rps(cores: usize, warm_gap_ns: f64) -> IrResult<f64> {
    let svc = memcached::memcached();
    let mut sims = (0..cores)
        .map(|_| emu_pipeline(&svc, CoreMode::Iterative))
        .collect::<IrResult<Vec<_>>>()?;
    let mut gen = Memaslap::new(64, 11);
    let mut t = 0.0;
    for (i, op) in gen.warmup().iter().enumerate() {
        let f = memcached_frame(&op.request_body(), i as u64);
        for sim in &mut sims {
            sim.inject(&f, t)?;
        }
        t += warm_gap_ns;
    }
    let (t_first, mut t_last, mut completions) = (t, t, 0);
    for (i, op) in gen.ops(SCALING_REQUESTS).iter().enumerate() {
        let f = memcached_frame(&op.request_body(), i as u64);
        let port = usize::from(f.in_port) % cores;
        let targets = if op.is_set() {
            0..cores
        } else {
            port..port + 1
        };
        let mut done = Some(t);
        for sim in &mut sims[targets] {
            sim.inject(&f, t)?;
            let out = sim.records().last().and_then(|r| r.t_out_ns);
            done = done.zip(out).map(|(a, b)| a.max(b));
        }
        if let Some(done) = done {
            completions += 1;
            t_last = t_last.max(done);
        }
        t += 100.0;
    }
    Ok(f64::from(completions) / ((t_last - t_first) / 1e9))
}

/// Measures the §5.3 ablation: ICMP echo compiled under each budget of
/// `BUDGETS`, cycles per request against the next looser budget's.
pub(crate) fn ablation() -> IrResult<Vec<Reading>> {
    let cycles = BUDGETS
        .iter()
        .map(|&(_, period_units)| {
            let mut svc = icmp::icmp_echo();
            svc.cost_model = CostModel { period_units };
            let mut inst = svc.engine(Target::Fpga).build()?;
            Ok(inst.process(&icmp::echo_request_frame(56, 1))?.cycles as f64)
        })
        .collect::<IrResult<Vec<f64>>>()?;
    Ok((1..BUDGETS.len())
        .map(|k| Reading::of("§5.3", BUDGETS[k].0, CYCLES_RISE, cycles[k] / cycles[k - 1]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// [`readings`], measured once and shared by every test here.
    fn measured() -> &'static [Reading] {
        static READINGS: OnceLock<Vec<Reading>> = OnceLock::new();
        READINGS.get_or_init(|| readings().unwrap())
    }

    /// Holds every reading whose cell is `wanted` to the cell's check,
    /// or — a recorded deviation — to within `DEVIATION_TOLERANCE` of
    /// our recorded reading; returns how many it held. (`-- --nocapture`
    /// prints the readings.)
    fn hold(wanted: impl Fn(&Cell) -> bool) -> usize {
        let held: Vec<&Reading> = measured().iter().filter(|r| wanted(r.cell)).collect();
        for r in &held {
            let c = r.cell;
            println!("{} · {} · {}: {}", c.artefact, c.row, c.column, r.ours);
        }
        let failures: Vec<String> = held.iter().filter_map(|r| r.verdict().err()).collect();
        assert!(failures.is_empty(), "{failures:#?}");
        held.len()
    }

    #[test]
    fn every_paper_cell_holds() {
        // Every cell of `PAPER` read exactly once and held, and every
        // recorded deviation names a cell.
        assert_eq!(hold(|_| true), cells().count());
        for c in cells() {
            let n = measured().iter().filter(|r| r.cell == c).count();
            assert_eq!(
                n, 1,
                "{} · {} · {} read {n} times",
                c.artefact, c.row, c.column
            );
        }
        for d in &DEVIATIONS {
            let of = |c: &Cell| (c.artefact, c.row, c.column) == (d.artefact, d.row, d.column);
            assert!(cells().any(of), "{d:?}: no such cell");
        }
    }

    #[test]
    fn table3_stays_near_the_paper() {
        // Line rate within 1 %, the reference's 6 and P4FPGA's 85 cycles
        // exact, the Emu/reference logic ratio within 8 %.
        assert_eq!(hold(|c| c.artefact == T3), TABLE3.len());
    }

    #[test]
    fn table4_stays_near_the_paper() {
        assert_eq!(hold(|c| c.artefact == T4), TABLE4.len());
    }

    #[test]
    fn scaling_does_not_time_the_warm_up() {
        // Stretching the gap between §5.4's warm-up SETs tenfold must not
        // move the speedup: the warm-up is outside the measured interval.
        let speedup = |gap| memcached_rps(4, gap).unwrap() / memcached_rps(1, gap).unwrap();
        let (short, long) = (speedup(WARM_GAP_NS), speedup(10.0 * WARM_GAP_NS));
        assert!(near(long, short, 0.01), "{short:.3}x vs {long:.3}x");
    }

    #[test]
    fn emu_throughput_exceeds_host_for_every_service() {
        let cell = |row: &str, column: &str| {
            let r = measured()
                .iter()
                .find(|r| (r.cell.row, r.cell.column) == (row, column));
            r.expect(column).ours
        };
        for svc in table4_services() {
            let (emu, host) = (cell(svc.name, EMU_MQPS), cell(svc.name, HOST_MQPS));
            assert!(emu > host, "{}: emu {emu} ≤ host {host} Mq/s", svc.name);
        }
    }

    #[test]
    fn warm_memcached_populates_store() {
        let svc = emu_services::memcached();
        let mut sim = emu_pipeline(&svc, CoreMode::Iterative).unwrap();
        warm_memcached(&mut sim).unwrap();
        // A GET for a warmed key must produce a VALUE reply.
        let f = emu_services::memcached::request_frame("get k0003\r\n", 1);
        sim.inject(&f, 1e7).unwrap();
        let last = sim.records().last().unwrap();
        assert!(last.t_out_ns.is_some());
    }
}
