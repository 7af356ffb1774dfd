//! The host receive/transmit path model.
//!
//! §5.2 of the paper: host services run on a 3.5 GHz Xeon E5-2637 v4
//! under Ubuntu 14.04 (kernel 3.13) behind an Intel 82599ES 10 GbE NIC,
//! pinned to a core with a warm cache for latency runs and configured for
//! maximum throughput (multiple cores) for throughput runs.
//!
//! A request traverses explicit stages — NIC DMA, interrupt, softirq /
//! driver, IP + L4 stack, socket wake-up, application, transmit stack,
//! NIC TX — each with a lognormal service time. The stage means follow
//! the breakdown in the authors' own measurement study ("Where has my
//! time gone?", PAM 2017, reference 50 of the paper); the shape
//! parameters are calibrated per service so that the *averages and tail
//! ratios* of Table 4 are reproduced. The scheduler/wake-up stage
//! carries most of the variance, which is where Linux tail latency
//! physically comes from.
//!
//! Every profile is a calibration, not a measurement: each constructor
//! says which paper cells its figures were fitted to, and `emu_bench`'s
//! gate (`every_paper_cell_holds`) pins them there — the host columns
//! of Table 4 within 10 % and §5.6's host tail-to-average span — at
//! 20 000 latency samples (seed 42) and 50 000 throughput requests
//! (seed 7). A profile change that moves a cell fails that gate.
//!
//! NAT is special: the paper measures it as a loaded gateway (its host
//! throughput column, 1.037 Mq/s, implies near-saturation), so its
//! dominant stage is gateway queueing in the kernel forwarding path —
//! ms-scale, exactly as Table 4 reports.

use crate::rng::lognormal_mean;
use emu_types::Summary;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One pipeline stage: a name, a mean (µs), and a lognormal shape.
#[derive(Debug, Clone)]
pub struct Stage {
    /// Stage name (reported in breakdowns).
    pub name: &'static str,
    /// Mean service time in µs.
    pub mean_us: f64,
    /// Lognormal shape (0 = deterministic-ish, 0.5 = heavy-tailed).
    pub sigma: f64,
}

/// A host service's path profile plus its throughput characteristics.
#[derive(Debug, Clone)]
pub struct HostProfile {
    /// Service name.
    pub name: &'static str,
    /// Receive → application → transmit stages.
    pub stages: Vec<Stage>,
    /// Per-request CPU cost in µs (determines saturation throughput).
    pub cpu_cost_us: f64,
    /// Cores used in the paper's throughput configuration (§5.2: "the
    /// server is configured to achieve maximum throughput").
    pub throughput_cores: usize,
}

fn stage(name: &'static str, mean_us: f64, sigma: f64) -> Stage {
    Stage {
        name,
        mean_us,
        sigma,
    }
}

/// Common kernel receive stages (NIC → socket), with the tail
/// concentrated in the IRQ and wake-up stages. The means follow
/// reference 50's breakdown; the shapes are a modelling choice, fitted
/// with each profile's own stages to its Table 4 row.
fn rx_stages(wake_sigma: f64) -> Vec<Stage> {
    vec![
        stage("nic-dma", 1.1, 0.10),
        stage("irq", 2.2, 0.45),
        stage("softirq-driver", 1.6, 0.25),
        stage("ip-l4-stack", 1.3, 0.20),
        stage("socket-wake", 2.4, wake_sigma),
    ]
}

fn tx_stages() -> Vec<Stage> {
    vec![stage("tx-stack", 1.4, 0.20), stage("nic-tx", 0.9, 0.10)]
}

impl HostProfile {
    /// ICMP echo: handled entirely in the kernel (no socket/app stages).
    ///
    /// Fitted to Table 4's ICMP echo host cells, 12.28 / 22.63 µs
    /// (the `icmp-kernel` stage) and 1.068 Mq/s (`cpu_cost_us`); pinned
    /// by the gate cells Table 4 · icmp-echo · host avg, p99, throughput.
    pub fn icmp() -> Self {
        let mut stages = vec![
            stage("nic-dma", 1.1, 0.10),
            stage("irq", 2.6, 0.60),
            stage("softirq-driver", 1.8, 0.30),
            stage("icmp-kernel", 4.5, 0.55),
        ];
        stages.extend(tx_stages());
        HostProfile {
            name: "icmp-echo",
            stages,
            cpu_cost_us: 0.93,
            throughput_cores: 1,
        }
    }

    /// TCP ping: kernel TCP SYN processing; listen-queue locking gives it
    /// the widest tail of the request/response services (paper ratio 2.98).
    ///
    /// Fitted to Table 4's TCP ping host cells, 21.79 / 65.00 µs and
    /// 1.012 Mq/s, and its SYN and wake-up shapes to §5.6's highest host
    /// tail-to-average, 2.98; pinned by Table 4 · tcp-ping · host avg,
    /// p99, throughput and §5.6 · host · highest tail-to-average.
    pub fn tcp_ping() -> Self {
        let mut stages = rx_stages(0.9);
        stages.insert(4, stage("tcp-syn-handling", 9.5, 0.85));
        stages.extend(tx_stages());
        HostProfile {
            name: "tcp-ping",
            stages,
            cpu_cost_us: 0.97,
            throughput_cores: 1,
        }
    }

    /// DNS: a user-space resolver (the app stage dominates; its per-query
    /// work is long but *regular*, hence the paper's tight 1.09 ratio).
    ///
    /// Fitted to Table 4's DNS host cells, 126.46 / 138.33 µs and
    /// 0.226 Mq/s, and the resolver's shape to §5.6's lowest host
    /// tail-to-average, 1.09; pinned by Table 4 · dns · host avg, p99,
    /// throughput and §5.6 · host · lowest tail-to-average.
    pub fn dns() -> Self {
        let mut stages = rx_stages(0.30);
        stages.push(stage("syscall-recv", 2.1, 0.15));
        stages.push(stage("resolver-app", 112.0, 0.035));
        stages.push(stage("syscall-send", 2.0, 0.15));
        stages.extend(tx_stages());
        HostProfile {
            name: "dns",
            stages,
            cpu_cost_us: 4.42,
            throughput_cores: 1,
        }
    }

    /// NAT: the kernel forwarding path of a *loaded* gateway — per-packet
    /// conntrack work is sub-µs, latency is gateway queueing.
    ///
    /// The queueing stage is a modelling choice fitted to Table 4's NAT
    /// host cells, 2444.76 / 6185.27 µs and 1.037 Mq/s; pinned by
    /// Table 4 · nat · host avg, p99, throughput.
    pub fn nat() -> Self {
        HostProfile {
            name: "nat",
            stages: vec![
                stage("nic-dma", 1.1, 0.10),
                stage("gateway-queue", 2430.0, 0.44),
                stage("conntrack-forward", 8.5, 0.40),
                stage("nic-tx", 0.9, 0.10),
            ],
            cpu_cost_us: 0.96,
            throughput_cores: 1,
        }
    }

    /// Memcached: 4 worker threads, UDP + ASCII (§5.4's setup).
    ///
    /// Fitted to Table 4's memcached host cells, 24.29 µs and 0.876 Mq/s
    /// (pinned by Table 4 · memcached · host avg, throughput); its p99
    /// reads 35.15 µs against the paper's 28.65, a recorded deviation.
    pub fn memcached() -> Self {
        let mut stages = rx_stages(0.38);
        stages.push(stage("syscall-recv", 2.2, 0.18));
        stages.push(stage("memcached-app", 11.5, 0.22));
        stages.push(stage("syscall-send", 2.1, 0.18));
        stages.extend(tx_stages());
        HostProfile {
            name: "memcached",
            stages,
            cpu_cost_us: 4.56,
            throughput_cores: 4,
        }
    }

    /// All five Table 4 profiles.
    pub fn all() -> Vec<HostProfile> {
        vec![
            Self::icmp(),
            Self::tcp_ping(),
            Self::dns(),
            Self::nat(),
            Self::memcached(),
        ]
    }

    /// Samples one request's latency in µs.
    pub(crate) fn sample_latency_us(&self, rng: &mut StdRng) -> f64 {
        self.stages
            .iter()
            .map(|s| lognormal_mean(rng, s.mean_us, s.sigma))
            .sum()
    }

    /// Runs the paper's latency experiment: `n` request/response pairs
    /// (§5.2 uses 100 K), returning the latency summary in nanoseconds
    /// (to match the pipeline simulator's units).
    pub fn latency_run(&self, n: usize, seed: u64) -> Summary {
        let mut rng = StdRng::seed_from_u64(seed);
        let samples: Vec<f64> = (0..n)
            .map(|_| self.sample_latency_us(&mut rng) * 1000.0)
            .collect();
        Summary::of(&samples).expect("n > 0")
    }

    /// Saturation throughput in requests/s: a closed-loop run over
    /// `throughput_cores` workers, each consuming `cpu_cost_us` (with
    /// small lognormal noise) per request.
    pub fn throughput_rps(&self, requests: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut core_busy_us = vec![0.0f64; self.throughput_cores];
        for i in 0..requests {
            // Least-loaded dispatch, as RSS/SO_REUSEPORT spreads flows.
            let c = (0..core_busy_us.len())
                .min_by(|&a, &b| {
                    core_busy_us[a]
                        .partial_cmp(&core_busy_us[b])
                        .expect("no NaN")
                })
                .expect("at least one core");
            let _ = i;
            core_busy_us[c] += lognormal_mean(&mut rng, self.cpu_cost_us, 0.05);
        }
        let makespan = core_busy_us.iter().cloned().fold(0.0f64, f64::max);
        requests as f64 / (makespan / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emu_bench::{Cell, Reading};
    use std::sync::OnceLock;

    /// The paper gate's readings of this crate's cells — Table 4's host
    /// columns and §5.6's host tail-to-average span — measured once by
    /// `emu_bench::table4_host`, the function `every_paper_cell_holds`
    /// takes them from.
    fn gate_readings() -> &'static [Reading] {
        static READINGS: OnceLock<Vec<Reading>> = OnceLock::new();
        READINGS.get_or_init(|| emu_bench::table4_host().0)
    }

    /// Holds every gate reading whose cell is `wanted` to the cell's
    /// check (or its recorded deviation); returns how many it held.
    fn hold(wanted: impl Fn(&Cell) -> bool) -> usize {
        let held: Vec<&Reading> = gate_readings().iter().filter(|r| wanted(r.cell)).collect();
        let failures: Vec<String> = held.iter().filter_map(|r| r.verdict().err()).collect();
        assert!(failures.is_empty(), "{failures:#?}");
        held.len()
    }

    /// Whether `cell` is Table 4's `column` for one of [`HostProfile::all`].
    fn host_column(cell: &Cell, column: &str) -> bool {
        let profiles = HostProfile::all();
        cell.artefact == "Table 4"
            && cell.column == column
            && profiles.iter().any(|p| p.name == cell.row)
    }

    #[test]
    fn latency_lands_near_paper_values() {
        let n = hold(|c| host_column(c, "host avg (µs)") || host_column(c, "host p99 (µs)"));
        assert_eq!(n, 2 * HostProfile::all().len());
    }

    #[test]
    fn throughput_lands_near_paper_values() {
        let n = hold(|c| host_column(c, "host throughput (Mq/s)"));
        assert_eq!(n, HostProfile::all().len());
    }

    #[test]
    fn tail_ratios_match_section_5_6() {
        // §5.6: host tail-to-average varies from 1.09 to 2.98.
        let n = hold(|c| c.artefact == "§5.6" && c.row == "host");
        assert_eq!(n, 2);
    }

    #[test]
    fn breakdown_sums_to_latency_scale() {
        let p = HostProfile::memcached();
        let mut rng = StdRng::seed_from_u64(1);
        let total = p.sample_latency_us(&mut rng);
        assert!(total > 10.0 && total < 100.0, "total {total}");
        assert!(p.stages.iter().any(|s| s.name == "memcached-app"));
    }

    #[test]
    fn runs_are_reproducible_by_seed() {
        let p = HostProfile::dns();
        let a = p.latency_run(1000, 3);
        let b = p.latency_run(1000, 3);
        assert_eq!(a.mean, b.mean);
        let c = p.latency_run(1000, 4);
        assert_ne!(a.mean, c.mean);
    }
}
