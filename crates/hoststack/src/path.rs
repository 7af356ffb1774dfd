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
//! ratios* of Table 4 are reproduced (`emu-bench`'s `table4` and `tails`
//! bins print measured vs paper values). The scheduler/wake-up stage
//! carries most of the variance, which is where Linux tail latency
//! physically comes from.
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
/// concentrated in the IRQ and wake-up stages.
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
    pub fn sample_latency_us(&self, rng: &mut StdRng) -> f64 {
        self.stages
            .iter()
            .map(|s| lognormal_mean(rng, s.mean_us, s.sigma))
            .sum()
    }

    /// Samples one request with a per-stage breakdown (µs).
    pub fn sample_breakdown(&self, rng: &mut StdRng) -> Vec<(&'static str, f64)> {
        self.stages
            .iter()
            .map(|s| (s.name, lognormal_mean(rng, s.mean_us, s.sigma)))
            .collect()
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

    /// Paper Table 4 host column: (avg µs, p99 µs, Mq/s).
    const PAPER: [(&str, f64, f64, f64); 5] = [
        ("icmp-echo", 12.28, 22.63, 1.068),
        ("tcp-ping", 21.79, 65.00, 1.012),
        ("dns", 126.46, 138.33, 0.226),
        ("nat", 2444.76, 6185.27, 1.037),
        ("memcached", 24.29, 28.65, 0.876),
    ];

    #[test]
    fn latency_lands_near_paper_values() {
        for (profile, (name, avg, p99, _)) in HostProfile::all().iter().zip(PAPER) {
            assert_eq!(profile.name, name);
            let s = profile.latency_run(100_000, 42);
            let mean_us = s.mean / 1000.0;
            let p99_us = s.p99 / 1000.0;
            assert!(
                (mean_us - avg).abs() / avg < 0.25,
                "{name}: mean {mean_us:.2} vs paper {avg}"
            );
            assert!(
                (p99_us - p99).abs() / p99 < 0.35,
                "{name}: p99 {p99_us:.2} vs paper {p99}"
            );
        }
    }

    #[test]
    fn throughput_lands_near_paper_values() {
        for (profile, (name, _, _, mqps)) in HostProfile::all().iter().zip(PAPER) {
            let got = profile.throughput_rps(200_000, 7) / 1e6;
            assert!(
                (got - mqps).abs() / mqps < 0.15,
                "{name}: {got:.3} Mq/s vs paper {mqps}"
            );
        }
    }

    #[test]
    fn tail_ratios_match_section_5_6() {
        // §5.6: host tail-to-average varies from 1.09 to 2.98.
        let mut ratios: Vec<f64> = HostProfile::all()
            .iter()
            .map(|p| p.latency_run(100_000, 11).tail_to_average())
            .collect();
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        assert!(
            ratios[0] > 1.0 && ratios[0] < 1.2,
            "min ratio {}",
            ratios[0]
        );
        assert!(
            ratios[ratios.len() - 1] > 2.0 && ratios[ratios.len() - 1] < 3.6,
            "max ratio {}",
            ratios[ratios.len() - 1]
        );
    }

    #[test]
    fn breakdown_sums_to_latency_scale() {
        let p = HostProfile::memcached();
        let mut rng = StdRng::seed_from_u64(1);
        let bd = p.sample_breakdown(&mut rng);
        let total: f64 = bd.iter().map(|(_, us)| us).sum();
        assert!(total > 10.0 && total < 100.0, "total {total}");
        assert!(bd.iter().any(|(n, _)| *n == "memcached-app"));
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
