//! Random samplers for the host-path model.
//!
//! Only `rand`'s uniform source is taken as a dependency; the normal and
//! lognormal transforms are implemented here (Box–Muller) and unit-tested against their analytic moments, so
//! the latency distributions are fully auditable.

use rand::Rng;

/// Standard normal via Box–Muller.
pub(crate) fn normal<R: Rng>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    mean + sigma * z
}

/// Lognormal with *location* `mu` and *shape* `sigma` (parameters of the
/// underlying normal): mean = exp(mu + sigma²/2).
pub(crate) fn lognormal<R: Rng>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Lognormal parameterized by its own mean and the shape `sigma`.
///
/// Useful for calibration: the mean is what Table 4 reports, the shape
/// controls the p99/mean tail ratio (§5.6).
pub(crate) fn lognormal_mean<R: Rng>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
    let mu = mean.ln() - sigma * sigma / 2.0;
    lognormal(rng, mu, sigma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn moments(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let xs: Vec<f64> = (0..200_000).map(|_| normal(&mut rng, 5.0, 2.0)).collect();
        let (m, v) = moments(&xs);
        assert!((m - 5.0).abs() < 0.05, "mean {m}");
        assert!((v - 4.0).abs() < 0.1, "var {v}");
    }

    #[test]
    fn lognormal_mean_is_calibrated() {
        let mut rng = StdRng::seed_from_u64(2);
        for target in [12.28, 126.46, 2444.76] {
            let xs: Vec<f64> = (0..200_000)
                .map(|_| lognormal_mean(&mut rng, target, 0.4))
                .collect();
            let (m, _) = moments(&xs);
            assert!(
                (m - target).abs() / target < 0.02,
                "target {target} got {m}"
            );
        }
    }

    #[test]
    fn lognormal_tail_ratio_grows_with_sigma() {
        let mut rng = StdRng::seed_from_u64(3);
        let ratio = |sigma: f64, rng: &mut StdRng| {
            let mut xs: Vec<f64> = (0..100_000)
                .map(|_| lognormal_mean(rng, 100.0, sigma))
                .collect();
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let s = emu_types::Summary::of(&xs).unwrap();
            s.tail_to_average()
        };
        let tight = ratio(0.05, &mut rng);
        let heavy = ratio(0.5, &mut rng);
        assert!(tight < 1.15, "tight {tight}");
        assert!(heavy > 2.0, "heavy {heavy}");
    }

    #[test]
    fn samplers_are_positive() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10_000 {
            assert!(lognormal(&mut rng, 0.0, 1.0) > 0.0);
        }
    }
}
