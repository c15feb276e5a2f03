//! Distribution samplers built on `rand`'s uniform source.
//!
//! `rand_distr` is not in the sanctioned dependency set, so the handful of
//! distributions the generator needs are implemented directly.

use rand::Rng;

/// Sample from `N(mu, sigma²)` via the Box–Muller transform.
///
/// # Panics
///
/// Panics if `sigma` is negative.
pub(crate) fn normal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    assert!(sigma >= 0.0, "sigma must be non-negative");
    // Guard against ln(0).
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    mu + sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Sample from a log-normal with median 1 and log-space standard deviation
/// `sigma`: a multiplicative noise factor.
///
/// # Panics
///
/// Panics if `sigma` is negative.
pub(crate) fn lognormal<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> f64 {
    normal(rng, 0.0, sigma).exp()
}

/// Uniform sample in `[lo, hi)` (degenerate `lo == hi` returns `lo`).
///
/// # Panics
///
/// Panics if `lo > hi`.
pub(crate) fn uniform<R: Rng + ?Sized>(rng: &mut R, lo: f64, hi: f64) -> f64 {
    assert!(lo <= hi, "lo must not exceed hi");
    if lo == hi {
        lo
    } else {
        rng.gen_range(lo..hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let samples: Vec<f64> = (0..20_000).map(|_| normal(&mut r, 3.0, 2.0)).collect();
        let mean = nurd_data_free_mean(&samples);
        let var =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / samples.len() as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn lognormal_median_is_close() {
        let mut r = rng();
        let mut samples: Vec<f64> = (0..20_001).map(|_| lognormal(&mut r, 0.5)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!((median - 1.0).abs() < 0.05, "median {median}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn uniform_bounds_and_degenerate() {
        let mut r = rng();
        for _ in 0..100 {
            let v = uniform(&mut r, 2.0, 3.0);
            assert!((2.0..3.0).contains(&v));
        }
        assert_eq!(uniform(&mut r, 5.0, 5.0), 5.0);
    }

    #[test]
    #[should_panic(expected = "sigma must be non-negative")]
    fn normal_rejects_negative_sigma() {
        let _ = normal(&mut rng(), 0.0, -1.0);
    }

    fn nurd_data_free_mean(xs: &[f64]) -> f64 {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}
