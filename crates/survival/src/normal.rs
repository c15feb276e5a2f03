//! Standard normal density and distribution functions.

use std::f64::consts::PI;

/// Standard normal density φ(z).
#[must_use]
pub(crate) fn normal_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * PI).sqrt()
}

/// Standard normal CDF Φ(z) via the Abramowitz–Stegun 7.1.26 rational
/// approximation of `erf` (absolute error < 1.5e-7).
#[must_use]
fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Inverse Mills ratio λ(z) = φ(z)/Φ(z), numerically stable in the left
/// tail.
///
/// The rational `erf` approximation has ~1.5e-7 *absolute* error, which
/// swamps Φ(z) beyond z ≈ −4; from there the three-term asymptotic series
/// `λ(z) = −z / (1 − 1/z² + 3/z⁴ − 15/z⁶)` takes over (relative error
/// < 0.2% at the switch, vanishing further out).
#[must_use]
pub(crate) fn inverse_mills(z: f64) -> f64 {
    if z < -4.0 {
        -z / tail_series(z)
    } else {
        let cdf = normal_cdf(z).max(1e-300);
        normal_pdf(z) / cdf
    }
}

/// `ln Φ(z)`, stable in the left tail via
/// `ln Φ(z) ≈ ln φ(z) − ln(−z) + ln(series)` for `z < −4`.
#[must_use]
pub(crate) fn log_normal_cdf(z: f64) -> f64 {
    if z < -4.0 {
        -0.5 * z * z - 0.5 * (2.0 * PI).ln() - (-z).ln() + tail_series(z).ln()
    } else {
        normal_cdf(z).max(1e-300).ln()
    }
}

/// Truncated asymptotic series `1 − 1/z² + 3/z⁴ − 15/z⁶` of
/// `Φ(z)·(−z)/φ(z)` for z → −∞.
fn tail_series(z: f64) -> f64 {
    let z2 = z * z;
    1.0 - 1.0 / z2 + 3.0 / (z2 * z2) - 15.0 / (z2 * z2 * z2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cdf_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.959_964) - 0.975).abs() < 1e-5);
        assert!((normal_cdf(-1.959_964) - 0.025).abs() < 1e-5);
        assert!(normal_cdf(8.0) > 0.999_999);
        assert!(normal_cdf(-8.0) < 1e-6);
    }

    #[test]
    fn pdf_known_values() {
        assert!((normal_pdf(0.0) - 0.398_942_28).abs() < 1e-7);
        assert!((normal_pdf(1.0) - 0.241_970_72).abs() < 1e-7);
    }

    #[test]
    fn mills_ratio_tail_behavior() {
        // λ(z) ≈ −z for very negative z.
        assert!((inverse_mills(-20.0) - 20.0).abs() < 0.1);
        // λ(0) = φ(0)/0.5 ≈ 0.7979.
        assert!((inverse_mills(0.0) - 0.797_884_56).abs() < 1e-5);
    }

    #[test]
    fn mills_ratio_is_continuous_at_the_asymptotic_switch() {
        // Values just above and below the switch must agree closely, or
        // the Tobit gradients jump mid-optimization.
        let below = inverse_mills(-4.0 - 1e-6);
        let above = inverse_mills(-4.0 + 1e-6);
        assert!((below - above).abs() < 0.05, "{below} vs {above}");
        // Spot-check against high-precision reference values.
        assert!((inverse_mills(-4.5) - 4.704).abs() < 0.01);
        assert!((inverse_mills(-8.0) - 8.121).abs() < 0.01);
    }

    #[test]
    fn log_cdf_matches_direct_in_the_safe_region() {
        for z in [-3.5, -2.0, 0.0, 1.5, 4.0] {
            let direct = normal_cdf(z).ln();
            assert!((log_normal_cdf(z) - direct).abs() < 1e-6, "z = {z}");
        }
        // Reference value in the tail: ln Φ(−6) ≈ ln(9.8659e-10) ≈ −20.737.
        assert!((log_normal_cdf(-6.0) - (-20.737)).abs() < 0.01);
    }

    #[test]
    fn log_cdf_is_finite_and_monotone_deep_in_the_tail() {
        let mut prev = f64::NEG_INFINITY;
        for i in 0..60 {
            let z = -30.0 + i as f64;
            let v = log_normal_cdf(z);
            assert!(v.is_finite(), "log cdf not finite at {z}");
            assert!(v >= prev, "log cdf not monotone at {z}");
            prev = v;
        }
    }

    proptest! {
        /// CDF is monotone and within [0, 1].
        #[test]
        fn prop_cdf_monotone(a in -30.0..30.0f64, b in -30.0..30.0f64) {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            prop_assert!(normal_cdf(lo) <= normal_cdf(hi) + 1e-12);
            prop_assert!((0.0..=1.0).contains(&normal_cdf(a)));
        }

        /// Symmetry: Φ(z) + Φ(−z) = 1.
        #[test]
        fn prop_cdf_symmetric(z in -8.0..8.0f64) {
            prop_assert!((normal_cdf(z) + normal_cdf(-z) - 1.0).abs() < 1e-6);
        }

        /// Mills ratio is positive and finite everywhere we use it.
        #[test]
        fn prop_mills_positive(z in -40.0..10.0f64) {
            let m = inverse_mills(z);
            prop_assert!(m > 0.0 && m.is_finite());
        }
    }
}
