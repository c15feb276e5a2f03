//! The logistic sigmoid, in the form IRLS shares one `exp` through.

/// Numerically stable logistic sigmoid `1 / (1 + e^{-z})`.
#[must_use]
pub(crate) fn sigmoid(z: f64) -> f64 {
    sigmoid_from_exp(z, (-z.abs()).exp())
}

/// [`sigmoid`] of `z` given `e = exp(−|z|)` — the one transcendental both
/// branches of the stable form need (`−|z|` is `−z` for `z ≥ 0` and `z`
/// below). IRLS evaluates `e` once per row per point and reads both the
/// objective's `ln(1 + eᶻ)` and the Newton pass's `σ(z)` off it.
#[must_use]
pub(crate) fn sigmoid_from_exp(z: f64, e: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + e)
    } else {
        e / (1.0 + e)
    }
}

/// The two-branch form [`sigmoid`] had before it was factored through
/// [`sigmoid_from_exp`] — `exp(−z)` above zero, `exp(z)` below — kept as
/// the oracle for it and for the IRLS reference in `logistic.rs`.
#[cfg(test)]
pub(crate) mod reference {
    pub(crate) fn sigmoid(z: f64) -> f64 {
        if z >= 0.0 {
            1.0 / (1.0 + (-z).exp())
        } else {
            let e = z.exp();
            e / (1.0 + e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sigmoid_midpoint_and_limits() {
        assert_eq!(sigmoid(0.0), 0.5);
        assert!(sigmoid(40.0) > 0.999_999);
        assert!(sigmoid(-40.0) < 1e-6);
        assert!(sigmoid(-800.0) >= 0.0); // no underflow panic
        assert!(sigmoid(800.0) <= 1.0);
    }

    #[test]
    fn sigmoid_from_exp_is_the_reference_sigmoid_bit_for_bit() {
        // Signed zeros, subnormals, where `1 + e` stops rounding to 1
        // (36.8), where `exp` leaves the normal range (709.8) and where
        // it underflows to zero (745.2), and the infinities.
        let mut sweep = vec![0.0, f64::MIN_POSITIVE, 5e-324, 1e-310, f64::INFINITY];
        sweep.extend([36.8, 709.8, 745.2].iter().flat_map(|&edge: &f64| {
            let ulp = f64::from_bits(edge.to_bits() + 1) - edge;
            (-8..=8).map(move |k| edge + f64::from(k) * ulp)
        }));
        sweep.extend((0..4000).map(|i| f64::from(i) * 0.1873 + 1e-3));
        for z in sweep.iter().flat_map(|&z| [z, -z]) {
            let e = (-z.abs()).exp();
            let expected = reference::sigmoid(z).to_bits();
            assert_eq!(sigmoid_from_exp(z, e).to_bits(), expected, "z = {z:e}");
            assert_eq!(sigmoid(z).to_bits(), expected, "z = {z:e}");
        }
    }

    proptest! {
        /// Sigmoid is monotone and bounded.
        #[test]
        fn prop_sigmoid_monotone(a in -50.0..50.0f64, b in -50.0..50.0f64) {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            prop_assert!(sigmoid(lo) <= sigmoid(hi));
            prop_assert!((0.0..=1.0).contains(&sigmoid(a)));
        }
    }
}
