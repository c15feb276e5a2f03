//! Small metric helpers shared across crates.

/// Numerically stable logistic sigmoid `1 / (1 + e^{-z})`.
#[must_use]
pub fn sigmoid(z: f64) -> f64 {
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

/// Mean squared error between aligned slices.
///
/// # Panics
///
/// Panics if lengths differ or inputs are empty.
#[must_use]
pub fn mean_squared_error(truth: &[f64], pred: &[f64]) -> f64 {
    assert_eq!(truth.len(), pred.len(), "length mismatch");
    assert!(!truth.is_empty(), "empty inputs");
    truth
        .iter()
        .zip(pred)
        .map(|(t, p)| (t - p) * (t - p))
        .sum::<f64>()
        / truth.len() as f64
}

/// Mean absolute error between aligned slices.
///
/// # Panics
///
/// Panics if lengths differ or inputs are empty.
#[must_use]
pub fn mean_absolute_error(truth: &[f64], pred: &[f64]) -> f64 {
    assert_eq!(truth.len(), pred.len(), "length mismatch");
    assert!(!truth.is_empty(), "empty inputs");
    truth
        .iter()
        .zip(pred)
        .map(|(t, p)| (t - p).abs())
        .sum::<f64>()
        / truth.len() as f64
}

/// Fraction of exactly matching labels.
///
/// # Panics
///
/// Panics if lengths differ or inputs are empty.
#[must_use]
pub fn accuracy(truth: &[f64], pred: &[f64]) -> f64 {
    assert_eq!(truth.len(), pred.len(), "length mismatch");
    assert!(!truth.is_empty(), "empty inputs");
    let hits = truth.iter().zip(pred).filter(|(t, p)| t == p).count();
    hits as f64 / truth.len() as f64
}

/// Binary F1 score for `{0, 1}` labels (positive class = `1`); `0.0` when
/// there are no predicted or true positives.
///
/// # Panics
///
/// Panics if lengths differ.
#[must_use]
pub fn f1_score(truth: &[f64], pred: &[f64]) -> f64 {
    assert_eq!(truth.len(), pred.len(), "length mismatch");
    let mut tp = 0.0;
    let mut fp = 0.0;
    let mut fne = 0.0;
    for (&t, &p) in truth.iter().zip(pred) {
        match (t == 1.0, p == 1.0) {
            (true, true) => tp += 1.0,
            (false, true) => fp += 1.0,
            (true, false) => fne += 1.0,
            (false, false) => {}
        }
    }
    if tp == 0.0 {
        return 0.0;
    }
    let precision = tp / (tp + fp);
    let recall = tp / (tp + fne);
    2.0 * precision * recall / (precision + recall)
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

    #[test]
    fn mse_mae_fixture() {
        let t = [1.0, 2.0, 3.0];
        let p = [1.0, 3.0, 1.0];
        assert!((mean_squared_error(&t, &p) - 5.0 / 3.0).abs() < 1e-12);
        assert!((mean_absolute_error(&t, &p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accuracy_fixture() {
        assert_eq!(accuracy(&[1.0, 0.0, 1.0], &[1.0, 1.0, 1.0]), 2.0 / 3.0);
    }

    #[test]
    fn f1_perfect_and_degenerate() {
        assert_eq!(f1_score(&[1.0, 0.0], &[1.0, 0.0]), 1.0);
        assert_eq!(f1_score(&[0.0, 0.0], &[0.0, 0.0]), 0.0);
        assert_eq!(f1_score(&[1.0, 1.0], &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn f1_known_value() {
        // tp=1, fp=1, fn=1 → precision=recall=0.5 → F1=0.5.
        let truth = [1.0, 1.0, 0.0, 0.0];
        let pred = [1.0, 0.0, 1.0, 0.0];
        assert!((f1_score(&truth, &pred) - 0.5).abs() < 1e-12);
    }

    proptest! {
        /// Sigmoid is monotone and bounded.
        #[test]
        fn prop_sigmoid_monotone(a in -50.0..50.0f64, b in -50.0..50.0f64) {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            prop_assert!(sigmoid(lo) <= sigmoid(hi));
            prop_assert!((0.0..=1.0).contains(&sigmoid(a)));
        }

        /// F1 is within [0, 1].
        #[test]
        fn prop_f1_bounded(labels in proptest::collection::vec(0u8..2, 1..32),
                           preds in proptest::collection::vec(0u8..2, 1..32)) {
            let n = labels.len().min(preds.len());
            let t: Vec<f64> = labels[..n].iter().map(|&v| v as f64).collect();
            let p: Vec<f64> = preds[..n].iter().map(|&v| v as f64).collect();
            let f1 = f1_score(&t, &p);
            prop_assert!((0.0..=1.0).contains(&f1));
        }
    }
}
