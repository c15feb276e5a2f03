//! Distribution compensation: the centroid ratio ρ and calibration term δ
//! (Algorithm 1, lines 4–6).

/// Computes the latency indicator `ρ = ‖c_fin‖₂ / ‖c_run − c_fin‖₂` from
/// the feature matrices of finished and running tasks at the first
/// prediction checkpoint.
///
/// Features are normalized before the centroids are taken: each column is
/// centered on its **median** over finished ∪ running and scaled by its
/// standard deviation. The paper does not pin down a feature scaling, and
/// the choice matters structurally: raw units make `‖c_fin‖` meaningless
/// across heterogeneous columns (fractions vs counts), while *mean*
/// centering over finished ∪ running is degenerate — the overall mean is a
/// convex combination of the two class centroids, which forces
/// `c_fin ∥ c_run` and collapses `ρ` to the constant `n_run / n`. Median
/// centering is robust, fully observable at the checkpoint, and preserves
/// the quantity the paper's intuition describes (§4.2): `‖c_fin‖` measures
/// how atypical the early finishers are relative to the typical task, and
/// `‖c_run − c_fin‖` how far the still-running population has drifted.
///
/// Degenerate cases (`c_run == c_fin`) return `ρ = +∞`, which flows into
/// `δ → −α` (maximum true-positive boost, consistent with "all tasks look
/// alike, propensity alone cannot separate").
///
/// # Panics
///
/// Panics if either matrix is empty or widths disagree.
#[must_use]
pub fn centroid_ratio(finished: &[Vec<f64>], running: &[Vec<f64>]) -> f64 {
    let fin: Vec<&[f64]> = finished.iter().map(Vec::as_slice).collect();
    let run: Vec<&[f64]> = running.iter().map(Vec::as_slice).collect();
    centroid_ratio_rows(&fin, &run)
}

/// [`centroid_ratio`] over borrowed row slices (e.g. straight from
/// `Checkpoint::finished_feature_rows`), avoiding any feature copies.
///
/// # Panics
///
/// Panics if either set is empty or widths disagree.
#[must_use]
pub(crate) fn centroid_ratio_rows(finished: &[&[f64]], running: &[&[f64]]) -> f64 {
    assert!(
        !finished.is_empty() && !running.is_empty(),
        "need both finished and running tasks"
    );
    assert_eq!(
        finished[0].len(),
        running[0].len(),
        "feature widths disagree"
    );
    let d = finished[0].len();
    let n_all = finished.len() + running.len();

    // Componentwise median and robust scale (MAD, σ-consistent) over
    // finished ∪ running. A *robust* scale is essential: the straggler
    // subpopulation inflates ordinary standard deviations on exactly the
    // features where it drifts, which would deflate its own drift signal
    // and make ρ blind to the latency shape. MAD ignores the ~10% tail.
    let mut medians = vec![0.0; d];
    let mut scales = vec![0.0; d];
    let mut column = Vec::with_capacity(n_all);
    for j in 0..d {
        column.clear();
        column.extend(finished.iter().chain(running.iter()).map(|r| r[j]));
        column.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
        medians[j] = median_of_sorted(&column);
        let mean = column.iter().sum::<f64>() / n_all as f64;
        let var = column.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n_all as f64;
        let std = var.sqrt();
        let mut deviations: Vec<f64> = column.iter().map(|v| (v - medians[j]).abs()).collect();
        deviations.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
        let mad = median_of_sorted(&deviations) * 1.4826;
        // Counter-like columns (EV, FL) are mostly zero: their MAD
        // vanishes while their drift is the whole signal, so floor the
        // scale by a fraction of the classical std. The fraction matters:
        // too small and a rare binary column (a handful of failure events)
        // dwarfs every real feature in the geometry.
        scales[j] = mad.max(0.2 * std).max(1e-12);
    }
    let stds = scales;
    // Winsorize at ±8 robust units so that a single unbounded column (e.g.
    // an eviction counter whose body is identically zero) cannot dominate
    // the centroid geometry. The centroid of the normalized rows is
    // accumulated directly — no normalized copies are materialized.
    let normalized_centroid = |rows: &[&[f64]]| -> Vec<f64> {
        let mut c = vec![0.0; d];
        for row in rows {
            for (j, v) in row.iter().enumerate() {
                c[j] += ((v - medians[j]) / stds[j]).clamp(-8.0, 8.0);
            }
        }
        nurd_linalg::scale(&mut c, 1.0 / rows.len() as f64);
        c
    };

    let c_fin = normalized_centroid(finished);
    let c_run = normalized_centroid(running);
    let num = nurd_linalg::l2_norm(&c_fin);
    let den = nurd_linalg::euclidean_distance(&c_run, &c_fin);
    if den < 1e-12 {
        f64::INFINITY
    } else {
        num / den
    }
}

/// The calibration term `δ = 1/(1+ρ) − α` (Equation 3).
///
/// `ρ ≤ 1` (stragglers far from non-stragglers in feature space, long-tail
/// latency) gives a relatively large δ that damps false positives;
/// `ρ > 1` gives a small (negative) δ that boosts true positives.
///
/// # Panics
///
/// Panics if `alpha` is not positive or `rho` is negative.
#[must_use]
pub fn calibration_delta(rho: f64, alpha: f64) -> f64 {
    assert!(alpha > 0.0, "alpha must be positive");
    assert!(rho >= 0.0, "rho must be non-negative");
    1.0 / (1.0 + rho) - alpha
}

fn median_of_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn delta_bounds_follow_equation_3() {
        // ρ = 0 → δ = 1 − α (maximum); ρ → ∞ → δ → −α (minimum).
        assert!((calibration_delta(0.0, 0.5) - 0.5).abs() < 1e-12);
        assert!((calibration_delta(f64::INFINITY, 0.5) - (-0.5)).abs() < 1e-12);
        // ρ = 1 → δ = 0 at α = 0.5 (the paper's boundary case).
        assert!(calibration_delta(1.0, 0.5).abs() < 1e-12);
    }

    #[test]
    fn delta_decreases_in_rho() {
        let mut prev = f64::INFINITY;
        for rho in [0.0, 0.5, 1.0, 2.0, 10.0] {
            let d = calibration_delta(rho, 0.5);
            assert!(d < prev);
            prev = d;
        }
    }

    #[test]
    fn distinct_running_population_lowers_rho() {
        // Realistic warmup geometry: finished tasks are a small, slightly
        // fast-biased minority; the running majority is nominal except for a
        // straggler subpopulation. The further that subpopulation sits from
        // the nominal cloud, the larger the centroid drift → the smaller ρ.
        let finished: Vec<Vec<f64>> = (0..8)
            .map(|i| vec![0.6 + 0.01 * i as f64, 0.8 + 0.005 * i as f64])
            .collect();
        let nominal: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![1.0 + 0.01 * (i % 7) as f64, 1.0 + 0.01 * (i % 5) as f64])
            .collect();
        let with_stragglers = |pos: f64| -> Vec<Vec<f64>> {
            let mut v = nominal.clone();
            for i in 0..6 {
                v.push(vec![pos + 0.01 * i as f64, pos]);
            }
            v
        };
        let rho_far = centroid_ratio(&finished, &with_stragglers(4.0));
        let rho_near = centroid_ratio(&finished, &with_stragglers(1.1));
        assert!(
            rho_far < rho_near,
            "distinct population must lower rho: {rho_far} vs {rho_near}"
        );
    }

    #[test]
    fn identical_populations_give_infinite_rho() {
        let rows: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64, 1.0]).collect();
        let rho = centroid_ratio(&rows, &rows);
        assert!(rho.is_infinite());
        // Which drives δ to its minimum −α.
        assert_eq!(calibration_delta(rho, 0.5), -0.5);
    }

    #[test]
    #[should_panic(expected = "need both finished and running")]
    fn empty_inputs_rejected() {
        let _ = centroid_ratio(&[], &[vec![1.0]]);
    }

    proptest! {
        /// δ always lies in (−α, α] for finite ρ ≥ 0.
        #[test]
        fn prop_delta_in_range(rho in 0.0..1e6f64, alpha in 0.05..1.0f64) {
            let d = calibration_delta(rho, alpha);
            prop_assert!(d > -alpha && d <= 1.0 - alpha);
        }

        /// ρ is scale-invariant: scaling all features leaves it unchanged
        /// (standardization inside the computation).
        #[test]
        fn prop_rho_scale_invariant(scale in 0.1..100.0f64) {
            let finished: Vec<Vec<f64>> = (0..20)
                .map(|i| vec![i as f64 * 0.1, (i % 3) as f64])
                .collect();
            let running: Vec<Vec<f64>> = (0..5)
                .map(|i| vec![3.0 + i as f64 * 0.2, 2.0])
                .collect();
            let scaled_fin: Vec<Vec<f64>> = finished
                .iter()
                .map(|r| r.iter().map(|v| v * scale).collect())
                .collect();
            let scaled_run: Vec<Vec<f64>> = running
                .iter()
                .map(|r| r.iter().map(|v| v * scale).collect())
                .collect();
            let a = centroid_ratio(&finished, &running);
            let b = centroid_ratio(&scaled_fin, &scaled_run);
            prop_assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }
}
