//! One-class SVM (Schölkopf et al., 2001) with an RBF kernel.
//!
//! Solves the ν-OCSVM dual
//! `min ½ αᵀKα  s.t. Σα = 1, 0 ≤ αᵢ ≤ 1/(νn)` with projected gradient
//! descent (projection onto the capped simplex). Problem sizes in the
//! online protocol are a few hundred points, where the dense solver is
//! fast and dependable.

use nurd_ml::MlError;

use crate::outlier_adapter::OutlierDetector;
use crate::scaler::StandardScaler;

/// RBF-kernel one-class SVM; scores are the negated decision function
/// (`ρ − Σ αᵢ k(xᵢ, x)`), so higher = more anomalous.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OcSvm {
    /// Expected outlier fraction ν ∈ (0, 1).
    pub(crate) nu: f64,
    /// RBF width γ; `None` = the scikit-learn "scale" heuristic
    /// `1 / (d · var)`.
    pub(crate) gamma: Option<f64>,
    /// Projected-gradient iterations.
    pub(crate) iterations: usize,
}

impl Default for OcSvm {
    fn default() -> Self {
        OcSvm {
            nu: 0.1,
            gamma: None,
            iterations: 300,
        }
    }
}

/// Projects `v` onto `{α : Σα = 1, 0 ≤ αᵢ ≤ cap}` (capped simplex) by
/// bisection on the shift parameter.
fn project_capped_simplex(v: &mut [f64], cap: f64) {
    let n = v.len();
    debug_assert!(cap * n as f64 >= 1.0 - 1e-9, "infeasible simplex");
    let mut lo = v.iter().cloned().fold(f64::INFINITY, f64::min) - cap - 1.0;
    let mut hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max) + 1.0;
    for _ in 0..100 {
        let tau = 0.5 * (lo + hi);
        let sum: f64 = v.iter().map(|&x| (x - tau).clamp(0.0, cap)).sum();
        if sum > 1.0 {
            lo = tau;
        } else {
            hi = tau;
        }
    }
    let tau = 0.5 * (lo + hi);
    for x in v.iter_mut() {
        *x = (*x - tau).clamp(0.0, cap);
    }
}

impl OutlierDetector for OcSvm {
    /// # Errors
    ///
    /// [`MlError::InvalidConfig`] when ν is outside `(0, 1)`, plus the
    /// usual shape errors.
    fn score_all(&self, x: &[Vec<f64>]) -> Result<Vec<f64>, MlError> {
        if !(self.nu > 0.0 && self.nu < 1.0) {
            return Err(MlError::InvalidConfig(format!(
                "nu must be in (0,1), got {}",
                self.nu
            )));
        }
        let scaler = StandardScaler::fit(x)?;
        let xs = scaler.transform(x);
        let n = xs.len();
        let d = xs[0].len();

        let gamma = self.gamma.unwrap_or_else(|| {
            // Variance of the standardized data is ~1 per feature.
            1.0 / d as f64
        });

        // Dense RBF Gram matrix.
        let mut kernel = vec![vec![0.0; n]; n];
        for i in 0..n {
            kernel[i][i] = 1.0;
            for j in (i + 1)..n {
                let k = (-gamma * nurd_linalg::squared_distance(&xs[i], &xs[j])).exp();
                kernel[i][j] = k;
                kernel[j][i] = k;
            }
        }

        // Projected gradient on the dual.
        let cap = (1.0 / (self.nu * n as f64)).min(1.0);
        let mut alpha = vec![1.0 / n as f64; n];
        project_capped_simplex(&mut alpha, cap);
        // Lipschitz constant of the gradient is the top eigenvalue of K,
        // bounded by the max row sum.
        let lip = kernel
            .iter()
            .map(|row| row.iter().sum::<f64>())
            .fold(0.0f64, f64::max)
            .max(1.0);
        let step = 1.0 / lip;
        for _ in 0..self.iterations {
            // ∇(½αᵀKα) = Kα
            let grad: Vec<f64> = kernel
                .iter()
                .map(|row| nurd_linalg::dot(row, &alpha))
                .collect();
            for (a, g) in alpha.iter_mut().zip(&grad) {
                *a -= step * g;
            }
            project_capped_simplex(&mut alpha, cap);
        }

        // ρ = decision value at margin support vectors (0 < α < cap);
        // fall back to the α-weighted mean when none are strictly inside.
        let decision: Vec<f64> = kernel
            .iter()
            .map(|row| nurd_linalg::dot(row, &alpha))
            .collect();
        let margin: Vec<f64> = alpha
            .iter()
            .zip(&decision)
            .filter(|(&a, _)| a > 1e-8 && a < cap - 1e-8)
            .map(|(_, &d)| d)
            .collect();
        let rho = if margin.is_empty() {
            let wsum: f64 = alpha.iter().sum();
            alpha
                .iter()
                .zip(&decision)
                .map(|(&a, &d)| a * d)
                .sum::<f64>()
                / wsum.max(1e-12)
        } else {
            margin.iter().sum::<f64>() / margin.len() as f64
        };

        Ok(decision.iter().map(|&d| rho - d).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_satisfies_constraints() {
        let mut v = vec![0.9, -0.4, 0.3, 0.8];
        project_capped_simplex(&mut v, 0.5);
        let sum: f64 = v.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
        assert!(v.iter().all(|&x| (0.0..=0.5 + 1e-9).contains(&x)));
    }

    #[test]
    fn outlier_scores_above_inliers() {
        let mut rows: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![((i % 10) as f64) * 0.1, ((i / 10) as f64) * 0.1])
            .collect();
        rows.push(vec![6.0, 6.0]);
        let scores = OcSvm::default().score_all(&rows).unwrap();
        let max_inlier = scores[..50]
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            scores[50] > max_inlier,
            "outlier {} vs inlier max {max_inlier}",
            scores[50]
        );
    }

    #[test]
    fn nu_controls_boundary_tightness() {
        // Higher ν ⇒ more points outside the boundary ⇒ higher scores on
        // the fringe of the cloud.
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![(i % 20) as f64 * 0.1]).collect();
        let loose = OcSvm {
            nu: 0.05,
            ..OcSvm::default()
        }
        .score_all(&rows)
        .unwrap();
        let tight = OcSvm {
            nu: 0.5,
            ..OcSvm::default()
        }
        .score_all(&rows)
        .unwrap();
        let frac_pos = |s: &[f64]| s.iter().filter(|&&v| v > 0.0).count();
        assert!(frac_pos(&tight) >= frac_pos(&loose));
    }

    #[test]
    fn rejects_bad_nu() {
        let bad = OcSvm {
            nu: 1.5,
            ..OcSvm::default()
        };
        assert!(matches!(
            bad.score_all(&[vec![1.0]]),
            Err(MlError::InvalidConfig(_))
        ));
    }

    #[test]
    fn rejects_empty() {
        assert!(OcSvm::default().score_all(&[]).is_err());
    }
}
