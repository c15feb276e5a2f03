//! Linear support vector machine trained with Pegasos (primal SGD).

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::MlError;

/// Hyperparameters for [`LinearSvm`].
#[derive(Debug, Clone, PartialEq)]
pub struct SvmConfig {
    /// Regularization strength λ of the Pegasos objective.
    pub lambda: f64,
    /// Number of SGD steps (draws with replacement).
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
    /// Optional per-class weights `(weight_neg, weight_pos)` to handle
    /// imbalance (Wrangler oversamples stragglers; class weighting is the
    /// deterministic equivalent).
    pub class_weights: (f64, f64),
}

impl Default for SvmConfig {
    fn default() -> Self {
        SvmConfig {
            lambda: 1e-3,
            iterations: 20_000,
            seed: 7,
            class_weights: (1.0, 1.0),
        }
    }
}

/// Binary linear SVM: `sign(w·x + b)` with labels in `{-1, +1}`.
///
/// Used by the Wrangler baseline (the original system uses linear SVMs "for
/// interpretability") and as the base learner of the PU-BG bagging ensemble.
/// Features are standardized internally.
///
/// # Example
///
/// ```
/// use nurd_ml::{LinearSvm, SvmConfig};
///
/// # fn main() -> Result<(), nurd_ml::MlError> {
/// let x = vec![vec![-2.0], vec![-1.5], vec![1.5], vec![2.0]];
/// let y = vec![-1.0, -1.0, 1.0, 1.0];
/// let svm = LinearSvm::fit(&x, &y, &SvmConfig::default())?;
/// assert!(svm.decision_function(&[1.8]) > 0.0);
/// assert!(svm.decision_function(&[-1.8]) < 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LinearSvm {
    weights: Vec<f64>,
    bias: f64,
    feature_means: Vec<f64>,
    feature_stds: Vec<f64>,
}

impl LinearSvm {
    /// Fits the SVM; labels must be in `{-1, +1}`.
    ///
    /// # Errors
    ///
    /// [`MlError::EmptyTrainingSet`] / [`MlError::DimensionMismatch`] on bad
    /// shapes, [`MlError::InvalidConfig`] on labels outside `{-1, +1}` or a
    /// non-positive `lambda`.
    pub fn fit(x: &[Vec<f64>], y: &[f64], config: &SvmConfig) -> Result<Self, MlError> {
        let d = crate::error::check_xy(x, y)?;
        if y.iter().any(|&v| v != -1.0 && v != 1.0) {
            return Err(MlError::InvalidConfig("labels must be -1.0 or +1.0".into()));
        }
        if config.lambda <= 0.0 {
            return Err(MlError::InvalidConfig(format!(
                "lambda must be positive, got {}",
                config.lambda
            )));
        }

        let mut xs = x.to_vec();
        let std_params = nurd_linalg::standardize_columns(&mut xs)
            .map_err(|e| MlError::OptimizationFailed(e.to_string()))?;

        let n = xs.len();
        let mut w = vec![0.0; d];
        let mut b = 0.0;
        let mut rng = StdRng::seed_from_u64(config.seed);

        for t in 1..=config.iterations {
            let i = rng.gen_range(0..n);
            let eta = 1.0 / (config.lambda * t as f64);
            let margin = y[i] * (nurd_linalg::dot(&w, &xs[i]) + b);
            let class_weight = if y[i] > 0.0 {
                config.class_weights.1
            } else {
                config.class_weights.0
            };
            // Regularization shrink.
            nurd_linalg::scale(&mut w, 1.0 - eta * config.lambda);
            if margin < 1.0 {
                // Hinge sub-gradient step.
                nurd_linalg::add_scaled(&mut w, eta * class_weight * y[i], &xs[i]);
                b += eta * class_weight * y[i];
            }
            // Pegasos projection onto the ball of radius 1/sqrt(λ).
            let norm = nurd_linalg::l2_norm(&w);
            let radius = 1.0 / config.lambda.sqrt();
            if norm > radius {
                nurd_linalg::scale(&mut w, radius / norm);
            }
        }

        Ok(LinearSvm {
            weights: w,
            bias: b,
            feature_means: std_params.means,
            feature_stds: std_params.stds,
        })
    }

    /// Signed distance to the separating hyperplane (positive = class `+1`).
    ///
    /// # Panics
    ///
    /// Panics if `features` has a different width than the training data.
    #[must_use]
    pub fn decision_function(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.weights.len(), "feature width mismatch");
        let mut z = self.bias;
        for ((&f, &w), (&m, &s)) in features
            .iter()
            .zip(&self.weights)
            .zip(self.feature_means.iter().zip(&self.feature_stds))
        {
            z += w * (f - m) / s;
        }
        z
    }

    /// Hard class prediction in `{-1, +1}`.
    #[must_use]
    pub fn predict(&self, features: &[f64]) -> f64 {
        if self.decision_function(features) >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn separates_two_clusters() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..20 {
            x.push(vec![i as f64 * 0.1, 1.0]);
            y.push(-1.0);
            x.push(vec![i as f64 * 0.1 + 5.0, 1.0]);
            y.push(1.0);
        }
        let svm = LinearSvm::fit(&x, &y, &SvmConfig::default()).unwrap();
        let mut correct = 0;
        for (xi, &yi) in x.iter().zip(&y) {
            if svm.predict(xi) == yi {
                correct += 1;
            }
        }
        assert!(correct >= 38, "only {correct}/40 correct");
    }

    #[test]
    fn class_weights_shift_boundary_toward_minority() {
        // 30 negatives at 0, 3 positives at 1: unweighted SVM favors the
        // majority; upweighting positives should recover them.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..30 {
            x.push(vec![(i % 5) as f64 * 0.02]);
            y.push(-1.0);
        }
        for i in 0..3 {
            x.push(vec![1.0 + i as f64 * 0.02]);
            y.push(1.0);
        }
        let weighted = LinearSvm::fit(
            &x,
            &y,
            &SvmConfig {
                class_weights: (1.0, 10.0),
                ..SvmConfig::default()
            },
        )
        .unwrap();
        assert_eq!(weighted.predict(&[1.01]), 1.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![-1.0, -1.0, 1.0, 1.0];
        let cfg = SvmConfig::default();
        let a = LinearSvm::fit(&x, &y, &cfg).unwrap();
        let b = LinearSvm::fit(&x, &y, &cfg).unwrap();
        assert_eq!(a.weights, b.weights);
    }

    #[test]
    fn rejects_bad_labels() {
        assert!(matches!(
            LinearSvm::fit(&[vec![1.0]], &[0.0], &SvmConfig::default()),
            Err(MlError::InvalidConfig(_))
        ));
    }

    #[test]
    fn rejects_nonpositive_lambda() {
        let cfg = SvmConfig {
            lambda: 0.0,
            ..SvmConfig::default()
        };
        assert!(matches!(
            LinearSvm::fit(&[vec![1.0]], &[1.0], &cfg),
            Err(MlError::InvalidConfig(_))
        ));
    }

    proptest! {
        /// decision_function is finite for any finite probe.
        #[test]
        fn prop_decision_finite(probe in -1e3..1e3f64) {
            let x = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
            let y = vec![-1.0, -1.0, 1.0, 1.0];
            let svm = LinearSvm::fit(&x, &y, &SvmConfig::default()).unwrap();
            prop_assert!(svm.decision_function(&[probe]).is_finite());
        }

        /// predict always returns a hard label in {-1, +1}.
        #[test]
        fn prop_predict_hard_label(probe in -1e3..1e3f64) {
            let x = vec![vec![0.0], vec![3.0]];
            let y = vec![-1.0, 1.0];
            let svm = LinearSvm::fit(&x, &y, &SvmConfig::default()).unwrap();
            let p = svm.predict(&[probe]);
            prop_assert!(p == 1.0 || p == -1.0);
        }
    }
}
