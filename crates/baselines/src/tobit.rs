//! Tobit (censored Gaussian) regression, right-censored variant.

use nurd_ml::MlError;

use crate::normal::{inverse_mills, log_normal_cdf, normal_pdf};
use crate::scaler::StandardScaler;

/// Hyperparameters for [`Tobit`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TobitConfig {
    /// Gradient-ascent iterations.
    pub(crate) max_iter: usize,
    /// Convergence tolerance on the gradient max-norm.
    pub(crate) tol: f64,
    /// L2 penalty on the coefficients (not intercept or scale).
    pub(crate) l2: f64,
}

impl Default for TobitConfig {
    fn default() -> Self {
        TobitConfig {
            max_iter: 200,
            tol: 1e-6,
            l2: 1e-3,
        }
    }
}

/// Marker type: fit with [`Tobit::fit`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Tobit;

/// A fitted right-censored Tobit model: latent `y* ~ N(xᵀβ + b, σ²)`,
/// observed when the task finished, censored below at the checkpoint time
/// otherwise.
///
/// Coefficients live in an internally standardized (features *and* target)
/// space; [`FittedTobit::predict`] reports in original units.
#[derive(Debug, Clone)]
pub(crate) struct FittedTobit {
    beta: Vec<f64>,
    intercept: f64,
    scaler: StandardScaler,
    /// Target location/scale used to de-standardize predictions.
    target_mean: f64,
    target_scale: f64,
}

impl Tobit {
    /// Fits by maximum likelihood (gradient ascent with backtracking).
    ///
    /// `time[i]` is the observed latency when `observed[i]`, else the
    /// censoring time (the task was still running at `time[i]`).
    ///
    /// # Errors
    ///
    /// [`MlError::EmptyTrainingSet`] / [`MlError::DimensionMismatch`] on
    /// shape problems, [`MlError::InvalidConfig`] when no observation is
    /// uncensored (σ is unidentifiable).
    pub(crate) fn fit(
        x: &[Vec<f64>],
        time: &[f64],
        observed: &[bool],
        config: &TobitConfig,
    ) -> Result<FittedTobit, MlError> {
        let d = nurd_ml_check(x, time)?;
        if observed.len() != time.len() {
            return Err(MlError::DimensionMismatch {
                expected: format!("{} observed flags", time.len()),
                found: format!("{}", observed.len()),
            });
        }
        let n_obs = observed.iter().filter(|&&o| o).count();
        if n_obs == 0 {
            return Err(MlError::InvalidConfig(
                "tobit needs at least one uncensored observation".into(),
            ));
        }

        let scaler = StandardScaler::fit(x)?;
        let xs = scaler.transform(x);
        let n = xs.len();

        // Standardize the target too: gradient ascent in O(1)-scaled space
        // converges in tens of iterations regardless of latency units.
        let obs_times: Vec<f64> = time
            .iter()
            .zip(observed)
            .filter(|(_, &o)| o)
            .map(|(&t, _)| t)
            .collect();
        let target_mean = nurd_linalg::mean(&obs_times);
        let target_scale = nurd_linalg::variance(&obs_times).sqrt().max(1e-6);
        let time: Vec<f64> = time
            .iter()
            .map(|t| (t - target_mean) / target_scale)
            .collect();

        let mut intercept = 0.0;
        let mut sigma = 1.0;
        let mut beta = vec![0.0; d];

        let log_likelihood = |beta: &[f64], intercept: f64, sigma: f64| -> f64 {
            let mut ll = 0.0;
            for i in 0..n {
                let mu = intercept + nurd_linalg::dot(beta, &xs[i]);
                let z = (time[i] - mu) / sigma;
                if observed[i] {
                    ll += normal_pdf(z).max(1e-300).ln() - sigma.ln();
                } else {
                    // P(y > c) = Φ((μ − c)/σ), evaluated in log space.
                    ll += log_normal_cdf(-z);
                }
            }
            ll - 0.5 * config.l2 * nurd_linalg::dot(beta, beta)
        };

        let mut objective = log_likelihood(&beta, intercept, sigma);
        for _ in 0..config.max_iter {
            // Analytic gradient in (β, intercept, ln σ).
            let mut grad_beta = vec![0.0; d];
            let mut grad_intercept = 0.0;
            let mut grad_log_sigma = 0.0;
            for i in 0..n {
                let mu = intercept + nurd_linalg::dot(&beta, &xs[i]);
                let z = (time[i] - mu) / sigma;
                let (dmu, dls) = if observed[i] {
                    (z / sigma, z * z - 1.0)
                } else {
                    let w = -z; // (μ − c)/σ
                    let lambda = inverse_mills(w);
                    (lambda / sigma, -lambda * w)
                };
                grad_intercept += dmu;
                grad_log_sigma += dls;
                nurd_linalg::add_scaled(&mut grad_beta, dmu, &xs[i]);
            }
            for (g, b) in grad_beta.iter_mut().zip(&beta) {
                *g -= config.l2 * b;
            }

            let gmax = grad_beta
                .iter()
                .chain([&grad_intercept, &grad_log_sigma])
                .fold(0.0f64, |m, g| m.max(g.abs()));
            if gmax < config.tol {
                break;
            }

            // Backtracking ascent step, scaled by 1/n for stability.
            let mut step = 1.0 / n as f64;
            let mut improved = false;
            for _ in 0..40 {
                let cand_beta: Vec<f64> = beta
                    .iter()
                    .zip(&grad_beta)
                    .map(|(b, g)| b + step * g)
                    .collect();
                let cand_intercept = intercept + step * grad_intercept;
                let cand_sigma = (sigma.ln() + step * grad_log_sigma).exp().max(1e-6);
                let cand_obj = log_likelihood(&cand_beta, cand_intercept, cand_sigma);
                if cand_obj > objective {
                    beta = cand_beta;
                    intercept = cand_intercept;
                    sigma = cand_sigma;
                    objective = cand_obj;
                    improved = true;
                    break;
                }
                step *= 0.5;
            }
            if !improved {
                break;
            }
        }

        Ok(FittedTobit {
            beta,
            intercept,
            scaler,
            target_mean,
            target_scale,
        })
    }
}

fn nurd_ml_check(x: &[Vec<f64>], y: &[f64]) -> Result<usize, MlError> {
    let first = x.first().ok_or(MlError::EmptyTrainingSet)?;
    if x.len() != y.len() {
        return Err(MlError::DimensionMismatch {
            expected: format!("{} targets", x.len()),
            found: format!("{}", y.len()),
        });
    }
    let d = first.len();
    if x.iter().any(|r| r.len() != d) {
        return Err(MlError::DimensionMismatch {
            expected: format!("rows of width {d}"),
            found: "ragged rows".into(),
        });
    }
    Ok(d)
}

impl FittedTobit {
    /// Predicted latent latency `xᵀβ + b`.
    ///
    /// # Panics
    ///
    /// Panics if `features` has a different width than the training data.
    #[must_use]
    pub(crate) fn predict(&self, features: &[f64]) -> f64 {
        let z = self.scaler.transform_row(features);
        let standardized = self.intercept + nurd_linalg::dot(&self.beta, &z);
        self.target_mean + self.target_scale * standardized
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_censored_fit_ranks_by_its_feature() -> Result<(), MlError> {
        // y = 2x, with the larger half censored at 10.
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let time: Vec<f64> = (0..20).map(|i| (2 * i) as f64).collect();
        let observed: Vec<bool> = time.iter().map(|&t| t < 10.0).collect();
        let model = Tobit::fit(&x, &time, &observed, &TobitConfig::default())?;
        assert!(model.predict(&[15.0]) > model.predict(&[2.0]));
        Ok(())
    }

    #[test]
    fn recovers_slope_under_censoring() {
        // y = 5 + 3x + small noise; censor everything above 20 at 20.
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 * 0.1]).collect();
        let full: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, r)| 5.0 + 3.0 * r[0] + 0.3 * ((i % 5) as f64 - 2.0))
            .collect();
        let observed: Vec<bool> = full.iter().map(|&y| y <= 20.0).collect();
        let time: Vec<f64> = full.iter().map(|&y| y.min(20.0)).collect();
        let model = Tobit::fit(&x, &time, &observed, &TobitConfig::default()).unwrap();
        // Extrapolated prediction should keep rising past the censor point —
        // a plain regression on (time) would flatten at 20.
        let p_low = model.predict(&[1.0]);
        let p_high = model.predict(&[9.0]);
        assert!((p_low - 8.0).abs() < 1.5, "p(1.0) = {p_low}");
        assert!(
            p_high > 26.0,
            "p(9.0) = {p_high} should extrapolate past 20"
        );
    }

    #[test]
    fn uncensored_reduces_to_linear_regression() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| 2.0 * r[0] + 1.0).collect();
        let observed = vec![true; 50];
        let model = Tobit::fit(&x, &y, &observed, &TobitConfig::default()).unwrap();
        for (xi, yi) in x.iter().zip(&y) {
            assert!((model.predict(xi) - yi).abs() < 1.0);
        }
    }

    #[test]
    fn rejects_fully_censored() {
        let x = vec![vec![1.0], vec![2.0]];
        let result = Tobit::fit(&x, &[1.0, 2.0], &[false, false], &TobitConfig::default());
        assert!(matches!(result, Err(MlError::InvalidConfig(_))));
    }

    #[test]
    fn rejects_shape_mismatch() {
        let x = vec![vec![1.0]];
        assert!(Tobit::fit(&x, &[1.0, 2.0], &[true, true], &TobitConfig::default()).is_err());
        assert!(Tobit::fit(&x, &[1.0], &[true, false], &TobitConfig::default()).is_err());
    }

    #[test]
    fn censoring_shifts_predictions_up() {
        // Same observed data; marking the top half censored tells the model
        // the truth lies higher.
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let time: Vec<f64> = (0..40).map(|i| 10.0 + (i % 7) as f64).collect();
        let all_observed = vec![true; 40];
        let censored: Vec<bool> = (0..40).map(|i| i < 20).collect();
        let plain = Tobit::fit(&x, &time, &all_observed, &TobitConfig::default()).unwrap();
        let cens = Tobit::fit(&x, &time, &censored, &TobitConfig::default()).unwrap();
        assert!(cens.predict(&[35.0]) > plain.predict(&[35.0]));
    }
}
