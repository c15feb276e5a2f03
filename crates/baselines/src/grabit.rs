//! Grabit: gradient-boosted Tobit (Sigrist & Hirnschall, 2019).
//!
//! Grabit is the paper's strongest baseline on the Google traces: a tree
//! ensemble trained with the Tobit likelihood, combining nonlinear feature
//! interactions with censoring awareness. It plugs a [`TobitLoss`] into the
//! Newton booster from `nurd-ml` — exactly the construction of the
//! original paper (XGBoost with a Tobit objective).

use nurd_ml::{GbtConfig, GradientBoosting, Loss, MlError};

use crate::normal::inverse_mills;

/// Tobit loss for the Newton booster, right-censored variant.
///
/// Sample encoding: the booster's [`Loss`] interface passes one scalar
/// target per sample, so censoring is encoded in the sign — a positive
/// target is an observed latency, a **negative** target `-c` marks a task
/// censored at time `c` (latencies are strictly positive, so the encoding
/// is unambiguous). [`Grabit::encode_target`] builds the encoding.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TobitLoss {
    /// Fixed latent scale σ (estimated from observed latencies before
    /// fitting; Grabit treats it as a hyperparameter).
    pub(crate) sigma: f64,
}

impl Loss for TobitLoss {
    fn gradient_hessian(&self, y: f64, f: f64) -> (f64, f64) {
        let s = self.sigma;
        if y >= 0.0 {
            // Observed: squared loss scaled by the latent variance.
            ((f - y) / (s * s), 1.0 / (s * s))
        } else {
            // Censored at c = -y: loss = −ln Φ((f − c)/σ).
            let c = -y;
            let w = (f - c) / s;
            let lambda = inverse_mills(w);
            let grad = -lambda / s;
            let hess = (lambda * (lambda + w)) / (s * s);
            (grad, hess.max(1e-12))
        }
    }

    fn base_score(&self, ys: &[f64]) -> f64 {
        // Mean of the |target| values: a reasonable latent-mean start for
        // both observed and censored samples.
        let abs: Vec<f64> = ys.iter().map(|y| y.abs()).collect();
        nurd_linalg::mean(&abs)
    }
}

/// Hyperparameters for [`Grabit`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GrabitConfig {
    /// Booster configuration.
    pub(crate) gbt: GbtConfig,
    /// Latent σ override; `None` = standard deviation of the observed
    /// latencies (floored at 1e-3).
    pub(crate) sigma: Option<f64>,
}

impl Default for GrabitConfig {
    fn default() -> Self {
        GrabitConfig {
            gbt: GbtConfig {
                n_rounds: 60,
                ..GbtConfig::default()
            },
            sigma: None,
        }
    }
}

/// A fitted Grabit model (thin wrapper over the boosted ensemble).
///
/// Targets are standardized internally so the Tobit gradients are O(1)
/// against the booster's unit leaf regularization; predictions are
/// de-standardized.
#[derive(Debug, Clone)]
pub(crate) struct Grabit {
    model: GradientBoosting<TobitLoss>,
    target_mean: f64,
    target_scale: f64,
}

impl Grabit {
    /// Encodes an `(time, observed)` pair into the booster's scalar target.
    #[must_use]
    fn encode_target(time: f64, observed: bool) -> f64 {
        if observed {
            time
        } else {
            -time
        }
    }

    /// Fits on censored data (same convention as
    /// [`crate::tobit::Tobit::fit`]).
    ///
    /// # Errors
    ///
    /// [`MlError::InvalidConfig`] when every sample is censored; otherwise
    /// propagates booster errors.
    pub(crate) fn fit(
        x: &[Vec<f64>],
        time: &[f64],
        observed: &[bool],
        config: &GrabitConfig,
    ) -> Result<Self, MlError> {
        if time.len() != observed.len() {
            return Err(MlError::DimensionMismatch {
                expected: format!("{} observed flags", time.len()),
                found: format!("{}", observed.len()),
            });
        }
        let obs: Vec<f64> = time
            .iter()
            .zip(observed)
            .filter(|(_, &o)| o)
            .map(|(&t, _)| t)
            .collect();
        if obs.is_empty() {
            return Err(MlError::InvalidConfig(
                "grabit needs at least one uncensored observation".into(),
            ));
        }
        let target_mean = nurd_linalg::mean(&obs);
        let target_scale = nurd_linalg::variance(&obs).sqrt().max(1e-6);
        let sigma = config
            .sigma
            .map(|s| s / target_scale)
            .unwrap_or(1.0)
            .max(1e-3);
        // The sign encoding must survive standardization: shift the
        // standardized values by +4 (and floor at a sliver above zero) so
        // they stay positive, then re-apply the censoring sign.
        let targets: Vec<f64> = time
            .iter()
            .zip(observed)
            .map(|(&t, &o)| {
                let shifted = ((t - target_mean) / target_scale + 4.0).max(1e-6);
                Self::encode_target(shifted, o)
            })
            .collect();
        let model = GradientBoosting::fit(x, &targets, TobitLoss { sigma }, &config.gbt)?;
        Ok(Grabit {
            model,
            target_mean,
            target_scale,
        })
    }

    /// Predicted latent latency, in original units.
    #[must_use]
    pub(crate) fn predict(&self, features: &[f64]) -> f64 {
        let standardized = self.model.predict(features) - 4.0;
        self.target_mean + self.target_scale * standardized
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tobit_loss_gradients_push_correctly() {
        let loss = TobitLoss { sigma: 1.0 };
        // Observed y=5, predicting 3: gradient negative (push up).
        let (g, h) = loss.gradient_hessian(5.0, 3.0);
        assert!(g < 0.0 && h > 0.0);
        // Censored at c=5, predicting 3 (below the bound): strong push up.
        let (gc, hc) = loss.gradient_hessian(-5.0, 3.0);
        assert!(gc < 0.0 && hc > 0.0);
        // Censored at c=5, predicting 10 (already above): weak pull.
        let (g_hi, _) = loss.gradient_hessian(-5.0, 10.0);
        assert!(g_hi.abs() < gc.abs());
    }

    #[test]
    fn learns_nonlinear_censored_target() {
        // y = x², censored at 30.
        let x: Vec<Vec<f64>> = (0..80).map(|i| vec![i as f64 * 0.1]).collect();
        let full: Vec<f64> = x.iter().map(|r| r[0] * r[0] + 1.0).collect();
        let observed: Vec<bool> = full.iter().map(|&y| y <= 30.0).collect();
        let time: Vec<f64> = full.iter().map(|&y| y.min(30.0)).collect();
        let model = Grabit::fit(&x, &time, &observed, &GrabitConfig::default()).unwrap();
        // Monotone in the censored region and clearly above naive 30-cap.
        assert!(model.predict(&[7.5]) > model.predict(&[4.0]));
        assert!(
            model.predict(&[7.9]) > 31.0,
            "prediction {} should exceed the censor bound",
            model.predict(&[7.9])
        );
    }

    #[test]
    fn encode_target_roundtrip() {
        assert_eq!(Grabit::encode_target(3.0, true), 3.0);
        assert_eq!(Grabit::encode_target(3.0, false), -3.0);
    }

    #[test]
    fn rejects_fully_censored() {
        let x = vec![vec![1.0], vec![2.0]];
        assert!(matches!(
            Grabit::fit(&x, &[1.0, 2.0], &[false, false], &GrabitConfig::default()),
            Err(MlError::InvalidConfig(_))
        ));
    }
}
