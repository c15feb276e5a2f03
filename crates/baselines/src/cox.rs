//! Cox proportional hazards with Breslow ties and baseline hazard.
//!
//! In the straggler setting the "event" is *task completion*: tasks with a
//! high completion hazard finish early. A task predicted to survive (keep
//! running) past the straggler threshold with high probability is flagged.

use nurd_linalg::{Cholesky, Matrix};
use nurd_ml::MlError;

use crate::scaler::StandardScaler;

/// Hyperparameters for [`CoxPh`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CoxConfig {
    /// Newton iterations.
    pub(crate) max_iter: usize,
    /// Convergence tolerance on the step max-norm.
    pub(crate) tol: f64,
    /// Ridge penalty on the coefficients.
    pub(crate) l2: f64,
}

impl Default for CoxConfig {
    fn default() -> Self {
        CoxConfig {
            max_iter: 30,
            tol: 1e-7,
            l2: 1e-3,
        }
    }
}

/// Marker type: fit with [`CoxPh::fit`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CoxPh;

/// A fitted proportional-hazards model with a Breslow baseline.
#[derive(Debug, Clone)]
pub(crate) struct FittedCoxPh {
    beta: Vec<f64>,
    /// Breslow cumulative baseline hazard, as `(time, H0(time))` steps in
    /// ascending time order.
    baseline: Vec<(f64, f64)>,
    scaler: StandardScaler,
}

impl CoxPh {
    /// Fits the partial likelihood by Newton-Raphson (Breslow ties).
    ///
    /// `event[i]` is true when subject `i`'s event (task completion) was
    /// observed at `time[i]`, false when censored there.
    ///
    /// # Errors
    ///
    /// Shape errors as usual; [`MlError::InvalidConfig`] when no events are
    /// observed; [`MlError::OptimizationFailed`] if the Newton system is
    /// singular beyond ridge repair.
    pub(crate) fn fit(
        x: &[Vec<f64>],
        time: &[f64],
        event: &[bool],
        config: &CoxConfig,
    ) -> Result<FittedCoxPh, MlError> {
        let first = x.first().ok_or(MlError::EmptyTrainingSet)?;
        let d = first.len();
        if x.len() != time.len() || x.len() != event.len() {
            return Err(MlError::DimensionMismatch {
                expected: format!("{} times and events", x.len()),
                found: format!("{} times, {} events", time.len(), event.len()),
            });
        }
        if x.iter().any(|r| r.len() != d) {
            return Err(MlError::DimensionMismatch {
                expected: format!("rows of width {d}"),
                found: "ragged rows".into(),
            });
        }
        if !event.iter().any(|&e| e) {
            return Err(MlError::InvalidConfig(
                "cox model needs at least one observed event".into(),
            ));
        }

        let scaler = StandardScaler::fit(x)?;
        let xs = scaler.transform(x);
        let n = xs.len();

        // Sort by descending time so the risk set grows incrementally.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| time[b].partial_cmp(&time[a]).expect("finite times"));

        let mut beta = vec![0.0; d];
        for _ in 0..config.max_iter {
            // One pass accumulating risk-set sums in descending time.
            let mut grad = vec![0.0; d];
            let mut hess = Matrix::zeros(d, d);
            let mut s0 = 0.0; // Σ exp(xβ) over the risk set
            let mut s1 = vec![0.0; d]; // Σ x·exp(xβ)
            let mut s2 = Matrix::zeros(d, d); // Σ xxᵀ·exp(xβ)
            let mut idx = 0;
            while idx < n {
                // Add all subjects with this time (and later, already added)
                // to the risk set.
                let t = time[order[idx]];
                let mut tie_end = idx;
                while tie_end < n && time[order[tie_end]] == t {
                    let i = order[tie_end];
                    let w = nurd_linalg::dot(&beta, &xs[i]).exp();
                    s0 += w;
                    for a in 0..d {
                        s1[a] += w * xs[i][a];
                        for b in a..d {
                            let v = s2.get(a, b) + w * xs[i][a] * xs[i][b];
                            s2.set(a, b, v);
                        }
                    }
                    tie_end += 1;
                }
                // Contributions of events at this time (Breslow: all share
                // the same risk-set sums).
                for &i in &order[idx..tie_end] {
                    if !event[i] {
                        continue;
                    }
                    for a in 0..d {
                        grad[a] += xs[i][a] - s1[a] / s0;
                        for b in a..d {
                            let v =
                                hess.get(a, b) + (s2.get(a, b) / s0 - (s1[a] / s0) * (s1[b] / s0));
                            hess.set(a, b, v);
                        }
                    }
                }
                idx = tie_end;
            }
            for a in 0..d {
                grad[a] -= config.l2 * beta[a];
                let v = hess.get(a, a) + config.l2;
                hess.set(a, a, v);
                for b in 0..a {
                    hess.set(a, b, hess.get(b, a));
                }
            }

            // Damped Newton step.
            let mut damping = 0.0;
            let step = loop {
                let damped = if damping == 0.0 {
                    hess.clone()
                } else {
                    hess.add(&Matrix::identity(d).scaled(damping))
                        .expect("shapes match")
                };
                match Cholesky::decompose(&damped) {
                    Ok(chol) => {
                        break chol.solve(&grad).map_err(|e| {
                            MlError::OptimizationFailed(format!("newton solve: {e}"))
                        })?
                    }
                    Err(_) => {
                        damping = if damping == 0.0 { 1e-8 } else { damping * 10.0 };
                        if damping > 1e8 {
                            return Err(MlError::OptimizationFailed(
                                "cox hessian singular beyond repair".into(),
                            ));
                        }
                    }
                }
            };
            let mut max_update = 0.0f64;
            for (b, s) in beta.iter_mut().zip(&step) {
                *b += s;
                max_update = max_update.max(s.abs());
            }
            // Guard runaway coefficients under separation.
            for b in beta.iter_mut() {
                *b = b.clamp(-20.0, 20.0);
            }
            if max_update < config.tol {
                break;
            }
        }

        // Breslow baseline cumulative hazard (ascending time).
        let mut asc: Vec<usize> = (0..n).collect();
        asc.sort_by(|&a, &b| time[a].partial_cmp(&time[b]).expect("finite times"));
        let exp_scores: Vec<f64> = xs
            .iter()
            .map(|row| nurd_linalg::dot(&beta, row).exp())
            .collect();
        let mut at_risk: f64 = exp_scores.iter().sum();
        let mut baseline = Vec::new();
        let mut cumulative = 0.0;
        let mut idx = 0;
        while idx < n {
            let t = time[asc[idx]];
            let mut tie_end = idx;
            let mut deaths = 0usize;
            let mut removed = 0.0;
            while tie_end < n && time[asc[tie_end]] == t {
                let i = asc[tie_end];
                if event[i] {
                    deaths += 1;
                }
                removed += exp_scores[i];
                tie_end += 1;
            }
            if deaths > 0 && at_risk > 0.0 {
                cumulative += deaths as f64 / at_risk;
                baseline.push((t, cumulative));
            }
            at_risk -= removed;
            idx = tie_end;
        }

        Ok(FittedCoxPh {
            beta,
            baseline,
            scaler,
        })
    }
}

impl FittedCoxPh {
    /// Relative risk `exp(xᵀβ)` (hazard ratio against the baseline).
    ///
    /// # Panics
    ///
    /// Panics if `features` has a different width than the training data.
    #[must_use]
    fn relative_risk(&self, features: &[f64]) -> f64 {
        let z = self.scaler.transform_row(features);
        nurd_linalg::dot(&self.beta, &z).exp()
    }

    /// Survival probability `S(t | x) = exp(−H0(t) · exp(xᵀβ))`.
    #[must_use]
    pub(crate) fn survival_at(&self, features: &[f64], t: f64) -> f64 {
        let h0 = match self
            .baseline
            .binary_search_by(|(bt, _)| bt.partial_cmp(&t).expect("finite times"))
        {
            Ok(i) => self.baseline[i].1,
            Err(0) => 0.0,
            Err(i) => self.baseline[i - 1].1,
        };
        (-h0 * self.relative_risk(features)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Completion times shrink with x (higher x = faster completion =
    /// higher hazard): β should be positive.
    #[test]
    fn recovers_hazard_direction() {
        let x: Vec<Vec<f64>> = (0..60).map(|i| vec![(i % 6) as f64]).collect();
        let time: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, r)| 10.0 / (1.0 + r[0]) + 0.1 * (i % 3) as f64)
            .collect();
        let event = vec![true; 60];
        let model = CoxPh::fit(&x, &time, &event, &CoxConfig::default()).unwrap();
        assert!(model.beta[0] > 0.5, "beta {:?}", model.beta);
        assert!(model.relative_risk(&[5.0]) > model.relative_risk(&[0.0]));
    }

    #[test]
    fn survival_decreases_over_time() {
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![(i % 4) as f64]).collect();
        let time: Vec<f64> = (0..40).map(|i| 1.0 + (i % 10) as f64).collect();
        let event = vec![true; 40];
        let model = CoxPh::fit(&x, &time, &event, &CoxConfig::default()).unwrap();
        let probe = [2.0];
        let s1 = model.survival_at(&probe, 2.0);
        let s2 = model.survival_at(&probe, 8.0);
        assert!(s1 > s2, "S(2)={s1} should exceed S(8)={s2}");
        assert!((0.0..=1.0).contains(&s1) && (0.0..=1.0).contains(&s2));
    }

    #[test]
    fn censored_subjects_extend_risk_sets() {
        // All else equal, censoring half the subjects changes the baseline
        // but must not crash and must keep survival in [0,1].
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![(i % 3) as f64]).collect();
        let time: Vec<f64> = (0..30).map(|i| 1.0 + i as f64 * 0.3).collect();
        let event: Vec<bool> = (0..30).map(|i| i % 2 == 0).collect();
        let model = CoxPh::fit(&x, &time, &event, &CoxConfig::default()).unwrap();
        let s = model.survival_at(&[1.0], 5.0);
        assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn survival_before_first_event_is_one() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let time: Vec<f64> = (0..10).map(|i| 5.0 + i as f64).collect();
        let event = vec![true; 10];
        let model = CoxPh::fit(&x, &time, &event, &CoxConfig::default()).unwrap();
        assert!((model.survival_at(&[3.0], 1.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_no_events() {
        let x = vec![vec![1.0], vec![2.0]];
        assert!(matches!(
            CoxPh::fit(&x, &[1.0, 2.0], &[false, false], &CoxConfig::default()),
            Err(MlError::InvalidConfig(_))
        ));
    }

    #[test]
    fn rejects_shape_mismatch() {
        let x = vec![vec![1.0]];
        assert!(CoxPh::fit(&x, &[1.0, 2.0], &[true], &CoxConfig::default()).is_err());
    }

    #[test]
    fn ties_are_handled() {
        let x: Vec<Vec<f64>> = (0..12).map(|i| vec![(i % 2) as f64]).collect();
        let time: Vec<f64> = (0..12).map(|i| ((i / 4) + 1) as f64).collect(); // triple ties
        let event = vec![true; 12];
        let model = CoxPh::fit(&x, &time, &event, &CoxConfig::default()).unwrap();
        assert!(model.survival_at(&[0.0], 2.0).is_finite());
    }
}
