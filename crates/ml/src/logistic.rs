//! L2-regularized logistic regression fit by IRLS (Newton-Raphson).
//!
//! # What a point caches
//!
//! NURD refits this model at every checkpoint, so the Newton loop is
//! serving-path code. It works on *points*: a coefficient vector `β`
//! together with, for every row, the linear score `zᵢ = β·xᵢ` and
//! `eᵢ = exp(−|zᵢ|)`, and the penalized log-likelihood those sum to.
//! `eᵢ` is the one transcendental both halves of an iteration need: the
//! objective's stable `ln(1 + eᶻ) = max(z, 0) + ln(1 + e)` and the
//! Newton pass's `σ(z)` (`1/(1+e)` above zero, `e/(1+e)` below —
//! `sigmoid` itself is written through the same `sigmoid_from_exp`, so the
//! two agree by construction). The line search evaluates the objective
//! into a second, candidate point; accepting a step swaps the two, and
//! the next Newton pass reads `pᵢ` from the accepted point's `(zᵢ, eᵢ)`
//! instead of taking the dot product and the `exp` again. Each row's
//! transcendentals are evaluated once per point.
//!
//! # When the loop stops
//!
//! A full Newton step predicts an ascent of `½·gradᵀ·step` (half the
//! Newton decrement). Once that is not above `4·ε·|f(β)|` — a few ulps of
//! a sum of `n` rounded terms — a candidate could pass the strict-ascent
//! test only by rounding luck, so the loop returns `β` unevaluated; written
//! `!(… > …)`, it stops on a NaN decrement (a non-finite step) too. The
//! other exits are unchanged: a run is a prefix of the loop without the
//! rule, ending at one of its iterates in no more iterations or evaluations.
//!
//! The equal-candidate `break` still stands: `f(β)` is exactly zero where
//! every row's loss rounds away against its `z` (one class, a saturated
//! intercept), so a positive decrement clears the relative threshold while
//! the step no longer moves `β`. At a candidate `to_bits`-equal to `β` the
//! objective is `f(β)` exactly and `>` cannot pass; halving `α` only
//! shrinks each `α·stepⱼ`, and rounding is monotone, so every later
//! candidate is `β` too: the search ends *not accepted*, as the full one
//! would, having evaluated nothing. `mod reference` (`cfg(test)`) keeps the
//! pre-PR-15 loop, the rule behind a flag, as the oracle of
//! `prop_irls_bit_identical_to_reference` and
//! `prop_resolution_stop_is_a_prefix_of_the_full_search`.

use nurd_linalg::{Cholesky, Matrix, MatrixView};

use crate::MlError;

/// Hyperparameters for [`LogisticRegression`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LogisticConfig {
    /// Reweight samples so both classes contribute equally (each sample of
    /// class `c` gets weight `n / (2 n_c)`). Essential for propensity
    /// estimation on heavily imbalanced finished-vs-running splits, where
    /// an unweighted fit depresses every probability toward the base rate.
    pub balanced: bool,
}

/// Binary logistic regression: `P(y = 1 | x) = σ(w·x + b)`.
///
/// This is the propensity-score estimator `g_t` of the paper (Eq. 2): the
/// conditional probability that a task belongs to the finished class given
/// its features — the paper follows the epidemiology literature (Cepeda et
/// al.) in using logistic regression for propensity scores.
///
/// Features are standardized internally, so callers can pass raw data.
///
/// # Example
///
/// ```
/// use nurd_ml::{LogisticConfig, LogisticRegression};
///
/// # fn main() -> Result<(), nurd_ml::MlError> {
/// let x = vec![vec![-2.0], vec![-1.0], vec![1.0], vec![2.0]];
/// let y = vec![0.0, 0.0, 1.0, 1.0];
/// let model = LogisticRegression::fit(&x, &y, &LogisticConfig::default())?;
/// assert!(model.predict_proba(&[1.5]) > 0.5);
/// assert!(model.predict_proba(&[-1.5]) < 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    intercept: f64,
    feature_means: Vec<f64>,
    feature_stds: Vec<f64>,
    iterations: usize,
}

impl LogisticRegression {
    /// Fits the model; labels must be in `{0, 1}`.
    ///
    /// # Errors
    ///
    /// [`MlError::EmptyTrainingSet`] / [`MlError::DimensionMismatch`] on bad
    /// shapes, [`MlError::InvalidConfig`] on labels outside `{0, 1}`,
    /// [`MlError::OptimizationFailed`] if the damped Newton system stays
    /// singular.
    pub fn fit(x: &[Vec<f64>], y: &[f64], config: &LogisticConfig) -> Result<Self, MlError> {
        let rows: Vec<&[f64]> = x.iter().map(Vec::as_slice).collect();
        Self::fit_view_warm(MatrixView::RowSlices(&rows), y, config, None)
    }

    /// Fits the model over any matrix layout without cloning caller rows
    /// (the standardized working copy is a single flat allocation),
    /// warm-starting IRLS from a previously fitted model when one is
    /// supplied.
    ///
    /// NURD refits its propensity model `g_t` at every checkpoint on a
    /// training set that differs from the previous checkpoint's by a
    /// handful of rows, so the previous optimum is an excellent Newton
    /// starting point. The seed's coefficients are remapped from *its*
    /// standardization (means/stds move as rows accumulate) into the new
    /// fit's before seeding, so the seeded objective starts at the old
    /// optimum evaluated on the new data. Because the penalized
    /// log-likelihood is strictly concave, warm and cold starts converge
    /// to the same optimum (within the solver's tolerance); warm starts
    /// just take fewer Newton iterations.
    ///
    /// The warm path is best-effort: a seed with a different feature
    /// count, non-finite remapped coefficients, or a seeded solve that
    /// fails outright falls back to the cold fit.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LogisticRegression::fit`] (after any cold
    /// fallback).
    pub fn fit_view_warm(
        x: MatrixView<'_>,
        y: &[f64],
        config: &LogisticConfig,
        warm: Option<&LogisticRegression>,
    ) -> Result<Self, MlError> {
        let d = crate::error::check_view(x, y)?;
        if y.iter().any(|&v| v != 0.0 && v != 1.0) {
            return Err(MlError::InvalidConfig("labels must be 0.0 or 1.0".into()));
        }

        let (xs, means, stds) = standardize(x, d);
        let sample_weights = sample_weights(y, config.balanced);

        // Augment with intercept column: index d is the bias. A warm seed
        // starts Newton at the previous optimum remapped into the current
        // standardization; a failed seeded solve falls back to cold.
        let solve = |beta| irls(&xs, d, y, &sample_weights, beta);
        let cold_start = || vec![0.0; d + 1];
        let (beta, iterations) = match warm.and_then(|prev| remap_seed(prev, &means, &stds, d)) {
            Some(seed) => solve(seed).or_else(|_| solve(cold_start()))?,
            None => solve(cold_start())?,
        };

        Ok(LogisticRegression {
            weights: beta[..d].to_vec(),
            intercept: beta[d],
            feature_means: means,
            feature_stds: stds,
            iterations,
        })
    }
}

/// Translates a previously fitted model's coefficients into the
/// standardized space defined by `means`/`stds`, preserving the model's
/// raw-feature decision function exactly. Returns `None` when the seed is
/// unusable (feature-count mismatch or non-finite remap).
fn remap_seed(
    prev: &LogisticRegression,
    means: &[f64],
    stds: &[f64],
    d: usize,
) -> Option<Vec<f64>> {
    if prev.weights.len() != d {
        return None;
    }
    let mut beta = vec![0.0; d + 1];
    let mut intercept = prev.intercept;
    for j in 0..d {
        let raw_slope = prev.weights[j] / prev.feature_stds[j];
        beta[j] = raw_slope * stds[j];
        intercept += raw_slope * (means[j] - prev.feature_means[j]);
    }
    beta[d] = intercept;
    beta.iter().all(|v| v.is_finite()).then_some(beta)
}

/// Standardizes the columns of `x` so IRLS is well-conditioned. Returns
/// the working copy — one contiguous row-major buffer (stride `d`), filled
/// column by column straight from the view — and each column's mean and
/// standard deviation.
fn standardize(x: MatrixView<'_>, d: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let n = x.rows();
    let mut xs = vec![0.0; n * d];
    let mut means = vec![0.0; d];
    let mut stds = vec![0.0; d];
    let mut column: Vec<f64> = Vec::with_capacity(n);
    for j in 0..d {
        x.gather_column(j, &mut column);
        let mean = column.iter().sum::<f64>() / n as f64;
        let var = column.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        // Same floor convention as `nurd_linalg::standardize_columns`:
        // constant columns map to zero rather than NaN.
        let mut std = var.sqrt();
        if std < 1e-12 {
            std = 1.0;
        }
        means[j] = mean;
        stds[j] = std;
        for (i, &v) in column.iter().enumerate() {
            xs[i * d + j] = (v - mean) / std;
        }
    }
    (xs, means, stds)
}

/// Per-sample weights: uniform, or inverse class frequency (each sample
/// of class `c` weighs `n / (2 n_c)`).
fn sample_weights(y: &[f64], balanced: bool) -> Vec<f64> {
    if !balanced {
        return vec![1.0; y.len()];
    }
    // Count both classes before clamping: an absent class must not
    // shrink the other one's count.
    let positives = y.iter().filter(|&&v| v == 1.0).count();
    let n_pos = positives.max(1) as f64;
    let n_neg = (y.len() - positives).max(1) as f64;
    let total = y.len() as f64;
    y.iter()
        .map(|&v| {
            if v == 1.0 {
                total / (2.0 * n_pos)
            } else {
                total / (2.0 * n_neg)
            }
        })
        .collect()
}

/// One evaluated coefficient vector: `β` with, per row, the linear score
/// `zᵢ = β·xᵢ` and `eᵢ = exp(−|zᵢ|)`, and the objective they sum to.
struct Point {
    beta: Vec<f64>,
    z: Vec<f64>,
    e: Vec<f64>,
    objective: f64,
}

impl Point {
    /// `beta` over `n` rows, not yet evaluated.
    fn at(beta: Vec<f64>, n: usize) -> Self {
        Point {
            beta,
            z: vec![0.0; n],
            e: vec![0.0; n],
            objective: 0.0,
        }
    }

    /// Fills `z`, `e` and `objective` for the current `beta`: the weighted
    /// penalized Bernoulli log-likelihood
    /// `Σ wᵢ [y·z − ln(1 + eᶻ)] − ½λ‖w‖²` (intercept unpenalized), with
    /// the stable `ln(1 + eᶻ) = max(z, 0) + ln(1 + e^{−|z|})`. `xs` is
    /// row-major with stride `d`.
    fn evaluate(&mut self, xs: &[f64], d: usize, y: &[f64], sample_weights: &[f64]) {
        let (weights, intercept) = (&self.beta[..d], self.beta[d]);
        let mut ll = 0.0;
        for (i, row) in xs.chunks_exact(d).enumerate() {
            let z = intercept + nurd_linalg::dot(weights, row);
            let e = (-z.abs()).exp();
            ll += sample_weights[i] * (y[i] * z - (z.max(0.0) + e.ln_1p()));
            self.z[i] = z;
            self.e[i] = e;
        }
        self.objective = ll - 0.5 * L2 * nurd_linalg::dot(weights, weights);
    }
}

/// L2 penalty on the weights, not the intercept (scikit-learn's C = 1, in
/// standardized space): right after warmup a d-dimensional fit separates
/// any ≤ d finished tasks perfectly, saturating every probability.
const L2: f64 = 1.0;
/// Newton iterations [`irls`] takes at most.
const MAX_ITER: usize = 50;
/// Convergence tolerance of [`irls`] on the largest coefficient update.
const TOL: f64 = 1e-8;

/// Damped, line-searched IRLS (Newton-Raphson) on the penalized
/// log-likelihood, started from `beta`. Returns the solution and the
/// number of Newton iterations taken.
fn irls(
    xs: &[f64],
    d: usize,
    y: &[f64],
    sample_weights: &[f64],
    beta: Vec<f64>,
) -> Result<(Vec<f64>, usize), MlError> {
    let n = y.len();
    let mut point = Point::at(beta, n);
    point.evaluate(xs, d, y, sample_weights);
    let mut candidate = Point::at(vec![0.0; d + 1], n);
    let mut grad = vec![0.0; d + 1];
    // Upper triangle of the Hessian, row after row: row `a` holds columns
    // `a..=d`, column `d` being the intercept.
    let mut packed = vec![0.0; (d + 1) * (d + 2) / 2];
    let mut hess = Matrix::zeros(d + 1, d + 1);
    let mut iterations = 0;
    for _iter in 0..MAX_ITER {
        iterations += 1;
        // Gradient and Hessian of the penalized log-likelihood. Every
        // cell sums its rows in ascending order.
        grad.fill(0.0);
        packed.fill(0.0);
        for (i, row) in xs.chunks_exact(d).enumerate() {
            let p = crate::metrics::sigmoid_from_exp(point.z[i], point.e[i]);
            let sw = sample_weights[i];
            let w = (sw * p * (1.0 - p)).max(1e-9);
            let resid = sw * (y[i] - p);
            // Walk the packed rows by splitting them off the front: row
            // `a` is its `d − a` feature columns, then the intercept's.
            let mut cells = packed.as_mut_slice();
            for (a, (g, &xa)) in grad.iter_mut().zip(row).enumerate() {
                *g += resid * xa;
                let wa = w * xa;
                let (features, rest) = cells.split_at_mut(d - a);
                for (cell, &xb) in features.iter_mut().zip(&row[a..]) {
                    *cell += wa * xb;
                }
                rest[0] += wa;
                cells = &mut rest[1..];
            }
            grad[d] += resid;
            cells[0] += w;
        }
        for (g, &b) in grad.iter_mut().zip(&point.beta[..d]) {
            *g -= L2 * b;
        }
        let mut row_start = 0;
        for a in 0..=d {
            if a < d {
                packed[row_start] += L2;
            }
            for (b, &v) in (a..=d).zip(&packed[row_start..]) {
                hess.set(a, b, v);
                hess.set(b, a, v);
            }
            row_start += d + 1 - a;
        }

        // Damped Cholesky solve: add ridge until positive definite.
        let mut damping = 0.0;
        let step = loop {
            let factored = if damping == 0.0 {
                Cholesky::decompose(&hess)
            } else {
                Cholesky::decompose(
                    &hess
                        .add(&Matrix::identity(d + 1).scaled(damping))
                        .expect("shapes match"),
                )
            };
            match factored {
                Ok(chol) => {
                    break chol.solve(&grad).map_err(|e| {
                        MlError::OptimizationFailed(format!("newton solve failed: {e}"))
                    })?
                }
                Err(_) => {
                    damping = if damping == 0.0 { 1e-6 } else { damping * 10.0 };
                    if damping > 1e6 {
                        return Err(MlError::OptimizationFailed(
                            "hessian is singular beyond repair".into(),
                        ));
                    }
                }
            }
        };
        // An ascent under the objective's rounding, or NaN, resolves nothing.
        let resolvable =
            0.5 * nurd_linalg::dot(&grad, &step) > 4.0 * f64::EPSILON * point.objective.abs();
        if !resolvable {
            break;
        }

        // Backtracking line search on the penalized log-likelihood:
        // a raw Newton step explodes once the sigmoid saturates under
        // (near-)perfect separation, so only accept ascent steps.
        let mut alpha = 1.0;
        let mut accepted = false;
        let mut max_update = 0.0f64;
        for _ in 0..30 {
            for ((c, b), s) in candidate.beta.iter_mut().zip(&point.beta).zip(&step) {
                *c = b + alpha * s;
            }
            // The step no longer moves β: the objective there is
            // `point.objective` itself, and no smaller α moves it either.
            if bit_equal(&candidate.beta, &point.beta) {
                break;
            }
            candidate.evaluate(xs, d, y, sample_weights);
            if candidate.objective > point.objective {
                max_update = step.iter().fold(0.0, |m, s| m.max((alpha * s).abs()));
                std::mem::swap(&mut point, &mut candidate);
                accepted = true;
                break;
            }
            alpha *= 0.5;
        }
        if !accepted || max_update < TOL {
            break; // converged (no ascent direction improves the objective)
        }
    }
    Ok((point.beta, iterations))
}

fn bit_equal(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(a, b)| a.to_bits() == b.to_bits())
}

impl LogisticRegression {
    /// Probability `P(y = 1 | x)`.
    ///
    /// # Panics
    ///
    /// Panics if `features` has a different width than the training data.
    #[must_use]
    pub fn predict_proba(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.weights.len(), "feature width mismatch");
        let mut z = self.intercept;
        for ((&f, &w), (&m, &s)) in features
            .iter()
            .zip(&self.weights)
            .zip(self.feature_means.iter().zip(&self.feature_stds))
        {
            z += w * (f - m) / s;
        }
        crate::sigmoid(z)
    }

    /// Probabilities for every row of a matrix view (no row copies).
    #[must_use]
    pub fn predict_proba_view(&self, xs: MatrixView<'_>) -> Vec<f64> {
        let mut out = Vec::new();
        self.predict_proba_view_into(xs, &mut out);
        out
    }

    /// As [`LogisticRegression::predict_proba_view`], but filling a
    /// caller-owned buffer (cleared and refilled) — the serving hot path's
    /// allocation-free variant.
    pub fn predict_proba_view_into(&self, xs: MatrixView<'_>, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..xs.rows()).map(|i| {
            let mut z = self.intercept;
            for (c, (&w, (&m, &s))) in self
                .weights
                .iter()
                .zip(self.feature_means.iter().zip(&self.feature_stds))
                .enumerate()
            {
                z += w * (xs.get(i, c) - m) / s;
            }
            crate::sigmoid(z)
        }));
    }

    /// Learned weights in standardized feature space.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

impl nurd_codec::Checkpointable for LogisticRegression {
    fn encode(&self, enc: &mut nurd_codec::Encoder) {
        self.weights.encode(enc);
        enc.put_f64(self.intercept);
        self.feature_means.encode(enc);
        self.feature_stds.encode(enc);
        enc.put_usize(self.iterations);
    }

    fn decode(dec: &mut nurd_codec::Decoder<'_>) -> Result<Self, nurd_codec::CodecError> {
        let model = LogisticRegression {
            weights: nurd_codec::Checkpointable::decode(dec)?,
            intercept: dec.take_f64()?,
            feature_means: nurd_codec::Checkpointable::decode(dec)?,
            feature_stds: nurd_codec::Checkpointable::decode(dec)?,
            iterations: dec.take_usize()?,
        };
        // Scoring zips the three tables and `remap_seed` indexes them by
        // the weights' length: a ragged model would score every row as
        // `σ(intercept)` and panic the next warm refit it seeds.
        let d = model.weights.len();
        for table in [&model.feature_means, &model.feature_stds] {
            if table.len() != d {
                return Err(nurd_codec::CodecError::LengthOverrun {
                    declared: table.len() as u64,
                    remaining: d,
                });
            }
        }
        // `standardize` floors every deviation at a positive value, and
        // both scoring and seeding divide by it.
        let usable = |s: &f64| s.is_finite() && *s > 0.0;
        if !model.feature_stds.iter().all(usable) {
            return Err(nurd_codec::CodecError::InvalidTag {
                what: "LogisticRegression feature deviation (finite and positive)",
                tag: 0,
            });
        }
        Ok(model)
    }
}

/// The IRLS this module ran before points cached `z` and `exp(−|z|)`
/// (PR 15), verbatim — one objective pass per candidate, a second dot
/// product and `exp` per row in the Newton pass, the Hessian through
/// `Matrix::get`/`set`, all 30 halvings of a stalled line search — kept
/// as the oracle `prop_irls_bit_identical_to_reference` holds [`irls`]
/// to. Its only additions fill the [`Witness`] and put the resolution stop
/// behind `resolution_stop`.
///
/// [`irls`]: super::irls
#[cfg(test)]
mod reference {
    use super::{MlError, L2, MAX_ITER, TOL};
    use nurd_linalg::{Cholesky, Matrix};

    /// What a run of the oracle met, so the properties can show they
    /// covered the paths the rewrite changed.
    #[derive(Debug, Default)]
    pub(super) struct Witness {
        /// A line search evaluated a candidate bit-equal to `β` — where
        /// the rewrite `break`s instead.
        pub(super) stalled: bool,
        /// A line search accepted a step at `α < 1`.
        pub(super) backtracked: bool,
        /// The resolution stop ended a run.
        pub(super) resolved: bool,
        /// Candidates evaluated by line searches.
        pub(super) evaluations: usize,
        /// Every `β` a run stood at: its start, then each accepted step.
        pub(super) iterates: Vec<Vec<f64>>,
    }

    /// Damped, line-searched IRLS (Newton-Raphson) on the penalized
    /// log-likelihood, started from `beta`. Returns the solution and the
    /// number of Newton iterations taken.
    pub(super) fn irls(
        xs: &[f64],
        d: usize,
        y: &[f64],
        sample_weights: &[f64],
        beta: Vec<f64>,
        resolution_stop: bool,
        witness: &mut Witness,
    ) -> Result<(Vec<f64>, usize), MlError> {
        let n = y.len();
        let mut beta = beta;
        let mut iterations = 0;
        let mut objective = penalized_log_likelihood(xs, d, y, sample_weights, &beta);
        witness.iterates.push(beta.clone());
        for _iter in 0..MAX_ITER {
            iterations += 1;
            // Gradient and Hessian of the penalized log-likelihood.
            let mut grad = vec![0.0; d + 1];
            let mut hess = Matrix::zeros(d + 1, d + 1);
            for i in 0..n {
                let row = &xs[i * d..(i + 1) * d];
                let z = beta[d] + nurd_linalg::dot(&beta[..d], row);
                let p = crate::metrics::reference::sigmoid(z);
                let sw = sample_weights[i];
                let w = (sw * p * (1.0 - p)).max(1e-9);
                let resid = sw * (y[i] - p);
                for a in 0..d {
                    grad[a] += resid * row[a];
                    for b in a..d {
                        let v = hess.get(a, b) + w * row[a] * row[b];
                        hess.set(a, b, v);
                    }
                    let v = hess.get(a, d) + w * row[a];
                    hess.set(a, d, v);
                }
                grad[d] += resid;
                let v = hess.get(d, d) + w;
                hess.set(d, d, v);
            }
            for a in 0..d {
                grad[a] -= L2 * beta[a];
                let v = hess.get(a, a) + L2;
                hess.set(a, a, v);
                for b in 0..a {
                    hess.set(a, b, hess.get(b, a));
                }
            }
            for b in 0..d {
                hess.set(d, b, hess.get(b, d));
            }

            // Damped Cholesky solve: add ridge until positive definite.
            let mut damping = 0.0;
            let step = loop {
                let damped = if damping == 0.0 {
                    hess.clone()
                } else {
                    hess.add(&Matrix::identity(d + 1).scaled(damping))
                        .expect("shapes match")
                };
                match Cholesky::decompose(&damped) {
                    Ok(chol) => {
                        break chol.solve(&grad).map_err(|e| {
                            MlError::OptimizationFailed(format!("newton solve failed: {e}"))
                        })?
                    }
                    Err(_) => {
                        damping = if damping == 0.0 { 1e-6 } else { damping * 10.0 };
                        if damping > 1e6 {
                            return Err(MlError::OptimizationFailed(
                                "hessian is singular beyond repair".into(),
                            ));
                        }
                    }
                }
            };
            let resolvable =
                0.5 * nurd_linalg::dot(&grad, &step) > 4.0 * f64::EPSILON * objective.abs();
            if resolution_stop && !resolvable {
                witness.resolved = true;
                break;
            }

            // Backtracking line search on the penalized log-likelihood:
            // a raw Newton step explodes once the sigmoid saturates under
            // (near-)perfect separation, so only accept ascent steps.
            let mut alpha = 1.0;
            let mut accepted = false;
            let mut max_update = 0.0f64;
            for _ in 0..30 {
                let candidate: Vec<f64> =
                    beta.iter().zip(&step).map(|(b, s)| b + alpha * s).collect();
                let cand_obj = penalized_log_likelihood(xs, d, y, sample_weights, &candidate);
                witness.stalled |= super::bit_equal(&candidate, &beta);
                witness.evaluations += 1;
                if cand_obj > objective {
                    witness.backtracked |= alpha < 1.0;
                    max_update = step.iter().fold(0.0, |m, s| m.max((alpha * s).abs()));
                    beta = candidate;
                    objective = cand_obj;
                    witness.iterates.push(beta.clone());
                    accepted = true;
                    break;
                }
                alpha *= 0.5;
            }
            if !accepted || max_update < TOL {
                break; // converged (no ascent direction improves the objective)
            }
        }
        Ok((beta, iterations))
    }

    /// Weighted penalized Bernoulli log-likelihood
    /// `Σ wᵢ [y·z − ln(1 + eᶻ)] − ½λ‖w‖²` (intercept unpenalized), evaluated
    /// with the stable `ln(1+eᶻ)` form. `xs` is row-major with stride `d`.
    fn penalized_log_likelihood(
        xs: &[f64],
        d: usize,
        y: &[f64],
        sample_weights: &[f64],
        beta: &[f64],
    ) -> f64 {
        debug_assert_eq!(beta.len(), d + 1);
        let mut ll = 0.0;
        for ((row, &yi), &sw) in xs.chunks_exact(d).zip(y).zip(sample_weights) {
            let z = beta[d] + nurd_linalg::dot(&beta[..d], row);
            // ln(1 + e^z) = max(z, 0) + ln(1 + e^{-|z|})
            let log1pexp = z.max(0.0) + (-z.abs()).exp().ln_1p();
            ll += sw * (yi * z - log1pexp);
        }
        ll - 0.5 * L2 * nurd_linalg::dot(&beta[..d], &beta[..d])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row_slices;
    use proptest::prelude::*;
    use rand::Rng;

    #[test]
    fn separable_data_orders_probabilities() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 0.0 } else { 1.0 }).collect();
        let m = LogisticRegression::fit(&x, &y, &LogisticConfig::default()).unwrap();
        assert!(m.predict_proba(&[0.0]) < 0.1);
        assert!(m.predict_proba(&[19.0]) > 0.9);
    }

    #[test]
    fn recovers_known_coefficients_approximately() {
        // Generate from a known logistic model and check sign/ordering.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            let a = (i % 20) as f64 / 10.0 - 1.0;
            let b = ((i / 20) % 10) as f64 / 5.0 - 1.0;
            let p = crate::sigmoid(3.0 * a - 2.0 * b);
            x.push(vec![a, b]);
            y.push(if p > 0.5 { 1.0 } else { 0.0 });
        }
        let m = LogisticRegression::fit(&x, &y, &LogisticConfig::default()).unwrap();
        assert!(m.weights()[0] > 0.0, "weight on a should be positive");
        assert!(m.weights()[1] < 0.0, "weight on b should be negative");
    }

    #[test]
    fn balanced_coin_gives_half() {
        let x = vec![vec![1.0], vec![1.0], vec![1.0], vec![1.0]];
        let y = vec![0.0, 1.0, 0.0, 1.0];
        let m = LogisticRegression::fit(&x, &y, &LogisticConfig::default()).unwrap();
        assert!((m.predict_proba(&[1.0]) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn single_class_saturates_safely() {
        let x = vec![vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![1.0, 1.0, 1.0];
        let m = LogisticRegression::fit(&x, &y, &LogisticConfig::default()).unwrap();
        assert!(m.predict_proba(&[2.0]) > 0.9);
    }

    #[test]
    fn rejects_non_binary_labels() {
        let x = vec![vec![1.0]];
        assert!(matches!(
            LogisticRegression::fit(&x, &[0.5], &LogisticConfig::default()),
            Err(MlError::InvalidConfig(_))
        ));
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(
            LogisticRegression::fit(&[], &[], &LogisticConfig::default()),
            Err(MlError::EmptyTrainingSet)
        ));
    }

    #[test]
    fn constant_feature_does_not_crash() {
        let x = vec![
            vec![5.0, 0.0],
            vec![5.0, 1.0],
            vec![5.0, 2.0],
            vec![5.0, 3.0],
        ];
        let y = vec![0.0, 0.0, 1.0, 1.0];
        let m = LogisticRegression::fit(&x, &y, &LogisticConfig::default()).unwrap();
        assert!(m.predict_proba(&[5.0, 3.0]) > m.predict_proba(&[5.0, 0.0]));
    }

    /// Synthetic propensity-style data: label = finished-looking features.
    fn drifting_set(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                vec![
                    ((i * 29) % 23) as f64 / 23.0 + 0.2 * t,
                    ((i * 11) % 17) as f64 / 17.0,
                ]
            })
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| f64::from(2.0 * r[0] - r[1] > 0.55))
            .collect();
        (x, y)
    }

    #[test]
    fn warm_start_matches_cold_optimum_in_fewer_iterations() {
        let (x, y) = drifting_set(240);
        let cfg = LogisticConfig::default();
        // Checkpoint 1: fit the first 200 rows cold.
        let prev = LogisticRegression::fit(&x[..200], &y[..200], &cfg).unwrap();
        // Checkpoint 2: 40 new rows arrive; refit cold and warm.
        let cold = LogisticRegression::fit(&x, &y, &cfg).unwrap();
        let warm = LogisticRegression::fit_view_warm(
            MatrixView::RowSlices(&row_slices(&x)),
            &y,
            &cfg,
            Some(&prev),
        )
        .unwrap();
        // Strictly concave objective: both converge to the same optimum.
        for row in &x {
            assert!(
                (cold.predict_proba(row) - warm.predict_proba(row)).abs() < 1e-5,
                "warm and cold optima diverged"
            );
        }
        // The warm start must not take more Newton iterations than cold
        // (on near-identical data it converges almost immediately).
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} vs cold {} iterations",
            warm.iterations,
            cold.iterations
        );
        assert!(cold.iterations >= 2, "fixture too easy to measure savings");
    }

    /// The objective IRLS maximizes, at `model` over `x`, `y` standardized
    /// as its fit was — on its own rows, bit for bit the value it stopped at.
    fn objective(
        model: &LogisticRegression,
        x: MatrixView<'_>,
        y: &[f64],
        config: &LogisticConfig,
    ) -> f64 {
        let d = model.weights.len();
        let mut xs = Vec::with_capacity(x.rows() * d);
        for i in 0..x.rows() {
            let scale = model.feature_means.iter().zip(&model.feature_stds);
            xs.extend(scale.enumerate().map(|(j, (m, s))| (x.get(i, j) - m) / s));
        }
        let mut point = Point::at([&model.weights[..], &[model.intercept]].concat(), y.len());
        point.evaluate(&xs, d, y, &sample_weights(y, config.balanced));
        point.objective
    }

    /// The contract of the resolution stop (module docs, "When the loop
    /// stops"): the loop ends once a full Newton step predicts an ascent
    /// under 4·ε·|f|, far below what a sum of n rounded terms resolves
    /// (n·ε·|f|), so a seeded fit must end within that of the cold fit's
    /// objective. One that stopped early would not. The shapes are the two
    /// `g_t` serves — a giant Alibaba-style job (thousands of tasks, 4
    /// features) and a Google-style one (~120 tasks, 17 features) — seeded
    /// from a fit on the first 95 % of rows, as each checkpoint's refit is
    /// seeded from the last.
    #[test]
    fn a_seeded_fit_ends_where_the_cold_fit_does_within_rounding() {
        let config = LogisticConfig { balanced: true };
        for (n, d) in [(2000usize, 4usize), (120, 17)] {
            let x: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    (0..d)
                        .map(|j| ((i * 31 + j * 17) % 97) as f64 / 97.0)
                        .collect()
                })
                .collect();
            // Finished vs running: near-separable on a progress-like
            // feature, a few rows on the wrong side.
            let labels: Vec<f64> = x
                .iter()
                .enumerate()
                .map(|(i, row)| f64::from((row[0] + 0.15 * row[d - 1] > 0.6) != (i % 37 == 0)))
                .collect();
            let prefix = n * 95 / 100;
            let previous =
                LogisticRegression::fit(&x[..prefix], &labels[..prefix], &config).unwrap();
            let rows = row_slices(&x);
            let view = MatrixView::RowSlices(&rows);
            let ends_at = |seed| {
                let fit = LogisticRegression::fit_view_warm(view, &labels, &config, seed).unwrap();
                objective(&fit, view, &labels, &config)
            };
            let (cold, warm) = (ends_at(None), ends_at(Some(&previous)));
            assert!(
                (warm - cold).abs() <= n as f64 * f64::EPSILON * cold.abs(),
                "{n}x{d}: the seeded fit ends at {warm}, the cold one at {cold}"
            );
        }
    }

    #[test]
    fn warm_seed_remap_preserves_decision_function() {
        // Seeding across a pure shift/scale of the data distribution:
        // the remapped seed, read in the new rows' standardization, must
        // reproduce the previous model's raw-space probabilities — the
        // point a warm IRLS starts from.
        let (x, y) = drifting_set(200);
        let prev =
            LogisticRegression::fit(&x[..150], &y[..150], &LogisticConfig::default()).unwrap();
        let (_, means, stds) = standardize(MatrixView::RowSlices(&row_slices(&x)), 2);
        let beta = remap_seed(&prev, &means, &stds, 2).unwrap();
        let seeded = LogisticRegression {
            weights: beta[..2].to_vec(),
            intercept: beta[2],
            feature_means: means,
            feature_stds: stds,
            iterations: 0,
        };
        for row in &x {
            assert!(
                (seeded.predict_proba(row) - prev.predict_proba(row)).abs() < 1e-9,
                "remapped seed changed the decision function"
            );
        }
    }

    #[test]
    fn incompatible_seed_falls_back_to_cold() {
        let (x, y) = drifting_set(120);
        let cfg = LogisticConfig::default();
        // Seed trained on a different feature width.
        let narrow: Vec<Vec<f64>> = x.iter().map(|r| vec![r[0]]).collect();
        let seed = LogisticRegression::fit(&narrow, &y, &cfg).unwrap();
        let warm = LogisticRegression::fit_view_warm(
            MatrixView::RowSlices(&row_slices(&x)),
            &y,
            &cfg,
            Some(&seed),
        )
        .unwrap();
        let cold = LogisticRegression::fit(&x, &y, &cfg).unwrap();
        assert_eq!(warm.iterations, cold.iterations);
        for row in &x {
            assert_eq!(warm.predict_proba(row), cold.predict_proba(row));
        }
    }

    #[test]
    fn balanced_weights_count_classes_before_clamping() {
        // A single-class label vector weighs every sample n / (2n): the
        // absent class's clamp to 1 must not eat into the present count.
        for label in [0.0, 1.0] {
            assert_eq!(sample_weights(&[label; 5], true), vec![0.5; 5]);
        }
        assert_eq!(
            sample_weights(&[1.0, 0.0, 0.0, 0.0], true),
            vec![2.0, 2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0]
        );
        assert_eq!(sample_weights(&[1.0, 0.0], false), vec![1.0, 1.0]);
    }

    /// `fit_view_warm` with [`reference::irls`] (resolution stop on) as
    /// the solver: the same standardization, weights, seed remap and cold
    /// fallback around the old Newton loop.
    fn reference_fit(
        x: &[Vec<f64>],
        y: &[f64],
        config: &LogisticConfig,
        warm: Option<&LogisticRegression>,
        witness: &mut reference::Witness,
    ) -> Result<LogisticRegression, MlError> {
        let d = x[0].len();
        let (xs, means, stds) = standardize(MatrixView::RowSlices(&row_slices(x)), d);
        let sw = sample_weights(y, config.balanced);
        let mut solve = |beta| reference::irls(&xs, d, y, &sw, beta, true, witness);
        let cold_start = || vec![0.0; d + 1];
        let (beta, iterations) = match warm.and_then(|prev| remap_seed(prev, &means, &stds, d)) {
            Some(seed) => match solve(seed) {
                Ok(fit) => fit,
                Err(_) => solve(cold_start())?,
            },
            None => solve(cold_start())?,
        };
        Ok(LogisticRegression {
            weights: beta[..d].to_vec(),
            intercept: beta[d],
            feature_means: means,
            feature_stds: stds,
            iterations,
        })
    }

    /// One random fit problem of the differential property. `shape`
    /// picks the data: 0 overlapping classes, 1 linearly separable,
    /// 2 a constant leading column, 3 rows drawn from a handful of
    /// distinct ones, 4 near-separable (separable, every 37th label
    /// flipped).
    fn differential_case(
        rng: &mut proptest::TestRng,
        shape: u8,
    ) -> (Vec<Vec<f64>>, Vec<f64>, LogisticConfig) {
        let n = rng.gen_range(2..200usize);
        let d = rng.gen_range(1..=18usize);
        let scales: Vec<f64> = (0..d)
            .map(|_| 10f64.powf(rng.gen_range(-2.0..3.0)))
            .collect();
        let truth: Vec<f64> = (0..d).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let distinct = if shape == 3 { n / 8 + 1 } else { n };
        let pool: Vec<Vec<f64>> = (0..distinct)
            .map(|_| {
                scales
                    .iter()
                    .map(|s| s * rng.gen_range(-1.0..1.0))
                    .collect()
            })
            .collect();
        let mut x: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                pool[if shape == 3 {
                    rng.gen_range(0..distinct)
                } else {
                    i
                }]
                .clone()
            })
            .collect();
        let noise = if shape == 1 || shape == 4 { 0.0 } else { 0.6 };
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let score: f64 = row
                    .iter()
                    .zip(&truth)
                    .zip(&scales)
                    .map(|((v, w), s)| v * w / s)
                    .sum();
                let flipped = shape == 4 && i % 37 == 0;
                f64::from((score + noise * rng.gen_range(-1.0..1.0) > 0.1) != flipped)
            })
            .collect();
        if shape == 2 {
            x.iter_mut().for_each(|row| row[0] = 7.25);
        }
        let config = LogisticConfig {
            balanced: rng.gen_bool(0.5),
        };
        (x, y, config)
    }

    /// The rewritten IRLS against the one it replaced ([`reference`]):
    /// every fitted number bit for bit, over cold fits, fits seeded from
    /// a model of a prefix of the rows, and fits handed a seed of the
    /// wrong width.
    #[test]
    fn prop_irls_bit_identical_to_reference() {
        let mut rng = proptest::test_runner::rng_for("nurd_ml::logistic::irls_differential");
        let mut witness = reference::Witness::default();
        let mut fell_back_cold = false;
        for case in 0..400u32 {
            let shape = (case % 5) as u8;
            let (x, y, config) = differential_case(&mut rng, shape);
            let (n, d) = (x.len(), x[0].len());
            let seed = match case / 5 % 3 {
                0 => None,
                1 => {
                    let prefix = (n * 3 / 4).max(1);
                    Some(LogisticRegression::fit(&x[..prefix], &y[..prefix], &config).unwrap())
                }
                _ => {
                    let wide: Vec<Vec<f64>> = x
                        .iter()
                        .map(|row| [row.as_slice(), &[row[0] * 0.5]].concat())
                        .collect();
                    Some(LogisticRegression::fit(&wide, &y, &config).unwrap())
                }
            };
            if let Some(seed) = &seed {
                let (_, means, stds) = standardize(MatrixView::RowSlices(&row_slices(&x)), d);
                fell_back_cold |= remap_seed(seed, &means, &stds, d).is_none();
            }
            let expected = reference_fit(&x, &y, &config, seed.as_ref(), &mut witness).unwrap();
            let got = LogisticRegression::fit_view_warm(
                MatrixView::RowSlices(&row_slices(&x)),
                &y,
                &config,
                seed.as_ref(),
            )
            .unwrap();
            let bits = |m: &LogisticRegression| -> Vec<u64> {
                [
                    &m.weights[..],
                    &[m.intercept],
                    &m.feature_means[..],
                    &m.feature_stds[..],
                ]
                .concat()
                .iter()
                .map(|v| v.to_bits())
                .collect()
            };
            assert_eq!(
                bits(&got),
                bits(&expected),
                "case {case}: n {n}, d {d}, shape {shape}"
            );
            assert_eq!(
                got.iterations, expected.iterations,
                "case {case}: n {n}, d {d}, shape {shape}"
            );
        }
        // The paths the rewrite changed must all have been walked. (The
        // rule pre-empts every stall these cases used to reach; the
        // equal-candidate `break` has its witness in
        // `equal_candidate_break_outlives_the_rule_where_f_rounds_to_zero`.)
        assert!(
            witness.backtracked,
            "no line search accepted a step at α < 1"
        );
        assert!(witness.resolved, "no run ended at the resolution stop");
        assert!(
            fell_back_cold,
            "no unusable seed fell back to the cold start"
        );
    }

    /// The rule cuts a run short and changes nothing else. Over the two
    /// serving shapes of `g_t` (≈ 2,000 rows × 4 and ≈ 120 × 17, balanced
    /// weights, near-separable labels, seeded and cold) its coefficients
    /// are an iterate of the loop without it, reached in no more
    /// iterations or candidate evaluations, and what the full search goes
    /// on to gain is at most `FULL_SEARCH_GAIN · ε · |f|` — eight times
    /// the threshold, twice the largest gain 200 such cases showed (16.0;
    /// they averaged 11.8 → 4.8 evaluations per fit).
    #[test]
    fn prop_resolution_stop_is_a_prefix_of_the_full_search() {
        const FULL_SEARCH_GAIN: f64 = 32.0;
        let mut rng = proptest::test_runner::rng_for("nurd_ml::logistic::resolution_stop");
        let bits = |beta: &[f64]| -> Vec<u64> { beta.iter().map(|v| v.to_bits()).collect() };
        let (mut resolved, mut saved) = (0, 0);
        for case in 0..24u32 {
            let (n, d) = if case % 2 == 0 {
                (rng.gen_range(1500..2500usize), 4)
            } else {
                (rng.gen_range(90..150usize), 17)
            };
            let x: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
                .collect();
            let y: Vec<f64> = x
                .iter()
                .map(|row| f64::from((row[0] + 0.15 * row[d - 1] > 0.6) != rng.gen_bool(0.03)))
                .collect();
            let (xs, means, stds) = standardize(MatrixView::RowSlices(&row_slices(&x)), d);
            let sw = sample_weights(&y, true);
            let start = if case % 4 < 2 {
                vec![0.0; d + 1]
            } else {
                let prefix = n * 95 / 100;
                let config = LogisticConfig { balanced: true };
                let prev = LogisticRegression::fit(&x[..prefix], &y[..prefix], &config).unwrap();
                remap_seed(&prev, &means, &stds, d).unwrap()
            };
            let (beta, iterations) = irls(&xs, d, &y, &sw, start.clone()).unwrap();
            let mut rule = reference::Witness::default();
            let (rule_beta, _) =
                reference::irls(&xs, d, &y, &sw, start.clone(), true, &mut rule).unwrap();
            let mut full = reference::Witness::default();
            let (full_beta, full_iterations) =
                reference::irls(&xs, d, &y, &sw, start, false, &mut full).unwrap();
            let at = format!("case {case}: n {n}, d {d}");
            assert_eq!(bits(&beta), bits(&rule_beta), "{at}");
            assert!(
                full.iterates.iter().any(|it| bits(it) == bits(&beta)),
                "{at}: not an iterate of the full search"
            );
            assert!(iterations <= full_iterations, "{at}: more iterations");
            assert!(
                rule.evaluations <= full.evaluations,
                "{at}: more evaluations"
            );
            let objective = |beta: &[f64]| {
                let mut point = Point::at(beta.to_vec(), n);
                point.evaluate(&xs, d, &y, &sw);
                point.objective
            };
            let f = objective(&beta);
            let gain = objective(&full_beta) - f;
            assert!(
                gain <= FULL_SEARCH_GAIN * f64::EPSILON * f.abs(),
                "{at}: the full search gained {gain:e} over f = {f}"
            );
            resolved += usize::from(rule.resolved);
            saved += full.evaluations - rule.evaluations;
        }
        // Non-vacuity: the rule fired, and it saved evaluations.
        assert!(resolved >= 12, "the rule ended only {resolved} of 24 runs");
        assert!(saved > 0, "the rule saved no evaluation");
    }

    /// Where the equal-candidate `break` outlives the rule: one class over
    /// a constant feature, seeded at a saturated intercept of 36. Every
    /// row's loss rounds to zero against `z`, so `f = 0` and the threshold
    /// is zero, while the intercept's step (≈ 2e-7, positive) is halved
    /// until it no longer moves `β`.
    #[test]
    fn equal_candidate_break_outlives_the_rule_where_f_rounds_to_zero() {
        let (x, y) = (vec![vec![1.0]; 3], [1.0; 3]);
        let seed = LogisticRegression {
            weights: vec![0.0],
            intercept: 36.0,
            feature_means: vec![1.0],
            feature_stds: vec![1.0],
            iterations: 0,
        };
        let config = LogisticConfig::default();
        let mut witness = reference::Witness::default();
        let expected = reference_fit(&x, &y, &config, Some(&seed), &mut witness).unwrap();
        let got = LogisticRegression::fit_view_warm(
            MatrixView::RowSlices(&row_slices(&x)),
            &y,
            &config,
            Some(&seed),
        )
        .unwrap();
        assert!(witness.stalled && !witness.resolved, "{witness:?}");
        assert_eq!(
            (got.intercept.to_bits(), got.iterations),
            (expected.intercept.to_bits(), expected.iterations)
        );
        assert_eq!((got.intercept, got.iterations), (36.0, 1));
    }

    /// A Newton step that is not finite — here from a NaN feature, which
    /// standardization spreads over its whole column — predicts no ascent,
    /// so the fit returns its seed without evaluating a candidate. The loop
    /// without the rule returns the same seed after rejecting 30.
    #[test]
    fn non_finite_newton_step_returns_the_seed_unevaluated() {
        let x = vec![
            vec![0.5, f64::NAN],
            vec![1.5, 2.0],
            vec![2.5, 1.0],
            vec![3.5, 0.0],
        ];
        let y = [0.0, 0.0, 1.0, 1.0];
        let (xs, _, _) = standardize(MatrixView::RowSlices(&row_slices(&x)), 2);
        let sw = sample_weights(&y, true);
        let seed = vec![0.25, -0.5, 0.125];
        let bits = |beta: &[f64]| -> Vec<u64> { beta.iter().map(|v| v.to_bits()).collect() };
        let (beta, iterations) = irls(&xs, 2, &y, &sw, seed.clone()).unwrap();
        assert_eq!((bits(&beta), iterations), (bits(&seed), 1));
        for (resolution_stop, evaluations) in [(true, 0), (false, 30)] {
            let mut witness = reference::Witness::default();
            let (beta, iterations) =
                reference::irls(&xs, 2, &y, &sw, seed.clone(), resolution_stop, &mut witness)
                    .unwrap();
            assert_eq!((bits(&beta), iterations), (bits(&seed), 1));
            assert_eq!(witness.evaluations, evaluations, "rule {resolution_stop}");
        }
    }

    proptest! {
        /// Output is always a probability.
        #[test]
        fn prop_output_in_unit_interval(
            labels in proptest::collection::vec(0u8..2, 4..32),
            probe in -100.0..100.0f64) {
            let x: Vec<Vec<f64>> = (0..labels.len()).map(|i| vec![i as f64]).collect();
            let y: Vec<f64> = labels.iter().map(|&l| l as f64).collect();
            let m = LogisticRegression::fit(&x, &y, &LogisticConfig::default()).unwrap();
            let p = m.predict_proba(&[probe]);
            prop_assert!((0.0..=1.0).contains(&p) && p.is_finite());
        }

        /// Predictions are monotone in a single feature whose weight is
        /// positive (separable increasing labels).
        #[test]
        fn prop_monotone_when_separable(n in 6usize..24) {
            let x: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
            let y: Vec<f64> = (0..n).map(|i| if i < n / 2 { 0.0 } else { 1.0 }).collect();
            let m = LogisticRegression::fit(&x, &y, &LogisticConfig::default()).unwrap();
            let mut prev = m.predict_proba(&[0.0]);
            for i in 1..n {
                let p = m.predict_proba(&[i as f64]);
                prop_assert!(p >= prev - 1e-9);
                prev = p;
            }
        }
    }
}
