//! Gradient-boosted trees with Newton (second-order) updates.
//!
//! # The per-checkpoint refit hot path
//!
//! NURD refits this booster at every checkpoint of every job, so `fit` is
//! the single hottest code path in the repository. The implementation is
//! built around that fact:
//!
//! * the training matrix is accepted as a zero-copy [`MatrixView`]
//!   (row-major slices or a column-major
//!   [`nurd_linalg::FeatureMatrix`]) — rows are never cloned;
//! * features are quantized into a [`BinnedMatrix`] **once per fit**, and
//!   **one tree grower** serves every round of that fit: the feature
//!   layout, the pooled node histograms (kept all-zero between uses, with
//!   present-bin bitmaps so a node costs the cells it holds) and the
//!   in-place row partition buffer are set up once (see the grower section
//!   of `tree.rs`'s module docs). The trees are bit-for-bit those a fresh
//!   grower per round would grow;
//! * a round makes **one row pass per tree level** and keeps no
//!   per-round vector of its own: the loss is evaluated straight into the
//!   grower's row buffer, which carries `(g, h)` beside each row id; every
//!   split's partition pass hands both children their totals; and the
//!   rows end the round grouped by leaf, so the score update is
//!   `scores[i] += learning_rate · weight` over each leaf's range — no
//!   tree walk, the same multiply and add a walk would make;
//! * the ensemble **is** its [`FlatForest`]: the grower appends each
//!   round's nodes to the forest's arrays — raw `f64` features are never
//!   touched after quantization — and nothing is converted or copied
//!   afterwards for scoring.
//!
//! There are two fit entries and one way to extend a fit.
//! [`GradientBoosting::fit_view`] takes raw features and is literally
//! [`BinnedMatrix::build_for`] followed by
//! [`GradientBoosting::fit_binned_cached`], which takes a matrix the
//! caller already quantized (and keeps alive across checkpoints, growing
//! it in place with [`BinnedMatrix::append_from`]).
//! [`GradientBoosting::warm_boost`] then boosts a few new rounds onto a
//! fitted ensemble **in place** over such a grown matrix instead of
//! refitting from scratch.
//!
//! [`GradientBoosting::predict`], [`GradientBoosting::predict_batch`] and
//! [`GradientBoosting::predict_view`] are the forest's safe one-row walk
//! ([`FlatForest::predict`]) mapped over rows: bounds-checked and
//! lane-free, they serve the baselines that score a handful of rows and
//! double as the reference the lane-interleaved batch kernels are tested
//! against.

use nurd_linalg::MatrixView;

use crate::binned::BinnedMatrix;
use crate::flat::FlatForest;
use crate::tree::{TreeConfig, TreeGrower};
use crate::MlError;

/// A twice-differentiable training loss for [`GradientBoosting`].
///
/// Implementors supply the gradient and hessian of the per-sample loss with
/// respect to the raw model score `f`. The trait is deliberately *not*
/// sealed: `nurd-baselines` implements a Tobit loss on top of it to build
/// Grabit exactly as Sigrist & Hirnschall describe.
pub trait Loss {
    /// `(∂ℓ/∂f, ∂²ℓ/∂f²)` evaluated at raw score `f` for target `y`.
    ///
    /// Hessians must be non-negative; the booster floors them at `1e-12`.
    fn gradient_hessian(&self, y: f64, f: f64) -> (f64, f64);

    /// Initial raw score `f₀` minimizing the loss over the training targets
    /// (e.g. the mean for squared loss, the log-odds for logistic loss).
    fn base_score(&self, ys: &[f64]) -> f64;
}

/// Squared-error loss `½(f − y)²` for regression.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SquaredLoss;

impl Loss for SquaredLoss {
    fn gradient_hessian(&self, y: f64, f: f64) -> (f64, f64) {
        (f - y, 1.0)
    }

    fn base_score(&self, ys: &[f64]) -> f64 {
        nurd_linalg::mean(ys)
    }
}

/// Logistic loss for binary classification; targets must be in `{0, 1}` and
/// the raw score is a logit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogisticLoss;

impl Loss for LogisticLoss {
    fn gradient_hessian(&self, y: f64, f: f64) -> (f64, f64) {
        let p = crate::sigmoid(f);
        (p - y, (p * (1.0 - p)).max(1e-12))
    }

    fn base_score(&self, ys: &[f64]) -> f64 {
        let p = nurd_linalg::mean(ys).clamp(1e-6, 1.0 - 1e-6);
        (p / (1.0 - p)).ln()
    }
}

/// Shrinkage applied to each new tree's output.
const LEARNING_RATE: f64 = 0.15;

/// Hyperparameters for [`GradientBoosting`]. Every fit shrinks each
/// tree's output by the same learning rate, 0.15.
#[derive(Debug, Clone, PartialEq)]
pub struct GbtConfig {
    /// Number of boosting rounds (trees).
    pub n_rounds: usize,
    /// Per-tree structural parameters.
    pub tree: TreeConfig,
}

impl Default for GbtConfig {
    fn default() -> Self {
        GbtConfig {
            n_rounds: 60,
            tree: TreeConfig::default(),
        }
    }
}

/// Newton-boosted tree ensemble over an arbitrary [`Loss`].
///
/// This is the workhorse model of the reproduction: with [`SquaredLoss`] it
/// is the paper's GBTR baseline and NURD's latency head `h_t`; with
/// [`LogisticLoss`] it is a boosted classifier (XGBOD's supervised head);
/// `nurd-baselines` plugs in a Tobit loss to obtain Grabit.
///
/// # Example
///
/// ```
/// use nurd_ml::{GbtConfig, GradientBoosting, LogisticLoss};
///
/// # fn main() -> Result<(), nurd_ml::MlError> {
/// let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 20.0]).collect();
/// let y: Vec<f64> = (0..20).map(|i| if i < 10 { 0.0 } else { 1.0 }).collect();
/// let clf = GradientBoosting::fit(&x, &y, LogisticLoss, &GbtConfig::default())?;
/// assert!(clf.predict_proba(&[0.9]) > clf.predict_proba(&[0.1]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GradientBoosting<L: Loss> {
    loss: L,
    /// The trees, with the base score and learning rate they are summed
    /// under — the one representation grown, scored and serialized.
    forest: FlatForest,
}

impl<L: Loss> GradientBoosting<L> {
    /// Fits the ensemble.
    ///
    /// # Errors
    ///
    /// [`MlError::EmptyTrainingSet`] / [`MlError::DimensionMismatch`] on bad
    /// input, [`MlError::InvalidConfig`] on out-of-range hyperparameters.
    pub fn fit(x: &[Vec<f64>], y: &[f64], loss: L, config: &GbtConfig) -> Result<Self, MlError> {
        let rows: Vec<&[f64]> = x.iter().map(Vec::as_slice).collect();
        Self::fit_view(MatrixView::RowSlices(&rows), y, loss, config)
    }

    /// Fits the ensemble over any matrix layout without copying rows: pass
    /// `MatrixView::RowSlices` for zero-copy checkpoint features or a
    /// column-major [`nurd_linalg::FeatureMatrix`] scratch buffer.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GradientBoosting::fit`].
    pub fn fit_view(
        x: MatrixView<'_>,
        y: &[f64],
        loss: L,
        config: &GbtConfig,
    ) -> Result<Self, MlError> {
        crate::error::check_view(x, y)?;
        // Quantize once; every boosting round (and every node of every
        // tree) trains against this shared binned matrix.
        let binned = BinnedMatrix::build_for(x, &config.tree);
        Self::fit_binned_cached(&binned, y, loss, config, &mut Vec::new())
    }

    /// Fits the ensemble over a pre-quantized [`BinnedMatrix`] and leaves
    /// the fitted ensemble's raw per-row scores in `scores` (cleared and
    /// refilled), so a later [`GradientBoosting::warm_boost`] can continue
    /// boosting without replaying the whole ensemble. This is the cold
    /// half of the warm-refit path: across consecutive checkpoints the
    /// caller keeps one binned matrix alive, grows it in place with
    /// [`BinnedMatrix::append_from`], and skips re-quantization entirely.
    ///
    /// # Errors
    ///
    /// [`MlError::EmptyTrainingSet`] on a matrix without rows,
    /// [`MlError::DimensionMismatch`] when `y` does not match the matrix
    /// rows, [`MlError::InvalidConfig`] on out-of-range hyperparameters.
    pub fn fit_binned_cached(
        binned: &BinnedMatrix,
        y: &[f64],
        loss: L,
        config: &GbtConfig,
        scores: &mut Vec<f64>,
    ) -> Result<Self, MlError> {
        check_binned_fit(binned, y, config)?;
        let base_score = loss.base_score(y);
        scores.clear();
        scores.resize(binned.rows(), base_score);
        let mut forest = FlatForest::new(base_score, LEARNING_RATE);
        let rounds = config.n_rounds;
        boost_rounds(binned, y, &loss, config, rounds, scores, &mut forest);
        Ok(GradientBoosting { loss, forest })
    }

    /// Boosts `extra_rounds` **new** trees onto `self`, in place, instead
    /// of refitting from scratch — the warm-start refit path. The
    /// ensemble's base score, learning rate, and trees are kept; new trees
    /// correct its residuals against the (typically grown) training set in
    /// `binned`/`y`.
    ///
    /// `binned` must carry the same bin edges the ensemble was trained
    /// against (the invariant [`BinnedMatrix::append_from`] preserves and a
    /// full rebuild breaks): its trees are replayed over `u8` codes to
    /// reconstruct the ensemble's scores, and stale edges would silently
    /// mis-route rows. `config` supplies the new trees' structural
    /// parameters; the learning rate stays the ensemble's own so old and
    /// new trees share one scale.
    ///
    /// On entry `scores[i]` must hold the ensemble's raw score for row `i`
    /// over however many leading rows the caller has cached (a vector left
    /// behind by a previous `warm_boost` /
    /// [`GradientBoosting::fit_binned_cached`] on the same binning, or
    /// empty); only the uncached suffix — typically the handful of rows
    /// appended since the last checkpoint — is reconstructed by replaying
    /// the ensemble over bin codes, which turns the per-checkpoint replay
    /// cost from `O(ensemble × all rows)` into `O(ensemble × appended
    /// rows)`. On success `scores` holds the *grown* ensemble's raw scores
    /// for every row, ready for the next call.
    ///
    /// Every input is validated before anything is touched: on `Err`,
    /// `self` and `scores` are exactly as they were.
    ///
    /// # Errors
    ///
    /// [`MlError::EmptyTrainingSet`] on a matrix without rows,
    /// [`MlError::DimensionMismatch`] on a `y`/matrix row mismatch, when
    /// `scores` is longer than the matrix has rows (a stale cache from a
    /// different binning) or when the matrix has fewer features than the
    /// ensemble splits on, [`MlError::InvalidConfig`] on bad
    /// hyperparameters.
    pub fn warm_boost(
        &mut self,
        binned: &BinnedMatrix,
        y: &[f64],
        extra_rounds: usize,
        config: &GbtConfig,
        scores: &mut Vec<f64>,
    ) -> Result<(), MlError> {
        check_binned_fit(binned, y, config)?;
        if scores.len() > binned.rows() {
            return Err(MlError::DimensionMismatch {
                expected: format!("at most {} cached scores", binned.rows()),
                found: format!("{} cached scores", scores.len()),
            });
        }

        if !self.forest.fits_width(binned.features()) {
            return Err(MlError::DimensionMismatch {
                expected: "a matrix as wide as the ensemble's split features".into(),
                found: format!("{} features", binned.features()),
            });
        }

        // Replay the ensemble over bin codes — u8 compares, no f64 feature
        // loads — for the rows the cache does not cover.
        let cached = scores.len();
        if cached < binned.rows() {
            self.forest
                .predict_binned_extend(binned, cached..binned.rows(), scores);
        }

        let (loss, forest) = (&self.loss, &mut self.forest);
        boost_rounds(binned, y, loss, config, extra_rounds, scores, forest);
        Ok(())
    }

    /// Raw additive score `f(x)` (the latency for squared loss, a logit for
    /// logistic loss).
    #[must_use]
    pub fn predict(&self, features: &[f64]) -> f64 {
        self.forest.predict(features)
    }

    /// Raw scores for a batch of samples.
    #[must_use]
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|x| self.predict(x)).collect()
    }

    /// Raw scores for every row of a matrix view (no row copies).
    #[must_use]
    pub fn predict_view(&self, xs: MatrixView<'_>) -> Vec<f64> {
        let mut out = vec![0.0; xs.rows()];
        self.forest.predict_each(xs, &mut out);
        out
    }

    /// Probability `σ(f(x))`; meaningful when the loss trains a logit
    /// (e.g. [`LogisticLoss`]).
    #[must_use]
    pub fn predict_proba(&self, features: &[f64]) -> f64 {
        crate::sigmoid(self.predict(features))
    }

    /// Number of fitted trees.
    #[must_use]
    pub fn tree_count(&self) -> usize {
        self.forest.tree_count()
    }

    /// The ensemble itself: score batches through its kernels
    /// ([`FlatForest::predict_view_into`]) by reference — there is no
    /// other copy to keep in sync.
    #[must_use]
    pub fn forest(&self) -> &FlatForest {
        &self.forest
    }

    /// Sets the lane width of the forest's batch kernels
    /// (`FlatForest::set_lanes`; scores are bit-identical at every
    /// width). A fit or a decode starts at [`crate::DEFAULT_LANES`].
    ///
    /// # Panics
    ///
    /// Panics unless `lanes` is one of [`crate::SUPPORTED_LANES`].
    pub fn set_lanes(&mut self, lanes: usize) {
        self.forest.set_lanes(lanes);
    }

    /// A **copy** of [`GradientBoosting::forest`]. Nothing in the
    /// workspace calls it any more; it is kept because the standalone
    /// `benchmark/` package does. Prefer the reference.
    #[must_use]
    pub fn flatten(&self) -> FlatForest {
        self.forest.clone()
    }
}

/// What both binned entries require: a non-empty matrix, one target per
/// row, and in-range hyperparameters.
fn check_binned_fit(binned: &BinnedMatrix, y: &[f64], config: &GbtConfig) -> Result<(), MlError> {
    if binned.rows() == 0 {
        return Err(MlError::EmptyTrainingSet);
    }
    if y.len() != binned.rows() {
        return Err(MlError::DimensionMismatch {
            expected: format!("{} targets", binned.rows()),
            found: format!("{} targets", y.len()),
        });
    }
    if config.tree.max_depth == 0 {
        return Err(MlError::InvalidConfig("max_depth must be >= 1".into()));
    }
    Ok(())
}

/// The boosting round loop shared by cold fits and warm boosts: appends
/// `rounds` trees to `forest` (at the forest's own learning rate), keeping
/// `scores` (raw per-row ensemble scores) in sync. Raw features are never
/// touched: one [`TreeGrower`] serves every round — it evaluates the loss
/// as it lays out its row buffer and, the tree grown, adds each leaf's
/// step to the rows its last partitions left in that leaf's range. Inputs
/// are validated by the callers (`scores`, `y` and the matrix agree on the
/// row count, which is nonzero), so the loop cannot fail.
fn boost_rounds<L: Loss>(
    binned: &BinnedMatrix,
    y: &[f64],
    loss: &L,
    config: &GbtConfig,
    rounds: usize,
    scores: &mut [f64],
    forest: &mut FlatForest,
) {
    debug_assert_eq!(scores.len(), binned.rows());
    let mut grower = TreeGrower::new(binned, &config.tree);
    for _round in 0..rounds {
        let stats = |i: usize| {
            let (g, h) = loss.gradient_hessian(y[i], scores[i]);
            (g, h.max(1e-12))
        };
        grower.grow(stats, forest);
        grower.add_last_tree(forest.shrinkage(), scores);
    }
}

/// Only ensembles over stateless (`Default`) losses are checkpointable —
/// which covers every loss in this workspace; the loss itself carries no
/// fitted state, so the forest's encoding (`flat.rs`, where the bytes are
/// validated on the way back in) is the ensemble's.
impl<L: Loss + Default> nurd_codec::Checkpointable for GradientBoosting<L> {
    fn encode(&self, enc: &mut nurd_codec::Encoder) {
        self.forest.encode(enc);
    }

    fn decode(dec: &mut nurd_codec::Decoder<'_>) -> Result<Self, nurd_codec::CodecError> {
        Ok(GradientBoosting {
            loss: L::default(),
            forest: FlatForest::decode(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row_slices;
    use proptest::prelude::*;

    fn mean_squared_error(truth: &[f64], pred: &[f64]) -> f64 {
        let squares = truth.iter().zip(pred).map(|(t, p)| (t - p) * (t - p));
        squares.sum::<f64>() / truth.len() as f64
    }

    #[test]
    fn regression_learns_linear_function() {
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 10.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| 3.0 * r[0] + 1.0).collect();
        let model = GradientBoosting::fit(&x, &y, SquaredLoss, &GbtConfig::default()).unwrap();
        let mse = mean_squared_error(&y, &model.predict_batch(&x));
        assert!(mse < 0.1, "train mse {mse} too high");
    }

    #[test]
    fn regression_learns_nonlinear_interaction() {
        // y = x0 * x1: linear models can't fit this; trees can.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..12 {
            for j in 0..12 {
                x.push(vec![i as f64, j as f64]);
                y.push((i * j) as f64);
            }
        }
        let cfg = GbtConfig {
            n_rounds: 150,
            tree: TreeConfig {
                max_depth: 4,
                ..TreeConfig::default()
            },
        };
        let model = GradientBoosting::fit(&x, &y, SquaredLoss, &cfg).unwrap();
        let mse = mean_squared_error(&y, &model.predict_batch(&x));
        let var = nurd_linalg::variance(&y);
        assert!(mse < 0.05 * var, "mse {mse} vs variance {var}");
    }

    #[test]
    fn fit_view_layouts_agree() {
        let x: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![i as f64 / 4.0, ((i * 13) % 7) as f64])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * 2.0 - r[1]).collect();
        let by_rows = GradientBoosting::fit(&x, &y, SquaredLoss, &GbtConfig::default()).unwrap();
        let slices: Vec<&[f64]> = x.iter().map(Vec::as_slice).collect();
        let by_slices = GradientBoosting::fit_view(
            MatrixView::RowSlices(&slices),
            &y,
            SquaredLoss,
            &GbtConfig::default(),
        )
        .unwrap();
        let m = nurd_linalg::FeatureMatrix::from_rows(&x).unwrap();
        let by_columns =
            GradientBoosting::fit_view(m.view(), &y, SquaredLoss, &GbtConfig::default()).unwrap();
        let p_rows = by_rows.predict_batch(&x);
        assert_eq!(p_rows, by_slices.predict_batch(&x));
        assert_eq!(p_rows, by_columns.predict_batch(&x));
        assert_eq!(p_rows, by_columns.predict_view(m.view()));
    }

    /// Growing synthetic checkpoint data: `y = 3·x0 − x1` with a mild
    /// distribution drift in later rows.
    fn growing_set(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                vec![
                    ((i * 31) % 53) as f64 / 53.0 + 0.3 * t,
                    ((i * 17) % 29) as f64 / 29.0,
                ]
            })
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 3.0 * r[0] - r[1]).collect();
        (x, y)
    }

    impl GradientBoosting<SquaredLoss> {
        /// The cold binned entry without a score cache to keep (shared
        /// with `flat.rs`'s tests).
        pub(crate) fn fit_binned(
            binned: &BinnedMatrix,
            y: &[f64],
            cfg: &GbtConfig,
        ) -> Result<Self, MlError> {
            Self::fit_binned_cached(binned, y, SquaredLoss, cfg, &mut Vec::new())
        }
    }

    /// `warm_boost` onto a copy, from `scores` (empty = replay everything).
    fn boosted(
        prev: &GradientBoosting<SquaredLoss>,
        binned: &BinnedMatrix,
        y: &[f64],
        extra_rounds: usize,
        cfg: &GbtConfig,
        scores: &mut Vec<f64>,
    ) -> Result<GradientBoosting<SquaredLoss>, MlError> {
        let mut next = prev.clone();
        next.warm_boost(binned, y, extra_rounds, cfg, scores)?;
        Ok(next)
    }

    #[test]
    fn fit_binned_matches_fit_view_bit_for_bit() {
        let (x, y) = growing_set(80);
        let cfg = GbtConfig::default();
        let by_view = GradientBoosting::fit(&x, &y, SquaredLoss, &cfg).unwrap();
        let binned = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&x)), 256);
        let by_binned = GradientBoosting::fit_binned(&binned, &y, &cfg).unwrap();
        assert_eq!(by_view.predict_batch(&x), by_binned.predict_batch(&x));
    }

    #[test]
    fn warm_boost_zero_rounds_is_identity() {
        let (x, y) = growing_set(60);
        let cfg = GbtConfig::default();
        let binned = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&x)), 256);
        let prev = GradientBoosting::fit_binned(&binned, &y, &cfg).unwrap();
        let same = boosted(&prev, &binned, &y, 0, &cfg, &mut Vec::new()).unwrap();
        assert_eq!(same.tree_count(), prev.tree_count());
        assert_eq!(prev.predict_batch(&x), same.predict_batch(&x));
    }

    #[test]
    fn warm_boost_recovers_cold_accuracy_on_grown_data() {
        // Fit on the first 150 rows, grow to 200, boost a few rounds: MSE
        // on the full set must land within a few percent of a cold refit
        // — the claim the warm-refit subsystem rests on.
        let (x, y) = growing_set(200);
        let cfg = GbtConfig::default();
        let mut binned = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&x[..150])), 256);
        let prev = GradientBoosting::fit_binned(&binned, &y[..150], &cfg).unwrap();
        let drift = binned.append_from(MatrixView::RowSlices(&row_slices(&x)));
        assert!(drift < 0.2, "mild drift expected, got {drift}");

        let warm = boosted(&prev, &binned, &y, 10, &cfg, &mut Vec::new()).unwrap();
        let cold = GradientBoosting::fit_binned(&binned, &y, &cfg).unwrap();
        let mse_warm = mean_squared_error(&y, &warm.predict_batch(&x));
        let mse_cold = mean_squared_error(&y, &cold.predict_batch(&x));
        let var = nurd_linalg::variance(&y);
        assert!(
            mse_warm <= mse_cold + 0.01 * var,
            "warm {mse_warm} vs cold {mse_cold} (var {var})"
        );
        assert_eq!(warm.tree_count(), prev.tree_count() + 10);
    }

    #[test]
    fn warm_boost_from_a_score_cache_matches_full_replay() {
        let (x, y) = growing_set(160);
        let cfg = GbtConfig::default();
        let mut binned = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&x[..120])), 256);
        let mut cache = Vec::new();
        let prev =
            GradientBoosting::fit_binned_cached(&binned, &y[..120], SquaredLoss, &cfg, &mut cache)
                .unwrap();
        assert_eq!(cache.len(), 120);
        binned.append_from(MatrixView::RowSlices(&row_slices(&x)));

        let uncached = boosted(&prev, &binned, &y, 6, &cfg, &mut Vec::new()).unwrap();
        let cached = boosted(&prev, &binned, &y, 6, &cfg, &mut cache).unwrap();
        assert_eq!(cache.len(), 160, "cache covers every row after the call");
        // The cache holds the boosting trajectory's running scores, which
        // differ from a from-scratch ensemble replay only by float
        // addition reordering — fitted models must agree to tight
        // tolerance.
        let scale = y.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for row in &x {
            assert!(
                (uncached.predict(row) - cached.predict(row)).abs() <= 1e-9 * scale,
                "cached vs uncached warm boost diverged"
            );
        }
        // The left-behind cache is the new model's raw score per row.
        let mut replay = Vec::new();
        cached
            .forest
            .predict_binned_extend(&binned, 0..160, &mut replay);
        for (s, replay) in cache.iter().zip(&replay) {
            assert!((s - replay).abs() <= 1e-9 * scale.max(1.0));
        }
        // A cache longer than the matrix is a stale-cache bug: rejected.
        let mut stale = vec![0.0; 200];
        assert!(matches!(
            boosted(&prev, &binned, &y, 2, &cfg, &mut stale),
            Err(MlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rejected_warm_boost_touches_neither_model_nor_cache() {
        let (x, y) = growing_set(160);
        let cfg = GbtConfig::default();
        let mut binned = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&x[..120])), 256);
        let mut cache = Vec::new();
        let mut model =
            GradientBoosting::fit_binned_cached(&binned, &y[..120], SquaredLoss, &cfg, &mut cache)
                .unwrap();
        binned.append_from(MatrixView::RowSlices(&row_slices(&x)));
        model.warm_boost(&binned, &y, 6, &cfg, &mut cache).unwrap();
        let (forest, scores) = (model.forest.clone(), cache.clone());

        let mut bad = cfg.clone();
        bad.tree.max_depth = 0;
        assert!(matches!(
            model.warm_boost(&binned, &y, 6, &bad, &mut cache),
            Err(MlError::InvalidConfig(_))
        ));
        model
            .forest
            .assert_same_trees(&forest, true, "after a rejected warm boost");
        assert_eq!(cache, scores);

        // So is a matrix narrower than the features the ensemble splits on
        // (where the bin-code replay would otherwise panic).
        let narrow: Vec<Vec<f64>> = x.iter().map(|row| row[..1].to_vec()).collect();
        let narrow = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&narrow)), 256);
        assert!(model
            .forest
            .splits()
            .iter()
            .any(|&(feature, _)| feature == 1));
        assert!(matches!(
            model.warm_boost(&narrow, &y, 6, &cfg, &mut Vec::new()),
            Err(MlError::DimensionMismatch { .. })
        ));
        model
            .forest
            .assert_same_trees(&forest, true, "after a too-narrow matrix");
    }

    #[test]
    fn warm_boost_is_deterministic() {
        let (x, y) = growing_set(90);
        let cfg = GbtConfig::default();
        let binned = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&x)), 256);
        let prev = GradientBoosting::fit_binned(&binned, &y, &cfg).unwrap();
        let a = boosted(&prev, &binned, &y, 5, &cfg, &mut Vec::new()).unwrap();
        let b = boosted(&prev, &binned, &y, 5, &cfg, &mut Vec::new()).unwrap();
        assert_eq!(a.predict_batch(&x), b.predict_batch(&x));
    }

    #[test]
    fn binned_fit_paths_reject_empty_matrix() {
        // An empty binned matrix is constructible; the fit entry points
        // must error, not panic, as their docs promise.
        let empty_rows: Vec<Vec<f64>> = Vec::new();
        let empty = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&empty_rows)), 256);
        assert!(matches!(
            GradientBoosting::fit_binned(&empty, &[], &GbtConfig::default()),
            Err(MlError::EmptyTrainingSet)
        ));
        let (x, y) = growing_set(20);
        let binned = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&x)), 256);
        let prev = GradientBoosting::fit_binned(&binned, &y, &GbtConfig::default()).unwrap();
        assert!(matches!(
            boosted(
                &prev,
                &empty,
                &[],
                4,
                &GbtConfig::default(),
                &mut Vec::new()
            ),
            Err(MlError::EmptyTrainingSet)
        ));
    }

    #[test]
    fn warm_boost_rejects_target_length_mismatch() {
        let (x, y) = growing_set(40);
        let cfg = GbtConfig::default();
        let binned = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&x)), 256);
        let prev = GradientBoosting::fit_binned(&binned, &y, &cfg).unwrap();
        assert!(matches!(
            boosted(&prev, &binned, &y[..20], 4, &cfg, &mut Vec::new()),
            Err(MlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn classifier_separates_halves() {
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..40).map(|i| if i < 20 { 0.0 } else { 1.0 }).collect();
        let clf = GradientBoosting::fit(&x, &y, LogisticLoss, &GbtConfig::default()).unwrap();
        assert!(clf.predict_proba(&[5.0]) < 0.2);
        assert!(clf.predict_proba(&[35.0]) > 0.8);
    }

    #[test]
    fn base_score_is_mean_for_squared_loss() {
        let x = vec![vec![0.0], vec![1.0]];
        let y = vec![2.0, 4.0];
        let model = GradientBoosting::fit(
            &x,
            &y,
            SquaredLoss,
            &GbtConfig {
                n_rounds: 0,
                ..GbtConfig::default()
            },
        )
        .unwrap();
        assert_eq!(model.tree_count(), 0);
        assert!((model.predict(&[0.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_zero_depth() {
        let cfg = GbtConfig {
            tree: TreeConfig {
                max_depth: 0,
                ..TreeConfig::default()
            },
            ..GbtConfig::default()
        };
        assert!(matches!(
            GradientBoosting::fit(&[vec![1.0]], &[1.0], SquaredLoss, &cfg),
            Err(MlError::InvalidConfig(_))
        ));
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(
            GradientBoosting::fit(&[], &[], SquaredLoss, &GbtConfig::default()),
            Err(MlError::EmptyTrainingSet)
        ));
    }

    #[test]
    fn logistic_loss_gradient_signs() {
        let loss = LogisticLoss;
        // Predicting logit 0 (p=0.5) with target 1 → negative gradient.
        let (g1, h1) = loss.gradient_hessian(1.0, 0.0);
        assert!(g1 < 0.0 && h1 > 0.0);
        let (g0, _) = loss.gradient_hessian(0.0, 0.0);
        assert!(g0 > 0.0);
    }

    proptest! {
        /// Squared-loss predictions stay within the target hull (each tree
        /// moves scores toward targets; shrinkage keeps them inside).
        #[test]
        fn prop_regression_predictions_bounded(
            ys in proptest::collection::vec(-50.0..50.0f64, 3..30)) {
            let x: Vec<Vec<f64>> = (0..ys.len()).map(|i| vec![i as f64]).collect();
            let model =
                GradientBoosting::fit(&x, &ys, SquaredLoss, &GbtConfig::default()).unwrap();
            let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            for row in &x {
                let p = model.predict(row);
                prop_assert!(p >= lo - 1e-6 && p <= hi + 1e-6);
            }
        }

        /// Classifier probabilities are valid probabilities.
        #[test]
        fn prop_proba_in_unit_interval(
            labels in proptest::collection::vec(0u8..2, 4..24)) {
            let x: Vec<Vec<f64>> = (0..labels.len()).map(|i| vec![i as f64]).collect();
            let y: Vec<f64> = labels.iter().map(|&l| l as f64).collect();
            let clf =
                GradientBoosting::fit(&x, &y, LogisticLoss, &GbtConfig::default()).unwrap();
            for row in &x {
                let p = clf.predict_proba(row);
                prop_assert!((0.0..=1.0).contains(&p));
            }
        }
    }
}
