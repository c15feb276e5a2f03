//! The online NURD predictor (Algorithm 1's outer loop).

use nurd_data::{Checkpoint, OnlinePredictor, ScoredPrediction, StreamContext, TaskScore};
use nurd_linalg::{FeatureMatrix, MatrixView};
use nurd_ml::{GradientBoosting, LogisticRegression, SquaredLoss};

use crate::refit::WarmRefitState;
use crate::{calibration, weighting, DonorModel, NurdConfig, RefitPolicy, RefitStats};

/// Minimum running-set size before a barrier's score batch is split into
/// lane-aligned chunks and fanned onto the shared thread pool (only when
/// the engine has granted within-job parallelism). Below it, chunking
/// overhead beats the win.
const PARALLEL_SCORE_MIN: usize = 64;

/// Per-task diagnostic record produced by [`NurdPredictor::score_running`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdjustedPrediction {
    /// Task id within the job.
    pub id: usize,
    /// Raw latency prediction `ŷ`: the head `h_t`'s output, or under a
    /// prior ([`NurdPredictor::with_prior`]) `max(0, scale·donor + h_t)`.
    pub raw: f64,
    /// Propensity score `z = P(finished | x)`.
    pub propensity: f64,
    /// Final weight `w = max(ε, min(z + δ, 1))`.
    pub weight: f64,
    /// Adjusted prediction `ŷ_adj = ŷ / w`.
    pub adjusted: f64,
}

/// Online NURD straggler predictor; one instance per job.
///
/// Drive it through [`nurd_sim::replay_job`] or call
/// [`NurdPredictor::score_running`] directly to observe the intermediate
/// quantities (raw prediction, propensity, weight) for each running task.
///
/// [`nurd_sim::replay_job`]: https://docs.rs/nurd-sim
#[derive(Debug, Clone)]
pub struct NurdPredictor {
    config: NurdConfig,
    threshold: f64,
    /// [`StreamContext::feature_dim`] of the stream begun, once one is:
    /// the width a restored blob's rows must have.
    feature_dim: Option<usize>,
    /// δ, fixed at the first prediction checkpoint (Algorithm 1 computes ρ
    /// "before starting prediction"). `None` until then.
    delta: Option<f64>,
    propensity_model: Option<LogisticRegression>,
    checkpoints_seen: usize,
    fit_failures: usize,
    name: &'static str,
    /// Scratch buffers refilled in place at every checkpoint so the
    /// per-checkpoint refit allocates nothing beyond first use: the
    /// finished∪running design matrix for the propensity model and its
    /// labels.
    scratch_x_all: FeatureMatrix,
    scratch_labels: Vec<f64>,
    /// Reused per-checkpoint output buffers for the batch scoring pass
    /// (raw latency predictions and propensities over the running set).
    scratch_raw: Vec<f64>,
    scratch_prop: Vec<f64>,
    /// The latency head `h_t` with its training rows and quantization;
    /// every refit, under either [`RefitPolicy`], happens in here.
    warm: WarmRefitState,
    /// NURD-TL's frozen cross-job prior; `None` for every other variant.
    prior: Option<DonorModel>,
    /// The prior's scratch: a copy of the latencies for their median, then
    /// its relative predictions (the residual targets at a refit).
    scratch_prior: Vec<f64>,
}

impl NurdPredictor {
    /// Creates a predictor with the given configuration. The table name
    /// follows the configuration: `NURD` for the paper protocol,
    /// `NURD-NC` for the no-calibration ablation, `NURD-WS` when a warm
    /// [`RefitPolicy`] is active (the warm-start row of the extended
    /// Table 3).
    #[must_use]
    pub fn new(config: NurdConfig) -> Self {
        let name = match (config.calibrate, &config.refit_policy) {
            (false, _) => "NURD-NC",
            (true, RefitPolicy::AlwaysCold) => "NURD",
            (true, _) => "NURD-WS",
        };
        NurdPredictor {
            config,
            threshold: f64::INFINITY,
            feature_dim: None,
            delta: None,
            propensity_model: None,
            checkpoints_seen: 0,
            fit_failures: 0,
            name,
            scratch_x_all: FeatureMatrix::new(),
            scratch_labels: Vec::new(),
            scratch_raw: Vec::new(),
            scratch_prop: Vec::new(),
            warm: WarmRefitState::new(),
            prior: None,
            scratch_prior: Vec::new(),
        }
    }

    /// NURD-TL (the paper's §8 future work): the latency head learns only
    /// what a frozen `donor` gets wrong on this job, and serves
    /// `ŷ = max(0, scale·donor(x) + h_t(x))` with `scale` the median of the
    /// head's own training latencies. A stream whose rows are not as wide
    /// as the donor's is served exactly as by [`NurdPredictor::new`].
    #[must_use]
    pub fn with_prior(config: NurdConfig, donor: DonorModel) -> Self {
        NurdPredictor {
            name: "NURD-TL",
            prior: Some(donor),
            ..NurdPredictor::new(config)
        }
    }

    /// The calibration term δ, once computed (at the first prediction
    /// checkpoint); `None` before that or for NURD-NC.
    #[must_use]
    pub fn delta(&self) -> Option<f64> {
        self.delta
    }

    /// Number of checkpoints at which model fitting failed (degenerate
    /// training data); predictions at those checkpoints were skipped.
    #[must_use]
    pub fn fit_failures(&self) -> usize {
        self.fit_failures
    }

    /// Warm/cold refit counters for the current job.
    #[must_use]
    pub fn refit_stats(&self) -> RefitStats {
        self.warm.stats()
    }

    /// The current latency head `h_t`; `None` before the first successful
    /// fit. Barriers are scored through the batch kernels of its
    /// [`GradientBoosting::forest`], by reference; its safe one-row walk,
    /// [`GradientBoosting::predict_view`], is the reference the
    /// differential tests hold [`AdjustedPrediction::raw`] against. Under a
    /// prior it is the residual head, and `raw` adds the scaled donor.
    #[must_use]
    pub fn latency_model(&self) -> Option<&GradientBoosting<SquaredLoss>> {
        self.warm.model()
    }

    /// Scores every running task at this checkpoint, returning the full
    /// adjusted-prediction breakdown. Returns an empty vector when there is
    /// not enough data to fit the models (fewer than two finished tasks, or
    /// no running tasks).
    pub fn score_running(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<AdjustedPrediction> {
        if checkpoint.finished.len() < 2 || checkpoint.running.is_empty() {
            return Vec::new();
        }
        // Zero-copy row views into the trace storage: only slice pointers
        // are gathered, no feature values are cloned.
        let x_fin = checkpoint.finished_feature_rows();
        let x_run = checkpoint.running_feature_rows();
        let prior = self
            .prior
            .as_ref()
            .filter(|donor| donor.feature_dim() == x_fin[0].len());

        // Calibration happens once, before the first prediction (Algorithm 1
        // lines 4–6). NURD-NC skips it and uses w = z.
        if self.delta.is_none() && self.config.calibrate {
            let rho = calibration::centroid_ratio_rows(&x_fin, &x_run);
            self.delta = Some(calibration::calibration_delta(rho, self.config.alpha));
        }

        // Refit h_t and g_t (line 11). `refit_every` > 1 reuses stale models
        // between refits, an ablation knob beyond the paper.
        let refit = self
            .checkpoints_seen
            .is_multiple_of(self.config.refit_every.max(1))
            || self.latency_model().is_none();
        self.checkpoints_seen += 1;
        if refit {
            // `h_t`: the policy decides inside the state which rows the
            // refit trains on and whether it boosts onto the previous
            // ensemble (cold on the first fit, on drift and at the tree
            // cap).
            let policy = &self.config.refit_policy;
            self.warm.ingest(checkpoint, policy);
            let fit = match prior {
                // Residual targets: a function of the state's rows alone,
                // so its no-new-rows reuse holds for them as well.
                Some(donor) => {
                    let (y, targets) = (self.warm.latencies(), &mut self.scratch_prior);
                    let scale = median(y, targets);
                    donor.predict_into(self.warm.features().view(), targets);
                    for (target, &y) in targets.iter_mut().zip(y) {
                        *target = y - scale * *target;
                    }
                    self.warm.refit_against(targets, &self.config.gbt, policy)
                }
                None => self.warm.refit(&self.config.gbt, policy),
            };
            if fit.is_err() {
                self.fit_failures += 1;
                return Vec::new();
            }
            // Finished ∪ running design matrix and labels for g_t, filled
            // into the predictor's scratch buffers in place (the row list
            // is pointer-only; feature values are copied exactly once,
            // into the reused column-major scratch). The training set
            // mixes the mutable running side, so g_t is always *refit* on
            // the full current data — but under the warm policy, IRLS is
            // *seeded* from the previous checkpoint's coefficients
            // (remapped across the standardization shift) and typically
            // converges in one or two Newton steps instead of several.
            // `AlwaysCold` passes no seed and stays bit-for-bit the paper
            // protocol.
            let all_rows: Vec<&[f64]> = x_fin.iter().chain(x_run.iter()).copied().collect();
            self.scratch_x_all.fill_from_rows(all_rows.iter().copied());
            self.scratch_labels.clear();
            self.scratch_labels
                .extend(std::iter::repeat_n(1.0, x_fin.len()));
            self.scratch_labels
                .extend(std::iter::repeat_n(0.0, x_run.len()));
            let seed = match self.config.refit_policy {
                RefitPolicy::AlwaysCold => None,
                RefitPolicy::Warm(_) => self.propensity_model.as_ref(),
            };
            match LogisticRegression::fit_view_warm(
                self.scratch_x_all.view(),
                &self.scratch_labels,
                &self.config.logistic,
                seed,
            ) {
                Ok(m) => self.propensity_model = Some(m),
                Err(_) => {
                    self.fit_failures += 1;
                    return Vec::new();
                }
            }
        }
        // The head is scored where it lives: a fit or a restore leaves its
        // forest at the default lane width, so the configured one is set
        // (one store) on the way to the kernels.
        self.warm.set_scoring_lanes(self.config.scoring_lanes);
        let (Some(h), Some(g)) = (self.warm.model(), &self.propensity_model) else {
            return Vec::new();
        };
        let forest = h.forest();

        // Batch scoring over the zero-copy running-task view: one
        // structure-of-arrays pass per model into reused scratch, so the
        // steady state allocates nothing here.
        //
        // When the engine has granted this job within-job parallelism
        // (`set_parallelism` → `gbt.tree.n_threads`, the same plumbing
        // that accelerates refits) and the barrier's running set is big
        // enough to amortize the fan-out, the batch splits into
        // lane-aligned chunks scored concurrently on the shared pool —
        // still bit-identical (disjoint output slices, per-row
        // accumulation untouched; see `predict_view_into_pooled`).
        let threads = self.config.gbt.tree.n_threads;
        if threads > 1 && x_run.len() >= PARALLEL_SCORE_MIN {
            forest.predict_view_into_pooled(
                MatrixView::RowSlices(&x_run),
                nurd_runtime::global(),
                threads,
                &mut self.scratch_raw,
            );
        } else {
            forest.predict_view_into(MatrixView::RowSlices(&x_run), &mut self.scratch_raw);
        }
        if let Some(donor) = prior {
            let scale = median(self.warm.latencies(), &mut self.scratch_prior);
            donor.predict_into(MatrixView::RowSlices(&x_run), &mut self.scratch_prior);
            for (raw, &rel) in self.scratch_raw.iter_mut().zip(&self.scratch_prior) {
                *raw = (scale * rel + *raw).max(0.0);
            }
        }
        g.predict_proba_view_into(MatrixView::RowSlices(&x_run), &mut self.scratch_prop);
        checkpoint
            .running
            .iter()
            .zip(self.scratch_raw.iter().zip(&self.scratch_prop))
            .map(|(task, (&raw, &z))| {
                let w = match self.delta {
                    Some(delta) => weighting::weight(z, delta, self.config.epsilon),
                    // NURD-NC: w = z, floored only to keep division defined.
                    None => z.max(1e-9),
                };
                AdjustedPrediction {
                    id: task.id,
                    raw,
                    propensity: z,
                    weight: w,
                    adjusted: weighting::adjusted_latency(raw, w),
                }
            })
            .collect()
    }
}

/// NURD-TL's `scale`: the upper median of `latencies`, floored at 1e-9;
/// `scratch` is clobbered.
fn median(latencies: &[f64], scratch: &mut Vec<f64>) -> f64 {
    scratch.clear();
    scratch.extend_from_slice(latencies);
    if scratch.is_empty() {
        return 1e-9;
    }
    let mid = scratch.len() / 2;
    scratch
        .select_nth_unstable_by(mid, f64::total_cmp)
        .1
        .max(1e-9)
}

impl OnlinePredictor for NurdPredictor {
    fn name(&self) -> &str {
        self.name
    }

    fn begin_stream(&mut self, ctx: &StreamContext) {
        self.threshold = ctx.threshold;
        self.feature_dim = Some(ctx.feature_dim);
        self.delta = None;
        self.propensity_model = None;
        self.checkpoints_seen = 0;
        self.fit_failures = 0;
        self.warm.reset();
    }

    /// Routes the serving engine's hint to [`nurd_ml::TreeConfig::n_threads`],
    /// which fans the latency head's quantization and histogram fills onto
    /// the shared pool — and, for barriers with at least 64 running
    /// tasks, splits the flat scoring batch into lane-aligned chunks
    /// scored on the same pool. Both are bit-identical at every thread
    /// count, so honoring the hint can never change a prediction.
    fn set_parallelism(&mut self, threads: usize) {
        self.config.gbt.tree.n_threads = threads;
    }

    fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
        let threshold = self.threshold;
        self.score_running(checkpoint)
            .into_iter()
            .filter(|p| p.adjusted >= threshold)
            .map(|p| p.id)
            .collect()
    }

    /// Exposes the continuous adjusted predictions as normalized scores
    /// (`adjusted / τ_stra`, so `>= 1.0` ⇔ flagged) from a *single*
    /// [`NurdPredictor::score_running`] pass — the flag set and the model
    /// refits are bit-identical to [`OnlinePredictor::predict`] on the
    /// same checkpoint.
    fn predict_scored(&mut self, checkpoint: &Checkpoint<'_>) -> ScoredPrediction {
        let threshold = self.threshold;
        let predictions = self.score_running(checkpoint);
        let scores = predictions
            .iter()
            .map(|p| TaskScore {
                task: p.id,
                score: if threshold > 0.0 && threshold.is_finite() {
                    p.adjusted / threshold
                } else if p.adjusted >= threshold {
                    1.0
                } else {
                    0.0
                },
            })
            .collect();
        let flagged = predictions
            .into_iter()
            .filter(|p| p.adjusted >= threshold)
            .map(|p| p.id)
            .collect();
        ScoredPrediction { flagged, scores }
    }

    /// Serializes every fitted quantity — δ, `g_t`, the checkpoint
    /// counters, and the refit state that holds `h_t`. Configuration,
    /// threshold, and the scratch buffers are *not* serialized: the
    /// factory recreates the config and [`OnlinePredictor::begin_stream`]
    /// restores the threshold, while the scratch matrices are refilled in
    /// place at the next checkpoint regardless.
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        use nurd_codec::Checkpointable;
        let mut enc = nurd_codec::Encoder::new();
        self.delta.encode(&mut enc);
        self.propensity_model.encode(&mut enc);
        enc.put_usize(self.checkpoints_seen);
        enc.put_usize(self.fit_failures);
        self.warm.encode(&mut enc);
        Some(enc.into_bytes())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        use nurd_codec::Checkpointable;
        let mut dec = nurd_codec::Decoder::new(bytes);
        let Ok(delta) = Option::<f64>::decode(&mut dec) else {
            return false;
        };
        let Ok(propensity_model) = Option::<LogisticRegression>::decode(&mut dec) else {
            return false;
        };
        let (Ok(checkpoints_seen), Ok(fit_failures)) = (dec.take_usize(), dec.take_usize()) else {
            return false;
        };
        let Ok(warm) = WarmRefitState::decode(&mut dec) else {
            return false;
        };
        if !dec.is_empty() {
            return false;
        }
        // The rows are this stream's and `g_t` scores the rows `h_t` trains
        // on: rows or a propensity model of another width are not a state
        // this predictor ever wrote (and the next append would panic on
        // the former).
        let width = propensity_model.as_ref().map(|g| g.weights().len());
        let cols = warm.features().cols();
        let widths = [self.feature_dim, width];
        if warm.rows() > 0 && widths.into_iter().flatten().any(|w| w != cols) {
            return false;
        }
        self.delta = delta;
        self.propensity_model = propensity_model;
        self.checkpoints_seen = checkpoints_seen;
        self.fit_failures = fit_failures;
        self.warm = warm;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nurd_data::{FinishedTask, RunningTask};

    /// Builds a checkpoint where finished tasks have latency ≈ features and
    /// running tasks have either similar or alien features.
    fn checkpoint<'a>(fin: &'a [(Vec<f64>, f64)], run: &'a [Vec<f64>]) -> Checkpoint<'a> {
        Checkpoint {
            ordinal: 5,
            time: 100.0,
            finished: fin
                .iter()
                .enumerate()
                .map(|(i, (f, l))| FinishedTask {
                    id: i,
                    features: f,
                    latency: *l,
                })
                .collect(),
            running: run
                .iter()
                .enumerate()
                .map(|(i, f)| RunningTask {
                    id: fin.len() + i,
                    features: f,
                })
                .collect(),
        }
    }

    fn linear_finished(n: usize) -> Vec<(Vec<f64>, f64)> {
        (0..n)
            .map(|i| {
                let x = i as f64 / n as f64;
                (vec![x, 1.0 - x], 20.0 + 30.0 * x)
            })
            .collect()
    }

    #[test]
    fn alien_running_task_gets_low_weight_and_dilation() {
        let fin = linear_finished(40);
        let run = vec![vec![0.5, 0.5], vec![8.0, -6.0]]; // typical vs alien
        let mut nurd = NurdPredictor::new(NurdConfig::default());
        let scores = nurd.score_running(&checkpoint(&fin, &run));
        assert_eq!(scores.len(), 2);
        let typical = &scores[0];
        let alien = &scores[1];
        assert!(
            alien.propensity < typical.propensity,
            "alien task should look less finished: {alien:?} vs {typical:?}"
        );
        assert!(alien.weight <= typical.weight);
        assert!(alien.adjusted / alien.raw >= typical.adjusted / typical.raw);
    }

    #[test]
    fn weights_respect_epsilon_floor() {
        let fin = linear_finished(30);
        let run = vec![vec![100.0, -100.0]];
        let mut nurd = NurdPredictor::new(NurdConfig::default().with_epsilon(0.2));
        let scores = nurd.score_running(&checkpoint(&fin, &run));
        assert!(scores[0].weight >= 0.2);
        assert!(scores[0].weight <= 1.0);
    }

    #[test]
    fn nc_variant_uses_raw_propensity() {
        let fin = linear_finished(30);
        let run = vec![vec![0.5, 0.5]];
        let mut nc = NurdPredictor::new(NurdConfig::without_calibration());
        let scores = nc.score_running(&checkpoint(&fin, &run));
        assert!(nc.delta().is_none());
        let s = &scores[0];
        assert!((s.weight - s.propensity).abs() < 1e-9);
    }

    #[test]
    fn delta_computed_once_and_fixed() {
        let fin = linear_finished(30);
        let run = vec![vec![0.5, 0.5]];
        let mut nurd = NurdPredictor::new(NurdConfig::default());
        let ckpt = checkpoint(&fin, &run);
        nurd.score_running(&ckpt);
        let d1 = nurd.delta().expect("delta set after first scoring");
        nurd.score_running(&ckpt);
        assert_eq!(nurd.delta(), Some(d1));
        assert!(d1 > -0.5 && d1 <= 0.5);
    }

    #[test]
    fn warm_policy_scores_and_reports_warm_fits() {
        let fin = linear_finished(40);
        let run = vec![vec![0.5, 0.5], vec![8.0, -6.0]];
        let config = NurdConfig::default()
            .with_refit_policy(crate::RefitPolicy::Warm(crate::WarmRefitConfig::default()));
        let mut nurd = NurdPredictor::new(config);
        let ckpt = checkpoint(&fin, &run);
        let s1 = nurd.score_running(&ckpt);
        assert_eq!(s1.len(), 2);
        assert_eq!(nurd.refit_stats().cold_fits, 1);
        // Same checkpoint again: no new finished rows → model reused.
        let s2 = nurd.score_running(&ckpt);
        assert_eq!(nurd.refit_stats().reuses, 1);
        // Raw latency head output is identical (same model, same rows);
        // propensity is refit but on identical data, so scores agree.
        for (a, b) in s1.iter().zip(&s2) {
            assert_eq!(a.raw, b.raw);
        }
        // The alien task still gets dilated under the warm policy.
        assert!(s1[1].weight <= s1[0].weight);
    }

    #[test]
    fn warm_policy_resets_across_jobs() {
        let fin = linear_finished(30);
        let run = vec![vec![0.5, 0.5]];
        let config = NurdConfig::default()
            .with_refit_policy(crate::RefitPolicy::Warm(crate::WarmRefitConfig::default()));
        let mut nurd = NurdPredictor::new(config);
        nurd.score_running(&checkpoint(&fin, &run));
        assert_eq!(nurd.refit_stats().cold_fits, 1);
        nurd.begin_stream(&StreamContext {
            threshold: 1.0,
            task_count: 11,
            feature_dim: 2,
        });
        assert_eq!(nurd.refit_stats(), crate::RefitStats::default());
    }

    #[test]
    fn too_little_data_yields_no_predictions() {
        let fin = linear_finished(1);
        let run = vec![vec![0.5, 0.5]];
        let mut nurd = NurdPredictor::new(NurdConfig::default());
        assert!(nurd.score_running(&checkpoint(&fin, &run)).is_empty());
        let fin = linear_finished(10);
        let no_run: Vec<Vec<f64>> = Vec::new();
        assert!(nurd.score_running(&checkpoint(&fin, &no_run)).is_empty());
    }

    #[test]
    fn begin_stream_resets_state() {
        let fin = linear_finished(30);
        let run = vec![vec![0.5, 0.5]];
        let mut nurd = NurdPredictor::new(NurdConfig::default());
        nurd.score_running(&checkpoint(&fin, &run));
        assert!(nurd.delta().is_some());
        nurd.begin_stream(&StreamContext {
            threshold: 1.0,
            task_count: 11,
            feature_dim: 2,
        });
        assert!(nurd.delta().is_none());
        assert_eq!(nurd.fit_failures(), 0);
    }

    #[test]
    fn predict_flags_only_above_threshold() {
        let fin = linear_finished(40);
        // One task that looks typical (prediction ~35), one alien.
        let run = vec![vec![0.5, 0.5], vec![9.0, -9.0]];
        let mut nurd = NurdPredictor::new(NurdConfig::default());
        // Threshold far above anything the model can produce: no flags.
        nurd.begin_stream(&StreamContext {
            threshold: 1e12,
            task_count: 42,
            feature_dim: 2,
        });
        assert!(nurd.predict(&checkpoint(&fin, &run)).is_empty());
        // Threshold of zero: everything flags.
        nurd.begin_stream(&StreamContext {
            threshold: 0.0,
            task_count: 42,
            feature_dim: 2,
        });
        assert_eq!(nurd.predict(&checkpoint(&fin, &run)).len(), 2);
    }
}
