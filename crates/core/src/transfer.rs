//! Cross-job transfer learning — the paper's stated future work (§8:
//! "there is a possibility to apply transfer learning to incorporate
//! knowledge from other jobs to improve predictions").
//!
//! The mechanism is residual boosting: a *donor* model is trained offline
//! on a completed job's (features, relative latency) pairs; on the target
//! job, the online latency head learns only the **residual** between the
//! scale-adjusted donor prediction and the observed latencies. Early in a
//! job — when NURD's own head has almost no training data — the donor
//! carries most of the signal; as finished tasks accumulate, the residual
//! model takes over. Everything else (propensity, calibration, weighting)
//! is unchanged NURD.

use nurd_data::{Checkpoint, JobTrace, OnlinePredictor, StreamContext};
use nurd_linalg::MatrixView;
use nurd_ml::{GradientBoosting, LogisticRegression, MlError, SquaredLoss};

use crate::refit::WarmRefitState;
use crate::{calibration, weighting, NurdConfig};

/// A latency model distilled from one or more completed jobs, in
/// scale-free (relative-latency) form.
///
/// Donor targets are `latency / median(latency)` so the knowledge moves
/// across jobs whose absolute time scales differ by an order of magnitude;
/// the target-side predictor multiplies back by its own running median.
#[derive(Debug, Clone)]
pub struct DonorModel {
    model: GradientBoosting<SquaredLoss>,
}

impl DonorModel {
    /// Distills a completed job into a transferable latency model, trained
    /// on final feature snapshots against relative latency.
    ///
    /// # Errors
    ///
    /// Propagates booster errors ([`MlError::EmptyTrainingSet`] on an empty
    /// job, configuration errors from `config.gbt`).
    pub fn from_job(job: &JobTrace, config: &NurdConfig) -> Result<Self, MlError> {
        let last = job.checkpoint_count() - 1;
        let x: Vec<Vec<f64>> = job
            .tasks()
            .iter()
            .map(|t| t.snapshot(last).to_vec())
            .collect();
        let mut latencies = job.latencies();
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let median = latencies[latencies.len() / 2].max(1e-9);
        let y: Vec<f64> = job.tasks().iter().map(|t| t.latency() / median).collect();
        let model = GradientBoosting::fit(&x, &y, SquaredLoss, &config.gbt)?;
        Ok(DonorModel { model })
    }

    /// Relative-latency prediction (multiples of the donor job's median).
    #[must_use]
    fn predict_relative(&self, features: &[f64]) -> f64 {
        self.model.predict(features)
    }
}

/// NURD with a cross-job donor prior on the latency head.
///
/// Implements the same online protocol as [`crate::NurdPredictor`]; the
/// only change is `ŷ = scale · donor(x) + residual(x)`, with the residual
/// head refit per checkpoint on `y − scale · donor(x)` and
/// `scale = median(observed latencies)`.
#[derive(Debug, Clone)]
pub struct TransferNurdPredictor {
    config: NurdConfig,
    donor: DonorModel,
    threshold: f64,
    /// [`StreamContext::feature_dim`] of the stream begun, once one is:
    /// the width a restored blob's rows must have.
    feature_dim: Option<usize>,
    delta: Option<f64>,
    /// The residual head and its training rows. Its *targets* move with
    /// the running latency median, but its *rows* are the finished set
    /// [`WarmRefitState::ingest`] maintains under either
    /// [`RefitPolicy`](crate::RefitPolicy), so bin reuse and warm boosts
    /// apply unchanged via [`WarmRefitState::refit_against`].
    warm: WarmRefitState,
    /// Donor relative predictions cached per row of `warm` (the donor is
    /// frozen, so each row is evaluated once for as long as it stays).
    donor_rel: Vec<f64>,
    /// Residual-target scratch, rebuilt each refit.
    resid_buf: Vec<f64>,
}

impl TransferNurdPredictor {
    /// Creates a transfer predictor from a donor model.
    #[must_use]
    pub fn new(config: NurdConfig, donor: DonorModel) -> Self {
        TransferNurdPredictor {
            config,
            donor,
            threshold: f64::INFINITY,
            feature_dim: None,
            delta: None,
            warm: WarmRefitState::new(),
            donor_rel: Vec::new(),
            resid_buf: Vec::new(),
        }
    }
}

impl OnlinePredictor for TransferNurdPredictor {
    fn name(&self) -> &str {
        "NURD-TL"
    }

    fn begin_stream(&mut self, ctx: &StreamContext) {
        self.threshold = ctx.threshold;
        self.feature_dim = Some(ctx.feature_dim);
        self.delta = None;
        self.warm.reset();
        self.donor_rel.clear();
        self.resid_buf.clear();
    }

    /// Same routing as `NurdPredictor`: the hint lands on the residual
    /// head's [`nurd_ml::TreeConfig::n_threads`], bit-identical at every
    /// thread count.
    fn set_parallelism(&mut self, threads: usize) {
        self.config.gbt.tree.n_threads = threads;
    }

    fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
        if checkpoint.finished.len() < 2 || checkpoint.running.is_empty() {
            return Vec::new();
        }
        // Zero-copy row views into the trace storage (same hot-path shape
        // as `NurdPredictor::score_running`).
        let x_fin = checkpoint.finished_feature_rows();
        let y_fin = checkpoint.finished_latencies();
        let x_run = checkpoint.running_feature_rows();

        if self.delta.is_none() && self.config.calibrate {
            let rho = calibration::centroid_ratio_rows(&x_fin, &x_run);
            self.delta = Some(calibration::calibration_delta(rho, self.config.alpha));
        }

        // Scale the donor's relative predictions by the observed median.
        let mut sorted = y_fin.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let scale = sorted[sorted.len() / 2].max(1e-9);

        // Residual head: learn what the donor gets wrong on this job.
        // Take in the finished set as the policy prescribes, evaluate the
        // (frozen) donor once per new row, rebuild the moving residual
        // targets cheaply, and refit the head.
        let policy = &self.config.refit_policy;
        let added = self.warm.ingest(checkpoint, policy);
        let n = self.warm.rows();
        if added > 0 {
            self.donor_rel.truncate(n - added);
            let mut row = vec![0.0; self.warm.features().cols()];
            for r in n - added..n {
                self.warm.features().row_into(r, &mut row);
                self.donor_rel.push(self.donor.predict_relative(&row));
            }
        }
        // With no newly finished row, `scale` (median of the same
        // finished latencies) and the cached donor predictions are
        // unchanged, so the residual targets are bit-identical to the
        // previous checkpoint's — reuse the model rather than stacking
        // warm rounds onto identical data.
        if added > 0 || self.warm.model().is_none() {
            self.resid_buf.clear();
            self.resid_buf.extend(
                self.warm
                    .latencies()
                    .iter()
                    .zip(&self.donor_rel)
                    .map(|(&y, &rel)| y - scale * rel),
            );
            if self
                .warm
                .refit_against(&self.resid_buf, &self.config.gbt, policy)
                .is_err()
            {
                return Vec::new();
            }
        }
        let residual_model = self.warm.model().expect("refit succeeded or model cached");

        let x_all: Vec<&[f64]> = x_fin.iter().chain(x_run.iter()).copied().collect();
        let mut labels = vec![1.0; x_fin.len()];
        labels.extend(std::iter::repeat_n(0.0, x_run.len()));
        let Ok(propensity) = LogisticRegression::fit_view_warm(
            MatrixView::RowSlices(&x_all),
            &labels,
            &self.config.logistic,
            None,
        ) else {
            return Vec::new();
        };

        let threshold = self.threshold;
        checkpoint
            .running
            .iter()
            .filter(|task| {
                let raw = scale * self.donor.predict_relative(task.features)
                    + residual_model.predict(task.features);
                let z = propensity.predict_proba(task.features);
                let w = match self.delta {
                    Some(delta) => weighting::weight(z, delta, self.config.epsilon),
                    None => z.max(1e-9),
                };
                weighting::adjusted_latency(raw.max(0.0), w) >= threshold
            })
            .map(|task| task.id)
            .collect()
    }

    /// Serializes the per-job fitted state: δ, the refit state, and the
    /// cached donor relative predictions. The donor model itself is
    /// *frozen* and comes from the factory, so it does not travel; the
    /// `resid_buf` scratch is rebuilt on the next refit regardless.
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        use nurd_codec::Checkpointable;
        let mut enc = nurd_codec::Encoder::new();
        self.delta.encode(&mut enc);
        self.warm.encode(&mut enc);
        self.donor_rel.encode(&mut enc);
        Some(enc.into_bytes())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        use nurd_codec::Checkpointable;
        let mut dec = nurd_codec::Decoder::new(bytes);
        let Ok(delta) = Option::<f64>::decode(&mut dec) else {
            return false;
        };
        let Ok(warm) = WarmRefitState::decode(&mut dec) else {
            return false;
        };
        let Ok(donor_rel) = Vec::<f64>::decode(&mut dec) else {
            return false;
        };
        // Rows of another width than this stream's are not a state this
        // predictor ever wrote; the next append would panic on them.
        let alien = |d| warm.rows() > 0 && warm.features().cols() != d;
        if !dec.is_empty() || self.feature_dim.is_some_and(alien) {
            return false;
        }
        self.delta = delta;
        self.warm = warm;
        self.donor_rel = donor_rel;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nurd_data::JobContext;
    use nurd_trace::{SuiteConfig, TraceStyle};

    fn suite(seed: u64, jobs: usize) -> Vec<JobTrace> {
        let cfg = SuiteConfig::new(TraceStyle::Google)
            .with_jobs(jobs)
            .with_task_range(100, 150)
            .with_checkpoints(14)
            .with_seed(seed);
        nurd_trace::generate_suite(&cfg)
    }

    #[test]
    fn donor_model_learns_relative_latency() {
        let job = &suite(1, 1)[0];
        let donor = DonorModel::from_job(job, &NurdConfig::default()).unwrap();
        // The donor's relative predictions should correlate with truth:
        // slowest task predicted above the fastest.
        let last = job.checkpoint_count() - 1;
        let mut order: Vec<usize> = (0..job.task_count()).collect();
        order.sort_by(|&a, &b| {
            job.tasks()[a]
                .latency()
                .partial_cmp(&job.tasks()[b].latency())
                .unwrap()
        });
        let fastest = job.tasks()[order[0]].snapshot(last);
        let slowest = job.tasks()[*order.last().unwrap()].snapshot(last);
        assert!(donor.predict_relative(slowest) > donor.predict_relative(fastest));
    }

    #[test]
    fn transfer_predictor_runs_the_protocol() {
        let jobs = suite(2, 2);
        let donor = DonorModel::from_job(&jobs[0], &NurdConfig::default()).unwrap();
        let mut p = TransferNurdPredictor::new(NurdConfig::default(), donor);
        let out = nurd_sim_replay(&jobs[1], &mut p);
        assert_eq!(out.confusion.total(), jobs[1].task_count());
        assert_eq!(p.name(), "NURD-TL");
    }

    #[test]
    fn transfer_warm_path_reuses_model_when_nothing_new_finished() {
        let jobs = suite(7, 1);
        let donor = DonorModel::from_job(&jobs[0], &NurdConfig::default()).unwrap();
        let config = NurdConfig::default()
            .with_refit_policy(crate::RefitPolicy::Warm(crate::WarmRefitConfig::default()));
        let mut p = TransferNurdPredictor::new(config, donor);
        let job = &jobs[0];
        let ctx = JobContext {
            threshold: job.straggler_threshold(0.9),
            task_count: job.task_count(),
            feature_dim: job.feature_dim(),
            oracle: job,
        };
        p.begin_job(&ctx);
        let k = job.checkpoint_count() / 2;
        let ckpt = job.checkpoint_at(k);
        p.predict(&ckpt);
        let fits_after_first = p.warm.stats().cold_fits + p.warm.stats().warm_fits;
        // Identical checkpoint again: residual targets are bit-identical,
        // so no further fit may happen.
        p.predict(&ckpt);
        assert_eq!(
            p.warm.stats().cold_fits + p.warm.stats().warm_fits,
            fits_after_first
        );
    }

    #[test]
    fn restore_refuses_rows_of_another_width_than_the_stream() {
        let jobs = suite(7, 1);
        let job = &jobs[0];
        let donor = DonorModel::from_job(job, &NurdConfig::default()).unwrap();
        let mut live = TransferNurdPredictor::new(NurdConfig::default(), donor.clone());
        let mut ctx = StreamContext {
            threshold: job.straggler_threshold(0.9),
            task_count: job.task_count(),
            feature_dim: job.feature_dim(),
        };
        live.begin_stream(&ctx);
        let checkpoint = job.checkpoint_at(job.checkpoint_count() / 2);
        let flagged = live.predict(&checkpoint);
        let blob = live.snapshot_state().unwrap();

        let mut restored = TransferNurdPredictor::new(NurdConfig::default(), donor);
        restored.begin_stream(&ctx);
        assert!(restored.restore_state(&blob));
        assert_eq!(restored.predict(&checkpoint), flagged);
        // The same rows in a narrower job: the next append would panic.
        ctx.feature_dim -= 1;
        restored.begin_stream(&ctx);
        assert!(!restored.restore_state(&blob));
    }

    #[test]
    fn transfer_warm_policy_matches_cold_accuracy() {
        // Warm-started residual refits must not wreck transfer accuracy
        // relative to the always-cold protocol on the same jobs.
        let jobs = suite(11, 4);
        let donor = DonorModel::from_job(&jobs[0], &NurdConfig::default()).unwrap();
        let warm_cfg = NurdConfig::default()
            .with_refit_policy(crate::RefitPolicy::Warm(crate::WarmRefitConfig::default()));
        let mut cold_f1 = 0.0;
        let mut warm_f1 = 0.0;
        for job in &jobs[1..] {
            let mut cold = TransferNurdPredictor::new(NurdConfig::default(), donor.clone());
            cold_f1 += nurd_sim_replay(job, &mut cold).confusion.f1();
            let mut warm = TransferNurdPredictor::new(warm_cfg.clone(), donor.clone());
            warm_f1 += nurd_sim_replay(job, &mut warm).confusion.f1();
        }
        assert!(
            warm_f1 >= cold_f1 - 0.5,
            "warm transfer {warm_f1:.2} collapsed vs cold {cold_f1:.2}"
        );
    }

    #[test]
    fn transfer_is_competitive_with_scratch_nurd() {
        // Averaged over a few target jobs, the donor prior must not wreck
        // accuracy (it should help early; end-of-job F1 stays comparable).
        let jobs = suite(3, 7);
        let donor = DonorModel::from_job(&jobs[0], &NurdConfig::default()).unwrap();
        let mut scratch = 0.0;
        let mut transfer = 0.0;
        for job in &jobs[1..] {
            let mut a = crate::NurdPredictor::new(NurdConfig::default());
            scratch += nurd_sim_replay(job, &mut a).confusion.f1();
            let mut b = TransferNurdPredictor::new(NurdConfig::default(), donor.clone());
            transfer += nurd_sim_replay(job, &mut b).confusion.f1();
        }
        assert!(
            transfer >= scratch - 0.8,
            "transfer {transfer:.2} collapsed vs scratch {scratch:.2}"
        );
    }

    /// Minimal local replay to avoid a dev-dependency cycle on `nurd-sim`.
    fn nurd_sim_replay(job: &JobTrace, predictor: &mut dyn OnlinePredictor) -> LocalOutcome {
        let threshold = job.straggler_threshold(0.9);
        let warmup = job.warmup_checkpoint(0.04);
        let n = job.task_count();
        predictor.begin_job(&JobContext {
            threshold,
            task_count: n,
            feature_dim: job.feature_dim(),
            oracle: job,
        });
        let mut flagged = vec![false; n];
        for (k, &time) in job.checkpoint_times().iter().enumerate() {
            if k < warmup || time >= threshold {
                continue;
            }
            let mut finished = Vec::new();
            let mut running = Vec::new();
            for task in job.tasks() {
                if flagged[task.id()] {
                    continue;
                }
                if task.latency() <= time {
                    finished.push(nurd_data::FinishedTask {
                        id: task.id(),
                        features: task.snapshot(k),
                        latency: task.latency(),
                    });
                } else {
                    running.push(nurd_data::RunningTask {
                        id: task.id(),
                        features: task.snapshot(k),
                    });
                }
            }
            let running_ids: Vec<usize> = running.iter().map(|r| r.id).collect();
            let ckpt = Checkpoint {
                ordinal: k,
                time,
                finished,
                running,
            };
            for id in predictor.predict(&ckpt) {
                if running_ids.contains(&id) {
                    flagged[id] = true;
                }
            }
        }
        let mut confusion = Confusion::default();
        for (task, &f) in job.tasks().iter().zip(&flagged) {
            match (f, task.latency() >= threshold) {
                (true, true) => confusion.tp += 1,
                (true, false) => confusion.fp += 1,
                (false, true) => confusion.fne += 1,
                (false, false) => confusion.tn += 1,
            }
        }
        LocalOutcome { confusion }
    }

    struct LocalOutcome {
        confusion: Confusion,
    }

    #[derive(Default)]
    struct Confusion {
        tp: usize,
        fp: usize,
        fne: usize,
        tn: usize,
    }

    impl Confusion {
        fn total(&self) -> usize {
            self.tp + self.fp + self.fne + self.tn
        }
        fn f1(&self) -> f64 {
            if self.tp == 0 {
                return 0.0;
            }
            let p = self.tp as f64 / (self.tp + self.fp) as f64;
            let r = self.tp as f64 / (self.tp + self.fne) as f64;
            2.0 * p * r / (p + r)
        }
    }
}
