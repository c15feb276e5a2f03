//! GBTR: the plain supervised baseline (§6 "Supervised learning").

use nurd_core::{RefitPolicy, WarmRefitState};
use nurd_data::{Checkpoint, OnlinePredictor, StreamContext};
use nurd_linalg::MatrixView;
use nurd_ml::GbtConfig;

/// Gradient boosting trained on finished tasks with no correction; flags a
/// running task when the raw prediction crosses `τ_stra`. This is the
/// paper's demonstration of uncorrected training/test drift: predictions
/// are biased toward non-stragglers, so TPR is low.
///
/// Consumes the same per-checkpoint refit machinery as NURD itself: a
/// [`WarmRefitState`] refits the booster under the given [`RefitPolicy`]
/// (from scratch under the paper's `AlwaysCold`, warm-started across
/// checkpoints under `Warm`).
#[derive(Debug, Clone)]
pub struct GbtrPredictor {
    config: GbtConfig,
    policy: RefitPolicy,
    threshold: f64,
    warm: WarmRefitState,
}

impl GbtrPredictor {
    /// Creates the baseline with the given booster configuration and the
    /// paper's always-cold refit behaviour.
    #[must_use]
    fn new(config: GbtConfig) -> Self {
        GbtrPredictor::with_policy(config, RefitPolicy::AlwaysCold)
    }

    /// Creates the baseline with an explicit refit policy.
    #[must_use]
    fn with_policy(config: GbtConfig, policy: RefitPolicy) -> Self {
        GbtrPredictor {
            config,
            policy,
            threshold: f64::INFINITY,
            warm: WarmRefitState::new(),
        }
    }
}

impl Default for GbtrPredictor {
    fn default() -> Self {
        GbtrPredictor::new(GbtConfig {
            n_rounds: 50,
            ..GbtConfig::default()
        })
    }
}

impl OnlinePredictor for GbtrPredictor {
    fn name(&self) -> &str {
        "GBTR"
    }

    fn begin_stream(&mut self, ctx: &StreamContext) {
        self.threshold = ctx.threshold;
        self.warm.reset();
    }

    fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
        if checkpoint.finished.len() < 2 || checkpoint.running.is_empty() {
            return Vec::new();
        }
        self.warm.ingest(checkpoint, &self.policy);
        if self.warm.refit(&self.config, &self.policy).is_err() {
            return Vec::new();
        }
        let model = self.warm.model().expect("refit succeeded");
        let run_rows = checkpoint.running_feature_rows();
        let preds = model.predict_view(MatrixView::RowSlices(&run_rows));
        checkpoint
            .running
            .iter()
            .zip(preds)
            .filter(|(_, pred)| *pred >= self.threshold)
            .map(|(t, _)| t.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nurd_sim::{replay_job, ReplayConfig};
    use nurd_trace::{SuiteConfig, TraceStyle};

    #[test]
    fn gbtr_underpredicts_stragglers() {
        let cfg = SuiteConfig::new(TraceStyle::Google)
            .with_jobs(1)
            .with_task_range(150, 180)
            .with_checkpoints(15)
            .with_long_tail_fraction(1.0)
            .with_seed(5);
        let job = nurd_trace::generate_job(&cfg, 0);
        let out = replay_job(
            &job,
            &mut GbtrPredictor::default(),
            &ReplayConfig::default(),
        );
        // Trained only on non-stragglers, GBTR cannot predict beyond the
        // observed latency range: FPR stays near zero and TPR well below 1.
        assert!(out.confusion.fpr() < 0.15, "fpr {}", out.confusion.fpr());
        assert!(out.confusion.tpr() < 0.9, "tpr {}", out.confusion.tpr());
    }

    #[test]
    fn warm_policy_flags_similarly_and_actually_warms() {
        let cfg = SuiteConfig::new(TraceStyle::Google)
            .with_jobs(1)
            .with_task_range(150, 180)
            .with_checkpoints(15)
            .with_seed(5);
        let job = nurd_trace::generate_job(&cfg, 0);
        let cold_out = replay_job(
            &job,
            &mut GbtrPredictor::default(),
            &ReplayConfig::default(),
        );
        let mut warm = GbtrPredictor::with_policy(
            GbtConfig {
                n_rounds: 50,
                ..GbtConfig::default()
            },
            nurd_core::RefitPolicy::Warm(nurd_core::WarmRefitConfig::default()),
        );
        let warm_out = replay_job(&job, &mut warm, &ReplayConfig::default());
        let stats = warm.warm.stats();
        assert!(stats.warm_fits > 0, "{stats:?}");
        assert!(
            (warm_out.confusion.f1() - cold_out.confusion.f1()).abs() <= 0.25,
            "warm {} vs cold {}",
            warm_out.confusion.f1(),
            cold_out.confusion.f1()
        );
    }

    #[test]
    fn no_predictions_without_training_data() {
        let mut p = GbtrPredictor::default();
        let ckpt = Checkpoint {
            ordinal: 0,
            time: 1.0,
            finished: vec![],
            running: vec![],
        };
        assert!(p.predict(&ckpt).is_empty());
    }
}
