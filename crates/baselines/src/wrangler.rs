//! Wrangler (Yadwadkar et al., 2014): the systems baseline.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use nurd_data::{Checkpoint, JobContext, OnlinePredictor};
use nurd_ml::{LinearSvm, SvmConfig};

/// Wrangler: a linear SVM straggler classifier.
///
/// Per the paper's protocol (§6), Wrangler is granted what no online
/// method has — labeled stragglers: "we randomly sample 2/3 non-stragglers
/// and stragglers from each job as training to mimic the same situation in
/// the original paper". The adapter trains offline in
/// [`OnlinePredictor::begin_job`] on final-snapshot features with oracle
/// labels (minority class upweighted, the deterministic equivalent of
/// Wrangler's oversampling) and classifies running tasks online.
#[derive(Debug, Clone)]
pub(crate) struct WranglerPredictor {
    svm_config: SvmConfig,
    /// Fraction of tasks sampled for offline training.
    train_fraction: f64,
    seed: u64,
    model: Option<LinearSvm>,
}

impl Default for WranglerPredictor {
    fn default() -> Self {
        WranglerPredictor {
            svm_config: SvmConfig::default(),
            train_fraction: 2.0 / 3.0,
            seed: 0x3A7A,
            model: None,
        }
    }
}

impl OnlinePredictor for WranglerPredictor {
    fn name(&self) -> &str {
        "Wrangler"
    }

    fn begin_job(&mut self, ctx: &JobContext<'_>) {
        self.model = None;
        let job = ctx.oracle;
        let threshold = ctx.threshold;
        let n = job.task_count();
        let mut rng = StdRng::seed_from_u64(self.seed ^ job.job_id());
        let mut ids: Vec<usize> = (0..n).collect();
        ids.shuffle(&mut rng);
        let take = ((self.train_fraction * n as f64).round() as usize).clamp(2, n);

        let last = job.checkpoint_count() - 1;
        let mut x = Vec::with_capacity(take);
        let mut y = Vec::with_capacity(take);
        let mut positives = 0usize;
        for &id in &ids[..take] {
            let task = &job.tasks()[id];
            x.push(task.snapshot(last).to_vec());
            let is_straggler = task.latency() >= threshold;
            positives += usize::from(is_straggler);
            y.push(if is_straggler { 1.0 } else { -1.0 });
        }
        if positives == 0 || positives == take {
            return; // degenerate sample; predict nothing
        }
        // Oversampling-equivalent: weight classes inversely to frequency.
        let negatives = take - positives;
        let config = SvmConfig {
            class_weights: (1.0, negatives as f64 / positives as f64),
            seed: self.svm_config.seed ^ job.job_id(),
            ..self.svm_config.clone()
        };
        self.model = LinearSvm::fit(&x, &y, &config).ok();
    }

    fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
        let Some(model) = &self.model else {
            return Vec::new();
        };
        checkpoint
            .running
            .iter()
            .filter(|t| model.predict(t.features) > 0.0)
            .map(|t| t.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nurd_sim::{replay_job, ReplayConfig};
    use nurd_trace::{SuiteConfig, TraceStyle};

    fn job() -> nurd_data::JobTrace {
        let cfg = SuiteConfig::new(TraceStyle::Google)
            .with_jobs(1)
            .with_task_range(150, 180)
            .with_checkpoints(12)
            .with_seed(31);
        nurd_trace::generate_job(&cfg, 0)
    }

    #[test]
    fn oracle_labels_buy_high_tpr() {
        let job = job();
        let out = replay_job(
            &job,
            &mut WranglerPredictor::default(),
            &ReplayConfig::default(),
        );
        // With labeled stragglers and oversampling, Wrangler catches most
        // stragglers (Table 3: TPR 0.95) but its linear boundary and
        // oversampling bias produce many false positives (FPR 0.42).
        assert!(out.confusion.tpr() > 0.5, "tpr {}", out.confusion.tpr());
        assert!(out.confusion.fpr() > 0.01, "fpr {}", out.confusion.fpr());
    }

    #[test]
    fn predicts_nothing_before_begin_job() {
        let mut p = WranglerPredictor::default();
        let ckpt = Checkpoint {
            ordinal: 0,
            time: 1.0,
            finished: vec![],
            running: vec![],
        };
        assert!(p.predict(&ckpt).is_empty());
    }
}
