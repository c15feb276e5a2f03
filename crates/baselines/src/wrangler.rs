//! Wrangler (Yadwadkar et al., 2014): the systems baseline.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use nurd_data::{Checkpoint, JobTrace, OnlinePredictor, StreamContext};
use nurd_ml::{LinearSvm, SvmConfig};

/// Fraction of a job's tasks sampled for offline training.
const TRAIN_FRACTION: f64 = 2.0 / 3.0;
/// Seed of the training sample's shuffle, xored with the job id.
const SAMPLE_SEED: u64 = 0x3A7A;

/// Wrangler: a linear SVM straggler classifier.
///
/// Per the paper's protocol (§6), Wrangler is granted what no online
/// method has — labeled stragglers: "we randomly sample 2/3 non-stragglers
/// and stragglers from each job as training to mimic the same situation in
/// the original paper". The registry's factory hands it the job's trace:
/// [`WranglerPredictor::new`] draws the sample's final-snapshot features
/// and latencies there, and [`OnlinePredictor::begin_stream`] labels them
/// at the replay's threshold and trains (minority class upweighted, the
/// deterministic equivalent of Wrangler's oversampling). Running tasks
/// are then classified online.
#[derive(Debug, Clone)]
pub(crate) struct WranglerPredictor {
    job_id: u64,
    /// Final-snapshot features of the sampled tasks.
    x: Vec<Vec<f64>>,
    /// Their latencies, in the order of `x`.
    latencies: Vec<f64>,
    model: Option<LinearSvm>,
}

impl WranglerPredictor {
    /// Draws the labelled sample from `job`: at least two tasks (all of
    /// them when the job has fewer).
    pub(crate) fn new(job: &JobTrace) -> Self {
        let n = job.task_count();
        let mut rng = StdRng::seed_from_u64(SAMPLE_SEED ^ job.job_id());
        let mut ids: Vec<usize> = (0..n).collect();
        ids.shuffle(&mut rng);
        let take = ((TRAIN_FRACTION * n as f64).round() as usize).max(2).min(n);
        let last = job.checkpoint_count() - 1;
        let sample = ids[..take].iter().map(|&id| &job.tasks()[id]);
        WranglerPredictor {
            job_id: job.job_id(),
            x: sample.clone().map(|t| t.snapshot(last).to_vec()).collect(),
            latencies: sample.map(|t| t.latency()).collect(),
            model: None,
        }
    }
}

impl OnlinePredictor for WranglerPredictor {
    fn name(&self) -> &str {
        "Wrangler"
    }

    fn begin_stream(&mut self, ctx: &StreamContext) {
        self.model = None;
        let y: Vec<f64> = self
            .latencies
            .iter()
            .map(|&l| if l >= ctx.threshold { 1.0 } else { -1.0 })
            .collect();
        let positives = y.iter().filter(|&&label| label > 0.0).count();
        if positives == 0 || positives == y.len() {
            return; // degenerate sample; predict nothing
        }
        // Oversampling-equivalent: weight classes inversely to frequency.
        let negatives = y.len() - positives;
        let defaults = SvmConfig::default();
        let config = SvmConfig {
            class_weights: (1.0, negatives as f64 / positives as f64),
            seed: defaults.seed ^ self.job_id,
            ..defaults
        };
        self.model = LinearSvm::fit(&self.x, &y, &config).ok();
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

    fn job() -> JobTrace {
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
            &mut WranglerPredictor::new(&job),
            &ReplayConfig::default(),
        );
        // With labeled stragglers and oversampling, Wrangler catches most
        // stragglers (Table 3: TPR 0.95) but its linear boundary and
        // oversampling bias produce many false positives (FPR 0.42).
        assert!(out.confusion.tpr() > 0.5, "tpr {}", out.confusion.tpr());
        assert!(out.confusion.fpr() > 0.01, "fpr {}", out.confusion.fpr());
    }

    #[test]
    fn each_job_draws_its_own_sample() {
        let job = job();
        let renamed = JobTrace::new(
            job.job_id() + 1,
            job.feature_names().to_vec(),
            job.checkpoint_times().to_vec(),
            job.tasks().to_vec(),
        )
        .unwrap();
        // Same tasks, another id: the shuffle is seeded by the job id, so
        // the 2/3 sample differs (a seed without it draws one permutation
        // for every job of a given size).
        assert_ne!(
            WranglerPredictor::new(&job).latencies,
            WranglerPredictor::new(&renamed).latencies
        );
    }

    #[test]
    fn predicts_nothing_before_begin_stream() {
        let mut p = WranglerPredictor::new(&job());
        let ckpt = Checkpoint {
            ordinal: 0,
            time: 1.0,
            finished: vec![],
            running: vec![],
        };
        assert!(p.predict(&ckpt).is_empty());
    }
}
