//! PU-learning adapters: the labeled class is the finished tasks.

use crate::pu::{PuBagging, PuEn};
use nurd_data::{Checkpoint, OnlinePredictor};

/// PU-EN online: labeled = finished, unlabeled = running; a running task
/// whose corrected finished-class probability falls below 0.5 is flagged.
///
/// As §3.3 of the paper predicts, the "labeled at random" assumption fails
/// here (only *fast* non-stragglers get labeled), so the classifier is
/// over-aggressive early — high TPR, high FPR.
#[derive(Debug, Clone, Default)]
pub(crate) struct PuEnPredictor {
    learner: PuEn,
}

impl OnlinePredictor for PuEnPredictor {
    fn name(&self) -> &str {
        "PU-EN"
    }

    fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
        if checkpoint.finished.len() < 2 || checkpoint.running.is_empty() {
            return Vec::new();
        }
        let labeled = checkpoint.finished_features();
        let unlabeled = checkpoint.running_features();
        let Ok(model) = self.learner.fit(&labeled, &unlabeled) else {
            return Vec::new();
        };
        checkpoint
            .running
            .iter()
            .filter(|t| model.positive_probability(t.features) < 0.5)
            .map(|t| t.id)
            .collect()
    }
}

/// PU-BG online: bagged SVMs trained finished-vs-random-unlabeled; a
/// running task with a negative out-of-bag decision score (not
/// finished-like) is flagged.
#[derive(Debug, Clone, Default)]
pub(crate) struct PuBaggingPredictor {
    learner: PuBagging,
}

impl OnlinePredictor for PuBaggingPredictor {
    fn name(&self) -> &str {
        "PU-BG"
    }

    fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
        if checkpoint.finished.len() < 2 || checkpoint.running.is_empty() {
            return Vec::new();
        }
        let positives = checkpoint.finished_features();
        let unlabeled = checkpoint.running_features();
        let Ok(scores) = self.learner.oob_scores(&positives, &unlabeled) else {
            return Vec::new();
        };
        checkpoint
            .running
            .iter()
            .zip(scores)
            .filter(|&(_, score)| score < 0.0)
            .map(|(t, _)| t.id)
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
            .with_task_range(100, 130)
            .with_checkpoints(12)
            .with_seed(88);
        nurd_trace::generate_job(&cfg, 0)
    }

    #[test]
    fn pu_en_is_aggressive_but_catches_stragglers() {
        let job = job();
        let out = replay_job(
            &job,
            &mut PuEnPredictor::default(),
            &ReplayConfig::default(),
        );
        // The paper's observation: PU learners achieve high TPR at the cost
        // of many false positives.
        assert!(out.confusion.tpr() > 0.5, "tpr {}", out.confusion.tpr());
    }

    #[test]
    fn pu_bg_runs_the_protocol() {
        let job = job();
        let out = replay_job(
            &job,
            &mut PuBaggingPredictor::default(),
            &ReplayConfig::default(),
        );
        assert_eq!(out.confusion.total(), job.task_count());
    }

    #[test]
    fn empty_checkpoints_produce_no_flags() {
        let ckpt = Checkpoint {
            ordinal: 0,
            time: 1.0,
            finished: vec![],
            running: vec![],
        };
        assert!(PuEnPredictor::default().predict(&ckpt).is_empty());
        assert!(PuBaggingPredictor::default().predict(&ckpt).is_empty());
    }
}
