//! Adapters exposing the fourteen outlier detectors as online predictors.

use nurd_data::{Checkpoint, OnlinePredictor};
use nurd_outlier::{contamination_threshold, OutlierDetector, Xgbod};

/// Drives any transductive [`OutlierDetector`] through the online
/// protocol: at each checkpoint the detector scores all visible tasks
/// (finished ∪ running) and flags the running tasks whose score exceeds
/// the contamination-quantile threshold.
///
/// As §3.2 of the paper argues, these methods only see the feature space —
/// the observed latencies of finished tasks are never used — which is
/// exactly why feature-space decoys sink their precision.
pub(crate) struct OutlierPredictor {
    detector: Box<dyn OutlierDetector + Send>,
    /// Expected outlier share (PyOD-style contamination; 0.1 matches the
    /// p90 straggler definition).
    contamination: f64,
}

impl OutlierPredictor {
    /// Wraps a detector with the default 0.1 contamination.
    #[must_use]
    pub(crate) fn new(detector: Box<dyn OutlierDetector + Send>) -> Self {
        OutlierPredictor {
            detector,
            contamination: 0.1,
        }
    }
}

impl std::fmt::Debug for OutlierPredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OutlierPredictor")
            .field("detector", &self.detector.name())
            .field("contamination", &self.contamination)
            .finish()
    }
}

impl OnlinePredictor for OutlierPredictor {
    fn name(&self) -> &str {
        self.detector.name()
    }

    fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
        if checkpoint.running.is_empty() || checkpoint.visible_count() < 5 {
            return Vec::new();
        }
        let mut x = checkpoint.finished_features();
        let n_finished = x.len();
        x.extend(checkpoint.running_features());
        let Ok(scores) = self.detector.score_all(&x) else {
            return Vec::new();
        };
        if scores.iter().any(|s| !s.is_finite()) {
            return Vec::new();
        }
        let threshold = contamination_threshold(&scores, self.contamination);
        checkpoint
            .running
            .iter()
            .enumerate()
            .filter(|(i, _)| scores[n_finished + i] > threshold)
            .map(|(_, t)| t.id)
            .collect()
    }
}

/// XGBOD under the online protocol: the supervised head is trained on
/// finished-vs-running proxy labels (no straggler labels exist online —
/// see `DESIGN.md` §3), and running tasks in the top contamination
/// quantile of predicted running-ness are flagged.
#[derive(Debug, Clone)]
pub(crate) struct XgbodPredictor {
    model: Xgbod,
    contamination: f64,
}

impl Default for XgbodPredictor {
    fn default() -> Self {
        XgbodPredictor {
            model: Xgbod::default(),
            contamination: 0.1,
        }
    }
}

impl OnlinePredictor for XgbodPredictor {
    fn name(&self) -> &str {
        "XGBOD"
    }

    fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
        if checkpoint.finished.len() < 2 || checkpoint.running.is_empty() {
            return Vec::new();
        }
        let mut x = checkpoint.finished_features();
        let n_finished = x.len();
        x.extend(checkpoint.running_features());
        let mut labels = vec![0.0; n_finished];
        labels.extend(std::iter::repeat_n(1.0, checkpoint.running.len()));
        let Ok(fitted) = self.model.fit(&x, &labels) else {
            return Vec::new();
        };
        let Ok(scores) = fitted.score_all(&x) else {
            return Vec::new();
        };
        let threshold = contamination_threshold(&scores, self.contamination);
        checkpoint
            .running
            .iter()
            .enumerate()
            .filter(|(i, _)| scores[n_finished + i] > threshold)
            .map(|(_, t)| t.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nurd_outlier::Knn;
    use nurd_sim::{replay_job, ReplayConfig};
    use nurd_trace::{SuiteConfig, TraceStyle};

    fn job() -> nurd_data::JobTrace {
        let cfg = SuiteConfig::new(TraceStyle::Google)
            .with_jobs(1)
            .with_task_range(120, 150)
            .with_checkpoints(12)
            .with_seed(77);
        nurd_trace::generate_job(&cfg, 0)
    }

    #[test]
    fn knn_adapter_runs_the_protocol() {
        let job = job();
        let mut p = OutlierPredictor::new(Box::new(Knn::default()));
        let out = replay_job(&job, &mut p, &ReplayConfig::default());
        assert_eq!(out.confusion.total(), job.task_count());
        // An unsupervised detector flags *something* on these traces.
        assert!(out.confusion.true_positives + out.confusion.false_positives > 0);
    }

    #[test]
    fn xgbod_adapter_runs_the_protocol() {
        let job = job();
        let mut p = XgbodPredictor::default();
        let out = replay_job(&job, &mut p, &ReplayConfig::default());
        assert_eq!(out.confusion.total(), job.task_count());
    }

    #[test]
    fn no_flags_on_empty_checkpoints() {
        let mut p = OutlierPredictor::new(Box::new(Knn::default()));
        let ckpt = Checkpoint {
            ordinal: 0,
            time: 1.0,
            finished: vec![],
            running: vec![],
        };
        assert!(p.predict(&ckpt).is_empty());
    }
}
