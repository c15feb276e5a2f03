//! Outlier detection: the detector interface and the fit-and-flag bodies
//! of the thirteen transductive detectors and of XGBOD.
//!
//! The paper evaluates ABOD, CBLOF, HBOS, IFOREST, KNN, LOF, MCD, OCSVM,
//! PCA, SOS, LSCP, COF, SOD and XGBOD (via PyOD) as unsupervised baselines
//! for online straggler prediction (§6, "Comparisons"); each is
//! implemented from its original paper in a module of its own. All but
//! XGBOD implement [`OutlierDetector`]: they score a full sample set
//! transductively (the online protocol fits on all currently visible tasks
//! and reads off the scores of the running ones). XGBOD is semi-supervised (it trains a boosted classifier on
//! unsupervised score features) and takes labels through its own API.

use nurd_data::Checkpoint;
use nurd_ml::MlError;

use crate::adapter::FitAndFlag;
use crate::xgbod::Xgbod;

/// A transductive outlier detector: fits on a sample set and scores every
/// row of it. Higher scores are more anomalous.
///
/// This trait is object-safe; the tests hold detectors as
/// `Box<dyn OutlierDetector>`.
pub(crate) trait OutlierDetector {
    /// Scores every row of `x` (aligned with the input order).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyTrainingSet`] / [`MlError::DimensionMismatch`]
    /// on degenerate input; individual detectors may reject more (documented
    /// on their `score_all`).
    fn score_all(&self, x: &[Vec<f64>]) -> Result<Vec<f64>, MlError>;
}

/// Selects the decision threshold for a contamination rate: the
/// `(1 - contamination)` quantile of the training scores, PyOD-style.
///
/// # Panics
///
/// Panics if `scores` is empty or `contamination` is outside `(0, 1)`.
#[must_use]
pub(crate) fn contamination_threshold(scores: &[f64], contamination: f64) -> f64 {
    assert!(!scores.is_empty(), "no scores to threshold");
    assert!(
        contamination > 0.0 && contamination < 1.0,
        "contamination must be in (0, 1)"
    );
    let mut sorted = scores.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("scores are finite"));
    let idx = ((1.0 - contamination) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Expected outlier share (PyOD-style contamination; 0.1 matches the p90
/// straggler definition).
const CONTAMINATION: f64 = 0.1;

/// Every visible task's features, finished rows first.
fn visible_features(checkpoint: &Checkpoint<'_>) -> Vec<Vec<f64>> {
    let mut x = checkpoint.finished_features();
    x.extend(checkpoint.running_features());
    x
}

/// The running tasks whose score (`scores` is aligned with
/// [`visible_features`]) exceeds the contamination-quantile threshold.
fn above_contamination(checkpoint: &Checkpoint<'_>, scores: &[f64]) -> Vec<usize> {
    let threshold = contamination_threshold(scores, CONTAMINATION);
    let running = &scores[checkpoint.finished.len()..];
    checkpoint
        .running
        .iter()
        .zip(running)
        .filter(|&(_, &score)| score > threshold)
        .map(|(t, _)| t.id)
        .collect()
}

/// Any transductive [`OutlierDetector`] under the online protocol: at each
/// checkpoint the detector scores all visible tasks (finished ∪ running)
/// and the running tasks above the contamination quantile are flagged.
///
/// As §3.2 of the paper argues, these methods only see the feature space —
/// the observed latencies of finished tasks are never used — which is
/// exactly why feature-space decoys sink their precision.
impl<D: OutlierDetector> FitAndFlag for D {
    const MIN_FINISHED: usize = 0;
    const MIN_VISIBLE: usize = 5;

    fn flag(&self, checkpoint: &Checkpoint<'_>, _threshold: f64) -> Option<Vec<usize>> {
        let scores = self.score_all(&visible_features(checkpoint)).ok()?;
        if scores.iter().any(|s| !s.is_finite()) {
            return None;
        }
        Some(above_contamination(checkpoint, &scores))
    }
}

/// XGBOD under the online protocol: the supervised head is trained on
/// finished-vs-running proxy labels (no straggler labels exist online),
/// and running tasks in the top contamination quantile of predicted
/// running-ness are flagged.
impl FitAndFlag for Xgbod {
    fn flag(&self, checkpoint: &Checkpoint<'_>, _threshold: f64) -> Option<Vec<usize>> {
        let x = visible_features(checkpoint);
        let mut labels = vec![0.0; checkpoint.finished.len()];
        labels.extend(std::iter::repeat_n(1.0, checkpoint.running.len()));
        let scores = self.fit(&x, &labels).ok()?.score_all(&x).ok()?;
        Some(above_contamination(checkpoint, &scores))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::Adapter;
    use crate::knn::Knn;
    use nurd_data::OnlinePredictor;
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
        let mut p = Adapter::new("KNN", Knn::default());
        let out = replay_job(&job, &mut p, &ReplayConfig::default());
        assert_eq!(out.confusion.total(), job.task_count());
        // An unsupervised detector flags *something* on these traces.
        assert!(out.confusion.true_positives + out.confusion.false_positives > 0);
    }

    #[test]
    fn xgbod_adapter_runs_the_protocol() {
        let job = job();
        let mut p = Adapter::new("XGBOD", Xgbod::default());
        let out = replay_job(&job, &mut p, &ReplayConfig::default());
        assert_eq!(out.confusion.total(), job.task_count());
    }

    #[test]
    fn no_flags_on_empty_checkpoints() {
        let mut p = Adapter::new("KNN", Knn::default());
        let ckpt = Checkpoint {
            ordinal: 0,
            time: 1.0,
            finished: vec![],
            running: vec![],
        };
        assert!(p.predict(&ckpt).is_empty());
    }
}
