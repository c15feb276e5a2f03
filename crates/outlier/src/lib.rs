//! The fourteen outlier-detection baselines of the NURD paper (§6,
//! "Comparisons"), implemented from their original papers.
//!
//! The paper evaluates ABOD, CBLOF, HBOS, IFOREST, KNN, LOF, MCD, OCSVM,
//! PCA, SOS, LSCP, COF, SOD and XGBOD (via PyOD) as unsupervised baselines
//! for online straggler prediction. All detectors here implement
//! [`OutlierDetector`]: they score a full sample set transductively (the
//! online protocol fits on all currently visible tasks and reads off the
//! scores of the running ones). Higher score = more anomalous.
//!
//! XGBOD is semi-supervised (it trains a boosted classifier on unsupervised
//! score features) and exposes its own [`Xgbod`] API taking labels.
//!
//! # Example
//!
//! ```
//! use nurd_outlier::{Knn, OutlierDetector};
//!
//! # fn main() -> Result<(), nurd_ml::MlError> {
//! let mut rows: Vec<Vec<f64>> = (0..30).map(|i| vec![(i % 5) as f64, 0.0]).collect();
//! rows.push(vec![100.0, 100.0]); // planted outlier
//! let scores = Knn::default().score_all(&rows)?;
//! let max_idx = (0..rows.len()).max_by(|&a, &b| {
//!     scores[a].partial_cmp(&scores[b]).unwrap()
//! }).unwrap();
//! assert_eq!(max_idx, 30);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod abod;
mod cblof;
mod hbos;
mod iforest;
mod knn;
mod lof;
mod lscp;
mod mcd;
mod ocsvm;
mod pca;
mod sod;
mod sos;
mod xgbod;

pub use abod::Abod;
pub use cblof::Cblof;
pub use hbos::Hbos;
pub use iforest::IsolationForest;
pub use knn::Knn;
pub use lof::{Cof, Lof};
pub use lscp::Lscp;
pub use mcd::Mcd;
pub use ocsvm::OcSvm;
pub use pca::PcaDetector;
pub use sod::Sod;
pub use sos::Sos;
pub use xgbod::Xgbod;

use nurd_ml::MlError;

/// A transductive outlier detector: fits on a sample set and scores every
/// row of it. Higher scores are more anomalous.
///
/// This trait is object-safe; the method registry in `nurd-baselines` holds
/// detectors as `Box<dyn OutlierDetector>`.
pub trait OutlierDetector {
    /// The detector's name as used in the paper's tables.
    fn name(&self) -> &'static str;

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
pub fn contamination_threshold(scores: &[f64], contamination: f64) -> f64 {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contamination_threshold_picks_quantile() {
        let scores: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let t = contamination_threshold(&scores, 0.1);
        assert!((t - 89.0).abs() < 1.0 + 1e-9);
    }

    #[test]
    #[should_panic(expected = "no scores")]
    fn contamination_threshold_rejects_empty() {
        let _ = contamination_threshold(&[], 0.1);
    }

    #[test]
    fn all_detectors_are_object_safe_and_named() {
        let detectors: Vec<Box<dyn OutlierDetector>> = vec![
            Box::new(Abod::default()),
            Box::new(Cblof::default()),
            Box::new(Hbos::default()),
            Box::new(IsolationForest::default()),
            Box::new(Knn::default()),
            Box::new(Lof::default()),
            Box::new(Cof::default()),
            Box::new(Mcd::default()),
            Box::new(OcSvm::default()),
            Box::new(PcaDetector::default()),
            Box::new(Sos::default()),
            Box::new(Lscp::default()),
            Box::new(Sod::default()),
        ];
        let names: Vec<&str> = detectors.iter().map(|d| d.name()).collect();
        assert_eq!(
            names,
            vec![
                "ABOD", "CBLOF", "HBOS", "IFOREST", "KNN", "LOF", "COF", "MCD", "OCSVM", "PCA",
                "SOS", "LSCP", "SOD"
            ]
        );
    }

    /// Every detector must rank a gross planted outlier above the median
    /// inlier — the minimum bar for the straggler experiments.
    #[test]
    fn every_detector_flags_a_gross_outlier() {
        let mut rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 7) as f64 * 0.1, (i % 5) as f64 * 0.1, 1.0])
            .collect();
        rows.push(vec![8.0, -6.0, 12.0]);
        let outlier = rows.len() - 1;

        let detectors: Vec<Box<dyn OutlierDetector>> = vec![
            Box::new(Abod::default()),
            Box::new(Cblof::default()),
            Box::new(Hbos::default()),
            Box::new(IsolationForest::default()),
            Box::new(Knn::default()),
            Box::new(Lof::default()),
            Box::new(Cof::default()),
            Box::new(Mcd::default()),
            Box::new(OcSvm::default()),
            Box::new(PcaDetector::default()),
            Box::new(Sos::default()),
            Box::new(Lscp::default()),
            Box::new(Sod::default()),
        ];
        for det in detectors {
            let scores = det.score_all(&rows).unwrap_or_else(|e| {
                panic!("{} failed: {e}", det.name());
            });
            assert_eq!(scores.len(), rows.len(), "{} wrong length", det.name());
            let mut sorted = scores.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let median = sorted[sorted.len() / 2];
            assert!(
                scores[outlier] > median,
                "{}: outlier score {} not above median {median}",
                det.name(),
                scores[outlier]
            );
        }
    }
}
