//! XGBOD (Zhao & Hryniewicki, 2018): supervised detection on top of
//! unsupervised representations.

use nurd_ml::{GbtConfig, GradientBoosting, LogisticLoss, MlError};

use crate::hbos::Hbos;
use crate::iforest::IsolationForest;
use crate::knn::Knn;
use crate::lof::Lof;
use crate::outlier_adapter::OutlierDetector;

/// XGBOD: augments the raw features with the score columns of a battery of
/// unsupervised detectors, then trains a boosted-tree classifier on the
/// augmented representation.
///
/// XGBOD is the one *semi-supervised* member of the paper's outlier suite:
/// it needs labels. The online protocol has no straggler labels, so the
/// baseline adapter feeds it finished-vs-running proxy labels (see
/// `nurd-baselines`' `outlier_adapter` and `ARCHITECTURE.md`'s paper map).
#[derive(Debug, Clone)]
pub(crate) struct Xgbod {
    /// Boosted-tree head configuration.
    pub(crate) gbt: GbtConfig,
}

impl Default for Xgbod {
    fn default() -> Self {
        Xgbod {
            gbt: GbtConfig {
                n_rounds: 40,
                ..GbtConfig::default()
            },
        }
    }
}

/// A fitted XGBOD model.
#[derive(Debug, Clone)]
pub(crate) struct FittedXgbod {
    classifier: GradientBoosting<LogisticLoss>,
    battery: Battery,
}

#[derive(Debug, Clone)]
struct Battery;

impl Battery {
    /// Unsupervised score columns for a sample set. The battery mirrors
    /// XGBOD's "transformed outlier representation": distance, density,
    /// histogram and isolation views.
    fn augment(x: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, MlError> {
        let columns: Vec<Vec<f64>> = vec![
            Knn { k: 3 }.score_all(x)?,
            Knn { k: 7 }.score_all(x)?,
            Lof { k: 10 }.score_all(x)?,
            Hbos::default().score_all(x)?,
            IsolationForest {
                trees: 50,
                ..IsolationForest::default()
            }
            .score_all(x)?,
        ];
        Ok(x.iter()
            .enumerate()
            .map(|(i, row)| {
                let mut augmented = row.clone();
                augmented.extend(
                    columns
                        .iter()
                        .map(|c| if c[i].is_finite() { c[i] } else { 0.0 }),
                );
                augmented
            })
            .collect())
    }
}

impl Xgbod {
    /// Fits on a labeled sample set (`labels` in `{0, 1}`, 1 = outlier).
    ///
    /// # Errors
    ///
    /// Propagates shape and configuration errors from the battery and the
    /// boosted-tree head.
    pub(crate) fn fit(&self, x: &[Vec<f64>], labels: &[f64]) -> Result<FittedXgbod, MlError> {
        let augmented = Battery::augment(x)?;
        let classifier = GradientBoosting::fit(&augmented, labels, LogisticLoss, &self.gbt)?;
        Ok(FittedXgbod {
            classifier,
            battery: Battery,
        })
    }
}

impl FittedXgbod {
    /// Outlier probabilities for a (possibly different) sample set. The
    /// unsupervised battery is re-run transductively on the new set, as the
    /// online protocol refits per checkpoint anyway.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the battery.
    pub(crate) fn score_all(&self, x: &[Vec<f64>]) -> Result<Vec<f64>, MlError> {
        let _ = &self.battery;
        let augmented = Battery::augment(x)?;
        Ok(augmented
            .iter()
            .map(|row| self.classifier.predict_proba(row))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labeled_blob() -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut x: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![(i % 10) as f64 * 0.1, (i / 10) as f64 * 0.1])
            .collect();
        let mut y = vec![0.0; 60];
        for i in 0..6 {
            x.push(vec![5.0 + i as f64 * 0.05, 5.0]);
            y.push(1.0);
        }
        (x, y)
    }

    #[test]
    fn learns_labeled_outliers() {
        let (x, y) = labeled_blob();
        let model = Xgbod::default().fit(&x, &y).unwrap();
        let scores = model.score_all(&x).unwrap();
        let mean_out: f64 = scores[60..].iter().sum::<f64>() / 6.0;
        let mean_in: f64 = scores[..60].iter().sum::<f64>() / 60.0;
        assert!(
            mean_out > mean_in + 0.2,
            "outlier mean {mean_out} vs inlier mean {mean_in}"
        );
    }

    #[test]
    fn scores_are_probabilities() {
        let (x, y) = labeled_blob();
        let model = Xgbod::default().fit(&x, &y).unwrap();
        let scores = model.score_all(&x).unwrap();
        assert!(scores.iter().all(|&s| (0.0..=1.0).contains(&s)));
    }

    #[test]
    fn rejects_mismatched_labels() {
        let (x, _) = labeled_blob();
        assert!(Xgbod::default().fit(&x, &[1.0]).is_err());
    }
}
