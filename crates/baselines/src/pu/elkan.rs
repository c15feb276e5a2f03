//! PU-EN: the Elkan & Noto (2008) probability-correction estimator.

use nurd_ml::{LogisticConfig, LogisticRegression, MlError};

/// Configuration for the Elkan–Noto PU learner.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PuEn {
    /// Configuration of the non-traditional classifier `g(x) = P(s=1|x)`.
    pub logistic: LogisticConfig,
}

impl Default for PuEn {
    fn default() -> Self {
        PuEn {
            logistic: LogisticConfig { balanced: true },
        }
    }
}

/// A fitted PU-EN model.
#[derive(Debug, Clone)]
pub(crate) struct FittedPuEn {
    classifier: LogisticRegression,
    /// The label frequency `c = P(s=1 | y=1)`, estimated as the mean
    /// classifier output on the labeled set (Elkan & Noto, estimator e1).
    label_frequency: f64,
}

impl PuEn {
    /// Fits the non-traditional classifier on labeled-vs-unlabeled data and
    /// estimates the label frequency `c`.
    ///
    /// # Errors
    ///
    /// [`MlError::EmptyTrainingSet`] when either set is empty; otherwise
    /// propagates logistic-regression errors.
    pub(crate) fn fit(
        &self,
        labeled: &[Vec<f64>],
        unlabeled: &[Vec<f64>],
    ) -> Result<FittedPuEn, MlError> {
        if labeled.is_empty() || unlabeled.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        let mut x = labeled.to_vec();
        x.extend(unlabeled.iter().cloned());
        let mut s = vec![1.0; labeled.len()];
        s.extend(std::iter::repeat_n(0.0, unlabeled.len()));
        let classifier = LogisticRegression::fit(&x, &s, &self.logistic)?;
        let label_frequency = (labeled
            .iter()
            .map(|row| classifier.predict_proba(row))
            .sum::<f64>()
            / labeled.len() as f64)
            .clamp(1e-6, 1.0);
        Ok(FittedPuEn {
            classifier,
            label_frequency,
        })
    }
}

impl FittedPuEn {
    /// Corrected positive-class probability `P(y=1|x) = g(x)/c`, clamped to
    /// `[0, 1]`.
    #[must_use]
    pub(crate) fn positive_probability(&self, features: &[f64]) -> f64 {
        (self.classifier.predict_proba(features) / self.label_frequency).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn separable() -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let labeled: Vec<Vec<f64>> = (0..30).map(|i| vec![(i % 10) as f64 * 0.1]).collect();
        // Unlabeled: half positive-like, half negative-like.
        let mut unlabeled: Vec<Vec<f64>> = (0..15).map(|i| vec![(i % 10) as f64 * 0.1]).collect();
        unlabeled.extend((0..15).map(|i| vec![5.0 + (i % 10) as f64 * 0.1]));
        (labeled, unlabeled)
    }

    #[test]
    fn corrects_probabilities_upward() {
        let (labeled, unlabeled) = separable();
        let model = PuEn::default().fit(&labeled, &unlabeled).unwrap();
        // c < 1 because unlabeled contains positives; correction divides by
        // it, pushing positive-like points toward 1.
        assert!(model.label_frequency < 1.0);
        let p_pos = model.positive_probability(&[0.45]);
        let p_neg = model.positive_probability(&[5.5]);
        assert!(p_pos > 0.8, "positive-like prob {p_pos}");
        assert!(p_neg < 0.5, "negative-like prob {p_neg}");
    }

    #[test]
    fn rejects_empty_sets() {
        assert!(matches!(
            PuEn::default().fit(&[], &[vec![1.0]]),
            Err(MlError::EmptyTrainingSet)
        ));
        assert!(matches!(
            PuEn::default().fit(&[vec![1.0]], &[]),
            Err(MlError::EmptyTrainingSet)
        ));
    }

    proptest! {
        /// Probabilities stay in [0, 1] after the 1/c correction.
        #[test]
        fn prop_probabilities_bounded(probe in -20.0..20.0f64) {
            let (labeled, unlabeled) = separable();
            let model = PuEn::default().fit(&labeled, &unlabeled).unwrap();
            let p = model.positive_probability(&[probe]);
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }
}
