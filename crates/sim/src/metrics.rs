//! Confusion-matrix accounting for straggler prediction.

/// Binary confusion counts for one job's replay (positive class =
/// straggler, as in the paper).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Confusion {
    /// Flagged tasks that truly straggled.
    pub true_positives: usize,
    /// Flagged tasks that finished below the threshold.
    pub false_positives: usize,
    /// Stragglers that were never flagged.
    pub false_negatives: usize,
    /// Non-stragglers never flagged.
    pub true_negatives: usize,
}

impl nurd_codec::Checkpointable for Confusion {
    fn encode(&self, enc: &mut nurd_codec::Encoder) {
        enc.put_usize(self.true_positives);
        enc.put_usize(self.false_positives);
        enc.put_usize(self.false_negatives);
        enc.put_usize(self.true_negatives);
    }

    fn decode(dec: &mut nurd_codec::Decoder<'_>) -> Result<Self, nurd_codec::CodecError> {
        Ok(Confusion {
            true_positives: dec.take_usize()?,
            false_positives: dec.take_usize()?,
            false_negatives: dec.take_usize()?,
            true_negatives: dec.take_usize()?,
        })
    }
}

impl Confusion {
    /// Total tasks accounted for.
    #[must_use]
    pub fn total(&self) -> usize {
        self.true_positives + self.false_positives + self.false_negatives + self.true_negatives
    }

    /// True positive rate (recall); `0.0` when there are no positives.
    #[must_use]
    pub fn tpr(&self) -> f64 {
        ratio(
            self.true_positives,
            self.true_positives + self.false_negatives,
        )
    }

    /// False positive rate; `0.0` when there are no negatives.
    #[must_use]
    pub fn fpr(&self) -> f64 {
        ratio(
            self.false_positives,
            self.false_positives + self.true_negatives,
        )
    }

    /// False negative rate; `0.0` when there are no positives.
    #[must_use]
    pub(crate) fn fnr(&self) -> f64 {
        ratio(
            self.false_negatives,
            self.true_positives + self.false_negatives,
        )
    }

    /// Precision; `0.0` when nothing was flagged.
    #[must_use]
    fn precision(&self) -> f64 {
        ratio(
            self.true_positives,
            self.true_positives + self.false_positives,
        )
    }

    /// F1 score; `0.0` when there are no true positives.
    #[must_use]
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.tpr();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Macro-averaged metrics over many jobs — the row format of Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodSummary {
    /// Mean per-job true positive rate.
    pub tpr: f64,
    /// Mean per-job false positive rate.
    pub fpr: f64,
    /// Mean per-job false negative rate.
    pub fnr: f64,
    /// Mean per-job F1.
    pub f1: f64,
    /// Number of jobs averaged.
    pub jobs: usize,
}

impl MethodSummary {
    /// Averages per-job confusions (macro average, matching the paper's
    /// "averaged results over all jobs").
    ///
    /// Returns all-zero metrics for an empty slice.
    #[must_use]
    pub fn from_confusions(confusions: &[Confusion]) -> Self {
        if confusions.is_empty() {
            return MethodSummary {
                tpr: 0.0,
                fpr: 0.0,
                fnr: 0.0,
                f1: 0.0,
                jobs: 0,
            };
        }
        let n = confusions.len() as f64;
        MethodSummary {
            tpr: confusions.iter().map(Confusion::tpr).sum::<f64>() / n,
            fpr: confusions.iter().map(Confusion::fpr).sum::<f64>() / n,
            fnr: confusions.iter().map(Confusion::fnr).sum::<f64>() / n,
            f1: confusions.iter().map(Confusion::f1).sum::<f64>() / n,
            jobs: confusions.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfect_prediction() {
        let c = Confusion {
            true_positives: 10,
            false_positives: 0,
            false_negatives: 0,
            true_negatives: 90,
        };
        assert_eq!(c.tpr(), 1.0);
        assert_eq!(c.fpr(), 0.0);
        assert_eq!(c.fnr(), 0.0);
        assert_eq!(c.f1(), 1.0);
        assert_eq!(c.total(), 100);
    }

    #[test]
    fn known_confusion_values() {
        // tp=6, fp=4, fn=4, tn=86: precision 0.6, recall 0.6, f1 0.6.
        let c = Confusion {
            true_positives: 6,
            false_positives: 4,
            false_negatives: 4,
            true_negatives: 86,
        };
        assert!((c.precision() - 0.6).abs() < 1e-12);
        assert!((c.tpr() - 0.6).abs() < 1e-12);
        assert!((c.f1() - 0.6).abs() < 1e-12);
        assert!((c.fpr() - 4.0 / 90.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_rates_are_zero() {
        let c = Confusion::default();
        assert_eq!(c.tpr(), 0.0);
        assert_eq!(c.fpr(), 0.0);
        assert_eq!(c.fnr(), 0.0);
        assert_eq!(c.f1(), 0.0);
    }

    #[test]
    fn summary_macro_averages() {
        let jobs = [
            Confusion {
                true_positives: 10,
                false_positives: 0,
                false_negatives: 0,
                true_negatives: 90,
            },
            Confusion {
                true_positives: 0,
                false_positives: 0,
                false_negatives: 10,
                true_negatives: 90,
            },
        ];
        let s = MethodSummary::from_confusions(&jobs);
        assert!((s.tpr - 0.5).abs() < 1e-12);
        assert!((s.f1 - 0.5).abs() < 1e-12);
        assert_eq!(s.jobs, 2);
    }

    #[test]
    fn summary_empty_is_zero() {
        let s = MethodSummary::from_confusions(&[]);
        assert_eq!(s.jobs, 0);
        assert_eq!(s.f1, 0.0);
    }

    proptest! {
        /// TPR + FNR = 1 whenever there is at least one positive.
        #[test]
        fn prop_tpr_fnr_complement(tp in 0usize..50, fp in 0usize..50,
                                   fne in 0usize..50, tn in 0usize..50) {
            let c = Confusion {
                true_positives: tp,
                false_positives: fp,
                false_negatives: fne,
                true_negatives: tn,
            };
            if tp + fne > 0 {
                prop_assert!((c.tpr() + c.fnr() - 1.0).abs() < 1e-12);
            }
            prop_assert!((0.0..=1.0).contains(&c.f1()));
            prop_assert!((0.0..=1.0).contains(&c.fpr()));
        }
    }
}
