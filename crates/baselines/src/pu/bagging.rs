//! PU-BG: bagging SVM for PU learning (Mordelet & Vert, 2014).

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use nurd_ml::{LinearSvm, MlError, SvmConfig};

/// Configuration for the bagging-SVM PU learner.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PuBagging {
    /// Number of bootstrap rounds.
    pub rounds: usize,
    /// Random-negative sample size per round; `None` = the positive count
    /// (the paper's K = |P| default).
    pub sample_size: Option<usize>,
    /// Base SVM configuration.
    pub svm: SvmConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PuBagging {
    fn default() -> Self {
        PuBagging {
            rounds: 12,
            sample_size: None,
            svm: SvmConfig {
                iterations: 4_000,
                ..SvmConfig::default()
            },
            seed: 555,
        }
    }
}

impl PuBagging {
    /// Fits the ensemble — each round treats a random subsample of the
    /// unlabeled set as negatives and trains positives-vs-sample — and
    /// returns the out-of-bag aggregate score of every unlabeled row
    /// (aligned with `unlabeled`; higher = more positive-like).
    ///
    /// # Errors
    ///
    /// [`MlError::EmptyTrainingSet`] when either set is empty; otherwise
    /// propagates SVM errors.
    pub(crate) fn oob_scores(
        &self,
        positives: &[Vec<f64>],
        unlabeled: &[Vec<f64>],
    ) -> Result<Vec<f64>, MlError> {
        if positives.is_empty() || unlabeled.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        let n_u = unlabeled.len();
        let k = self.sample_size.unwrap_or(positives.len()).clamp(1, n_u);
        let mut rng = StdRng::seed_from_u64(self.seed);

        let mut models = Vec::with_capacity(self.rounds);
        let mut oob_sum = vec![0.0; n_u];
        let mut oob_count = vec![0usize; n_u];

        for round in 0..self.rounds.max(1) {
            // Bootstrap a pseudo-negative sample from the unlabeled pool.
            let mut in_bag = vec![false; n_u];
            let sample: Vec<usize> = (0..k)
                .map(|_| {
                    let idx = rng.gen_range(0..n_u);
                    in_bag[idx] = true;
                    idx
                })
                .collect();
            let mut x = positives.to_vec();
            let mut y = vec![1.0; positives.len()];
            for &idx in &sample {
                x.push(unlabeled[idx].clone());
                y.push(-1.0);
            }
            let svm = LinearSvm::fit(
                &x,
                &y,
                &SvmConfig {
                    seed: self.svm.seed ^ (round as u64 + 1),
                    ..self.svm.clone()
                },
            )?;
            for (idx, bagged) in in_bag.iter().enumerate() {
                if !bagged {
                    oob_sum[idx] += svm.decision_function(&unlabeled[idx]);
                    oob_count[idx] += 1;
                }
            }
            models.push(svm);
        }

        // Rows that were in-bag every round fall back to the full-ensemble
        // score (count 0).
        Ok((0..n_u)
            .map(|i| {
                if oob_count[i] > 0 {
                    oob_sum[i] / oob_count[i] as f64
                } else {
                    models
                        .iter()
                        .map(|m| m.decision_function(&unlabeled[i]))
                        .sum::<f64>()
                        / models.len() as f64
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let positives: Vec<Vec<f64>> = (0..25).map(|i| vec![(i % 10) as f64 * 0.1, 0.0]).collect();
        let mut unlabeled: Vec<Vec<f64>> =
            (0..20).map(|i| vec![(i % 10) as f64 * 0.1, 0.05]).collect();
        unlabeled.extend((0..20).map(|i| vec![4.0 + (i % 10) as f64 * 0.1, 3.0]));
        (positives, unlabeled)
    }

    #[test]
    fn oob_scores_separate_hidden_positives() {
        let (positives, unlabeled) = setup();
        let scores = PuBagging::default()
            .oob_scores(&positives, &unlabeled)
            .unwrap();
        let mean_pos: f64 = scores[..20].iter().sum::<f64>() / 20.0;
        let mean_neg: f64 = scores[20..].iter().sum::<f64>() / 20.0;
        assert!(
            mean_pos > mean_neg,
            "hidden positives {mean_pos} should outscore negatives {mean_neg}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let (positives, unlabeled) = setup();
        let scores = || PuBagging::default().oob_scores(&positives, &unlabeled);
        assert_eq!(scores().unwrap(), scores().unwrap());
    }

    #[test]
    fn rejects_empty_inputs() {
        assert!(PuBagging::default().oob_scores(&[], &[vec![1.0]]).is_err());
        assert!(PuBagging::default().oob_scores(&[vec![1.0]], &[]).is_err());
    }
}
