//! Stochastic outlier selection (Janssens et al., 2012).

use nurd_ml::MlError;

use crate::outlier_adapter::OutlierDetector;
use crate::scaler::StandardScaler;

/// SOS: builds affinity distributions with per-point variances matched to
/// a target perplexity, converts them to binding probabilities, and scores
/// each point by the probability that *no* other point binds to it:
/// `score(i) = Π_{j≠i} (1 − b_{ji})`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Sos {
    /// Target perplexity (effective neighborhood size).
    pub(crate) perplexity: f64,
}

impl Default for Sos {
    fn default() -> Self {
        Sos { perplexity: 4.5 }
    }
}

/// Binary-searches the Gaussian precision β so the affinity row hits the
/// target perplexity.
fn affinity_row(dist2: &[f64], i: usize, perplexity: f64) -> Vec<f64> {
    let target_entropy = perplexity.ln();
    let mut beta = 1.0;
    let mut beta_lo = 0.0;
    let mut beta_hi = f64::INFINITY;
    let n = dist2.len();
    let mut row = vec![0.0; n];
    for _ in 0..64 {
        let mut sum = 0.0;
        for j in 0..n {
            row[j] = if j == i {
                0.0
            } else {
                (-beta * dist2[j]).exp()
            };
            sum += row[j];
        }
        if sum <= 0.0 {
            // All neighbors at infinite distance; loosen.
            beta_hi = beta;
            beta = 0.5 * (beta_lo + beta);
            continue;
        }
        // Shannon entropy of the affinity distribution.
        let mut entropy = 0.0;
        for &a in row.iter().take(n) {
            if a > 0.0 {
                let p = a / sum;
                entropy -= p * p.ln();
            }
        }
        let diff = entropy - target_entropy;
        if diff.abs() < 1e-5 {
            break;
        }
        if diff > 0.0 {
            // Too flat: tighten.
            beta_lo = beta;
            beta = if beta_hi.is_infinite() {
                beta * 2.0
            } else {
                0.5 * (beta + beta_hi)
            };
        } else {
            beta_hi = beta;
            beta = 0.5 * (beta_lo + beta);
        }
    }
    row
}

impl OutlierDetector for Sos {
    fn score_all(&self, x: &[Vec<f64>]) -> Result<Vec<f64>, MlError> {
        let scaler = StandardScaler::fit(x)?;
        let xs = scaler.transform(x);
        let n = xs.len();
        if n == 1 {
            return Ok(vec![0.0]);
        }
        let perplexity = self.perplexity.clamp(1.01, (n - 1) as f64);

        // Pairwise squared distances.
        let mut dist2 = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d2 = nurd_linalg::squared_distance(&xs[i], &xs[j]);
                dist2[i][j] = d2;
                dist2[j][i] = d2;
            }
        }

        // Binding matrix: row i = probability that i binds to each j.
        let mut scores = vec![1.0; n];
        let mut binding = vec![vec![0.0; n]; n];
        for i in 0..n {
            let row = affinity_row(&dist2[i], i, perplexity);
            let sum: f64 = row.iter().sum();
            if sum > 0.0 {
                for j in 0..n {
                    binding[i][j] = row[j] / sum;
                }
            }
        }
        // score(j) = Π_i (1 − b_{ij}).
        for j in 0..n {
            for (i, row) in binding.iter().enumerate() {
                if i != j {
                    scores[j] *= (1.0 - row[j]).max(1e-12);
                }
            }
        }
        Ok(scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolated_point_has_highest_outlier_probability() {
        let mut rows: Vec<Vec<f64>> = (0..25)
            .map(|i| vec![(i % 5) as f64 * 0.1, (i / 5) as f64 * 0.1])
            .collect();
        rows.push(vec![8.0, 8.0]);
        let scores = Sos::default().score_all(&rows).unwrap();
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 25);
    }

    #[test]
    fn scores_are_probabilities() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let scores = Sos::default().score_all(&rows).unwrap();
        assert!(scores.iter().all(|&s| (0.0..=1.0).contains(&s)));
    }

    #[test]
    fn single_point_is_trivially_inlier() {
        let scores = Sos::default().score_all(&[vec![3.0]]).unwrap();
        assert_eq!(scores, vec![0.0]);
    }

    #[test]
    fn affinity_row_matches_perplexity() {
        let dist2: Vec<f64> = (0..20).map(|j| (j as f64 + 1.0).powi(2)).collect();
        let row = affinity_row(&dist2, 0, 5.0);
        let sum: f64 = row.iter().sum();
        let entropy: f64 = row
            .iter()
            .filter(|&&v| v > 0.0)
            .map(|&v| {
                let p = v / sum;
                -p * p.ln()
            })
            .sum();
        assert!(
            (entropy.exp() - 5.0).abs() < 0.1,
            "perplexity {}",
            entropy.exp()
        );
    }

    #[test]
    fn rejects_empty() {
        assert!(Sos::default().score_all(&[]).is_err());
    }
}
