//! Subspace outlier detection (Kriegel et al., 2009).

use nurd_ml::{MlError, NearestNeighbors};

use crate::outlier_adapter::OutlierDetector;
use crate::scaler::StandardScaler;

/// SOD: for each point, find a reference set via shared-nearest-neighbor
/// similarity, identify the attributes in which the reference set has low
/// variance, and measure the point's deviation from the reference mean in
/// that axis-parallel subspace.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Sod {
    /// Candidate neighbors for SNN similarity.
    pub(crate) k: usize,
    /// Reference set size (ℓ ≤ k).
    pub(crate) reference_size: usize,
    /// Variance threshold: an attribute is "relevant" when the reference
    /// variance is below `alpha` times the mean per-attribute variance.
    pub(crate) alpha: f64,
}

impl Default for Sod {
    fn default() -> Self {
        Sod {
            k: 20,
            reference_size: 12,
            alpha: 0.8,
        }
    }
}

impl OutlierDetector for Sod {
    fn score_all(&self, x: &[Vec<f64>]) -> Result<Vec<f64>, MlError> {
        let scaler = StandardScaler::fit(x)?;
        let xs = scaler.transform(x);
        let n = xs.len();
        let d = xs[0].len();
        let k = self.k.min(n.saturating_sub(1)).max(1);
        let l = self.reference_size.min(k).max(1);
        let nn = NearestNeighbors::new(xs.clone())?;

        // kNN id sets for SNN similarity.
        let knn_sets: Vec<Vec<usize>> = (0..n)
            .map(|i| nn.neighbors_of(i, k).into_iter().map(|(j, _)| j).collect())
            .collect();
        let snn =
            |a: &[usize], b: &[usize]| -> usize { a.iter().filter(|i| b.contains(i)).count() };

        Ok((0..n)
            .map(|i| {
                // Reference set: the l candidates with the greatest SNN
                // similarity to i.
                let mut candidates: Vec<(usize, usize)> = knn_sets[i]
                    .iter()
                    .map(|&j| (j, snn(&knn_sets[i], &knn_sets[j])))
                    .collect();
                candidates.sort_by_key(|&(_, shared)| std::cmp::Reverse(shared));
                let reference: Vec<usize> =
                    candidates.into_iter().take(l).map(|(j, _)| j).collect();
                if reference.is_empty() {
                    return 0.0;
                }

                // Per-attribute mean and variance of the reference set.
                let mut mean = vec![0.0; d];
                for &j in &reference {
                    nurd_linalg::add_scaled(&mut mean, 1.0, &xs[j]);
                }
                nurd_linalg::scale(&mut mean, 1.0 / reference.len() as f64);
                let mut var = vec![0.0; d];
                for &j in &reference {
                    for a in 0..d {
                        let diff = xs[j][a] - mean[a];
                        var[a] += diff * diff;
                    }
                }
                for v in &mut var {
                    *v /= reference.len() as f64;
                }
                let mean_var: f64 = var.iter().sum::<f64>() / d as f64;

                // Deviation in the low-variance (relevant) subspace.
                let relevant: Vec<usize> =
                    (0..d).filter(|&a| var[a] < self.alpha * mean_var).collect();
                if relevant.is_empty() {
                    return 0.0;
                }
                let dev2: f64 = relevant
                    .iter()
                    .map(|&a| {
                        let diff = xs[i][a] - mean[a];
                        diff * diff
                    })
                    .sum();
                (dev2 / relevant.len() as f64).sqrt()
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subspace_outlier_found_despite_full_space_camouflage() {
        // Cluster lives on the plane y = 0 with wide spread in x; the
        // outlier hides within the x range but leaves the subspace y = 0.
        let mut rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![i as f64, 0.0 + 0.001 * (i % 2) as f64])
            .collect();
        rows.push(vec![20.0, 3.0]);
        let scores = Sod::default().score_all(&rows).unwrap();
        let max_inlier = scores[..40]
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(scores[40] > max_inlier);
    }

    #[test]
    fn inliers_score_near_zero() {
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64, 0.0]).collect();
        let scores = Sod::default().score_all(&rows).unwrap();
        assert!(scores.iter().all(|&s| s < 1.0));
    }

    #[test]
    fn tiny_input_does_not_panic() {
        let rows = vec![vec![1.0, 2.0], vec![2.0, 3.0]];
        let scores = Sod::default().score_all(&rows).unwrap();
        assert_eq!(scores.len(), 2);
    }

    #[test]
    fn rejects_empty() {
        assert!(Sod::default().score_all(&[]).is_err());
    }
}
