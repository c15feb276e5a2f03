//! Minimum covariance determinant (Hardin & Rocke, 2004; FastMCD-style).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use nurd_linalg::{covariance_matrix, mahalanobis_squared, Lu, Matrix};
use nurd_ml::MlError;

use crate::outlier_adapter::OutlierDetector;
use crate::scaler::StandardScaler;

/// MCD: finds the `h`-subset with the smallest covariance determinant via
/// random restarts + C-steps, then scores each point by its Mahalanobis
/// distance under the robust location/scatter estimates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Mcd {
    /// Number of random initial subsets.
    pub(crate) restarts: usize,
    /// Maximum C-steps per restart.
    pub(crate) max_c_steps: usize,
    /// RNG seed.
    pub(crate) seed: u64,
}

impl Default for Mcd {
    fn default() -> Self {
        Mcd {
            restarts: 8,
            max_c_steps: 20,
            seed: 4242,
        }
    }
}

struct Estimate {
    mean: Vec<f64>,
    precision: Matrix,
    log_det: f64,
}

fn estimate_from_subset(xs: &[Vec<f64>], subset: &[usize]) -> Option<Estimate> {
    let rows: Vec<Vec<f64>> = subset.iter().map(|&i| xs[i].clone()).collect();
    let mean = nurd_linalg::column_means(&rows).ok()?;
    let mut cov = covariance_matrix(&rows).ok()?;
    // Ridge the scatter slightly so near-degenerate subsets stay usable.
    for j in 0..cov.rows() {
        cov.set(j, j, cov.get(j, j) + 1e-9);
    }
    let lu = Lu::decompose(&cov).ok()?;
    let log_det = lu.log_abs_determinant();
    let precision = lu.inverse().ok()?;
    Some(Estimate {
        mean,
        precision,
        log_det,
    })
}

impl OutlierDetector for Mcd {
    /// # Errors
    ///
    /// In addition to the shape errors, returns
    /// [`MlError::OptimizationFailed`] when every random subset produces a
    /// singular scatter matrix (e.g. fewer samples than features).
    fn score_all(&self, x: &[Vec<f64>]) -> Result<Vec<f64>, MlError> {
        let scaler = StandardScaler::fit(x)?;
        let xs = scaler.transform(x);
        let n = xs.len();
        let d = xs[0].len();
        // h = ⌈(n + d + 1) / 2⌉, the standard breakdown-optimal subset size.
        let h = (n + d).div_ceil(2).clamp((d + 1).min(n), n);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut indices: Vec<usize> = (0..n).collect();
        let mut best: Option<Estimate> = None;

        for _ in 0..self.restarts.max(1) {
            indices.shuffle(&mut rng);
            let mut subset: Vec<usize> = indices[..h].to_vec();
            let mut estimate = match estimate_from_subset(&xs, &subset) {
                Some(e) => e,
                None => continue,
            };
            // C-steps: re-select the h points with the smallest Mahalanobis
            // distance; the determinant is non-increasing.
            for _ in 0..self.max_c_steps {
                let mut dists: Vec<(usize, f64)> = (0..n)
                    .map(|i| {
                        let d2 = mahalanobis_squared(&xs[i], &estimate.mean, &estimate.precision)
                            .unwrap_or(f64::INFINITY);
                        (i, d2)
                    })
                    .collect();
                dists.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"));
                let new_subset: Vec<usize> = dists[..h].iter().map(|&(i, _)| i).collect();
                if new_subset == subset {
                    break;
                }
                match estimate_from_subset(&xs, &new_subset) {
                    Some(e) => {
                        subset = new_subset;
                        estimate = e;
                    }
                    None => break,
                }
            }
            if best.as_ref().is_none_or(|b| estimate.log_det < b.log_det) {
                best = Some(estimate);
            }
        }

        let best = best
            .ok_or_else(|| MlError::OptimizationFailed("all MCD subsets were singular".into()))?;
        Ok(xs
            .iter()
            .map(|p| {
                mahalanobis_squared(p, &best.mean, &best.precision)
                    .unwrap_or(f64::INFINITY)
                    .sqrt()
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn robust_to_cluster_of_outliers() {
        // 44 inliers on a tight line; 6 coordinated outliers that would
        // drag a classical covariance estimate.
        let mut rows: Vec<Vec<f64>> = (0..44)
            .map(|i| vec![i as f64 * 0.1, i as f64 * 0.1 + 0.01 * (i % 3) as f64])
            .collect();
        for i in 0..6 {
            rows.push(vec![10.0 + i as f64 * 0.01, -10.0]);
        }
        let scores = Mcd::default().score_all(&rows).unwrap();
        let max_inlier = scores[..44]
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        for s in &scores[44..] {
            assert!(*s > max_inlier, "outlier {s} <= inlier max {max_inlier}");
        }
    }

    #[test]
    fn gaussian_cloud_distances_moderate() {
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![((i * 7) % 13) as f64 * 0.1, ((i * 11) % 17) as f64 * 0.1])
            .collect();
        let scores = Mcd::default().score_all(&rows).unwrap();
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn deterministic_under_seed() {
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64, (i % 5) as f64]).collect();
        let a = Mcd::default().score_all(&rows).unwrap();
        let b = Mcd::default().score_all(&rows).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn degenerate_input_yields_zero_distances() {
        // 2 identical samples in 3 dimensions: the ridge on the scatter
        // keeps the estimate usable and every distance is zero.
        let rows = vec![vec![1.0, 2.0, 3.0], vec![1.0, 2.0, 3.0]];
        let scores = Mcd::default().score_all(&rows).unwrap();
        assert!(scores.iter().all(|&s| s.abs() < 1e-6));
    }

    #[test]
    fn rejects_empty() {
        assert!(Mcd::default().score_all(&[]).is_err());
    }
}
