//! PCA-based anomaly detection (Shyu et al., 2003).

use nurd_linalg::covariance_matrix;
use nurd_ml::MlError;

use crate::outlier_adapter::OutlierDetector;
use crate::scaler::StandardScaler;

/// Principal-component classifier: the score is the Mahalanobis-style sum
/// `Σᵢ (xᵀvᵢ)² / λᵢ` over the principal components of the standardized
/// data — large deviations along minor components (which capture the
/// correlation structure) dominate for structured outliers.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PcaDetector {
    /// Discard components whose eigenvalue is below this fraction of the
    /// largest (guards the division).
    pub(crate) eigenvalue_floor: f64,
}

impl Default for PcaDetector {
    fn default() -> Self {
        PcaDetector {
            eigenvalue_floor: 1e-6,
        }
    }
}

impl OutlierDetector for PcaDetector {
    fn score_all(&self, x: &[Vec<f64>]) -> Result<Vec<f64>, MlError> {
        let scaler = StandardScaler::fit(x)?;
        let xs = scaler.transform(x);
        let cov = covariance_matrix(&xs).map_err(|e| MlError::DimensionMismatch {
            expected: "rectangular sample matrix".into(),
            found: e.to_string(),
        })?;
        let eig = cov
            .symmetric_eigen()
            .map_err(|e| MlError::OptimizationFailed(e.to_string()))?;
        let lambda_max = eig.eigenvalues().first().copied().unwrap_or(0.0);
        if lambda_max <= 0.0 {
            // Constant data: nothing is an outlier.
            return Ok(vec![0.0; xs.len()]);
        }
        let floor = self.eigenvalue_floor * lambda_max;

        Ok(xs
            .iter()
            .map(|row| {
                (0..eig.len())
                    .filter(|&i| eig.eigenvalues()[i] > floor)
                    .map(|i| {
                        let proj = nurd_linalg::dot(row, eig.eigenvector(i));
                        proj * proj / eig.eigenvalues()[i]
                    })
                    .sum()
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correlation_breaking_outlier_scores_high() {
        // Strongly correlated 2-D data; the outlier breaks the correlation
        // without being extreme in either marginal.
        let mut rows: Vec<Vec<f64>> = (0..50)
            .map(|i| {
                let t = i as f64 * 0.1;
                vec![t, 2.0 * t + 0.01 * (i % 3) as f64]
            })
            .collect();
        rows.push(vec![2.5, 0.5]); // inside both marginals, off the line
        let scores = PcaDetector::default().score_all(&rows).unwrap();
        let max_inlier = scores[..50]
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(scores[50] > max_inlier);
    }

    #[test]
    fn marginal_outlier_also_caught() {
        let mut rows: Vec<Vec<f64>> = (0..30).map(|i| vec![(i % 6) as f64, 1.0]).collect();
        rows.push(vec![60.0, 1.0]);
        let scores = PcaDetector::default().score_all(&rows).unwrap();
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 30);
    }

    #[test]
    fn constant_data_scores_zero() {
        let rows = vec![vec![5.0, 5.0]; 10];
        let scores = PcaDetector::default().score_all(&rows).unwrap();
        assert!(scores.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn rejects_empty() {
        assert!(PcaDetector::default().score_all(&[]).is_err());
    }
}
