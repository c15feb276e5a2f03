//! Feature standardization, shared by the outlier detectors and the
//! censored regressions.

use nurd_linalg::LinalgError;
use nurd_ml::MlError;

/// Zero-mean / unit-variance feature scaler with a fit/transform API.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Learns per-column means and standard deviations.
    ///
    /// Constant columns get `std = 1` so they map to zero.
    ///
    /// # Errors
    ///
    /// [`MlError::EmptyTrainingSet`] on empty input,
    /// [`MlError::DimensionMismatch`] on ragged rows.
    pub(crate) fn fit(x: &[Vec<f64>]) -> Result<Self, MlError> {
        let mut copy = x.to_vec();
        let params = nurd_linalg::standardize_columns(&mut copy).map_err(|e| match e {
            LinalgError::Empty => MlError::EmptyTrainingSet,
            other => MlError::DimensionMismatch {
                expected: "rectangular sample matrix".into(),
                found: other.to_string(),
            },
        })?;
        Ok(StandardScaler {
            means: params.means,
            stds: params.stds,
        })
    }

    /// Standardizes one row.
    ///
    /// # Panics
    ///
    /// Panics if `row` has a different width than the fitted data.
    #[must_use]
    pub(crate) fn transform_row(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.means.len(), "feature width mismatch");
        row.iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(&v, (&m, &s))| (v - m) / s)
            .collect()
    }

    /// Standardizes a batch of rows.
    #[must_use]
    pub(crate) fn transform(&self, rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        rows.iter().map(|r| self.transform_row(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mean_maps_to_zero() -> Result<(), MlError> {
        let scaler = StandardScaler::fit(&[vec![0.0], vec![10.0]])?;
        let z = scaler.transform_row(&[5.0]);
        assert!(z[0].abs() < 1e-12); // 5.0 is the mean
        Ok(())
    }

    #[test]
    fn fit_transform_zero_mean() {
        let x = vec![vec![1.0, -10.0], vec![3.0, 10.0]];
        let scaler = StandardScaler::fit(&x).unwrap();
        let t = scaler.transform(&x);
        for j in 0..2 {
            let mean: f64 = t.iter().map(|r| r[j]).sum::<f64>() / t.len() as f64;
            assert!(mean.abs() < 1e-12);
        }
    }

    #[test]
    fn constant_column_maps_to_zero() {
        let x = vec![vec![7.0], vec![7.0]];
        let scaler = StandardScaler::fit(&x).unwrap();
        assert_eq!(scaler.transform_row(&[7.0]), vec![0.0]);
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(
            StandardScaler::fit(&[]),
            Err(MlError::EmptyTrainingSet)
        ));
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn transform_checks_width() {
        let scaler = StandardScaler::fit(&[vec![1.0], vec![2.0]]).unwrap();
        let _ = scaler.transform_row(&[1.0, 2.0]);
    }
}
