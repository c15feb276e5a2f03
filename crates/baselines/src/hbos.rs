//! Histogram-based outlier score (Goldstein & Dengel, 2012).

use nurd_ml::MlError;

use crate::outlier_adapter::OutlierDetector;

/// HBOS: per-feature equal-width histograms; a point's score is the sum of
/// negative log densities of its bins (features treated independently).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Hbos {
    /// Number of equal-width bins per feature.
    pub(crate) bins: usize,
}

impl Default for Hbos {
    fn default() -> Self {
        Hbos { bins: 10 }
    }
}

impl OutlierDetector for Hbos {
    fn score_all(&self, x: &[Vec<f64>]) -> Result<Vec<f64>, MlError> {
        let first = x.first().ok_or(MlError::EmptyTrainingSet)?;
        let d = first.len();
        if x.iter().any(|r| r.len() != d) {
            return Err(MlError::DimensionMismatch {
                expected: format!("rows of width {d}"),
                found: "ragged rows".into(),
            });
        }
        let n = x.len();
        let bins = self.bins.max(1);
        let mut scores = vec![0.0; n];

        for j in 0..d {
            let col: Vec<f64> = x.iter().map(|r| r[j]).collect();
            let lo = col.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = col.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            if hi - lo < 1e-12 {
                continue; // constant feature carries no information
            }
            let width = (hi - lo) / bins as f64;
            let mut counts = vec![0usize; bins];
            let bin_of = |v: f64| -> usize { (((v - lo) / width) as usize).min(bins - 1) };
            for &v in &col {
                counts[bin_of(v)] += 1;
            }
            for (i, &v) in col.iter().enumerate() {
                // Laplace-smoothed density, normalized so the tallest bin
                // has density 1 (per the HBOS paper).
                let max_count = *counts.iter().max().expect("bins nonempty") as f64;
                let density = (counts[bin_of(v)] as f64).max(0.5) / max_count;
                scores[i] += -(density.ln());
            }
        }
        Ok(scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_value_scores_higher_than_mode() {
        let mut rows: Vec<Vec<f64>> = (0..50).map(|i| vec![(i % 5) as f64]).collect();
        rows.push(vec![40.0]);
        let scores = Hbos::default().score_all(&rows).unwrap();
        assert!(scores[50] > scores[0]);
    }

    #[test]
    fn constant_features_are_ignored() {
        let rows = vec![vec![3.0, 1.0], vec![3.0, 2.0], vec![3.0, 100.0]];
        let scores = Hbos::default().score_all(&rows).unwrap();
        assert!(scores.iter().all(|s| s.is_finite()));
        assert!(scores[2] > scores[0]);
    }

    #[test]
    fn independent_features_accumulate() {
        // An outlier in two features scores above an outlier in one.
        let mut rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 4) as f64, (i % 4) as f64])
            .collect();
        rows.push(vec![30.0, 1.0]);
        rows.push(vec![30.0, 30.0]);
        let scores = Hbos::default().score_all(&rows).unwrap();
        assert!(scores[41] > scores[40]);
    }

    #[test]
    fn rejects_empty_and_ragged() {
        assert!(Hbos::default().score_all(&[]).is_err());
        assert!(Hbos::default()
            .score_all(&[vec![1.0], vec![1.0, 2.0]])
            .is_err());
    }
}
