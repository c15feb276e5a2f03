//! Locally selective combination in parallel outlier ensembles (Zhao et
//! al., 2019).

use nurd_ml::{MlError, NearestNeighbors};

use crate::lof::Lof;
use crate::outlier_adapter::OutlierDetector;
use crate::scaler::StandardScaler;

/// LSCP over a LOF ensemble: for each test point, build a local region via
/// kNN, form a pseudo ground truth (the ensemble-maximum score on the
/// region), and emit the score of the base detector whose regional scores
/// correlate best with that pseudo target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Lscp {
    /// Neighborhood sizes of the LOF base detectors.
    pub(crate) detector_ks: Vec<usize>,
    /// Local region size.
    pub(crate) region_size: usize,
}

impl Default for Lscp {
    fn default() -> Self {
        Lscp {
            detector_ks: vec![5, 10, 15, 20],
            region_size: 30,
        }
    }
}

/// Pearson correlation; `0.0` when either side is constant.
fn pearson(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va <= 0.0 || vb <= 0.0 {
        0.0
    } else {
        cov / (va.sqrt() * vb.sqrt())
    }
}

/// Z-score normalization of a score vector (LSCP normalizes base detector
/// outputs before combining).
fn zscore(scores: &[f64]) -> Vec<f64> {
    let n = scores.len() as f64;
    let mean = scores.iter().sum::<f64>() / n;
    let var = scores.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
    let std = var.sqrt().max(1e-12);
    scores.iter().map(|s| (s - mean) / std).collect()
}

impl OutlierDetector for Lscp {
    /// # Errors
    ///
    /// [`MlError::InvalidConfig`] when the detector pool is empty, plus the
    /// usual shape errors.
    fn score_all(&self, x: &[Vec<f64>]) -> Result<Vec<f64>, MlError> {
        if self.detector_ks.is_empty() {
            return Err(MlError::InvalidConfig(
                "LSCP needs at least one base detector".into(),
            ));
        }
        let scaler = StandardScaler::fit(x)?;
        let xs = scaler.transform(x);
        let n = xs.len();

        // Base detector scores, z-normalized.
        let base_scores: Vec<Vec<f64>> = self
            .detector_ks
            .iter()
            .map(|&k| Lof { k }.score_all(x).map(|s| zscore(&s)))
            .collect::<Result<_, _>>()?;

        // Pseudo ground truth: ensemble maximum per point.
        let pseudo: Vec<f64> = (0..n)
            .map(|i| {
                base_scores
                    .iter()
                    .map(|s| s[i])
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect();

        let nn = NearestNeighbors::new(xs)?;
        let region = self.region_size.min(n.saturating_sub(1)).max(1);

        Ok((0..n)
            .map(|i| {
                let hits = nn.neighbors_of(i, region);
                let local: Vec<usize> = hits.into_iter().map(|(j, _)| j).collect();
                if local.is_empty() {
                    return pseudo[i];
                }
                let target: Vec<f64> = local.iter().map(|&j| pseudo[j]).collect();
                let mut best = (0usize, f64::NEG_INFINITY);
                for (det, scores) in base_scores.iter().enumerate() {
                    let regional: Vec<f64> = local.iter().map(|&j| scores[j]).collect();
                    let corr = pearson(&regional, &target);
                    if corr > best.1 {
                        best = (det, corr);
                    }
                }
                base_scores[best.0][i]
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_planted_outlier() {
        let mut rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 8) as f64 * 0.1, (i / 8) as f64 * 0.1])
            .collect();
        rows.push(vec![4.0, 4.0]);
        let scores = Lscp::default().score_all(&rows).unwrap();
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 40);
    }

    #[test]
    fn pearson_known_values() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
    }

    #[test]
    fn zscore_normalizes() {
        let z = zscore(&[1.0, 2.0, 3.0, 4.0]);
        let mean: f64 = z.iter().sum::<f64>() / 4.0;
        assert!(mean.abs() < 1e-12);
    }

    #[test]
    fn rejects_empty_pool() {
        let empty = Lscp {
            detector_ks: vec![],
            region_size: 10,
        };
        assert!(matches!(
            empty.score_all(&[vec![1.0]]),
            Err(MlError::InvalidConfig(_))
        ));
    }

    #[test]
    fn rejects_empty_input() {
        assert!(Lscp::default().score_all(&[]).is_err());
    }
}
