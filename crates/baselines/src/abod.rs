//! Angle-based outlier detection (Kriegel et al., 2008), fast variant.

use nurd_ml::{MlError, NearestNeighbors};

use crate::outlier_adapter::OutlierDetector;
use crate::scaler::StandardScaler;

/// FastABOD: the variance of distance-weighted angles between pairs of a
/// point's k nearest neighbors. Inliers, surrounded on all sides, see a
/// wide spread of angles; outliers see all other points under similar
/// angles, giving low variance. The reported score is the *negated* ABOF so
/// that higher = more anomalous, matching [`OutlierDetector`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Abod {
    /// Neighborhood size for the fast approximation.
    pub(crate) k: usize,
}

impl Default for Abod {
    fn default() -> Self {
        Abod { k: 10 }
    }
}

impl OutlierDetector for Abod {
    fn score_all(&self, x: &[Vec<f64>]) -> Result<Vec<f64>, MlError> {
        let scaler = StandardScaler::fit(x)?;
        let xs = scaler.transform(x);
        let n = xs.len();
        let k = self.k.min(n.saturating_sub(1)).max(2);
        let nn = NearestNeighbors::new(xs.clone())?;

        Ok((0..n)
            .map(|i| {
                let hits = nn.neighbors_of(i, k);
                let mut weighted: Vec<(f64, f64)> = Vec::new(); // (weight, value)
                for a in 0..hits.len() {
                    for b in (a + 1)..hits.len() {
                        let (ja, _) = hits[a];
                        let (jb, _) = hits[b];
                        let va = nurd_linalg::subtract(&xs[ja], &xs[i]);
                        let vb = nurd_linalg::subtract(&xs[jb], &xs[i]);
                        let na2 = nurd_linalg::dot(&va, &va);
                        let nb2 = nurd_linalg::dot(&vb, &vb);
                        if na2 < 1e-18 || nb2 < 1e-18 {
                            continue; // coincident points carry no angle
                        }
                        // ABOF term: <va, vb> / (|va|^2 |vb|^2), weighted by
                        // 1/(|va||vb|).
                        let value = nurd_linalg::dot(&va, &vb) / (na2 * nb2);
                        let weight = 1.0 / (na2.sqrt() * nb2.sqrt());
                        weighted.push((weight, value));
                    }
                }
                if weighted.is_empty() {
                    return 0.0;
                }
                let wsum: f64 = weighted.iter().map(|(w, _)| w).sum();
                let mean: f64 = weighted.iter().map(|(w, v)| w * v).sum::<f64>() / wsum;
                let var: f64 = weighted
                    .iter()
                    .map(|(w, v)| w * (v - mean) * (v - mean))
                    .sum::<f64>()
                    / wsum;
                -var
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outlier_has_least_angle_variance() {
        let mut rows: Vec<Vec<f64>> = Vec::new();
        // Dense 2-D grid of inliers.
        for i in 0..6 {
            for j in 0..6 {
                rows.push(vec![i as f64, j as f64]);
            }
        }
        rows.push(vec![30.0, 30.0]);
        let idx = rows.len() - 1;
        let scores = Abod::default().score_all(&rows).unwrap();
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, idx);
    }

    #[test]
    fn interior_point_scores_below_outlier() {
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for i in 0..5 {
            for j in 0..5 {
                rows.push(vec![i as f64, j as f64]);
            }
        }
        rows.push(vec![-20.0, 13.0]);
        let scores = Abod { k: 8 }.score_all(&rows).unwrap();
        let center = 12; // (2, 2)
        assert!(scores[25] > scores[center]);
    }

    #[test]
    fn duplicates_do_not_produce_nan() {
        let rows = vec![vec![1.0, 1.0]; 8];
        let scores = Abod::default().score_all(&rows).unwrap();
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn rejects_empty() {
        assert!(Abod::default().score_all(&[]).is_err());
    }
}
