//! Cluster-based local outlier factor (He, Xu & Deng, 2003).

use nurd_ml::{KMeans, KMeansConfig, MlError};

use crate::outlier_adapter::OutlierDetector;
use crate::scaler::StandardScaler;

/// CBLOF: cluster the data, split clusters into "large" and "small" by the
/// α/β rule, and score each point by its distance to the nearest *large*
/// cluster centroid (unweighted variant, PyOD's default).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Cblof {
    /// Number of k-means clusters.
    pub(crate) clusters: usize,
    /// Fraction of points that must live in large clusters (α).
    pub(crate) alpha: f64,
    /// Minimum size ratio between consecutive large/small clusters (β).
    pub(crate) beta: f64,
    /// RNG seed for k-means.
    pub(crate) seed: u64,
}

impl Default for Cblof {
    fn default() -> Self {
        Cblof {
            clusters: 8,
            alpha: 0.9,
            beta: 5.0,
            seed: 99,
        }
    }
}

impl OutlierDetector for Cblof {
    fn score_all(&self, x: &[Vec<f64>]) -> Result<Vec<f64>, MlError> {
        let scaler = StandardScaler::fit(x)?;
        let xs = scaler.transform(x);
        let km = KMeans::fit(
            &xs,
            &KMeansConfig {
                k: self.clusters,
                seed: self.seed,
                ..KMeansConfig::default()
            },
        )?;

        // Order clusters by size (descending) and find the large/small
        // boundary per the CBLOF paper.
        let sizes = km.cluster_sizes();
        let mut order: Vec<usize> = (0..sizes.len()).collect();
        order.sort_by(|&a, &b| sizes[b].cmp(&sizes[a]));
        let n = xs.len() as f64;
        let mut large = vec![false; sizes.len()];
        let mut cumulative = 0usize;
        let mut boundary = order.len();
        for (rank, &c) in order.iter().enumerate() {
            cumulative += sizes[c];
            let alpha_hit = cumulative as f64 >= self.alpha * n;
            let beta_hit = rank + 1 < order.len()
                && sizes[order[rank + 1]] > 0
                && sizes[c] as f64 / sizes[order[rank + 1]] as f64 >= self.beta;
            if alpha_hit || beta_hit {
                boundary = rank + 1;
                break;
            }
        }
        for &c in order.iter().take(boundary) {
            large[c] = true;
        }
        // Degenerate safeguard: at least the biggest cluster is large.
        if !large.iter().any(|&l| l) {
            large[order[0]] = true;
        }

        Ok(xs
            .iter()
            .map(|p| {
                km.centroids()
                    .iter()
                    .enumerate()
                    .filter(|&(c, _)| large[c])
                    .map(|(_, centroid)| nurd_linalg::euclidean_distance(p, centroid))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_cluster_members_score_high() {
        // One big blob, one tiny far-away blob.
        let mut rows: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![(i % 8) as f64 * 0.05, (i / 8) as f64 * 0.05])
            .collect();
        rows.push(vec![10.0, 10.0]);
        rows.push(vec![10.1, 10.0]);
        let scores = Cblof {
            clusters: 3,
            ..Cblof::default()
        }
        .score_all(&rows)
        .unwrap();
        let inlier_max = scores[..60]
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(scores[60] > inlier_max);
        assert!(scores[61] > inlier_max);
    }

    #[test]
    fn big_cluster_members_score_near_zero() {
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![(i % 5) as f64 * 0.01]).collect();
        let scores = Cblof::default().score_all(&rows).unwrap();
        assert!(scores.iter().all(|&s| s < 1.0));
    }

    #[test]
    fn deterministic_under_seed() {
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64, (i % 3) as f64]).collect();
        let a = Cblof::default().score_all(&rows).unwrap();
        let b = Cblof::default().score_all(&rows).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_empty() {
        assert!(Cblof::default().score_all(&[]).is_err());
    }
}
