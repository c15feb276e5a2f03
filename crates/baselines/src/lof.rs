//! Density-based detectors: LOF (Breunig et al., 2000) and COF (Tang et
//! al., 2002).

use nurd_ml::{MlError, NearestNeighbors};

use crate::outlier_adapter::OutlierDetector;
use crate::scaler::StandardScaler;

/// Local Outlier Factor: the ratio of a point's local reachability density
/// to that of its neighbors. LOF ≈ 1 for inliers, ≫ 1 for outliers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Lof {
    /// Neighborhood size.
    pub(crate) k: usize,
}

impl Default for Lof {
    fn default() -> Self {
        Lof { k: 10 }
    }
}

impl OutlierDetector for Lof {
    fn score_all(&self, x: &[Vec<f64>]) -> Result<Vec<f64>, MlError> {
        let scaler = StandardScaler::fit(x)?;
        let xs = scaler.transform(x);
        let n = xs.len();
        let k = self.k.min(n.saturating_sub(1)).max(1);
        let nn = NearestNeighbors::new(xs)?;
        let neighborhoods = nn.all_knn_distances(k);

        // k-distance of each point = distance to its k-th neighbor.
        let k_dist: Vec<f64> = neighborhoods
            .iter()
            .map(|h| h.last().map_or(0.0, |&(_, d)| d))
            .collect();

        // Local reachability density, capped so duplicate clusters (zero
        // reachability distance) yield a very large finite density instead
        // of infinities that poison downstream normalization (LSCP).
        const LRD_CAP: f64 = 1e12;
        let lrd: Vec<f64> = neighborhoods
            .iter()
            .map(|hits| {
                if hits.is_empty() {
                    return 0.0;
                }
                let reach_sum: f64 = hits.iter().map(|&(j, d)| d.max(k_dist[j])).sum();
                if reach_sum <= 0.0 {
                    LRD_CAP
                } else {
                    (hits.len() as f64 / reach_sum).min(LRD_CAP)
                }
            })
            .collect();

        Ok((0..n)
            .map(|i| {
                let hits = &neighborhoods[i];
                if hits.is_empty() || lrd[i] == 0.0 {
                    return 1.0;
                }
                let neighbor_lrd: f64 =
                    hits.iter().map(|&(j, _)| lrd[j]).sum::<f64>() / hits.len() as f64;
                neighbor_lrd / lrd[i]
            })
            .collect())
    }
}

/// Connectivity-based Outlier Factor: compares a point's average chaining
/// distance to that of its neighbors, catching outliers adjacent to
/// low-density patterns that LOF misses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Cof {
    /// Neighborhood size.
    pub(crate) k: usize,
}

impl Default for Cof {
    fn default() -> Self {
        Cof { k: 10 }
    }
}

impl Cof {
    /// Average chaining distance of point `i` through its k-neighborhood:
    /// a set-based nearest path is grown greedily from `i`, and each added
    /// edge is weighted by how early it joins the chain.
    fn average_chaining_distance(
        points: &[Vec<f64>],
        i: usize,
        neighborhood: &[(usize, f64)],
    ) -> f64 {
        let mut chain: Vec<usize> = vec![i];
        let mut remaining: Vec<usize> = neighborhood.iter().map(|&(j, _)| j).collect();
        let r = remaining.len();
        if r == 0 {
            return 0.0;
        }
        let mut total = 0.0;
        for step in 1..=r {
            // Closest remaining point to the chain (set distance).
            let mut best = (0usize, f64::INFINITY);
            for (pos, &cand) in remaining.iter().enumerate() {
                for &c in &chain {
                    let d = nurd_linalg_distance(&points[c], &points[cand]);
                    if d < best.1 {
                        best = (pos, d);
                    }
                }
            }
            let weight = 2.0 * (r + 1 - step) as f64 / (r * (r + 1)) as f64;
            total += weight * best.1;
            chain.push(remaining.swap_remove(best.0));
        }
        total
    }
}

fn nurd_linalg_distance(a: &[f64], b: &[f64]) -> f64 {
    nurd_linalg::euclidean_distance(a, b)
}

impl OutlierDetector for Cof {
    fn score_all(&self, x: &[Vec<f64>]) -> Result<Vec<f64>, MlError> {
        let scaler = StandardScaler::fit(x)?;
        let xs = scaler.transform(x);
        let n = xs.len();
        let k = self.k.min(n.saturating_sub(1)).max(1);
        let nn = NearestNeighbors::new(xs.clone())?;
        let neighborhoods = nn.all_knn_distances(k);

        let acd: Vec<f64> = (0..n)
            .map(|i| Self::average_chaining_distance(&xs, i, &neighborhoods[i]))
            .collect();

        Ok((0..n)
            .map(|i| {
                let hits = &neighborhoods[i];
                if hits.is_empty() {
                    return 1.0;
                }
                let mean_neighbor_acd: f64 =
                    hits.iter().map(|&(j, _)| acd[j]).sum::<f64>() / hits.len() as f64;
                if mean_neighbor_acd <= 0.0 {
                    if acd[i] <= 0.0 {
                        1.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    acd[i] / mean_neighbor_acd
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster_with_outlier() -> (Vec<Vec<f64>>, usize) {
        let mut rows: Vec<Vec<f64>> = (0..36)
            .map(|i| vec![(i % 6) as f64 * 0.1, (i / 6) as f64 * 0.1])
            .collect();
        rows.push(vec![5.0, 5.0]);
        let idx = rows.len() - 1;
        (rows, idx)
    }

    #[test]
    fn lof_flags_planted_outlier() {
        let (rows, idx) = cluster_with_outlier();
        let scores = Lof::default().score_all(&rows).unwrap();
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, idx);
        assert!(scores[idx] > 1.5);
    }

    #[test]
    fn lof_inliers_near_one() {
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![(i % 10) as f64, (i / 10) as f64])
            .collect();
        let scores = Lof::default().score_all(&rows).unwrap();
        for s in scores {
            assert!((0.5..2.0).contains(&s), "inlier LOF {s} out of range");
        }
    }

    #[test]
    fn lof_handles_duplicates() {
        let mut rows = vec![vec![1.0, 1.0]; 12];
        rows.push(vec![9.0, 9.0]);
        let scores = Lof { k: 3 }.score_all(&rows).unwrap();
        assert!(scores.iter().all(|s| s.is_finite()));
        assert!(scores[12] > scores[0]);
    }

    #[test]
    fn cof_flags_planted_outlier() {
        let (rows, idx) = cluster_with_outlier();
        let scores = Cof::default().score_all(&rows).unwrap();
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, idx);
    }

    #[test]
    fn cof_detects_outlier_near_line_pattern() {
        // A 1-D line of points plus an off-line point at similar density:
        // the chaining distance catches it.
        let mut rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 * 0.1, 0.0]).collect();
        rows.push(vec![1.5, 0.9]);
        let scores = Cof { k: 6 }.score_all(&rows).unwrap();
        let off_line = scores[30];
        let on_line_mid = scores[15];
        assert!(
            off_line > on_line_mid,
            "off-line {off_line} vs on-line {on_line_mid}"
        );
    }

    #[test]
    fn both_reject_empty() {
        assert!(Lof::default().score_all(&[]).is_err());
        assert!(Cof::default().score_all(&[]).is_err());
    }
}
