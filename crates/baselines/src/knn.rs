//! kNN outlier detection (Ramaswamy et al., 2000).

use nurd_ml::{MlError, NearestNeighbors};

use crate::outlier_adapter::OutlierDetector;
use crate::scaler::StandardScaler;

/// Scores each point by the distance to its `k`-th nearest neighbor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Knn {
    /// Neighborhood size.
    pub(crate) k: usize,
}

impl Default for Knn {
    fn default() -> Self {
        Knn { k: 5 }
    }
}

impl OutlierDetector for Knn {
    fn score_all(&self, x: &[Vec<f64>]) -> Result<Vec<f64>, MlError> {
        let scaler = StandardScaler::fit(x)?;
        let xs = scaler.transform(x);
        let nn = NearestNeighbors::new(xs)?;
        Ok((0..x.len())
            .map(|i| {
                let hits = nn.neighbors_of(i, self.k);
                hits.last().map_or(0.0, |&(_, d)| d)
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_planted_outlier_scores_highest() -> Result<(), MlError> {
        let mut rows: Vec<Vec<f64>> = (0..30).map(|i| vec![(i % 5) as f64, 0.0]).collect();
        rows.push(vec![100.0, 100.0]); // planted outlier
        let scores = Knn::default().score_all(&rows)?;
        let max_idx = (0..rows.len())
            .max_by(|&a, &b| scores[a].partial_cmp(&scores[b]).unwrap())
            .unwrap();
        assert_eq!(max_idx, 30);
        Ok(())
    }

    #[test]
    fn isolated_point_scores_highest() {
        let mut rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 * 0.01]).collect();
        rows.push(vec![50.0]);
        let scores = Knn { k: 3 }.score_all(&rows).unwrap();
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 20);
    }

    #[test]
    fn uniform_cluster_scores_are_similar() {
        let rows: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![(i % 3) as f64, (i % 5) as f64])
            .collect();
        let scores = Knn::default().score_all(&rows).unwrap();
        let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = scores.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max - min < 2.0, "spread too large: {min}..{max}");
    }

    #[test]
    fn single_point_scores_zero() {
        let scores = Knn::default().score_all(&[vec![1.0, 2.0]]).unwrap();
        assert_eq!(scores, vec![0.0]);
    }

    #[test]
    fn rejects_empty() {
        assert!(Knn::default().score_all(&[]).is_err());
    }
}
