//! Brute-force k-nearest-neighbor queries.
//!
//! Training sets in the online protocol are at most a few thousand points in
//! ≤ 15 dimensions, where brute force beats tree indices in practice and is
//! trivially correct. Several outlier detectors (KNN, LOF, COF, ABOD, SOD,
//! LSCP) sit on top of this.

use crate::MlError;

/// A brute-force nearest-neighbor index over an owned point set.
///
/// # Example
///
/// ```
/// use nurd_ml::NearestNeighbors;
///
/// # fn main() -> Result<(), nurd_ml::MlError> {
/// let nn = NearestNeighbors::new(vec![vec![0.0], vec![1.0], vec![5.0]])?;
/// let hits = nn.neighbors_of(0, 2);
/// assert_eq!(hits[0], (1, 1.0)); // nearest to the point at 0.0 is the one at 1.0
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NearestNeighbors {
    points: Vec<Vec<f64>>,
}

impl NearestNeighbors {
    /// Builds an index over `points`.
    ///
    /// # Errors
    ///
    /// [`MlError::EmptyTrainingSet`] on empty input,
    /// [`MlError::DimensionMismatch`] on ragged rows.
    pub fn new(points: Vec<Vec<f64>>) -> Result<Self, MlError> {
        let dummy = vec![0.0; points.len()];
        crate::error::check_xy(&points, &dummy)?;
        Ok(NearestNeighbors { points })
    }

    /// The `k` nearest indexed points to `query`, as `(index, distance)`
    /// sorted by ascending distance. Returns fewer than `k` entries when the
    /// index is smaller than `k`.
    #[must_use]
    fn query(&self, query: &[f64], k: usize) -> Vec<(usize, f64)> {
        let mut dists: Vec<(usize, f64)> = self
            .points
            .iter()
            .enumerate()
            .map(|(i, p)| (i, nurd_linalg::euclidean_distance(query, p)))
            .collect();
        let k = k.min(dists.len());
        dists.select_nth_unstable_by(k.saturating_sub(1), |a, b| {
            a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal)
        });
        dists.truncate(k);
        dists.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        dists
    }

    /// The `k` nearest neighbors of the indexed point `i`, excluding itself.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn neighbors_of(&self, i: usize, k: usize) -> Vec<(usize, f64)> {
        let hits = self.query(&self.points[i], k + 1);
        hits.into_iter().filter(|&(j, _)| j != i).take(k).collect()
    }

    /// For every indexed point, the distances to its `k` nearest neighbors
    /// (self excluded), sorted ascending. The backbone of KNN/LOF scores.
    #[must_use]
    pub fn all_knn_distances(&self, k: usize) -> Vec<Vec<(usize, f64)>> {
        (0..self.points.len())
            .map(|i| self.neighbors_of(i, k))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn query_orders_by_distance() {
        let nn = NearestNeighbors::new(vec![vec![0.0], vec![2.0], vec![10.0], vec![3.0]]).unwrap();
        let hits = nn.query(&[2.4], 3);
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].0, 1);
        assert_eq!(hits[1].0, 3);
        assert_eq!(hits[2].0, 0);
        assert!(hits[0].1 <= hits[1].1 && hits[1].1 <= hits[2].1);
    }

    #[test]
    fn neighbors_of_excludes_self() {
        let nn = NearestNeighbors::new(vec![vec![0.0], vec![1.0], vec![2.0]]).unwrap();
        let hits = nn.neighbors_of(1, 2);
        assert!(hits.iter().all(|&(j, _)| j != 1));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn k_larger_than_index_is_clamped() {
        let nn = NearestNeighbors::new(vec![vec![0.0], vec![1.0]]).unwrap();
        assert_eq!(nn.query(&[0.5], 10).len(), 2);
        assert_eq!(nn.neighbors_of(0, 10).len(), 1);
    }

    #[test]
    fn duplicate_points_are_zero_distance_neighbors() {
        let nn = NearestNeighbors::new(vec![vec![1.0], vec![1.0], vec![5.0]]).unwrap();
        let hits = nn.neighbors_of(0, 1);
        assert_eq!(hits[0].1, 0.0);
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(
            NearestNeighbors::new(vec![]),
            Err(MlError::EmptyTrainingSet)
        ));
    }

    proptest! {
        /// query(k) returns a prefix of the fully sorted distance list.
        #[test]
        fn prop_query_matches_full_sort(points in proptest::collection::vec(
            proptest::collection::vec(-50.0..50.0f64, 2), 2..24),
            probe in proptest::collection::vec(-50.0..50.0f64, 2),
            k in 1usize..8) {
            let nn = NearestNeighbors::new(points.clone()).unwrap();
            let fast = nn.query(&probe, k);
            let mut slow: Vec<(usize, f64)> = points
                .iter()
                .enumerate()
                .map(|(i, p)| (i, nurd_linalg::euclidean_distance(&probe, p)))
                .collect();
            slow.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            for (f, s) in fast.iter().zip(slow.iter()) {
                prop_assert!((f.1 - s.1).abs() < 1e-12);
            }
        }
    }
}
