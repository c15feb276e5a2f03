//! Lloyd's k-means with k-means++ initialization.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::MlError;

/// Hyperparameters for [`KMeans`].
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iter: usize,
    /// Convergence tolerance on total centroid movement.
    pub tol: f64,
    /// RNG seed for k-means++ seeding.
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            k: 8,
            max_iter: 100,
            tol: 1e-6,
            seed: 23,
        }
    }
}

/// Fitted k-means clustering (substrate for the CBLOF detector).
///
/// # Example
///
/// ```
/// use nurd_ml::{KMeans, KMeansConfig};
///
/// # fn main() -> Result<(), nurd_ml::MlError> {
/// let x = vec![vec![0.0], vec![0.1], vec![10.0], vec![10.1]];
/// let km = KMeans::fit(&x, &KMeansConfig { k: 2, ..Default::default() })?;
/// assert_eq!(km.cluster_sizes(), &[2, 2]);
/// assert!(km.centroids().iter().any(|c| (c[0] - 10.05).abs() < 1e-9));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct KMeans {
    centroids: Vec<Vec<f64>>,
    cluster_sizes: Vec<usize>,
}

impl KMeans {
    /// Clusters the samples.
    ///
    /// If `k` exceeds the number of samples it is truncated to it.
    ///
    /// # Errors
    ///
    /// [`MlError::EmptyTrainingSet`] on empty input,
    /// [`MlError::InvalidConfig`] if `k == 0`,
    /// [`MlError::DimensionMismatch`] on ragged rows.
    pub fn fit(x: &[Vec<f64>], config: &KMeansConfig) -> Result<Self, MlError> {
        let dummy_y = vec![0.0; x.len()];
        crate::error::check_xy(x, &dummy_y)?;
        if config.k == 0 {
            return Err(MlError::InvalidConfig("k must be >= 1".into()));
        }
        let n = x.len();
        let k = config.k.min(n);
        let mut rng = StdRng::seed_from_u64(config.seed);

        // k-means++ seeding.
        let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
        centroids.push(x[rng.gen_range(0..n)].clone());
        let mut d2: Vec<f64> = x
            .iter()
            .map(|p| nurd_linalg::squared_distance(p, &centroids[0]))
            .collect();
        while centroids.len() < k {
            let total: f64 = d2.iter().sum();
            let next = if total <= 0.0 {
                // All points coincide with existing centroids; pick any.
                rng.gen_range(0..n)
            } else {
                let mut target = rng.gen_range(0.0..total);
                let mut chosen = n - 1;
                for (i, &w) in d2.iter().enumerate() {
                    if target < w {
                        chosen = i;
                        break;
                    }
                    target -= w;
                }
                chosen
            };
            centroids.push(x[next].clone());
            for (i, p) in x.iter().enumerate() {
                let nd = nurd_linalg::squared_distance(p, centroids.last().expect("nonempty"));
                if nd < d2[i] {
                    d2[i] = nd;
                }
            }
        }

        // Lloyd iterations.
        let d = x[0].len();
        let mut labels = vec![0usize; n];
        for _ in 0..config.max_iter {
            for (i, p) in x.iter().enumerate() {
                labels[i] = nearest(p, &centroids).0;
            }
            let mut sums = vec![vec![0.0; d]; k];
            let mut counts = vec![0usize; k];
            for (i, p) in x.iter().enumerate() {
                counts[labels[i]] += 1;
                nurd_linalg::add_scaled(&mut sums[labels[i]], 1.0, p);
            }
            let mut movement = 0.0;
            for c in 0..k {
                if counts[c] == 0 {
                    continue; // keep the old centroid for an emptied cluster
                }
                nurd_linalg::scale(&mut sums[c], 1.0 / counts[c] as f64);
                movement += nurd_linalg::euclidean_distance(&sums[c], &centroids[c]);
                centroids[c] = std::mem::take(&mut sums[c]);
            }
            if movement < config.tol {
                break;
            }
        }
        for (i, p) in x.iter().enumerate() {
            labels[i] = nearest(p, &centroids).0;
        }
        let mut cluster_sizes = vec![0usize; k];
        for &l in &labels {
            cluster_sizes[l] += 1;
        }
        Ok(KMeans {
            centroids,
            cluster_sizes,
        })
    }

    /// Cluster centroids.
    #[must_use]
    pub fn centroids(&self) -> &[Vec<f64>] {
        &self.centroids
    }

    /// Number of training samples per cluster.
    #[must_use]
    pub fn cluster_sizes(&self) -> &[usize] {
        &self.cluster_sizes
    }
}

fn nearest(point: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (c, centroid) in centroids.iter().enumerate() {
        let dist = nurd_linalg::euclidean_distance(point, centroid);
        if dist < best.1 {
            best = (c, dist);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn two_blobs() -> Vec<Vec<f64>> {
        let mut x = Vec::new();
        for i in 0..10 {
            x.push(vec![i as f64 * 0.01, 0.0]);
            x.push(vec![5.0 + i as f64 * 0.01, 5.0]);
        }
        x
    }

    #[test]
    fn recovers_two_blobs() {
        let x = two_blobs();
        let km = KMeans::fit(
            &x,
            &KMeansConfig {
                k: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let l0 = nearest(&[0.0, 0.0], km.centroids()).0;
        let l1 = nearest(&[5.0, 5.0], km.centroids()).0;
        assert_ne!(l0, l1);
        assert_eq!(km.cluster_sizes().iter().sum::<usize>(), x.len());
        assert_eq!(km.cluster_sizes()[l0], 10);
        assert_eq!(km.cluster_sizes()[l1], 10);
    }

    #[test]
    fn k_truncated_to_sample_count() {
        let x = vec![vec![0.0], vec![1.0]];
        let km = KMeans::fit(
            &x,
            &KMeansConfig {
                k: 10,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(km.centroids().len(), 2);
    }

    #[test]
    fn identical_points_single_cluster_behaviour() {
        let x = vec![vec![3.0, 3.0]; 6];
        let km = KMeans::fit(
            &x,
            &KMeansConfig {
                k: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(nearest(&[3.0, 3.0], km.centroids()).1 < 1e-12);
    }

    #[test]
    fn rejects_k_zero() {
        let x = vec![vec![1.0]];
        assert!(matches!(
            KMeans::fit(
                &x,
                &KMeansConfig {
                    k: 0,
                    ..Default::default()
                }
            ),
            Err(MlError::InvalidConfig(_))
        ));
    }

    #[test]
    fn rejects_empty_input() {
        assert!(matches!(
            KMeans::fit(&[], &KMeansConfig::default()),
            Err(MlError::EmptyTrainingSet)
        ));
    }

    #[test]
    fn deterministic_under_seed() {
        let x = two_blobs();
        let cfg = KMeansConfig {
            k: 3,
            seed: 5,
            ..Default::default()
        };
        let a = KMeans::fit(&x, &cfg).unwrap();
        let b = KMeans::fit(&x, &cfg).unwrap();
        assert_eq!(a.centroids(), b.centroids());
        assert_eq!(a.cluster_sizes(), b.cluster_sizes());
    }

    proptest! {
        /// Every sample is counted in the cluster of its nearest centroid
        /// (Lloyd's invariant at the final assignment pass).
        #[test]
        fn prop_sizes_count_nearest_assignments(points in proptest::collection::vec(
            proptest::collection::vec(-10.0..10.0f64, 2), 3..24), k in 1usize..4) {
            let km = KMeans::fit(&points, &KMeansConfig { k, ..Default::default() }).unwrap();
            let mut sizes = vec![0usize; km.centroids().len()];
            for p in &points {
                sizes[nearest(p, km.centroids()).0] += 1;
            }
            prop_assert_eq!(sizes.as_slice(), km.cluster_sizes());
        }

        /// Cluster sizes partition the sample count.
        #[test]
        fn prop_sizes_partition(points in proptest::collection::vec(
            proptest::collection::vec(-5.0..5.0f64, 2), 2..20), k in 1usize..5) {
            let km = KMeans::fit(&points, &KMeansConfig { k, ..Default::default() }).unwrap();
            prop_assert_eq!(km.cluster_sizes().iter().sum::<usize>(), points.len());
        }
    }
}
