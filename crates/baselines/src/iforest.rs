//! Isolation forest (Liu, Ting & Zhou, 2008).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;

use nurd_ml::MlError;

use crate::outlier_adapter::OutlierDetector;

/// Isolation forest: random axis-parallel splits isolate outliers in fewer
/// steps. Score = `2^(-E[path length] / c(n))` (∈ (0, 1]; > 0.5 is
/// anomalous).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct IsolationForest {
    /// Number of isolation trees.
    pub(crate) trees: usize,
    /// Subsample size per tree (ψ in the paper; 256 is the canonical value).
    pub(crate) subsample: usize,
    /// RNG seed.
    pub(crate) seed: u64,
}

impl Default for IsolationForest {
    fn default() -> Self {
        IsolationForest {
            trees: 100,
            subsample: 256,
            seed: 1337,
        }
    }
}

#[derive(Debug)]
enum Node {
    Leaf {
        size: usize,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    fn build(rng: &mut StdRng, x: &[Vec<f64>], indices: Vec<usize>, max_depth: usize) -> Tree {
        let mut nodes = Vec::new();
        Self::grow(rng, x, indices, 0, max_depth, &mut nodes);
        Tree { nodes }
    }

    fn grow(
        rng: &mut StdRng,
        x: &[Vec<f64>],
        indices: Vec<usize>,
        depth: usize,
        max_depth: usize,
        nodes: &mut Vec<Node>,
    ) -> usize {
        if depth >= max_depth || indices.len() <= 1 {
            nodes.push(Node::Leaf {
                size: indices.len(),
            });
            return nodes.len() - 1;
        }
        let d = x[0].len();
        // Pick a feature with spread; give up after a few tries (all-equal
        // subsample).
        for _ in 0..4 * d {
            let feature = rng.gen_range(0..d);
            let lo = indices
                .iter()
                .map(|&i| x[i][feature])
                .fold(f64::INFINITY, f64::min);
            let hi = indices
                .iter()
                .map(|&i| x[i][feature])
                .fold(f64::NEG_INFINITY, f64::max);
            if hi - lo < 1e-12 {
                continue;
            }
            let threshold = rng.gen_range(lo..hi);
            let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                indices.iter().partition(|&&i| x[i][feature] < threshold);
            if left_idx.is_empty() || right_idx.is_empty() {
                continue;
            }
            let placeholder = nodes.len();
            nodes.push(Node::Leaf { size: 0 });
            let left = Self::grow(rng, x, left_idx, depth + 1, max_depth, nodes);
            let right = Self::grow(rng, x, right_idx, depth + 1, max_depth, nodes);
            nodes[placeholder] = Node::Split {
                feature,
                threshold,
                left,
                right,
            };
            return placeholder;
        }
        nodes.push(Node::Leaf {
            size: indices.len(),
        });
        nodes.len() - 1
    }

    /// Path length of `point`, with the standard `c(size)` correction at
    /// unexpanded leaves.
    fn path_length(&self, point: &[f64]) -> f64 {
        let mut idx = 0;
        let mut depth = 0.0;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { size } => {
                    return depth + average_path_length(*size);
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    depth += 1.0;
                    idx = if point[*feature] < *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// `c(n)`: average path length of an unsuccessful BST search — the
/// normalizer from the isolation-forest paper.
fn average_path_length(n: usize) -> f64 {
    match n {
        0 | 1 => 0.0,
        2 => 1.0,
        _ => {
            let nf = n as f64;
            // Harmonic number approximation H(n-1) ≈ ln(n-1) + γ.
            2.0 * ((nf - 1.0).ln() + 0.577_215_664_901_532_9) - 2.0 * (nf - 1.0) / nf
        }
    }
}

impl OutlierDetector for IsolationForest {
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
        let psi = self.subsample.clamp(2, n.max(2));
        let max_depth = (psi as f64).log2().ceil() as usize;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut all: Vec<usize> = (0..n).collect();

        let trees: Vec<Tree> = (0..self.trees.max(1))
            .map(|_| {
                all.shuffle(&mut rng);
                let sample = all[..psi.min(n)].to_vec();
                Tree::build(&mut rng, x, sample, max_depth.max(1))
            })
            .collect();

        let c = average_path_length(psi);
        Ok(x.iter()
            .map(|point| {
                let mean_path: f64 =
                    trees.iter().map(|t| t.path_length(point)).sum::<f64>() / trees.len() as f64;
                2.0f64.powf(-mean_path / c.max(1e-12))
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outlier_scores_above_half() {
        let mut rows: Vec<Vec<f64>> = (0..128)
            .map(|i| vec![(i % 16) as f64 * 0.1, (i / 16) as f64 * 0.1])
            .collect();
        rows.push(vec![50.0, -50.0]);
        let scores = IsolationForest::default().score_all(&rows).unwrap();
        assert!(scores[128] > 0.5, "outlier score {}", scores[128]);
        let mean_inlier: f64 = scores[..128].iter().sum::<f64>() / 128.0;
        assert!(scores[128] > mean_inlier + 0.1);
    }

    #[test]
    fn scores_lie_in_unit_interval() {
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let scores = IsolationForest::default().score_all(&rows).unwrap();
        assert!(scores.iter().all(|&s| (0.0..=1.0).contains(&s)));
    }

    #[test]
    fn deterministic_under_seed() {
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64, (i % 7) as f64]).collect();
        let a = IsolationForest::default().score_all(&rows).unwrap();
        let b = IsolationForest::default().score_all(&rows).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn constant_data_gives_uniform_scores() {
        let rows = vec![vec![2.0, 2.0]; 32];
        let scores = IsolationForest::default().score_all(&rows).unwrap();
        let first = scores[0];
        assert!(scores.iter().all(|&s| (s - first).abs() < 1e-12));
    }

    #[test]
    fn average_path_length_known_values() {
        assert_eq!(average_path_length(0), 0.0);
        assert_eq!(average_path_length(1), 0.0);
        assert_eq!(average_path_length(2), 1.0);
        // c(256) ≈ 10.24 (from the paper).
        assert!((average_path_length(256) - 10.24).abs() < 0.1);
    }

    #[test]
    fn rejects_empty() {
        assert!(IsolationForest::default().score_all(&[]).is_err());
    }
}
