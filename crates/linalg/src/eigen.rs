//! Symmetric eigendecomposition via the cyclic Jacobi method.

use crate::{LinalgError, Matrix};

/// Eigendecomposition `A = V · diag(λ) · Vᵀ` of a symmetric matrix.
///
/// Eigenpairs are sorted by **descending** eigenvalue, which is the order the
/// PCA outlier detector consumes them in (major components first).
///
/// # Example
///
/// ```
/// use nurd_linalg::Matrix;
///
/// # fn main() -> Result<(), nurd_linalg::LinalgError> {
/// let mut a = Matrix::identity(2);
/// a.set(0, 0, 2.0);
/// let eig = a.symmetric_eigen()?;
/// assert!((eig.eigenvalues()[0] - 2.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    eigenvalues: Vec<f64>,
    /// Eigenvectors stored as rows, matching `eigenvalues` order.
    eigenvectors: Vec<Vec<f64>>,
}

impl SymmetricEigen {
    /// Decomposes a symmetric matrix; only symmetry up to rounding is assumed
    /// (the strict lower triangle is mirrored from the upper one).
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] for rectangular input,
    /// [`LinalgError::Empty`] for a 0x0 matrix.
    pub(crate) fn decompose(a: &Matrix) -> Result<Self, LinalgError> {
        let n = a.rows();
        if a.rows() != a.cols() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        if n == 0 {
            return Err(LinalgError::Empty);
        }

        // Work on a symmetrized copy.
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                m.set(i, j, 0.5 * (a.get(i, j) + a.get(j, i)));
            }
        }
        let mut v = Matrix::identity(n);

        const MAX_SWEEPS: usize = 64;
        for _sweep in 0..MAX_SWEEPS {
            let mut off_diag = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    off_diag += m.get(i, j) * m.get(i, j);
                }
            }
            if off_diag.sqrt() < 1e-12 {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m.get(p, q);
                    if apq.abs() < 1e-300 {
                        continue;
                    }
                    let app = m.get(p, p);
                    let aqq = m.get(q, q);
                    let theta = (aqq - app) / (2.0 * apq);
                    // Stable Jacobi rotation: t = sign(θ)/(|θ| + sqrt(θ²+1)).
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (theta * theta + 1.0).sqrt())
                    } else {
                        -1.0 / (-theta + (theta * theta + 1.0).sqrt())
                    };
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;

                    for k in 0..n {
                        let mkp = m.get(k, p);
                        let mkq = m.get(k, q);
                        m.set(k, p, c * mkp - s * mkq);
                        m.set(k, q, s * mkp + c * mkq);
                    }
                    for k in 0..n {
                        let mpk = m.get(p, k);
                        let mqk = m.get(q, k);
                        m.set(p, k, c * mpk - s * mqk);
                        m.set(q, k, s * mpk + c * mqk);
                    }
                    for k in 0..n {
                        let vkp = v.get(k, p);
                        let vkq = v.get(k, q);
                        v.set(k, p, c * vkp - s * vkq);
                        v.set(k, q, s * vkp + c * vkq);
                    }
                }
            }
        }

        let mut pairs: Vec<(f64, Vec<f64>)> = (0..n).map(|i| (m.get(i, i), v.column(i))).collect();
        pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        let (eigenvalues, eigenvectors) = pairs.into_iter().unzip();
        Ok(SymmetricEigen {
            eigenvalues,
            eigenvectors,
        })
    }

    /// Eigenvalues in descending order.
    #[must_use]
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Eigenvector for the `i`-th (descending) eigenvalue, unit-norm.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn eigenvector(&self, i: usize) -> &[f64] {
        &self.eigenvectors[i]
    }

    /// Number of eigenpairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.eigenvalues.len()
    }

    /// Whether the decomposition is empty (never true for a valid result).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.eigenvalues.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn diagonal_matrix_eigenvalues_sorted() {
        let a = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 5.0, 0.0], &[0.0, 0.0, 3.0]]).unwrap();
        let eig = SymmetricEigen::decompose(&a).unwrap();
        let vals = eig.eigenvalues();
        assert!((vals[0] - 5.0).abs() < 1e-10);
        assert!((vals[1] - 3.0).abs() < 1e-10);
        assert!((vals[2] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn known_2x2_eigenpairs() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let eig = SymmetricEigen::decompose(&a).unwrap();
        assert!((eig.eigenvalues()[0] - 3.0).abs() < 1e-10);
        assert!((eig.eigenvalues()[1] - 1.0).abs() < 1e-10);
        // Eigenvector of λ=3 is (1,1)/sqrt(2) up to sign.
        let v = eig.eigenvector(0);
        assert!((v[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-8);
        assert!((v[0] - v[1]).abs() < 1e-8);
    }

    #[test]
    fn rejects_rectangular() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            SymmetricEigen::decompose(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn eigenvectors_unit_norm_and_orthogonal() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 2.0]]).unwrap();
        let eig = SymmetricEigen::decompose(&a).unwrap();
        for i in 0..eig.len() {
            assert!((crate::l2_norm(eig.eigenvector(i)) - 1.0).abs() < 1e-8);
            for j in (i + 1)..eig.len() {
                assert!(crate::dot(eig.eigenvector(i), eig.eigenvector(j)).abs() < 1e-8);
            }
        }
    }

    /// `(B + Bᵀ) / 2` for the square `B` whose rows are `seed`.
    fn symmetrized(seed: &[Vec<f64>]) -> Matrix {
        let mut sym = Matrix::zeros(seed.len(), seed.len());
        for (i, row) in seed.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                sym.set(i, j, sym.get(i, j) + 0.5 * v);
                sym.set(j, i, sym.get(j, i) + 0.5 * v);
            }
        }
        sym
    }

    proptest! {
        /// A·v = λ·v for every eigenpair of a random symmetric matrix.
        #[test]
        fn prop_reconstruction(seed in proptest::collection::vec(
            proptest::collection::vec(-3.0..3.0f64, 4), 4)) {
            let sym = symmetrized(&seed);
            let eig = SymmetricEigen::decompose(&sym).unwrap();
            for i in 0..eig.len() {
                let v = eig.eigenvector(i);
                let av = sym.matvec(v).unwrap();
                let lv: Vec<f64> = v.iter().map(|x| x * eig.eigenvalues()[i]).collect();
                for (a, b) in av.iter().zip(lv.iter()) {
                    prop_assert!((a - b).abs() < 1e-6, "Av={a} != lv={b}");
                }
            }
        }

        /// Trace equals the sum of eigenvalues.
        #[test]
        fn prop_trace_invariant(seed in proptest::collection::vec(
            proptest::collection::vec(-3.0..3.0f64, 3), 3)) {
            let sym = symmetrized(&seed);
            let trace: f64 = (0..3).map(|i| sym.get(i, i)).sum();
            let eig = SymmetricEigen::decompose(&sym).unwrap();
            let sum: f64 = eig.eigenvalues().iter().sum();
            prop_assert!((trace - sum).abs() < 1e-8);
        }
    }
}
