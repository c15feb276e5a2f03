//! LU (partial pivoting) and Cholesky factorizations.

use crate::{LinalgError, Matrix};

/// LU decomposition with partial pivoting: `P * A = L * U`.
///
/// Used for log-determinants (the MCD objective) and inverses
/// (Mahalanobis distances).
///
/// # Example
///
/// ```
/// use nurd_linalg::{Lu, Matrix};
///
/// # fn main() -> Result<(), nurd_linalg::LinalgError> {
/// let a = Matrix::identity(2).scaled(4.0);
/// let lu = Lu::decompose(&a)?;
/// assert!((lu.inverse()?.get(1, 1) - 0.25).abs() < 1e-12);
/// assert!((lu.log_abs_determinant() - 16f64.ln()).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Packed LU factors (L has implicit unit diagonal).
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
}

impl Lu {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] for rectangular input,
    /// [`LinalgError::Singular`] when a pivot underflows.
    pub fn decompose(a: &Matrix) -> Result<Self, LinalgError> {
        let n = a.rows();
        if a.rows() != a.cols() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Partial pivoting: bring the largest |entry| in column k to the top.
            let mut pivot_row = k;
            let mut pivot_val = lu.get(k, k).abs();
            for r in (k + 1)..n {
                let v = lu.get(r, k).abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-300 {
                return Err(LinalgError::Singular);
            }
            if pivot_row != k {
                for c in 0..n {
                    let tmp = lu.get(k, c);
                    lu.set(k, c, lu.get(pivot_row, c));
                    lu.set(pivot_row, c, tmp);
                }
                perm.swap(k, pivot_row);
            }
            let pivot = lu.get(k, k);
            for r in (k + 1)..n {
                let factor = lu.get(r, k) / pivot;
                lu.set(r, k, factor);
                for c in (k + 1)..n {
                    lu.set(r, c, lu.get(r, c) - factor * lu.get(k, c));
                }
            }
        }
        Ok(Lu { lu, perm })
    }

    /// Log of the absolute determinant — robust for near-singular scatter
    /// matrices in the MCD objective.
    #[must_use]
    pub fn log_abs_determinant(&self) -> f64 {
        let n = self.lu.rows();
        (0..n).map(|i| self.lu.get(i, i).abs().ln()).sum()
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] if `b.len()` differs from the dimension.
    // Triangular substitution reads `y[j]`/`x[j]` against row `i` of the
    // factor; explicit indices mirror the textbook recurrences.
    #[allow(clippy::needless_range_loop)]
    fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.lu.rows();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("vector of length {n}"),
                found: format!("vector of length {}", b.len()),
            });
        }
        // Forward substitution on the permuted right-hand side.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut acc = b[self.perm[i]];
            for j in 0..i {
                acc -= self.lu.get(i, j) * y[j];
            }
            y[i] = acc;
        }
        // Back substitution.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in (i + 1)..n {
                acc -= self.lu.get(i, j) * x[j];
            }
            x[i] = acc / self.lu.get(i, i);
        }
        Ok(x)
    }

    /// Inverse of the factored matrix.
    ///
    /// # Errors
    ///
    /// Propagates [`LinalgError`] from the column solves.
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        let n = self.lu.rows();
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for c in 0..n {
            e[c] = 1.0;
            let col = self.solve(&e)?;
            e[c] = 0.0;
            for (r, v) in col.into_iter().enumerate() {
                inv.set(r, c, v);
            }
        }
        Ok(inv)
    }
}

/// Cholesky factorization `A = L * Lᵀ` of a symmetric positive-definite matrix.
///
/// # Example
///
/// ```
/// use nurd_linalg::{Cholesky, Matrix};
///
/// # fn main() -> Result<(), nurd_linalg::LinalgError> {
/// let a = Matrix::identity(2).scaled(4.0);
/// let x = Cholesky::decompose(&a)?.solve(&[2.0, 6.0])?;
/// assert!((x[0] - 0.5).abs() < 1e-12 && (x[1] - 1.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] for rectangular input,
    /// [`LinalgError::NotPositiveDefinite`] when a diagonal pivot is
    /// non-positive.
    pub fn decompose(a: &Matrix) -> Result<Self, LinalgError> {
        let n = a.rows();
        if a.rows() != a.cols() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        // Row-major factor; row `i` is written against the finished rows
        // above it, each cell subtracting its products in ascending `k`.
        let mut l = vec![0.0; n * n];
        for i in 0..n {
            let (above, rest) = l.split_at_mut(i * n);
            let row_i = &mut rest[..n];
            let a_row = a.row(i);
            for (j, row_j) in above.chunks_exact(n).enumerate() {
                let mut sum = a_row[j];
                for (lik, ljk) in row_i[..j].iter().zip(&row_j[..j]) {
                    sum -= lik * ljk;
                }
                row_i[j] = sum / row_j[j];
            }
            let mut sum = a_row[i];
            for lik in &row_i[..i] {
                sum -= lik * lik;
            }
            if sum <= 0.0 {
                return Err(LinalgError::NotPositiveDefinite);
            }
            row_i[i] = sum.sqrt();
        }
        let l = Matrix::from_flat(n, n, l).expect("buffer was sized n × n");
        Ok(Cholesky { l })
    }

    /// Solves `A x = b` using the factorization.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] if `b.len()` differs from the dimension.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.l.rows();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("vector of length {n}"),
                found: format!("vector of length {}", b.len()),
            });
        }
        // L y = b
        let mut y = vec![0.0; n];
        for i in 0..n {
            let row = self.l.row(i);
            let mut acc = b[i];
            for (lij, yj) in row[..i].iter().zip(&y[..i]) {
                acc -= lij * yj;
            }
            y[i] = acc / row[i];
        }
        // Lᵀ x = y: row `i` of `Lᵀ` is column `i` of `L`, every `n`-th
        // cell of the row-major factor, read below the diagonal.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let column = self.l.as_slice()[i..].iter().step_by(n);
            let mut acc = y[i];
            for (lji, xj) in column.zip(&x).skip(i + 1) {
                acc -= lji * xj;
            }
            x[i] = acc / self.l.row(i)[i];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    #[test]
    fn lu_solves_known_system() {
        let a =
            Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]).unwrap();
        let lu = Lu::decompose(&a).unwrap();
        let x = lu.solve(&[8.0, -11.0, -3.0]).unwrap();
        assert_close(x[0], 2.0, 1e-10);
        assert_close(x[1], 3.0, 1e-10);
        assert_close(x[2], -1.0, 1e-10);
    }

    #[test]
    fn lu_log_abs_determinant_matches_cofactor_expansion() {
        let a =
            Matrix::from_rows(&[&[6.0, 1.0, 1.0], &[4.0, -2.0, 5.0], &[2.0, 8.0, 7.0]]).unwrap();
        let lu = Lu::decompose(&a).unwrap();
        assert_close(lu.log_abs_determinant(), 306.0f64.ln(), 1e-9);
    }

    #[test]
    fn lu_inverse_roundtrip() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]).unwrap();
        let inv = Lu::decompose(&a).unwrap().inverse().unwrap();
        for c in 0..2 {
            let unit = a.matvec(&inv.column(c)).unwrap();
            assert_close(unit[c], 1.0, 1e-12);
            assert_close(unit[1 - c], 0.0, 1e-12);
        }
    }

    #[test]
    fn lu_rejects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(Lu::decompose(&a), Err(LinalgError::Singular)));
    }

    #[test]
    fn lu_rejects_rectangular() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Lu::decompose(&a),
            Err(LinalgError::NotSquare { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn lu_pivots_on_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let lu = Lu::decompose(&a).unwrap();
        let x = lu.solve(&[2.0, 3.0]).unwrap();
        assert_close(x[0], 3.0, 1e-12);
        assert_close(x[1], 2.0, 1e-12);
    }

    #[test]
    fn cholesky_known_factor() {
        let a = Matrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]])
            .unwrap();
        let chol = Cholesky::decompose(&a).unwrap();
        let l = &chol.l;
        assert_close(l.get(0, 0), 5.0, 1e-12);
        assert_close(l.get(1, 0), 3.0, 1e-12);
        assert_close(l.get(1, 1), 3.0, 1e-12);
        assert_close(l.get(2, 0), -1.0, 1e-12);
        assert_close(l.get(2, 1), 1.0, 1e-12);
        assert_close(l.get(2, 2), 3.0, 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::decompose(&a),
            Err(LinalgError::NotPositiveDefinite)
        ));
    }

    #[test]
    fn cholesky_solve_matches_lu_solve() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
        let b = [1.0, 2.0];
        let x1 = Cholesky::decompose(&a).unwrap().solve(&b).unwrap();
        let x2 = Lu::decompose(&a).unwrap().solve(&b).unwrap();
        assert_close(x1[0], x2[0], 1e-10);
        assert_close(x1[1], x2[1], 1e-10);
    }

    /// `B · Bᵀ`: a symmetric positive semi-definite test input.
    fn gram(b: &Matrix) -> Matrix {
        let n = b.rows();
        let mut g = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                g.set(i, j, crate::dot(b.row(i), b.row(j)));
            }
        }
        g
    }

    /// `Cholesky::{decompose, solve}` as they were written through
    /// `Matrix::get`/`set`, kept as the oracle for the slice form.
    #[allow(clippy::needless_range_loop)]
    mod elementwise {
        use crate::{LinalgError, Matrix};

        pub(super) fn decompose(a: &Matrix) -> Result<Matrix, LinalgError> {
            let n = a.rows();
            let mut l = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..=i {
                    let mut sum = a.get(i, j);
                    for k in 0..j {
                        sum -= l.get(i, k) * l.get(j, k);
                    }
                    if i == j {
                        if sum <= 0.0 {
                            return Err(LinalgError::NotPositiveDefinite);
                        }
                        l.set(i, j, sum.sqrt());
                    } else {
                        l.set(i, j, sum / l.get(j, j));
                    }
                }
            }
            Ok(l)
        }

        pub(super) fn solve(l: &Matrix, b: &[f64]) -> Vec<f64> {
            let n = l.rows();
            let mut y = vec![0.0; n];
            for i in 0..n {
                let mut acc = b[i];
                for j in 0..i {
                    acc -= l.get(i, j) * y[j];
                }
                y[i] = acc / l.get(i, i);
            }
            let mut x = vec![0.0; n];
            for i in (0..n).rev() {
                let mut acc = y[i];
                for j in (i + 1)..n {
                    acc -= l.get(j, i) * x[j];
                }
                x[i] = acc / l.get(i, i);
            }
            x
        }
    }

    proptest! {
        /// Random SPD matrices (A = B·Bᵀ + n·I) factor and solve correctly.
        #[test]
        fn prop_spd_solve_roundtrip(seed_rows in proptest::collection::vec(
            proptest::collection::vec(-2.0..2.0f64, 4), 4)) {
            let b = Matrix::from_flat(4, 4, seed_rows.concat()).unwrap();
            let spd = gram(&b).add(&Matrix::identity(4).scaled(4.0)).unwrap();
            let rhs = [1.0, -2.0, 0.5, 3.0];
            let chol = Cholesky::decompose(&spd).unwrap();
            let x = chol.solve(&rhs).unwrap();
            let back = spd.matvec(&x).unwrap();
            for (a, b) in back.iter().zip(rhs.iter()) {
                prop_assert!((a - b).abs() < 1e-7);
            }
        }

        /// The slice-walking factorization and solve against the
        /// `get`/`set` form they replaced: the same factor, pivot failure
        /// and solution, bit for bit, on SPD (`ridge`) and rank-deficient
        /// (`B·Bᵀ`, `B` of `rank` columns) matrices.
        #[test]
        fn prop_cholesky_matches_elementwise_form(
            n in 1usize..24,
            rank in 1usize..24,
            ridge in 0u8..2,
            cells in proptest::collection::vec(-2.0..2.0f64, 24 * 24),
            rhs in proptest::collection::vec(-5.0..5.0f64, 24),
        ) {
            let rank = rank.min(n);
            let b = Matrix::from_flat(n, rank, cells[..n * rank].to_vec()).unwrap();
            let mut a = gram(&b);
            if ridge == 1 {
                a = a.add(&Matrix::identity(n).scaled(n as f64)).unwrap();
            }
            match (Cholesky::decompose(&a), elementwise::decompose(&a)) {
                (Ok(chol), Ok(expected)) => {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(chol.l.as_slice()), bits(expected.as_slice()));
                    let x = chol.solve(&rhs[..n]).unwrap();
                    prop_assert_eq!(bits(&x), bits(&elementwise::solve(&expected, &rhs[..n])));
                }
                (Err(got), Err(expected)) => prop_assert_eq!(got, expected),
                (got, expected) => panic!("{got:?} vs {expected:?}"),
            }
        }
    }
}
