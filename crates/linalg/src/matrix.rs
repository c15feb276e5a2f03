//! A minimal row-major dense matrix.

use crate::{LinalgError, SymmetricEigen};

/// Row-major dense matrix of `f64`.
///
/// Sized for the NURD workloads: up to a few thousand rows and a few dozen
/// columns. All fallible operations return [`LinalgError`] rather than
/// panicking so callers (model fitting loops) can recover from degenerate
/// inputs such as constant features.
///
/// # Example
///
/// ```
/// use nurd_linalg::Matrix;
///
/// # fn main() -> Result<(), nurd_linalg::LinalgError> {
/// let mut a = Matrix::identity(2);
/// a.set(0, 1, 3.0);
/// let b = a.add(&Matrix::identity(2))?.scaled(0.5);
/// assert_eq!((b.get(0, 0), b.get(0, 1)), (1.0, 1.5));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub(crate) fn from_flat(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("{} elements", rows * cols),
                found: format!("{} elements", data.len()),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[must_use]
    pub(crate) fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy of column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    #[must_use]
    pub(crate) fn column(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column index out of bounds");
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// The underlying row-major buffer.
    #[must_use]
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `v.len() != self.cols()`.
    pub(crate) fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if v.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("vector of length {}", self.cols),
                found: format!("vector of length {}", v.len()),
            });
        }
        Ok((0..self.rows).map(|r| crate::dot(self.row(r), v)).collect())
    }

    /// Element-wise sum `self + other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on differing shapes.
    pub fn add(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("{}x{}", self.rows, self.cols),
                found: format!("{}x{}", other.rows, other.cols),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Copy scaled by `alpha`.
    #[must_use]
    pub fn scaled(&self, alpha: f64) -> Matrix {
        let mut out = self.clone();
        for v in &mut out.data {
            *v *= alpha;
        }
        out
    }

    /// Symmetric eigendecomposition (Jacobi); `self` must be symmetric.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular input.
    pub fn symmetric_eigen(&self) -> Result<SymmetricEigen, LinalgError> {
        SymmetricEigen::decompose(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Matrix {
        /// Test fixture shared by this crate's unit tests: a matrix from
        /// literal rows of equal length.
        pub(crate) fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
            Matrix::from_flat(rows.len(), rows[0].len(), rows.concat())
        }
    }

    #[test]
    fn matvec_matches_manual() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
    }

    #[test]
    fn from_flat_checks_size() {
        assert!(Matrix::from_flat(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_flat(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn add_is_elementwise_and_checks_shape() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let sum = Matrix::from_rows(&[&[6.0, 8.0], &[10.0, 12.0]]).unwrap();
        assert_eq!(a.add(&b).unwrap(), sum);
        assert!(matches!(
            a.add(&Matrix::zeros(2, 3)),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn column_extraction() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.column(1), vec![2.0, 4.0]);
    }

    #[test]
    fn scaled_scales_every_entry() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]).unwrap();
        let s = a.scaled(2.0);
        assert_eq!(s.row(0), &[2.0, -4.0]);
    }
}
