//! Small dense linear algebra substrate for the NURD reproduction.
//!
//! The NURD paper's baselines need a handful of classic dense routines:
//! covariance matrices and Mahalanobis distances (MCD), symmetric
//! eigendecomposition (PCA), Newton steps over small Hessians (logistic
//! regression, Tobit, CoxPH). Problems are small (tens of features), so this
//! crate favors clarity and numerical robustness over cache blocking.
//!
//! # Feature storage for the training hot path
//!
//! The one place layout *does* matter is the online refit loop: NURD
//! retrains its models at every checkpoint, and `nurd-ml`'s histogram
//! tree builder wants per-feature columns as contiguous memory. Two types
//! serve that path:
//!
//! * [`FeatureMatrix`] — owned, contiguous, **column-major** samples ×
//!   features storage. `column(j)` is a plain `&[f64]` slice, and
//!   [`FeatureMatrix::fill_from_rows`] refills the buffer in place so
//!   per-checkpoint scratch reuse allocates nothing in steady state.
//! * [`MatrixView`] — a borrowed, layout-polymorphic view (zero-copy
//!   `&[&[f64]]` row slices or a `FeatureMatrix`), so the ML fitting
//!   routines accept either without copying.
//!
//! For the warm-start refit path, [`FeatureMatrix::append_rows`] grows
//! the matrix in place (one `memmove` per column, no re-gather of old
//! rows) — consecutive NURD checkpoints share almost all of their
//! finished set, and `nurd-core`'s `WarmRefitState` leans on this to keep
//! one append-only design matrix alive per job.
//!
//! # Example
//!
//! ```
//! use nurd_linalg::{Lu, Matrix};
//!
//! # fn main() -> Result<(), nurd_linalg::LinalgError> {
//! let mut a = Matrix::identity(2).scaled(4.0);
//! a.set(0, 1, 1.0);
//! a.set(1, 0, 1.0);
//! let inv = Lu::decompose(&a)?.inverse()?;
//! assert!((inv.get(0, 0) - 4.0 / 15.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod decomp;
mod eigen;
mod error;
mod feature_matrix;
mod matrix;
mod stats;
mod vector;

pub use decomp::{Cholesky, Lu};
pub use eigen::SymmetricEigen;
pub use error::LinalgError;
pub use feature_matrix::{FeatureMatrix, MatrixView};
pub use matrix::Matrix;
pub use stats::{column_means, covariance_matrix, mahalanobis_squared, standardize_columns};
pub use vector::{
    add_scaled, dot, euclidean_distance, l2_norm, mean, scale, squared_distance, subtract, variance,
};
