//! From-scratch ML primitives for the NURD reproduction.
//!
//! The paper's method stack is built on a small number of classic learners:
//!
//! * [`GradientBoosting`] — Newton-boosted regression trees (XGBoost-style)
//!   with a pluggable [`Loss`]; NURD's latency predictor `h_t`, the GBTR
//!   baseline, XGBOD's supervised head and Grabit (via a Tobit loss defined
//!   in `nurd-baselines`) all reuse it.
//! * [`LogisticRegression`] — IRLS-fit; NURD's propensity-score model `g_t`
//!   and the PU-EN non-traditional classifier.
//! * [`LinearSvm`] — Pegasos-trained linear SVM; Wrangler and PU-BG.
//! * [`KMeans`], [`NearestNeighbors`] — substrates for the outlier
//!   detectors of `nurd-baselines`.
//!
//! # Histogram tree growth
//!
//! Because NURD refits the booster at *every checkpoint of every job*,
//! tree construction dominates end-to-end replay cost. There is one tree
//! builder: each feature is quantized into at most
//! 256 bins once per fit ([`BinnedMatrix`]);
//! nodes accumulate per-bin gradient/hessian statistics in one linear pass
//! over contiguous `u8` codes (the larger child of every split is derived
//! as `parent − sibling`, LightGBM-style) and scan bin boundaries for the
//! split — `O(n·d)` split finding per level. When every feature has at
//! most 256 distinct values the candidate thresholds are exactly
//! the midpoints a sort-based CART enumeration would try; beyond that,
//! thresholds are restricted to quantile bin boundaries. The sort-based
//! builder is kept only as a `cfg(test)` oracle of `tree.rs`.
//!
//! Training data flows in through `nurd_linalg::MatrixView`, so checkpoint
//! row slices train zero-copy. The booster has two fit entries:
//! [`GradientBoosting::fit_view`] (raw features; quantizes, then calls the
//! second) and [`GradientBoosting::fit_binned_cached`] (a matrix the caller
//! already quantized).
//!
//! # Warm-refit primitives
//!
//! Three mechanisms let `nurd-core` refit *incrementally* across
//! checkpoints instead of from scratch (its `WarmRefitState` is the
//! orchestrator):
//!
//! * [`BinnedMatrix::append_from`] grows a quantized matrix in place —
//!   only appended rows are re-coded against the existing bin edges, and
//!   a Kolmogorov–Smirnov drift statistic reports when those edges have
//!   gone stale;
//! * [`GradientBoosting::warm_boost`] boosts a few new rounds onto a
//!   fitted ensemble, in place, over such a grown matrix, replaying the
//!   ensemble only over the rows its score cache does not cover;
//! * `FlatForest::predict_binned_extend` replays trees over contiguous
//!   `u8` bin codes — raw `f64` features are never touched after
//!   quantization.
//!
//! # One tree representation
//!
//! A fitted ensemble **is** a [`FlatForest`] — a structure-of-arrays node
//! store with self-looping leaves walked a fixed number of steps per row.
//! The grower appends each tree's nodes to it, every boosting round's
//! score update and every warm-boost replay run through its batch kernels,
//! `nurd-core` scores whole barriers through
//! [`FlatForest::predict_view_into`] on [`GradientBoosting::forest`] by
//! reference, and the codec writes it; there is no other tree type and
//! nothing is converted. [`GradientBoosting::predict_view`] is the forest's
//! safe one-row walk (`FlatForest::predict`) mapped over rows: what the
//! baselines score with, and the lane-free reference the batch kernels
//! are tested **bit-identical** to. One
//! const-generic kernel per input kind (raw rows, bin codes) serves every
//! lane width, `L = 1` included. The forest's decoder is where the
//! kernels' index invariant is checked for bytes from outside (see
//! `flat.rs`).
//!
//! # Example
//!
//! ```
//! use nurd_ml::{GbtConfig, GradientBoosting, SquaredLoss};
//!
//! # fn main() -> Result<(), nurd_ml::MlError> {
//! let x = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
//! let y = vec![0.0, 1.0, 2.0, 3.0];
//! let model = GradientBoosting::fit(&x, &y, SquaredLoss, &GbtConfig::default())?;
//! let pred = model.predict(&[1.5]);
//! assert!((pred - 1.5).abs() < 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod binned;
mod error;
mod flat;
mod gbt;
mod kmeans;
mod logistic;
mod metrics;
mod neighbors;
mod svm;
mod tree;

pub use binned::{BinnedMatrix, FeatureBins};
pub use error::MlError;
pub use flat::{FlatForest, DEFAULT_LANES, SUPPORTED_LANES};
pub use gbt::{GbtConfig, GradientBoosting, LogisticLoss, Loss, SquaredLoss};
pub use kmeans::{KMeans, KMeansConfig};
pub use logistic::{LogisticConfig, LogisticRegression};
pub(crate) use metrics::sigmoid;
pub use neighbors::NearestNeighbors;
pub use svm::{LinearSvm, SvmConfig};
pub use tree::TreeConfig;

#[cfg(test)]
/// Borrows row-major rows one slice each, the layout a
/// [`nurd_linalg::MatrixView::RowSlices`] view wraps.
pub(crate) fn row_slices(x: &[Vec<f64>]) -> Vec<&[f64]> {
    x.iter().map(Vec::as_slice).collect()
}
