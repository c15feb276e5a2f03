//! From-scratch ML primitives for the NURD reproduction.
//!
//! The paper's method stack is built on a small number of classic learners:
//!
//! * [`GradientBoosting`] — Newton-boosted regression trees (XGBoost-style)
//!   with a pluggable [`Loss`]; NURD's latency predictor `h_t`, the GBTR
//!   baseline, XGBOD's supervised head and Grabit (via a Tobit loss defined
//!   in `nurd-survival`) all reuse it.
//! * [`LogisticRegression`] — IRLS-fit; NURD's propensity-score model `g_t`
//!   and the PU-EN non-traditional classifier.
//! * [`LinearSvm`] — Pegasos-trained linear SVM; Wrangler and PU-BG.
//! * [`KMeans`], [`NearestNeighbors`] — substrates for the outlier detectors.
//!
//! # Exact vs. histogram tree growth
//!
//! Because NURD refits the booster at *every checkpoint of every job*,
//! tree construction dominates end-to-end replay cost. The tree builder
//! therefore ships two growth strategies behind one API
//! ([`TreeConfig::growth`]):
//!
//! * **Histogram** (default): each feature is quantized into at most
//!   [`TreeConfig::max_bins`] ≤ 256 bins once per fit ([`BinnedMatrix`]);
//!   nodes accumulate per-bin gradient/hessian statistics in one linear
//!   pass over contiguous `u8` codes and scan bin boundaries for the
//!   split. `O(n·d)` split finding per level; measured ~4× faster
//!   GBT fits at n = 300 and growing with n. When every feature has at
//!   most `max_bins` distinct values the trees are *identical* to exact
//!   growth (property-tested); beyond that, thresholds are restricted to
//!   quantile bin boundaries — for a single shallow tree on small data
//!   the one-off quantization cost can outweigh the per-node savings, but
//!   boosting amortizes it across all rounds.
//! * **Exact**: the classic per-node, per-feature re-sort enumerating
//!   every midpoint between adjacent distinct values
//!   (`O(d · n log n)` per node). Pin `TreeGrowth::Exact` in
//!   accuracy-sensitive comparisons or to reproduce pre-histogram
//!   behaviour bit-for-bit.
//!
//! Training data flows in through `nurd_linalg::MatrixView`, so checkpoint
//! row slices train zero-copy; see `GradientBoosting::fit_view` and
//! `RegressionTree::fit_binned` for the hot-path entry points.
//!
//! # Warm-start primitives
//!
//! Three additions let `nurd-core` refit *incrementally* across
//! checkpoints instead of from scratch (its `WarmRefitState` is the
//! orchestrator; these are the mechanisms):
//!
//! * [`BinnedMatrix::append_from`] grows a quantized matrix in place —
//!   only appended rows are re-coded against the existing bin edges, and
//!   a Kolmogorov–Smirnov drift statistic reports when those edges have
//!   gone stale;
//! * [`GradientBoosting::warm_boost`] boosts a few new rounds onto a
//!   previous ensemble, in place, over such a grown matrix
//!   ([`GradientBoosting::warm_start`] does the same onto a copy;
//!   [`GradientBoosting::fit_binned`] is the matching cold entry);
//! * [`RegressionTree::predict_binned`] replays trees over contiguous
//!   `u8` bin codes — raw `f64` features are never touched in a
//!   histogram-mode fit. Histogram construction itself uses LightGBM-style
//!   sibling subtraction (see [`TreeConfig::hist_subtraction`]).
//!
//! # The flat inference layout
//!
//! Fitted ensembles flatten into [`FlatForest`] — a structure-of-arrays
//! node layout with self-looping leaves walked a fixed number of steps per
//! row, **bit-identical** to the pointer-tree paths (property-tested).
//! Every boosting round's score update and every warm-start replay run
//! through its batch kernels, and `nurd-core` scores whole barriers only
//! through [`FlatForest::predict_view_into`] — the pointer walk
//! ([`GradientBoosting::predict_view`]) is kept as the reference the
//! differential tests compare against, not as a serving path. One
//! const-generic kernel per input kind (raw rows, bin codes) serves every
//! lane width, `L = 1` included.
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

#![deny(unsafe_code)]

mod binned;
mod error;
mod flat;
mod gbt;
mod kmeans;
mod logistic;
mod metrics;
mod neighbors;
mod scaler;
mod svm;
mod tree;

pub use binned::{BinnedMatrix, FeatureBins};
pub use error::MlError;
pub use flat::{FlatForest, DEFAULT_LANES, SUPPORTED_LANES};
pub use gbt::{GbtConfig, GradientBoosting, LogisticLoss, Loss, SquaredLoss};
pub use kmeans::{KMeans, KMeansConfig};
pub use logistic::{LogisticConfig, LogisticRegression};
pub use metrics::{accuracy, f1_score, mean_absolute_error, mean_squared_error, sigmoid};
pub use neighbors::NearestNeighbors;
pub use scaler::StandardScaler;
pub use svm::{LinearSvm, SvmConfig};
pub use tree::{RegressionTree, TreeConfig, TreeGrowth};
