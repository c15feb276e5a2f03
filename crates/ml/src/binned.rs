//! Feature quantization for histogram-based tree growth.
//!
//! An XGBoost/LightGBM-style booster does not need raw `f64` features at
//! split-finding time: it quantizes each feature column into at most
//! [`BinnedMatrix::MAX_BINS`] bins *once per fit*, then every tree node
//! accumulates per-bin gradient/hessian statistics in a single linear pass
//! and scans bin boundaries for the best split. That replaces the exact
//! builder's per-node, per-feature `O(n log n)` re-sort with an `O(n)`
//! sweep over contiguous `u8` codes.
//!
//! Two properties of this implementation matter for correctness tests:
//!
//! * When a feature has **at most `max_bins` distinct values**, every
//!   distinct value gets its own bin and the recorded per-bin min/max
//!   collapse to that value — so candidate thresholds (midpoints between
//!   adjacent *present* values) are bit-for-bit the thresholds the exact
//!   builder proposes, and the two growth modes produce identical trees.
//! * Otherwise bins are (approximately) equal-mass quantile buckets of the
//!   training distribution, the standard accuracy/speed tradeoff.
//!
//! # What is kept and what is derived
//!
//! A [`BinnedMatrix`] holds what is information — the codes, how many
//! leading rows the last full build saw, and each bin's value range over
//! those rows — and derives the rest on demand: a cut point is the
//! midpoint `0.5 · (hi[b] + lo[b + 1])` between neighbouring ranges (the
//! expression the build placed it with), the bin count is the ranges'
//! length, and the per-bin row counts and build-time CDF behind
//! [`BinnedMatrix::drift`] are histograms of the code columns. The ranges
//! themselves are a function of the rows and the codes, which is why a
//! persisted quantization is only its codes ([`BinnedMatrix::parts`] /
//! [`BinnedMatrix::restore`]): no bin table travels, so none has to be
//! checked against another when it comes back.

use nurd_linalg::MatrixView;

/// Total order over `f64` with *every* NaN — positive or negative — at the
/// end. `f64::total_cmp` alone is not enough: negative NaN (the default
/// runtime NaN on x86-64, e.g. `0.0/0.0`) sorts *before* every number
/// under IEEE total ordering, which would break the "NaNs last" invariant
/// both tree builders rely on.
#[inline]
pub(crate) fn nan_last_cmp(a: f64, b: f64) -> std::cmp::Ordering {
    a.is_nan().cmp(&b.is_nan()).then_with(|| a.total_cmp(&b))
}

/// The bin code of `value` under ascending upper-boundary cut points: the
/// first bin `b` with `value <= cuts[b]`, the last bin otherwise.
///
/// NaN maps to the *last* bin so that training-time partitioning
/// (`code <= left_bin` → left) and prediction-time routing
/// (`NaN <= threshold` is false → right) agree: a NaN row always rides the
/// right child in both phases, matching exact growth.
#[inline]
fn code_under(cuts: &[f64], value: f64) -> u8 {
    debug_assert!(cuts.len() < BinnedMatrix::MAX_BINS);
    if value.is_nan() {
        return cuts.len() as u8;
    }
    // partition_point returns the count of cuts strictly below value,
    // i.e. the index of the first bin whose upper bound admits it.
    cuts.partition_point(|&cut| cut < value) as u8
}

/// Per-feature quantization: the value range of each bin over the rows of
/// the last full build (NaNs, which ride the last bin, excluded; `NaN` for
/// a bin that held no number — the single bin of an all-NaN column).
#[derive(Debug, Clone)]
pub struct FeatureBins {
    /// Smallest build-time value assigned to each bin.
    lo: Vec<f64>,
    /// Largest build-time value assigned to each bin.
    hi: Vec<f64>,
}

/// Bit-for-bit, so that two quantizations of an all-NaN column compare
/// equal and `-0.0` is not `0.0`.
impl PartialEq for FeatureBins {
    fn eq(&self, other: &Self) -> bool {
        let same = |a: &[f64], b: &[f64]| {
            a.iter()
                .map(|v| v.to_bits())
                .eq(b.iter().map(|v| v.to_bits()))
        };
        same(&self.lo, &other.lo) && same(&self.hi, &other.hi)
    }
}

impl FeatureBins {
    /// Number of bins for this feature.
    #[must_use]
    pub fn n_bins(&self) -> usize {
        self.lo.len()
    }

    /// The cut points between this feature's bins, written to the front of
    /// `out`: each the midpoint between one bin's largest and the next
    /// bin's smallest build-time value — the expression the build placed
    /// it with, so a value codes under these as it would have then.
    fn cuts_into<'a>(&self, out: &'a mut [f64; BinnedMatrix::MAX_BINS]) -> &'a [f64] {
        let cuts = &mut out[..self.n_bins() - 1];
        for (b, cut) in cuts.iter_mut().enumerate() {
            *cut = 0.5 * (self.hi[b] + self.lo[b + 1]);
        }
        cuts
    }

    /// Smallest training value in bin `b`.
    #[inline]
    #[must_use]
    pub(crate) fn min_of(&self, b: usize) -> f64 {
        self.lo[b]
    }

    /// Largest training value in bin `b`.
    #[inline]
    #[must_use]
    pub(crate) fn max_of(&self, b: usize) -> f64 {
        self.hi[b]
    }
}

/// A quantized training matrix: per-feature bins plus column-major `u8`
/// codes, built once per `fit` and shared by every boosting round.
///
/// # Incremental rebinning across checkpoints
///
/// NURD's online loop rebuilds its training matrix at every checkpoint,
/// but consecutive checkpoints share almost all of their rows (finished
/// tasks stay finished and their features are frozen). [`BinnedMatrix::append_from`]
/// exploits that: it re-quantizes **only the appended rows** against the
/// existing bin edges — skipping the per-feature sort that dominates
/// [`BinnedMatrix::build`] — and returns a drift statistic so the caller
/// can fall back to a full rebin when the feature distribution has moved
/// past a tolerance. Reusing the edges also keeps bin codes comparable
/// across checkpoints, which is what lets a warm-started booster keep
/// predicting through `u8` codes (see
/// `crate::FlatForest::predict_binned_extend`).
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedMatrix {
    /// Column-major codes: `codes[f * n_rows + i]` is row `i`'s bin for
    /// feature `f`.
    codes: Vec<u8>,
    n_rows: usize,
    n_features: usize,
    features: Vec<FeatureBins>,
    /// Rows the last **full** build quantized: the bin ranges describe
    /// rows `..built_rows`, and their codes are the reference distribution
    /// the drift check compares the whole column against.
    built_rows: usize,
    /// Set when an appended row carried a value a single-bin (constant or
    /// all-NaN) feature cannot represent; forces the drift statistic to
    /// `1.0` because the CDF comparison is blind to this case.
    stale_constant: bool,
}

impl BinnedMatrix {
    /// Hard upper limit on bins per feature (codes are `u8`).
    pub(crate) const MAX_BINS: usize = 256;

    /// Minimum matrix size (`rows × features`) before the build fans
    /// feature quantization out to the pool; below this, task overhead
    /// beats the sort savings.
    const PAR_MIN_CELLS: usize = 8192;

    /// Quantizes `x` into at most `max_bins` bins per feature.
    ///
    /// `max_bins` is clamped to `[2, 256]`. The view must be non-ragged
    /// (callers validate via [`MatrixView::validated_dims`]).
    #[must_use]
    pub fn build(x: MatrixView<'_>, max_bins: usize) -> Self {
        Self::build_with_pool(x, max_bins, None)
    }

    /// [`BinnedMatrix::build`] with the per-feature quantization passes
    /// (column gather, sort, cut planning, coding, ranges) fanned out as at
    /// most `tasks` chunks of features on `pool`. Every feature is
    /// processed independently into its own code column, so the result is
    /// **bit-for-bit identical** at any task count; small matrices (under
    /// `PAR_MIN_CELLS`) and `par = None` run as one chunk on the caller's
    /// thread. This is the knob behind [`crate::TreeConfig::n_threads`].
    #[must_use]
    fn build_with_pool(
        x: MatrixView<'_>,
        max_bins: usize,
        par: Option<(&nurd_runtime::ThreadPool, usize)>,
    ) -> Self {
        let n = x.rows();
        let d = x.cols();
        let max_bins = max_bins.clamp(2, Self::MAX_BINS);
        let par = par.filter(|&(_, tasks)| {
            tasks > 1 && d >= 2 && n.saturating_mul(d) >= Self::PAR_MIN_CELLS
        });
        let mut codes = vec![0u8; n * d];
        let empty = FeatureBins {
            lo: Vec::new(),
            hi: Vec::new(),
        };
        let mut features = vec![empty; d];
        // Features `first..first + bins.len()` into their code columns.
        let quantize = |first: usize, codes: &mut [u8], bins: &mut [FeatureBins]| {
            let (mut column, mut sorted, mut cuts) = (Vec::new(), Vec::new(), Vec::new());
            for (j, slot) in bins.iter_mut().enumerate() {
                x.gather_column(first + j, &mut column);
                let col_codes = &mut codes[j * n..(j + 1) * n];
                plan_cuts(&column, max_bins, &mut sorted, &mut cuts);
                for (code, &v) in col_codes.iter_mut().zip(&column) {
                    *code = code_under(&cuts, v);
                }
                *slot = ranges_from_codes(&column, col_codes, n);
            }
        };
        match par {
            Some((pool, tasks)) => {
                let per = d.div_ceil(tasks.min(d));
                let quantize = &quantize;
                pool.scope(|s| {
                    for (ci, (code_chunk, bins_chunk)) in codes
                        .chunks_mut(per * n)
                        .zip(features.chunks_mut(per))
                        .enumerate()
                    {
                        s.spawn(move || quantize(ci * per, code_chunk, bins_chunk));
                    }
                });
            }
            None => quantize(0, &mut codes, &mut features),
        }
        BinnedMatrix {
            codes,
            n_rows: n,
            n_features: d,
            features,
            built_rows: n,
            stale_constant: false,
        }
    }

    /// Builds the quantization honoring `config`'s
    /// [`n_threads`](crate::TreeConfig::n_threads) knob (sequential at the
    /// default of 1; chunks on the shared [`nurd_runtime::global`] pool
    /// otherwise). Identical output at every setting.
    #[must_use]
    pub fn build_for(x: MatrixView<'_>, config: &crate::TreeConfig) -> Self {
        Self::build_with_pool(x, Self::MAX_BINS, config.parallelism())
    }

    /// What a checkpoint has to carry of a quantization whose rows it
    /// carries too: the column-major codes, the row count of the last full
    /// build and the stale-constant flag — the arguments
    /// [`BinnedMatrix::restore`] takes back.
    #[must_use]
    pub fn parts(&self) -> (&[u8], usize, bool) {
        (&self.codes, self.built_rows, self.stale_constant)
    }

    /// Rebuilds a quantization from its [`BinnedMatrix::parts`] and the
    /// rows it quantized (`x` may have grown since; only its leading rows
    /// are read): the width is `x`'s, the row count follows from the
    /// codes, and every bin table is derived — one min/max pass per
    /// column, no sort — so a restored matrix equals the live one and no
    /// table can disagree with another or with the codes.
    ///
    /// # Errors
    ///
    /// [`nurd_codec::CodecError::LengthOverrun`] unless the codes are a
    /// positive whole number of rows of `x`'s width, at most `x.rows()` of
    /// them, and `1 <= built_rows <=` that row count.
    pub fn restore(
        codes: Vec<u8>,
        built_rows: usize,
        stale_constant: bool,
        x: MatrixView<'_>,
    ) -> Result<Self, nurd_codec::CodecError> {
        let d = x.cols();
        let n = codes.len().checked_div(d).unwrap_or(0);
        if n * d != codes.len() || n > x.rows() || !(1..=n).contains(&built_rows) {
            return Err(nurd_codec::CodecError::LengthOverrun {
                declared: codes.len() as u64,
                remaining: x.rows() * d,
            });
        }
        let mut column = Vec::new();
        let features = (0..d)
            .map(|f| {
                x.gather_column(f, &mut column);
                ranges_from_codes(&column, &codes[f * n..(f + 1) * n], built_rows)
            })
            .collect();
        Ok(BinnedMatrix {
            codes,
            n_rows: n,
            n_features: d,
            features,
            built_rows,
            stale_constant,
        })
    }

    /// Incrementally absorbs the rows appended to `x` since this matrix was
    /// last built or appended to: rows `self.rows()..x.rows()` are
    /// quantized against the **existing** bin edges (the prefix is assumed
    /// unchanged — the caller owns that invariant). No sorting, no
    /// re-planning: cost is one binary search per appended value.
    ///
    /// Returns the **drift** of the updated code distribution: the largest
    /// absolute difference, over all features and bin boundaries, between
    /// the current empirical CDF and the CDF of the rows the last full
    /// build saw (a Kolmogorov–Smirnov distance against the quantile sketch
    /// the bins encode). `0.0` means the old edges still cut the data at
    /// the same quantiles; a value above the caller's tolerance means the
    /// equal-mass property has degraded and a full [`BinnedMatrix::build`]
    /// is warranted. A feature that was constant (or all-NaN) at build
    /// time and has since seen a different value reports a drift of `1.0`,
    /// because its single inert bin can never expose the new variation.
    ///
    /// The appended codes are valid either way — edges are never mutated
    /// here — so callers may keep the matrix even past their drift
    /// tolerance; they only forgo split quality, not correctness.
    ///
    /// # Panics
    ///
    /// Panics when `x` has fewer rows than this matrix or a different
    /// feature count.
    pub fn append_from(&mut self, x: MatrixView<'_>) -> f64 {
        let old = self.n_rows;
        let new = x.rows();
        assert!(new >= old, "append_from: view lost rows ({new} < {old})");
        assert_eq!(x.cols(), self.n_features, "append_from: feature mismatch");
        if new > old {
            // Grow the column-major code store in place: shift each
            // feature's code column to its new stride, back to front.
            self.codes.resize(new * self.n_features, 0);
            for f in (1..self.n_features).rev() {
                self.codes.copy_within(f * old..(f + 1) * old, f * new);
            }
            self.n_rows = new;
            let mut cuts = [0.0; Self::MAX_BINS];
            for f in 0..self.n_features {
                let bins = &self.features[f];
                let cuts = bins.cuts_into(&mut cuts);
                // Single-bin feature: every value collapses to code 0, so
                // record here — while the raw values are still visible —
                // whether the constant stopped holding.
                let constant = if bins.n_bins() == 1 {
                    Some(bins.min_of(0))
                } else {
                    None
                };
                for i in old..new {
                    let v = x.get(i, f);
                    self.codes[f * new + i] = code_under(cuts, v);
                    if let Some(c) = constant {
                        // A NaN arrival is never staleness: NaN rides the
                        // last bin under these edges exactly as a rebuild
                        // would arrange (plan_cuts excludes NaNs from
                        // planning), even when the build column was
                        // NaN-free. A non-NaN arrival is staleness unless
                        // it equals the finite build constant (`c` is NaN
                        // for an all-NaN build column, so any real value
                        // trips it there).
                        if !v.is_nan() && v != c {
                            self.stale_constant = true;
                        }
                    }
                }
            }
        }
        self.drift()
    }

    /// The drift statistic of the current codes against the last full
    /// build (see [`BinnedMatrix::append_from`]); `0.0` right after a
    /// build. Both CDFs are read off the code columns: rows
    /// `..built_rows` are the build's, all of them are today's (NaNs count
    /// toward the last bin, where their code puts them).
    #[must_use]
    pub fn drift(&self) -> f64 {
        if self.stale_constant {
            return 1.0;
        }
        let (built, n) = (self.built_rows, self.n_rows);
        let mut worst: f64 = 0.0;
        for (f, bins) in self.features.iter().enumerate() {
            let codes = self.codes(f);
            let mut then = [0u32; Self::MAX_BINS];
            for &c in &codes[..built] {
                then[usize::from(c)] += 1;
            }
            let mut today = then;
            for &c in &codes[built..] {
                today[usize::from(c)] += 1;
            }
            let (mut was, mut now) = (0u64, 0u64);
            for b in 0..bins.n_bins() - 1 {
                was += u64::from(then[b]);
                now += u64::from(today[b]);
                let moved = now as f64 / n as f64 - was as f64 / built as f64;
                worst = worst.max(moved.abs());
            }
        }
        worst
    }

    /// Number of rows (samples).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.n_rows
    }

    /// Number of features.
    #[must_use]
    pub fn features(&self) -> usize {
        self.n_features
    }

    /// The quantization of feature `f`.
    #[must_use]
    pub fn feature_bins(&self, f: usize) -> &FeatureBins {
        &self.features[f]
    }

    /// The contiguous code column for feature `f` (one `u8` per row).
    #[inline]
    #[must_use]
    pub(crate) fn codes(&self, f: usize) -> &[u8] {
        &self.codes[f * self.n_rows..(f + 1) * self.n_rows]
    }
}

/// Plans one feature's cut points — ascending upper bin boundaries, one
/// fewer than bins — from its `column` into `cuts`; `sorted` is scratch
/// (both are cleared and refilled, so one allocation serves every
/// column).
///
/// A NaN-tolerant total order keeps the pass panic-free (matching the
/// exact builder): NaNs sort last, are excluded from planning, and
/// [`code_under`] routes them to the last bin so they ride the right child
/// in training and prediction alike. An all-NaN column gets no cut: a
/// single inert, never-splittable bin.
fn plan_cuts(column: &[f64], max_bins: usize, sorted: &mut Vec<f64>, cuts: &mut Vec<f64>) {
    sorted.clear();
    sorted.extend_from_slice(column);
    sorted.sort_by(|a, b| nan_last_cmp(*a, *b));
    sorted.truncate(sorted.partition_point(|v| !v.is_nan()));
    cuts.clear();
    // One bin per distinct value while they fit: histogram growth is then
    // *exact* — cut points are midpoints between adjacent distinct values,
    // the same candidate thresholds the exact builder enumerates.
    let mut adjacent = sorted.windows(2).filter(|w| w[0] != w[1]);
    cuts.extend(
        adjacent
            .by_ref()
            .take(max_bins)
            .map(|w| 0.5 * (w[0] + w[1])),
    );
    if cuts.len() < max_bins {
        return;
    }

    // Equal-mass quantile cuts over the training distribution. A cut is
    // only placed at a quantile index where the adjacent sorted values
    // *differ* — its midpoint then lies strictly inside a gap between
    // distinct data values, so heavy ties can neither duplicate cuts nor
    // produce empty bins (every inter-cut interval contains a data value).
    cuts.clear();
    let n = sorted.len();
    for b in 1..max_bins {
        let idx = (b * n) / max_bins;
        if idx == 0 || sorted[idx - 1] == sorted[idx] {
            continue;
        }
        let cut = 0.5 * (sorted[idx - 1] + sorted[idx]);
        if cuts.last().is_none_or(|&last| cut > last) {
            cuts.push(cut);
        }
    }
}

/// One feature's bin table from its raw `column` and code column: as many
/// bins as the highest code needs (one for a column without rows), each
/// with the smallest and largest value among rows `..built_rows` that carry
/// its code (`f64::min` / `f64::max` skip the NaNs riding the last bin).
/// The one pass the build — in both regimes — and [`BinnedMatrix::restore`]
/// fill the ranges with.
fn ranges_from_codes(column: &[f64], codes: &[u8], built_rows: usize) -> FeatureBins {
    let n_bins = codes.iter().max().map_or(1, |&c| usize::from(c) + 1);
    let mut lo = vec![f64::NAN; n_bins];
    let mut hi = vec![f64::NAN; n_bins];
    for (&v, &c) in column[..built_rows].iter().zip(codes) {
        lo[usize::from(c)] = lo[usize::from(c)].min(v);
        hi[usize::from(c)] = hi[usize::from(c)].max(v);
    }
    FeatureBins { lo, hi }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row_slices;
    use proptest::prelude::*;

    fn derived_cuts(bins: &FeatureBins) -> Vec<f64> {
        bins.cuts_into(&mut [0.0; BinnedMatrix::MAX_BINS]).to_vec()
    }

    #[test]
    fn small_distinct_sets_get_one_bin_per_value() {
        let rows: Vec<Vec<f64>> = vec![vec![3.0], vec![1.0], vec![2.0], vec![1.0], vec![3.0]];
        let binned = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&rows)), 256);
        let bins = binned.feature_bins(0);
        assert_eq!(bins.n_bins(), 3);
        assert_eq!(binned.codes(0), &[2, 0, 1, 0, 2]);
        assert_eq!(bins.min_of(1), 2.0);
        assert_eq!(bins.max_of(1), 2.0);
    }

    #[test]
    fn cut_points_are_midpoints_in_exact_regime() {
        let rows: Vec<Vec<f64>> = vec![vec![0.0], vec![10.0], vec![1.0]];
        let binned = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&rows)), 256);
        let bins = binned.feature_bins(0);
        assert_eq!(derived_cuts(bins), vec![0.5, 5.5]);
    }

    #[test]
    fn many_distinct_values_collapse_to_max_bins() {
        let rows: Vec<Vec<f64>> = (0..1000).map(|i| vec![f64::from(i)]).collect();
        let binned = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&rows)), 64);
        let bins = binned.feature_bins(0);
        assert!(bins.n_bins() <= 64);
        assert!(bins.n_bins() >= 60, "quantile cuts should not collapse");
        // Codes are monotone in the value.
        let codes = binned.codes(0);
        for i in 1..1000 {
            assert!(codes[i] >= codes[i - 1]);
        }
        // Roughly equal mass per bin.
        let mut counts = vec![0usize; bins.n_bins()];
        for &c in codes {
            counts[c as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "no empty bins");
        let max = counts.iter().max().unwrap();
        assert!(*max <= 2 * (1000 / bins.n_bins()), "max bin {max}");
    }

    #[test]
    fn heavy_ties_do_not_produce_degenerate_bins() {
        // 90% zeros, a few distinct positives — the quantile cuts all land
        // on zero and must be deduplicated.
        let mut rows: Vec<Vec<f64>> = vec![vec![0.0]; 900];
        for i in 0..300 {
            rows.push(vec![1.0 + f64::from(i)]);
        }
        let binned = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&rows)), 16);
        let bins = binned.feature_bins(0);
        assert!(bins.n_bins() >= 2);
        let mut counts = vec![0usize; bins.n_bins()];
        for &c in binned.codes(0) {
            counts[c as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "no empty bins: {counts:?}");
    }

    #[test]
    fn constant_feature_yields_single_bin() {
        let rows: Vec<Vec<f64>> = vec![vec![7.0]; 10];
        let binned = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&rows)), 256);
        assert_eq!(binned.feature_bins(0).n_bins(), 1);
        assert!(binned.codes(0).iter().all(|&c| c == 0));
    }

    #[test]
    fn a_column_without_rows_has_one_inert_bin() {
        let wide = nurd_linalg::FeatureMatrix::zeros(0, 3);
        let binned = BinnedMatrix::build(wide.view(), 16);
        assert_eq!((binned.rows(), binned.features()), (0, 3));
        assert_eq!(binned.feature_bins(2).n_bins(), 1);
        assert_eq!(binned.drift(), 0.0);
    }

    #[test]
    fn nan_features_do_not_panic_and_route_to_last_bin() {
        // NaN tolerance must match the exact builder: degraded model,
        // never a panic. NaNs are excluded from planning and coded into
        // the last bin, so they ride the right child of every split in
        // training and prediction alike.
        // Negative NaN (the default runtime NaN on x86-64, e.g. 0.0/0.0)
        // sorts *first* under f64::total_cmp — the planner must still
        // treat it as NaN-last.
        let neg_nan = f64::from_bits(0xFFF8_0000_0000_0000);
        assert!(neg_nan.is_nan() && neg_nan.is_sign_negative());
        let rows: Vec<Vec<f64>> = vec![
            vec![1.0, f64::NAN],
            vec![neg_nan, f64::NAN],
            vec![3.0, neg_nan],
            vec![2.0, f64::NAN],
        ];
        let binned = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&rows)), 256);
        let bins0 = binned.feature_bins(0);
        assert_eq!(bins0.n_bins(), 3);
        assert_eq!(binned.codes(0), &[0, 2, 2, 1]);
        // No NaN leaked into the planning: cuts and bin stats are finite.
        assert!((0..bins0.n_bins()).all(|b| bins0.min_of(b).is_finite()));
        assert!((0..bins0.n_bins()).all(|b| bins0.max_of(b).is_finite()));
        // All-NaN column collapses to one inert bin.
        assert_eq!(binned.feature_bins(1).n_bins(), 1);
        assert!(binned.codes(1).iter().all(|&c| c == 0));
    }

    #[test]
    fn append_from_matches_full_build_codes_when_stationary() {
        // Same-distribution growth: appended codes must equal what a full
        // rebuild would assign (same edges survive), and drift stays low.
        let rows: Vec<Vec<f64>> = (0..400)
            .map(|i| vec![f64::from(i % 97), f64::from((i * 13) % 31)])
            .collect();
        let mut incremental =
            BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&rows[..300])), 32);
        let drift = incremental.append_from(MatrixView::RowSlices(&row_slices(&rows)));
        assert!(drift < 0.05, "stationary drift {drift}");
        assert_eq!(incremental.rows(), 400);

        // Edges were kept, so codes for appended rows follow the *old*
        // quantization; verify against coding rows by hand.
        let old_edges = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&rows[..300])), 32);
        for f in 0..2 {
            let cuts = derived_cuts(old_edges.feature_bins(f));
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(incremental.codes(f)[i], code_under(&cuts, row[f]));
            }
        }
    }

    #[test]
    fn append_from_zero_rows_is_identity() {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![f64::from(i)]).collect();
        let mut binned = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&rows)), 16);
        let before = binned.clone();
        let drift = binned.append_from(MatrixView::RowSlices(&row_slices(&rows)));
        assert_eq!(binned, before);
        assert!(drift < 1e-12);
    }

    #[test]
    fn drift_detects_distribution_shift() {
        // Build on values in [0, 100); append a flood of values far above
        // — the old quantile edges pile everything into the last bin.
        let mut rows: Vec<Vec<f64>> = (0..200).map(|i| vec![f64::from(i % 100)]).collect();
        let mut binned = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&rows)), 16);
        for i in 0..200 {
            rows.push(vec![1000.0 + f64::from(i)]);
        }
        let drift = binned.append_from(MatrixView::RowSlices(&row_slices(&rows)));
        assert!(drift > 0.3, "shift must register, got {drift}");
        // A fresh build resets the reference.
        let rebuilt = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&rows)), 16);
        assert!(rebuilt.drift() < 1e-12);
    }

    #[test]
    fn constant_feature_turning_variable_reports_full_drift() {
        let mut rows: Vec<Vec<f64>> = vec![vec![7.0, 1.0]; 30];
        for (i, row) in rows.iter_mut().enumerate() {
            row[1] = i as f64; // keep feature 1 multi-bin
        }
        let mut binned = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&rows)), 16);
        assert_eq!(binned.feature_bins(0).n_bins(), 1);
        rows.push(vec![9.0, 3.0]);
        let drift = binned.append_from(MatrixView::RowSlices(&row_slices(&rows)));
        assert_eq!(drift, 1.0, "constant bin cannot represent 9.0");
    }

    #[test]
    fn nan_appends_to_constant_features_are_not_drift() {
        // A single-bin feature stays single-bin under a rebuild even when
        // NaNs arrive (NaNs are excluded from bin planning), so appended
        // NaNs must not trip the staleness flag — for a NaN-free constant
        // build column and for one that already mixed NaNs in.
        let mut rows: Vec<Vec<f64>> = (0..20).map(|i| vec![7.0, f64::from(i)]).collect();
        rows[3][0] = f64::NAN;
        let mut binned = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&rows)), 16);
        assert_eq!(binned.feature_bins(0).n_bins(), 1);
        rows.push(vec![f64::NAN, 5.0]);
        rows.push(vec![7.0, 9.0]);
        let drift = binned.append_from(MatrixView::RowSlices(&row_slices(&rows)));
        assert!(drift < 0.2, "NaN append misread as staleness: {drift}");
        // A genuinely new finite value still registers.
        rows.push(vec![8.0, 4.0]);
        assert_eq!(
            binned.append_from(MatrixView::RowSlices(&row_slices(&rows))),
            1.0
        );
        // All-NaN build column: a real value is new information.
        let nan_rows: Vec<Vec<f64>> = (0..10).map(|i| vec![f64::NAN, f64::from(i)]).collect();
        let mut all_nan = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&nan_rows)), 16);
        let mut grown = nan_rows.clone();
        grown.push(vec![1.0, 3.0]);
        assert_eq!(
            all_nan.append_from(MatrixView::RowSlices(&row_slices(&grown))),
            1.0
        );
    }

    #[test]
    fn incremental_append_accumulates_drift_across_calls() {
        let mut rows: Vec<Vec<f64>> = (0..100).map(|i| vec![f64::from(i)]).collect();
        let mut binned = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&rows)), 8);
        let mut last = 0.0;
        for step in 0..4 {
            for i in 0..50 {
                rows.push(vec![200.0 + f64::from(step * 50 + i)]);
            }
            last = binned.append_from(MatrixView::RowSlices(&row_slices(&rows)));
        }
        assert!(last > 0.4, "monotone out-of-range growth, drift {last}");
        assert_eq!(binned.rows(), 300);
    }

    #[test]
    fn parallel_build_is_bit_identical_to_sequential() {
        // Big enough to clear PAR_MIN_CELLS; includes ties, NaNs, and a
        // constant column so every planner branch runs under the fan-out.
        let rows: Vec<Vec<f64>> = (0..1200)
            .map(|i| {
                vec![
                    f64::from(i % 97),
                    f64::from((i * 13) % 7),
                    7.0,
                    if i % 50 == 3 {
                        f64::NAN
                    } else {
                        f64::from(i) * 0.25
                    },
                ]
            })
            .collect();
        let sequential = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&rows)), 32);
        let pool = nurd_runtime::ThreadPool::new(4);
        for tasks in [2, 3, 8] {
            let parallel = BinnedMatrix::build_with_pool(
                MatrixView::RowSlices(&row_slices(&rows)),
                32,
                Some((&pool, tasks)),
            );
            assert_eq!(parallel, sequential, "tasks = {tasks}");
        }
        // Degenerate fan-outs fall back to the sequential path.
        assert_eq!(
            BinnedMatrix::build_with_pool(
                MatrixView::RowSlices(&row_slices(&rows)),
                32,
                Some((&pool, 1))
            ),
            sequential
        );
        assert_eq!(
            BinnedMatrix::build_with_pool(MatrixView::RowSlices(&row_slices(&rows)), 32, None),
            sequential
        );
    }

    #[test]
    fn build_for_honors_tree_config_knob() {
        let rows: Vec<Vec<f64>> = (0..900)
            .map(|i| (0..10).map(|j| f64::from((i * (j + 3)) % 101)).collect())
            .collect();
        let cfg_seq = crate::TreeConfig::default();
        let cfg_par = crate::TreeConfig {
            n_threads: 4,
            ..crate::TreeConfig::default()
        };
        assert_eq!(
            BinnedMatrix::build_for(MatrixView::RowSlices(&row_slices(&rows)), &cfg_seq),
            BinnedMatrix::build_for(MatrixView::RowSlices(&row_slices(&rows)), &cfg_par)
        );
    }

    #[test]
    fn codes_agree_across_layouts() {
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![f64::from(i % 7), f64::from((i * 13) % 5)])
            .collect();
        let m = nurd_linalg::FeatureMatrix::from_rows(&rows).unwrap();
        let a = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&rows)), 256);
        let b = BinnedMatrix::build(m.view(), 256);
        assert_eq!(a, b);
    }

    proptest::proptest! {
        /// **A quantization is its codes.** Along random lives — a build
        /// on a prefix of the rows, then appends — `restore` from
        /// [`BinnedMatrix::parts`] and the rows (even rows the matrix has
        /// not absorbed yet) equals the live matrix, reports the same
        /// drift to the bit, and goes on living identically; and the cut
        /// points derived from the bin ranges are, to the bit, the ones
        /// the build coded the rows with. Columns: a small value pool with
        /// both NaN signs and both zeros, an all-NaN column, a constant
        /// that turns variable at a random row, and a column distinct in
        /// almost every row (over 256 values in the long cases).
        #[test]
        fn prop_restored_quantization_equals_live(
            seeds in proptest::collection::vec(0u32..4000, 6..420),
            built in 0usize..420,
            turn in 0usize..500,
            appends in proptest::collection::vec(1usize..60, 0..5),
            bins_pick in 0usize..3) {
            let neg_nan = f64::from_bits(0xFFF8_0000_0000_0000);
            let pool = [f64::NAN, neg_nan, -0.0, 0.0, -3.5, 0.25, 1.0, 1.0, 8.0, 1e9, -1e-9];
            let rows: Vec<Vec<f64>> = seeds
                .iter()
                .enumerate()
                .map(|(i, &s)| {
                    let s = s as usize;
                    vec![
                        pool[s % pool.len()],
                        if s.is_multiple_of(2) { f64::NAN } else { neg_nan },
                        if i < turn { 7.0 } else { pool[2 + s % 7] },
                        f64::from(s as u32) * 0.25 + i as f64 * 1e-3,
                    ]
                })
                .collect();
            let max_bins = [4, 16, 256][bins_pick];
            let mut end = 1 + built % rows.len();
            let mut live = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&rows[..end])), max_bins);

            let (mut column, mut sorted, mut cuts) = (Vec::new(), Vec::new(), Vec::new());
            for f in 0..4 {
                MatrixView::RowSlices(&row_slices(&rows[..end])).gather_column(f, &mut column);
                plan_cuts(&column, max_bins, &mut sorted, &mut cuts);
                let derived = derived_cuts(live.feature_bins(f));
                let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&derived), bits(&cuts), "feature {}", f);
            }

            for step in std::iter::once(0).chain(appends) {
                end = (end + step).min(rows.len());
                let drift = live.append_from(MatrixView::RowSlices(&row_slices(&rows[..end])));
                let (codes, built_rows, stale) = live.parts();
                // The rows may be ahead of the quantization.
                let ahead = MatrixView::RowSlices(&row_slices(&rows[..(end + 3).min(rows.len())]));
                let mut restored =
                    BinnedMatrix::restore(codes.to_vec(), built_rows, stale, ahead).unwrap();
                prop_assert_eq!(&restored, &live);
                prop_assert_eq!(restored.drift().to_bits(), drift.to_bits());
                let mut twin = live.clone();
                prop_assert_eq!(
                    restored.append_from(ahead).to_bits(),
                    twin.append_from(ahead).to_bits()
                );
                prop_assert_eq!(restored, twin);
            }
        }
    }
}
