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

/// Per-feature quantization: cut points plus per-bin value ranges.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureBins {
    /// Upper-boundary cut points between bins, length `n_bins - 1`; a value
    /// `v` lands in the first bin `b` with `v <= cuts[b]` (last bin
    /// otherwise).
    cuts: Vec<f64>,
    /// Smallest training value assigned to each bin.
    bin_min: Vec<f64>,
    /// Largest training value assigned to each bin.
    bin_max: Vec<f64>,
}

impl FeatureBins {
    /// Number of bins for this feature.
    #[must_use]
    pub fn n_bins(&self) -> usize {
        self.bin_min.len()
    }

    /// The bin code for a raw value (binary search over the cut points).
    ///
    /// NaN maps to the *last* bin so that training-time partitioning
    /// (`code <= left_bin` → left) and prediction-time routing
    /// (`NaN <= threshold` is false → right) agree: a NaN row always
    /// rides the right child in both phases, matching exact growth.
    #[inline]
    #[must_use]
    fn code_of(&self, value: f64) -> u8 {
        if value.is_nan() {
            return self.cuts.len() as u8;
        }
        // partition_point returns the count of cuts strictly below value,
        // i.e. the index of the first bin whose upper bound admits it.
        let idx = self.cuts.partition_point(|&cut| cut < value);
        debug_assert!(idx <= u8::MAX as usize);
        idx as u8
    }

    /// Smallest training value in bin `b`.
    #[inline]
    #[must_use]
    pub(crate) fn min_of(&self, b: usize) -> f64 {
        self.bin_min[b]
    }

    /// Largest training value in bin `b`.
    #[inline]
    #[must_use]
    pub(crate) fn max_of(&self, b: usize) -> f64 {
        self.bin_max[b]
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
    /// Current per-bin row counts for each feature (NaNs count toward the
    /// last bin, mirroring [`FeatureBins::code_of`]); kept up to date by
    /// [`BinnedMatrix::append_from`].
    counts: Vec<Vec<u32>>,
    /// Per-feature empirical CDF at each bin's upper boundary as of the
    /// last **full** build — the reference the drift check compares
    /// against. `build_cdf[f][b]` is the fraction of rows with code ≤ `b`.
    build_cdf: Vec<Vec<f64>>,
    /// Set when an appended row carried a value a single-bin (constant or
    /// all-NaN) feature cannot represent; forces the drift statistic to
    /// `1.0` because the CDF comparison is blind to this case.
    stale_constant: bool,
}

impl BinnedMatrix {
    /// Hard upper limit on bins per feature (codes are `u8`).
    pub(crate) const MAX_BINS: usize = 256;

    /// Minimum matrix size (`rows × features`) before
    /// [`BinnedMatrix::build_with_pool`] fans feature quantization out to
    /// the pool; below this, task overhead beats the sort savings.
    const PAR_MIN_CELLS: usize = 8192;

    /// Quantizes `x` into at most `max_bins` bins per feature.
    ///
    /// `max_bins` is clamped to `[2, 256]`. The view must be non-ragged
    /// and non-empty (callers validate via [`MatrixView::validated_dims`]).
    #[must_use]
    pub fn build(x: MatrixView<'_>, max_bins: usize) -> Self {
        let n = x.rows();
        let d = x.cols();
        let max_bins = max_bins.clamp(2, Self::MAX_BINS);
        let mut codes = vec![0u8; n * d];
        let mut features = Vec::with_capacity(d);
        let mut counts = Vec::with_capacity(d);
        let mut build_cdf = Vec::with_capacity(d);
        let mut column: Vec<f64> = Vec::with_capacity(n);
        let mut sorted: Vec<f64> = Vec::with_capacity(n);

        for f in 0..d {
            let (bins, bin_counts, cdf) = quantize_column(
                x,
                f,
                max_bins,
                &mut codes[f * n..(f + 1) * n],
                &mut column,
                &mut sorted,
            );
            build_cdf.push(cdf);
            counts.push(bin_counts);
            features.push(bins);
        }

        BinnedMatrix {
            codes,
            n_rows: n,
            n_features: d,
            features,
            counts,
            build_cdf,
            stale_constant: false,
        }
    }

    /// As [`BinnedMatrix::build`], with the per-feature quantization
    /// passes (column gather, sort, bin planning, coding) fanned out as at
    /// most `tasks` chunks on `pool`. Every feature is processed
    /// independently into its own code column, so the result is
    /// **bit-for-bit identical** to the sequential build at any task
    /// count; small matrices (under the internal `PAR_MIN_CELLS` floor of 8192
    /// cells) and `par = None` fall back to the sequential path. This is
    /// the knob behind [`crate::TreeConfig::n_threads`] — prefer
    /// [`BinnedMatrix::build_for`] unless you manage pools yourself.
    #[must_use]
    fn build_with_pool(
        x: MatrixView<'_>,
        max_bins: usize,
        par: Option<(&nurd_runtime::ThreadPool, usize)>,
    ) -> Self {
        let n = x.rows();
        let d = x.cols();
        let par = par.filter(|&(_, tasks)| {
            tasks > 1 && d >= 2 && n.saturating_mul(d) >= Self::PAR_MIN_CELLS
        });
        let Some((pool, max_tasks)) = par else {
            return Self::build(x, max_bins);
        };

        let max_bins = max_bins.clamp(2, Self::MAX_BINS);
        let mut codes = vec![0u8; n * d];
        let mut outs: Vec<Option<ColumnPlan>> = (0..d).map(|_| None).collect();
        let per = d.div_ceil(max_tasks.min(d));
        pool.scope(|s| {
            for (ci, (code_chunk, out_chunk)) in codes
                .chunks_mut(per * n)
                .zip(outs.chunks_mut(per))
                .enumerate()
            {
                let f0 = ci * per;
                s.spawn(move || {
                    let mut column: Vec<f64> = Vec::with_capacity(n);
                    let mut sorted: Vec<f64> = Vec::with_capacity(n);
                    for (j, (col_codes, slot)) in code_chunk
                        .chunks_mut(n)
                        .zip(out_chunk.iter_mut())
                        .enumerate()
                    {
                        *slot = Some(quantize_column(
                            x,
                            f0 + j,
                            max_bins,
                            col_codes,
                            &mut column,
                            &mut sorted,
                        ));
                    }
                });
            }
        });

        let mut features = Vec::with_capacity(d);
        let mut counts = Vec::with_capacity(d);
        let mut build_cdf = Vec::with_capacity(d);
        for out in outs {
            let (bins, bin_counts, cdf) = out.expect("every feature chunk quantized");
            features.push(bins);
            counts.push(bin_counts);
            build_cdf.push(cdf);
        }
        BinnedMatrix {
            codes,
            n_rows: n,
            n_features: d,
            features,
            counts,
            build_cdf,
            stale_constant: false,
        }
    }

    /// Builds the quantization honoring `config`'s
    /// [`n_threads`](crate::TreeConfig::n_threads) knob (sequential at the
    /// default of 1; chunks on the shared [`nurd_runtime::global`] pool
    /// otherwise). Identical output at every setting.
    #[must_use]
    pub fn build_for(x: MatrixView<'_>, config: &crate::TreeConfig) -> Self {
        Self::build_with_pool(x, config.max_bins, config.parallelism())
    }

    /// Incrementally absorbs the rows appended to `x` since this matrix was
    /// last built or appended to: rows `self.rows()..x.rows()` are
    /// quantized against the **existing** bin edges (the prefix is assumed
    /// unchanged — the caller owns that invariant) and the per-bin counts
    /// are updated. No sorting, no re-planning: cost is one binary search
    /// per appended value.
    ///
    /// Returns the **drift** of the updated code distribution: the largest
    /// absolute difference, over all features and bin boundaries, between
    /// the current empirical CDF and the CDF recorded at the last full
    /// build (a Kolmogorov–Smirnov distance against the quantile sketch
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
            for f in 0..self.n_features {
                let bins = &self.features[f];
                let counts = &mut self.counts[f];
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
                    let code = bins.code_of(v);
                    self.codes[f * new + i] = code;
                    counts[code as usize] += 1;
                    if let Some(c) = constant {
                        // A NaN arrival is never staleness: NaN rides the
                        // last bin under these edges exactly as a rebuild
                        // would arrange (plan_feature excludes NaNs from
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

    /// The drift statistic of the current counts against the last full
    /// build (see [`BinnedMatrix::append_from`]); `0.0` right after a
    /// build.
    #[must_use]
    pub fn drift(&self) -> f64 {
        if self.stale_constant {
            return 1.0;
        }
        let n = self.n_rows as f64;
        let mut worst: f64 = 0.0;
        for (f, counts) in self.counts.iter().enumerate() {
            let mut cum = 0u64;
            for (b, &c) in counts.iter().take(counts.len() - 1).enumerate() {
                cum += u64::from(c);
                let now = cum as f64 / n;
                let was = self.build_cdf[f][b];
                worst = worst.max((now - was).abs());
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

/// One quantized column's outputs: planned bins, per-bin counts, CDF.
type ColumnPlan = (FeatureBins, Vec<u32>, Vec<f64>);

/// Quantizes one feature column: gather, NaN-last sort, bin planning,
/// coding. Writes the column's codes into `col_codes` (length = rows) and
/// returns the planned bins with their counts and build-time CDF.
/// `column`/`sorted` are caller scratch (cleared and refilled) so the
/// sequential build reuses one allocation across features.
///
/// A NaN-tolerant total order keeps the pass panic-free (matching the
/// exact builder): NaNs sort last, are excluded from bin planning, and
/// `code_of` routes them to the last bin so they ride the right child in
/// training and prediction alike. An all-NaN column collapses to a single
/// inert, never-splittable bin.
fn quantize_column(
    x: MatrixView<'_>,
    f: usize,
    max_bins: usize,
    col_codes: &mut [u8],
    column: &mut Vec<f64>,
    sorted: &mut Vec<f64>,
) -> ColumnPlan {
    x.gather_column(f, column);
    sorted.clear();
    sorted.extend_from_slice(column);
    sorted.sort_by(|a, b| nan_last_cmp(*a, *b));
    let finite_end = sorted.partition_point(|v| !v.is_nan());
    let bins = if finite_end == 0 {
        FeatureBins {
            cuts: Vec::new(),
            bin_min: vec![f64::NAN],
            bin_max: vec![f64::NAN],
        }
    } else {
        plan_feature(&sorted[..finite_end], max_bins)
    };
    let mut bin_counts = vec![0u32; bins.n_bins()];
    for (slot, &v) in col_codes.iter_mut().zip(column.iter()) {
        *slot = bins.code_of(v);
        bin_counts[*slot as usize] += 1;
    }
    let cdf = cdf_of(&bin_counts, col_codes.len());
    (bins, bin_counts, cdf)
}

/// Cumulative distribution over bins from per-bin counts.
fn cdf_of(counts: &[u32], n: usize) -> Vec<f64> {
    let mut cum = 0u64;
    counts
        .iter()
        .map(|&c| {
            cum += u64::from(c);
            cum as f64 / n as f64
        })
        .collect()
}

/// Plans the bins for one feature from its sorted training values.
fn plan_feature(sorted: &[f64], max_bins: usize) -> FeatureBins {
    debug_assert!(!sorted.is_empty());
    let mut distinct: Vec<f64> = Vec::new();
    for &v in sorted {
        if distinct.last() != Some(&v) {
            distinct.push(v);
        }
    }

    if distinct.len() <= max_bins {
        // One bin per distinct value: histogram growth is then *exact* —
        // cut points are midpoints between adjacent distinct values, the
        // same candidate thresholds the exact builder enumerates.
        let cuts: Vec<f64> = distinct.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect();
        return FeatureBins {
            cuts,
            bin_min: distinct.clone(),
            bin_max: distinct,
        };
    }

    // Equal-mass quantile cuts over the training distribution. A cut is
    // only placed at a quantile index where the adjacent sorted values
    // *differ* — its midpoint then lies strictly inside a gap between
    // distinct data values, so heavy ties can neither duplicate cuts nor
    // produce empty bins (every inter-cut interval contains a data value).
    let n = sorted.len();
    let mut cuts: Vec<f64> = Vec::with_capacity(max_bins - 1);
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

    let n_bins = cuts.len() + 1;
    let mut bin_min = vec![f64::INFINITY; n_bins];
    let mut bin_max = vec![f64::NEG_INFINITY; n_bins];
    let probe = FeatureBins {
        cuts,
        bin_min: Vec::new(),
        bin_max: Vec::new(),
    };
    for &v in sorted {
        let b = probe.code_of(v) as usize;
        bin_min[b] = bin_min[b].min(v);
        bin_max[b] = bin_max[b].max(v);
    }
    FeatureBins {
        cuts: probe.cuts,
        bin_min,
        bin_max,
    }
}

impl nurd_codec::Checkpointable for FeatureBins {
    fn encode(&self, enc: &mut nurd_codec::Encoder) {
        self.cuts.encode(enc);
        self.bin_min.encode(enc);
        self.bin_max.encode(enc);
    }

    fn decode(dec: &mut nurd_codec::Decoder<'_>) -> Result<Self, nurd_codec::CodecError> {
        Ok(FeatureBins {
            cuts: nurd_codec::Checkpointable::decode(dec)?,
            bin_min: nurd_codec::Checkpointable::decode(dec)?,
            bin_max: nurd_codec::Checkpointable::decode(dec)?,
        })
    }
}

/// Every field travels — including the per-bin `counts` and the
/// full-build CDF reference — so the drift statistic computed after a
/// restore is identical to one computed by an uninterrupted process.
/// Decoding checks what the grower, `append_from` and `drift` index by:
/// one bin table per feature, every per-bin table of a feature the same
/// length (at most `BinnedMatrix::MAX_BINS`), every code a bin of its
/// column.
impl nurd_codec::Checkpointable for BinnedMatrix {
    fn encode(&self, enc: &mut nurd_codec::Encoder) {
        enc.put_bytes(&self.codes);
        enc.put_usize(self.n_rows);
        enc.put_usize(self.n_features);
        self.features.encode(enc);
        self.counts.encode(enc);
        self.build_cdf.encode(enc);
        enc.put_bool(self.stale_constant);
    }

    fn decode(dec: &mut nurd_codec::Decoder<'_>) -> Result<Self, nurd_codec::CodecError> {
        let codes = dec.take_bytes()?.to_vec();
        let n_rows = dec.take_usize()?;
        let n_features = dec.take_usize()?;
        if n_rows.checked_mul(n_features) != Some(codes.len()) {
            return Err(nurd_codec::CodecError::LengthOverrun {
                declared: codes.len() as u64,
                remaining: dec.remaining(),
            });
        }
        let matrix = BinnedMatrix {
            codes,
            n_rows,
            n_features,
            features: nurd_codec::Checkpointable::decode(dec)?,
            counts: nurd_codec::Checkpointable::decode(dec)?,
            build_cdf: nurd_codec::Checkpointable::decode(dec)?,
            stale_constant: dec.take_bool()?,
        };
        let overrun = |declared: usize, remaining: usize| nurd_codec::CodecError::LengthOverrun {
            declared: declared as u64,
            remaining,
        };
        let BinnedMatrix {
            features,
            counts,
            build_cdf,
            ..
        } = &matrix;
        if [features.len(), counts.len(), build_cdf.len()] != [n_features; 3] {
            return Err(overrun(features.len(), n_features));
        }
        for (f, bins) in features.iter().enumerate() {
            let n_bins = bins.n_bins();
            let tables_agree = bins.cuts.len() + 1 == n_bins
                && bins.bin_max.len() == n_bins
                && counts[f].len() == n_bins
                && build_cdf[f].len() == n_bins;
            if !tables_agree || n_bins > Self::MAX_BINS {
                return Err(overrun(n_bins, Self::MAX_BINS));
            }
            if let Some(&code) = matrix.codes(f).iter().find(|&&c| usize::from(c) >= n_bins) {
                return Err(overrun(usize::from(code), n_bins));
            }
        }
        Ok(matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(rows: &[Vec<f64>]) -> MatrixView<'_> {
        MatrixView::Rows(rows)
    }

    #[test]
    fn small_distinct_sets_get_one_bin_per_value() {
        let rows: Vec<Vec<f64>> = vec![vec![3.0], vec![1.0], vec![2.0], vec![1.0], vec![3.0]];
        let binned = BinnedMatrix::build(view(&rows), 256);
        let bins = binned.feature_bins(0);
        assert_eq!(bins.n_bins(), 3);
        assert_eq!(binned.codes(0), &[2, 0, 1, 0, 2]);
        assert_eq!(bins.min_of(1), 2.0);
        assert_eq!(bins.max_of(1), 2.0);
    }

    #[test]
    fn cut_points_are_midpoints_in_exact_regime() {
        let rows: Vec<Vec<f64>> = vec![vec![0.0], vec![10.0], vec![1.0]];
        let binned = BinnedMatrix::build(view(&rows), 256);
        let bins = binned.feature_bins(0);
        assert_eq!(bins.cuts, vec![0.5, 5.5]);
    }

    #[test]
    fn many_distinct_values_collapse_to_max_bins() {
        let rows: Vec<Vec<f64>> = (0..1000).map(|i| vec![f64::from(i)]).collect();
        let binned = BinnedMatrix::build(view(&rows), 64);
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
        let binned = BinnedMatrix::build(view(&rows), 16);
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
        let binned = BinnedMatrix::build(view(&rows), 256);
        assert_eq!(binned.feature_bins(0).n_bins(), 1);
        assert!(binned.codes(0).iter().all(|&c| c == 0));
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
        let binned = BinnedMatrix::build(view(&rows), 256);
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
        let mut incremental = BinnedMatrix::build(view(&rows[..300]), 32);
        let drift = incremental.append_from(view(&rows));
        assert!(drift < 0.05, "stationary drift {drift}");
        assert_eq!(incremental.rows(), 400);

        // Edges were kept, so codes for appended rows follow the *old*
        // quantization; verify against coding rows by hand.
        let old_edges = BinnedMatrix::build(view(&rows[..300]), 32);
        for f in 0..2 {
            let bins = old_edges.feature_bins(f);
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(incremental.codes(f)[i], bins.code_of(row[f]));
            }
        }
    }

    #[test]
    fn append_from_zero_rows_is_identity() {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![f64::from(i)]).collect();
        let mut binned = BinnedMatrix::build(view(&rows), 16);
        let before = binned.clone();
        let drift = binned.append_from(view(&rows));
        assert_eq!(binned, before);
        assert!(drift < 1e-12);
    }

    #[test]
    fn drift_detects_distribution_shift() {
        // Build on values in [0, 100); append a flood of values far above
        // — the old quantile edges pile everything into the last bin.
        let mut rows: Vec<Vec<f64>> = (0..200).map(|i| vec![f64::from(i % 100)]).collect();
        let mut binned = BinnedMatrix::build(view(&rows), 16);
        for i in 0..200 {
            rows.push(vec![1000.0 + f64::from(i)]);
        }
        let drift = binned.append_from(view(&rows));
        assert!(drift > 0.3, "shift must register, got {drift}");
        // A fresh build resets the reference.
        let rebuilt = BinnedMatrix::build(view(&rows), 16);
        assert!(rebuilt.drift() < 1e-12);
    }

    #[test]
    fn constant_feature_turning_variable_reports_full_drift() {
        let mut rows: Vec<Vec<f64>> = vec![vec![7.0, 1.0]; 30];
        for (i, row) in rows.iter_mut().enumerate() {
            row[1] = i as f64; // keep feature 1 multi-bin
        }
        let mut binned = BinnedMatrix::build(view(&rows), 16);
        assert_eq!(binned.feature_bins(0).n_bins(), 1);
        rows.push(vec![9.0, 3.0]);
        let drift = binned.append_from(view(&rows));
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
        let mut binned = BinnedMatrix::build(view(&rows), 16);
        assert_eq!(binned.feature_bins(0).n_bins(), 1);
        rows.push(vec![f64::NAN, 5.0]);
        rows.push(vec![7.0, 9.0]);
        let drift = binned.append_from(view(&rows));
        assert!(drift < 0.2, "NaN append misread as staleness: {drift}");
        // A genuinely new finite value still registers.
        rows.push(vec![8.0, 4.0]);
        assert_eq!(binned.append_from(view(&rows)), 1.0);
        // All-NaN build column: a real value is new information.
        let nan_rows: Vec<Vec<f64>> = (0..10).map(|i| vec![f64::NAN, f64::from(i)]).collect();
        let mut all_nan = BinnedMatrix::build(view(&nan_rows), 16);
        let mut grown = nan_rows.clone();
        grown.push(vec![1.0, 3.0]);
        assert_eq!(all_nan.append_from(view(&grown)), 1.0);
    }

    #[test]
    fn incremental_append_accumulates_drift_across_calls() {
        let mut rows: Vec<Vec<f64>> = (0..100).map(|i| vec![f64::from(i)]).collect();
        let mut binned = BinnedMatrix::build(view(&rows), 8);
        let mut last = 0.0;
        for step in 0..4 {
            for i in 0..50 {
                rows.push(vec![200.0 + f64::from(step * 50 + i)]);
            }
            last = binned.append_from(view(&rows));
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
        let sequential = BinnedMatrix::build(view(&rows), 32);
        let pool = nurd_runtime::ThreadPool::new(4);
        for tasks in [2, 3, 8] {
            let parallel = BinnedMatrix::build_with_pool(view(&rows), 32, Some((&pool, tasks)));
            assert_eq!(parallel, sequential, "tasks = {tasks}");
        }
        // Degenerate fan-outs fall back to the sequential path.
        assert_eq!(
            BinnedMatrix::build_with_pool(view(&rows), 32, Some((&pool, 1))),
            sequential
        );
        assert_eq!(
            BinnedMatrix::build_with_pool(view(&rows), 32, None),
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
            BinnedMatrix::build_for(view(&rows), &cfg_seq),
            BinnedMatrix::build_for(view(&rows), &cfg_par)
        );
    }

    #[test]
    fn codes_agree_across_layouts() {
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![f64::from(i % 7), f64::from((i * 13) % 5)])
            .collect();
        let m = nurd_linalg::FeatureMatrix::from_rows(&rows).unwrap();
        let a = BinnedMatrix::build(MatrixView::Rows(&rows), 256);
        let b = BinnedMatrix::build(m.view(), 256);
        assert_eq!(a, b);
    }
}
