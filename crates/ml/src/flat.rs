//! Structure-of-arrays ensemble layout for the scoring hot path.
//!
//! [`RegressionTree`] stores its nodes as a `Vec` of two-variant enums —
//! perfect for growth, hostile to inference: every traversal step pattern
//! matches a 40-byte node and chases `usize` children through an allocation
//! shared with split metadata the walk never reads. [`FlatForest`] re-lays
//! an entire fitted ensemble into parallel primitive arrays once, so the
//! per-event scoring loop of `nurd-core` touches only what it needs:
//!
//! ```text
//!            node 0   node 1   node 2  …            (all trees, contiguous)
//! feature   [  u32  ][  u32  ][  u32  ]   split feature (0 at leaves)
//! split_bin [  u8   ][  u8   ][  u8   ]   bin-code threshold (MAX at leaves)
//! threshold [  f64  ][  f64  ][  f64  ]   raw threshold (+∞ at leaves)
//! children  [u32 u32][u32 u32][u32 u32]   left/right pairs; leaves self-loop
//! value     [  f64  ][  f64  ][  f64  ]   leaf weight (0 at splits)
//! ```
//!
//! Because every leaf's children point back at the leaf itself, a walk can
//! run a **fixed** number of steps (the tree's depth) with one
//! unconditional indexed load per step — `idx = children[2·idx + go_right]`
//! — and no branch mispredicts on the routing decision. Past its leaf, a
//! short path simply treads water.
//!
//! # Bit-for-bit equivalence
//!
//! Every batch kernel accumulates leaf values *tree by tree, in ensemble
//! order*, exactly as the pointer-tree paths fold them
//! (`trees.iter().map(...).sum::<f64>()` is a left fold from `0.0`), and
//! applies `base_score + learning_rate · Σ` as the final step. Routing
//! compares are the identical expressions (`x <= threshold` on raw
//! features, `code <= split_bin` on bin codes — NaN routes right on both
//! paths). The flat kernels are therefore **bit-identical** to
//! [`RegressionTree::predict`] / [`RegressionTree::predict_binned`] sums,
//! a property pinned by this module's differential proptests and the
//! workspace-level `hot_path_equivalence` suite.

use std::ops::Range;

use nurd_linalg::MatrixView;
use nurd_runtime::ThreadPool;

use crate::binned::BinnedMatrix;
use crate::tree::{Node, RegressionTree};

/// Default number of rows the batch kernels walk per tree step
/// ([`FlatForest::set_lanes`]).
pub const DEFAULT_LANES: usize = 4;

/// The lane widths the batch kernels are compiled for.
pub const SUPPORTED_LANES: [usize; 4] = [1, 2, 4, 8];

/// A whole fitted ensemble flattened into contiguous structure-of-arrays
/// node storage (see the module docs for the layout and the equivalence
/// contract).
///
/// Build one with [`crate::GradientBoosting::flatten`] (or
/// [`FlatForest::from_trees`] for raw trees), rebuild it whenever the
/// source ensemble is refit, and score batches through
/// [`FlatForest::predict_binned_extend`] / [`FlatForest::predict_view_into`].
#[derive(Debug, Clone, Default)]
pub struct FlatForest {
    /// Split feature per node (`0` at leaves — never routed on, but kept a
    /// valid index so the fixed-depth walk's loads stay in bounds).
    feature: Vec<u32>,
    /// Raw-feature threshold per node (`+∞` at leaves).
    threshold: Vec<f64>,
    /// Bin-code threshold per node (`u8::MAX` at leaves).
    split_bin: Vec<u8>,
    /// Child pairs: `children[2i]` = left, `children[2i+1]` = right;
    /// leaves store their own index twice (the self-loop).
    children: Vec<u32>,
    /// Leaf weight per node (`0.0` at splits; splits are never read back).
    value: Vec<f64>,
    /// Root node index of each tree.
    roots: Vec<u32>,
    /// Depth of each tree — how many routing steps the fixed walk takes.
    depths: Vec<u32>,
    base_score: f64,
    learning_rate: f64,
    /// `1 + max split feature index` over all nodes (0 with no splits).
    /// Checked once per row/matrix so the walk itself can elide per-step
    /// bounds checks: every reachable node's `feature` — including the
    /// `0` stored at leaves — indexes below this.
    min_width: u32,
    /// Rows the batch kernels walk per tree step (one of
    /// [`SUPPORTED_LANES`]; see [`FlatForest::set_lanes`]). The derived
    /// `Default`'s `0` walks one row per step, like `1`.
    lanes: u32,
}

impl FlatForest {
    /// An empty forest (predicts `base_score` everywhere). Use
    /// [`FlatForest::push_tree`] to grow it; `clear` + `push_tree` recycle
    /// one instance across boosting rounds without reallocating.
    #[must_use]
    pub fn new(base_score: f64, learning_rate: f64) -> Self {
        FlatForest {
            base_score,
            learning_rate,
            lanes: DEFAULT_LANES as u32,
            ..FlatForest::default()
        }
    }

    /// Flattens an ensemble: trees in slice order (the order every
    /// pointer-path sum folds them in).
    #[must_use]
    pub fn from_trees(trees: &[RegressionTree], base_score: f64, learning_rate: f64) -> Self {
        let mut forest = FlatForest::new(base_score, learning_rate);
        for tree in trees {
            forest.push_tree(tree);
        }
        forest
    }

    /// Appends one tree's nodes to the arrays (becoming the new last tree
    /// of the ensemble-order accumulation).
    pub fn push_tree(&mut self, tree: &RegressionTree) {
        let base = self.feature.len();
        let nodes = tree.nodes();
        let bins = tree.split_bins();
        self.roots.push(base as u32);
        self.depths.push(tree.depth() as u32);
        self.feature.reserve(nodes.len());
        self.threshold.reserve(nodes.len());
        self.split_bin.reserve(nodes.len());
        self.children.reserve(2 * nodes.len());
        self.value.reserve(nodes.len());
        for (i, node) in nodes.iter().enumerate() {
            match node {
                Node::Leaf { weight } => {
                    self.feature.push(0);
                    self.threshold.push(f64::INFINITY);
                    self.split_bin.push(u8::MAX);
                    let own = (base + i) as u32;
                    self.children.push(own);
                    self.children.push(own);
                    self.value.push(*weight);
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    self.feature.push(*feature as u32);
                    self.threshold.push(*threshold);
                    self.split_bin.push(bins[i]);
                    self.children.push((base + *left) as u32);
                    self.children.push((base + *right) as u32);
                    self.value.push(0.0);
                    self.min_width = self.min_width.max(*feature as u32 + 1);
                }
            }
        }
    }

    /// Removes every tree while keeping the array capacities (and the
    /// base score / learning rate) — the boosting loop's recycle path.
    pub fn clear(&mut self) {
        self.feature.clear();
        self.threshold.clear();
        self.split_bin.clear();
        self.children.clear();
        self.value.clear();
        self.roots.clear();
        self.depths.clear();
        self.min_width = 0;
    }

    /// Number of flattened trees.
    #[must_use]
    pub fn tree_count(&self) -> usize {
        self.roots.len()
    }

    /// Total nodes across all trees.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.feature.len()
    }

    /// The constant initial score `f₀` applied by the prediction kernels.
    #[must_use]
    pub fn base_score(&self) -> f64 {
        self.base_score
    }

    /// The shrinkage applied to the accumulated leaf sum.
    #[must_use]
    pub fn learning_rate(&self) -> f64 {
        self.learning_rate
    }

    /// Rows the batch kernels walk per tree step.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes as usize
    }

    /// Sets the lane width: how many rows each batch kernel interleaves
    /// per tree step. The per-row accumulation order is identical at
    /// every width, so scores are **bit-identical** across lane widths —
    /// this knob trades only instruction-level parallelism (wider = more
    /// independent load chains in flight, more register pressure).
    ///
    /// # Panics
    ///
    /// Panics unless `lanes` is one of [`SUPPORTED_LANES`].
    pub fn set_lanes(&mut self, lanes: usize) {
        assert!(
            SUPPORTED_LANES.contains(&lanes),
            "unsupported lane width {lanes}: the kernels are compiled for {SUPPORTED_LANES:?}"
        );
        self.lanes = lanes as u32;
    }

    /// Builder-style [`FlatForest::set_lanes`].
    #[must_use]
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.set_lanes(lanes);
        self
    }

    /// Ensemble score for a single raw-feature sample — bit-identical to
    /// the pointer path `base + lr · Σ_t tree_t.predict(x)`.
    ///
    /// # Panics
    ///
    /// Panics if `features` is narrower than a split feature index.
    #[must_use]
    pub fn predict(&self, features: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (t, &root) in self.roots.iter().enumerate() {
            let mut idx = root as usize;
            for _ in 0..self.depths[t] {
                // NaN fails the compare and routes right, as on all paths.
                let go_left = features[self.feature[idx] as usize] <= self.threshold[idx];
                idx = self.children[2 * idx + 1 - usize::from(go_left)] as usize;
            }
            acc += self.value[idx];
        }
        self.base_score + self.learning_rate * acc
    }

    /// Scores every row of a matrix view into `out` (cleared and refilled
    /// — the reusable-buffer twin of `predict_view`). Bit-identical to
    /// [`crate::GradientBoosting::predict_view`] on the source ensemble.
    ///
    /// # Panics
    ///
    /// Panics if the view is narrower than a split feature index.
    pub fn predict_view_into(&self, xs: MatrixView<'_>, out: &mut Vec<f64>) {
        out.clear();
        out.resize(xs.rows(), 0.0);
        self.score_chunk(xs, out);
    }

    /// Allocating convenience wrapper over [`FlatForest::predict_view_into`].
    #[must_use]
    pub fn predict_view(&self, xs: MatrixView<'_>) -> Vec<f64> {
        let mut out = Vec::new();
        self.predict_view_into(xs, &mut out);
        out
    }

    /// Pool-parallel twin of [`FlatForest::predict_view_into`]: splits
    /// the batch into at most `max_chunks` contiguous, lane-aligned
    /// chunks and scores them concurrently on `pool` (the calling thread
    /// participates).
    ///
    /// **Bit-identical at any thread count**: every row's score is a
    /// function of that row alone (accumulated from 0.0 in ensemble
    /// order by whichever worker owns its chunk), chunk boundaries
    /// depend only on `(rows, max_chunks, lane width)` — never on
    /// scheduling — and each chunk writes its own disjoint output
    /// slice. Chunk sizes are rounded up to a lane multiple so only the
    /// final chunk has remainder rows.
    ///
    /// Falls back to the sequential path on a single-thread pool, with
    /// `max_chunks <= 1`, when the batch is smaller than one chunk, or
    /// for column-major views (no cheap contiguous row sub-slicing; the
    /// serving hot path is row-major).
    ///
    /// # Panics
    ///
    /// Panics if the view is narrower than a split feature index.
    pub fn predict_view_into_pooled(
        &self,
        xs: MatrixView<'_>,
        pool: &ThreadPool,
        max_chunks: usize,
        out: &mut Vec<f64>,
    ) {
        let rows = xs.rows();
        out.clear();
        out.resize(rows, 0.0);
        if rows == 0 {
            return;
        }
        // ceil(rows / chunks), rounded up to a lane multiple.
        let lanes = (self.lanes as usize).max(1);
        let per = rows.div_ceil(max_chunks.max(1)).div_ceil(lanes) * lanes;
        if pool.threads() <= 1 || per >= rows {
            self.score_chunk(xs, out);
            return;
        }
        match xs {
            MatrixView::Rows(r) => pool.scope(|s| {
                for (ci, chunk) in out.chunks_mut(per).enumerate() {
                    let sub = &r[ci * per..ci * per + chunk.len()];
                    s.spawn(move || self.score_chunk(MatrixView::Rows(sub), chunk));
                }
            }),
            MatrixView::RowSlices(r) => pool.scope(|s| {
                for (ci, chunk) in out.chunks_mut(per).enumerate() {
                    let sub = &r[ci * per..ci * per + chunk.len()];
                    s.spawn(move || self.score_chunk(MatrixView::RowSlices(sub), chunk));
                }
            }),
            columns => self.score_chunk(columns, out),
        }
    }

    /// Scores one contiguous chunk in place: accumulate from zero, then
    /// apply `base + lr · Σ` — the unit of work `predict_view_into`
    /// runs once and `predict_view_into_pooled` fans out.
    fn score_chunk(&self, xs: MatrixView<'_>, out: &mut [f64]) {
        self.accumulate_view(xs, 1.0, out);
        for v in out.iter_mut() {
            *v = self.base_score + self.learning_rate * *v;
        }
    }

    /// Scores the half-open row range `rows` of a binned matrix, appending
    /// one score per row to `out` — the warm-start suffix-replay kernel.
    /// Bit-identical to `base + lr · Σ_t tree_t.predict_binned(row)` per
    /// row.
    ///
    /// # Panics
    ///
    /// Panics when `rows` exceeds the matrix.
    pub fn predict_binned_extend(
        &self,
        binned: &BinnedMatrix,
        rows: Range<usize>,
        out: &mut Vec<f64>,
    ) {
        let start = out.len();
        out.resize(start + rows.len(), 0.0);
        let acc = &mut out[start..];
        self.accumulate_binned_from(binned, rows.start, 1.0, acc);
        for v in acc.iter_mut() {
            *v = self.base_score + self.learning_rate * *v;
        }
    }

    /// `scores[i] += scale · leaf_t(row i)` for every tree `t` in ensemble
    /// order, over rows `0..scores.len()` of the binned matrix — the
    /// boosting-round score-update kernel (one freshly fit tree, `scale` =
    /// learning rate). `base_score`/`learning_rate` are **not** applied.
    ///
    /// # Panics
    ///
    /// Same conditions as [`FlatForest::predict_binned_extend`].
    pub fn accumulate_binned(&self, binned: &BinnedMatrix, scale: f64, scores: &mut [f64]) {
        self.accumulate_binned_from(binned, 0, scale, scores);
    }

    /// `scores[i] += scale · leaf_t(row i)` for every tree in ensemble
    /// order, reading raw features from the view — the raw-feature twin
    /// of [`FlatForest::accumulate_binned`].
    pub fn accumulate_view(&self, xs: MatrixView<'_>, scale: f64, scores: &mut [f64]) {
        // Row-major views get a monomorphized kernel with the row slice
        // hoisted out of the walk; the (cold-path) column-major view
        // falls back to per-cell access.
        match xs {
            MatrixView::Rows(rows) => self.accumulate_rows(|i| rows[i].as_slice(), scale, scores),
            MatrixView::RowSlices(rows) => self.accumulate_rows(|i| rows[i], scale, scores),
            columns => {
                for (t, &root) in self.roots.iter().enumerate() {
                    let root = root as usize;
                    let depth = self.depths[t];
                    if depth == 0 {
                        let w = scale * self.value[root];
                        for s in scores.iter_mut() {
                            *s += w;
                        }
                        continue;
                    }
                    for (row, s) in scores.iter_mut().enumerate() {
                        let mut idx = root;
                        for _ in 0..depth {
                            let x = columns.get(row, self.feature[idx] as usize);
                            let go_left = x <= self.threshold[idx];
                            idx = self.children[2 * idx + 1 - usize::from(go_left)] as usize;
                        }
                        *s += scale * self.value[idx];
                    }
                }
            }
        }
    }

    /// Raw-feature batch walker: dispatches to the lane kernel compiled
    /// for this forest's lane width. The per-row accumulation order is
    /// the same at every width, so the choice is invisible in the output.
    fn accumulate_rows<'a>(
        &self,
        row: impl Fn(usize) -> &'a [f64],
        scale: f64,
        scores: &mut [f64],
    ) {
        match self.lanes {
            8 => self.accumulate_rows_lanes::<8>(&row, 0, scale, scores),
            4 => self.accumulate_rows_lanes::<4>(&row, 0, scale, scores),
            2 => self.accumulate_rows_lanes::<2>(&row, 0, scale, scores),
            _ => self.accumulate_rows_lanes::<1>(&row, 0, scale, scores),
        }
    }

    /// Multi-row interleaved raw-feature walker over rows
    /// `first_row .. first_row + scores.len()`: full groups of `L`
    /// consecutive rows descend every tree *together*, one step per row
    /// per iteration, as `L` independent dependency chains
    /// (`[usize; L]` cursors) the CPU can overlap — the walk is latency-
    /// bound on dependent loads, so interleaving is where the speedup
    /// comes from. Each lane keeps its own `f64` accumulator in a
    /// register across the whole ensemble and adds leaf values in
    /// ensemble order (one score store per row, not one read-modify-write
    /// per tree), so outputs are **bit-identical** at every lane width.
    /// The trailing `scores.len() % L` rows re-enter at `L = 1`, where
    /// the lane arrays collapse to the plain one-row walk. The row-fetch
    /// closure is monomorphized per view variant; `first_row` is an
    /// explicit offset because wrapping the closure for the remainder
    /// call would nest closure types without bound.
    #[allow(unsafe_code)]
    fn accumulate_rows_lanes<'a, const L: usize>(
        &self,
        row: &impl Fn(usize) -> &'a [f64],
        first_row: usize,
        scale: f64,
        scores: &mut [f64],
    ) {
        /// One fixed-depth descent of all `L` lanes, no per-step bounds
        /// checks. The per-step loop over lanes is a compile-time-sized
        /// array walk the compiler unrolls (and, on the branchless
        /// child-select, can auto-vectorize).
        ///
        /// # Safety
        ///
        /// Every `feats[l].len() >= forest.min_width`, and every
        /// `idx[l]` must be one of `forest.roots` (then each step stays
        /// on indices `push_tree` wrote: `children` entries and roots
        /// are valid node indices, and every reachable node's `feature`
        /// — `0` at self-looping leaves — is below `min_width`).
        #[inline(always)]
        unsafe fn walk<const L: usize>(
            forest: &FlatForest,
            feats: &[&[f64]; L],
            idx: &mut [usize; L],
            depth: usize,
        ) {
            for _ in 0..depth {
                for l in 0..L {
                    // SAFETY: the caller's contract above.
                    unsafe {
                        let i = idx[l];
                        let x = *feats[l].get_unchecked(*forest.feature.get_unchecked(i) as usize);
                        let go_left = x <= *forest.threshold.get_unchecked(i);
                        idx[l] = *forest
                            .children
                            .get_unchecked(2 * i + 1 - usize::from(go_left))
                            as usize;
                    }
                }
            }
        }
        let min_width = self.min_width as usize;
        let value = self.value.as_slice();
        let full = scores.len() / L;
        for g in 0..full {
            let base = g * L;
            let feats: [&[f64]; L] = std::array::from_fn(|l| row(first_row + base + l));
            for (l, f) in feats.iter().enumerate() {
                assert!(
                    f.len() >= min_width,
                    "row {} is narrower ({}) than the forest's split features ({min_width})",
                    first_row + base + l,
                    f.len()
                );
            }
            let mut acc: [f64; L] = std::array::from_fn(|l| scores[base + l]);
            for (t, &root) in self.roots.iter().enumerate() {
                let mut idx = [root as usize; L];
                let depth = self.depths[t] as usize;
                // The depth match makes the common shallow walks fully
                // unrolled fixed-trip sequences.
                // SAFETY: row widths were checked against `min_width`
                // above; `root`/`depth` come from this forest's tables.
                unsafe {
                    match depth {
                        0 => {}
                        1 => walk(self, &feats, &mut idx, 1),
                        2 => walk(self, &feats, &mut idx, 2),
                        3 => walk(self, &feats, &mut idx, 3),
                        4 => walk(self, &feats, &mut idx, 4),
                        d => walk(self, &feats, &mut idx, d),
                    }
                }
                // Per lane: one addition per tree, ensemble order — the
                // identical FP sequence at every lane width.
                for l in 0..L {
                    acc[l] += scale * value[idx[l]];
                }
            }
            scores[base..base + L].copy_from_slice(&acc);
        }
        let done = full * L;
        if done < scores.len() {
            self.accumulate_rows_lanes::<1>(row, first_row + done, scale, &mut scores[done..]);
        }
    }

    /// The shared binned walker: `scores[j] += scale · leaf(first_row + j)`
    /// per tree, ensemble order.
    fn accumulate_binned_from(
        &self,
        binned: &BinnedMatrix,
        first_row: usize,
        scale: f64,
        scores: &mut [f64],
    ) {
        assert!(
            first_row + scores.len() <= binned.rows(),
            "row range {}..{} out of bounds for {} matrix rows",
            first_row,
            first_row + scores.len(),
            binned.rows()
        );
        if scores.is_empty() {
            return;
        }
        // One slice per feature, hoisted out of the walk so the inner loop
        // is pure indexed loads (the only allocation in this kernel, a few
        // machine words per feature).
        let cols: Vec<&[u8]> = (0..binned.features()).map(|f| binned.codes(f)).collect();
        assert!(
            cols.len() >= self.min_width as usize,
            "binned matrix is narrower ({}) than the forest's split features ({})",
            cols.len(),
            self.min_width
        );
        assert!(
            cols.iter().all(|c| c.len() == binned.rows()),
            "every bin-code column must span all {} rows",
            binned.rows()
        );
        // Safety preconditions for the kernel below are established by
        // the asserts above: `cols.len() >= min_width`, every column
        // spans all rows, and `first_row + scores.len() <= rows`.
        match self.lanes {
            8 => self.accumulate_binned_lanes::<8>(&cols, first_row, scale, scores),
            4 => self.accumulate_binned_lanes::<4>(&cols, first_row, scale, scores),
            2 => self.accumulate_binned_lanes::<2>(&cols, first_row, scale, scores),
            _ => self.accumulate_binned_lanes::<1>(&cols, first_row, scale, scores),
        }
    }

    /// Multi-row interleaved binned walker: the bin-code twin of
    /// [`FlatForest::accumulate_rows_lanes`] — `L` consecutive rows
    /// descend each tree together as independent cursor chains, each
    /// lane accumulating in ensemble order (bit-identical at every lane
    /// width), remainder rows re-entering at `L = 1`.
    ///
    /// Caller (`accumulate_binned_from`) has already validated `cols`
    /// against `min_width` and the row range against the matrix.
    #[allow(unsafe_code)]
    fn accumulate_binned_lanes<const L: usize>(
        &self,
        cols: &[&[u8]],
        first_row: usize,
        scale: f64,
        scores: &mut [f64],
    ) {
        /// One fixed-depth descent of all `L` lanes (rows
        /// `row0 .. row0 + L`), no per-step bounds checks.
        ///
        /// # Safety
        ///
        /// `cols.len() >= forest.min_width` with every column at least
        /// `row0 + L` long, and every `idx[l]` must start at one of
        /// `forest.roots` (then each step stays on indices `push_tree`
        /// wrote; see [`FlatForest::accumulate_rows_lanes`]).
        #[inline(always)]
        unsafe fn walk<const L: usize>(
            forest: &FlatForest,
            cols: &[&[u8]],
            row0: usize,
            idx: &mut [usize; L],
            depth: usize,
        ) {
            for _ in 0..depth {
                for (l, ix) in idx.iter_mut().enumerate() {
                    // SAFETY: the caller's contract above.
                    unsafe {
                        let i = *ix;
                        let code = *cols
                            .get_unchecked(*forest.feature.get_unchecked(i) as usize)
                            .get_unchecked(row0 + l);
                        let go_right = code > *forest.split_bin.get_unchecked(i);
                        *ix =
                            *forest.children.get_unchecked(2 * i + usize::from(go_right)) as usize;
                    }
                }
            }
        }
        let value = self.value.as_slice();
        let full = scores.len() / L;
        for g in 0..full {
            let base = g * L;
            let row0 = first_row + base;
            let mut acc: [f64; L] = std::array::from_fn(|l| scores[base + l]);
            for (t, &root) in self.roots.iter().enumerate() {
                let mut idx = [root as usize; L];
                let depth = self.depths[t] as usize;
                // SAFETY: the caller validated widths and the row range;
                // `root`/`depth` come from this forest's tables.
                unsafe {
                    match depth {
                        0 => {}
                        1 => walk(self, cols, row0, &mut idx, 1),
                        2 => walk(self, cols, row0, &mut idx, 2),
                        3 => walk(self, cols, row0, &mut idx, 3),
                        4 => walk(self, cols, row0, &mut idx, 4),
                        d => walk(self, cols, row0, &mut idx, d),
                    }
                }
                for l in 0..L {
                    acc[l] += scale * value[idx[l]];
                }
            }
            scores[base..base + L].copy_from_slice(&acc);
        }
        let done = full * L;
        if done < scores.len() {
            self.accumulate_binned_lanes::<1>(cols, first_row + done, scale, &mut scores[done..]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GbtConfig, GradientBoosting, TreeConfig};
    use proptest::prelude::*;

    /// Deterministic pseudo-random rows with mild structure (and exact
    /// duplicates, exercising shared bin codes).
    fn rows(n: usize, d: usize, salt: u64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..d)
                    .map(|c| {
                        let h = (i as u64)
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            .wrapping_add((c as u64) << 7)
                            .wrapping_add(salt);
                        ((h >> 33) % 97) as f64 / 9.7 - 5.0
                    })
                    .collect()
            })
            .collect()
    }

    fn targets(x: &[Vec<f64>]) -> Vec<f64> {
        x.iter()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .map(|(c, v)| (c as f64 + 1.0) * v)
                    .sum()
            })
            .collect()
    }

    /// Allocating wrapper over [`FlatForest::predict_binned_extend`].
    fn predict_binned_batch(
        flat: &FlatForest,
        binned: &BinnedMatrix,
        rows: Range<usize>,
    ) -> Vec<f64> {
        let mut out = Vec::with_capacity(rows.len());
        flat.predict_binned_extend(binned, rows, &mut out);
        out
    }

    /// A shared pool for the pooled-scoring tests (spawning threads per
    /// proptest case would dominate the suite's runtime).
    fn test_pool() -> &'static ThreadPool {
        use std::sync::OnceLock;
        static POOL: OnceLock<ThreadPool> = OnceLock::new();
        POOL.get_or_init(|| ThreadPool::new(3))
    }

    #[test]
    fn lane_widths_are_bit_identical() {
        // 37 rows: indivisible by every lane width, so each kernel runs
        // full groups *and* a one-row remainder.
        let x = rows(37, 3, 23);
        let y = targets(&x);
        let cfg = GbtConfig {
            n_rounds: 12,
            ..GbtConfig::default()
        };
        let binned = BinnedMatrix::build(MatrixView::Rows(&x), cfg.tree.max_bins);
        let model = GradientBoosting::fit_binned(&binned, &y, &cfg).unwrap();
        let scalar = model.flatten().with_lanes(1);
        let raw1 = scalar.predict_view(MatrixView::Rows(&x));
        let bin1 = predict_binned_batch(&scalar, &binned, 0..x.len());
        assert_eq!(raw1, model.predict_view(MatrixView::Rows(&x)));
        for lanes in [2usize, 4, 8] {
            let flat = model.flatten().with_lanes(lanes);
            assert_eq!(flat.lanes(), lanes);
            assert_eq!(
                flat.predict_view(MatrixView::Rows(&x)),
                raw1,
                "raw kernel at {lanes} lanes"
            );
            assert_eq!(
                predict_binned_batch(&flat, &binned, 0..x.len()),
                bin1,
                "binned kernel at {lanes} lanes"
            );
        }
    }

    #[test]
    fn lane_kernels_handle_tiny_batches() {
        // Batches narrower than the lane width must run entirely on the
        // one-row remainder path, bit-identically.
        let x = rows(20, 2, 29);
        let y = targets(&x);
        let cfg = GbtConfig {
            n_rounds: 6,
            ..GbtConfig::default()
        };
        let binned = BinnedMatrix::build(MatrixView::Rows(&x), cfg.tree.max_bins);
        let model = GradientBoosting::fit_binned(&binned, &y, &cfg).unwrap();
        let flat = model.flatten().with_lanes(8);
        for n in 0..8usize {
            assert_eq!(
                flat.predict_view(MatrixView::Rows(&x[..n])),
                model.predict_view(MatrixView::Rows(&x[..n])),
                "batch of {n} rows"
            );
        }
    }

    #[test]
    #[should_panic(expected = "unsupported lane width")]
    fn set_lanes_rejects_unsupported_widths() {
        FlatForest::new(0.0, 0.1).set_lanes(3);
    }

    #[test]
    fn pooled_scoring_is_bit_identical_at_any_chunking() {
        let x = rows(101, 3, 31);
        let y = targets(&x);
        let cfg = GbtConfig {
            n_rounds: 15,
            ..GbtConfig::default()
        };
        let binned = BinnedMatrix::build(MatrixView::Rows(&x), cfg.tree.max_bins);
        let model = GradientBoosting::fit_binned(&binned, &y, &cfg).unwrap();
        let slices: Vec<&[f64]> = x.iter().map(Vec::as_slice).collect();
        for lanes in SUPPORTED_LANES {
            let flat = model.flatten().with_lanes(lanes);
            let sequential = flat.predict_view(MatrixView::Rows(&x));
            for pool in [&ThreadPool::new(1), test_pool()] {
                for max_chunks in [0usize, 1, 2, 5, 64, 1000] {
                    let mut out = vec![-7.0; 3]; // dirty buffer must be replaced
                    flat.predict_view_into_pooled(MatrixView::Rows(&x), pool, max_chunks, &mut out);
                    assert_eq!(
                        out,
                        sequential,
                        "lanes {lanes}, {} threads, {max_chunks} chunks",
                        pool.threads()
                    );
                    flat.predict_view_into_pooled(
                        MatrixView::RowSlices(&slices),
                        pool,
                        max_chunks,
                        &mut out,
                    );
                    assert_eq!(out, sequential, "row-slice view, lanes {lanes}");
                }
            }
        }
        // Empty batches are fine too.
        let flat = model.flatten();
        let mut out = vec![1.0];
        flat.predict_view_into_pooled(MatrixView::Rows(&x[..0]), test_pool(), 4, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn empty_forest_predicts_base_score() {
        let forest = FlatForest::new(2.5, 0.3);
        assert_eq!(forest.predict(&[1.0, 2.0]), 2.5);
        assert_eq!(forest.tree_count(), 0);
        let x = rows(4, 2, 1);
        let binned = BinnedMatrix::build(MatrixView::Rows(&x), 16);
        assert_eq!(predict_binned_batch(&forest, &binned, 0..4), vec![2.5; 4]);
    }

    #[test]
    fn flatten_matches_pointer_paths_bit_for_bit() {
        let x = rows(120, 3, 7);
        let y = targets(&x);
        let cfg = GbtConfig {
            n_rounds: 25,
            ..GbtConfig::default()
        };
        let binned = BinnedMatrix::build(MatrixView::Rows(&x), cfg.tree.max_bins);
        let model = GradientBoosting::fit_binned(&binned, &y, &cfg).unwrap();
        let flat = model.flatten();
        assert_eq!(flat.tree_count(), model.tree_count());
        let batch = predict_binned_batch(&flat, &binned, 0..x.len());
        for (i, row) in x.iter().enumerate() {
            assert_eq!(flat.predict(row), model.predict(row), "raw row {i}");
            assert_eq!(batch[i], model.predict(row), "binned row {i}");
        }
        assert_eq!(
            flat.predict_view(MatrixView::Rows(&x)),
            model.predict_view(MatrixView::Rows(&x))
        );
    }

    #[test]
    fn leaf_only_trees_walk_zero_steps() {
        // min_split_gain so high no split survives: every tree is a single
        // leaf (the "max-depth leaf-only" edge case — depth 0, the fixed
        // walk must not touch features at all).
        let x = rows(25, 2, 11);
        let y = targets(&x);
        let cfg = GbtConfig {
            n_rounds: 4,
            tree: TreeConfig {
                min_split_gain: f64::INFINITY,
                ..TreeConfig::default()
            },
            ..GbtConfig::default()
        };
        let binned = BinnedMatrix::build(MatrixView::Rows(&x), cfg.tree.max_bins);
        let model = GradientBoosting::fit_binned(&binned, &y, &cfg).unwrap();
        let flat = model.flatten();
        let batch = predict_binned_batch(&flat, &binned, 0..x.len());
        for (i, row) in x.iter().enumerate() {
            assert_eq!(batch[i], model.predict(row));
            // Features can be anything for a leaf-only ensemble — even empty.
            assert_eq!(flat.predict(&[]), model.predict(row));
        }
    }

    #[test]
    fn single_bin_features_route_identically() {
        // Constant columns collapse to a single bin; splits on them are
        // impossible, but the walk must still be in-bounds and identical.
        let mut x = rows(30, 3, 13);
        for row in &mut x {
            row[1] = 4.2;
        }
        let y = targets(&x);
        let cfg = GbtConfig {
            n_rounds: 8,
            ..GbtConfig::default()
        };
        let binned = BinnedMatrix::build(MatrixView::Rows(&x), cfg.tree.max_bins);
        let model = GradientBoosting::fit_binned(&binned, &y, &cfg).unwrap();
        let flat = model.flatten();
        let batch = predict_binned_batch(&flat, &binned, 0..x.len());
        for (i, row) in x.iter().enumerate() {
            assert_eq!(batch[i], model.predict(row));
        }
    }

    #[test]
    fn subranges_and_extend_agree_with_full_batch() {
        let x = rows(60, 2, 17);
        let y = targets(&x);
        let cfg = GbtConfig {
            n_rounds: 10,
            ..GbtConfig::default()
        };
        let binned = BinnedMatrix::build(MatrixView::Rows(&x), cfg.tree.max_bins);
        let model = GradientBoosting::fit_binned(&binned, &y, &cfg).unwrap();
        let flat = model.flatten();
        let full = predict_binned_batch(&flat, &binned, 0..60);
        assert_eq!(predict_binned_batch(&flat, &binned, 20..45), full[20..45]);
        assert_eq!(
            predict_binned_batch(&flat, &binned, 7..7),
            Vec::<f64>::new()
        );
        let mut out = vec![-1.0; 3];
        flat.predict_binned_extend(&binned, 10..20, &mut out);
        assert_eq!(out[..3], [-1.0; 3], "extend must not clobber the prefix");
        assert_eq!(out[3..], full[10..20]);
    }

    #[test]
    fn clear_and_push_recycle_matches_fresh_build() {
        let x = rows(50, 2, 19);
        let y = targets(&x);
        let cfg = GbtConfig {
            n_rounds: 6,
            ..GbtConfig::default()
        };
        let binned = BinnedMatrix::build(MatrixView::Rows(&x), cfg.tree.max_bins);
        let model = GradientBoosting::fit_binned(&binned, &y, &cfg).unwrap();
        let fresh = model.flatten();
        let mut recycled = FlatForest::new(model.base_score(), model.learning_rate());
        // Dirty it first, then recycle — the boosting loop's usage pattern.
        recycled.push_tree(&model.trees()[0]);
        recycled.clear();
        for tree in model.trees() {
            recycled.push_tree(tree);
        }
        assert_eq!(
            predict_binned_batch(&recycled, &binned, 0..x.len()),
            predict_binned_batch(&fresh, &binned, 0..x.len())
        );
    }

    proptest! {
        /// Differential property: across random data shapes, depths and
        /// thread hints, the flat batch kernel, the per-tree binned walk
        /// and the raw-feature walk agree bit-for-bit on the training
        /// matrix.
        #[test]
        fn prop_flat_equals_pointer_paths(
            n in 12usize..70,
            d in 1usize..4,
            depth in 1usize..6,
            rounds in 1usize..14,
            max_bins in 2usize..32,
            threads in 1usize..3,
            salt in 0u64..1000,
        ) {
            let x = rows(n, d, salt);
            let y = targets(&x);
            let cfg = GbtConfig {
                n_rounds: rounds,
                tree: TreeConfig {
                    max_depth: depth,
                    max_bins,
                    n_threads: threads,
                    ..TreeConfig::default()
                },
                ..GbtConfig::default()
            };
            let binned = BinnedMatrix::build_for(MatrixView::Rows(&x), &cfg.tree);
            let model = GradientBoosting::fit_binned(&binned, &y, &cfg).unwrap();
            let flat = model.flatten();
            let batch = predict_binned_batch(&flat, &binned, 0..n);
            for (i, row) in x.iter().enumerate() {
                prop_assert_eq!(batch[i], model.predict(row), "row {}", i);
                prop_assert_eq!(flat.predict(row), model.predict(row), "raw row {}", i);
            }
            // Every lane width (n is arbitrary, so remainder rows are
            // covered) and the pooled path agree bit-for-bit with the
            // pointer-equal batch above.
            let pointer_view = model.predict_view(MatrixView::Rows(&x));
            for lanes in SUPPORTED_LANES {
                let lf = flat.clone().with_lanes(lanes);
                prop_assert_eq!(
                    lf.predict_view(MatrixView::Rows(&x)),
                    pointer_view.clone(),
                    "raw kernel, {} lanes",
                    lanes
                );
                prop_assert_eq!(
                    predict_binned_batch(&lf, &binned, 0..n),
                    batch.clone(),
                    "binned kernel, {} lanes",
                    lanes
                );
                let mut pooled = Vec::new();
                lf.predict_view_into_pooled(
                    MatrixView::Rows(&x),
                    test_pool(),
                    3,
                    &mut pooled,
                );
                prop_assert_eq!(pooled, pointer_view.clone(), "pooled, {} lanes", lanes);
            }
        }

        /// Differential property across a warm-boost append: the rebuilt
        /// flat forest stays bit-identical to the grown pointer ensemble,
        /// on both the original prefix and the appended suffix.
        #[test]
        fn prop_flat_survives_warm_boost_rebuild(
            n in 30usize..80,
            extra in 2usize..12,
            salt in 0u64..500,
        ) {
            let x = rows(n, 2, salt);
            let y = targets(&x);
            let split = n * 2 / 3;
            let cfg = GbtConfig { n_rounds: 8, ..GbtConfig::default() };
            let mut binned = BinnedMatrix::build(MatrixView::Rows(&x[..split]), cfg.tree.max_bins);
            let prev =
                GradientBoosting::fit_binned(&binned, &y[..split], &cfg).unwrap();
            binned.append_from(MatrixView::Rows(&x));
            let mut grown = prev;
            grown.warm_boost(&binned, &y, extra, &cfg, &mut Vec::new()).unwrap();
            let flat = grown.flatten();
            prop_assert_eq!(flat.tree_count(), grown.tree_count());
            let batch = predict_binned_batch(&flat, &binned, 0..n);
            for (i, row) in x.iter().enumerate() {
                prop_assert_eq!(flat.predict(row), grown.predict(row), "raw row {}", i);
            }
            // And the batch kernel agrees with the per-tree binned walk.
            let per_tree = (0..n).map(|i| {
                grown.base_score()
                    + grown.learning_rate()
                        * grown.trees().iter()
                            .map(|t| t.predict_binned(&binned, i))
                            .sum::<f64>()
            });
            for (i, expect) in per_tree.enumerate() {
                prop_assert_eq!(batch[i], expect, "binned row {}", i);
            }
        }
    }
}
