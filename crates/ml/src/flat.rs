//! The tree ensemble: one structure-of-arrays node store that the grower
//! writes, every scorer reads and the codec serializes.
//!
//! There is no per-tree node type. A fitted ensemble *is* a
//! [`FlatForest`]: the tree grower (`tree.rs`) appends leaves and splits
//! straight into parallel primitive arrays, tree after tree, and the
//! warm-boost replay, barrier scoring in `nurd-core` and the reference
//! walk all read those same arrays (a boosting round's own score update
//! needs no walk: the grower knows which rows each new leaf holds):
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
//! A tree's nodes are contiguous and in **pre-order**: its root comes
//! first and every child sits after its parent. Because every leaf's
//! children point back at the leaf itself, a walk can run a **fixed**
//! number of steps (the tree's depth) with one unconditional indexed load
//! per step — `idx = children[2·idx + go_right]` — and no branch
//! mispredicts on the routing decision. Past its leaf, a short path simply
//! treads water.
//!
//! # Where the walkers' invariant is established
//!
//! Every walker indexes with bounds checks. What keeps them from ever
//! failing is that every `children` entry a walk can reach is a node of
//! the same forest and every node's `feature` is below `min_width`, which
//! the raw-feature lane kernel asserts once per row. Nodes enter the
//! arrays in two places only, both inside this crate (the emission methods are
//! `pub(crate)`): the grower, which emits children it has just pushed and
//! features of the matrix it trains on, and [`FlatForest`]'s decoder,
//! which rejects — with a typed error, before emitting — any child outside
//! its own tree or not after its parent and any feature whose `+ 1` does
//! not fit `u32`, and recomputes depths and `min_width` itself instead of
//! reading them. Neither is taken on trust: `set_split` raises `min_width`
//! itself and refuses to touch a finished tree, and `finish_tree` records
//! a root only over nodes whose children it has checked to be that tree's
//! own.
//!
//! # One accumulation order
//!
//! Every kernel accumulates leaf values *tree by tree, in ensemble order*
//! from `0.0` and applies `base_score + shrinkage · Σ` as the final
//! step; routing compares are the same expressions everywhere
//! (`x <= threshold` on raw features, `code <= split_bin` on bin codes —
//! NaN routes right). The batch kernels are therefore **bit-identical** at
//! every lane width and chunking to the safe one-row walk
//! [`FlatForest::predict`] — the bounds-checked, lane-free reference that
//! [`crate::GradientBoosting::predict_view`] maps over rows — a property
//! pinned by this module's differential proptests (against a walker that
//! shares nothing with the kernels) and the workspace-level
//! `hot_path_equivalence` suite.

use std::ops::Range;

use nurd_codec::CodecError;
use nurd_linalg::MatrixView;
use nurd_runtime::ThreadPool;

use crate::binned::BinnedMatrix;

/// Default number of rows the batch kernels walk per tree step
/// (`FlatForest::set_lanes`).
pub const DEFAULT_LANES: usize = 4;

/// The lane widths the batch kernels are compiled for.
pub const SUPPORTED_LANES: [usize; 4] = [1, 2, 4, 8];

/// A tree ensemble in contiguous structure-of-arrays node storage (see
/// the module docs for the layout, who writes it and the equivalence
/// contract).
///
/// [`crate::GradientBoosting`] owns one and grows it in place
/// ([`crate::GradientBoosting::forest`] lends it out); score batches
/// through [`FlatForest::predict_view_into`] /
/// `FlatForest::predict_binned_extend`.
#[derive(Debug, Clone)]
pub struct FlatForest {
    /// Split feature per node (`0` at leaves — never routed on, but kept a
    /// valid index so the fixed-depth walk's loads stay in bounds).
    feature: Vec<u32>,
    /// Raw-feature threshold per node (`+∞` at leaves).
    threshold: Vec<f64>,
    /// Bin-code threshold per node: the highest bin code routed left in
    /// the [`BinnedMatrix`] the tree was trained against (`u8::MAX` at
    /// leaves).
    split_bin: Vec<u8>,
    /// Child pairs: `children[2i]` = left, `children[2i+1]` = right;
    /// leaves store their own index twice (the self-loop).
    children: Vec<u32>,
    /// Leaf weight per node (`0.0` at splits; splits are never read back).
    value: Vec<f64>,
    /// Root node index of each tree — the first of its nodes.
    roots: Vec<u32>,
    /// Depth of each tree — how many routing steps the fixed walk takes.
    depths: Vec<u32>,
    /// Nodes `0..sealed` belong to finished trees and never change again;
    /// the rest are the tree being emitted, which no walk can reach yet.
    sealed: usize,
    base_score: f64,
    shrinkage: f64,
    /// `1 + max split feature index` over all nodes (0 with no splits).
    /// Checked once per row by the lane kernel, so a row too narrow for
    /// the forest fails with a message rather than a bare index panic:
    /// every node's `feature` — including the `0` stored at leaves —
    /// indexes below this.
    min_width: u32,
    /// Rows the batch kernels walk per tree step (one of
    /// [`SUPPORTED_LANES`]; see [`FlatForest::set_lanes`]).
    lanes: u32,
}

/// `feature + 1` as `min_width` stores it, when a split feature fits the
/// arrays at all.
fn split_width(feature: usize) -> Option<u32> {
    u32::try_from(feature).ok()?.checked_add(1)
}

impl FlatForest {
    /// An empty forest (predicts `base_score` everywhere) at the default
    /// lane width.
    #[must_use]
    pub(crate) fn new(base_score: f64, shrinkage: f64) -> Self {
        FlatForest {
            feature: Vec::new(),
            threshold: Vec::new(),
            split_bin: Vec::new(),
            children: Vec::new(),
            value: Vec::new(),
            roots: Vec::new(),
            depths: Vec::new(),
            sealed: 0,
            base_score,
            shrinkage,
            min_width: 0,
            lanes: DEFAULT_LANES as u32,
        }
    }

    /// Appends a leaf — a node whose children are itself — and returns its
    /// index. A split starts life as a leaf and is patched by
    /// [`FlatForest::set_split`] once its children exist (the grower) or
    /// its record has been read (the decoder), which keeps a tree's nodes
    /// in pre-order.
    pub(crate) fn push_leaf(&mut self, weight: f64) -> usize {
        let at = self.feature.len();
        let own = u32::try_from(at).expect("node indices fit u32");
        self.feature.push(0);
        self.threshold.push(f64::INFINITY);
        self.split_bin.push(u8::MAX);
        self.children.extend([own, own]);
        self.value.push(weight);
        at
    }

    /// Turns node `at` of the tree being emitted into a split on `feature`
    /// whose children are nodes `left` and `right`
    /// ([`FlatForest::finish_tree`] checks them once they all exist).
    ///
    /// # Panics
    ///
    /// Panics when `at` belongs to a finished tree or `feature + 1` does
    /// not fit `u32`.
    pub(crate) fn set_split(
        &mut self,
        at: usize,
        feature: usize,
        threshold: f64,
        split_bin: u8,
        left: usize,
        right: usize,
    ) {
        assert!(at >= self.sealed, "finished trees are immutable");
        let width = split_width(feature).expect("split feature leaves room for min_width");
        self.feature[at] = width - 1;
        self.threshold[at] = threshold;
        self.split_bin[at] = split_bin;
        self.children[2 * at] = left as u32;
        self.children[2 * at + 1] = right as u32;
        self.value[at] = 0.0;
        self.min_width = self.min_width.max(width);
    }

    /// Closes the tree made of every node emitted since the last one was
    /// closed, `depth` routing steps deep; it becomes the last tree of the
    /// ensemble-order accumulation. This is where the walkers' invariant
    /// is enforced for every writer: a root is only ever recorded over
    /// nodes whose children are all nodes of that same tree.
    ///
    /// # Panics
    ///
    /// Panics on an empty tree or a child outside the tree.
    pub(crate) fn finish_tree(&mut self, depth: usize) {
        let nodes = self.sealed..self.feature.len();
        assert!(!nodes.is_empty(), "a tree has at least a root");
        assert!(
            self.children[2 * nodes.start..]
                .iter()
                .all(|&child| nodes.contains(&(child as usize))),
            "a tree's children must be its own nodes"
        );
        self.roots.push(nodes.start as u32);
        self.depths.push(depth as u32);
        self.sealed = nodes.end;
    }

    /// The node range of tree `t`.
    fn tree_nodes(&self, t: usize) -> Range<usize> {
        let end = self.roots.get(t + 1).map_or(self.sealed, |&r| r as usize);
        self.roots[t] as usize..end
    }

    /// Number of trees.
    #[must_use]
    pub fn tree_count(&self) -> usize {
        self.roots.len()
    }

    /// The shrinkage every tree's leaf values are summed under.
    pub(crate) fn shrinkage(&self) -> f64 {
        self.shrinkage
    }

    /// Whether rows (or a binned matrix) `width` features wide cover every
    /// split feature — what the kernels assert before walking.
    pub(crate) fn fits_width(&self, width: usize) -> bool {
        width >= self.min_width as usize
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
    pub(crate) fn set_lanes(&mut self, lanes: usize) {
        assert!(
            SUPPORTED_LANES.contains(&lanes),
            "unsupported lane width {lanes}: the kernels are compiled for {SUPPORTED_LANES:?}"
        );
        self.lanes = lanes as u32;
    }

    /// Builder-style `FlatForest::set_lanes`.
    #[must_use]
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.set_lanes(lanes);
        self
    }

    /// Ensemble score for a single raw-feature sample: the safe one-row
    /// walk — every load bounds-checked, no lanes — that the batch kernels
    /// are held bit-identical to.
    ///
    /// # Panics
    ///
    /// Panics if `features` is narrower than a split feature index.
    #[must_use]
    pub(crate) fn predict(&self, features: &[f64]) -> f64 {
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
        self.base_score + self.shrinkage * acc
    }

    /// Scores every row of a matrix view into `out` (cleared and refilled
    /// — the reusable-buffer twin of `predict_view`). Bit-identical to
    /// `FlatForest::predict` on every row.
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
        let lanes = self.lanes as usize;
        let per = rows.div_ceil(max_chunks.max(1)).div_ceil(lanes) * lanes;
        if pool.threads() <= 1 || per >= rows {
            self.score_chunk(xs, out);
            return;
        }
        match xs {
            MatrixView::RowSlices(r) => pool.scope(|s| {
                for (ci, chunk) in out.chunks_mut(per).enumerate() {
                    let sub = &r[ci * per..ci * per + chunk.len()];
                    s.spawn(move || self.score_chunk(MatrixView::RowSlices(sub), chunk));
                }
            }),
            columns => self.score_chunk(columns, out),
        }
    }

    /// Scores one contiguous chunk (zeroed on entry) in place — the unit
    /// of work `predict_view_into` runs once and
    /// `predict_view_into_pooled` fans out. Row-major views get a
    /// monomorphized lane kernel with the row slice hoisted out of the
    /// walk, then `base + lr · Σ`; column-major storage (never the serving
    /// path) has no row slices to lend and takes the one-row walk.
    fn score_chunk(&self, xs: MatrixView<'_>, out: &mut [f64]) {
        match xs {
            MatrixView::RowSlices(rows) => self.accumulate_rows(|i| rows[i], out),
            columns => return self.predict_each(columns, out),
        }
        for v in out.iter_mut() {
            *v = self.base_score + self.shrinkage * *v;
        }
    }

    /// [`FlatForest::predict`] mapped over the rows of any layout (a
    /// column-major row is gathered first) — the reference walk behind
    /// [`crate::GradientBoosting::predict_view`].
    pub(crate) fn predict_each(&self, xs: MatrixView<'_>, out: &mut [f64]) {
        let mut gathered = Vec::new();
        for (i, score) in out.iter_mut().enumerate() {
            *score = self.predict(xs.row_slice(i).unwrap_or_else(|| {
                gathered.resize(xs.cols(), 0.0);
                xs.row_into(i, &mut gathered);
                &gathered
            }));
        }
    }

    /// Scores the half-open row range `rows` of a binned matrix, appending
    /// one score per row to `out` — the warm-start suffix-replay kernel.
    /// Rows route by `u8` bin code against the matrix the trees were
    /// trained on (or one grown from it by [`BinnedMatrix::append_from`],
    /// which preserves the bin edges): identical to raw-feature routing
    /// for every value the training edges quantized (thresholds sit
    /// strictly between adjacent bins); a row appended later may differ
    /// only inside a bin that was empty at that node during training — a
    /// tie-break zone where neither routing is more correct.
    ///
    /// # Panics
    ///
    /// Panics when `rows` exceeds the matrix or the matrix is narrower
    /// than a split feature index.
    pub(crate) fn predict_binned_extend(
        &self,
        binned: &BinnedMatrix,
        rows: Range<usize>,
        out: &mut Vec<f64>,
    ) {
        assert!(
            rows.end <= binned.rows(),
            "row range {rows:?} out of bounds for {} matrix rows",
            binned.rows()
        );
        out.extend(rows.map(|row| {
            let mut acc = 0.0;
            for (t, &root) in self.roots.iter().enumerate() {
                let mut idx = root as usize;
                for _ in 0..self.depths[t] {
                    let code = binned.codes(self.feature[idx] as usize)[row];
                    let go_right = code > self.split_bin[idx];
                    idx = self.children[2 * idx + usize::from(go_right)] as usize;
                }
                acc += self.value[idx];
            }
            self.base_score + self.shrinkage * acc
        }));
    }

    /// Raw-feature batch walker: dispatches to the lane kernel compiled
    /// for this forest's lane width. The per-row accumulation order is
    /// the same at every width, so the choice is invisible in the output.
    fn accumulate_rows<'a>(&self, row: impl Fn(usize) -> &'a [f64], scores: &mut [f64]) {
        match self.lanes {
            8 => self.accumulate_rows_lanes::<8>(&row, 0, scores),
            4 => self.accumulate_rows_lanes::<4>(&row, 0, scores),
            2 => self.accumulate_rows_lanes::<2>(&row, 0, scores),
            _ => self.accumulate_rows_lanes::<1>(&row, 0, scores),
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
    fn accumulate_rows_lanes<'a, const L: usize>(
        &self,
        row: &impl Fn(usize) -> &'a [f64],
        first_row: usize,
        scores: &mut [f64],
    ) {
        /// One fixed-depth descent of all `L` lanes. The per-step loop
        /// over lanes is a compile-time-sized array walk the compiler
        /// unrolls (and, on the branchless child-select, can
        /// auto-vectorize). Every index stays on what the grower emitted
        /// or the decoder validated (see the module docs), so the bounds
        /// checks never fail.
        #[inline(always)]
        fn walk<const L: usize>(
            forest: &FlatForest,
            feats: &[&[f64]; L],
            idx: &mut [usize; L],
            depth: usize,
        ) {
            for _ in 0..depth {
                for l in 0..L {
                    let i = idx[l];
                    let go_left = feats[l][forest.feature[i] as usize] <= forest.threshold[i];
                    idx[l] = forest.children[2 * i + 1 - usize::from(go_left)] as usize;
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
                match depth {
                    0 => {}
                    1 => walk(self, &feats, &mut idx, 1),
                    2 => walk(self, &feats, &mut idx, 2),
                    3 => walk(self, &feats, &mut idx, 3),
                    4 => walk(self, &feats, &mut idx, 4),
                    d => walk(self, &feats, &mut idx, d),
                }
                // Per lane: one addition per tree, ensemble order — the
                // identical FP sequence at every lane width.
                for l in 0..L {
                    acc[l] += value[idx[l]];
                }
            }
            scores[base..base + L].copy_from_slice(&acc);
        }
        let done = full * L;
        if done < scores.len() {
            self.accumulate_rows_lanes::<1>(row, first_row + done, &mut scores[done..]);
        }
    }
}

/// The ensemble in snapshot format v4, unchanged from when trees were a
/// `Vec` of tagged nodes and written straight from the arrays:
/// `base_score`, `shrinkage`, the tree count, and per tree its node
/// count, the nodes (`0` + weight for a leaf; `1` + feature, threshold and
/// the two children as *tree-relative* indices for a split) and the
/// length-prefixed bin codes. Decoding is the one place nodes enter from
/// outside the grower, so it is where everything the lane walker
/// indexes by is checked — once, with a typed error — and where the derived
/// fields (`depths`, `min_width`) are recomputed rather than believed.
impl nurd_codec::Checkpointable for FlatForest {
    fn encode(&self, enc: &mut nurd_codec::Encoder) {
        enc.put_f64(self.base_score);
        enc.put_f64(self.shrinkage);
        enc.put_usize(self.roots.len());
        for t in 0..self.roots.len() {
            let nodes = self.tree_nodes(t);
            enc.put_usize(nodes.len());
            for i in nodes.clone() {
                let (left, right) = (self.children[2 * i], self.children[2 * i + 1]);
                if left as usize == i {
                    enc.put_u8(0);
                    enc.put_f64(self.value[i]);
                } else {
                    enc.put_u8(1);
                    enc.put_usize(self.feature[i] as usize);
                    enc.put_f64(self.threshold[i]);
                    enc.put_usize(left as usize - nodes.start);
                    enc.put_usize(right as usize - nodes.start);
                }
            }
            enc.put_bytes(&self.split_bin[nodes]);
        }
    }

    fn decode(dec: &mut nurd_codec::Decoder<'_>) -> Result<Self, CodecError> {
        let mut forest = FlatForest::new(dec.take_f64()?, dec.take_f64()?);
        let mut height = Vec::new();
        for _ in 0..dec.take_len(1)? {
            forest.decode_tree(dec, &mut height)?;
        }
        Ok(forest)
    }
}

impl FlatForest {
    /// Decodes one tree onto the end of the arrays, rejecting: an empty
    /// tree (or one that would push node indices past `u32`); a child that
    /// is not a later node of the same tree — pre-order, hence acyclic and
    /// in range; a split feature whose `+ 1` does not fit `u32`; a bin
    /// byte count other than the node count. `height` is scratch.
    fn decode_tree(
        &mut self,
        dec: &mut nurd_codec::Decoder<'_>,
        height: &mut Vec<u32>,
    ) -> Result<(), CodecError> {
        let overrun = |declared: usize, remaining: usize| CodecError::LengthOverrun {
            declared: declared as u64,
            remaining,
        };
        let n = dec.take_len(9)?; // tag + at least an f64 per node
        let root = self.feature.len();
        if n == 0 || u32::try_from(root + n).is_err() {
            return Err(overrun(n, dec.remaining()));
        }
        for i in 0..n {
            match dec.take_u8()? {
                0 => {
                    self.push_leaf(dec.take_f64()?);
                }
                1 => {
                    let feature = dec.take_usize()?;
                    let threshold = dec.take_f64()?;
                    let (left, right) = (dec.take_usize()?, dec.take_usize()?);
                    if split_width(feature).is_none() {
                        return Err(overrun(feature, u32::MAX as usize));
                    }
                    if let Some(&child) = [left, right].iter().find(|&&c| c <= i || c >= n) {
                        return Err(overrun(child, n));
                    }
                    let at = self.push_leaf(0.0);
                    self.set_split(at, feature, threshold, u8::MAX, root + left, root + right);
                }
                tag => {
                    return Err(CodecError::InvalidTag {
                        what: "FlatForest node",
                        tag,
                    })
                }
            }
        }
        let bins = dec.take_bytes()?;
        if bins.len() != n {
            return Err(overrun(bins.len(), n));
        }
        self.split_bin[root..].copy_from_slice(bins);
        // Children come after their parent, so one reverse pass has every
        // child's height before its parent's: no recursion, no trust.
        height.clear();
        height.resize(n, 0);
        for i in (0..n).rev() {
            let at = root + i;
            let (left, right) = (self.children[2 * at], self.children[2 * at + 1]);
            if left as usize != at {
                let below = height[left as usize - root].max(height[right as usize - root]);
                height[i] = below + 1;
            }
        }
        self.finish_tree(height[0] as usize);
        Ok(())
    }
}

/// What the sibling modules' tests need to see of a forest.
#[cfg(test)]
impl FlatForest {
    /// `(feature, threshold)` of every split node, array order.
    pub(crate) fn splits(&self) -> Vec<(usize, f64)> {
        (0..self.feature.len())
            .filter(|&i| self.children[2 * i] as usize != i)
            .map(|i| (self.feature[i] as usize, self.threshold[i]))
            .collect()
    }

    pub(crate) fn leaf_count(&self) -> usize {
        self.feature.len() - self.splits().len()
    }

    /// Depth of the deepest tree.
    pub(crate) fn max_depth(&self) -> usize {
        self.depths.iter().max().map_or(0, |&d| d as usize)
    }

    /// Array-for-array equality of every tree — leaf weights by their bits
    /// (`-0.0` is not `0.0`), except that any NaN equals any NaN: which
    /// operand's payload an addition of two NaNs keeps is the compiler's
    /// choice. The bin codes — a cache tied to one training matrix, which
    /// the sort-based oracle does not have — only when `bins` is set.
    pub(crate) fn assert_same_trees(&self, want: &FlatForest, bins: bool, what: &str) {
        assert_eq!(self.feature, want.feature, "features: {what}");
        assert_eq!(self.threshold, want.threshold, "thresholds: {what}");
        assert_eq!(self.children, want.children, "children: {what}");
        let bits = |values: &[f64]| -> Vec<u64> {
            let canonical = |v: &f64| if v.is_nan() { f64::NAN } else { *v }.to_bits();
            values.iter().map(canonical).collect()
        };
        assert_eq!(bits(&self.value), bits(&want.value), "values: {what}");
        assert_eq!(self.roots, want.roots, "roots: {what}");
        assert_eq!(self.depths, want.depths, "depths: {what}");
        assert_eq!(self.min_width, want.min_width, "min_width: {what}");
        if bins {
            assert_eq!(self.split_bin, want.split_bin, "bin codes: {what}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row_slices;
    use crate::{GbtConfig, GradientBoosting, SquaredLoss, TreeConfig};
    use nurd_codec::{Checkpointable, Decoder, Encoder};
    use proptest::prelude::*;

    /// The oracle every kernel is held to. It follows `children` from a
    /// root until a node self-loops, and sums the leaves in ensemble order:
    /// no `depths`, no lanes — nothing shared with the walks
    /// under test but the arrays themselves.
    fn oracle_leaf(f: &FlatForest, root: u32, go_left: &impl Fn(usize) -> bool) -> f64 {
        let mut at = root as usize;
        while f.children[2 * at] as usize != at {
            at = f.children[2 * at + usize::from(!go_left(at))] as usize;
        }
        f.value[at]
    }

    fn oracle(f: &FlatForest, go_left: impl Fn(usize) -> bool) -> f64 {
        let leaves = f.roots.iter().map(|&root| oracle_leaf(f, root, &go_left));
        f.base_score + f.shrinkage * leaves.fold(0.0, |sum, leaf| sum + leaf)
    }

    fn oracle_raw(f: &FlatForest, row: &[f64]) -> f64 {
        oracle(f, |at| row[f.feature[at] as usize] <= f.threshold[at])
    }

    fn oracle_binned(f: &FlatForest, binned: &BinnedMatrix, row: usize) -> f64 {
        oracle(f, |at| {
            binned.codes(f.feature[at] as usize)[row] <= f.split_bin[at]
        })
    }

    /// Deterministic pseudo-random rows: 97 values per column (so exact
    /// duplicates, exercising shared bin codes), columns independent of
    /// each other (so trees split on all of them).
    fn rows(n: usize, d: usize, salt: u64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..d)
                    .map(|c| {
                        let h = ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            ^ (c as u64 + 1).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
                        .wrapping_add(salt)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
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

    /// A model fit over `x` quantized at the config's bin budget.
    fn fit(x: &[Vec<f64>], cfg: &GbtConfig) -> (BinnedMatrix, GradientBoosting<SquaredLoss>) {
        let binned = BinnedMatrix::build_for(MatrixView::RowSlices(&row_slices(x)), &cfg.tree);
        let model = GradientBoosting::fit_binned(&binned, &targets(x), cfg).unwrap();
        (binned, model)
    }

    fn rounds(n_rounds: usize) -> GbtConfig {
        GbtConfig {
            n_rounds,
            ..GbtConfig::default()
        }
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

    /// Every way to score `x` — the safe one-row walk, the model's
    /// `predict_view`, the raw and binned lane kernels at every width, the
    /// pooled chunking — against the oracle walk, bit for bit. `trained`
    /// is how many leading rows of `x` the trees were grown on: binned
    /// routing is only pinned to raw routing there.
    fn assert_every_kernel_matches_the_oracle(
        model: &GradientBoosting<SquaredLoss>,
        binned: &BinnedMatrix,
        x: &[Vec<f64>],
        trained: usize,
    ) {
        let forest = model.forest();
        let raw: Vec<f64> = x.iter().map(|row| oracle_raw(forest, row)).collect();
        let coded: Vec<f64> = (0..x.len())
            .map(|i| oracle_binned(forest, binned, i))
            .collect();
        assert_eq!(raw[..trained], coded[..trained], "raw vs bin-code routing");
        for (i, row) in x.iter().enumerate() {
            assert_eq!(forest.predict(row), raw[i], "one-row walk, row {i}");
            assert_eq!(model.predict(row), raw[i], "model one-row walk, row {i}");
        }
        assert_eq!(
            model.predict_view(MatrixView::RowSlices(&row_slices(x))),
            raw
        );
        let columns = nurd_linalg::FeatureMatrix::from_rows(x).unwrap();
        assert_eq!(model.predict_view(columns.view()), raw, "gathered rows");
        assert_eq!(forest.predict_view(columns.view()), raw, "column walk");
        let slices: Vec<&[f64]> = x.iter().map(Vec::as_slice).collect();
        for lanes in SUPPORTED_LANES {
            let lf = forest.clone().with_lanes(lanes);
            assert_eq!(lf.lanes as usize, lanes);
            assert_eq!(
                lf.predict_view(MatrixView::RowSlices(&row_slices(x))),
                raw,
                "{lanes} lanes"
            );
            assert_eq!(
                predict_binned_batch(&lf, binned, 0..x.len()),
                coded,
                "binned kernel, {lanes} lanes"
            );
            for max_chunks in [1usize, 3, 64] {
                let mut out = vec![-7.0; 3]; // dirty buffer must be replaced
                lf.predict_view_into_pooled(
                    MatrixView::RowSlices(&row_slices(x)),
                    test_pool(),
                    max_chunks,
                    &mut out,
                );
                assert_eq!(out, raw, "pooled, {lanes} lanes, {max_chunks} chunks");
                let view = MatrixView::RowSlices(&slices);
                lf.predict_view_into_pooled(view, test_pool(), max_chunks, &mut out);
                assert_eq!(out, raw, "pooled row slices, {lanes} lanes");
            }
        }
    }

    #[test]
    fn every_kernel_matches_the_oracle_walk() {
        // 37 and 101 rows: indivisible by every lane width, so each kernel
        // runs full groups *and* a one-row remainder. 256 × 8 at 50 rounds
        // is a serving-size head over a plausible running-set batch.
        for (n, d, n_rounds) in [(37, 3, 12), (101, 3, 15), (120, 3, 25), (256, 8, 50)] {
            let x = rows(n, d, 23);
            let (binned, model) = fit(&x, &rounds(n_rounds));
            assert_eq!(model.forest().tree_count(), n_rounds);
            assert_every_kernel_matches_the_oracle(&model, &binned, &x, n);
        }
    }

    #[test]
    fn lane_kernels_handle_tiny_batches() {
        // Batches narrower than the lane width must run entirely on the
        // one-row remainder path, bit-identically.
        let x = rows(20, 2, 29);
        let (_, model) = fit(&x, &rounds(6));
        let flat = model.forest().clone().with_lanes(8);
        for n in 0..8usize {
            let want: Vec<f64> = x[..n].iter().map(|r| oracle_raw(&flat, r)).collect();
            assert_eq!(
                flat.predict_view(MatrixView::RowSlices(&row_slices(&x[..n]))),
                want,
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
    #[should_panic(expected = "a tree's children must be its own nodes")]
    fn a_root_is_never_recorded_over_a_child_outside_its_tree() {
        // The first tree is fine; the second points back into it.
        let mut forest = FlatForest::new(0.0, 1.0);
        forest.push_leaf(1.0);
        forest.finish_tree(0);
        let at = forest.push_leaf(0.0);
        let right = forest.push_leaf(2.0);
        forest.set_split(at, 0, 0.5, 0, 0, right);
        forest.finish_tree(1);
    }

    #[test]
    #[should_panic(expected = "finished trees are immutable")]
    fn a_finished_tree_cannot_be_rewired() {
        let mut forest = FlatForest::new(0.0, 1.0);
        let at = forest.push_leaf(1.0);
        forest.finish_tree(0);
        let (left, right) = (forest.push_leaf(1.0), forest.push_leaf(2.0));
        forest.set_split(at, 0, 0.5, 0, left, right);
    }

    #[test]
    fn pooled_scoring_is_bit_identical_at_any_chunking() {
        let x = rows(101, 3, 31);
        let (_, model) = fit(&x, &rounds(15));
        let flat = model.forest();
        let sequential = flat.predict_view(MatrixView::RowSlices(&row_slices(&x)));
        for pool in [&ThreadPool::new(1), test_pool()] {
            for max_chunks in [0usize, 1, 2, 5, 64, 1000] {
                let mut out = Vec::new();
                flat.predict_view_into_pooled(
                    MatrixView::RowSlices(&row_slices(&x)),
                    pool,
                    max_chunks,
                    &mut out,
                );
                assert_eq!(
                    out,
                    sequential,
                    "{} threads, {max_chunks} chunks",
                    pool.threads()
                );
            }
        }
        // Empty batches are fine too.
        let mut out = vec![1.0];
        flat.predict_view_into_pooled(
            MatrixView::RowSlices(&row_slices(&x[..0])),
            test_pool(),
            4,
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn empty_forest_predicts_base_score() {
        let forest = FlatForest::new(2.5, 0.3);
        assert_eq!(forest.predict(&[1.0, 2.0]), 2.5);
        assert_eq!(forest.tree_count(), 0);
        assert_eq!(forest.lanes as usize, DEFAULT_LANES);
        let x = rows(4, 2, 1);
        let binned = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&x)), 16);
        assert_eq!(predict_binned_batch(&forest, &binned, 0..4), vec![2.5; 4]);
    }

    #[test]
    fn leaf_only_trees_walk_zero_steps() {
        // min_child_weight so high no child qualifies: every tree is a
        // single leaf (the "max-depth leaf-only" edge case — depth 0, the
        // fixed walk must not touch features at all).
        let x = rows(25, 2, 11);
        let cfg = GbtConfig {
            tree: TreeConfig {
                min_child_weight: f64::INFINITY,
                ..TreeConfig::default()
            },
            ..rounds(4)
        };
        let (binned, model) = fit(&x, &cfg);
        let flat = model.forest();
        assert_eq!((flat.feature.len(), flat.max_depth()), (4, 0));
        assert_every_kernel_matches_the_oracle(&model, &binned, &x, x.len());
        // Features can be anything for a leaf-only ensemble — even empty.
        assert_eq!(flat.predict(&[]), oracle_raw(flat, &x[0]));
        assert_eq!(flat.predict_view(MatrixView::RowSlices(&[&[]])).len(), 1);
    }

    #[test]
    fn single_bin_features_route_identically() {
        // Constant columns collapse to a single bin; splits on them are
        // impossible, but the walk must still be in-bounds and identical.
        let mut x = rows(30, 3, 13);
        for row in &mut x {
            row[1] = 4.2;
        }
        let (binned, model) = fit(&x, &rounds(8));
        assert!(model.forest().splits().iter().all(|&(f, _)| f != 1));
        assert_every_kernel_matches_the_oracle(&model, &binned, &x, x.len());
    }

    #[test]
    fn subranges_and_extend_agree_with_full_batch() {
        let x = rows(60, 2, 17);
        let (binned, model) = fit(&x, &rounds(10));
        let flat = model.forest();
        let full = predict_binned_batch(flat, &binned, 0..60);
        assert_eq!(predict_binned_batch(flat, &binned, 20..45), full[20..45]);
        assert_eq!(predict_binned_batch(flat, &binned, 7..7), Vec::<f64>::new());
        let mut out = vec![-1.0; 3];
        flat.predict_binned_extend(&binned, 10..20, &mut out);
        assert_eq!(out[..3], [-1.0; 3], "extend must not clobber the prefix");
        assert_eq!(out[3..], full[10..20]);
    }

    #[test]
    fn round_updates_walk_only_the_tree_just_grown() {
        // The score cache a fit leaves behind is `base`, then one
        // `+= lr · leaf_t(row)` per round — which the grower adds over the
        // buffer range of each leaf it just made, walking nothing. Routing
        // every row through every tree with the oracle, one tree at a
        // time, must land on the same bits: a round that credited a row to
        // the wrong leaf, applied a tree twice or skipped its own would not.
        let x = rows(53, 3, 41);
        let cfg = rounds(9);
        let binned = BinnedMatrix::build_for(MatrixView::RowSlices(&row_slices(&x)), &cfg.tree);
        let mut cache = Vec::new();
        let y = targets(&x);
        let model = GradientBoosting::fit_binned_cached(&binned, &y, SquaredLoss, &cfg, &mut cache)
            .unwrap();
        let f = model.forest();
        for (row, &cached) in cache.iter().enumerate() {
            let coded = |at: usize| binned.codes(f.feature[at] as usize)[row] <= f.split_bin[at];
            let replayed = f.roots.iter().fold(f.base_score, |score, &root| {
                score + f.shrinkage * oracle_leaf(f, root, &coded)
            });
            assert_eq!(replayed, cached, "row {row}");
        }
    }

    fn encoded(forest: &FlatForest) -> Vec<u8> {
        let mut enc = Encoder::new();
        forest.encode(&mut enc);
        enc.into_bytes()
    }

    fn decoded(bytes: &[u8]) -> Result<FlatForest, CodecError> {
        let mut dec = Decoder::new(bytes);
        let forest = FlatForest::decode(&mut dec)?;
        assert!(dec.is_empty(), "decode must consume what encode wrote");
        Ok(forest)
    }

    #[test]
    fn decode_rebuilds_the_arrays_and_recomputes_what_is_derived() {
        let x = rows(80, 3, 5);
        let (_, model) = fit(&x, &rounds(20));
        let forest = model.forest();
        assert!(
            forest.max_depth() >= 2 && forest.min_width >= 2,
            "depth {}, width {}",
            forest.max_depth(),
            forest.min_width
        );
        let back = decoded(&encoded(forest)).unwrap();
        // Depths and `min_width` are not on the wire: equality here means
        // the reverse pass and the feature scan recomputed them.
        back.assert_same_trees(forest, true, "round trip");
        assert_eq!(back.lanes as usize, DEFAULT_LANES);
        assert_eq!(encoded(&back), encoded(forest));
    }

    /// An ensemble blob around one hand-written tree.
    fn blob(nodes: &[Option<(u64, u64, u64)>], bins: &[u8]) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_f64(1.0);
        enc.put_f64(0.1);
        enc.put_usize(1);
        enc.put_usize(nodes.len());
        for node in nodes {
            match *node {
                None => {
                    enc.put_u8(0);
                    enc.put_f64(2.0);
                }
                Some((feature, left, right)) => {
                    enc.put_u8(1);
                    enc.put_u64(feature);
                    enc.put_f64(0.5);
                    enc.put_u64(left);
                    enc.put_u64(right);
                }
            }
        }
        enc.put_bytes(bins);
        enc.into_bytes()
    }

    #[test]
    fn decode_rejects_what_the_walkers_would_index_by() {
        let stump = [Some((0, 1, 2)), None, None];
        let ok = decoded(&blob(&stump, &[0, 255, 255])).unwrap();
        assert_eq!((ok.max_depth(), ok.min_width), (1, 1));
        assert_eq!(ok.predict(&[0.0]), 1.0 + 0.1 * 2.0);

        let overrun = |nodes: &[Option<(u64, u64, u64)>], bins: &[u8], what: &str| {
            let got = decoded(&blob(nodes, bins));
            assert!(
                matches!(got, Err(CodecError::LengthOverrun { .. })),
                "{what}: {got:?}"
            );
        };
        let max = u64::from(u32::MAX);
        overrun(
            &[Some((max, 1, 2)), None, None],
            &[0; 3],
            "feature + 1 overflows u32",
        );
        overrun(
            &[Some((max + 1, 1, 2)), None, None],
            &[0; 3],
            "feature past u32",
        );
        overrun(
            &[Some((0, 0, 0)), None, None],
            &[0; 3],
            "self-referencing split",
        );
        overrun(
            &[Some((0, 1, 3)), None, None],
            &[0; 3],
            "child past the tree",
        );
        overrun(
            &[Some((0, 1, 2)), None, Some((0, 1, 3)), None],
            &[0; 4],
            "child before its parent",
        );
        overrun(&stump, &[0; 2], "too few bin bytes");
        overrun(&stump, &[0; 4], "too many bin bytes");
        overrun(&[], &[], "empty tree");
        let mut bad_tag = blob(&stump, &[0; 3]);
        bad_tag[32] = 7;
        assert!(matches!(
            decoded(&bad_tag),
            Err(CodecError::InvalidTag { tag: 7, .. })
        ));
    }

    #[test]
    fn decode_takes_depth_from_the_nodes_not_from_their_order() {
        // A right-leaning chain, a shared child (a DAG is walkable: in
        // range, acyclic) and a node nothing points at.
        let nodes = [
            Some((0, 1, 2)),
            None,
            Some((1, 3, 4)),
            None,
            Some((2, 5, 5)),
            None,
            None,
        ];
        let forest = decoded(&blob(&nodes, &[0; 7])).unwrap();
        assert_eq!((forest.max_depth(), forest.min_width), (3, 3));
        for row in [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.0, 1.0]] {
            assert_eq!(forest.predict(&row), oracle_raw(&forest, &row));
            assert_eq!(
                forest.predict_view(MatrixView::RowSlices(&[&row])),
                [oracle_raw(&forest, &row)]
            );
        }
    }

    proptest! {
        /// Differential property: across random data shapes, depths, bin
        /// budgets and thread hints, every kernel at every lane width and
        /// chunking agrees bit-for-bit with the oracle walk on the
        /// training matrix (`n` is arbitrary, so remainder rows are
        /// covered).
        #[test]
        fn prop_kernels_equal_the_oracle_walk(
            n in 12usize..70,
            d in 1usize..4,
            depth in 1usize..6,
            n_rounds in 1usize..14,
            max_bins in 2usize..32,
            threads in 1usize..3,
            salt in 0u64..1000,
        ) {
            let x = rows(n, d, salt);
            let cfg = GbtConfig {
                tree: TreeConfig {
                    max_depth: depth,
                    n_threads: threads,
                    ..TreeConfig::default()
                },
                ..rounds(n_rounds)
            };
            let binned = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&x)), max_bins);
            let model = GradientBoosting::fit_binned(&binned, &targets(&x), &cfg).unwrap();
            prop_assert!(model.forest().max_depth() <= depth);
            assert_every_kernel_matches_the_oracle(&model, &binned, &x, n);
        }

        /// Differential property across a warm-boost append: the forest
        /// grown in place stays bit-identical to the oracle on the
        /// original prefix and the appended suffix, and decodes back to
        /// the same arrays. The score cache the boost leaves behind is the
        /// replayed ensemble (`base + lr · Σ`) plus one `lr · leaf` per new
        /// round, to the bit — the warm half of
        /// `round_updates_walk_only_the_tree_just_grown`.
        #[test]
        fn prop_kernels_equal_the_oracle_across_a_warm_boost(
            n in 30usize..80,
            extra in 2usize..12,
            salt in 0u64..500,
        ) {
            let x = rows(n, 2, salt);
            let y = targets(&x);
            let split = n * 2 / 3;
            let cfg = rounds(8);
            let mut binned = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&x[..split])), 256);
            let mut grown = GradientBoosting::fit_binned(&binned, &y[..split], &cfg).unwrap();
            binned.append_from(MatrixView::RowSlices(&row_slices(&x)));
            let mut cache = Vec::new();
            grown.warm_boost(&binned, &y, extra, &cfg, &mut cache).unwrap();
            let f = grown.forest();
            prop_assert_eq!(f.tree_count(), 8 + extra);
            for (row, &cached) in cache.iter().enumerate() {
                let coded = |at: usize| binned.codes(f.feature[at] as usize)[row] <= f.split_bin[at];
                let leaves = |roots: &[u32]| -> Vec<f64> {
                    roots.iter().map(|&root| oracle_leaf(f, root, &coded)).collect()
                };
                let replayed = f.base_score
                    + f.shrinkage * leaves(&f.roots[..8]).iter().fold(0.0, |sum, leaf| sum + leaf);
                let boosted = leaves(&f.roots[8..])
                    .iter()
                    .fold(replayed, |score, leaf| score + f.shrinkage * leaf);
                prop_assert_eq!(boosted, cached, "row {}", row);
            }
            // The first eight trees never saw the appended rows, so only
            // the prefix is pinned to raw routing.
            assert_every_kernel_matches_the_oracle(&grown, &binned, &x, split);
            decoded(&encoded(grown.forest()))
                .unwrap()
                .assert_same_trees(grown.forest(), true, "round trip after a warm boost");
        }
    }
}
