//! CART-style regression trees grown from gradient/hessian statistics.
//!
//! There is no tree type here: the `TreeGrower` appends each tree it
//! grows — leaves and splits, in pre-order — straight onto a
//! [`FlatForest`], the one node store every scorer reads (`flat.rs`).
//!
//! A tree minimizes the second-order (Newton) objective used by
//! XGBoost-style boosting: each leaf's weight is `-G / (H + λ)` and a split's
//! gain is the reduction in `-G²/(H+λ)` across the partition. With gradients
//! `g_i = f_i - y_i` and unit hessians this reduces to ordinary
//! variance-reduction CART, so the same tree serves plain regression too.
//!
//! # Histogram growth
//!
//! Each feature is quantized into at most `BinnedMatrix::MAX_BINS` (256) bins
//! once per fit (see [`BinnedMatrix`]); the grower then finds splits by
//! accumulating per-bin gradient/hessian sums in one linear pass per node
//! over contiguous `u8` codes and scanning the boundaries between bins. Only the smaller child of each split is
//! accumulated; the sibling's histogram is derived as `parent − child`,
//! LightGBM-style, cutting per-level accumulation to
//! `O(min(n_l, n_r) · d)`. When every feature has at most `MAX_BINS`
//! distinct values the candidate thresholds are exactly the midpoints a
//! sort-based CART enumeration would try; otherwise they are restricted to
//! quantile bin boundaries — the standard histogram tradeoff. The
//! sort-based builder survives under `cfg(test)` as the oracle those
//! claims are property-tested against.
//!
//! # The grower: a node costs what it holds
//!
//! NURD's fits are small and many (about 80 rows × 17 features × 50
//! rounds, at every checkpoint of every job), and below 256 rows every
//! distinct value is its own bin — so a matrix has about as many bins as
//! it has cells, while the mean node of a depth-3 tree holds a few dozen
//! rows. A design that zeroes, subtracts and scans *every bin* at every
//! node spends nearly all its time on cells that are empty. The binned
//! builder is therefore a `TreeGrower`, built once per fit
//! ([`crate::GradientBoosting`] keeps one across all boosting rounds):
//!
//! * **What is pooled.** The feature layout, the node histograms (at most
//!   `depth + 1` live), the row buffer that nodes partition stably in
//!   place, its staging twin and the leaf list. Growing a tree allocates
//!   nothing of its own: its nodes land on the end of the forest's arrays.
//! * **One row pass per tree level.** The row buffer carries each row's
//!   `(g, h)` beside its id (LightGBM's ordered gradients): the caller's
//!   loss is evaluated as the buffer is laid out, the root's totals fold
//!   in that same loop, and fills stream the statistics in buffer order —
//!   only the `u8` code is gathered through the row id. A split's one
//!   branchless partition pass moves ids and statistics together and
//!   hands each child its `(Σg, Σh)`, so no node ever re-walks its rows
//!   for its totals. The last partitions leave every row inside the
//!   buffer range of its leaf: the round's score update
//!   (`TreeGrower::add_last_tree`) adds each leaf's step over its range
//!   and never routes a row through the tree.
//! * **Present-bin bitmaps.** Each node histogram carries one bit per
//!   cell, set iff the cell holds a row. A fill sets bits; the sibling
//!   subtraction walks the small child's set bits; the split scan walks
//!   set bits in ascending bin order (`trailing_zeros`) instead of
//!   testing every cell for `n == 0`. Everything after the fill costs
//!   `O(present cells)`, and a child that the depth limit makes a leaf
//!   gets no histogram at all.
//! * **Zero-on-release is the invariant.** A histogram returned to the
//!   pool is zeroed *at its set bits only* and its bitmap cleared, so a
//!   pooled histogram is always all-zero and the next node accumulates
//!   into it without a memset. A cell the subtraction empties is zeroed on
//!   the spot and leaves the bitmap, which keeps "bit set ⇔ `n > 0`" true
//!   for derived histograms as well.
//! * **The order of accumulation is unchanged.** A cell still sums its
//!   rows in ascending row order (the in-place partition is stable), the
//!   scan still folds present bins left to right and keeps the first
//!   strictly best gain, and a node's totals are still its rows summed in
//!   that order from `+0.0` (the partition adds a *selected* `+0.0` for
//!   the other side's rows, an exact identity — see
//!   `TreeGrower::partition`). A zeroed cell is indistinguishable from a
//!   fresh one, so every tree is bit-for-bit the tree that freshly zeroed
//!   dense histograms and per-node row-order sums grow — that algorithm
//!   lives on as the oracle of the grower's property tests.

use crate::binned::BinnedMatrix;
use crate::flat::FlatForest;

/// L2 regularization on leaf weights (λ in the XGBoost objective).
const LAMBDA: f64 = 1.0;

/// Minimum gain required to keep a split (γ).
const MIN_SPLIT_GAIN: f64 = 1e-9;

/// Hyperparameters for a single regression tree. Every tree is grown
/// with λ = 1 on its leaf weights, keeps a split only above a gain of
/// 1e-9, and quantizes each feature into at most 256 bins.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0). Must be ≥ 1.
    pub max_depth: usize,
    /// Minimum hessian mass per child (≈ sample count for unit hessians).
    pub min_child_weight: f64,
    /// Threads used for the embarrassingly parallel per-feature passes
    /// (feature quantization in [`BinnedMatrix::build`] and per-node
    /// histogram fills): `1` (the default) is strictly sequential, `0`
    /// uses every core of the machine, `n > 1` uses up to `n` threads of
    /// the shared [`nurd_runtime::global`] pool. Features are processed
    /// independently into disjoint outputs, so the fitted model is
    /// **bit-for-bit identical** at every setting — this knob trades
    /// nothing but wall-clock time.
    pub n_threads: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 3,
            min_child_weight: 1.0,
            n_threads: 1,
        }
    }
}

impl TreeConfig {
    /// Resolves [`TreeConfig::n_threads`] against the shared pool:
    /// `None` means run sequentially, `Some((pool, tasks))` means fan the
    /// per-feature passes out as at most `tasks` chunks on `pool`. An
    /// explicit `n > 1` keeps its fan-out even on a smaller pool (the
    /// chunks just queue — output is identical either way), so the
    /// parallel code path stays testable on any machine.
    pub(crate) fn parallelism(&self) -> Option<(&'static nurd_runtime::ThreadPool, usize)> {
        match self.n_threads {
            1 => None,
            0 => {
                let pool = nurd_runtime::global();
                (pool.threads() > 1).then(|| (pool, pool.threads()))
            }
            n => Some((nurd_runtime::global(), n)),
        }
    }
}

struct BestSplit {
    feature: usize,
    threshold: f64,
    gain: f64,
    /// Highest bin code routed left.
    left_bin: u8,
}

/// One histogram cell: gradient sum, hessian sum, sample count. Kept as a
/// single struct so the accumulation loop touches one cache line per
/// sample instead of three parallel arrays.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct HistBin {
    g: f64,
    h: f64,
    n: u32,
}

/// Cells covered by one word of a [`NodeHist`]'s present-bin bitmap.
const WORD: usize = u64::BITS as usize;

/// One node's histogram over every splittable feature, with a
/// **present-bin bitmap**: bit `c % 64` of `present[c / 64]` is set iff
/// `cells[c].n > 0`. Each feature's cells are padded to a whole number of
/// words (see [`FeatureSlot`]), so word `w` always covers cells
/// `64·w .. 64·w + 64` and every whole-histogram pass is one flat walk
/// over the set bits — the cost of a node is the cells it holds, not the
/// bins the matrix has.
///
/// Invariant between uses (in the grower's pool): every cell is
/// `HistBin::default()` and every bitmap word is zero.
#[derive(Debug)]
struct NodeHist {
    cells: Vec<HistBin>,
    present: Vec<u64>,
}

impl NodeHist {
    fn zeroed(words: usize) -> Self {
        NodeHist {
            cells: vec![HistBin::default(); words * WORD],
            present: vec![0; words],
        }
    }

    /// Restores the pool invariant by zeroing exactly the present cells.
    fn clear(&mut self) {
        for (word, cells) in self
            .present
            .iter_mut()
            .zip(self.cells.chunks_exact_mut(WORD))
        {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                cells[bits.trailing_zeros() as usize] = HistBin::default();
                bits &= bits - 1;
            }
        }
    }

    fn is_clear(&self) -> bool {
        self.present.iter().all(|&word| word == 0)
            && self.cells.iter().all(|cell| *cell == HistBin::default())
    }

    /// The LightGBM subtraction `self −= child`, where `child` holds a
    /// subset of this node's rows: only the child's present cells can
    /// change. A cell the child empties (`n` reaches 0) is zeroed and
    /// leaves the present set — what remains of its `g`/`h` is rounding
    /// residue of rows that are no longer here, which no scan ever read
    /// (scans skip `n == 0` cells) and no later subtraction could turn
    /// back into a present cell.
    fn subtract(&mut self, child: &NodeHist) {
        let words = self.present.iter_mut().zip(&child.present);
        let cells = self
            .cells
            .chunks_exact_mut(WORD)
            .zip(child.cells.chunks_exact(WORD));
        for ((word, &child_word), (cells, child_cells)) in words.zip(cells) {
            let mut bits = child_word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (cell, c) = (&mut cells[b], &child_cells[b]);
                cell.g -= c.g;
                cell.h -= c.h;
                cell.n -= c.n;
                if cell.n == 0 {
                    *cell = HistBin::default();
                    *word &= !(1 << b);
                }
            }
        }
    }
}

/// Where one splittable feature lives in every [`NodeHist`]: its bitmap
/// words, and the 64 cells under each of them.
#[derive(Debug, Clone)]
struct FeatureSlot {
    feature: usize,
    words: std::ops::Range<usize>,
}

impl FeatureSlot {
    fn cells(&self) -> std::ops::Range<usize> {
        self.words.start * WORD..self.words.end * WORD
    }
}

/// Gradient and hessian sums `(Σg, Σh)` over a node's rows, in row order.
type Totals = (f64, f64);

/// One entry of the grower's row buffer: a matrix row id with the
/// statistics it carries this round (LightGBM's ordered gradients).
#[derive(Debug, Clone, Copy, Default)]
struct Row {
    id: usize,
    g: f64,
    h: f64,
}

/// The tree grower: everything about growing trees over one
/// [`BinnedMatrix`] that does not depend on the gradients,
/// built **once per fit** and reused by every boosting round. The module
/// docs ("The grower") say what is pooled and why the trees are bit-for-bit
/// those of freshly zeroed dense histograms.
///
/// The root's histogram is accumulated directly; below it, only the
/// **smaller** child of each split is accumulated and the sibling is
/// derived as `parent − child` ([`NodeHist::subtract`]; sample counts
/// exactly, gradient/hessian sums up to addition-reordering ulps). A node
/// is the range `lo..hi` of the row buffer, its children `lo..mid` and
/// `mid..hi`, each in ascending row order.
pub(crate) struct TreeGrower<'a> {
    binned: &'a BinnedMatrix,
    config: &'a TreeConfig,
    /// Per-feature fill fan-out resolved from [`TreeConfig::n_threads`]
    /// (`None` = sequential fills).
    par: Option<(&'static nurd_runtime::ThreadPool, usize)>,
    /// Features with at least two bins, ascending, with their cell ranges.
    slots: Vec<FeatureSlot>,
    /// Bitmap words per node histogram.
    words: usize,
    /// Recycled node histograms (all-zero, empty bitmaps).
    pool: Vec<NodeHist>,
    /// Every matrix row with its statistics, partitioned in place as the
    /// tree grows: fills and totals stream `(g, h)` in buffer order instead
    /// of gathering them through the row id.
    rows: Vec<Row>,
    /// Right-child rows parked during a partition.
    staging: Vec<Row>,
    /// `(lo, hi, weight)` of every leaf of the tree just grown: once the
    /// last partition is done, `rows[lo..hi]` is exactly the leaf's rows.
    leaves: Vec<(usize, usize, f64)>,
    /// Depth of the deepest leaf of the tree being grown.
    deepest: usize,
}

impl<'a> TreeGrower<'a> {
    /// Node size below which parallel fills are never worth the task
    /// overhead (a fill is one add per row per feature).
    const PAR_MIN_ROWS: usize = 4096;

    pub(crate) fn new(binned: &'a BinnedMatrix, config: &'a TreeConfig) -> Self {
        let mut slots = Vec::with_capacity(binned.features());
        let mut words = 0;
        for feature in 0..binned.features() {
            let n_bins = binned.feature_bins(feature).n_bins();
            if n_bins >= 2 {
                let end = words + n_bins.div_ceil(WORD);
                slots.push(FeatureSlot {
                    feature,
                    words: words..end,
                });
                words = end;
            }
        }
        let rows = binned.rows();
        TreeGrower {
            binned,
            config,
            par: config.parallelism(),
            slots,
            words,
            pool: Vec::new(),
            rows: vec![Row::default(); rows],
            staging: vec![Row::default(); rows],
            leaves: Vec::new(),
            deepest: 0,
        }
    }

    /// Grows one tree over every row of the matrix (which must have one),
    /// `stats(i)` being row `i`'s `(gradient, hessian)`, and appends it to
    /// `forest` as its new last tree. The root's totals fold in the loop
    /// that lays the statistics out.
    pub(crate) fn grow(&mut self, stats: impl Fn(usize) -> (f64, f64), forest: &mut FlatForest) {
        debug_assert!(!self.rows.is_empty());
        let mut totals = (0.0, 0.0);
        for (id, row) in self.rows.iter_mut().enumerate() {
            let (g, h) = stats(id);
            *row = Row { id, g, h };
            totals = (totals.0 + g, totals.1 + h);
        }
        self.leaves.clear();
        self.deepest = 0;
        let mut hist = self.acquire();
        self.fill_hist(0, self.rows.len(), &mut hist);
        self.build(forest, 0, self.rows.len(), 0, totals, hist);
        forest.finish_tree(self.deepest);
    }

    /// `scores[i] += shrinkage · leaf(i)` for the tree [`Self::grow`]
    /// just grew — the boosting round's score update. Every row already
    /// sits in the range of its leaf, so nothing walks the tree: one
    /// multiply per leaf, one add per row, the same two operations on the
    /// same operands as a routed walk.
    pub(crate) fn add_last_tree(&self, shrinkage: f64, scores: &mut [f64]) {
        for &(lo, hi, weight) in &self.leaves {
            let step = shrinkage * weight;
            for row in &self.rows[lo..hi] {
                scores[row.id] += step;
            }
        }
    }

    fn acquire(&mut self) -> NodeHist {
        let hist = self
            .pool
            .pop()
            .unwrap_or_else(|| NodeHist::zeroed(self.words));
        debug_assert!(
            hist.is_clear(),
            "a pooled histogram must be all-zero with an empty bitmap"
        );
        hist
    }

    fn release(&mut self, mut hist: NodeHist) {
        hist.clear();
        self.pool.push(hist);
    }

    /// Accumulates the rows at `lo..hi` of the buffer into `hist` (which
    /// must be clear), one pass per feature over contiguous `u8` codes.
    /// Features fill disjoint cell and bitmap ranges, so the parallel
    /// fan-out (big nodes, `par` set) produces bit-identical histograms to
    /// the sequential loop.
    fn fill_hist(&self, lo: usize, hi: usize, hist: &mut NodeHist) {
        if let Some((pool, tasks)) = self.par {
            if hi - lo >= Self::PAR_MIN_ROWS && self.slots.len() >= 2 {
                self.fill_hist_parallel(pool, tasks, lo, hi, hist);
                return;
            }
        }
        for slot in &self.slots {
            self.fill_feature(
                slot.feature,
                lo,
                hi,
                &mut hist.cells[slot.cells()],
                &mut hist.present[slot.words.clone()],
            );
        }
    }

    /// One feature's accumulation pass into its own cells and bitmap
    /// words. Each cell sums its rows in buffer order; the statistics
    /// stream in that order, only the code is gathered through the row id.
    fn fill_feature(
        &self,
        feature: usize,
        lo: usize,
        hi: usize,
        cells: &mut [HistBin],
        present: &mut [u64],
    ) {
        let codes = self.binned.codes(feature);
        // Seen bins collect in a local array (codes are `u8`, so four
        // words cover them) and are merged into the bitmap once.
        let mut seen = [0u64; BinnedMatrix::MAX_BINS / WORD];
        for row in &self.rows[lo..hi] {
            let code = codes[row.id];
            let cell = &mut cells[usize::from(code)];
            cell.g += row.g;
            cell.h += row.h;
            cell.n += 1;
            seen[usize::from(code) / WORD] |= 1 << (usize::from(code) % WORD);
        }
        for (word, seen) in present.iter_mut().zip(seen) {
            *word |= seen;
        }
    }

    /// Splits `hist` into per-feature cell and bitmap slices and fans the
    /// fills out as at most `tasks` chunks on `pool`.
    fn fill_hist_parallel(
        &self,
        pool: &nurd_runtime::ThreadPool,
        tasks: usize,
        lo: usize,
        hi: usize,
        hist: &mut NodeHist,
    ) {
        let mut per_feature = Vec::with_capacity(self.slots.len());
        let (mut cells, mut present) = (hist.cells.as_mut_slice(), hist.present.as_mut_slice());
        for slot in &self.slots {
            let (slot_cells, rest) = cells.split_at_mut(slot.words.len() * WORD);
            cells = rest;
            let (slot_present, rest) = present.split_at_mut(slot.words.len());
            present = rest;
            per_feature.push((slot.feature, slot_cells, slot_present));
        }
        let per = per_feature.len().div_ceil(tasks.min(per_feature.len()));
        pool.scope(|s| {
            let mut remaining = per_feature;
            while !remaining.is_empty() {
                let chunk: Vec<_> = remaining.drain(..per.min(remaining.len())).collect();
                s.spawn(move || {
                    for (feature, cells, present) in chunk {
                        self.fill_feature(feature, lo, hi, cells, present);
                    }
                });
            }
        });
    }

    /// Stably partitions the buffer's `lo..hi` on `code <= left_bin` in one
    /// branchless pass that moves each row's id and statistics together:
    /// every row is written both to the compacting front and to `staging`
    /// and the predicate only advances one of the two cursors, so left
    /// rows end up in order at the front and right rows, copied back behind
    /// them, in order too. Returns the boundary and each side's totals.
    ///
    /// The totals are bit for bit a row-order sum over each child: a side's
    /// accumulator adds the row's value when the row is its own and `+0.0`
    /// otherwise — an exact identity, since an accumulator that starts at
    /// `+0.0` can never hold `−0.0`. The value is *selected*; multiplying
    /// by a 0/1 mask would leak a NaN or ∞ gradient into the other side.
    fn partition(
        &mut self,
        lo: usize,
        hi: usize,
        feature: usize,
        left_bin: u8,
    ) -> (usize, Totals, Totals) {
        let codes = self.binned.codes(feature);
        let rows = &mut self.rows[lo..hi];
        let staging = &mut self.staging[..hi - lo];
        let (mut left, mut right) = ((0.0, 0.0), (0.0, 0.0));
        let mut l = 0;
        for at in 0..rows.len() {
            let row = rows[at];
            let goes_left = codes[row.id] <= left_bin;
            // `l <= at`: the front never overtakes the read cursor.
            rows[l] = row;
            staging[at - l] = row;
            l += usize::from(goes_left);
            let (lg, lh, rg, rh) = if goes_left {
                (row.g, row.h, 0.0, 0.0)
            } else {
                (0.0, 0.0, row.g, row.h)
            };
            left = (left.0 + lg, left.1 + lh);
            right = (right.0 + rg, right.1 + rh);
        }
        let parked = rows.len() - l;
        rows[l..].copy_from_slice(&staging[..parked]);
        (lo + l, left, right)
    }

    /// Builds the subtree over the buffer's `lo..hi` (above the depth
    /// limit), whose totals are `totals` and whose histogram has already
    /// been accumulated or derived into `hist`, onto the end of `forest`;
    /// returns the node index. Consumes `hist` back into the pool.
    fn build(
        &mut self,
        forest: &mut FlatForest,
        lo: usize,
        hi: usize,
        depth: usize,
        totals: Totals,
        hist: NodeHist,
    ) -> usize {
        debug_assert!(depth < self.config.max_depth);
        let split = if hi - lo < 2 {
            None
        } else {
            self.best_split(&hist, totals.0, totals.1)
        };
        let Some(split) = split else {
            self.release(hist);
            return self.leaf(forest, lo, hi, depth, totals);
        };

        let (mid, left, right) = self.partition(lo, hi, split.feature, split.left_bin);
        // Pre-order: the parent takes its slot before its children and is
        // patched into a split once they exist.
        let at = forest.push_leaf(0.0);
        let (left, right) = if depth + 1 >= self.config.max_depth {
            // Both children are leaves by depth: nothing would ever scan
            // their histograms, so none are built.
            self.release(hist);
            (
                self.leaf(forest, lo, mid, depth + 1, left),
                self.leaf(forest, mid, hi, depth + 1, right),
            )
        } else {
            let (left_hist, right_hist) = self.child_hists(lo, mid, hi, hist);
            (
                self.build(forest, lo, mid, depth + 1, left, left_hist),
                self.build(forest, mid, hi, depth + 1, right, right_hist),
            )
        };
        forest.set_split(
            at,
            split.feature,
            split.threshold,
            split.left_bin,
            left,
            right,
        );
        at
    }

    /// The histograms of the children `lo..mid` and `mid..hi` of the node
    /// `parent` describes: the smaller child is accumulated, the sibling
    /// derived from the parent buffer (which it then owns).
    fn child_hists(
        &mut self,
        lo: usize,
        mid: usize,
        hi: usize,
        parent: NodeHist,
    ) -> (NodeHist, NodeHist) {
        let small_is_left = mid - lo <= hi - mid;
        let (small_lo, small_hi) = if small_is_left { (lo, mid) } else { (mid, hi) };
        let mut small_hist = self.acquire();
        self.fill_hist(small_lo, small_hi, &mut small_hist);
        let mut large_hist = parent;
        large_hist.subtract(&small_hist);
        if small_is_left {
            (small_hist, large_hist)
        } else {
            (large_hist, small_hist)
        }
    }

    /// A leaf, `depth` steps down, over the buffer's `lo..hi`.
    fn leaf(
        &mut self,
        forest: &mut FlatForest,
        lo: usize,
        hi: usize,
        depth: usize,
        (g_sum, h_sum): Totals,
    ) -> usize {
        let weight = -g_sum / (h_sum + LAMBDA);
        self.deepest = self.deepest.max(depth);
        self.leaves.push((lo, hi, weight));
        forest.push_leaf(weight)
    }

    /// Scans the boundaries between bins *present in this node*, feature
    /// by feature in ascending bin order: the candidate set (and, in the
    /// one-bin-per-value regime, the thresholds) then matches a sort-based
    /// enumeration sample-for-sample. The first strictly best gain wins, if it
    /// clears `MIN_SPLIT_GAIN`.
    fn best_split(&self, hist: &NodeHist, g_sum: f64, h_sum: f64) -> Option<BestSplit> {
        let parent_score = g_sum * g_sum / (h_sum + LAMBDA);
        let mut best: Option<BestSplit> = None;

        for slot in &self.slots {
            let bins = self.binned.feature_bins(slot.feature);
            let cells = &hist.cells[slot.cells()];
            let mut g_left = 0.0;
            let mut h_left = 0.0;
            let mut last_present: Option<usize> = None;
            for (w, &word) in hist.present[slot.words.clone()].iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let b = w * WORD + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if let Some(prev) = last_present {
                        let h_right = h_sum - h_left;
                        if h_left >= self.config.min_child_weight
                            && h_right >= self.config.min_child_weight
                        {
                            let g_right = g_sum - g_left;
                            let gain = 0.5
                                * (g_left * g_left / (h_left + LAMBDA)
                                    + g_right * g_right / (h_right + LAMBDA)
                                    - parent_score);
                            if best.as_ref().is_none_or(|cur| gain > cur.gain) {
                                best = Some(BestSplit {
                                    feature: slot.feature,
                                    threshold: 0.5 * (bins.max_of(prev) + bins.min_of(b)),
                                    gain,
                                    left_bin: prev as u8,
                                });
                            }
                        }
                    }
                    let cell = &cells[b];
                    g_left += cell.g;
                    h_left += cell.h;
                    last_present = Some(b);
                }
            }
        }
        match best {
            Some(split) if split.gain <= MIN_SPLIT_GAIN => None,
            best => best,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row_slices;
    use nurd_linalg::MatrixView;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn squared_loss_grads(y: &[f64]) -> (Vec<f64>, Vec<f64>) {
        // Gradient of 1/2 (f - y)^2 at f = 0 is -y; hessian is 1.
        (y.iter().map(|v| -v).collect(), vec![1.0; y.len()])
    }

    /// An empty forest at base 0 and rate 1, so that with one tree in it
    /// [`FlatForest::predict`] is that tree's leaf weight.
    fn unit_forest() -> FlatForest {
        FlatForest::new(0.0, 1.0)
    }

    /// Per-row gradient/hessian statistics indexed by matrix row id, as
    /// the oracles gather them.
    #[derive(Clone, Copy)]
    struct RowStats<'a> {
        gradients: &'a [f64],
        hessians: &'a [f64],
    }

    impl RowStats<'_> {
        /// Node totals summed in row order, from `+0.0`: what the grower's
        /// fused partition totals must reproduce bit for bit.
        fn sums(&self, rows: &[usize]) -> (f64, f64) {
            rows.iter().fold((0.0, 0.0), |(g, h), &i| {
                (g + self.gradients[i], h + self.hessians[i])
            })
        }
    }

    /// One tree grown by a fresh grower over `binned`.
    fn grow_binned(binned: &BinnedMatrix, g: &[f64], h: &[f64], config: &TreeConfig) -> FlatForest {
        let mut forest = unit_forest();
        TreeGrower::new(binned, config).grow(|i| (g[i], h[i]), &mut forest);
        assert_eq!(forest.tree_count(), 1);
        forest
    }

    /// One tree grown over all of `x`, quantized as `config` asks.
    fn grow(x: &[Vec<f64>], g: &[f64], h: &[f64], config: &TreeConfig) -> FlatForest {
        let binned = BinnedMatrix::build_for(MatrixView::RowSlices(&row_slices(x)), config);
        grow_binned(&binned, g, h, config)
    }

    #[test]
    fn perfectly_separable_step_function() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 0.0 } else { 10.0 }).collect();
        let (g, h) = squared_loss_grads(&y);
        let tree = grow(&x, &g, &h, &TreeConfig::default());
        // Each half is one leaf, `-G / (H + λ)` with λ = 1: the right
        // half's ten rows of 10 shrink to 100 / 11.
        assert!((tree.predict(&[2.0]) - 0.0).abs() < 1e-9);
        assert!((tree.predict(&[15.0]) - 100.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let x: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64]).collect();
        let y = vec![3.0; 5];
        let (g, h) = squared_loss_grads(&y);
        let tree = grow(&x, &g, &h, &TreeConfig::default());
        assert_eq!((tree.leaf_count(), tree.max_depth()), (1, 0));
        // 15 / (5 + λ).
        assert!((tree.predict(&[0.0]) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn respects_max_depth() {
        let x: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..64).map(|i| (i % 7) as f64).collect();
        let (g, h) = squared_loss_grads(&y);
        let cfg = TreeConfig {
            max_depth: 2,
            ..TreeConfig::default()
        };
        let tree = grow(&x, &g, &h, &cfg);
        assert_eq!(tree.max_depth(), 2);
        assert!(tree.leaf_count() <= 4);
    }

    #[test]
    fn min_child_weight_blocks_tiny_splits() {
        let x: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64]).collect();
        let y = vec![0.0, 0.0, 0.0, 100.0];
        let (g, h) = squared_loss_grads(&y);
        let cfg = TreeConfig {
            min_child_weight: 2.0,
            ..TreeConfig::default()
        };
        let tree = grow(&x, &g, &h, &cfg);
        // The only useful split (3 vs 1) is blocked on the right child;
        // 2-2 split is allowed.
        for (_, threshold) in tree.splits() {
            assert!((threshold - 1.5).abs() < 1e-9);
        }
    }

    #[test]
    fn multivariate_picks_informative_feature() {
        // Feature 1 is pure noise; feature 0 determines the target.
        let x: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![(i / 15) as f64, ((i * 7919) % 13) as f64])
            .collect();
        let y: Vec<f64> = (0..30).map(|i| if i < 15 { -5.0 } else { 5.0 }).collect();
        let (g, h) = squared_loss_grads(&y);
        let tree = grow(&x, &g, &h, &TreeConfig::default());
        // Pre-order: the root is the first node, so the first split.
        let root = tree.splits().first().copied();
        assert_eq!(root.map(|(feature, _)| feature), Some(0));
    }

    #[test]
    fn exact_oracle_agrees_on_a_reference_case() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 0.0 } else { 10.0 }).collect();
        let (g, h) = squared_loss_grads(&y);
        let cfg = TreeConfig::default();
        let mut exact = unit_forest();
        ExactBuilder::grow(&x, &g, &h, &cfg, &mut exact);
        grow(&x, &g, &h, &cfg).assert_same_trees(&exact, false, "step function");
    }

    #[test]
    fn nan_features_degrade_without_panicking_in_grower_and_oracle() {
        // Large enough that the stdlib sort detects a non-total-order
        // comparator (the seed's partial_cmp fallback panicked here).
        // Cover both NaN signs: negative NaN (the x86-64 runtime default)
        // sorts first under plain total_cmp and needs the nan_last order.
        let neg_nan = f64::from_bits(0xFFF8_0000_0000_0000);
        let mut x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64, (i % 5) as f64]).collect();
        x[7][0] = f64::NAN;
        x[11][0] = neg_nan;
        x[19][1] = neg_nan;
        let g: Vec<f64> = (0..30).map(|i| -(i as f64)).collect();
        let h = vec![1.0; 30];
        let cfg = TreeConfig::default();
        let mut exact = unit_forest();
        ExactBuilder::grow(&x, &g, &h, &cfg, &mut exact);
        for (growth, tree) in [("exact", exact), ("histogram", grow(&x, &g, &h, &cfg))] {
            assert!(tree.predict(&[15.0, 0.0]).is_finite(), "{growth}");
            assert!(tree.predict(&x[7]).is_finite(), "{growth} on NaN row");
            // No split may carry a NaN threshold: every training row must
            // route deterministically.
            assert!(!tree.splits().is_empty(), "{growth} never split");
            for (_, threshold) in tree.splits() {
                assert!(threshold.is_finite(), "{growth} NaN threshold");
            }
        }
    }

    #[test]
    fn bin_code_routing_matches_raw_routing_on_training_rows() {
        let x: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![(i % 13) as f64, ((i * 7) % 11) as f64])
            .collect();
        let y: Vec<f64> = (0..60).map(|i| ((i * 3) % 8) as f64).collect();
        let (g, h) = squared_loss_grads(&y);
        let binned = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&x)), 256);
        let tree = grow_binned(&binned, &g, &h, &TreeConfig::default());
        let mut coded = Vec::new();
        tree.predict_binned_extend(&binned, 0..60, &mut coded);
        for (i, row) in x.iter().enumerate() {
            assert_eq!(tree.predict(row), coded[i]);
        }
        // Rows appended with preserved edges stay routable.
        let mut grown = binned.clone();
        let mut more = x.clone();
        more.push(vec![6.0, 3.0]);
        grown.append_from(MatrixView::RowSlices(&row_slices(&more)));
        tree.predict_binned_extend(&grown, 60..61, &mut coded);
        assert_eq!(tree.predict(&[6.0, 3.0]), coded[60]);
    }

    #[test]
    fn parallel_fills_grow_identical_trees() {
        // Clears both parallel gates (build cells and fill rows) so the
        // fan-out actually runs; the fitted tree must be structurally
        // identical to the sequential one — the n_threads knob may only
        // change wall-clock time, never the model.
        let n = 5000;
        let x: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                vec![
                    f64::from(i % 611) * 0.5,
                    f64::from((i * 31) % 257),
                    f64::from((i * 7) % 13),
                ]
            })
            .collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * 0.25 - r[1] * 0.1 + r[2]).collect();
        let (g, h) = squared_loss_grads(&y);
        let seq_cfg = TreeConfig {
            max_depth: 5,
            ..TreeConfig::default()
        };
        let par_cfg = TreeConfig {
            n_threads: 4,
            ..seq_cfg.clone()
        };
        let sequential = grow(&x, &g, &h, &seq_cfg);
        assert_eq!(sequential.max_depth(), 5);
        grow(&x, &g, &h, &par_cfg).assert_same_trees(&sequential, true, "n_threads 4 vs 1");
    }

    /// The classic sort-based CART enumeration, kept as the oracle the
    /// histogram path is property-tested against: every node re-sorts its
    /// samples per feature (`O(d · n log n)` per node) and considers every
    /// midpoint between adjacent distinct values. It emits its nodes
    /// through the same three [`FlatForest`] calls as the grower (with no
    /// bin codes to record), so the two are compared array for array.
    struct ExactBuilder<'a> {
        x: MatrixView<'a>,
        gradients: &'a [f64],
        hessians: &'a [f64],
        config: &'a TreeConfig,
        forest: &'a mut FlatForest,
        deepest: usize,
    }

    impl ExactBuilder<'_> {
        fn grow(
            x: &[Vec<f64>],
            gradients: &[f64],
            hessians: &[f64],
            config: &TreeConfig,
            forest: &mut FlatForest,
        ) {
            let mut builder = ExactBuilder {
                x: MatrixView::RowSlices(&row_slices(x)),
                gradients,
                hessians,
                config,
                forest,
                deepest: 0,
            };
            builder.build((0..x.len()).collect(), 0);
            builder.forest.finish_tree(builder.deepest);
        }

        /// Builds the subtree over `indices`; returns the node index.
        fn build(&mut self, indices: Vec<usize>, depth: usize) -> usize {
            let stats = RowStats {
                gradients: self.gradients,
                hessians: self.hessians,
            };
            let (g_sum, h_sum) = stats.sums(&indices);
            let leaf_weight = -g_sum / (h_sum + LAMBDA);

            if depth >= self.config.max_depth || indices.len() < 2 {
                return self.leaf(leaf_weight, depth);
            }
            let Some(split) = self.best_split(&indices, g_sum, h_sum) else {
                return self.leaf(leaf_weight, depth);
            };
            if split.gain <= MIN_SPLIT_GAIN {
                return self.leaf(leaf_weight, depth);
            }

            // Degenerate partitions cannot happen: thresholds are
            // midpoints of strictly distinct consecutive values.
            let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
                .into_iter()
                .partition(|&i| self.x.get(i, split.feature) <= split.threshold);
            let at = self.forest.push_leaf(0.0);
            let left = self.build(left_idx, depth + 1);
            let right = self.build(right_idx, depth + 1);
            self.forest
                .set_split(at, split.feature, split.threshold, u8::MAX, left, right);
            at
        }

        fn leaf(&mut self, weight: f64, depth: usize) -> usize {
            self.deepest = self.deepest.max(depth);
            self.forest.push_leaf(weight)
        }

        fn best_split(&self, indices: &[usize], g_sum: f64, h_sum: f64) -> Option<BestSplit> {
            let d = self.x.cols();
            let parent_score = g_sum * g_sum / (h_sum + LAMBDA);
            let mut best: Option<BestSplit> = None;

            let mut order: Vec<usize> = indices.to_vec();
            for feature in 0..d {
                // NaN input must not panic the sort (a partial_cmp fallback
                // violates strict total order, which the stdlib sort detects
                // and aborts on). nan_last_cmp orders every NaN — positive or
                // negative — last, so NaNs are never split boundaries and
                // simply ride along in the right child.
                order.sort_by(|&a, &b| {
                    crate::binned::nan_last_cmp(self.x.get(a, feature), self.x.get(b, feature))
                });
                let mut g_left = 0.0;
                let mut h_left = 0.0;
                for w in 0..order.len() - 1 {
                    let i = order[w];
                    g_left += self.gradients[i];
                    h_left += self.hessians[i];
                    let v = self.x.get(i, feature);
                    let v_next = self.x.get(order[w + 1], feature);
                    if v_next.is_nan() {
                        // NaNs sort last: no further finite boundaries exist
                        // for this feature.
                        break;
                    }
                    if v == v_next {
                        continue;
                    }
                    let h_right = h_sum - h_left;
                    if h_left < self.config.min_child_weight
                        || h_right < self.config.min_child_weight
                    {
                        continue;
                    }
                    let g_right = g_sum - g_left;
                    let gain = 0.5
                        * (g_left * g_left / (h_left + LAMBDA)
                            + g_right * g_right / (h_right + LAMBDA)
                            - parent_score);
                    if best.as_ref().is_none_or(|b| gain > b.gain) {
                        best = Some(BestSplit {
                            feature,
                            threshold: 0.5 * (v + v_next),
                            gain,
                            left_bin: u8::MAX,
                        });
                    }
                }
            }
            best
        }
    }

    /// The algorithm the grower replaced, kept as its oracle: every node
    /// owns a freshly zeroed dense histogram over all bins, the sibling is
    /// derived by subtracting the whole buffer, and the scan skips `n == 0`
    /// cells one by one. With `subtraction` the grower must reproduce it
    /// bit for bit; without, both children are accumulated directly — the
    /// form whose per-bin sums match [`ExactBuilder`]'s tie-breaking. It
    /// emits through the same [`FlatForest`] calls as the grower.
    struct DenseReference<'a> {
        binned: &'a BinnedMatrix,
        stats: RowStats<'a>,
        config: &'a TreeConfig,
        subtraction: bool,
        offsets: Vec<usize>,
        forest: &'a mut FlatForest,
        deepest: usize,
    }

    impl DenseReference<'_> {
        fn grow(
            binned: &BinnedMatrix,
            gradients: &[f64],
            hessians: &[f64],
            config: &TreeConfig,
            subtraction: bool,
            forest: &mut FlatForest,
        ) {
            let mut offsets = vec![0];
            for f in 0..binned.features() {
                offsets.push(offsets[f] + binned.feature_bins(f).n_bins());
            }
            let mut reference = DenseReference {
                binned,
                stats: RowStats {
                    gradients,
                    hessians,
                },
                config,
                subtraction,
                offsets,
                forest,
                deepest: 0,
            };
            let rows: Vec<usize> = (0..binned.rows()).collect();
            let hist = reference.fill(&rows);
            reference.build(rows, 0, hist);
            reference.forest.finish_tree(reference.deepest);
        }

        fn fill(&self, rows: &[usize]) -> Vec<HistBin> {
            let mut hist = vec![HistBin::default(); *self.offsets.last().unwrap()];
            for f in 0..self.binned.features() {
                if self.binned.feature_bins(f).n_bins() < 2 {
                    continue;
                }
                let codes = self.binned.codes(f);
                for &i in rows {
                    let cell = &mut hist[self.offsets[f] + codes[i] as usize];
                    cell.g += self.stats.gradients[i];
                    cell.h += self.stats.hessians[i];
                    cell.n += 1;
                }
            }
            hist
        }

        fn leaf(&mut self, weight: f64, depth: usize) -> usize {
            self.deepest = self.deepest.max(depth);
            self.forest.push_leaf(weight)
        }

        fn build(&mut self, rows: Vec<usize>, depth: usize, hist: Vec<HistBin>) -> usize {
            let (g_sum, h_sum) = self.stats.sums(&rows);
            let weight = -g_sum / (h_sum + LAMBDA);
            if depth >= self.config.max_depth || rows.len() < 2 {
                return self.leaf(weight, depth);
            }
            // As the grower phrases it: a NaN gain is not `<=` the floor.
            let split = match self.best_split(&hist, g_sum, h_sum) {
                Some(split) if split.gain <= MIN_SPLIT_GAIN => None,
                best => best,
            };
            let Some(split) = split else {
                return self.leaf(weight, depth);
            };
            let codes = self.binned.codes(split.feature);
            let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
                rows.into_iter().partition(|&i| codes[i] <= split.left_bin);
            let small_is_left = left_rows.len() <= right_rows.len();
            let (small, large) = if small_is_left {
                (&left_rows, &right_rows)
            } else {
                (&right_rows, &left_rows)
            };
            let small_hist = self.fill(small);
            let large_hist = if self.subtraction {
                let mut derived = hist;
                for (cell, s) in derived.iter_mut().zip(&small_hist) {
                    cell.g -= s.g;
                    cell.h -= s.h;
                    cell.n -= s.n;
                }
                derived
            } else {
                self.fill(large)
            };
            let (left_hist, right_hist) = if small_is_left {
                (small_hist, large_hist)
            } else {
                (large_hist, small_hist)
            };
            let at = self.forest.push_leaf(0.0);
            let left = self.build(left_rows, depth + 1, left_hist);
            let right = self.build(right_rows, depth + 1, right_hist);
            self.forest.set_split(
                at,
                split.feature,
                split.threshold,
                split.left_bin,
                left,
                right,
            );
            at
        }

        fn best_split(&self, hist: &[HistBin], g_sum: f64, h_sum: f64) -> Option<BestSplit> {
            let parent_score = g_sum * g_sum / (h_sum + LAMBDA);
            let mut best: Option<BestSplit> = None;
            for feature in 0..self.binned.features() {
                let bins = self.binned.feature_bins(feature);
                let cells = &hist[self.offsets[feature]..self.offsets[feature + 1]];
                let (mut g_left, mut h_left) = (0.0, 0.0);
                let mut last_present: Option<usize> = None;
                for (b, cell) in cells.iter().enumerate() {
                    if cell.n == 0 {
                        continue;
                    }
                    if let Some(prev) = last_present {
                        let h_right = h_sum - h_left;
                        if h_left >= self.config.min_child_weight
                            && h_right >= self.config.min_child_weight
                        {
                            let g_right = g_sum - g_left;
                            let gain = 0.5
                                * (g_left * g_left / (h_left + LAMBDA)
                                    + g_right * g_right / (h_right + LAMBDA)
                                    - parent_score);
                            if best.as_ref().is_none_or(|cur| gain > cur.gain) {
                                best = Some(BestSplit {
                                    feature,
                                    threshold: 0.5 * (bins.max_of(prev) + bins.min_of(b)),
                                    gain,
                                    left_bin: prev as u8,
                                });
                            }
                        }
                    }
                    g_left += cell.g;
                    h_left += cell.h;
                    last_present = Some(b);
                }
            }
            best
        }
    }

    /// Three informative columns plus a constant and an all-NaN one (both
    /// single-bin: no cells, never split). `distinct` bounds the values a
    /// column can take: at most `MAX_BINS` puts every value in its own
    /// bin, more forces quantile bins. A few NaNs ride the last bin.
    fn grower_fixture(rng: &mut StdRng, n: usize, distinct: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| {
                let mut row: Vec<f64> = (0..3)
                    .map(|f| rng.gen_range(0..distinct) as f64 * (0.5 + f as f64) - 40.0)
                    .collect();
                if rng.gen_range(0..50) == 0 {
                    row[1] = f64::NAN;
                }
                row.extend([7.25, f64::NAN]);
                row
            })
            .collect()
    }

    /// Grows `trees` trees (statistics drawn row by row from `draw`)
    /// through **one** grower onto **one** forest, and asserts that after
    /// each the forest equals, array for array and bin codes included, the
    /// one a fresh grower per tree and the dense oracle build up from the
    /// same inputs — so reusing the pool, emitting at a nonzero node
    /// offset, and taking node totals from the partition pass instead of a
    /// row-order sum, change nothing; afterwards every pooled histogram
    /// must be clear.
    fn assert_reused_grower_is_fresh_and_dense(
        rng: &mut StdRng,
        binned: &BinnedMatrix,
        config: &TreeConfig,
        trees: usize,
        draw: impl Fn(&mut StdRng) -> (f64, f64),
    ) {
        let n = binned.rows();
        let mut reused = TreeGrower::new(binned, config);
        let (mut got, mut fresh, mut dense) = (unit_forest(), unit_forest(), unit_forest());
        for tree in 0..trees {
            let (g, h): (Vec<f64>, Vec<f64>) = (0..n).map(|_| draw(rng)).unzip();
            let what = format!("tree {tree} over {n} rows, {config:?}");
            reused.grow(|i| (g[i], h[i]), &mut got);
            TreeGrower::new(binned, config).grow(|i| (g[i], h[i]), &mut fresh);
            got.assert_same_trees(&fresh, true, &what);
            DenseReference::grow(binned, &g, &h, config, true, &mut dense);
            got.assert_same_trees(&dense, true, &what);
        }
        assert_eq!(got.tree_count(), trees);
        assert!(!reused.pool.is_empty());
        assert!(
            reused.pool.iter().all(NodeHist::is_clear),
            "release must leave pooled histograms all-zero with empty bitmaps"
        );
    }

    fn finite_stats(rng: &mut StdRng) -> (f64, f64) {
        (rng.gen_range(-10.0..10.0), rng.gen_range(0.1..2.0))
    }

    #[test]
    fn partition_is_stable_and_totals_each_side_in_row_order() {
        // Column 0 takes the values 0..5 (one bin each), scattered over the
        // rows; the buffer starts in identity order.
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![f64::from((i * 7) % 5)]).collect();
        let binned = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&x)), 256);
        let codes = binned.codes(0);
        let g: Vec<f64> = (0..40).map(|i| f64::from(i) * 0.37 - 5.0).collect();
        let h: Vec<f64> = (0..40).map(|i| 0.5 + f64::from(i % 3)).collect();
        let stats = RowStats {
            gradients: &g,
            hessians: &h,
        };
        let config = TreeConfig::default();
        let fresh = || {
            let mut grower = TreeGrower::new(&binned, &config);
            for (id, row) in grower.rows.iter_mut().enumerate() {
                *row = Row {
                    id,
                    g: g[id],
                    h: h[id],
                };
            }
            grower
        };
        let ids = |grower: &TreeGrower<'_>| -> Vec<usize> {
            grower.rows.iter().map(|row| row.id).collect()
        };
        let identity: Vec<usize> = (0..40).collect();

        // Everything left: every write lands on the slot it was read from
        // and the staging copy is empty.
        let mut grower = fresh();
        let (mid, left, right) = grower.partition(5, 30, 0, u8::MAX);
        assert_eq!((mid, right), (30, (0.0, 0.0)));
        assert_eq!(left, stats.sums(&identity[5..30]));
        assert_eq!(ids(&grower), identity);

        // Everything right: the front cursor never moves and the whole
        // range comes back from staging, in order. Rows 0..=2 hold codes
        // {0, 2, 4}, so over 1..3 nothing is `<= 1`.
        assert_eq!(codes[..3], [0, 2, 4]);
        let mut grower = fresh();
        let (mid, left, right) = grower.partition(1, 3, 0, 1);
        assert_eq!((mid, left), (1, (0.0, 0.0)));
        assert_eq!(right, stats.sums(&identity[1..3]));
        assert_eq!(ids(&grower), identity);

        // A real split of a sub-range: both sides keep ascending row order,
        // the statistics travel with their ids, rows outside stay put.
        let mut grower = fresh();
        let (mid, left, right) = grower.partition(4, 36, 0, 1);
        let (lefts, rights): (Vec<usize>, Vec<usize>) = (4..36).partition(|&i| codes[i] <= 1);
        assert_eq!(mid, 4 + lefts.len());
        assert_eq!((left, right), (stats.sums(&lefts), stats.sums(&rights)));
        let want: Vec<usize> = (0..4).chain(lefts).chain(rights).chain(36..40).collect();
        assert_eq!(ids(&grower), want);
        for row in &grower.rows {
            assert_eq!((row.g, row.h), (g[row.id], h[row.id]));
        }
    }

    #[test]
    fn reused_grower_matches_fresh_under_parallel_fills() {
        // Above PAR_MIN_ROWS the root and the large children fill through
        // the pool (n_threads = 4): per-feature cell and bitmap slices are
        // disjoint, so pooled buffers come back exactly as clean.
        let mut rng = StdRng::seed_from_u64(0x9120);
        let n = TreeGrower::PAR_MIN_ROWS + 1500;
        let x = grower_fixture(&mut rng, n, 900);
        let binned = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&x)), 256);
        for n_threads in [1, 4] {
            let config = TreeConfig {
                max_depth: 4,
                n_threads,
                ..TreeConfig::default()
            };
            assert_reused_grower_is_fresh_and_dense(&mut rng, &binned, &config, 20, finite_stats);
        }
    }

    proptest! {
        /// Leaf predictions stay within the hull of the Newton-optimal
        /// per-sample weights and zero, toward which λ shrinks every leaf
        /// (for unit hessians, within [-max|g|, max|g|]).
        #[test]
        fn prop_predictions_bounded_by_gradient_hull(
            ys in proptest::collection::vec(-100.0..100.0f64, 2..40)) {
            let x: Vec<Vec<f64>> = (0..ys.len()).map(|i| vec![i as f64]).collect();
            let (g, h) = squared_loss_grads(&ys);
            let tree = grow(&x, &g, &h, &TreeConfig::default());
            let lo = ys.iter().cloned().fold(0.0, f64::min);
            let hi = ys.iter().cloned().fold(0.0, f64::max);
            for i in 0..ys.len() {
                let p = tree.predict(&[i as f64]);
                prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
            }
        }

        /// Tree structure respects depth limits for random targets.
        #[test]
        fn prop_depth_bounded(ys in proptest::collection::vec(-10.0..10.0f64, 2..64),
                              depth in 1usize..5) {
            let x: Vec<Vec<f64>> = (0..ys.len()).map(|i| vec![i as f64]).collect();
            let (g, h) = squared_loss_grads(&ys);
            let cfg = TreeConfig { max_depth: depth, ..TreeConfig::default() };
            let tree = grow(&x, &g, &h, &cfg);
            prop_assert!(tree.max_depth() <= depth);
            prop_assert!(tree.leaf_count() <= 1 << depth);
        }

        /// **Exact ≡ histogram**: whenever every feature has at most
        /// `MAX_BINS` distinct values, sort-based enumeration and dense
        /// histograms must produce *identical* trees — same structure,
        /// same features, bit-for-bit the same thresholds and leaf
        /// weights. Features are drawn from a small value pool to force
        /// that regime while still exercising ties, duplicates, and
        /// multi-feature interaction.
        ///
        /// The histogram side accumulates both children directly, whose
        /// per-bin sums match the exact builder's tie-breaking bit for
        /// bit. Subtraction derives sibling histograms with
        /// addition-reordering ulps, which can flip the winner between two
        /// *equally good* splits (same partition via a different feature)
        /// — semantically equivalent trees that fail structural equality;
        /// `prop_subtraction_matches_direct` ties the grower to this
        /// reference at prediction level.
        #[test]
        fn prop_histogram_equals_exact_when_bins_cover_values(
            pool_picks in proptest::collection::vec(
                proptest::collection::vec(0usize..12, 3), 4..48),
            ys in proptest::collection::vec(-50.0..50.0f64, 48),
            depth in 1usize..5) {
            // 12 possible values per feature << MAX_BINS = 256.
            let values = [-3.0, -1.5, -0.75, 0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0];
            let x: Vec<Vec<f64>> = pool_picks
                .iter()
                .map(|picks| picks.iter().map(|&p| values[p]).collect())
                .collect();
            let n = x.len();
            let (g, h) = squared_loss_grads(&ys[..n]);
            let cfg = TreeConfig { max_depth: depth, ..TreeConfig::default() };
            let (mut exact, mut hist) = (unit_forest(), unit_forest());
            ExactBuilder::grow(&x, &g, &h, &cfg, &mut exact);
            let binned = BinnedMatrix::build_for(MatrixView::RowSlices(&row_slices(&x)), &cfg);
            DenseReference::grow(&binned, &g, &h, &cfg, false, &mut hist);
            // The sort-based builder has no bin codes to compare.
            hist.assert_same_trees(&exact, false, "dense histograms vs sort-based");
        }

        /// **Histogram subtraction ≡ direct accumulation**: the grower,
        /// which derives the larger child as `parent − smaller`, must
        /// train a model whose predictions match the direct-accumulation
        /// reference on every training row. Tolerance (not bitwise)
        /// because the derived gradient sums carry addition-reordering
        /// ulps that may pick a different-but-equal split when two
        /// candidates tie exactly.
        #[test]
        fn prop_subtraction_matches_direct(
            cols in proptest::collection::vec(
                proptest::collection::vec(-100.0..100.0f64, 3), 4..64),
            depth in 1usize..6) {
            let x: Vec<Vec<f64>> = cols;
            let ys: Vec<f64> = x.iter().map(|r| r[0] * 0.5 - r[1] + r[2] * r[2] * 0.01).collect();
            let (g, h) = squared_loss_grads(&ys);
            let cfg = TreeConfig { max_depth: depth, ..TreeConfig::default() };
            // 16 bins force real quantization, not one bin per value.
            let binned = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&x)), 16);
            let mut direct = unit_forest();
            DenseReference::grow(&binned, &g, &h, &cfg, false, &mut direct);
            let sub = grow_binned(&binned, &g, &h, &cfg);
            let scale = ys.iter().fold(1.0f64, |m, v| m.max(v.abs()));
            for row in &x {
                let (a, b) = (direct.predict(row), sub.predict(row));
                prop_assert!(
                    (a - b).abs() <= 1e-9 * scale,
                    "direct {a} vs subtraction {b}"
                );
            }
        }

        /// **One grower per fit ≡ one grower per tree ≡ dense histograms**,
        /// in both bin regimes (every distinct value its own bin; more
        /// than 256 distinct values, so quantile bins): pooling histograms
        /// across trees, walking present bins only and appending to a
        /// forest that already holds trees must not change one bit of any
        /// tree.
        #[test]
        fn prop_reused_grower_equals_fresh_and_dense(
            seed in 0u64..1_000_000,
            depth in 1usize..6,
            quantile_regime in 0u8..2) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (n, distinct) = if quantile_regime == 1 {
                (rng.gen_range(400..600), 5000)
            } else {
                (rng.gen_range(20..160), 40)
            };
            let x = grower_fixture(&mut rng, n, distinct);
            let binned = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&x)), 256);
            let mut column: Vec<f64> = x.iter().map(|row| row[0]).collect();
            column.sort_by(f64::total_cmp);
            column.dedup();
            let one_bin_per_value = binned.feature_bins(0).n_bins() == column.len();
            prop_assert_eq!(one_bin_per_value, quantile_regime == 0);
            let config = TreeConfig { max_depth: depth, ..TreeConfig::default() };
            assert_reused_grower_is_fresh_and_dense(&mut rng, &binned, &config, 20, finite_stats);
        }

        /// **Fused partition totals ≡ row-order sums, whatever the
        /// gradients hold**: with NaN of either sign, ±∞ and ±0.0 mixed
        /// into the gradients, every split and every leaf weight is still
        /// bit for bit the dense oracle's, which sums each node's rows from
        /// `+0.0`. This is the test that fails if a side's total is ever
        /// formed by multiplying with a 0/1 mask instead of selecting —
        /// `NaN · 0` and `∞ · 0` are NaN and would poison the sibling.
        /// (`assert_same_trees` holds leaf weights to their bits, any NaN
        /// equal to any NaN.)
        #[test]
        fn prop_fused_totals_equal_row_order_sums(
            seed in 0u64..1_000_000,
            depth in 1usize..6) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(20..160);
            let x = grower_fixture(&mut rng, n, 40);
            let binned = BinnedMatrix::build(MatrixView::RowSlices(&row_slices(&x)), 256);
            let config = TreeConfig { max_depth: depth, ..TreeConfig::default() };
            let specials = [
                f64::NAN,
                -f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                -0.0,
                0.0,
            ];
            // One row in `rarity` is special: from mostly-poisoned nodes
            // to trees where a single leaf holds the one NaN.
            let rarity = rng.gen_range(2..40);
            assert_reused_grower_is_fresh_and_dense(&mut rng, &binned, &config, 12, |rng| {
                let (g, h) = finite_stats(rng);
                if rng.gen_range(0..rarity) == 0 {
                    (specials[rng.gen_range(0..specials.len())], h)
                } else {
                    (g, h)
                }
            });
        }
    }
}
