//! Contiguous column-major feature storage for the ML training hot path.
//!
//! # Why column-major
//!
//! NURD refits its latency head and propensity model at *every checkpoint
//! of every job*, so the layout of the training matrix is the single most
//! important constant factor in end-to-end replay speed. The histogram
//! tree builder in `nurd-ml` quantizes one feature column at a time and
//! then scans per-column bin codes; a column-major layout makes both of
//! those passes a single linear sweep over contiguous `f64`s instead of a
//! pointer chase through `Vec<Vec<f64>>` rows. Row-oriented consumers
//! (tree traversal, IRLS) go through [`MatrixView`], which also accepts
//! borrowed row slices so call sites can stay zero-copy.
//!
//! [`FeatureMatrix`] is an owned buffer designed for *reuse*: call
//! [`FeatureMatrix::fill_from_rows`] with fresh checkpoint data and the
//! previous allocation is recycled, which is what
//! `nurd_core::NurdPredictor` does with its per-predictor scratch
//! buffers.

use crate::LinalgError;

/// Owned, contiguous, column-major `rows x cols` matrix of `f64`.
///
/// Element `(r, c)` lives at `data[c * rows + r]`, so
/// [`FeatureMatrix::column`] is a contiguous slice — the access pattern
/// the binned tree builder and the standardization passes want.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FeatureMatrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl FeatureMatrix {
    /// An empty matrix with no rows and no columns (useful as scratch to
    /// be filled later via [`FeatureMatrix::fill_from_rows`]).
    #[must_use]
    pub fn new() -> Self {
        FeatureMatrix::default()
    }

    /// A zero-filled `rows x cols` matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        FeatureMatrix {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Builds from row-major sample rows. No rows yields an empty matrix
    /// (a valid scratch state), not an error.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] on ragged or zero-width rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, LinalgError> {
        let mut m = FeatureMatrix::new();
        m.try_fill_from_rows(rows.iter().map(Vec::as_slice))?;
        Ok(m)
    }

    /// Refills the matrix in place from an iterator of rows, reusing the
    /// existing allocation. The matrix is left empty when `rows` is empty.
    ///
    /// # Panics
    ///
    /// Panics on ragged rows (all rows must share one width).
    pub fn fill_from_rows<'r>(&mut self, rows: impl ExactSizeIterator<Item = &'r [f64]>) {
        self.try_fill_from_rows(rows)
            .expect("rows must be non-ragged");
    }

    fn try_fill_from_rows<'r>(
        &mut self,
        rows: impl ExactSizeIterator<Item = &'r [f64]>,
    ) -> Result<(), LinalgError> {
        let n = rows.len();
        self.data.clear();
        self.rows = 0;
        self.cols = 0;
        if n == 0 {
            return Ok(());
        }
        let mut iter = rows;
        let first = iter.next().expect("len checked above");
        let d = first.len();
        if d == 0 {
            return Err(LinalgError::ShapeMismatch {
                expected: "at least one feature".into(),
                found: "zero-width rows".into(),
            });
        }
        self.data.resize(n * d, 0.0);
        self.rows = n;
        self.cols = d;
        self.write_row(0, first)?;
        for (idx, row) in iter.enumerate() {
            self.write_row(idx + 1, row)?;
        }
        Ok(())
    }

    /// Appends rows in place, preserving the existing samples and reusing
    /// the allocation's spare capacity. This is the storage half of the
    /// warm-start refit path: consecutive NURD checkpoints share almost all
    /// of their finished set, so the per-checkpoint design matrix grows by
    /// a handful of rows instead of being regathered from scratch.
    ///
    /// The column-major layout means existing columns must shift to their
    /// new stride; that is done with one overlapping `memmove` per column
    /// (back to front), never a re-gather of old row data. Appending to an
    /// empty matrix behaves like [`FeatureMatrix::fill_from_rows`].
    ///
    /// # Panics
    ///
    /// Panics when an appended row's width differs from `cols()` (or from
    /// the first appended row's width when the matrix is empty).
    pub fn append_rows<'r>(&mut self, rows: impl ExactSizeIterator<Item = &'r [f64]>) {
        if self.rows == 0 {
            self.fill_from_rows(rows);
            return;
        }
        let add = rows.len();
        if add == 0 {
            return;
        }
        let old = self.rows;
        let new = old + add;
        let cols = self.cols;
        self.data.resize(new * cols, 0.0);
        // Shift columns to the new stride, last column first so every
        // move lands above the not-yet-moved data it may overlap.
        for c in (1..cols).rev() {
            self.data.copy_within(c * old..(c + 1) * old, c * new);
        }
        self.rows = new;
        for (k, row) in rows.enumerate() {
            assert_eq!(row.len(), cols, "appended row width mismatch");
            for (c, &v) in row.iter().enumerate() {
                self.data[c * new + old + k] = v;
            }
        }
    }

    fn write_row(&mut self, r: usize, row: &[f64]) -> Result<(), LinalgError> {
        if row.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("rows of length {}", self.cols),
                found: format!("row of length {}", row.len()),
            });
        }
        for (c, &v) in row.iter().enumerate() {
            self.data[c * self.rows + r] = v;
        }
        Ok(())
    }

    /// Number of rows (samples).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (features).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    #[must_use]
    fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[c * self.rows + r]
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[c * self.rows + r] = value;
    }

    /// Column `c` as one contiguous slice — the payoff of the layout.
    ///
    /// # Panics
    ///
    /// Panics when `c >= cols`.
    #[inline]
    #[must_use]
    pub fn column(&self, c: usize) -> &[f64] {
        &self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// Copies row `r` into `buf` (which must have length `cols`).
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of bounds or `buf` has the wrong length.
    pub fn row_into(&self, r: usize, buf: &mut [f64]) {
        assert_eq!(buf.len(), self.cols, "buffer width mismatch");
        for (c, slot) in buf.iter_mut().enumerate() {
            *slot = self.data[c * self.rows + r];
        }
    }

    /// Read-only [`MatrixView`] over this matrix.
    #[must_use]
    pub fn view(&self) -> MatrixView<'_> {
        MatrixView::Columns(self)
    }
}

/// A borrowed, layout-polymorphic view of a samples-by-features matrix.
///
/// The ML fitting routines take this type so the same code path serves
/// borrowed row slices (checkpoint task views, or `&[Vec<f64>]` rows
/// borrowed one slice each) and the column-major [`FeatureMatrix`]
/// without materializing a copy.
#[derive(Debug, Clone, Copy)]
pub enum MatrixView<'a> {
    /// Borrowed row slices, e.g. straight out of checkpoint task views.
    RowSlices(&'a [&'a [f64]]),
    /// Borrowed column-major storage.
    Columns(&'a FeatureMatrix),
}

impl<'a> MatrixView<'a> {
    /// Number of rows (samples).
    #[must_use]
    pub fn rows(&self) -> usize {
        match self {
            MatrixView::RowSlices(r) => r.len(),
            MatrixView::Columns(m) => m.rows(),
        }
    }

    /// Number of columns (features); `0` for an empty view.
    #[must_use]
    pub fn cols(&self) -> usize {
        match self {
            MatrixView::RowSlices(r) => r.first().map_or(0, |row| row.len()),
            MatrixView::Columns(m) => m.cols(),
        }
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        match self {
            MatrixView::RowSlices(rows) => rows[r][c],
            MatrixView::Columns(m) => m.get(r, c),
        }
    }

    /// Row `r` as a contiguous slice when the underlying layout has one
    /// (`RowSlices`); `None` for column-major storage.
    #[must_use]
    pub fn row_slice(&self, r: usize) -> Option<&'a [f64]> {
        match self {
            MatrixView::RowSlices(rows) => Some(rows[r]),
            MatrixView::Columns(_) => None,
        }
    }

    /// Copies row `r` into `buf` (length `cols`).
    ///
    /// # Panics
    ///
    /// Panics when out of bounds or on width mismatch.
    pub fn row_into(&self, r: usize, buf: &mut [f64]) {
        match self {
            MatrixView::RowSlices(rows) => buf.copy_from_slice(rows[r]),
            MatrixView::Columns(m) => m.row_into(r, buf),
        }
    }

    /// Copies column `c` into `out` (cleared first). For column-major
    /// storage this is a `memcpy`; for row layouts it gathers.
    ///
    /// # Panics
    ///
    /// Panics when `c >= cols`.
    pub fn gather_column(&self, c: usize, out: &mut Vec<f64>) {
        out.clear();
        match self {
            MatrixView::RowSlices(rows) => out.extend(rows.iter().map(|row| row[c])),
            MatrixView::Columns(m) => out.extend_from_slice(m.column(c)),
        }
    }

    /// Validates that every row has the same non-zero width and that the
    /// row count matches `expected_rows`; returns the width.
    ///
    /// # Errors
    ///
    /// [`LinalgError::Empty`] on no rows, [`LinalgError::ShapeMismatch`]
    /// on ragged/zero-width rows or a row-count mismatch.
    pub fn validated_dims(&self, expected_rows: usize) -> Result<usize, LinalgError> {
        let n = self.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        if n != expected_rows {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("{expected_rows} rows"),
                found: format!("{n} rows"),
            });
        }
        let d = self.cols();
        if d == 0 {
            return Err(LinalgError::ShapeMismatch {
                expected: "at least one feature".into(),
                found: "zero-width rows".into(),
            });
        }
        let ragged = match self {
            MatrixView::RowSlices(rows) => {
                rows.iter().find(|row| row.len() != d).map(|row| row.len())
            }
            MatrixView::Columns(_) => None,
        };
        if let Some(w) = ragged {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("rows of length {d}"),
                found: format!("row of length {w}"),
            });
        }
        Ok(d)
    }
}

impl<'a> From<&'a [&'a [f64]]> for MatrixView<'a> {
    fn from(rows: &'a [&'a [f64]]) -> Self {
        MatrixView::RowSlices(rows)
    }
}

impl<'a> From<&'a FeatureMatrix> for MatrixView<'a> {
    fn from(m: &'a FeatureMatrix) -> Self {
        MatrixView::Columns(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Vec<f64>> {
        vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]
    }

    #[test]
    fn from_rows_round_trips() {
        let rows = sample();
        let m = FeatureMatrix::from_rows(&rows).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 2), 6.0);
        let mut row = [0.0; 3];
        for (r, expected) in rows.iter().enumerate() {
            m.row_into(r, &mut row);
            assert_eq!(&row[..], &expected[..]);
        }
    }

    #[test]
    fn columns_are_contiguous() {
        let m = FeatureMatrix::from_rows(&sample()).unwrap();
        assert_eq!(m.column(0), &[1.0, 4.0]);
        assert_eq!(m.column(2), &[3.0, 6.0]);
    }

    #[test]
    fn fill_reuses_allocation_and_resizes() {
        let mut m = FeatureMatrix::from_rows(&sample()).unwrap();
        let fresh = [vec![9.0], vec![8.0], vec![7.0]];
        m.fill_from_rows(fresh.iter().map(Vec::as_slice));
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 1);
        assert_eq!(m.column(0), &[9.0, 8.0, 7.0]);
        m.fill_from_rows(std::iter::empty());
        assert!(m.is_empty());
    }

    #[test]
    fn append_rows_preserves_prefix_and_matches_full_rebuild() {
        let mut grown = FeatureMatrix::from_rows(&sample()).unwrap();
        let extra = [vec![7.0, 8.0, 9.0], vec![10.0, 11.0, 12.0]];
        grown.append_rows(extra.iter().map(Vec::as_slice));

        let mut all = sample();
        all.extend(extra.iter().cloned());
        let rebuilt = FeatureMatrix::from_rows(&all).unwrap();
        assert_eq!(grown, rebuilt);
        assert_eq!(grown.column(0), &[1.0, 4.0, 7.0, 10.0]);
        assert_eq!(grown.column(2), &[3.0, 6.0, 9.0, 12.0]);
    }

    #[test]
    fn append_rows_to_empty_fills() {
        let mut m = FeatureMatrix::new();
        let rows = sample();
        m.append_rows(rows.iter().map(Vec::as_slice));
        assert_eq!(m, FeatureMatrix::from_rows(&rows).unwrap());
        m.append_rows(std::iter::empty());
        assert_eq!(m.rows(), 2);
    }

    #[test]
    fn repeated_single_row_appends_match_batch() {
        let rows: Vec<Vec<f64>> = (0..17)
            .map(|i| vec![f64::from(i), f64::from(i * i), -f64::from(i)])
            .collect();
        let mut incremental = FeatureMatrix::new();
        for row in &rows {
            incremental.append_rows(std::iter::once(row.as_slice()));
        }
        assert_eq!(incremental, FeatureMatrix::from_rows(&rows).unwrap());
    }

    #[test]
    #[should_panic(expected = "appended row width mismatch")]
    fn append_rows_rejects_ragged() {
        let mut m = FeatureMatrix::from_rows(&sample()).unwrap();
        let bad = [vec![1.0]];
        m.append_rows(bad.iter().map(Vec::as_slice));
    }

    #[test]
    fn rejects_ragged_and_empty() {
        assert_eq!(
            FeatureMatrix::from_rows(&[]).map(|m| m.rows()),
            Ok(0),
            "no rows is a valid empty matrix"
        );
        let ragged = vec![vec![1.0, 2.0], vec![3.0]];
        assert!(matches!(
            FeatureMatrix::from_rows(&ragged),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        let zero_width: Vec<Vec<f64>> = vec![vec![]];
        assert!(matches!(
            FeatureMatrix::from_rows(&zero_width),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn views_agree_across_layouts() {
        let rows = sample();
        let slices: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let m = FeatureMatrix::from_rows(&rows).unwrap();
        let views = [MatrixView::RowSlices(&slices), m.view()];
        for v in &views {
            assert_eq!(v.rows(), 2);
            assert_eq!(v.cols(), 3);
            for (r, row) in rows.iter().enumerate() {
                for (c, &want) in row.iter().enumerate() {
                    assert_eq!(v.get(r, c), want);
                }
            }
            let mut buf = [0.0; 3];
            v.row_into(1, &mut buf);
            assert_eq!(buf.as_slice(), rows[1].as_slice());
            let mut col = Vec::new();
            v.gather_column(1, &mut col);
            assert_eq!(col, vec![2.0, 5.0]);
            assert_eq!(v.validated_dims(2).unwrap(), 3);
        }
        assert!(views[0].row_slice(0).is_some());
        assert!(views[1].row_slice(0).is_none());
    }

    #[test]
    fn validated_dims_catches_mismatches() {
        let rows = sample();
        let slices: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let v = MatrixView::RowSlices(&slices);
        assert!(matches!(
            v.validated_dims(3),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            MatrixView::RowSlices(&[]).validated_dims(0),
            Err(LinalgError::Empty)
        ));
        let ragged: [&[f64]; 2] = [&[1.0, 2.0], &[3.0]];
        assert!(matches!(
            MatrixView::RowSlices(&ragged).validated_dims(2),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }
}
