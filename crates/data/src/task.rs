//! Per-task records.

/// Identifier of a task within its job (dense, `0..n`).
pub type TaskId = usize;

/// One task of a job: its true final latency and its feature time series.
///
/// Snapshot `k` is the feature vector recorded at the job's `k`-th
/// checkpoint *of task-local elapsed time*: index `k` corresponds to the
/// task having run for `checkpoint_times[k]` time units. Once a task
/// finishes, its snapshot freezes at the last recorded value; the trace
/// generator materializes the frozen copies so lookups stay O(1).
///
/// The series lives in one snapshot-major buffer: every snapshot has the
/// same nonzero `width`, and snapshot `k` is
/// `values[k * width..(k + 1) * width]` — one allocation per task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRecord {
    id: TaskId,
    latency: f64,
    width: usize,
    values: Vec<f64>,
}

impl TaskRecord {
    /// Creates a task record from one vector per snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `latency` is not finite and positive, if `features` is
    /// empty or its snapshots are, or if they differ in width (a ragged
    /// series). Structural checks against the owning job (row widths,
    /// series length) happen in [`crate::JobTrace::new`].
    #[must_use]
    pub fn new(id: TaskId, latency: f64, features: Vec<Vec<f64>>) -> Self {
        let width = features.first().map_or(0, Vec::len);
        assert!(
            features.iter().all(|snap| snap.len() == width),
            "task snapshots must all have the same width"
        );
        Self::from_flat(id, latency, width, features.concat())
    }

    /// Creates a task record from its series already laid out
    /// snapshot-major, `width` values per snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `latency` is not finite and positive, or if `values` is
    /// not a whole number, at least one, of `width`-wide snapshots with
    /// `width > 0`.
    #[must_use]
    pub fn from_flat(id: TaskId, latency: f64, width: usize, values: Vec<f64>) -> Self {
        assert!(
            latency.is_finite() && latency > 0.0,
            "task latency must be finite and positive, got {latency}"
        );
        assert!(
            width > 0 && !values.is_empty() && values.len().is_multiple_of(width),
            "task must have at least one snapshot of nonzero width, got {} values of width {width}",
            values.len()
        );
        TaskRecord {
            id,
            latency,
            width,
            values,
        }
    }

    /// The task's identifier within its job.
    #[must_use]
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// The task's true final latency (total duration).
    #[must_use]
    pub fn latency(&self) -> f64 {
        self.latency
    }

    /// Number of recorded snapshots.
    #[must_use]
    pub(crate) fn snapshot_count(&self) -> usize {
        self.values.len() / self.width
    }

    /// Feature snapshot at checkpoint index `k`, clamped to the last
    /// available snapshot (a finished task's features stay frozen).
    #[must_use]
    pub fn snapshot(&self, k: usize) -> &[f64] {
        let start = k
            .saturating_mul(self.width)
            .min(self.values.len() - self.width);
        &self.values[start..start + self.width]
    }

    /// All snapshots, in checkpoint order, as slices of the task's buffer.
    pub fn snapshots(&self) -> std::slice::ChunksExact<'_, f64> {
        self.values.chunks_exact(self.width)
    }

    /// Feature dimensionality.
    #[must_use]
    pub(crate) fn feature_dim(&self) -> usize {
        self.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_clamps_to_last() {
        let t = TaskRecord::new(0, 5.0, vec![vec![1.0], vec![2.0]]);
        assert_eq!(t.snapshot(0), &[1.0]);
        assert_eq!(t.snapshot(1), &[2.0]);
        assert_eq!(t.snapshot(99), &[2.0]);
    }

    #[test]
    fn accessors() {
        let t = TaskRecord::new(3, 7.5, vec![vec![1.0, 2.0]]);
        assert_eq!(t.id(), 3);
        assert_eq!(t.latency(), 7.5);
        assert_eq!(t.snapshot_count(), 1);
        assert_eq!(t.feature_dim(), 2);
    }

    #[test]
    #[should_panic(expected = "latency must be finite and positive")]
    fn rejects_nonpositive_latency() {
        let _ = TaskRecord::new(0, 0.0, vec![vec![1.0]]);
    }

    #[test]
    #[should_panic(expected = "at least one snapshot")]
    fn rejects_empty_series() {
        let _ = TaskRecord::new(0, 1.0, Vec::new());
    }

    #[test]
    #[should_panic(expected = "same width")]
    fn rejects_ragged_series() {
        let _ = TaskRecord::new(0, 1.0, vec![vec![0.1], vec![0.2, 9.9]]);
    }

    #[test]
    fn flat_and_nested_series_are_one_record() {
        let nested = TaskRecord::new(2, 4.0, vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let flat = TaskRecord::from_flat(2, 4.0, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(nested, flat);
        assert_eq!(flat.snapshot(1), &[3.0, 4.0]);
        let snaps: Vec<&[f64]> = flat.snapshots().collect();
        assert_eq!(snaps, vec![&[1.0, 2.0][..], &[3.0, 4.0][..]]);
    }

    #[test]
    #[should_panic(expected = "at least one snapshot of nonzero width")]
    fn rejects_zero_width_snapshots() {
        let _ = TaskRecord::new(0, 1.0, vec![vec![], vec![]]);
    }

    #[test]
    #[should_panic(expected = "got 3 values of width 2")]
    fn from_flat_rejects_a_partial_snapshot() {
        let _ = TaskRecord::from_flat(0, 1.0, 2, vec![1.0, 2.0, 3.0]);
    }
}
