//! Per-task records.

/// Identifier of a task within its job (dense, `0..n`).
pub type TaskId = usize;

/// One task of a job: its true final latency and its feature time series.
///
/// `features[k]` is the feature snapshot recorded at the job's `k`-th
/// checkpoint *of task-local elapsed time*: index `k` corresponds to the
/// task having run for `checkpoint_times[k]` time units. Once a task
/// finishes, its snapshot freezes at the last recorded value; the trace
/// generator materializes the frozen copies so lookups stay O(1).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRecord {
    id: TaskId,
    latency: f64,
    features: Vec<Vec<f64>>,
}

impl TaskRecord {
    /// Creates a task record.
    ///
    /// # Panics
    ///
    /// Panics if `latency` is not finite and positive, or if `features` is
    /// empty. Structural checks against the owning job (row widths, series
    /// length) happen in [`crate::JobTrace::new`].
    #[must_use]
    pub fn new(id: TaskId, latency: f64, features: Vec<Vec<f64>>) -> Self {
        assert!(
            latency.is_finite() && latency > 0.0,
            "task latency must be finite and positive, got {latency}"
        );
        assert!(!features.is_empty(), "task must have at least one snapshot");
        TaskRecord {
            id,
            latency,
            features,
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
        self.features.len()
    }

    /// Feature snapshot at checkpoint index `k`, clamped to the last
    /// available snapshot (a finished task's features stay frozen).
    #[must_use]
    pub fn snapshot(&self, k: usize) -> &[f64] {
        let idx = k.min(self.features.len() - 1);
        &self.features[idx]
    }

    /// All snapshots, in checkpoint order.
    #[must_use]
    pub fn snapshots(&self) -> &[Vec<f64>] {
        &self.features
    }

    /// Feature dimensionality.
    #[must_use]
    pub(crate) fn feature_dim(&self) -> usize {
        self.features[0].len()
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
}
