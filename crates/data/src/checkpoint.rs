//! Checkpoint views handed to predictors by the simulator.

/// A finished task as visible at a checkpoint: features *and* latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FinishedTask<'a> {
    /// The task's id within its job.
    pub id: usize,
    /// The task's frozen feature snapshot.
    pub features: &'a [f64],
    /// The task's observed latency (`y_i ≤ τ_run_t` by construction).
    pub latency: f64,
}

/// A still-running task as visible at a checkpoint: features only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningTask<'a> {
    /// The task's id within its job.
    pub id: usize,
    /// The task's feature snapshot at this checkpoint.
    pub features: &'a [f64],
}

/// Everything a predictor may observe at the `t`-th checkpoint.
///
/// The simulator guarantees:
/// * every task in `finished` has `latency <= time`;
/// * every task in `running` has true latency `> time` (unknown to the
///   predictor) and has not been flagged at an earlier checkpoint;
/// * tasks flagged as stragglers at earlier checkpoints appear in neither
///   list (the paper stops evaluating flagged tasks).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint<'a> {
    /// Ordinal of this checkpoint within the replay (0-based).
    pub ordinal: usize,
    /// Elapsed time `τ_run_t` at this checkpoint.
    pub time: f64,
    /// Tasks that have finished by `time`, with observed latencies.
    pub finished: Vec<FinishedTask<'a>>,
    /// Tasks still running at `time`.
    pub running: Vec<RunningTask<'a>>,
}

impl<'a> Checkpoint<'a> {
    /// Feature matrix of the finished tasks (row per task).
    ///
    /// Copies every feature value; hot paths should prefer
    /// [`Checkpoint::finished_feature_rows`], which only gathers slice
    /// pointers into the trace's own storage.
    #[must_use]
    pub fn finished_features(&self) -> Vec<Vec<f64>> {
        self.finished.iter().map(|t| t.features.to_vec()).collect()
    }

    /// Zero-copy matrix view of the finished tasks' features: borrowed row
    /// slices pointing straight into the trace storage (only the slice
    /// pointers are gathered). Feed to the ML layer via
    /// `nurd_linalg::MatrixView::RowSlices`.
    #[must_use]
    pub fn finished_feature_rows(&self) -> Vec<&'a [f64]> {
        self.finished.iter().map(|t| t.features).collect()
    }

    /// Zero-copy matrix view of the running tasks' features (see
    /// [`Checkpoint::finished_feature_rows`]).
    #[must_use]
    pub fn running_feature_rows(&self) -> Vec<&'a [f64]> {
        self.running.iter().map(|t| t.features).collect()
    }

    /// Observed latencies of the finished tasks, aligned with
    /// [`Checkpoint::finished_features`].
    #[must_use]
    pub fn finished_latencies(&self) -> Vec<f64> {
        self.finished.iter().map(|t| t.latency).collect()
    }

    /// Feature matrix of the running tasks (row per task).
    #[must_use]
    pub fn running_features(&self) -> Vec<Vec<f64>> {
        self.running.iter().map(|t| t.features.to_vec()).collect()
    }

    /// Total number of visible tasks (finished + running).
    #[must_use]
    pub fn visible_count(&self) -> usize {
        self.finished.len() + self.running.len()
    }
}

/// Tracks which finished tasks a consumer has already absorbed, exposing
/// each checkpoint's finished set as a **delta** against the previous one.
///
/// The replay protocol guarantees the finished set only ever grows (a
/// finished task stays finished; flagged tasks leave the *running* list,
/// never the finished one) and that a finished task's feature snapshot is
/// frozen. Consecutive checkpoints therefore share almost all finished
/// rows, and incremental consumers — the warm-start refit path in
/// `nurd-core`, most prominently — only need the handful of newly finished
/// tasks per checkpoint. This tracker owns that bookkeeping: feed it every
/// checkpoint and it returns the tasks not seen before, in a stable
/// absorb order suitable for append-only training-matrix storage.
#[derive(Debug, Clone, Default)]
pub struct FinishedDelta {
    /// `seen[id]` once task `id` has been returned by `absorb`.
    seen: Vec<bool>,
}

impl FinishedDelta {
    /// Forgets everything — call between jobs. Keeps the allocation.
    pub fn clear(&mut self) {
        self.seen.clear();
    }

    /// Returns the finished tasks of `checkpoint` that have not been
    /// absorbed before, marking them absorbed. Order follows the
    /// checkpoint's own finished order, so repeated calls over a replay
    /// yield every finished task exactly once, in a deterministic
    /// append sequence.
    pub fn absorb<'c, 'a>(&mut self, checkpoint: &'c Checkpoint<'a>) -> Vec<&'c FinishedTask<'a>> {
        let mut fresh = Vec::new();
        for task in &checkpoint.finished {
            if task.id >= self.seen.len() {
                self.seen.resize(task.id + 1, false);
            }
            if !self.seen[task.id] {
                self.seen[task.id] = true;
                fresh.push(task);
            }
        }
        fresh
    }

    /// Number of distinct finished tasks absorbed so far.
    fn absorbed(&self) -> usize {
        self.seen.iter().filter(|&&seen| seen).count()
    }
}

impl nurd_codec::Checkpointable for FinishedDelta {
    /// `seen`, then how many of its entries are set — a count the decoder
    /// recomputes and holds the bytes to.
    fn encode(&self, enc: &mut nurd_codec::Encoder) {
        self.seen.encode(enc);
        enc.put_usize(self.absorbed());
    }

    fn decode(dec: &mut nurd_codec::Decoder<'_>) -> Result<Self, nurd_codec::CodecError> {
        let delta = FinishedDelta {
            seen: nurd_codec::Checkpointable::decode(dec)?,
        };
        let (declared, absorbed) = (dec.take_usize()?, delta.absorbed());
        if declared != absorbed {
            return Err(nurd_codec::CodecError::LengthOverrun {
                declared: declared as u64,
                remaining: absorbed,
            });
        }
        Ok(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        (vec![vec![1.0, 2.0], vec![3.0, 4.0]], vec![vec![5.0, 6.0]])
    }

    #[test]
    fn matrices_align_with_views() {
        let (fin, run) = fixture();
        let ckpt = Checkpoint {
            ordinal: 2,
            time: 10.0,
            finished: vec![
                FinishedTask {
                    id: 0,
                    features: &fin[0],
                    latency: 4.0,
                },
                FinishedTask {
                    id: 1,
                    features: &fin[1],
                    latency: 9.0,
                },
            ],
            running: vec![RunningTask {
                id: 2,
                features: &run[0],
            }],
        };
        assert_eq!(ckpt.finished_features(), fin);
        assert_eq!(ckpt.finished_latencies(), vec![4.0, 9.0]);
        assert_eq!(ckpt.running_features(), run);
        assert_eq!(ckpt.visible_count(), 3);
    }

    #[test]
    fn zero_copy_rows_alias_trace_storage() {
        let (fin, run) = fixture();
        let ckpt = Checkpoint {
            ordinal: 1,
            time: 10.0,
            finished: vec![FinishedTask {
                id: 0,
                features: &fin[0],
                latency: 4.0,
            }],
            running: vec![RunningTask {
                id: 1,
                features: &run[0],
            }],
        };
        let fin_rows = ckpt.finished_feature_rows();
        let run_rows = ckpt.running_feature_rows();
        // Same pointers, not copies.
        assert!(std::ptr::eq(fin_rows[0], fin[0].as_slice()));
        assert!(std::ptr::eq(run_rows[0], run[0].as_slice()));
    }

    #[test]
    fn finished_delta_yields_each_task_once_in_absorb_order() {
        let f: Vec<Vec<f64>> = (0..4).map(|i| vec![f64::from(i)]).collect();
        let fin_task = |id: usize| FinishedTask {
            id,
            features: &f[id],
            latency: id as f64 + 1.0,
        };
        let ckpt = |ids: &[usize]| Checkpoint {
            ordinal: 0,
            time: 10.0,
            finished: ids.iter().map(|&i| fin_task(i)).collect(),
            running: vec![],
        };
        let mut delta = FinishedDelta::default();
        // Checkpoint 1: tasks 1 and 3 finished.
        let c1 = ckpt(&[1, 3]);
        let d1 = delta.absorb(&c1);
        assert_eq!(d1.iter().map(|t| t.id).collect::<Vec<_>>(), vec![1, 3]);
        // Checkpoint 2: task 2 finished in between — interleaved by id in
        // the checkpoint view, but the delta only surfaces the new task.
        let c2 = ckpt(&[1, 2, 3]);
        let d2 = delta.absorb(&c2);
        assert_eq!(d2.iter().map(|t| t.id).collect::<Vec<_>>(), vec![2]);
        assert_eq!(delta.absorbed(), 3);
        // Re-feeding an old checkpoint yields nothing new.
        assert!(delta.absorb(&c1).is_empty());
        delta.clear();
        assert_eq!(delta.absorbed(), 0);
        assert_eq!(delta.absorb(&c1).len(), 2);
    }

    #[test]
    fn empty_checkpoint_has_zero_visible() {
        let ckpt = Checkpoint {
            ordinal: 0,
            time: 1.0,
            finished: vec![],
            running: vec![],
        };
        assert_eq!(ckpt.visible_count(), 0);
        assert!(ckpt.finished_features().is_empty());
    }
}
