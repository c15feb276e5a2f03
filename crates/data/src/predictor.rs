//! The trait every evaluated method implements, and the one context it
//! starts from. Neither carries a label: through this trait a predictor
//! sees only what its checkpoints reveal.

use crate::{Checkpoint, ScoredPrediction, TaskScore};

/// Job-level context a predictor receives before its first checkpoint:
/// what an *online* system can know up front, and no label. The serving
/// engine hands it over when a job is admitted, and `nurd_sim::replay_job`
/// hands the same fields over before replay starts.
///
/// `threshold` is the straggler latency threshold `τ_stra`. The paper treats
/// threshold selection as out of scope (§4.2) and evaluates all methods at
/// the true p90, so the simulator computes it from the trace and passes it
/// to every method equally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamContext {
    /// The straggler latency threshold `τ_stra`.
    pub threshold: f64,
    /// Number of tasks in the job.
    pub task_count: usize,
    /// Feature dimensionality.
    pub feature_dim: usize,
}

/// An online straggler predictor, driven checkpoint-by-checkpoint.
///
/// A fresh instance is created per job (the paper trains one model per job).
/// At each checkpoint the simulator calls [`OnlinePredictor::predict`]; the
/// returned task ids are flagged as stragglers, removed from subsequent
/// checkpoints, and never unflagged — matching the paper's protocol in §7.1:
/// "If a task is predicted to be a straggler, it will not be evaluated
/// again."
pub trait OnlinePredictor {
    /// Short method name as it appears in the paper's tables ("NURD",
    /// "GBTR", "LOF", ...).
    fn name(&self) -> &str;

    /// Called once before the first checkpoint. This is the only start
    /// hook: `nurd_sim::replay_job` and the `nurd-serve` engine both call
    /// it, with the same [`StreamContext`], so a predictor written against
    /// it is drivable by either. A baseline the paper grants offline
    /// labels (Wrangler) takes them when its factory builds it, never
    /// through this trait.
    fn begin_stream(&mut self, _ctx: &StreamContext) {}

    /// Returns the ids of running tasks predicted to straggle at this
    /// checkpoint. Ids not present in `checkpoint.running` are ignored by
    /// the simulator.
    fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize>;

    /// Like [`OnlinePredictor::predict`], but additionally reports a
    /// normalized straggler score per running task (see
    /// [`TaskScore`]) for consumers — such as mitigation policies — that
    /// want confidence, not just the flag set.
    ///
    /// **Contract:** the returned `flagged` set must be exactly what
    /// [`OnlinePredictor::predict`] would have returned on this
    /// checkpoint, and the predictor's internal state must advance
    /// identically — a caller invokes *one* of the two methods per
    /// checkpoint, never both, and replay determinism relies on the two
    /// paths being interchangeable. The default calls `predict` once and
    /// synthesizes binary scores (`1.0` flagged / `0.0` not); predictors
    /// with a continuous score (NURD's adjusted predictions) override
    /// this to expose it without scoring twice.
    fn predict_scored(&mut self, checkpoint: &Checkpoint<'_>) -> ScoredPrediction {
        let flagged = self.predict(checkpoint);
        let scores = checkpoint
            .running
            .iter()
            .map(|r| TaskScore {
                task: r.id,
                score: if flagged.contains(&r.id) { 1.0 } else { 0.0 },
            })
            .collect();
        ScoredPrediction { flagged, scores }
    }

    /// Scheduling hint from the serving layer: this job may fan its
    /// internal model fits across up to `threads` worker threads (`1` =
    /// stay sequential, `0` = use every core). The engine flips this on
    /// adaptively for oversized jobs whose shard is backlogged — see
    /// `nurd_serve::BalanceConfig` — and may flip it back off.
    ///
    /// **Contract:** honoring the hint must not change any prediction —
    /// only wall-clock time. Implementations should route it to
    /// parallelism knobs that are proven bit-identical across thread
    /// counts (e.g. `nurd_ml::TreeConfig::n_threads`); predictors without
    /// such a knob keep this default no-op.
    fn set_parallelism(&mut self, _threads: usize) {}

    /// Serializes the predictor's fitted state for a crash-recovery
    /// snapshot, or `None` if the predictor does not support state
    /// snapshots (the default). A durable serving engine admits only
    /// predictors that return `Some` (a stateless one may return an empty
    /// blob); it refuses the job of any other.
    ///
    /// **Contract:** a fresh instance from the same factory, taken through
    /// [`OnlinePredictor::begin_stream`] with the same context and then
    /// [`OnlinePredictor::restore_state`] with these bytes, must predict
    /// bit-for-bit identically to this instance on every future
    /// checkpoint.
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state captured by [`OnlinePredictor::snapshot_state`].
    /// Called after [`OnlinePredictor::begin_stream`] on a fresh instance.
    /// Returns `false` (the default) when the predictor does not support
    /// restoration or the bytes are malformed — a recovering engine then
    /// refuses the snapshot holding the blob and falls back to an older one.
    fn restore_state(&mut self, _bytes: &[u8]) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial predictor that flags every running task.
    struct FlagAll;
    impl OnlinePredictor for FlagAll {
        fn name(&self) -> &str {
            "FLAG-ALL"
        }
        fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
            checkpoint.running.iter().map(|r| r.id).collect()
        }
    }

    #[test]
    fn trait_object_is_usable() {
        let ctx = StreamContext {
            threshold: 1.0,
            task_count: 1,
            feature_dim: 1,
        };
        let mut p: Box<dyn OnlinePredictor> = Box::new(FlagAll);
        p.begin_stream(&ctx);
        let features = [0.0];
        let ckpt = Checkpoint {
            ordinal: 0,
            time: 1.0,
            finished: vec![],
            running: vec![crate::RunningTask {
                id: 0,
                features: &features,
            }],
        };
        assert_eq!(p.predict(&ckpt), vec![0]);
        assert_eq!(p.name(), "FLAG-ALL");
    }
}
