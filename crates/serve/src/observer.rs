//! The engine's node-health observation hook.
//!
//! A [`HealthObserver`] is a fleet-level *listener* attached to a running
//! engine (write-once, like the mitigator factory): shard drains feed it
//! every finalized job's report — together with the job's node placement
//! and per-task straggler truth — and, when the engine is scoring, every
//! scored barrier's per-task scores. The observer is **bit-invisible to
//! predictions**: it only reads what the engine already computed (the
//! predictor contract makes the scored path flag-identical to the plain
//! one), so attaching an observer never changes a report, a flag, or an
//! action log.
//!
//! Observers are shared (`Arc`) and called under shard locks from
//! whichever worker drains, so implementations must be `Send + Sync` and
//! cheap per call; interior mutability (a mutex over keyed maps) is the
//! expected shape. Because different jobs' observations can interleave in
//! any order across shards, an observer that wants deterministic state
//! must make its updates commutative across jobs (e.g. keyed,
//! order-independent inserts) — `nurd-health`'s aggregator is the
//! reference implementation.
//!
//! Persistence rides the snapshot: the engine calls
//! [`HealthObserver::snapshot_state`] when writing a snapshot and
//! [`HealthObserver::restore_state`] when installing one, so a recovered
//! observer resumes with exactly the state it had at the snapshot point
//! (the replayed WAL suffix is then re-observed live, from several
//! threads at once as drains do: recovery replays segments in parallel).

use nurd_data::TaskScore;

use crate::engine::JobReport;

/// A fleet-level listener for finalized jobs and scored barriers — the
/// engine-side contract `nurd-health`'s aggregator implements. Attach
/// one via
/// [`EngineService::attach_observer`](crate::EngineService::attach_observer),
/// or at recovery via
/// [`EngineService::recover_with_observer`](crate::EngineService::recover_with_observer).
pub trait HealthObserver: Send + Sync {
    /// Called once per *scored* barrier of every job, with the job's node
    /// placement (if a [`nurd_data::TaskEvent::Placed`] event arrived)
    /// and the barrier's per-task scores. Default: ignore barriers and
    /// learn from finalizations only.
    fn observe_barrier(
        &self,
        _job: u64,
        _ordinal: usize,
        _time: f64,
        _nodes: Option<&[u32]>,
        _scores: &[TaskScore],
    ) {
    }

    /// Called once when a job finalizes, before its report is published:
    /// `nodes[t]` is task `t`'s node (when placement is known) and
    /// `straggled[t]` is the task's ground truth against the job's
    /// threshold (a task whose completion never arrived counts as a
    /// straggler, exactly as in the report's confusion accounting).
    fn observe_finalized(&self, report: &JobReport, nodes: Option<&[u32]>, straggled: &[bool]);

    /// Serializes the observer's state for a snapshot (empty = nothing
    /// to persist, the default).
    fn snapshot_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores state captured by [`HealthObserver::snapshot_state`];
    /// `false` rejects the blob (surfaced as a typed
    /// [`RecoverError::ObserverRestore`](crate::RecoverError::ObserverRestore)).
    fn restore_state(&self, _blob: &[u8]) -> bool {
        true
    }
}
