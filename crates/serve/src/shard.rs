//! Per-shard job state, the event application logic, and the live
//! counters a concurrent service publishes.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use nurd_codec::{Checkpointable, Decoder, Encoder};
use nurd_data::{
    ActionRecord, BarrierView, Checkpoint, FinishedTask, JobSpec, MitigationAction,
    MitigationPolicy, OnlinePredictor, RunningTask, ScoredPrediction, StreamContext, TaskEvent,
};
use nurd_sim::outcome_from_flags;

use crate::disk::Disk;
use crate::engine::{JobReport, MitigatorFactory, PredictorFactory};
use crate::lifecycle::{FinalizeReason, JobPhase};
use crate::observer::HealthObserver;
use crate::persist::RecoverError;
use crate::snapshot::SnapshotData;
use crate::wal::WalWriter;

/// Every counter the engine keeps, declared once. Each indexes a slot of
/// a shard's [`ShardStats`] table; [`EngineStats`](crate::EngineStats)
/// and the snapshot header are both read from that table. A recovered snapshot's totals and the
/// fleet-wide persistence counters (WAL replay, snapshots, fallbacks)
/// are added on shard 0.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Counter {
    /// Events applied by drains (lifecycle events included).
    EventsProcessed,
    /// Events applied on a thread that was about to wait on the engine
    /// (a blocked push, `quiesce`, `close`) rather than on a drain worker.
    CallerDrained,
    /// A gauge, not a tally: predictor calls running on this shard right
    /// now (raised by [`ShardStats::predicting`]). Waiting threads help
    /// drain only while some shard's is above zero. Declared beside the
    /// per-event tally the draining thread already writes, away from the
    /// table's end, which can share a cache line with the next shard's
    /// ingress queue that producers write.
    PredictsInFlight,
    /// Events whose job was never admitted.
    OrphanEvents,
    /// Structurally invalid events rejected during application, and
    /// `JobStart`s refused at admission.
    RejectedEvents,
    /// Events that arrived after their job finalized.
    StaleEvents,
    /// Jobs this shard has finalized over its lifetime.
    FinalizedJobs,
    /// Jobs quarantined because their predictor panicked during apply
    /// (see [`FinalizeReason::Poisoned`]).
    PoisonedJobs,
    /// `Clone` mitigation actions committed to job action logs.
    ClonesIssued,
    /// `Quarantine` mitigation actions committed to job action logs.
    QuarantinesIssued,
    /// Policy decisions the engine refused: target not running, already
    /// actioned, or the per-job clone budget was exhausted.
    MitigationSuppressed,
    /// Pushes that found this shard's ingress full.
    BlockedPushes,
    /// Live (admitted, not yet finalized) jobs resident in this shard.
    LiveJobs,
    /// Times adaptive balancing switched within-job parallelism **on**
    /// for this shard (see [`BalanceConfig`](crate::BalanceConfig)).
    BalanceBoosts,
    /// Events appended to this shard's write-ahead log.
    WalAppended,
    /// Events replayed from WAL segments at the last recovery.
    WalReplayed,
    /// Snapshots written since this process started.
    SnapshotsWritten,
    /// Invalid snapshot files the last recovery skipped.
    RecoveryFallbacks,
}

impl Counter {
    const COUNT: usize = Counter::RecoveryFallbacks as usize + 1;

    /// The deterministic counters a snapshot carries, in their on-disk
    /// order, so a recovered engine's accounting continues where the
    /// crashed one's stopped. The rest depend on scheduling or on this
    /// process (blocked pushes, balance boosts, caller drains, live jobs,
    /// the persistence counters) and restart at zero, live jobs re-counted
    /// as the snapshot's jobs are adopted.
    pub(crate) const PERSISTED: [Counter; 9] = [
        Counter::EventsProcessed,
        Counter::OrphanEvents,
        Counter::RejectedEvents,
        Counter::StaleEvents,
        Counter::FinalizedJobs,
        Counter::PoisonedJobs,
        Counter::ClonesIssued,
        Counter::QuarantinesIssued,
        Counter::MitigationSuppressed,
    ];
}

/// One shard's live counters, one atomic per [`Counter`], so
/// [`EngineStats`](crate::EngineStats) can be snapshotted from any thread
/// *while drains are running* — no lock is taken, no drain is paused.
/// The push-side counter (blocked pushes) is bumped by
/// producer threads; drain-side counters by whichever worker holds the
/// shard. All loads/stores are `Relaxed`: each counter is an independent
/// monotone tally, and a snapshot only promises per-counter atomicity,
/// not a cross-counter consistent cut.
#[derive(Debug, Default)]
pub(crate) struct ShardStats([AtomicUsize; Counter::COUNT]);

impl ShardStats {
    pub(crate) fn add(&self, counter: Counter, n: usize) {
        self.0[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn get(&self, counter: Counter) -> usize {
        self.0[counter as usize].load(Ordering::Relaxed)
    }

    /// Raises [`Counter::PredictsInFlight`] until the guard drops — also
    /// when the predictor call it covers panics.
    fn predicting(&self) -> InFlight<'_> {
        let gauge = &self.0[Counter::PredictsInFlight as usize];
        gauge.fetch_add(1, Ordering::Relaxed);
        InFlight(gauge)
    }
}

/// See [`ShardStats::predicting`].
struct InFlight<'a>(&'a AtomicUsize);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// What the shard knows about one task of one job.
#[derive(Debug, Default)]
struct TaskState {
    /// Start of the task's row in [`JobState::rows`], its latest feature
    /// snapshot (frozen once finished); `None` until an event describes it.
    row: Option<usize>,
    /// `Some` once the task's `Finished` event arrived.
    latency: Option<f64>,
    /// Checkpoint ordinal at which the task was flagged a straggler.
    flagged_at: Option<usize>,
    /// Whether any event (`Submitted` included) has arrived: a seen task
    /// never described is scored with no features, an unseen one not at all.
    seen: bool,
    /// Whether a mitigation action was committed for the task (one action
    /// per task, ever). Derived from the action log, never serialized.
    actioned: bool,
}

/// One job's online state inside a shard: the predictor plus exactly the
/// bookkeeping the replay protocol keeps — flagged tasks leave both the
/// finished and running views forever (their completions still count for
/// ground truth and warmup, never for training). The whole struct is
/// dropped when the job finalizes; only its [`JobReport`] outlives it.
pub(crate) struct JobState {
    spec: JobSpec,
    predictor: Box<dyn OnlinePredictor + Send>,
    tasks: Vec<TaskState>,
    /// The job's feature table: one `feature_dim`-wide row per described
    /// task, appended at its first description (arrival order, not task-id
    /// order) and overwritten by later ones. Never sized from the spec, it
    /// holds only the floats the stream or a snapshot record delivered.
    rows: Vec<f64>,
    /// Tasks whose `Finished` event has arrived (including flagged ones —
    /// the warmup quorum counts every completion, as the replay does).
    finished_total: usize,
    /// First checkpoint at which the warmup quorum held.
    warmup_at: Option<usize>,
    /// Barriers processed so far (the next expected ordinal).
    barriers_seen: usize,
    /// Checkpoints at which the predictor was actually invoked.
    pub(crate) checkpoints_scored: usize,
    /// Mitigation policy deciding actions at this job's scored barriers
    /// (`None` when no mitigator is attached — the scorer-only mode).
    policy: Option<Box<dyn MitigationPolicy + Send>>,
    /// Actions committed for this job so far, decision order. Rides the
    /// job's snapshot record and, at finalization, its [`JobReport`].
    actions: Vec<ActionRecord>,
    /// `Clone` actions committed, checked against the policy's budget.
    clones_used: usize,
    /// Task → node placement, set by the job's
    /// [`TaskEvent::Placed`] event (`None` until one arrives; traces
    /// without a node model never send one). Part of the job's own event
    /// stream, so exposing it to policies and observers preserves the
    /// bit-identical-across-shard-counts guarantee.
    nodes: Option<Vec<u32>>,
    /// Pooled capacity for the per-barrier running-id list (see
    /// [`BarrierScratch`]). Never serialized: it holds no state, only
    /// reusable allocations.
    scratch: BarrierScratch,
}

/// Reusable allocation capacity for [`JobState::barrier`]'s id list. The
/// checkpoint's own view vectors borrow feature slices from the job's
/// feature table, so their element types carry that borrow's lifetime and
/// cannot be parked here; a scored barrier allocates those two afresh.
#[derive(Default)]
struct BarrierScratch {
    /// Sorted running-task ids, rebuilt in place each barrier.
    running_ids: Vec<usize>,
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("jobs", &self.jobs.len())
            .field("finalized", &self.finalized_ids.len())
            .field("granted_threads", &self.granted_threads)
            .finish()
    }
}

impl JobState {
    /// A job over `tasks` (its admission's table of unseen tasks, or the
    /// table a snapshot record is decoded into), its predictor begun.
    fn new(
        spec: JobSpec,
        mut predictor: Box<dyn OnlinePredictor + Send>,
        tasks: Vec<TaskState>,
        policy: Option<Box<dyn MitigationPolicy + Send>>,
    ) -> Self {
        predictor.begin_stream(&StreamContext {
            threshold: spec.threshold,
            task_count: spec.task_count,
            feature_dim: spec.feature_dim,
        });
        JobState {
            spec,
            predictor,
            tasks,
            rows: Vec::new(),
            finished_total: 0,
            warmup_at: None,
            barriers_seen: 0,
            checkpoints_scored: 0,
            policy,
            actions: Vec::new(),
            clones_used: 0,
            nodes: None,
            scratch: BarrierScratch::default(),
        }
    }

    /// The job's fleet-unique id.
    pub(crate) fn job(&self) -> u64 {
        self.spec.job
    }

    /// The warmup quorum — the one shared definition
    /// ([`nurd_data::warmup_quorum`]) the replay simulator also uses, so
    /// engine and replay warmup timing can never drift apart.
    fn warmup_need(&self, fraction: f64) -> usize {
        nurd_data::warmup_quorum(self.spec.task_count, fraction)
    }

    /// The job's current lifecycle phase (the shard answers `Finalized`
    /// itself — a finalized job has no `JobState` left).
    fn phase(&self) -> JobPhase {
        if self.warmup_at.is_some() {
            JobPhase::Scoring
        } else if self.barriers_seen > 0 || self.finished_total > 0 {
            JobPhase::Warming
        } else {
            JobPhase::Admitted
        }
    }

    /// Whether the job's stream has nothing left that could change its
    /// outcome. Checked only right after a barrier closes, which is what
    /// keeps it equivalent to sequential replay: at a barrier where every
    /// task has finished, the clock is at or past the slowest latency and
    /// therefore at or past `τ_stra`, so replay's revelation rule has
    /// already shut the prediction window — the remaining barriers (if
    /// any) are no-ops on both paths.
    fn stream_complete(&self) -> bool {
        self.barriers_seen == self.spec.checkpoints || self.finished_total == self.spec.task_count
    }

    /// Applies one event; returns `false` for a structurally invalid
    /// event (unknown task id, wrong feature width, duplicate completion,
    /// out-of-order barrier, a lifecycle event the shard drain handles
    /// before this), which is **rejected** — counted by the
    /// shard, applied to nothing. Rejection is what keeps one malformed
    /// event of one job from panicking a drain that holds every job's
    /// state: a ragged snapshot would otherwise surface as a ragged
    /// checkpoint matrix deep inside the predictor.
    fn apply(
        &mut self,
        event: TaskEvent,
        warmup_fraction: f64,
        observer: Option<&dyn HealthObserver>,
        stats: &ShardStats,
    ) -> bool {
        match event {
            TaskEvent::JobStart { .. } | TaskEvent::JobEnd { .. } => return false,
            TaskEvent::Submitted { task, .. } => {
                let Some(state) = self.tasks.get_mut(task) else {
                    return false;
                };
                state.seen = true;
            }
            TaskEvent::Placed { nodes, .. } => {
                // A placement must cover every task exactly once; a second
                // Placed (at-least-once delivery) is a duplicate, rejected
                // like a replayed barrier.
                if nodes.len() != self.spec.task_count || self.nodes.is_some() {
                    return false;
                }
                self.nodes = Some(nodes);
            }
            TaskEvent::Progress { task, features, .. } => {
                if features.len() != self.spec.feature_dim {
                    return false;
                }
                let Some(state) = self.tasks.get_mut(task) else {
                    return false;
                };
                // Progress for a flagged or finished task is stale
                // stream noise; the protocol ignores it.
                if state.flagged_at.is_none() && state.latency.is_none() {
                    describe(&mut self.rows, &mut state.row, &features);
                    state.seen = true;
                }
            }
            TaskEvent::Finished {
                task,
                features,
                latency,
                ..
            } => {
                if features.len() != self.spec.feature_dim {
                    return false;
                }
                let Some(state) = self.tasks.get_mut(task) else {
                    return false;
                };
                if state.latency.is_some() {
                    return false; // duplicate completion
                }
                state.latency = Some(latency);
                self.finished_total += 1;
                // A flagged task's completion feeds ground truth and the
                // warmup quorum, but its features never (re-)enter the
                // training view.
                if state.flagged_at.is_none() {
                    describe(&mut self.rows, &mut state.row, &features);
                    state.seen = true;
                }
            }
            TaskEvent::Barrier { ordinal, time, .. } => {
                return self.barrier(ordinal, time, warmup_fraction, observer, stats);
            }
        }
        true
    }

    /// Closes checkpoint `ordinal`: updates the warmup state and, inside
    /// the prediction window, assembles the checkpoint view and scores
    /// it. Rejects (returns `false`) any barrier that is not the next
    /// expected ordinal — re-scoring an already-closed checkpoint (e.g.
    /// a duplicate from at-least-once delivery) would silently diverge
    /// from sequential replay.
    fn barrier(
        &mut self,
        ordinal: usize,
        time: f64,
        warmup_fraction: f64,
        observer: Option<&dyn HealthObserver>,
        stats: &ShardStats,
    ) -> bool {
        if ordinal != self.barriers_seen {
            return false;
        }
        self.barriers_seen = ordinal + 1;
        if self.warmup_at.is_none() {
            let quorum = self.finished_total >= self.warmup_need(warmup_fraction);
            // Mirror `JobTrace::warmup_checkpoint`: if the quorum never
            // holds, the last checkpoint is the warmup point.
            if quorum || ordinal + 1 == self.spec.checkpoints {
                self.warmup_at = Some(ordinal);
            }
        }
        // Revelation rule: past `τ_stra`, survivors have revealed
        // themselves and prediction stops (see `nurd_sim::replay_job`).
        let predicting = self.warmup_at.is_some_and(|w| ordinal >= w) && time < self.spec.threshold;
        if !predicting {
            return true;
        }

        // Assemble the checkpoint exactly as the simulator does: task-id
        // order, flagged tasks in neither list, finished features frozen.
        // Sized by what can land in each view (completions so far; the
        // tasks still out), so neither ever regrows.
        let dim = self.spec.feature_dim;
        let JobState {
            tasks,
            rows,
            predictor,
            scratch,
            finished_total,
            ..
        } = self;
        let done = *finished_total;
        let mut finished: Vec<FinishedTask<'_>> = Vec::with_capacity(done);
        let mut running: Vec<RunningTask<'_>> = Vec::with_capacity(tasks.len() - done);
        for (id, state) in tasks.iter().enumerate() {
            if state.flagged_at.is_some() || !state.seen {
                continue;
            }
            let features = row(rows, dim, state.row);
            match state.latency {
                Some(latency) => finished.push(FinishedTask {
                    id,
                    features,
                    latency,
                }),
                None => running.push(RunningTask { id, features }),
            }
        }
        let mut running_ids = std::mem::take(&mut scratch.running_ids);
        running_ids.clear();
        running_ids.extend(running.iter().map(|r| r.id));
        let checkpoint = Checkpoint {
            ordinal,
            time,
            finished,
            running,
        };
        self.checkpoints_scored += 1;
        // One `predict_scored` call when a mitigator or observer reads the
        // scores; by the predictor contract its flag set and state
        // transition are bit-identical to `predict`'s, so attaching one
        // never changes what gets flagged, only what gets done about it.
        let scored = {
            let _busy = stats.predicting();
            if self.policy.is_none() && observer.is_none() {
                let flagged = predictor.predict(&checkpoint);
                ScoredPrediction {
                    flagged,
                    scores: Vec::new(),
                }
            } else {
                predictor.predict_scored(&checkpoint)
            }
        };
        // Same guard as the simulator: only running tasks can be flagged.
        // `running_ids` is task-id sorted by construction, so the probe
        // (which also bounds `id`) bisects.
        for id in scored.flagged {
            if running_ids.binary_search(&id).is_ok() {
                tasks[id].flagged_at = Some(ordinal);
            }
        }
        if let Some(observer) = observer {
            observer.observe_barrier(
                self.spec.job,
                ordinal,
                time,
                self.nodes.as_deref(),
                &scored.scores,
            );
        }
        let Some(policy) = self.policy.as_mut() else {
            scratch.running_ids = running_ids;
            return true;
        };
        let budget = policy.clone_budget();
        let view = BarrierView {
            job: self.spec.job,
            ordinal,
            time,
            threshold: self.spec.threshold,
            scores: &scored.scores,
            clones_remaining: budget.map(|b| b.saturating_sub(self.clones_used)),
            nodes: self.nodes.as_deref(),
        };
        let decisions = policy.decide(&view);
        for (task, action) in decisions {
            let actionable = running_ids.binary_search(&task).is_ok() && !tasks[task].actioned;
            let within_budget = !matches!(action, MitigationAction::Clone)
                || budget.is_none_or(|b| self.clones_used < b);
            if !actionable || !within_budget {
                stats.add(Counter::MitigationSuppressed, 1);
                continue;
            }
            match action {
                MitigationAction::Clone => {
                    self.clones_used += 1;
                    stats.add(Counter::ClonesIssued, 1);
                }
                MitigationAction::Quarantine => stats.add(Counter::QuarantinesIssued, 1),
            }
            tasks[task].actioned = true;
            self.actions.push(ActionRecord {
                job: self.spec.job,
                ordinal,
                time,
                task,
                action,
            });
        }
        scratch.running_ids = running_ids;
        true
    }

    /// Per-task ground truth against the job's threshold — the labels the
    /// report's confusion accounting and the health observer both use. A
    /// task whose completion never arrived outlived the stream and is
    /// counted a straggler.
    fn straggled(&self) -> Vec<bool> {
        self.tasks
            .iter()
            .map(|t| t.latency.is_none_or(|l| l >= self.spec.threshold))
            .collect()
    }

    /// Post-hoc scoring once the stream is exhausted, against `truth`
    /// ([`JobState::straggled`]). A task whose completion never arrived
    /// outlived the stream and is counted as a straggler (it certainly
    /// outlived `τ_stra` if the stream covered the job's horizon).
    fn report(&self, finalized: FinalizeReason, truth: &[bool]) -> JobReport {
        let flagged_at: Vec<Option<usize>> = self.tasks.iter().map(|t| t.flagged_at).collect();
        let outcome = outcome_from_flags(
            self.spec.threshold,
            self.warmup_at
                .unwrap_or_else(|| self.spec.checkpoints.saturating_sub(1)),
            self.spec.checkpoints,
            flagged_at,
            truth,
        );
        JobReport {
            job: self.spec.job,
            checkpoints_scored: self.checkpoints_scored,
            finalized,
            outcome,
            actions: self.actions.clone(),
        }
    }

    /// Serializes the job for a snapshot: mode tag 0 (the only one), the
    /// predictor's own `snapshot_state` (a durable engine admits no job
    /// whose predictor has none), the shard-side task bookkeeping and the
    /// committed action log (the `actioned` marks and clone-budget
    /// consumption are derived from it at decode), so budget enforcement
    /// survives a crash even when the policy object itself is rebuilt
    /// from the factory.
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(0);
        self.spec.encode(enc);
        let blob = self.predictor.snapshot_state().unwrap_or_default();
        enc.put_bytes(&blob);
        // Each row as a `Vec<f64>`: length, floats (none if undescribed).
        enc.put_usize(self.tasks.len());
        for task in &self.tasks {
            let features = row(&self.rows, self.spec.feature_dim, task.row);
            enc.put_usize(features.len());
            features.iter().for_each(|&x| enc.put_f64(x));
            task.latency.encode(enc);
            task.flagged_at.encode(enc);
            enc.put_bool(task.seen);
        }
        enc.put_usize(self.finished_total);
        self.warmup_at.encode(enc);
        enc.put_usize(self.barriers_seen);
        enc.put_usize(self.checkpoints_scored);
        self.nodes.encode(enc);
        self.actions.encode(enc);
    }

    /// Restores the action log and the bookkeeping derived from it; every
    /// record names one of the job's tasks (`decode` checks). `false` if
    /// two records action one task, which a barrier never does.
    fn adopt_actions(&mut self, actions: Vec<ActionRecord>) -> bool {
        self.clones_used = 0;
        for record in &actions {
            if std::mem::replace(&mut self.tasks[record.task].actioned, true) {
                return false;
            }
            if record.action == MitigationAction::Clone {
                self.clones_used += 1;
            }
        }
        self.actions = actions;
        true
    }

    /// Rebuilds a job from its snapshot record, restoring the predictor
    /// bit-for-bit via `restore_state`. A refused blob, or bookkeeping
    /// that disagrees with the job's spec, is the typed
    /// [`RecoverError::PredictorRestore`]; any mode tag but 0 (tag 1 was
    /// the retired event-history record) is a codec error. Never a
    /// half-restored job.
    pub(crate) fn decode(
        dec: &mut Decoder<'_>,
        factory: &PredictorFactory,
        mitigator: Option<&MitigatorFactory>,
    ) -> Result<Self, RecoverError> {
        let tag = dec.take_u8()?;
        if tag != 0 {
            let what = "JobState mode";
            return Err(nurd_codec::CodecError::InvalidTag { what, tag }.into());
        }
        let spec = JobSpec::decode(dec)?;
        let job = spec.job;
        let policy = mitigator.map(|m| m(&spec));
        let blob = dec.take_bytes()?;
        // The smallest task — no feature snapshot yet — is an empty `Vec`
        // length, two `Option` tags and one `bool`: a larger guard rejects
        // a job admitted but not yet described. The count is checked
        // against the spec before anything is sized.
        let task_count = dec.take_len(8 + 1 + 1 + 1)?;
        if task_count != spec.task_count {
            return Err(RecoverError::PredictorRestore(job));
        }
        let predictor = factory(&spec);
        let mut state = JobState::new(spec, predictor, Vec::with_capacity(task_count), policy);
        if !state.predictor.restore_state(blob) {
            return Err(RecoverError::PredictorRestore(job));
        }
        // Rows are appended as they decode, so the table grows with the
        // floats the record holds; a ragged one is refused below.
        let mut ragged = false;
        for _ in 0..task_count {
            let width = dec.take_len(1)?;
            ragged |= width > 0 && width != state.spec.feature_dim;
            let row = (width > 0).then_some(state.rows.len());
            for _ in 0..width {
                state.rows.push(dec.take_f64()?);
            }
            state.tasks.push(TaskState {
                row,
                latency: Checkpointable::decode(dec)?,
                flagged_at: Checkpointable::decode(dec)?,
                seen: dec.take_bool()?,
                actioned: false,
            });
        }
        state.finished_total = dec.take_usize()?;
        state.warmup_at = Checkpointable::decode(dec)?;
        state.barriers_seen = dec.take_usize()?;
        state.checkpoints_scored = dec.take_usize()?;
        state.nodes = Checkpointable::decode(dec)?;
        let actions: Vec<ActionRecord> = Checkpointable::decode(dec)?;
        // Refuse bookkeeping the job's own events could not have left
        // (warmup is set at a barrier already closed; an action names
        // this job, one of its tasks and a barrier already closed, and
        // no task twice).
        let finished = state.tasks.iter().filter(|t| t.latency.is_some()).count();
        let seen = state.barriers_seen;
        if ragged
            || !(state.nodes.as_ref().is_none_or(|n| n.len() == task_count)
                && state.finished_total == finished
                && seen <= state.spec.checkpoints
                && state.warmup_at.is_none_or(|w| w < seen)
                && state.checkpoints_scored <= seen
                && actions
                    .iter()
                    .all(|a| a.job == job && a.task < task_count && a.ordinal < seen))
            || !state.adopt_actions(actions)
        {
            return Err(RecoverError::PredictorRestore(job));
        }
        Ok(state)
    }

    /// Attaches a freshly-built policy to a job admitted before the
    /// mitigator existed (post-recovery attach). No-op if one is present.
    fn attach_policy(&mut self, mitigator: &MitigatorFactory) {
        if self.policy.is_none() {
            self.policy = Some(mitigator(&self.spec));
        }
    }
}

/// Writes `features` into the row at `slot`, or appends a row and points
/// `slot` at it if the task has none yet.
fn describe(rows: &mut Vec<f64>, slot: &mut Option<usize>, features: &[f64]) {
    match *slot {
        Some(at) => rows[at..at + features.len()].copy_from_slice(features),
        None => {
            *slot = Some(rows.len());
            rows.extend_from_slice(features);
        }
    }
}

/// The `dim`-wide row at `slot`, or no features for an undescribed task.
fn row(rows: &[f64], dim: usize, slot: Option<usize>) -> &[f64] {
    slot.map_or(&[], |at| &rows[at..at + dim])
}

/// One shard of the engine: a disjoint set of *live* jobs and the reports
/// of jobs already finalized. The not-yet-applied events live **outside**
/// this struct, in the shard's [`nurd_runtime::Channel`] ingress queue —
/// a drain worker pops a batch from the channel and applies it here while
/// holding the shard's lock, so per-shard application order is the
/// channel's FIFO order no matter which worker drains. Shards share
/// nothing, which is the whole determinism argument — see the
/// [crate docs](crate).
pub(crate) struct Shard {
    jobs: BTreeMap<u64, JobState>,
    /// Reports of finalized jobs not yet taken by
    /// [`crate::EngineService::take_finalized`] or the final report.
    finalized: BTreeMap<u64, JobReport>,
    /// Every job id this shard ever finalized — distinguishes *stale*
    /// events (job known, stream already closed) from orphans (job never
    /// admitted). A `BTreeSet<u64>` per job is the only state that
    /// survives finalization.
    finalized_ids: BTreeSet<u64>,
    warmup_fraction: f64,
    /// Within-job parallelism currently granted to this shard's oversized
    /// jobs by adaptive balancing (1 = sequential, the default).
    granted_threads: usize,
    /// Only jobs with at least this many tasks receive the grant.
    grant_min_tasks: usize,
    /// This shard's live WAL segment (`None` on non-persistent engines).
    /// Owned here so appends share the lock that orders application.
    wal: Option<WalWriter>,
    /// Per-job count of events this shard has popped from its ingress —
    /// the event's position in its producer stream, counted for *every*
    /// popped event (accepted, rejected, stale, or orphan alike), so a
    /// recovered producer knows exactly which suffix to re-push.
    events_seen: BTreeMap<u64, u64>,
}

impl Shard {
    pub(crate) fn new(warmup_fraction: f64) -> Self {
        Shard {
            jobs: BTreeMap::new(),
            finalized: BTreeMap::new(),
            finalized_ids: BTreeSet::new(),
            warmup_fraction,
            granted_threads: 1,
            grant_min_tasks: usize::MAX,
            wal: None,
            events_seen: BTreeMap::new(),
        }
    }

    /// Arms write-ahead logging (makes this shard persistent).
    pub(crate) fn install_wal(&mut self, wal: WalWriter) {
        self.wal = Some(wal);
    }

    /// Appends a batch to the WAL ahead of application; returns how many
    /// records were appended (0 on non-persistent shards).
    pub(crate) fn append_wal(&mut self, events: &[TaskEvent]) -> std::io::Result<usize> {
        let appended = |wal: &mut WalWriter| wal.append_batch(events).map(|()| events.len());
        self.wal.as_mut().map_or(Ok(0), appended)
    }

    /// Flushes + fsyncs this shard's WAL segment (no-op when absent).
    pub(crate) fn flush_wal(&mut self) -> std::io::Result<()> {
        self.wal.as_mut().map_or(Ok(()), WalWriter::flush_and_sync)
    }

    /// Seals the current WAL segment and starts a fresh one at `path`
    /// (the per-shard half of snapshot rotation).
    pub(crate) fn rotate_wal(&mut self, disk: &dyn Disk, path: &Path) -> std::io::Result<()> {
        self.wal
            .as_mut()
            .map_or(Ok(()), |wal| wal.rotate(disk, path))
    }

    /// Serializes this shard's checkpointable state into `data` (live
    /// jobs, finalized ledger, durable-event counts) and folds its
    /// deterministic counters into `data.counters`.
    pub(crate) fn capture_into(&self, data: &mut SnapshotData, stats: &ShardStats) {
        for state in self.jobs.values() {
            let mut enc = Encoder::new();
            state.encode(&mut enc);
            data.jobs.push(enc.into_bytes());
        }
        data.finalized.extend(self.finalized.values().cloned());
        data.finalized_ids
            .extend(self.finalized_ids.iter().copied());
        for (&job, &count) in &self.events_seen {
            *data.events_seen.entry(job).or_insert(0) += count;
        }
        for (sum, counter) in data.counters.iter_mut().zip(Counter::PERSISTED) {
            *sum += stats.get(counter) as u64;
        }
    }

    /// Attaches policies (via `mitigator`) to live jobs that lack one —
    /// the late-attach path for services recovered or started before the
    /// mitigator was registered.
    pub(crate) fn attach_policies(&mut self, mitigator: &MitigatorFactory) {
        for job in self.jobs.values_mut() {
            job.attach_policy(mitigator);
        }
    }

    /// Installs a live job, admitted or recovered (routing already done).
    pub(crate) fn adopt_job(&mut self, state: JobState, stats: &ShardStats) {
        if self.jobs.insert(state.job(), state).is_none() {
            stats.add(Counter::LiveJobs, 1);
        }
    }

    /// Installs a recovered finalized report (and its ledger entry).
    pub(crate) fn adopt_finalized(&mut self, report: JobReport) {
        self.finalized_ids.insert(report.job);
        self.finalized.insert(report.job, report);
    }

    /// Installs a recovered finalized-ledger id (report already taken
    /// before the crash — only stale-event detection needs it).
    pub(crate) fn adopt_finalized_id(&mut self, job: u64) {
        self.finalized_ids.insert(job);
    }

    /// Installs a recovered durable-event count for `job`.
    pub(crate) fn adopt_events_seen(&mut self, job: u64, count: u64) {
        *self.events_seen.entry(job).or_insert(0) += count;
    }

    /// This shard's per-job durable-event counts.
    pub(crate) fn events_seen(&self) -> &BTreeMap<u64, u64> {
        &self.events_seen
    }

    /// Lifecycle phase of `job`, if this shard has ever admitted it.
    pub(crate) fn phase_of(&self, job: u64) -> Option<JobPhase> {
        if self.finalized_ids.contains(&job) {
            return Some(JobPhase::Finalized);
        }
        self.jobs.get(&job).map(JobState::phase)
    }

    /// Adjusts the within-job parallelism grant (adaptive balancing).
    /// Propagates to every live job at or above `min_tasks` tasks and is
    /// remembered for jobs admitted while the grant holds. Counted in
    /// [`Counter::BalanceBoosts`] on each off→on transition. Safe at
    /// any moment: [`OnlinePredictor::set_parallelism`] is contractually
    /// bit-identical across thread counts, so flipping it mid-job changes
    /// wall-clock only.
    pub(crate) fn set_parallelism(&mut self, threads: usize, min_tasks: usize, stats: &ShardStats) {
        let threads = threads.max(1);
        if threads == self.granted_threads && (threads == 1 || min_tasks == self.grant_min_tasks) {
            return;
        }
        if self.granted_threads == 1 && threads > 1 {
            stats.add(Counter::BalanceBoosts, 1);
        }
        self.granted_threads = threads;
        self.grant_min_tasks = if threads == 1 { usize::MAX } else { min_tasks };
        for job in self.jobs.values_mut() {
            if job.spec.task_count >= self.grant_min_tasks {
                job.predictor.set_parallelism(threads);
            } else if threads == 1 {
                job.predictor.set_parallelism(1);
            }
        }
    }

    /// Moves `job` from live to finalized: emits its report and drops its
    /// entire state — this is what bounds resident memory (and snapshot
    /// size) to live jobs.
    fn finalize(
        &mut self,
        job: u64,
        reason: FinalizeReason,
        observer: Option<&dyn HealthObserver>,
        stats: &ShardStats,
    ) {
        if let Some(state) = self.jobs.remove(&job) {
            let truth = state.straggled();
            let report = state.report(reason, &truth);
            if let Some(observer) = observer {
                observer.observe_finalized(&report, state.nodes.as_deref(), &truth);
            }
            self.finalized_ids.insert(job);
            self.finalized.insert(job, report);
            stats.0[Counter::LiveJobs as usize].fetch_sub(1, Ordering::Relaxed);
            stats.add(Counter::FinalizedJobs, 1);
        }
    }

    /// Applies a batch of events in the order given (the caller pops them
    /// FIFO from the shard's ingress channel while holding this shard's
    /// lock, so batch order **is** stream order).
    ///
    /// The batch is walked as *runs*: a run is a maximal stretch of
    /// consecutive events of one job, so its job's state and its
    /// `events_seen` entry are looked up once, not per event, and its
    /// events are applied one by one in FIFO order. `JobStart` and
    /// `JobEnd` are runs of one. A run ends where its job finalizes (a
    /// barrier that completes the stream, a predictor panic); the job's
    /// later events in the batch then count as stale, one by one.
    ///
    /// * `JobStart` admits an unseen job through `factory` (a restart of a
    ///   *live* job resets it to a fresh predictor; a restart of a
    ///   finalized job id is stale — ids are fleet-unique). It is refused
    ///   (counted rejected, nothing admitted, so the job's events are
    ///   orphans) if the allocator will not hold its task table, or if the
    ///   shard is durable and the predictor cannot snapshot itself.
    /// * `JobEnd` (or a barrier completing the stream) finalizes the job.
    /// * Events for unknown jobs count as orphans; events for finalized
    ///   jobs count as stale; structurally invalid events (see
    ///   [`JobState::apply`]) count as rejected. None aborts the drain.
    pub(crate) fn apply_batch(
        &mut self,
        events: impl IntoIterator<Item = TaskEvent>,
        factory: &PredictorFactory,
        mitigator: Option<&MitigatorFactory>,
        observer: Option<&dyn HealthObserver>,
        stats: &ShardStats,
    ) {
        let mut events = events.into_iter().peekable();
        while let Some(event) = events.next() {
            stats.add(Counter::EventsProcessed, 1);
            let job_id = event.job();
            let seen = self.events_seen.entry(job_id).or_insert(0);
            *seen += 1;
            match event {
                TaskEvent::JobStart { spec } => {
                    if self.finalized_ids.contains(&spec.job) {
                        stats.add(Counter::StaleEvents, 1);
                        continue;
                    }
                    let mut tasks = Vec::new();
                    if tasks.try_reserve_exact(spec.task_count).is_err() {
                        stats.add(Counter::RejectedEvents, 1);
                        continue;
                    }
                    tasks.resize_with(spec.task_count, TaskState::default);
                    let mut predictor = factory(&spec);
                    if spec.task_count >= self.grant_min_tasks {
                        predictor.set_parallelism(self.granted_threads);
                    }
                    let policy = mitigator.map(|m| m(&spec));
                    let state = JobState::new(spec, predictor, tasks, policy);
                    // A durable shard persists a job only as its predictor's
                    // blob: one without `snapshot_state` is refused here,
                    // identically when the WAL replays this event.
                    if self.wal.is_some() && state.predictor.snapshot_state().is_none() {
                        stats.add(Counter::RejectedEvents, 1);
                        continue;
                    }
                    self.adopt_job(state, stats);
                }
                TaskEvent::JobEnd { job, .. } => {
                    if self.jobs.contains_key(&job) {
                        self.finalize(job, FinalizeReason::JobEnd, observer, stats);
                    } else if self.finalized_ids.contains(&job) {
                        stats.add(Counter::StaleEvents, 1);
                    } else {
                        stats.add(Counter::OrphanEvents, 1);
                    }
                }
                mut event => {
                    let Some(job) = self.jobs.get_mut(&job_id) else {
                        if self.finalized_ids.contains(&job_id) {
                            stats.add(Counter::StaleEvents, 1);
                        } else {
                            stats.add(Counter::OrphanEvents, 1);
                        }
                        continue;
                    };
                    let warmup_fraction = self.warmup_fraction;
                    let ended = loop {
                        let at_barrier = matches!(event, TaskEvent::Barrier { .. });
                        match catch_unwind(AssertUnwindSafe(|| {
                            job.apply(event, warmup_fraction, observer, stats)
                        })) {
                            // Predictor panic: quarantine *this* job; every
                            // other job on the shard — and the drain worker —
                            // lives on.
                            Err(_) => {
                                stats.add(Counter::PoisonedJobs, 1);
                                break Some(FinalizeReason::Poisoned);
                            }
                            Ok(false) => stats.add(Counter::RejectedEvents, 1),
                            // Only a *closed barrier* may trigger
                            // all-tasks-finished finalization — see
                            // `JobState::stream_complete`.
                            Ok(true) if at_barrier && job.stream_complete() => {
                                break Some(FinalizeReason::StreamComplete);
                            }
                            Ok(true) => {}
                        }
                        // The run goes on while the next event is its job's
                        // and not a lifecycle event (each a run of one).
                        let next = events.next_if(|e| {
                            e.job() == job_id
                                && !matches!(
                                    e,
                                    TaskEvent::JobStart { .. } | TaskEvent::JobEnd { .. }
                                )
                        });
                        let Some(next) = next else { break None };
                        stats.add(Counter::EventsProcessed, 1);
                        *seen += 1;
                        event = next;
                    };
                    if let Some(reason) = ended {
                        self.finalize(job_id, reason, observer, stats);
                    }
                }
            }
        }
    }

    /// Takes the reports of jobs finalized since the last take — the
    /// mid-stream observation channel.
    pub(crate) fn take_finalized(&mut self) -> Vec<JobReport> {
        std::mem::take(&mut self.finalized).into_values().collect()
    }

    /// Finalizes every still-live job (reason
    /// [`FinalizeReason::EngineFinish`]) and returns all not-yet-taken
    /// reports, job-id order.
    pub(crate) fn finish_reports(
        &mut self,
        observer: Option<&dyn HealthObserver>,
        stats: &ShardStats,
    ) -> Vec<JobReport> {
        let live: Vec<u64> = self.jobs.keys().copied().collect();
        for job in live {
            self.finalize(job, FinalizeReason::EngineFinish, observer, stats);
        }
        self.take_finalized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nurd_core::{NurdConfig, NurdPredictor, RefitPolicy, WarmRefitConfig};

    const WARMUP: f64 = 0.04;
    const CHECKPOINTS: usize = 6;
    /// See `describing_out_of_id_order_round_trips_to_the_same_bytes`.
    const DESCRIBED_OUT_OF_ORDER_RECORDS: usize = 64;
    const DESCRIBED_OUT_OF_ORDER_HASH: u64 = 0xA40D_F11D_02E7_9D3F;

    /// Flags every running task; stateless, so its snapshot is an empty
    /// blob.
    struct FlagAll;
    impl OnlinePredictor for FlagAll {
        fn name(&self) -> &str {
            "ALL"
        }
        fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
            checkpoint.running.iter().map(|r| r.id).collect()
        }
        fn snapshot_state(&self) -> Option<Vec<u8>> {
            Some(Vec::new())
        }
        fn restore_state(&mut self, bytes: &[u8]) -> bool {
            bytes.is_empty()
        }
    }

    /// [`FlagAll`] without a snapshot: a durable shard refuses its job.
    struct Unsnapshotted;
    impl OnlinePredictor for Unsnapshotted {
        fn name(&self) -> &str {
            "ALL-NO-SNAPSHOT"
        }
        fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
            checkpoint.running.iter().map(|r| r.id).collect()
        }
    }

    /// NURD under warm refits, or [`FlagAll`].
    fn factory(flag_all: bool) -> PredictorFactory {
        Box::new(move |_spec| {
            if flag_all {
                Box::new(FlagAll)
            } else {
                let policy = RefitPolicy::Warm(WarmRefitConfig::default());
                Box::new(NurdPredictor::new(
                    NurdConfig::default().with_refit_policy(policy),
                ))
            }
        })
    }

    /// `spec`'s job admitted with a table of unseen tasks.
    fn admitted(spec: &JobSpec, predictor: Box<dyn OnlinePredictor + Send>) -> JobState {
        let tasks = (0..spec.task_count).map(|_| TaskState::default()).collect();
        JobState::new(spec.clone(), predictor, tasks, None)
    }

    fn spec(task_count: usize) -> JobSpec {
        JobSpec {
            job: 7,
            threshold: 55.0,
            task_count,
            feature_dim: 2,
            checkpoints: CHECKPOINTS,
        }
    }

    /// The job's events after admission, one inner `Vec` per lifecycle
    /// step: the `Submitted` burst, then each checkpoint closed by its
    /// barrier. Checkpoint `k` is at time `10 (k + 1)`; task `i` of `n`
    /// takes `15 + 45 i / n`, so nothing has finished at checkpoint 0, the
    /// warm-up quorum holds from checkpoint 1 and the slowest tasks
    /// outlive the threshold.
    fn steps(task_count: usize) -> Vec<Vec<TaskEvent>> {
        job_steps(spec(task_count).job, task_count)
    }

    /// [`steps`] for job `job`.
    fn job_steps(job: u64, task_count: usize) -> Vec<Vec<TaskEvent>> {
        let latency = |task: usize| 15.0 + 45.0 * task as f64 / task_count as f64;
        let mut steps = vec![(0..task_count)
            .map(|task| TaskEvent::Submitted { job, task })
            .collect::<Vec<_>>()];
        for ordinal in 0..CHECKPOINTS {
            let time = 10.0 * (ordinal + 1) as f64;
            let mut step = Vec::new();
            for task in 0..task_count {
                let features = vec![task as f64, (task * ordinal % 5) as f64];
                if latency(task) > time {
                    step.push(TaskEvent::Progress {
                        job,
                        task,
                        ordinal,
                        time,
                        features,
                    });
                } else if latency(task) > time - 10.0 {
                    step.push(TaskEvent::Finished {
                        job,
                        task,
                        ordinal,
                        time,
                        features,
                        latency: latency(task),
                    });
                }
            }
            step.push(TaskEvent::Barrier { job, ordinal, time });
            steps.push(step);
        }
        steps
    }

    fn encoded_jobs(shard: &Shard) -> Vec<Vec<u8>> {
        let mut data = SnapshotData::default();
        shard.capture_into(&mut data, &ShardStats::default());
        data.jobs
    }

    fn apply(shard: &mut Shard, events: &[TaskEvent], factory: &PredictorFactory) {
        let stats = ShardStats::default();
        // `live_jobs` is decremented at finalization; start it above zero.
        stats.add(Counter::LiveJobs, 1);
        shard.apply_batch(events.iter().cloned(), factory, None, None, &stats);
    }

    /// Serves a `task_count`-task job step by step and round-trips it
    /// after each (see [`round_trip_at_every_cut`]). Returns the phases
    /// the job was seen in.
    fn round_trip_every_step(task_count: usize, flag_all: bool) -> Vec<JobPhase> {
        round_trip_at_every_cut(&spec(task_count), &steps(task_count), &factory(flag_all)).0
    }

    /// Serves `spec`'s job step by step and, after admission and after
    /// every step the job is still live at, round-trips its `JobState`
    /// through the snapshot record: the decoded job must re-encode to the
    /// same bytes and, served the rest of the stream, end in the same
    /// report. Returns the phases the job was seen in and the record
    /// written at each cut.
    fn round_trip_at_every_cut(
        spec: &JobSpec,
        steps: &[Vec<TaskEvent>],
        factory: &PredictorFactory,
    ) -> (Vec<JobPhase>, Vec<Vec<u8>>) {
        let task_count = spec.task_count;
        let mut phases = Vec::new();
        let mut written = Vec::new();
        for cut in 0..=steps.len() {
            let stats = ShardStats::default();
            let mut shard = Shard::new(WARMUP);
            shard.adopt_job(admitted(spec, factory(spec)), &stats);
            for step in &steps[..cut] {
                apply(&mut shard, step, factory);
            }
            let phase = shard.phase_of(spec.job).expect("admitted above");
            if phase == JobPhase::Finalized {
                break;
            }
            if !phases.contains(&phase) {
                phases.push(phase);
            }
            let what = format!("{task_count} tasks, cut {cut}");

            let records = encoded_jobs(&shard);
            assert_eq!(records.len(), 1, "{what}");
            let mut dec = Decoder::new(&records[0]);
            let state = JobState::decode(&mut dec, factory, None)
                .unwrap_or_else(|e| panic!("{what}: {e:?}"));
            assert!(dec.is_empty(), "{what}: trailing bytes");
            let mut twin = Shard::new(WARMUP);
            twin.adopt_job(state, &stats);
            assert_eq!(encoded_jobs(&twin), records, "{what}");

            for step in &steps[cut..] {
                apply(&mut shard, step, factory);
                apply(&mut twin, step, factory);
            }
            assert_eq!(
                twin.finish_reports(None, &stats),
                shard.finish_reports(None, &stats),
                "{what}"
            );
            written.extend(records);
        }
        (phases, written)
    }

    #[test]
    fn a_blob_record_that_disagrees_with_its_spec_is_a_restore_error() {
        let factory = factory(false);
        let spec = spec(2);
        let stats = ShardStats::default();
        // Served through checkpoint 1: task 0 finished, warmup at 1, two
        // barriers seen, one scored.
        let served = || {
            let mut state = admitted(&spec, factory(&spec));
            for event in steps(2)[..3].concat() {
                assert!(state.apply(event, WARMUP, None, &stats));
            }
            state
        };
        let record = |state: &JobState| {
            let mut enc = Encoder::new();
            state.encode(&mut enc);
            enc.into_bytes()
        };
        let decode =
            |record: &[u8]| JobState::decode(&mut Decoder::new(record), &factory, None).map(|_| ());
        let refused = |what: &str, decoded: Result<(), RecoverError>| match decoded {
            Err(RecoverError::PredictorRestore(id)) => assert_eq!(id, spec.job, "{what}"),
            Err(e) => panic!("{what}: wrong error {e:?}"),
            Ok(()) => panic!("{what}: decoded a job its spec cannot hold"),
        };
        let state = served();
        assert_eq!(
            (
                state.finished_total,
                state.warmup_at,
                state.barriers_seen,
                state.checkpoints_scored
            ),
            (1, Some(1), 2, 1)
        );
        assert!(decode(&record(&state)).is_ok());
        type Spoil = fn(&mut JobState);
        fn action(job: u64, task: usize) -> ActionRecord {
            ActionRecord {
                job,
                ordinal: 1,
                time: 20.0,
                task,
                action: MitigationAction::Quarantine,
            }
        }
        let hostile: [(&str, Spoil); 10] = [
            ("an action of another job", |s| s.actions.push(action(8, 1))),
            ("an action on task 2 of 2", |s| s.actions.push(action(7, 2))),
            ("task 1 actioned twice", |s| {
                s.actions.extend([action(7, 1), action(7, 1)])
            }),
            ("an action at barrier 2 of 2 seen", |s| {
                s.actions.push(ActionRecord {
                    ordinal: 2,
                    ..action(7, 1)
                })
            }),
            ("a third task entry", |s| s.tasks.push(TaskState::default())),
            ("a placement of three", |s| s.nodes = Some(vec![0; 3])),
            ("two finished, one latency", |s| s.finished_total = 2),
            ("seven barriers of six", |s| {
                s.barriers_seen = CHECKPOINTS + 1
            }),
            ("warmup at a barrier not seen", |s| s.warmup_at = Some(2)),
            ("three scored of two", |s| s.checkpoints_scored = 3),
        ];
        for (what, spoil) in hostile {
            let mut state = served();
            spoil(&mut state);
            refused(what, decode(&record(&state)));
        }

        // Every row in memory is `feature_dim` wide, so a ragged one exists
        // only in a record: widen finished task 0's row to three floats.
        let state = served();
        let mut ragged = record(&state);
        let mut head = Encoder::new();
        head.put_u8(0);
        spec.encode(&mut head);
        head.put_bytes(&state.predictor.snapshot_state().expect("blob mode"));
        head.put_usize(spec.task_count);
        let at = head.as_slice().len();
        assert_eq!(ragged[..at], *head.as_slice());
        assert_eq!(
            ragged[at..at + 8],
            2u64.to_le_bytes(),
            "task 0 is described"
        );
        ragged[at..at + 8].copy_from_slice(&3u64.to_le_bytes());
        let end = at + 8 + 2 * 8;
        ragged.splice(end..end, 1.5f64.to_le_bytes());
        refused("a finished task three wide", decode(&ragged));
    }

    /// Flags every finished task and the first id past the job's last
    /// task: neither is running, so a barrier must mark neither.
    struct FlagsNotRunning;
    impl OnlinePredictor for FlagsNotRunning {
        fn name(&self) -> &str {
            "NOT-RUNNING"
        }
        fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
            let past_end = checkpoint.finished.len() + checkpoint.running.len();
            let finished = checkpoint.finished.iter().map(|f| f.id);
            finished.chain([past_end]).collect()
        }
    }

    #[test]
    fn a_flag_on_a_task_not_running_marks_nothing() {
        let spec = spec(4);
        let stats = ShardStats::default();
        let mut state = admitted(&spec, Box::new(FlagsNotRunning));
        for event in steps(4).concat() {
            assert!(state.apply(event, WARMUP, None, &stats));
        }
        // Scored at every barrier from the first completion (time 20) to
        // the threshold (55), each with a task finished.
        assert_eq!((state.checkpoints_scored, state.finished_total), (4, 4));
        assert!(state.tasks.iter().all(|t| t.flagged_at.is_none()));
    }

    /// Blob-capable and stateless: flags each running task whose last
    /// feature is above the finished tasks' mean last feature (a task
    /// with no features never), so what it flags hangs on which row each
    /// task is lent.
    struct AboveFinishedMean;
    impl OnlinePredictor for AboveFinishedMean {
        fn name(&self) -> &str {
            "ABOVE"
        }
        fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
            let lasts = checkpoint.finished.iter().filter_map(|f| f.features.last());
            let (sum, n) = lasts.fold((0.0, 0.0), |(sum, n), x| (sum + x, n + 1.0));
            let mean = if n > 0.0 { sum / n } else { 0.0 };
            let above = |r: &&RunningTask<'_>| r.features.last().is_some_and(|&x| x > mean);
            checkpoint
                .running
                .iter()
                .filter(above)
                .map(|r| r.id)
                .collect()
        }
        fn snapshot_state(&self) -> Option<Vec<u8>> {
            Some(Vec::new())
        }
        fn restore_state(&mut self, bytes: &[u8]) -> bool {
            bytes.is_empty()
        }
    }

    /// [`steps`] with each checkpoint's events in falling task-id order
    /// (task 0 is described last), and with the last task only submitted
    /// until checkpoint 2: it is running and undescribed at barrier 1, the
    /// first scored one.
    fn described_out_of_order(task_count: usize) -> Vec<Vec<TaskEvent>> {
        let late = task_count - 1;
        let mut steps = steps(task_count);
        for step in &mut steps[1..] {
            let barrier = step.pop().expect("each checkpoint ends in its barrier");
            let withheld = |e: &TaskEvent| match e {
                TaskEvent::Progress { task, ordinal, .. } => *task == late && *ordinal < 2,
                _ => false,
            };
            step.retain(|e| !withheld(e));
            step.reverse();
            step.push(barrier);
        }
        steps
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &b| {
            (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    #[test]
    fn the_feature_table_holds_one_row_per_described_task() {
        let spec = spec(12);
        let stats = ShardStats::default();
        let mut state = admitted(&spec, Box::new(AboveFinishedMean));
        for event in described_out_of_order(12).concat() {
            // What a describing event must leave in its task's row: its
            // features, unless the task was flagged (or had finished).
            let described = match &event {
                TaskEvent::Progress { task, features, .. }
                | TaskEvent::Finished { task, features, .. } => {
                    let t = &state.tasks[*task];
                    let live = t.flagged_at.is_none()
                        && (t.latency.is_none() || matches!(event, TaskEvent::Finished { .. }));
                    live.then(|| (*task, features.clone()))
                }
                _ => None,
            };
            assert!(state.apply(event, WARMUP, None, &stats));
            if let Some((task, features)) = described {
                assert_eq!(row(&state.rows, 2, state.tasks[task].row), features);
            }
            let rows = state.tasks.iter().filter(|t| t.row.is_some()).count();
            assert_eq!(state.rows.len(), rows * spec.feature_dim);
        }
        // Rows went in by first description: checkpoint 0 described
        // tasks 10 down to 0, checkpoint 2 the last task.
        let starts = [10, 0, 11].map(|task| state.tasks[task].row);
        assert_eq!(starts, [Some(0), Some(10 * 2), Some(11 * 2)]);
        assert!(state.checkpoints_scored > 0);
    }

    #[test]
    fn describing_out_of_id_order_round_trips_to_the_same_bytes() {
        let spec = spec(12);
        let factory: PredictorFactory = Box::new(|_| Box::new(AboveFinishedMean));
        // Every event a step of its own, so a record is cut at each.
        let steps: Vec<Vec<TaskEvent>> = described_out_of_order(12)
            .concat()
            .into_iter()
            .map(|e| vec![e])
            .collect();
        let (phases, records) = round_trip_at_every_cut(&spec, &steps, &factory);
        assert_eq!(phases.last(), Some(&JobPhase::Scoring));
        // The records the per-task-vector table wrote for this stream
        // (recorded on `e2d89f2`, before the shared table).
        let hash = fnv1a(&records.concat());
        assert_eq!(
            (records.len(), hash),
            (DESCRIBED_OUT_OF_ORDER_RECORDS, DESCRIBED_OUT_OF_ORDER_HASH),
            "found {:#X}",
            hash
        );
    }

    #[test]
    fn a_job_start_wider_than_memory_allocates_only_what_its_events_carry() {
        let spec = JobSpec {
            feature_dim: usize::MAX / 8,
            checkpoints: 1,
            ..spec(2)
        };
        let job = spec.job;
        let events = [
            TaskEvent::Submitted { job, task: 0 },
            TaskEvent::Progress {
                job,
                task: 0,
                ordinal: 0,
                time: 10.0,
                features: vec![1.0, 2.0],
            },
            TaskEvent::Progress {
                job,
                task: 1,
                ordinal: 0,
                time: 10.0,
                features: Vec::new(),
            },
            TaskEvent::Barrier {
                job,
                ordinal: 0,
                time: 10.0,
            },
        ];
        let stats = ShardStats::default();
        let mut state = admitted(&spec, Box::new(AboveFinishedMean));
        let applied: Vec<bool> = events
            .iter()
            .map(|e| state.apply(e.clone(), WARMUP, None, &stats))
            .collect();
        // Neither vector is a row that wide; the barrier scores task 0,
        // seen but undescribed, with no features.
        assert_eq!(applied, [true, false, false, true]);
        assert_eq!((state.checkpoints_scored, state.rows.capacity()), (1, 0));

        // Through a shard: admitted, the two vectors rejected, the job
        // finalized at its one barrier, nothing poisoned.
        let mut shard = Shard::new(WARMUP);
        let factory: PredictorFactory = Box::new(|_| Box::new(AboveFinishedMean));
        let stats = ShardStats::default();
        let stream = std::iter::once(TaskEvent::JobStart { spec }).chain(events);
        shard.apply_batch(stream, &factory, None, None, &stats);
        let counts = [
            Counter::RejectedEvents,
            Counter::PoisonedJobs,
            Counter::FinalizedJobs,
        ];
        assert_eq!(counts.map(|c| stats.get(c)), [2, 0, 1]);
    }

    #[test]
    fn a_record_of_undescribed_tasks_allocates_only_the_rows_it_holds() {
        let factory = factory(false);
        let tasks = 4096;
        // One row at the last task, three wide, behind `tasks - 1` tasks
        // that were only submitted; decoded under a spec of width 3 and
        // one no memory could hold.
        for (feature_dim, decodes) in [(3, true), (usize::MAX / 8, false)] {
            let spec = JobSpec {
                feature_dim,
                ..spec(tasks)
            };
            let blob = admitted(&spec, factory(&spec))
                .predictor
                .snapshot_state()
                .expect("blob mode");
            let mut enc = Encoder::new();
            enc.put_u8(0);
            spec.encode(&mut enc);
            enc.put_bytes(&blob);
            enc.put_usize(tasks);
            for task in 0..tasks {
                if task == tasks - 1 {
                    vec![0.5, 1.5, 2.5].encode(&mut enc);
                } else {
                    enc.put_usize(0);
                }
                None::<f64>.encode(&mut enc);
                None::<usize>.encode(&mut enc);
                enc.put_bool(true);
            }
            enc.put_usize(0);
            None::<usize>.encode(&mut enc);
            enc.put_usize(0);
            enc.put_usize(0);
            None::<Vec<u32>>.encode(&mut enc);
            Vec::<ActionRecord>::new().encode(&mut enc);
            let record = enc.into_bytes();

            let decoded = JobState::decode(&mut Decoder::new(&record), &factory, None);
            match decoded {
                Ok(state) => {
                    assert!(decodes, "width {feature_dim}: decoded a ragged row");
                    assert_eq!(state.tasks[tasks - 1].row, Some(0));
                    assert_eq!(state.rows, [0.5, 1.5, 2.5]);
                    assert!(state.rows.capacity() * 8 <= record.len());
                }
                Err(RecoverError::PredictorRestore(_)) => {
                    assert!(!decodes, "width {feature_dim}: refused")
                }
                Err(e) => panic!("width {feature_dim}: wrong error {e:?}"),
            }
        }
    }

    /// A shard whose WAL segment lives on a simulated disk: durable.
    fn durable_shard() -> Shard {
        let disk = crate::disk::sim::SimDisk::default();
        let mut shard = Shard::new(WARMUP);
        shard.install_wal(WalWriter::create(&disk, Path::new("wal-0-0.log"), usize::MAX).unwrap());
        shard
    }

    /// One generated job's stream and its sequential `replay_job`
    /// outcome under [`FlagAll`].
    fn neighbour() -> (Vec<TaskEvent>, nurd_sim::ReplayOutcome) {
        let config = nurd_trace::SuiteConfig::new(nurd_trace::TraceStyle::Google)
            .with_jobs(1)
            .with_task_range(30, 40)
            .with_checkpoints(CHECKPOINTS)
            .with_seed(3);
        let job = &nurd_trace::generate_suite(&config)[0];
        let replay = nurd_sim::ReplayConfig {
            quantile: 0.9,
            warmup_fraction: WARMUP,
        };
        let expected = nurd_sim::replay_job(job, &mut FlagAll, &replay);
        (nurd_data::job_stream(job, 0.9), expected)
    }

    /// `spec`'s job: its `JobStart`, the events of [`steps`] (job 7's) and
    /// its `JobEnd`.
    fn stream_of(spec: JobSpec) -> Vec<TaskEvent> {
        let job = spec.job;
        let mut events = vec![TaskEvent::JobStart { spec }];
        events.extend(steps(4).concat());
        events.push(TaskEvent::JobEnd { job, time: 70.0 });
        events
    }

    /// Serves job 7's `stream` interleaved event by event with
    /// [`neighbour`]'s on one shard, and holds the neighbour to its
    /// `replay_job` outcome. Returns the rejected and orphan counts and
    /// the ids of the jobs reported.
    fn serve_beside_neighbour(
        mut shard: Shard,
        stream: &[TaskEvent],
        factory: &PredictorFactory,
    ) -> ([usize; 2], Vec<u64>) {
        let (neighbour, expected) = neighbour();
        let stats = ShardStats::default();
        let mut events = Vec::new();
        for i in 0..neighbour.len().max(stream.len()) {
            events.extend(neighbour.get(i).cloned());
            events.extend(stream.get(i).cloned());
        }
        shard.apply_batch(events, factory, None, None, &stats);
        let reports = shard.finish_reports(None, &stats);
        let served = reports
            .iter()
            .find(|r| r.job != 7)
            .expect("neighbour served");
        assert_eq!(
            served.outcome, expected,
            "the neighbour diverged from replay_job"
        );
        let counts = [Counter::RejectedEvents, Counter::OrphanEvents].map(|c| stats.get(c));
        (counts, reports.iter().map(|r| r.job).collect())
    }

    #[test]
    fn a_job_start_larger_than_memory_is_refused_not_a_panic() {
        let stream = stream_of(JobSpec {
            task_count: usize::MAX / 8,
            ..spec(4)
        });
        let (counts, jobs) = catch_unwind(AssertUnwindSafe(|| {
            serve_beside_neighbour(Shard::new(WARMUP), &stream, &factory(true))
        }))
        .expect("admission panicked");
        // The `JobStart` refused, every later event of the job an orphan.
        assert_eq!(counts, [1, stream.len() - 1]);
        assert!(!jobs.contains(&7), "the refused job was served");
    }

    #[test]
    fn a_durable_shard_refuses_a_predictor_that_cannot_snapshot() {
        let factory: PredictorFactory = Box::new(|spec: &JobSpec| {
            if spec.job == 7 {
                Box::new(Unsnapshotted)
            } else {
                Box::new(FlagAll)
            }
        });
        let stream = stream_of(spec(4));
        let (counts, jobs) = serve_beside_neighbour(durable_shard(), &stream, &factory);
        assert_eq!(counts, [1, stream.len() - 1]);
        assert!(!jobs.contains(&7), "the refused job was served");
        // A shard without a WAL serves the same job.
        let (counts, jobs) = serve_beside_neighbour(Shard::new(WARMUP), &stream, &factory);
        assert_eq!(counts, [0, 0]);
        assert!(jobs.contains(&7));
    }

    #[test]
    fn a_blob_record_whose_spec_outsizes_memory_is_a_typed_error() {
        let factory = factory(true);
        let mut state = admitted(&spec(2), factory(&spec(2)));
        state.spec.task_count = usize::MAX / 8;
        let mut enc = Encoder::new();
        state.encode(&mut enc);
        let record = enc.into_bytes();
        let decoded = catch_unwind(AssertUnwindSafe(|| {
            JobState::decode(&mut Decoder::new(&record), &factory, None).map(|_| ())
        }));
        match decoded {
            Ok(Err(RecoverError::PredictorRestore(job))) => assert_eq!(job, spec(2).job),
            Ok(Err(e)) => panic!("wrong error {e:?}"),
            Ok(Ok(())) => panic!("decoded a job its spec cannot hold"),
            Err(_) => panic!("decode panicked"),
        }
    }

    #[test]
    fn a_history_record_is_an_invalid_tag() {
        // Tag 1 once held the job's retained events; no engine writes it.
        let mut enc = Encoder::new();
        enc.put_u8(1);
        spec(4).encode(&mut enc);
        Vec::<TaskEvent>::new().encode(&mut enc);
        Vec::<ActionRecord>::new().encode(&mut enc);
        let record = enc.into_bytes();
        let decoded = JobState::decode(&mut Decoder::new(&record), &factory(true), None);
        assert!(matches!(
            decoded,
            Err(RecoverError::Codec(nurd_codec::CodecError::InvalidTag {
                tag: 1,
                ..
            }))
        ));
    }

    #[test]
    fn job_state_round_trips_at_every_lifecycle_phase_and_size() {
        use JobPhase::{Admitted, Scoring, Warming};
        for flag_all in [false, true] {
            // A job without tasks, or whose only task has finished, is
            // complete at that barrier and finalizes there — the phases
            // below are all a snapshot can catch such a job in.
            assert_eq!(round_trip_every_step(0, flag_all), [Admitted]);
            assert_eq!(round_trip_every_step(1, flag_all), [Admitted, Warming]);
            assert_eq!(
                round_trip_every_step(40, flag_all),
                [Admitted, Warming, Scoring]
            );
        }
    }

    /// Panics at its first scored barrier: a predictor bug mid-run.
    struct PanicsAtFirstPredict;
    impl OnlinePredictor for PanicsAtFirstPredict {
        fn name(&self) -> &str {
            "PANICS"
        }
        fn predict(&mut self, _: &Checkpoint<'_>) -> Vec<usize> {
            panic!("predictor bug")
        }
        fn snapshot_state(&self) -> Option<Vec<u8>> {
            Some(Vec::new())
        }
    }

    /// A splitmix64 step: the chunking tests' only source of randomness.
    fn next(rng: &mut u64) -> u64 {
        *rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// One stream per job, each holding what ends or breaks a run: job 1
    /// ends with a `JobEnd` while live, after three of its six
    /// checkpoints, and then sends one more event (stale); job 2
    /// declares three checkpoints and sends six, so the barrier that
    /// completes it is followed by its own events (stale); job 3's
    /// predictor panics at its first scored barrier (see
    /// [`breaker_factory`]); job 4 restarts while live; job 99 never
    /// starts (orphans). Every barrier may be followed by its duplicate or
    /// by an out-of-order one, every `Progress` by one of the wrong width
    /// or a `Submitted` for an unknown task (all rejected).
    fn breaker_streams(rng: &mut u64) -> Vec<Vec<TaskEvent>> {
        let mut streams = Vec::new();
        for job in [1, 2, 3, 4, 99] {
            let task_count = 2 + (next(rng) % 5) as usize;
            let spec = JobSpec {
                job,
                checkpoints: if job == 2 { 3 } else { CHECKPOINTS },
                ..spec(task_count)
            };
            let steps = job_steps(job, task_count);
            let mut stream = Vec::new();
            if job != 99 {
                stream.push(TaskEvent::JobStart { spec: spec.clone() });
            }
            if job == 4 {
                stream.extend(steps[..3].concat());
                stream.push(TaskEvent::JobStart { spec });
            }
            let sent = if job == 1 { &steps[..3] } else { &steps[..] };
            for event in sent.concat() {
                let roll = next(rng) % 8;
                let noise = match &event {
                    TaskEvent::Barrier { ordinal, time, .. } if roll < 2 => {
                        let ordinal = ordinal + if roll == 0 { 0 } else { 2 };
                        Some(TaskEvent::Barrier {
                            job,
                            ordinal,
                            time: *time,
                        })
                    }
                    TaskEvent::Progress {
                        task,
                        ordinal,
                        time,
                        ..
                    } if roll == 0 => Some(TaskEvent::Progress {
                        job,
                        task: *task,
                        ordinal: *ordinal,
                        time: *time,
                        features: vec![0.0],
                    }),
                    TaskEvent::Progress { .. } if roll == 1 => {
                        Some(TaskEvent::Submitted { job, task: 1000 })
                    }
                    _ => None,
                };
                stream.push(event);
                stream.extend(noise);
            }
            if job != 99 {
                stream.push(TaskEvent::JobEnd { job, time: 70.0 });
            }
            if job == 1 {
                stream.push(TaskEvent::Submitted { job, task: 0 });
            }
            streams.push(stream);
        }
        streams
    }

    /// [`FlagAll`] for every job but job 3, whose predictor panics.
    fn breaker_factory() -> PredictorFactory {
        Box::new(|spec: &JobSpec| -> Box<dyn OnlinePredictor + Send> {
            if spec.job == 3 {
                Box::new(PanicsAtFirstPredict)
            } else {
                Box::new(FlagAll)
            }
        })
    }

    /// What one shard shows after applying `batches` in order: its
    /// per-job events seen, every counter, each job's phase, the bytes it
    /// captures into a snapshot, and its reports at the end.
    type Applied = (
        BTreeMap<u64, u64>,
        Vec<usize>,
        Vec<Option<JobPhase>>,
        Vec<u8>,
        Vec<JobReport>,
    );

    fn applied_in(batches: impl IntoIterator<Item = Vec<TaskEvent>>) -> Applied {
        let factory = breaker_factory();
        let stats = ShardStats::default();
        let mut shard = Shard::new(WARMUP);
        for batch in batches {
            shard.apply_batch(batch, &factory, None, None, &stats);
        }
        let counters = (0..Counter::COUNT).map(|i| stats.0[i].load(Ordering::Relaxed));
        let counters = counters.collect();
        let phases = [1, 2, 3, 4, 99].map(|job| shard.phase_of(job)).to_vec();
        let mut data = SnapshotData::default();
        shard.capture_into(&mut data, &stats);
        let mut enc = Encoder::new();
        data.counters.iter().for_each(|&value| enc.put_u64(value));
        data.events_seen.encode(&mut enc);
        data.finalized_ids.encode(&mut enc);
        data.finalized.encode(&mut enc);
        data.jobs.iter().for_each(|job| enc.put_bytes(job));
        let reports = shard.finish_reports(None, &stats);
        (
            shard.events_seen,
            counters,
            phases,
            enc.into_bytes(),
            reports,
        )
    }

    /// Applies `events` as one batch, one event per call and in chunks of
    /// 1–24 drawn from `rng`, and holds the three shards to each other.
    fn assert_chunking_is_invisible(events: &[TaskEvent], rng: &mut u64) {
        let whole = applied_in([events.to_vec()]);
        let single = applied_in(events.iter().map(|e| vec![e.clone()]));
        let mut chunks = Vec::new();
        let mut rest = events;
        while !rest.is_empty() {
            let (chunk, tail) = rest.split_at(rest.len().min(1 + (next(rng) % 24) as usize));
            chunks.push(chunk.to_vec());
            rest = tail;
        }
        let chunked = applied_in(chunks);
        assert_eq!(whole, single, "one batch vs one event per call");
        assert_eq!(whole, chunked, "one batch vs random chunks");
    }

    #[test]
    fn every_run_breaker_mid_batch_applies_as_event_by_event() {
        // Streams back to back: each job's events are one long run, so
        // every breaker is followed by its own job's events in the batch.
        let mut rng = 11;
        let events = breaker_streams(&mut rng).concat();
        let whole = applied_in([events.clone()]);
        let counter = |c: Counter| whole.1[c as usize];
        assert_eq!(counter(Counter::PoisonedJobs), 1);
        assert!(counter(Counter::StaleEvents) > 2, "job 2's tail is stale");
        assert!(counter(Counter::OrphanEvents) > 0);
        assert!(counter(Counter::RejectedEvents) > 0);
        assert_eq!(whole.0.values().sum::<u64>(), events.len() as u64);
        assert_chunking_is_invisible(&events, &mut rng);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        #[test]
        fn prop_any_chunking_of_interleaved_jobs_applies_identically(seed in 0u64..u64::MAX) {
            let mut rng = seed;
            let mut streams: Vec<std::collections::VecDeque<TaskEvent>> =
                breaker_streams(&mut rng).into_iter().map(Into::into).collect();
            // Interleave the jobs in runs of 1–8 events, each job's order kept.
            let mut events = Vec::new();
            while let Some(live) = streams.iter().filter(|s| !s.is_empty()).count().checked_sub(1) {
                let pick = (next(&mut rng) % (live as u64 + 1)) as usize;
                let stream = streams.iter_mut().filter(|s| !s.is_empty()).nth(pick).unwrap();
                let run = 1 + (next(&mut rng) % 8) as usize;
                events.extend(stream.drain(..run.min(stream.len())));
            }
            assert_chunking_is_invisible(&events, &mut rng);
        }
    }
}
