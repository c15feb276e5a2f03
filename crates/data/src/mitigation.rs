//! Mitigation vocabulary: typed actions a straggler-mitigation policy can
//! take on a running task, the per-barrier view a policy decides from, and
//! the [`MitigationPolicy`] trait itself.
//!
//! The serving engine (`nurd-serve`) produces per-task straggler *scores*
//! at every scored barrier; a mitigation policy turns scores into typed
//! [`MitigationAction`]s; a deterministic simulator (`nurd-sim`) executes
//! the resulting [`ActionRecord`] log against the job's ground-truth
//! latencies and reports job-completion-time and wasted-work metrics. The
//! types live here — the bottom of the dependency stack — so the engine,
//! the simulator, and the policy crates all speak the same vocabulary
//! without depending on each other.
//!
//! # Determinism contract
//!
//! Every field of a [`BarrierView`] is a deterministic function of the
//! job's own event stream, and a job's barriers are applied in stream
//! order regardless of shard count or drain scheduling. A policy whose
//! decisions depend only on the views it has seen (through its per-job
//! state, which then evolves deterministically too) therefore produces a
//! bit-identical action log at any shard count — the same
//! replay-determinism argument the engine's reports rely on.

use nurd_codec::{Checkpointable, CodecError, Decoder, Encoder};

/// What a mitigation policy decided to do about one running task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MitigationAction {
    /// Speculatively re-execute the task on another machine: the task
    /// finishes at `min(original, clone)` latency, with the clone's run
    /// time charged to the wasted-work ledger (whether it wins or not).
    Clone,
    /// Explicitly do nothing. A typed no-decision lets a policy say "I
    /// looked at this task and declined" without the engine recording an
    /// action for it.
    Ignore,
    /// Kill the task and relaunch it from scratch elsewhere: everything
    /// the original ran is wasted, and the relaunch restarts the clock.
    /// Aggressive — a wrong quarantine can *lengthen* the job, unlike a
    /// wrong clone.
    Quarantine,
}

impl Checkpointable for MitigationAction {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(match self {
            MitigationAction::Clone => 0,
            MitigationAction::Ignore => 1,
            MitigationAction::Quarantine => 2,
        });
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match dec.take_u8()? {
            0 => Ok(MitigationAction::Clone),
            1 => Ok(MitigationAction::Ignore),
            2 => Ok(MitigationAction::Quarantine),
            tag => Err(CodecError::InvalidTag {
                what: "MitigationAction",
                tag,
            }),
        }
    }
}

/// One committed mitigation decision: which task, at which barrier of
/// which job, and what was done. The engine appends these to the job's
/// action log in decision order; the log rides the job's report and the
/// crash-recovery snapshots, and is the unit of the bit-identical-across-
/// shard-counts property.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActionRecord {
    /// Job the action belongs to.
    pub job: u64,
    /// Barrier ordinal (checkpoint index) at which the decision was made.
    pub ordinal: usize,
    /// The barrier's wall-clock time — when the action takes effect.
    pub time: f64,
    /// The targeted task id.
    pub task: usize,
    /// What was done ([`MitigationAction::Ignore`] is never recorded).
    pub action: MitigationAction,
}

impl Checkpointable for ActionRecord {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.job);
        enc.put_usize(self.ordinal);
        enc.put_f64(self.time);
        enc.put_usize(self.task);
        self.action.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(ActionRecord {
            job: dec.take_u64()?,
            ordinal: dec.take_usize()?,
            time: dec.take_f64()?,
            task: dec.take_usize()?,
            action: Checkpointable::decode(dec)?,
        })
    }
}

/// One running task's straggler score at a barrier.
///
/// The score is normalized so `1.0` is the flagging boundary: a NURD-style
/// predictor reports `adjusted_prediction / τ_stra`, so `score >= 1.0`
/// means "predicted to straggle" and the magnitude above/below carries the
/// confidence a threshold policy can act on. Predictors without a
/// continuous score report `1.0` for flagged tasks and `0.0` otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskScore {
    /// Task id within the job.
    pub task: usize,
    /// Normalized straggler score (`>= 1.0` ⇔ at/above the flag boundary).
    pub score: f64,
}

/// A scored prediction at one checkpoint: the flagged ids (exactly what
/// [`crate::OnlinePredictor::predict`] would return) plus per-task scores
/// for every running task the predictor evaluated.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScoredPrediction {
    /// Ids predicted to straggle — identical to what `predict` returns on
    /// the same checkpoint.
    pub flagged: Vec<usize>,
    /// Normalized per-task scores (see [`TaskScore`]); covers the running
    /// tasks the predictor evaluated, task-id order.
    pub scores: Vec<TaskScore>,
}

/// Everything a mitigation policy sees at one scored barrier of one job.
///
/// Every field is a deterministic function of the job's own event
/// stream — see the module docs for the determinism contract.
#[derive(Debug, Clone, Copy)]
pub struct BarrierView<'a> {
    /// The job being decided about.
    pub job: u64,
    /// Barrier ordinal (checkpoint index), ascending per job.
    pub ordinal: usize,
    /// The barrier's wall-clock time.
    pub time: f64,
    /// The job's straggler threshold `τ_stra`.
    pub threshold: f64,
    /// Normalized straggler scores for the running tasks evaluated at
    /// this barrier (newly-flagged tasks included), task-id order.
    pub scores: &'a [TaskScore],
    /// Tasks newly flagged as stragglers *at this barrier* (a subset of
    /// the ids in `scores` with score at/above the boundary).
    pub flagged: &'a [usize],
    /// Remaining clone budget the engine will honor for this job, if the
    /// policy declared one ([`MitigationPolicy::clone_budget`]).
    pub clones_remaining: Option<usize>,
    /// The job's node placement (`nodes[t]` = machine of task `t`), when a
    /// [`crate::TaskEvent::Placed`] event arrived for the job. Placement
    /// is part of the job's own event stream, so node-aware policies keep
    /// the bit-identical action-log guarantee.
    pub nodes: Option<&'a [u32]>,
}

/// A straggler-mitigation policy: scores in, typed actions out.
///
/// One instance is created per job (like predictors), so per-job state —
/// counters, hysteresis — is plain `&mut self` state. For the
/// determinism and crash-recovery guarantees to hold, that state must
/// evolve deterministically from the sequence of views (see the module
/// docs); the engine persists its own bookkeeping (action log, budget
/// consumed) across crash recovery and re-creates the policy object from
/// the factory, so policies must not rely on hidden state surviving a
/// recovery beyond what their decisions imply.
pub trait MitigationPolicy {
    /// Short policy name for reports and logs ("noop", "threshold-clone",
    /// "top-k", "oracle", ...).
    fn name(&self) -> &str;

    /// Per-job cap on [`MitigationAction::Clone`] actions, enforced by
    /// the engine (excess clone decisions are suppressed and counted).
    /// `None` (the default) is unlimited.
    fn clone_budget(&self) -> Option<usize> {
        None
    }

    /// Decides actions for one scored barrier. Returns `(task, action)`
    /// pairs; the engine validates each (task running at this barrier,
    /// not already actioned, clone budget not exhausted — violations are
    /// suppressed and counted, never errors) and records everything but
    /// [`MitigationAction::Ignore`] in the job's action log, in the
    /// order returned.
    fn decide(&mut self, view: &BarrierView<'_>) -> Vec<(usize, MitigationAction)>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_record_round_trips() {
        for action in [
            MitigationAction::Clone,
            MitigationAction::Ignore,
            MitigationAction::Quarantine,
        ] {
            let record = ActionRecord {
                job: 42,
                ordinal: 7,
                time: 123.5,
                task: 9,
                action,
            };
            let mut enc = Encoder::new();
            record.encode(&mut enc);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            let back = ActionRecord::decode(&mut dec).unwrap();
            assert_eq!(back, record);
            assert!(dec.is_empty());
        }
    }

    #[test]
    fn action_vec_round_trips() {
        let log = vec![
            ActionRecord {
                job: 1,
                ordinal: 0,
                time: 1.0,
                task: 3,
                action: MitigationAction::Clone,
            },
            ActionRecord {
                job: 1,
                ordinal: 2,
                time: 3.0,
                task: 5,
                action: MitigationAction::Quarantine,
            },
        ];
        let mut enc = Encoder::new();
        log.encode(&mut enc);
        let bytes = enc.into_bytes();
        let back: Vec<ActionRecord> = Checkpointable::decode(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn invalid_action_tag_is_a_typed_error() {
        let mut dec = Decoder::new(&[9u8]);
        assert!(MitigationAction::decode(&mut dec).is_err());
    }
}
