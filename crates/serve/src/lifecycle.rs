//! Job lifecycle and overload-control vocabulary for the streaming engine.
//!
//! A job served by [`EngineService`](crate::EngineService) moves through
//! four phases:
//!
//! ```text
//!            JobStart drained          first quorum barrier
//! (unknown) ────────────────► Admitted ──► Warming ──► Scoring ──► Finalized
//!                                  │            │           │          ▲
//!                                  └────────────┴───────────┴──────────┘
//!                 JobEnd · stream complete (last barrier or all tasks
//!                 finished at a barrier) · EngineService::close
//! ```
//!
//! Finalization emits the job's [`JobReport`](crate::JobReport) and drops
//! its entire in-shard state (predictor, task features, flags), which is
//! what bounds the engine's resident memory to the *live* jobs rather
//! than every job ever seen. `docs/OPERATIONS.md` walks the state
//! machine from an operator's perspective.

/// Where a job currently sits in its serving lifecycle (the state
/// machine above), as [`EngineService::job_phase`](crate::EngineService::job_phase)
/// reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Admitted (its `JobStart` was drained) but no checkpoint activity
    /// has been applied yet.
    Admitted,
    /// Events are flowing but the warmup quorum has not yet held at a
    /// barrier — the predictor exists but has never been invoked.
    Warming,
    /// The warmup quorum held; the predictor is scored at each barrier
    /// inside the prediction window.
    Scoring,
    /// The job's stream ended; its report is (or was) available and its
    /// state has been dropped.
    Finalized,
}

/// Why a job was finalized. Deterministic for a given event stream — it
/// depends only on the job's own event prefix, never on shard count or
/// drain timing — so it is safe to carry inside the determinism-checked
/// [`JobReport`](crate::JobReport).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinalizeReason {
    /// An explicit [`TaskEvent::JobEnd`](nurd_data::TaskEvent::JobEnd)
    /// arrived.
    JobEnd,
    /// The stream completed on its own: the job's last declared barrier
    /// closed, or every task had finished by a closed barrier (nothing
    /// was left to score — past the last completion the clock is at or
    /// beyond `τ_stra`, so the revelation rule has already ended the
    /// prediction window).
    StreamComplete,
    /// The operator called
    /// [`EngineService::close`](crate::EngineService::close) while the
    /// job was still live.
    EngineFinish,
    /// The job's predictor panicked during event application. The job is
    /// *quarantined*: its state up to the panic is reported, every later
    /// event of its stream counts as stale, and the drain worker (and
    /// every other job on the shard) keeps running. Counted in
    /// [`EngineStats::poisoned_jobs`](crate::EngineStats::poisoned_jobs).
    /// The one lifecycle reason that is **not** deterministic protocol
    /// output — it marks a predictor bug, so its report carries whatever
    /// flags stood when the predictor died.
    Poisoned,
}

impl nurd_codec::Checkpointable for FinalizeReason {
    fn encode(&self, enc: &mut nurd_codec::Encoder) {
        enc.put_u8(match self {
            FinalizeReason::JobEnd => 0,
            FinalizeReason::StreamComplete => 1,
            FinalizeReason::EngineFinish => 2,
            FinalizeReason::Poisoned => 3,
        });
    }

    fn decode(dec: &mut nurd_codec::Decoder<'_>) -> Result<Self, nurd_codec::CodecError> {
        match dec.take_u8()? {
            0 => Ok(FinalizeReason::JobEnd),
            1 => Ok(FinalizeReason::StreamComplete),
            2 => Ok(FinalizeReason::EngineFinish),
            3 => Ok(FinalizeReason::Poisoned),
            tag => Err(nurd_codec::CodecError::InvalidTag {
                what: "FinalizeReason",
                tag,
            }),
        }
    }
}

/// What [`EngineHandle::push`](crate::EngineHandle::push) does when the target
/// shard's ingress queue is at [`EngineConfig::queue_capacity`](crate::EngineConfig::queue_capacity).
///
/// Only [`OverloadPolicy::Block`] preserves the engine's determinism
/// contract (it loses no events — the producer pays by waiting until a
/// drain worker makes room). The shedding policies trade events for bounded memory
/// and are accounted in [`OverloadCounters`]; any per-job stream they
/// puncture degrades gracefully (later events of that job may be
/// rejected by structural validation, never panic a drain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Apply back-pressure: a push to a full shard sleeps until a drain
    /// pops, then enqueues — draining shards itself meanwhile whenever a
    /// predictor call is in flight, so callbacks may run on the pushing
    /// thread. No events are lost; determinism holds.
    #[default]
    Block,
    /// Drop the *oldest* queued event to make room for the new one —
    /// favors fresh signal under sustained overload.
    ShedOldest,
    /// Drop the *incoming* event — favors completing what is already
    /// queued.
    RejectNew,
}

/// Overload *loss* accounting, summed over the shards' counters in
/// [`EngineReport`](crate::EngineReport) /
/// [`EngineStats`](crate::EngineStats). Both counters stay zero while
/// the configured capacity is never hit (the unbounded default) and
/// under the lossless [`OverloadPolicy::Block`] — nonzero values are
/// exactly the cases where determinism was forfeited, so carrying them
/// in the determinism-checked report is sound. The lossless-but-
/// scheduling-dependent count of blocked pushes lives in
/// [`EngineStats::blocked_pushes`](crate::EngineStats::blocked_pushes)
/// instead (like `events_per_shard`, it varies with shard count and
/// drain timing while the report must not).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OverloadCounters {
    /// Queued events dropped under [`OverloadPolicy::ShedOldest`].
    pub shed_events: usize,
    /// Incoming events dropped under [`OverloadPolicy::RejectNew`].
    pub rejected_ingress: usize,
}

impl OverloadCounters {
    /// Total events *lost* to overload (shed + rejected ingress).
    #[must_use]
    pub fn lost_events(&self) -> usize {
        self.shed_events + self.rejected_ingress
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lost_events_are_shed_plus_rejected_ingress() {
        let counters = OverloadCounters {
            shed_events: 22,
            rejected_ingress: 33,
        };
        assert_eq!(counters.lost_events(), 55);
    }

    #[test]
    fn default_policy_is_the_lossless_one() {
        assert_eq!(OverloadPolicy::default(), OverloadPolicy::Block);
        assert_eq!(OverloadCounters::default().lost_events(), 0);
    }
}
