//! Job lifecycle vocabulary for the streaming engine.
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

/// What a push does when the target shard's ingress queue is at
/// [`EngineConfig::queue_capacity`](crate::EngineConfig::queue_capacity):
/// it blocks. Kept only for `benchmark/`, which sets
/// [`EngineConfig::overload`](crate::EngineConfig::overload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Apply back-pressure: a push to a full shard sleeps until a drain
    /// pops, then enqueues — draining shards itself meanwhile whenever a
    /// predictor call is in flight, so callbacks may run on the pushing
    /// thread. No events are lost; determinism holds.
    #[default]
    Block,
}

/// Overload loss accounting, which back-pressure keeps empty. Kept only
/// for `benchmark/`, which reads
/// [`EngineStats::overload`](crate::EngineStats::overload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OverloadCounters;

impl OverloadCounters {
    /// Events lost to overload: always 0, since a full queue blocks the
    /// push. Kept only for `benchmark/`.
    #[must_use]
    pub fn lost_events(&self) -> usize {
        0
    }
}
