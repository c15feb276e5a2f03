//! The streaming engine: sharded MPSC ingress, mid-stream admission,
//! per-job finalization, back-pressure, parallel drains, reports.
//!
//! The concurrency split (see [`crate`] docs for the full picture):
//!
//! * [`EngineCore`] *(crate-private)* — the shared state: one
//!   [`nurd_runtime::Channel`] ingress queue, one `Mutex<Shard>`, and one
//!   atomic [`ShardStats`](crate::shard::ShardStats) counter table per shard,
//!   plus the [`nurd_runtime::Notifier`] idle drain workers park on.
//! * [`EngineHandle`] — cloneable, `Send + Sync` producer handle;
//!   [`EngineHandle::push`] takes `&self` and is safe from any thread.
//! * [`EngineService`](crate::EngineService) — owns the core and runs
//!   the background drain workers. Only this file's unit tests, which
//!   must place their drain points by hand, drive the core directly.

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use std::sync::OnceLock;

use nurd_codec::Checkpointable;
use nurd_data::{ActionRecord, JobSpec, MitigationPolicy, OnlinePredictor, TaskEvent};
use nurd_runtime::{Channel, Notifier, TrySendError};
use nurd_sim::ReplayOutcome;

use crate::disk::Disk;
use crate::lifecycle::{FinalizeReason, JobPhase, OverloadCounters, OverloadPolicy};
use crate::observer::HealthObserver;
use crate::persist::{scan_dir, snapshot_path, wal_path, DirScan, PersistenceConfig, RecoverError};
use crate::shard::{Counter, JobState, Shard, ShardStats};
use crate::snapshot::{write_snapshot_file, SnapshotData};
use crate::wal::{read_wal_segment, WalTail, WalWriter};

/// Builds a fresh predictor for an admitted job — the serving analogue of
/// the per-job factories in `nurd-baselines`' method registry. Invoked by
/// a shard drain when it encounters the job's
/// [`TaskEvent::JobStart`], so it must be `Sync` (drains run in
/// parallel on the service's background workers).
pub type PredictorFactory = Box<dyn Fn(&JobSpec) -> Box<dyn OnlinePredictor + Send> + Send + Sync>;

/// Builds a fresh [`MitigationPolicy`] for an admitted job — the
/// mitigation twin of [`PredictorFactory`]. Registered once per engine
/// via [`EngineService::attach_mitigator`](crate::EngineService::attach_mitigator);
/// invoked by shard drains, so it must be `Sync`.
pub type MitigatorFactory = Box<dyn Fn(&JobSpec) -> Box<dyn MitigationPolicy + Send> + Send + Sync>;

/// Adaptive shard balancing: when a shard's ingress backlog stays above
/// [`BalanceConfig::backlog_threshold`], the drain loop grants that
/// shard's *oversized* jobs (≥ [`BalanceConfig::min_tasks`] tasks)
/// within-job parallelism via [`OnlinePredictor::set_parallelism`] —
/// fanning their model refits **and their barrier score batches** (once
/// the running set is large enough for the predictor to split it into
/// lane-aligned chunks) across [`BalanceConfig::threads`] workers
/// of the shared [`nurd_runtime::global`] pool. This attacks the skew a
/// shard count cannot: one giant job pins one shard (a job never spans
/// shards — that is the determinism argument), so the only lever left is
/// making *that job's* checkpoint refits and barrier scoring faster.
///
/// Safe by construction: the parallel fit and scoring paths are
/// bit-identical across thread counts (property-tested in `nurd-ml`), so
/// flipping the grant on or off — at any moment, even mid-job — changes
/// wall-clock only, never a report. The grant is withdrawn (with
/// hysteresis, at half the threshold) once the backlog subsides, so a
/// healthy fleet pays nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BalanceConfig {
    /// Ingress backlog a drain finds (undrained events, its own batch
    /// included) at or above which the grant switches on. Switches back
    /// off when the backlog falls to half this value. With a bounded queue
    /// ([`EngineConfig::queue_capacity`]) the backlog can never exceed
    /// the capacity, so the engine clamps this to half the capacity —
    /// otherwise a threshold above the bound would silently disable the
    /// feature.
    pub backlog_threshold: usize,
    /// Only jobs with at least this many tasks receive the grant — tiny
    /// jobs' refits are too small to amortize fan-out overhead.
    pub min_tasks: usize,
    /// Threads granted per boosted job (`0` = every core of the machine,
    /// as in `nurd_ml::TreeConfig::n_threads`).
    pub threads: usize,
}

impl Default for BalanceConfig {
    fn default() -> Self {
        BalanceConfig {
            backlog_threshold: 4096,
            min_tasks: 128,
            threads: 0,
        }
    }
}

/// Engine tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Number of shards jobs are hashed across. Each shard is drained by
    /// at most one worker at a time, so this bounds the engine's drain
    /// parallelism; it never affects its output.
    pub shards: usize,
    /// Warmup quorum before a job's predictions start, as a fraction of
    /// its tasks (the paper's 4% — must match the replay config when
    /// comparing reports against `nurd_sim::replay_job`).
    pub warmup_fraction: f64,
    /// Per-shard ingress queue bound. `None` (the default) is unbounded;
    /// `Some(n)` makes a push block once its shard holds `n` undrained
    /// events (clamped to ≥ 1).
    pub queue_capacity: Option<usize>,
    /// Always [`OverloadPolicy::Block`], its one value. Kept only for
    /// `benchmark/`, which sets it.
    pub overload: OverloadPolicy,
    /// Adaptive within-job parallelism for oversized jobs on backlogged
    /// shards. `None` (the default) never grants extra threads.
    pub balance: Option<BalanceConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: 4,
            warmup_fraction: 0.04,
            queue_capacity: None,
            overload: OverloadPolicy::Block,
            balance: None,
        }
    }
}

/// Everything the engine measured for one job, emitted when the job
/// finalizes. `outcome` is bit-for-bit the [`ReplayOutcome`] a sequential
/// `nurd_sim::replay_job` of the same job with the same predictor
/// configuration produces — the engine's central correctness contract,
/// preserved for jobs that arrive and depart mid-stream and for events
/// pushed from many producer threads at once.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Job identifier.
    pub job: u64,
    /// Checkpoints at which the predictor was actually invoked.
    pub checkpoints_scored: usize,
    /// What ended the job's stream (deterministic per stream — safe to
    /// compare across shard counts and interleavings).
    pub finalized: FinalizeReason,
    /// Protocol scoring, identical to sequential replay.
    pub outcome: ReplayOutcome,
    /// The mitigation actions committed for this job, decision order
    /// (empty when no mitigator was attached). Deterministic per stream:
    /// same seed + same policy ⇒ bit-identical at any shard count.
    pub actions: Vec<ActionRecord>,
}

impl Checkpointable for JobReport {
    fn encode(&self, enc: &mut nurd_codec::Encoder) {
        enc.put_u64(self.job);
        enc.put_usize(self.checkpoints_scored);
        self.finalized.encode(enc);
        self.outcome.encode(enc);
        self.actions.encode(enc);
    }

    fn decode(dec: &mut nurd_codec::Decoder<'_>) -> Result<Self, nurd_codec::CodecError> {
        Ok(JobReport {
            job: dec.take_u64()?,
            checkpoints_scored: dec.take_usize()?,
            finalized: Checkpointable::decode(dec)?,
            outcome: Checkpointable::decode(dec)?,
            actions: Checkpointable::decode(dec)?,
        })
    }
}

/// The engine's final output: per-job reports in job-id order. Equal
/// (`PartialEq`) across *any* shard count, *any* drain-worker count, and
/// *any* cross-job interleaving of the same per-job streams, at any
/// queue bound — the determinism property tests in
/// `tests/determinism.rs` and `tests/service.rs` enforce exactly this.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// Reports of jobs still unreported at shutdown
    /// ([`EngineService::close`](crate::EngineService::close)) —
    /// everything not already handed out by `take_finalized` — ascending
    /// job id.
    pub jobs: Vec<JobReport>,
    /// Total events *applied* by drains, lifecycle events included:
    /// every accepted push. Orphans (events for never-admitted jobs) and
    /// stale events (events arriving after their job finalized) are
    /// counted here and in [`EngineStats`] but applied to no job.
    pub events: usize,
}

impl EngineReport {
    /// The report of job `job`, if this report carries it.
    #[must_use]
    pub fn job(&self, job: u64) -> Option<&JobReport> {
        self.jobs.iter().find(|r| r.job == job)
    }

    /// Mean end-of-job F1 across jobs (macro average, as in Table 3).
    #[must_use]
    pub fn macro_f1(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs
            .iter()
            .map(|r| r.outcome.confusion.f1())
            .sum::<f64>()
            / self.jobs.len() as f64
    }
}

/// Scheduling-dependent diagnostics — deliberately **not** part of
/// [`EngineReport`], because per-shard load varies with the shard count
/// while the report must not. Snapshotted **without stopping the
/// service**: every counter is an atomic the push and drain paths bump
/// as they go, so [`EngineHandle::stats`] can be polled from a monitor
/// thread while producers push and drain workers drain.
/// `docs/OPERATIONS.md` explains how to read each counter in production.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineStats {
    /// Configured shard count.
    pub shards: usize,
    /// *Live* (admitted, not yet finalized) jobs per shard — this is the
    /// engine's resident-memory footprint, and it shrinks as jobs
    /// finalize.
    pub jobs_per_shard: Vec<usize>,
    /// Events *applied* per shard (orphans and stale events included).
    pub events_per_shard: Vec<usize>,
    /// Events pushed but not yet drained, per shard — the ingress
    /// backlog. This is the signal adaptive balancing watches
    /// ([`BalanceConfig`]) and the first thing to graph for a service:
    /// a monotonically growing backlog means drain capacity is short.
    pub backlog_per_shard: Vec<usize>,
    /// Jobs finalized so far, fleet-wide.
    pub finalized_jobs: usize,
    /// Events whose job was never admitted (counted, then dropped).
    pub orphan_events: usize,
    /// Events that arrived after their job finalized (counted, then
    /// dropped). A canonical stream produces a benign tail of these when
    /// a job finalizes early because every task finished; after an
    /// explicit `JobEnd` they indicate a misbehaving producer.
    pub stale_events: usize,
    /// Structurally invalid events rejected during application: unknown
    /// task id, feature width differing from the job's
    /// [`JobSpec::feature_dim`], duplicate completion, or a barrier that
    /// is not the job's next expected ordinal (e.g. a duplicate from
    /// at-least-once delivery). Rejection protects the contract both
    /// ways: no malformed event can panic a drain, and no replayed
    /// barrier can re-score a closed checkpoint. Also counts refused
    /// admissions: a `JobStart` whose task table the allocator will not
    /// hold, or, on a durable engine, whose predictor's `snapshot_state`
    /// is `None`; that job's later events count as orphans.
    pub rejected_events: usize,
    /// Pushes that found a full queue. The producer then drained shards
    /// itself while a predictor call was in flight, and otherwise *slept*
    /// until a drain made room (a true blocking send). Lossless, but
    /// scheduling-dependent, hence here and not in [`EngineReport`].
    pub blocked_pushes: usize,
    /// Events applied on a thread that would otherwise have waited on
    /// the engine — a blocked push, [`quiesce`](crate::EngineService::quiesce)
    /// or [`close`](crate::EngineService::close) — instead of on a drain
    /// worker. Such a thread drains only while some predictor call is in
    /// flight. Scheduling-dependent and not persisted.
    pub caller_drained: usize,
    /// Times adaptive balancing switched within-job parallelism on for
    /// a backlogged shard (see [`BalanceConfig`]; zero when disabled).
    pub balance_boosts: usize,
    /// Jobs quarantined because their predictor panicked during event
    /// application (see [`FinalizeReason::Poisoned`]). Any nonzero value
    /// is a predictor bug worth a page.
    pub poisoned_jobs: usize,
    /// Events appended to the write-ahead log by drains (zero on a
    /// non-persistent engine).
    pub wal_appended: usize,
    /// Events replayed from WAL segments at the last recovery (zero on a
    /// non-persistent engine or a fresh start). Grows across restarts
    /// until a checkpoint lands a newer snapshot.
    pub wal_replayed: usize,
    /// Snapshots written since this process started: explicit
    /// checkpoints and the shutdown snapshot. A recovery writes none, so
    /// this is 0 straight after one.
    pub snapshots_written: usize,
    /// Invalid snapshot files skipped by the last recovery before a
    /// valid one was found. Nonzero means the newest snapshot was
    /// corrupt — triage with the runbook in `docs/OPERATIONS.md`.
    pub recovery_fallbacks: usize,
    /// `Clone` mitigation actions committed to job action logs (zero
    /// when no mitigator is attached). Read it together with the
    /// simulator's `clones_wasted` — the triage recipe is in
    /// `docs/OPERATIONS.md`.
    pub clones_issued: usize,
    /// `Quarantine` mitigation actions committed to job action logs.
    pub quarantines_issued: usize,
    /// Policy decisions the engine refused (target not running, already
    /// actioned, or clone budget exhausted). A high rate means the
    /// policy is over-asking — tune its threshold or budget.
    pub mitigation_suppressed: usize,
    /// Always empty: back-pressure loses no event. Kept only for
    /// `benchmark/`, which reads [`OverloadCounters::lost_events`].
    pub overload: OverloadCounters,
}

/// One shard's triple: the MPSC ingress queue, the guarded state, and
/// the live counters. Producers touch `ingress` and the push-side stats;
/// whichever worker wins `state` applies events — popping and applying
/// under the lock is what keeps per-shard application order equal to
/// channel FIFO order no matter how many workers drain.
struct ShardCell {
    ingress: Channel<TaskEvent>,
    state: Mutex<Shard>,
    stats: ShardStats,
}

/// Lock that shrugs off poisoning, for state a panicked holder cannot
/// have left half-updated or that observers read anyway (see
/// `EngineCore::lock_shard`).
pub(crate) fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The persistence half of a durable engine: its configuration and the
/// current snapshot/WAL generation.
pub(crate) struct PersistHandle {
    pub(crate) config: PersistenceConfig,
    /// Where every file operation goes.
    pub(crate) disk: Arc<dyn Disk>,
    /// Generation the live WAL segments write to; the next snapshot is
    /// `generation + 1` and rotates the WALs there with it. Also the
    /// snapshot lock: a writer holds it from this read through its prune,
    /// before any shard lock, so no two writers share a generation.
    generation: Mutex<u64>,
}

/// The shared heart of the engine — everything [`EngineHandle`] and
/// [`EngineService`](crate::EngineService) operate on. Crate-private:
/// users hold it only through those two types.
pub(crate) struct EngineCore {
    config: EngineConfig,
    factory: PredictorFactory,
    /// Builds each admitted job's mitigation policy; unset = scorer-only
    /// mode. Write-once (`OnceLock`) so drains can read it lock-free.
    mitigator: OnceLock<MitigatorFactory>,
    /// Fleet-level node-health listener fed by drains (finalized jobs,
    /// scored barriers); unset = no observation. Write-once like the
    /// mitigator, and bit-invisible to reports by construction.
    observer: OnceLock<Arc<dyn HealthObserver>>,
    cells: Vec<ShardCell>,
    /// Idle drain workers (and quiescence waiters) park here; every
    /// accepted push and every productive drain batch unparks.
    notifier: Notifier,
    /// `Some` on durable engines (see [`PersistHandle`]).
    persist: Option<PersistHandle>,
    /// Why the service failed, if it did (see [`EngineCore::fail`]).
    failure: OnceLock<String>,
    /// The payload of the panic that failed the service, if one did
    /// first (see [`EngineCore::guarded`]), for `close` to re-raise.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// The most events one drain pops from one shard per lock hold (and, on a
/// persistent engine, logs with one WAL write). A bounded queue caps a
/// batch at its capacity. The report is identical at any batch size.
pub(crate) const DRAIN_BATCH: usize = 256;

/// The failure a panic under [`EngineCore::guarded`] records.
const PANICKED: &str = "a drain panicked (see that thread's panic output)";

impl EngineCore {
    pub(crate) fn new(mut config: EngineConfig, factory: PredictorFactory) -> Self {
        let shards = config.shards.max(1);
        if let (Some(capacity), Some(balance)) = (config.queue_capacity, &mut config.balance) {
            // A bounded shard's backlog is capped at `capacity`, so an
            // over-threshold would never fire: clamp to half capacity
            // (engage while the queue is filling, not only when full).
            balance.backlog_threshold = balance.backlog_threshold.min((capacity.max(1) / 2).max(1));
        }
        let cells = (0..shards)
            .map(|_| ShardCell {
                ingress: match config.queue_capacity {
                    Some(capacity) => Channel::bounded(capacity),
                    None => Channel::unbounded(),
                },
                state: Mutex::new(Shard::new(config.warmup_fraction)),
                stats: ShardStats::default(),
            })
            .collect();
        EngineCore {
            config,
            factory,
            mitigator: OnceLock::new(),
            observer: OnceLock::new(),
            cells,
            notifier: Notifier::new(),
            persist: None,
            failure: OnceLock::new(),
            panic: Mutex::new(None),
        }
    }

    /// Fails the service: closes the ingress (blocked producers wake
    /// with their push rejected), then records `why` (the first failure
    /// wins) for drain workers to stop on and `quiesce`/`close` to raise.
    pub(crate) fn fail(&self, why: String) {
        self.fail_first(why);
    }

    /// [`EngineCore::fail`], returning whether `why` was the one recorded.
    fn fail_first(&self, why: String) -> bool {
        self.close_ingress();
        let first = self.failure.set(why).is_ok();
        self.notifier.unpark();
        first
    }

    pub(crate) fn failure(&self) -> Option<&str> {
        self.failure.get().map(String::as_str)
    }

    /// Runs `f` — a whole drain thread, or one drain on a waiting
    /// caller — so that it cannot unwind: a panic fails the
    /// service, its payload kept for `close` to re-raise when that was
    /// the first failure, and `f` yields `R::default()`.
    pub(crate) fn guarded<R: Default>(&self, f: impl FnOnce() -> R) -> R {
        catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
            let mut kept = relock(&self.panic);
            if self.fail_first(PANICKED.into()) {
                *kept = Some(payload);
            }
            R::default()
        })
    }

    /// The payload of the panic that failed the service, if one did.
    pub(crate) fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        relock(&self.panic).take()
    }

    /// Registers the engine's health observer (write-once; returns
    /// `false` if one is already attached). For observation parity with a
    /// never-restarted run, attach before pushing events — barriers
    /// scored before the attach were never observed.
    pub(crate) fn set_observer(&self, observer: Arc<dyn HealthObserver>) -> bool {
        let attached = self.observer.set(observer).is_ok();
        if attached {
            self.notifier.unpark();
        }
        attached
    }

    /// The attached observer as a trait object, for drains to hand into
    /// shard application.
    fn observer(&self) -> Option<&dyn HealthObserver> {
        self.observer.get().map(|o| &**o as &dyn HealthObserver)
    }

    /// Registers the engine's mitigator factory (write-once; returns
    /// `false` if one is already attached) and builds policies for any
    /// job admitted before the attach — which is how a recovered service
    /// re-arms mitigation for jobs resumed from a snapshot. For the
    /// bit-identical action-log guarantee, attach before pushing events:
    /// a job scored *between* admission and a late attach decides nothing
    /// at those barriers.
    pub(crate) fn set_mitigator(&self, mitigator: MitigatorFactory) -> bool {
        if self.mitigator.set(mitigator).is_err() {
            return false;
        }
        let mitigator = self.mitigator.get().expect("just set");
        for idx in 0..self.cells.len() {
            self.lock_shard(idx).attach_policies(mitigator);
        }
        self.notifier.unpark();
        true
    }

    /// A core whose shards write-ahead-log every drained event into
    /// `<dir>/wal-<generation>-<shard>.log` before applying it, the
    /// generation past every artifact already on disk ([`Disk::create`]
    /// truncates — a stale generation would eat history). Also returns
    /// the directory scan that generation was picked from.
    pub(crate) fn new_persistent(
        config: EngineConfig,
        factory: PredictorFactory,
        persistence: PersistenceConfig,
        disk: Arc<dyn Disk>,
    ) -> std::io::Result<(Self, DirScan)> {
        disk.create_dir_all(&persistence.dir)?;
        let scan = scan_dir(&*disk, &persistence.dir)?;
        let generation = scan.max_generation().map_or(0, |g| g + 1);
        let mut core = EngineCore::new(config, factory);
        for (idx, cell) in core.cells.iter().enumerate() {
            let path = wal_path(&persistence.dir, generation, idx);
            let writer = WalWriter::create(&*disk, &path, persistence.max_unsynced_events)?;
            cell.state
                .lock()
                .expect("fresh shard lock")
                .install_wal(writer);
        }
        core.persist = Some(PersistHandle {
            config: persistence,
            disk,
            generation: Mutex::new(generation),
        });
        Ok((core, scan))
    }

    pub(crate) fn persist(&self) -> Option<&PersistHandle> {
        self.persist.as_ref()
    }

    pub(crate) fn is_persistent(&self) -> bool {
        self.persist.is_some()
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.cells.len()
    }

    /// The shard a job id hashes to (SplitMix64 finalizer — job ids are
    /// often sequential, and a plain modulo would then stripe neighbors
    /// onto neighboring shards *and* collide under power-of-two counts).
    pub(crate) fn shard_of(&self, job: u64) -> usize {
        let mut z = job.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % self.cells.len() as u64) as usize
    }

    /// Enqueues one event on its job's shard, blocking while the queue
    /// is bounded and full. Returns whether the event was accepted
    /// (`false`: the ingress is closed).
    ///
    /// Wake-up discipline: the steady-state push touches only its target
    /// shard's channel mutex. The global [`Notifier`] is bumped only on
    /// an **empty→non-empty transition** of the channel — a non-empty
    /// channel is already pending work no correctly parked worker can
    /// have missed (workers snapshot the epoch *before* scanning, and
    /// drains/observers unpark when they release a shard) — so producers
    /// do not serialize on the notifier or thundering-herd the workers.
    pub(crate) fn ingest(&self, event: TaskEvent) -> bool {
        let idx = self.shard_of(event.job());
        let cell = &self.cells[idx];
        // `None` = closed; `Some(wake)` = accepted, `wake` is the
        // channel's empty→non-empty transition report.
        let accepted = match cell.ingress.try_send(event) {
            Ok(wake) => Some(wake),
            Err(TrySendError::Closed(_)) => None,
            Err(TrySendError::Full(event)) => self.ingest_full(idx, event),
        };
        if accepted == Some(true) {
            self.notifier.unpark();
        }
        accepted.is_some()
    }

    /// A push that found shard `idx` full: real back-pressure.
    /// While a predictor call is in flight the producer drains shards
    /// itself and retries; otherwise it sleeps until a drain pops (the
    /// channel wakes it). Out of line, so the hot push path stays small.
    #[cold]
    #[inline(never)]
    fn ingest_full(&self, idx: usize, mut event: TaskEvent) -> Option<bool> {
        let cell = &self.cells[idx];
        cell.stats.add(Counter::BlockedPushes, 1);
        // The defensive unpark costs nothing on this already-slow path.
        self.notifier.unpark();
        let mut batch = Vec::new();
        while self.help(idx, &mut batch) > 0 {
            match cell.ingress.try_send(event) {
                Ok(wake) => return Some(wake),
                Err(TrySendError::Closed(_)) => return None,
                Err(TrySendError::Full(back)) => event = back,
            }
        }
        cell.ingress.send(event).ok()
    }

    /// One drain on the calling thread, from shard `first` on, through
    /// [`EngineCore::drain_shard`] — only while some drain is inside a
    /// predictor call (model work leaves a core to lend; helping through
    /// cheap applies would only contend with the workers) and the service
    /// has not failed. Returns the events applied (0: not invited, or no
    /// shard won). The drain is [`EngineCore::guarded`], as a worker is.
    fn help(&self, first: usize, batch: &mut Vec<TaskEvent>) -> usize {
        let predicting = self
            .cells
            .iter()
            .any(|c| c.stats.get(Counter::PredictsInFlight) > 0);
        if self.failure().is_some() || !predicting {
            return 0;
        }
        let shards = self.cells.len();
        self.guarded(|| {
            for offset in 0..shards {
                let idx = (first + offset) % shards;
                let drained = self.drain_shard(idx, DRAIN_BATCH, batch);
                if drained > 0 {
                    self.cells[idx].stats.add(Counter::CallerDrained, drained);
                    return drained;
                }
            }
            0
        })
    }

    /// Blocks until the ingress is empty and no popped batch is still
    /// applying — `quiesce` and `close`'s one waiting loop — helping drain
    /// while a predictor call is in flight and parking on the
    /// [`Notifier`] otherwise. `Err` carries the failure that stopped the
    /// service, as soon as one is recorded.
    pub(crate) fn settle(&self) -> Result<(), &str> {
        let mut batch = Vec::new();
        loop {
            let epoch = self.notifier.epoch();
            if let Some(why) = self.failure() {
                return Err(why);
            }
            if self.total_backlog() > 0 {
                if self.help(0, &mut batch) == 0 {
                    // Progress signal: drains unpark after every batch.
                    self.notifier.park(epoch);
                }
                continue;
            }
            // Channels are empty; popped-but-unapplied batches are
            // finished by waiting on each shard's lock once.
            for idx in 0..self.cells.len() {
                drop(self.lock_shard(idx));
            }
            // Same re-open as `take_finalized`.
            self.notifier.unpark();
            if self.total_backlog() == 0 {
                return Ok(());
            }
        }
    }

    /// Pops up to `max` events from shard `idx`'s ingress and applies
    /// them while holding the shard lock; returns how many were applied.
    /// The lock is a `try_lock`: a drain skips a shard another drain
    /// (or an observer) already holds and moves on. Also runs the
    /// adaptive balancing decision against the depth the pop found — the
    /// events it took plus those left behind (see
    /// [`BalanceConfig::backlog_threshold`]); a waiting caller's drain
    /// ([`EngineCore::help`]) is this same call and runs the same
    /// decision. `batch` is the caller's reusable pop buffer (always
    /// left empty on return) — drain loops hand the same one in for every
    /// visit, so the hot path does no per-batch allocation after warm-up.
    pub(crate) fn drain_shard(&self, idx: usize, max: usize, batch: &mut Vec<TaskEvent>) -> usize {
        let cell = &self.cells[idx];
        if cell.ingress.is_empty() {
            return 0;
        }
        let mut shard: MutexGuard<'_, Shard> = match cell.state.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => return 0,
            Err(std::sync::TryLockError::Poisoned(_)) => panic!("shard poisoned"),
        };
        debug_assert!(batch.is_empty());
        let taken = cell.ingress.recv_batch(batch, max);
        if taken == 0 {
            return 0;
        }
        if self.persist.is_some() {
            // Write-ahead: the batch reaches the log *before* any of it
            // is applied, under the same lock that orders application —
            // so WAL record order is exactly apply order. A failing disk
            // panics the drain on purpose: silently continuing would
            // un-log accepted events, and a panicked drain fails the
            // service (`guarded`).
            let appended = shard
                .append_wal(&batch[..])
                .unwrap_or_else(|e| panic!("WAL append failed on shard {idx}: {e}"));
            cell.stats.add(Counter::WalAppended, appended);
        }
        if let Some(balance) = &self.config.balance {
            // Decide on the depth this pop found, not on the backlog it left
            // behind: a pop takes up to a batch, so a small bounded queue's
            // leftover is empty after every pop.
            let backlog = cell.ingress.len();
            let depth = taken + backlog;
            if depth >= balance.backlog_threshold.max(1) {
                shard.set_parallelism(
                    if balance.threads == 0 {
                        nurd_runtime::global().threads()
                    } else {
                        balance.threads
                    },
                    balance.min_tasks,
                    &cell.stats,
                );
            } else if depth <= balance.backlog_threshold / 2 {
                shard.set_parallelism(1, balance.min_tasks, &cell.stats);
            }
        }
        shard.apply_batch(
            batch.drain(..),
            &self.factory,
            self.mitigator.get(),
            self.observer(),
            &cell.stats,
        );
        drop(shard);
        // Unpark peers and quiescence waiters: more work may remain on
        // this shard, and watchers re-evaluate their condition on every
        // epoch bump.
        self.notifier.unpark();
        taken
    }

    /// Events pushed but not yet popped by any drain, fleet-wide.
    pub(crate) fn total_backlog(&self) -> usize {
        self.cells.iter().map(|c| c.ingress.len()).sum()
    }

    /// Whether every ingress is closed and empty: no event can still
    /// arrive or wait to be popped. The lock-free backlog is read first,
    /// so a drain that finds work queued takes no channel lock.
    pub(crate) fn is_drained(&self) -> bool {
        self.total_backlog() == 0 && self.cells.iter().all(|c| c.ingress.is_drained())
    }

    /// Closes every ingress channel: all later pushes fail, producers
    /// blocked in a send wake immediately, and queued events remain
    /// drainable. First step of every shutdown.
    pub(crate) fn close_ingress(&self) {
        for cell in &self.cells {
            cell.ingress.close();
        }
        self.notifier.unpark();
    }

    pub(crate) fn notifier(&self) -> &Notifier {
        &self.notifier
    }

    /// Observer-side shard lock: **poison-tolerant**. A drain worker
    /// that panicked mid-apply poisons its shard; observers
    /// (`take_finalized`, `job_phase`, quiescence settling, the final
    /// report) still want the readable parts — finalized reports,
    /// phases — rather than killing a monitor thread with a generic
    /// poisoned-lock panic. The *drain* paths in [`EngineCore::drain_shard`]
    /// deliberately stay poison-fatal: applying further events to a
    /// half-mutated `JobState` could silently corrupt reports, and the
    /// resulting panic is what fails the service observably.
    fn lock_shard(&self, idx: usize) -> MutexGuard<'_, Shard> {
        relock(&self.cells[idx].state)
    }

    pub(crate) fn take_finalized(&self) -> Vec<JobReport> {
        let mut reports: Vec<JobReport> = (0..self.cells.len())
            .flat_map(|i| self.lock_shard(i).take_finalized())
            .collect();
        reports.sort_by_key(|r| r.job);
        // A worker whose try_lock lost to this observer may have parked
        // believing the shard was unavailable; re-open the race now that
        // the locks are released (see `drain_shard`'s try_lock path).
        self.notifier.unpark();
        reports
    }

    pub(crate) fn job_phase(&self, job: u64) -> Option<JobPhase> {
        let phase = self.lock_shard(self.shard_of(job)).phase_of(job);
        // Same re-open as `take_finalized`: observers must not strand a
        // worker that lost its try_lock to them.
        self.notifier.unpark();
        phase
    }

    /// Adds `n` to a fleet-wide counter (kept on shard 0).
    pub(crate) fn count(&self, counter: Counter, n: usize) {
        self.cells[0].stats.add(counter, n);
    }

    /// `counter` summed over every shard.
    fn total(&self, counter: Counter) -> usize {
        self.cells.iter().map(|c| c.stats.get(counter)).sum()
    }

    pub(crate) fn stats(&self) -> EngineStats {
        let per_shard = |counter| self.cells.iter().map(|c| c.stats.get(counter)).collect();
        EngineStats {
            shards: self.cells.len(),
            jobs_per_shard: per_shard(Counter::LiveJobs),
            events_per_shard: per_shard(Counter::EventsProcessed),
            backlog_per_shard: self.cells.iter().map(|c| c.ingress.len()).collect(),
            finalized_jobs: self.total(Counter::FinalizedJobs),
            orphan_events: self.total(Counter::OrphanEvents),
            stale_events: self.total(Counter::StaleEvents),
            rejected_events: self.total(Counter::RejectedEvents),
            blocked_pushes: self.total(Counter::BlockedPushes),
            caller_drained: self.total(Counter::CallerDrained),
            balance_boosts: self.total(Counter::BalanceBoosts),
            poisoned_jobs: self.total(Counter::PoisonedJobs),
            wal_appended: self.total(Counter::WalAppended),
            wal_replayed: self.total(Counter::WalReplayed),
            snapshots_written: self.total(Counter::SnapshotsWritten),
            recovery_fallbacks: self.total(Counter::RecoveryFallbacks),
            clones_issued: self.total(Counter::ClonesIssued),
            quarantines_issued: self.total(Counter::QuarantinesIssued),
            mitigation_suppressed: self.total(Counter::MitigationSuppressed),
            overload: OverloadCounters,
        }
    }

    /// Finalizes every still-live job ([`FinalizeReason::EngineFinish`])
    /// and assembles the final report. The caller must have reached
    /// quiescence first (no queued events, no drain in flight) — both
    /// shutdown paths guarantee it.
    pub(crate) fn finish_report(&self) -> EngineReport {
        let mut jobs: Vec<JobReport> = (0..self.cells.len())
            .flat_map(|i| {
                let stats = &self.cells[i].stats;
                self.lock_shard(i).finish_reports(self.observer(), stats)
            })
            .collect();
        jobs.sort_by_key(|r| r.job);
        EngineReport {
            jobs,
            events: self.total(Counter::EventsProcessed),
        }
    }

    // ---- persistence operations (no-ops / errors on a non-persistent
    // core; see `crate::persist` for the on-disk layout) ----

    /// Flushes + fsyncs every shard's WAL segment; a failure fails the
    /// service (the appends it covered may sit in the page cache only).
    pub(crate) fn flush_wals(&self) -> std::io::Result<()> {
        for idx in 0..self.cells.len() {
            let flushed = self.lock_shard(idx).flush_wal();
            flushed.inspect_err(|e| self.fail(format!("WAL fsync failed: {e}")))?;
        }
        self.notifier.unpark();
        Ok(())
    }

    /// Writes a new snapshot generation and rotates every WAL with it:
    /// each shard, under its lock, seals its current segment and opens
    /// `wal-<G+1>-<S>.log` at the same instant its state is captured —
    /// so the snapshot holds exactly the events of generations ≤ G and
    /// the new segments hold exactly the events after it. Then prunes
    /// generations beyond the retention window (snapshot-then-truncate
    /// compaction). Returns the new generation. A failed attempt still
    /// spends its generation (its WALs may already have rotated there)
    /// and fails the service: after a failed write or fsync, what the
    /// disk holds is no longer known.
    pub(crate) fn write_snapshot(&self) -> std::io::Result<u64> {
        let persist = self
            .persist
            .as_ref()
            .expect("write_snapshot on a non-persistent engine");
        let mut generation = relock(&persist.generation);
        *generation += 1;
        let new_gen = *generation;
        self.snapshot_at(persist, new_gen)
            .inspect_err(|e| self.fail(format!("snapshot {new_gen} failed: {e}")))?;
        self.notifier.unpark();
        Ok(new_gen)
    }

    fn snapshot_at(&self, persist: &PersistHandle, new_gen: u64) -> std::io::Result<()> {
        let (disk, dir) = (&*persist.disk, &persist.config.dir);
        let mut data = SnapshotData::default();
        for idx in 0..self.cells.len() {
            let cell = &self.cells[idx];
            let mut shard = self.lock_shard(idx);
            shard.rotate_wal(disk, &wal_path(dir, new_gen, idx))?;
            shard.capture_into(&mut data, &cell.stats);
        }
        // The observer's state rides the snapshot header; captured after
        // the shard sweep, so it covers every observation
        // from events in WAL generations < new_gen (the WAL suffix past
        // this snapshot is re-observed on replay at recovery).
        data.observer = self
            .observer
            .get()
            .map_or_else(Vec::new, |o| o.snapshot_state());
        write_snapshot_file(disk, &snapshot_path(dir, new_gen), &data)?;
        self.count(Counter::SnapshotsWritten, 1);
        crate::persist::prune_dir(disk, dir, persist.config.retain_generations)
    }

    /// Decodes a snapshot's job records and installs everything into the
    /// shards (jobs and ledgers routed by this engine's `shard_of`, so a
    /// recovery may change the shard count freely; fleet-wide counters
    /// land on shard 0). Returns `(resumed live jobs, finalized reports)`.
    /// Must run before drain workers start.
    pub(crate) fn install_snapshot(
        &self,
        data: SnapshotData,
    ) -> Result<(usize, usize), RecoverError> {
        let mut jobs = Vec::with_capacity(data.jobs.len());
        for record in &data.jobs {
            let mut dec = nurd_codec::Decoder::new(record);
            jobs.push(JobState::decode(
                &mut dec,
                &self.factory,
                self.mitigator.get(),
            )?);
        }
        let resumed = jobs.len();
        for state in jobs {
            let idx = self.shard_of(state.job());
            let cell = &self.cells[idx];
            self.lock_shard(idx).adopt_job(state, &cell.stats);
        }
        let finalized = data.finalized.len();
        for report in data.finalized {
            let idx = self.shard_of(report.job);
            self.lock_shard(idx).adopt_finalized(report);
        }
        for job in data.finalized_ids {
            self.lock_shard(self.shard_of(job)).adopt_finalized_id(job);
        }
        for (job, count) in data.events_seen {
            self.lock_shard(self.shard_of(job))
                .adopt_events_seen(job, count);
        }
        // Restore the observer's persisted state (no attached observer =
        // the blob is dropped; a rejected blob is a typed error, never a
        // half-restored observer).
        if !data.observer.is_empty() {
            if let Some(observer) = self.observer.get() {
                if !observer.restore_state(&data.observer) {
                    return Err(RecoverError::ObserverRestore);
                }
            }
        }
        for (counter, value) in Counter::PERSISTED.into_iter().zip(data.counters) {
            self.count(counter, value as usize);
        }
        Ok((resumed, finalized))
    }

    /// Reads a recovered WAL segment, applies its events in record order
    /// (each stretch of records that route to one shard as one batch,
    /// under that shard's lock) and fsyncs it: it may sit in the page
    /// cache only, and the new generation must not reach the disk first.
    /// One generation's segments may replay concurrently (a job's events
    /// sit in one of them). Must run before drain workers start.
    pub(crate) fn replay_segment(&self, path: &Path) -> Result<(usize, WalTail), RecoverError> {
        let persist = self.persist.as_ref().expect("replay on a persistent core");
        let (events, tail) = read_wal_segment(&*persist.disk, path)?;
        let replayed = events.len();
        let mut events = events.into_iter().peekable();
        while let Some(first) = events.peek() {
            let idx = self.shard_of(first.job());
            let cell = &self.cells[idx];
            let stretch = std::iter::from_fn(|| events.next_if(|e| self.shard_of(e.job()) == idx));
            self.lock_shard(idx).apply_batch(
                stretch,
                &self.factory,
                self.mitigator.get(),
                self.observer(),
                &cell.stats,
            );
        }
        self.count(Counter::WalReplayed, replayed);
        persist.disk.sync_file(path)?;
        Ok((replayed, tail))
    }

    /// Per-job durable-event counts, merged across shards — how much of
    /// each job's stream has been popped by drains (and is therefore in
    /// the WAL/snapshot trail on a persistent engine).
    pub(crate) fn events_seen(&self) -> BTreeMap<u64, u64> {
        let mut merged = BTreeMap::new();
        for idx in 0..self.cells.len() {
            let shard = self.lock_shard(idx);
            for (&job, &count) in shard.events_seen() {
                *merged.entry(job).or_insert(0) += count;
            }
        }
        merged
    }
}

impl std::fmt::Debug for EngineCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineCore")
            .field("config", &self.config)
            .field("backlog", &self.total_backlog())
            .finish()
    }
}

/// A cloneable, thread-safe handle onto a running engine — the producer
/// side of the ingestion service. Every method takes `&self`; clone one
/// handle per producer thread and push away. Obtained from
/// [`EngineService::handle`](crate::EngineService::handle).
#[derive(Clone)]
pub struct EngineHandle {
    core: Arc<EngineCore>,
}

impl std::fmt::Debug for EngineHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineHandle").finish()
    }
}

impl EngineHandle {
    pub(crate) fn new(core: Arc<EngineCore>) -> Self {
        EngineHandle { core }
    }

    /// Enqueues one event on its job's shard (cheap: a hash plus a queue
    /// push; all model work happens in drains). Safe from any thread.
    /// The event's job must have a [`TaskEvent::JobStart`] earlier in
    /// *its own* stream, and one producer must own each job's stream (or
    /// producers must otherwise preserve per-job order) — cross-job
    /// interleaving across producers is unrestricted and cannot affect
    /// reports.
    ///
    /// Returns whether the event was accepted: `false` only once the
    /// engine is closing. A push to a full shard *blocks* until a drain
    /// makes room, so capacity never costs an event. While it waits and
    /// some predictor call is in flight, the pushing thread drains shards
    /// itself (predictor, mitigator and observer callbacks then run on
    /// it, so they must never wait on this thread); a panic in that drain
    /// fails the service and the push returns `false`.
    pub fn push(&self, event: TaskEvent) -> bool {
        self.core.ingest(event)
    }

    /// Pushes a batch of events in order; returns how many were accepted.
    pub fn push_all(&self, events: impl IntoIterator<Item = TaskEvent>) -> usize {
        let mut accepted = 0;
        for event in events {
            accepted += usize::from(self.push(event));
        }
        accepted
    }

    /// Live scheduling diagnostics (see [`EngineStats`]) — lock-free
    /// atomic reads, safe to poll from a monitor thread at any rate
    /// without stopping producers or drains.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.core.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nurd_data::Checkpoint;

    /// Flags every running task at its first scored checkpoint.
    struct FlagAll;
    impl OnlinePredictor for FlagAll {
        fn name(&self) -> &str {
            "ALL"
        }
        fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
            checkpoint.running.iter().map(|r| r.id).collect()
        }
    }

    fn factory() -> PredictorFactory {
        Box::new(|_| Box::new(FlagAll))
    }

    fn spec(job: u64) -> JobSpec {
        JobSpec {
            job,
            threshold: 10.0,
            task_count: 3,
            feature_dim: 1,
            checkpoints: 2,
        }
    }

    fn tiny_events(job: u64) -> Vec<TaskEvent> {
        vec![
            TaskEvent::Submitted { job, task: 0 },
            TaskEvent::Submitted { job, task: 1 },
            TaskEvent::Submitted { job, task: 2 },
            TaskEvent::Finished {
                job,
                task: 0,
                ordinal: 0,
                time: 4.0,
                features: vec![0.1],
                latency: 2.0,
            },
            TaskEvent::Progress {
                job,
                task: 1,
                ordinal: 0,
                time: 4.0,
                features: vec![0.5],
            },
            TaskEvent::Progress {
                job,
                task: 2,
                ordinal: 0,
                time: 4.0,
                features: vec![0.9],
            },
            TaskEvent::Barrier {
                job,
                ordinal: 0,
                time: 4.0,
            },
            TaskEvent::Finished {
                job,
                task: 1,
                ordinal: 1,
                time: 8.0,
                features: vec![0.5],
                latency: 6.0,
            },
            TaskEvent::Progress {
                job,
                task: 2,
                ordinal: 1,
                time: 8.0,
                features: vec![0.9],
            },
            TaskEvent::Barrier {
                job,
                ordinal: 1,
                time: 8.0,
            },
        ]
    }

    /// A job's whole stream: its `JobStart`, then [`tiny_events`].
    fn stream(job: u64) -> Vec<TaskEvent> {
        let mut stream = vec![TaskEvent::JobStart { spec: spec(job) }];
        stream.extend(tiny_events(job));
        stream
    }

    /// The caller-driven engine: a bare core with no workers, drained on
    /// the test's own thread exactly where the test says — so what one
    /// pop decides is exact, not a race against a background drain.
    impl EngineCore {
        fn push_all(&self, events: impl IntoIterator<Item = TaskEvent>) -> usize {
            let accepted = |event| usize::from(self.ingest(event));
            events.into_iter().map(accepted).sum()
        }

        fn drain(&self) {
            let mut batch = Vec::new();
            for idx in 0..self.shard_count() {
                while self.drain_shard(idx, usize::MAX, &mut batch) > 0 {}
            }
        }

        fn finish(&self) -> EngineReport {
            self.close_ingress();
            self.drain();
            self.finish_report()
        }

        /// Every shard's lock: while the guards live, no drain worker can
        /// pop, so what is pushed meanwhile is drained in whole batches.
        pub(crate) fn hold_shards(&self) -> Vec<MutexGuard<'_, Shard>> {
            (0..self.shard_count())
                .map(|idx| self.lock_shard(idx))
                .collect()
        }
    }

    fn core(config: EngineConfig) -> EngineCore {
        EngineCore::new(config, factory())
    }

    #[test]
    fn flags_stick_and_reports_sort_by_job_id() {
        let engine = core(EngineConfig {
            shards: 3,
            ..EngineConfig::default()
        });
        for job in [9u64, 2, 5] {
            engine.push_all(stream(job));
        }
        let report = engine.finish();
        assert_eq!(
            report.jobs.iter().map(|r| r.job).collect::<Vec<_>>(),
            vec![2, 5, 9]
        );
        for r in &report.jobs {
            // Task 0 finished before warmup (1 task quorum at ckpt 0);
            // tasks 1 and 2 were running at the first scored checkpoint
            // and FlagAll flags both, permanently.
            assert_eq!(r.outcome.flagged_at[0], None);
            assert_eq!(r.outcome.flagged_at[1], Some(0));
            assert_eq!(r.outcome.flagged_at[2], Some(0));
            // Flagged task 1 finished under the threshold: false positive;
            // task 2 never finished in-stream: counted a straggler.
            assert_eq!(r.outcome.confusion.false_positives, 1);
            assert_eq!(r.outcome.confusion.true_positives, 1);
            // The last declared barrier closed the stream.
            assert_eq!(r.finalized, FinalizeReason::StreamComplete);
        }
        // 10 task events + 1 JobStart per job.
        assert_eq!(report.events, 33);
    }

    #[test]
    fn orphan_events_are_counted_not_fatal() {
        let engine = core(EngineConfig::default());
        engine.push_all(stream(1));
        engine.push_all([TaskEvent::Barrier {
            job: 999,
            ordinal: 0,
            time: 1.0,
        }]);
        engine.drain();
        assert_eq!(engine.stats().orphan_events, 1);
        let report = engine.finish();
        assert_eq!(report.jobs.len(), 1);
    }

    #[test]
    fn malformed_events_are_rejected_not_fatal() {
        let clean = {
            let engine = core(EngineConfig::default());
            engine.push_all(stream(1));
            engine.finish()
        };
        let engine = core(EngineConfig::default());
        let mut events = stream(1);
        // Ragged snapshot (spec says feature_dim = 1) and an unknown task
        // id, inserted before the first barrier...
        events.insert(
            4,
            TaskEvent::Progress {
                job: 1,
                task: 1,
                ordinal: 0,
                time: 4.0,
                features: vec![0.5, 0.5, 0.5],
            },
        );
        events.insert(5, TaskEvent::Submitted { job: 1, task: 99 });
        // ...plus a duplicate completion and a replayed barrier *before*
        // the final barrier, while the job is still live.
        let last = events.len() - 1;
        events.insert(
            last,
            TaskEvent::Finished {
                job: 1,
                task: 0,
                ordinal: 1,
                time: 8.0,
                features: vec![0.1],
                latency: 2.0,
            },
        );
        events.insert(
            last + 1,
            TaskEvent::Barrier {
                job: 1,
                ordinal: 0,
                time: 4.0,
            },
        );
        engine.push_all(events);
        engine.drain();
        assert_eq!(engine.stats().rejected_events, 4);
        let report = engine.finish();
        // The four bad events changed nothing: same outcome as a clean run.
        assert_eq!(report.jobs[0].outcome, clean.jobs[0].outcome);
        assert_eq!(
            report.jobs[0].checkpoints_scored, clean.jobs[0].checkpoints_scored,
            "replayed barrier must not re-score a closed checkpoint"
        );
    }

    #[test]
    fn shard_hash_is_stable_and_in_range() {
        let engine = core(EngineConfig {
            shards: 8,
            ..EngineConfig::default()
        });
        for job in 0..100u64 {
            let s = engine.shard_of(job);
            assert!(s < 8);
            assert_eq!(s, engine.shard_of(job));
        }
        // The finalizer spreads sequential ids (not all in one shard).
        let shards: std::collections::HashSet<usize> =
            (0..100u64).map(|j| engine.shard_of(j)).collect();
        assert!(shards.len() >= 4, "sequential ids clumped: {shards:?}");
    }

    #[test]
    fn chunked_drains_do_not_change_the_report() {
        let one_shot = core(EngineConfig::default());
        let batched = core(EngineConfig::default());
        let events: Vec<TaskEvent> = [1u64, 2, 3, 4].into_iter().flat_map(stream).collect();
        one_shot.push_all(events.clone());
        for chunk in events.chunks(7) {
            batched.push_all(chunk.to_vec());
            batched.drain();
        }
        assert_eq!(one_shot.finish(), batched.finish());
    }

    #[test]
    fn finalization_frees_job_state_and_take_finalized_drains_reports() {
        let engine = core(EngineConfig::default());
        engine.push_all(stream(1));
        engine.drain();
        // The last barrier finalized the job: no live state remains.
        let stats = engine.stats();
        assert_eq!(stats.jobs_per_shard.iter().sum::<usize>(), 0);
        assert_eq!(stats.finalized_jobs, 1);
        assert_eq!(engine.job_phase(1), Some(JobPhase::Finalized));
        let taken = engine.take_finalized();
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].job, 1);
        assert!(engine.take_finalized().is_empty(), "take drains");
        // The final report does not repeat a taken report.
        assert!(engine.finish().jobs.is_empty());
    }

    #[test]
    fn handle_pushes_fail_after_the_ingress_closed() {
        let engine = Arc::new(core(EngineConfig::default()));
        let handle = EngineHandle::new(Arc::clone(&engine));
        assert!(handle.push(TaskEvent::JobStart { spec: spec(1) }));
        let _ = engine.finish();
        assert!(!handle.push(TaskEvent::Barrier {
            job: 1,
            ordinal: 0,
            time: 1.0,
        }));
    }

    /// Balancing decides on the depth a pop found, its own batch
    /// included: one pop of a full capacity-32 queue (threshold clamped
    /// to 16) leaves nothing behind, and still boosts the shard.
    #[test]
    fn one_pop_of_a_full_bounded_queue_counts_a_boost() {
        let engine = core(EngineConfig {
            shards: 1,
            queue_capacity: Some(32),
            balance: Some(BalanceConfig {
                min_tasks: 1,
                threads: 2,
                ..BalanceConfig::default()
            }),
            ..EngineConfig::default()
        });
        let events: Vec<TaskEvent> = [1, 2, 3].into_iter().flat_map(stream).take(32).collect();
        assert_eq!(engine.push_all(events), 32);
        let mut batch = Vec::new();
        assert_eq!(engine.drain_shard(0, DRAIN_BATCH, &mut batch), 32);
        assert_eq!(engine.stats().balance_boosts, 1);
    }

    /// An unbounded queue is never full: every push is accepted and
    /// applied.
    #[test]
    fn an_unbounded_queue_loses_nothing_under_any_policy() {
        let events: Vec<TaskEvent> = [1, 2, 3].into_iter().flat_map(stream).collect();
        let engine = core(EngineConfig {
            shards: 2,
            queue_capacity: None,
            ..EngineConfig::default()
        });
        assert_eq!(engine.push_all(events.clone()), events.len());
        let report = engine.finish();
        assert_eq!(report.jobs.len(), 3);
        assert_eq!(report.events, events.len());
    }

    /// A push to a full queue waits for a drain, then enqueues. The
    /// producer here pushes three streams through a capacity-4 queue that
    /// this thread drains only once the producer has blocked (or
    /// returned, as a push that dropped its event would): every event is
    /// accepted and applied, and the report equals an unbounded run's.
    #[test]
    fn a_push_to_a_full_queue_waits_for_a_drain_and_loses_nothing() {
        let events: Vec<TaskEvent> = [1, 2, 3].into_iter().flat_map(stream).collect();
        let unbounded = core(EngineConfig {
            shards: 1,
            ..EngineConfig::default()
        });
        unbounded.push_all(events.clone());
        let engine = Arc::new(core(EngineConfig {
            shards: 1,
            queue_capacity: Some(4),
            ..EngineConfig::default()
        }));
        let producer = {
            let (engine, events) = (Arc::clone(&engine), events.clone());
            std::thread::spawn(move || engine.push_all(events))
        };
        while engine.stats().blocked_pushes == 0 && !producer.is_finished() {
            std::thread::yield_now();
        }
        while !producer.is_finished() {
            engine.drain();
            std::thread::yield_now();
        }
        assert_eq!(producer.join().unwrap(), events.len());
        assert!(engine.stats().blocked_pushes > 0);
        let report = engine.finish();
        assert_eq!(report.events, events.len());
        assert_eq!(report, unbounded.finish());
    }
}
