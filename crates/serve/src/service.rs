//! The background ingestion service: named drain threads that
//! continuously drain the engine's shards, so producers only ever push.
//!
//! Thread topology (see `docs/OPERATIONS.md` for sizing guidance):
//!
//! ```text
//!  producer threads (yours, any number)          EngineService
//!  ───────────────────────────────────          ─────────────
//!  EngineHandle::push(&self) ──hash──► per-shard Channel (bounded:
//!    Block = true blocking send          OverloadPolicy on full)
//!    • sleeps on the channel                 │
//!    • woken by the next drain pop           │
//!    • drains shards itself while a          │
//!      predictor call is in flight           ▼
//!                                    nurd-serve-drain-{i} threads:
//!                                      scan shards, try_lock, pop a
//!                                      batch, apply; park on the
//!                                      engine's Notifier when idle
//!                                          │
//!  take_finalized(&self) ◄───────── finalized JobReports
//!  close(self) ─► close ingress, drain to quiescence, join, finalize
//!  (quiesce and close help drain while a predictor call is in flight)
//! ```
//!
//! A shard is drained by at most one thread at a time (popping and
//! applying happen under the shard's lock), so per-shard application
//! order is channel FIFO order: worker count, like shard count, changes
//! wall-clock only, never a report. Every drain — a whole service thread,
//! or one on a waiting caller — runs under [`EngineCore::guarded`]: a
//! panic fails the service and `close` re-raises it; no thread unwinds.

use std::panic::resume_unwind;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use nurd_runtime::ThreadPool;

use crate::disk::{Disk, RealDisk};
use crate::engine::{relock, EngineCore, EngineHandle, EngineReport, DRAIN_BATCH};
use crate::persist::{
    snapshot_path, wal_path, DirScan, PersistenceConfig, RecoverError, RecoverReport,
};
use crate::shard::Counter;
use crate::snapshot::read_snapshot_data;
use crate::wal::WalTail;
use crate::{
    EngineConfig, EngineStats, HealthObserver, JobPhase, JobReport, MitigatorFactory,
    PredictorFactory,
};

/// Tuning for the background drain loop.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceConfig {
    /// Drain worker threads. `0` resolves to the machine's parallelism;
    /// either way the count is capped at the shard count (a shard is
    /// drained by one thread at a time, so extra workers could only
    /// idle) and ≥ 1. [`EngineService::recover`] replays each WAL
    /// generation on a pool of this many threads plus one before the
    /// workers start. A thread that would wait on the engine — a blocked
    /// push, [`EngineService::quiesce`], [`EngineService::close`] —
    /// drains beside them while a predictor call is in flight, so a
    /// producer's core is lent to model work when its push cannot
    /// proceed anyway.
    pub drain_workers: usize,
}

impl ServiceConfig {
    /// The drain workers this config grants an engine of `shards` shards.
    fn workers(&self, shards: usize) -> usize {
        let asked = match self.drain_workers {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            n => n,
        };
        asked.min(shards).max(1)
    }
}

/// Where an [`EngineService`] is in its life; `close` and `Drop` move it on.
enum Lifecycle {
    /// The drain threads run.
    Serving(Vec<JoinHandle<()>>),
    /// The threads are joined without a report: the service failed (every
    /// `close` raises it), or is being dropped.
    Stopped,
    /// `close` returned this report; later calls return clones of it.
    Closed(EngineReport),
}

/// Spawns drain thread `worker` running [`drain_worker`] whole under
/// [`EngineCore::guarded`], so a panic fails the service instead of
/// unwinding the thread.
fn spawn_drain(core: &Arc<EngineCore>, worker: usize) -> JoinHandle<()> {
    let core = Arc::clone(core);
    std::thread::Builder::new()
        .name(format!("nurd-serve-drain-{worker}"))
        .spawn(move || core.guarded(|| drain_worker(&core, worker)))
        .expect("spawning a drain service thread")
}

/// The shutdown sequence: stop accepting (blocked producers wake with
/// their push rejected), then join `threads`. They exit at once on a
/// failure and otherwise only once every ingress is empty, so after the
/// join every accepted event has been applied.
fn join(core: &EngineCore, threads: Vec<JoinHandle<()>>) {
    core.close_ingress();
    for thread in threads {
        // `guarded` keeps every service thread from unwinding.
        let _ = thread.join();
    }
}

/// One worker's loop: scan all shards (start offset staggered per worker
/// so workers fan out instead of convoying), drain whatever it can win,
/// and park on the engine's notifier when a full scan finds nothing. The
/// epoch is snapshotted *before* the scan, so a push or a peer's drain
/// that races the scan un-parks immediately — no lost wake-ups, no
/// polling loops. Closing the ingress and failing both unpark.
fn drain_worker(core: &EngineCore, worker: usize) {
    let shards = core.shard_count();
    // One pop buffer per worker, reused for every batch it ever drains.
    let mut buffer = Vec::with_capacity(DRAIN_BATCH);
    // A failed service (a drain panicked, its shard perhaps poisoned
    // mid-apply, or the disk failed) stops serving rather than present a
    // half-dead engine as healthy.
    while core.failure().is_none() {
        let epoch = core.notifier().epoch();
        let mut drained = 0;
        for offset in 0..shards {
            drained += core.drain_shard((worker + offset) % shards, DRAIN_BATCH, &mut buffer);
        }
        if drained > 0 {
            continue;
        }
        // Nothing won this scan. Quiescent shutdown: no new work can
        // arrive and none is queued (in-flight batches are someone
        // else's, and that thread exits after applying them).
        if core.is_drained() {
            return;
        }
        core.notifier().park(epoch);
    }
}

/// A multi-job streaming engine run as a **concurrent service**:
/// producers on any number of threads push through cloned
/// [`EngineHandle`]s while the background drain threads continuously
/// applies, scores, and finalizes. This is the one way to serve: tests,
/// the mitigation harness and the fleet benchmark all run through it.
///
/// Under [`OverloadPolicy::Block`](crate::OverloadPolicy::Block) a push
/// to a full shard is a **true blocking send** — the producer sleeps
/// until a drain makes room, lending its core to the drains while a
/// predictor call is in flight — so saturation costs latency, never
/// events; the service-mode property test in `tests/service.rs` proves
/// per-job outcomes stay bit-for-bit equal to sequential replay with
/// real producer threads hammering a saturated engine.
///
/// # Example
///
/// Admission → drain → finalization, all through the stream:
///
/// ```
/// use nurd_data::{Checkpoint, JobSpec, OnlinePredictor, TaskEvent};
/// use nurd_serve::{EngineConfig, EngineService, FinalizeReason, JobPhase, ServiceConfig};
/// # struct Never;
/// # impl OnlinePredictor for Never {
/// #     fn name(&self) -> &str { "NEVER" }
/// #     fn predict(&mut self, _: &Checkpoint<'_>) -> Vec<usize> { Vec::new() }
/// # }
///
/// let service = EngineService::start(
///     EngineConfig::default(),
///     ServiceConfig::default(),
///     Box::new(|_| Box::new(Never)),
/// );
///
/// // 1. Producers push from their own threads through cloned handles,
/// //    and admission travels in the stream — no up-front registry.
/// let producer = {
///     let handle = service.handle();
///     std::thread::spawn(move || {
///         handle.push(TaskEvent::JobStart {
///             spec: JobSpec { job: 7, threshold: 100.0, task_count: 1, feature_dim: 1, checkpoints: 1 },
///         });
///         handle.push(TaskEvent::Barrier { job: 7, ordinal: 0, time: 50.0 })
///     })
/// };
/// assert!(producer.join().unwrap(), "push accepted");
///
/// // 2. The drain workers apply queued events (admit, score, finalize)
/// //    in the background; quiesce() waits until they have.
/// service.quiesce();
/// assert_eq!(service.job_phase(7), Some(JobPhase::Finalized));
///
/// // 3. The job's report is available mid-stream, long before close.
/// let done = service.take_finalized();
/// assert_eq!(done.len(), 1);
/// assert_eq!(done[0].finalized, FinalizeReason::StreamComplete);
///
/// // close(): drain to quiescence, then the final report — of the jobs
/// // not already taken.
/// let report = service.close();
/// assert!(report.jobs.is_empty());
/// assert_eq!(report.events, 2);
/// ```
pub struct EngineService {
    core: Arc<EngineCore>,
    /// The service's own producer handle — the convenience `push`/`push_all`
    /// methods below delegate here, so the accept/wake logic exists once.
    handle: EngineHandle,
    /// The threads while serving; the first close's report after it, for
    /// later closes to return (idempotence).
    lifecycle: Mutex<Lifecycle>,
}

impl std::fmt::Debug for EngineService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineService")
            .field("core", &self.core)
            .finish()
    }
}

impl EngineService {
    /// Builds the engine and starts its background drain loop; events
    /// pushed through [`EngineService::handle`]s are applied without any
    /// further caller involvement, until [`EngineService::close`].
    #[must_use]
    pub fn start(config: EngineConfig, service: ServiceConfig, factory: PredictorFactory) -> Self {
        Self::launch(Arc::new(EngineCore::new(config, factory)), &service)
    }

    /// Like [`EngineService::start`], but durable: every drained event is
    /// write-ahead-logged under `persistence.dir` before it is applied,
    /// [`EngineService::checkpoint`] / [`EngineService::close`] write
    /// versioned snapshots, and [`EngineService::recover`] can later
    /// rebuild the engine from that directory. Existing artifacts in the
    /// directory are left untouched (the new WAL generation starts past
    /// them); to actually *resume* from them, use `recover`.
    pub fn start_persistent(
        config: EngineConfig,
        service: ServiceConfig,
        persistence: PersistenceConfig,
        factory: PredictorFactory,
    ) -> std::io::Result<Self> {
        Self::start_on(Arc::new(RealDisk), config, &service, persistence, factory)
    }

    /// [`EngineService::start_persistent`] on `disk`. The new segments'
    /// names are durable before the first append (as `recover`'s final
    /// directory fsync makes its new generation's).
    fn start_on(
        disk: Arc<dyn Disk>,
        config: EngineConfig,
        service: &ServiceConfig,
        persistence: PersistenceConfig,
        factory: PredictorFactory,
    ) -> std::io::Result<Self> {
        let dir = persistence.dir.clone();
        let (core, _) =
            EngineCore::new_persistent(config, factory, persistence, Arc::clone(&disk))?;
        disk.sync_dir(&dir)?;
        Ok(Self::launch(Arc::new(core), service))
    }

    /// Rebuilds a running service from a persistence directory: loads the
    /// newest snapshot that validates end to end (falling back past
    /// corrupt ones — counted in [`RecoverReport::recovery_fallbacks`]),
    /// replays every WAL segment at or past that snapshot's generation (a
    /// generation at a time, its segments in parallel on a pool of
    /// [`ServiceConfig::drain_workers`] threads plus one; the first error
    /// by (generation, shard) wins), fsyncs those segments and the
    /// directory, and only then starts the drain threads on a fresh WAL
    /// generation. It writes no snapshot: the next
    /// [`EngineService::checkpoint`] or `close` compacts. The recovered engine's per-job state is bit-for-bit the
    /// state of an engine that applied the same durable prefix without
    /// ever crashing — the restart-equals-uninterrupted properties of
    /// `tests/recovery.rs` prove it across chained crashes, torn WAL
    /// tails and changed shard counts, and this module's tests at every
    /// numbered disk operation of a run.
    ///
    /// Producers resume each job's stream from
    /// [`RecoverReport::events_seen`]: the count is how many of the job's
    /// events are already inside the recovered state.
    pub fn recover(
        persistence: PersistenceConfig,
        config: EngineConfig,
        service: ServiceConfig,
        factory: PredictorFactory,
    ) -> Result<(Self, RecoverReport), RecoverError> {
        Self::recover_inner(persistence, config, service, factory, None, None)
    }

    /// Like [`EngineService::recover`], but installs `mitigator` *before*
    /// the snapshot is decoded and the WAL trail replays, so recovered
    /// jobs get their policies back and any barrier inside the replayed
    /// suffix decides actions exactly as the crashed engine would have.
    /// This is the recovery counterpart of
    /// [`EngineService::attach_mitigator`]: a run that attaches at start,
    /// crashes, and recovers through this method produces the same
    /// per-job action logs as one that never crashed.
    pub fn recover_with_mitigator(
        persistence: PersistenceConfig,
        config: EngineConfig,
        service: ServiceConfig,
        factory: PredictorFactory,
        mitigator: MitigatorFactory,
    ) -> Result<(Self, RecoverReport), RecoverError> {
        Self::recover_inner(persistence, config, service, factory, Some(mitigator), None)
    }

    /// Like [`EngineService::recover`], but installs `observer` *before*
    /// the snapshot is decoded and the WAL trail replays: the snapshot's
    /// observer blob restores its pre-crash state (a rejected blob is
    /// [`RecoverError::ObserverRestore`]), and the replayed WAL suffix is
    /// then re-observed live — exactly once overall, because the blob was
    /// captured at the snapshot's WAL-rotation instant. This is the
    /// recovery counterpart of [`EngineService::attach_observer`]: a run
    /// that attaches at start, crashes, and recovers through this method
    /// leaves the observer in the same state as one that never crashed.
    /// Pass `mitigator` too when the crashed run had one attached.
    pub fn recover_with_observer(
        persistence: PersistenceConfig,
        config: EngineConfig,
        service: ServiceConfig,
        factory: PredictorFactory,
        mitigator: Option<MitigatorFactory>,
        observer: Arc<dyn HealthObserver>,
    ) -> Result<(Self, RecoverReport), RecoverError> {
        Self::recover_inner(
            persistence,
            config,
            service,
            factory,
            mitigator,
            Some(observer),
        )
    }

    fn recover_inner(
        persistence: PersistenceConfig,
        config: EngineConfig,
        service: ServiceConfig,
        factory: PredictorFactory,
        mitigator: Option<MitigatorFactory>,
        observer: Option<Arc<dyn HealthObserver>>,
    ) -> Result<(Self, RecoverReport), RecoverError> {
        let disk = Arc::new(RealDisk);
        let (core, scan) = EngineCore::new_persistent(config, factory, persistence, disk)?;
        if let Some(mitigator) = mitigator {
            // Before any decode or replay: recovered jobs must carry
            // policies from the first replayed barrier onward.
            core.set_mitigator(mitigator);
        }
        if let Some(observer) = observer {
            // Likewise before the snapshot installs (its blob restores
            // into this observer) and before the WAL suffix replays
            // (which this observer re-observes live).
            core.set_observer(observer);
        }
        Self::restore(core, &scan, &service)
    }

    /// The rest of a recovery, on a fresh persistent `core` whose
    /// directory `scan` found: load, replay, fsync, start serving.
    fn restore(
        core: EngineCore,
        scan: &DirScan,
        service: &ServiceConfig,
    ) -> Result<(Self, RecoverReport), RecoverError> {
        let persist = core.persist().expect("restore on a persistent core");
        let (disk, dir) = (&*persist.disk, &persist.config.dir);
        // Newest snapshot that both reads (framing, CRCs) and decodes
        // (every job record through the factory) wins; everything newer
        // is a fallback. `install_snapshot` mutates shard state, so a
        // decode failure must surface *before* installing anything —
        // read + decode errors both just advance to the next candidate.
        let mut fallbacks = 0usize;
        let mut loaded = None;
        for &generation in scan.snapshots.iter().rev() {
            match read_snapshot_data(disk, &snapshot_path(dir, generation))
                .and_then(|data| core.install_snapshot(data))
            {
                Ok(counts) => {
                    loaded = Some((generation, counts));
                    break;
                }
                Err(_) => fallbacks += 1,
            }
        }
        let snapshot_generation = loaded.map(|(generation, _)| generation);
        let (resumed_jobs, finalized_jobs) = loaded.map_or((0, 0), |(_, counts)| counts);

        // Replay the WAL trail on top, from the loaded snapshot's
        // generation (0 when starting empty), a generation at a time. A job
        // sits in one segment per generation, so a generation's segments
        // replay in parallel on a pool of its own, as many threads as drain
        // workers plus this caller; the first error by (generation, shard)
        // wins.
        let threads = service.workers(core.shard_count()) + 1;
        let mut wal_events_replayed = 0;
        let mut wal_truncated_tails = 0;
        for segments in scan.wal_generations(snapshot_generation.unwrap_or(0)) {
            let mut replayed: Vec<_> = segments.iter().map(|_| None).collect();
            ThreadPool::new(threads.min(segments.len())).scope(|scope| {
                for (slot, &(generation, shard)) in replayed.iter_mut().zip(segments) {
                    let (core, path) = (&core, wal_path(dir, generation, shard));
                    scope.spawn(move || *slot = Some(core.replay_segment(&path)));
                }
            });
            for result in replayed {
                let (events, tail) = result.expect("every segment replayed")?;
                wal_events_replayed += events;
                wal_truncated_tails += usize::from(tail != WalTail::Clean);
            }
        }
        core.count(Counter::RecoveryFallbacks, fallbacks);
        // No snapshot writer is alive, so every `.tmp` is stranded. One
        // directory fsync covers these removals and the new `wal-*` names;
        // compaction waits for the next checkpoint or close.
        for &generation in &scan.tmps {
            disk.remove(&snapshot_path(dir, generation).with_extension("bin.tmp"))?;
        }
        disk.sync_dir(dir)?;
        let events_seen = core.events_seen();
        let report = RecoverReport {
            snapshot_generation,
            recovery_fallbacks: fallbacks,
            wal_events_replayed,
            wal_truncated_tails,
            resumed_jobs,
            finalized_jobs,
            events_seen,
        };
        Ok((Self::launch(Arc::new(core), service), report))
    }

    fn launch(core: Arc<EngineCore>, service: &ServiceConfig) -> Self {
        let threads = (0..service.workers(core.shard_count()))
            .map(|worker| spawn_drain(&core, worker))
            .collect();
        let handle = EngineHandle::new(Arc::clone(&core));
        EngineService {
            core,
            handle,
            lifecycle: Mutex::new(Lifecycle::Serving(threads)),
        }
    }

    /// A cloneable producer handle; make one per producer thread. Under
    /// [`OverloadPolicy::Block`](crate::OverloadPolicy::Block) its
    /// [`push`](EngineHandle::push) is a true blocking send.
    #[must_use]
    pub fn handle(&self) -> EngineHandle {
        self.handle.clone()
    }

    /// Pushes one event from the current thread (see
    /// [`EngineHandle::push`]).
    pub fn push(&self, event: nurd_data::TaskEvent) -> bool {
        self.handle.push(event)
    }

    /// Pushes a batch of events in order; returns how many were accepted.
    pub fn push_all(&self, events: impl IntoIterator<Item = nurd_data::TaskEvent>) -> usize {
        self.handle.push_all(events)
    }

    /// Takes the reports of jobs finalized since the last take (job-id
    /// order) — safe while the service is running. Concurrent takers
    /// partition the reports: each report is handed out exactly once,
    /// and none is repeated by the shutdown report.
    pub fn take_finalized(&self) -> Vec<JobReport> {
        self.core.take_finalized()
    }

    /// Live scheduling diagnostics, polled without stopping the service
    /// (see [`EngineStats`]).
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.handle.stats()
    }

    /// Attaches a mitigator: `mitigator` builds one fresh
    /// [`MitigationPolicy`](nurd_data::MitigationPolicy) per admitted
    /// job, and from then on every scored barrier runs scores → policy →
    /// committed [`ActionRecord`](nurd_data::ActionRecord)s (surfaced on
    /// each [`JobReport::actions`]). Write-once — returns `false` (and
    /// changes nothing) if a mitigator is already attached. Jobs admitted
    /// *before* the attach get a policy too, but barriers they already
    /// scored decided nothing; for the bit-identical action-log guarantee
    /// attach before pushing events (or recover with
    /// [`EngineService::recover_with_mitigator`]).
    pub fn attach_mitigator(&self, mitigator: MitigatorFactory) -> bool {
        self.core.set_mitigator(mitigator)
    }

    /// Attaches a fleet-level [`HealthObserver`]: from then on every
    /// finalized job (report, node placement, per-task straggler truth)
    /// and every scored barrier's scores are fed to it. Observation is
    /// bit-invisible to predictions and reports — the scored path is
    /// flag-identical by the predictor contract — and write-once:
    /// returns `false` (and changes nothing) if an observer is already
    /// attached. For parity with a never-restarted run, attach before
    /// pushing events; the recovery counterpart is
    /// [`EngineService::recover_with_observer`].
    pub fn attach_observer(&self, observer: Arc<dyn HealthObserver>) -> bool {
        self.core.set_observer(observer)
    }

    /// Where `job` sits in its lifecycle, judging by *drained* state.
    /// In service mode drains run in the background, so a just-pushed
    /// `JobStart` may briefly report `None`; [`EngineService::quiesce`]
    /// first if the test or caller needs the settled answer.
    #[must_use]
    pub fn job_phase(&self, job: u64) -> Option<JobPhase> {
        self.core.job_phase(job)
    }

    /// Blocks until every event pushed *before this call* has been
    /// applied (ingress empty and no drain in flight). With producers
    /// still pushing concurrently this is a moving target — the method
    /// promises only that the pre-call backlog is gone; it is the
    /// settle-then-observe primitive for monitors and tests. While some
    /// drain is inside a predictor call, the calling thread drains shards
    /// itself instead of sleeping (so predictor, mitigator and observer
    /// callbacks may run on it).
    ///
    /// # Panics
    ///
    /// Panics with "drain service died" and the cause if the service
    /// failed, before or while waiting.
    pub fn quiesce(&self) {
        if let Err(why) = self.core.settle() {
            panic!("drain service died: {why}; the backlog will never settle");
        }
    }

    /// On a persistent service: writes a snapshot *now* and compacts the
    /// WAL trail behind it (snapshot-then-truncate; see the crash
    /// recovery runbook in `docs/OPERATIONS.md` for cadence guidance).
    /// Safe while producers push and drains drain — each shard is
    /// captured under its lock at its own WAL rotation instant. Returns
    /// the new snapshot generation.
    ///
    /// # Errors
    ///
    /// Fails with the underlying I/O error, and fails the service with it
    /// (what the disk holds is no longer known); the previous snapshot
    /// generation remains the recovery target.
    ///
    /// # Panics
    ///
    /// Panics on a non-persistent service — there is nowhere to write.
    pub fn checkpoint(&self) -> std::io::Result<u64> {
        self.core.write_snapshot()
    }

    /// Shuts the service down and returns the final report: closes the
    /// ingress (later pushes fail; producers blocked in a send wake with
    /// their push rejected), runs the backlog down to quiescence — on the
    /// drain workers, and on the calling thread too while some drain is
    /// inside a predictor call (so callbacks may run on it) — joins the
    /// workers, persists (flushes every WAL and writes a shutdown
    /// snapshot, on a persistent service), finalizes every still-live
    /// job ([`crate::FinalizeReason::EngineFinish`]), and reports
    /// everything not already handed out by [`EngineService::take_finalized`].
    ///
    /// **Idempotent**: the first call runs the shutdown; every later call
    /// returns a clone of its report (or, if it panicked, panics again).
    /// The shutdown snapshot is written *before* jobs are close-finalized,
    /// so the directory holds every live job in its suspended state and a
    /// later [`EngineService::recover`] resumes them mid-stream.
    ///
    /// # Panics
    ///
    /// Re-raises the panic payload of the drain that failed the service
    /// (the root cause) — a worker's, or a waiting caller's — if one
    /// panicked while the service ran, and panics with "drain service
    /// died" and the I/O error if a WAL or snapshot operation failed.
    #[must_use]
    pub fn close(&self) -> EngineReport {
        let mut state = relock(&self.lifecycle);
        if let Lifecycle::Closed(report) = &*state {
            return report.clone();
        }
        if let Lifecycle::Serving(threads) = std::mem::replace(&mut *state, Lifecycle::Stopped) {
            self.core.close_ingress();
            // A failure surfaces below, after the join.
            let _ = self.core.settle();
            join(&self.core, threads);
        }
        if self.core.is_persistent() && self.core.failure().is_none() {
            // Durability before reporting: seal the WALs and write the
            // shutdown snapshot while every job is still in its live,
            // resumable state. A failure of either fails the service.
            if self.core.flush_wals().is_ok() {
                let _ = self.core.write_snapshot();
            }
        }
        if let Some(why) = self.core.failure() {
            // Salvage what the WALs still buffer (the WAL holds everything
            // accepted up to the failure), then raise the root cause: the
            // original panic payload rather than a poisoned shard lock
            // inside finish_report, or the recorded failure.
            let _ = self.core.flush_wals();
            let why = why.to_owned();
            drop(state);
            match self.core.take_panic() {
                Some(payload) => resume_unwind(payload),
                None => panic!("drain service died: {why}"),
            }
        }
        let report = self.core.finish_report();
        *state = Lifecycle::Closed(report.clone());
        report
    }
}

impl Drop for EngineService {
    /// The unclosed-service guard: joins the threads (applying any
    /// backlog) and flushes the WALs, so dropping a persistent service
    /// without closing it leaves on disk every event it drained, as a
    /// process killed after a final flush would. After
    /// [`EngineService::close`] this is a no-op.
    fn drop(&mut self) {
        let lifecycle = self
            .lifecycle
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        if let Lifecycle::Serving(threads) = std::mem::replace(lifecycle, Lifecycle::Stopped) {
            join(&self.core, threads);
            if self.core.is_persistent() {
                let _ = self.core.flush_wals();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! The durable path on the simulated disk ([`crate::disk::sim`]):
    //! a short persistent run is crashed and failed at every numbered
    //! file-system operation, and every directory it leaves recovers to
    //! the never-crashed outcome.

    use std::collections::BTreeMap;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use nurd_data::{Checkpoint, JobSpec, OnlinePredictor, TaskEvent};
    use nurd_sim::{replay_job, ReplayConfig, ReplayOutcome};
    use nurd_trace::{SuiteConfig, TraceStyle};

    use super::*;
    use crate::disk::sim::{Fault, Op, SimDisk};
    use crate::OverloadPolicy;

    const QUANTILE: f64 = 0.9;
    const WARMUP: f64 = 0.04;
    const DIR: &str = "/sim/engine";
    /// The finite bound [`every_step`] runs at besides 0 and `usize::MAX`:
    /// at every shard count tested, some shard's share of a part of
    /// [`short_run`] (drained as one batch) passes it and fsyncs on the
    /// drain path, and some other share (7 to 18 events) stays unsynced.
    const BOUND: usize = 18;

    /// A one-word predictor whose verdicts hang on every checkpoint it
    /// has seen: it flags a running task when its id plus a running sum
    /// over earlier checkpoints (one, plus the tasks each saw finished)
    /// is a multiple of 7. A lost, repeated or reordered checkpoint moves
    /// its flags.
    struct Tally(u64);

    impl OnlinePredictor for Tally {
        fn name(&self) -> &str {
            "TALLY"
        }

        fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
            let seen = self.0;
            self.0 += checkpoint.finished.len() as u64 + 1;
            checkpoint
                .running
                .iter()
                .map(|task| task.id)
                .filter(|&id| (id as u64 + seen).is_multiple_of(7))
                .collect()
        }

        fn snapshot_state(&self) -> Option<Vec<u8>> {
            Some(self.0.to_le_bytes().to_vec())
        }

        fn restore_state(&mut self, bytes: &[u8]) -> bool {
            let Ok(word) = <[u8; 8]>::try_from(bytes) else {
                return false;
            };
            self.0 = u64::from_le_bytes(word);
            true
        }
    }

    fn factory() -> PredictorFactory {
        Box::new(|_: &JobSpec| Box::new(Tally(0)))
    }

    /// One producer's stream of a small fleet, and each job's outcome
    /// under a never-crashed sequential replay.
    struct Fleet {
        stream: Vec<TaskEvent>,
        expected: Vec<(u64, ReplayOutcome)>,
    }

    fn fleet(jobs: usize, tasks: usize, seed: u64) -> Fleet {
        let cfg = SuiteConfig::new(TraceStyle::Google)
            .with_jobs(jobs)
            .with_task_range(tasks, tasks + 4)
            .with_checkpoints(4)
            .with_seed(seed);
        let jobs = nurd_trace::generate_suite(&cfg);
        let replay = ReplayConfig {
            quantile: QUANTILE,
            warmup_fraction: WARMUP,
        };
        Fleet {
            stream: nurd_trace::producer_streams(&jobs, 1, QUANTILE, seed).remove(0),
            expected: jobs
                .iter()
                .map(|job| (job.job_id(), replay_job(job, &mut Tally(0), &replay)))
                .collect(),
        }
    }

    fn engine_config(shards: usize, queue_capacity: Option<usize>) -> EngineConfig {
        EngineConfig {
            shards,
            warmup_fraction: WARMUP,
            queue_capacity,
            overload: OverloadPolicy::Block,
            balance: None,
        }
    }

    fn service_config() -> ServiceConfig {
        ServiceConfig { drain_workers: 1 }
    }

    fn persistence(max_unsynced_events: usize) -> PersistenceConfig {
        PersistenceConfig {
            max_unsynced_events,
            ..PersistenceConfig::new(DIR)
        }
    }

    fn start(
        disk: &SimDisk,
        shards: usize,
        max_unsynced: usize,
        queue_capacity: Option<usize>,
    ) -> std::io::Result<EngineService> {
        let config = engine_config(shards, queue_capacity);
        let disk = Arc::new(disk.clone());
        EngineService::start_on(
            disk,
            config,
            &service_config(),
            persistence(max_unsynced),
            factory(),
        )
    }

    fn recover(
        disk: &SimDisk,
        shards: usize,
        max_unsynced: usize,
    ) -> (EngineService, RecoverReport) {
        let config = engine_config(shards, Some(4));
        let disk = Arc::new(disk.clone());
        let (core, scan) =
            EngineCore::new_persistent(config, factory(), persistence(max_unsynced), disk).unwrap();
        let recovered = EngineService::restore(core, &scan, &service_config());
        recovered.unwrap_or_else(|e| panic!("recover failed: {e}"))
    }

    /// Pushes `stream` from a producer thread, skipping each job's first
    /// `seen[job]` events; `false` once a push is rejected.
    fn feed(service: &EngineService, stream: &[TaskEvent], seen: &BTreeMap<u64, u64>) -> bool {
        let handle = service.handle();
        std::thread::scope(|scope| {
            scope
                .spawn(move || {
                    let mut position: BTreeMap<u64, u64> = BTreeMap::new();
                    stream.iter().all(|event| {
                        let slot = position.entry(event.job()).or_insert(0);
                        *slot += 1;
                        *slot <= seen.get(&event.job()).copied().unwrap_or(0)
                            || handle.push(event.clone())
                    })
                })
                .join()
                .unwrap()
        })
    }

    /// [`feed`] with every shard locked, then the drain let go: each
    /// shard's share of `stream` waits whole in its queue and is popped
    /// in full batches, so the run's disk operations do not hang on
    /// thread timing.
    fn feed_held(service: &EngineService, stream: &[TaskEvent]) -> bool {
        let held = service.core.hold_shards();
        let served = feed(service, stream, &BTreeMap::new());
        drop(held);
        service.core.notifier().unpark();
        served
    }

    /// The message of a panic `f` raised, or `None` if it returned.
    fn panic_message(f: impl FnOnce()) -> Option<String> {
        let payload = catch_unwind(AssertUnwindSafe(f)).err()?;
        let message = payload.downcast_ref::<String>().cloned();
        Some(message.unwrap_or_else(|| payload.downcast_ref::<&str>().unwrap().to_string()))
    }

    /// The run every crash point is drawn from: admit the fleet and
    /// serve a third of it, checkpoint (a segment roll), serve to two
    /// thirds, checkpoint (a roll, and the prune of generation 0), serve
    /// to five sixths, close (a flush, a snapshot, a prune). Each part is
    /// pushed whole and drained in full batches ([`feed_held`]). Returns
    /// how a failure surfaced, if one did: after it, the service must
    /// reject pushes and `close()` must raise it. A kill planned on
    /// `disk` reads how many events the engine had applied.
    fn short_run(
        disk: &SimDisk,
        shards: usize,
        max_unsynced: usize,
        stream: &[TaskEvent],
    ) -> Option<String> {
        let service = match start(disk, shards, max_unsynced, None) {
            Ok(service) => service,
            Err(e) => return Some(e.to_string()),
        };
        let core = Arc::downgrade(&service.core);
        disk.probe_kill(move || {
            // `stats` takes no shard lock: the kill may strike under one.
            core.upgrade()
                .map_or(0, |core| core.stats().events_per_shard.iter().sum())
        });
        let n = stream.len();
        let cuts = [0, n / 3, 2 * n / 3, 5 * n / 6];
        for phase in 0..3 {
            let served = feed_held(&service, &stream[cuts[phase]..cuts[phase + 1]]);
            if !served || service.core.failure().is_some() {
                break;
            }
            if phase < 2 {
                let settled = panic_message(|| service.quiesce()).is_none();
                if !settled || service.checkpoint().is_err() {
                    break;
                }
            }
        }
        if service.core.failure().is_some() {
            assert!(
                !service.push(stream[0].clone()),
                "a failed service took a push"
            );
        }
        panic_message(|| drop(service.close()))
    }

    /// Recovers `disk`, resumes the fleet from the receipt's durable
    /// counts, and holds every job's outcome to the sequential replay.
    /// Returns how many events the recovered state already held.
    fn finish_on(disk: &SimDisk, shards: usize, fleet: &Fleet, context: &str) -> u64 {
        let (service, receipt) = recover(disk, shards, usize::MAX);
        assert!(
            feed(&service, &fleet.stream, &receipt.events_seen),
            "{context}"
        );
        let mut reports = service.take_finalized();
        reports.extend(service.close().jobs);
        reports.sort_by_key(|r| r.job);
        let got: Vec<(u64, ReplayOutcome)> =
            reports.into_iter().map(|r| (r.job, r.outcome)).collect();
        assert_eq!(
            got, fleet.expected,
            "{context}: restart diverged from the uninterrupted run"
        );
        receipt.events_seen.values().sum()
    }

    /// For every step `k` of [`short_run`] at bound `max_unsynced`: a
    /// kill at `k` (the page cache survives), a power loss at `k`, and a
    /// failure of `k`, each recovered to the uninterrupted outcome. A
    /// power loss at `k` also keeps all but at most `max_unsynced` of
    /// each shard's events applied before `k` — and, under any bound
    /// above 0, loses some at some step, so the bound is not a silent
    /// fsync of every batch.
    fn every_step(shards: usize, max_unsynced: usize) {
        let fleet = fleet(2, 10, 3 + shards as u64);
        let trace = SimDisk::default();
        assert_eq!(short_run(&trace, shards, max_unsynced, &fleet.stream), None);
        let steps = trace.steps();
        for op in [
            Op::CreateDir,
            Op::List,
            Op::Create,
            Op::Write,
            Op::SyncData,
            Op::Rename,
            Op::Remove,
            Op::SyncDir,
        ] {
            assert!(
                steps.iter().any(|step| step.op == op),
                "the run never reached {op:?}"
            );
        }
        let slack = (shards as u64).saturating_mul(max_unsynced as u64);
        let mut lost_some = false;
        for (k, step) in steps.iter().enumerate() {
            let context = format!("{shards} shards, bound {max_unsynced}, step {k} {step:?}");

            let disk = SimDisk::planned(Fault::Kill, None, k);
            assert_eq!(
                short_run(&disk, shards, max_unsynced, &fleet.stream),
                None,
                "{context}"
            );
            let unplugged = disk.fork();
            unplugged.lose_power();
            disk.restart();
            finish_on(&disk, shards, &fleet, &format!("kill at {context}"));
            let kept = finish_on(
                &unplugged,
                shards,
                &fleet,
                &format!("power loss at {context}"),
            );
            let applied = disk.probed().unwrap_or(0) as u64;
            assert!(
                kept.saturating_add(slack) >= applied,
                "power loss at {context}: {applied} events applied, {kept} recovered"
            );
            lost_some |= applied > kept;

            let disk = SimDisk::planned(Fault::Fail, None, k);
            let surfaced = short_run(&disk, shards, max_unsynced, &fleet.stream);
            let surfaced =
                surfaced.unwrap_or_else(|| panic!("{context}: the failure was swallowed"));
            assert!(
                surfaced.contains("simulated failure"),
                "{context}: surfaced as {surfaced:?}"
            );
            disk.restart();
            finish_on(&disk, shards, &fleet, &format!("failure at {context}"));
        }
        assert_eq!(
            lost_some,
            max_unsynced > 0,
            "{shards} shards, bound {max_unsynced}: no power loss lost an applied event"
        );
    }

    #[test]
    fn every_step_of_a_never_synced_run_crashes_and_fails_cleanly() {
        for shards in [1, 2, 8] {
            every_step(shards, usize::MAX);
        }
    }

    #[test]
    fn every_step_of_an_always_synced_run_crashes_and_fails_cleanly() {
        for shards in [1, 2, 8] {
            every_step(shards, 0);
        }
    }

    /// At [`BOUND`]: count-triggered fsyncs strike mid-run, and unsynced
    /// tails remain beside them.
    #[test]
    fn every_step_of_a_bounded_run_crashes_and_fails_cleanly() {
        for shards in [1, 2, 8] {
            every_step(shards, BOUND);
        }
    }

    /// Engine A never fsyncs on its drain path and is killed at its
    /// `Drop` guard's first fsync, so its WAL tail sits in the page cache
    /// only. B recovers that tail, serves a new generation fsyncing every
    /// batch, and loses power. C must still equal the uninterrupted run —
    /// which holds only because B fsynced the segment it replayed before
    /// logging anything after it.
    #[test]
    fn recover_fsyncs_the_page_cache_tail_it_replayed() {
        let fleet = fleet(3, 30, 11);
        let n = fleet.stream.len();
        let disk = SimDisk::planned(Fault::Kill, Some(Op::SyncData), 0);
        let a = start(&disk, 1, usize::MAX, Some(4)).unwrap();
        assert!(feed(&a, &fleet.stream[..n / 2], &BTreeMap::new()));
        a.quiesce();
        drop(a);
        disk.restart();

        let (b, receipt) = recover(&disk, 1, 0);
        assert!(receipt.wal_events_replayed > 0, "A left no page-cache tail");
        assert!(feed(&b, &fleet.stream[..n * 3 / 4], &receipt.events_seen));
        b.quiesce();
        disk.kill();
        drop(b);
        disk.lose_power();

        finish_on(&disk, 1, &fleet, "power loss after a page-cache recovery");
    }

    /// A count-triggered fsync fails: the drain that appended the batch
    /// panics before applying it, and the service stops as for any failed
    /// append — a producer blocked on the full queue gets its push
    /// rejected, and `close()` raises the drain's message.
    #[test]
    fn a_failed_bounded_fsync_fails_the_service() {
        let disk = SimDisk::planned(Fault::Fail, Some(Op::SyncData), 0);
        let service = start(&disk, 2, 4, Some(4)).unwrap();
        let handle = service.handle();
        let rejected = std::thread::spawn(move || {
            (0..100_000).any(|ordinal| {
                !handle.push(TaskEvent::Progress {
                    job: 1,
                    task: 0,
                    ordinal,
                    time: 1.0,
                    features: vec![0.5],
                })
            })
        });
        assert!(rejected.join().unwrap(), "the failed fsync was swallowed");
        assert!(!service.push(TaskEvent::JobEnd { job: 1, time: 2.0 }));
        let raised =
            panic_message(|| drop(service.close())).expect("close() must raise the failure");
        assert!(
            raised.contains("WAL append failed on shard")
                && raised.contains("simulated failure of SyncData"),
            "{raised}"
        );
    }
}
