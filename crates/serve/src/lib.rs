//! `nurd-serve` — a **concurrent** streaming multi-job straggler-prediction
//! engine on the shared `nurd-runtime` substrate.
//!
//! The paper's Algorithm 1 (and `nurd_sim::replay_job`) is one job,
//! replayed checkpoint-by-checkpoint on one thread. The ROADMAP's north
//! star is a *service*: many concurrent jobs streaming task events from
//! many producer threads under heavy traffic, arriving and departing at
//! any time. This crate is that layer, in three pieces — core, handle,
//! service:
//!
//! * a crate-private **`EngineCore`** — per-shard
//!   [`nurd_runtime::Channel`] MPSC ingress queues, per-shard job state
//!   behind per-shard locks, and live counters as atomics;
//! * a cloneable **[`EngineHandle`]** whose [`EngineHandle::push`] takes
//!   `&self` — producers live on any thread, and a push to a full shard
//!   is a *true blocking send* (the producer sleeps until a drain makes
//!   room, and drains shards itself meanwhile while a predictor call is
//!   in flight);
//! * an **[`EngineService`]** that runs the drain loop as a background
//!   service (a pool of drain workers parking on a
//!   [`nurd_runtime::Notifier`] when idle), with
//!   [`EngineService::take_finalized`] as the mid-stream report channel
//!   and [`EngineService::close`] as drain-to-quiescence shutdown;
//!   [`EngineService::quiesce`] is the settle-then-observe point for
//!   callers that must look between pushes.
//!
//! The engine provides **mid-stream admission**
//! ([`nurd_data::TaskEvent::JobStart`] carries the
//! [`nurd_data::JobSpec`]; the [`PredictorFactory`] builds the predictor
//! on the spot — no up-front registry), **per-job finalization**
//! (`JobEnd` / last barrier / all-tasks-finished ⇒ [`JobReport`], state
//! dropped, memory bounded to *live* jobs), **back-pressure**
//! ([`EngineConfig::queue_capacity`]: a full shard blocks the push, and
//! no event is ever dropped for capacity), and **adaptive shard
//! balancing** ([`BalanceConfig`]: a backlogged shard's oversized jobs get
//! within-job parallelism via [`nurd_data::OnlinePredictor::set_parallelism`],
//! attacking the one-giant-job skew that shard counts cannot).
//!
//! It also provides **crash safety**. A service started with
//! [`EngineService::start_persistent`] write-ahead-logs every drained
//! event (per shard, under the same lock that orders application) and
//! writes versioned, CRC-framed snapshots
//! ([`EngineService::checkpoint`] and at [`EngineService::close`]);
//! [`EngineService::recover`] rebuilds a running service from the
//! directory — newest valid snapshot plus the WAL tail — with per-job
//! state bit-for-bit equal to a never-crashed run (`tests/recovery.rs`
//! proves it across torn WAL tails, bit flips and chained crashes; unit
//! tests on a simulated disk kill, power off or fail every numbered
//! file-system call of a run). [`PersistenceConfig`] bounds in events
//! what a power loss can cost a shard
//! ([`PersistenceConfig::max_unsynced_events`]; nothing fsyncs on a
//! timer), and every corrupt artifact surfaces as a typed
//! [`RecoverError`] — never a panic, never a silent partial load.
//!
//! `docs/OPERATIONS.md` at the repository root is the operator's guide
//! (thread topology, worker sizing, shutdown semantics, counter triage,
//! and the crash recovery runbook).
//!
//! # Why determinism holds
//!
//! A job's entire mutable state — predictor, task features, flags —
//! lives in exactly one shard, chosen by hashing the job id. Per-shard
//! ingress channels are FIFO, and a drain pops and applies under that
//! shard's lock, so per-shard application order **is** channel order no
//! matter which worker (or how many workers) does the draining. A batch
//! is applied as runs of one job (consecutive events of one job, each
//! run's state looked up once), in FIFO order, under the shard lock: how
//! a stream is cut into batches changes no state.
//! Admission and finalization ride *in* the stream as ordinary events,
//! and no state is shared between jobs. Parallelism — shard count,
//! drain-worker count,
//! producer count, within-job balancing threads — only decides *which
//! thread* applies a job's events or fits its models, never their order
//! or result, so every job's trajectory equals its sequential replay and
//! the merged, id-sorted report is invariant. Saturation is no exception:
//! a full queue blocks its producer, so it costs latency, never an
//! event. The property tests pin all of this: `tests/determinism.rs`
//! across shard counts {1, 2, 8}, random interleavings, drain batchings,
//! and staggered mid-stream arrivals/departures; `tests/service.rs` with
//! *real producer threads* against the background drain service on a
//! saturated, blocking engine.
//!
//! # Example
//!
//! ```
//! use nurd_serve::{EngineConfig, EngineService, ServiceConfig};
//! # use nurd_data::{Checkpoint, OnlinePredictor};
//! # struct Never;
//! # impl OnlinePredictor for Never {
//! #     fn name(&self) -> &str { "NEVER" }
//! #     fn predict(&mut self, _: &Checkpoint<'_>) -> Vec<usize> { Vec::new() }
//! # }
//!
//! // Generate a 3-job fleet whose jobs arrive and depart mid-stream,
//! // and serve it through a 2-shard service from 3 producer threads.
//! let cfg = nurd_trace::SuiteConfig::new(nurd_trace::TraceStyle::Google)
//!     .with_jobs(3).with_task_range(20, 30).with_checkpoints(6).with_seed(1);
//! let jobs = nurd_trace::generate_suite(&cfg);
//!
//! let service = EngineService::start(
//!     EngineConfig { shards: 2, ..EngineConfig::default() },
//!     ServiceConfig::default(),
//!     Box::new(|_| Box::new(Never)),
//! );
//! let producers: Vec<_> = jobs
//!     .iter()
//!     .map(|job| {
//!         let handle = service.handle();
//!         let stream = nurd_data::job_stream(job, 0.9);
//!         std::thread::spawn(move || handle.push_all(stream))
//!     })
//!     .collect();
//! for p in producers {
//!     p.join().unwrap();
//! }
//! let report = service.close();
//! assert_eq!(report.jobs.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod disk;
mod engine;
mod lifecycle;
mod observer;
mod persist;
mod service;
mod shard;
mod snapshot;
mod wal;

pub use engine::{
    BalanceConfig, EngineConfig, EngineHandle, EngineReport, EngineStats, JobReport,
    MitigatorFactory, PredictorFactory,
};
pub use lifecycle::{FinalizeReason, JobPhase, OverloadCounters, OverloadPolicy};
pub use observer::HealthObserver;
pub use persist::{PersistenceConfig, RecoverError, RecoverReport};
pub use service::{EngineService, ServiceConfig};
pub use snapshot::{read_snapshot, SnapshotStats};
