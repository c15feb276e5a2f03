//! Trace-replay simulator and schedulers for the NURD reproduction.
//!
//! This crate implements the paper's evaluation machinery:
//!
//! * [`replay_job`] — streams a [`nurd_data::JobTrace`] checkpoint by
//!   checkpoint into an [`nurd_data::OnlinePredictor`] under the protocol of
//!   §7.1 (predict from the 4% warmup point; a task flagged as a straggler
//!   is never evaluated again) and scores the result;
//! * [`Confusion`] / [`MethodSummary`] — TPR/FPR/FNR/F1 accounting,
//!   macro-averaged over jobs as in Table 3;
//! * [`simulate_jct`] — the straggler-mitigation schedulers of §5
//!   (Algorithm 2 for unlimited machines, Algorithm 3 for a bounded pool)
//!   with relaunch durations resampled from the job's empirical latencies,
//!   yielding the job-completion-time reductions of Figures 4–9;
//! * [`execute_actions`] — deterministic execution of a serving engine's
//!   committed [`nurd_data::ActionRecord`] log (clone races, quarantine
//!   relaunches, wasted-work ledger), closing the predict→mitigate loop.
//!
//! # Example
//!
//! ```
//! use nurd_data::{Checkpoint, OnlinePredictor};
//! use nurd_sim::{replay_job, ReplayConfig};
//! use nurd_trace::{SuiteConfig, TraceStyle};
//!
//! struct Never;
//! impl OnlinePredictor for Never {
//!     fn name(&self) -> &str { "NEVER" }
//!     fn predict(&mut self, _: &Checkpoint<'_>) -> Vec<usize> { Vec::new() }
//! }
//!
//! let cfg = SuiteConfig::new(TraceStyle::Google)
//!     .with_jobs(1).with_task_range(50, 60).with_checkpoints(10);
//! let job = nurd_trace::generate_job(&cfg, 0);
//! let outcome = replay_job(&job, &mut Never, &ReplayConfig::default());
//! assert_eq!(outcome.confusion.true_positives, 0);
//! ```

#![forbid(unsafe_code)]

mod metrics;
mod mitigation;
mod replay;
mod scheduler;

pub use metrics::{Confusion, MethodSummary};
pub use mitigation::{
    execute_actions, summarize_mitigation, MitigationOutcome, MitigationSimConfig,
    MitigationSummary, TaskCompletion,
};
pub use replay::{outcome_from_flags, replay_job, ReplayConfig, ReplayOutcome};
pub use scheduler::{simulate_jct, JctOutcome, SchedulerConfig};
