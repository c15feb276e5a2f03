//! Data model shared by every crate in the NURD reproduction.
//!
//! A datacenter **job** is a set of parallel **tasks**; each task reports a
//! feature vector at regular time **checkpoints** and has a final **latency**
//! (its duration). A **straggler** is a task whose latency is at or above the
//! job's p90 latency. The simulator streams [`Checkpoint`] views — features
//! of all tasks, latencies of *finished* tasks only — to an
//! [`OnlinePredictor`], which must flag future stragglers among the running
//! tasks. This mirrors the problem formulation in §2 of the paper.
//!
//! Because the finished set only ever grows (and finished features are
//! frozen), [`FinishedDelta`] exposes each checkpoint's finished tasks as
//! a delta against the previous checkpoint — the accessor behind the
//! incremental (warm-start) refit path in `nurd-core`.
//!
//! The crate performs no I/O: traces are built in memory (by `nurd-trace`'s
//! generator) and validated by [`JobTrace::new`].
//!
//! # Example
//!
//! ```
//! use nurd_data::{JobTrace, TaskRecord};
//!
//! # fn main() -> Result<(), nurd_data::DataError> {
//! let tasks = vec![
//!     TaskRecord::new(0, 10.0, vec![vec![0.1], vec![0.2]]),
//!     TaskRecord::new(1, 50.0, vec![vec![0.9], vec![1.0]]),
//! ];
//! let job = JobTrace::new(7, vec!["cpu".into()], vec![5.0, 60.0], tasks)?;
//! assert_eq!(job.task_count(), 2);
//! assert!(job.straggler_threshold(0.5) > 10.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod error;
mod event;
mod job;
mod mitigation;
mod predictor;
mod task;

pub use checkpoint::{Checkpoint, FinishedDelta, FinishedTask, RunningTask};
pub use error::DataError;
pub use event::{job_stream, JobSpec, TaskEvent};
pub use job::{warmup_quorum, JobTrace};
pub use mitigation::{
    ActionRecord, BarrierView, MitigationAction, MitigationPolicy, ScoredPrediction, TaskScore,
};
pub use predictor::{OnlinePredictor, StreamContext};
pub use task::{TaskId, TaskRecord};
