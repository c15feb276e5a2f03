//! **nurd** — a from-scratch Rust reproduction of *NURD: Negative-Unlabeled
//! Learning for Online Datacenter Straggler Prediction* (MLSys 2022).
//!
//! This facade re-exports the workspace crates under stable module names so
//! downstream users can depend on a single crate:
//!
//! * [`core`] — the NURD algorithm (Algorithm 1): propensity reweighting
//!   and distribution compensation.
//! * [`baselines`] — the full Table 3 roster (the paper's 23 methods plus
//!   the `NURD-WS` warm-refit row), every baseline model included.
//! * [`sim`] — the online replay protocol, metrics, and the mitigation
//!   schedulers of Algorithms 2 and 3.
//! * [`mitigate`] — score-driven straggler mitigation on top of
//!   [`serve`]: policies ([`mitigate::threshold_mitigator`],
//!   [`mitigate::oracle_mitigator`], …) turn per-barrier scores into typed
//!   actions, and the [`mitigate::run_fleet`] harness prices the
//!   committed action log in JCT and wasted work via
//!   [`sim::execute_actions`].
//! * [`health`] — the Guard-style node-health manager:
//!   [`health::HealthAggregator`] attaches to the engine as a
//!   [`serve::HealthObserver`], folds per-node straggler truth into
//!   rolling rates, and renders [`health::NodeVerdict`]s that the
//!   node-aware policy turns into machine quarantines (the two-pass
//!   loop is [`mitigate::run_node_fleet`]).
//! * [`serve`] — the concurrent streaming prediction service: producers
//!   push from any thread through cloneable `EngineHandle`s into
//!   per-shard MPSC ingress queues, a background drain service scores
//!   and finalizes jobs mid-stream under back-pressure (blocking sends
//!   under `Block`) with adaptive shard balancing, bit-for-bit equal to
//!   sequential replay (see `docs/OPERATIONS.md` for running it).
//! * [`runtime`] — the dependency-free concurrency substrate behind
//!   [`serve`] and the parallel ML loops: fork-join thread pool,
//!   bounded MPSC `Channel`, park/unpark `Notifier`.
//! * [`trace`] — the synthetic Google/Alibaba-style trace substrate,
//!   including interleaved multi-job event streams
//!   (`trace::staggered_fleet_events`, `trace::interleave_events`).
//! * [`data`], [`ml`], [`linalg`] — the substrates everything above is
//!   built from.
//!
//! `ARCHITECTURE.md` at the repository root maps paper sections to these
//! crates, diagrams the online replay loop, and documents the warm-start
//! refit subsystem ([`core::RefitPolicy`] / [`core::WarmRefitState`]).
//!
//! # Example
//!
//! ```
//! use nurd::core::{NurdConfig, NurdPredictor};
//! use nurd::sim::{replay_job, ReplayConfig};
//! use nurd::trace::{SuiteConfig, TraceStyle};
//!
//! let config = SuiteConfig::new(TraceStyle::Google)
//!     .with_jobs(1)
//!     .with_task_range(60, 80)
//!     .with_checkpoints(10)
//!     .with_seed(42);
//! let job = nurd::trace::generate_job(&config, 0);
//! let mut predictor = NurdPredictor::new(NurdConfig::default());
//! let outcome = replay_job(&job, &mut predictor, &ReplayConfig::default());
//! assert_eq!(outcome.confusion.total(), job.task_count());
//! ```
//!
//! See `ARCHITECTURE.md` for the system inventory and the paper section →
//! code map, and `crates/bench/README.md` for the experiment harness (the
//! `repro` command, one subcommand per table, figure and ablation).

#![forbid(unsafe_code)]

pub use nurd_baselines as baselines;
pub use nurd_core as core;
pub use nurd_data as data;
pub use nurd_health as health;
pub use nurd_linalg as linalg;
pub use nurd_mitigate as mitigate;
pub use nurd_ml as ml;
pub use nurd_runtime as runtime;
pub use nurd_serve as serve;
pub use nurd_sim as sim;
pub use nurd_trace as trace;
