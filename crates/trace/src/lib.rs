//! Synthetic production-trace substrate for the NURD reproduction.
//!
//! The paper evaluates on the Google 2011 and Alibaba 2017/2018 cluster
//! traces, which cannot ship with this repository. This crate generates
//! synthetic traces that preserve the properties the paper's evaluation
//! exercises (see `ARCHITECTURE.md` for the paper section → code map):
//!
//! * **p90 stragglers** — the top latency decile per job, with a
//!   controllable gap above the body;
//! * **heterogeneous latency shapes** — long-tailed jobs (straggler latency
//!   far above the threshold, Figure 1 left) and close-tailed jobs
//!   (threshold above half the maximum latency, Figure 1 right);
//! * **cause-dependent feature signatures** — machine interference shows in
//!   CPU/CPI features, data skew in memory/disk features, evictions in
//!   counter features, and *opaque* stragglers show nothing;
//! * **feature-space decoys** — bursty but fast tasks that fool pure
//!   outlier detection;
//! * **weaker Alibaba features** — only 4 columns, hiding eviction and
//!   microarchitectural signals entirely.
//!
//! # Example
//!
//! ```
//! use nurd_trace::{SuiteConfig, TraceStyle};
//!
//! let config = SuiteConfig::new(TraceStyle::Google).with_jobs(2).with_seed(7);
//! let jobs = nurd_trace::generate_suite(&config);
//! assert_eq!(jobs.len(), 2);
//! assert_eq!(jobs[0].feature_dim(), 15);
//! ```

#![forbid(unsafe_code)]

mod config;
mod dist;
mod features;
mod fleet;
mod generator;
mod latency;
mod node;
mod parallel;

pub use config::{CauseMix, SuiteConfig, TraceStyle};
pub use features::{ALIBABA_FEATURES, GOOGLE_FEATURES};
pub use fleet::{interleave_events, producer_streams, staggered_fleet_events};
pub use generator::{generate_job, generate_job_detailed, generate_suite};
pub use latency::{StragglerCause, TaskPlan};
pub use node::{NodeModel, NodeModelConfig};
