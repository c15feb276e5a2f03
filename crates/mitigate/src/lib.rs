//! `nurd-mitigate` — score-driven straggler **mitigation** on top of the
//! serving engine, closing the loop the paper's §5 schedulers open:
//! instead of replaying flags offline, the live engine's per-barrier
//! straggler scores feed a [`nurd_data::MitigationPolicy`] whose typed
//! actions ([`nurd_data::MitigationAction`]) are committed to a per-job
//! action log, and a deterministic simulator
//! ([`nurd_sim::execute_actions`]) executes that log against ground
//! truth to price the decisions in job-completion time and wasted work.
//!
//! The crate ships:
//!
//! * **Policies**, each behind a factory for
//!   [`nurd_serve::EngineService::attach_mitigator`] — [`noop_mitigator`]
//!   (the no-mitigation anchor), [`threshold_mitigator`] (score threshold
//!   with a per-job clone budget), [`oracle_mitigator`] (ground truth; the
//!   structural upper bound); the node-aware policy (quarantines tasks on
//!   machines a frozen [`nurd_health::HealthAggregator`] verdict map
//!   convicted) runs inside [`run_node_fleet`];
//! * **The fleet harness** — [`run_fleet`] drives traces through a
//!   [`nurd_serve::EngineService`] with a policy attached and sims the committed log, returning
//!   per-job [`nurd_sim::MitigationOutcome`]s, a fleet
//!   [`nurd_sim::MitigationSummary`], and the canonical action log;
//!   [`run_node_fleet`] is the two-pass node-health loop (observe with
//!   the aggregator attached → freeze verdicts → mitigate node-aware).
//!
//! Everything is seed-deterministic end to end; `tests/policy_properties.rs`
//! pins the load-bearing invariants (every task completes exactly once,
//! the oracle never loses to no-mitigation, the action log is
//! bit-identical at shard counts {1, 2, 8}).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod harness;
mod policies;

pub use harness::{
    nurd_predictor_factory, run_fleet, run_node_fleet, FleetConfig, FleetRun, NodeFleetConfig,
    NodeFleetRun,
};
pub use policies::{noop_mitigator, oracle_mitigator, threshold_mitigator};
