//! The closed-loop fleet harness: traces → serving engine (scores →
//! policy → committed action log) → deterministic simulator → metrics.
//!
//! [`run_fleet`] is the one call the property suite, the bench sweep, and
//! the `mitigation_smoke` example all share. Determinism end to end: the
//! trace generator, the engine's per-job streams, every shipped policy,
//! and the simulator are all seed-deterministic, so the whole run — down
//! to the canonical action log — is bit-identical across shard counts.

use std::collections::BTreeMap;
use std::sync::Arc;

use nurd_core::{NurdConfig, NurdPredictor};
use nurd_data::{ActionRecord, JobSpec, JobTrace};
use nurd_health::{HealthAggregator, HealthConfig, NodeVerdict};
use nurd_serve::{
    EngineConfig, EngineService, HealthObserver, JobReport, MitigatorFactory, PredictorFactory,
    ServiceConfig,
};
use nurd_sim::{
    execute_actions, summarize_mitigation, MitigationOutcome, MitigationSimConfig,
    MitigationSummary,
};

use crate::policies::node_aware_mitigator;

/// Knobs for one [`run_fleet`] pass.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Engine shard count. Changes wall-clock only — the run's outputs,
    /// action log included, are identical at any value.
    pub shards: usize,
    /// Per-job straggler-threshold quantile (the paper's p90 at `0.9`).
    pub threshold_quantile: f64,
    /// Warmup quorum fraction before predictions start (the paper's 4%).
    pub warmup_fraction: f64,
    /// Arrival spread for the staggered fleet stream (`0.0` =
    /// simultaneous arrivals).
    pub spread: f64,
    /// Seed for the fleet stream's arrival stagger.
    pub stream_seed: u64,
    /// Simulator seed (clone/relaunch duration sampling).
    pub sim: MitigationSimConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 4,
            threshold_quantile: 0.9,
            warmup_fraction: 0.04,
            spread: 120.0,
            stream_seed: 0xF1EE7,
            sim: MitigationSimConfig::default(),
        }
    }
}

/// Everything one closed-loop fleet pass produced.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// Per-job engine reports, job-id order.
    pub reports: Vec<JobReport>,
    /// The canonical fleet action log: each job's committed actions in
    /// decision order, jobs concatenated in job-id order. This is the
    /// artifact the bit-identical-across-shard-counts property compares.
    pub action_log: Vec<ActionRecord>,
    /// Per-job simulator outcomes, job-id order.
    pub outcomes: Vec<MitigationOutcome>,
    /// Fleet-level aggregation of `outcomes`.
    pub summary: MitigationSummary,
}

/// The harness's stock predictor factory: a fresh default-configured
/// [`NurdPredictor`] per job.
#[must_use]
pub fn nurd_predictor_factory() -> PredictorFactory {
    Box::new(|_spec: &JobSpec| Box::new(NurdPredictor::new(NurdConfig::default())))
}

/// Runs the whole loop once: serves `jobs` as a staggered fleet stream
/// through an [`EngineService`] (the engine operators deploy, drain
/// workers and all) with `mitigator` attached (`None` = the
/// no-mitigation baseline — not even a no-op policy, so the
/// engine takes its zero-overhead `predict` path), then executes every
/// job's committed action log in the simulator and aggregates.
///
/// # Panics
///
/// Panics if `jobs` is empty or a served job's report goes missing (both
/// indicate harness bugs, not workload conditions).
#[must_use]
pub fn run_fleet(
    jobs: &[JobTrace],
    mitigator: Option<MitigatorFactory>,
    config: &FleetConfig,
) -> FleetRun {
    run_fleet_observed(jobs, mitigator, None, config)
}

/// [`run_fleet`] with an optional [`HealthObserver`] attached before any
/// event is pushed — the observation pass of [`run_node_fleet`].
/// Attaching an observer is bit-invisible to the run's outputs (the
/// engine contract); it only fills the observer.
fn run_fleet_observed(
    jobs: &[JobTrace],
    mitigator: Option<MitigatorFactory>,
    observer: Option<Arc<dyn HealthObserver>>,
    config: &FleetConfig,
) -> FleetRun {
    assert!(!jobs.is_empty(), "fleet needs at least one job");
    let service = EngineService::start(
        EngineConfig {
            shards: config.shards,
            warmup_fraction: config.warmup_fraction,
            ..EngineConfig::default()
        },
        ServiceConfig::default(),
        nurd_predictor_factory(),
    );
    if let Some(mitigator) = mitigator {
        assert!(service.attach_mitigator(mitigator), "fresh engine");
    }
    if let Some(observer) = observer {
        assert!(service.attach_observer(observer), "fresh engine");
    }
    let events = nurd_trace::staggered_fleet_events(
        jobs,
        config.threshold_quantile,
        config.spread,
        config.stream_seed,
    );
    service.push_all(events);
    let report = service.close();

    let mut sorted: Vec<&JobTrace> = jobs.iter().collect();
    sorted.sort_by_key(|job| job.job_id());
    let outcomes: Vec<MitigationOutcome> = sorted
        .iter()
        .map(|job| {
            let reported = report.job(job.job_id()).expect("served job reported");
            execute_actions(
                job,
                job.straggler_threshold(config.threshold_quantile),
                &reported.actions,
                &config.sim,
            )
        })
        .collect();
    let action_log = report
        .jobs
        .iter()
        .flat_map(|r| r.actions.iter().copied())
        .collect();
    let summary = summarize_mitigation(&outcomes);
    FleetRun {
        reports: report.jobs,
        action_log,
        outcomes,
        summary,
    }
}

/// Knobs for the two-pass [`run_node_fleet`].
#[derive(Debug, Clone)]
pub struct NodeFleetConfig {
    /// The shared fleet knobs. Set
    /// [`MitigationSimConfig::node_resample`] here to price quarantines
    /// with node-correlated resampling (both passes use the same sim
    /// config, so comparisons stay apples-to-apples).
    pub fleet: FleetConfig,
    /// The aggregator's rate folding and verdict boundaries.
    pub health: HealthConfig,
    /// Clone threshold for healthy-node (and placement-less) tasks.
    pub score_threshold: f64,
    /// Lowered clone threshold for [`NodeVerdict::Watch`]-node tasks.
    pub watch_threshold: f64,
    /// Per-job clone budget for the mitigation pass.
    pub clone_budget: Option<usize>,
}

impl Default for NodeFleetConfig {
    fn default() -> Self {
        NodeFleetConfig {
            fleet: FleetConfig {
                sim: MitigationSimConfig {
                    node_resample: true,
                    ..MitigationSimConfig::default()
                },
                ..FleetConfig::default()
            },
            health: HealthConfig::default(),
            score_threshold: 1.0,
            watch_threshold: 0.6,
            clone_budget: Some(8),
        }
    }
}

/// Everything the two-pass node-health loop produced.
#[derive(Debug)]
pub struct NodeFleetRun {
    /// The aggregator after the observation pass — read
    /// [`HealthAggregator::rates`] for the full per-node statistics.
    pub aggregator: Arc<HealthAggregator>,
    /// The verdict map frozen between the passes (what the mitigation
    /// pass's node-aware policy consulted).
    pub verdicts: BTreeMap<u32, NodeVerdict>,
    /// Pass 1: observation only (no mitigator) — also the unmitigated
    /// baseline for pricing pass 2.
    pub observed: FleetRun,
    /// Pass 2: the node-aware policy over the frozen verdicts.
    pub mitigated: FleetRun,
}

/// The closed **node-health** loop, two passes over the same fleet:
///
/// 1. **Observe** — serve the jobs with a fresh [`HealthAggregator`]
///    attached as the engine's [`HealthObserver`] and no mitigator; every
///    finalized job feeds per-node straggler truth into the aggregator.
/// 2. **Freeze & mitigate** — freeze [`HealthAggregator::verdicts`] into
///    a node-aware policy and serve the same fleet again,
///    quarantining convicted machines' tasks and cloning the rest by
///    score; the committed log is priced by the simulator.
///
/// Freezing between passes (rather than reading the live aggregator
/// mid-run) is what keeps the mitigation pass's action log bit-identical
/// across shard counts — see `NodeAwarePolicy` in `policies.rs`. Both
/// passes are seed-deterministic, so the whole `NodeFleetRun` is too.
#[must_use]
pub fn run_node_fleet(jobs: &[JobTrace], config: &NodeFleetConfig) -> NodeFleetRun {
    let aggregator = Arc::new(HealthAggregator::new(config.health.clone()));
    let observed = run_fleet_observed(
        jobs,
        None,
        Some(Arc::clone(&aggregator) as Arc<dyn HealthObserver>),
        &config.fleet,
    );
    let verdicts = aggregator.verdicts();
    let mitigated = run_fleet(
        jobs,
        Some(node_aware_mitigator(
            verdicts.clone(),
            config.score_threshold,
            config.watch_threshold,
            config.clone_budget,
        )),
        &config.fleet,
    );
    NodeFleetRun {
        aggregator,
        verdicts,
        observed,
        mitigated,
    }
}
