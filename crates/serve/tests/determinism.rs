//! The engine's determinism contract, end to end:
//!
//! 1. **Engine ≡ sequential replay** — every job's [`nurd_sim::ReplayOutcome`]
//!    out of the engine is bit-for-bit the outcome of
//!    `nurd_sim::replay_job` on the same trace with the same predictor
//!    configuration (NURD itself, warm and cold policies alike).
//! 2. **Shard-count invariance** — shards {1, 2, 8} produce identical
//!    [`nurd_serve::EngineReport`]s.
//! 3. **Interleaving invariance** — any random merge of the per-job
//!    event streams (per-job order preserved) produces the identical
//!    report, as does any drain batching (a worker pops at most what a
//!    shard's queue holds, so `EngineConfig::queue_capacity` bounds the
//!    batch; `drain_workers`; where the producer stops to quiesce).
//! 4. **Lifecycle invariance** — all of the above survive *streaming*
//!    operation: jobs admitted mid-stream by their `JobStart`, finalized
//!    individually by `JobEnd`/stream completion, reports taken
//!    mid-stream — at staggered, seeded arrival/departure orders.

use nurd_core::{NurdConfig, NurdPredictor, RefitPolicy, WarmRefitConfig};
use nurd_data::{job_stream, JobSpec, TaskEvent};
use nurd_serve::{
    EngineConfig, EngineReport, EngineService, JobReport, PredictorFactory, ServiceConfig,
};
use nurd_sim::{replay_job, ReplayConfig};
use nurd_trace::{SuiteConfig, TraceStyle};
use proptest::prelude::*;

const QUANTILE: f64 = 0.9;
const WARMUP: f64 = 0.04;

fn suite(seed: u64, jobs: usize) -> Vec<nurd_data::JobTrace> {
    let cfg = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(jobs)
        .with_task_range(50, 70)
        .with_checkpoints(8)
        .with_seed(seed);
    nurd_trace::generate_suite(&cfg)
}

fn nurd_factory(policy: RefitPolicy) -> PredictorFactory {
    Box::new(move |_spec: &JobSpec| {
        Box::new(NurdPredictor::new(
            NurdConfig::default().with_refit_policy(policy.clone()),
        ))
    })
}

fn start(
    shards: usize,
    queue_capacity: Option<usize>,
    service: ServiceConfig,
    policy: &RefitPolicy,
) -> EngineService {
    EngineService::start(
        EngineConfig {
            shards,
            warmup_fraction: WARMUP,
            queue_capacity,
            ..EngineConfig::default()
        },
        service,
        nurd_factory(policy.clone()),
    )
}

fn run_engine(events: Vec<TaskEvent>, shards: usize, policy: &RefitPolicy) -> EngineReport {
    let service = start(shards, None, ServiceConfig::default(), policy);
    service.push_all(events);
    service.close()
}

/// The fleet's canonical stream: every job arriving at once, ordered by
/// (time, job, sequence).
fn canonical(jobs: &[nurd_data::JobTrace]) -> Vec<TaskEvent> {
    nurd_trace::staggered_fleet_events(jobs, QUANTILE, 0.0, 0)
}

fn warm_policy() -> RefitPolicy {
    RefitPolicy::Warm(WarmRefitConfig::default())
}

#[test]
fn engine_report_equals_sequential_replay_for_warm_and_cold_nurd() {
    let jobs = suite(0x5EED, 3);
    let replay_cfg = ReplayConfig {
        quantile: QUANTILE,
        warmup_fraction: WARMUP,
    };
    for policy in [RefitPolicy::AlwaysCold, warm_policy()] {
        let report = run_engine(canonical(&jobs), 4, &policy);
        assert_eq!(report.jobs.len(), jobs.len());
        for job in &jobs {
            let mut reference =
                NurdPredictor::new(NurdConfig::default().with_refit_policy(policy.clone()));
            let expected = replay_job(job, &mut reference, &replay_cfg);
            let got = report.job(job.job_id()).expect("job reported");
            assert_eq!(
                got.outcome,
                expected,
                "engine diverged from sequential replay on job {} under {policy:?}",
                job.job_id()
            );
        }
    }
}

#[test]
fn engine_actually_flags_stragglers() {
    // Guard against vacuous equality (both sides predicting nothing).
    let jobs = suite(0xACE, 4);
    let report = run_engine(canonical(&jobs), 2, &warm_policy());
    let flagged: usize = report
        .jobs
        .iter()
        .map(|r| r.outcome.flagged_at.iter().flatten().count())
        .sum();
    assert!(flagged > 0, "no task was ever flagged — test is vacuous");
    assert!(report.macro_f1() > 0.0);
    let scored: usize = report.jobs.iter().map(|r| r.checkpoints_scored).sum();
    assert!(scored >= jobs.len(), "predictors were never invoked");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Shard counts {1, 2, 8} and any random per-job-order-preserving
    /// interleaving yield the identical report; drain batching too.
    #[test]
    fn prop_report_invariant_to_shards_and_interleaving(
        seed in 0u64..500,
        shuffle_seed in 0u64..1000,
        batch_pick in 0usize..3,
        drain_workers in 1usize..3,
    ) {
        let jobs = suite(seed, 3);
        let policy = warm_policy();

        // Canonical time-ordered interleaving, 1 shard: the baseline.
        let canonical = canonical(&jobs);
        let baseline = run_engine(canonical.clone(), 1, &policy);

        // Same events, more shards.
        for shards in [2usize, 8] {
            let report = run_engine(canonical.clone(), shards, &policy);
            prop_assert_eq!(&report, &baseline, "shard count {} changed the report", shards);
        }

        // Random interleaving of the per-job streams.
        let streams: Vec<Vec<TaskEvent>> = jobs.iter().map(|j| job_stream(j, QUANTILE)).collect();
        let shuffled = nurd_trace::interleave_events(streams, shuffle_seed);
        let report = run_engine(shuffled.clone(), 8, &policy);
        prop_assert_eq!(&report, &baseline, "interleaving changed the report");

        // Small drain batches (a worker pops at most what the queue
        // holds), one or two workers, and a producer that stops to
        // quiesce between small pushes.
        let queue_capacity = [Some(1), Some(7), None][batch_pick];
        let service = start(2, queue_capacity, ServiceConfig { drain_workers }, &policy);
        for chunk in shuffled.chunks(97) {
            service.push_all(chunk.to_vec());
            service.quiesce();
        }
        prop_assert_eq!(&service.close(), &baseline, "drain batching changed the report");
    }

    /// The determinism contract re-proven for the *streaming* lifecycle:
    /// jobs arrive mid-stream (`JobStart` at staggered, seeded offsets),
    /// end individually (`JobEnd` / stream completion), and reports are
    /// taken mid-stream — yet every job's `ReplayOutcome` stays
    /// bit-for-bit the sequential `replay_job` result, across shard
    /// counts {1, 2, 8} and seeded interleavings.
    #[test]
    fn prop_streaming_lifecycle_preserves_per_job_outcomes(
        seed in 0u64..500,
        stagger_seed in 0u64..1000,
    ) {
        let jobs = suite(seed, 3);
        let policy = warm_policy();
            let replay_cfg = ReplayConfig { quantile: QUANTILE, warmup_fraction: WARMUP };

        // Sequential reference, one isolated replay per job.
        let expected: Vec<(u64, nurd_sim::ReplayOutcome)> = jobs
            .iter()
            .map(|job| {
                let mut reference =
                    NurdPredictor::new(NurdConfig::default().with_refit_policy(policy.clone()));
                (job.job_id(), replay_job(job, &mut reference, &replay_cfg))
            })
            .collect();

        // Two streaming workload shapes: a seeded staggered-arrival merge
        // (spread far beyond any job's duration, so arrivals and
        // departures genuinely overlap mid-stream) and a seeded random
        // merge of the lifecycle-bracketed per-job streams.
        let staggered = nurd_trace::staggered_fleet_events(&jobs, QUANTILE, 1e5, stagger_seed);
        let shuffled = nurd_trace::interleave_events(
            jobs.iter().map(|j| job_stream(j, QUANTILE)).collect(),
            stagger_seed,
        );

        let mut baseline: Option<Vec<JobReport>> = None;
        for (stream, shards) in [
            (&staggered, 1usize),
            (&staggered, 2),
            (&staggered, 8),
            (&shuffled, 8),
        ] {
            let service = start(shards, None, ServiceConfig::default(), &policy);
            // Chunked pushes with mid-stream report taking — the
            // long-lived-service usage pattern.
            let mut reports: Vec<JobReport> = Vec::new();
            for chunk in stream.chunks(137) {
                service.push_all(chunk.to_vec());
                service.quiesce();
                reports.extend(service.take_finalized());
            }
            reports.extend(service.close().jobs);
            reports.sort_by_key(|r| r.job);
            prop_assert_eq!(reports.len(), jobs.len(), "every job reported exactly once");

            for (job_id, outcome) in &expected {
                let got = reports.iter().find(|r| r.job == *job_id).expect("job reported");
                prop_assert_eq!(
                    &got.outcome,
                    outcome,
                    "streaming engine diverged from sequential replay on job {} at {} shards",
                    job_id,
                    shards
                );
            }
            // Full per-job reports (scored counts, finalize reasons)
            // are themselves invariant across shard counts and merges.
            match &baseline {
                Some(base) => prop_assert_eq!(&reports, base, "{} shards changed reports", shards),
                None => baseline = Some(reports),
            }
        }
    }
}
