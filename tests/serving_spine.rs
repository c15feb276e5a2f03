//! Tier-1's share of the serving spine: **served ≡ sequential
//! `replay_job`**, under real producer threads and across a crash.
//!
//! Two properties hoisted from `crates/serve/tests/` (which `cargo test
//! -q` alone does not run), cut down to what fits the tier-1 minute:
//!
//! 1. three producers on a saturated capacity-16 `Block` queue, at shard
//!    counts {1, 2, 8} (`service.rs` adds lifecycle races, panics and
//!    balancing around it);
//! 2. a persistent service whose WAL dies at a random record budget,
//!    sometimes mid-record, recovered and resumed from
//!    `RecoverReport::events_seen` (`recovery.rs` adds mid-run snapshots,
//!    a bit-flipped newest snapshot and history-mode predictors).

use std::collections::BTreeMap;
use std::path::PathBuf;

use nurd::core::{NurdConfig, NurdPredictor, RefitPolicy, WarmRefitConfig};
use nurd::data::{JobSpec, JobTrace, TaskEvent};
use nurd::serve::{
    EngineConfig, EngineService, FaultInjector, FsyncPolicy, JobReport, OverloadPolicy,
    PersistenceConfig, PredictorFactory, ServiceConfig,
};
use nurd::sim::{replay_job, ReplayConfig, ReplayOutcome};
use nurd::trace::{SuiteConfig, TraceStyle};
use proptest::prelude::*;

const QUANTILE: f64 = 0.9;
const WARMUP: f64 = 0.04;
const PRODUCERS: usize = 3;
const SERVICE: ServiceConfig = ServiceConfig {
    drain_workers: 2,
    drain_batch: 8,
};

fn policy() -> RefitPolicy {
    RefitPolicy::Warm(WarmRefitConfig::default())
}

fn predictor() -> NurdPredictor {
    NurdPredictor::new(NurdConfig::default().with_refit_policy(policy()))
}

fn factory() -> PredictorFactory {
    Box::new(|_spec: &JobSpec| Box::new(predictor()))
}

/// A 3-job fleet and what an isolated sequential replay of each job says.
fn fleet(seed: u64) -> (Vec<JobTrace>, Vec<(u64, ReplayOutcome)>) {
    let cfg = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(3)
        .with_task_range(50, 70)
        .with_checkpoints(8)
        .with_seed(seed);
    let jobs = nurd::trace::generate_suite(&cfg);
    let replay_cfg = ReplayConfig {
        quantile: QUANTILE,
        warmup_fraction: WARMUP,
    };
    let expected = jobs
        .iter()
        .map(|job| (job.job_id(), replay_job(job, &mut predictor(), &replay_cfg)))
        .collect();
    (jobs, expected)
}

/// Shards that hold at most 16 undrained events: producers sleep in the
/// send until the background drain makes room.
fn saturated(shards: usize) -> EngineConfig {
    EngineConfig {
        shards,
        warmup_fraction: WARMUP,
        queue_capacity: Some(16),
        overload: OverloadPolicy::Block,
        balance: None,
    }
}

/// Pushes each stream on its own thread, skipping the first
/// `events_seen[job]` events of every job (what a recovered engine
/// already holds); returns how many events went in.
fn run_producers(
    service: &EngineService,
    streams: &[Vec<TaskEvent>],
    events_seen: &BTreeMap<u64, u64>,
) -> usize {
    std::thread::scope(|scope| {
        let producers: Vec<_> = streams
            .iter()
            .map(|stream| {
                let handle = service.handle();
                scope.spawn(move || {
                    let mut position: BTreeMap<u64, u64> = BTreeMap::new();
                    let mut pushed = 0;
                    for event in stream {
                        let slot = position.entry(event.job()).or_insert(0);
                        *slot += 1;
                        if *slot <= events_seen.get(&event.job()).copied().unwrap_or(0) {
                            continue;
                        }
                        assert!(handle.push(event.clone()), "Block rejected an event");
                        pushed += 1;
                    }
                    pushed
                })
            })
            .collect();
        producers.into_iter().map(|p| p.join().unwrap()).sum()
    })
}

/// Closes the service and holds its reports — mid-stream
/// `take_finalized` plus the `close()` remainder — to `expected`.
fn assert_served_equals_sequential(
    service: &EngineService,
    expected: &[(u64, ReplayOutcome)],
    context: &str,
) {
    let mut reports: Vec<JobReport> = service.take_finalized();
    let report = service.close();
    assert_eq!(report.overload.lost_events(), 0, "{context}: Block lost");
    reports.extend(report.jobs);
    assert_eq!(reports.len(), expected.len(), "{context}: one report a job");
    for (job, outcome) in expected {
        let got = reports.iter().find(|r| r.job == *job);
        let got = got.unwrap_or_else(|| panic!("{context}: job {job} not reported"));
        assert_eq!(&got.outcome, outcome, "{context}: job {job} diverged");
    }
}

fn scratch_dir(shards: usize) -> PathBuf {
    let name = format!("nurd-spine-{}-{shards}", std::process::id());
    let dir = std::env::temp_dir().join(name);
    // A stale run's leftovers would change recovery's input.
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn prop_saturated_service_equals_sequential_replay(
        seed in 0u64..500,
        interleave_seed in 0u64..1000,
    ) {
        let (jobs, expected) = fleet(seed);
        let streams = nurd::trace::producer_streams(&jobs, PRODUCERS, QUANTILE, interleave_seed);
        let total: usize = streams.iter().map(Vec::len).sum();
        for shards in [1usize, 2, 8] {
            let service = EngineService::start(saturated(shards), SERVICE, factory());
            let pushed = run_producers(&service, &streams, &BTreeMap::new());
            prop_assert_eq!(pushed, total);
            assert_served_equals_sequential(&service, &expected, &format!("{shards} shards"));
        }
    }

    #[test]
    fn prop_restart_at_a_random_wal_budget_equals_uninterrupted(
        seed in 0u64..200,
        interleave_seed in 0u64..1000,
        crash_budget in 0u64..600,
        torn_tail in 0u8..2,
    ) {
        let (jobs, expected) = fleet(seed);
        let streams = nurd::trace::producer_streams(&jobs, PRODUCERS, QUANTILE, interleave_seed);
        let total: u64 = streams.iter().map(|s| s.len() as u64).sum();
        for shards in [1usize, 2, 8] {
            let dir = scratch_dir(shards);
            let fault = FaultInjector::crash_after_wal_records(crash_budget);
            let fault = if torn_tail == 1 { fault.with_torn_tail() } else { fault };
            // Always-fsync makes "durable" mean "admitted by the
            // injector": the crash point is exactly the record budget.
            let mut persistence = PersistenceConfig::new(&dir);
            persistence.fsync = FsyncPolicy::Always;
            persistence.fault = Some(fault);
            let doomed =
                EngineService::start_persistent(saturated(shards), SERVICE, persistence, factory())
                    .unwrap();
            run_producers(&doomed, &streams, &BTreeMap::new());
            doomed.quiesce();
            drop(doomed); // the crash: no close(), no shutdown snapshot

            let (revived, recover) = EngineService::recover(
                PersistenceConfig::new(&dir),
                saturated(shards),
                SERVICE,
                factory(),
            )
            .unwrap();
            let durable: u64 = recover.events_seen.values().sum();
            prop_assert!(
                (crash_budget.min(total)..=total).contains(&durable),
                "{durable} durable events of {total} at budget {crash_budget}"
            );
            run_producers(&revived, &streams, &recover.events_seen);
            let context = format!("{shards} shards, budget {crash_budget}, torn {torn_tail}");
            assert_served_equals_sequential(&revived, &expected, &context);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
