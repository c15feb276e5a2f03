//! Mitigation edge cases at the seams between engine, policy, and
//! simulator:
//!
//! * a clone whose target finished before the clone could start is void
//!   and free;
//! * a policy that ignores its own clone budget is reined in by the
//!   engine mid-barrier;
//! * `JobEnd` arriving with clones "in flight" still finalizes cleanly
//!   and preserves the committed action log;
//! * a mitigator attached through crash recovery produces exactly the
//!   action log of a never-crashed run.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use nurd_data::{
    job_stream, ActionRecord, BarrierView, JobTrace, MitigationAction, MitigationPolicy, TaskEvent,
};
use nurd_mitigate::{oracle_mitigator, run_fleet, threshold_mitigator, FleetConfig};
use nurd_serve::{
    EngineConfig, EngineService, JobReport, MitigatorFactory, PersistenceConfig, ServiceConfig,
};
use nurd_sim::{execute_actions, MitigationSimConfig};
use nurd_trace::{SuiteConfig, TraceStyle};

const QUANTILE: f64 = 0.9;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("nurd-mitigate-{tag}-{}-{seq}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn suite(seed: u64, jobs: usize) -> Vec<JobTrace> {
    let cfg = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(jobs)
        .with_task_range(40, 60)
        .with_checkpoints(8)
        .with_seed(seed);
    nurd_trace::generate_suite(&cfg)
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        shards: 2,
        ..EngineConfig::default()
    }
}

fn service_config() -> ServiceConfig {
    ServiceConfig { drain_workers: 2 }
}

fn nurd_factory() -> nurd_serve::PredictorFactory {
    nurd_mitigate::nurd_predictor_factory()
}

#[test]
fn clone_for_a_task_that_finished_first_is_void_and_free() {
    // The engine only actions running tasks, so this log can only come
    // from a buggy or stale source — the simulator must still execute it
    // safely: no cost, no double completion, original latency stands.
    let job = &suite(0xF117, 1)[0];
    let threshold = job.straggler_threshold(QUANTILE);
    let latencies = job.latencies();
    let (fastest, &fastest_latency) = latencies
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .expect("non-empty job");
    let stale = ActionRecord {
        job: job.job_id(),
        ordinal: 0,
        time: fastest_latency + 1.0, // after the task already finished
        task: fastest,
        action: MitigationAction::Clone,
    };
    let out = execute_actions(job, threshold, &[stale], &MitigationSimConfig::default());
    assert_eq!(out.void_actions, 1);
    assert_eq!(out.clones_issued, 0);
    assert_eq!(out.wasted_work, 0.0);
    assert_eq!(out.completions[fastest].time, fastest_latency);
    assert!(!out.completions[fastest].via_mitigation);
    assert_eq!(out.jct_mitigated, out.jct_baseline);
}

/// Declares a budget of 1 but proposes a clone for *every* scored task
/// at every barrier — the engine's per-job budget enforcement has to
/// suppress everything past the first, mid-barrier.
struct GreedyPolicy;

impl MitigationPolicy for GreedyPolicy {
    fn name(&self) -> &str {
        "greedy"
    }

    fn clone_budget(&self) -> Option<usize> {
        Some(1)
    }

    fn decide(&mut self, view: &BarrierView<'_>) -> Vec<(usize, MitigationAction)> {
        view.scores
            .iter()
            .map(|s| (s.task, MitigationAction::Clone))
            .collect()
    }
}

#[test]
fn engine_enforces_clone_budget_mid_barrier_against_a_greedy_policy() {
    let jobs = suite(0xB0D9, 3);
    let greedy: MitigatorFactory = Box::new(|_spec| Box::new(GreedyPolicy));
    let run = run_fleet(&jobs, Some(greedy), &FleetConfig::default());
    for report in &run.reports {
        let clones = report
            .actions
            .iter()
            .filter(|a| a.action == MitigationAction::Clone)
            .count();
        assert!(
            clones <= 1,
            "job {}: budget 1 but {clones} clones committed",
            report.job
        );
    }
    // The budget bound actually bit: a greedy policy on a real fleet
    // proposes far more than one clone per job.
    assert!(run.reports.iter().any(|r| !r.actions.is_empty()));

    // And the honest threshold policy respects a larger budget the same
    // way, without engine suppression having to step in.
    let run = run_fleet(
        &jobs,
        Some(threshold_mitigator(0.5, Some(3))),
        &FleetConfig::default(),
    );
    for report in &run.reports {
        assert!(report.actions.len() <= 3, "job {}", report.job);
    }
}

#[test]
fn job_end_with_clones_in_flight_finalizes_cleanly() {
    let job = &suite(0xE2D, 1)[0];
    let full = job_stream(job, QUANTILE);
    // Cut the stream right after its third barrier — actions committed
    // there are still "in flight" (their targets unresolved) — and end
    // the job on the spot.
    let mut barriers = 0;
    let mut events: Vec<TaskEvent> = Vec::new();
    let mut cut_time = 0.0;
    for event in full {
        let barrier_time = match event {
            TaskEvent::Barrier { time, .. } => Some(time),
            TaskEvent::JobEnd { .. } => break,
            _ => None,
        };
        events.push(event);
        if let Some(time) = barrier_time {
            barriers += 1;
            cut_time = time;
            if barriers == 3 {
                break;
            }
        }
    }
    events.push(TaskEvent::JobEnd {
        job: job.job_id(),
        time: cut_time,
    });

    let service = EngineService::start(engine_config(), service_config(), nurd_factory());
    assert!(service.attach_mitigator(oracle_mitigator(std::slice::from_ref(job), QUANTILE)));
    assert_eq!(service.push_all(events.iter().cloned()), events.len());
    let report = service.close();
    let job_report = report.job(job.job_id()).expect("finalized by JobEnd");
    assert_eq!(job_report.finalized, nurd_serve::FinalizeReason::JobEnd);

    // The committed action log survives finalization and executes to a
    // complete, duplicate-free ledger even though the stream was cut.
    let out = execute_actions(
        job,
        job.straggler_threshold(QUANTILE),
        &job_report.actions,
        &MitigationSimConfig::default(),
    );
    assert_eq!(out.completions.len(), job.task_count());
    assert!(out.jct_mitigated <= out.jct_baseline);
}

fn sorted_actions(reports: &[JobReport]) -> Vec<ActionRecord> {
    reports.iter().flat_map(|r| r.actions.clone()).collect()
}

#[test]
fn recovered_service_decides_exactly_like_a_never_crashed_one() {
    let jobs = suite(0x2EC0, 3);
    let events = nurd_trace::staggered_fleet_events(&jobs, QUANTILE, 120.0, 7);

    // Reference: one uninterrupted mitigated service.
    let reference = EngineService::start(engine_config(), service_config(), nurd_factory());
    assert!(reference.attach_mitigator(oracle_mitigator(&jobs, QUANTILE)));
    assert_eq!(reference.push_all(events.iter().cloned()), events.len());
    let expected = sorted_actions(&reference.close().jobs);
    assert!(!expected.is_empty(), "reference run never acted — vacuous");

    // Crashed-and-recovered: push a prefix, drop without close (the Drop
    // guard flushes WALs — a crash with a flushed tail), then recover
    // *with* the mitigator and push the rest.
    let dir = scratch_dir("recover");
    let persistence = PersistenceConfig {
        max_unsynced_events: 0,
        ..PersistenceConfig::new(&dir)
    };
    let service = EngineService::start_persistent(
        engine_config(),
        service_config(),
        persistence.clone(),
        nurd_factory(),
    )
    .unwrap();
    assert!(service.attach_mitigator(oracle_mitigator(&jobs, QUANTILE)));
    let split = events.len() / 2;
    assert_eq!(service.push_all(events[..split].iter().cloned()), split);
    service.quiesce();
    drop(service);

    let (service, recovered) = EngineService::recover_with_mitigator(
        persistence,
        engine_config(),
        service_config(),
        nurd_factory(),
        oracle_mitigator(&jobs, QUANTILE),
    )
    .unwrap();
    // Resume each job's stream past its durable prefix.
    let mut position: BTreeMap<u64, u64> = BTreeMap::new();
    for event in &events {
        let slot = position.entry(event.job()).or_insert(0);
        let index = *slot;
        *slot += 1;
        if index
            < recovered
                .events_seen
                .get(&event.job())
                .copied()
                .unwrap_or(0)
        {
            continue;
        }
        assert!(service.push(event.clone()), "push on recovered service");
    }
    let got = sorted_actions(&service.close().jobs);
    assert_eq!(
        got, expected,
        "recovery changed the action log — restart ≠ uninterrupted"
    );
    std::fs::remove_dir_all(&dir).ok();
}
