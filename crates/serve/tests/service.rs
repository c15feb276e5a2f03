//! The concurrent ingestion service, exercised with **real producer
//! threads** against the **background drain loop**:
//!
//! 1. The determinism contract in service mode — ≥ 2 producer threads
//!    pushing through cloned [`EngineHandle`]s into a *saturated* engine
//!    (tiny bounded queues, `Block` ⇒ true blocking sends), per-job
//!    [`nurd_sim::ReplayOutcome`]s bit-for-bit equal to sequential
//!    `replay_job`, across shard counts {1, 2, 8}, with zero lost
//!    events.
//! 2. Concurrent lifecycle edges: `JobStart`/`JobEnd` racing across
//!    producer threads, blocking-send wakeup under a saturated shard,
//!    and `close()` during in-flight pushes — all with zero
//!    lost/malformed events under `Block`.
//! 3. Adaptive shard balancing: a backlogged shard grants (and
//!    withdraws) within-job parallelism without changing any report.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};

use nurd_core::{NurdConfig, NurdPredictor, RefitPolicy, WarmRefitConfig};
use nurd_data::{Checkpoint, JobSpec, OnlinePredictor, TaskEvent};
use nurd_serve::{
    BalanceConfig, EngineConfig, EngineService, FinalizeReason, OverloadPolicy, PredictorFactory,
    ServiceConfig,
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

/// Flags every running task at its first scored checkpoint — cheap, so
/// saturation tests stress the transport, not the model.
struct FlagAll;
impl OnlinePredictor for FlagAll {
    fn name(&self) -> &str {
        "ALL"
    }
    fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
        checkpoint.running.iter().map(|r| r.id).collect()
    }
}

fn flag_all_factory() -> PredictorFactory {
    Box::new(|_| Box::new(FlagAll))
}

/// Round-robin job partition + per-producer seeded interleave — the
/// shared workload shape for concurrent ingestion.
fn producer_streams(
    jobs: &[nurd_data::JobTrace],
    producers: usize,
    interleave_seed: u64,
) -> Vec<Vec<TaskEvent>> {
    nurd_trace::producer_streams(jobs, producers, QUANTILE, interleave_seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// **The acceptance property.** Three real producer threads push a
    /// 3-job fleet through a service whose shards hold at most 16
    /// undrained events (`Block`: saturated producers sleep in the send
    /// until the background drain makes room — not an inline drain).
    /// Every job's `ReplayOutcome` is bit-for-bit the sequential
    /// `replay_job` result, at shard counts {1, 2, 8}; no event is lost.
    #[test]
    fn prop_service_mode_matches_sequential_replay_under_saturation(
        seed in 0u64..500,
        interleave_seed in 0u64..1000,
    ) {
        let jobs = suite(seed, 3);
        let policy = RefitPolicy::Warm(WarmRefitConfig::default());
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
        let total_events: usize = producer_streams(&jobs, 3, interleave_seed)
            .iter()
            .map(Vec::len)
            .sum();

        for shards in [1usize, 2, 8] {
            let service = EngineService::start(
                EngineConfig {
                    shards,
                    warmup_fraction: WARMUP,
                    queue_capacity: Some(16),
                    overload: OverloadPolicy::Block,
                    balance: None,
                },
                ServiceConfig { drain_workers: 2 },
                nurd_factory(policy.clone()),
            );
            let producers: Vec<_> = producer_streams(&jobs, 3, interleave_seed)
                .into_iter()
                .map(|stream| {
                    let handle = service.handle();
                    std::thread::spawn(move || handle.push_all(stream))
                })
                .collect();
            let accepted: usize = producers.into_iter().map(|p| p.join().unwrap()).sum();
            prop_assert_eq!(accepted, total_events, "Block rejected an event");

            // Mid-stream reports plus the close() remainder cover every
            // job exactly once.
            let mut reports = service.take_finalized();
            let report = service.close();
            prop_assert_eq!(report.overload.lost_events(), 0, "Block lost events");
            prop_assert_eq!(report.events, total_events, "event accounting broke");
            reports.extend(report.jobs);
            reports.sort_by_key(|r| r.job);
            prop_assert_eq!(reports.len(), jobs.len(), "every job reported exactly once");

            for (job_id, outcome) in &expected {
                let got = reports.iter().find(|r| r.job == *job_id).expect("job reported");
                prop_assert_eq!(
                    &got.outcome,
                    outcome,
                    "service mode diverged from sequential replay on job {} at {} shards",
                    job_id,
                    shards
                );
            }
        }
    }
}

#[test]
fn job_lifecycles_race_across_producers_without_loss() {
    // 16 jobs' full lifecycles (JobStart … JobEnd) pushed by 4 racing
    // producer threads — admissions and finalizations interleave freely
    // across shards while the service drains in the background.
    let service = EngineService::start(
        EngineConfig {
            shards: 4,
            queue_capacity: Some(8),
            overload: OverloadPolicy::Block,
            ..EngineConfig::default()
        },
        ServiceConfig { drain_workers: 2 },
        flag_all_factory(),
    );
    // Two declared checkpoints but only one barrier in the stream, so
    // the stream never self-completes: the explicit JobEnd must win.
    fn spec(job: u64) -> JobSpec {
        JobSpec {
            job,
            threshold: 10.0,
            task_count: 2,
            feature_dim: 1,
            checkpoints: 2,
        }
    }
    fn stream(job: u64) -> Vec<TaskEvent> {
        vec![
            TaskEvent::JobStart { spec: spec(job) },
            TaskEvent::Submitted { job, task: 0 },
            TaskEvent::Submitted { job, task: 1 },
            TaskEvent::Progress {
                job,
                task: 0,
                ordinal: 0,
                time: 1.0,
                features: vec![0.5],
            },
            TaskEvent::Barrier {
                job,
                ordinal: 0,
                time: 1.0,
            },
            TaskEvent::JobEnd { job, time: 2.0 },
        ]
    }
    let pushed = Arc::new(AtomicUsize::new(0));
    let producers: Vec<_> = (0..4u64)
        .map(|p| {
            let handle = service.handle();
            let pushed = Arc::clone(&pushed);
            std::thread::spawn(move || {
                for job in (p * 4)..(p * 4 + 4) {
                    for event in stream(job) {
                        assert!(handle.push(event), "push rejected under Block");
                        pushed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for producer in producers {
        producer.join().unwrap();
    }
    service.quiesce();
    let stats = service.stats();
    assert_eq!(stats.finalized_jobs, 16, "a lifecycle was lost in the race");
    assert_eq!(stats.orphan_events, 0);
    assert_eq!(stats.rejected_events, 0);
    // The final barrier (all of one task's events seen, but task 1 never
    // reported) does not complete the stream, so JobEnd finalizes.
    let report = service.close();
    assert_eq!(report.events, pushed.load(Ordering::Relaxed));
    assert_eq!(report.overload.lost_events(), 0);
    assert_eq!(report.jobs.len(), 16);
    for r in &report.jobs {
        assert_eq!(r.finalized, FinalizeReason::JobEnd);
    }
}

#[test]
fn blocked_producers_wake_and_lose_nothing_on_a_saturated_shard() {
    // One shard of capacity 2: every producer spends most of its life
    // asleep inside a blocking send; each drain batch must wake them.
    let service = EngineService::start(
        EngineConfig {
            shards: 1,
            queue_capacity: Some(2),
            overload: OverloadPolicy::Block,
            ..EngineConfig::default()
        },
        ServiceConfig { drain_workers: 1 },
        flag_all_factory(),
    );
    // Jobs with long event streams: 3 producers × 1 job × ~1200 events.
    let events_per_job = 1200usize;
    let producers: Vec<_> = (0..3u64)
        .map(|job| {
            let handle = service.handle();
            std::thread::spawn(move || {
                let mut accepted = handle.push(TaskEvent::JobStart {
                    spec: JobSpec {
                        job,
                        threshold: 1e9,
                        task_count: 1,
                        feature_dim: 1,
                        checkpoints: events_per_job,
                    },
                }) as usize;
                for ordinal in 0..events_per_job - 1 {
                    accepted += handle.push(TaskEvent::Progress {
                        job,
                        task: 0,
                        ordinal,
                        time: ordinal as f64,
                        features: vec![0.1],
                    }) as usize;
                }
                accepted
            })
        })
        .collect();
    let accepted: usize = producers.into_iter().map(|p| p.join().unwrap()).sum();
    assert_eq!(accepted, 3 * events_per_job, "a blocking send failed");
    let report = service.close();
    assert_eq!(report.events, 3 * events_per_job, "events vanished");
    assert_eq!(report.overload.lost_events(), 0);
    assert_eq!(report.jobs.len(), 3, "all jobs reported at close");
}

#[test]
fn close_during_in_flight_pushes_loses_no_accepted_event() {
    for round in 0..8u64 {
        let service = EngineService::start(
            EngineConfig {
                shards: 2,
                queue_capacity: Some(4),
                overload: OverloadPolicy::Block,
                ..EngineConfig::default()
            },
            ServiceConfig { drain_workers: 1 },
            flag_all_factory(),
        );
        let producers: Vec<_> = (0..3u64)
            .map(|p| {
                let job = round * 100 + p;
                let handle = service.handle();
                std::thread::spawn(move || {
                    let mut accepted = handle.push(TaskEvent::JobStart {
                        spec: JobSpec {
                            job,
                            threshold: 1e9,
                            task_count: 1,
                            feature_dim: 1,
                            checkpoints: 10_000,
                        },
                    }) as usize;
                    for ordinal in 0..5_000usize {
                        let ok = handle.push(TaskEvent::Progress {
                            job,
                            task: 0,
                            ordinal,
                            time: ordinal as f64,
                            features: vec![0.1],
                        });
                        if !ok {
                            // Closed mid-stream: every later push must
                            // fail too (no accept-after-reject holes in
                            // the per-job prefix).
                            assert!(
                                !handle.push(TaskEvent::JobEnd { job, time: 0.0 }),
                                "push accepted after the ingress closed"
                            );
                            break;
                        }
                        accepted += 1;
                    }
                    accepted
                })
            })
            .collect();
        // Close while the producers are mid-burst — some are asleep in a
        // blocking send right now and must wake with a clean rejection.
        std::thread::sleep(std::time::Duration::from_millis(3));
        let report = service.close();
        let accepted: usize = producers.into_iter().map(|p| p.join().unwrap()).sum();
        assert_eq!(
            report.events, accepted,
            "accepted events and applied events disagree after close"
        );
        assert_eq!(report.overload.lost_events(), 0);
    }
}

/// Panics at its first scored checkpoint — a buggy user predictor.
struct Bomb;
impl OnlinePredictor for Bomb {
    fn name(&self) -> &str {
        "BOMB"
    }
    fn predict(&mut self, _: &Checkpoint<'_>) -> Vec<usize> {
        panic!("predictor exploded");
    }
}

fn four_event_stream(job: u64) -> Vec<TaskEvent> {
    vec![
        TaskEvent::JobStart {
            spec: JobSpec {
                job,
                threshold: 1e9,
                task_count: 1,
                feature_dim: 1,
                checkpoints: 2,
            },
        },
        TaskEvent::Submitted { job, task: 0 },
        TaskEvent::Finished {
            job,
            task: 0,
            ordinal: 0,
            time: 1.0,
            features: vec![0.1],
            latency: 1.0,
        },
        TaskEvent::Barrier {
            job,
            ordinal: 0,
            time: 1.0,
        },
    ]
}

#[test]
fn predictor_panic_quarantines_the_job_not_the_service() {
    // One worker on one shard — the panic and its neighbors share a
    // drain — and two workers on two shards.
    predictor_panic_scenario(1, 1);
    predictor_panic_scenario(2, 2);
}

/// A drain-time predictor panic must be *contained*: the job is
/// finalized as [`FinalizeReason::Poisoned`] and counted, the drain
/// worker survives, unrelated jobs keep streaming, and `close()` returns
/// a normal report.
fn predictor_panic_scenario(shards: usize, drain_workers: usize) {
    let service = EngineService::start(
        EngineConfig {
            shards,
            queue_capacity: Some(4),
            overload: OverloadPolicy::Block,
            ..EngineConfig::default()
        },
        ServiceConfig { drain_workers },
        // Job 1 gets the bomb; every other job a healthy predictor.
        Box::new(|spec: &JobSpec| {
            if spec.job == 1 {
                Box::new(Bomb)
            } else {
                Box::new(FlagAll)
            }
        }),
    );
    let handle = service.handle();
    // The fourth event (the barrier) detonates job 1's predictor.
    for event in four_event_stream(1) {
        assert!(handle.push(event), "ingress must stay open");
    }
    service.quiesce();
    let stats = service.stats();
    assert_eq!(
        stats.poisoned_jobs, 1,
        "the panicking predictor must quarantine exactly its own job"
    );
    assert_eq!(service.job_phase(1), Some(nurd_serve::JobPhase::Finalized));
    // Post-quarantine events for the poisoned job are stale, not fatal.
    assert!(handle.push(TaskEvent::Progress {
        job: 1,
        task: 0,
        ordinal: 1,
        time: 2.0,
        features: vec![0.1],
    }));
    // An unrelated job admitted *after* the panic streams to a normal
    // finish through the same (still-alive) drain workers.
    for event in four_event_stream(2) {
        assert!(
            handle.push(event),
            "service must keep serving after a quarantine"
        );
    }
    assert!(handle.push(TaskEvent::Barrier {
        job: 2,
        ordinal: 1,
        time: 2.0,
    }));
    service.quiesce();
    assert!(
        service.stats().stale_events >= 1,
        "post-quarantine events must count stale"
    );
    // close() returns normally; the report records the quarantine.
    let report = service.close();
    let poisoned = report
        .jobs
        .iter()
        .find(|j| j.job == 1)
        .expect("poisoned job must still be reported");
    assert_eq!(
        poisoned.finalized,
        FinalizeReason::Poisoned,
        "at {shards} shards / {drain_workers} workers"
    );
    let healthy = report
        .jobs
        .iter()
        .find(|j| j.job == 2)
        .expect("healthy job must be reported");
    assert_eq!(healthy.finalized, FinalizeReason::StreamComplete);
}

#[test]
fn factory_panic_unblocks_producers_and_resurfaces_at_close() {
    // Admission (the factory call) is *not* quarantined — a panic there
    // means the service itself is broken, and the original worker-death
    // machinery must fire. One worker on one shard, then two on two (one
    // worker's death must break the whole service promptly; peers exit
    // on the failed flag).
    factory_panic_scenario(1, 1);
    factory_panic_scenario(2, 2);
}

fn factory_panic_scenario(shards: usize, drain_workers: usize) {
    let service = EngineService::start(
        EngineConfig {
            shards,
            queue_capacity: Some(4),
            overload: OverloadPolicy::Block,
            ..EngineConfig::default()
        },
        ServiceConfig { drain_workers },
        Box::new(|_| -> Box<dyn OnlinePredictor + Send> { panic!("factory exploded") }),
    );
    // The producer's first event (the admission) detonates the factory;
    // the producer then keeps pushing into a capacity-4 queue that no
    // one will ever drain again. The dying service must close the
    // ingress so the blocked sends come back rejected instead of
    // sleeping forever.
    let producer = {
        let handle = service.handle();
        std::thread::spawn(move || {
            handle.push(TaskEvent::JobStart {
                spec: JobSpec {
                    job: 1,
                    threshold: 1e9,
                    task_count: 1,
                    feature_dim: 1,
                    checkpoints: 2,
                },
            });
            let mut rejected = false;
            for ordinal in 0..10_000usize {
                if !handle.push(TaskEvent::Progress {
                    job: 1,
                    task: 0,
                    ordinal,
                    time: 2.0,
                    features: vec![0.1],
                }) {
                    rejected = true;
                    break;
                }
            }
            rejected
        })
    };
    assert!(
        producer.join().unwrap(),
        "producer must be unblocked by the dying service, not hang"
    );
    // Observers survive the poisoned shard (a monitor thread polling
    // these must not die with a generic poisoned-lock panic).
    let _ = service.stats();
    let _ = service.take_finalized();
    let _ = service.job_phase(1);
    // close() re-raises the drain worker's original panic payload.
    let closed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| service.close()));
    let payload = closed.expect_err("close must surface the worker panic");
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .map(String::from)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(
        message.contains("factory exploded"),
        "root cause lost at {shards} shards / {drain_workers} workers: {message:?}"
    );
}

/// A predictor that records the parallelism grants it receives and makes
/// each scored checkpoint slow, so the drain loop genuinely backlogs.
struct SlowProbe {
    grants: Arc<AtomicUsize>,
    threads: usize,
}
impl OnlinePredictor for SlowProbe {
    fn name(&self) -> &str {
        "SLOW-PROBE"
    }
    fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
        std::thread::sleep(std::time::Duration::from_micros(300));
        checkpoint.running.iter().map(|r| r.id).collect()
    }
    fn set_parallelism(&mut self, threads: usize) {
        self.threads = threads;
        self.grants.fetch_add(1, Ordering::Relaxed);
    }
}

/// [`SlowProbe`]s whose first admission waits for the returned sender: the
/// drain worker holds the shard while the test queues events, so the next
/// pop leaves a backlog behind it whatever the thread timing.
fn gated_slow_probes(grants: Arc<AtomicUsize>) -> (PredictorFactory, Sender<()>) {
    let (release, gate) = channel::<()>();
    let gate = Mutex::new(Some(gate));
    let factory: PredictorFactory = Box::new(move |_spec: &JobSpec| {
        let first = gate.lock().unwrap().take();
        if let Some(gate) = first {
            gate.recv().ok();
        }
        Box::new(SlowProbe {
            grants: Arc::clone(&grants),
            threads: 1,
        })
    });
    (factory, release)
}

#[test]
fn adaptive_balancing_boosts_backlogged_shards_and_changes_no_report() {
    let jobs = suite(0xBA1A, 3);
    let streams = producer_streams(&jobs, 1, 7);
    let run = |balance: Option<BalanceConfig>, grants: Arc<AtomicUsize>| {
        let (factory, release) = gated_slow_probes(grants);
        let service = EngineService::start(
            EngineConfig {
                shards: 1,
                warmup_fraction: WARMUP,
                balance,
                ..EngineConfig::default()
            },
            ServiceConfig { drain_workers: 1 },
            factory,
        );
        // The whole stream queues behind the first admission: the
        // unbounded ingress backlogs far past the threshold.
        let handle = service.handle();
        handle.push_all(streams[0].clone());
        release.send(()).unwrap();
        service.quiesce();
        let boosts = service.stats().balance_boosts;
        (service.close(), boosts)
    };

    let baseline_grants = Arc::new(AtomicUsize::new(0));
    let (baseline, baseline_boosts) = run(None, Arc::clone(&baseline_grants));
    assert_eq!(baseline_boosts, 0, "balancing ran while disabled");
    assert_eq!(
        baseline_grants.load(Ordering::Relaxed),
        0,
        "predictor granted threads while balancing disabled"
    );

    let grants = Arc::new(AtomicUsize::new(0));
    let (balanced, boosts) = run(
        Some(BalanceConfig {
            backlog_threshold: 64,
            min_tasks: 1,
            threads: 2,
        }),
        Arc::clone(&grants),
    );
    assert!(boosts >= 1, "backlogged shard was never boosted");
    assert!(
        grants.load(Ordering::Relaxed) >= 1,
        "boost never reached a predictor"
    );
    // The whole point: balancing is invisible in the output.
    assert_eq!(balanced.jobs, baseline.jobs, "balancing changed a report");
}

#[test]
fn balance_threshold_clamps_to_bounded_queue_capacity() {
    // BalanceConfig::default() (threshold 4096) with a capacity-32
    // queue would be unsatisfiable un-clamped; the engine clamps to half
    // the capacity so the feature still engages under saturation (a
    // drain that finds the queue full pops all of it in one batch).
    let (factory, release) = gated_slow_probes(Arc::new(AtomicUsize::new(0)));
    let service = EngineService::start(
        EngineConfig {
            shards: 1,
            queue_capacity: Some(32),
            overload: OverloadPolicy::Block,
            balance: Some(BalanceConfig {
                min_tasks: 1,
                threads: 2,
                ..BalanceConfig::default()
            }),
            ..EngineConfig::default()
        },
        ServiceConfig { drain_workers: 1 },
        factory,
    );
    // Longer than the queue: the producer fills it behind the first
    // admission and blocks; then the shard is let go.
    let jobs = suite(0xC1A, 4);
    let handle = service.handle();
    let producer = std::thread::spawn(move || {
        for stream in nurd_trace::producer_streams(&jobs, 1, 0.9, 3) {
            handle.push_all(stream);
        }
    });
    while service.stats().blocked_pushes == 0 {
        std::thread::yield_now();
    }
    release.send(()).unwrap();
    producer.join().unwrap();
    service.quiesce();
    assert!(
        service.stats().balance_boosts >= 1,
        "default threshold must clamp to the bounded queue and fire"
    );
    let report = service.close();
    assert_eq!(report.jobs.len(), 4);
}

#[test]
fn quiesce_settles_the_backlog_for_mid_stream_observation() {
    let service = EngineService::start(
        EngineConfig {
            shards: 2,
            ..EngineConfig::default()
        },
        ServiceConfig::default(),
        flag_all_factory(),
    );
    let spec = JobSpec {
        job: 42,
        threshold: 10.0,
        task_count: 1,
        feature_dim: 1,
        checkpoints: 2,
    };
    assert!(service.push(TaskEvent::JobStart { spec }));
    assert!(service.push(TaskEvent::Submitted { job: 42, task: 0 }));
    service.quiesce();
    let stats = service.stats();
    assert_eq!(stats.backlog_per_shard.iter().sum::<usize>(), 0);
    assert_eq!(stats.events_per_shard.iter().sum::<usize>(), 2);
    assert_eq!(
        service.job_phase(42),
        Some(nurd_serve::JobPhase::Admitted),
        "drained state must be observable after quiesce"
    );
    let report = service.close();
    assert_eq!(report.jobs.len(), 1);
    assert_eq!(report.jobs[0].finalized, FinalizeReason::EngineFinish);
}
