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
//! 4. Waiting callers lend their core: a blocked push, `quiesce` and
//!    `close` drain shards themselves exactly while a predictor call is
//!    in flight — and only then.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nurd_core::{NurdConfig, NurdPredictor, RefitPolicy, WarmRefitConfig};
use nurd_data::{Checkpoint, JobSpec, JobTrace, OnlinePredictor, TaskEvent, TaskScore};
use nurd_serve::{
    BalanceConfig, EngineConfig, EngineHandle, EngineReport, EngineService, FinalizeReason,
    HealthObserver, JobReport, PredictorFactory, ServiceConfig,
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

/// A NURD predictor that sleeps before every call, so a drain spends
/// most of its time inside `predict` and waiting callers are invited.
struct Slow(NurdPredictor);
impl OnlinePredictor for Slow {
    fn name(&self) -> &str {
        "SLOW-NURD"
    }
    fn begin_stream(&mut self, ctx: &nurd_data::StreamContext) {
        self.0.begin_stream(ctx);
    }
    fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
        std::thread::sleep(Duration::from_micros(200));
        self.0.predict(checkpoint)
    }
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
        let policy = RefitPolicy::Warm(WarmRefitConfig::default());
        saturated_runs_match_replay(seed, interleave_seed, 2, &|| nurd_factory(policy.clone()));
    }

    /// The same property with one drain worker and a slow predictor: the
    /// saturated producers find their shards full while the worker sits
    /// in a model call, so they drain shards themselves — and whoever
    /// holds a shard's lock applies its events in FIFO order, so the
    /// reports cannot tell.
    #[test]
    fn prop_helping_producers_match_sequential_replay(
        seed in 0u64..500,
        interleave_seed in 0u64..1000,
    ) {
        let factory = || -> PredictorFactory {
            Box::new(|_: &JobSpec| {
                let config = NurdConfig::default()
                    .with_refit_policy(RefitPolicy::Warm(WarmRefitConfig::default()));
                Box::new(Slow(NurdPredictor::new(config)))
            })
        };
        saturated_runs_match_replay(seed, interleave_seed, 1, &factory);
    }
}

/// The body of the saturation properties: three producers push a 3-job
/// fleet into capacity-16 queues under `Block`, at shard counts {1, 2, 8}
/// with `drain_workers` workers; every job's outcome must equal its
/// sequential replay under warm-refit NURD (which `factory`'s predictors
/// must reproduce), and no event may be lost.
fn saturated_runs_match_replay(
    seed: u64,
    interleave_seed: u64,
    drain_workers: usize,
    factory: &dyn Fn() -> PredictorFactory,
) {
    let jobs = suite(seed, 3);
    let policy = RefitPolicy::Warm(WarmRefitConfig::default());
    let replay_cfg = ReplayConfig {
        quantile: QUANTILE,
        warmup_fraction: WARMUP,
    };

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
                ..EngineConfig::default()
            },
            ServiceConfig { drain_workers },
            factory(),
        );
        let producers: Vec<_> = producer_streams(&jobs, 3, interleave_seed)
            .into_iter()
            .map(|stream| {
                let handle = service.handle();
                std::thread::spawn(move || handle.push_all(stream))
            })
            .collect();
        let accepted: usize = producers.into_iter().map(|p| p.join().unwrap()).sum();
        assert_eq!(accepted, total_events, "Block rejected an event");

        // Mid-stream reports plus the close() remainder cover every
        // job exactly once.
        let mut reports = service.take_finalized();
        let report = service.close();
        assert_eq!(report.events, total_events, "event accounting broke");
        reports.extend(report.jobs);
        reports.sort_by_key(|r| r.job);
        assert_eq!(reports.len(), jobs.len(), "every job reported exactly once");

        for (job_id, outcome) in &expected {
            let got = reports
                .iter()
                .find(|r| r.job == *job_id)
                .expect("job reported");
            assert_eq!(
                &got.outcome, outcome,
                "service mode diverged from sequential replay on job {} at {} shards",
                job_id, shards
            );
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
    assert_eq!(report.jobs.len(), 3, "all jobs reported at close");
}

#[test]
fn close_during_in_flight_pushes_loses_no_accepted_event() {
    for round in 0..8u64 {
        let service = EngineService::start(
            EngineConfig {
                shards: 2,
                queue_capacity: Some(4),
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
    factory_panic_scenario(4, 3);
    factory_panic_on_a_helping_producer();
}

/// Drops `service` and asserts that nothing it ran still holds `witness`,
/// an `Arc` its factory captured: the factory lives as long as the
/// engine, and every service thread holds the engine until it exits.
fn drop_outlived_by_no_thread<T>(service: EngineService, witness: &Arc<T>) {
    assert!(
        Arc::strong_count(witness) > 1,
        "the factory holds no witness"
    );
    drop(service);
    assert_eq!(
        Arc::strong_count(witness),
        1,
        "a service thread outlived the service"
    );
}

#[test]
fn no_thread_outlives_a_closed_service() {
    let witness = Arc::new(());
    let held = Arc::clone(&witness);
    let service = EngineService::start(
        EngineConfig::default(),
        ServiceConfig { drain_workers: 3 },
        Box::new(move |_| -> Box<dyn OnlinePredictor + Send> {
            let _held = &held;
            Box::new(FlagAll)
        }),
    );
    for job in 0..8 {
        assert_eq!(service.push_all(four_event_stream(job)), 4);
    }
    assert_eq!(service.close().jobs.len(), 8);
    drop_outlived_by_no_thread(service, &witness);
}

/// Pushes job `job`'s `JobStart` and then up to 10,000 progress events;
/// `true` once a push is rejected.
fn push_until_rejected(handle: &EngineHandle, job: u64) -> bool {
    handle.push(TaskEvent::JobStart {
        spec: JobSpec {
            job,
            threshold: 1e9,
            task_count: 1,
            feature_dim: 1,
            checkpoints: 2,
        },
    });
    (0..10_000usize).any(|ordinal| {
        !handle.push(TaskEvent::Progress {
            job,
            task: 0,
            ordinal,
            time: 2.0,
            features: vec![0.1],
        })
    })
}

/// The message of the panic `close()` raises; fails if it returns.
fn close_panic_message(service: &EngineService) -> String {
    let closed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| service.close()));
    let payload = closed.expect_err("close must surface the drain panic");
    payload
        .downcast_ref::<&str>()
        .copied()
        .map(String::from)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

fn factory_panic_scenario(shards: usize, drain_workers: usize) {
    let witness = Arc::new(());
    let held = Arc::clone(&witness);
    let service = EngineService::start(
        EngineConfig {
            shards,
            queue_capacity: Some(4),
            ..EngineConfig::default()
        },
        ServiceConfig { drain_workers },
        Box::new(move |_| -> Box<dyn OnlinePredictor + Send> {
            let _held = &held;
            panic!("factory exploded")
        }),
    );
    // The producer's first event (the admission) detonates the factory;
    // the producer then keeps pushing into a capacity-4 queue that no
    // one will ever drain again. The dying service must close the
    // ingress so the blocked sends come back rejected instead of
    // sleeping forever.
    let producer = {
        let handle = service.handle();
        std::thread::spawn(move || push_until_rejected(&handle, 1))
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
    let message = close_panic_message(&service);
    assert!(
        message.contains("factory exploded"),
        "root cause lost at {shards} shards / {drain_workers} workers: {message:?}"
    );
    drop_outlived_by_no_thread(service, &witness);
}

/// The factory panics on the producer's own drain: the one worker is
/// held in job `a`'s predict, so the producer whose push finds job `b`'s
/// queue full drains it and admits `b` itself. The push comes back
/// rejected while the worker is still held, and `close()` re-raises the
/// factory's payload — not the worker's later "shard poisoned", nor the
/// generic failure message.
fn factory_panic_on_a_helping_producer() {
    let (a, b) = jobs_on_two_shards(&[1, 2, 3, 4, 5, 6, 7, 8]);
    let (hold, holder) = hold();
    let witness = Arc::clone(&hold);
    let service = two_shard_service(
        Some(4),
        Box::new(move |spec: &JobSpec| -> Box<dyn OnlinePredictor + Send> {
            if spec.job == a {
                Box::new(HeldFlagAll(Arc::clone(&hold)))
            } else {
                panic!("factory exploded")
            }
        }),
    );
    // Four events: the fourth, a barrier, is the predict the worker
    // waits in; none can block on the capacity-4 queue.
    for event in four_event_stream(a) {
        assert!(service.push(event));
    }
    holder.entered();
    let producer = {
        let handle = service.handle();
        std::thread::spawn(move || push_until_rejected(&handle, b))
    };
    let returned = eventually(|| producer.is_finished());
    holder.release();
    assert!(
        returned,
        "the producer did not drain while the worker was held"
    );
    assert!(producer.join().unwrap(), "the failed push was not rejected");
    let message = close_panic_message(&service);
    assert!(
        message.contains("factory exploded"),
        "root cause lost on a helping producer: {message:?}"
    );
    drop_outlived_by_no_thread(service, &witness);
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

/// How long a test waits for a thread it expects to act.
const PATIENCE: Duration = Duration::from_secs(20);

/// Polls `condition` until it holds (`true`) or [`PATIENCE`] runs out.
fn eventually(condition: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + PATIENCE;
    while Instant::now() < deadline {
        if condition() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    condition()
}

/// A one-shot hold on a drain: the first [`Hold::wait`] announces itself
/// and blocks until the test's [`Holder`] lets it go; later calls pass.
struct Hold {
    entered: Mutex<Option<Sender<()>>>,
    release: Mutex<Option<Receiver<()>>>,
}

/// The test's side of a [`Hold`].
struct Holder {
    entered: Receiver<()>,
    release: Sender<()>,
}

fn hold() -> (Arc<Hold>, Holder) {
    let (entered_tx, entered) = channel();
    let (release, release_rx) = channel();
    let hold = Hold {
        entered: Mutex::new(Some(entered_tx)),
        release: Mutex::new(Some(release_rx)),
    };
    (Arc::new(hold), Holder { entered, release })
}

impl Hold {
    fn wait(&self) {
        let first = self.entered.lock().unwrap().take();
        if let Some(entered) = first {
            entered.send(()).unwrap();
            let release = self.release.lock().unwrap().take().unwrap();
            release.recv().ok();
        }
    }
}

impl Holder {
    /// Returns once the drain is held.
    fn entered(&self) {
        self.entered
            .recv_timeout(PATIENCE)
            .expect("no drain reached the hold");
    }

    fn release(&self) {
        self.release.send(()).ok();
    }
}

/// [`FlagAll`] that waits in its first `predict` call on a [`Hold`].
struct HeldFlagAll(Arc<Hold>);
impl OnlinePredictor for HeldFlagAll {
    fn name(&self) -> &str {
        "HELD"
    }
    fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
        self.0.wait();
        FlagAll.predict(checkpoint)
    }
}

/// An observer that waits in its first `observe_barrier` on a [`Hold`].
struct HeldObserver(Arc<Hold>);
impl HealthObserver for HeldObserver {
    fn observe_barrier(&self, _: u64, _: usize, _: f64, _: Option<&[u32]>, _: &[TaskScore]) {
        self.0.wait();
    }
    fn observe_finalized(&self, _: &JobReport, _: Option<&[u32]>, _: &[bool]) {}
}

/// Two shards, one drain worker, `Block` at `queue_capacity`.
fn two_shard_service(queue_capacity: Option<usize>, factory: PredictorFactory) -> EngineService {
    EngineService::start(
        EngineConfig {
            shards: 2,
            warmup_fraction: WARMUP,
            queue_capacity,
            ..EngineConfig::default()
        },
        ServiceConfig { drain_workers: 1 },
        factory,
    )
}

/// The shard `job`'s events land on in a two-shard engine, read off a
/// probe service's per-shard event counts.
fn shard_of(job: u64) -> usize {
    let probe = two_shard_service(None, flag_all_factory());
    assert!(probe.push(TaskEvent::JobEnd { job, time: 0.0 }));
    probe.quiesce();
    let at = probe.stats().events_per_shard.iter().position(|&n| n == 1);
    drop(probe.close());
    at.expect("the event landed on a shard")
}

/// The first of `ids` and the first later one on the other shard of a
/// two-shard engine.
fn jobs_on_two_shards(ids: &[u64]) -> (u64, u64) {
    let first = shard_of(ids[0]);
    let other = ids[1..].iter().find(|&&id| shard_of(id) != first);
    (ids[0], *other.expect("the ids span both shards"))
}

/// Two jobs of a small suite on different shards, `(held, other)`, and
/// each job's outcome under sequential replay with [`FlagAll`].
fn held_pair() -> (JobTrace, JobTrace, Vec<(u64, nurd_sim::ReplayOutcome)>) {
    let jobs = suite(0x4E1D, 8);
    let ids: Vec<u64> = jobs.iter().map(JobTrace::job_id).collect();
    let (a, b) = jobs_on_two_shards(&ids);
    let replay_cfg = ReplayConfig {
        quantile: QUANTILE,
        warmup_fraction: WARMUP,
    };
    let pick = |id: u64| jobs.iter().find(|j| j.job_id() == id).unwrap().clone();
    let (a, b) = (pick(a), pick(b));
    let expected = [&a, &b]
        .iter()
        .map(|job| (job.job_id(), replay_job(job, &mut FlagAll, &replay_cfg)))
        .collect();
    (a, b, expected)
}

/// Every report of the service, mid-stream takes and the close report.
fn all_reports(
    service: &EngineService,
    closed: EngineReport,
) -> Vec<(u64, nurd_sim::ReplayOutcome)> {
    let mut reports = service.take_finalized();
    reports.extend(closed.jobs);
    reports.sort_by_key(|r| r.job);
    reports.into_iter().map(|r| (r.job, r.outcome)).collect()
}

/// Job `held` gets a [`HeldFlagAll`] on `hold`; every other job a
/// [`SlowProbe`], which flags as [`FlagAll`] does.
fn held_factory(held: u64, hold: Arc<Hold>) -> PredictorFactory {
    Box::new(move |spec: &JobSpec| -> Box<dyn OnlinePredictor + Send> {
        if spec.job == held {
            Box::new(HeldFlagAll(Arc::clone(&hold)))
        } else {
            Box::new(SlowProbe {
                grants: Arc::new(AtomicUsize::new(0)),
                threads: 1,
            })
        }
    })
}

/// Gate (a): the one worker waits inside job `a`'s predict, so the
/// producer whose push finds job `b`'s capacity-4 queue full drains `b`
/// itself and its pushes return while the worker is still held. The
/// reports still equal sequential replay.
#[test]
fn a_blocked_push_drains_while_a_predict_is_in_flight() {
    let (a, b, expected) = held_pair();
    let (hold, holder) = hold();
    let service = two_shard_service(Some(4), held_factory(a.job_id(), hold));
    let stream_a = nurd_data::job_stream(&a, QUANTILE);
    let stream_b = nurd_data::job_stream(&b, QUANTILE);
    let (pushed_a, pushed_b) = (stream_a.len(), stream_b.len());
    std::thread::scope(|scope| {
        let handle = service.handle();
        // The rest of `a` waits in its queue behind the held predict.
        let producer_a = scope.spawn(move || handle.push_all(stream_a));
        holder.entered();
        let handle = service.handle();
        let producer_b = scope.spawn(move || handle.push_all(stream_b));
        let returned = eventually(|| producer_b.is_finished());
        let drained = service.stats().caller_drained;
        holder.release();
        assert!(
            returned,
            "the push never returned while the worker was held"
        );
        assert!(drained > 0, "no event was applied on a waiting caller");
        assert_eq!(producer_b.join().unwrap(), pushed_b);
        assert_eq!(producer_a.join().unwrap(), pushed_a);
    });
    let closed = service.close();
    assert_eq!(all_reports(&service, closed), expected);
}

/// Gate (b): with the one worker held where no predictor call runs —
/// in the factory, or in an observer callback — the producer blocked on
/// job `b`'s full queue waits and drains nothing until the hold lifts.
#[test]
fn a_blocked_push_waits_while_no_predict_is_in_flight() {
    let (a, b, expected) = held_pair();
    let stream_a = nurd_data::job_stream(&a, QUANTILE);
    let stream_b = nurd_data::job_stream(&b, QUANTILE);
    let shard_b = shard_of(b.job_id());

    // Held in the factory: `a`'s admission is the first.
    let (factory, release) = gated_slow_probes(Arc::new(AtomicUsize::new(0)));
    let service = two_shard_service(Some(4), factory);
    assert!(service.push(stream_a[0].clone()));
    assert!(eventually(|| service
        .stats()
        .events_per_shard
        .iter()
        .sum::<usize>()
        == 1));
    let unheld = || {
        release.send(()).ok();
    };
    blocked_producer_waits(&service, &stream_b, shard_b, unheld, "factory");
    assert_eq!(service.push_all(stream_a[1..].to_vec()), stream_a.len() - 1);
    let closed = service.close();
    assert_eq!(all_reports(&service, closed), expected);

    // Held in the observer, at `a`'s first scored barrier.
    let (hold, holder) = hold();
    let service = two_shard_service(Some(4), flag_all_factory());
    assert!(service.attach_observer(Arc::new(HeldObserver(hold))));
    std::thread::scope(|scope| {
        let handle = service.handle();
        let producer_a = scope.spawn(move || handle.push_all(stream_a));
        holder.entered();
        blocked_producer_waits(
            &service,
            &stream_b,
            shard_b,
            || holder.release(),
            "observer",
        );
        producer_a.join().unwrap();
    });
    let closed = service.close();
    assert_eq!(all_reports(&service, closed), expected);
}

/// Pushes `stream` (longer than its capacity-4 queue on `shard`) from a
/// producer thread while the engine's one worker is held, checks that the
/// producer stays blocked and no caller drains, then `unhold`s and joins.
fn blocked_producer_waits(
    service: &EngineService,
    stream: &[TaskEvent],
    shard: usize,
    unhold: impl FnOnce(),
    held_in: &str,
) {
    std::thread::scope(|scope| {
        let handle = service.handle();
        let producer = scope.spawn(move || handle.push_all(stream.iter().cloned()));
        let full = eventually(|| service.stats().backlog_per_shard[shard] == 4);
        // Time for a wrongly invited producer to drain.
        std::thread::sleep(Duration::from_millis(50));
        let (blocked, drained) = (!producer.is_finished(), service.stats().caller_drained);
        unhold();
        assert!(full, "held in the {held_in}: the queue never filled");
        assert!(blocked, "held in the {held_in}: the push returned");
        assert_eq!(
            drained, 0,
            "held in the {held_in}: a waiting caller drained"
        );
        assert_eq!(producer.join().unwrap(), stream.len());
    });
}

/// Gate (c): `quiesce()` and `close()` drain under the same gate. The
/// worker waits in job `a`'s predict; job `b`'s events queue unbounded
/// (no push blocks), and the waiting call applies them itself.
#[test]
fn quiesce_and_close_drain_while_a_predict_is_in_flight() {
    let (a, b, expected) = held_pair();
    let shard_b = shard_of(b.job_id());
    for closing in [false, true] {
        let (hold, holder) = hold();
        let service = two_shard_service(None, held_factory(a.job_id(), hold));
        service.push_all(nurd_data::job_stream(&a, QUANTILE));
        holder.entered();
        service.push_all(nurd_data::job_stream(&b, QUANTILE));
        let closed = std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                if closing {
                    Some(service.close())
                } else {
                    service.quiesce();
                    None
                }
            });
            let helped = eventually(|| {
                let stats = service.stats();
                stats.caller_drained > 0 && stats.backlog_per_shard[shard_b] == 0
            });
            holder.release();
            let call = if closing { "close" } else { "quiesce" };
            assert!(helped, "{call} did not drain while the worker was held");
            waiter.join().unwrap()
        });
        let closed = closed.unwrap_or_else(|| service.close());
        assert_eq!(all_reports(&service, closed), expected);
    }
}
