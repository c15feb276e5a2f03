//! Crash-recovery acceptance tests: **restart equals uninterrupted**.
//!
//! The centerpiece property crashes a persistent 3-producer service at a
//! random fault point (WAL-record budget, optionally with a torn tail
//! and a corrupted newest snapshot), recovers from the directory, lets
//! the producers resume each job's stream from
//! [`RecoverReport::events_seen`], and asserts every job's final
//! [`nurd_sim::ReplayOutcome`] is **bit-for-bit** the never-crashed
//! sequential `replay_job` result — at shard counts {1, 2, 8}, with zero
//! accepted-event loss up to the last durable record.
//!
//! Around it: history-mode recovery (predictors without
//! `snapshot_state`), typed corrupt-artifact rejection with fallback to
//! the previous valid snapshot, idempotent double-close, the `Drop`
//! guard's WAL flush, and a snapshot size that follows live jobs only.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use nurd_core::{NurdConfig, NurdPredictor, RefitPolicy, WarmRefitConfig};
use nurd_data::{Checkpoint, JobSpec, OnlinePredictor, TaskEvent};
use nurd_serve::{
    read_snapshot, EngineConfig, EngineService, FaultInjector, FsyncPolicy, OverloadPolicy,
    PersistenceConfig, PredictorFactory, RecoverError, ServiceConfig,
};
use nurd_sim::{replay_job, ReplayConfig, ReplayOutcome};
use nurd_trace::{SuiteConfig, TraceStyle};
use proptest::prelude::*;

const QUANTILE: f64 = 0.9;
const WARMUP: f64 = 0.04;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh, unique engine directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("nurd-recovery-{tag}-{}-{seq}", std::process::id()));
    // A stale run's leftovers would change recovery's input.
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

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

/// Flags every running task at its first scored checkpoint, and has **no
/// `snapshot_state`** — forcing the engine's history-mode persistence
/// (retain + replay the job's accepted events through a fresh predictor).
struct FlagAll;
impl OnlinePredictor for FlagAll {
    fn name(&self) -> &str {
        "ALL"
    }
    fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
        checkpoint.running.iter().map(|r| r.id).collect()
    }
}

fn engine_config(shards: usize) -> EngineConfig {
    EngineConfig {
        shards,
        warmup_fraction: WARMUP,
        queue_capacity: Some(16),
        overload: OverloadPolicy::Block,
        balance: None,
    }
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        drain_workers: 2,
        drain_batch: 8,
    }
}

/// Pushes each producer stream on its own thread, skipping the first
/// `events_seen[job]` events of every job — the durable prefix already
/// inside the recovered engine.
fn run_producers(
    service: &EngineService,
    streams: Vec<Vec<TaskEvent>>,
    events_seen: &BTreeMap<u64, u64>,
) -> usize {
    let producers: Vec<_> = streams
        .into_iter()
        .map(|stream| {
            let handle = service.handle();
            let seen = events_seen.clone();
            std::thread::spawn(move || {
                let mut pushed = 0usize;
                let mut position: BTreeMap<u64, u64> = BTreeMap::new();
                for event in stream {
                    let slot = position.entry(event.job()).or_insert(0);
                    let index = *slot;
                    *slot += 1;
                    if index < seen.get(&event.job()).copied().unwrap_or(0) {
                        continue; // already durable in the recovered state
                    }
                    assert!(handle.push(event), "push rejected on a live service");
                    pushed += 1;
                }
                pushed
            })
        })
        .collect();
    producers.into_iter().map(|p| p.join().unwrap()).sum()
}

/// Drains a service to its final per-job reports (mid-stream
/// `take_finalized` plus the `close()` remainder), id-sorted.
fn collect_reports(service: &EngineService) -> Vec<nurd_serve::JobReport> {
    let mut reports = service.take_finalized();
    let report = service.close();
    assert_eq!(report.overload.lost_events(), 0, "Block must be lossless");
    reports.extend(report.jobs);
    reports.sort_by_key(|r| r.job);
    reports
}

fn assert_outcomes_match(
    reports: &[nurd_serve::JobReport],
    expected: &[(u64, ReplayOutcome)],
    context: &str,
) {
    assert_eq!(
        reports.len(),
        expected.len(),
        "{context}: every job must be reported exactly once"
    );
    for (job_id, outcome) in expected {
        let got = reports
            .iter()
            .find(|r| r.job == *job_id)
            .unwrap_or_else(|| panic!("{context}: job {job_id} missing from reports"));
        assert_eq!(
            &got.outcome, outcome,
            "{context}: job {job_id} diverged from the never-crashed sequential replay"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// **The acceptance property.** Three producer threads stream a
    /// 3-job fleet into a persistent service whose WAL dies at a random
    /// record budget (sometimes with a torn half-written tail). The
    /// service is then dropped *without* `close()` — the crash. Recovery
    /// rebuilds a running service from the directory; the producers
    /// resume each job from [`RecoverReport::events_seen`]; and every
    /// job's final outcome is bit-for-bit the sequential `replay_job`
    /// result, at shard counts {1, 2, 8}. With `corrupt_latest`, the
    /// newest snapshot is bit-flipped post-crash and recovery must fall
    /// back to the previous valid one (longer WAL replay, same answer).
    #[test]
    fn prop_restart_equals_uninterrupted(
        seed in 0u64..200,
        interleave_seed in 0u64..1000,
        crash_budget in 0u64..600,
        torn_flag in 0u8..2,
        mid_flag in 0u8..2,
        corrupt_flag in 0u8..2,
    ) {
        let (torn_tail, mid_checkpoint, corrupt_latest) =
            (torn_flag == 1, mid_flag == 1, corrupt_flag == 1);
        let jobs = suite(seed, 3);
        let policy = RefitPolicy::Warm(WarmRefitConfig::default());
        let replay_cfg = ReplayConfig { quantile: QUANTILE, warmup_fraction: WARMUP };
        let expected: Vec<(u64, ReplayOutcome)> = jobs
            .iter()
            .map(|job| {
                let mut reference =
                    NurdPredictor::new(NurdConfig::default().with_refit_policy(policy.clone()));
                (job.job_id(), replay_job(job, &mut reference, &replay_cfg))
            })
            .collect();

        for shards in [1usize, 2, 8] {
            let dir = scratch_dir("prop");
            let fault = {
                let f = FaultInjector::crash_after_wal_records(crash_budget);
                if torn_tail { f.with_torn_tail() } else { f }
            };
            // Always-fsync keeps "durable" == "admitted by the injector",
            // so the crash point is exactly the record budget.
            let mut persistence = PersistenceConfig::new(&dir);
            persistence.fsync = FsyncPolicy::Always;
            persistence.retain_generations = 4;
            persistence.fault = Some(Arc::clone(&fault));

            // ----- the run that will crash -----
            let doomed = EngineService::start_persistent(
                engine_config(shards),
                service_config(),
                persistence,
                nurd_factory(policy.clone()),
            )
            .unwrap();
            let streams = nurd_trace::producer_streams(&jobs, 3, QUANTILE, interleave_seed);
            if mid_checkpoint {
                // First halves, settle, snapshot; second halves ride the
                // WAL tail past the snapshot generation.
                let firsts: Vec<Vec<TaskEvent>> = streams
                    .iter()
                    .map(|s| s[..s.len() / 2].to_vec())
                    .collect();
                run_producers(&doomed, firsts, &BTreeMap::new());
                doomed.quiesce();
                doomed.checkpoint().unwrap();
                let seconds: Vec<Vec<TaskEvent>> = streams
                    .iter()
                    .map(|s| {
                        let mut skip: BTreeMap<u64, u64> = BTreeMap::new();
                        for e in &s[..s.len() / 2] {
                            *skip.entry(e.job()).or_insert(0) += 1;
                        }
                        let mut position: BTreeMap<u64, u64> = BTreeMap::new();
                        s.iter()
                            .filter(|e| {
                                let slot = position.entry(e.job()).or_insert(0);
                                let index = *slot;
                                *slot += 1;
                                index >= skip.get(&e.job()).copied().unwrap_or(0)
                            })
                            .cloned()
                            .collect()
                    })
                    .collect();
                run_producers(&doomed, seconds, &BTreeMap::new());
            } else {
                run_producers(&doomed, streams.clone(), &BTreeMap::new());
            }
            doomed.quiesce();
            drop(doomed); // the crash: no close(), no shutdown snapshot

            if corrupt_latest {
                // Bit-flip the newest snapshot (when one exists):
                // recovery must fall back, never half-load.
                let mut snaps: Vec<_> = std::fs::read_dir(&dir)
                    .unwrap()
                    .filter_map(|e| {
                        let name = e.unwrap().file_name().into_string().ok()?;
                        let generation: u64 = name
                            .strip_prefix("snap-")?
                            .strip_suffix(".bin")?
                            .parse()
                            .ok()?;
                        Some((generation, name))
                    })
                    .collect();
                snaps.sort();
                if let Some((_, name)) = snaps.last() {
                    let path = dir.join(name);
                    let mut bytes = std::fs::read(&path).unwrap();
                    let mid = bytes.len() / 2;
                    bytes[mid] ^= 0x01;
                    std::fs::write(&path, &bytes).unwrap();
                }
            }

            // ----- recovery -----
            let (revived, recover) = EngineService::recover(
                PersistenceConfig::new(&dir),
                engine_config(shards),
                service_config(),
                nurd_factory(policy.clone()),
            )
            .unwrap();
            if corrupt_latest && mid_checkpoint {
                // The one pre-crash snapshot was bit-flipped: recovery
                // must skip it (counted) — never half-load it.
                prop_assert!(recover.recovery_fallbacks >= 1);
            }
            // Zero accepted-event loss up to the last fsync: every WAL
            // record the injector admitted (and everything a snapshot
            // captured) is in the recovered state.
            let total_events: u64 = streams.iter().map(|s| s.len() as u64).sum();
            let durable: u64 = recover.events_seen.values().sum();
            prop_assert!(
                durable >= crash_budget.min(total_events) || (corrupt_latest && mid_checkpoint),
                "accepted-event loss: {durable} durable < {crash_budget} admitted"
            );
            prop_assert!(durable <= total_events, "recovered more events than were pushed");
            run_producers(&revived, streams, &recover.events_seen);
            revived.quiesce();
            let stats = revived.stats();
            prop_assert_eq!(stats.recovery_fallbacks, recover.recovery_fallbacks);
            let reports = collect_reports(&revived);
            assert_outcomes_match(
                &reports,
                &expected,
                &format!(
                    "shards={shards} budget={crash_budget} torn={torn_tail} \
                     mid_checkpoint={mid_checkpoint} corrupt={corrupt_latest}"
                ),
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// A job between its `JobStart` and its first checkpoint holds tasks with
/// no feature snapshot yet, 11 bytes each on the wire. `JobState::decode`
/// used to demand 16 per task, so a snapshot holding such a job failed
/// with `LengthOverrun` and was skipped whole — every job in it fell back
/// to WAL replay, or was lost once the older WAL had been pruned. The
/// snapshot must load as written: no fallback, both jobs resumed.
#[test]
fn snapshot_holding_a_just_admitted_job_recovers_every_job() {
    let jobs = suite(21, 2);
    let policy = RefitPolicy::Warm(WarmRefitConfig::default());
    let replay_cfg = ReplayConfig {
        quantile: QUANTILE,
        warmup_fraction: WARMUP,
    };
    let expected: Vec<(u64, ReplayOutcome)> = jobs
        .iter()
        .map(|job| {
            let mut reference =
                NurdPredictor::new(NurdConfig::default().with_refit_policy(policy.clone()));
            (job.job_id(), replay_job(job, &mut reference, &replay_cfg))
        })
        .collect();
    let streams: Vec<Vec<TaskEvent>> = jobs
        .iter()
        .map(|job| nurd_data::job_stream(job, QUANTILE))
        .collect();
    assert!(matches!(streams[1][0], TaskEvent::JobStart { .. }));

    let dir = scratch_dir("admitted");
    let mut persistence = PersistenceConfig::new(&dir);
    persistence.fsync = FsyncPolicy::Always;
    let doomed = EngineService::start_persistent(
        engine_config(2),
        service_config(),
        persistence,
        nurd_factory(policy.clone()),
    )
    .unwrap();
    // Job 0 is mid-stream; job 1 has been admitted and nothing more.
    let prefix = vec![
        streams[0][..streams[0].len() / 2].to_vec(),
        streams[1][..1].to_vec(),
    ];
    run_producers(&doomed, prefix, &BTreeMap::new());
    doomed.quiesce();
    doomed.checkpoint().unwrap();
    drop(doomed); // the crash: the checkpoint above is all there is

    let (revived, recover) = EngineService::recover(
        PersistenceConfig::new(&dir),
        engine_config(2),
        service_config(),
        nurd_factory(policy),
    )
    .unwrap();
    assert_eq!(recover.recovery_fallbacks, 0, "the snapshot must decode");
    assert!(recover.snapshot_generation.is_some());
    assert_eq!(recover.wal_events_replayed, 0);
    assert_eq!(recover.resumed_jobs, 2);
    assert_eq!(recover.events_seen[&jobs[1].job_id()], 1);

    run_producers(&revived, streams, &recover.events_seen);
    revived.quiesce();
    let reports = collect_reports(&revived);
    assert_outcomes_match(&reports, &expected, "just-admitted job in the snapshot");
    std::fs::remove_dir_all(&dir).ok();
}

/// History-mode recovery: `FlagAll` has no `snapshot_state`, so the
/// engine persists each live job's accepted events and replays them
/// through a factory-fresh predictor at decode time. Crash mid-stream,
/// recover, resume — outcomes still equal sequential replay.
#[test]
fn history_mode_predictor_recovers_by_replaying_events() {
    let jobs = suite(11, 3);
    let replay_cfg = ReplayConfig {
        quantile: QUANTILE,
        warmup_fraction: WARMUP,
    };
    let expected: Vec<(u64, ReplayOutcome)> = jobs
        .iter()
        .map(|job| (job.job_id(), replay_job(job, &mut FlagAll, &replay_cfg)))
        .collect();
    let factory = || -> PredictorFactory { Box::new(|_| Box::new(FlagAll)) };

    for crash_budget in [0u64, 37, 150] {
        let dir = scratch_dir("history");
        let mut persistence = PersistenceConfig::new(&dir);
        persistence.fsync = FsyncPolicy::Always;
        persistence.fault = Some(FaultInjector::crash_after_wal_records(crash_budget));
        let doomed = EngineService::start_persistent(
            engine_config(2),
            service_config(),
            persistence,
            factory(),
        )
        .unwrap();
        let streams = nurd_trace::producer_streams(&jobs, 3, QUANTILE, 7);
        run_producers(&doomed, streams.clone(), &BTreeMap::new());
        doomed.quiesce();
        doomed.checkpoint().unwrap(); // live jobs enter the snapshot as history
        drop(doomed);

        let (revived, recover) = EngineService::recover(
            PersistenceConfig::new(&dir),
            engine_config(2),
            service_config(),
            factory(),
        )
        .unwrap();
        run_producers(&revived, streams, &recover.events_seen);
        revived.quiesce();
        let reports = collect_reports(&revived);
        assert_outcomes_match(&reports, &expected, &format!("budget={crash_budget}"));
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Satellite (c): every corrupt-artifact shape is a typed
/// [`RecoverError`] from the public probe, and a full recovery falls
/// back past the corrupted newest snapshot to the previous valid one.
#[test]
fn corrupt_artifacts_are_rejected_typed_and_recovery_falls_back() {
    let jobs = suite(3, 2);
    let dir = scratch_dir("corrupt");
    let mut persistence = PersistenceConfig::new(&dir);
    persistence.fsync = FsyncPolicy::Always;
    persistence.retain_generations = 4;
    let service = EngineService::start_persistent(
        engine_config(2),
        service_config(),
        persistence,
        Box::new(|_| Box::new(FlagAll)),
    )
    .unwrap();
    let streams = nurd_trace::producer_streams(&jobs, 2, QUANTILE, 3);
    // Two snapshot generations: halves of the fleet, checkpointed apart.
    let firsts: Vec<Vec<TaskEvent>> = streams.iter().map(|s| s[..s.len() / 3].to_vec()).collect();
    run_producers(&service, firsts.clone(), &BTreeMap::new());
    service.quiesce();
    let older = service.checkpoint().unwrap();
    let seconds: Vec<Vec<TaskEvent>> = streams
        .iter()
        .zip(&firsts)
        .map(|(s, f)| s[f.len()..].to_vec())
        .collect();
    run_producers(&service, seconds, &BTreeMap::new());
    service.quiesce();
    let newer = service.checkpoint().unwrap();
    assert!(newer > older);
    let _ = service.close();

    // close() wrote a shutdown snapshot past `newer`; the *newest* file
    // on disk is the one recovery will try first.
    let snap = |generation: u64| dir.join(format!("snap-{generation}.bin"));
    let newest = {
        let mut generations: Vec<u64> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| {
                let name = e.unwrap().file_name().into_string().ok()?;
                name.strip_prefix("snap-")?
                    .strip_suffix(".bin")?
                    .parse()
                    .ok()
            })
            .collect();
        generations.sort_unstable();
        *generations.last().unwrap()
    };
    assert!(newest > newer);
    let pristine = std::fs::read(snap(newest)).unwrap();

    // Typed-error probes on a scratch path (ignored by the directory
    // scanner, so they cannot disturb the fallback test below).
    let probe = dir.join("probe.bin");

    // Truncated snapshot → Truncated (or mid-record checksum damage).
    std::fs::write(&probe, &pristine[..pristine.len() / 2]).unwrap();
    assert!(matches!(
        read_snapshot(&probe),
        Err(RecoverError::Truncated | RecoverError::ChecksumMismatch)
    ));

    // Wrong magic → WrongMagic.
    let mut wrong = pristine.clone();
    wrong[..8].copy_from_slice(b"GARBAGE!");
    std::fs::write(&probe, &wrong).unwrap();
    assert!(matches!(
        read_snapshot(&probe),
        Err(RecoverError::WrongMagic)
    ));

    // Future format version → UnsupportedVersion(v).
    let mut future = pristine.clone();
    future[8..12].copy_from_slice(&7u32.to_le_bytes());
    std::fs::write(&probe, &future).unwrap();
    assert!(matches!(
        read_snapshot(&probe),
        Err(RecoverError::UnsupportedVersion(7))
    ));

    // Checksum mismatch → ChecksumMismatch.
    let mut flipped = pristine.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x80;
    std::fs::write(&probe, &flipped).unwrap();
    assert!(matches!(
        read_snapshot(&probe),
        Err(RecoverError::ChecksumMismatch)
    ));

    // Full recovery with the newest snapshot bit-flipped in place: falls
    // back to an older valid generation — counted, never half-loaded.
    let mut damaged = pristine.clone();
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0x01;
    std::fs::write(snap(newest), &damaged).unwrap();
    let (revived, recover) = EngineService::recover(
        PersistenceConfig::new(&dir),
        engine_config(2),
        service_config(),
        Box::new(|_| Box::new(FlagAll)),
    )
    .unwrap();
    assert!(
        recover.recovery_fallbacks >= 1,
        "corrupt snapshot must be counted"
    );
    assert!(
        recover.snapshot_generation.is_some_and(|g| g < newest),
        "recovery must land on an older valid snapshot"
    );
    assert_eq!(
        revived.stats().recovery_fallbacks,
        recover.recovery_fallbacks
    );
    let replay_cfg = ReplayConfig {
        quantile: QUANTILE,
        warmup_fraction: WARMUP,
    };
    let expected: Vec<(u64, ReplayOutcome)> = jobs
        .iter()
        .map(|job| (job.job_id(), replay_job(job, &mut FlagAll, &replay_cfg)))
        .collect();
    run_producers(&revived, streams, &recover.events_seen);
    revived.quiesce();
    let reports = collect_reports(&revived);
    assert_outcomes_match(&reports, &expected, "fallback recovery");
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite (a): `close()` is idempotent — the second call returns the
/// first call's report instead of panicking or re-running shutdown.
#[test]
fn double_close_returns_the_first_report() {
    let jobs = suite(5, 2);
    let dir = scratch_dir("double-close");
    let service = EngineService::start_persistent(
        engine_config(2),
        service_config(),
        PersistenceConfig::new(&dir),
        Box::new(|_| Box::new(FlagAll)),
    )
    .unwrap();
    let streams = nurd_trace::producer_streams(&jobs, 2, QUANTILE, 1);
    run_producers(&service, streams, &BTreeMap::new());
    let first = service.close();
    let snapshots_after_first = service.stats().snapshots_written;
    let second = service.close();
    assert_eq!(first.events, second.events);
    assert_eq!(first.jobs.len(), second.jobs.len());
    assert_eq!(
        service.stats().snapshots_written,
        snapshots_after_first,
        "second close must not write another shutdown snapshot"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite (a): dropping an unclosed service still flushes the WAL —
/// the `Drop` guard makes a plain `drop` lose only what a crash would.
#[test]
fn drop_guard_flushes_wal_buffers() {
    let jobs = suite(9, 2);
    let dir = scratch_dir("drop-guard");
    let mut persistence = PersistenceConfig::new(&dir);
    // Never fsync on the drain path: everything accepted sits in user-
    // space WAL buffers, so durability here is the Drop guard's doing.
    persistence.fsync = FsyncPolicy::Never;
    let service = EngineService::start_persistent(
        engine_config(2),
        service_config(),
        persistence,
        Box::new(|_| Box::new(FlagAll)),
    )
    .unwrap();
    let streams = nurd_trace::producer_streams(&jobs, 2, QUANTILE, 2);
    let total: usize = streams.iter().map(Vec::len).sum();
    run_producers(&service, streams.clone(), &BTreeMap::new());
    service.quiesce();
    drop(service); // no close(): the guard must flush the buffered WAL

    let (revived, recover) = EngineService::recover(
        PersistenceConfig::new(&dir),
        engine_config(2),
        service_config(),
        Box::new(|_| Box::new(FlagAll)),
    )
    .unwrap();
    let durable: u64 = recover.events_seen.values().sum();
    assert_eq!(
        durable as usize, total,
        "every drained event must survive the Drop guard's flush"
    );
    let replay_cfg = ReplayConfig {
        quantile: QUANTILE,
        warmup_fraction: WARMUP,
    };
    let expected: Vec<(u64, ReplayOutcome)> = jobs
        .iter()
        .map(|job| (job.job_id(), replay_job(job, &mut FlagAll, &replay_cfg)))
        .collect();
    run_producers(&revived, streams, &recover.events_seen);
    revived.quiesce();
    let reports = collect_reports(&revived);
    assert_outcomes_match(&reports, &expected, "drop-guard recovery");
    std::fs::remove_dir_all(&dir).ok();
}

/// Serves `n_jobs` jobs to finalization on a persistent service, hands
/// their reports out, and returns the size of a snapshot taken with no
/// live job left.
fn idle_snapshot_bytes(n_jobs: usize) -> u64 {
    let jobs = suite(21, n_jobs);
    let dir = scratch_dir("idle-size");
    let service = EngineService::start_persistent(
        engine_config(2),
        service_config(),
        PersistenceConfig::new(&dir),
        nurd_factory(RefitPolicy::Warm(WarmRefitConfig::default())),
    )
    .unwrap();
    let streams = nurd_trace::producer_streams(&jobs, 3, QUANTILE, 5);
    run_producers(&service, streams, &BTreeMap::new());
    service.quiesce();
    assert_eq!(service.take_finalized().len(), n_jobs);
    let generation = service.checkpoint().unwrap();
    let path = dir.join(format!("snap-{generation}.bin"));
    let stats = read_snapshot(&path).unwrap();
    assert_eq!((stats.live_jobs, stats.finalized_reports), (0, 0));
    assert_eq!(stats.finalized_ids, n_jobs);
    let bytes = std::fs::metadata(&path).unwrap().len();
    let _ = service.close();
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

/// A finalized job leaves the snapshot except for its two ledger entries
/// (its id and its durable-event count): the file must not grow by a
/// predictor's worth of bytes per job ever served. It did while every
/// finalized job left a ~80 kB donor seed behind that nothing read.
#[test]
fn idle_snapshot_size_does_not_grow_with_jobs_served() {
    let (few, many) = (idle_snapshot_bytes(4), idle_snapshot_bytes(16));
    assert!(
        many < few + 12 * 64,
        "snapshot with no live job grew from {few} B after 4 jobs to {many} B after 16"
    );
}
