//! Crash-recovery acceptance tests: **restart equals uninterrupted**.
//!
//! A crash here is what a process leaves behind: a persistent 3-producer
//! service serves a random prefix of its streams, settles, and is dropped
//! without `close()`. The tail a crash can lose past the last fsync is
//! then cut off the crashed engine's live WAL generation — at a record
//! boundary, or inside a record (a torn write). The centerpiece property
//! recovers from the directory (sometimes past a corrupted newest
//! snapshot), lets the producers resume each job's stream from
//! [`RecoverReport::events_seen`], and asserts every job's final
//! [`nurd_sim::ReplayOutcome`] is **bit-for-bit** the never-crashed
//! sequential `replay_job` result — at shard counts {1, 2, 8}, with
//! exactly the events the cut left durable. Its chained twin crashes
//! twice, before or after the first run's checkpoint: `recover` writes no
//! snapshot, so the second recovery must read the chain the first one
//! left (a torn segment mid-chain, a checkpoint's prune between the
//! crashes, a corrupted newest snapshot), with WALs fsynced every 16
//! events or only at rolls and shutdown.
//! A recovery may also change the shard count (2 → 8, 8 → 3): every
//! replayed segment then routes into other shards, several at once.
//!
//! Crashes *at* a file-system operation — inside a snapshot write, a
//! rename, a roll or a prune, a lost page cache, a failed fsync — are the
//! crate's unit tests on a simulated disk (`src/service.rs`). The fsync
//! `recover` gives each segment it replayed is held there by
//! `recover_fsyncs_the_page_cache_tail_it_replayed`.
//!
//! Around them: concurrent `checkpoint()` calls, recovery of a non-NURD
//! predictor through its empty blob, admission refused to a predictor
//! without `snapshot_state`, a retired history record, typed corrupt-artifact
//! rejection with fallback to the previous valid snapshot, idempotent
//! double-close, the `Drop` guard's WAL flush, and a snapshot size that
//! follows live jobs only.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use nurd_codec::{write_frame, Checkpointable, Decoder, Encoder};
use nurd_core::{NurdConfig, NurdPredictor, RefitPolicy, WarmRefitConfig};
use nurd_data::{
    ActionRecord, BarrierView, Checkpoint, JobSpec, MitigationAction, MitigationPolicy,
    OnlinePredictor, TaskEvent,
};
use nurd_serve::{
    read_snapshot, BalanceConfig, EngineConfig, EngineService, EngineStats, MitigatorFactory,
    OverloadPolicy, PersistenceConfig, PredictorFactory, RecoverError, ServiceConfig,
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

/// Each job's never-crashed sequential `replay_job` outcome under `policy`.
fn sequential_outcomes(
    jobs: &[nurd_data::JobTrace],
    policy: &RefitPolicy,
) -> Vec<(u64, ReplayOutcome)> {
    let replay_cfg = ReplayConfig {
        quantile: QUANTILE,
        warmup_fraction: WARMUP,
    };
    jobs.iter()
        .map(|job| {
            let mut reference =
                NurdPredictor::new(NurdConfig::default().with_refit_policy(policy.clone()));
            (job.job_id(), replay_job(job, &mut reference, &replay_cfg))
        })
        .collect()
}

/// Flags every running task at its first scored checkpoint. Stateless,
/// so its snapshot is an empty blob: a durable engine admits only
/// predictors that snapshot themselves.
struct FlagAll;
impl OnlinePredictor for FlagAll {
    fn name(&self) -> &str {
        "ALL"
    }
    fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
        checkpoint.running.iter().map(|r| r.id).collect()
    }
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        Some(Vec::new())
    }
    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        bytes.is_empty()
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
    ServiceConfig { drain_workers: 2 }
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

/// Every producer stream cut to its first `num / den`.
fn stream_prefixes(streams: &[Vec<TaskEvent>], num: usize, den: usize) -> Vec<Vec<TaskEvent>> {
    streams
        .iter()
        .map(|s| s[..s.len() * num / den].to_vec())
        .collect()
}

/// Every producer stream cut to its first `share`, and to no less than
/// its prefix in `floor` (if `floor` has one).
fn stream_shares(
    streams: &[Vec<TaskEvent>],
    share: f64,
    floor: &[Vec<TaskEvent>],
) -> Vec<Vec<TaskEvent>> {
    streams
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let len = ((s.len() as f64 * share) as usize).max(floor.get(i).map_or(0, Vec::len));
            s[..len].to_vec()
        })
        .collect()
}

fn event_count(streams: &[Vec<TaskEvent>]) -> u64 {
    streams.iter().map(|s| s.len() as u64).sum()
}

/// Cuts every segment of the newest WAL generation in `dir` — the live
/// one of the engine that just crashed — to its first `keep` share of
/// records; with `torn`, the first half of the next record stays too.
/// That is what a crash under a nonzero `max_unsynced_events` can leave:
/// the tail past the last fsync gone, perhaps mid-record. Returns how many records the
/// cut removed (a torn one included).
fn cut_live_wal(dir: &Path, keep: f64, torn: bool) -> u64 {
    let segments: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().ok()?;
            let body = name.strip_prefix("wal-")?.strip_suffix(".log")?;
            let generation = body.split_once('-')?.0.parse().ok()?;
            Some((generation, dir.join(name)))
        })
        .collect();
    let live = segments.iter().map(|&(g, _)| g).max();
    let mut removed = 0;
    for (_, path) in segments.iter().filter(|&&(g, _)| Some(g) == live) {
        let bytes = std::fs::read(path).unwrap();
        // Record boundaries: `[len: u32][crc: u32][payload]` frames.
        let (mut ends, mut at) = (vec![0], 0);
        while let Some(header) = bytes.get(at..at + 4) {
            at += 8 + u32::from_le_bytes(header.try_into().unwrap()) as usize;
            ends.push(at);
        }
        let records = ends.len() - 1;
        let kept = (records as f64 * keep) as usize;
        let mut cut = ends[kept];
        if torn && kept < records {
            cut += (ends[kept + 1] - cut) / 2;
        }
        std::fs::write(path, &bytes[..cut]).unwrap();
        removed += (records - kept) as u64;
    }
    removed
}

/// Per-job event counts of an engine that holds `held` and then every
/// event of `pushed` (a job's events all ride one producer stream).
fn held_after(pushed: &[Vec<TaskEvent>], held: &BTreeMap<u64, u64>) -> BTreeMap<u64, u64> {
    let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
    for event in pushed.iter().flatten() {
        *counts.entry(event.job()).or_insert(0) += 1;
    }
    for (&job, &count) in held {
        let slot = counts.entry(job).or_insert(0);
        *slot = (*slot).max(count);
    }
    counts
}

/// Bit-flips the newest `snap-*.bin` in `dir`, if there is one: recovery
/// must fall back past it, never half-load it.
fn corrupt_newest_snapshot(dir: &Path) {
    let newest = std::fs::read_dir(dir)
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
        .max();
    if let Some((_, name)) = newest {
        let path = dir.join(name);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
    }
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
    /// 3-job fleet into a persistent service, which crashes after a
    /// random share of every stream: dropped *without* `close()`, its
    /// live WAL generation cut to a random share of its records (with
    /// `torn`, mid-record). Recovery rebuilds a running service from the
    /// directory; the producers resume each job from
    /// [`RecoverReport::events_seen`]; and every job's final outcome is
    /// bit-for-bit the sequential `replay_job` result, at shard counts
    /// {1, 2, 8}. With `corrupt_latest`, the newest snapshot is
    /// bit-flipped post-crash and recovery must fall back to the previous
    /// valid one (longer WAL replay, same answer).
    #[test]
    fn prop_restart_equals_uninterrupted(
        seed in 0u64..200,
        interleave_seed in 0u64..1000,
        crash_at in 0.0..1.0f64,
        keep in 0.0..1.0f64,
        torn_flag in 0u8..2,
        mid_flag in 0u8..2,
        corrupt_flag in 0u8..2,
    ) {
        let (torn, mid_checkpoint, corrupt_latest) =
            (torn_flag == 1, mid_flag == 1, corrupt_flag == 1);
        let jobs = suite(seed, 3);
        let policy = RefitPolicy::Warm(WarmRefitConfig::default());
        let expected = sequential_outcomes(&jobs, &policy);

        for shards in [1usize, 2, 8] {
            let dir = scratch_dir("prop");
            let mut persistence = PersistenceConfig::new(&dir);
            persistence.retain_generations = 4;

            // ----- the run that will crash -----
            let doomed = EngineService::start_persistent(
                engine_config(shards),
                service_config(),
                persistence,
                nurd_factory(policy.clone()),
            )
            .unwrap();
            let streams = nurd_trace::producer_streams(&jobs, 3, QUANTILE, interleave_seed);
            let mut held = BTreeMap::new();
            let mut firsts = Vec::new();
            if mid_checkpoint {
                // First halves, settle, snapshot; the rest rides the WAL
                // tail past the snapshot generation.
                firsts = stream_prefixes(&streams, 1, 2);
                run_producers(&doomed, firsts.clone(), &held);
                held = held_after(&firsts, &held);
                doomed.quiesce();
                doomed.checkpoint().unwrap();
            }
            let pushed = stream_shares(&streams, crash_at, &firsts);
            run_producers(&doomed, pushed.clone(), &held);
            doomed.quiesce();
            drop(doomed); // the crash: no close(), no shutdown snapshot
            let removed = cut_live_wal(&dir, keep, torn);

            if corrupt_latest {
                corrupt_newest_snapshot(&dir);
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
            if torn && removed > 0 {
                prop_assert!(recover.wal_truncated_tails >= 1);
            }
            // Exactly what the cut left: every record before it, and
            // everything the snapshot captured, is in the recovered state.
            let durable: u64 = recover.events_seen.values().sum();
            prop_assert_eq!(durable, event_count(&pushed) - removed);
            run_producers(&revived, streams, &recover.events_seen);
            revived.quiesce();
            let stats = revived.stats();
            prop_assert_eq!(stats.recovery_fallbacks, recover.recovery_fallbacks);
            let reports = collect_reports(&revived);
            assert_outcomes_match(
                &reports,
                &expected,
                &format!(
                    "shards={shards} crash_at={crash_at} keep={keep} torn={torn} \
                     mid_checkpoint={mid_checkpoint} corrupt={corrupt_latest}"
                ),
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// One directory shape of the chained-crash property: how both crashes
/// end and what happens between them.
#[derive(Debug, Clone, Copy)]
struct Chain {
    shards: usize,
    /// The share of every stream the first run serves before it crashes;
    /// past one half, it checkpoints at the half.
    first_crash: f64,
    /// The share of its live WAL records each crashed engine keeps.
    keep: f64,
    /// Both cuts tear the first record past them.
    torn: bool,
    /// The recovered engine checkpoints between the crashes (and, when
    /// the first run checkpointed too, prunes).
    checkpoint_between: bool,
    /// The newest snapshot is bit-flipped before the second recovery.
    corrupt: bool,
    /// How many unsynced events both crashed engines allow a shard.
    max_unsynced_events: usize,
}

/// Crash, recover, resume, crash again, recover again, finish: the
/// second recovery reads the directory the first one left, which holds
/// no snapshot of its own. Generations are fixed by the shape: the first
/// run logs to 0 and, past half its streams, checkpoints to 1 and logs
/// there; the recovered engine logs to the next generation and, with
/// `checkpoint_between`, checkpoints to the one after, whose prune (with
/// two snapshots on disk) deletes generation 0.
fn crash_twice_and_finish(
    chain: Chain,
    streams: &[Vec<TaskEvent>],
    expected: &[(u64, ReplayOutcome)],
    policy: &RefitPolicy,
) {
    let context = format!("{chain:?}");
    let dir = scratch_dir("chain");
    let persistence = || PersistenceConfig {
        max_unsynced_events: chain.max_unsynced_events,
        ..PersistenceConfig::new(&dir)
    };

    // The first run: a share of every stream, with a checkpoint at the
    // half when it gets that far.
    let doomed = EngineService::start_persistent(
        engine_config(chain.shards),
        service_config(),
        persistence(),
        nurd_factory(policy.clone()),
    )
    .unwrap();
    let first_checkpoint = chain.first_crash >= 0.5;
    let mut firsts = Vec::new();
    if first_checkpoint {
        firsts = stream_prefixes(streams, 1, 2);
        run_producers(&doomed, firsts.clone(), &BTreeMap::new());
        doomed.quiesce();
        assert_eq!(doomed.checkpoint().unwrap(), 1);
    }
    let pushed = stream_shares(streams, chain.first_crash, &firsts);
    run_producers(
        &doomed,
        pushed.clone(),
        &held_after(&firsts, &BTreeMap::new()),
    );
    doomed.quiesce();
    drop(doomed);
    let first_live = u64::from(first_checkpoint);
    let removed = cut_live_wal(&dir, chain.keep, chain.torn);

    // The first recovery serves up to 7/8 of every stream, checkpointing
    // at 3/4 when asked, and crashes too.
    let (revived, first) = EngineService::recover(
        persistence(),
        engine_config(chain.shards),
        service_config(),
        nurd_factory(policy.clone()),
    )
    .unwrap();
    let first_durable: u64 = first.events_seen.values().sum();
    assert_eq!(first_durable, event_count(&pushed) - removed, "{context}");
    assert_eq!(revived.stats().snapshots_written, 0, "{context}");
    let mut held = first.events_seen.clone();
    let mut served = 0;
    let mut between = None;
    if chain.checkpoint_between {
        let part = stream_prefixes(streams, 3, 4);
        served += run_producers(&revived, part.clone(), &held);
        held = held_after(&part, &held);
        revived.quiesce();
        between = Some(revived.checkpoint().unwrap());
        assert_eq!(between, Some(first_live + 2), "{context}");
    }
    served += run_producers(&revived, stream_prefixes(streams, 7, 8), &held);
    revived.quiesce();
    drop(revived);
    let removed_again = cut_live_wal(&dir, chain.keep, chain.torn);

    if chain.corrupt {
        corrupt_newest_snapshot(&dir);
    }
    let (last, second) = EngineService::recover(
        PersistenceConfig::new(&dir),
        engine_config(chain.shards),
        service_config(),
        nurd_factory(policy.clone()),
    )
    .unwrap();
    let first_snapshot = first_checkpoint.then_some(1);
    let (loaded, fallbacks) = match (between, chain.corrupt) {
        (Some(generation), false) => (Some(generation), 0),
        (Some(_), true) => (first_snapshot, 1),
        (None, false) => (first_snapshot, 0),
        (None, true) => (None, usize::from(first_checkpoint)),
    };
    assert_eq!(second.snapshot_generation, loaded, "{context}");
    assert_eq!(second.recovery_fallbacks, fallbacks, "{context}");
    if chain.torn && removed > 0 && loaded <= Some(first_live) {
        // The first crash's torn segment now sits mid-chain, with the
        // recovered engine's generation replayed after it.
        assert!(second.wal_truncated_tails >= 1, "{context}");
    }
    let second_durable: u64 = second.events_seen.values().sum();
    assert_eq!(
        second_durable,
        first_durable + served as u64 - removed_again,
        "{context}"
    );
    run_producers(&last, streams.to_vec(), &second.events_seen);
    last.quiesce();
    let reports = collect_reports(&last);
    assert_outcomes_match(&reports, expected, &context);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    // One case is 48 crash-twice runs; two would put the suite past ~10 s
    // in debug.
    #![proptest_config(ProptestConfig::with_cases(1))]

    /// **Restart equals uninterrupted across two crashes.** A recovery
    /// writes no snapshot, so what it leaves for the next one is the
    /// chain it recovered from plus a fresh WAL generation. Every case
    /// runs all sixteen shapes at shards {1, 2, 8}: torn or clean cuts
    /// (torn, the first one ends up mid-chain), a checkpoint between the
    /// crashes or none, a bit-flipped newest snapshot at the second
    /// recovery or none, and WALs fsynced past 16 unsynced events or only
    /// at rolls and shutdown. Checkpoint
    /// plus corruption is the shape that once lost data: the prune behind
    /// the checkpoint must leave every WAL generation the fallback replays.
    #[test]
    fn prop_chained_crashes_equal_uninterrupted(
        seed in 0u64..200,
        interleave_seed in 0u64..1000,
        first_crash in 0.0..1.0f64,
        keep in 0.0..1.0f64,
    ) {
        let jobs = suite(seed, 3);
        let policy = RefitPolicy::Warm(WarmRefitConfig::default());
        let expected = sequential_outcomes(&jobs, &policy);
        let streams = nurd_trace::producer_streams(&jobs, 3, QUANTILE, interleave_seed);
        for shape in 0..16u8 {
            for shards in [1usize, 2, 8] {
                let chain = Chain {
                    shards,
                    first_crash,
                    keep,
                    torn: shape & 1 != 0,
                    checkpoint_between: shape & 2 != 0,
                    corrupt: shape & 4 != 0,
                    max_unsynced_events: if shape & 8 != 0 { usize::MAX } else { 16 },
                };
                crash_twice_and_finish(chain, &streams, &expected, &policy);
            }
        }
    }
}

/// Crashes a `from`-shard service that checkpointed at half of every
/// stream and served four fifths, tears its live WAL generation, and
/// recovers at `to` shards: the snapshot's jobs and every replayed event
/// route by the new count, so a replayed segment feeds several shards
/// and several segments feed one. With `corrupt`, the snapshot is
/// bit-flipped and the whole two-generation chain replays that way.
fn recover_into_another_shard_count(from: usize, to: usize, corrupt: bool) {
    let context = format!("{from} -> {to} shards, corrupt={corrupt}");
    let jobs = suite(31, 6);
    let policy = RefitPolicy::Warm(WarmRefitConfig::default());
    let expected = sequential_outcomes(&jobs, &policy);
    let streams = nurd_trace::producer_streams(&jobs, 3, QUANTILE, 5);
    let dir = scratch_dir("reshard");
    let doomed = EngineService::start_persistent(
        engine_config(from),
        service_config(),
        PersistenceConfig::new(&dir),
        nurd_factory(policy.clone()),
    )
    .unwrap();
    let firsts = stream_prefixes(&streams, 1, 2);
    run_producers(&doomed, firsts.clone(), &BTreeMap::new());
    doomed.quiesce();
    assert_eq!(doomed.checkpoint().unwrap(), 1, "{context}");
    let pushed = stream_prefixes(&streams, 4, 5);
    run_producers(
        &doomed,
        pushed.clone(),
        &held_after(&firsts, &BTreeMap::new()),
    );
    doomed.quiesce();
    drop(doomed);
    let removed = cut_live_wal(&dir, 0.5, true);
    assert!(removed > 0, "{context}: the cut removed nothing");
    if corrupt {
        corrupt_newest_snapshot(&dir);
    }

    let (revived, receipt) = EngineService::recover(
        PersistenceConfig::new(&dir),
        engine_config(to),
        service_config(),
        nurd_factory(policy),
    )
    .unwrap();
    let loaded = (!corrupt).then_some(1);
    assert_eq!(receipt.snapshot_generation, loaded, "{context}");
    assert!(receipt.wal_truncated_tails >= 1, "{context}");
    let durable: u64 = receipt.events_seen.values().sum();
    assert_eq!(durable, event_count(&pushed) - removed, "{context}");
    run_producers(&revived, streams, &receipt.events_seen);
    revived.quiesce();
    let reports = collect_reports(&revived);
    assert_outcomes_match(&reports, &expected, &context);
    std::fs::remove_dir_all(&dir).ok();
}

/// A recovery may change the shard count: 2 shards recover at 8, and 8
/// recover at 3, from the snapshot plus the torn tail and from the whole
/// WAL chain, each to the never-crashed outcome.
#[test]
fn recovery_into_another_shard_count_equals_uninterrupted() {
    for (from, to) in [(2, 8), (8, 3)] {
        for corrupt in [false, true] {
            recover_into_another_shard_count(from, to, corrupt);
        }
    }
}

/// Two threads call `checkpoint()` 15 times each while a producer
/// streams. Every call must get a generation of its own: two writers that
/// shared one rotated every WAL to the same path, so one `File::create`
/// truncated the segment the other had just opened, and both wrote the
/// same `.tmp`. No call may fail, and the directory they leave behind
/// must recover to the uninterrupted outcome.
#[test]
fn concurrent_checkpoints_take_distinct_generations() {
    let jobs = suite(17, 4);
    let policy = RefitPolicy::Warm(WarmRefitConfig::default());
    let expected = sequential_outcomes(&jobs, &policy);
    let dir = scratch_dir("concurrent");
    let mut persistence = PersistenceConfig::new(&dir);
    persistence.max_unsynced_events = 0;
    let service = EngineService::start_persistent(
        engine_config(2),
        service_config(),
        persistence,
        nurd_factory(policy.clone()),
    )
    .unwrap();
    let streams = nurd_trace::producer_streams(&jobs, 1, QUANTILE, 4);
    let cut = stream_prefixes(&streams, 3, 4);
    // The producer and both writers start together.
    let start = std::sync::Barrier::new(3);
    let results: Vec<Result<u64, String>> = std::thread::scope(|scope| {
        let producer = scope.spawn(|| {
            start.wait();
            run_producers(&service, cut.clone(), &BTreeMap::new())
        });
        let writers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    (0..15)
                        .map(|_| service.checkpoint().map_err(|e| e.to_string()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        producer.join().unwrap();
        writers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect()
    });
    let errors: Vec<&String> = results.iter().filter_map(|r| r.as_ref().err()).collect();
    assert!(errors.is_empty(), "checkpoints failed: {errors:?}");
    let generations: std::collections::BTreeSet<u64> =
        results.iter().map(|r| *r.as_ref().unwrap()).collect();
    assert_eq!(generations.len(), 30, "generations shared: {generations:?}");
    service.quiesce();
    drop(service); // the crash

    let (revived, recover) = EngineService::recover(
        PersistenceConfig::new(&dir),
        engine_config(2),
        service_config(),
        nurd_factory(policy),
    )
    .unwrap();
    assert_eq!(recover.recovery_fallbacks, 0);
    assert_eq!(recover.snapshot_generation, generations.last().copied());
    run_producers(&revived, streams, &recover.events_seen);
    revived.quiesce();
    let reports = collect_reports(&revived);
    assert_outcomes_match(&reports, &expected, "concurrent checkpoints");
    std::fs::remove_dir_all(&dir).ok();
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
    let expected = sequential_outcomes(&jobs, &policy);
    let streams: Vec<Vec<TaskEvent>> = jobs
        .iter()
        .map(|job| nurd_data::job_stream(job, QUANTILE))
        .collect();
    assert!(matches!(streams[1][0], TaskEvent::JobStart { .. }));

    let dir = scratch_dir("admitted");
    let mut persistence = PersistenceConfig::new(&dir);
    persistence.max_unsynced_events = 0;
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

/// A predictor other than NURD recovers through its own blob: `FlagAll`'s
/// is empty, so a live job's record carries the shard-side bookkeeping
/// alone. Crash mid-stream, recover, resume — outcomes still equal
/// sequential replay.
#[test]
fn a_non_nurd_predictor_recovers_through_its_empty_blob() {
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

    for crash_at in [0.0, 0.25, 0.75] {
        let dir = scratch_dir("empty-blob");
        let mut persistence = PersistenceConfig::new(&dir);
        persistence.max_unsynced_events = 0;
        let doomed = EngineService::start_persistent(
            engine_config(2),
            service_config(),
            persistence,
            factory(),
        )
        .unwrap();
        let streams = nurd_trace::producer_streams(&jobs, 3, QUANTILE, 7);
        let pushed = stream_shares(&streams, crash_at, &[]);
        run_producers(&doomed, pushed, &BTreeMap::new());
        doomed.quiesce();
        doomed.checkpoint().unwrap(); // live jobs enter the snapshot
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
        assert_outcomes_match(&reports, &expected, &format!("crash_at={crash_at}"));
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// [`FlagAll`] without `snapshot_state`: a durable engine refuses its job.
struct Unsnapshotted;
impl OnlinePredictor for Unsnapshotted {
    fn name(&self) -> &str {
        "ALL-NO-SNAPSHOT"
    }
    fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
        checkpoint.running.iter().map(|r| r.id).collect()
    }
}

/// One job of a NURD fleet is served by a predictor that cannot snapshot
/// itself. A durable engine refuses its `JobStart` — one rejected event,
/// the rest of its stream orphans — identically at every shard count,
/// and serves every other job like sequential replay; a volatile engine
/// serves all of them.
#[test]
fn a_durable_engine_refuses_only_the_job_that_cannot_snapshot() {
    let jobs = suite(17, 3);
    let policy = RefitPolicy::Warm(WarmRefitConfig::default());
    let refused = jobs[1].job_id();
    let factory = || -> PredictorFactory {
        let nurd = nurd_factory(policy.clone());
        Box::new(move |spec: &JobSpec| {
            if spec.job == refused {
                Box::new(Unsnapshotted)
            } else {
                nurd(spec)
            }
        })
    };
    let streams = nurd_trace::producer_streams(&jobs, 3, QUANTILE, 7);
    let refused_events = streams
        .iter()
        .flatten()
        .filter(|e| e.job() == refused)
        .count();
    let mut expected = sequential_outcomes(&jobs, &policy);
    let served: Vec<(u64, ReplayOutcome)> = expected
        .iter()
        .filter(|(job, _)| *job != refused)
        .cloned()
        .collect();

    let mut first: Option<Vec<nurd_serve::JobReport>> = None;
    for shards in [1usize, 2, 8] {
        let dir = scratch_dir("refused");
        let service = EngineService::start_persistent(
            engine_config(shards),
            service_config(),
            PersistenceConfig::new(&dir),
            factory(),
        )
        .unwrap();
        run_producers(&service, streams.clone(), &BTreeMap::new());
        service.quiesce();
        let stats = service.stats();
        assert_eq!(
            (stats.rejected_events, stats.orphan_events),
            (1, refused_events - 1),
            "shards={shards}"
        );
        let reports = collect_reports(&service);
        assert_outcomes_match(&reports, &served, &format!("durable, shards={shards}"));
        match &first {
            Some(first) => assert_eq!(&reports, first, "shards={shards}"),
            None => first = Some(reports),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    let replay_cfg = ReplayConfig {
        quantile: QUANTILE,
        warmup_fraction: WARMUP,
    };
    expected[1].1 = replay_job(&jobs[1], &mut Unsnapshotted, &replay_cfg);
    let service = EngineService::start(engine_config(2), service_config(), factory());
    run_producers(&service, streams, &BTreeMap::new());
    service.quiesce();
    assert_eq!(service.stats().rejected_events, 0);
    assert_outcomes_match(&collect_reports(&service), &expected, "volatile");
}

/// Tag 1 was the retired history record (a job's accepted events, for a
/// predictor without `snapshot_state`). A snapshot holding one, its
/// framing and checksums intact, no longer loads: recovery falls back
/// past it to the previous snapshot and replays the WAL from there.
#[test]
fn a_snapshot_holding_a_history_record_falls_back_to_the_one_before() {
    let jobs = suite(13, 2);
    let dir = scratch_dir("history-record");
    let mut persistence = PersistenceConfig::new(&dir);
    persistence.max_unsynced_events = 0;
    persistence.retain_generations = 4;
    let doomed = EngineService::start_persistent(
        engine_config(2),
        service_config(),
        persistence,
        Box::new(|_| Box::new(FlagAll)),
    )
    .unwrap();
    let streams = nurd_trace::producer_streams(&jobs, 2, QUANTILE, 3);
    let thirds = stream_prefixes(&streams, 1, 3);
    run_producers(&doomed, thirds.clone(), &BTreeMap::new());
    doomed.quiesce();
    let older = doomed.checkpoint().unwrap();
    let rest = stream_prefixes(&streams, 2, 3);
    let second: Vec<Vec<TaskEvent>> = rest
        .iter()
        .zip(&thirds)
        .map(|(r, t)| r[t.len()..].to_vec())
        .collect();
    run_producers(&doomed, second, &BTreeMap::new());
    doomed.quiesce();
    let newer = doomed.checkpoint().unwrap();
    drop(doomed);

    // The newest snapshot's first job record, re-framed as a history
    // record of the same job: tag 1, its spec, its events, its actions.
    let path = dir.join(format!("snap-{newer}.bin"));
    assert!(read_snapshot(&path).unwrap().live_jobs > 0);
    let bytes = std::fs::read(&path).unwrap();
    let frame_end =
        |at: usize| at + 8 + u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let job_at = frame_end(12);
    let job_end = frame_end(job_at);
    let spec = JobSpec::decode(&mut Decoder::new(&bytes[job_at + 9..job_end])).unwrap();
    let mut record = Encoder::new();
    record.put_u8(1);
    spec.encode(&mut record);
    Vec::<TaskEvent>::new().encode(&mut record);
    Vec::<ActionRecord>::new().encode(&mut record);
    let mut rewritten = bytes[..job_at].to_vec();
    write_frame(&mut rewritten, record.as_slice()).unwrap();
    rewritten.extend_from_slice(&bytes[job_end..]);
    std::fs::write(&path, &rewritten).unwrap();
    assert!(read_snapshot(&path).is_ok(), "the framing is intact");

    let (revived, recover) = EngineService::recover(
        PersistenceConfig::new(&dir),
        engine_config(2),
        service_config(),
        Box::new(|_| Box::new(FlagAll)),
    )
    .unwrap();
    assert_eq!(recover.recovery_fallbacks, 1);
    assert_eq!(recover.snapshot_generation, Some(older));
    assert!(recover.wal_events_replayed > 0);
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
    assert_outcomes_match(&collect_reports(&revived), &expected, "history record");
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite (c): every corrupt-artifact shape is a typed
/// [`RecoverError`] from the public probe, and a full recovery falls
/// back past the corrupted newest snapshot to the previous valid one.
#[test]
fn corrupt_artifacts_are_rejected_typed_and_recovery_falls_back() {
    let jobs = suite(3, 2);
    let dir = scratch_dir("corrupt");
    let mut persistence = PersistenceConfig::new(&dir);
    persistence.max_unsynced_events = 0;
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
    persistence.max_unsynced_events = usize::MAX;
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

/// A three-task, one-feature job scored at its first barrier: task 0
/// finishing there is the warmup quorum, tasks 1 and 2 run. `JobEnd`
/// is left to the caller.
fn scored_prefix(job: u64) -> Vec<TaskEvent> {
    let spec = JobSpec {
        job,
        threshold: 10.0,
        task_count: 3,
        feature_dim: 1,
        checkpoints: 2,
    };
    let progress = |task| TaskEvent::Progress {
        job,
        task,
        ordinal: 0,
        time: 4.0,
        features: vec![0.5],
    };
    let mut events = vec![TaskEvent::JobStart { spec }];
    events.extend((0..3).map(|task| TaskEvent::Submitted { job, task }));
    events.extend([
        TaskEvent::Finished {
            job,
            task: 0,
            ordinal: 0,
            time: 4.0,
            features: vec![0.5],
            latency: 2.0,
        },
        progress(1),
        progress(2),
        TaskEvent::Barrier {
            job,
            ordinal: 0,
            time: 4.0,
        },
    ]);
    events
}

/// A predictor that panics when it scores: its job is poisoned.
struct Panics;
impl OnlinePredictor for Panics {
    fn name(&self) -> &str {
        "PANICS"
    }
    fn predict(&mut self, _checkpoint: &Checkpoint<'_>) -> Vec<usize> {
        panic!("predictor bug");
    }
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        Some(Vec::new())
    }
    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        bytes.is_empty()
    }
}

/// Asks to clone and to quarantine every scored task under a budget of
/// one clone: at a barrier scoring tasks 1 and 2 the engine commits the
/// clone of 1 and the quarantine of 2, and refuses the quarantine of 1
/// (already actioned) and the clone of 2 (over budget).
struct CloneAndQuarantineAll;
impl MitigationPolicy for CloneAndQuarantineAll {
    fn name(&self) -> &str {
        "clone-and-quarantine-all"
    }
    fn clone_budget(&self) -> Option<usize> {
        Some(1)
    }
    fn decide(&mut self, view: &BarrierView<'_>) -> Vec<(usize, MitigationAction)> {
        view.scores
            .iter()
            .flat_map(|s| {
                [
                    (s.task, MitigationAction::Clone),
                    (s.task, MitigationAction::Quarantine),
                ]
            })
            .collect()
    }
}

fn greedy_mitigator() -> MitigatorFactory {
    Box::new(|_| Box::new(CloneAndQuarantineAll))
}

/// The counters a snapshot carries, in their on-disk order.
fn persisted_counters(stats: &EngineStats) -> [usize; 11] {
    [
        stats.events_per_shard.iter().sum(),
        stats.orphan_events,
        stats.rejected_events,
        stats.stale_events,
        stats.finalized_jobs,
        stats.poisoned_jobs,
        stats.overload.shed_events,
        stats.overload.rejected_ingress,
        stats.clones_issued,
        stats.quarantines_issued,
        stats.mitigation_suppressed,
    ]
}

/// A restart carries every persisted counter forward — each made nonzero
/// first (but `shed_events`: one lossy policy runs at a time) — and
/// restarts the scheduling-dependent ones at zero. The run: an orphan, a
/// stale and a rejected event, a poisoned job, clones, quarantines and
/// refusals of a budgeted mitigator, pushes `RejectNew` dropped while a
/// job's admission held its shard, and a balance boost; then a
/// checkpoint, a WAL tail past it (a live job's end, more of each kind),
/// a drop, a corrupt newer snapshot, and recovery into two shards.
#[test]
fn a_restart_carries_the_persisted_counters_forward() {
    const POISONED: u64 = 2;
    const GATED: u64 = 3;
    // Deeper than one drain batch (256 events), so the gated job's queue
    // outlives the first pop and its backlog boosts the shard.
    const CAPACITY: usize = 300;
    let dir = scratch_dir("counters");
    let config = EngineConfig {
        shards: 1,
        warmup_fraction: WARMUP,
        queue_capacity: Some(CAPACITY),
        overload: OverloadPolicy::RejectNew,
        balance: Some(BalanceConfig {
            backlog_threshold: 1,
            min_tasks: 0,
            threads: 2,
        }),
    };
    let service_config = ServiceConfig { drain_workers: 2 };
    // Met twice by the gated job's admission and this thread: once when
    // the admission holds the shard, once to let it go.
    let gate = std::sync::Arc::new(std::sync::Barrier::new(2));
    let admission = std::sync::Arc::clone(&gate);
    let factory: PredictorFactory = Box::new(move |spec: &JobSpec| match spec.job {
        POISONED => Box::new(Panics),
        GATED => {
            admission.wait();
            admission.wait();
            Box::new(FlagAll)
        }
        _ => Box::new(FlagAll),
    });
    let service = EngineService::start_persistent(
        config.clone(),
        service_config.clone(),
        PersistenceConfig::new(&dir),
        factory,
    )
    .unwrap();
    assert!(service.attach_mitigator(greedy_mitigator()));
    // Pushed at most a queue's worth at a time, each run drained before
    // the next: nothing here is dropped.
    let push_drained = |events: Vec<TaskEvent>| {
        for run in events.chunks(CAPACITY) {
            for event in run {
                assert!(service.push(event.clone()), "lost {event:?}");
            }
            service.quiesce();
        }
    };
    let end = |job| TaskEvent::JobEnd { job, time: 8.0 };
    let orphan = TaskEvent::Submitted { job: 99, task: 0 };
    let stale = TaskEvent::Submitted { job: 1, task: 0 };

    let mut job_1 = scored_prefix(1);
    // Not the next checkpoint: rejected.
    job_1.push(TaskEvent::Barrier {
        job: 1,
        ordinal: 5,
        time: 5.0,
    });
    job_1.push(end(1));
    push_drained(job_1);
    push_drained(vec![stale.clone(), orphan.clone()]);
    push_drained(scored_prefix(POISONED));
    push_drained(scored_prefix(4)); // still live at the checkpoint

    // The gated job's admission holds the only shard: a queue's worth
    // of its events is accepted, the next two are dropped.
    assert!(service.push(TaskEvent::JobStart {
        spec: JobSpec {
            job: GATED,
            threshold: 10.0,
            task_count: 3,
            feature_dim: 1,
            checkpoints: 2,
        },
    }));
    gate.wait();
    let submitted: Vec<TaskEvent> = (0..CAPACITY + 2)
        .map(|task| TaskEvent::Submitted {
            job: GATED,
            task: task % 3,
        })
        .collect();
    let accepted: Vec<bool> = submitted.into_iter().map(|e| service.push(e)).collect();
    assert!(accepted[..CAPACITY].iter().all(|&a| a));
    assert_eq!(accepted[CAPACITY..], [false, false]);
    gate.wait();
    service.quiesce();
    push_drained(vec![end(GATED)]);
    service.checkpoint().unwrap();

    // The WAL tail past the checkpoint, replayed at recovery.
    let mut tail = vec![end(4), stale, orphan];
    tail.extend(scored_prefix(5));
    push_drained(tail);
    let before = service.stats();
    drop(service);

    let counters = persisted_counters(&before);
    for (i, &n) in counters.iter().enumerate() {
        assert_eq!(n > 0, i != 6, "persisted counter {i} is {n}");
    }
    assert_eq!(before.overload.rejected_ingress, 2);
    assert!(before.balance_boosts > 0);

    let newest = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().ok()?;
            name.strip_prefix("snap-")?
                .strip_suffix(".bin")?
                .parse::<u64>()
                .ok()
        })
        .max()
        .unwrap();
    std::fs::write(dir.join(format!("snap-{}.bin", newest + 1)), b"garbage").unwrap();

    let (revived, report) = EngineService::recover_with_mitigator(
        PersistenceConfig::new(&dir),
        EngineConfig {
            shards: 2,
            ..config
        },
        service_config,
        Box::new(|_| Box::new(FlagAll)),
        greedy_mitigator(),
    )
    .unwrap();
    let after = revived.stats();
    assert_eq!(persisted_counters(&after), counters);
    assert_eq!(
        (
            after.blocked_pushes,
            after.balance_boosts,
            after.caller_drained
        ),
        (0, 0, 0)
    );
    assert_eq!(report.recovery_fallbacks, 1);
    assert_eq!(after.recovery_fallbacks, report.recovery_fallbacks);
    assert!(report.wal_events_replayed > 0);
    assert_eq!(after.wal_replayed, report.wal_events_replayed);
    assert_eq!((after.wal_appended, after.snapshots_written), (0, 0));
    let _ = revived.close();
    std::fs::remove_dir_all(&dir).ok();
}
