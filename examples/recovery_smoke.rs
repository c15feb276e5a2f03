//! Crash-recovery smoke test **as an end-to-end gate**: a persistent
//! service streams a fleet from 3 producer threads, the write-ahead log
//! is killed mid-run by a fault injector (with a torn half-written tail
//! record — what a real `kill -9` leaves), the service is dropped
//! without `close()`, and a fresh service recovers from the directory.
//! The recovered service resumes part of the fleet and crashes too; a
//! third service recovers from what the first recovery left — no snapshot
//! of its own, the torn segment now mid-chain — and finishes. Producers
//! resume each job's stream from the recovered per-job durable event
//! counts, and every job's final outcome is asserted bit-for-bit equal to
//! a never-crashed sequential replay.
//!
//! CI runs this example as the gate on the persistence path: it exits
//! nonzero on any panic, on any recovery error, or on any divergence
//! from sequential replay.
//!
//! ```sh
//! cargo run --release --example recovery_smoke
//! ```

use std::collections::BTreeMap;
use std::path::Path;

use nurd::core::{NurdConfig, NurdPredictor, RefitPolicy, WarmRefitConfig};
use nurd::data::{JobSpec, TaskEvent};
use nurd::serve::{
    EngineConfig, EngineService, FaultInjector, FsyncPolicy, OverloadPolicy, PersistenceConfig,
    RecoverReport, ServiceConfig,
};
use nurd::sim::{replay_job, ReplayConfig};
use nurd::trace::{SuiteConfig, TraceStyle};

const SHARDS: usize = 4;
const PRODUCERS: usize = 3;
const QUANTILE: f64 = 0.9;
const WARMUP: f64 = 0.04;

fn nurd_warm() -> NurdPredictor {
    NurdPredictor::new(
        NurdConfig::default().with_refit_policy(RefitPolicy::Warm(WarmRefitConfig::default())),
    )
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        shards: SHARDS,
        warmup_fraction: WARMUP,
        queue_capacity: Some(256),
        overload: OverloadPolicy::Block,
        balance: None,
    }
}

/// Always-fsync persistence under `dir` whose WAL dies after `budget`
/// records.
fn persistence(dir: &Path, budget: u64, torn: bool) -> PersistenceConfig {
    let fault = FaultInjector::crash_after_wal_records(budget);
    let mut persistence = PersistenceConfig::new(dir);
    persistence.fsync = FsyncPolicy::Always;
    persistence.fault = Some(if torn { fault.with_torn_tail() } else { fault });
    persistence
}

/// Pushes each stream on its own thread, skipping the first
/// `events_seen[job]` events of every job (the recovered durable prefix).
/// Returns how many events were pushed.
fn run_producers(
    service: &EngineService,
    streams: &[Vec<TaskEvent>],
    events_seen: &BTreeMap<u64, u64>,
) -> u64 {
    let producers: Vec<_> = streams
        .iter()
        .map(|stream| {
            let handle = service.handle();
            let stream = stream.clone();
            let seen = events_seen.clone();
            std::thread::spawn(move || {
                let mut position: BTreeMap<u64, u64> = BTreeMap::new();
                let mut pushed = 0;
                for event in stream {
                    let slot = position.entry(event.job()).or_insert(0);
                    let index = *slot;
                    *slot += 1;
                    if index < seen.get(&event.job()).copied().unwrap_or(0) {
                        continue;
                    }
                    assert!(handle.push(event), "push rejected on a live service");
                    pushed += 1;
                }
                pushed
            })
        })
        .collect();
    producers
        .into_iter()
        .map(|p| p.join().expect("producer panicked"))
        .sum()
}

/// Recovers `persistence.dir`, prints the receipt, and checks it: at
/// least `admitted` events durable, the first crash's torn record found.
fn recover(persistence: PersistenceConfig, admitted: u64) -> (EngineService, RecoverReport) {
    let (service, receipt) = EngineService::recover(
        persistence,
        engine_config(),
        ServiceConfig::default(),
        Box::new(|_spec: &JobSpec| Box::new(nurd_warm())),
    )
    .expect("recover");
    let durable: u64 = receipt.events_seen.values().sum();
    println!(
        "recovered: snapshot generation {:?} · {} WAL events replayed · {} torn tails · \
         {} jobs resumed mid-stream · {} finalized reports carried · {durable} durable events · \
         {} snapshots written",
        receipt.snapshot_generation,
        receipt.wal_events_replayed,
        receipt.wal_truncated_tails,
        receipt.resumed_jobs,
        receipt.finalized_jobs,
        service.stats().snapshots_written,
    );
    assert!(
        durable >= admitted,
        "accepted-event loss up to the last fsync: {durable} < {admitted}"
    );
    assert!(
        receipt.wal_truncated_tails >= 1,
        "the torn tail record must be detected (and discarded)"
    );
    assert_eq!(service.stats().snapshots_written, 0, "recovery writes none");
    (service, receipt)
}

fn main() {
    let cfg = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(5)
        .with_task_range(60, 100)
        .with_checkpoints(10)
        .with_seed(0xC4A5);
    let jobs = nurd::trace::generate_suite(&cfg);
    let streams = nurd::trace::producer_streams(&jobs, PRODUCERS, QUANTILE, 0xC4A5);
    let n_events: usize = streams.iter().map(Vec::len).sum();

    let dir = std::env::temp_dir().join(format!("nurd-recovery-smoke-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // Kill the WAL after ~40% of the fleet's events, tearing the record
    // in flight — the torn frame a crash mid-`write` leaves on disk.
    let crash_budget = (n_events as u64) * 2 / 5;
    // The recovered service's WAL dies after another ~20%.
    let second_budget = (n_events as u64) / 5;
    println!(
        "streaming {} jobs · {n_events} events · {PRODUCERS} producers → {SHARDS} shards; \
         WAL dies after {crash_budget} records (torn tail), then the process \"crashes\"; \
         the recovered one dies {second_budget} records later",
        jobs.len(),
    );

    let doomed = EngineService::start_persistent(
        engine_config(),
        ServiceConfig::default(),
        persistence(&dir, crash_budget, true),
        Box::new(|_spec: &JobSpec| Box::new(nurd_warm())),
    )
    .expect("start_persistent");
    run_producers(&doomed, &streams, &BTreeMap::new());
    doomed.quiesce();
    drop(doomed); // the crash: no close(), no shutdown snapshot

    // Resume three quarters of every stream, then crash again.
    let (revived, first) = recover(persistence(&dir, second_budget, false), crash_budget);
    let part: Vec<Vec<TaskEvent>> = streams
        .iter()
        .map(|s| s[..s.len() * 3 / 4].to_vec())
        .collect();
    let pushed = run_producers(&revived, &part, &first.events_seen);
    revived.quiesce();
    drop(revived);

    // The second recovery replays the torn segment again, mid-chain, and
    // the first recovery's own WAL generation after it.
    let admitted = first.events_seen.values().sum::<u64>() + second_budget.min(pushed);
    let (revived, second) = recover(PersistenceConfig::new(&dir), admitted);

    // Resume every job from its durable prefix and finish the fleet.
    run_producers(&revived, &streams, &second.events_seen);
    revived.quiesce();
    let mut reports = revived.take_finalized();
    let stats = revived.stats();
    let final_report = revived.close();
    reports.extend(final_report.jobs);

    assert_eq!(reports.len(), jobs.len(), "every job must finalize");
    assert_eq!(
        final_report.overload.lost_events(),
        0,
        "Block policy must not lose events"
    );

    // The contract: restart equals uninterrupted — every recovered job's
    // outcome is bit-for-bit the never-crashed sequential replay.
    let replay_cfg = ReplayConfig {
        quantile: QUANTILE,
        warmup_fraction: WARMUP,
    };
    for job in &jobs {
        let reference = replay_job(job, &mut nurd_warm(), &replay_cfg);
        let served = &reports
            .iter()
            .find(|r| r.job == job.job_id())
            .expect("job reported")
            .outcome;
        assert_eq!(
            served,
            &reference,
            "recovered engine diverged from sequential replay (job {})",
            job.job_id()
        );
    }
    println!(
        "restart-equals-uninterrupted across two crashes: OK ({} jobs · {} WAL appends · \
         {} snapshots written)",
        jobs.len(),
        stats.wal_appended,
        stats.snapshots_written,
    );
    std::fs::remove_dir_all(&dir).ok();
}
