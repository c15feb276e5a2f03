//! Crash-recovery smoke test **as an end-to-end gate**: a persistent
//! service streams ~40% of a fleet from 3 producer threads and is dropped
//! without `close()`; its live WAL generation is then cut mid-record —
//! the torn tail a crash past the last fsync can leave — and a fresh service
//! recovers from the directory. The recovered service resumes part of
//! the fleet and crashes too (its own tail cut at a record boundary); a
//! third service recovers from what the first recovery left — no snapshot
//! of its own, the torn segment now mid-chain — at 3 shards with 2 drain
//! workers, so the two-generation chain of 4-shard segments replays
//! cross-routed, each generation's segments in parallel on 3 threads,
//! and finishes. Producers
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
    EngineConfig, EngineService, OverloadPolicy, PersistenceConfig, RecoverReport, ServiceConfig,
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

fn engine_config(shards: usize) -> EngineConfig {
    EngineConfig {
        shards,
        warmup_fraction: WARMUP,
        queue_capacity: Some(256),
        overload: OverloadPolicy::Block,
        balance: None,
    }
}

/// Cuts every segment of the newest WAL generation in `dir` (the live one
/// of the engine that just crashed) after its first `keep` records; with
/// `torn`, half of the next record stays too. Returns how many records
/// the cut removed.
fn cut_live_wal(dir: &Path, keep: usize, torn: bool) -> u64 {
    let segments: Vec<(u64, std::path::PathBuf)> = std::fs::read_dir(dir)
        .expect("engine directory")
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            let body = name.strip_prefix("wal-")?.strip_suffix(".log")?;
            Some((body.split_once('-')?.0.parse().ok()?, dir.join(name)))
        })
        .collect();
    let live = segments.iter().map(|&(generation, _)| generation).max();
    let mut removed = 0;
    for (_, path) in segments.iter().filter(|&&(g, _)| Some(g) == live) {
        let bytes = std::fs::read(path).expect("WAL segment");
        // Record boundaries: `[len: u32][crc: u32][payload]` frames.
        let (mut ends, mut at) = (vec![0], 0);
        while let Some(header) = bytes.get(at..at + 4) {
            at += 8 + u32::from_le_bytes(header.try_into().expect("4 bytes")) as usize;
            ends.push(at);
        }
        let records = ends.len() - 1;
        let kept = keep.min(records);
        let mut cut = ends[kept];
        if torn && kept < records {
            cut += (ends[kept + 1] - cut) / 2;
        }
        std::fs::write(path, &bytes[..cut]).expect("cut WAL segment");
        removed += (records - kept) as u64;
    }
    removed
}

fn prefixes(streams: &[Vec<TaskEvent>], num: usize, den: usize) -> Vec<Vec<TaskEvent>> {
    streams
        .iter()
        .map(|s| s[..s.len() * num / den].to_vec())
        .collect()
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

/// Recovers `dir` at `shards` shards, prints the receipt, and checks it:
/// exactly `durable` events durable, the first crash's torn record found.
fn recover(
    dir: &Path,
    durable: u64,
    shards: usize,
    service: ServiceConfig,
) -> (EngineService, RecoverReport) {
    let (service, receipt) = EngineService::recover(
        PersistenceConfig::new(dir),
        engine_config(shards),
        service,
        Box::new(|_spec: &JobSpec| Box::new(nurd_warm())),
    )
    .expect("recover");
    let recovered: u64 = receipt.events_seen.values().sum();
    println!(
        "recovered at {shards} shards: snapshot generation {:?} · {} WAL events replayed · \
         {} torn tails · {} jobs resumed mid-stream · {} finalized reports carried · \
         {recovered} durable events · {} snapshots written",
        receipt.snapshot_generation,
        receipt.wal_events_replayed,
        receipt.wal_truncated_tails,
        receipt.resumed_jobs,
        receipt.finalized_jobs,
        service.stats().snapshots_written,
    );
    assert_eq!(
        recovered, durable,
        "recovery must hold exactly the events the crash left"
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

    // Serve ~40% of the fleet, crash, and tear the live WAL's tail: each
    // segment keeps its first 60% of records and half of the next one.
    println!(
        "streaming {} jobs · {n_events} events · {PRODUCERS} producers → {SHARDS} shards; \
         the process \"crashes\" after 2/5 of every stream (its WAL tail torn), and the \
         recovered one after 3/4",
        jobs.len(),
    );
    let part = prefixes(&streams, 2, 5);
    let doomed = EngineService::start_persistent(
        engine_config(SHARDS),
        ServiceConfig::default(),
        PersistenceConfig::new(&dir),
        Box::new(|_spec: &JobSpec| Box::new(nurd_warm())),
    )
    .expect("start_persistent");
    let pushed = run_producers(&doomed, &part, &BTreeMap::new());
    doomed.quiesce();
    drop(doomed); // the crash: no close(), no shutdown snapshot
    let removed = cut_live_wal(&dir, (pushed as usize) * 3 / 5 / SHARDS, true);

    // Resume three quarters of every stream, then crash again: the
    // recovered engine's own tail loses its last records.
    let (revived, first) = recover(&dir, pushed - removed, SHARDS, ServiceConfig::default());
    let pushed = run_producers(&revived, &prefixes(&streams, 3, 4), &first.events_seen);
    revived.quiesce();
    drop(revived);
    let removed = cut_live_wal(&dir, (pushed as usize) / 2 / SHARDS, false);

    // The second recovery replays the torn segment again, mid-chain, and
    // the first recovery's own WAL generation after it — both written by
    // 4 shards, each routed into 3 here, a generation's segments on 3
    // threads at once.
    let admitted = first.events_seen.values().sum::<u64>() + pushed - removed;
    let service = ServiceConfig { drain_workers: 2 };
    let (revived, second) = recover(&dir, admitted, 3, service);

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
