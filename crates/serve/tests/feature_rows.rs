//! A job's tasks described out of task-id order, one of them running
//! undescribed at a scored barrier, served at shards {1, 2, 8}.
//!
//! The engine keeps each job's task features as rows of one table, in the
//! order tasks were first described, and lends the predictor a task's row
//! (or nothing, for a task that was only submitted). Here every
//! checkpoint's events arrive in falling task-id order, and one task's
//! features are withheld through the first scored checkpoint:
//!
//! 1. the served report equals sequential `replay_job` of the same trace;
//! 2. after every event, a snapshot writes the bytes recorded below, and a
//!    service recovered from it writes those bytes again.
//!
//! The constants were recorded on commit `e2d89f2`, where each task kept
//! its own feature vector: the snapshot format did not move with the
//! table.

use std::path::{Path, PathBuf};

use nurd_data::{
    job_stream, Checkpoint, JobSpec, JobTrace, OnlinePredictor, RunningTask, TaskEvent,
};
use nurd_serve::{
    EngineConfig, EngineReport, EngineService, PersistenceConfig, PredictorFactory, ServiceConfig,
};
use nurd_sim::{replay_job, ReplayConfig};
use nurd_trace::{SuiteConfig, TraceStyle};

const QUANTILE: f64 = 0.9;
const WARMUP: f64 = 0.04;

/// `(shards, snapshots written, FNV-1a 64 of their bytes in order)`. A
/// snapshot merges every shard's jobs and counters, so the rows agree.
const GOLDEN_SNAPSHOTS: [(usize, usize, u64); 3] = [
    (1, 43, 0x7C88_EE4F_8E7F_5509),
    (2, 43, 0x7C88_EE4F_8E7F_5509),
    (8, 43, 0x7C88_EE4F_8E7F_5509),
];

/// Blob-capable and stateless: flags each running task whose feature sum
/// is above the finished tasks' mean feature sum (a task with no features
/// never), so what it flags hangs on which row each task is lent.
struct AboveFinishedMean;

impl OnlinePredictor for AboveFinishedMean {
    fn name(&self) -> &str {
        "ABOVE"
    }
    fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
        let sum = |features: &[f64]| features.iter().sum::<f64>();
        let sums = checkpoint.finished.iter().map(|f| sum(f.features));
        let (total, n) = sums.fold((0.0, 0.0), |(total, n), x| (total + x, n + 1.0));
        let mean = if n > 0.0 { total / n } else { 0.0 };
        let above = |r: &&RunningTask<'_>| !r.features.is_empty() && sum(r.features) > mean;
        checkpoint
            .running
            .iter()
            .filter(above)
            .map(|r| r.id)
            .collect()
    }
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        Some(Vec::new())
    }
    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        bytes.is_empty()
    }
}

fn factory() -> PredictorFactory {
    Box::new(|_spec: &JobSpec| Box::new(AboveFinishedMean))
}

fn replay_config() -> ReplayConfig {
    ReplayConfig {
        quantile: QUANTILE,
        warmup_fraction: WARMUP,
    }
}

fn job() -> JobTrace {
    let cfg = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(1)
        .with_task_range(12, 13)
        .with_checkpoints(6)
        .with_seed(43);
    nurd_trace::generate_job(&cfg, 0)
}

/// `job`'s stream with each checkpoint's task events reversed (task 5 is
/// described before task 0) and a task that replay leaves unflagged and
/// running at the first scored checkpoint `w` stripped of its `Progress`
/// events through `w`: at barrier `w` it is submitted, not described.
fn reordered_stream(job: &JobTrace) -> Vec<TaskEvent> {
    let replayed = replay_job(job, &mut AboveFinishedMean, &replay_config());
    let w = replayed.warmup_checkpoint;
    let threshold = replayed.threshold;
    let time = job.checkpoint_times()[w];
    assert!(time < threshold, "checkpoint {w} is scored");
    let late = (0..job.task_count())
        .rev()
        .find(|&t| job.tasks()[t].latency() > time && replayed.flagged_at[t].is_none_or(|k| k > w))
        .expect("some task runs unflagged through checkpoint w");

    let mut stream = Vec::new();
    let mut group = Vec::new();
    for event in job_stream(job, QUANTILE) {
        match event {
            TaskEvent::Progress { task, ordinal, .. } if task == late && ordinal <= w => {}
            TaskEvent::Progress { .. } | TaskEvent::Finished { .. } => group.push(event),
            event => {
                stream.extend(group.drain(..).rev());
                stream.push(event);
            }
        }
    }
    stream
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nurd-rows-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn engine_config(shards: usize) -> EngineConfig {
    EngineConfig {
        shards,
        warmup_fraction: WARMUP,
        ..EngineConfig::default()
    }
}

fn snapshot(service: &EngineService, dir: &Path) -> Vec<u8> {
    let generation = service.checkpoint().unwrap();
    std::fs::read(dir.join(format!("snap-{generation}.bin"))).unwrap()
}

/// Serves `stream` at `shards`, snapshotting after every event; each
/// snapshot is recovered in a copy of the directory and must be written
/// again byte for byte. Returns the final report, the snapshot count and
/// the FNV-1a 64 of every snapshot's bytes in order.
fn serve(stream: &[TaskEvent], shards: usize) -> (EngineReport, usize, u64) {
    let dir = scratch_dir(&format!("live-{shards}"));
    let twin_dir = scratch_dir(&format!("twin-{shards}"));
    let service = EngineService::start_persistent(
        engine_config(shards),
        ServiceConfig::default(),
        PersistenceConfig::new(&dir),
        factory(),
    )
    .unwrap();
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for (at, event) in stream.iter().enumerate() {
        assert!(service.push(event.clone()));
        service.quiesce();
        let bytes = snapshot(&service, &dir);
        hash = bytes.iter().fold(hash, |hash, &b| {
            (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        });

        std::fs::remove_dir_all(&twin_dir).ok();
        std::fs::create_dir_all(&twin_dir).unwrap();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            std::fs::copy(&path, twin_dir.join(path.file_name().unwrap())).unwrap();
        }
        let (twin, _) = EngineService::recover(
            PersistenceConfig::new(&twin_dir),
            engine_config(shards),
            ServiceConfig::default(),
            factory(),
        )
        .unwrap_or_else(|e| panic!("shards {shards}, event {at}: {e:?}"));
        assert!(
            snapshot(&twin, &twin_dir) == bytes,
            "shards {shards}, event {at}: the recovered snapshot differs"
        );
        drop(twin);
    }
    let report = service.close();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&twin_dir).ok();
    (report, stream.len(), hash)
}

#[test]
fn rows_out_of_task_order_serve_like_replay_and_snapshot_like_before() {
    let job = job();
    let stream = reordered_stream(&job);
    let replayed = replay_job(&job, &mut AboveFinishedMean, &replay_config());
    assert!(!replayed.flagged_ids().is_empty(), "the predictor flags");
    let mut found = Vec::new();
    let mut reports = Vec::new();
    for (shards, _, _) in GOLDEN_SNAPSHOTS {
        let (report, count, hash) = serve(&stream, shards);
        assert_eq!(report.jobs.len(), 1);
        assert_eq!(report.jobs[0].outcome, replayed, "shards {shards}");
        found.push((shards, count, hash));
        reports.push(report);
    }
    assert!(reports.windows(2).all(|w| w[0] == w[1]));
    assert_eq!(
        found, GOLDEN_SNAPSHOTS,
        "the snapshots' bytes moved; found:\n{found:#x?}"
    );
}
