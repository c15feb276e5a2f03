//! What the durable path leaves on disk: the bytes, and nothing else.
//!
//! A change that claims "no format bump" — a faster checksum kernel, a
//! reshaped frame writer — is held to it here rather than taken at its
//! word: a small fixed fleet goes through `start_persistent`, a mid-stream
//! `checkpoint()` and a WAL tail, and every `wal-*.log` and `snap-*.bin`
//! the directory then holds must hash to the constants below. A directory
//! written by one build recovers under another exactly while this passes
//! on both.
//!
//! Re-record only in a PR that bumps `SNAPSHOT_VERSION`, changes a
//! `Checkpointable` impl on purpose, or changes the model on purpose (the
//! failure message prints the new list). A model change moves the
//! `snap-*` rows only — a snapshot carries every live predictor's fitted
//! state, a WAL carries the events alone — and re-records them under the
//! protocol in the header of `tests/golden_replay.rs`. The constants here
//! were recorded on commit `8088e0d`, the parent of the PR that replaced
//! the CRC-32 kernel; `snap-1.bin` was re-recorded on `f105cfc` for the
//! IRLS resolution stop (same length; its hash was `0xD743_8AD9_01C3_10B6`).
//!
//! The second test plants what a crash between `File::create(tmp)` and
//! `rename` strands — a `snap-<G>.bin.tmp` no scan lists — and holds
//! `recover` itself to removing it, whatever it contains.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use nurd_core::{NurdConfig, NurdPredictor, RefitPolicy, WarmRefitConfig};
use nurd_data::{JobSpec, TaskEvent};
use nurd_serve::{
    EngineConfig, EngineService, JobReport, OverloadPolicy, PersistenceConfig, PredictorFactory,
    ServiceConfig,
};
use nurd_trace::{SuiteConfig, TraceStyle};

/// `(file name, length, FNV-1a 64 of its bytes)` for every artifact of
/// the fleet below, in name order.
const GOLDEN_DISK_BYTES: [(&str, usize, u64); 5] = [
    ("snap-1.bin", 33_952, 0x0C81_FAAA_9036_CC2B),
    ("wal-0-0.log", 9_692, 0x83D0_620C_784E_93FF),
    ("wal-0-1.log", 23_963, 0x043F_C6C8_72B9_C5C7),
    ("wal-1-0.log", 21_568, 0x5A44_12AD_BA31_B3E3),
    ("wal-1-1.log", 26_534, 0x7D4C_F880_14BE_51B9),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nurd-disk-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

fn factory() -> PredictorFactory {
    Box::new(|_spec: &JobSpec| {
        Box::new(NurdPredictor::new(NurdConfig::default().with_refit_policy(
            RefitPolicy::Warm(WarmRefitConfig::default()),
        )))
    })
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        shards: 2,
        warmup_fraction: 0.04,
        queue_capacity: Some(16),
        overload: OverloadPolicy::Block,
        balance: None,
    }
}

fn service_config() -> ServiceConfig {
    ServiceConfig { drain_workers: 2 }
}

/// Serves a fixed 3-job fleet into `dir` and "crashes": half the stream,
/// a snapshot of the live jobs, then all but the last tenth as the WAL
/// tail past it; dropping the service unclosed flushes the segments and
/// writes no shutdown snapshot. Returns the whole stream.
fn crashed_fleet(dir: &Path) -> Vec<TaskEvent> {
    let jobs = nurd_trace::generate_suite(
        &SuiteConfig::new(TraceStyle::Google)
            .with_jobs(3)
            .with_task_range(50, 70)
            .with_checkpoints(8)
            .with_seed(24),
    );
    // One producer: each shard's WAL order is then the stream's order.
    let stream = nurd_trace::producer_streams(&jobs, 1, 0.9, 7).remove(0);
    let service = EngineService::start_persistent(
        engine_config(),
        service_config(),
        PersistenceConfig::new(dir),
        factory(),
    )
    .unwrap();
    let (cut, end) = (stream.len() / 2, stream.len() * 9 / 10);
    for event in &stream[..cut] {
        assert!(service.push(event.clone()));
    }
    service.quiesce();
    assert_eq!(service.checkpoint().unwrap(), 1);
    for event in &stream[cut..end] {
        assert!(service.push(event.clone()));
    }
    service.quiesce();
    drop(service);
    stream
}

#[test]
fn durable_artifacts_keep_their_bytes() {
    let dir = scratch_dir("bytes");
    crashed_fleet(&dir);
    let found: Vec<(String, usize, u64)> = file_names(&dir)
        .into_iter()
        .map(|name| {
            let bytes = std::fs::read(dir.join(&name)).unwrap();
            (name, bytes.len(), fnv1a(&bytes))
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();

    let golden: Vec<(String, usize, u64)> = GOLDEN_DISK_BYTES
        .iter()
        .map(|&(name, len, hash)| (name.to_owned(), len, hash))
        .collect();
    assert_eq!(
        found, golden,
        "the durable path wrote different bytes; found:\n{found:#x?}"
    );
}

/// Recovers `dir`, resumes every job from the report's `events_seen`,
/// takes one more snapshot and closes. Returns the recovery receipt (as
/// its `Debug` text), the file names `recover` alone left behind and the
/// final reports.
fn recover_and_finish(dir: &Path, stream: &[TaskEvent]) -> (String, Vec<String>, Vec<JobReport>) {
    let (service, receipt) = EngineService::recover(
        PersistenceConfig::new(dir),
        engine_config(),
        service_config(),
        factory(),
    )
    .unwrap();
    let names = file_names(dir);
    let mut position: BTreeMap<u64, u64> = BTreeMap::new();
    for event in stream {
        let slot = position.entry(event.job()).or_insert(0);
        *slot += 1;
        if *slot > receipt.events_seen.get(&event.job()).copied().unwrap_or(0) {
            assert!(service.push(event.clone()));
        }
    }
    service.quiesce();
    service.checkpoint().unwrap();
    let mut reports = service.take_finalized();
    reports.extend(service.close().jobs);
    reports.sort_by_key(|r| r.job);
    (format!("{receipt:?}"), names, reports)
}

#[test]
fn a_stale_snapshot_tmp_is_pruned_and_never_read() {
    let origin = scratch_dir("tmp-origin");
    let stream = crashed_fleet(&origin);
    let valid_snapshot = std::fs::read(origin.join("snap-1.bin")).unwrap();
    // `None` is the control: the same directory with nothing stranded.
    let contents: [Option<&[u8]>; 4] = [
        None,
        Some(b"not a snapshot at all"),
        Some(&valid_snapshot),
        Some(b""),
    ];
    let mut results = Vec::new();
    for (case, content) in contents.into_iter().enumerate() {
        let dir = scratch_dir(&format!("tmp-{case}"));
        for name in file_names(&origin) {
            std::fs::copy(origin.join(&name), dir.join(&name)).unwrap();
        }
        if let Some(bytes) = content {
            // A crash while snapshot 2 was being written: its WALs had
            // rotated, its file never got its name.
            for shard in 0..2 {
                std::fs::write(dir.join(format!("wal-2-{shard}.log")), b"").unwrap();
            }
            std::fs::write(dir.join("snap-2.bin.tmp"), bytes).unwrap();
        }
        let (receipt, names, reports) = recover_and_finish(&dir, &stream);
        assert!(
            names.iter().all(|name| !name.ends_with(".tmp")),
            "case {case}: a stale tmp outlived recover: {names:?}"
        );
        assert_eq!(reports.len(), 3, "case {case}");
        results.push((receipt, reports));
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&origin).ok();
    for (case, result) in results.iter().enumerate().skip(1) {
        assert_eq!(
            result, &results[0],
            "case {case}: the tmp's content reached recovery"
        );
    }
}
