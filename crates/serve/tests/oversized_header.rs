//! A frame header is twelve unchecked bytes; it must not be able to
//! reserve a gigabyte before one payload byte is known to exist.
//!
//! A WAL segment and a snapshot each end in `[len = 2³⁰ − 1][crc][4
//! bytes]` — the torn tail recovery exists for. Both must come back as the
//! typed results they always were (`wal_truncated_tails`, `Truncated`),
//! and the process's peak virtual size, read from `/proc/self/status`,
//! must not have moved by anything near the declared length: under a
//! cgroup or `ulimit -v` bound that reservation is an abort.
//!
//! One test, alone in its file: `VmPeak` is the whole process's high-water
//! mark, and a sibling test's threads and arenas would be in it. (A
//! counting `#[global_allocator]` would measure the same thing per byte,
//! at the price of `unsafe` in a workspace that gates its count —
//! `scripts/aim2.sh` reads test sources too.)

use std::path::{Path, PathBuf};

use nurd_data::{Checkpoint, JobSpec, OnlinePredictor, TaskEvent};
use nurd_serve::{
    read_snapshot, EngineConfig, EngineService, OverloadPolicy, PersistenceConfig,
    PredictorFactory, RecoverError, RecoverReport, ServiceConfig,
};

/// `[len = 0x3FFF_FFFF][crc][4 payload bytes]`.
const HOSTILE_TAIL: [u8; 12] = [0xFF, 0xFF, 0xFF, 0x3F, 0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4];

/// Far above what serving a dozen events maps (thread stacks, allocator
/// arenas), far below the 1 GiB the header declares.
const MAX_PEAK_GROWTH_KB: u64 = 256 << 10;

/// Flags nothing; stateless, so its snapshot is an empty blob.
struct FlagNone;
impl OnlinePredictor for FlagNone {
    fn name(&self) -> &str {
        "NONE"
    }
    fn predict(&mut self, _checkpoint: &Checkpoint<'_>) -> Vec<usize> {
        Vec::new()
    }
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        Some(Vec::new())
    }
    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        bytes.is_empty()
    }
}

fn factory() -> PredictorFactory {
    Box::new(|_spec: &JobSpec| Box::new(FlagNone))
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        shards: 1,
        warmup_fraction: 0.04,
        queue_capacity: Some(16),
        overload: OverloadPolicy::Block,
        balance: None,
    }
}

fn service_config() -> ServiceConfig {
    ServiceConfig { drain_workers: 1 }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nurd-oversized-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `VmPeak` in kB; `None` where there is no `/proc` to ask.
fn vm_peak_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmPeak:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn recover(dir: &Path) -> RecoverReport {
    let (service, report) = EngineService::recover(
        PersistenceConfig::new(dir),
        engine_config(),
        service_config(),
        factory(),
    )
    .unwrap();
    drop(service.close());
    report
}

#[test]
fn a_torn_header_cannot_reserve_its_declared_length() {
    // A crashed run's directory: an empty `snap-1.bin`, then twelve
    // progress records in `wal-1-0.log`.
    let dir = scratch_dir("wal");
    let service = EngineService::start_persistent(
        engine_config(),
        service_config(),
        PersistenceConfig::new(&dir),
        factory(),
    )
    .unwrap();
    let events: Vec<TaskEvent> = (0..12)
        .map(|ordinal| TaskEvent::Progress {
            job: 5,
            task: 0,
            ordinal,
            time: ordinal as f64,
            features: vec![0.25, 0.75],
        })
        .collect();
    assert_eq!(service.checkpoint().unwrap(), 1);
    for event in &events {
        assert!(service.push(event.clone()));
    }
    service.quiesce();
    drop(service);

    // Recover a copy once as it is, so every thread and arena a recovery
    // ever maps is already inside the baseline.
    let clean = scratch_dir("wal-clean");
    for name in ["snap-1.bin", "wal-0-0.log", "wal-1-0.log"] {
        std::fs::copy(dir.join(name), clean.join(name)).unwrap();
    }
    let clean_report = recover(&clean);
    assert_eq!(clean_report.snapshot_generation, Some(1));
    assert_eq!(clean_report.wal_truncated_tails, 0);
    assert_eq!(clean_report.wal_events_replayed, events.len());

    let mut segment = std::fs::read(dir.join("wal-1-0.log")).unwrap();
    segment.extend_from_slice(&HOSTILE_TAIL);
    std::fs::write(dir.join("wal-1-0.log"), &segment).unwrap();
    // A newer snapshot: the real one's magic and version, then the tail.
    let snapshot = dir.join("snap-9.bin");
    let mut bytes = std::fs::read(dir.join("snap-1.bin")).unwrap();
    bytes.truncate(12);
    bytes.extend_from_slice(&HOSTILE_TAIL);
    std::fs::write(&snapshot, &bytes).unwrap();

    let before = vm_peak_kb();
    // The snapshot is Truncated (and skipped: one fallback); the segment's
    // valid prefix replays and its tail is counted.
    assert!(matches!(
        read_snapshot(&snapshot),
        Err(RecoverError::Truncated)
    ));
    let report = recover(&dir);
    let after = vm_peak_kb();

    assert_eq!(report.snapshot_generation, Some(1));
    assert_eq!(report.recovery_fallbacks, 1);
    assert_eq!(report.wal_truncated_tails, 1);
    assert_eq!(report.wal_events_replayed, clean_report.wal_events_replayed);
    assert_eq!(report.events_seen, clean_report.events_seen);
    if let (Some(before), Some(after)) = (before, after) {
        assert!(
            after - before < MAX_PEAK_GROWTH_KB,
            "reading two torn 12-byte tails grew VmPeak {before} kB -> {after} kB"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&clean).ok();
}
