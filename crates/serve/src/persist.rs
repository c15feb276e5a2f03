//! Persistence vocabulary for the crash-safe engine: the durability
//! bound, typed recovery errors, and the on-disk directory layout shared
//! by the snapshot ([`crate::snapshot`]) and write-ahead log
//! ([`crate::wal`]) machinery. Every file-system call goes through
//! [`crate::disk::Disk`].
//!
//! On-disk layout (one directory per engine):
//!
//! ```text
//! <dir>/snap-<G>.bin      versioned snapshot, generation G
//! <dir>/wal-<G>-<S>.log   WAL segment for shard S, generation G
//! <dir>/snap-<G>.bin.tmp  snapshot G mid-write (never read; `recover` deletes it)
//! ```
//!
//! A snapshot at generation `G` captures every event the engine applied
//! while logging to WAL generations `< G`; the WALs rotate to `G` at the
//! same instant (under every shard lock), so recovery is exactly: load
//! the newest *valid* `snap-G.bin`, then replay every `wal-G'-S.log`
//! with `G' ≥ G` in ascending generation order. `docs/OPERATIONS.md`
//! has the operator runbook.
//!
//! Durability is stated in events, not time: a shard fsyncs its segment
//! on the drain path once more than
//! [`PersistenceConfig::max_unsynced_events`] appended events lack one,
//! so a power loss costs each shard at most that many applied events.
//! Nothing fsyncs on a timer: an idle service keeps up to the bound
//! unsynced until the next checkpoint or `close`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use nurd_codec::{CodecError, FrameError};

use crate::disk::Disk;
use crate::snapshot::SNAPSHOT_VERSION;

/// Where and how the engine persists (see the module docs for the
/// directory layout). Passed to
/// [`EngineService::start_persistent`](crate::EngineService::start_persistent)
/// and [`EngineService::recover`](crate::EngineService::recover).
#[derive(Debug, Clone)]
pub struct PersistenceConfig {
    /// Directory holding snapshots and WAL segments (created if absent).
    pub dir: PathBuf,
    /// Snapshot generations kept on disk (clamped to ≥ 2 so recovery can
    /// always fall back past a corrupted newest snapshot; WAL segments
    /// older than the oldest retained snapshot are pruned with it).
    pub retain_generations: usize,
    /// The most WAL events a shard may have applied without an fsync
    /// behind them — what a power loss can cost, per shard. A drain
    /// appends its batch and, when the events appended since the last
    /// fsync then exceed this bound, fsyncs the segment before applying
    /// the batch. `0` fsyncs every batch; `usize::MAX` only
    /// at a checkpoint's segment roll,
    /// [`EngineService::close`](crate::EngineService::close) and the
    /// `Drop` guard. An idle service keeps up to the bound unsynced until
    /// the next checkpoint or `close`.
    pub max_unsynced_events: usize,
}

impl PersistenceConfig {
    /// Defaults rooted at `dir`: at most 1024 unsynced events a shard,
    /// two retained snapshot generations.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        PersistenceConfig {
            dir: dir.into(),
            retain_generations: 2,
            max_unsynced_events: 1024,
        }
    }
}

/// Why a recovery attempt (or a [`read_snapshot`](crate::read_snapshot))
/// failed. Every corrupt-artifact shape maps to a typed variant — never
/// a panic, never a silent partial load.
#[derive(Debug)]
pub enum RecoverError {
    /// The filesystem failed.
    Io(std::io::Error),
    /// A snapshot file does not begin with the snapshot magic — it is
    /// not a snapshot at all (or its header was overwritten).
    WrongMagic,
    /// The snapshot declares a format version other than the one this
    /// build reads (carries the declared version).
    UnsupportedVersion(u32),
    /// A snapshot ended mid-record (torn write / truncation).
    Truncated,
    /// A snapshot record's CRC32 does not match its payload (bit flip or
    /// overwrite, not a clean truncation).
    ChecksumMismatch,
    /// The snapshot payload passed its checksum but did not decode —
    /// format drift or an internal bug, surfaced rather than half-loaded.
    Codec(CodecError),
    /// A job's persisted predictor blob was refused on restore, or its
    /// task bookkeeping disagrees with its spec (carries the job id).
    PredictorRestore(u64),
    /// The snapshot's health-observer blob was rejected by the attached
    /// observer's `restore_state`.
    ObserverRestore,
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "recovery I/O error: {e}"),
            RecoverError::WrongMagic => write!(f, "snapshot has wrong magic bytes"),
            RecoverError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "snapshot format version {v} is not version {SNAPSHOT_VERSION}, the one this build reads"
                )
            }
            RecoverError::Truncated => write!(f, "snapshot is truncated (torn write)"),
            RecoverError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            RecoverError::Codec(e) => write!(f, "snapshot payload failed to decode: {e}"),
            RecoverError::PredictorRestore(job) => {
                write!(f, "predictor for job {job} rejected its persisted state")
            }
            RecoverError::ObserverRestore => {
                write!(f, "health observer rejected its persisted state")
            }
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<std::io::Error> for RecoverError {
    fn from(e: std::io::Error) -> Self {
        RecoverError::Io(e)
    }
}

impl From<CodecError> for RecoverError {
    fn from(e: CodecError) -> Self {
        RecoverError::Codec(e)
    }
}

impl From<FrameError> for RecoverError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => RecoverError::Io(e),
            FrameError::Torn => RecoverError::Truncated,
            FrameError::Corrupt => RecoverError::ChecksumMismatch,
        }
    }
}

/// What [`EngineService::recover`](crate::EngineService::recover)
/// reconstructed — the operator's receipt for a restart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoverReport {
    /// Generation of the snapshot actually loaded (`None` = no valid
    /// snapshot existed; recovery started empty and replayed every WAL).
    pub snapshot_generation: Option<u64>,
    /// Snapshot files that had to be skipped as invalid before a valid
    /// one (or emptiness) was reached — also in
    /// [`EngineStats::recovery_fallbacks`](crate::EngineStats::recovery_fallbacks).
    pub recovery_fallbacks: usize,
    /// Events replayed from WAL segments on top of the snapshot.
    pub wal_events_replayed: usize,
    /// WAL segments whose tail was cut short by a torn or
    /// checksum-corrupt record (the valid prefix was still replayed).
    pub wal_truncated_tails: usize,
    /// Live jobs resumed mid-stream (predictors restored or re-derived).
    pub resumed_jobs: usize,
    /// Finalized-job reports carried over (not yet taken before the
    /// crash).
    pub finalized_jobs: usize,
    /// Per-job count of *durable* events — how many of each job's stream
    /// survived, so a producer can resume pushing from exactly the next
    /// event (see `examples/recovery_smoke.rs`).
    pub events_seen: BTreeMap<u64, u64>,
}

/// `<dir>/snap-<gen>.bin`
pub(crate) fn snapshot_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snap-{generation}.bin"))
}

/// `<dir>/wal-<gen>-<shard>.log`
pub(crate) fn wal_path(dir: &Path, generation: u64, shard: usize) -> PathBuf {
    dir.join(format!("wal-{generation}-{shard}.log"))
}

/// Everything persistence-shaped found in an engine directory.
#[derive(Debug, Default)]
pub(crate) struct DirScan {
    /// Snapshot generations, ascending.
    pub(crate) snapshots: Vec<u64>,
    /// WAL segments as `(generation, shard)`, generation-major ascending.
    pub(crate) wals: Vec<(u64, usize)>,
    /// Generations of `snap-<G>.bin.tmp`: snapshots cut off mid-write.
    pub(crate) tmps: Vec<u64>,
}

impl DirScan {
    /// The highest generation any artifact mentions.
    pub(crate) fn max_generation(&self) -> Option<u64> {
        self.snapshots
            .last()
            .copied()
            .into_iter()
            .chain(self.wals.iter().map(|&(g, _)| g))
            .max()
    }

    /// The WAL segments of generation `from` and later, one generation
    /// per slice, ascending — the order recovery replays them in.
    pub(crate) fn wal_generations(&self, from: u64) -> impl Iterator<Item = &[(u64, usize)]> {
        let first = self.wals.partition_point(|&(g, _)| g < from);
        self.wals[first..].chunk_by(|a, b| a.0 == b.0)
    }
}

fn parse_snapshot_name(name: &str) -> Option<u64> {
    name.strip_prefix("snap-")?
        .strip_suffix(".bin")?
        .parse()
        .ok()
}

fn parse_wal_name(name: &str) -> Option<(u64, usize)> {
    let body = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    let (generation, shard) = body.split_once('-')?;
    Some((generation.parse().ok()?, shard.parse().ok()?))
}

pub(crate) fn scan_dir(disk: &dyn Disk, dir: &Path) -> std::io::Result<DirScan> {
    let mut scan = DirScan::default();
    for name in disk.list(dir)? {
        if let Some(generation) = parse_snapshot_name(&name) {
            scan.snapshots.push(generation);
        } else if let Some(segment) = parse_wal_name(&name) {
            scan.wals.push(segment);
        } else if let Some(generation) = name.strip_suffix(".tmp").and_then(parse_snapshot_name) {
            scan.tmps.push(generation);
        }
    }
    scan.snapshots.sort_unstable();
    scan.wals.sort_unstable();
    Ok(scan)
}

/// Deletes snapshots beyond the newest `retain` generations, plus every
/// WAL segment older than the oldest snapshot kept. Nothing of those is
/// pruned while fewer than two snapshots exist: the fallback target would
/// then be the *empty* state, which needs every WAL generation to replay.
pub(crate) fn prune_dir(disk: &dyn Disk, dir: &Path, retain: usize) -> std::io::Result<()> {
    let retain = retain.max(2);
    let scan = scan_dir(disk, dir)?;
    if scan.snapshots.len() < 2 {
        return Ok(());
    }
    let keep_from = scan.snapshots[scan.snapshots.len().saturating_sub(retain)];
    for &generation in &scan.snapshots {
        if generation < keep_from {
            disk.remove(&snapshot_path(dir, generation))?;
        }
    }
    for &(generation, shard) in &scan.wals {
        if generation < keep_from {
            disk.remove(&wal_path(dir, generation, shard))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_names_round_trip_through_the_scanner() {
        assert_eq!(parse_snapshot_name("snap-17.bin"), Some(17));
        assert_eq!(parse_snapshot_name("snap-x.bin"), None);
        assert_eq!(parse_snapshot_name("wal-1-2.log"), None);
        assert_eq!(parse_wal_name("wal-3-11.log"), Some((3, 11)));
        assert_eq!(parse_wal_name("wal-3.log"), None);
        assert_eq!(parse_wal_name("snap-3.bin"), None);
    }

    #[test]
    fn wal_generations_are_one_generation_a_chunk_ascending() {
        let scan = DirScan {
            wals: vec![(0, 0), (0, 1), (2, 0), (3, 0), (3, 1), (3, 2), (7, 1)],
            ..DirScan::default()
        };
        let chunks = |from| scan.wal_generations(from).collect::<Vec<_>>();
        assert_eq!(
            chunks(0),
            [
                &[(0, 0), (0, 1)][..],
                &[(2, 0)],
                &[(3, 0), (3, 1), (3, 2)],
                &[(7, 1)]
            ]
        );
        assert_eq!(
            chunks(1),
            [&[(2, 0)][..], &[(3, 0), (3, 1), (3, 2)], &[(7, 1)]]
        );
        assert_eq!(chunks(3)[0], [(3, 0), (3, 1), (3, 2)]);
        assert!(chunks(8).is_empty());
    }
}
