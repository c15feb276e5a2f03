//! Versioned snapshot files: the full-state half of the persistence
//! subsystem (the incremental half is [`crate::wal`]).
//!
//! A snapshot is the engine's entire checkpointable state at one
//! instant: every live job (spec, predictor state, task bookkeeping),
//! every not-yet-taken finalized report, the finalized-id ledger, the
//! per-job durable-event counts, and the deterministic counters. Nothing
//! of a finalized job but its report and its id stays, so the file's size
//! follows the live jobs, not the jobs ever served. On-disk shape:
//!
//! ```text
//! [8B magic "NURDSNAP"][4B format version LE]
//! [frame: header — counters, events_seen, finalized ids + reports,
//!         observer blob, live-job count]
//! [frame: job 0][frame: job 1]…              one frame per live job
//! ```
//!
//! Every frame is `[len][crc32][payload]` ([`nurd_codec::write_frame`]),
//! so each record is individually length- and checksum-guarded; a torn
//! write, a bit flip, a wrong file, or a future format each map to a
//! distinct typed [`RecoverError`] — never a panic, never a silent
//! partial load. Files are written to a `.tmp` sibling, fsynced, then
//! renamed into place, so a crash mid-snapshot leaves the previous
//! generation untouched.

use std::collections::BTreeMap;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

use nurd_codec::{read_frame, write_frame, Checkpointable, Decoder, Encoder};

use crate::disk::{Disk, RealDisk};
use crate::engine::JobReport;
use crate::persist::RecoverError;
use crate::shard::Counter;

/// First 8 bytes of every snapshot file.
pub(crate) const SNAPSHOT_MAGIC: [u8; 8] = *b"NURDSNAP";
/// Format version this build writes and the only one it reads. Version 2
/// added mitigation state: per-job action logs (inside each job record
/// and each [`JobReport`]) and the mitigation counters below. Version 3
/// added node-health state: each blob-mode job record carries its node
/// placement, and the header carries the attached
/// [`HealthObserver`](crate::HealthObserver)'s state blob. Version 4
/// dropped the header's donor-seed list (one predictor blob per job ever
/// finalized, read by nothing) and the `NurdPredictor` blob's second
/// latency-model slot. Version 5 dropped the quantization's bin tables
/// from every predictor blob: its codes travel, the tables are derived
/// from them and the rows at restore. Version 6 dropped the header's two
/// overload-loss counters with the lossy overload policies that counted.
pub(crate) const SNAPSHOT_VERSION: u32 = 6;

/// A snapshot file's content with live jobs still in their encoded form
/// (decoding a job needs the [`PredictorFactory`](crate::PredictorFactory)
/// and the engine's warmup fraction, which the file-level reader does
/// not have). Frame CRCs have already been verified for every field.
#[derive(Debug, Default)]
pub(crate) struct SnapshotData {
    /// The persisted counters, in [`Counter::PERSISTED`] order.
    pub(crate) counters: [u64; Counter::PERSISTED.len()],
    /// Per-job count of events durably applied (snapshot point).
    pub(crate) events_seen: BTreeMap<u64, u64>,
    /// Every job id ever finalized (stale-event detection survives).
    pub(crate) finalized_ids: Vec<u64>,
    /// Finalized reports not yet taken at the snapshot point.
    pub(crate) finalized: Vec<JobReport>,
    /// The attached [`HealthObserver`](crate::HealthObserver)'s state
    /// blob at the snapshot point (empty = none attached, or nothing to
    /// persist).
    pub(crate) observer: Vec<u8>,
    /// One encoded `JobState` per live job.
    pub(crate) jobs: Vec<Vec<u8>>,
}

/// Writes `data` to `path` atomically: `.tmp` sibling, flush, fsync,
/// rename, directory fsync. A crash anywhere in the middle leaves no
/// `snap-*.bin` at `path` (recovery falls back to the previous
/// generation, which is why [`PersistenceConfig::retain_generations`](crate::PersistenceConfig::retain_generations)
/// is clamped to ≥ 2).
pub(crate) fn write_snapshot_file(
    disk: &dyn Disk,
    path: &Path,
    data: &SnapshotData,
) -> std::io::Result<()> {
    let tmp = path.with_extension("bin.tmp");
    let mut out = BufWriter::new(disk.create(&tmp)?);
    out.write_all(&SNAPSHOT_MAGIC)?;
    out.write_all(&SNAPSHOT_VERSION.to_le_bytes())?;
    let mut header = Encoder::new();
    for &value in &data.counters {
        header.put_u64(value);
    }
    data.events_seen.encode(&mut header);
    data.finalized_ids.encode(&mut header);
    data.finalized.encode(&mut header);
    header.put_bytes(&data.observer);
    header.put_usize(data.jobs.len());
    write_frame(&mut out, header.as_slice())?;
    for job in &data.jobs {
        write_frame(&mut out, job)?;
    }
    out.flush()?;
    out.get_mut().sync_data()?;
    drop(out);
    disk.rename(&tmp, path)?;
    path.parent().map_or(Ok(()), |dir| disk.sync_dir(dir))
}

fn read_exact_or_truncated(r: &mut impl Read, buf: &mut [u8]) -> Result<(), RecoverError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            RecoverError::Truncated
        } else {
            RecoverError::Io(e)
        }
    })
}

/// Reads and fully validates a snapshot file's framing: magic, format
/// version, and every record's length + CRC32. Job payloads stay
/// encoded (see [`SnapshotData`]).
pub(crate) fn read_snapshot_data(
    disk: &dyn Disk,
    path: &Path,
) -> Result<SnapshotData, RecoverError> {
    let mut reader = disk.open(path)?;
    let mut magic = [0u8; 8];
    read_exact_or_truncated(&mut reader, &mut magic)?;
    if magic != SNAPSHOT_MAGIC {
        return Err(RecoverError::WrongMagic);
    }
    let mut version_bytes = [0u8; 4];
    read_exact_or_truncated(&mut reader, &mut version_bytes)?;
    let version = u32::from_le_bytes(version_bytes);
    if version != SNAPSHOT_VERSION {
        return Err(RecoverError::UnsupportedVersion(version));
    }
    let header = read_frame(&mut reader)?.ok_or(RecoverError::Truncated)?;
    let mut dec = Decoder::new(&header);
    let mut counters = [0; Counter::PERSISTED.len()];
    for value in &mut counters {
        *value = dec.take_u64()?;
    }
    let events_seen = Checkpointable::decode(&mut dec)?;
    let finalized_ids = Checkpointable::decode(&mut dec)?;
    let finalized = Checkpointable::decode(&mut dec)?;
    let observer = dec.take_bytes()?.to_vec();
    // Checksummed, yet unchecked against the frames that follow: reserve
    // nothing on it, grow with the frames read (each ≥ 8 bytes).
    let job_count = dec.take_usize()?;
    let mut jobs = Vec::new();
    for _ in 0..job_count {
        jobs.push(read_frame(&mut reader)?.ok_or(RecoverError::Truncated)?);
    }
    Ok(SnapshotData {
        counters,
        events_seen,
        finalized_ids,
        finalized,
        observer,
        jobs,
    })
}

/// What [`read_snapshot`] found in a (valid) snapshot file — the
/// operator's and the corruption tests' view of an on-disk artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Live (mid-stream) jobs the snapshot can resume.
    pub live_jobs: usize,
    /// Finalized reports carried (not yet taken at capture time).
    pub finalized_reports: usize,
    /// Job ids in the finalized ledger (stale-event detection).
    pub finalized_ids: usize,
    /// Total durably-applied events across all jobs at capture time.
    pub events_recorded: u64,
}

/// Validates a snapshot file end to end — magic, format version, every
/// record's length and CRC32 — and summarizes what it holds. Every
/// corrupt-artifact shape yields a typed [`RecoverError`]; this is the
/// probe the corruption tests (and a `file`-style operator check) use
/// without needing a predictor factory.
pub fn read_snapshot(path: &Path) -> Result<SnapshotStats, RecoverError> {
    let data = read_snapshot_data(&RealDisk, path)?;
    Ok(SnapshotStats {
        live_jobs: data.jobs.len(),
        finalized_reports: data.finalized.len(),
        finalized_ids: data.finalized_ids.len(),
        events_recorded: data.events_seen.values().sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SnapshotData {
        let mut events_seen = BTreeMap::new();
        events_seen.insert(7u64, 12u64);
        events_seen.insert(9u64, 3u64);
        SnapshotData {
            counters: Counter::PERSISTED.map(|counter| match counter {
                Counter::EventsProcessed => 15,
                Counter::FinalizedJobs => 1,
                _ => 0,
            }),
            events_seen,
            finalized_ids: vec![9],
            finalized: Vec::new(),
            observer: vec![0xAB, 0xCD],
            jobs: vec![vec![1, 2, 3], vec![4, 5]],
        }
    }

    #[test]
    fn snapshot_file_round_trips() {
        let dir = std::env::temp_dir().join("nurd-snap-test-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap-1.bin");
        write_snapshot_file(&RealDisk, &path, &sample()).unwrap();
        let back = read_snapshot_data(&RealDisk, &path).unwrap();
        assert_eq!(back.counters, sample().counters);
        assert_eq!(back.events_seen, sample().events_seen);
        assert_eq!(back.jobs, sample().jobs);
        let stats = read_snapshot(&path).unwrap();
        assert_eq!(stats.live_jobs, 2);
        assert_eq!(stats.events_recorded, 15);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_corruption_shape_is_a_typed_error() {
        let dir = std::env::temp_dir().join("nurd-snap-test-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap-1.bin");
        write_snapshot_file(&RealDisk, &path, &sample()).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        // Wrong magic.
        std::fs::write(&path, b"NOTASNAPxxxxyyyy").unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(RecoverError::WrongMagic)
        ));

        // A future format version, and the previous two (v4 carried the
        // bin tables, v5 the overload-loss counters this build no longer
        // reads).
        for version in [99u32, 4, 5] {
            let mut other = pristine.clone();
            other[8..12].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &other).unwrap();
            assert!(matches!(
                read_snapshot(&path),
                Err(RecoverError::UnsupportedVersion(v)) if v == version
            ));
        }

        // Truncation at every prefix is Truncated or WrongMagic — never
        // a panic, never Ok.
        for cut in 0..pristine.len() {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            match read_snapshot(&path) {
                Err(
                    RecoverError::Truncated
                    | RecoverError::WrongMagic
                    | RecoverError::ChecksumMismatch,
                ) => {}
                other => panic!("cut at {cut}: unexpected {other:?}"),
            }
        }

        // A flipped payload bit fails its record's CRC.
        let mut flipped = pristine.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(RecoverError::ChecksumMismatch)
        ));

        std::fs::remove_dir_all(&dir).ok();
    }

    /// A checksummed header whose finalized-report count equals the bytes
    /// behind it passes the count's one-byte-per-report guard; it must
    /// then fail on its first report, as a typed error, having reserved
    /// no more than those bytes.
    #[test]
    fn a_finalized_count_as_large_as_the_header_is_a_typed_error() {
        let dir = std::env::temp_dir().join("nurd-snap-test-hostile-count");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap-1.bin");
        let padding = 1 << 16;
        let mut header = Encoder::new();
        for _ in Counter::PERSISTED {
            header.put_u64(0);
        }
        BTreeMap::<u64, u64>::new().encode(&mut header);
        Vec::<u64>::new().encode(&mut header);
        header.put_usize(padding);
        let mut header = header.into_bytes();
        header.resize(header.len() + padding, 0xFF);
        let mut bytes = SNAPSHOT_MAGIC.to_vec();
        bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        write_frame(&mut bytes, &header).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        let read = read_snapshot(&path);
        std::fs::remove_dir_all(&dir).ok();
        assert!(
            matches!(read, Err(RecoverError::Codec(_))),
            "unexpected {read:?}"
        );
    }

    /// The header opens with the nine persisted counters, one
    /// little-endian `u64` each, in their on-disk order. A recovered
    /// service reads each into its own `EngineStats` field, and its next
    /// checkpoint writes them back at the same offsets: a swapped or a
    /// dropped counter fails one side or the other.
    #[test]
    fn the_header_opens_with_the_persisted_counters_in_order() {
        use crate::{EngineConfig, EngineService, PersistenceConfig, ServiceConfig};
        let dir =
            std::env::temp_dir().join(format!("nurd-snap-test-layout-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // events_processed, orphan_events, rejected_events, stale_events,
        // finalized_jobs, poisoned_jobs, clones_issued, quarantines_issued,
        // mitigation_suppressed.
        let values: Vec<u64> = (1..=9).map(|i| (i << 32) | (i * 3)).collect();
        let layout: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut header = Encoder::new();
        for &value in &values {
            header.put_u64(value);
        }
        BTreeMap::<u64, u64>::new().encode(&mut header);
        Vec::<u64>::new().encode(&mut header);
        Vec::<JobReport>::new().encode(&mut header);
        header.put_bytes(&[]);
        header.put_usize(0);
        let mut bytes = SNAPSHOT_MAGIC.to_vec();
        bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        write_frame(&mut bytes, header.as_slice()).unwrap();
        std::fs::write(dir.join("snap-1.bin"), &bytes).unwrap();

        let (service, report) = EngineService::recover(
            PersistenceConfig::new(&dir),
            EngineConfig::default(),
            ServiceConfig::default(),
            Box::new(|_| unreachable!("the snapshot holds no job")),
        )
        .unwrap();
        assert_eq!(report.snapshot_generation, Some(1));
        let s = service.stats();
        let read = [
            s.events_per_shard.iter().sum(),
            s.orphan_events,
            s.rejected_events,
            s.stale_events,
            s.finalized_jobs,
            s.poisoned_jobs,
            s.clones_issued,
            s.quarantines_issued,
            s.mitigation_suppressed,
        ];
        let read: Vec<u64> = read.iter().map(|&n| n as u64).collect();
        assert_eq!(
            read, values,
            "each persisted counter lands in its own field"
        );

        let generation = service.checkpoint().unwrap();
        let written = std::fs::read(dir.join(format!("snap-{generation}.bin"))).unwrap();
        let payload = read_frame(&mut &written[12..]).unwrap().unwrap();
        assert_eq!(&payload[..72], &layout[..], "the first 72 header bytes");
        let _ = service.close();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A header's job count passed its CRC but promises 2⁴⁰ frames where
    /// one follows: `Truncated`. Nothing is reserved on the count's word —
    /// it once reserved 2²⁰ slots (24 MiB) before reading a frame.
    #[test]
    fn a_job_count_past_the_frames_present_is_truncated() {
        let dir = std::env::temp_dir().join("nurd-snap-test-count");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap-1.bin");
        let mut header = Encoder::new();
        for _ in Counter::PERSISTED {
            header.put_u64(0);
        }
        BTreeMap::<u64, u64>::new().encode(&mut header);
        Vec::<u64>::new().encode(&mut header);
        Vec::<JobReport>::new().encode(&mut header);
        header.put_bytes(&[]);
        header.put_usize(1 << 40);
        let mut bytes = SNAPSHOT_MAGIC.to_vec();
        bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        write_frame(&mut bytes, header.as_slice()).unwrap();
        write_frame(&mut bytes, &[7; 16]).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_snapshot(&path), Err(RecoverError::Truncated)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
