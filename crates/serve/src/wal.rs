//! The write-ahead event log: one segment file per shard per
//! generation, each record one accepted [`TaskEvent`] framed as
//! `[len][crc32][payload]` (see [`nurd_codec::write_frame`]).
//!
//! Appends happen on the drain path *before* the event is applied,
//! under the same shard lock that orders application — so a segment's
//! record order **is** the shard's application order, and replaying a
//! segment through [`Shard::apply_batch`](crate::shard::Shard::apply_batch)
//! reproduces the shard's trajectory exactly. Reading stops at the
//! first torn or checksum-corrupt record: everything before it is the
//! durable prefix, everything after is the crash's unsynced tail.

use std::io::{BufWriter, Write};
use std::path::Path;

use nurd_codec::{read_frame, write_frame, Checkpointable, Decoder, Encoder, FrameError};
use nurd_data::TaskEvent;

use crate::disk::{Disk, DiskFile};
use crate::persist::{FsyncPolicy, RecoverError};

/// One shard's live WAL segment. Owned by the [`Shard`](crate::shard::Shard)
/// it logs for and therefore only ever touched under that shard's lock.
pub(crate) struct WalWriter {
    out: BufWriter<Box<dyn DiskFile>>,
    policy: FsyncPolicy,
    /// Buffered bytes not yet fsynced (skips no-op sync calls).
    dirty: bool,
    /// The record being appended: one buffer serves every event.
    enc: Encoder,
}

impl WalWriter {
    pub(crate) fn create(
        disk: &dyn Disk,
        path: &Path,
        policy: FsyncPolicy,
    ) -> std::io::Result<Self> {
        Ok(WalWriter {
            out: BufWriter::new(disk.create(path)?),
            policy,
            dirty: false,
            enc: Encoder::new(),
        })
    }

    /// Appends a drained batch, one record per event. Under
    /// [`FsyncPolicy::Always`] the batch is flushed and fsynced once
    /// before this returns.
    pub(crate) fn append_batch(&mut self, events: &[TaskEvent]) -> std::io::Result<()> {
        for event in events {
            self.enc.clear();
            event.encode(&mut self.enc);
            write_frame(&mut self.out, self.enc.as_slice())?;
            self.dirty = true;
        }
        if self.policy == FsyncPolicy::Always {
            self.flush_and_sync()?;
        }
        Ok(())
    }

    /// Pushes buffered records to the OS and fsyncs the segment.
    pub(crate) fn flush_and_sync(&mut self) -> std::io::Result<()> {
        if !self.dirty {
            return Ok(());
        }
        self.out.flush()?;
        self.out.get_mut().sync_data()?;
        self.dirty = false;
        Ok(())
    }

    /// Seals this segment (flush + fsync) and starts a fresh one at
    /// `path` — the WAL half of snapshot rotation, called under the
    /// shard lock so no append can slip between the old and new files.
    /// Under [`FsyncPolicy::Always`] a directory fsync makes the new name
    /// durable before the segment takes an append (else the snapshot's).
    pub(crate) fn rotate(&mut self, disk: &dyn Disk, path: &Path) -> std::io::Result<()> {
        self.flush_and_sync()?;
        self.out = BufWriter::new(disk.create(path)?);
        if self.policy == FsyncPolicy::Always {
            disk.sync_dir(path.parent().expect("a segment path names its directory"))?;
        }
        Ok(())
    }
}

/// How a WAL segment ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WalTail {
    /// Clean end of file at a record boundary.
    Clean,
    /// The file ended mid-record (crash between a record's first and
    /// last byte); the valid prefix was returned.
    Torn,
    /// A record failed its checksum; the valid prefix was returned.
    Corrupt,
}

/// Reads a segment's durable prefix: every record up to the first torn
/// or corrupt one. A record that passes its CRC but fails to decode as
/// a [`TaskEvent`] is format drift, not crash damage — that surfaces as
/// a typed [`RecoverError::Codec`] instead of silent truncation.
pub(crate) fn read_wal_segment(
    disk: &dyn Disk,
    path: &Path,
) -> Result<(Vec<TaskEvent>, WalTail), RecoverError> {
    let mut reader = disk.open(path)?;
    let mut events = Vec::new();
    loop {
        match read_frame(&mut reader) {
            Ok(Some(payload)) => {
                let mut dec = Decoder::new(&payload);
                events.push(TaskEvent::decode(&mut dec)?);
            }
            Ok(None) => return Ok((events, WalTail::Clean)),
            Err(FrameError::Torn) => return Ok((events, WalTail::Torn)),
            Err(FrameError::Corrupt) => return Ok((events, WalTail::Corrupt)),
            Err(FrameError::Io(e)) => return Err(RecoverError::Io(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::sim::{Fault, Op, SimDisk};

    fn event(job: u64, ordinal: usize) -> TaskEvent {
        TaskEvent::Progress {
            job,
            task: 0,
            ordinal,
            time: ordinal as f64,
            features: vec![0.5, 1.5],
        }
    }

    /// Appends `events` to a fresh segment on `disk` under `policy`, then
    /// drops the writer without a flush — a kill: what its buffer held
    /// is gone, what reached the disk stays.
    fn append_all(disk: &SimDisk, policy: FsyncPolicy, events: &[TaskEvent]) -> &'static Path {
        let path = Path::new("/wal/wal-0-0.log");
        let mut wal = WalWriter::create(disk, path, policy).unwrap();
        for e in events {
            wal.append_batch(std::slice::from_ref(e)).unwrap();
        }
        if policy != FsyncPolicy::Always {
            wal.flush_and_sync().unwrap();
        }
        disk.kill();
        drop(wal);
        path
    }

    #[test]
    fn segment_round_trips_and_reports_a_clean_tail() {
        let disk = SimDisk::default();
        let written: Vec<TaskEvent> = (0..5).map(|i| event(7, i)).collect();
        let path = append_all(&disk, FsyncPolicy::Never, &written);
        let (read, tail) = read_wal_segment(&disk, path).unwrap();
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(read, written);
    }

    /// The bytes `events` frame to through a fresh encoder each.
    fn framed(events: &[TaskEvent]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for event in events {
            let mut enc = Encoder::new();
            event.encode(&mut enc);
            write_frame(&mut bytes, enc.as_slice()).unwrap();
        }
        bytes
    }

    #[test]
    fn a_reused_encoder_writes_the_bytes_fresh_encoders_would() {
        // Payloads that grow and shrink, so a record never leaks the tail
        // of a longer one before it.
        let events: Vec<TaskEvent> = (0..40)
            .map(|i| TaskEvent::Progress {
                job: 3,
                task: i,
                ordinal: i,
                time: i as f64 * 0.5,
                features: vec![i as f64; (i * 7) % 11],
            })
            .collect();
        let disk = SimDisk::default();
        let path = append_all(&disk, FsyncPolicy::Never, &events);
        assert_eq!(disk.files()[path], framed(&events));
    }

    #[test]
    fn injected_crash_keeps_exactly_the_budgeted_prefix() {
        // Under `Always` each one-record batch is one write and one
        // fsync: a kill at the fourth fsync leaves four whole records
        // behind.
        let disk = SimDisk::planned(Fault::Kill, Some(Op::SyncData), 3);
        let events: Vec<TaskEvent> = (0..10).map(|i| event(7, i)).collect();
        let path = append_all(&disk, FsyncPolicy::Always, &events);
        let (read, tail) = read_wal_segment(&disk, path).unwrap();
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(read, events[..4]);
    }

    #[test]
    fn an_always_batch_is_one_fsync() {
        let disk = SimDisk::default();
        let path = Path::new("/wal/wal-0-0.log");
        let mut wal = WalWriter::create(&disk, path, FsyncPolicy::Always).unwrap();
        let events: Vec<TaskEvent> = (0..10).map(|i| event(7, i)).collect();
        wal.append_batch(&events).unwrap();
        let syncs = disk.steps().iter().filter(|s| s.op == Op::SyncData).count();
        assert_eq!(syncs, 1);
        assert_eq!(disk.files()[path], framed(&events));
    }

    #[test]
    fn an_always_rotation_survives_a_power_cut_before_any_other_dir_fsync() {
        let disk = SimDisk::default();
        let (first, second) = (Path::new("/wal/wal-0-0.log"), Path::new("/wal/wal-1-0.log"));
        let mut wal = WalWriter::create(&disk, first, FsyncPolicy::Always).unwrap();
        wal.rotate(&disk, second).unwrap();
        let events: Vec<TaskEvent> = (0..3).map(|i| event(7, i)).collect();
        wal.append_batch(&events).unwrap();
        disk.lose_power();
        let (read, tail) = read_wal_segment(&disk, second).unwrap();
        assert_eq!((read, tail), (events, WalTail::Clean));
    }

    #[test]
    fn torn_tail_is_detected_and_the_prefix_survives() {
        // A kill inside the third record's write lands half of it.
        let disk = SimDisk::planned(Fault::Kill, Some(Op::Write), 2);
        let events: Vec<TaskEvent> = (0..10).map(|i| event(7, i)).collect();
        let path = append_all(&disk, FsyncPolicy::Always, &events);
        let (read, tail) = read_wal_segment(&disk, path).unwrap();
        assert_eq!(tail, WalTail::Torn);
        assert_eq!(read, events[..2]);
        let whole = framed(&events[..3]).len();
        assert!(disk.files()[path].len() < whole);
    }
}
