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
use crate::persist::RecoverError;

/// One shard's live WAL segment. Owned by the [`Shard`](crate::shard::Shard)
/// it logs for and therefore only ever touched under that shard's lock.
pub(crate) struct WalWriter {
    out: BufWriter<Box<dyn DiskFile>>,
    /// [`PersistenceConfig::max_unsynced_events`](crate::PersistenceConfig::max_unsynced_events).
    max_unsynced: usize,
    /// Events appended since the last fsync.
    unsynced: usize,
    /// The record being appended: one buffer serves every event.
    enc: Encoder,
}

impl WalWriter {
    pub(crate) fn create(
        disk: &dyn Disk,
        path: &Path,
        max_unsynced: usize,
    ) -> std::io::Result<Self> {
        Ok(WalWriter {
            out: BufWriter::new(disk.create(path)?),
            max_unsynced,
            unsynced: 0,
            enc: Encoder::new(),
        })
    }

    /// Appends a drained batch, one record per event, and flushes and
    /// fsyncs the segment once before this returns if that leaves more
    /// than `max_unsynced` events without an fsync — so the batch is
    /// applied with at most that many of the shard's events unsynced.
    pub(crate) fn append_batch(&mut self, events: &[TaskEvent]) -> std::io::Result<()> {
        for event in events {
            self.enc.clear();
            event.encode(&mut self.enc);
            write_frame(&mut self.out, self.enc.as_slice())?;
        }
        self.unsynced += events.len();
        if self.unsynced > self.max_unsynced {
            self.flush_and_sync()?;
        }
        Ok(())
    }

    /// Pushes buffered records to the OS and fsyncs the segment.
    pub(crate) fn flush_and_sync(&mut self) -> std::io::Result<()> {
        if self.unsynced == 0 {
            return Ok(());
        }
        self.out.flush()?;
        self.out.get_mut().sync_data()?;
        self.unsynced = 0;
        Ok(())
    }

    /// Seals this segment (flush + fsync) and starts a fresh one at
    /// `path` — the WAL half of snapshot rotation, called under the
    /// shard lock so no append can slip between the old and new files.
    /// A directory fsync makes the new name durable before the segment
    /// takes an append: a power loss must not drop a segment whose
    /// events the bound counts as kept.
    pub(crate) fn rotate(&mut self, disk: &dyn Disk, path: &Path) -> std::io::Result<()> {
        self.flush_and_sync()?;
        self.out = BufWriter::new(disk.create(path)?);
        disk.sync_dir(path.parent().expect("a segment path names its directory"))
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

    /// Appends `events` one a batch to a fresh segment on `disk` at bound
    /// `max_unsynced`, fsyncs what is left unsynced, then drops the
    /// writer after a kill: what reached the disk stays.
    fn append_all(disk: &SimDisk, max_unsynced: usize, events: &[TaskEvent]) -> &'static Path {
        let path = Path::new("/wal/wal-0-0.log");
        let mut wal = WalWriter::create(disk, path, max_unsynced).unwrap();
        for e in events {
            wal.append_batch(std::slice::from_ref(e)).unwrap();
        }
        wal.flush_and_sync().unwrap();
        disk.kill();
        drop(wal);
        path
    }

    #[test]
    fn segment_round_trips_and_reports_a_clean_tail() {
        let disk = SimDisk::default();
        let written: Vec<TaskEvent> = (0..5).map(|i| event(7, i)).collect();
        let path = append_all(&disk, usize::MAX, &written);
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
        let path = append_all(&disk, usize::MAX, &events);
        assert_eq!(disk.files()[path], framed(&events));
    }

    #[test]
    fn injected_crash_keeps_exactly_the_budgeted_prefix() {
        // At bound 0 each one-record batch is one write and one fsync: a
        // kill at the fourth fsync leaves four whole records behind.
        let disk = SimDisk::planned(Fault::Kill, Some(Op::SyncData), 3);
        let events: Vec<TaskEvent> = (0..10).map(|i| event(7, i)).collect();
        let path = append_all(&disk, 0, &events);
        let (read, tail) = read_wal_segment(&disk, path).unwrap();
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(read, events[..4]);
    }

    #[test]
    fn an_always_batch_is_one_fsync() {
        let disk = SimDisk::default();
        let path = Path::new("/wal/wal-0-0.log");
        let mut wal = WalWriter::create(&disk, path, 0).unwrap();
        let events: Vec<TaskEvent> = (0..10).map(|i| event(7, i)).collect();
        wal.append_batch(&events).unwrap();
        assert_eq!(syncs(&disk), 1);
        assert_eq!(disk.files()[path], framed(&events));
    }

    /// How many segment fsyncs `disk` has seen.
    fn syncs(disk: &SimDisk) -> usize {
        disk.steps().iter().filter(|s| s.op == Op::SyncData).count()
    }

    #[test]
    fn a_bounded_segment_fsyncs_only_past_its_bound() {
        let disk = SimDisk::default();
        let path = Path::new("/wal/wal-0-0.log");
        let mut wal = WalWriter::create(&disk, path, 4).unwrap();
        disk.sync_dir(Path::new("/wal")).unwrap();
        let events: Vec<TaskEvent> = (0..5).map(|i| event(7, i)).collect();
        // After each batch: the fsyncs so far, and the records a power
        // loss then keeps. Four unsynced events are within the bound of
        // 4; the fifth passes it.
        let mut seen = Vec::new();
        for batch in [&events[..3], &events[3..4], &events[4..]] {
            wal.append_batch(batch).unwrap();
            let unplugged = disk.fork();
            unplugged.lose_power();
            let (kept, _) = read_wal_segment(&unplugged, path).unwrap();
            seen.push((syncs(&disk), kept.len()));
        }
        assert_eq!(seen, [(0, 0), (0, 0), (1, 5)]);
    }

    #[test]
    fn a_rotation_survives_a_power_cut_before_any_other_dir_fsync() {
        let disk = SimDisk::default();
        let (first, second) = (Path::new("/wal/wal-0-0.log"), Path::new("/wal/wal-1-0.log"));
        let mut wal = WalWriter::create(&disk, first, usize::MAX).unwrap();
        wal.rotate(&disk, second).unwrap();
        let events: Vec<TaskEvent> = (0..3).map(|i| event(7, i)).collect();
        wal.append_batch(&events).unwrap();
        wal.flush_and_sync().unwrap();
        disk.lose_power();
        let (read, tail) = read_wal_segment(&disk, second).unwrap();
        assert_eq!((read, tail), (events, WalTail::Clean));
    }

    #[test]
    fn torn_tail_is_detected_and_the_prefix_survives() {
        // A kill inside the third record's write lands half of it.
        let disk = SimDisk::planned(Fault::Kill, Some(Op::Write), 2);
        let events: Vec<TaskEvent> = (0..10).map(|i| event(7, i)).collect();
        let path = append_all(&disk, 0, &events);
        let (read, tail) = read_wal_segment(&disk, path).unwrap();
        assert_eq!(tail, WalTail::Torn);
        assert_eq!(read, events[..2]);
        let whole = framed(&events[..3]).len();
        assert!(disk.files()[path].len() < whole);
    }
}
