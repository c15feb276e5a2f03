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

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use nurd_codec::{read_frame, write_frame, Checkpointable, Decoder, Encoder, FrameError};
use nurd_data::TaskEvent;

use crate::persist::{FaultInjector, FsyncPolicy, RecoverError, WalWrite};

/// One shard's live WAL segment. Owned by the [`Shard`](crate::shard::Shard)
/// it logs for and therefore only ever touched under that shard's lock.
pub(crate) struct WalWriter {
    out: BufWriter<File>,
    policy: FsyncPolicy,
    fault: Option<Arc<FaultInjector>>,
    /// Set once the fault injector "crashed" this writer: every later
    /// append (and flush) silently vanishes, as it would after a kill.
    dead: bool,
    /// Buffered bytes not yet fsynced (skips no-op sync calls).
    dirty: bool,
    /// The record being appended: one buffer serves every event.
    enc: Encoder,
}

/// Passes its first `left` bytes through and swallows the rest: cuts a
/// frame short as it is written, without building it anywhere first.
struct CutShort<'a, W> {
    out: &'a mut W,
    left: usize,
}

impl<W: Write> Write for CutShort<'_, W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let keep = buf.len().min(self.left);
        self.out.write_all(&buf[..keep])?;
        self.left -= keep;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl WalWriter {
    pub(crate) fn create(
        path: PathBuf,
        policy: FsyncPolicy,
        fault: Option<Arc<FaultInjector>>,
    ) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(WalWriter {
            out: BufWriter::new(file),
            policy,
            fault,
            dead: false,
            dirty: false,
            enc: Encoder::new(),
        })
    }

    /// Appends one event record. Under [`FsyncPolicy::Always`] the
    /// record is flushed and fsynced before this returns.
    pub(crate) fn append(&mut self, event: &TaskEvent) -> std::io::Result<()> {
        if self.dead {
            return Ok(());
        }
        self.enc.clear();
        event.encode(&mut self.enc);
        let payload = self.enc.as_slice();
        match self.fault.as_ref().map_or(WalWrite::Full, |f| f.admit()) {
            WalWrite::Full => {
                write_frame(&mut self.out, payload)?;
                self.dirty = true;
            }
            WalWrite::Torn => {
                // Half a frame, then silence — the shape a crash mid-write
                // leaves. Flush it so the torn bytes actually land.
                let mut half = CutShort {
                    out: &mut self.out,
                    left: (FRAME_HEADER + payload.len()) / 2,
                };
                write_frame(&mut half, payload)?;
                self.out.flush()?;
                self.dead = true;
            }
            WalWrite::Dropped => {
                self.dead = true;
            }
        }
        if self.policy == FsyncPolicy::Always {
            self.flush_and_sync()?;
        }
        Ok(())
    }

    /// Pushes buffered records to the OS and fsyncs the segment.
    pub(crate) fn flush_and_sync(&mut self) -> std::io::Result<()> {
        if self.dead || !self.dirty {
            return Ok(());
        }
        self.out.flush()?;
        self.out.get_ref().sync_data()?;
        self.dirty = false;
        Ok(())
    }

    /// Seals this segment (flush + fsync) and starts a fresh one at
    /// `path` — the WAL half of snapshot rotation, called under the
    /// shard lock so no append can slip between the old and new files.
    pub(crate) fn rotate(&mut self, path: PathBuf) -> std::io::Result<()> {
        self.flush_and_sync()?;
        self.out = BufWriter::new(File::create(path)?);
        self.dirty = false;
        Ok(())
    }
}

/// Bytes [`write_frame`] puts before the payload: `[len: u32][crc32: u32]`.
const FRAME_HEADER: usize = 8;

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
pub(crate) fn read_wal_segment(path: &Path) -> Result<(Vec<TaskEvent>, WalTail), RecoverError> {
    let mut reader = BufReader::new(File::open(path)?);
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

    fn event(job: u64, ordinal: usize) -> TaskEvent {
        TaskEvent::Progress {
            job,
            task: 0,
            ordinal,
            time: ordinal as f64,
            features: vec![0.5, 1.5],
        }
    }

    #[test]
    fn segment_round_trips_and_reports_a_clean_tail() {
        let dir = std::env::temp_dir().join("nurd-wal-test-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-0-0.log");
        let mut wal = WalWriter::create(path.clone(), FsyncPolicy::Never, None).unwrap();
        let written: Vec<TaskEvent> = (0..5).map(|i| event(7, i)).collect();
        for e in &written {
            wal.append(e).unwrap();
        }
        wal.flush_and_sync().unwrap();
        let (read, tail) = read_wal_segment(&path).unwrap();
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(read, written);
        std::fs::remove_dir_all(&dir).ok();
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
        // of a longer one before it; then a torn record cut from the same
        // buffer.
        let dir = std::env::temp_dir().join("nurd-wal-test-reuse");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-0-0.log");
        let events: Vec<TaskEvent> = (0..40)
            .map(|i| TaskEvent::Progress {
                job: 3,
                task: i,
                ordinal: i,
                time: i as f64 * 0.5,
                features: vec![i as f64; (i * 7) % 11],
            })
            .collect();
        let fault = FaultInjector::crash_after_wal_records(30).with_torn_tail();
        let mut wal = WalWriter::create(path.clone(), FsyncPolicy::Never, Some(fault)).unwrap();
        for e in &events {
            wal.append(e).unwrap();
        }
        drop(wal);
        let mut want = framed(&events[..30]);
        let torn = framed(&events[30..31]);
        want.extend_from_slice(&torn[..torn.len() / 2]);
        assert_eq!(std::fs::read(&path).unwrap(), want);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_crash_keeps_exactly_the_budgeted_prefix() {
        let dir = std::env::temp_dir().join("nurd-wal-test-budget");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-0-0.log");
        let fault = FaultInjector::crash_after_wal_records(3);
        let mut wal = WalWriter::create(path.clone(), FsyncPolicy::Never, Some(fault)).unwrap();
        for i in 0..10 {
            wal.append(&event(7, i)).unwrap();
        }
        drop(wal); // BufWriter flushes what it was allowed to hold
        let (read, tail) = read_wal_segment(&path).unwrap();
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(read, (0..3).map(|i| event(7, i)).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_detected_and_the_prefix_survives() {
        let dir = std::env::temp_dir().join("nurd-wal-test-torn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-0-0.log");
        let fault = FaultInjector::crash_after_wal_records(2).with_torn_tail();
        let mut wal = WalWriter::create(path.clone(), FsyncPolicy::Never, Some(fault)).unwrap();
        for i in 0..10 {
            wal.append(&event(7, i)).unwrap();
        }
        drop(wal);
        let (read, tail) = read_wal_segment(&path).unwrap();
        assert_eq!(tail, WalTail::Torn);
        assert_eq!(read, (0..2).map(|i| event(7, i)).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).ok();
    }
}
