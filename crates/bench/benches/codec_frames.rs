//! The framing the durable path pays per record, through the codec's
//! public API: one `write_frame` into a sink and one `read_frame`
//! from a slice, at the two sizes the serving engine frames —
//!
//! * `167` — a WAL record (a `Progress` event of a 17-feature job), framed
//!   once per drained event and read back once per replayed one;
//! * `56k` — a live job's snapshot frame (a late-life warm predictor
//!   blob), of which a checkpoint writes one per live job and a restart
//!   reads and then re-writes every one.
//!
//! Both directions are the CRC-32 of the payload plus an 8-byte header;
//! `frame_read` adds the payload's allocation and copy. A sink and a
//! slice keep the file system out of it — a sink that shows the optimiser
//! every byte it is handed: into `io::sink()` the checksum is dead code,
//! and the byte-at-a-time kernel timed at 0.5 ns a frame.

use std::io::Write;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use nurd_codec::{read_frame, write_frame};

struct OpaqueSink;

impl Write for OpaqueSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        black_box(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn bench_codec_frames(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    for (label, len) in [("167", 167usize), ("56k", 56_000)] {
        let payload: Vec<u8> = (0..len).map(|i| (i * 31 + i / 7) as u8).collect();
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).expect("Vec never fails a write");
        assert_eq!(
            read_frame(&mut &framed[..]).expect("frame just written"),
            Some(payload.clone())
        );
        group.bench_function(BenchmarkId::new("frame_write", label), |b| {
            b.iter(|| write_frame(&mut OpaqueSink, black_box(&payload)));
        });
        group.bench_function(BenchmarkId::new("frame_read", label), |b| {
            b.iter(|| read_frame(&mut black_box(&framed[..])));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_codec_frames);
criterion_main!(benches);
