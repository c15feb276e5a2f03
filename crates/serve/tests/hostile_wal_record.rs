//! A WAL record that passes its checksum is decoded, so its count fields
//! are input. One `Placed` event declaring 2⁴⁰ nodes in a 17-byte payload
//! must make `recover` return a typed `RecoverError::Codec`, not ask the
//! allocator for 4 TiB and abort the process.
//!
//! Recovery replays a generation's segments in parallel, yet the error
//! it returns is still the first in (generation, shard) order: with such
//! records in two segments of one generation, every recovery reports the
//! lower shard's.
//!
//! Alone in their file: where the decoder reserved the declared count,
//! the abort took the whole test binary down with it.

use std::path::{Path, PathBuf};

use nurd_codec::{Checkpointable, CodecError, Encoder};
use nurd_data::{Checkpoint, JobSpec, OnlinePredictor, TaskEvent};
use nurd_serve::{
    EngineConfig, EngineService, PersistenceConfig, PredictorFactory, RecoverError, ServiceConfig,
};

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

fn engine_config(shards: usize) -> EngineConfig {
    EngineConfig {
        shards,
        warmup_fraction: 0.04,
        queue_capacity: Some(16),
        ..EngineConfig::default()
    }
}

fn service_config(drain_workers: usize) -> ServiceConfig {
    ServiceConfig { drain_workers }
}

/// A fresh engine directory holding an empty generation 0 and a
/// checkpoint to generation 1 at `shards` shards.
fn checkpointed_dir(tag: &str, shards: usize) -> PathBuf {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("nurd-hostile-wal-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let service = EngineService::start_persistent(
        engine_config(shards),
        service_config(1),
        PersistenceConfig::new(&dir),
        factory(),
    )
    .unwrap();
    assert_eq!(service.checkpoint().unwrap(), 1);
    drop(service);
    dir
}

/// Appends `padding` valid `Progress` records and then one `Placed`
/// record for job 5 declaring `nodes` nodes, framed with a valid CRC-32
/// (as format drift or a hostile writer would leave it), to generation
/// 1's segment of `shard`. The hostile payload is 17 bytes.
fn append_hostile_placed(dir: &Path, shard: usize, nodes: usize, padding: usize) {
    let path = dir.join(format!("wal-1-{shard}.log"));
    let mut segment = std::fs::read(&path).unwrap();
    for ordinal in 0..padding {
        let event = TaskEvent::Progress {
            job: 5,
            task: 0,
            ordinal,
            time: ordinal as f64,
            features: vec![0.5],
        };
        let mut payload = Encoder::new();
        event.encode(&mut payload);
        nurd_codec::write_frame(&mut segment, &payload.into_bytes()).unwrap();
    }
    let mut payload = Encoder::new();
    payload.put_u8(6);
    payload.put_u64(5);
    payload.put_usize(nodes);
    let payload = payload.into_bytes();
    assert_eq!(payload.len(), 17);
    nurd_codec::write_frame(&mut segment, &payload).unwrap();
    std::fs::write(&path, &segment).unwrap();
}

fn recover(dir: &Path, shards: usize, drain_workers: usize) -> Result<(), RecoverError> {
    EngineService::recover(
        PersistenceConfig::new(dir),
        engine_config(shards),
        service_config(drain_workers),
        factory(),
    )
    .map(drop)
}

#[test]
fn a_checksummed_placed_record_with_an_impossible_count_is_a_codec_error() {
    // Tag 6 (`Placed`), job 5, 2⁴⁰ nodes.
    let dir = checkpointed_dir("one", 1);
    append_hostile_placed(&dir, 0, 1 << 40, 0);
    let recovered = recover(&dir, 1, 1);
    std::fs::remove_dir_all(&dir).ok();
    assert!(matches!(
        recovered,
        Err(RecoverError::Codec(CodecError::LengthOverrun {
            declared: 1_099_511_627_776,
            remaining: 0,
        }))
    ));
}

/// Shards 1 and 3 of one generation each hold a hostile record, told
/// apart by their declared counts; shard 1's sits behind a few thousand
/// valid records, so its segment fails last. Twenty recoveries on four
/// replay threads all return shard 1's error.
#[test]
fn the_first_hostile_segment_by_shard_is_the_error_every_time() {
    let dir = checkpointed_dir("two", 4);
    append_hostile_placed(&dir, 1, 1 << 40, 4000);
    append_hostile_placed(&dir, 3, 1 << 41, 0);
    let errors: Vec<String> = (0..20)
        .filter_map(|_| match recover(&dir, 4, 4) {
            Err(RecoverError::Codec(CodecError::LengthOverrun {
                declared: 1_099_511_627_776,
                remaining: 0,
            })) => None,
            other => Some(format!("{other:?}")),
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    assert!(errors.is_empty(), "not shard 1's error: {errors:?}");
}
