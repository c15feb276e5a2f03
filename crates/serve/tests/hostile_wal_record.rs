//! A WAL record that passes its checksum is decoded, so its count fields
//! are input. One `Placed` event declaring 2⁴⁰ nodes in a 17-byte payload
//! must make `recover` return a typed `RecoverError::Codec`, not ask the
//! allocator for 4 TiB and abort the process.
//!
//! Alone in its file: where the decoder reserved the declared count, the
//! abort took the whole test binary down with it.

use std::path::PathBuf;

use nurd_codec::{CodecError, Encoder};
use nurd_data::{Checkpoint, JobSpec, OnlinePredictor};
use nurd_serve::{
    EngineConfig, EngineService, OverloadPolicy, PersistenceConfig, PredictorFactory, RecoverError,
    ServiceConfig,
};

struct FlagNone;
impl OnlinePredictor for FlagNone {
    fn name(&self) -> &str {
        "NONE"
    }
    fn predict(&mut self, _checkpoint: &Checkpoint<'_>) -> Vec<usize> {
        Vec::new()
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
    ServiceConfig {
        drain_workers: 1,
        drain_batch: 8,
    }
}

#[test]
fn a_checksummed_placed_record_with_an_impossible_count_is_a_codec_error() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("nurd-hostile-wal-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let service = EngineService::start_persistent(
        engine_config(),
        service_config(),
        PersistenceConfig::new(&dir),
        factory(),
    )
    .unwrap();
    assert_eq!(service.checkpoint().unwrap(), 1);
    drop(service);

    // Tag 6 (`Placed`), job 5, 2⁴⁰ nodes: framed with a valid CRC-32, as
    // format drift or a hostile writer would leave it.
    let mut payload = Encoder::new();
    payload.put_u8(6);
    payload.put_u64(5);
    payload.put_usize(1 << 40);
    let payload = payload.into_bytes();
    assert_eq!(payload.len(), 17);
    let mut segment = std::fs::read(dir.join("wal-1-0.log")).unwrap();
    nurd_codec::write_frame(&mut segment, &payload).unwrap();
    std::fs::write(dir.join("wal-1-0.log"), &segment).unwrap();

    let recovered = EngineService::recover(
        PersistenceConfig::new(&dir),
        engine_config(),
        service_config(),
        factory(),
    );
    std::fs::remove_dir_all(&dir).ok();
    assert!(matches!(
        recovered,
        Err(RecoverError::Codec(CodecError::LengthOverrun {
            declared: 1_099_511_627_776,
            remaining: 0,
        }))
    ));
}
