//! The predictor-level half of the restart-equals-uninterrupted contract:
//! a fresh `NurdPredictor` restored from `snapshot_state` bytes must score
//! every future checkpoint bit-for-bit like the original instance.

use nurd_core::{NurdConfig, NurdPredictor, RefitPolicy, WarmRefitConfig};
use nurd_data::{Checkpoint, FinishedTask, OnlinePredictor, RunningTask, StreamContext};

fn tasks(n: usize) -> Vec<(Vec<f64>, f64)> {
    (0..n)
        .map(|i| {
            let a = ((i * 29) % 17) as f64;
            let b = ((i * 13) % 7) as f64;
            (vec![a, b], 5.0 + 2.0 * a - b)
        })
        .collect()
}

/// A checkpoint whose finished set is the first `k` tasks.
fn checkpoint(ts: &[(Vec<f64>, f64)], k: usize, ordinal: usize) -> Checkpoint<'_> {
    Checkpoint {
        ordinal,
        time: ordinal as f64 * 10.0,
        finished: ts[..k]
            .iter()
            .enumerate()
            .map(|(id, (f, lat))| FinishedTask {
                id,
                features: f,
                latency: *lat,
            })
            .collect(),
        running: ts[k..]
            .iter()
            .enumerate()
            .map(|(i, (f, _))| RunningTask {
                id: k + i,
                features: f,
            })
            .collect(),
    }
}

fn mid_job_restore_matches(config: NurdConfig) {
    let ts = tasks(120);
    let ctx = StreamContext {
        threshold: 25.0,
        task_count: 120,
        feature_dim: 2,
    };
    let mut live = NurdPredictor::new(config.clone());
    live.begin_stream(&ctx);
    // Drive a few checkpoints, snapshot mid-job.
    for (ordinal, k) in [30usize, 50, 70].into_iter().enumerate() {
        live.predict(&checkpoint(&ts, k, ordinal));
    }
    let blob = live.snapshot_state().expect("NurdPredictor supports blobs");

    let mut restored = NurdPredictor::new(config);
    restored.begin_stream(&ctx);
    assert!(
        restored.restore_state(&blob),
        "restore must accept its own bytes"
    );
    assert_eq!(restored.delta(), live.delta());
    assert_eq!(restored.refit_stats(), live.refit_stats());
    // The head travels inside the refit state under either policy, so its
    // counters do too (three checkpoints, three fits).
    let stats = restored.refit_stats();
    assert_eq!(stats.cold_fits + stats.warm_fits, 3, "{stats:?}");

    // Every future checkpoint must score every task identically.
    for (ordinal, k) in [90usize, 100, 110].into_iter().enumerate() {
        let ckpt = checkpoint(&ts, k, 3 + ordinal);
        assert_eq!(
            live.score_running(&ckpt),
            restored.score_running(&ckpt),
            "restored predictor diverged at checkpoint {ordinal}"
        );
    }
}

#[test]
fn cold_policy_restore_is_bit_for_bit() {
    mid_job_restore_matches(NurdConfig::default());
}

#[test]
fn warm_policy_restore_is_bit_for_bit() {
    mid_job_restore_matches(
        NurdConfig::default().with_refit_policy(RefitPolicy::Warm(WarmRefitConfig::default())),
    );
}

#[test]
fn garbage_bytes_are_rejected_without_panic() {
    let mut p = NurdPredictor::new(NurdConfig::default());
    p.begin_stream(&StreamContext {
        threshold: 10.0,
        task_count: 4,
        feature_dim: 2,
    });
    assert!(!p.restore_state(&[0xFF; 13]));
    assert!(!p.restore_state(b""));
    // Truncated real blob: also rejected, never a panic.
    let ts = tasks(40);
    p.predict(&checkpoint(&ts, 30, 0));
    let blob = p.snapshot_state().unwrap();
    for cut in [1usize, blob.len() / 2, blob.len() - 1] {
        assert!(!p.restore_state(&blob[..cut]), "cut at {cut} accepted");
    }
}
