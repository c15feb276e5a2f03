//! Criterion benchmarks: end-to-end per-job replay cost of NURD vs the
//! strongest baselines — the "can this run online?" question.

use criterion::{criterion_group, criterion_main, Criterion};

use nurd_baselines::{GbtrPredictor, GrabitPredictor};
use nurd_core::{NurdConfig, NurdPredictor};
use nurd_sim::{replay_job, ReplayConfig};
use nurd_trace::{SuiteConfig, TraceStyle};

fn bench_replays(c: &mut Criterion) {
    let cfg = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(1)
        .with_task_range(200, 200)
        .with_checkpoints(20)
        .with_seed(0xBE7C);
    let job = nurd_trace::generate_job(&cfg, 0);
    let replay = ReplayConfig::default();

    let mut group = c.benchmark_group("replay_one_job_200_tasks");
    group.sample_size(10);
    group.bench_function("NURD", |b| {
        b.iter(|| {
            let mut p = NurdPredictor::new(NurdConfig::default());
            replay_job(&job, &mut p, &replay)
        });
    });
    group.bench_function("NURD-NC", |b| {
        b.iter(|| {
            let mut p = NurdPredictor::new(NurdConfig::without_calibration());
            replay_job(&job, &mut p, &replay)
        });
    });
    group.bench_function("GBTR", |b| {
        b.iter(|| {
            let mut p = GbtrPredictor::default();
            replay_job(&job, &mut p, &replay)
        });
    });
    group.bench_function("Grabit", |b| {
        b.iter(|| {
            let mut p = GrabitPredictor::default();
            replay_job(&job, &mut p, &replay)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_replays);
criterion_main!(benches);
