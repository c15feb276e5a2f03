//! Streaming-engine throughput over one fleet workload:
//!
//! * `serve_throughput/producers/{1,2,4}` — **service mode**: the events
//!   partitioned across N real producer threads pushing through cloned
//!   `EngineHandle`s into the background drain service (4 shards,
//!   machine-sized drain workers, bounded queues under `Block`). This
//!   measures the concurrent ingestion path end to end: blocking sends,
//!   per-shard MPSC channels, drain workers parking/unparking. The fleet
//!   benchmark (`benchmark/`) drives one producer; this sweep is the
//!   multi-producer cover it does not have.
//!
//! Workload: a 10-job Google-style fleet (~100–140 tasks each, 12
//! checkpoints) lowered to streaming `TaskEvent`s — jobs admitted
//! mid-stream by their `JobStart`, finalized individually as their
//! streams end, exactly as in a long-lived service. Scoring is by
//! warm-policy NURD predictors; each measured iteration serves the whole
//! fleet to a final report (the full serving cost, dominated by
//! per-checkpoint model refits).
//!
//! The determinism property tests (`nurd-serve`) guarantee every
//! configuration produces bit-identical per-job reports; scaling is
//! therefore free of accuracy caveats. Ratios are bounded by the
//! machine's cores — on a single-core container every variant measures
//! roughly the sequential cost plus scheduling overhead.
//!
//! A correctness line (macro-F1, flags, events/sec, overload counters)
//! is printed before timing at every producer count, and zero lost
//! events under `Block` is asserted, so a silently broken engine can't
//! post good numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use nurd_core::{NurdConfig, NurdPredictor, RefitPolicy, WarmRefitConfig};
use nurd_data::TaskEvent;
use nurd_serve::{
    EngineConfig, EngineReport, EngineService, FsyncPolicy, OverloadPolicy, PersistenceConfig,
    PredictorFactory, ServiceConfig,
};
use nurd_trace::{SuiteConfig, TraceStyle};

const JOBS: usize = 10;
const PRODUCER_SWEEP: [usize; 3] = [1, 2, 4];
/// Shards for the producer sweep.
const SERVICE_SHARDS: usize = 4;
/// Bounded ingress for the producer sweep: small enough that the burst
/// saturates it, so blocking sends are part of what is measured.
const SERVICE_QUEUE: usize = 1024;

fn fleet_jobs() -> Vec<nurd_data::JobTrace> {
    let cfg = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(JOBS)
        .with_task_range(100, 140)
        .with_checkpoints(12)
        .with_seed(0x5E8E);
    nurd_trace::generate_suite(&cfg)
}

/// The producer partition: jobs split round-robin, each producer's
/// stream a seeded interleave of its own jobs (per-job order intact).
fn producer_streams(producers: usize) -> Vec<Vec<TaskEvent>> {
    nurd_trace::producer_streams(&fleet_jobs(), producers, 0.9, 0x5E8E)
}

fn factory() -> PredictorFactory {
    Box::new(|_spec| {
        Box::new(NurdPredictor::new(NurdConfig::default().with_refit_policy(
            RefitPolicy::Warm(WarmRefitConfig::default()),
        )))
    })
}

fn run_service(streams: &[Vec<TaskEvent>]) -> EngineReport {
    let service = EngineService::start(
        EngineConfig {
            shards: SERVICE_SHARDS,
            warmup_fraction: 0.04,
            queue_capacity: Some(SERVICE_QUEUE),
            overload: OverloadPolicy::Block,
            ..EngineConfig::default()
        },
        ServiceConfig::default(),
        factory(),
    );
    let producers: Vec<_> = streams
        .iter()
        .map(|stream| {
            let handle = service.handle();
            let stream = stream.clone();
            std::thread::spawn(move || handle.push_all(stream))
        })
        .collect();
    let accepted: usize = producers.into_iter().map(|p| p.join().unwrap()).sum();
    let report = service.close();
    assert_eq!(accepted, report.events, "service lost events");
    report
}

fn bench_serve_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_throughput");
    group.sample_size(10);
    for producers in PRODUCER_SWEEP {
        let streams = producer_streams(producers);
        // One unmeasured run to assert the mode is healthy at this
        // producer count (zero losses, every job reported, tasks flag),
        // printed next to the timings.
        let start = std::time::Instant::now();
        let check = run_service(&streams);
        let elapsed = start.elapsed().as_secs_f64();
        let flagged: usize = check
            .jobs
            .iter()
            .map(|r| r.outcome.flagged_at.iter().flatten().count())
            .sum();
        eprintln!(
            "serve_throughput workload, {producers} producers: {} jobs (mid-stream admission), \
             {} events, macro-F1 {:.3}, {} tasks flagged, {:.0} events/s, overload {:?}",
            check.jobs.len(),
            check.events,
            check.macro_f1(),
            flagged,
            check.events as f64 / elapsed,
            check.overload,
        );
        assert_eq!(check.jobs.len(), JOBS, "service mode lost jobs");
        assert!(
            flagged > 0,
            "engine flagged nothing — bench would be vacuous"
        );
        assert_eq!(check.overload.lost_events(), 0, "Block lost events");
        group.bench_function(BenchmarkId::new("producers", producers), |b| {
            b.iter(|| run_service(&streams));
        });
    }
    group.finish();
}

/// Persistence-path latency, swept over resident (live, mid-stream)
/// jobs:
///
/// * `snapshot_restore/snapshot/{2,5,10}jobs` — one full engine
///   checkpoint: every live job's state (spec, task bookkeeping, warm
///   NURD predictor blob) CRC-framed and fsynced to a new snapshot
///   generation, WALs rotated, old generations pruned.
/// * `snapshot_restore/restore/{2,5,10}jobs` — cold recovery: scan the
///   directory, load the newest valid snapshot, rebuild every resident
///   predictor from its blob, replay the WAL tail, and stand the
///   service up (the measured iteration includes the post-recovery
///   snapshot and clean shutdown — the full restart cost an operator
///   waits through).
///
/// Each resident job is mid-stream (half its events applied), so the
/// snapshots carry genuinely warm predictor state rather than empty
/// shells.
fn bench_snapshot_restore(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot_restore");
    group.sample_size(10);
    for resident in [2usize, 5, 10] {
        let cfg = SuiteConfig::new(TraceStyle::Google)
            .with_jobs(resident)
            .with_task_range(100, 140)
            .with_checkpoints(12)
            .with_seed(0x5E8E);
        let traces = nurd_trace::generate_suite(&cfg);
        let half_streams: Vec<Vec<TaskEvent>> = traces
            .iter()
            .map(|job| {
                let mut events = nurd_data::job_stream(job, 0.9);
                events.truncate(events.len() / 2);
                events
            })
            .collect();
        let dir = std::env::temp_dir().join(format!(
            "nurd-bench-snapshot-{}-{resident}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let engine_cfg = EngineConfig {
            shards: SERVICE_SHARDS,
            warmup_fraction: 0.04,
            ..EngineConfig::default()
        };
        // WAL fsync cost is the drain path's; `Never` isolates what this
        // group measures (snapshot write / recovery read).
        let mut persistence = PersistenceConfig::new(&dir);
        persistence.fsync = FsyncPolicy::Never;
        let service = EngineService::start_persistent(
            engine_cfg.clone(),
            ServiceConfig::default(),
            persistence,
            factory(),
        )
        .expect("start_persistent");
        for stream in &half_streams {
            let handle = service.handle();
            handle.push_all(stream.iter().cloned());
        }
        service.quiesce();
        group.bench_function(
            BenchmarkId::new("snapshot", format!("{resident}jobs")),
            |b| {
                b.iter(|| service.checkpoint().expect("checkpoint"));
            },
        );
        let _ = service.close(); // shutdown snapshot: live jobs persist resumable
        group.bench_function(
            BenchmarkId::new("restore", format!("{resident}jobs")),
            |b| {
                b.iter(|| {
                    let (revived, report) = EngineService::recover(
                        PersistenceConfig::new(&dir),
                        engine_cfg.clone(),
                        ServiceConfig::default(),
                        factory(),
                    )
                    .expect("recover");
                    assert_eq!(
                        report.resumed_jobs, resident,
                        "a resident job failed to resume"
                    );
                    let _ = revived.close();
                });
            },
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    group.finish();
}

criterion_group!(benches, bench_serve_throughput, bench_snapshot_restore);
criterion_main!(benches);
