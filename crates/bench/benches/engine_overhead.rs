//! Per-event engine overhead and the scoring hot path, isolated:
//!
//! * `engine_overhead/predictor/{noop,nurd_flat}` — the same staggered
//!   fleet served end to end by (a) a no-op predictor (pure event
//!   application + pooled barrier assembly, the engine's floor) and
//!   (b) full NURD. The gap is the model cost.
//! * `engine_overhead/scoring/{pointer,flat_l1,flat_l4,flat_l8}` — the
//!   batch-prediction kernel alone: one fitted latency head scoring the
//!   same feature batch through the pointer-tree
//!   [`nurd_ml::GradientBoosting::predict_view`] (the test oracle, timed
//!   as the yardstick) and through
//!   [`nurd_ml::FlatForest::predict_view_into`] at pinned lane widths
//!   ([`nurd_ml::FlatForest::set_lanes`]): `flat_l1` walks one row per
//!   tree step, `flat_l4` (the default) / `flat_l8` interleave 4 / 8.
//!   Every width is asserted bit-identical to the pointer walk before
//!   timing.
//!
//! Determinism cover: `tests/hot_path_equivalence.rs` holds the served
//! scores to the pointer walk bit-for-bit at every lane width, so every
//! ratio below is free of accuracy caveats.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use nurd_core::{NurdConfig, NurdPredictor, RefitPolicy, WarmRefitConfig};
use nurd_data::{Checkpoint, OnlinePredictor, TaskEvent};
use nurd_linalg::MatrixView;
use nurd_ml::{FlatForest, GbtConfig, GradientBoosting, SquaredLoss, TreeConfig};
use nurd_runtime::ThreadPool;
use nurd_serve::{Engine, EngineConfig, EngineReport, PredictorFactory};
use nurd_trace::{SuiteConfig, TraceStyle};

const JOBS: usize = 6;
const SHARDS: usize = 2;
const ARRIVAL_SPREAD: f64 = 400.0;

fn fleet_jobs() -> Vec<nurd_data::JobTrace> {
    let cfg = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(JOBS)
        .with_task_range(80, 110)
        .with_checkpoints(10)
        .with_seed(0x0E4D);
    nurd_trace::generate_suite(&cfg)
}

fn fleet() -> Vec<TaskEvent> {
    nurd_trace::staggered_fleet_events(&fleet_jobs(), 0.9, ARRIVAL_SPREAD, 0x0E4D)
}

/// Scores nothing: every barrier still assembles its checkpoint views
/// from the pooled scratch, so this measures the engine's per-event
/// floor (ingress, application, barrier assembly, finalization).
struct Noop;
impl OnlinePredictor for Noop {
    fn name(&self) -> &str {
        "NOOP"
    }
    fn predict(&mut self, _c: &Checkpoint<'_>) -> Vec<usize> {
        Vec::new()
    }
}

fn nurd_factory() -> PredictorFactory {
    Box::new(|_spec| {
        Box::new(NurdPredictor::new(NurdConfig::default().with_refit_policy(
            RefitPolicy::Warm(WarmRefitConfig::default()),
        )))
    })
}

fn run_fleet(events: &[TaskEvent], factory: PredictorFactory, pool: &ThreadPool) -> EngineReport {
    let engine = Engine::new(
        EngineConfig {
            shards: SHARDS,
            warmup_fraction: 0.04,
            ..EngineConfig::default()
        },
        factory,
    );
    engine.push_all_sync(events.iter().cloned());
    engine.finish(pool)
}

/// Deterministic synthetic regression rows (no RNG in benches).
fn synthetic_rows(n: usize, d: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for i in 0..n {
        let mut row = Vec::with_capacity(d);
        let mut acc = 0.0;
        for f in 0..d {
            let v = ((i * 2654435761 + f * 40503) % 10_000) as f64 / 10_000.0;
            acc += v * (f as f64 + 1.0);
            row.push(v);
        }
        xs.push(row);
        ys.push(acc + ((i % 17) as f64) * 0.25);
    }
    (xs, ys)
}

fn bench_engine_overhead(c: &mut Criterion) {
    let events = fleet();
    let pool = ThreadPool::new(SHARDS);

    // Correctness guardrail: NURD must actually score and flag (a
    // silently dead predictor would make the overhead gap meaningless).
    let report = run_fleet(&events, nurd_factory(), &pool);
    let flagged: usize = report
        .jobs
        .iter()
        .map(|r| r.outcome.flagged_at.iter().flatten().count())
        .sum();
    let scored: usize = report.jobs.iter().map(|r| r.checkpoints_scored).sum();
    assert!(flagged > 0, "NURD flagged nothing — bench would be vacuous");
    eprintln!(
        "engine_overhead workload: {} jobs, {} events, {} checkpoints scored, {} tasks flagged",
        report.jobs.len(),
        report.events,
        scored,
        flagged,
    );

    let mut group = c.benchmark_group("engine_overhead");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("predictor", "noop"), |b| {
        b.iter(|| run_fleet(&events, Box::new(|_spec| Box::new(Noop)), &pool));
    });
    group.bench_function(BenchmarkId::new("predictor", "nurd_flat"), |b| {
        b.iter(|| run_fleet(&events, nurd_factory(), &pool));
    });

    // The scoring kernel alone: one fitted head, one resident batch,
    // pointer walk vs each lane width. Model shape matches the serving default (50
    // rounds, depth 3); the batch is a plausible running-set size.
    let (xs, ys) = synthetic_rows(2000, 8);
    let rows: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
    let gbt = GbtConfig {
        n_rounds: 50,
        learning_rate: 0.15,
        tree: TreeConfig {
            max_depth: 3,
            min_child_weight: 2.0,
            ..TreeConfig::default()
        },
        subsample: 1.0,
        seed: 17,
    };
    let model = GradientBoosting::fit_view(MatrixView::RowSlices(&rows), &ys, SquaredLoss, &gbt)
        .expect("fit");
    let batch: Vec<&[f64]> = rows[..256].to_vec();
    let mut scratch = Vec::new();
    let pointer_preds = model.predict_view(MatrixView::RowSlices(&batch));

    // Unmeasured speedup probe printed next to the criterion estimates,
    // so the kernel ratios are visible in the bench log itself.
    fn time(mut f: impl FnMut()) -> f64 {
        let iters = 2000;
        for _ in 0..200 {
            f(); // warm caches and clocks before timing
        }
        let start = std::time::Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed().as_secs_f64() / f64::from(iters)
    }
    let t_pointer = time(|| {
        std::hint::black_box(model.predict_view(MatrixView::RowSlices(&batch)));
    });

    // Lane-width sweep over the same model/batch, each width guarded by
    // a bit-identity assertion against the pointer walk before timing.
    let lane_forests: Vec<(usize, FlatForest)> = [1usize, 4, 8]
        .into_iter()
        .map(|l| (l, model.flatten().with_lanes(l)))
        .collect();
    for (lanes, forest) in &lane_forests {
        let mut out = Vec::new();
        forest.predict_view_into(MatrixView::RowSlices(&batch), &mut out);
        assert_eq!(
            out, pointer_preds,
            "lane width {lanes} is not bit-identical to the pointer walk"
        );
    }
    let lane_times: Vec<(usize, f64)> = lane_forests
        .iter()
        .map(|(lanes, forest)| {
            let t = time(|| {
                forest.predict_view_into(MatrixView::RowSlices(&batch), &mut scratch);
                std::hint::black_box(&mut scratch);
            });
            (*lanes, t)
        })
        .collect();
    let t_l1 = lane_times[0].1;
    let (best_lanes, best_t) = lane_times
        .iter()
        .copied()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("lane sweep nonempty");
    eprintln!(
        "scoring kernel (50 trees × depth 3 × 256 rows): pointer {:.1}µs, {} — best L={} at {:.2}x over L=1, {:.2}x over pointer",
        t_pointer * 1e6,
        lane_times
            .iter()
            .map(|(l, t)| format!("L{l} {:.1}µs", t * 1e6))
            .collect::<Vec<_>>()
            .join(", "),
        best_lanes,
        t_l1 / best_t,
        t_pointer / best_t,
    );

    group.bench_function(BenchmarkId::new("scoring", "pointer"), |b| {
        b.iter(|| model.predict_view(MatrixView::RowSlices(&batch)));
    });
    for (lanes, forest) in &lane_forests {
        group.bench_function(BenchmarkId::new("scoring", format!("flat_l{lanes}")), |b| {
            b.iter(|| forest.predict_view_into(MatrixView::RowSlices(&batch), &mut scratch));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine_overhead);
criterion_main!(benches);
