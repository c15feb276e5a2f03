//! The scoring hot path, isolated:
//! `engine_overhead/scoring/{flat_l1,flat_l4,flat_l8}` — one fitted latency
//! head scoring the same 256-row batch through
//! [`nurd_ml::FlatForest::predict_view_into`] at pinned lane widths
//! ([`nurd_ml::FlatForest::set_lanes`]): `flat_l1` walks one row per tree
//! step, `flat_l4` (the default) / `flat_l8` interleave 4 / 8. Every width
//! is asserted bit-identical to the safe one-row reference walk
//! ([`nurd_ml::GradientBoosting::predict_view`]) before it is timed.
//!
//! What a served fleet costs with and without a model — this file's former
//! `predictor/{noop,nurd_flat}` rows — is the fleet benchmark's
//! `ingest_floor` and `fleet_google` workloads (`BENCHMARK.json`), served
//! through `EngineService` (those rows drove a caller-driven `Engine`,
//! deleted in PR 20); the group keeps its name so the surviving rows keep
//! theirs.
//!
//! Determinism cover: `tests/hot_path_equivalence.rs` holds the served
//! scores to the reference walk bit-for-bit at every lane width, so every
//! ratio below is free of accuracy caveats.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use nurd_linalg::MatrixView;
use nurd_ml::{FlatForest, GbtConfig, GradientBoosting, SquaredLoss, TreeConfig};

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
    let mut group = c.benchmark_group("engine_overhead");
    group.sample_size(10);

    // The scoring kernel alone: one fitted head, one resident batch, each
    // lane width. Model shape matches the serving default (50 rounds,
    // depth 3); the batch is a plausible running-set size.
    let (xs, ys) = synthetic_rows(2000, 8);
    let rows: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
    let gbt = GbtConfig {
        n_rounds: 50,
        tree: TreeConfig {
            max_depth: 3,
            min_child_weight: 2.0,
            ..TreeConfig::default()
        },
    };
    let model = GradientBoosting::fit_view(MatrixView::RowSlices(&rows), &ys, SquaredLoss, &gbt)
        .expect("fit");
    let batch: Vec<&[f64]> = rows[..256].to_vec();
    let mut scratch = Vec::new();
    let reference = model.predict_view(MatrixView::RowSlices(&batch));

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

    // Lane-width sweep over the same model/batch, each width guarded by
    // a bit-identity assertion against the reference walk before timing.
    let lane_forests: Vec<(usize, FlatForest)> = [1usize, 4, 8]
        .into_iter()
        .map(|l| (l, model.forest().clone().with_lanes(l)))
        .collect();
    for (lanes, forest) in &lane_forests {
        let mut out = Vec::new();
        forest.predict_view_into(MatrixView::RowSlices(&batch), &mut out);
        assert_eq!(
            out, reference,
            "lane width {lanes} is not bit-identical to the one-row reference walk"
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
        "scoring kernel (50 trees × depth 3 × 256 rows): {} — best L={} at {:.2}x over L=1",
        lane_times
            .iter()
            .map(|(l, t)| format!("L{l} {:.1}µs", t * 1e6))
            .collect::<Vec<_>>()
            .join(", "),
        best_lanes,
        t_l1 / best_t,
    );

    for (lanes, forest) in &lane_forests {
        group.bench_function(BenchmarkId::new("scoring", format!("flat_l{lanes}")), |b| {
            b.iter(|| forest.predict_view_into(MatrixView::RowSlices(&batch), &mut scratch));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine_overhead);
criterion_main!(benches);
