//! Criterion microbenchmarks: cost of the ML primitives NURD refits at
//! every checkpoint.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use nurd_linalg::MatrixView;
use nurd_ml::{
    GbtConfig, GradientBoosting, LogisticConfig, LogisticRegression, SquaredLoss, TreeConfig,
};

fn training_set(n: usize, d: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let x: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..d)
                .map(|j| ((i * 31 + j * 17) % 97) as f64 / 97.0)
                .collect()
        })
        .collect();
    let y: Vec<f64> = x
        .iter()
        .map(|row| 100.0 + 40.0 * row[0] + 25.0 * row[d / 2] * row[d - 1])
        .collect();
    (x, y)
}

fn bench_tree_fit(c: &mut Criterion) {
    // Single-tree construction cost across the training-set sizes NURD
    // sees over a job's lifetime: a one-round fit, i.e. quantization, one
    // tree (depth 6 to give the grower real work below the root) and that
    // round's score update over bin codes.
    let mut group = c.benchmark_group("tree_fit");
    let config = GbtConfig {
        n_rounds: 1,
        tree: TreeConfig {
            max_depth: 6,
            ..TreeConfig::default()
        },
    };
    for &n in &[100usize, 1000, 3000] {
        let (x, y) = training_set(n, 15);
        group.bench_function(BenchmarkId::new("histogram", n), |b| {
            b.iter(|| GradientBoosting::fit(&x, &y, SquaredLoss, &config).unwrap());
        });
    }
    group.finish();
}

fn bench_gbt_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("gbt_fit");
    for &n in &[100usize, 300] {
        let (x, y) = training_set(n, 15);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| GradientBoosting::fit(&x, &y, SquaredLoss, &GbtConfig::default()).unwrap());
        });
    }
    group.finish();
}

fn bench_gbt_predict(c: &mut Criterion) {
    let (x, y) = training_set(300, 15);
    let model = GradientBoosting::fit(&x, &y, SquaredLoss, &GbtConfig::default()).unwrap();
    c.bench_function("gbt_predict_300", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for row in &x {
                acc += model.predict(row);
            }
            acc
        });
    });
}

fn bench_logistic_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("logistic_fit");
    for &n in &[100usize, 300] {
        let (x, _) = training_set(n, 15);
        let labels: Vec<f64> = (0..n).map(|i| f64::from(u8::from(i % 3 == 0))).collect();
        let config = LogisticConfig { balanced: true };
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| LogisticRegression::fit(&x, &labels, &config).unwrap());
        });
    }
    // The two shapes the propensity refit `g_t` serves: a giant
    // Alibaba-style job (thousands of tasks, 4 features) and a
    // Google-style one (~120 tasks, 17 features). Labels are
    // finished-vs-running: near-separable on a progress-like feature, a
    // few rows on the wrong side. `warm` seeds from a fit on the first
    // 95 % of rows, as each checkpoint's refit is seeded from the last.
    for &(n, d) in &[(2000usize, 4usize), (120, 17)] {
        let (x, _) = training_set(n, d);
        let labels: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, row)| f64::from((row[0] + 0.15 * row[d - 1] > 0.6) != (i % 37 == 0)))
            .collect();
        let config = LogisticConfig { balanced: true };
        let prefix = n * 95 / 100;
        let previous = LogisticRegression::fit(&x[..prefix], &labels[..prefix], &config).unwrap();
        let rows: Vec<&[f64]> = x.iter().map(Vec::as_slice).collect();
        let view = MatrixView::RowSlices(&rows);
        // The contract of IRLS's resolution stop, checked before timing:
        // the loop ends once a full Newton step predicts an ascent under
        // 4·ε·|f|, far below what a sum of n rounded terms resolves
        // (n·ε·|f|), so a seeded fit must end within that of the cold
        // fit's objective. One that stopped early would not.
        let objective = |seed| {
            let fit = LogisticRegression::fit_view_warm(view, &labels, &config, seed).unwrap();
            fit.objective(view, &labels, &config)
        };
        let (cold, warm) = (objective(None), objective(Some(&previous)));
        assert!(
            (warm - cold).abs() <= n as f64 * f64::EPSILON * cold.abs(),
            "logistic_fit/{n}x{d}: the seeded fit ends at {warm}, the cold one at {cold}"
        );
        for (start, seed) in [("cold", None), ("warm", Some(&previous))] {
            group.bench_function(BenchmarkId::new(start, format!("{n}x{d}")), |b| {
                b.iter(|| LogisticRegression::fit_view_warm(view, &labels, &config, seed).unwrap());
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_tree_fit,
    bench_gbt_fit,
    bench_gbt_predict,
    bench_logistic_fit
);
criterion_main!(benches);
