//! Integration guarantees of the warm-start refit subsystem:
//!
//! 1. `RefitPolicy::AlwaysCold` is the legacy protocol **bit-for-bit** —
//!    an independently coded reference of the per-checkpoint pipeline
//!    (cold GBT fit on the checkpoint's finished rows, cold logistic
//!    propensity fit, weighting formula) reproduces every scored quantity
//!    exactly;
//! 2. warm-started refits stay within a small accuracy tolerance of cold
//!    refits on drifting data, across whole replays;
//! 3. the `warm_rounds × drift_tolerance` ablation grid is pinned
//!    cell-by-cell to its accuracy envelope, so a regression in the drift
//!    fallback, score cache, or warm boosting path surfaces as one cell
//!    drifting.

use nurd_core::{NurdConfig, NurdPredictor, RefitPolicy, WarmRefitConfig, WarmRefitState};
use nurd_data::{Checkpoint, JobTrace, OnlinePredictor, StreamContext};
use nurd_linalg::MatrixView;
use nurd_ml::{GradientBoosting, LogisticRegression, SquaredLoss};
use nurd_trace::{SuiteConfig, TraceStyle};
use proptest::prelude::*;

fn job_from_seed(seed: u64) -> JobTrace {
    let cfg = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(1)
        .with_task_range(80, 110)
        .with_checkpoints(12)
        .with_seed(seed);
    nurd_trace::generate_job(&cfg, 0)
}

/// The pre-warm-start per-checkpoint pipeline, coded independently of
/// `NurdPredictor`: cold latency fit over the checkpoint's finished rows
/// (in checkpoint order), cold balanced logistic propensity fit over
/// finished ∪ running, paper weighting. Returns
/// `(raw, propensity, weight, adjusted)` per running task.
fn legacy_reference(
    ckpt: &Checkpoint<'_>,
    config: &NurdConfig,
    delta: Option<f64>,
) -> Option<Vec<(f64, f64, f64, f64)>> {
    let x_fin = ckpt.finished_feature_rows();
    let y_fin = ckpt.finished_latencies();
    let x_run = ckpt.running_feature_rows();
    let h = GradientBoosting::fit_view(
        MatrixView::RowSlices(&x_fin),
        &y_fin,
        SquaredLoss,
        &config.gbt,
    )
    .ok()?;
    let x_all: Vec<&[f64]> = x_fin.iter().chain(x_run.iter()).copied().collect();
    let mut labels = vec![1.0; x_fin.len()];
    labels.extend(std::iter::repeat_n(0.0, x_run.len()));
    let g = LogisticRegression::fit_view_warm(
        MatrixView::RowSlices(&x_all),
        &labels,
        &config.logistic,
        None,
    )
    .ok()?;
    Some(
        x_run
            .iter()
            .map(|row| {
                let raw = h.predict(row);
                let z = g.predict_proba(row);
                let w = match delta {
                    Some(delta) => nurd_core::weight(z, delta, config.epsilon),
                    None => z.max(1e-9),
                };
                (raw, z, w, nurd_core::adjusted_latency(raw, w))
            })
            .collect(),
    )
}

fn assert_always_cold_matches_legacy(seed: u64) {
    let job = job_from_seed(seed);
    let config = NurdConfig::default(); // refit_policy: AlwaysCold
    let mut nurd = NurdPredictor::new(config.clone());
    nurd.begin_stream(&StreamContext {
        threshold: job.straggler_threshold(0.9),
        task_count: job.task_count(),
        feature_dim: job.feature_dim(),
    });
    let warmup = job.warmup_checkpoint(0.04);
    let mut compared = 0;
    for k in warmup..job.checkpoint_count() {
        let ckpt = job.checkpoint_at(k);
        if ckpt.finished.len() < 2 || ckpt.running.is_empty() {
            continue;
        }
        let scores = nurd.score_running(&ckpt);
        let Some(reference) = legacy_reference(&ckpt, &config, nurd.delta()) else {
            assert!(scores.is_empty(), "predictor scored where reference failed");
            continue;
        };
        assert_eq!(scores.len(), reference.len(), "checkpoint {k}");
        for (s, (raw, z, w, adj)) in scores.iter().zip(&reference) {
            assert_eq!(s.raw, *raw, "raw mismatch at checkpoint {k}");
            assert_eq!(s.propensity, *z, "propensity mismatch at checkpoint {k}");
            assert_eq!(s.weight, *w, "weight mismatch at checkpoint {k}");
            assert_eq!(s.adjusted, *adj, "adjusted mismatch at checkpoint {k}");
        }
        compared += 1;
    }
    assert!(compared >= 3, "too few comparable checkpoints ({compared})");
}

#[test]
fn always_cold_is_bit_for_bit_legacy() {
    assert_always_cold_matches_legacy(41);
}

/// Replays a job's growing finished set through a warm `WarmRefitState`
/// and returns `(warm_mse, cold_mse, target_variance)` over the final
/// absorbed rows, with the cold reference fit on exactly the same data.
fn warm_vs_cold_mse(job: &JobTrace, warm_cfg: WarmRefitConfig) -> (f64, f64, f64) {
    let gbt = NurdConfig::default().gbt;
    let policy = RefitPolicy::Warm(warm_cfg);
    let mut state = WarmRefitState::new();
    for k in 0..job.checkpoint_count() {
        let ckpt = job.checkpoint_at(k);
        if ckpt.finished.len() < 2 {
            continue;
        }
        state.absorb(&ckpt);
        state.refit(&gbt, &policy).unwrap();
    }
    let warm_model = state.model().expect("job yields fits");
    let cold = GradientBoosting::fit_view(
        state.features().view(),
        state.latencies(),
        SquaredLoss,
        &gbt,
    )
    .unwrap();
    let y = state.latencies();
    let mse =
        |p: &[f64]| p.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum::<f64>() / y.len() as f64;
    (
        mse(&warm_model.predict_view(state.features().view())),
        mse(&cold.predict_view(state.features().view())),
        nurd_linalg::variance(y).max(1e-9),
    )
}

/// The standing ablation regression (ROADMAP: registry/bench coverage for
/// warm policies): across the `warm_rounds` × `drift_tolerance` grid the
/// warm-vs-cold bench sweeps informally, warm MSE must stay within a
/// fixed tolerance of cold on every cell — including the extremes (few
/// rounds + never-rebin, many rounds + hair-trigger rebin). A regression
/// in the drift fallback, the score cache, or the warm boosting path
/// shows up here as one cell drifting.
#[test]
fn warm_ablation_grid_stays_within_cold_tolerance() {
    let jobs = [job_from_seed(0xAB1), job_from_seed(0xAB2)];
    for &warm_rounds in &[8usize, 24, 48] {
        for &drift_tolerance in &[0.05f64, 0.12, 1.0] {
            // Per-cell accuracy envelope. Cells with a live drift guard
            // carry the bench's headline ±-few-percent claim (wider at 8
            // rounds, where hair-trigger rebins keep resetting the
            // surviving ensemble). Disabling rebinning outright
            // (tolerance 1.0) is the sweep's documented worst case: every
            // fit routes through quantile edges frozen at the tiny warmup
            // distribution, a real accuracy cliff the drift statistic
            // exists to prevent — those cells only guard against
            // *catastrophic* regression. The grid as a whole pins each
            // cell to its historical envelope.
            let slack = if drift_tolerance >= 1.0 {
                0.45
            } else if warm_rounds == 8 {
                0.12
            } else {
                0.05
            };
            for job in &jobs {
                let (mw, mc, var) = warm_vs_cold_mse(
                    job,
                    WarmRefitConfig {
                        warm_rounds,
                        drift_tolerance,
                    },
                );
                assert!(
                    mw <= mc + slack * var,
                    "warm mse {mw} strayed from cold {mc} (var {var}) at \
                     warm_rounds={warm_rounds} drift_tolerance={drift_tolerance}"
                );
            }
        }
    }
}

/// More warm rounds per refit may not *hurt* final-fit accuracy: the
/// 48-round cells must be at least as good as the 8-round cells up to a
/// small slack (they see the same data; extra rounds only reduce
/// residuals). Pins the ablation's expected direction, not just a bound.
#[test]
fn warm_ablation_more_rounds_never_worse() {
    let job = job_from_seed(0xAB3);
    let at = |warm_rounds| {
        warm_vs_cold_mse(
            &job,
            WarmRefitConfig {
                warm_rounds,
                drift_tolerance: 1.0, // isolate the rounds axis
            },
        )
    };
    let (mse_few, _, var) = at(8);
    let (mse_many, _, _) = at(48);
    assert!(
        mse_many <= mse_few + 0.01 * var,
        "48 warm rounds ({mse_many}) worse than 8 ({mse_few}), var {var}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `AlwaysCold` ≡ legacy across randomized jobs: every scored
    /// quantity is bit-identical to the independently coded reference
    /// pipeline — the warm-start machinery must be invisible to the
    /// paper-protocol configuration.
    #[test]
    fn prop_always_cold_equals_legacy(seed in 0u64..1000) {
        assert_always_cold_matches_legacy(seed);
    }

    /// Warm-started refits track cold refits on drifting data: replaying
    /// a job's growing finished set through a warm `WarmRefitState` must
    /// end within a few percent (of target variance) of a cold fit on the
    /// same final data.
    #[test]
    fn prop_warm_refit_mse_tracks_cold_on_drifting_data(seed in 0u64..1000) {
        let job = job_from_seed(seed);
        let gbt = NurdConfig::default().gbt;
        let policy = RefitPolicy::Warm(WarmRefitConfig::default());
        let mut state = WarmRefitState::new();
        for k in 0..job.checkpoint_count() {
            let ckpt = job.checkpoint_at(k);
            if ckpt.finished.len() < 2 {
                continue;
            }
            state.absorb(&ckpt);
            state.refit(&gbt, &policy).unwrap();
        }
        let warm_model = state.model().expect("job yields fits");
        prop_assert!(state.stats().warm_fits > 0, "{:?}", state.stats());

        // Cold reference on exactly the same final rows.
        let cold = GradientBoosting::fit_view(
            state.features().view(),
            state.latencies(),
            SquaredLoss,
            &gbt,
        )
        .unwrap();
        let y = state.latencies();
        let preds_warm = warm_model.predict_view(state.features().view());
        let preds_cold = cold.predict_view(state.features().view());
        let mse = |p: &[f64]| {
            p.iter()
                .zip(y)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                / y.len() as f64
        };
        let (mw, mc) = (mse(&preds_warm), mse(&preds_cold));
        let var = nurd_linalg::variance(y).max(1e-9);
        prop_assert!(
            mw <= mc + 0.05 * var,
            "warm mse {mw} strayed from cold {mc} (var {var})"
        );
    }
}
