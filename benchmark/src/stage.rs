//! The `ml` layer's instrument: a single-threaded *stage replay*.
//!
//! `NurdPredictor::score_running` is one opaque call from outside, so its
//! stages are timed by making the same public `nurd-ml` / `nurd-core`
//! calls in the same order on the same checkpoints. [`StagedNurd`] is
//! that sequence as an `OnlinePredictor`; driven by `replay_job` it must
//! reproduce the reference outcomes bit for bit, which is how the harness
//! knows the stages it timed are the stages the engine ran.

use std::time::Instant;

use nurd_core::{
    adjusted_latency, calibration_delta, centroid_ratio, weight, NurdConfig, WarmRefitState,
};
use nurd_data::{Checkpoint, OnlinePredictor, StreamContext};
use nurd_linalg::{FeatureMatrix, MatrixView};
use nurd_ml::{FlatForest, LogisticRegression};

/// Seconds per stage and exact work counts, summed over a replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageTimes {
    pub absorb_s: f64,
    pub gbt_cold_fit_s: f64,
    pub gbt_warm_fit_s: f64,
    pub logistic_fit_s: f64,
    pub flatten_s: f64,
    pub score_latency_s: f64,
    pub score_propensity_s: f64,
    pub rows_fit: u64,
    pub rows_scored: u64,
    pub tree_row_visits: u64,
}

impl StageTimes {
    pub fn add(&mut self, other: &StageTimes) {
        self.absorb_s += other.absorb_s;
        self.gbt_cold_fit_s += other.gbt_cold_fit_s;
        self.gbt_warm_fit_s += other.gbt_warm_fit_s;
        self.logistic_fit_s += other.logistic_fit_s;
        self.flatten_s += other.flatten_s;
        self.score_latency_s += other.score_latency_s;
        self.score_propensity_s += other.score_propensity_s;
        self.rows_fit += other.rows_fit;
        self.rows_scored += other.rows_scored;
        self.tree_row_visits += other.tree_row_visits;
    }

    pub fn sum_s(&self) -> f64 {
        self.absorb_s
            + self.gbt_cold_fit_s
            + self.gbt_warm_fit_s
            + self.logistic_fit_s
            + self.flatten_s
            + self.score_latency_s
            + self.score_propensity_s
    }
}

pub struct StagedNurd {
    config: NurdConfig,
    threshold: f64,
    delta: Option<f64>,
    propensity: Option<LogisticRegression>,
    warm: WarmRefitState,
    x_all: FeatureMatrix,
    labels: Vec<f64>,
    raw: Vec<f64>,
    prop: Vec<f64>,
    /// What the replay so far spent in each stage.
    pub times: StageTimes,
}

impl StagedNurd {
    /// `config` must carry a warm refit policy and flat scoring — the
    /// configuration every NURD workload serves with.
    pub fn new(config: NurdConfig) -> Self {
        StagedNurd {
            config,
            threshold: f64::INFINITY,
            delta: None,
            propensity: None,
            warm: WarmRefitState::new(),
            x_all: FeatureMatrix::new(),
            labels: Vec::new(),
            raw: Vec::new(),
            prop: Vec::new(),
            times: StageTimes::default(),
        }
    }
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed().as_secs_f64();
    out
}

impl OnlinePredictor for StagedNurd {
    fn name(&self) -> &str {
        "NURD-STAGED"
    }

    fn begin_stream(&mut self, ctx: &StreamContext) {
        self.threshold = ctx.threshold;
        self.delta = None;
        self.propensity = None;
        self.warm.reset();
    }

    fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
        if checkpoint.finished.len() < 2 || checkpoint.running.is_empty() {
            return Vec::new();
        }
        let x_fin = checkpoint.finished_feature_rows();
        let x_run = checkpoint.running_feature_rows();
        if self.delta.is_none() && self.config.calibrate {
            let rho = centroid_ratio(
                &checkpoint.finished_features(),
                &checkpoint.running_features(),
            );
            self.delta = Some(calibration_delta(rho, self.config.alpha));
        }
        let mut t = self.times;

        timed(&mut t.absorb_s, || self.warm.absorb(checkpoint));
        let before = self.warm.stats();
        let start = Instant::now();
        let fit = self.warm.refit(&self.config.gbt, &self.config.refit_policy);
        let fit_s = start.elapsed().as_secs_f64();
        let after = self.warm.stats();
        if after.cold_fits > before.cold_fits {
            t.gbt_cold_fit_s += fit_s;
            t.rows_fit += self.warm.rows() as u64;
        } else {
            t.gbt_warm_fit_s += fit_s;
            if after.warm_fits > before.warm_fits {
                t.rows_fit += self.warm.rows() as u64;
            }
        }
        if fit.is_err() {
            self.times = t;
            return Vec::new();
        }

        let fitted = timed(&mut t.logistic_fit_s, || {
            let all_rows: Vec<&[f64]> = x_fin.iter().chain(x_run.iter()).copied().collect();
            self.x_all.fill_from_rows(all_rows.iter().copied());
            self.labels.clear();
            self.labels.extend(std::iter::repeat_n(1.0, x_fin.len()));
            self.labels.extend(std::iter::repeat_n(0.0, x_run.len()));
            LogisticRegression::fit_view_warm(
                self.x_all.view(),
                &self.labels,
                &self.config.logistic,
                self.propensity.as_ref(),
            )
        });
        match fitted {
            Ok(model) => self.propensity = Some(model),
            Err(_) => {
                self.times = t;
                return Vec::new();
            }
        }

        let model = self.warm.model().expect("refit succeeded");
        let lanes = self.config.scoring_lanes;
        let flat: FlatForest = timed(&mut t.flatten_s, || model.flatten().with_lanes(lanes));
        timed(&mut t.score_latency_s, || {
            flat.predict_view_into(MatrixView::RowSlices(&x_run), &mut self.raw);
        });
        let g = self.propensity.as_ref().expect("just fitted");
        timed(&mut t.score_propensity_s, || {
            g.predict_proba_view_into(MatrixView::RowSlices(&x_run), &mut self.prop);
        });
        t.rows_scored += x_run.len() as u64;
        t.tree_row_visits += (flat.tree_count() * x_run.len()) as u64;
        self.times = t;

        let threshold = self.threshold;
        checkpoint
            .running
            .iter()
            .zip(self.raw.iter().zip(&self.prop))
            .filter(|(_, (&raw, &z))| {
                let w = match self.delta {
                    Some(delta) => weight(z, delta, self.config.epsilon),
                    None => z.max(1e-9),
                };
                adjusted_latency(raw, w) >= threshold
            })
            .map(|(task, _)| task.id)
            .collect()
    }
}
