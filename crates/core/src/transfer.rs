//! Cross-job transfer learning — the paper's stated future work (§8:
//! "there is a possibility to apply transfer learning to incorporate
//! knowledge from other jobs to improve predictions").
//!
//! The mechanism is residual boosting: a *donor* model is trained offline
//! on a completed job's (features, relative latency) pairs; on the target
//! job, [`crate::NurdPredictor::with_prior`] serves it as a frozen prior
//! and its latency head learns only the **residual** between the
//! scale-adjusted donor prediction and the observed latencies. Early in a
//! job — when NURD's own head has almost no training data — the donor
//! carries most of the signal; as finished tasks accumulate, the residual
//! model takes over. Everything else (propensity, calibration, weighting)
//! is unchanged NURD.

use nurd_data::JobTrace;
use nurd_linalg::MatrixView;
use nurd_ml::{GradientBoosting, MlError, SquaredLoss};

use crate::NurdConfig;

/// A latency model distilled from one or more completed jobs, in
/// scale-free (relative-latency) form.
///
/// Donor targets are `latency / median(latency)` so the knowledge moves
/// across jobs whose absolute time scales differ by an order of magnitude;
/// the target-side predictor multiplies back by its own median.
#[derive(Debug, Clone)]
pub struct DonorModel {
    model: GradientBoosting<SquaredLoss>,
    /// Width of the donor job's feature rows: the prior applies only to
    /// rows as wide.
    feature_dim: usize,
}

impl DonorModel {
    /// Distills a completed job into a transferable latency model, trained
    /// on final feature snapshots against relative latency.
    ///
    /// # Errors
    ///
    /// Configuration errors from `config.gbt` (a job always has tasks:
    /// `JobTrace::new` rejects an empty one).
    pub fn from_job(job: &JobTrace, config: &NurdConfig) -> Result<Self, MlError> {
        let last = job.checkpoint_count() - 1;
        let x: Vec<Vec<f64>> = job
            .tasks()
            .iter()
            .map(|t| t.snapshot(last).to_vec())
            .collect();
        let mut latencies = job.latencies();
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let median = latencies[latencies.len() / 2].max(1e-9);
        let y: Vec<f64> = job.tasks().iter().map(|t| t.latency() / median).collect();
        let model = GradientBoosting::fit(&x, &y, SquaredLoss, &config.gbt)?;
        Ok(DonorModel {
            model,
            feature_dim: job.feature_dim(),
        })
    }

    /// Width of the rows the donor was trained on.
    pub(crate) fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Relative-latency predictions (multiples of the donor job's median)
    /// of every row of `xs`, through the flat batch kernel.
    pub(crate) fn predict_into(&self, xs: MatrixView<'_>, out: &mut Vec<f64>) {
        self.model.forest().predict_view_into(xs, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nurd_trace::{SuiteConfig, TraceStyle};

    #[test]
    fn donor_model_learns_relative_latency() {
        let cfg = SuiteConfig::new(TraceStyle::Google)
            .with_jobs(1)
            .with_task_range(100, 150)
            .with_checkpoints(14)
            .with_seed(1);
        let job = &nurd_trace::generate_suite(&cfg)[0];
        let donor = DonorModel::from_job(job, &NurdConfig::default()).unwrap();
        assert_eq!(donor.feature_dim(), job.feature_dim());
        // The donor's relative predictions should correlate with truth:
        // slowest task predicted above the fastest.
        let last = job.checkpoint_count() - 1;
        let mut order: Vec<usize> = (0..job.task_count()).collect();
        order.sort_by(|&a, &b| {
            job.tasks()[a]
                .latency()
                .total_cmp(&job.tasks()[b].latency())
        });
        let rows = [order[0], order[order.len() - 1]].map(|i| job.tasks()[i].snapshot(last));
        let mut rel = Vec::new();
        donor.predict_into(MatrixView::RowSlices(&rows), &mut rel);
        assert!(rel[1] > rel[0], "slowest {} vs fastest {}", rel[1], rel[0]);
    }
}
