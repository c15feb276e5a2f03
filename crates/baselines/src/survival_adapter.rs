//! Censored/survival regression adapters.

use nurd_data::{Checkpoint, OnlinePredictor, StreamContext};
use nurd_survival::{CoxConfig, CoxPh, Grabit, GrabitConfig, Tobit, TobitConfig};

/// Builds the censored training triples at a checkpoint: finished tasks are
/// observed at their latency, running tasks are censored at the checkpoint
/// time.
fn censored_triples(checkpoint: &Checkpoint<'_>) -> (Vec<Vec<f64>>, Vec<f64>, Vec<bool>) {
    let mut x = checkpoint.finished_features();
    let mut time = checkpoint.finished_latencies();
    let mut observed = vec![true; x.len()];
    for task in &checkpoint.running {
        x.push(task.features.to_vec());
        time.push(checkpoint.time);
        observed.push(false);
    }
    (x, time, observed)
}

/// Tobit online: linear censored-Gaussian regression refit per checkpoint;
/// flags a running task when the predicted latent latency crosses `τ_stra`.
#[derive(Debug, Clone)]
pub(crate) struct TobitPredictor {
    config: TobitConfig,
    threshold: f64,
}

impl Default for TobitPredictor {
    fn default() -> Self {
        TobitPredictor {
            config: TobitConfig::default(),
            threshold: f64::INFINITY,
        }
    }
}

impl OnlinePredictor for TobitPredictor {
    fn name(&self) -> &str {
        "Tobit"
    }

    fn begin_stream(&mut self, ctx: &StreamContext) {
        self.threshold = ctx.threshold;
    }

    fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
        if checkpoint.finished.len() < 2 || checkpoint.running.is_empty() {
            return Vec::new();
        }
        let (x, time, observed) = censored_triples(checkpoint);
        let Ok(model) = Tobit::fit(&x, &time, &observed, &self.config) else {
            return Vec::new();
        };
        checkpoint
            .running
            .iter()
            .filter(|t| model.predict(t.features) >= self.threshold)
            .map(|t| t.id)
            .collect()
    }
}

/// Grabit online: boosted Tobit, the paper's strongest baseline on Google
/// traces.
///
/// σ is a KTBoost *hyperparameter*: per the paper's protocol (§6) it is
/// tuned once on a handful of jobs and applied to every job unchanged.
/// That single pre-specified scale is exactly the distributional
/// assumption §3.4 criticizes — it cannot match every job's latency
/// spread, which is what separates Grabit from NURD in Table 3.
#[derive(Debug, Clone)]
pub(crate) struct GrabitPredictor {
    config: GrabitConfig,
    threshold: f64,
}

impl GrabitPredictor {
    /// The globally tuned σ (seconds), found by sweeping on the six
    /// hyperparameter-tuning jobs as the paper does for every method.
    const TUNED_SIGMA: f64 = 60.0;
}

impl Default for GrabitPredictor {
    fn default() -> Self {
        GrabitPredictor {
            config: GrabitConfig {
                sigma: Some(Self::TUNED_SIGMA),
                ..GrabitConfig::default()
            },
            threshold: f64::INFINITY,
        }
    }
}

impl OnlinePredictor for GrabitPredictor {
    fn name(&self) -> &str {
        "Grabit"
    }

    fn begin_stream(&mut self, ctx: &StreamContext) {
        self.threshold = ctx.threshold;
    }

    fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
        if checkpoint.finished.len() < 2 || checkpoint.running.is_empty() {
            return Vec::new();
        }
        let (x, time, observed) = censored_triples(checkpoint);
        let Ok(model) = Grabit::fit(&x, &time, &observed, &self.config) else {
            return Vec::new();
        };
        checkpoint
            .running
            .iter()
            .filter(|t| model.predict(t.features) >= self.threshold)
            .map(|t| t.id)
            .collect()
    }
}

/// CoxPH online: proportional hazards of *completion*; a running task
/// predicted to survive (stay running) past `τ_stra` with probability
/// ≥ 0.5 is flagged.
#[derive(Debug, Clone)]
pub(crate) struct CoxPredictor {
    config: CoxConfig,
    threshold: f64,
}

impl Default for CoxPredictor {
    fn default() -> Self {
        CoxPredictor {
            config: CoxConfig::default(),
            threshold: f64::INFINITY,
        }
    }
}

impl OnlinePredictor for CoxPredictor {
    fn name(&self) -> &str {
        "CoxPH"
    }

    fn begin_stream(&mut self, ctx: &StreamContext) {
        self.threshold = ctx.threshold;
    }

    fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
        if checkpoint.finished.len() < 2 || checkpoint.running.is_empty() {
            return Vec::new();
        }
        let (x, time, observed) = censored_triples(checkpoint);
        let Ok(model) = CoxPh::fit(&x, &time, &observed, &self.config) else {
            return Vec::new();
        };
        checkpoint
            .running
            .iter()
            .filter(|t| model.survival_at(t.features, self.threshold) >= 0.5)
            .map(|t| t.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nurd_sim::{replay_job, ReplayConfig};
    use nurd_trace::{SuiteConfig, TraceStyle};

    fn job(seed: u64) -> nurd_data::JobTrace {
        let cfg = SuiteConfig::new(TraceStyle::Google)
            .with_jobs(1)
            .with_task_range(100, 130)
            .with_checkpoints(12)
            .with_seed(seed);
        nurd_trace::generate_job(&cfg, 0)
    }

    #[test]
    fn all_three_run_the_protocol() {
        let job = job(13);
        for p in [
            &mut TobitPredictor::default() as &mut dyn OnlinePredictor,
            &mut GrabitPredictor::default(),
            &mut CoxPredictor::default(),
        ] {
            let out = replay_job(&job, p, &ReplayConfig::default());
            assert_eq!(out.confusion.total(), job.task_count(), "{}", p.name());
        }
    }

    #[test]
    fn grabit_is_competitive_with_tobit_on_f1() {
        // Averaged over a few jobs, the boosted version stays in the same
        // F1 neighborhood as the linear one (Table 3 has Grabit ahead on
        // the full suites; tiny samples carry variance, so the bound here
        // is loose).
        let mut tobit_f1 = 0.0;
        let mut grabit_f1 = 0.0;
        for seed in [1, 2, 3, 4, 5, 6] {
            let job = job(seed);
            let t = replay_job(
                &job,
                &mut TobitPredictor::default(),
                &ReplayConfig::default(),
            );
            let g = replay_job(
                &job,
                &mut GrabitPredictor::default(),
                &ReplayConfig::default(),
            );
            tobit_f1 += t.confusion.f1();
            grabit_f1 += g.confusion.f1();
        }
        // Guard against wholesale breakage rather than asserting a strict
        // ordering: the fixed global σ penalizes Grabit on the fast, small
        // jobs this fixture generates (see DESIGN.md protocol notes), while
        // the full Table 3 suites have Grabit ahead of Tobit.
        assert!(
            grabit_f1 > 0.5 && grabit_f1 >= 0.3 * tobit_f1,
            "grabit {grabit_f1} vs tobit {tobit_f1}"
        );
    }

    #[test]
    fn censored_triples_shapes() {
        let job = job(9);
        let k = 6;
        let time = job.checkpoint_times()[k];
        let mut finished = Vec::new();
        let mut running = Vec::new();
        for task in job.tasks() {
            if task.latency() <= time {
                finished.push(nurd_data::FinishedTask {
                    id: task.id(),
                    features: task.snapshot(k),
                    latency: task.latency(),
                });
            } else {
                running.push(nurd_data::RunningTask {
                    id: task.id(),
                    features: task.snapshot(k),
                });
            }
        }
        let ckpt = Checkpoint {
            ordinal: k,
            time,
            finished,
            running,
        };
        let (x, t, o) = censored_triples(&ckpt);
        assert_eq!(x.len(), job.task_count());
        assert_eq!(t.len(), o.len());
        let censored = o.iter().filter(|&&b| !b).count();
        assert_eq!(censored, ckpt.running.len());
        assert!(t
            .iter()
            .zip(&o)
            .all(|(&ti, &oi)| oi || (ti - time).abs() < 1e-12));
    }
}
