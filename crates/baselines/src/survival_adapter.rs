//! Censored/survival regression: the fit-and-flag bodies of Tobit (Tobin,
//! 1958), Grabit (Sigrist & Hirnschall, 2019) and CoxPH (Cox, 1972), the
//! baselines of the paper's §3.4 and §6, whose models live in `tobit`,
//! `grabit` and `cox`.
//!
//! The online straggler problem right-censors latency: a task still running
//! at checkpoint time `t` is only known to satisfy `y > t`. Tobit and
//! Grabit model the latent latency as Gaussian (in the paper's telling,
//! their weakness); CoxPH assumes proportional hazards. All three consume
//! `(features, observed-or-censoring-time, finished?)` triples.

use nurd_data::Checkpoint;

use crate::adapter::{running_where, FitAndFlag};
use crate::cox::{CoxConfig, CoxPh};
use crate::grabit::{Grabit, GrabitConfig};
use crate::tobit::{Tobit, TobitConfig};

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
impl FitAndFlag for TobitConfig {
    fn flag(&self, checkpoint: &Checkpoint<'_>, threshold: f64) -> Option<Vec<usize>> {
        let (x, time, observed) = censored_triples(checkpoint);
        let model = Tobit::fit(&x, &time, &observed, self).ok()?;
        Some(running_where(checkpoint, |f| model.predict(f) >= threshold))
    }
}

/// Grabit online: boosted Tobit, the paper's strongest baseline on Google
/// traces.
impl FitAndFlag for GrabitConfig {
    fn flag(&self, checkpoint: &Checkpoint<'_>, threshold: f64) -> Option<Vec<usize>> {
        let (x, time, observed) = censored_triples(checkpoint);
        let model = Grabit::fit(&x, &time, &observed, self).ok()?;
        Some(running_where(checkpoint, |f| model.predict(f) >= threshold))
    }
}

/// Grabit's configuration with σ at its globally tuned 60 s.
///
/// σ is a KTBoost *hyperparameter*: per the paper's protocol (§6) it is
/// tuned once on a handful of jobs — the six hyperparameter-tuning jobs,
/// swept as for every method — and applied to every job unchanged. That
/// single pre-specified scale is exactly the distributional assumption
/// §3.4 criticizes — it cannot match every job's latency spread, which is
/// what separates Grabit from NURD in Table 3.
pub(crate) fn tuned_grabit() -> GrabitConfig {
    GrabitConfig {
        sigma: Some(60.0),
        ..GrabitConfig::default()
    }
}

/// CoxPH online: proportional hazards of *completion*; a running task
/// predicted to survive (stay running) past `τ_stra` with probability
/// ≥ 0.5 is flagged.
impl FitAndFlag for CoxConfig {
    fn flag(&self, checkpoint: &Checkpoint<'_>, threshold: f64) -> Option<Vec<usize>> {
        let (x, time, observed) = censored_triples(checkpoint);
        let model = CoxPh::fit(&x, &time, &observed, self).ok()?;
        Some(running_where(checkpoint, |f| {
            model.survival_at(f, threshold) >= 0.5
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::Adapter;
    use nurd_data::OnlinePredictor;
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
            &mut Adapter::new("Tobit", TobitConfig::default()) as &mut dyn OnlinePredictor,
            &mut Adapter::new("Grabit", tuned_grabit()),
            &mut Adapter::new("CoxPH", CoxConfig::default()),
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
            let mut tobit = Adapter::new("Tobit", TobitConfig::default());
            let mut grabit = Adapter::new("Grabit", tuned_grabit());
            let t = replay_job(&job, &mut tobit, &ReplayConfig::default());
            let g = replay_job(&job, &mut grabit, &ReplayConfig::default());
            tobit_f1 += t.confusion.f1();
            grabit_f1 += g.confusion.f1();
        }
        // Guard against wholesale breakage rather than asserting a strict
        // ordering: the fixed global σ penalizes Grabit on the fast, small
        // jobs this fixture generates (see `ARCHITECTURE.md`, "The online replay loop"), while
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
