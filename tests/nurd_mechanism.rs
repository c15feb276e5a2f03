//! Integration tests for NURD's mechanism on generated traces: the claims
//! of Algorithm 1, checked end to end rather than on fixtures.

use nurd::core::{calibration_delta, centroid_ratio, NurdConfig, NurdPredictor};
use nurd::data::{Checkpoint, FinishedTask, OnlinePredictor, RunningTask, StreamContext};
use nurd::sim::{replay_job, ReplayConfig};
use nurd::trace::{SuiteConfig, TraceStyle};

fn checkpoint_views(job: &nurd::data::JobTrace, k: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let t = job.checkpoint_times()[k];
    let mut fin = Vec::new();
    let mut run = Vec::new();
    for task in job.tasks() {
        if task.latency() <= t {
            fin.push(task.snapshot(k).to_vec());
        } else {
            run.push(task.snapshot(k).to_vec());
        }
    }
    (fin, run)
}

#[test]
fn rho_and_delta_are_sane_across_both_families() {
    // ρ must be positive and finite at warmup on every healthy job, and the
    // resulting δ must stay inside Equation 3's range. (The *directional*
    // family claim — long-tailed jobs drawing systematically larger δ — is
    // weak on this substrate and is reported, not asserted; see
    // `repro ablation_calibration`.)
    for frac in [1.0, 0.0] {
        let cfg = SuiteConfig::new(TraceStyle::Google)
            .with_jobs(8)
            .with_task_range(150, 250)
            .with_checkpoints(16)
            .with_long_tail_fraction(frac)
            .with_seed(0x5EED);
        for job in nurd::trace::generate_suite(&cfg) {
            let k = job.warmup_checkpoint(0.04);
            let (fin, run) = checkpoint_views(&job, k);
            if fin.is_empty() || run.is_empty() {
                continue;
            }
            let rho = centroid_ratio(&fin, &run);
            assert!(rho > 0.0, "rho must be positive");
            let alpha = 0.2;
            let delta = calibration_delta(rho, alpha);
            assert!(delta > -alpha && delta <= 1.0 - alpha, "delta {delta}");
        }
    }
}

#[test]
fn weights_stay_in_epsilon_one_on_real_checkpoints() {
    let cfg = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(2)
        .with_task_range(120, 160)
        .with_checkpoints(12)
        .with_seed(0x111);
    for job in nurd::trace::generate_suite(&cfg) {
        let mut nurd = NurdPredictor::new(NurdConfig::default());
        nurd.begin_stream(&StreamContext {
            threshold: job.straggler_threshold(0.9),
            task_count: job.task_count(),
            feature_dim: job.feature_dim(),
        });
        for k in job.warmup_checkpoint(0.04)..job.checkpoint_count() {
            let t = job.checkpoint_times()[k];
            let mut fin = Vec::new();
            let mut run = Vec::new();
            for task in job.tasks() {
                if task.latency() <= t {
                    fin.push(FinishedTask {
                        id: task.id(),
                        features: task.snapshot(k),
                        latency: task.latency(),
                    });
                } else {
                    run.push(RunningTask {
                        id: task.id(),
                        features: task.snapshot(k),
                    });
                }
            }
            let ckpt = Checkpoint {
                ordinal: k,
                time: t,
                finished: fin,
                running: run,
            };
            for s in nurd.score_running(&ckpt) {
                assert!(s.weight >= 0.05 - 1e-12 && s.weight <= 1.0 + 1e-12);
                assert!(s.adjusted >= s.raw - 1e-9, "adjustment must not shrink");
                assert!(s.propensity.is_finite() && s.raw.is_finite());
            }
        }
    }
}

#[test]
fn nurd_beats_its_own_ablation_on_mixed_suites() {
    let cfg = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(8)
        .with_task_range(100, 180)
        .with_checkpoints(16)
        .with_seed(0x222);
    let jobs = nurd::trace::generate_suite(&cfg);
    let eval = |config: NurdConfig| -> f64 {
        jobs.iter()
            .map(|job| {
                let mut p = NurdPredictor::new(config.clone());
                replay_job(job, &mut p, &ReplayConfig::default())
                    .confusion
                    .f1()
            })
            .sum::<f64>()
            / jobs.len() as f64
    };
    let full = eval(NurdConfig::default());
    let nc = eval(NurdConfig::without_calibration());
    assert!(
        full > nc,
        "calibrated NURD {full:.3} must beat NURD-NC {nc:.3}"
    );
}

#[test]
fn stale_models_lose_to_online_updates() {
    // §4.3: refitting at every checkpoint should beat never refitting.
    let cfg = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(8)
        .with_task_range(100, 180)
        .with_checkpoints(16)
        .with_seed(0x333);
    let jobs = nurd::trace::generate_suite(&cfg);
    let eval = |refit_every: usize| -> f64 {
        jobs.iter()
            .map(|job| {
                let mut p = NurdPredictor::new(NurdConfig {
                    refit_every,
                    ..NurdConfig::default()
                });
                replay_job(job, &mut p, &ReplayConfig::default())
                    .confusion
                    .f1()
            })
            .sum::<f64>()
            / jobs.len() as f64
    };
    let online = eval(1);
    let frozen = eval(10_000);
    assert!(
        online >= frozen - 0.02,
        "online updates {online:.3} should not lose to frozen models {frozen:.3}"
    );
}

#[test]
fn fit_failures_are_rare_on_generated_traces() {
    let cfg = SuiteConfig::new(TraceStyle::Alibaba)
        .with_jobs(4)
        .with_task_range(100, 150)
        .with_checkpoints(16)
        .with_seed(0x444);
    for job in nurd::trace::generate_suite(&cfg) {
        let mut nurd = NurdPredictor::new(NurdConfig::default());
        let _ = replay_job(&job, &mut nurd, &ReplayConfig::default());
        assert_eq!(
            nurd.fit_failures(),
            0,
            "model fitting failed on a healthy trace"
        );
    }
}
