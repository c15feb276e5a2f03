//! End-to-end integration: NURD against the replay protocol on generated
//! traces, compared with an uncorrected supervised baseline.

use nurd::core::{NurdConfig, NurdPredictor};
use nurd::data::{Checkpoint, OnlinePredictor, StreamContext};
use nurd::ml::{GbtConfig, GradientBoosting, SquaredLoss};
use nurd::sim::{replay_job, MethodSummary, ReplayConfig};
use nurd::trace::{SuiteConfig, TraceStyle};

/// Plain supervised gradient boosting on finished tasks with no
/// reweighting — the paper's GBTR baseline, inlined for this test.
struct PlainGbtr {
    threshold: f64,
}

impl OnlinePredictor for PlainGbtr {
    fn name(&self) -> &str {
        "GBTR"
    }
    fn begin_stream(&mut self, ctx: &StreamContext) {
        self.threshold = ctx.threshold;
    }
    fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
        if checkpoint.finished.len() < 2 || checkpoint.running.is_empty() {
            return Vec::new();
        }
        let x = checkpoint.finished_features();
        let y = checkpoint.finished_latencies();
        let Ok(model) = GradientBoosting::fit(&x, &y, SquaredLoss, &GbtConfig::default()) else {
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

fn suite(style: TraceStyle, jobs: usize) -> Vec<nurd::data::JobTrace> {
    let cfg = SuiteConfig::new(style)
        .with_jobs(jobs)
        .with_task_range(100, 160)
        .with_checkpoints(20)
        .with_seed(0xE2E);
    nurd::trace::generate_suite(&cfg)
}

fn evaluate(
    jobs: &[nurd::data::JobTrace],
    make: impl Fn() -> Box<dyn OnlinePredictor>,
) -> MethodSummary {
    let confusions: Vec<_> = jobs
        .iter()
        .map(|job| {
            let mut p = make();
            replay_job(job, p.as_mut(), &ReplayConfig::default()).confusion
        })
        .collect();
    MethodSummary::from_confusions(&confusions)
}

#[test]
fn nurd_beats_plain_gbtr_on_google_style_traces() {
    let jobs = suite(TraceStyle::Google, 8);
    let nurd = evaluate(&jobs, || {
        Box::new(NurdPredictor::new(NurdConfig::default()))
    });
    let gbtr = evaluate(&jobs, || Box::new(PlainGbtr { threshold: 0.0 }));
    // The paper's headline: GBTR underpredicts (low TPR) because it trains
    // only on non-stragglers; NURD's reweighting recovers the stragglers.
    assert!(
        nurd.f1 > gbtr.f1,
        "NURD F1 {:.3} must beat GBTR F1 {:.3}",
        nurd.f1,
        gbtr.f1
    );
    assert!(
        nurd.tpr > gbtr.tpr,
        "NURD TPR {:.3} must beat GBTR TPR {:.3}",
        nurd.tpr,
        gbtr.tpr
    );
    assert!(nurd.f1 > 0.4, "NURD F1 {:.3} unexpectedly low", nurd.f1);
}

#[test]
fn nurd_has_usable_f1_on_alibaba_style_traces() {
    let jobs = suite(TraceStyle::Alibaba, 8);
    let nurd = evaluate(&jobs, || {
        Box::new(NurdPredictor::new(NurdConfig::default()))
    });
    // Alibaba's 4 weak features compress everyone's F1 (paper: 0.59).
    assert!(
        nurd.f1 > 0.25,
        "NURD F1 {:.3} too low even for weak features",
        nurd.f1
    );
}

#[test]
fn calibration_reduces_false_positives_vs_nc() {
    let jobs = suite(TraceStyle::Google, 8);
    let nurd = evaluate(&jobs, || {
        Box::new(NurdPredictor::new(NurdConfig::default()))
    });
    let nc = evaluate(&jobs, || {
        Box::new(NurdPredictor::new(NurdConfig::without_calibration()))
    });
    // Table 3: NURD-NC has high TPR but much higher FPR; calibration is
    // what keeps precision usable.
    assert!(
        nurd.fpr < nc.fpr,
        "calibrated FPR {:.3} must undercut NC FPR {:.3}",
        nurd.fpr,
        nc.fpr
    );
    assert!(
        nurd.f1 > nc.f1,
        "calibrated F1 {:.3} must beat NC F1 {:.3}",
        nurd.f1,
        nc.f1
    );
}
