//! Integration tests for the mitigation schedulers (Algorithms 2 and 3):
//! capacity, monotonicity and accounting properties under real predictions.

use nurd::core::{NurdConfig, NurdPredictor};
use nurd::data::{Checkpoint, OnlinePredictor, StreamContext};
use nurd::sim::{replay_job, simulate_jct, ReplayConfig, ReplayOutcome, SchedulerConfig};
use nurd::trace::{SuiteConfig, TraceStyle};

fn job_and_outcome(seed: u64) -> (nurd::data::JobTrace, ReplayOutcome) {
    let cfg = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(1)
        .with_task_range(120, 160)
        .with_checkpoints(15)
        .with_seed(seed);
    let job = nurd::trace::generate_job(&cfg, 0);
    let mut p = NurdPredictor::new(NurdConfig::default());
    let outcome = replay_job(&job, &mut p, &ReplayConfig::default());
    (job, outcome)
}

/// An oracle that flags every true straggler at the first prediction
/// checkpoint — the best possible mitigation input. It is handed the job's
/// latencies when it is built.
struct Oracle {
    threshold: f64,
    latencies: Vec<f64>,
}
impl OnlinePredictor for Oracle {
    fn name(&self) -> &str {
        "ORACLE"
    }
    fn begin_stream(&mut self, ctx: &StreamContext) {
        self.threshold = ctx.threshold;
    }
    fn predict(&mut self, c: &Checkpoint<'_>) -> Vec<usize> {
        c.running
            .iter()
            .map(|r| r.id)
            .filter(|&id| self.latencies[id] >= self.threshold)
            .collect()
    }
}

#[test]
fn more_machines_never_hurt_the_baseline() {
    let (job, outcome) = job_and_outcome(1);
    let mut prev = f64::INFINITY;
    for machines in [10usize, 40, 80, 160, 400] {
        let jct = simulate_jct(
            &job,
            &outcome,
            &SchedulerConfig {
                machines: Some(machines),
                ..SchedulerConfig::default()
            },
        );
        assert!(
            jct.baseline <= prev + 1e-9,
            "baseline worsened going to {machines} machines"
        );
        prev = jct.baseline;
    }
}

#[test]
fn unlimited_equals_large_pool() {
    let (job, outcome) = job_and_outcome(2);
    let unlimited = simulate_jct(&job, &outcome, &SchedulerConfig::default());
    let large = simulate_jct(
        &job,
        &outcome,
        &SchedulerConfig {
            machines: Some(job.task_count() * 4),
            ..SchedulerConfig::default()
        },
    );
    assert!((unlimited.baseline - large.baseline).abs() < 1e-9);
    assert!((unlimited.mitigated - large.mitigated).abs() < 1e-9);
}

#[test]
fn oracle_flags_give_positive_reduction_on_long_tailed_jobs() {
    let cfg = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(4)
        .with_task_range(120, 160)
        .with_checkpoints(15)
        .with_long_tail_fraction(1.0)
        .with_seed(3);
    let mut total = 0.0;
    for job in nurd::trace::generate_suite(&cfg) {
        let mut oracle = Oracle {
            threshold: 0.0,
            latencies: job.latencies(),
        };
        let outcome = replay_job(&job, &mut oracle, &ReplayConfig::default());
        let jct = simulate_jct(&job, &outcome, &SchedulerConfig::default());
        total += jct.reduction_percent();
    }
    assert!(
        total / 4.0 > 20.0,
        "oracle mitigation on long-tailed jobs should save >20%, got {:.1}%",
        total / 4.0
    );
}

#[test]
fn single_machine_serializes_everything() {
    let (job, outcome) = job_and_outcome(4);
    let jct = simulate_jct(
        &job,
        &outcome,
        &SchedulerConfig {
            machines: Some(1),
            ..SchedulerConfig::default()
        },
    );
    let sum: f64 = job.latencies().iter().sum();
    assert!((jct.baseline - sum).abs() < 1e-6);
    // Mitigation on one machine: killed work is partially redone, so the
    // makespan stays within [fastest possible, baseline + relaunch work].
    assert!(jct.mitigated > 0.0 && jct.mitigated.is_finite());
}

#[test]
fn reduction_is_reported_against_matching_baseline() {
    let (job, outcome) = job_and_outcome(5);
    for machines in [None, Some(50), Some(200)] {
        let jct = simulate_jct(
            &job,
            &outcome,
            &SchedulerConfig {
                machines,
                ..SchedulerConfig::default()
            },
        );
        let expected = 100.0 * (jct.baseline - jct.mitigated) / jct.baseline;
        assert!((jct.reduction_percent() - expected).abs() < 1e-9);
    }
}

#[test]
fn scheduler_is_deterministic_per_seed_and_varies_across_seeds() {
    let (job, outcome) = job_and_outcome(6);
    let a = simulate_jct(&job, &outcome, &SchedulerConfig::default());
    let b = simulate_jct(&job, &outcome, &SchedulerConfig::default());
    assert_eq!(a, b);
    let c = simulate_jct(
        &job,
        &outcome,
        &SchedulerConfig {
            seed: 999,
            ..SchedulerConfig::default()
        },
    );
    // Different resampling seed may change the mitigated time (not the
    // baseline).
    assert_eq!(a.baseline, c.baseline);
}
