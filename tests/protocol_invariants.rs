//! Cross-crate integration tests: invariants of the evaluation protocol
//! that every method and every trace must satisfy.

use nurd::data::{Checkpoint, OnlinePredictor, StreamContext};
use nurd::sim::{execute_actions, replay_job, MitigationSimConfig, ReplayConfig};
use nurd::trace::{SuiteConfig, TraceStyle};

fn small_suite(style: TraceStyle, jobs: usize, seed: u64) -> Vec<nurd::data::JobTrace> {
    let cfg = SuiteConfig::new(style)
        .with_jobs(jobs)
        .with_task_range(60, 100)
        .with_checkpoints(12)
        .with_seed(seed);
    nurd::trace::generate_suite(&cfg)
}

/// Flags everything it sees — the adversarial upper bound on flagging.
struct FlagAll;
impl OnlinePredictor for FlagAll {
    fn name(&self) -> &str {
        "ALL"
    }
    fn predict(&mut self, c: &Checkpoint<'_>) -> Vec<usize> {
        c.running.iter().map(|r| r.id).collect()
    }
}

/// One job each of 1, 2, 3 and 4 tasks: a method's sample, fit or
/// quorum sized from the task count must degrade to predicting nothing,
/// not panic.
fn tiny_jobs(seed: u64) -> Vec<nurd::data::JobTrace> {
    (1..=4)
        .map(|tasks| {
            let cfg = SuiteConfig::new(TraceStyle::Google)
                .with_jobs(1)
                .with_task_range(tasks, tasks)
                .with_checkpoints(6)
                .with_seed(seed);
            nurd::trace::generate_job(&cfg, 0)
        })
        .collect()
}

#[test]
fn every_registry_method_satisfies_conservation() {
    let mut jobs = small_suite(TraceStyle::Google, 2, 0xC0);
    jobs.extend(tiny_jobs(0xC0));
    for spec in nurd::baselines::registry() {
        for job in &jobs {
            let mut p = spec.build(job);
            let out = replay_job(job, p.as_mut(), &ReplayConfig::default());
            assert_eq!(
                out.confusion.total(),
                job.task_count(),
                "{} violates task conservation",
                spec.name
            );
            // Flag ordinals are within range and after warmup.
            for flag in out.flagged_at.iter().flatten() {
                assert!(*flag < job.checkpoint_count(), "{}", spec.name);
                assert!(*flag >= out.warmup_checkpoint, "{}", spec.name);
            }
        }
    }
}

#[test]
fn every_registry_method_is_deterministic() {
    let jobs = small_suite(TraceStyle::Alibaba, 1, 0xC1);
    for spec in nurd::baselines::registry() {
        let mut a = spec.build(&jobs[0]);
        let mut b = spec.build(&jobs[0]);
        let out_a = replay_job(&jobs[0], a.as_mut(), &ReplayConfig::default());
        let out_b = replay_job(&jobs[0], b.as_mut(), &ReplayConfig::default());
        assert_eq!(
            out_a.flagged_at, out_b.flagged_at,
            "{} is nondeterministic",
            spec.name
        );
    }
}

#[test]
fn revelation_rule_blocks_post_threshold_flags() {
    // Even a flag-everything predictor cannot flag after τ: every flag's
    // checkpoint time must be strictly below the threshold.
    for job in small_suite(TraceStyle::Google, 3, 0xC2) {
        let out = replay_job(&job, &mut FlagAll, &ReplayConfig::default());
        for (task, flag) in out.flagged_at.iter().enumerate() {
            if let Some(k) = flag {
                assert!(
                    job.checkpoint_times()[*k] < out.threshold,
                    "task {task} flagged at t >= tau"
                );
            }
        }
    }
}

#[test]
fn flag_everything_has_perfect_recall_on_predictable_stragglers() {
    // Under the revelation rule, FlagAll still catches every straggler
    // that is running at some prediction checkpoint — which is all of them
    // whenever a checkpoint lands between warmup and τ.
    for job in small_suite(TraceStyle::Google, 3, 0xC3) {
        let out = replay_job(&job, &mut FlagAll, &ReplayConfig::default());
        let warmup_time = job.checkpoint_times()[out.warmup_checkpoint];
        if warmup_time < out.threshold {
            assert_eq!(
                out.confusion.false_negatives, 0,
                "FlagAll missed a straggler that was predictable"
            );
        }
    }
}

#[test]
fn csv_roundtrip_preserves_replay_outcomes() {
    let jobs = small_suite(TraceStyle::Google, 2, 0xC4);
    let path = std::env::temp_dir().join("nurd_test_roundtrip.csv");
    nurd::data::write_jobs_csv(&path, &jobs).unwrap();
    let reloaded = nurd::data::read_jobs_csv(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(jobs.len(), reloaded.len());
    for (a, b) in jobs.iter().zip(&reloaded) {
        let mut pa = nurd::core::NurdPredictor::new(nurd::core::NurdConfig::default());
        let mut pb = nurd::core::NurdPredictor::new(nurd::core::NurdConfig::default());
        let out_a = replay_job(a, &mut pa, &ReplayConfig::default());
        let out_b = replay_job(b, &mut pb, &ReplayConfig::default());
        assert_eq!(out_a.flagged_at, out_b.flagged_at);
    }
}

#[test]
fn scheduler_never_beats_perfect_information_bound() {
    // Mitigated JCT can never undercut the baseline JCT of a job whose
    // stragglers were replaced by instantaneous tasks — a loose lower
    // bound: the kill time of the earliest flag.
    for job in small_suite(TraceStyle::Google, 2, 0xC5) {
        let mut p = nurd::core::NurdPredictor::new(nurd::core::NurdConfig::default());
        let out = replay_job(&job, &mut p, &ReplayConfig::default());
        let sim = MitigationSimConfig::default();
        let jct = execute_actions(&job, out.threshold, &out.relaunches(&job), &sim);
        assert!(jct.jct_mitigated > 0.0);
        assert!(jct.jct_baseline >= job.max_latency() - 1e-9);
        // Non-straggler latencies bound the mitigated makespan from below:
        // unflagged tasks still run to completion.
        let unflagged_max = job
            .tasks()
            .iter()
            .filter(|t| out.flagged_at[t.id()].is_none())
            .map(|t| t.latency())
            .fold(0.0, f64::max);
        assert!(jct.jct_mitigated >= unflagged_max - 1e-9);
    }
}

#[test]
fn oracle_wrangler_outperforms_oracle_free_gbtr() {
    // Wrangler gets labels; GBTR does not. Averaged over jobs, Wrangler's
    // F1 must dominate.
    let jobs = small_suite(TraceStyle::Google, 6, 0xC6);
    let registry = nurd::baselines::registry();
    let f1 = |name: &str| -> f64 {
        let spec = registry.iter().find(|m| m.name == name).unwrap();
        jobs.iter()
            .map(|job| {
                let mut p = spec.build(job);
                replay_job(job, p.as_mut(), &ReplayConfig::default())
                    .confusion
                    .f1()
            })
            .sum::<f64>()
            / jobs.len() as f64
    };
    assert!(f1("Wrangler") > f1("GBTR"));
}

#[test]
fn alibaba_features_are_weaker_than_google() {
    // The same method does worse (or no better) with 4 features than 15 —
    // the paper's cross-trace compression effect, averaged over suites.
    let google = small_suite(TraceStyle::Google, 6, 0xC7);
    let alibaba = small_suite(TraceStyle::Alibaba, 6, 0xC7);
    let eval = |jobs: &[nurd::data::JobTrace]| -> f64 {
        jobs.iter()
            .map(|job| {
                let mut p = nurd::core::NurdPredictor::new(nurd::core::NurdConfig::default());
                replay_job(job, &mut p, &ReplayConfig::default())
                    .confusion
                    .f1()
            })
            .sum::<f64>()
            / jobs.len() as f64
    };
    let g = eval(&google);
    let a = eval(&alibaba);
    assert!(
        g > a - 0.05,
        "google F1 {g:.3} should not trail alibaba {a:.3} materially"
    );
}

#[test]
fn job_context_threshold_matches_replay_threshold() {
    struct Capture {
        seen: f64,
    }
    impl OnlinePredictor for Capture {
        fn name(&self) -> &str {
            "CAP"
        }
        fn begin_stream(&mut self, ctx: &StreamContext) {
            self.seen = ctx.threshold;
        }
        fn predict(&mut self, _c: &Checkpoint<'_>) -> Vec<usize> {
            Vec::new()
        }
    }
    let job = &small_suite(TraceStyle::Google, 1, 0xC8)[0];
    let mut p = Capture { seen: f64::NAN };
    let out = replay_job(job, &mut p, &ReplayConfig::default());
    assert_eq!(p.seen, out.threshold);
    assert_eq!(out.threshold, job.straggler_threshold(0.9));
}
