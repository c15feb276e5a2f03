//! Differential acceptance for the scoring hot path. `nurd-core` scores
//! only through the flattened structure-of-arrays kernels
//! ([`nurd::ml::FlatForest`], pooled barrier scratch in the serving
//! engine); these tests hold that one path to two fixed references:
//!
//! 1. the **pointer walk** of the predictor's own latency head
//!    ([`NurdPredictor::latency_model`] →
//!    [`nurd::ml::GradientBoosting::predict_view`]), which every
//!    [`AdjustedPrediction::raw`] must equal bit for bit at every
//!    checkpoint ([`PointerChecked`] asserts it from inside the run);
//! 2. sequential [`replay_job`] under `scoring_lanes = 1`, which every
//!    engine report must equal —
//!
//! across refit policies, shard counts, lane widths, pooled scoring, and
//! the barrier edge cases (single-task jobs, all-flagged barriers,
//! truncated streams).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use nurd::core::{
    AdjustedPrediction, DonorModel, NurdConfig, NurdPredictor, RefitPolicy, WarmRefitConfig,
};
use nurd::data::{
    Checkpoint, FinishedTask, JobSpec, JobTrace, OnlinePredictor, RunningTask, StreamContext,
    TaskEvent,
};
use nurd::linalg::MatrixView;
use nurd::serve::{
    EngineConfig, EngineReport, EngineService, FinalizeReason, PredictorFactory, ServiceConfig,
};
use nurd::sim::{replay_job, ReplayConfig, ReplayOutcome};
use nurd::trace::{SuiteConfig, TraceStyle};

const QUANTILE: f64 = 0.9;
const WARMUP: f64 = 0.04;
const REPLAY: ReplayConfig = ReplayConfig {
    quantile: QUANTILE,
    warmup_fraction: WARMUP,
};

fn suite(style: TraceStyle, jobs: usize, seed: u64) -> Vec<JobTrace> {
    let cfg = SuiteConfig::new(style)
        .with_jobs(jobs)
        .with_task_range(50, 70)
        .with_checkpoints(8)
        .with_seed(seed);
    nurd::trace::generate_suite(&cfg)
}

fn config(policy: RefitPolicy) -> NurdConfig {
    NurdConfig::default().with_refit_policy(policy)
}

fn policies() -> [RefitPolicy; 2] {
    [
        RefitPolicy::AlwaysCold,
        RefitPolicy::Warm(WarmRefitConfig::default()),
    ]
}

/// Reference (ii): the job replayed sequentially, one row per tree step.
fn reference_outcome(job: &JobTrace, policy: RefitPolicy) -> ReplayOutcome {
    let mut reference = NurdPredictor::new(config(policy).with_scoring_lanes(1));
    replay_job(job, &mut reference, &REPLAY)
}

/// Reference (i), asserted on the spot: `raw` of every scored task equals
/// the pointer walk of the predictor's own latency head over the same
/// running rows.
fn assert_raw_is_pointer_walk(
    predictor: &NurdPredictor,
    checkpoint: &Checkpoint<'_>,
    scores: &[AdjustedPrediction],
) {
    if scores.is_empty() {
        return;
    }
    let oracle = predictor
        .latency_model()
        .expect("scored without a latency head")
        .predict_view(MatrixView::RowSlices(&checkpoint.running_feature_rows()));
    assert_eq!(scores.len(), oracle.len());
    for (score, expect) in scores.iter().zip(&oracle) {
        assert_eq!(
            score.raw.to_bits(),
            expect.to_bits(),
            "task {} at checkpoint {}: served {} vs pointer walk {}",
            score.id,
            checkpoint.ordinal,
            score.raw,
            expect
        );
    }
}

/// A [`NurdPredictor`] that checks reference (i) at every checkpoint it
/// scores, wherever it is driven from (replay or an engine shard), and
/// records the largest batch it saw. Flags exactly what
/// [`NurdPredictor::predict`] flags.
struct PointerChecked {
    inner: NurdPredictor,
    threshold: f64,
    largest_batch: Arc<AtomicUsize>,
}

impl PointerChecked {
    fn new(config: NurdConfig, largest_batch: Arc<AtomicUsize>) -> Self {
        PointerChecked {
            inner: NurdPredictor::new(config),
            threshold: f64::INFINITY,
            largest_batch,
        }
    }
}

impl OnlinePredictor for PointerChecked {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn begin_stream(&mut self, ctx: &StreamContext) {
        self.threshold = ctx.threshold;
        self.inner.begin_stream(ctx);
    }

    fn set_parallelism(&mut self, threads: usize) {
        self.inner.set_parallelism(threads);
    }

    fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
        let scores = self.inner.score_running(checkpoint);
        assert_raw_is_pointer_walk(&self.inner, checkpoint, &scores);
        self.largest_batch
            .fetch_max(scores.len(), Ordering::Relaxed);
        scores
            .into_iter()
            .filter(|p| p.adjusted >= self.threshold)
            .map(|p| p.id)
            .collect()
    }
}

fn checked_factory(config: NurdConfig, largest_batch: &Arc<AtomicUsize>) -> PredictorFactory {
    let largest_batch = Arc::clone(largest_batch);
    Box::new(move |_spec: &JobSpec| {
        Box::new(PointerChecked::new(
            config.clone(),
            Arc::clone(&largest_batch),
        ))
    })
}

fn run_engine(events: Vec<TaskEvent>, shards: usize, factory: PredictorFactory) -> EngineReport {
    let service = EngineService::start(
        EngineConfig {
            shards,
            warmup_fraction: WARMUP,
            ..EngineConfig::default()
        },
        ServiceConfig::default(),
        factory,
    );
    service.push_all(events);
    let report = service.close();
    // The engine quarantines a panicking predictor instead of unwinding,
    // so a failed pointer check inside a shard surfaces here.
    assert!(
        report
            .jobs
            .iter()
            .all(|j| j.finalized != FinalizeReason::Poisoned),
        "a predictor panicked inside the engine (see the assertion above)"
    );
    report
}

fn assert_jobs_match_reference(report: &EngineReport, jobs: &[JobTrace], policy: &RefitPolicy) {
    for job in jobs {
        let got = report.job(job.job_id()).expect("job reported");
        assert_eq!(
            got.outcome,
            reference_outcome(job, policy.clone()),
            "job {} diverged from sequential replay ({policy:?})",
            job.job_id()
        );
    }
}

/// Sequential replay: at the default lane width every raw score equals
/// the pointer walk at every checkpoint, and the `ReplayOutcome` equals
/// the one-row-per-step reference bit for bit, on both trace styles and
/// under both refit families — and the comparison is not vacuous (tasks
/// do flag).
#[test]
fn replay_outcomes_identical_under_flat_and_pointer_scoring() {
    let mut total_flags = 0usize;
    for style in [TraceStyle::Google, TraceStyle::Alibaba] {
        for job in suite(style, 3, 0xF1A7) {
            for policy in policies() {
                let mut checked = PointerChecked::new(config(policy.clone()), Arc::default());
                let outcome = replay_job(&job, &mut checked, &REPLAY);
                assert_eq!(
                    outcome,
                    reference_outcome(&job, policy.clone()),
                    "replay diverged from the reference on job {} ({style:?}, {policy:?})",
                    job.job_id()
                );
                total_flags += outcome.flagged_at.iter().flatten().count();
            }
        }
    }
    assert!(
        total_flags > 0,
        "no task ever flagged — comparison is vacuous"
    );
}

/// Every checkpoint's raw predictions are the pointer walk of the model
/// that produced them — across warm-start refits of the same predictor
/// instance, and on a fresh instance restored from the previous
/// checkpoint's snapshot, whose full breakdown (raw, propensity, weight,
/// adjusted) must also equal the live instance's. With `refit_every = 2`
/// the restored instance scores a non-refit checkpoint, so its flat copy
/// comes from the lazy rebuild rather than from a refit.
#[test]
fn score_breakdowns_identical_at_every_checkpoint() {
    // Finished tasks accrue checkpoint by checkpoint so each call refits
    // on new data; running tasks include a typical and an alien point.
    let finished: Vec<(Vec<f64>, f64)> = (0..60)
        .map(|i| {
            let x = i as f64 / 60.0;
            let y = (i as f64 * 0.37).sin();
            (vec![x, 1.0 - x, y], 20.0 + 30.0 * x + 5.0 * y)
        })
        .collect();
    let running = [
        vec![0.5, 0.5, 0.1],
        vec![0.9, 0.1, -0.4],
        vec![7.0, -5.0, 3.0],
    ];
    for policy in policies() {
        for refit_every in [1usize, 2] {
            let cfg = NurdConfig {
                refit_every,
                ..config(policy.clone())
            };
            let mut live = NurdPredictor::new(cfg.clone());
            let mut snapshot: Option<Vec<u8>> = None;
            for (ordinal, take) in [10usize, 25, 40, 60].into_iter().enumerate() {
                let checkpoint = Checkpoint {
                    ordinal,
                    time: 10.0 * (ordinal + 1) as f64,
                    finished: finished[..take]
                        .iter()
                        .enumerate()
                        .map(|(id, (f, l))| FinishedTask {
                            id,
                            features: f,
                            latency: *l,
                        })
                        .collect(),
                    running: running
                        .iter()
                        .enumerate()
                        .map(|(i, f)| RunningTask {
                            id: finished.len() + i,
                            features: f,
                        })
                        .collect(),
                };
                let scores = live.score_running(&checkpoint);
                assert_eq!(scores.len(), running.len());
                assert_raw_is_pointer_walk(&live, &checkpoint, &scores);
                if let Some(bytes) = &snapshot {
                    let mut restored = NurdPredictor::new(cfg.clone());
                    assert!(restored.restore_state(bytes), "snapshot must restore");
                    let again = restored.score_running(&checkpoint);
                    assert_raw_is_pointer_walk(&restored, &checkpoint, &again);
                    assert_eq!(
                        again, scores,
                        "restored predictor diverged at checkpoint {ordinal} \
                         ({policy:?}, refit_every {refit_every})"
                    );
                }
                snapshot = live.snapshot_state();
                assert!(snapshot.is_some());
            }
        }
    }
}

/// NURD-TL (`NurdPredictor::with_prior`): its raw score adds the scaled
/// donor to the head, so it has no pointer walk to match, but the engine,
/// which flags through `predict_scored`, must still equal sequential
/// replay, which flags through `predict`, at shard counts {1, 2, 8} under
/// both refit families — and the two calls flag the same tasks at every
/// checkpoint.
#[test]
fn transfer_prior_engine_matches_replay_at_all_shard_counts() {
    let suite = suite(TraceStyle::Google, 4, 0xF1AE);
    let (donor_job, jobs) = suite.split_first().expect("a donor job");
    let donor = DonorModel::from_job(donor_job, &NurdConfig::default()).unwrap();
    let events = nurd::trace::staggered_fleet_events(jobs, QUANTILE, 0.0, 0);
    let mut flagged = 0;
    for policy in policies() {
        let cfg = config(policy.clone());
        let tl = || NurdPredictor::with_prior(cfg.clone(), donor.clone());
        let replayed: Vec<ReplayOutcome> = jobs
            .iter()
            .map(|job| replay_job(job, &mut tl(), &REPLAY))
            .collect();
        for shards in [1usize, 2, 8] {
            let (c, d) = (cfg.clone(), donor.clone());
            let factory: PredictorFactory = Box::new(move |_spec: &JobSpec| {
                Box::new(NurdPredictor::with_prior(c.clone(), d.clone()))
            });
            let report = run_engine(events.clone(), shards, factory);
            for (job, expected) in jobs.iter().zip(&replayed) {
                assert_eq!(
                    &report.job(job.job_id()).expect("job reported").outcome,
                    expected,
                    "job {} at {shards} shards diverged from replay ({policy:?})",
                    job.job_id()
                );
            }
        }
        for job in jobs {
            let (mut scored, mut plain) = (tl(), tl());
            let stream = StreamContext {
                threshold: job.straggler_threshold(QUANTILE),
                task_count: job.task_count(),
                feature_dim: job.feature_dim(),
            };
            scored.begin_stream(&stream);
            plain.begin_stream(&stream);
            for k in job.warmup_checkpoint(WARMUP)..job.checkpoint_count() {
                let checkpoint = job.checkpoint_at(k);
                let flags = plain.predict(&checkpoint);
                assert_eq!(scored.predict_scored(&checkpoint).flagged, flags);
                flagged += flags.len();
            }
        }
    }
    assert!(flagged > 0, "nothing flagged: the comparison is vacuous");
}

/// End to end through the concurrent engine: shard counts {1, 2, 8} all
/// produce the identical report, every barrier's raw scores equal the
/// pointer walk, and every job's outcome equals sequential replay.
#[test]
fn engine_reports_flat_equals_pointer_at_all_shard_counts() {
    let jobs = suite(TraceStyle::Google, 3, 0xF1A8);
    let events = nurd::trace::staggered_fleet_events(&jobs, QUANTILE, 0.0, 0);
    let batch = Arc::new(AtomicUsize::new(0));
    for policy in policies() {
        let factory = || checked_factory(config(policy.clone()), &batch);
        let single = run_engine(events.clone(), 1, factory());
        assert_jobs_match_reference(&single, &jobs, &policy);
        for shards in [2usize, 8] {
            let sharded = run_engine(events.clone(), shards, factory());
            assert_eq!(
                sharded, single,
                "engine at {shards} shards diverged from one shard ({policy:?})"
            );
        }
    }
    assert!(batch.load(Ordering::Relaxed) > 0, "no barrier ever scored");
}

/// Lane-width sweep end to end: every supported lane width (1, 2, 4, 8 —
/// including widths that leave remainder rows on these 50–70-task jobs)
/// scores the pointer walk at every barrier and produces the same engine
/// report, equal to sequential replay, under both refit families.
#[test]
fn lane_width_sweep_matches_pointer_engine() {
    let jobs = suite(TraceStyle::Google, 3, 0xF1AC);
    let events = nurd::trace::staggered_fleet_events(&jobs, QUANTILE, 0.0, 0);
    let batch = Arc::new(AtomicUsize::new(0));
    for policy in policies() {
        let reports: Vec<EngineReport> = nurd::ml::SUPPORTED_LANES
            .into_iter()
            .map(|lanes| {
                let cfg = config(policy.clone()).with_scoring_lanes(lanes);
                run_engine(events.clone(), 2, checked_factory(cfg, &batch))
            })
            .collect();
        assert_jobs_match_reference(&reports[0], &jobs, &policy);
        for (lanes, report) in nurd::ml::SUPPORTED_LANES.into_iter().zip(&reports) {
            assert_eq!(
                report, &reports[0],
                "lane width {lanes} diverged from lane width 1 ({policy:?})"
            );
        }
    }
    // Full lane groups formed at every width, not just remainders.
    assert!(batch.load(Ordering::Relaxed) > 8);
}

/// Pool-parallel barrier scoring: predictors granted within-job
/// parallelism (`n_threads` ∈ {2, 4}) on jobs whose barriers carry well
/// over 64 running rows — so the batch is split across the pool — score
/// the pointer walk at every barrier and produce engine reports equal to
/// sequential single-thread replay at shard counts {1, 2, 8}.
#[test]
fn pool_parallel_scoring_matches_pointer_engine_at_all_shard_counts() {
    let cfg = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(2)
        .with_task_range(120, 150)
        .with_checkpoints(6)
        .with_seed(0xF1AD);
    let jobs = nurd::trace::generate_suite(&cfg);
    let events = nurd::trace::staggered_fleet_events(&jobs, QUANTILE, 0.0, 0);
    let policy = RefitPolicy::AlwaysCold;
    for threads in [2usize, 4] {
        let batch = Arc::new(AtomicUsize::new(0));
        let mut cfg = config(policy.clone());
        cfg.gbt.tree.n_threads = threads;
        for shards in [1usize, 2, 8] {
            let report = run_engine(events.clone(), shards, checked_factory(cfg.clone(), &batch));
            assert_jobs_match_reference(&report, &jobs, &policy);
        }
        // Not vacuous: the pooled path is chosen from the batch size and
        // the granted threads alone, and both were over the bar.
        assert!(
            batch.load(Ordering::Relaxed) >= 64,
            "largest barrier had {} running rows — the pooled path never ran",
            batch.load(Ordering::Relaxed)
        );
    }
}

/// Degenerate barrier shapes — a single-task job (warmup quorum of one,
/// checkpoints where the running view is empty or a singleton) — take
/// the same pooled-scratch barrier path and still match replay exactly.
#[test]
fn single_task_jobs_match_replay() {
    let cfg = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(3)
        .with_task_range(1, 3)
        .with_checkpoints(6)
        .with_seed(0xF1A9);
    let jobs = nurd::trace::generate_suite(&cfg);
    assert!(jobs.iter().any(|j| j.task_count() == 1));
    let events = nurd::trace::staggered_fleet_events(&jobs, QUANTILE, 0.0, 0);
    let policy = RefitPolicy::AlwaysCold;
    let report = run_engine(
        events,
        2,
        checked_factory(config(policy.clone()), &Arc::default()),
    );
    assert_jobs_match_reference(&report, &jobs, &policy);
}

/// Flags everything it sees: after the first scoring barrier every task
/// is flagged, so every later barrier assembles *empty* finished/running
/// views from the recycled scratch — the all-flagged edge case.
struct FlagAll;
impl OnlinePredictor for FlagAll {
    fn name(&self) -> &str {
        "ALL"
    }
    fn predict(&mut self, c: &Checkpoint<'_>) -> Vec<usize> {
        c.running.iter().map(|r| r.id).collect()
    }
}

#[test]
fn all_flagged_barriers_match_replay() {
    let jobs = suite(TraceStyle::Google, 2, 0xF1AA);
    let events = nurd::trace::staggered_fleet_events(&jobs, QUANTILE, 0.0, 0);
    let factory: PredictorFactory = Box::new(|_spec: &JobSpec| Box::new(FlagAll));
    let report = run_engine(events, 2, factory);
    let mut flagged = 0usize;
    for job in &jobs {
        let expected = replay_job(job, &mut FlagAll, &REPLAY);
        let got = report.job(job.job_id()).expect("job reported");
        assert_eq!(got.outcome, expected, "FlagAll engine diverged from replay");
        flagged += expected.flagged_at.iter().flatten().count();
    }
    assert!(flagged > 0, "nothing flagged — edge case not exercised");
}

/// Finalizing with the stream cut mid-job (no `JobEnd`, barriers missing)
/// is deterministic and prefix-consistent: two identical truncated runs
/// agree bit for bit, and every flag the truncated run commits is
/// exactly the full run's flag for that task.
#[test]
fn truncated_stream_finalize_is_deterministic_and_prefix_consistent() {
    let jobs = suite(TraceStyle::Google, 2, 0xF1AB);
    let events = nurd::trace::staggered_fleet_events(&jobs, QUANTILE, 0.0, 0);
    let cut = events.len() * 2 / 3;
    let truncated: Vec<TaskEvent> = events[..cut].to_vec();

    let run = |events: Vec<TaskEvent>, shards: usize| {
        run_engine(
            events,
            shards,
            checked_factory(config(RefitPolicy::AlwaysCold), &Arc::default()),
        )
    };
    let full = run(events, 2);
    let a = run(truncated.clone(), 1);
    let b = run(truncated, 2);
    assert_eq!(a, b, "truncated finalize depends on shard count");

    for job in &jobs {
        let full_flags = &full.job(job.job_id()).expect("full run").outcome.flagged_at;
        let cut_flags = &a
            .job(job.job_id())
            .expect("truncated run")
            .outcome
            .flagged_at;
        for (task, flag) in cut_flags.iter().enumerate() {
            if let Some(ordinal) = flag {
                assert_eq!(
                    Some(ordinal),
                    full_flags[task].as_ref(),
                    "truncated run flagged task {task} differently from the full run"
                );
            }
        }
    }
}
