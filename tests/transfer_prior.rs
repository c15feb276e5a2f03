//! NURD-TL — `NurdPredictor::with_prior`, NURD with a frozen cross-job
//! donor on its latency head (the paper's §8 future work) — driven
//! through the replay protocol: it runs the protocol, reuses its head when
//! nothing new finished, refuses a blob of another width, stays accurate
//! under warm refits and against scratch NURD, and serves a stream of
//! another width than its donor exactly as plain NURD does.

use nurd::core::{DonorModel, NurdConfig, NurdPredictor, RefitPolicy, WarmRefitConfig};
use nurd::data::{JobTrace, OnlinePredictor, StreamContext};
use nurd::sim::{replay_job, ReplayConfig, ReplayOutcome};
use nurd::trace::{SuiteConfig, TraceStyle};

fn suite(style: TraceStyle, seed: u64, jobs: usize) -> Vec<JobTrace> {
    let cfg = SuiteConfig::new(style)
        .with_jobs(jobs)
        .with_task_range(100, 150)
        .with_checkpoints(14)
        .with_seed(seed);
    nurd::trace::generate_suite(&cfg)
}

fn donor(job: &JobTrace) -> DonorModel {
    DonorModel::from_job(job, &NurdConfig::default()).unwrap()
}

fn warm() -> NurdConfig {
    NurdConfig::default().with_refit_policy(RefitPolicy::Warm(WarmRefitConfig::default()))
}

fn replay(job: &JobTrace, predictor: &mut NurdPredictor) -> ReplayOutcome {
    replay_job(job, predictor, &ReplayConfig::default())
}

#[test]
fn transfer_predictor_runs_the_protocol() {
    let jobs = suite(TraceStyle::Google, 2, 2);
    let mut p = NurdPredictor::with_prior(NurdConfig::default(), donor(&jobs[0]));
    let out = replay(&jobs[1], &mut p);
    assert_eq!(out.confusion.total(), jobs[1].task_count());
    assert_eq!(p.name(), "NURD-TL");
}

#[test]
fn transfer_warm_path_reuses_model_when_nothing_new_finished() {
    let job = &suite(TraceStyle::Google, 7, 1)[0];
    let mut p = NurdPredictor::with_prior(warm(), donor(job));
    p.begin_stream(&StreamContext {
        threshold: job.straggler_threshold(0.9),
        task_count: job.task_count(),
        feature_dim: job.feature_dim(),
    });
    let checkpoint = job.checkpoint_at(job.checkpoint_count() / 2);
    p.predict(&checkpoint);
    let first = p.refit_stats();
    // Identical checkpoint again: the residual targets are a function of
    // the same rows, so the head is reused, as NURD-WS's is.
    p.predict(&checkpoint);
    let again = p.refit_stats();
    assert_eq!(
        again.cold_fits + again.warm_fits,
        first.cold_fits + first.warm_fits
    );
    assert_eq!(again.reuses, first.reuses + 1);
}

#[test]
fn restore_refuses_rows_of_another_width_than_the_stream() {
    let job = &suite(TraceStyle::Google, 7, 1)[0];
    let donor = donor(job);
    let mut live = NurdPredictor::with_prior(NurdConfig::default(), donor.clone());
    let mut ctx = StreamContext {
        threshold: job.straggler_threshold(0.9),
        task_count: job.task_count(),
        feature_dim: job.feature_dim(),
    };
    live.begin_stream(&ctx);
    let checkpoint = job.checkpoint_at(job.checkpoint_count() / 2);
    let flagged = live.predict(&checkpoint);
    let blob = live.snapshot_state().unwrap();

    let mut restored = NurdPredictor::with_prior(NurdConfig::default(), donor);
    restored.begin_stream(&ctx);
    assert!(restored.restore_state(&blob));
    assert_eq!(restored.predict(&checkpoint), flagged);
    // The same rows in a narrower job: the next append would panic.
    ctx.feature_dim -= 1;
    restored.begin_stream(&ctx);
    assert!(!restored.restore_state(&blob));
}

#[test]
fn transfer_warm_policy_matches_cold_accuracy() {
    // Warm-started residual refits must not wreck transfer accuracy
    // relative to the always-cold protocol on the same jobs.
    let jobs = suite(TraceStyle::Google, 11, 4);
    let donor = donor(&jobs[0]);
    let (mut cold_f1, mut warm_f1) = (0.0, 0.0);
    for job in &jobs[1..] {
        let mut cold = NurdPredictor::with_prior(NurdConfig::default(), donor.clone());
        cold_f1 += replay(job, &mut cold).confusion.f1();
        let mut warm = NurdPredictor::with_prior(warm(), donor.clone());
        warm_f1 += replay(job, &mut warm).confusion.f1();
    }
    assert!(
        warm_f1 >= cold_f1 - 0.5,
        "warm transfer {warm_f1:.2} collapsed vs cold {cold_f1:.2}"
    );
}

#[test]
fn transfer_is_competitive_with_scratch_nurd() {
    // Averaged over a few target jobs, the donor prior must not wreck
    // accuracy (it should help early; end-of-job F1 stays comparable).
    let jobs = suite(TraceStyle::Google, 3, 7);
    let donor = donor(&jobs[0]);
    let (mut scratch, mut transfer) = (0.0, 0.0);
    for job in &jobs[1..] {
        let mut a = NurdPredictor::new(NurdConfig::default());
        scratch += replay(job, &mut a).confusion.f1();
        let mut b = NurdPredictor::with_prior(NurdConfig::default(), donor.clone());
        transfer += replay(job, &mut b).confusion.f1();
    }
    assert!(
        transfer >= scratch - 0.8,
        "transfer {transfer:.2} collapsed vs scratch {scratch:.2}"
    );
}

/// A Google-style donor reads 15 features, an Alibaba-style job has 4:
/// scoring one with the other would index past the row (or, the other
/// way round, read the wrong columns). Such a stream is served without
/// the prior, bit for bit as plain NURD serves it, under both policies.
#[test]
fn a_donor_of_another_width_serves_the_stream_as_plain_nurd() {
    let google = suite(TraceStyle::Google, 5, 2);
    let alibaba = suite(TraceStyle::Alibaba, 5, 2);
    assert_ne!(google[0].feature_dim(), alibaba[0].feature_dim());
    let mut flagged = 0;
    for (donor_job, job) in [(&google[0], &alibaba[1]), (&alibaba[0], &google[1])] {
        for config in [NurdConfig::default(), warm()] {
            let plain = replay(job, &mut NurdPredictor::new(config.clone()));
            let mut tl = NurdPredictor::with_prior(config, donor(donor_job));
            assert_eq!(replay(job, &mut tl), plain);
            flagged += plain.flagged_ids().len();
        }
    }
    assert!(flagged > 0, "nothing flagged: the comparison is vacuous");
}
