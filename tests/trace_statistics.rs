//! Statistical integration tests on the trace generator: the planted
//! structure that the whole evaluation rests on must actually be there.

use nurd::trace::{CauseMix, StragglerCause, SuiteConfig, TraceStyle};

fn detailed_suite(cfg: &SuiteConfig) -> Vec<(nurd::data::JobTrace, Vec<nurd::trace::TaskPlan>)> {
    (0..cfg.jobs as u64)
        .map(|id| nurd::trace::generate_job_detailed(cfg, id))
        .collect()
}

#[test]
fn straggler_fraction_tracks_configuration() {
    let cfg = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(6)
        .with_task_range(200, 300)
        .with_checkpoints(8)
        .with_straggler_fraction(0.11)
        .with_seed(1);
    let mut planted = 0usize;
    let mut total = 0usize;
    for (_, plans) in detailed_suite(&cfg) {
        planted += plans.iter().filter(|p| p.cause.is_some()).count();
        total += plans.len();
    }
    let frac = planted as f64 / total as f64;
    assert!((0.08..0.14).contains(&frac), "planted fraction {frac}");
}

#[test]
fn cause_mix_proportions_hold_in_aggregate() {
    let cfg = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(10)
        .with_task_range(200, 300)
        .with_checkpoints(8)
        .with_cause_mix(CauseMix {
            interference: 0.5,
            data_skew: 0.5,
            eviction: 0.0,
            opaque: 0.0,
        })
        .with_seed(2);
    let mut interference = 0usize;
    let mut skew = 0usize;
    let mut other = 0usize;
    for (_, plans) in detailed_suite(&cfg) {
        for p in plans.iter().filter_map(|p| p.cause) {
            match p {
                StragglerCause::Interference => interference += 1,
                StragglerCause::DataSkew => skew += 1,
                _ => other += 1,
            }
        }
    }
    assert_eq!(other, 0, "forbidden causes were planted");
    let ratio = interference as f64 / (interference + skew) as f64;
    assert!((0.4..0.6).contains(&ratio), "interference share {ratio}");
}

#[test]
fn planted_stragglers_dominate_the_top_decile_in_long_tail_jobs() {
    let cfg = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(6)
        .with_task_range(250, 300)
        .with_checkpoints(8)
        .with_long_tail_fraction(1.0)
        .with_seed(3);
    let mut planted_in_top = 0usize;
    let mut top = 0usize;
    for (job, plans) in detailed_suite(&cfg) {
        let thr = job.straggler_threshold(0.9);
        for (task, plan) in job.tasks().iter().zip(&plans) {
            if task.latency() >= thr {
                top += 1;
                planted_in_top += usize::from(plan.cause.is_some());
            }
        }
    }
    let share = planted_in_top as f64 / top as f64;
    assert!(
        share > 0.75,
        "planted stragglers should dominate the long-tail top decile, got {share:.2}"
    );
}

#[test]
fn decoys_are_fast_but_feature_loud() {
    let cfg = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(4)
        .with_task_range(250, 300)
        .with_checkpoints(8)
        .with_decoy_fraction(0.15)
        .with_seed(4);
    for (job, plans) in detailed_suite(&cfg) {
        let thr = job.straggler_threshold(0.9);
        let decoys: Vec<usize> = plans
            .iter()
            .enumerate()
            .filter(|(_, p)| p.decoy)
            .map(|(i, _)| i)
            .collect();
        assert!(!decoys.is_empty());
        // Decoys are never planted stragglers, and mostly not top-decile.
        let slow_decoys = decoys
            .iter()
            .filter(|&&i| job.tasks()[i].latency() >= thr)
            .count();
        assert!(
            (slow_decoys as f64) < 0.25 * decoys.len() as f64,
            "too many decoys are slow: {slow_decoys}/{}",
            decoys.len()
        );
    }
}

#[test]
fn long_tail_family_is_heavier_tailed_than_close_tail() {
    // The robust family invariant: a pure long-tail suite has a much
    // larger max/median latency ratio than a pure close-tail suite.
    // (Classifying single jobs by threshold-vs-half-max is noisy because
    // planted stragglers can stretch a close-tail job's maximum.)
    let ratio = |frac: f64| -> f64 {
        let cfg = SuiteConfig::new(TraceStyle::Google)
            .with_jobs(10)
            .with_task_range(100, 140)
            .with_checkpoints(8)
            .with_long_tail_fraction(frac)
            .with_seed(5);
        let jobs = nurd::trace::generate_suite(&cfg);
        jobs.iter()
            .map(|job| {
                let mut lat = job.latencies();
                lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
                job.max_latency() / lat[lat.len() / 2]
            })
            .sum::<f64>()
            / jobs.len() as f64
    };
    let long = ratio(1.0);
    let close = ratio(0.0);
    assert!(
        long > 1.5 * close,
        "long-tail max/median {long:.2} should dwarf close-tail {close:.2}"
    );
}

#[test]
fn feature_snapshots_never_regress_for_counters() {
    // EV and FL are monotone counters within any task's lifetime.
    let cfg = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(2)
        .with_task_range(100, 140)
        .with_checkpoints(16)
        .with_seed(6);
    for job in nurd::trace::generate_suite(&cfg) {
        for task in job.tasks() {
            for (prev, next) in task.snapshots().zip(task.snapshots().skip(1)) {
                assert!(next[13] >= prev[13], "EV regressed");
                assert!(next[14] >= prev[14], "FL regressed");
            }
        }
    }
}

#[test]
fn alibaba_jobs_never_leak_google_only_signals() {
    let cfg = SuiteConfig::new(TraceStyle::Alibaba)
        .with_jobs(2)
        .with_task_range(100, 140)
        .with_checkpoints(8)
        .with_seed(7);
    for job in nurd::trace::generate_suite(&cfg) {
        assert_eq!(job.feature_dim(), 4);
        assert!(job
            .feature_names()
            .iter()
            .all(|n| ["cpu_avg", "cpu_max", "mem_avg", "mem_max"].contains(&n.as_str())));
    }
}
