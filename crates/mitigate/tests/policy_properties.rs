//! The mitigation layer's load-bearing properties, over random fleets:
//!
//! 1. **No completion is ever lost or duplicated** — for every shipped
//!    policy (and the no-mitigation baseline), every task of every job
//!    finishes exactly once in the simulated mitigated run.
//! 2. **The oracle never loses** — clone-only mitigation with ground
//!    truth satisfies `JCT(mitigated) ≤ JCT(no-mitigation)` per job.
//! 3. **Bit-identical action logs across shard counts** — the canonical
//!    fleet action log at shards {1, 2, 8} is exactly equal, record for
//!    record, for every policy.

use nurd_data::JobTrace;
use nurd_mitigate::{
    noop_mitigator, oracle_mitigator, run_fleet, threshold_mitigator, FleetConfig,
};
use nurd_serve::MitigatorFactory;
use nurd_trace::{SuiteConfig, TraceStyle};
use proptest::prelude::*;

const QUANTILE: f64 = 0.9;

fn suite(seed: u64, jobs: usize) -> Vec<JobTrace> {
    let cfg = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(jobs)
        .with_task_range(40, 60)
        .with_checkpoints(8)
        .with_seed(seed);
    nurd_trace::generate_suite(&cfg)
}

/// Every policy under test, by name. `None` is the true no-mitigation
/// baseline (no policy attached at all).
fn mitigators(jobs: &[JobTrace]) -> Vec<(&'static str, Option<MitigatorFactory>)> {
    vec![
        ("none", None),
        ("noop", Some(noop_mitigator())),
        ("threshold", Some(threshold_mitigator(1.0, Some(4)))),
        ("oracle", Some(oracle_mitigator(jobs, QUANTILE))),
    ]
}

fn config(shards: usize) -> FleetConfig {
    FleetConfig {
        shards,
        ..FleetConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn no_policy_ever_loses_or_duplicates_a_completion(seed in 0u64..1_000) {
        let jobs = suite(seed, 3);
        let mut sorted: Vec<&JobTrace> = jobs.iter().collect();
        sorted.sort_by_key(|j| j.job_id());
        for (name, mitigator) in mitigators(&jobs) {
            let run = run_fleet(&jobs, mitigator, &config(2));
            prop_assert_eq!(run.outcomes.len(), jobs.len());
            for (job, outcome) in sorted.iter().zip(&run.outcomes) {
                prop_assert_eq!(outcome.job, job.job_id());
                // Exactly one completion per task, task-id order: the
                // ledger is complete, duplicate-free, and gap-free.
                prop_assert_eq!(
                    outcome.completions.len(),
                    job.task_count(),
                    "policy {} lost completions", name
                );
                for (id, completion) in outcome.completions.iter().enumerate() {
                    prop_assert_eq!(completion.task, id, "policy {}", name);
                    prop_assert!(
                        completion.time.is_finite() && completion.time > 0.0,
                        "policy {} produced a degenerate completion", name
                    );
                }
            }
        }
    }

    #[test]
    fn oracle_never_loses_to_no_mitigation(seed in 0u64..1_000) {
        let jobs = suite(seed, 3);
        let baseline = run_fleet(&jobs, None, &config(2));
        let oracle = run_fleet(&jobs, Some(oracle_mitigator(&jobs, QUANTILE)), &config(2));
        for (base, with) in baseline.outcomes.iter().zip(&oracle.outcomes) {
            prop_assert_eq!(base.job, with.job);
            // The unmitigated run is its own baseline...
            prop_assert_eq!(base.jct_mitigated, base.jct_baseline);
            // ...and clone-only oracle mitigation never exceeds it.
            prop_assert!(
                with.jct_mitigated <= base.jct_baseline,
                "oracle worsened job {}: {} > {}",
                with.job, with.jct_mitigated, base.jct_baseline
            );
        }
    }

    #[test]
    fn action_log_is_bit_identical_across_shard_counts(seed in 0u64..1_000) {
        let jobs = suite(seed, 3);
        for (name, _) in mitigators(&jobs) {
            // Fresh factories per shard count — factories are consumed.
            let runs: Vec<_> = [1usize, 2, 8]
                .iter()
                .map(|&shards| {
                    let mitigator = mitigators(&jobs)
                        .into_iter()
                        .find(|(n, _)| *n == name)
                        .expect("known name")
                        .1;
                    run_fleet(&jobs, mitigator, &config(shards))
                })
                .collect();
            prop_assert_eq!(
                &runs[0].action_log, &runs[1].action_log,
                "policy {}: shards 1 vs 2 diverged", name
            );
            prop_assert_eq!(
                &runs[0].action_log, &runs[2].action_log,
                "policy {}: shards 1 vs 8 diverged", name
            );
            // The full reports (scores, flags, actions) agree too.
            prop_assert_eq!(&runs[0].reports, &runs[1].reports);
            prop_assert_eq!(&runs[0].reports, &runs[2].reports);
        }
    }
}

#[test]
fn the_loop_actually_acts() {
    // Guard against vacuous properties (no policy ever deciding
    // anything): the oracle clones every caught straggler, and real
    // fleets have stragglers.
    let jobs = suite(0xAC7, 4);
    let run = run_fleet(&jobs, Some(oracle_mitigator(&jobs, QUANTILE)), &config(2));
    assert!(
        !run.action_log.is_empty(),
        "oracle never acted — the loop is broken"
    );
    assert!(run.summary.clones_issued > 0);
}
