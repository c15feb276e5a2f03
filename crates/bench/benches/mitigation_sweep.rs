//! The closed mitigation loop, timed and priced:
//!
//! * `mitigation_sweep/none` — the no-mitigation baseline (no policy
//!   attached; the engine takes its zero-overhead `predict` path).
//! * `mitigation_sweep/threshold/{80,100,120}` — [`threshold_mitigator`]
//!   at score thresholds 0.8 / 1.0 / 1.2 (×100 in the id), budget 8
//!   clones per job. Lower thresholds act earlier: more catches, more
//!   wasted speculation.
//! * `mitigation_sweep/banded/120_90` — [`banded_mitigator`] calibrated
//!   at hi 1.2 / lo 0.9 / patience 2, same budget: instant clones above
//!   the best single threshold plus patience-gated clones for the
//!   slow-burn stragglers hovering in the dead band. The pricing table
//!   asserts it beats the best plain-threshold row on JCT reduction —
//!   the dead band is where the single threshold leaves its gap.
//! * `mitigation_sweep/oracle` — ground-truth cloning, the structural
//!   upper bound.
//!
//! Each measured iteration is one whole closed loop: serve the fleet
//! through the engine with the policy attached, then execute the
//! committed action log in the deterministic simulator. Before timing, a
//! pricing table is printed — per-setting mean JCT reduction % and
//! wasted-work % against both baselines — so the *decision quality*
//! behind the timings is visible in the bench log (the ordering
//! `oracle ≥ threshold ≥ none = 0` is asserted, not eyeballed; the same
//! gate `examples/mitigation_smoke.rs` runs in CI).
//!
//! [`threshold_mitigator`]: nurd_mitigate::threshold_mitigator
//! [`banded_mitigator`]: nurd_mitigate::banded_mitigator

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use nurd_mitigate::{
    banded_mitigator, oracle_mitigator, run_fleet, threshold_mitigator, FleetConfig, FleetRun,
};
use nurd_serve::MitigatorFactory;
use nurd_trace::{SuiteConfig, TraceStyle};

const JOBS: usize = 8;
const QUANTILE: f64 = 0.9;
const THRESHOLDS: [f64; 3] = [0.8, 1.0, 1.2];
const CLONE_BUDGET: usize = 8;
/// The calibrated band: instant clones at 1.2 (the best single
/// threshold), patience-2 clones for hoverers in [0.9, 1.2).
const BAND: (f64, f64, usize) = (1.2, 0.9, 2);

fn fleet_jobs() -> Vec<nurd_data::JobTrace> {
    let cfg = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(JOBS)
        .with_task_range(80, 120)
        .with_checkpoints(10)
        .with_seed(0x317);
    nurd_trace::generate_suite(&cfg)
}

fn run(jobs: &[nurd_data::JobTrace], mitigator: Option<MitigatorFactory>) -> FleetRun {
    run_fleet(jobs, mitigator, &FleetConfig::default())
}

fn bench_mitigation_sweep(c: &mut Criterion) {
    let jobs = fleet_jobs();

    // Pricing table + sanity gates, unmeasured.
    let baseline = run(&jobs, None);
    let oracle = run(&jobs, Some(oracle_mitigator(&jobs, QUANTILE)));
    eprintln!(
        "mitigation_sweep workload: {JOBS} jobs, {} actions (oracle), \
         catch-rate {:.2}",
        oracle.action_log.len(),
        oracle.summary.catch_rate,
    );
    eprintln!("policy            jct-reduction%   wasted-work%   clones(won/wasted)");
    let line = |name: &str, run: &FleetRun| {
        eprintln!(
            "{name:<18}{:>12.2}{:>14.2}   {}({}/{})",
            run.summary.mean_jct_reduction_percent,
            run.summary.wasted_fraction * 100.0,
            run.summary.clones_issued,
            run.summary.clones_won,
            run.summary.clones_wasted,
        );
    };
    line("none", &baseline);
    for &threshold in &THRESHOLDS {
        let run = run(
            &jobs,
            Some(threshold_mitigator(threshold, Some(CLONE_BUDGET))),
        );
        line(&format!("threshold@{threshold}"), &run);
        assert!(
            run.summary.mean_jct_reduction_percent >= 0.0
                && run.summary.mean_jct_reduction_percent
                    <= oracle.summary.mean_jct_reduction_percent + 1e-9,
            "threshold {threshold} fell outside [none, oracle]"
        );
    }
    // The two-sided threshold must beat the best plain-threshold row:
    // same budget, same instant threshold as the best row, plus the
    // patience-gated dead band below it.
    let best_threshold = THRESHOLDS
        .iter()
        .map(|&t| {
            run(&jobs, Some(threshold_mitigator(t, Some(CLONE_BUDGET))))
                .summary
                .mean_jct_reduction_percent
        })
        .fold(f64::MIN, f64::max);
    let (hi, lo, patience) = BAND;
    let banded = run(
        &jobs,
        Some(banded_mitigator(hi, lo, patience, Some(CLONE_BUDGET))),
    );
    line(&format!("banded@{hi}/{lo}"), &banded);
    assert!(
        banded.summary.mean_jct_reduction_percent > best_threshold,
        "banded {:.2}% did not beat the best threshold row {best_threshold:.2}%",
        banded.summary.mean_jct_reduction_percent,
    );
    line("oracle", &oracle);
    assert_eq!(baseline.summary.mean_jct_reduction_percent, 0.0);
    assert!(
        oracle.summary.mean_jct_reduction_percent > 0.0,
        "oracle gained nothing — sweep would be vacuous"
    );

    let mut group = c.benchmark_group("mitigation_sweep");
    group.sample_size(10);
    group.bench_function("none", |b| b.iter(|| run(&jobs, None)));
    for &threshold in &THRESHOLDS {
        group.bench_function(
            BenchmarkId::new("threshold", format!("{:.0}", threshold * 100.0)),
            |b| {
                b.iter(|| {
                    run(
                        &jobs,
                        Some(threshold_mitigator(threshold, Some(CLONE_BUDGET))),
                    )
                });
            },
        );
    }
    group.bench_function(
        BenchmarkId::new("banded", format!("{:.0}_{:.0}", hi * 100.0, lo * 100.0)),
        |b| {
            b.iter(|| {
                run(
                    &jobs,
                    Some(banded_mitigator(hi, lo, patience, Some(CLONE_BUDGET))),
                )
            });
        },
    );
    group.bench_function("oracle", |b| {
        b.iter(|| run(&jobs, Some(oracle_mitigator(&jobs, QUANTILE))));
    });
    group.finish();
}

criterion_group!(benches, bench_mitigation_sweep);
criterion_main!(benches);
