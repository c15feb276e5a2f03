//! Quarantine economics on a correlated sick-node fleet:
//!
//! * `node_health_sweep/baseline` — the node fleet served with no
//!   mitigator (pricing anchor; also one observation pass's cost).
//! * `node_health_sweep/blind_threshold` — the best node-blind
//!   [`threshold_mitigator`] row: per-task scores only, no node axis.
//! * `node_health_sweep/node_aware` — the full two-pass loop
//!   ([`run_node_fleet`]): observe with the [`HealthAggregator`]
//!   attached, freeze verdicts, quarantine the convicted machine's tasks
//!   (simulated with node-correlated resampling, so a relaunch escapes
//!   the sick machine's latency distribution).
//!
//! Before timing, a pricing table prints mean-JCT reduction and
//! wasted-work fractions, and two gates are asserted rather than
//! eyeballed — the aggregator convicts exactly the planted sick node,
//! and the node-aware run beats the blind row's JCT reduction (same
//! gates as `examples/node_health_smoke.rs`, so a regression fails CI
//! and the bench alike).
//!
//! [`HealthAggregator`]: nurd_health::HealthAggregator
//! [`threshold_mitigator`]: nurd_mitigate::threshold_mitigator
//! [`run_node_fleet`]: nurd_mitigate::run_node_fleet

use criterion::{criterion_group, criterion_main, Criterion};

use nurd_health::NodeVerdict;
use nurd_mitigate::{run_fleet, run_node_fleet, threshold_mitigator, FleetConfig, NodeFleetConfig};
use nurd_sim::MitigationSimConfig;
use nurd_trace::{NodeModel, NodeModelConfig, SuiteConfig, TraceStyle};

const BLIND_THRESHOLD: f64 = 1.0;
const CLONE_BUDGET: usize = 8;

fn node_model() -> NodeModelConfig {
    NodeModelConfig::new(12).with_unhealthy(1, 2)
}

fn suite() -> SuiteConfig {
    SuiteConfig::new(TraceStyle::Google)
        .with_jobs(8)
        .with_task_range(80, 120)
        .with_checkpoints(10)
        .with_seed(0x317)
        .with_node_model(node_model())
}

fn fleet() -> FleetConfig {
    FleetConfig {
        sim: MitigationSimConfig {
            node_resample: true,
            ..MitigationSimConfig::default()
        },
        ..FleetConfig::default()
    }
}

fn node_config() -> NodeFleetConfig {
    NodeFleetConfig {
        fleet: fleet(),
        score_threshold: 1.2,
        watch_threshold: 1.2,
        ..NodeFleetConfig::default()
    }
}

fn bench_node_health_sweep(c: &mut Criterion) {
    let cfg = suite();
    let jobs = nurd_trace::generate_suite(&cfg);

    // Pricing table + gates, unmeasured.
    let aware = run_node_fleet(&jobs, &node_config());
    let blind = run_fleet(
        &jobs,
        Some(threshold_mitigator(BLIND_THRESHOLD, Some(CLONE_BUDGET))),
        &fleet(),
    );
    let planted = NodeModel::build(&node_model()).sick_nodes();
    let convicted: Vec<u32> = aware
        .verdicts
        .iter()
        .filter(|(_, v)| **v == NodeVerdict::Quarantine)
        .map(|(n, _)| *n)
        .collect();
    eprintln!(
        "node_health_sweep workload: {} jobs on {} nodes, sick {planted:?}, convicted {convicted:?}",
        jobs.len(),
        node_model().nodes,
    );
    eprintln!("policy            jct-reduction%   wasted-work%   quarantines");
    eprintln!(
        "{:<18}{:>12.2}{:>14.2}   {}",
        "blind-threshold",
        blind.summary.mean_jct_reduction_percent,
        blind.summary.wasted_fraction * 100.0,
        0,
    );
    eprintln!(
        "{:<18}{:>12.2}{:>14.2}   {}",
        "node-aware",
        aware.mitigated.summary.mean_jct_reduction_percent,
        aware.mitigated.summary.wasted_fraction * 100.0,
        aware.mitigated.summary.quarantines,
    );
    assert_eq!(convicted, planted, "aggregator convicted ≠ planted");
    assert!(
        aware.mitigated.summary.mean_jct_reduction_percent
            > blind.summary.mean_jct_reduction_percent,
        "node-aware did not beat the blind threshold"
    );

    let mut group = c.benchmark_group("node_health_sweep");
    group.sample_size(10);
    group.bench_function("baseline", |b| b.iter(|| run_fleet(&jobs, None, &fleet())));
    group.bench_function("blind_threshold", |b| {
        b.iter(|| {
            run_fleet(
                &jobs,
                Some(threshold_mitigator(BLIND_THRESHOLD, Some(CLONE_BUDGET))),
                &fleet(),
            )
        });
    });
    group.bench_function("node_aware", |b| {
        b.iter(|| run_node_fleet(&jobs, &node_config()));
    });
    group.finish();
}

criterion_group!(benches, bench_node_health_sweep);
criterion_main!(benches);
