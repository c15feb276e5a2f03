//! The node-health loop **as an end-to-end gate**: a seeded fleet with
//! one planted sick machine is served twice — once to let the
//! [`HealthAggregator`] observe, once with the frozen verdicts driving
//! node-aware policy's quarantines — and the run fails unless the
//! detection and the economics both hold:
//!
//! 1. the aggregator's quarantine list is **exactly the planted sick
//!    node** — no miss, no false conviction of a healthy machine;
//! 2. the node-aware policy **beats the node-blind threshold policy** on
//!    mean-JCT reduction: knowing *where* a task runs must be worth
//!    something over per-task scores alone;
//! 3. quarantines actually flow: committed `Quarantine` records exist,
//!    and every one targets a task placed on the sick machine;
//! 4. the node-aware action log is **bit-identical at shard counts
//!    {1, 2, 8}** — verdicts are frozen between passes, so the node axis
//!    must not cost determinism.
//!
//! CI runs this example; it exits nonzero on any violated gate.
//!
//! ```sh
//! cargo run --release --example node_health_smoke
//! ```
//!
//! [`HealthAggregator`]: nurd::health::HealthAggregator

use nurd::data::MitigationAction;
use nurd::health::NodeVerdict;
use nurd::mitigate::{
    run_fleet, run_node_fleet, threshold_mitigator, FleetConfig, NodeFleetConfig,
};
use nurd::sim::MitigationSimConfig;
use nurd::trace::{NodeModel, NodeModelConfig, SuiteConfig, TraceStyle};

const JOBS: usize = 8;
const BLIND_THRESHOLD: f64 = 1.0;
const CLONE_BUDGET: usize = 8;

fn node_model() -> NodeModelConfig {
    NodeModelConfig::new(12).with_unhealthy(1, 2)
}

fn suite() -> SuiteConfig {
    SuiteConfig::new(TraceStyle::Google)
        .with_jobs(JOBS)
        .with_task_range(80, 120)
        .with_checkpoints(10)
        .with_seed(0x317)
        .with_node_model(node_model())
}

fn fleet(shards: usize) -> FleetConfig {
    FleetConfig {
        shards,
        sim: MitigationSimConfig {
            node_resample: true,
            ..MitigationSimConfig::default()
        },
        ..FleetConfig::default()
    }
}

fn node_config(shards: usize) -> NodeFleetConfig {
    NodeFleetConfig {
        fleet: fleet(shards),
        score_threshold: 1.2,
        watch_threshold: 1.2,
        ..NodeFleetConfig::default()
    }
}

fn main() {
    let cfg = suite();
    let jobs = nurd::trace::generate_suite(&cfg);
    let model = NodeModel::build(&node_model());
    println!(
        "node health smoke: {JOBS} jobs on {} nodes, planted sick {:?}",
        node_model().nodes,
        model.sick_nodes(),
    );

    let aware = run_node_fleet(&jobs, &node_config(4));
    let blind = run_fleet(
        &jobs,
        Some(threshold_mitigator(BLIND_THRESHOLD, Some(CLONE_BUDGET))),
        &fleet(4),
    );

    // Gate 1: conviction is exact.
    let convicted: Vec<u32> = aware
        .verdicts
        .iter()
        .filter(|(_, v)| **v == NodeVerdict::Quarantine)
        .map(|(n, _)| *n)
        .collect();
    println!("  verdicts: {:?}", aware.verdicts);
    assert_eq!(
        convicted,
        model.sick_nodes(),
        "aggregator convicted {convicted:?}, planted {:?}",
        model.sick_nodes(),
    );

    // Gate 2: the node axis pays on mean JCT.
    let aware_gain = aware.mitigated.summary.mean_jct_reduction_percent;
    let blind_gain = blind.summary.mean_jct_reduction_percent;
    println!(
        "  blind-threshold  jct-reduction {blind_gain:6.2}%   wasted-work {:5.2}%",
        blind.summary.wasted_fraction * 100.0,
    );
    println!(
        "  node-aware       jct-reduction {aware_gain:6.2}%   wasted-work {:5.2}%   \
         quarantines {}",
        aware.mitigated.summary.wasted_fraction * 100.0,
        aware.mitigated.summary.quarantines,
    );
    assert!(
        aware_gain > blind_gain,
        "node-aware {aware_gain:.2}% did not beat node-blind {blind_gain:.2}%"
    );

    // Gate 3: quarantines flow, and only at the sick machine.
    let quarantines: Vec<_> = aware
        .mitigated
        .action_log
        .iter()
        .filter(|r| r.action == MitigationAction::Quarantine)
        .collect();
    assert!(!quarantines.is_empty(), "no quarantines committed");
    for record in &quarantines {
        let job = jobs.iter().find(|j| j.job_id() == record.job).unwrap();
        let nodes = job.node_placement().unwrap();
        assert!(
            model.sick_nodes().contains(&nodes[record.task]),
            "job {} task {} quarantined on healthy node {}",
            record.job,
            record.task,
            nodes[record.task],
        );
    }

    // Gate 4: bit-identical node-aware action logs across shard counts.
    for shards in [1usize, 2, 8] {
        let rerun = run_node_fleet(&jobs, &node_config(shards));
        assert_eq!(
            rerun.verdicts, aware.verdicts,
            "verdicts diverged at {shards} shards"
        );
        assert_eq!(
            rerun.mitigated.action_log, aware.mitigated.action_log,
            "action log diverged at {shards} shards"
        );
    }
    println!(
        "  action log: {} records ({} quarantines), bit-identical at shards {{1, 2, 8}}",
        aware.mitigated.action_log.len(),
        quarantines.len(),
    );
    println!("node health smoke: all gates passed");
}
