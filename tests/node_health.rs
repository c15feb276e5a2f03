//! Acceptance properties for the node-health subsystem (PR 8):
//!
//! 1. **Disabled ⇒ invisible** — with `node_model: None` the whole loop
//!    (traces, engine outcomes, action logs) is bit-identical at shard
//!    counts {1, 2, 8}, and attaching a [`HealthAggregator`] observer
//!    changes *nothing* in the run's outputs (the bit-invisibility
//!    contract of [`nurd::serve::HealthObserver`]).
//! 2. **Sick node found, and worth finding** — on a seeded sick-node
//!    fleet the aggregator convicts exactly the planted machine, and the
//!    node-aware policy beats every node-blind threshold policy at equal
//!    or lower wasted-work fraction on mean JCT.
//! 3. **Recovery equivalence** — an aggregator carried through
//!    crash → `recover_with_observer` ends with exactly the state of one
//!    that observed the same stream on a never-crashed service.

use std::collections::BTreeMap;
use std::sync::Arc;

use nurd::health::{HealthAggregator, HealthConfig, NodeVerdict};
use nurd::mitigate::{
    run_fleet, run_node_fleet, threshold_mitigator, FleetConfig, NodeFleetConfig,
};
use nurd::serve::{EngineConfig, EngineService, HealthObserver, PersistenceConfig, ServiceConfig};
use nurd::sim::MitigationSimConfig;
use nurd::trace::{NodeModel, NodeModelConfig, SuiteConfig, TraceStyle};

fn base_suite() -> SuiteConfig {
    SuiteConfig::new(TraceStyle::Google)
        .with_jobs(6)
        .with_task_range(60, 90)
        .with_checkpoints(8)
        .with_seed(0xBAD5EED)
}

fn node_model() -> NodeModelConfig {
    NodeModelConfig::new(12).with_unhealthy(1, 2)
}

fn node_suite() -> SuiteConfig {
    base_suite().with_node_model(node_model())
}

fn fleet(shards: usize, node_resample: bool) -> FleetConfig {
    FleetConfig {
        shards,
        sim: MitigationSimConfig {
            node_resample,
            ..MitigationSimConfig::default()
        },
    }
}

#[test]
fn disabled_node_model_is_bit_identical_across_shards_and_observers() {
    let jobs = nurd::trace::generate_suite(&base_suite());
    // With the node model disabled no job carries a placement.
    assert!(jobs.iter().all(|j| j.node_placement().is_none()));

    let reference = run_fleet(
        &jobs,
        Some(threshold_mitigator(1.0, Some(8))),
        &fleet(1, false),
    );
    for shards in [2, 8] {
        let run = run_fleet(
            &jobs,
            Some(threshold_mitigator(1.0, Some(8))),
            &fleet(shards, false),
        );
        assert_eq!(
            run.action_log, reference.action_log,
            "action log diverged at {shards} shards"
        );
        assert_eq!(
            run.reports, reference.reports,
            "reports diverged at {shards} shards"
        );
        assert_eq!(run.outcomes, reference.outcomes);
    }

    // Attaching the aggregator observer is bit-invisible to every output
    // — and on a placement-less fleet it also learns nothing.
    let node_run = run_node_fleet(
        &jobs,
        &NodeFleetConfig {
            fleet: fleet(4, false),
            ..NodeFleetConfig::default()
        },
    );
    let unobserved = run_fleet(&jobs, None, &fleet(4, false));
    assert_eq!(node_run.observed.reports, unobserved.reports);
    assert_eq!(node_run.observed.outcomes, unobserved.outcomes);
    assert!(node_run.verdicts.is_empty(), "no placement ⇒ no verdicts");
}

#[test]
fn node_fleet_action_log_is_bit_identical_across_shards() {
    let jobs = nurd::trace::generate_suite(&node_suite());
    let run_at = |shards: usize| {
        run_node_fleet(
            &jobs,
            &NodeFleetConfig {
                fleet: fleet(shards, true),
                ..NodeFleetConfig::default()
            },
        )
    };
    let reference = run_at(1);
    for shards in [2, 8] {
        let run = run_at(shards);
        assert_eq!(run.verdicts, reference.verdicts);
        assert_eq!(run.mitigated.action_log, reference.mitigated.action_log);
        assert_eq!(run.mitigated.reports, reference.mitigated.reports);
    }
}

#[test]
fn aggregator_convicts_the_planted_sick_node_and_the_verdict_pays() {
    let suite = node_suite();
    let jobs = nurd::trace::generate_suite(&suite);
    let run = run_node_fleet(
        &jobs,
        &NodeFleetConfig {
            fleet: fleet(4, true),
            // Match the sweep family's plain-threshold knob so the
            // node axis is the only difference.
            score_threshold: 1.2,
            watch_threshold: 1.2,
        },
    );

    // The aggregator's quarantine list is exactly the planted sick node.
    let model = NodeModel::build(&node_model());
    let quarantined: Vec<u32> = run
        .verdicts
        .iter()
        .filter(|(_, v)| **v == NodeVerdict::Quarantine)
        .map(|(n, _)| *n)
        .collect();
    assert_eq!(quarantined, model.sick_nodes(), "convicted ≠ planted");

    // And the conviction pays: against every node-blind threshold policy
    // whose wasted-work fraction is equal or lower, the node-aware run
    // has the strictly larger mean-JCT reduction.
    let aware = &run.mitigated.summary;
    assert!(aware.mean_jct_reduction_percent > 0.0);
    let mut best_blind = f64::MIN;
    for budget in [Some(8), Some(16), None] {
        for threshold in [0.4, 0.6, 0.8, 1.0, 1.2] {
            let blind = run_fleet(
                &jobs,
                Some(threshold_mitigator(threshold, budget)),
                &fleet(4, true),
            );
            if blind.summary.wasted_fraction <= aware.wasted_fraction {
                best_blind = best_blind.max(blind.summary.mean_jct_reduction_percent);
            }
        }
    }
    assert!(
        aware.mean_jct_reduction_percent > best_blind,
        "node-aware {:.2}% did not beat best equal-or-lower-waste blind {:.2}%",
        aware.mean_jct_reduction_percent,
        best_blind,
    );
}

#[test]
fn quarantine_actions_flow_end_to_end() {
    // Policy emits → engine commits (log + counter) → simulator restarts
    // the clock: the full MitigationAction::Quarantine path.
    let suite = node_suite();
    let jobs = nurd::trace::generate_suite(&suite);
    let model = NodeModel::build(&node_model());
    let sick = model.sick_nodes();

    let run = run_node_fleet(
        &jobs,
        &NodeFleetConfig {
            fleet: fleet(4, true),
            ..NodeFleetConfig::default()
        },
    );
    let quarantines: Vec<_> = run
        .mitigated
        .action_log
        .iter()
        .filter(|r| r.action == nurd::data::MitigationAction::Quarantine)
        .collect();
    assert!(!quarantines.is_empty(), "no quarantines committed");

    // Every committed quarantine targets a task placed on the sick node.
    for record in &quarantines {
        let job = jobs.iter().find(|j| j.job_id() == record.job).unwrap();
        let nodes = job.node_placement().unwrap();
        assert!(
            sick.contains(&nodes[record.task]),
            "job {} task {} quarantined on healthy node {}",
            record.job,
            record.task,
            nodes[record.task],
        );
    }

    // Simulator restarts the clock: the quarantined task's completion is
    // strictly after the action time, via mitigation, and its kill is
    // priced as wasted work.
    for (report, outcome) in run.mitigated.reports.iter().zip(&run.mitigated.outcomes) {
        let mut expected_waste = 0.0;
        for record in &report.actions {
            if record.action != nurd::data::MitigationAction::Quarantine {
                continue;
            }
            let completion = outcome.completions[record.task];
            assert!(completion.via_mitigation);
            assert!(completion.time > record.time);
            expected_waste += record.time;
        }
        assert!(
            outcome.wasted_work >= expected_waste - 1e-9,
            "job {}: waste {} below the killed work {}",
            report.job,
            outcome.wasted_work,
            expected_waste,
        );
    }
}

/// Plays `events` into a fresh service with `aggregator` attached and
/// closes it; the aggregator is left holding the run's observations.
fn observe_stream(
    events: Vec<nurd::data::TaskEvent>,
    aggregator: &Arc<HealthAggregator>,
    shards: usize,
) {
    let service = EngineService::start(
        EngineConfig {
            shards,
            ..EngineConfig::default()
        },
        ServiceConfig::default(),
        nurd::mitigate::nurd_predictor_factory(),
    );
    assert!(service.attach_observer(Arc::clone(aggregator) as Arc<dyn HealthObserver>));
    service.push_all(events);
    let _ = service.close();
}

#[test]
fn recovered_aggregator_decides_like_never_crashed() {
    let jobs = nurd::trace::generate_suite(&node_suite());
    let events: Vec<_> = nurd::trace::staggered_fleet_events(&jobs, 0.9, 120.0, 0xF1EE7);

    // Control: the whole stream on a never-crashed service.
    let control = Arc::new(HealthAggregator::new(HealthConfig::default()));
    observe_stream(events.clone(), &control, 4);

    // Crash path: play a prefix, checkpoint (captures the observer blob),
    // play more, then "crash" (drop without close — the WAL tail
    // survives, the in-memory aggregator does not).
    let dir = std::env::temp_dir().join(format!("nurd-health-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut persistence = PersistenceConfig::new(&dir);
    persistence.max_unsynced_events = usize::MAX;
    let split = events.len() * 2 / 3;
    {
        let service = EngineService::start_persistent(
            EngineConfig {
                shards: 4,
                ..EngineConfig::default()
            },
            ServiceConfig::default(),
            persistence.clone(),
            nurd::mitigate::nurd_predictor_factory(),
        )
        .unwrap();
        let before_crash = Arc::new(HealthAggregator::new(HealthConfig::default()));
        assert!(service.attach_observer(before_crash as Arc<dyn HealthObserver>));
        service.push_all(events[..split / 2].to_vec());
        service.quiesce();
        service.checkpoint().unwrap();
        service.push_all(events[split / 2..split].to_vec());
        // Crash: drop. The Drop impl drains and flushes the WAL but the
        // aggregator's in-memory state dies with the process image.
    }

    // Recover with a *fresh* aggregator: the snapshot blob restores the
    // pre-checkpoint observations, the WAL suffix is re-observed live.
    let recovered = Arc::new(HealthAggregator::new(HealthConfig::default()));
    let (service, report) = EngineService::recover_with_observer(
        persistence,
        EngineConfig {
            shards: 4,
            ..EngineConfig::default()
        },
        ServiceConfig::default(),
        nurd::mitigate::nurd_predictor_factory(),
        None,
        Arc::clone(&recovered) as Arc<dyn HealthObserver>,
    )
    .unwrap();
    assert!(report.wal_events_replayed > 0, "crash lost the whole tail");
    service.push_all(events[split..].to_vec());
    let _ = service.close();

    assert_eq!(recovered.rates(), control.rates(), "recovery diverged");
    let expected: BTreeMap<u32, NodeVerdict> = control.verdicts();
    assert_eq!(recovered.verdicts(), expected);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every artifact in `from`, copied into a fresh `to`.
fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// Recovery replays a generation's WAL segments on `drain_workers + 1`
/// threads, so its thread count follows the service config. One crashed
/// directory, recovered with one drain worker (two replay threads) and
/// with four (one thread per segment of the 4-shard chain), must give
/// the same receipt, write the same snapshot bytes and observer blob at
/// the next checkpoint, and finish to the same report.
#[test]
fn recovery_is_thread_count_invariant() {
    let jobs = nurd::trace::generate_suite(&node_suite());
    let events: Vec<_> = nurd::trace::staggered_fleet_events(&jobs, 0.9, 120.0, 0xF1EE7);
    let engine = || EngineConfig {
        shards: 4,
        ..EngineConfig::default()
    };
    let root = std::env::temp_dir().join(format!("nurd-health-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let crashed = root.join("crashed");
    let mut persistence = PersistenceConfig::new(&crashed);
    persistence.max_unsynced_events = usize::MAX;
    let split = events.len() * 2 / 3;
    {
        let service = EngineService::start_persistent(
            engine(),
            ServiceConfig::default(),
            persistence,
            nurd::mitigate::nurd_predictor_factory(),
        )
        .unwrap();
        let observer = Arc::new(HealthAggregator::new(HealthConfig::default()));
        assert!(service.attach_observer(observer as Arc<dyn HealthObserver>));
        service.push_all(events[..split / 2].to_vec());
        service.quiesce();
        service.checkpoint().unwrap();
        service.push_all(events[split / 2..split].to_vec());
        // The crash: dropped without close().
    }

    let runs: Vec<_> = [1, 4]
        .into_iter()
        .map(|drain_workers| {
            let dir = root.join(format!("workers-{drain_workers}"));
            copy_dir(&crashed, &dir);
            let observer = Arc::new(HealthAggregator::new(HealthConfig::default()));
            let (service, receipt) = EngineService::recover_with_observer(
                PersistenceConfig::new(&dir),
                engine(),
                ServiceConfig { drain_workers },
                nurd::mitigate::nurd_predictor_factory(),
                None,
                Arc::clone(&observer) as Arc<dyn HealthObserver>,
            )
            .unwrap();
            assert!(receipt.wal_events_replayed > 0, "crash lost the whole tail");
            let generation = service.checkpoint().unwrap();
            let snapshot = std::fs::read(dir.join(format!("snap-{generation}.bin"))).unwrap();
            let blob = observer.snapshot_state();
            service.push_all(events[split..].to_vec());
            (
                receipt,
                snapshot,
                blob,
                service.close(),
                observer.verdicts(),
            )
        })
        .collect();
    let _ = std::fs::remove_dir_all(&root);

    let (one, many) = (&runs[0], &runs[1]);
    assert_eq!(one.0, many.0, "receipts differ");
    assert!(one.1 == many.1, "snapshot bytes differ");
    assert!(one.2 == many.2, "observer blobs differ");
    assert_eq!(one.3, many.3, "final reports differ");
    assert_eq!(one.4, many.4, "verdicts differ");
}
