//! Job and suite generation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nurd_data::{JobTrace, TaskRecord};

use crate::config::{SuiteConfig, TraceStyle};
use crate::dist;
use crate::features::{self, JobBaselines, ALIBABA_FEATURES, GOOGLE_FEATURES};
use crate::latency::{plan_job, LatencyFamily};
use crate::node::NodeModel;
use crate::parallel::{cores, per_job};

/// Names of the feature columns the node-model overlay appends (in
/// order): co-resident task count on the task's node, and the node's
/// rolling straggler rate among its finished tasks.
const NODE_FEATURES: [&str; 2] = ["node_coresident", "node_strag_rate"];

/// Generates one job deterministically from `(config, job_id)`.
///
/// The job's RNG stream is derived from the suite seed and the job id, so
/// individual jobs can be regenerated without the rest of the suite.
///
/// # Panics
///
/// Panics if `config.checkpoints == 0` or the task range is empty (the
/// builder validates these, so only hand-rolled configs can trip it).
#[must_use]
pub fn generate_job(config: &SuiteConfig, job_id: u64) -> JobTrace {
    generate_job_detailed(config, job_id).0
}

/// Like [`generate_job`], but also returns each task's latent
/// [`crate::TaskPlan`] (ground-truth cause, decoy flag, signature).
///
/// The plans are *generator metadata*: predictors never see them. They
/// exist for cause-stratified evaluation and for tests that need to assert
/// on planted structure.
///
/// # Panics
///
/// Same conditions as [`generate_job`].
#[must_use]
pub fn generate_job_detailed(
    config: &SuiteConfig,
    job_id: u64,
) -> (JobTrace, Vec<crate::TaskPlan>) {
    assert!(config.checkpoints > 0, "need at least one checkpoint");
    let mut rng = StdRng::seed_from_u64(config.seed ^ job_id.wrapping_mul(0x9E37_79B9_7F4A_7C15));

    let n_tasks = rng.gen_range(config.tasks_min..=config.tasks_max);
    let median = dist::uniform(&mut rng, 60.0, 600.0);
    let family = LatencyFamily::sample(&mut rng, config.long_tail_fraction);
    let mut plans = plan_job(
        &mut rng,
        n_tasks,
        median,
        &family,
        &config.cause_mix,
        config.straggler_fraction,
        config.decoy_fraction,
    );

    // Checkpoint schedule: regular time intervals over the job's lifetime
    // (the paper's traces record task metrics "at regular time
    // checkpoints"), padded slightly past the slowest task so the replay
    // observes every completion. Regular spacing matters behaviorally: the
    // first prediction then lands after a sizeable share of the body has
    // finished, giving the per-job models real training support.
    let checkpoint_times = schedule(&plans, config.checkpoints);

    let baselines = JobBaselines::sample(&mut rng);
    let width = features::width(config.style);
    let tasks: Vec<TaskRecord> = plans
        .iter()
        .enumerate()
        .map(|(id, plan)| {
            let series = features::task_feature_series(
                &mut rng,
                config.style,
                plan,
                &baselines,
                &checkpoint_times,
            );
            TaskRecord::from_flat(id, plan.latency, width, series)
        })
        .collect();

    let mut feature_names: Vec<String> = match config.style {
        TraceStyle::Google => GOOGLE_FEATURES.iter().map(|(n, _)| (*n).into()).collect(),
        TraceStyle::Alibaba => ALIBABA_FEATURES.iter().map(|(n, _)| (*n).into()).collect(),
    };

    // The node model is a pure overlay: the base stream above never saw
    // it, so a `None` model is bit-identical to the pre-node-model
    // generator. When enabled, co-located tasks are stretched by their
    // node's factor, the checkpoint schedule is re-derived (same formula
    // over the new max latency), snapshots are re-frozen at each task's
    // *new* finishing checkpoint, and two node feature columns are
    // appended (no extra RNG draws anywhere on this path).
    let (tasks, checkpoint_times, placement) = match &config.node_model {
        None => (tasks, checkpoint_times, None),
        Some(nm) => {
            let model = NodeModel::build(nm);
            let placement = model.placement(job_id, n_tasks);
            for (plan, &node) in plans.iter_mut().zip(&placement) {
                plan.latency *= model.factor(node);
            }
            let times = schedule(&plans, config.checkpoints);
            let tasks = node_overlay(&tasks, &plans, &placement, model.node_count(), &times);
            feature_names.extend(NODE_FEATURES.iter().map(|n| (*n).to_string()));
            (tasks, times, Some(placement))
        }
    };

    let trace = JobTrace::new(job_id, feature_names, checkpoint_times, tasks)
        .expect("generator produces structurally valid jobs");
    let trace = match placement {
        Some(nodes) => trace
            .with_nodes(nodes)
            .expect("placement covers every task"),
        None => trace,
    };
    (trace, plans)
}

/// `checkpoints` regular checkpoint times up to 2 % past the slowest plan.
fn schedule(plans: &[crate::TaskPlan], checkpoints: usize) -> Vec<f64> {
    let max_latency = plans
        .iter()
        .map(|p| p.latency)
        .fold(f64::NEG_INFINITY, f64::max);
    let horizon = max_latency * 1.02;
    (1..=checkpoints)
        .map(|k| horizon * k as f64 / checkpoints as f64)
        .collect()
}

/// Rebuilds every task's series under the node model: `plans` carry the
/// stretched latencies, `times` the schedule derived from them. Each
/// snapshot gains the task's node's co-resident count and that node's
/// straggler share among its tasks finished by the checkpoint (0 while
/// none have), and freezes at the task's new finishing checkpoint.
///
/// One pass over the tasks: co-residents are counted per node, and
/// finishes and stragglers per (finishing checkpoint, node), then summed
/// over checkpoints.
fn node_overlay(
    tasks: &[TaskRecord],
    plans: &[crate::TaskPlan],
    placement: &[u32],
    node_count: u32,
    times: &[f64],
) -> Vec<TaskRecord> {
    let (nodes, checkpoints) = (node_count as usize, times.len());
    let threshold = quantile(plans.iter().map(|p| p.latency).collect(), 0.9);
    let fin_at: Vec<usize> = plans
        .iter()
        .map(|p| times.partition_point(|&t| t < p.latency))
        .collect();
    let mut coresident = vec![0u32; nodes];
    // (finished, stragglers) per node by checkpoint, at [k * nodes + node].
    let mut counts = vec![(0u32, 0u32); checkpoints * nodes];
    for (t, plan) in plans.iter().enumerate() {
        let node = placement[t] as usize;
        coresident[node] += 1;
        // A task that no checkpoint covers lands past the end.
        if let Some(slot) = counts.get_mut(fin_at[t] * nodes + node) {
            slot.0 += 1;
            slot.1 += u32::from(plan.latency >= threshold);
        }
    }
    for i in nodes..counts.len() {
        counts[i].0 += counts[i - nodes].0;
        counts[i].1 += counts[i - nodes].1;
    }

    tasks
        .iter()
        .enumerate()
        .map(|(t, task)| {
            let wide = task.snapshot(0).len() + NODE_FEATURES.len();
            let kstar = fin_at[t].min(checkpoints - 1);
            let node = placement[t] as usize;
            let mut values = Vec::with_capacity(checkpoints * wide);
            for k in 0..=kstar {
                let (fin, strag) = counts[k * nodes + node];
                values.extend_from_slice(task.snapshot(k));
                values.push(f64::from(coresident[node]));
                // No straggler has finished while no task has: 0 / 1.
                values.push(f64::from(strag) / f64::from(fin.max(1)));
            }
            let frozen = kstar * wide;
            for _ in kstar + 1..checkpoints {
                values.extend_from_within(frozen..frozen + wide);
            }
            TaskRecord::from_flat(t, plans[t].latency, wide, values)
        })
        .collect()
}

/// Interpolated latency quantile (the same order-statistic interpolation
/// [`JobTrace::straggler_threshold`] uses, applied before the trace
/// object exists).
fn quantile(mut values: Vec<f64>, q: f64) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        values[lo]
    } else {
        let frac = pos - lo as f64;
        values[lo] * (1.0 - frac) + values[hi] * frac
    }
}

/// Generates the whole suite: job `i` is [`generate_job`]`(config, i)`.
///
/// Jobs are generated in parallel, one per thread, on the machine's cores
/// (capped at the job count). Each job is a pure function of `(config,
/// job id)` and the suite is returned in job order, so it is the same at
/// any thread count.
///
/// # Panics
///
/// Same conditions as [`generate_job`], with its message.
#[must_use]
pub fn generate_suite(config: &SuiteConfig) -> Vec<JobTrace> {
    generate_suite_on(config, cores())
}

/// [`generate_suite`] on `threads` threads.
pub(crate) fn generate_suite_on(config: &SuiteConfig, threads: usize) -> Vec<JobTrace> {
    let ids: Vec<u64> = (0..config.jobs as u64).collect();
    per_job(&ids, threads, |&job_id| generate_job(config, job_id))
}

/// The oracle of [`generate_job_detailed`]: the generator as it was
/// before series became flat buffers — one vector per snapshot, and a node
/// overlay that scans every task for every task and for every
/// (checkpoint, node) pair.
#[cfg(test)]
pub(crate) fn reference_job_detailed(
    config: &SuiteConfig,
    job_id: u64,
) -> (JobTrace, Vec<crate::TaskPlan>) {
    assert!(config.checkpoints > 0, "need at least one checkpoint");
    let mut rng = StdRng::seed_from_u64(config.seed ^ job_id.wrapping_mul(0x9E37_79B9_7F4A_7C15));

    let n_tasks = rng.gen_range(config.tasks_min..=config.tasks_max);
    let median = dist::uniform(&mut rng, 60.0, 600.0);
    let family = LatencyFamily::sample(&mut rng, config.long_tail_fraction);
    let mut plans = plan_job(
        &mut rng,
        n_tasks,
        median,
        &family,
        &config.cause_mix,
        config.straggler_fraction,
        config.decoy_fraction,
    );

    // Checkpoint schedule: regular time intervals over the job's lifetime
    // (the paper's traces record task metrics "at regular time
    // checkpoints"), padded slightly past the slowest task so the replay
    // observes every completion. Regular spacing matters behaviorally: the
    // first prediction then lands after a sizeable share of the body has
    // finished, giving the per-job models real training support.
    let max_latency = plans
        .iter()
        .map(|p| p.latency)
        .fold(f64::NEG_INFINITY, f64::max);
    let horizon = max_latency * 1.02;
    let checkpoint_times: Vec<f64> = (1..=config.checkpoints)
        .map(|k| horizon * k as f64 / config.checkpoints as f64)
        .collect();

    let baselines = JobBaselines::sample(&mut rng);
    let tasks: Vec<TaskRecord> = plans
        .iter()
        .enumerate()
        .map(|(id, plan)| {
            let series = features::reference_series(
                &mut rng,
                config.style,
                plan,
                &baselines,
                &checkpoint_times,
            );
            TaskRecord::new(id, plan.latency, series)
        })
        .collect();

    let mut feature_names: Vec<String> = match config.style {
        TraceStyle::Google => GOOGLE_FEATURES.iter().map(|(n, _)| (*n).into()).collect(),
        TraceStyle::Alibaba => ALIBABA_FEATURES.iter().map(|(n, _)| (*n).into()).collect(),
    };

    // The node model is a pure overlay: the base stream above never saw
    // it, so a `None` model is bit-identical to the pre-node-model
    // generator. When enabled, co-located tasks are stretched by their
    // node's factor, the checkpoint schedule is re-derived (same formula
    // over the new max latency), snapshots are re-frozen at each task's
    // *new* finishing checkpoint, and two node feature columns are
    // appended (no extra RNG draws anywhere on this path).
    let placement = config.node_model.as_ref().map(|nm| {
        let model = NodeModel::build(nm);
        (model.placement(job_id, n_tasks), model)
    });
    let (tasks, checkpoint_times, placement) = match placement {
        None => (tasks, checkpoint_times, None),
        Some((placement, model)) => {
            for (plan, &node) in plans.iter_mut().zip(&placement) {
                plan.latency *= model.factor(node);
            }
            let max_latency = plans
                .iter()
                .map(|p| p.latency)
                .fold(f64::NEG_INFINITY, f64::max);
            let horizon = max_latency * 1.02;
            let new_times: Vec<f64> = (1..=config.checkpoints)
                .map(|k| horizon * k as f64 / config.checkpoints as f64)
                .collect();

            // Per-node bookkeeping for the derived columns.
            let coresident: Vec<f64> = placement
                .iter()
                .map(|&n| placement.iter().filter(|&&m| m == n).count() as f64)
                .collect();
            let threshold = quantile(plans.iter().map(|p| p.latency).collect(), 0.9);
            // finishing ordinal of each task under the new schedule
            let fin_at: Vec<usize> = plans
                .iter()
                .map(|p| new_times.partition_point(|&t| t < p.latency))
                .collect();
            // rate[k][node] = straggler share among node's tasks finished
            // by checkpoint k (0 while none have finished).
            let node_count = model.node_count() as usize;
            let mut rate = vec![vec![0.0f64; node_count]; config.checkpoints];
            for (k, row) in rate.iter_mut().enumerate() {
                for (node, slot) in row.iter_mut().enumerate() {
                    let mut fin = 0u32;
                    let mut strag = 0u32;
                    for (t, plan) in plans.iter().enumerate() {
                        if placement[t] as usize == node && fin_at[t] <= k {
                            fin += 1;
                            if plan.latency >= threshold {
                                strag += 1;
                            }
                        }
                    }
                    if fin > 0 {
                        *slot = f64::from(strag) / f64::from(fin);
                    }
                }
            }

            let tasks: Vec<TaskRecord> = tasks
                .iter()
                .enumerate()
                .map(|(t, task)| {
                    let kstar = fin_at[t].min(config.checkpoints - 1);
                    let node = placement[t] as usize;
                    let series: Vec<Vec<f64>> = (0..config.checkpoints)
                        .map(|k| {
                            let e = k.min(kstar);
                            let mut snap = task.snapshot(e).to_vec();
                            snap.push(coresident[t]);
                            snap.push(rate[e][node]);
                            snap
                        })
                        .collect();
                    TaskRecord::new(t, plans[t].latency, series)
                })
                .collect();
            feature_names.extend(NODE_FEATURES.iter().map(|n| (*n).to_string()));
            (tasks, new_times, Some(placement))
        }
    };

    let trace = JobTrace::new(job_id, feature_names, checkpoint_times, tasks)
        .expect("generator produces structurally valid jobs");
    let trace = match placement {
        Some(nodes) => trace
            .with_nodes(nodes)
            .expect("placement covers every task"),
        None => trace,
    };
    (trace, plans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CauseMix;
    use proptest::prelude::*;

    fn tiny(style: TraceStyle) -> SuiteConfig {
        SuiteConfig::new(style)
            .with_jobs(2)
            .with_task_range(40, 60)
            .with_checkpoints(8)
            .with_seed(3)
    }

    #[test]
    fn google_job_shape() {
        let job = generate_job(&tiny(TraceStyle::Google), 0);
        assert_eq!(job.feature_dim(), 15);
        assert_eq!(job.checkpoint_count(), 8);
        assert!((40..=60).contains(&job.task_count()));
    }

    #[test]
    fn alibaba_job_shape() {
        let job = generate_job(&tiny(TraceStyle::Alibaba), 0);
        assert_eq!(job.feature_dim(), 4);
        assert_eq!(job.feature_names()[0], "cpu_avg");
    }

    #[test]
    fn deterministic_per_job_id() {
        let cfg = tiny(TraceStyle::Google);
        assert_eq!(generate_job(&cfg, 5), generate_job(&cfg, 5));
        assert_ne!(generate_job(&cfg, 5), generate_job(&cfg, 6));
    }

    #[test]
    fn final_checkpoint_covers_all_tasks() {
        let job = generate_job(&tiny(TraceStyle::Google), 1);
        let last = *job.checkpoint_times().last().unwrap();
        assert!(job.tasks().iter().all(|t| t.latency() <= last));
    }

    #[test]
    fn p90_threshold_separates_a_top_decile() {
        let cfg = tiny(TraceStyle::Google).with_task_range(200, 200);
        let job = generate_job(&cfg, 2);
        let thr = job.straggler_threshold(0.9);
        let stragglers = job.true_stragglers(thr).len();
        let frac = stragglers as f64 / job.task_count() as f64;
        assert!((0.05..=0.15).contains(&frac), "straggler fraction {frac}");
    }

    #[test]
    fn long_tail_jobs_have_threshold_below_half_max() {
        // Purely long-tailed suite: p90 ≪ max/2 (Figure 1 left).
        let cfg = SuiteConfig::new(TraceStyle::Google)
            .with_jobs(6)
            .with_task_range(150, 200)
            .with_checkpoints(6)
            .with_long_tail_fraction(1.0)
            .with_seed(11);
        let mut below = 0;
        for job in generate_suite(&cfg) {
            if job.straggler_threshold(0.9) < 0.5 * job.max_latency() {
                below += 1;
            }
        }
        assert!(below >= 4, "only {below}/6 long-tail jobs below half-max");
    }

    #[test]
    fn close_tail_jobs_have_threshold_above_half_max() {
        let cfg = SuiteConfig::new(TraceStyle::Google)
            .with_jobs(6)
            .with_task_range(150, 200)
            .with_checkpoints(6)
            .with_long_tail_fraction(0.0)
            .with_seed(13);
        let mut above = 0;
        for job in generate_suite(&cfg) {
            if job.straggler_threshold(0.9) > 0.5 * job.max_latency() {
                above += 1;
            }
        }
        assert!(above >= 4, "only {above}/6 close-tail jobs above half-max");
    }

    #[test]
    fn all_features_are_finite() {
        let job = generate_job(&tiny(TraceStyle::Google), 7);
        for task in job.tasks() {
            for snap in task.snapshots() {
                assert!(snap.iter().all(|v| v.is_finite()));
            }
        }
    }

    #[test]
    fn node_model_overlay_places_stretches_and_appends_columns() {
        use crate::node::{NodeModel, NodeModelConfig};
        let nm = NodeModelConfig {
            seed: 0x11,
            ..NodeModelConfig::new(6).with_unhealthy(1, 1)
        };
        let base_cfg = tiny(TraceStyle::Google);
        let node_cfg = base_cfg.clone().with_node_model(nm);
        let base = generate_job(&base_cfg, 0);
        let noded = generate_job(&node_cfg, 0);

        // Placement exists, covers every task, and the derived columns
        // are appended after the base feature set.
        let placement = noded.node_placement().expect("placement attached");
        assert_eq!(placement.len(), noded.task_count());
        assert_eq!(noded.feature_dim(), base.feature_dim() + 2);
        assert_eq!(
            &noded.feature_names()[base.feature_dim()..],
            &["node_coresident", "node_strag_rate"]
        );

        // Tasks on unhealthy nodes are stretched by exactly their node's
        // factor; healthy-node tasks keep their base latency.
        let model = NodeModel::build(&nm);
        for (t, task) in noded.tasks().iter().enumerate() {
            let factor = model.factor(placement[t]);
            let expect = base.tasks()[t].latency() * factor;
            assert!(
                (task.latency() - expect).abs() < 1e-9,
                "task {t} latency {} != base*factor {expect}",
                task.latency()
            );
        }

        // Frozen-after-completion holds for the rebuilt snapshots.
        for task in noded.tasks() {
            let kstar = noded
                .checkpoint_times()
                .iter()
                .position(|&ct| ct >= task.latency())
                .expect("horizon covers every task");
            for k in kstar..noded.checkpoint_count() {
                assert_eq!(task.snapshot(k), task.snapshot(kstar));
            }
        }

        // The sick node's rolling straggler rate ends high; an all-healthy
        // node's stays lower. Use the last checkpoint's column value.
        let sick = model.sick_nodes()[0];
        let last = noded.checkpoint_count() - 1;
        let rate_col = base.feature_dim() + 1;
        let sick_task = (0..noded.task_count()).find(|&t| placement[t] == sick);
        if let Some(t) = sick_task {
            let rate = noded.tasks()[t].snapshot(last)[rate_col];
            // The p90 threshold rises with the stretched tail, so not
            // every sick-node task ends above it — but a clear plurality
            // does, far above the ~10% fleet-wide base rate.
            assert!(rate > 0.3, "sick node rate {rate} should be elevated");
        }
    }

    #[test]
    fn disabled_node_model_is_bit_identical_to_default_config() {
        // `node_model: None` must not perturb a single RNG draw.
        let cfg = tiny(TraceStyle::Google);
        let mut explicit = cfg.clone();
        explicit.node_model = None;
        assert_eq!(generate_job(&cfg, 3), generate_job(&explicit, 3));
        let job = generate_job(&cfg, 3);
        assert!(job.node_placement().is_none());
        assert_eq!(job.feature_dim(), 15);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Any seed yields a structurally valid job with ~10% stragglers.
        #[test]
        fn prop_generator_valid_for_any_seed(seed in 0u64..10_000) {
            let cfg = SuiteConfig::new(TraceStyle::Google)
                .with_jobs(1)
                .with_task_range(80, 120)
                .with_checkpoints(10)
                .with_seed(seed);
            let job = generate_job(&cfg, 0);
            let thr = job.straggler_threshold(0.9);
            let frac = job.true_stragglers(thr).len() as f64 / job.task_count() as f64;
            prop_assert!(frac > 0.0 && frac < 0.25);
            prop_assert!(job.warmup_checkpoint(0.04) < job.checkpoint_count());
        }

        /// Cause mixes with a single cause never plant other causes.
        #[test]
        fn prop_single_cause_mix(seed in 0u64..1000) {
            let cfg = SuiteConfig::new(TraceStyle::Google)
                .with_jobs(1)
                .with_task_range(50, 80)
                .with_checkpoints(5)
                .with_seed(seed)
                .with_cause_mix(CauseMix {
                    interference: 1.0,
                    data_skew: 0.0,
                    eviction: 0.0,
                    opaque: 0.0,
                });
            // EV counters can only come from evictions, which this mix forbids
            // (modulo the unconditional rare failures, which use FL not EV).
            let job = generate_job(&cfg, 0);
            for task in job.tasks() {
                let last = task.snapshots().last().unwrap();
                prop_assert_eq!(last[13], 0.0);
            }
        }
    }
}
