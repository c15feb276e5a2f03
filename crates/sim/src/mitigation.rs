//! Deterministic execution of mitigation action logs against ground truth.
//!
//! [`execute_actions`] takes a job's trace (true latencies), the action log
//! the serving engine committed for it, and replays what a fleet scheduler
//! would have done: clones race their originals and finish at
//! `min(original, clone)` latency, quarantines kill-and-relaunch, and every
//! unit of machine time spent on a losing copy is charged to a wasted-work
//! ledger. The output is a completion ledger (**exactly one completion per
//! task** — the invariant the property suite pins), end-to-end job
//! completion time versus the unmitigated baseline, and catch-rate
//! accounting.
//!
//! # Determinism
//!
//! Relaunch/clone durations are sampled the same way the rescue scheduler
//! samples them — uniformly from the latencies already *observed finished*
//! at the action's barrier time — but indexed by a [SplitMix64] hash of
//! `(seed, job, task)` instead of a sequential RNG, so the result is
//! independent of action-log ordering and of how many other jobs the fleet
//! ran. Same seed + same log ⇒ bit-identical outcome.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

use nurd_data::{ActionRecord, JobTrace, MitigationAction};

/// Knobs for [`execute_actions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MitigationSimConfig {
    /// Seed for clone/relaunch duration sampling. Part of the replay
    /// identity: same seed + same action log ⇒ bit-identical outcome.
    pub seed: u64,
    /// Node-correlated resampling: when the job carries a node placement
    /// ([`JobTrace::node_placement`]), a copy's duration is drawn only
    /// from latencies of tasks on **other** nodes — the scheduler lands
    /// the clone/relaunch on a different machine, so a sick node's slow
    /// latencies never contaminate its own replacement draws. This is
    /// what makes quarantining a sick machine economically measurable.
    /// `false` (the default) keeps the original fleet-wide pool and is
    /// bit-identical to the pre-node-model simulator; jobs without
    /// placement always use the fleet-wide pool.
    pub node_resample: bool,
}

impl Default for MitigationSimConfig {
    fn default() -> Self {
        MitigationSimConfig {
            seed: 0x4d17_16a7,
            node_resample: false,
        }
    }
}

/// One task's final completion in the mitigated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskCompletion {
    /// Task id.
    pub task: usize,
    /// Completion time in the mitigated run.
    pub time: f64,
    /// Whether a mitigation copy (clone or relaunch) produced the final
    /// completion, rather than the original execution.
    pub via_mitigation: bool,
}

/// Everything [`execute_actions`] measured for one job.
#[derive(Debug, Clone, PartialEq)]
pub struct MitigationOutcome {
    /// Job id the outcome belongs to.
    pub job: u64,
    /// Job completion time with no mitigation (max original latency).
    pub jct_baseline: f64,
    /// Job completion time after executing the action log.
    pub jct_mitigated: f64,
    /// Machine time charged to losing copies (clone runtime, killed
    /// originals' progress).
    pub wasted_work: f64,
    /// Total machine time consumed in the mitigated run (useful + wasted).
    pub total_work: f64,
    /// Exactly one entry per task, task-id order — the completion ledger.
    pub completions: Vec<TaskCompletion>,
    /// Clone actions that actually started (target still running).
    pub clones_issued: usize,
    /// Clones that finished before their original.
    pub clones_won: usize,
    /// Clones whose original won the race — pure waste.
    pub clones_wasted: usize,
    /// Quarantine actions that actually started.
    pub quarantines: usize,
    /// Actions targeting tasks already finished (or already actioned /
    /// out of range) — executed as no-ops at zero cost.
    pub void_actions: usize,
    /// Tasks whose true latency is at/above the job threshold.
    pub true_stragglers: usize,
    /// True stragglers that received a non-void action before finishing.
    pub caught_stragglers: usize,
}

impl MitigationOutcome {
    /// JCT improvement over the unmitigated baseline, in percent
    /// (positive = mitigation helped).
    #[must_use]
    fn jct_reduction_percent(&self) -> f64 {
        if self.jct_baseline > 0.0 {
            (self.jct_baseline - self.jct_mitigated) / self.jct_baseline * 100.0
        } else {
            0.0
        }
    }
}

/// Fleet-level aggregation of per-job [`MitigationOutcome`]s.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MitigationSummary {
    /// Number of jobs aggregated.
    pub jobs: usize,
    /// Unweighted mean of per-job JCT reduction percentages.
    pub mean_jct_reduction_percent: f64,
    /// Fleet-total wasted work over fleet-total work.
    pub wasted_fraction: f64,
    /// Fleet-total caught stragglers over fleet-total true stragglers
    /// (`1.0` when the fleet has none).
    pub catch_rate: f64,
    /// Sum of per-job clone counts.
    pub clones_issued: usize,
    /// Sum of per-job winning clones.
    pub clones_won: usize,
    /// Sum of per-job wasted clones.
    pub clones_wasted: usize,
    /// Sum of per-job quarantines.
    pub quarantines: usize,
}

/// Aggregates per-job outcomes into a [`MitigationSummary`].
#[must_use]
pub fn summarize_mitigation(outcomes: &[MitigationOutcome]) -> MitigationSummary {
    if outcomes.is_empty() {
        return MitigationSummary::default();
    }
    let total_work: f64 = outcomes.iter().map(|o| o.total_work).sum();
    let wasted: f64 = outcomes.iter().map(|o| o.wasted_work).sum();
    let stragglers: usize = outcomes.iter().map(|o| o.true_stragglers).sum();
    let caught: usize = outcomes.iter().map(|o| o.caught_stragglers).sum();
    MitigationSummary {
        jobs: outcomes.len(),
        mean_jct_reduction_percent: outcomes
            .iter()
            .map(MitigationOutcome::jct_reduction_percent)
            .sum::<f64>()
            / outcomes.len() as f64,
        wasted_fraction: if total_work > 0.0 {
            wasted / total_work
        } else {
            0.0
        },
        catch_rate: if stragglers > 0 {
            caught as f64 / stragglers as f64
        } else {
            1.0
        },
        clones_issued: outcomes.iter().map(|o| o.clones_issued).sum(),
        clones_won: outcomes.iter().map(|o| o.clones_won).sum(),
        clones_wasted: outcomes.iter().map(|o| o.clones_wasted).sum(),
        quarantines: outcomes.iter().map(|o| o.quarantines).sum(),
    }
}

/// SplitMix64 finalizer — the same mix the serving engine uses to place
/// jobs on shards.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Samples a replacement-copy duration for `task` actioned at time `now`:
/// uniform over the latencies already observed finished (the scheduler's
/// relaunch idiom), indexed by hash so the draw is independent of action
/// ordering. Falls back to the fastest task when nothing has finished yet.
fn sample_copy_duration(
    sorted_latencies: &[f64],
    now: f64,
    seed: u64,
    job: u64,
    task: usize,
) -> f64 {
    let observed = sorted_latencies.partition_point(|&l| l <= now);
    if observed == 0 {
        sorted_latencies[0]
    } else {
        let h = splitmix64(seed ^ splitmix64(job) ^ splitmix64(task as u64 + 1));
        sorted_latencies[(h % observed as u64) as usize]
    }
}

/// Executes a job's committed action log against its ground-truth
/// latencies. See the module docs for the cost model; `threshold` is the
/// job's `τ_stra`, used only for catch-rate accounting. Multiple actions
/// on one task keep the first and void the rest, matching the engine's
/// one-action-per-task dedup.
///
/// # Panics
///
/// Panics if the job has no tasks.
#[must_use]
pub fn execute_actions(
    job: &JobTrace,
    threshold: f64,
    actions: &[ActionRecord],
    config: &MitigationSimConfig,
) -> MitigationOutcome {
    let latencies = job.latencies();
    assert!(!latencies.is_empty(), "job must have at least one task");
    let mut sorted = latencies.clone();
    sorted.sort_by(f64::total_cmp);

    // Node-correlated donor pools: per node, the sorted latencies of all
    // *other* nodes' tasks. Empty pools (single-node jobs) fall back to
    // the fleet-wide pool so sampling never panics.
    let placement = if config.node_resample {
        job.node_placement()
    } else {
        None
    };
    let node_pools: std::collections::BTreeMap<u32, Vec<f64>> = placement
        .map(|nodes| {
            let mut pools = std::collections::BTreeMap::new();
            for &node in nodes {
                pools.entry(node).or_insert_with(|| {
                    let mut pool: Vec<f64> = latencies
                        .iter()
                        .zip(nodes)
                        .filter(|(_, &m)| m != node)
                        .map(|(&l, _)| l)
                        .collect();
                    pool.sort_by(f64::total_cmp);
                    pool
                });
            }
            pools
        })
        .unwrap_or_default();
    let pool_for = |task: usize| -> &[f64] {
        placement
            .and_then(|nodes| node_pools.get(&nodes[task]))
            .filter(|pool| !pool.is_empty())
            .map_or(&sorted[..], Vec::as_slice)
    };

    let mut completions: Vec<TaskCompletion> = latencies
        .iter()
        .enumerate()
        .map(|(task, &time)| TaskCompletion {
            task,
            time,
            via_mitigation: false,
        })
        .collect();
    // Machine time per task in the mitigated run; starts as "original runs
    // to its natural latency" and is adjusted as actions execute.
    let mut work: Vec<f64> = latencies.clone();
    let mut wasted_work = 0.0;
    let mut actioned = vec![false; latencies.len()];
    let mut caught = vec![false; latencies.len()];
    let (mut clones_issued, mut clones_won, mut clones_wasted) = (0usize, 0usize, 0usize);
    let (mut quarantines, mut void_actions) = (0usize, 0usize);

    for record in actions {
        let t = record.task;
        let now = record.time;
        if t >= latencies.len() || actioned[t] || latencies[t] <= now {
            // Out of range, already actioned, or the original finished
            // before the copy could start: a no-op at zero cost.
            void_actions += 1;
            continue;
        }
        let original = latencies[t];
        match record.action {
            MitigationAction::Ignore => {
                void_actions += 1;
                continue;
            }
            MitigationAction::Clone => {
                actioned[t] = true;
                clones_issued += 1;
                let duration = sample_copy_duration(pool_for(t), now, config.seed, record.job, t);
                let finish = (now + duration).min(original);
                // Winner and loser both stop at `finish`; the clone's full
                // runtime is the speculative cost, win or lose.
                let clone_runtime = finish - now;
                wasted_work += clone_runtime;
                work[t] = finish + clone_runtime;
                if finish < original {
                    clones_won += 1;
                } else {
                    clones_wasted += 1;
                }
                completions[t] = TaskCompletion {
                    task: t,
                    time: finish,
                    via_mitigation: finish < original,
                };
            }
            MitigationAction::Quarantine => {
                actioned[t] = true;
                quarantines += 1;
                let duration = sample_copy_duration(pool_for(t), now, config.seed, record.job, t);
                // The original is killed at `now` — everything it ran is
                // wasted — and the relaunch restarts the clock.
                wasted_work += now;
                work[t] = now + duration;
                completions[t] = TaskCompletion {
                    task: t,
                    time: now + duration,
                    via_mitigation: true,
                };
            }
        }
        if original >= threshold {
            caught[t] = true;
        }
    }

    let jct_baseline = latencies.iter().copied().fold(f64::MIN, f64::max);
    let jct_mitigated = completions.iter().map(|c| c.time).fold(f64::MIN, f64::max);
    let true_stragglers = latencies.iter().filter(|&&l| l >= threshold).count();
    MitigationOutcome {
        job: job.job_id(),
        jct_baseline,
        jct_mitigated,
        wasted_work,
        total_work: work.iter().sum(),
        completions,
        clones_issued,
        clones_won,
        clones_wasted,
        quarantines,
        void_actions,
        true_stragglers,
        caught_stragglers: caught.iter().filter(|&&c| c).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nurd_data::TaskRecord;

    fn job(latencies: &[f64]) -> JobTrace {
        let tasks = latencies
            .iter()
            .enumerate()
            .map(|(id, &l)| TaskRecord::new(id, l, vec![vec![0.0]]))
            .collect();
        JobTrace::new(9, vec!["f".into()], vec![1.0], tasks).unwrap()
    }

    fn record(task: usize, time: f64, action: MitigationAction) -> ActionRecord {
        ActionRecord {
            job: 9,
            ordinal: 0,
            time,
            task,
            action,
        }
    }

    #[test]
    fn empty_log_matches_baseline_with_zero_waste() {
        let j = job(&[1.0, 2.0, 100.0]);
        let out = execute_actions(&j, 50.0, &[], &MitigationSimConfig::default());
        assert_eq!(out.jct_baseline, 100.0);
        assert_eq!(out.jct_mitigated, 100.0);
        assert_eq!(out.wasted_work, 0.0);
        assert_eq!(out.completions.len(), 3);
        assert_eq!(out.true_stragglers, 1);
        assert_eq!(out.caught_stragglers, 0);
    }

    #[test]
    fn winning_clone_cuts_jct_and_charges_clone_runtime() {
        let j = job(&[1.0, 2.0, 3.0, 100.0]);
        let out = execute_actions(
            &j,
            50.0,
            &[record(3, 4.0, MitigationAction::Clone)],
            &MitigationSimConfig::default(),
        );
        // All of {1,2,3} observed at t=4, so the clone takes 1..=3 and
        // finishes at 5..=7 — far ahead of the 100-unit original.
        assert!(out.jct_mitigated <= 7.0 && out.jct_mitigated >= 5.0);
        assert_eq!(out.clones_won, 1);
        assert_eq!(out.clones_wasted, 0);
        assert!((out.wasted_work - (out.jct_mitigated - 4.0)).abs() < 1e-12);
        assert_eq!(out.caught_stragglers, 1);
        assert_eq!(out.jct_baseline, 100.0);
    }

    #[test]
    fn clone_after_finish_is_void_and_free() {
        let j = job(&[1.0, 50.0]);
        let out = execute_actions(
            &j,
            40.0,
            &[record(0, 10.0, MitigationAction::Clone)],
            &MitigationSimConfig::default(),
        );
        assert_eq!(out.void_actions, 1);
        assert_eq!(out.clones_issued, 0);
        assert_eq!(out.wasted_work, 0.0);
        assert_eq!(out.completions[0].time, 1.0);
    }

    #[test]
    fn losing_clone_is_pure_waste_but_never_hurts_jct() {
        // Clone issued so late the original wins the race.
        let j = job(&[95.0, 100.0]);
        let out = execute_actions(
            &j,
            90.0,
            &[record(1, 99.0, MitigationAction::Clone)],
            &MitigationSimConfig::default(),
        );
        assert_eq!(out.jct_mitigated, 100.0);
        assert_eq!(out.clones_wasted, 1);
        assert!((out.wasted_work - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quarantine_restarts_the_clock_and_wastes_progress() {
        let j = job(&[2.0, 100.0]);
        let out = execute_actions(
            &j,
            50.0,
            &[record(1, 10.0, MitigationAction::Quarantine)],
            &MitigationSimConfig::default(),
        );
        // Only latency 2.0 observed at t=10 → relaunch takes 2, completing
        // at 12; the killed original's 10 units are wasted.
        assert_eq!(out.completions[1].time, 12.0);
        assert!((out.wasted_work - 10.0).abs() < 1e-12);
        assert_eq!(out.quarantines, 1);
    }

    #[test]
    fn duplicate_actions_keep_first_and_void_rest() {
        let j = job(&[1.0, 100.0]);
        let out = execute_actions(
            &j,
            50.0,
            &[
                record(1, 2.0, MitigationAction::Clone),
                record(1, 3.0, MitigationAction::Quarantine),
            ],
            &MitigationSimConfig::default(),
        );
        assert_eq!(out.clones_issued, 1);
        assert_eq!(out.quarantines, 0);
        assert_eq!(out.void_actions, 1);
    }

    #[test]
    fn execution_is_deterministic_and_order_independent() {
        let j = job(&[1.0, 2.0, 3.0, 80.0, 100.0]);
        let cfg = MitigationSimConfig::default();
        let forward = [
            record(3, 4.0, MitigationAction::Clone),
            record(4, 4.0, MitigationAction::Clone),
        ];
        let reversed = [forward[1], forward[0]];
        let a = execute_actions(&j, 50.0, &forward, &cfg);
        let b = execute_actions(&j, 50.0, &forward, &cfg);
        let c = execute_actions(&j, 50.0, &reversed, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.completions, c.completions);
        assert_eq!(a.wasted_work, c.wasted_work);
    }

    #[test]
    fn clone_only_logs_never_exceed_baseline_jct() {
        // The min(original, clone) rule makes this structural; pin it.
        for seed in 0..20u64 {
            let j = job(&[1.0, 5.0, 9.0, 60.0, 120.0]);
            let actions: Vec<ActionRecord> = (0..5)
                .map(|t| record(t, (t as f64) * 3.0, MitigationAction::Clone))
                .collect();
            let out = execute_actions(
                &j,
                50.0,
                &actions,
                &MitigationSimConfig {
                    seed,
                    node_resample: false,
                },
            );
            assert!(out.jct_mitigated <= out.jct_baseline);
            assert_eq!(out.completions.len(), 5);
        }
    }

    #[test]
    fn node_resample_draws_from_other_nodes_only() {
        // Node 0 is sick: its tasks are 100+. Node 1 is healthy: 1..=3.
        let latencies = [100.0, 120.0, 1.0, 2.0, 3.0];
        let tasks: Vec<TaskRecord> = latencies
            .iter()
            .enumerate()
            .map(|(id, &l)| TaskRecord::new(id, l, vec![vec![0.0]]))
            .collect();
        let j = JobTrace::new(9, vec!["f".into()], vec![1.0], tasks)
            .unwrap()
            .with_nodes(vec![0, 0, 1, 1, 1])
            .unwrap();
        let cfg = MitigationSimConfig {
            node_resample: true,
            ..MitigationSimConfig::default()
        };
        // Quarantine a sick-node task at t=50: the node pool is {1,2,3}
        // only (never the co-located 120.0), so the relaunch always
        // completes by 53.
        let out = execute_actions(
            &j,
            50.0,
            &[record(0, 50.0, MitigationAction::Quarantine)],
            &cfg,
        );
        assert!(out.completions[0].time <= 53.0);
        assert!(out.completions[0].via_mitigation);

        // Disabled, placement is ignored: identical to a placement-free
        // trace (the pre-node-model pool).
        let legacy = execute_actions(
            &j,
            50.0,
            &[record(0, 50.0, MitigationAction::Quarantine)],
            &MitigationSimConfig::default(),
        );
        let bare = execute_actions(
            &j.clone(),
            50.0,
            &[record(0, 50.0, MitigationAction::Quarantine)],
            &MitigationSimConfig::default(),
        );
        assert_eq!(legacy, bare);
    }

    #[test]
    fn node_resample_without_placement_matches_fleet_pool() {
        let j = job(&[1.0, 2.0, 3.0, 100.0]);
        let with = execute_actions(
            &j,
            50.0,
            &[record(3, 4.0, MitigationAction::Clone)],
            &MitigationSimConfig {
                node_resample: true,
                ..MitigationSimConfig::default()
            },
        );
        let without = execute_actions(
            &j,
            50.0,
            &[record(3, 4.0, MitigationAction::Clone)],
            &MitigationSimConfig::default(),
        );
        assert_eq!(with, without);
    }

    #[test]
    fn summary_aggregates_totals() {
        let j = job(&[1.0, 2.0, 3.0, 100.0]);
        let cfg = MitigationSimConfig::default();
        let with = execute_actions(&j, 50.0, &[record(3, 4.0, MitigationAction::Clone)], &cfg);
        let without = execute_actions(&j, 50.0, &[], &cfg);
        let summary = summarize_mitigation(&[with.clone(), without]);
        assert_eq!(summary.jobs, 2);
        assert_eq!(summary.clones_issued, 1);
        assert!(summary.mean_jct_reduction_percent > 0.0);
        assert!(summary.wasted_fraction > 0.0 && summary.wasted_fraction < 1.0);
        assert!((summary.catch_rate - 0.5).abs() < 1e-12);
        assert!(summarize_mitigation(&[]).jobs == 0);
    }
}
