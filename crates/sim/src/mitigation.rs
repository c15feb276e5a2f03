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
//! Fed a replay's flags as relaunches
//! ([`crate::ReplayOutcome::relaunches`]), the same executor runs the
//! paper's §7.3 experiments behind Figures 4–9.
//!
//! # Machine pool
//!
//! One list scheduler places every run on
//! [`MitigationSimConfig::machines`] machines. Initial runs start in
//! task-id order on the first free machine. An action's `time` is the
//! task's own elapsed time, so a copy (clone or relaunch) is ready at its
//! original's start plus that time, and a ready copy takes the first free
//! machine ahead of any initial run not yet started. A quarantine frees
//! its original's machine when the copy is ready. A clone and its
//! original both stop at the race's finish, which frees both machines; a
//! clone that gets no machine before its original finishes never runs.
//!
//! # Determinism
//!
//! Relaunch/clone durations are sampled uniformly from the latencies
//! already *observed finished* at the copy's ready time (§7.3 samples a
//! relaunch from the existing execution times): those of the tasks whose
//! original run, as this schedule placed it, reached its latency by then.
//! The draw is indexed by a [SplitMix64] hash of `(seed, job, task)`
//! instead of a sequential RNG, so the result is independent of
//! action-log ordering, of dispatch order and of how many other jobs the
//! fleet ran. Same seed + same log ⇒ bit-identical outcome.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
    /// Size of the machine pool (the module docs give the schedule).
    /// `None` (the default) is one machine per task and per copy, the
    /// paper's Algorithm 2; `Some(k)` is Algorithm 3 on `k` machines, and
    /// equals `None` bit for bit once `k` covers every task and copy.
    pub machines: Option<usize>,
}

impl Default for MitigationSimConfig {
    fn default() -> Self {
        MitigationSimConfig {
            seed: 0x4d17_16a7,
            node_resample: false,
            machines: None,
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
    pub fn jct_reduction_percent(&self) -> f64 {
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

/// Samples a replacement-copy duration for `task`: uniform over the
/// `observed` latencies (those finished by the copy's ready time), indexed
/// by hash into their sorted order so the draw is independent of action
/// and dispatch order. Falls back to `fastest` when nothing has finished.
fn sample_copy_duration(
    mut observed: Vec<f64>,
    fastest: f64,
    seed: u64,
    job: u64,
    task: usize,
) -> f64 {
    if observed.is_empty() {
        return fastest;
    }
    observed.sort_by(f64::total_cmp);
    let h = splitmix64(seed ^ splitmix64(job) ^ splitmix64(task as u64 + 1));
    observed[(h % observed.len() as u64) as usize]
}

/// Executes a job's committed action log against its ground-truth
/// latencies. See the module docs for the cost model and the schedule;
/// `threshold` is the job's `τ_stra`, used only for catch-rate accounting.
/// An action is void unless its task exists, has not been actioned, and
/// is still running at the action's elapsed time, so multiple actions on
/// one task keep the first and void the rest, matching the engine's
/// one-action-per-task dedup. The baseline is the same schedule with an
/// empty log.
///
/// # Panics
///
/// Panics if the job has no tasks, or if `config.machines` is `Some(0)`.
#[must_use]
pub fn execute_actions(
    job: &JobTrace,
    threshold: f64,
    actions: &[ActionRecord],
    config: &MitigationSimConfig,
) -> MitigationOutcome {
    let latencies = job.latencies();
    assert!(!latencies.is_empty(), "job must have at least one task");
    assert!(config.machines != Some(0), "machine pool must be non-empty");

    // Node-correlated donors: a copy draws only from *other* nodes' tasks.
    // A single-node job has none, so it keeps the fleet-wide pool and
    // sampling never runs dry.
    let placement = if config.node_resample {
        job.node_placement()
            .filter(|nodes| nodes.iter().any(|&m| m != nodes[0]))
    } else {
        None
    };
    let donors = |task: usize| {
        (0..latencies.len()).filter(move |&d| placement.is_none_or(|nodes| nodes[d] != nodes[task]))
    };

    // Each task's one effective action, the actioned tasks in log order
    // and the relaunches among them; every other record is a no-op at
    // zero cost.
    let n = latencies.len();
    let mut effective: Vec<Option<ActionRecord>> = vec![None; n];
    let (mut order, mut quarantines) = (Vec::new(), 0);
    for record in actions {
        let t = record.task;
        if t < n && effective[t].is_none() && (0.0..latencies[t]).contains(&record.time) {
            effective[t] = Some(*record);
            order.push(t);
            quarantines += usize::from(record.action == MitigationAction::Quarantine);
        }
    }
    // `ends[d]` is when task `d`'s original run reaches its latency.
    let draw = |r: &ActionRecord, ready: f64, ends: &[f64]| {
        let observed = donors(r.task).filter(|&d| ends[d] <= ready);
        let fastest = donors(r.task).map(|d| latencies[d]).min_by(f64::total_cmp);
        sample_copy_duration(
            observed.map(|d| latencies[d]).collect(),
            fastest.expect("every job has a donor"),
            config.seed,
            r.job,
            r.task,
        )
    };
    // Unlimited machines are one per task and per copy.
    let machines = |copies| config.machines.unwrap_or(n + copies);
    let runs = schedule(&latencies, &effective, machines(order.len()), draw);
    let baseline = schedule(&latencies, &vec![None; n], machines(0), draw);
    let jct = |runs: &[Run]| {
        runs.iter()
            .map(|r| r.completion.time)
            .fold(f64::MIN, f64::max)
    };
    // Every relaunch completes through its copy, a clone only if it won.
    let clones_won = runs.iter().filter(|r| r.completion.via_mitigation).count() - quarantines;
    MitigationOutcome {
        job: job.job_id(),
        jct_baseline: jct(&baseline),
        jct_mitigated: jct(&runs),
        // Summed in log order, not dispatch order: the sum's last bits are
        // part of the outcome.
        wasted_work: order.iter().fold(0.0, |sum, &t| sum + runs[t].wasted),
        total_work: runs.iter().map(|r| r.work).sum(),
        completions: runs.iter().map(|r| r.completion).collect(),
        clones_issued: order.len() - quarantines,
        clones_won,
        clones_wasted: order.len() - quarantines - clones_won,
        quarantines,
        void_actions: actions.len() - order.len(),
        true_stragglers: latencies.iter().filter(|&&l| l >= threshold).count(),
        caught_stragglers: order.iter().filter(|&&t| latencies[t] >= threshold).count(),
    }
}

/// One task's part of a schedule: its completion, the machine time its
/// runs used, and the part of that time charged to the wasted-work ledger.
struct Run {
    completion: TaskCompletion,
    work: f64,
    wasted: f64,
}

/// Identical machines keyed by the time each one frees up. Times are
/// never negative, so their bits order as they do.
struct Pool {
    /// `(free at, machine, stamp)`, earliest first, lowest machine on ties.
    free: BinaryHeap<Reverse<(u64, usize, u64)>>,
    /// Each machine's latest stamp; an entry with an older one was
    /// superseded by a later release of the machine.
    stamps: Vec<u64>,
}

impl Pool {
    /// When the first free machine frees up, and which machine it is.
    fn first_free(&mut self) -> (f64, usize) {
        loop {
            let Reverse((at, machine, stamp)) =
                *self.free.peek().expect("the machine pool is never empty");
            if stamp == self.stamps[machine] {
                return (f64::from_bits(at), machine);
            }
            self.free.pop();
        }
    }

    /// Frees `machine` at `at`, superseding its earlier release.
    fn release(&mut self, machine: usize, at: f64) {
        self.stamps[machine] += 1;
        let stamp = self.stamps[machine];
        self.free.push(Reverse((at.to_bits(), machine, stamp)));
    }
}

/// List-schedules a job on `machines` identical machines under the rules
/// of the module docs. `effective` holds each task's one effective action;
/// `draw` samples a copy's duration at the time the copy is ready, given
/// when each original run reaches its latency (infinity for a run not yet
/// started: a copy takes a machine no later than any initial run that
/// starts after it is ready, so every run that ends by then is placed).
fn schedule(
    latencies: &[f64],
    effective: &[Option<ActionRecord>],
    machines: usize,
    draw: impl Fn(&ActionRecord, f64, &[f64]) -> f64,
) -> Vec<Run> {
    let mut pool = Pool {
        free: (0..machines).map(|m| Reverse((0, m, 0))).collect(),
        stamps: vec![0; machines],
    };
    // Copies waiting for a machine, as (ready, task).
    let mut copies: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    // Each original's start and machine, and when it reaches its latency.
    let mut placed = vec![(0.0, 0); latencies.len()];
    let mut ends = vec![f64::INFINITY; latencies.len()];
    // Initial runs start in task-id order, so `runs.len()` is the next.
    let mut runs: Vec<Run> = Vec::with_capacity(latencies.len());
    loop {
        let (free_at, machine) = pool.first_free();
        let pending = runs.len() < latencies.len();
        let next_copy = copies
            .peek()
            .map(|&Reverse((ready, task))| (f64::from_bits(ready), task));
        let copy = match next_copy {
            Some((ready, _)) if ready <= free_at || !pending => next_copy,
            _ if pending => None,
            _ => break,
        };
        pool.free.pop();
        let Some((ready, task)) = copy else {
            let (task, start) = (runs.len(), free_at);
            placed[task] = (start, machine);
            let end = start + latencies[task];
            ends[task] = end;
            let mut busy_until = end;
            if let Some(record) = effective[task] {
                let ready = start + record.time;
                copies.push(Reverse((ready.to_bits(), task)));
                if record.action == MitigationAction::Quarantine {
                    busy_until = ready;
                }
            }
            pool.release(machine, busy_until);
            let completion = TaskCompletion {
                task,
                time: end,
                via_mitigation: false,
            };
            runs.push(Run {
                completion,
                work: latencies[task],
                wasted: 0.0,
            });
            continue;
        };
        copies.pop();
        let record = effective[task].expect("only an actioned task has a copy");
        let (start, duration) = (free_at.max(ready), draw(&record, ready, &ends));
        let (original_start, original_machine) = placed[task];
        let (time, via_mitigation, work, wasted) = match record.action {
            MitigationAction::Quarantine => {
                // The original was killed at `ready`: everything it ran is
                // wasted, and the relaunch restarts the clock.
                pool.release(machine, start + duration);
                (start + duration, true, record.time + duration, record.time)
            }
            _ => {
                // Winner and loser both stop at `finish`; the clone's runtime
                // is the speculative cost, win or lose. A clone that found no
                // machine before its original finished never ran.
                let original_end = original_start + latencies[task];
                let finish = original_end.min(start + duration);
                let clone_runtime = (finish - start).max(0.0);
                pool.release(machine, finish.max(start));
                if finish < original_end {
                    pool.release(original_machine, finish);
                }
                let work = (finish - original_start) + clone_runtime;
                (finish, finish < original_end, work, clone_runtime)
            }
        };
        let completion = TaskCompletion {
            task,
            time,
            via_mitigation,
        };
        runs[task] = Run {
            completion,
            work,
            wasted,
        };
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{replay_job, ReplayConfig, ReplayOutcome};
    use nurd_data::{Checkpoint, OnlinePredictor, StreamContext, TaskRecord};
    use nurd_trace::{SuiteConfig, TraceStyle};
    use proptest::prelude::*;

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
                    ..MitigationSimConfig::default()
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

    /// A 120–150-task Google-style job for the replayed-flag tests.
    fn replayed_job() -> JobTrace {
        let cfg = SuiteConfig::new(TraceStyle::Google)
            .with_jobs(1)
            .with_task_range(120, 150)
            .with_checkpoints(15)
            .with_seed(33);
        nurd_trace::generate_job(&cfg, 0)
    }

    struct Oracle {
        threshold: f64,
        latencies: Vec<f64>,
    }
    impl Oracle {
        fn new(job: &JobTrace) -> Self {
            Oracle {
                threshold: 0.0,
                latencies: job.latencies(),
            }
        }
    }
    impl OnlinePredictor for Oracle {
        fn name(&self) -> &str {
            "ORACLE"
        }
        fn begin_stream(&mut self, ctx: &StreamContext) {
            self.threshold = ctx.threshold;
        }
        fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
            checkpoint
                .running
                .iter()
                .map(|r| r.id)
                .filter(|&id| self.latencies[id] >= self.threshold)
                .collect()
        }
    }

    struct FlagNothing;
    impl OnlinePredictor for FlagNothing {
        fn name(&self) -> &str {
            "NONE"
        }
        fn predict(&mut self, _c: &Checkpoint<'_>) -> Vec<usize> {
            Vec::new()
        }
    }

    /// Kills and relaunches every flagged task of `out` on `machines`.
    fn relaunch(job: &JobTrace, out: &ReplayOutcome, machines: Option<usize>) -> MitigationOutcome {
        let sim = MitigationSimConfig {
            machines,
            ..MitigationSimConfig::default()
        };
        execute_actions(job, out.threshold, &out.relaunches(job), &sim)
    }

    #[test]
    fn unlimited_baseline_is_max_latency() {
        let job = replayed_job();
        let out = replay_job(&job, &mut FlagNothing, &ReplayConfig::default());
        let jct = relaunch(&job, &out, None);
        assert!((jct.jct_baseline - job.max_latency()).abs() < 1e-9);
        assert_eq!(jct.jct_baseline, jct.jct_mitigated);
        assert_eq!(jct.jct_reduction_percent(), 0.0);
    }

    #[test]
    fn oracle_mitigation_reduces_jct_with_unlimited_machines() {
        let job = replayed_job();
        let out = replay_job(&job, &mut Oracle::new(&job), &ReplayConfig::default());
        let jct = relaunch(&job, &out, None);
        assert!(
            jct.jct_mitigated < jct.jct_baseline,
            "oracle mitigation should shorten the job: {jct:?}"
        );
        assert!(jct.jct_reduction_percent() > 0.0);
    }

    #[test]
    fn fewer_machines_increase_baseline() {
        let job = replayed_job();
        let out = replay_job(&job, &mut FlagNothing, &ReplayConfig::default());
        let unlimited = relaunch(&job, &out, None);
        let constrained = relaunch(&job, &out, Some(20));
        assert!(constrained.jct_baseline > unlimited.jct_baseline);
    }

    #[test]
    fn machine_pool_capacity_is_respected() {
        // With 1 machine, baseline = sum of latencies.
        let job = replayed_job();
        let out = replay_job(&job, &mut FlagNothing, &ReplayConfig::default());
        let jct = relaunch(&job, &out, Some(1));
        let total: f64 = job.latencies().iter().sum();
        assert!((jct.jct_baseline - total).abs() < 1e-6);
    }

    #[test]
    fn deterministic_under_seed() {
        let job = replayed_job();
        let out = replay_job(&job, &mut Oracle::new(&job), &ReplayConfig::default());
        let a = relaunch(&job, &out, None);
        let b = relaunch(&job, &out, None);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "machine pool must be non-empty")]
    fn zero_machines_rejected() {
        let job = replayed_job();
        let out = replay_job(&job, &mut FlagNothing, &ReplayConfig::default());
        let _ = relaunch(&job, &out, Some(0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// More machines never lengthen the baseline (list scheduling on
        /// identical machines is monotone in pool size here because tasks
        /// are dispatched FCFS from a fixed queue).
        #[test]
        fn prop_baseline_monotone_in_machines(m in 1usize..60) {
            let job = replayed_job();
            let out = replay_job(&job, &mut FlagNothing, &ReplayConfig::default());
            let small = relaunch(&job, &out, Some(m));
            let big = relaunch(&job, &out, Some(m + 30));
            prop_assert!(big.jct_baseline <= small.jct_baseline + 1e-9);
        }

        /// Mitigated makespan is bounded below by the kill times plus zero
        /// work — sanity: reduction can never reach 100%.
        #[test]
        fn prop_reduction_bounded(m in 10usize..200) {
            let job = replayed_job();
            let out = replay_job(&job, &mut Oracle::new(&job),
                &ReplayConfig::default());
            let jct = relaunch(&job, &out, Some(m));
            prop_assert!(jct.jct_reduction_percent() < 100.0);
            prop_assert!(jct.jct_mitigated > 0.0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// A pool with a machine for every task and every copy is the
        /// unlimited executor, bit for bit, over logs that mix clones and
        /// quarantines with duplicates, out-of-range tasks and actions
        /// that land after their task finished.
        #[test]
        fn prop_large_pool_is_unlimited_bit_for_bit(
            latencies in collection::vec(0.5..50.0f64, 1..12),
            raw in collection::vec(collection::vec(0.0..1.0f64, 3), 0..16),
            extra in 0usize..4,
            seed in 0u64..1_000,
        ) {
            let j = job(&latencies);
            let longest = latencies.iter().copied().fold(0.0, f64::max);
            let kinds = [MitigationAction::Clone, MitigationAction::Quarantine];
            let log: Vec<ActionRecord> = raw
                .iter()
                .map(|r| {
                    let task = (r[0] * (latencies.len() + 2) as f64) as usize;
                    record(task, r[1] * longest * 1.2, kinds[(r[2] * 2.0) as usize])
                })
                .collect();
            let unlimited = MitigationSimConfig { seed, ..MitigationSimConfig::default() };
            let pooled = MitigationSimConfig {
                machines: Some(latencies.len() + log.len() + extra),
                ..unlimited
            };
            let a = execute_actions(&j, 25.0, &log, &unlimited);
            let b = execute_actions(&j, 25.0, &log, &pooled);
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn algorithm_3_on_two_machines_matches_a_hand_schedule() {
        // Task 0 is quarantined 4 units in. At t = 4 every finished
        // latency is 3, so its relaunch takes exactly 3.
        //   m0: task 0 [0, 4) killed, relaunch [4, 7)
        //   m1: task 1 [0, 3), task 2 [3, 6), task 3 [6, 9)
        // At t = 4 the ready relaunch takes m0 ahead of task 3.
        let j = job(&[10.0, 3.0, 3.0, 3.0]);
        let sim = MitigationSimConfig {
            machines: Some(2),
            ..MitigationSimConfig::default()
        };
        let out = execute_actions(
            &j,
            5.0,
            &[record(0, 4.0, MitigationAction::Quarantine)],
            &sim,
        );
        let times: Vec<f64> = out.completions.iter().map(|c| c.time).collect();
        assert_eq!(times, [7.0, 3.0, 6.0, 9.0]);
        assert!(out.completions[0].via_mitigation);
        // Unmitigated: m0 runs task 0 to 10, m1 the other three to 9.
        assert_eq!(out.jct_baseline, 10.0);
        assert_eq!(out.jct_mitigated, 9.0);
        assert_eq!(out.wasted_work, 4.0);
        assert_eq!(out.total_work, 4.0 + 3.0 + 9.0);
        assert_eq!((out.quarantines, out.caught_stragglers), (1, 1));
    }

    #[test]
    fn a_pooled_copy_draws_only_from_runs_finished_by_its_ready_time() {
        // Task 0 is quarantined 4 units in. Of the other tasks only task 1
        // has finished by t = 4: task 2 runs [3, 4.5) and tasks 3 and 4
        // have not started, though all three are shorter than 4. So the
        // relaunch takes exactly task 1's 3.
        //   m0: task 0 [0, 4) killed, relaunch [4, 7), task 4 [7, 10.5)
        //   m1: task 1 [0, 3), task 2 [3, 4.5), task 3 [4.5, 7)
        let j = job(&[10.0, 3.0, 1.5, 2.5, 3.5]);
        let quarantine = [record(0, 4.0, MitigationAction::Quarantine)];
        for seed in 0..32 {
            let sim = MitigationSimConfig {
                seed,
                machines: Some(2),
                ..MitigationSimConfig::default()
            };
            let out = execute_actions(&j, 5.0, &quarantine, &sim);
            let times: Vec<f64> = out.completions.iter().map(|c| c.time).collect();
            assert_eq!(times, [7.0, 3.0, 4.5, 7.0, 10.5], "seed {seed}");
            assert_eq!(out.total_work, 4.0 + 3.0 + 3.0 + 1.5 + 2.5 + 3.5);
        }
    }

    #[test]
    fn winning_clone_frees_its_original_machine_at_the_race_finish() {
        // Task 0 is cloned 1 unit in. Nothing has finished at t = 1, so
        // the clone takes the fastest latency, 2. It gets m1 at t = 2 and
        // wins at 4, which frees m0 at 4 rather than at 6.
        //   m0: task 0 [0, 4), task 2 [4, 6), task 4 [6, 8), task 6 [8, 10)
        //   m1: task 1 [0, 2), clone [2, 4), task 3 [4, 6), task 5 [6, 8)
        // Only two machines exist: m0's superseded release at 6 must not
        // hand task 6 a third.
        let j = job(&[6.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]);
        let sim = MitigationSimConfig {
            machines: Some(2),
            ..MitigationSimConfig::default()
        };
        let out = execute_actions(&j, 5.0, &[record(0, 1.0, MitigationAction::Clone)], &sim);
        let times: Vec<f64> = out.completions.iter().map(|c| c.time).collect();
        assert_eq!(times, [4.0, 2.0, 6.0, 6.0, 8.0, 8.0, 10.0]);
        assert_eq!((out.clones_won, out.clones_wasted), (1, 0));
        assert_eq!(out.wasted_work, 2.0);
        assert_eq!(out.jct_baseline, 10.0);
    }
}
