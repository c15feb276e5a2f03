//! Straggler-mitigation schedulers (Algorithms 2 and 3 of the paper).
//!
//! Both schedulers terminate a task the moment the predictor flags it and
//! relaunch it on another machine with a fresh duration sampled from the
//! job's empirical latency distribution — exactly the paper's §7.3 protocol
//! ("the new completion time for a rescheduled task is randomly sampled
//! from the existing execution times"). With unlimited machines the relaunch
//! is immediate (Algorithm 2); with a bounded pool the relaunch waits for a
//! free machine (Algorithm 3).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nurd_data::JobTrace;

use crate::ReplayOutcome;

/// Scheduler parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Machine pool size; `None` = at least as many machines as tasks
    /// (Algorithm 2).
    pub machines: Option<usize>,
    /// Seed for relaunch-duration resampling.
    pub seed: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            machines: None,
            seed: 0xACE5,
        }
    }
}

/// Completion times with and without straggler mitigation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JctOutcome {
    /// Job completion time with no intervention.
    pub baseline: f64,
    /// Job completion time when flagged tasks are relaunched.
    pub mitigated: f64,
}

impl JctOutcome {
    /// Percent reduction in job completion time (positive = mitigation
    /// helped), the y-axis of Figures 4–9.
    #[must_use]
    pub fn reduction_percent(&self) -> f64 {
        if self.baseline <= 0.0 {
            return 0.0;
        }
        100.0 * (self.baseline - self.mitigated) / self.baseline
    }
}

/// Work item queued on the machine pool.
#[derive(Debug, Clone, Copy)]
enum Work {
    /// Initial run of a task (index into the job's task list).
    Initial(usize),
    /// Relaunch with a resampled duration, ready at the given time.
    Relaunch { ready: f64, duration: f64 },
}

/// Simulates the job with and without mitigation and reports both
/// completion times.
///
/// `outcome.flagged_at` supplies, for every flagged task, the checkpoint at
/// which it was flagged; the flag takes effect at that checkpoint's
/// *task-local elapsed time* (a task started later is flagged
/// correspondingly later in wall-clock time).
///
/// # Panics
///
/// Panics if `config.machines == Some(0)` or if `outcome` does not belong
/// to `job` (length mismatch).
#[must_use]
pub fn simulate_jct(
    job: &JobTrace,
    outcome: &ReplayOutcome,
    config: &SchedulerConfig,
) -> JctOutcome {
    assert_eq!(
        outcome.flagged_at.len(),
        job.task_count(),
        "replay outcome does not match job"
    );
    let machines = config.machines.unwrap_or(job.task_count()).max(1);
    assert!(config.machines != Some(0), "machine pool must be non-empty");

    let mut sorted_latencies = job.latencies();
    sorted_latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let mut rng = StdRng::seed_from_u64(config.seed ^ job.job_id());

    // Baseline: nobody is flagged.
    let baseline = run_pool(
        job,
        &vec![None; job.task_count()],
        machines,
        &mut |_rng, _now| 0.0,
    );

    // Mitigated: flagged tasks terminate at their flag time and relaunch
    // with a duration resampled from the *observed* execution times — the
    // durations of tasks that have already finished at relaunch time (§7.3:
    // "randomly sampled from the existing execution times"). Stragglers
    // have not finished yet when relaunches happen, so the pool is the
    // non-straggler body.
    let mut sample = |rng: &mut StdRng, now: f64| {
        let observed = sorted_latencies.partition_point(|&l| l <= now);
        if observed == 0 {
            sorted_latencies[0]
        } else {
            sorted_latencies[rng.gen_range(0..observed)]
        }
    };
    let mitigated = run_pool_with_rng(job, &outcome.flagged_at, machines, &mut rng, &mut sample);

    JctOutcome {
        baseline,
        mitigated,
    }
}

fn run_pool(
    job: &JobTrace,
    flagged_at: &[Option<usize>],
    machines: usize,
    sample: &mut dyn FnMut(&mut StdRng, f64) -> f64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(0);
    run_pool_with_rng(job, flagged_at, machines, &mut rng, sample)
}

/// Event-driven list scheduler: `machines` identical machines, initial tasks
/// dispatched FCFS, relaunches prioritized once ready.
fn run_pool_with_rng(
    job: &JobTrace,
    flagged_at: &[Option<usize>],
    machines: usize,
    rng: &mut StdRng,
    sample: &mut dyn FnMut(&mut StdRng, f64) -> f64,
) -> f64 {
    let times = job.checkpoint_times();
    // Machine pool as a min-heap of free times.
    let mut free: BinaryHeap<Reverse<OrderedF64>> =
        (0..machines).map(|_| Reverse(OrderedF64(0.0))).collect();
    let mut initial: std::collections::VecDeque<usize> = (0..job.task_count()).collect();
    let mut relaunches: BinaryHeap<Reverse<(OrderedF64, OrderedF64)>> = BinaryHeap::new();
    let mut makespan = 0.0f64;

    loop {
        let Some(&Reverse(OrderedF64(free_at))) = free.peek() else {
            unreachable!("machine pool is never empty");
        };

        // Prefer a relaunch that is already waiting; otherwise the next
        // initial task; otherwise idle until the earliest relaunch is ready.
        let work = if let Some(&Reverse((OrderedF64(ready), _))) = relaunches.peek() {
            if ready <= free_at || initial.is_empty() {
                let Reverse((OrderedF64(ready), OrderedF64(duration))) =
                    relaunches.pop().expect("peeked");
                Work::Relaunch { ready, duration }
            } else {
                Work::Initial(initial.pop_front().expect("checked non-empty"))
            }
        } else if let Some(task) = initial.pop_front() {
            Work::Initial(task)
        } else {
            break; // no work left
        };
        free.pop();

        match work {
            Work::Initial(task) => {
                let start = free_at;
                let latency = job.tasks()[task].latency();
                match flagged_at[task] {
                    // Flag takes effect at the checkpoint's task-local time,
                    // capped at the task's own duration (a flag cannot land
                    // after the task would have finished).
                    Some(ckpt) => {
                        let elapsed = times[ckpt].min(latency);
                        let kill_time = start + elapsed;
                        free.push(Reverse(OrderedF64(kill_time)));
                        let duration = sample(rng, kill_time);
                        relaunches.push(Reverse((OrderedF64(kill_time), OrderedF64(duration))));
                        makespan = makespan.max(kill_time);
                    }
                    None => {
                        let end = start + latency;
                        free.push(Reverse(OrderedF64(end)));
                        makespan = makespan.max(end);
                    }
                }
            }
            Work::Relaunch { ready, duration } => {
                let start = free_at.max(ready);
                let end = start + duration;
                free.push(Reverse(OrderedF64(end)));
                makespan = makespan.max(end);
            }
        }
    }
    makespan
}

/// Total order wrapper for finite f64 event times.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedF64(f64);

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("event times are finite")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{replay_job, ReplayConfig};
    use nurd_data::{Checkpoint, OnlinePredictor, StreamContext};
    use nurd_trace::{SuiteConfig, TraceStyle};
    use proptest::prelude::*;

    fn job() -> JobTrace {
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

    #[test]
    fn unlimited_baseline_is_max_latency() {
        let job = job();
        let out = replay_job(&job, &mut FlagNothing, &ReplayConfig::default());
        let jct = simulate_jct(&job, &out, &SchedulerConfig::default());
        assert!((jct.baseline - job.max_latency()).abs() < 1e-9);
        assert_eq!(jct.baseline, jct.mitigated);
        assert_eq!(jct.reduction_percent(), 0.0);
    }

    #[test]
    fn oracle_mitigation_reduces_jct_with_unlimited_machines() {
        let job = job();
        let out = replay_job(&job, &mut Oracle::new(&job), &ReplayConfig::default());
        let jct = simulate_jct(&job, &out, &SchedulerConfig::default());
        assert!(
            jct.mitigated < jct.baseline,
            "oracle mitigation should shorten the job: {jct:?}"
        );
        assert!(jct.reduction_percent() > 0.0);
    }

    #[test]
    fn fewer_machines_increase_baseline() {
        let job = job();
        let out = replay_job(&job, &mut FlagNothing, &ReplayConfig::default());
        let unlimited = simulate_jct(&job, &out, &SchedulerConfig::default());
        let constrained = simulate_jct(
            &job,
            &out,
            &SchedulerConfig {
                machines: Some(20),
                ..SchedulerConfig::default()
            },
        );
        assert!(constrained.baseline > unlimited.baseline);
    }

    #[test]
    fn machine_pool_capacity_is_respected() {
        // With 1 machine, baseline = sum of latencies.
        let job = job();
        let out = replay_job(&job, &mut FlagNothing, &ReplayConfig::default());
        let jct = simulate_jct(
            &job,
            &out,
            &SchedulerConfig {
                machines: Some(1),
                ..SchedulerConfig::default()
            },
        );
        let total: f64 = job.latencies().iter().sum();
        assert!((jct.baseline - total).abs() < 1e-6);
    }

    #[test]
    fn deterministic_under_seed() {
        let job = job();
        let out = replay_job(&job, &mut Oracle::new(&job), &ReplayConfig::default());
        let a = simulate_jct(&job, &out, &SchedulerConfig::default());
        let b = simulate_jct(&job, &out, &SchedulerConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "machine pool must be non-empty")]
    fn zero_machines_rejected() {
        let job = job();
        let out = replay_job(&job, &mut FlagNothing, &ReplayConfig::default());
        let _ = simulate_jct(
            &job,
            &out,
            &SchedulerConfig {
                machines: Some(0),
                ..SchedulerConfig::default()
            },
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// More machines never lengthen the baseline (list scheduling on
        /// identical machines is monotone in pool size here because tasks
        /// are dispatched FCFS from a fixed queue).
        #[test]
        fn prop_baseline_monotone_in_machines(m in 1usize..60) {
            let job = job();
            let out = replay_job(&job, &mut FlagNothing, &ReplayConfig::default());
            let small = simulate_jct(&job, &out, &SchedulerConfig {
                machines: Some(m), ..SchedulerConfig::default()
            });
            let big = simulate_jct(&job, &out, &SchedulerConfig {
                machines: Some(m + 30), ..SchedulerConfig::default()
            });
            prop_assert!(big.baseline <= small.baseline + 1e-9);
        }

        /// Mitigated makespan is bounded below by the kill times plus zero
        /// work — sanity: reduction can never reach 100%.
        #[test]
        fn prop_reduction_bounded(m in 10usize..200) {
            let job = job();
            let out = replay_job(&job, &mut Oracle::new(&job),
                &ReplayConfig::default());
            let jct = simulate_jct(&job, &out, &SchedulerConfig {
                machines: Some(m), ..SchedulerConfig::default()
            });
            prop_assert!(jct.reduction_percent() < 100.0);
            prop_assert!(jct.mitigated > 0.0);
        }
    }
}
