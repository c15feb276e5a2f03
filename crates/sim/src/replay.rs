//! Online replay of a job trace under the paper's evaluation protocol.

use nurd_data::{Checkpoint, FinishedTask, JobTrace, OnlinePredictor, RunningTask, StreamContext};

use crate::Confusion;

/// Replay parameters (paper defaults: p90 threshold, 4% warmup).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayConfig {
    /// Latency quantile defining `τ_stra` (the paper uses p90 and reports
    /// robustness from p70–p95).
    pub quantile: f64,
    /// Fraction of tasks that must finish before prediction starts — the
    /// initial training set of §6.
    pub warmup_fraction: f64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            quantile: 0.9,
            warmup_fraction: 0.04,
        }
    }
}

/// Everything measured during one job's replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// The straggler threshold `τ_stra` used.
    pub threshold: f64,
    /// For each task, the checkpoint ordinal at which it was flagged
    /// (`None` = never flagged).
    pub flagged_at: Vec<Option<usize>>,
    /// End-of-job confusion counts.
    pub confusion: Confusion,
    /// F1 of the *cumulative* flagged set after each checkpoint — the
    /// series behind Figures 2 and 3.
    pub f1_timeline: Vec<f64>,
    /// Checkpoint ordinal at which prediction started (warmup).
    pub warmup_checkpoint: usize,
}

impl nurd_codec::Checkpointable for ReplayOutcome {
    fn encode(&self, enc: &mut nurd_codec::Encoder) {
        enc.put_f64(self.threshold);
        self.flagged_at.encode(enc);
        self.confusion.encode(enc);
        self.f1_timeline.encode(enc);
        enc.put_usize(self.warmup_checkpoint);
    }

    fn decode(dec: &mut nurd_codec::Decoder<'_>) -> Result<Self, nurd_codec::CodecError> {
        Ok(ReplayOutcome {
            threshold: dec.take_f64()?,
            flagged_at: nurd_codec::Checkpointable::decode(dec)?,
            confusion: nurd_codec::Checkpointable::decode(dec)?,
            f1_timeline: nurd_codec::Checkpointable::decode(dec)?,
            warmup_checkpoint: dec.take_usize()?,
        })
    }
}

impl ReplayOutcome {
    /// Task ids flagged as stragglers.
    #[must_use]
    pub fn flagged_ids(&self) -> Vec<usize> {
        self.flagged_at
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.map(|_| i))
            .collect()
    }

    /// F1 values sampled at `points` normalized-time positions (Figures 2–3
    /// use ten deciles).
    ///
    /// # Panics
    ///
    /// Panics if `points == 0`.
    #[must_use]
    pub fn f1_at_normalized_times(&self, points: usize) -> Vec<f64> {
        assert!(points > 0, "need at least one sample point");
        let t = self.f1_timeline.len();
        (1..=points)
            .map(|p| {
                let idx = ((p as f64 / points as f64) * t as f64).ceil() as usize;
                self.f1_timeline[idx.clamp(1, t) - 1]
            })
            .collect()
    }
}

/// Replays one job against a predictor.
///
/// Protocol (§7.1 of the paper):
/// 1. `τ_stra` is the `quantile` latency of the job; prediction begins at
///    the first checkpoint where `warmup_fraction` of tasks have finished.
/// 2. At each checkpoint the predictor sees all finished tasks (features +
///    latencies) and all still-running, not-yet-flagged tasks (features
///    only).
/// 3. A task predicted to straggle is flagged permanently and disappears
///    from later checkpoints; a task predicted negative is re-evaluated at
///    the next checkpoint unless it finished in between.
/// 4. **Revelation rule**: once the clock passes `τ_stra`, every
///    still-running task has *revealed itself* as a straggler (`y > τ` is
///    observable) — the paper's goal is prediction "before stragglers
///    reveal themselves with long run times" (§1). Revealed tasks stop
///    being predictable; a method that never flagged them pre-revelation
///    takes the false negative. Without this rule, any method that flags
///    all survivors at the first post-τ checkpoint collects free true
///    positives with zero false-positive risk, and end-of-job F1 stops
///    measuring prediction at all.
///
/// # Panics
///
/// Panics if the config quantile or warmup fraction is outside `[0, 1]`
/// (propagated from [`JobTrace::straggler_threshold`]).
pub fn replay_job(
    job: &JobTrace,
    predictor: &mut dyn OnlinePredictor,
    config: &ReplayConfig,
) -> ReplayOutcome {
    let threshold = job.straggler_threshold(config.quantile);
    let warmup = job.warmup_checkpoint(config.warmup_fraction);
    let n = job.task_count();

    predictor.begin_stream(&StreamContext {
        threshold,
        task_count: n,
        feature_dim: job.feature_dim(),
    });

    let mut flagged_at: Vec<Option<usize>> = vec![None; n];
    let truth: Vec<bool> = job
        .tasks()
        .iter()
        .map(|t| t.latency() >= threshold)
        .collect();
    let checkpoint_count = job.checkpoint_count();
    for (k, &time) in job.checkpoint_times().iter().enumerate() {
        // Prediction is only meaningful before stragglers reveal themselves
        // (revelation rule, see the function docs).
        if k >= warmup && time < threshold {
            let mut finished = Vec::new();
            let mut running = Vec::new();
            for task in job.tasks() {
                if flagged_at[task.id()].is_some() {
                    continue;
                }
                if task.latency() <= time {
                    finished.push(FinishedTask {
                        id: task.id(),
                        features: task.snapshot(k),
                        latency: task.latency(),
                    });
                } else {
                    running.push(RunningTask {
                        id: task.id(),
                        features: task.snapshot(k),
                    });
                }
            }
            let running_ids: Vec<usize> = running.iter().map(|r| r.id).collect();
            let checkpoint = Checkpoint {
                ordinal: k,
                time,
                finished,
                running,
            };
            for id in predictor.predict(&checkpoint) {
                // Ignore ids that are not actually running (finished,
                // already flagged, or out of range).
                if running_ids.contains(&id) {
                    flagged_at[id] = Some(k);
                }
            }
        }
    }

    outcome_from_flags(threshold, warmup, checkpoint_count, flagged_at, &truth)
}

/// Scores a finished replay from its per-task flag ordinals and ground
/// truth: end-of-job confusion plus the cumulative-F1 timeline (flags
/// with ordinal `<= k` count toward checkpoint `k`, exactly as they did
/// when [`replay_job`] accumulated the timeline inline).
///
/// This is the **post-hoc** half of the protocol — everything in it is
/// computable once all latencies are known, from data (`flagged_at`) that
/// was collected strictly online. `nurd_serve` relies on that split: its
/// engine records flags as events stream in and calls this at the end,
/// which is what makes an `EngineReport` bit-for-bit comparable to a
/// sequential [`replay_job`] of the same jobs.
///
/// # Panics
///
/// Panics if `flagged_at` and `truth` have different lengths.
#[must_use]
pub fn outcome_from_flags(
    threshold: f64,
    warmup_checkpoint: usize,
    checkpoint_count: usize,
    flagged_at: Vec<Option<usize>>,
    truth: &[bool],
) -> ReplayOutcome {
    assert_eq!(flagged_at.len(), truth.len(), "flags/truth length mismatch");
    // Flags first raised at each checkpoint, as [true, false] positives;
    // a flag at or past `checkpoint_count` never enters the timeline.
    let mut raised = vec![[0, 0]; checkpoint_count];
    let mut confusion = Confusion::default();
    for (flag, &is_straggler) in flagged_at.iter().zip(truth) {
        match (flag.is_some(), is_straggler) {
            (true, true) => confusion.true_positives += 1,
            (true, false) => confusion.false_positives += 1,
            (false, true) => confusion.false_negatives += 1,
            (false, false) => confusion.true_negatives += 1,
        }
        if let Some(at) = flag.and_then(|k| raised.get_mut(k)) {
            at[usize::from(!is_straggler)] += 1;
        }
    }

    // Flags are never unset, so the flag set at checkpoint `k` is the
    // running sum of those raised up to `k`: the same integer counts a
    // rescan of every task finds, hence the same F1 bits.
    let positives = confusion.true_positives + confusion.false_negatives;
    let negatives = confusion.false_positives + confusion.true_negatives;
    let mut so_far = Confusion::default();
    let f1_timeline = raised
        .into_iter()
        .map(|[tp, fp]| {
            so_far.true_positives += tp;
            so_far.false_positives += fp;
            so_far.false_negatives = positives - so_far.true_positives;
            so_far.true_negatives = negatives - so_far.false_positives;
            so_far.f1()
        })
        .collect();

    ReplayOutcome {
        threshold,
        flagged_at,
        confusion,
        f1_timeline,
        warmup_checkpoint,
    }
}

/// The timeline as [`outcome_from_flags`] once built it, one rescan of
/// every task per checkpoint: the oracle of
/// `prop_prefix_sum_timeline_is_bit_identical_to_the_rescan`.
#[cfg(test)]
fn rescanned_f1_timeline(flagged_at: &[Option<usize>], truth: &[bool], count: usize) -> Vec<f64> {
    (0..count)
        .map(|k| {
            let mut c = Confusion::default();
            for (flag, &is_straggler) in flagged_at.iter().zip(truth) {
                let flagged = flag.is_some_and(|o| o <= k);
                match (flagged, is_straggler) {
                    (true, true) => c.true_positives += 1,
                    (true, false) => c.false_positives += 1,
                    (false, true) => c.false_negatives += 1,
                    (false, false) => c.true_negatives += 1,
                }
            }
            c.f1()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nurd_trace::{SuiteConfig, TraceStyle};
    use proptest::prelude::*;

    /// Oracle predictor handed the job's true latencies when it is built —
    /// used only to validate the protocol accounting.
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

    struct FlagEverything;
    impl OnlinePredictor for FlagEverything {
        fn name(&self) -> &str {
            "ALL"
        }
        fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
            checkpoint.running.iter().map(|r| r.id).collect()
        }
    }

    struct FlagNothing;
    impl OnlinePredictor for FlagNothing {
        fn name(&self) -> &str {
            "NONE"
        }
        fn predict(&mut self, _checkpoint: &Checkpoint<'_>) -> Vec<usize> {
            Vec::new()
        }
    }

    fn job() -> JobTrace {
        let cfg = SuiteConfig::new(TraceStyle::Google)
            .with_jobs(1)
            .with_task_range(100, 120)
            .with_checkpoints(12)
            .with_seed(21);
        nurd_trace::generate_job(&cfg, 0)
    }

    #[test]
    fn oracle_catches_every_straggler_it_can_see() {
        let job = job();
        let out = replay_job(&job, &mut Oracle::new(&job), &ReplayConfig::default());
        // Stragglers run long, so all of them are still running at warmup
        // and the oracle flags them all; no false positives by construction.
        assert_eq!(out.confusion.false_positives, 0);
        assert_eq!(out.confusion.false_negatives, 0);
        assert_eq!(out.confusion.f1(), 1.0);
    }

    #[test]
    fn flag_nothing_yields_zero_f1_and_full_fnr() {
        let job = job();
        let out = replay_job(&job, &mut FlagNothing, &ReplayConfig::default());
        assert_eq!(out.confusion.true_positives, 0);
        assert_eq!(out.confusion.false_positives, 0);
        assert_eq!(out.confusion.fnr(), 1.0);
        assert!(out.f1_timeline.iter().all(|&f| f == 0.0));
    }

    #[test]
    fn flag_everything_has_perfect_tpr_terrible_precision() {
        let job = job();
        let out = replay_job(&job, &mut FlagEverything, &ReplayConfig::default());
        assert_eq!(out.confusion.false_negatives, 0);
        assert!(out.confusion.fpr() > 0.5);
        assert!(out.confusion.f1() < 0.5);
    }

    #[test]
    fn conservation_of_tasks() {
        let job = job();
        for predictor in [
            &mut FlagEverything as &mut dyn OnlinePredictor,
            &mut FlagNothing,
        ] {
            let out = replay_job(&job, predictor, &ReplayConfig::default());
            assert_eq!(out.confusion.total(), job.task_count());
        }
    }

    #[test]
    fn flagged_tasks_stay_flagged() {
        let job = job();
        let out = replay_job(&job, &mut FlagEverything, &ReplayConfig::default());
        // Every task flagged exactly once, at or after warmup.
        for flag in out.flagged_at.iter().flatten() {
            assert!(*flag >= out.warmup_checkpoint);
        }
        // Tasks finished before warmup are unflaggable.
        let warmup_time = job.checkpoint_times()[out.warmup_checkpoint];
        for (task, flag) in job.tasks().iter().zip(&out.flagged_at) {
            if task.latency() <= warmup_time && flag.is_some() {
                panic!("task finished before warmup got flagged");
            }
        }
    }

    #[test]
    fn timeline_is_monotone_for_oracle() {
        let job = job();
        let out = replay_job(&job, &mut Oracle::new(&job), &ReplayConfig::default());
        for w in out.f1_timeline.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "oracle F1 should only improve");
        }
    }

    #[test]
    fn decile_sampling_has_ten_points() {
        let job = job();
        let out = replay_job(&job, &mut Oracle::new(&job), &ReplayConfig::default());
        let deciles = out.f1_at_normalized_times(10);
        assert_eq!(deciles.len(), 10);
        assert_eq!(*deciles.last().unwrap(), *out.f1_timeline.last().unwrap());
    }

    #[test]
    fn higher_warmup_fraction_delays_prediction() {
        let job = job();
        let early = replay_job(&job, &mut Oracle::new(&job), &ReplayConfig::default());
        let late = replay_job(
            &job,
            &mut Oracle::new(&job),
            &ReplayConfig {
                warmup_fraction: 0.5,
                ..ReplayConfig::default()
            },
        );
        assert!(late.warmup_checkpoint >= early.warmup_checkpoint);
    }

    #[test]
    fn out_of_range_predictions_are_ignored() {
        struct Wild;
        impl OnlinePredictor for Wild {
            fn name(&self) -> &str {
                "WILD"
            }
            fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
                // Claim finished tasks and nonsense ids; none should count.
                checkpoint
                    .finished
                    .iter()
                    .map(|f| f.id)
                    .chain([usize::MAX >> 1])
                    .collect()
            }
        }
        let job = job();
        let out = replay_job(&job, &mut Wild, &ReplayConfig::default());
        assert!(out.flagged_ids().is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Each task is `[flag, truth]`: flag `0` is unflagged, `f` is
        /// flagged at ordinal `f - 1`, up to three past the last
        /// checkpoint; truth below 8 is a straggler.
        #[test]
        fn prop_prefix_sum_timeline_is_bit_identical_to_the_rescan(
            count in 0usize..12,
            tasks in collection::vec(collection::vec(0usize..16, 2), 0..80),
        ) {
            let flagged_at: Vec<Option<usize>> = tasks
                .iter()
                .map(|t| t[0].checked_sub(1).filter(|&k| k < count + 3))
                .collect();
            let truth: Vec<bool> = tasks.iter().map(|t| t[1] < 8).collect();
            let oracle = rescanned_f1_timeline(&flagged_at, &truth, count);
            let outcome = outcome_from_flags(55.0, 0, count, flagged_at, &truth);
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&outcome.f1_timeline), bits(&oracle));
        }
    }
}
