//! The sequential reference and the correctness guard every pass runs.

use std::time::Instant;

use nurd_data::JobTrace;
use nurd_serve::{EngineStats, JobReport, RecoverReport};
use nurd_sim::{replay_job, ReplayConfig, ReplayOutcome};

use crate::harness::{predictor, Crashed, Saturated, WARMUP_FRACTION};
use crate::workloads::{Workload, QUANTILE};
use crate::wrappers::Recorder;

/// What sequential `nurd_sim::replay_job` makes of the same jobs.
pub struct Reference {
    /// Per job (index = job id): the outcome the engine must reproduce.
    pub outcomes: Vec<ReplayOutcome>,
    /// Per job, per checkpoint ordinal: whether the predictor was invoked
    /// there — the barriers the lockstep producer waits on.
    pub scored: Vec<Vec<bool>>,
    pub scored_barriers: usize,
    /// Wall time of the whole single-threaded replay.
    pub replay_s: f64,
    pub macro_f1: f64,
}

pub fn build(workload: &Workload, jobs: &[JobTrace]) -> Reference {
    let config = ReplayConfig {
        quantile: QUANTILE,
        warmup_fraction: WARMUP_FRACTION,
    };
    let rec = Recorder::new();
    let start = Instant::now();
    let outcomes: Vec<ReplayOutcome> = jobs
        .iter()
        .enumerate()
        .map(|(index, job)| {
            assert_eq!(job.job_id(), index as u64, "job ids are dense");
            let mut timed = predictor(workload, job.job_id(), Some(&rec));
            replay_job(job, timed.as_mut(), &config)
        })
        .collect();
    let replay_s = start.elapsed().as_secs_f64();
    let spans = rec.spans();
    let mut scored: Vec<Vec<bool>> = jobs
        .iter()
        .map(|j| vec![false; j.checkpoint_count()])
        .collect();
    for span in spans.iter().filter(|s| s.name == "core.predict") {
        scored[span.job as usize][span.ordinal] = true;
    }
    let macro_f1 =
        outcomes.iter().map(|o| o.confusion.f1()).sum::<f64>() / outcomes.len().max(1) as f64;
    Reference {
        scored_barriers: scored.iter().flatten().filter(|&&s| s).count(),
        scored,
        replay_s,
        macro_f1,
        outcomes,
    }
}

/// Operations attempted and failed so far in this run. A job whose served
/// outcome differs from the reference, a job missing from the report, and
/// every lost, orphaned or rejected event is one failed operation.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Checks one served pass: `reports` against the reference, and the
    /// engine's event accounting against the `pushed` events. Failures are
    /// printed, never hidden.
    pub fn check(
        &mut self,
        what: &str,
        reference: &Reference,
        reports: &[JobReport],
        pushed: usize,
        applied: usize,
        stats: &EngineStats,
    ) {
        self.attempted += reference.outcomes.len() as u64;
        for (job, outcome) in reference.outcomes.iter().enumerate() {
            // Reports come in ascending job id.
            let served = reports
                .binary_search_by_key(&(job as u64), |r| r.job)
                .map(|at| &reports[at]);
            match served {
                Ok(served) if served.outcome == *outcome => {}
                Ok(_) => {
                    self.failed += 1;
                    println!("# FAILED {what}: job {job} outcome differs from sequential replay");
                }
                Err(_) => {
                    self.failed += 1;
                    println!("# FAILED {what}: job {job} missing from the report");
                }
            }
        }
        self.check_events(what, pushed, applied, stats);
    }

    /// Checks a saturated phase: reports and events of a full pass, the
    /// events alone of one that ended in a kill.
    pub fn check_saturated(&mut self, what: &str, reference: &Reference, sat: &Saturated) {
        match sat {
            Saturated::Full(pass) => self.check(
                what,
                reference,
                &pass.report.jobs,
                pass.pushed,
                pass.report.events,
                &pass.stats,
            ),
            Saturated::ToCut(crashed) => {
                let applied = crashed.stats.events_per_shard.iter().sum();
                self.check_events(what, crashed.pushed, applied, &crashed.stats);
            }
        }
    }

    /// Checks a recovery receipt against the crash it recovered from:
    /// `recover_s` only times the real path if the cut snapshot loaded
    /// with no fallback and every job live at the cut resumed.
    pub fn check_receipt(&mut self, crashed: &Crashed, receipt: &RecoverReport) {
        self.attempted += crashed.live_jobs as u64;
        let real_path = receipt.snapshot_generation == Some(crashed.cut_generation)
            && receipt.recovery_fallbacks == 0
            && receipt.resumed_jobs == crashed.live_jobs;
        if !real_path {
            let lost = crashed
                .live_jobs
                .saturating_sub(receipt.resumed_jobs)
                .max(1);
            self.failed += lost as u64;
            println!(
                "# FAILED recover: snapshot {:?} (cut {}), {} fallbacks, {} of {} live jobs resumed",
                receipt.snapshot_generation,
                crashed.cut_generation,
                receipt.recovery_fallbacks,
                receipt.resumed_jobs,
                crashed.live_jobs
            );
        }
    }

    /// The event half of [`Tally::check`], for passes that end in a kill
    /// and so have no reports to compare.
    pub fn check_events(&mut self, what: &str, pushed: usize, applied: usize, stats: &EngineStats) {
        self.attempted += pushed as u64;
        let lost = stats.overload.lost_events() + pushed.saturating_sub(applied);
        for (count, kind) in [
            (lost, "lost"),
            (stats.orphan_events, "orphan"),
            (stats.rejected_events, "rejected"),
        ] {
            if count > 0 {
                self.failed += count as u64;
                println!("# FAILED {what}: {count} {kind} events");
            }
        }
    }
}
