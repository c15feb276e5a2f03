//! Lifecycle edges of the streaming engine: mid-stream admission, events
//! after finalization, `JobEnd` before the warmup quorum and phase
//! transitions, observed through a running service at its
//! [`EngineService::quiesce`] points. (What needs drain points no
//! background worker can race, such as one pop's balancing decision or a
//! push blocked on a full queue, is a unit test of the crate-private
//! core, in `src/engine.rs`.)

use nurd_data::{Checkpoint, JobSpec, OnlinePredictor, TaskEvent};
use nurd_serve::{
    EngineConfig, EngineService, FinalizeReason, JobPhase, PredictorFactory, ServiceConfig,
};

/// Flags every running task at its first scored checkpoint.
struct FlagAll;
impl OnlinePredictor for FlagAll {
    fn name(&self) -> &str {
        "ALL"
    }
    fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
        checkpoint.running.iter().map(|r| r.id).collect()
    }
}

fn factory() -> PredictorFactory {
    Box::new(|_| Box::new(FlagAll))
}

fn start() -> EngineService {
    EngineService::start(EngineConfig::default(), ServiceConfig::default(), factory())
}

fn spec(job: u64, checkpoints: usize) -> JobSpec {
    JobSpec {
        job,
        threshold: 10.0,
        task_count: 3,
        feature_dim: 1,
        checkpoints,
    }
}

fn submissions(job: u64) -> Vec<TaskEvent> {
    (0..3)
        .map(|task| TaskEvent::Submitted { job, task })
        .collect()
}

fn progress(job: u64, task: usize, ordinal: usize, time: f64) -> TaskEvent {
    TaskEvent::Progress {
        job,
        task,
        ordinal,
        time,
        features: vec![0.5],
    }
}

fn finished(job: u64, task: usize, ordinal: usize, time: f64, latency: f64) -> TaskEvent {
    TaskEvent::Finished {
        job,
        task,
        ordinal,
        time,
        features: vec![0.5],
        latency,
    }
}

fn barrier(job: u64, ordinal: usize, time: f64) -> TaskEvent {
    TaskEvent::Barrier { job, ordinal, time }
}

/// A complete 2-checkpoint stream: task 0 finishes fast, 1 finishes
/// under threshold, 2 never finishes.
fn full_stream(job: u64) -> Vec<TaskEvent> {
    let mut events = vec![TaskEvent::JobStart { spec: spec(job, 2) }];
    events.extend(submissions(job));
    events.extend([
        finished(job, 0, 0, 4.0, 2.0),
        progress(job, 1, 0, 4.0),
        progress(job, 2, 0, 4.0),
        barrier(job, 0, 4.0),
        finished(job, 1, 1, 8.0, 6.0),
        progress(job, 2, 1, 8.0),
        barrier(job, 1, 8.0),
        TaskEvent::JobEnd { job, time: 8.0 },
    ]);
    events
}

#[test]
fn events_for_a_finalized_job_are_stale_not_fatal() {
    let clean = {
        let service = start();
        service.push_all(full_stream(1));
        service.close()
    };

    let service = start();
    service.push_all(full_stream(1));
    service.quiesce();
    assert_eq!(service.job_phase(1), Some(JobPhase::Finalized));
    // A whole burst after finalization: progress, a barrier, a second
    // JobEnd, even a JobStart restart of the dead id.
    service.push_all([
        progress(1, 2, 1, 8.0),
        barrier(1, 1, 8.0),
        TaskEvent::JobEnd { job: 1, time: 9.0 },
        TaskEvent::JobStart { spec: spec(1, 2) },
    ]);
    service.quiesce();
    let stats = service.stats();
    // The last barrier already finalized the job, so the stream's own
    // JobEnd is stale too: 1 (in-stream JobEnd) + 4 late events.
    assert_eq!(stats.stale_events, 5);
    assert_eq!(stats.orphan_events, 0);
    assert_eq!(stats.rejected_events, 0);
    assert_eq!(stats.finalized_jobs, 1);
    let report = service.close();
    assert_eq!(report.jobs, clean.jobs, "stale events changed the report");
}

#[test]
fn job_end_before_warmup_quorum_finalizes_cleanly() {
    let service = start();
    let mut events = vec![TaskEvent::JobStart { spec: spec(7, 4) }];
    events.extend(submissions(7));
    // One checkpoint of pure progress — nothing finished, quorum
    // (1 task) never held — then the stream dies.
    events.extend([
        progress(7, 0, 0, 2.0),
        progress(7, 1, 0, 2.0),
        progress(7, 2, 0, 2.0),
        barrier(7, 0, 2.0),
        TaskEvent::JobEnd { job: 7, time: 2.5 },
    ]);
    service.push_all(events);
    service.quiesce();
    let reports = service.take_finalized();
    assert_eq!(reports.len(), 1);
    let r = &reports[0];
    assert_eq!(r.finalized, FinalizeReason::JobEnd);
    assert_eq!(r.checkpoints_scored, 0, "predictor never ran pre-quorum");
    // The warmup fallback mirrors sequential replay: last checkpoint.
    assert_eq!(r.outcome.warmup_checkpoint, 3);
    // No task finished: all three outlived the stream, none was flagged.
    assert_eq!(r.outcome.confusion.false_negatives, 3);
    assert_eq!(r.outcome.confusion.total(), 3);
}

#[test]
fn jobs_walk_the_phase_state_machine() {
    let service = start();
    assert_eq!(service.job_phase(5), None, "unknown before admission");

    service.push(TaskEvent::JobStart { spec: spec(5, 3) });
    service.push_all(submissions(5));
    service.quiesce();
    assert_eq!(service.job_phase(5), Some(JobPhase::Admitted));

    // A closed checkpoint with no completions: warming, not scoring.
    service.push_all([
        progress(5, 0, 0, 1.0),
        progress(5, 1, 0, 1.0),
        progress(5, 2, 0, 1.0),
        barrier(5, 0, 1.0),
    ]);
    service.quiesce();
    assert_eq!(service.job_phase(5), Some(JobPhase::Warming));

    // A completion satisfies the quorum at the next barrier: scoring.
    service.push_all([
        finished(5, 0, 1, 4.0, 2.0),
        progress(5, 1, 1, 4.0),
        progress(5, 2, 1, 4.0),
        barrier(5, 1, 4.0),
    ]);
    service.quiesce();
    assert_eq!(service.job_phase(5), Some(JobPhase::Scoring));

    service.push(TaskEvent::JobEnd { job: 5, time: 5.0 });
    service.quiesce();
    assert_eq!(service.job_phase(5), Some(JobPhase::Finalized));
    assert_eq!(service.take_finalized().len(), 1);
}

#[test]
fn mid_stream_admission_after_another_job_finalized() {
    let service = start();
    // Job 1 lives and dies...
    service.push_all(full_stream(1));
    service.quiesce();
    assert_eq!(service.job_phase(1), Some(JobPhase::Finalized));
    // ...then job 2 arrives, long after, with no registry anywhere.
    service.push_all(full_stream(2));
    service.quiesce();
    let reports = service.take_finalized();
    assert_eq!(
        reports.iter().map(|r| r.job).collect::<Vec<_>>(),
        vec![1, 2]
    );
    // Identical streams (modulo id) ⇒ identical outcomes.
    assert_eq!(reports[0].outcome.confusion, reports[1].outcome.confusion);
}
