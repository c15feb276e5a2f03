//! The multi-job task-event stream consumed by `nurd-serve`.
//!
//! A single replay (`nurd_sim::replay_job`) drives one predictor with one
//! job's checkpoints. A *fleet* of concurrent jobs is instead described as
//! one interleaved stream of [`TaskEvent`]s — task submissions, per-
//! checkpoint feature snapshots, completions — multiplexed across jobs.
//! The engine's determinism contract rests on one ordering rule:
//!
//! > **Events of the same job arrive in checkpoint order; events of
//! > different jobs may interleave arbitrarily.**
//!
//! [`job_stream`] lowers a [`JobTrace`] into its canonical per-job stream
//! (the exact information the replay protocol reveals at each checkpoint,
//! nothing more, between the job's lifecycle markers);
//! `nurd_trace::staggered_fleet_events` merges many jobs into one
//! time-ordered fleet stream.

use crate::{JobTrace, TaskId};

/// Static, per-job metadata an operator supplies when a job enters the
/// serving engine: the [`StreamContext`](crate::StreamContext) its
/// predictor starts from, plus the job's id and checkpoint count.
///
/// `threshold` is the straggler latency bound `τ_stra`. The paper treats
/// threshold selection as out of scope (§4.2) and derives it from the
/// trace's p90; a production deployment would take it from an SLA. Either
/// way it is an *input* here.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Fleet-unique job identifier.
    pub job: u64,
    /// Straggler latency threshold `τ_stra`.
    pub threshold: f64,
    /// Number of tasks in the job (task ids are dense `0..task_count`).
    pub task_count: usize,
    /// Feature dimensionality of every snapshot.
    pub feature_dim: usize,
    /// Number of checkpoints the job will report
    /// ([`TaskEvent::Barrier`] ordinals are `0..checkpoints`).
    pub checkpoints: usize,
}

impl JobSpec {
    /// Builds the spec for a job trace with `τ_stra` at latency quantile
    /// `quantile` (the paper's p90 protocol at `0.9`).
    ///
    /// # Panics
    ///
    /// Panics if `quantile` is outside `[0, 1]` (propagated from
    /// [`JobTrace::straggler_threshold`]).
    #[must_use]
    pub fn of_trace(job: &JobTrace, quantile: f64) -> Self {
        JobSpec {
            job: job.job_id(),
            threshold: job.straggler_threshold(quantile),
            task_count: job.task_count(),
            feature_dim: job.feature_dim(),
            checkpoints: job.checkpoint_count(),
        }
    }
}

/// One event of a fleet stream. See the module docs for the ordering
/// contract.
///
/// The two *lifecycle* variants bracket a job's stream: [`TaskEvent::JobStart`]
/// carries the [`JobSpec`] so a streaming engine can admit the job on first
/// sight (no up-front registry), and [`TaskEvent::JobEnd`] announces that no
/// further events of the job will arrive, letting the engine finalize it and
/// release its state. [`job_stream`] emits both.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskEvent {
    /// A new job's stream begins; carries everything an engine needs to
    /// admit it. Always the first event of the job (per-job order).
    JobStart {
        /// The job's static metadata (id, `τ_stra`, task count, feature
        /// dimensionality, checkpoint count).
        spec: JobSpec,
    },
    /// The job's stream has ended: no further events of this job will
    /// arrive, and a streaming engine should finalize it now (emit its
    /// report, drop its state). Always the last event of the job.
    JobEnd {
        /// Owning job.
        job: u64,
        /// Elapsed time `τ_run` at which the stream ended (at or after the
        /// job's last checkpoint).
        time: f64,
    },
    /// A task entered the system (before its first checkpoint).
    Submitted {
        /// Owning job.
        job: u64,
        /// Task id within the job.
        task: TaskId,
    },
    /// The scheduler's node placement for the whole job: `nodes[t]` is the
    /// machine task `t` was placed on. Optional — jobs without placement
    /// metadata never emit it — and when present it arrives once, before
    /// the first barrier, so node-aware consumers (mitigation policies,
    /// the health aggregator) see placement from the first scored
    /// checkpoint on. Placement is invisible to predictors.
    Placed {
        /// Owning job.
        job: u64,
        /// Machine id per task, dense task-id order (`nodes.len()` equals
        /// the job's task count).
        nodes: Vec<u32>,
    },
    /// Feature snapshot of a still-running task at a checkpoint.
    Progress {
        /// Owning job.
        job: u64,
        /// Task id within the job.
        task: TaskId,
        /// Checkpoint ordinal (0-based).
        ordinal: usize,
        /// Elapsed time `τ_run` at the checkpoint.
        time: f64,
        /// The task's feature snapshot at this checkpoint.
        features: Vec<f64>,
    },
    /// A task completed; its latency is now observable and its feature
    /// snapshot is frozen. Emitted exactly once per task, at the first
    /// checkpoint whose time covers the task's latency.
    Finished {
        /// Owning job.
        job: u64,
        /// Task id within the job.
        task: TaskId,
        /// Checkpoint ordinal at which the completion is observed.
        ordinal: usize,
        /// Elapsed time `τ_run` at the checkpoint.
        time: f64,
        /// The task's final (frozen) feature snapshot.
        features: Vec<f64>,
        /// Observed latency (`latency <= time`).
        latency: f64,
    },
    /// Every `Progress`/`Finished` event of checkpoint `ordinal` for `job`
    /// has been delivered — the engine scores the job's running tasks now
    /// (batched scoring at checkpoint boundaries).
    Barrier {
        /// Owning job.
        job: u64,
        /// Checkpoint ordinal being closed.
        ordinal: usize,
        /// Elapsed time `τ_run` at the checkpoint.
        time: f64,
    },
}

impl TaskEvent {
    /// The job this event belongs to — the engine's sharding key.
    #[must_use]
    pub fn job(&self) -> u64 {
        match self {
            TaskEvent::JobStart { spec } => spec.job,
            TaskEvent::JobEnd { job, .. }
            | TaskEvent::Submitted { job, .. }
            | TaskEvent::Placed { job, .. }
            | TaskEvent::Progress { job, .. }
            | TaskEvent::Finished { job, .. }
            | TaskEvent::Barrier { job, .. } => *job,
        }
    }

    /// Wall-clock position of the event in its job's timeline
    /// (job starts and submissions sort at time zero).
    #[must_use]
    pub fn time(&self) -> f64 {
        match self {
            TaskEvent::JobStart { .. } | TaskEvent::Submitted { .. } | TaskEvent::Placed { .. } => {
                0.0
            }
            TaskEvent::JobEnd { time, .. }
            | TaskEvent::Progress { time, .. }
            | TaskEvent::Finished { time, .. }
            | TaskEvent::Barrier { time, .. } => *time,
        }
    }
}

impl nurd_codec::Checkpointable for JobSpec {
    fn encode(&self, enc: &mut nurd_codec::Encoder) {
        enc.put_u64(self.job);
        enc.put_f64(self.threshold);
        enc.put_usize(self.task_count);
        enc.put_usize(self.feature_dim);
        enc.put_usize(self.checkpoints);
    }

    fn decode(dec: &mut nurd_codec::Decoder<'_>) -> Result<Self, nurd_codec::CodecError> {
        Ok(JobSpec {
            job: dec.take_u64()?,
            threshold: dec.take_f64()?,
            task_count: dec.take_usize()?,
            feature_dim: dec.take_usize()?,
            checkpoints: dec.take_usize()?,
        })
    }
}

/// Events serialize with a one-byte variant tag; feature vectors travel
/// bit-exactly (`f64::to_bits`), so a WAL replay feeds the engine the
/// *identical* floats the live stream carried.
impl nurd_codec::Checkpointable for TaskEvent {
    fn encode(&self, enc: &mut nurd_codec::Encoder) {
        match self {
            TaskEvent::JobStart { spec } => {
                enc.put_u8(0);
                spec.encode(enc);
            }
            TaskEvent::JobEnd { job, time } => {
                enc.put_u8(1);
                enc.put_u64(*job);
                enc.put_f64(*time);
            }
            TaskEvent::Submitted { job, task } => {
                enc.put_u8(2);
                enc.put_u64(*job);
                enc.put_usize(*task);
            }
            TaskEvent::Progress {
                job,
                task,
                ordinal,
                time,
                features,
            } => {
                enc.put_u8(3);
                enc.put_u64(*job);
                enc.put_usize(*task);
                enc.put_usize(*ordinal);
                enc.put_f64(*time);
                features.encode(enc);
            }
            TaskEvent::Finished {
                job,
                task,
                ordinal,
                time,
                features,
                latency,
            } => {
                enc.put_u8(4);
                enc.put_u64(*job);
                enc.put_usize(*task);
                enc.put_usize(*ordinal);
                enc.put_f64(*time);
                features.encode(enc);
                enc.put_f64(*latency);
            }
            TaskEvent::Barrier { job, ordinal, time } => {
                enc.put_u8(5);
                enc.put_u64(*job);
                enc.put_usize(*ordinal);
                enc.put_f64(*time);
            }
            TaskEvent::Placed { job, nodes } => {
                enc.put_u8(6);
                enc.put_u64(*job);
                enc.put_usize(nodes.len());
                for &node in nodes {
                    enc.put_u32(node);
                }
            }
        }
    }

    fn decode(dec: &mut nurd_codec::Decoder<'_>) -> Result<Self, nurd_codec::CodecError> {
        Ok(match dec.take_u8()? {
            0 => TaskEvent::JobStart {
                spec: JobSpec::decode(dec)?,
            },
            1 => TaskEvent::JobEnd {
                job: dec.take_u64()?,
                time: dec.take_f64()?,
            },
            2 => TaskEvent::Submitted {
                job: dec.take_u64()?,
                task: dec.take_usize()?,
            },
            3 => TaskEvent::Progress {
                job: dec.take_u64()?,
                task: dec.take_usize()?,
                ordinal: dec.take_usize()?,
                time: dec.take_f64()?,
                features: take_vec(dec, 8, nurd_codec::Decoder::take_f64)?,
            },
            4 => TaskEvent::Finished {
                job: dec.take_u64()?,
                task: dec.take_usize()?,
                ordinal: dec.take_usize()?,
                time: dec.take_f64()?,
                features: take_vec(dec, 8, nurd_codec::Decoder::take_f64)?,
                latency: dec.take_f64()?,
            },
            5 => TaskEvent::Barrier {
                job: dec.take_u64()?,
                ordinal: dec.take_usize()?,
                time: dec.take_f64()?,
            },
            6 => TaskEvent::Placed {
                job: dec.take_u64()?,
                nodes: take_vec(dec, 4, nurd_codec::Decoder::take_u32)?,
            },
            tag => {
                return Err(nurd_codec::CodecError::InvalidTag {
                    what: "TaskEvent",
                    tag,
                })
            }
        })
    }
}

/// A length-prefixed vector of `width`-byte values. A count whose values
/// the payload cannot hold errs before anything is reserved, so a hostile
/// length reserves no more than the bytes present.
fn take_vec<'a, T>(
    dec: &mut nurd_codec::Decoder<'a>,
    width: usize,
    take: impl Fn(&mut nurd_codec::Decoder<'a>) -> Result<T, nurd_codec::CodecError>,
) -> Result<Vec<T>, nurd_codec::CodecError> {
    let len = dec.take_len(width)?;
    let mut values = Vec::with_capacity(len);
    for _ in 0..len {
        values.push(take(dec)?);
    }
    Ok(values)
}

/// Lowers one job trace into its event stream: a leading
/// [`TaskEvent::JobStart`] carrying the [`JobSpec`] (`τ_stra` at latency
/// quantile `threshold_quantile`), all submissions, then per checkpoint
/// the `Progress`/`Finished` events (task-id order) closed by a
/// `Barrier`, and a trailing [`TaskEvent::JobEnd`] at the last
/// checkpoint's time. The stream reveals exactly what the replay
/// protocol reveals — a running task's latency is never visible before
/// the checkpoint that observes its completion. This is the per-job unit
/// `nurd_trace::staggered_fleet_events` merges into a fleet stream, and
/// the one shape in which a job enters the serving engine.
///
/// A task's features travel in its `Finished` event exactly once, frozen
/// at the completion checkpoint. The engine-equals-replay determinism
/// contract therefore assumes the trace's snapshots are **frozen after
/// completion** — `task.snapshot(k)` constant for every `k` at or past
/// the finishing checkpoint. That is the same invariant the warm-start
/// refit subsystem already leans on (see [`crate::FinishedDelta`]), and
/// every `nurd-trace`-generated trace guarantees it; a hand-built trace
/// whose features keep mutating after completion is outside both
/// subsystems' contracts (sequential `replay_job` would
/// re-read the drifting snapshot, this stream cannot).
#[must_use]
pub fn job_stream(job: &JobTrace, threshold_quantile: f64) -> Vec<TaskEvent> {
    let mut stream = Vec::with_capacity(event_bound(job) + 2);
    stream.push(TaskEvent::JobStart {
        spec: JobSpec::of_trace(job, threshold_quantile),
    });
    push_events(job, &mut stream);
    stream.push(TaskEvent::JobEnd {
        job: job.job_id(),
        time: job.checkpoint_times().last().copied().unwrap_or(0.0),
    });
    stream
}

/// The most events [`job_stream`] emits for `job` between its lifecycle
/// markers: every submission, the placement, and per checkpoint one event
/// a task plus its barrier.
fn event_bound(job: &JobTrace) -> usize {
    let tasks = job.task_count();
    tasks + usize::from(job.node_placement().is_some()) + job.checkpoint_count() * (tasks + 1)
}

/// Appends `job`'s events between its lifecycle markers to `events`.
fn push_events(job: &JobTrace, events: &mut Vec<TaskEvent>) {
    let id = job.job_id();
    for task in job.tasks() {
        events.push(TaskEvent::Submitted {
            job: id,
            task: task.id(),
        });
    }
    if let Some(nodes) = job.node_placement() {
        events.push(TaskEvent::Placed {
            job: id,
            nodes: nodes.to_vec(),
        });
    }
    let mut finished = vec![false; job.task_count()];
    for (k, &time) in job.checkpoint_times().iter().enumerate() {
        for task in job.tasks() {
            if task.latency() <= time {
                if !finished[task.id()] {
                    finished[task.id()] = true;
                    events.push(TaskEvent::Finished {
                        job: id,
                        task: task.id(),
                        ordinal: k,
                        time,
                        features: task.snapshot(k).to_vec(),
                        latency: task.latency(),
                    });
                }
            } else {
                events.push(TaskEvent::Progress {
                    job: id,
                    task: task.id(),
                    ordinal: k,
                    time,
                    features: task.snapshot(k).to_vec(),
                });
            }
        }
        events.push(TaskEvent::Barrier {
            job: id,
            ordinal: k,
            time,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskRecord;

    fn job() -> JobTrace {
        let tasks = vec![
            TaskRecord::new(0, 1.0, vec![vec![0.1], vec![0.2], vec![0.2]]),
            TaskRecord::new(1, 5.0, vec![vec![0.5], vec![0.6], vec![0.7]]),
            TaskRecord::new(2, 9.0, vec![vec![0.9], vec![1.0], vec![1.1]]),
        ];
        JobTrace::new(3, vec!["f".into()], vec![2.0, 6.0, 10.0], tasks).unwrap()
    }

    #[test]
    fn stream_reveals_latency_only_after_completion() {
        let events = job_stream(&job(), 0.9);
        let TaskEvent::JobStart { spec } = &events[0] else {
            panic!("the stream opens with its JobStart")
        };
        assert_eq!(spec.task_count, 3);
        assert_eq!(spec.checkpoints, 3);
        let mut finished_seen = std::collections::HashSet::new();
        for ev in &events {
            match ev {
                TaskEvent::Finished {
                    task,
                    time,
                    latency,
                    ..
                } => {
                    assert!(latency <= time, "latency leaked before completion");
                    assert!(finished_seen.insert(*task), "duplicate Finished");
                }
                TaskEvent::Progress { task, time, .. } => {
                    let true_latency = job().tasks()[*task].latency();
                    assert!(true_latency > *time, "finished task kept progressing");
                }
                _ => {}
            }
        }
        assert_eq!(finished_seen.len(), 3, "every task finishes in-stream");
    }

    #[test]
    fn barriers_close_each_checkpoint_in_order() {
        let events = job_stream(&job(), 0.9);
        let barriers: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                TaskEvent::Barrier { ordinal, .. } => Some(*ordinal),
                _ => None,
            })
            .collect();
        assert_eq!(barriers, vec![0, 1, 2]);
        // No event of checkpoint k appears after barrier k.
        let mut closed = 0usize;
        for ev in &events {
            match ev {
                TaskEvent::Barrier { ordinal, .. } => closed = ordinal + 1,
                TaskEvent::Progress { ordinal, .. } | TaskEvent::Finished { ordinal, .. } => {
                    assert!(*ordinal >= closed, "event after its barrier");
                }
                TaskEvent::JobStart { .. }
                | TaskEvent::Submitted { .. }
                | TaskEvent::Placed { .. } => assert_eq!(closed, 0),
                TaskEvent::JobEnd { .. } => assert_eq!(closed, 3, "JobEnd before the last barrier"),
            }
        }
    }

    #[test]
    fn event_accessors_cover_all_variants() {
        let events = job_stream(&job(), 0.9);
        for ev in &events {
            assert_eq!(ev.job(), 3);
            assert!(ev.time() >= 0.0);
        }
        assert_eq!(events[1].time(), 0.0, "submissions sort at time zero");
    }

    #[test]
    fn job_stream_brackets_events_with_lifecycle_markers() {
        let j = job();
        let stream = job_stream(&j, 0.9);
        // Three submissions; checkpoint 0 finishes task 0 and sees two
        // running, checkpoint 1 finishes task 1 and sees one, checkpoint 2
        // finishes task 2; a barrier each.
        assert_eq!(stream.len(), 2 + 3 + 4 + 3 + 2);
        let spec = JobSpec::of_trace(&j, 0.9);
        assert_eq!(stream[0], TaskEvent::JobStart { spec });
        assert_eq!(
            *stream.last().unwrap(),
            TaskEvent::JobEnd { job: 3, time: 10.0 }
        );
        let inner = &stream[1..stream.len() - 1];
        assert!(inner
            .iter()
            .all(|e| !matches!(e, TaskEvent::JobStart { .. } | TaskEvent::JobEnd { .. })));
        // Lifecycle accessors participate in the merge keys.
        assert_eq!(stream[0].job(), 3);
        assert_eq!(stream[0].time(), 0.0);
        assert_eq!(stream.last().unwrap().time(), 10.0);
    }

    #[test]
    fn placed_event_emitted_once_before_first_barrier() {
        let j = job().with_nodes(vec![0, 1, 0]).unwrap();
        let events = job_stream(&j, 0.9);
        let placed: Vec<usize> = events
            .iter()
            .enumerate()
            .filter_map(|(i, e)| matches!(e, TaskEvent::Placed { .. }).then_some(i))
            .collect();
        assert_eq!(placed.len(), 1);
        let first_barrier = events
            .iter()
            .position(|e| matches!(e, TaskEvent::Barrier { .. }))
            .unwrap();
        assert!(placed[0] < first_barrier);

        // Placement round-trips through the codec bit-exactly.
        use nurd_codec::{Checkpointable, Decoder, Encoder};
        let mut enc = Encoder::new();
        events[placed[0]].encode(&mut enc);
        let bytes = enc.into_bytes();
        let back = TaskEvent::decode(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(back, events[placed[0]]);

        // A trace without placement emits no Placed event at all.
        let bare = job_stream(&job(), 0.9);
        assert!(bare.iter().all(|e| !matches!(e, TaskEvent::Placed { .. })));
    }

    #[test]
    fn placed_decode_refuses_a_node_count_its_payload_cannot_hold() {
        use nurd_codec::{Checkpointable, CodecError, Decoder, Encoder};
        // Tag 6, job 9, then a count of 2⁴⁰ nodes and none of their bytes:
        // seventeen bytes that used to ask the allocator for 4 TiB.
        let mut enc = Encoder::new();
        enc.put_u8(6);
        enc.put_u64(9);
        enc.put_usize(1 << 40);
        let bytes = enc.into_bytes();
        assert_eq!(bytes.len(), 17);
        assert!(matches!(
            TaskEvent::decode(&mut Decoder::new(&bytes)),
            Err(CodecError::LengthOverrun { declared, remaining: 0 }) if declared == 1 << 40
        ));
    }

    #[test]
    fn every_tag_refuses_truncation_and_counts_its_payload_cannot_hold() {
        use nurd_codec::{Checkpointable, CodecError, Decoder, Encoder};
        let features = vec![0.5, -1.0, 2.0];
        // Each tag's event, with the byte offset and value width of every
        // length field in its encoding.
        let table: [(TaskEvent, &[(usize, u64)]); 7] = [
            (
                TaskEvent::JobStart {
                    spec: JobSpec::of_trace(&job(), 0.9),
                },
                &[],
            ),
            (TaskEvent::JobEnd { job: 3, time: 10.0 }, &[]),
            (TaskEvent::Submitted { job: 3, task: 1 }, &[]),
            (
                TaskEvent::Progress {
                    job: 3,
                    task: 1,
                    ordinal: 0,
                    time: 2.0,
                    features: features.clone(),
                },
                &[(33, 8)],
            ),
            (
                TaskEvent::Finished {
                    job: 3,
                    task: 0,
                    ordinal: 0,
                    time: 2.0,
                    features,
                    latency: 1.0,
                },
                &[(33, 8)],
            ),
            (
                TaskEvent::Barrier {
                    job: 3,
                    ordinal: 0,
                    time: 2.0,
                },
                &[],
            ),
            (
                TaskEvent::Placed {
                    job: 3,
                    nodes: vec![0, 1, 0],
                },
                &[(9, 4)],
            ),
        ];
        for (tag, (event, lengths)) in table.iter().enumerate() {
            let mut enc = Encoder::new();
            event.encode(&mut enc);
            let bytes = enc.into_bytes();
            assert_eq!(usize::from(bytes[0]), tag);
            assert_eq!(
                TaskEvent::decode(&mut Decoder::new(&bytes)).as_ref(),
                Ok(event)
            );
            for cut in 0..bytes.len() {
                assert!(
                    TaskEvent::decode(&mut Decoder::new(&bytes[..cut])).is_err(),
                    "tag {tag} decoded from {cut} of its {} bytes",
                    bytes.len()
                );
            }
            for &(at, width) in *lengths {
                // 2⁴⁰, and the smallest count the remaining bytes cannot
                // hold: both err before a value is reserved.
                let remaining = (bytes.len() - at - 8) as u64;
                for declared in [1 << 40, remaining / width + 1] {
                    let mut hostile = bytes.clone();
                    hostile[at..at + 8].copy_from_slice(&declared.to_le_bytes());
                    assert_eq!(
                        TaskEvent::decode(&mut Decoder::new(&hostile)),
                        Err(CodecError::LengthOverrun {
                            declared,
                            remaining: remaining as usize,
                        }),
                        "tag {tag}, length at byte {at}"
                    );
                }
            }
        }
        assert_eq!(
            TaskEvent::decode(&mut Decoder::new(&[7])),
            Err(CodecError::InvalidTag {
                what: "TaskEvent",
                tag: 7
            })
        );
    }

    #[test]
    fn spec_matches_trace_protocol_quantities() {
        let j = job();
        let spec = JobSpec::of_trace(&j, 0.9);
        assert_eq!(spec.threshold, j.straggler_threshold(0.9));
        assert_eq!(spec.feature_dim, 1);
    }
}
