//! Interleaved multi-job event streams — the fleet-scale workload shape
//! `nurd-serve` ingests.
//!
//! One replay drives one job; a datacenter runs many at once. This module
//! lowers a suite of [`JobTrace`]s into a single stream of
//! [`TaskEvent`]s whose jobs interleave the way concurrent jobs do on a
//! shared cluster, while preserving the one ordering guarantee the
//! serving engine needs: **per-job event order is checkpoint order**.
//! Every job enters the stream as its [`job_stream`], bracketed by its
//! `JobStart`/`JobEnd` lifecycle markers. Cross-job order is irrelevant
//! to the engine's output (that is its determinism contract,
//! property-tested in `nurd-serve`), so two interleavings are provided: a
//! time-ordered merge with staggered job arrivals and departures
//! ([`staggered_fleet_events`]; a spread of `0.0` gives the canonical
//! simultaneous-arrival order) and a seeded random merge for adversarial
//! shuffling in tests ([`interleave_events`]).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::vec::IntoIter;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nurd_data::{job_stream, JobTrace, TaskEvent};

use crate::parallel::{cores, per_job};

/// Lowers every job into its *streaming* form ([`job_stream`]: events
/// bracketed by `JobStart` / `JobEnd`) and merges them into one fleet
/// stream with **staggered arrivals and departures**: each job is given
/// a seeded arrival offset drawn uniformly from `[0, spread)`, and the
/// merge orders events by `(arrival offset + event time, job id, per-job
/// sequence)`. Jobs therefore enter the stream at different times — a
/// job's `JobStart` may arrive long after another job finalized — which
/// is exactly the workload shape a long-lived `nurd-serve` engine
/// ingests (mid-stream admission, per-job finalization).
///
/// Offsets shift only the *merge order*, never the events themselves:
/// every event keeps its job-relative `τ_run` time, so per-job replay
/// semantics (thresholds, warmup, revelation) are untouched and the
/// engine's determinism contract applies verbatim. Same `seed` ⇒ same
/// stream; `spread = 0.0` degenerates to simultaneous arrivals, ordered
/// by `(event time, job id, per-job sequence)` — the interleaving a
/// shared cluster clock would produce, deterministically tie-broken.
///
/// `threshold_quantile` sets each job's `τ_stra` from its own latency
/// distribution (the paper's p90 protocol at `0.9`). Admission metadata
/// travels in the stream's `JobStart` events; a consumer that needs
/// specs out of band can build them with
/// [`JobSpec::of_trace`](nurd_data::JobSpec::of_trace).
///
/// The jobs' streams are built in parallel, one job per thread, on the
/// machine's cores (capped at the job count). The offsets are drawn in
/// job order first and the merge runs on the caller, so the stream is the
/// same at any thread count.
#[must_use]
pub fn staggered_fleet_events(
    jobs: &[JobTrace],
    threshold_quantile: f64,
    spread: f64,
    seed: u64,
) -> Vec<TaskEvent> {
    staggered_fleet_events_on(jobs, threshold_quantile, spread, seed, cores())
}

/// [`staggered_fleet_events`] on `threads` threads.
pub(crate) fn staggered_fleet_events_on(
    jobs: &[JobTrace],
    threshold_quantile: f64,
    spread: f64,
    seed: u64,
    threads: usize,
) -> Vec<TaskEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let offsets: Vec<f64> = jobs
        .iter()
        .map(|_| {
            if spread > 0.0 {
                rng.gen_range(0.0..spread)
            } else {
                0.0
            }
        })
        .collect();
    let streams = per_job(jobs, threads, |job| job_stream(job, threshold_quantile));
    merge_by_time(offsets.into_iter().zip(streams))
}

/// Merges per-job streams, each shifted by its arrival offset, by
/// `(offset + event time, job id, per-job sequence)`, a full tie going to
/// the earlier stream. The sequence keeps a job's order among its
/// equal-time events (a checkpoint's Progress/Finished batch and its
/// Barrier all carry the checkpoint time).
///
/// Each stream is one job's, and its times never decrease (checkpoint
/// times are positive and strictly increasing, offsets are never
/// negative), so it is already in that order. A heap of stream heads
/// therefore moves a stream's whole run of equal-time events at once.
/// Only a duplicated job id makes two heads tie on (time, job); the tied
/// streams then take turns event by event, by (sequence, stream).
fn merge_by_time(streams: impl Iterator<Item = (f64, Vec<TaskEvent>)>) -> Vec<TaskEvent> {
    let mut streams: Vec<(f64, usize, IntoIter<TaskEvent>)> = streams
        .map(|(offset, events)| (offset, events.len(), events.into_iter()))
        .collect();
    let mut merged = Vec::with_capacity(streams.iter().map(|(_, len, _)| len).sum());
    let mut heap: BinaryHeap<_> = streams.iter().enumerate().filter_map(head).collect();
    while let Some(Reverse((time, job, _, i))) = heap.pop() {
        let (offset, _, events) = &mut streams[i];
        let tied = heap
            .peek()
            .is_some_and(|Reverse((t, j, ..))| (*t, *j) == (time, job));
        let run = if tied {
            1
        } else {
            events
                .as_slice()
                .iter()
                .take_while(|ev| (*offset + ev.time()).to_bits() == time)
                .count()
        };
        merged.extend(events.by_ref().take(run));
        heap.extend(head((i, &streams[i])));
    }
    merged
}

/// The heap key of stream `i`'s next event, if any: (time bits, job id,
/// sequence, stream). Offsets and event times are never negative, so
/// their bits order them.
fn head(
    (i, (offset, len, events)): (usize, &(f64, usize, IntoIter<TaskEvent>)),
) -> Option<Reverse<(u64, u64, usize, usize)>> {
    let ev = events.as_slice().first()?;
    Some(Reverse((
        (offset + ev.time()).to_bits(),
        ev.job(),
        len - events.len(),
        i,
    )))
}

/// Moves an event out of a buffer, leaving a placeholder behind.
fn take(event: &mut TaskEvent) -> TaskEvent {
    std::mem::replace(
        event,
        TaskEvent::Barrier {
            job: 0,
            ordinal: 0,
            time: 0.0,
        },
    )
}

/// Randomly merges per-job event streams while preserving each stream's
/// internal order: at every step one nonempty stream is chosen uniformly
/// and its next event is emitted. Same `seed` ⇒ same interleaving. This
/// is the adversarial counterpart to [`staggered_fleet_events`] — any
/// merge of [`job_stream`]s must produce the identical `EngineReport`.
#[must_use]
pub fn interleave_events(mut streams: Vec<Vec<TaskEvent>>, seed: u64) -> Vec<TaskEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let total: usize = streams.iter().map(Vec::len).sum();
    let mut cursors = vec![0usize; streams.len()];
    let mut merged = Vec::with_capacity(total);
    let mut live: Vec<usize> = (0..streams.len())
        .filter(|&i| !streams[i].is_empty())
        .collect();
    while !live.is_empty() {
        let pick = rng.gen_range(0..live.len());
        let s = live[pick];
        merged.push(take(&mut streams[s][cursors[s]]));
        cursors[s] += 1;
        if cursors[s] == streams[s].len() {
            live.swap_remove(pick);
        }
    }
    merged
}

/// Partitions a fleet across `producers` **producer threads**: jobs are
/// split round-robin into disjoint groups, and each group's
/// lifecycle-bracketed streams ([`nurd_data::job_stream`]) are merged by
/// a seeded [`interleave_events`] (seed offset per producer), so even a
/// single producer's stream is multiplexed. This is the workload shape
/// `nurd-serve`'s concurrent ingestion expects: one producer owns each
/// job's stream (per-job order is the engine's contract), while
/// cross-producer interleaving is left to the thread scheduler. Used by
/// `nurd-serve`'s service, recovery and disk-bytes tests and by
/// `examples/fleet_monitor` and `examples/recovery_smoke`.
#[must_use]
pub fn producer_streams(
    jobs: &[JobTrace],
    producers: usize,
    threshold_quantile: f64,
    seed: u64,
) -> Vec<Vec<TaskEvent>> {
    let producers = producers.max(1);
    (0..producers)
        .map(|p| {
            let mine: Vec<Vec<TaskEvent>> = jobs
                .iter()
                .enumerate()
                .filter(|(i, _)| i % producers == p)
                .map(|(_, job)| job_stream(job, threshold_quantile))
                .collect();
            interleave_events(mine, seed.wrapping_add(p as u64))
        })
        .collect()
}

/// The oracle of [`staggered_fleet_events`]: every event tagged with its
/// sort key and the whole tagged list stable-sorted.
#[cfg(test)]
pub(crate) fn reference_staggered_fleet_events(
    jobs: &[JobTrace],
    threshold_quantile: f64,
    spread: f64,
    seed: u64,
) -> Vec<TaskEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tagged: Vec<(f64, u64, usize, TaskEvent)> = Vec::new();
    for job in jobs {
        let offset = if spread > 0.0 {
            rng.gen_range(0.0..spread)
        } else {
            0.0
        };
        for (seq, ev) in job_stream(job, threshold_quantile).into_iter().enumerate() {
            tagged.push((offset + ev.time(), ev.job(), seq, ev));
        }
    }
    tagged.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    tagged.into_iter().map(|(_, _, _, ev)| ev).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::reference_job_detailed;
    use crate::{NodeModelConfig, SuiteConfig, TraceStyle};
    use proptest::prelude::*;

    fn suite() -> Vec<JobTrace> {
        let cfg = SuiteConfig::new(TraceStyle::Google)
            .with_jobs(3)
            .with_task_range(20, 30)
            .with_checkpoints(5)
            .with_seed(77);
        crate::generate_suite(&cfg)
    }

    /// Per-job subsequence of `events`, with barrier/checkpoint ordinals.
    fn per_job_ordinals(events: &[TaskEvent], job: u64) -> Vec<usize> {
        events
            .iter()
            .filter(|e| e.job() == job)
            .filter_map(|e| match e {
                TaskEvent::Barrier { ordinal, .. } => Some(*ordinal),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn fleet_merge_preserves_per_job_order_and_time_order() {
        let jobs = suite();
        let events = staggered_fleet_events(&jobs, 0.9, 0.0, 0);
        for w in events.windows(2) {
            assert!(w[0].time() <= w[1].time(), "stream not time-ordered");
        }
        for job in &jobs {
            assert_eq!(
                per_job_ordinals(&events, job.job_id()),
                (0..job.checkpoint_count()).collect::<Vec<_>>()
            );
        }
        let total: usize = jobs.iter().map(|j| job_stream(j, 0.9).len()).sum();
        assert_eq!(events.len(), total);
    }

    #[test]
    fn random_interleave_preserves_each_stream_order() {
        let jobs = suite();
        let streams: Vec<Vec<TaskEvent>> = jobs.iter().map(|j| job_stream(j, 0.9)).collect();
        let originals: Vec<Vec<TaskEvent>> = streams.clone();
        let merged = interleave_events(streams, 0xFEED);
        for (i, job) in jobs.iter().enumerate() {
            let sub: Vec<&TaskEvent> = merged.iter().filter(|e| e.job() == job.job_id()).collect();
            assert_eq!(sub.len(), originals[i].len());
            for (a, b) in sub.iter().zip(&originals[i]) {
                assert_eq!(**a, *b, "job {} order disturbed", job.job_id());
            }
        }
    }

    #[test]
    fn producer_streams_partition_jobs_and_preserve_per_job_order() {
        let jobs = suite();
        let streams = producer_streams(&jobs, 2, 0.9, 7);
        assert_eq!(streams.len(), 2);
        // Disjoint cover: every job's full bracketed stream appears in
        // exactly one producer's stream, in original order.
        for job in &jobs {
            let reference = job_stream(job, 0.9);
            let owners: Vec<&Vec<TaskEvent>> = streams
                .iter()
                .filter(|s| s.iter().any(|e| e.job() == job.job_id()))
                .collect();
            assert_eq!(
                owners.len(),
                1,
                "job {} not owned by exactly one",
                job.job_id()
            );
            let sub: Vec<&TaskEvent> = owners[0]
                .iter()
                .filter(|e| e.job() == job.job_id())
                .collect();
            assert_eq!(sub.len(), reference.len());
            for (a, b) in sub.iter().zip(&reference) {
                assert_eq!(**a, *b, "job {} order disturbed", job.job_id());
            }
        }
        // producers > jobs leaves the extras empty, never panics.
        let wide = producer_streams(&jobs, 5, 0.9, 7);
        assert_eq!(wide.iter().filter(|s| !s.is_empty()).count(), 3);
    }

    #[test]
    fn staggered_stream_carries_lifecycle_markers_in_per_job_order() {
        let jobs = suite();
        let events = staggered_fleet_events(&jobs, 0.9, 100.0, 42);
        for job in &jobs {
            let sub: Vec<&TaskEvent> = events.iter().filter(|e| e.job() == job.job_id()).collect();
            assert!(
                matches!(sub.first(), Some(TaskEvent::JobStart { spec }) if spec.job == job.job_id()),
                "job {} does not open with JobStart",
                job.job_id()
            );
            assert!(
                matches!(sub.last(), Some(TaskEvent::JobEnd { .. })),
                "job {} does not close with JobEnd",
                job.job_id()
            );
            // Per-job order is exactly the canonical job_stream.
            let canonical = nurd_data::job_stream(job, 0.9);
            assert_eq!(sub.len(), canonical.len());
            for (a, b) in sub.iter().zip(&canonical) {
                assert_eq!(**a, *b, "job {} order disturbed", job.job_id());
            }
        }
    }

    #[test]
    fn staggered_arrivals_actually_stagger_and_are_seed_deterministic() {
        let jobs = suite();
        let staggered = staggered_fleet_events(&jobs, 0.9, 1e6, 7);
        // With a spread dwarfing every job duration, streams barely
        // overlap: some job's JobStart comes after another's JobEnd.
        let first_end = staggered
            .iter()
            .position(|e| matches!(e, TaskEvent::JobEnd { .. }))
            .expect("some job ends");
        let late_start = staggered[first_end..]
            .iter()
            .any(|e| matches!(e, TaskEvent::JobStart { .. }));
        assert!(late_start, "spread 1e6 produced no mid-stream arrival");
        assert_eq!(staggered, staggered_fleet_events(&jobs, 0.9, 1e6, 7));
        assert_ne!(staggered, staggered_fleet_events(&jobs, 0.9, 1e6, 8));
        // Zero spread degenerates to simultaneous arrivals and still
        // carries every event.
        let simultaneous = staggered_fleet_events(&jobs, 0.9, 0.0, 7);
        assert_eq!(simultaneous.len(), staggered.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Suites and the lowering of the whole fleet and of its first
        /// job equal their oracles for either style, with and without the
        /// node model, at zero spread (every job's `JobStart` and
        /// submissions tie at time 0) and at a positive one.
        #[test]
        fn prop_suites_and_streams_equal_the_oracles(
            seed in 0u64..u64::MAX,
            google in 0u8..2,
            node_model in 0u8..2,
            staggered in 0u8..2,
            spread in 1.0f64..2_000.0,
            checkpoints in 1usize..10,
        ) {
            let style = if google == 1 { TraceStyle::Google } else { TraceStyle::Alibaba };
            let spread = if staggered == 1 { spread } else { 0.0 };
            let mut cfg = SuiteConfig::new(style)
                .with_jobs(4)
                .with_task_range(5, 40)
                .with_checkpoints(checkpoints)
                .with_seed(seed);
            if node_model == 1 {
                cfg = cfg.with_node_model(NodeModelConfig {
                    seed: seed.rotate_left(17),
                    ..NodeModelConfig::new(6).with_unhealthy(1, 2)
                });
            }
            let mut jobs = Vec::new();
            for id in 0..cfg.jobs as u64 {
                let job = crate::generate_job_detailed(&cfg, id);
                prop_assert_eq!(&job, &reference_job_detailed(&cfg, id));
                jobs.push(job.0);
            }
            prop_assert_eq!(&crate::generate_suite(&cfg), &jobs);
            for fleet in [&jobs[..1], &jobs[..]] {
                prop_assert_eq!(
                    staggered_fleet_events(fleet, 0.9, spread, seed),
                    reference_staggered_fleet_events(fleet, 0.9, spread, seed)
                );
            }
        }
    }

    #[test]
    fn full_key_ties_keep_stream_order() {
        // Two copies of one job tie on (time, job id, sequence) at every
        // event; the merge keeps the earlier stream's first, as the stable
        // sort it replaced did.
        let job = suite().remove(0);
        let jobs = [job.clone(), job];
        assert_eq!(
            staggered_fleet_events(&jobs, 0.9, 0.0, 1),
            reference_staggered_fleet_events(&jobs, 0.9, 0.0, 1)
        );
    }

    #[test]
    fn interleave_is_deterministic_per_seed() {
        let jobs = suite();
        let streams = || jobs.iter().map(|j| job_stream(j, 0.9)).collect::<Vec<_>>();
        assert_eq!(
            interleave_events(streams(), 7),
            interleave_events(streams(), 7)
        );
        assert_ne!(
            interleave_events(streams(), 7),
            interleave_events(streams(), 8),
            "different seeds should interleave differently"
        );
    }
}
