//! Set-up on every core: the per-job work of building a suite and
//! lowering a fleet fans out one job per thread.
//!
//! Each job is a pure function of its inputs (a generated job of `(seed,
//! job id)`, a lowered stream of its trace), so which thread builds it
//! changes nothing: results come back in job order and every output is
//! bit-identical at any thread count. The split is coarse and one-shot,
//! so plain `std` scoped threads do it; no pool is kept.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// The machine's cores: the threads the public entry points fan out on
/// ([`per_job`] caps them at the job count).
pub(crate) fn cores() -> usize {
    thread::available_parallelism().map_or(1, usize::from)
}

/// Maps `f` over `items` on `threads` threads (the caller included; at
/// least one, at most one per item) and returns the results in item order.
///
/// Workers claim items one index at a time from a shared counter, so a
/// few large jobs do not leave a thread idle behind one contiguous
/// chunk. A worker's panic is re-raised on the caller with its own
/// payload.
pub(crate) fn per_job<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            // The counter publishes no data: results come back by `join`.
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let mut done: Vec<(usize, R)> = thread::scope(|scope| {
        let workers: Vec<_> = (1..threads.clamp(1, items.len().max(1)))
            .map(|_| scope.spawn(work))
            .collect();
        let mut done = work();
        for worker in workers {
            done.extend(worker.join().unwrap_or_else(|panic| resume_unwind(panic)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::{Duration, Instant};

    use super::*;
    use crate::fleet::{reference_staggered_fleet_events, staggered_fleet_events_on};
    use crate::generator::generate_suite_on;
    use crate::{generate_job, NodeModelConfig, SuiteConfig, TraceStyle};

    /// Thread counts to hold every fan-out at: one, two, four, and more
    /// than any fleet below has jobs.
    const THREADS: [usize; 4] = [1, 2, 4, 9];

    /// Every (style, node model) pair.
    fn configs() -> Vec<SuiteConfig> {
        let mut configs = Vec::new();
        for style in [TraceStyle::Google, TraceStyle::Alibaba] {
            let base = SuiteConfig::new(style)
                .with_checkpoints(6)
                .with_seed(0x5EED);
            configs.push(base.clone());
            configs.push(base.with_node_model(NodeModelConfig::new(6).with_unhealthy(1, 2)));
        }
        configs
    }

    /// Blocks until `arrived` counts `n` callers.
    fn rendezvous(arrived: &AtomicUsize, n: usize) {
        arrived.fetch_add(1, Ordering::SeqCst);
        let start = Instant::now();
        while arrived.load(Ordering::SeqCst) < n {
            assert!(start.elapsed() < Duration::from_secs(30), "no peer arrived");
            thread::yield_now();
        }
    }

    #[test]
    fn per_job_returns_results_in_job_order() {
        // Items 0 and 1 meet at one rendezvous, items 2 and 3 at another,
        // so on two threads each worker holds one of each pair: neither
        // worker's claims are the contiguous run that claim order would
        // need to look like job order.
        let pairs = [AtomicUsize::new(0), AtomicUsize::new(0)];
        let items: Vec<usize> = (0..4).collect();
        let out = per_job(&items, 2, |&i| {
            rendezvous(&pairs[i / 2], 2);
            i * 10
        });
        assert_eq!(out, [0, 10, 20, 30]);
        assert_eq!(per_job(&[] as &[usize], 3, |&i| i), Vec::<usize>::new());
    }

    #[test]
    fn suites_are_the_same_at_any_thread_count() {
        for config in configs() {
            for jobs in [0, 1, 5] {
                let config = config.clone().with_jobs(jobs).with_task_range(5, 200);
                let serial: Vec<_> = (0..jobs as u64)
                    .map(|id| generate_job(&config, id))
                    .collect();
                for threads in THREADS {
                    assert_eq!(
                        generate_suite_on(&config, threads),
                        serial,
                        "{jobs} jobs on {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn fleet_streams_are_the_same_at_any_thread_count() {
        for config in configs() {
            // One large job ahead of four small ones: on two or more
            // threads the small ones are done first.
            let large = config.clone().with_task_range(400, 400);
            let small = config.with_task_range(5, 12);
            let jobs: Vec<_> = std::iter::once(generate_job(&large, 0))
                .chain((1..5).map(|id| generate_job(&small, id)))
                .collect();
            for fleet in [&jobs[..0], &jobs[..1], &jobs[..]] {
                for spread in [0.0, 500.0] {
                    let reference = reference_staggered_fleet_events(fleet, 0.9, spread, 11);
                    for threads in THREADS {
                        assert!(
                            staggered_fleet_events_on(fleet, 0.9, spread, 11, threads) == reference,
                            "{} jobs, spread {spread}, on {threads} threads",
                            fleet.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_panicking_job_surfaces_its_own_message() {
        let config = SuiteConfig {
            checkpoints: 0,
            ..SuiteConfig::new(TraceStyle::Google).with_jobs(4)
        };
        for threads in THREADS {
            let payload = catch_unwind(AssertUnwindSafe(|| generate_suite_on(&config, threads)))
                .expect_err("a job without checkpoints panics");
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            assert_eq!(
                message,
                Some("need at least one checkpoint"),
                "on {threads} threads"
            );
        }
    }
}
