//! The two scheduling shapes the workspace relies on, exercised directly
//! on `nurd::runtime::ThreadPool`: a task re-entering the pool it runs on,
//! and `n` never-yielding tasks running at once on a pool of `n`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use nurd::runtime::ThreadPool;

/// A task that opens a scope on its *own* pool spawns onto the queue it
/// was popped from and must help drain it; at `threads == 1` the whole
/// nest runs inline on the caller.
#[test]
fn tasks_reenter_their_own_pool_at_every_depth() {
    for threads in [1, 2, 4] {
        let pool = ThreadPool::new(threads);
        let total = AtomicUsize::new(0);
        pool.scope(|outer| {
            for _ in 0..4 {
                outer.spawn(|| {
                    pool.scope(|inner| {
                        for _ in 0..8 {
                            inner.spawn(|| {
                                pool.scope(|innermost| {
                                    for _ in 0..3 {
                                        innermost.spawn(|| {
                                            total.fetch_add(2, Ordering::Relaxed);
                                        });
                                    }
                                });
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(
            total.load(Ordering::Relaxed),
            4 * 8 * 6,
            "{threads} threads"
        );
    }
}

/// `DrainService` spawns `workers + extra` loops that never return until
/// shutdown onto a pool of exactly that size, so `ThreadPool::new(n)` must
/// run `n` tasks concurrently (the helping caller included). Each task
/// blocks on the barrier until all `n` have started; fewer than `n`
/// concurrent tasks would hang here rather than pass.
#[test]
fn pool_of_n_runs_n_blocking_tasks_concurrently() {
    for n in [1, 2, 3, 5] {
        let pool = ThreadPool::new(n);
        let rendezvous = Barrier::new(n);
        let arrived = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..n {
                s.spawn(|| {
                    rendezvous.wait();
                    arrived.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(arrived.load(Ordering::Relaxed), n);
    }
}
