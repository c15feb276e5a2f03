//! The thread pool, scoped fork-join, and chunked parallel-for.

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// A unit of queued work. Scoped tasks are lifetime-erased into this
/// `'static` form; soundness is restored by [`ThreadPool::scope`], which
/// never returns before every task it spawned has run to completion.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Everything the scheduler knows, behind [`Shared::queue`].
struct RunQueue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

/// The pool's one run queue: a mutexed FIFO and the condvar idle workers
/// sleep on.
///
/// There are deliberately no per-worker queues and no stealing. Every
/// spawn the workspace makes comes from a thread *outside* the pool it
/// targets — a drain worker's fit or scoring chunks go to [`global`], a
/// recovery's WAL segments to a pool per generation — so a per-worker
/// queue would never be pushed to and never stolen from (counted: zero
/// own-queue pushes and zero steals over all four `BENCHMARK.json`
/// workloads). Tasks are whole segments or whole chunks, so the lock is
/// taken per chunk, not per row.
struct Shared {
    queue: Mutex<RunQueue>,
    /// Signalled once per pushed task, and broadcast on shutdown.
    wake: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, RunQueue> {
        self.queue.lock().expect("run queue poisoned")
    }

    fn push(&self, task: Task) {
        self.lock().tasks.push_back(task);
        self.wake.notify_one();
    }

    fn try_pop(&self) -> Option<Task> {
        self.lock().tasks.pop_front()
    }
}

/// A fixed-size fork-join thread pool.
///
/// `threads` counts **total** concurrency including the thread that calls
/// [`ThreadPool::scope`]: the pool spawns `threads - 1` background workers
/// and the calling thread helps execute tasks while it waits for a scope
/// to finish. `ThreadPool::new(1)` spawns no threads at all and runs every
/// task inline — callers can therefore thread a pool through
/// unconditionally and let size 1 mean "sequential".
///
/// Dropping the pool joins all workers. Scopes never leave tasks behind,
/// so shutdown cannot strand queued work.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl ThreadPool {
    /// Creates a pool with `threads` total parallelism (clamped to ≥ 1);
    /// see the type-level docs for what the count includes.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let workers = threads - 1;
        let shared = Arc::new(Shared {
            queue: Mutex::new(RunQueue {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("nurd-runtime-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            handles,
            threads,
        }
    }

    /// Total parallelism of the pool (background workers + the helping
    /// caller thread).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs a scoped fork-join region: `f` receives a [`Scope`] whose
    /// [`Scope::spawn`] accepts closures that may borrow anything that
    /// outlives this call. `scope` returns only after every spawned task
    /// has completed; the calling thread executes pool tasks while it
    /// waits. The first panic from a spawned task (or from `f` itself) is
    /// resumed on the caller once all tasks have finished.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        let scope = Scope {
            shared: Arc::clone(&self.shared),
            state: Arc::new(ScopeState {
                sync: Mutex::new(0),
                done: Condvar::new(),
                panic: Mutex::new(None),
            }),
            scope_marker: PhantomData,
            env_marker: PhantomData,
        };
        // Even if `f` panics, already-spawned tasks still borrow the
        // caller's stack — the wait below must happen before unwinding.
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        scope.help_until_done();
        let task_panic = scope
            .state
            .panic
            .lock()
            .expect("scope panic slot poisoned")
            .take();
        match (result, task_panic) {
            (Err(payload), _) => resume_unwind(payload),
            (Ok(_), Some(payload)) => resume_unwind(payload),
            (Ok(value), None) => value,
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Poisoned only if a thread panicked holding the lock; workers
        // then exit on their own `expect`, and `Drop` must not panic.
        if let Ok(mut queue) = self.shared.queue.lock() {
            queue.shutdown = true;
        }
        self.shared.wake.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut queue = shared.lock();
    loop {
        if let Some(task) = queue.tasks.pop_front() {
            drop(queue);
            task();
            queue = shared.lock();
        } else if queue.shutdown {
            return;
        } else {
            queue = shared.wake.wait(queue).expect("run queue poisoned");
        }
    }
}

/// Join-latch shared between a scope and its spawned tasks: the pending
/// count behind `sync`, a condvar for the final wake, and the first
/// captured panic.
struct ScopeState {
    sync: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl ScopeState {
    fn task_finished(&self, payload: Option<Box<dyn Any + Send + 'static>>) {
        if let Some(p) = payload {
            let mut slot = self.panic.lock().expect("scope panic slot poisoned");
            if slot.is_none() {
                *slot = Some(p);
            }
        }
        let mut pending = self.sync.lock().expect("scope latch poisoned");
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }
}

/// Handle for spawning borrow-carrying tasks inside
/// [`ThreadPool::scope`]; see there for the lifetime contract.
pub struct Scope<'scope, 'env: 'scope> {
    shared: Arc<Shared>,
    state: Arc<ScopeState>,
    /// Invariance over `'scope` (mirrors [`std::thread::Scope`]): spawned
    /// closures must live exactly as long as the scope says, no variance
    /// shenanigans.
    scope_marker: PhantomData<&'scope mut &'scope ()>,
    env_marker: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns `f` onto the pool. The closure may borrow from the
    /// environment of the enclosing [`ThreadPool::scope`] call; it is
    /// guaranteed to have finished when that call returns. A panicking
    /// task does not tear down the pool — the payload is captured and
    /// resumed on the scope's caller.
    #[allow(unsafe_code)]
    pub fn spawn<F>(&'scope self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        *self.state.sync.lock().expect("scope latch poisoned") += 1;
        let state = Arc::clone(&self.state);
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let outcome = catch_unwind(AssertUnwindSafe(f));
            state.task_finished(outcome.err());
        });
        // SAFETY: lifetime erasure only. The task may borrow data from
        // `'scope`, but `ThreadPool::scope` blocks (helping) until the
        // pending count this task decrements reaches zero — on the normal
        // path *and* on the unwind path — so the closure can never run
        // after its borrows expire. The fat-pointer layout of
        // `Box<dyn FnOnce>` is lifetime-independent.
        let task: Task =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(task) };
        self.shared.push(task);
    }

    /// Runs pool tasks on the calling thread until every task spawned in
    /// this scope has completed.
    fn help_until_done(&self) {
        loop {
            if let Some(task) = self.shared.try_pop() {
                task();
                continue;
            }
            let pending = self.state.sync.lock().expect("scope latch poisoned");
            if *pending == 0 {
                return;
            }
            // Our remaining tasks are running on other threads (the queue
            // is empty): sleep until the last one flips the latch. New
            // tasks they spawn are executed by awake workers.
            let _pending = self
                .state
                .done
                .wait(pending)
                .expect("scope done condvar poisoned");
        }
    }
}

impl std::fmt::Debug for Scope<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scope").finish()
    }
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// The process-wide shared pool, lazily created at machine parallelism
/// ([`std::thread::available_parallelism`]). Compute layers that take a
/// thread-count knob rather than a pool handle (e.g.
/// `nurd_ml::TreeConfig`) schedule their chunks here.
#[must_use]
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| {
        ThreadPool::new(std::thread::available_parallelism().map_or(1, usize::from))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_runs_every_spawn_and_supports_borrows() {
        let pool = ThreadPool::new(4);
        let mut out = vec![0usize; 64];
        pool.scope(|s| {
            for (i, slot) in out.iter_mut().enumerate() {
                s.spawn(move || *slot = i * i);
            }
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        let hits = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..10 {
                s.spawn(|| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn nested_scopes_from_worker_tasks_complete() {
        let pool = ThreadPool::new(3);
        let total = AtomicUsize::new(0);
        pool.scope(|outer| {
            for _ in 0..4 {
                outer.spawn(|| {
                    // A task running on a worker opens a scope on its own
                    // pool; the worker helps drain it without deadlocking.
                    pool.scope(|inner| {
                        for _ in 0..8 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn panics_propagate_after_all_tasks_finish() {
        let pool = ThreadPool::new(3);
        let finished = Arc::new(AtomicUsize::new(0));
        let fin = Arc::clone(&finished);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for i in 0..16 {
                    let fin = Arc::clone(&fin);
                    s.spawn(move || {
                        if i == 5 {
                            panic!("task blew up");
                        }
                        fin.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err(), "panic must propagate to the scope caller");
        assert_eq!(finished.load(Ordering::Relaxed), 15, "others still ran");
        // The pool survives a panicked scope.
        let after = AtomicUsize::new(0);
        pool.scope(|s| {
            s.spawn(|| {
                after.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(after.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn stress_many_small_tasks() {
        let pool = ThreadPool::new(4);
        let sum = AtomicUsize::new(0);
        pool.scope(|s| {
            for i in 0..2000usize {
                let sum = &sum;
                s.spawn(move || {
                    sum.fetch_add(1, Ordering::Relaxed);
                    std::hint::black_box(i);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 2000);
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let a = global();
        let b = global();
        assert!(std::ptr::eq(a, b));
        assert!(a.threads() >= 1);
    }

    #[test]
    fn zero_thread_request_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        let mut x = 0;
        pool.scope(|s| s.spawn(|| x += 1));
        assert_eq!(x, 1);
    }
}
