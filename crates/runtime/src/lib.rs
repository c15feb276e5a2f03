//! A small, dependency-free fork-join thread pool with scoped tasks,
//! shared by every compute layer of the NURD workspace.
//!
//! The build container has no crates.io access, so this crate plays the
//! role rayon would: it is built on `std::thread`, `Mutex` and `Condvar`.
//!
//! * a pool has **one run queue** — a mutexed FIFO that idle workers
//!   sleep on. There are no per-worker queues and no work stealing,
//!   because every spawn in this workspace comes from a thread outside
//!   the pool it targets (a drain worker's fit and scoring chunks onto
//!   [`global`], a recovery's WAL segments onto a pool per generation);
//!   stealing would schedule traffic that does not exist;
//! * [`ThreadPool::scope`] provides *scoped* fork-join: closures spawned
//!   inside a scope may borrow from the caller's stack, and the scope
//!   does not return until every spawned task has finished (panics are
//!   captured and propagated to the caller). While waiting, the calling
//!   thread **helps execute** pool tasks, so a pool with `threads == 1`
//!   degenerates to plain sequential execution with no deadlock and no
//!   idle spinning;
//! * [`Channel`] is a bounded MPSC ingress queue with **blocking** and
//!   **non-blocking** sends (back-pressure, the one overload discipline
//!   a service boundary needs), and [`Notifier`] is the
//!   epoch-counting park/unpark primitive for workers that watch many
//!   such channels — together they are the substrate of `nurd-serve`'s
//!   concurrent ingestion service.
//!
//! Determinism note for ML callers: parallelism here is across *disjoint
//! outputs* (each spawned closure writes its own region), so the
//! results of a parallel loop are bit-for-bit those of the sequential
//! loop — scheduling order affects only wall-clock time. The histogram
//! training paths in `nurd-ml` and the shard dispatcher in `nurd-serve`
//! both rely on exactly this property.
//!
//! # Example
//!
//! ```
//! use nurd_runtime::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let mut partial = vec![0u64; 4];
//! pool.scope(|s| {
//!     for (i, slot) in partial.iter_mut().enumerate() {
//!         s.spawn(move || *slot = (i as u64 + 1) * 10);
//!     }
//! });
//! assert_eq!(partial.iter().sum::<u64>(), 100);
//! ```

#![deny(unsafe_code)]

mod channel;
mod notify;
mod pool;

pub use channel::{Channel, SendError, TrySendError};
pub use notify::Notifier;
pub use pool::{global, Scope, ThreadPool};
