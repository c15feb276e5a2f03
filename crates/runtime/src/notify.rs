//! Park/unpark for workers that watch *many* queues.
//!
//! A drain worker polls a set of [`crate::Channel`]s; when all are empty
//! it should sleep — but not on any single channel's condvar, because
//! work can arrive on any of them. [`Notifier`] is the shared wake-up
//! point: producers [`unpark`](Notifier::unpark) after every enqueue, and
//! an idle worker [`park`](Notifier::park)s against the epoch it observed
//! *before* its last scan, so a wake-up that races the scan is never
//! lost.
//!
//! The protocol:
//!
//! ```
//! use nurd_runtime::Notifier;
//! # let notifier = Notifier::new();
//! # let mut scans = 0;
//! # let mut scan_all_queues = || { scans += 1; scans > 1 };
//! # std::thread::scope(|s| { s.spawn(|| {
//! # std::thread::sleep(std::time::Duration::from_millis(5));
//! # notifier.unpark(); });
//! loop {
//!     let epoch = notifier.epoch();   // 1. snapshot BEFORE scanning
//!     let found_work = scan_all_queues();
//!     if found_work {
//!         break;                      // (or: process it and rescan)
//!     }
//!     notifier.park(epoch);           // 2. sleeps only if nothing was
//!                                     //    enqueued since the snapshot
//! }
//! # });
//! ```

use std::sync::{Condvar, Mutex};

/// An epoch-counting park/unpark primitive — see the module docs for
/// the lost-wakeup-free protocol.
#[derive(Default)]
pub struct Notifier {
    epoch: Mutex<u64>,
    wake: Condvar,
}

impl std::fmt::Debug for Notifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Notifier")
            .field("epoch", &self.epoch())
            .finish()
    }
}

impl Notifier {
    /// A fresh notifier at epoch 0.
    #[must_use]
    pub fn new() -> Self {
        Notifier::default()
    }

    /// The current epoch. Snapshot this *before* checking for work; pass
    /// it to [`Notifier::park`] afterwards.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        *self.epoch.lock().expect("notifier poisoned")
    }

    /// Advances the epoch and wakes every parked thread. Called by
    /// producers after enqueueing and by shutdown paths after flipping
    /// their flag.
    pub fn unpark(&self) {
        let mut epoch = self.epoch.lock().expect("notifier poisoned");
        *epoch = epoch.wrapping_add(1);
        drop(epoch);
        self.wake.notify_all();
    }

    /// Blocks while the epoch still equals `seen`. Returns immediately if
    /// any [`Notifier::unpark`] happened since `seen` was read — which is
    /// exactly what makes the snapshot-scan-park protocol race-free.
    pub fn park(&self, seen: u64) {
        let mut epoch = self.epoch.lock().expect("notifier poisoned");
        while *epoch == seen {
            epoch = self.wake.wait(epoch).expect("notifier condvar poisoned");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn park_returns_immediately_on_a_stale_epoch() {
        let n = Notifier::new();
        let seen = n.epoch();
        n.unpark();
        n.park(seen); // must not block: epoch moved after the snapshot
    }

    #[test]
    fn unpark_wakes_a_parked_thread() {
        let n = Arc::new(Notifier::new());
        let woke = Arc::new(AtomicBool::new(false));
        let parked = {
            let n = Arc::clone(&n);
            let woke = Arc::clone(&woke);
            std::thread::spawn(move || {
                let seen = n.epoch();
                n.park(seen);
                woke.store(true, Ordering::SeqCst);
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!woke.load(Ordering::SeqCst), "parked too briefly");
        n.unpark();
        parked.join().unwrap();
        assert!(woke.load(Ordering::SeqCst));
    }

    #[test]
    fn racing_unpark_between_snapshot_and_park_is_not_lost() {
        // Deterministic re-creation of the race: snapshot, then an unpark
        // lands, then park — park must fall straight through.
        let n = Notifier::new();
        for _ in 0..100 {
            let seen = n.epoch();
            n.unpark();
            n.park(seen);
        }
    }
}
