//! A bounded multi-producer single-consumer-ish channel for ingress
//! queues, built on `std` [`Mutex`]/[`Condvar`] like everything else in
//! this crate.
//!
//! Unlike [`std::sync::mpsc`], the receive side here is *batched and
//! non-blocking* ([`Channel::recv_batch`]): the intended consumer is a
//! drain worker that watches many channels at once and parks on a shared
//! [`crate::Notifier`] rather than on any single channel. The send side
//! is where the interesting policy lives:
//!
//! * [`Channel::send`] — **blocking** send: waits while the channel is at
//!   capacity (true back-pressure; the producer thread sleeps until a
//!   consumer makes room) and fails only once the channel is
//!   [closed](Channel::close);
//! * [`Channel::try_send`] — **non-blocking** send: returns
//!   [`TrySendError::Full`] instead of waiting, handing the item back to
//!   the caller so a different overload policy can be applied;
//! * [`Channel::send_evicting`] — never blocks: a full channel evicts its
//!   *oldest* item to make room and returns it (the shed-oldest overload
//!   policy as one atomic operation).
//!
//! Closing wakes every blocked sender with its item returned intact, so
//! no event is silently dropped at shutdown — the caller decides what a
//! failed send means. Receivers may keep draining after close;
//! [`Channel::is_drained`] (`closed && empty`) is the quiescence test a
//! shutdown sequence needs.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// The channel was closed; the unsent item is handed back.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Why a [`Channel::try_send`] did not enqueue; the item is handed back.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The channel is at capacity — retry, block ([`Channel::send`]),
    /// evict ([`Channel::send_evicting`]), or drop, per policy.
    Full(T),
    /// The channel is closed; no send can ever succeed again.
    Closed(T),
}

struct State<T> {
    queue: VecDeque<T>,
    closed: bool,
}

/// A bounded (or unbounded) MPSC queue with blocking, non-blocking, and
/// evicting sends — see the module docs for the design.
pub struct Channel<T> {
    state: Mutex<State<T>>,
    /// Senders blocked in [`Channel::send`] wait here; every pop and
    /// [`Channel::close`] notifies.
    not_full: Condvar,
    /// Mirror of `state.queue.len()`, maintained under the mutex but
    /// readable without it — [`Channel::len`]/[`Channel::is_empty`] are
    /// lock-free, so consumers scanning many channels and stats
    /// snapshots never contend with the send/receive hot path.
    queued: AtomicUsize,
    capacity: Option<usize>,
}

impl<T> std::fmt::Debug for Channel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Channel")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("closed", &self.lock().closed)
            .finish()
    }
}

impl<T> Channel<T> {
    /// A channel holding at most `capacity` items (clamped to ≥ 1 — a
    /// zero-capacity rendezvous channel would deadlock the non-blocking
    /// receive side this crate pairs it with).
    #[must_use]
    pub fn bounded(capacity: usize) -> Self {
        Channel {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                closed: false,
            }),
            not_full: Condvar::new(),
            queued: AtomicUsize::new(0),
            capacity: Some(capacity.max(1)),
        }
    }

    /// A channel with no capacity bound: sends never block and never
    /// report [`TrySendError::Full`].
    #[must_use]
    pub fn unbounded() -> Self {
        Channel {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                closed: false,
            }),
            not_full: Condvar::new(),
            queued: AtomicUsize::new(0),
            capacity: None,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().expect("channel poisoned")
    }

    /// Blocking send: waits while the channel is full, enqueues as soon
    /// as a receiver makes room, and fails only if the channel is (or
    /// becomes, while waiting) closed — the item rides back in the error.
    ///
    /// `Ok(true)` reports an **empty→non-empty transition**: the channel
    /// held nothing immediately before this item. That is the one send a
    /// parked consumer needs to hear about (a non-empty channel is
    /// already somebody's pending work), so callers can skip their
    /// wake-up path on `Ok(false)` and keep the steady-state send cheap.
    pub fn send(&self, item: T) -> Result<bool, SendError<T>> {
        let mut state = self.lock();
        loop {
            if state.closed {
                return Err(SendError(item));
            }
            match self.capacity {
                Some(cap) if state.queue.len() >= cap => {
                    state = self.not_full.wait(state).expect("channel condvar poisoned");
                }
                _ => {
                    let was_empty = state.queue.is_empty();
                    state.queue.push_back(item);
                    self.queued.store(state.queue.len(), Ordering::Relaxed);
                    return Ok(was_empty);
                }
            }
        }
    }

    /// Non-blocking send: enqueues if there is room, otherwise hands the
    /// item back as [`TrySendError::Full`] (or `Closed`). `Ok(true)`
    /// reports an empty→non-empty transition (see [`Channel::send`]).
    pub fn try_send(&self, item: T) -> Result<bool, TrySendError<T>> {
        let mut state = self.lock();
        if state.closed {
            return Err(TrySendError::Closed(item));
        }
        if let Some(cap) = self.capacity {
            if state.queue.len() >= cap {
                return Err(TrySendError::Full(item));
            }
        }
        let was_empty = state.queue.is_empty();
        state.queue.push_back(item);
        self.queued.store(state.queue.len(), Ordering::Relaxed);
        Ok(was_empty)
    }

    /// Never-blocking send that sheds from the *front*: if the channel is
    /// full, the oldest queued item is evicted to make room and returned
    /// in the `Ok` pair's second slot. The first slot reports the
    /// empty→non-empty transition (see [`Channel::send`]); an eviction
    /// implies the channel was full, so the two are never both set.
    pub fn send_evicting(&self, item: T) -> Result<(bool, Option<T>), SendError<T>> {
        let mut state = self.lock();
        if state.closed {
            return Err(SendError(item));
        }
        let was_empty = state.queue.is_empty();
        let evicted = match self.capacity {
            Some(cap) if state.queue.len() >= cap => state.queue.pop_front(),
            _ => None,
        };
        state.queue.push_back(item);
        self.queued.store(state.queue.len(), Ordering::Relaxed);
        Ok((was_empty, evicted))
    }

    /// Moves up to `max` items (in FIFO order) into `out`, returning how
    /// many were taken, and wakes senders blocked on a full channel. One
    /// lock acquisition per batch — this is the receive primitive drain
    /// loops use.
    pub fn recv_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let mut state = self.lock();
        let take = state.queue.len().min(max);
        out.extend(state.queue.drain(..take));
        self.queued.store(state.queue.len(), Ordering::Relaxed);
        drop(state);
        if take > 0 {
            self.not_full.notify_all();
        }
        take
    }

    /// Number of queued items — a **lock-free** racy snapshot
    /// (informational only): reads the atomic mirror, never the mutex,
    /// so polling it cannot contend with senders or receivers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queued.load(Ordering::Relaxed)
    }

    /// Whether the channel is currently empty (lock-free racy snapshot).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the channel: every current and future send fails, and every
    /// sender blocked in [`Channel::send`] wakes immediately with its item
    /// returned. Already-queued items stay receivable.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_full.notify_all();
    }

    /// Quiescence test for shutdown: closed *and* empty, i.e. no send can
    /// add work and no queued work remains (taken under the lock — this
    /// one is exact, not a racy mirror read).
    #[must_use]
    pub fn is_drained(&self) -> bool {
        let state = self.lock();
        state.closed && state.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_batched_receive() {
        let ch = Channel::unbounded();
        for i in 0..10 {
            ch.send(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(ch.recv_batch(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(ch.recv_batch(&mut out, 100), 6);
        assert_eq!(out.len(), 10);
        assert!(ch.is_empty());
    }

    #[test]
    fn try_send_reports_full_and_hands_the_item_back() {
        let ch = Channel::bounded(2);
        ch.try_send(1).unwrap();
        ch.try_send(2).unwrap();
        assert_eq!(ch.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(ch.len(), 2);
        ch.recv_batch(&mut Vec::new(), 1);
        ch.try_send(3).unwrap();
    }

    #[test]
    fn send_evicting_sheds_the_oldest() {
        let ch = Channel::bounded(2);
        assert_eq!(ch.send_evicting(1).unwrap(), (true, None));
        assert_eq!(ch.send_evicting(2).unwrap(), (false, None));
        assert_eq!(
            ch.send_evicting(3).unwrap(),
            (false, Some(1)),
            "oldest evicted"
        );
        let mut out = Vec::new();
        ch.recv_batch(&mut out, 10);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn sends_report_the_empty_to_nonempty_transition() {
        let ch = Channel::bounded(4);
        assert!(ch.send(1).unwrap(), "first send transitions");
        assert!(!ch.send(2).unwrap(), "second send does not");
        assert!(!ch.try_send(3).unwrap());
        let mut out = Vec::new();
        ch.recv_batch(&mut out, 10);
        assert!(ch.try_send(4).unwrap(), "drained channel transitions again");
    }

    #[test]
    fn close_fails_sends_but_queued_items_stay_receivable() {
        let ch = Channel::bounded(4);
        ch.send(1).unwrap();
        ch.close();
        assert_eq!(ch.send(2), Err(SendError(2)));
        assert_eq!(ch.try_send(3), Err(TrySendError::Closed(3)));
        assert_eq!(ch.send_evicting(4), Err(SendError(4)));
        assert!(!ch.is_drained(), "item still queued");
        let mut out = Vec::new();
        assert_eq!(ch.recv_batch(&mut out, 1), 1);
        assert_eq!(out, vec![1]);
        assert!(ch.is_drained());
    }

    #[test]
    fn blocking_send_waits_for_room_and_loses_nothing() {
        let ch = Arc::new(Channel::bounded(4));
        let sent = Arc::new(AtomicUsize::new(0));
        let producers: Vec<_> = (0..3)
            .map(|p| {
                let ch = Arc::clone(&ch);
                let sent = Arc::clone(&sent);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        ch.send(p * 1000 + i).unwrap();
                        sent.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        // Consumer drains slowly; blocked producers must wake on each pop.
        let mut got = Vec::new();
        while got.len() < 600 {
            let mut batch = Vec::new();
            if ch.recv_batch(&mut batch, 7) == 0 {
                std::thread::yield_now();
            }
            got.extend(batch);
        }
        for producer in producers {
            producer.join().unwrap();
        }
        assert_eq!(sent.load(Ordering::Relaxed), 600);
        assert_eq!(got.len(), 600);
        // Per-producer FIFO order survives the interleaving.
        for p in 0..3u64 {
            let mine: Vec<u64> = got.iter().filter(|v| **v / 1000 == p).copied().collect();
            assert!(
                mine.windows(2).all(|w| w[0] < w[1]),
                "producer {p} reordered"
            );
        }
    }

    #[test]
    fn close_wakes_blocked_senders_with_their_item() {
        let ch = Arc::new(Channel::bounded(1));
        ch.send(0).unwrap();
        let blocked = {
            let ch = Arc::clone(&ch);
            std::thread::spawn(move || ch.send(99))
        };
        // Give the sender time to block, then close instead of popping.
        std::thread::sleep(std::time::Duration::from_millis(20));
        ch.close();
        assert_eq!(blocked.join().unwrap(), Err(SendError(99)));
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let ch = Channel::bounded(0);
        assert_eq!(ch.capacity, Some(1));
        ch.send(1).unwrap();
        assert_eq!(ch.try_send(2), Err(TrySendError::Full(2)));
    }
}
