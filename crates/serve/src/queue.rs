//! A shard's ingest queue: bounded in messages, with memory that follows
//! what it holds.
//!
//! std's `sync_channel(n)` writes a slot for every unit of its bound when it
//! is built, so on it a shard would pay for its whole `queue_capacity` up
//! front (65 536 × 40 B ≈ 2.6 MB at `tadbench`'s setting) while it rarely
//! holds more than a handful of messages. Here the messages ride an unbounded
//! `mpsc::channel`, which allocates and frees its slots in 31-slot blocks
//! as they fill and drain, and the bound is a count: a producer reserves a
//! place before it sends, and the worker frees it when it receives. A full
//! [`Sender::send`] waits on a condvar, which the worker signals when a
//! receive takes the queue from full to not full and again when it exits.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, SendError, TryRecvError, TrySendError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// What the two ends share.
struct Bound {
    capacity: usize,
    /// Places reserved by producers and not yet freed by a receive. It
    /// publishes no data (the channel carries the messages); what must not
    /// be missed, a full-to-not-full transition, is signalled under `lock`.
    queued: AtomicUsize,
    /// Set when the receiver is dropped: nothing will free a place again.
    /// The `Release` store in [`Receiver`]'s drop pairs with the `Acquire`
    /// loads of a producer that found the queue full.
    closed: AtomicBool,
    /// Guards no data, so a poisoned guard is as good as any; a full
    /// `send` holds it between seeing the queue full and waiting, so a
    /// wake-up cannot fall in between.
    lock: Mutex<()>,
    space: Condvar,
}

impl Bound {
    /// Takes a place if one is free.
    fn reserve(&self) -> bool {
        self.queued
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |q| {
                (q < self.capacity).then_some(q + 1)
            })
            .is_ok()
    }

    fn wake(&self) {
        let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.space.notify_all();
    }
}

/// A FIFO queue holding at most `capacity` messages.
pub(crate) fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let bound = Arc::new(Bound {
        capacity,
        queued: AtomicUsize::new(0),
        closed: AtomicBool::new(false),
        lock: Mutex::new(()),
        space: Condvar::new(),
    });
    let (tx, rx) = mpsc::channel();
    (Sender { tx, bound: Arc::clone(&bound) }, Receiver { rx, bound })
}

/// The producer end; dropping it disconnects the receiver once the queue
/// is drained.
pub(crate) struct Sender<T> {
    tx: mpsc::Sender<T>,
    bound: Arc<Bound>,
}

impl<T> Sender<T> {
    /// Enqueues `msg`, waiting while the queue is full; hands it back once
    /// the receiver is gone.
    pub(crate) fn send(&self, msg: T) -> Result<(), SendError<T>> {
        if !self.bound.reserve() {
            let mut guard = self.bound.lock.lock().unwrap_or_else(PoisonError::into_inner);
            while !self.bound.reserve() {
                if self.bound.closed.load(Ordering::Acquire) {
                    return Err(SendError(msg));
                }
                guard = self.bound.space.wait(guard).unwrap_or_else(PoisonError::into_inner);
            }
        }
        self.tx.send(msg)
    }

    /// Enqueues `msg` if the queue has room.
    pub(crate) fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
        if self.bound.reserve() {
            return self.tx.send(msg).map_err(|e| TrySendError::Disconnected(e.0));
        }
        Err(if self.bound.closed.load(Ordering::Acquire) {
            TrySendError::Disconnected(msg)
        } else {
            TrySendError::Full(msg)
        })
    }
}

/// The worker end; dropping it (the worker returned or panicked) releases
/// every producer waiting on a full queue.
pub(crate) struct Receiver<T> {
    rx: mpsc::Receiver<T>,
    bound: Arc<Bound>,
}

impl<T> Receiver<T> {
    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.rx.recv_timeout(timeout).inspect(|_| self.took())
    }

    pub(crate) fn try_recv(&self) -> Result<T, TryRecvError> {
        self.rx.try_recv().inspect(|_| self.took())
    }

    /// Frees the place of a received message.
    fn took(&self) {
        if self.bound.queued.fetch_sub(1, Ordering::AcqRel) == self.bound.capacity {
            self.bound.wake();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.bound.closed.store(true, Ordering::Release);
        self.bound.wake();
    }
}
