//! A bounded MPMC ingest queue with explicit backpressure.
//!
//! The queue never blocks producers: a push against a full queue fails
//! immediately so the caller can reply "server busy, retry later" instead of
//! letting handler threads pile up behind an unbounded buffer. Consumers block
//! with a timeout so they can flush partially filled epochs when traffic goes
//! idle, and a closed queue keeps draining its remaining items before reporting
//! closure — nothing that was admitted is ever dropped.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Result of a [`BoundedQueue::pop_timeout`] call.
#[derive(Debug, PartialEq, Eq)]
pub enum Pop<T> {
    /// An item was dequeued.
    Item(T),
    /// The queue stayed empty for the whole timeout (and is still open).
    TimedOut,
    /// The queue is closed and fully drained.
    Closed,
}

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the item is handed back to the caller.
    Full(T),
    /// The queue was closed; the item is handed back to the caller.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A fixed-capacity queue shared between connection handlers (producers) and
/// aggregation workers (consumers).
pub struct BoundedQueue<T> {
    // audit:lock(agg.ingest-queue, 70)
    state: Mutex<State<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue admitting at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Attempts to enqueue without blocking.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        self.try_push_with(item, |item| item)
    }

    /// Like [`BoundedQueue::try_push`], but the item is built from `seed`
    /// only once the queue is known to admit it; a refusal hands `seed` back
    /// untouched. For items that carry something which must not be created
    /// and then thrown away (a one-shot reply handle, say). `make` runs under
    /// the queue's lock, so it must be quick and must not touch the queue.
    pub fn try_push_with<A>(&self, seed: A, make: impl FnOnce(A) -> T) -> Result<(), PushError<A>> {
        let mut state = self.lock();
        if state.closed {
            return Err(PushError::Closed(seed));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(seed));
        }
        state.items.push_back(make(seed));
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Dequeues the next item, waiting up to `timeout` for one to arrive.
    pub fn pop_timeout(&self, timeout: Duration) -> Pop<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Pop::Item(item);
            }
            if state.closed {
                return Pop::Closed;
            }
            let (next, result) = self
                .available
                .wait_timeout(state, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            state = next;
            if result.timed_out() && state.items.is_empty() && !state.closed {
                return Pop::TimedOut;
            }
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the queue: future pushes fail, consumers drain the remaining
    /// items and then observe [`Pop::Closed`].
    pub fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_fifo() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::Item(1));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::Item(2));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::TimedOut);
    }

    #[test]
    fn full_queue_rejects_with_item_back() {
        let q = BoundedQueue::new(2);
        q.try_push(10).unwrap();
        q.try_push(11).unwrap();
        match q.try_push(12) {
            Err(PushError::Full(item)) => assert_eq!(item, 12),
            other => panic!("expected Full, got {other:?}"),
        }
    }

    #[test]
    fn try_push_with_builds_the_item_only_on_admission() {
        let q = BoundedQueue::new(1);
        q.try_push_with(20, |seed| seed + 1).unwrap();
        let refused = q.try_push_with(30, |_| -> i32 { panic!("built for a full queue") });
        assert_eq!(refused, Err(PushError::Full(30)));
        q.close();
        let refused = q.try_push_with(40, |_| -> i32 { panic!("built for a closed queue") });
        assert_eq!(refused, Err(PushError::Closed(40)));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::Item(21));
    }

    #[test]
    fn closed_queue_drains_then_reports_closed() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert!(matches!(q.try_push(2), Err(PushError::Closed(2))));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::Item(1));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::Closed);
    }

    #[test]
    fn blocked_consumer_wakes_on_push() {
        let q = Arc::new(BoundedQueue::new(4));
        let consumer_q = Arc::clone(&q);
        let consumer = std::thread::spawn(move || consumer_q.pop_timeout(Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(5));
        q.try_push(7).unwrap();
        assert_eq!(consumer.join().unwrap(), Pop::Item(7));
    }

    #[test]
    fn blocked_consumer_wakes_on_close() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let consumer_q = Arc::clone(&q);
        let consumer = std::thread::spawn(move || consumer_q.pop_timeout(Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(5));
        q.close();
        assert_eq!(consumer.join().unwrap(), Pop::Closed);
    }
}
