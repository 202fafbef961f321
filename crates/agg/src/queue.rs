//! The bounded job queue that flat combining drains.
//!
//! A submitter that finds the core lock taken leaves its job here, and
//! whichever thread holds the lock runs it. The queue never blocks: a push
//! against a full queue fails immediately so the caller can park the request
//! (or reply "server busy, retry later") instead of letting work pile up
//! without bound, and a pop on an empty queue returns at once. A closed queue
//! refuses pushes but still hands out what it holds — nothing that was
//! admitted is ever dropped.

// Request path: a panic here would tear down a server worker mid-epoch.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crowd_telemetry::sync::Mutex;
use std::collections::VecDeque;

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum PushError<T> {
    /// The queue is at capacity; the item is handed back to the caller.
    Full(T),
    /// The queue was closed; the item is handed back to the caller.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A fixed-capacity FIFO shared between submitters (producers) and the
/// holders of the core lock (consumers).
pub(crate) struct BoundedQueue<T> {
    // audit:lock(agg.ingest-queue, 70)
    state: Mutex<State<T>>,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue admitting at most `capacity` items (minimum 1).
    pub(crate) fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Attempts to enqueue without blocking.
    #[cfg(test)]
    fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        self.try_push_with(item, |item| item)
    }

    /// Like `try_push`, but the item is built from `seed` only once the
    /// queue is known to admit it; a refusal hands `seed` back untouched. For
    /// items that carry something which must not be created and then thrown
    /// away (a one-shot reply handle, say). `make` runs under the queue's
    /// lock, so it must be quick and must not touch the queue.
    pub(crate) fn try_push_with<A>(
        &self,
        seed: A,
        make: impl FnOnce(A) -> T,
    ) -> Result<(), PushError<A>> {
        let mut state = self.state.lock();
        if state.closed {
            return Err(PushError::Closed(seed));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(seed));
        }
        state.items.push_back(make(seed));
        Ok(())
    }

    /// Dequeues the oldest item, if any.
    pub(crate) fn pop(&self) -> Option<T> {
        self.state.lock().items.pop_front()
    }

    /// `true` when nothing is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.state.lock().items.is_empty()
    }

    /// Closes the queue: future pushes fail; what is queued can still be
    /// popped.
    pub(crate) fn close(&self) {
        self.state.lock().closed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_fifo() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
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
        assert_eq!(q.pop(), Some(21));
    }

    #[test]
    fn closed_queue_drains_then_reports_closed() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert!(matches!(q.try_push(2), Err(PushError::Closed(2))));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }
}
