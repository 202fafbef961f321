//! A deterministic future-event queue with a virtual clock.

use super::Event;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A min-heap of future events plus the current simulated time.
///
/// The queue refuses to schedule events in the past relative to its clock, and
/// advances the clock to each event's timestamp as it is popped — the standard
/// next-event-time-advance discrete-event loop.
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Event<T>>>,
    now: f64,
    next_sequence: u64,
    processed: u64,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: 0.0,
            next_sequence: 0,
            processed: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Schedules `payload` for delivery at absolute time `time`. Times earlier
    /// than the current clock are clamped to "now" (zero-delay delivery) rather
    /// than violating causality.
    pub fn schedule(&mut self, time: f64, payload: T) {
        let time = if time.is_nan() || time < self.now {
            self.now
        } else {
            time
        };
        let event = Event::new(time, self.next_sequence, payload);
        self.next_sequence += 1;
        self.heap.push(Reverse(event));
    }

    /// Schedules `payload` for delivery `delay` time units from now (negative
    /// delays are treated as zero).
    pub fn schedule_after(&mut self, delay: f64, payload: T) {
        let delay = if delay.is_nan() || delay < 0.0 {
            0.0
        } else {
            delay
        };
        self.schedule(self.now + delay, payload);
    }

    /// Timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<Event<T>> {
        let Reverse(event) = self.heap.pop()?;
        self.now = event.time;
        self.processed += 1;
        Some(event)
    }

    /// Drains and processes events with `handler` until the queue is empty or
    /// `max_events` have been processed, returning the number processed. The
    /// handler may schedule further events through the mutable queue reference it
    /// receives.
    pub fn run<F>(&mut self, max_events: u64, mut handler: F) -> u64
    where
        F: FnMut(&mut Self, Event<T>),
    {
        let mut handled = 0;
        while handled < max_events {
            match self.pop() {
                Some(event) => {
                    handler(self, event);
                    handled += 1;
                }
                None => break,
            }
        }
        handled
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_and_advances_clock() {
        let mut q = EventQueue::new();
        q.schedule(5.0, "late");
        q.schedule(1.0, "early");
        q.schedule(3.0, "middle");
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(1.0));
        assert_eq!(q.pop().unwrap().payload, "early");
        assert_eq!(q.now(), 1.0);
        assert_eq!(q.pop().unwrap().payload, "middle");
        assert_eq!(q.pop().unwrap().payload, "late");
        assert_eq!(q.now(), 5.0);
        assert!(q.pop().is_none());
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn equal_times_preserve_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(2.0, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn past_and_nan_times_are_clamped() {
        let mut q = EventQueue::new();
        q.schedule(10.0, "a");
        q.pop();
        assert_eq!(q.now(), 10.0);
        q.schedule(5.0, "past");
        assert_eq!(q.peek_time(), Some(10.0));
        q.schedule(f64::NAN, "nan");
        assert_eq!(q.len(), 2);
        q.schedule_after(-3.0, "negative delay");
        assert_eq!(q.peek_time(), Some(10.0));
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(4.0, "base");
        q.pop();
        q.schedule_after(2.5, "later");
        assert_eq!(q.peek_time(), Some(6.5));
    }

    #[test]
    fn run_processes_and_allows_rescheduling() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 0u32);
        // Each event schedules a follow-up until the payload reaches 5.
        let handled = q.run(100, |queue, event| {
            if event.payload < 5 {
                queue.schedule_after(1.0, event.payload + 1);
            }
        });
        assert_eq!(handled, 6);
        assert!(q.is_empty());
        assert_eq!(q.now(), 6.0);
    }

    #[test]
    fn run_respects_max_events() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(i as f64, i);
        }
        let handled = q.run(3, |_, _| {});
        assert_eq!(handled, 3);
        assert_eq!(q.len(), 7);
    }
}
