//! Timestamped events with a deterministic total order.

use std::cmp::Ordering;

/// A scheduled event: a payload to be delivered at a simulated time.
///
/// Events are ordered by `(time, sequence)` so that two events scheduled for the
/// same instant are processed in insertion order, which keeps simulations
/// deterministic for a fixed seed.
#[derive(Debug, Clone)]
pub struct Event<T> {
    /// Simulated delivery time (arbitrary units; the Crowd-ML simulation uses
    /// "sample arrivals" as its clock).
    pub time: f64,
    /// Monotonic sequence number assigned by the queue, used as a tie-breaker.
    pub sequence: u64,
    /// The event payload.
    pub payload: T,
}

impl<T> Event<T> {
    /// Creates an event (normally done by [`EventQueue::schedule`](super::EventQueue::schedule)).
    pub fn new(time: f64, sequence: u64, payload: T) -> Self {
        Event {
            time,
            sequence,
            payload,
        }
    }
}

impl<T> PartialEq for Event<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.sequence == other.sequence
    }
}

impl<T> Eq for Event<T> {}

impl<T> PartialOrd for Event<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Event<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Total order: earlier time first, then lower sequence. NaN times are
        // pushed to the end deterministically.
        match self.time.partial_cmp(&other.time) {
            Some(ord) if ord != Ordering::Equal => ord,
            Some(_) => self.sequence.cmp(&other.sequence),
            None => {
                let self_nan = self.time.is_nan();
                let other_nan = other.time.is_nan();
                match (self_nan, other_nan) {
                    (true, false) => Ordering::Greater,
                    (false, true) => Ordering::Less,
                    _ => self.sequence.cmp(&other.sequence),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_by_time_then_sequence() {
        let a = Event::new(1.0, 0, "a");
        let b = Event::new(2.0, 1, "b");
        let c = Event::new(1.0, 2, "c");
        assert!(a < b);
        assert!(a < c);
        assert!(c < b);
        assert_eq!(a, Event::new(1.0, 0, "different payload"));
    }

    #[test]
    fn nan_times_sort_last() {
        let good = Event::new(5.0, 0, ());
        let nan = Event::new(f64::NAN, 1, ());
        assert!(good < nan);
        assert!(nan > good);
        let nan2 = Event::new(f64::NAN, 2, ());
        assert!(nan < nan2);
    }
}
