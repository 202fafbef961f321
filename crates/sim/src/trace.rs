//! Lightweight simulation trace collection.
//!
//! The Crowd-ML simulation (in `crowd-core`) records per-event counters and
//! latency observations here so experiments can report, e.g., how many checkins
//! each device completed or how stale the parameters were at checkin time —
//! the quantities the scalability analysis of §IV-B reasons about.
//!
//! The string-keyed counter path is a legacy surface: the concurrent runtimes
//! (`crowd-agg`, the servers) have moved to the typed, allocation-free
//! registry in `crowd-telemetry` and expose [`MetricsSnapshot`]s instead.
//! `TraceCollector` remains the single-threaded simulation's collector; prefer
//! `crowd_telemetry::Registry` for anything on a request path.
//!
//! [`MetricsSnapshot`]: crowd_telemetry::MetricsSnapshot

use crowd_telemetry::HistogramBins;
use std::collections::HashMap;

/// Sub-unit resolution of the latency histogram: observations are bucketed in
/// 1/1000ths of the caller's (arbitrary) latency unit, so fractional sim-time
/// deltas keep three decimal digits before the log₂ bucketing coarsens them.
const LATENCY_SCALE: f64 = 1e3;

/// Named counters plus latency samples.
///
/// Latencies are backed by a fixed-size log₂ histogram plus exact running
/// aggregates — bounded memory however long the run, unlike the unbounded
/// `Vec<f64>` it replaces. [`TraceCollector::mean_latency`] and
/// [`TraceCollector::max_latency`] stay exact; percentiles come from the
/// bucketed [`TraceCollector::latency_bins`].
#[derive(Debug, Clone, Default)]
pub struct TraceCollector {
    counters: HashMap<String, u64>,
    latency_bins: HistogramBins,
    latency_count: u64,
    latency_sum: f64,
    latency_max: f64,
}

impl TraceCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        TraceCollector::default()
    }

    /// Increments a named counter by one.
    ///
    /// Legacy string-keyed path (allocates per distinct name): new concurrent
    /// code should use `crowd_telemetry::CounterId` through a `Registry`.
    pub fn count(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Increments a named counter by `amount` (legacy string-keyed path; see
    /// [`TraceCollector::count`]).
    pub fn add(&mut self, name: &str, amount: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += amount;
    }

    /// Reads a counter (zero when never incremented).
    pub fn get(&self, name: &str) -> u64 {
        *self.counters.get(name).unwrap_or(&0)
    }

    /// Records a latency observation (negative or non-finite values are ignored).
    pub fn record_latency(&mut self, value: f64) {
        if value.is_finite() && value >= 0.0 {
            self.latency_count += 1;
            self.latency_sum += value;
            self.latency_max = self.latency_max.max(value);
            // Saturating cast: (value * 1e3) above u64::MAX clamps to the top
            // bucket rather than wrapping (`as` saturates for float→int).
            self.latency_bins.record((value * LATENCY_SCALE) as u64);
        }
    }

    /// Number of recorded latency observations.
    pub fn latency_count(&self) -> usize {
        self.latency_count as usize
    }

    /// Mean recorded latency, or `None` when nothing was recorded. Exact: the
    /// running f64 sum is kept alongside the bucketed histogram.
    pub fn mean_latency(&self) -> Option<f64> {
        if self.latency_count == 0 {
            None
        } else {
            Some(self.latency_sum / self.latency_count as f64)
        }
    }

    /// Maximum recorded latency, or `None` when nothing was recorded. Exact.
    pub fn max_latency(&self) -> Option<f64> {
        if self.latency_count == 0 {
            None
        } else {
            Some(self.latency_max)
        }
    }

    /// A latency quantile in the caller's latency unit, or `None` when nothing
    /// was recorded. Bucketed: the log₂ histogram's upper bound for the
    /// quantile, i.e. an overestimate by at most 2× (resolution 1/1000 unit).
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        if self.latency_count == 0 {
            None
        } else {
            Some(self.latency_bins.quantile(q) as f64 / LATENCY_SCALE)
        }
    }

    /// The raw latency histogram (values scaled by 1000; see
    /// [`TraceCollector::latency_quantile`] for unit-domain reads).
    pub fn latency_bins(&self) -> &HistogramBins {
        &self.latency_bins
    }

    /// All counters, sorted by name (for stable reporting).
    pub fn counters(&self) -> Vec<(String, u64)> {
        let mut entries: Vec<(String, u64)> =
            self.counters.iter().map(|(k, v)| (k.clone(), *v)).collect();
        entries.sort();
        entries
    }

    /// Merges another collector into this one (summing counters, merging
    /// latency histograms and aggregates).
    pub fn merge(&mut self, other: &TraceCollector) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        self.latency_bins.merge(&other.latency_bins);
        self.latency_count += other.latency_count;
        self.latency_sum += other.latency_sum;
        self.latency_max = self.latency_max.max(other.latency_max);
    }

    /// Clears all recorded data.
    pub fn reset(&mut self) {
        self.counters.clear();
        self.latency_bins = HistogramBins::new();
        self.latency_count = 0;
        self.latency_sum = 0.0;
        self.latency_max = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut t = TraceCollector::new();
        assert_eq!(t.get("checkins"), 0);
        t.count("checkins");
        t.count("checkins");
        t.add("samples", 10);
        assert_eq!(t.get("checkins"), 2);
        assert_eq!(t.get("samples"), 10);
        let listed = t.counters();
        assert_eq!(listed.len(), 2);
        assert_eq!(listed[0].0, "checkins");
    }

    #[test]
    fn latency_statistics() {
        let mut t = TraceCollector::new();
        assert_eq!(t.mean_latency(), None);
        assert_eq!(t.max_latency(), None);
        t.record_latency(1.0);
        t.record_latency(3.0);
        t.record_latency(-1.0); // ignored
        t.record_latency(f64::NAN); // ignored
        assert_eq!(t.latency_count(), 2);
        assert_eq!(t.mean_latency(), Some(2.0));
        assert_eq!(t.max_latency(), Some(3.0));
    }

    #[test]
    fn merge_and_reset() {
        let mut a = TraceCollector::new();
        a.count("x");
        a.record_latency(1.0);
        let mut b = TraceCollector::new();
        b.add("x", 4);
        b.count("y");
        b.record_latency(5.0);
        a.merge(&b);
        assert_eq!(a.get("x"), 5);
        assert_eq!(a.get("y"), 1);
        assert_eq!(a.latency_count(), 2);
        a.reset();
        assert_eq!(a.get("x"), 0);
        assert_eq!(a.latency_count(), 0);
    }
}
