//! The static metric registry and its snapshot/dump surface.
//!
//! Metrics are addressed by compile-time ids ([`CounterId`], [`GaugeId`],
//! [`HistogramId`]) that index fixed atomic arrays, so the request path
//! never hashes a string, takes a lock, or allocates. Names exist only at
//! the snapshot/dump boundary, where call sites read e.g.
//! `stats().get("checkins_applied")` off a [`MetricsSnapshot`].

use crate::clock::{Clock, Tick};
use crate::hist::{Histogram, HistogramBins};
use crate::ring::{EventRing, Stage};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Declares an id enum plus its parallel name table, keeping both in sync.
macro_rules! metric_ids {
    (
        $(#[$enum_meta:meta])*
        $vis:vis enum $Enum:ident {
            $($(#[$var_meta:meta])* $Variant:ident => $name:literal,)+
        }
    ) => {
        $(#[$enum_meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        $vis enum $Enum {
            $($(#[$var_meta])* $Variant,)+
        }

        impl $Enum {
            /// Number of ids in this namespace.
            pub const COUNT: usize = [$($name),+].len();
            /// Every id, in declaration order.
            pub const ALL: [$Enum; Self::COUNT] = [$($Enum::$Variant),+];
            /// The id's stable dump name.
            pub fn name(self) -> &'static str {
                const NAMES: [&str; $Enum::COUNT] = [$($name),+];
                NAMES[self as usize]
            }
        }
    };
}

metric_ids! {
    /// Monotonic event counters, one per workspace-wide event of interest.
    pub enum CounterId {
        /// Checkins folded into the model (agg).
        CheckinsApplied => "checkins_applied",
        /// Checkins run by the thread that submitted them;
        /// `checkins_applied − checkins_inline` were queued and combined by
        /// another holder of the core lock (agg).
        CheckinsInline => "checkins_inline",
        /// Duplicate checkins answered from the dedup cache (agg).
        DedupReplays => "dedup_replays",
        /// Duplicates refused because the original is still in flight (agg).
        DedupInflightBusy => "dedup_inflight_busy",
        /// Checkins refused for an exhausted ε budget at submit (agg).
        BudgetRejections => "budget_rejections",
        /// Checkins refused with Busy because the ingest queue was full (agg).
        BusyRejections => "busy_rejections",
        /// Epochs merged into the model (agg).
        EpochMerges => "epoch_merges",
        /// Epochs that batched more than one checkin (agg).
        BatchedEpochs => "batched_epochs",
        /// Malformed checkins dropped at ingest (agg).
        IngestErrors => "ingest_errors",
        /// WAL commits that failed, halting the durable runtime (agg/store).
        WalErrors => "wal_errors",
        /// Epoch applies the server refused (agg).
        ApplyErrors => "apply_errors",
        /// Snapshots written (agg/store).
        Snapshots => "snapshots",
        /// Snapshot attempts that failed (agg/store).
        SnapshotErrors => "snapshot_errors",
        /// Checkouts answered with a parameter snapshot (net).
        CheckoutsServed => "checkouts_served",
        /// Checkout reply frames encoded; every other served checkout shared
        /// one already built for its snapshot and round, so the hit rate is
        /// `1 − checkout_frames_built / checkouts_served` (net).
        CheckoutFramesBuilt => "checkout_frames_built",
        /// Checkouts refused because the device's ε budget is spent (net/dp).
        ExhaustionRefusals => "exhaustion_refusals",
        /// Connections accepted by the reactor (reactor).
        ConnsAccepted => "conns_accepted",
        /// Connections refused at the admission cap (reactor).
        ConnsRejected => "conns_rejected",
        /// Requests parked on backpressure for in-connection retry (reactor).
        Parks => "parks",
        /// Frames completed after at least one partial read (reactor).
        FrameResumes => "frame_resumes",
        /// Bytes appended to the WAL (store).
        WalAppendBytes => "wal_append_bytes",
        /// WAL append operations: one per commit group (store).
        WalAppends => "wal_appends",
        /// WAL records committed; `wal_frames / wal_appends` is the mean
        /// commit-group size (store).
        WalFrames => "wal_frames",
        /// WAL segments reused by a snapshot rotation: the spare renamed to
        /// the successor's name and overwritten in place (store).
        WalSegmentsRecycled => "wal_segments_recycled",
        /// Checkins that arrived with the quantized gradient encoding (net).
        QuantizedCheckins => "quantized_checkins",
        /// Wire bytes saved by quantized versus dense gradient encoding (net).
        QuantizedBytesSaved => "quantized_bytes_saved",
        /// Masked round submissions accepted into a cohort (agg).
        RoundSubmissions => "round_submissions",
        /// Rounds finalized with at least one surviving submission (agg).
        RoundsFinalized => "rounds_finalized",
        /// Rounds that expired with an empty cohort (agg).
        RoundsExpired => "rounds_expired",
        /// Checkins refused because they named a closed round (agg).
        RoundOutdatedRejections => "round_outdated_rejections",
    }
}

metric_ids! {
    /// Instantaneous level gauges.
    pub enum GaugeId {
        /// Checkins admitted to the ingest queue and not yet applied (agg).
        QueueDepth => "queue_depth",
        /// Open connections held by the reactor (reactor).
        ConnsActive => "conns_active",
        /// Connections currently parked on backpressure (reactor).
        ConnsParked => "conns_parked",
        /// Requests whose reply is still to come: deferred to a completer
        /// that has not fired (reactor).
        Inflight => "inflight",
    }
}

metric_ids! {
    /// Latency / size distributions (log₂ histograms; unit in the name).
    pub enum HistogramId {
        /// Submit→ack latency of an acknowledged checkin (agg, µs).
        CheckinLatencyUs => "checkin_latency_us",
        /// Service time of a CheckoutRequest (net, µs).
        ReqCheckoutUs => "req_checkout_us",
        /// Service time of a CheckinRequest (net, µs).
        ReqCheckinUs => "req_checkin_us",
        /// Service time of a MetricsRequest scrape (net, µs).
        ReqMetricsUs => "req_metrics_us",
        /// Epoch merge (WAL frame staging + apply) latency; a due snapshot
        /// has its own histogram (agg, µs).
        EpochMergeUs => "epoch_merge_us",
        /// WAL append + fsync latency, per commit group (store, µs).
        WalAppendUs => "wal_append_us",
        /// Records per WAL commit group (store, frames).
        WalGroupFrames => "wal_group_frames",
        /// Snapshot write duration (store, µs).
        SnapshotUs => "snapshot_us",
        /// ε charged per checkin, in micro-ε (dp).
        EpsSpendMicroeps => "eps_spend_microeps",
        /// Round finalization (unmask + fold + WAL + apply) latency (agg, µs).
        RoundFinalizeUs => "round_finalize_us",
    }
}

/// The shared, workspace-wide metric registry.
///
/// One registry is created per server instance (by the aggregation runtime)
/// and shared by every layer that instruments itself; tests that need
/// reproducible dumps construct one around a logical [`Clock`].
#[derive(Debug)]
pub struct Registry {
    counters: [AtomicU64; CounterId::COUNT],
    gauges: [AtomicI64; GaugeId::COUNT],
    hists: [Histogram; HistogramId::COUNT],
    ring: EventRing,
    clock: Clock,
}

impl Default for Registry {
    fn default() -> Self {
        Self::with_clock(Clock::monotonic())
    }
}

impl Registry {
    /// A registry on a monotonic clock (live servers).
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry on the given clock (logical for deterministic suites).
    pub fn with_clock(clock: Clock) -> Self {
        Registry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicI64::new(0)),
            hists: std::array::from_fn(|_| Histogram::new()),
            ring: EventRing::default(),
            clock,
        }
    }

    /// The registry's time source.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Increments a counter by one.
    pub fn incr(&self, id: CounterId) {
        self.add(id, 1);
    }

    /// Increments a counter by `n`.
    pub fn add(&self, id: CounterId, n: u64) {
        self.counters[id as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of a counter.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id as usize].load(Ordering::Relaxed)
    }

    /// Adds `delta` (possibly negative) to a gauge.
    pub fn gauge_add(&self, id: GaugeId, delta: i64) {
        self.gauges[id as usize].fetch_add(delta, Ordering::Relaxed);
    }

    /// Sets a gauge to `value`.
    pub fn gauge_set(&self, id: GaugeId, value: i64) {
        self.gauges[id as usize].store(value, Ordering::Relaxed);
    }

    /// Current value of a gauge.
    pub fn gauge(&self, id: GaugeId) -> i64 {
        self.gauges[id as usize].load(Ordering::Relaxed)
    }

    /// Records one observation into a histogram.
    pub fn observe(&self, id: HistogramId, value: u64) {
        self.hists[id as usize].observe(value);
    }

    /// Starts a latency measurement on the registry's clock.
    pub fn start(&self) -> Tick {
        self.clock.start()
    }

    /// Ends a latency measurement: records the elapsed microseconds since
    /// `start` into the histogram and returns them.
    pub fn observe_since(&self, id: HistogramId, start: Tick) -> u64 {
        let elapsed = self.clock.elapsed_micros(start);
        self.observe(id, elapsed);
        elapsed
    }

    /// Drops a span event into the bounded event ring, stamped by the
    /// registry's clock.
    pub fn span(&self, stage: Stage, key: u64) {
        self.ring.record(stage, key, self.clock.now_micros());
    }

    /// The request-path event ring.
    pub fn ring(&self) -> &EventRing {
        &self.ring
    }

    /// Takes a point-in-time snapshot of every counter, gauge, and
    /// histogram, sorted by metric name. Ring contents are deliberately
    /// excluded (their interleaving is scheduling-dependent).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<(&'static str, u64)> = CounterId::ALL
            .iter()
            .map(|&id| (id.name(), self.counter(id)))
            .collect();
        counters.sort_unstable_by_key(|&(name, _)| name);
        let mut gauges: Vec<(&'static str, i64)> = GaugeId::ALL
            .iter()
            .map(|&id| (id.name(), self.gauge(id)))
            .collect();
        gauges.sort_unstable_by_key(|&(name, _)| name);
        let mut hists: Vec<(&'static str, HistogramBins)> = HistogramId::ALL
            .iter()
            .map(|&id| (id.name(), self.hists[id as usize].bins()))
            .collect();
        hists.sort_unstable_by_key(|&(name, _)| name);
        MetricsSnapshot {
            counters,
            gauges,
            hists,
            logical_clock: self.clock.is_logical(),
        }
    }
}

/// A point-in-time view of a [`Registry`]: the one snapshot shape every
/// consumer (tests, `ChaosReport`, the wire scrape, CI smoke greps) reads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, i64)>,
    hists: Vec<(&'static str, HistogramBins)>,
    logical_clock: bool,
}

impl MetricsSnapshot {
    /// Value of the named counter; 0 when unknown.
    pub fn get(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|&&(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Value of the named gauge; 0 when unknown.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges
            .iter()
            .find(|&&(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// The named histogram's bins, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramBins> {
        self.hists
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|(_, bins)| bins)
    }

    /// All counters as `(name, value)`, sorted by name.
    pub fn counters(&self) -> &[(&'static str, u64)] {
        &self.counters
    }

    /// All gauges as `(name, value)`, sorted by name.
    pub fn gauges(&self) -> &[(&'static str, i64)] {
        &self.gauges
    }

    /// All histograms as `(name, bins)`, sorted by name.
    pub fn histograms(&self) -> &[(&'static str, HistogramBins)] {
        &self.hists
    }

    /// `true` when the registry ran on a logical clock.
    pub fn logical_clock(&self) -> bool {
        self.logical_clock
    }

    /// Deterministic plain-text dump: one sorted line per metric. Identical
    /// registries (identical op sequences on a logical clock) render
    /// byte-identical text.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let base = if self.logical_clock {
            "logical"
        } else {
            "monotonic"
        };
        let _ = writeln!(out, "# crowd-scope metrics (time base: {base})");
        for &(name, value) in &self.counters {
            let _ = writeln!(out, "counter {name} {value}");
        }
        for &(name, value) in &self.gauges {
            let _ = writeln!(out, "gauge {name} {value}");
        }
        for (name, bins) in &self.hists {
            let _ = writeln!(
                out,
                "hist {name} count={} sum={} max={} p50={} p90={} p99={} p999={}",
                bins.count(),
                bins.sum(),
                bins.max(),
                bins.p50(),
                bins.p90(),
                bins.p99(),
                bins.p999(),
            );
        }
        out
    }

    /// Deterministic JSON dump (sorted keys, integers only).
    pub fn render_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let base = if self.logical_clock {
            "logical"
        } else {
            "monotonic"
        };
        let _ = write!(out, "{{\"time_base\":\"{base}\",\"counters\":{{");
        for (i, &(name, value)) in self.counters.iter().enumerate() {
            let comma = if i > 0 { "," } else { "" };
            let _ = write!(out, "{comma}\"{name}\":{value}");
        }
        let _ = write!(out, "}},\"gauges\":{{");
        for (i, &(name, value)) in self.gauges.iter().enumerate() {
            let comma = if i > 0 { "," } else { "" };
            let _ = write!(out, "{comma}\"{name}\":{value}");
        }
        let _ = write!(out, "}},\"histograms\":{{");
        for (i, (name, bins)) in self.hists.iter().enumerate() {
            let comma = if i > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{comma}\"{name}\":{{\"count\":{},\"sum\":{},\"max\":{},\
                 \"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}}}",
                bins.count(),
                bins.sum(),
                bins.max(),
                bins.p50(),
                bins.p90(),
                bins.p99(),
                bins.p999(),
            );
        }
        let _ = write!(out, "}}}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_read_back_by_id_and_name() {
        let reg = Registry::new();
        reg.incr(CounterId::CheckinsApplied);
        reg.add(CounterId::CheckinsApplied, 2);
        reg.incr(CounterId::DedupReplays);
        assert_eq!(reg.counter(CounterId::CheckinsApplied), 3);
        let snap = reg.snapshot();
        assert_eq!(snap.get("checkins_applied"), 3);
        assert_eq!(snap.get("dedup_replays"), 1);
        assert_eq!(snap.get("no_such_counter"), 0);
    }

    #[test]
    fn gauges_move_both_ways() {
        let reg = Registry::new();
        reg.gauge_add(GaugeId::QueueDepth, 5);
        reg.gauge_add(GaugeId::QueueDepth, -2);
        assert_eq!(reg.gauge(GaugeId::QueueDepth), 3);
        reg.gauge_set(GaugeId::ConnsActive, 41);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("queue_depth"), 3);
        assert_eq!(snap.gauge("conns_active"), 41);
    }

    #[test]
    fn histograms_flow_through_snapshots() {
        let reg = Registry::new();
        for v in [1u64, 2, 3, 100] {
            reg.observe(HistogramId::CheckinLatencyUs, v);
        }
        let snap = reg.snapshot();
        let bins = snap.histogram("checkin_latency_us").unwrap();
        assert_eq!(bins.count(), 4);
        assert_eq!(bins.max(), 100);
        assert!(snap.histogram("nope").is_none());
    }

    #[test]
    fn observe_since_uses_the_registry_clock() {
        let reg = Registry::with_clock(Clock::logical());
        let start = reg.start();
        reg.clock().advance(40);
        let elapsed = reg.observe_since(HistogramId::ReqCheckinUs, start);
        assert_eq!(elapsed, 40);
        let snap = reg.snapshot();
        assert_eq!(snap.histogram("req_checkin_us").unwrap().count(), 1);
        assert!(snap.logical_clock());
    }

    #[test]
    fn dumps_are_sorted_and_carry_every_metric() {
        let snap = Registry::new().snapshot();
        let text = snap.render_text();
        for id in CounterId::ALL {
            assert!(text.contains(&format!("counter {} ", id.name())));
        }
        for id in GaugeId::ALL {
            assert!(text.contains(&format!("gauge {} ", id.name())));
        }
        for id in HistogramId::ALL {
            assert!(text.contains(&format!("hist {} ", id.name())));
        }
        // Sorted within each section.
        let counter_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("counter ")).collect();
        let mut sorted = counter_lines.clone();
        sorted.sort_unstable();
        assert_eq!(counter_lines, sorted);
        // JSON is well-formed enough for the bench/CI consumers.
        let json = snap.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"checkins_applied\":0"));
    }

    #[test]
    fn names_are_unique_across_each_namespace() {
        let mut names: Vec<&str> = CounterId::ALL.iter().map(|id| id.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CounterId::COUNT);
        let mut names: Vec<&str> = HistogramId::ALL.iter().map(|id| id.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), HistogramId::COUNT);
    }

    #[test]
    fn span_events_land_in_the_ring_but_not_the_dump() {
        let reg = Registry::with_clock(Clock::logical());
        reg.span(Stage::ShardIngest, 7);
        reg.clock().advance(3);
        reg.span(Stage::Ack, 7);
        let events = reg.ring().snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].stage, Stage::ShardIngest);
        assert_eq!(events[1].at_micros, 3);
        assert!(!reg.snapshot().render_text().contains("shard_ingest"));
    }
}
