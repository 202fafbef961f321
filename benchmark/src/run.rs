//! One benchmark run: set-up, warm-up, measured window(s), drain, correctness
//! checks — for one workload in one process, so `peak_rss_mb` is the
//! workload's own.
//!
//! An untraced run (`trace = false`) yields the end-to-end metrics. A traced
//! run measures an untraced window and then a traced window on the same
//! server, reads the server's registry, runs the isolated probes on the
//! captured messages and yields the per-layer metrics; the difference between
//! its two windows is the tracing overhead.
//!
//! Every time and rate is reported at nominal machine speed (see
//! [`crate::calib`]): the measured window is cut into half-second slices, each
//! slice's figures are scaled by the machine's speed during that slice, and
//! the metric is the median over slices.

use crate::calib::CpuGauges;
use crate::fleet::{Counters, Fleet};
use crate::procstat::{peak_rss_mb, process_cpu_seconds, thread_cpu_seconds};
use crate::stats::{median, percentile_sorted};
use crate::trace::SpanKind;
use crate::workload::{Workload, AUTH_SECRET, RECOVERY_ROUNDS};
use crate::{probes, Metric};
use crowd_core::config::ServerConfig;
use crowd_data::synthetic::GaussianMixtureSpec;
use crowd_data::Dataset;
use crowd_learning::metrics::error_rate;
use crowd_learning::{Model, MulticlassLogistic};
use crowd_net::{ReactorServer, ReactorServerHandle};
use crowd_proto::auth::{AuthToken, TokenRegistry};
use crowd_proto::codec;
use crowd_proto::message::{CheckinRequest, CheckoutRequest, GradientPayload, Message};
use crowd_proto::PROTOCOL_VERSION;
use crowd_telemetry::MetricsSnapshot;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Extra set-ups timed before and again after the measured rig's own, so the
/// `setup_s` median draws on moments a whole measured window apart.
const EXTRA_SETUPS: usize = 4;

/// Warm-up before any measured window, discarded.
const WARMUP: Duration = Duration::from_millis(1500);

/// The measured window is cut into slices this long.
const SLICE: Duration = Duration::from_millis(500);

/// Held-out samples the final parameters are scored on.
const TEST_SIZE: usize = 500;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Length of the measured window (split in two by a traced run).
    pub window: Duration,
    pub trace: bool,
    /// Directory for data dirs, traces and result files.
    pub out_dir: PathBuf,
}

/// One named correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Everything a run produced.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    pub trace: bool,
    pub metrics: Vec<Metric>,
    /// Device rounds started / failed in the measured window(s).
    pub attempted: u64,
    pub failed: u64,
    /// Rounds acked in the measured window(s) (the count behind `rounds_per_s`).
    pub rounds: u64,
    pub checks: Vec<Check>,
    pub notes: Vec<String>,
    /// The timed window's slices (untraced run), as measured.
    pub slices: Vec<Slice>,
}

impl Report {
    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

fn other(e: impl ToString) -> io::Error {
    io::Error::other(e.to_string())
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// A running server with its connected fleet.
struct Rig {
    workload: &'static Workload,
    handle: ReactorServerHandle,
    fleet: Fleet,
    model: MulticlassLogistic,
    /// Regularization strength the devices compute their gradients with.
    lambda: f64,
    test: Dataset,
    data_dir: PathBuf,
}

impl Rig {
    /// Generates the dataset from the seed, starts the server, connects the
    /// fleet and sends every device's first warm-up request.
    fn setup(
        opts: &Options,
        config_of: fn(&Workload, &Path) -> ServerConfig,
        tag: &str,
    ) -> io::Result<Rig> {
        let w = opts.workload;
        let spec = GaussianMixtureSpec::new(w.features, w.classes)
            .with_train_size(w.devices * w.samples_per_device)
            .with_test_size(TEST_SIZE);
        let (train, test) = spec
            .generate(&mut StdRng::seed_from_u64(opts.seed))
            .map_err(other)?;
        let data_dir = opts
            .out_dir
            .join(format!("data-{}-{}-{tag}", w.name, std::process::id()));
        let _ = std::fs::remove_dir_all(&data_dir);
        let config = config_of(w, &data_dir);
        let lambda = config.lambda;
        let model = MulticlassLogistic::new(w.features, w.classes).map_err(other)?;
        let tokens = TokenRegistry::with_derived_tokens(w.devices as u64, AUTH_SECRET);
        let handle = ReactorServer::start(model, config, tokens).map_err(other)?;
        let mut fleet = Fleet::new(w, opts.seed, handle.addr(), Arc::new(train), lambda)?;
        fleet.connect_all()?;
        Ok(Rig {
            workload: w,
            handle,
            fleet,
            model,
            lambda,
            test,
            data_dir,
        })
    }

    /// Sets up and times it, at nominal machine speed.
    fn timed_setup(opts: &Options, gauges: &CpuGauges, tag: &str) -> io::Result<(Rig, f64)> {
        gauges.take_speed();
        let start = Instant::now();
        let rig = Rig::setup(opts, Workload::server_config, tag)?;
        let seconds = start.elapsed().as_secs_f64();
        Ok((rig, seconds * gauges.take_speed()))
    }

    /// Closes the fleet's sockets, stops the server and removes its data dir.
    fn teardown(self) {
        drop(self.fleet);
        self.handle.shutdown();
        let _ = std::fs::remove_dir_all(&self.data_dir);
    }
}

/// Figures of one slice of a measured window, as measured.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub wall_s: f64,
    /// Fleet counters over the slice.
    pub delta: Counters,
    /// Median and 99th-percentile latency (ns) of the rounds acked in it.
    pub p50_ns: u64,
    pub p99_ns: u64,
    /// Process CPU seconds (user + system) spent in it.
    pub cpu_s: f64,
    /// The machine's speed during it, as a share of nominal.
    pub speed: f64,
}

impl Slice {
    fn rounds(&self) -> f64 {
        self.delta.acked as f64
    }
}

/// One measured window of the closed loop.
struct Window {
    wall_s: f64,
    /// Fleet counters over the window.
    delta: Counters,
    slices: Vec<Slice>,
    process_cpu_s: f64,
    generator_cpu_s: f64,
}

impl Window {
    /// Median over slices of a per-slice time, at nominal machine speed.
    fn time(&self, figure: impl Fn(&Slice) -> f64) -> f64 {
        let mut values: Vec<f64> = self.slices.iter().map(|s| figure(s) * s.speed).collect();
        median(&mut values)
    }

    /// Median over slices of the acked-round rate, at nominal machine speed.
    fn rounds_per_s(&self) -> f64 {
        let mut values: Vec<f64> = self
            .slices
            .iter()
            .map(|s| ratio(s.rounds(), s.wall_s * s.speed))
            .collect();
        median(&mut values)
    }

    /// The machine's mean speed over the window.
    fn speed(&self) -> f64 {
        self.slices.iter().map(|s| s.speed).sum::<f64>() / self.slices.len() as f64
    }
}

fn minus(after: Counters, before: Counters) -> Counters {
    Counters {
        started: after.started - before.started,
        acked: after.acked - before.acked,
        submissions: after.submissions - before.submissions,
        failed: after.failed - before.failed,
        outdated: after.outdated - before.outdated,
        dropouts: after.dropouts - before.dropouts,
        masks: after.masks - before.masks,
        uplink_bytes: after.uplink_bytes - before.uplink_bytes,
        downlink_bytes: after.downlink_bytes - before.downlink_bytes,
        device_ns: after.device_ns - before.device_ns,
        close_ns: after.close_ns - before.close_ns,
    }
}

fn measure(fleet: &mut Fleet, gauges: &CpuGauges, window: Duration) -> io::Result<Window> {
    let count = ((window.as_secs_f64() / SLICE.as_secs_f64()).round() as u32).max(1);
    fleet.take_latencies();
    gauges.take_speed();
    let before = fleet.counters;
    let (cpu0, gen0) = (process_cpu_seconds()?, thread_cpu_seconds()?);
    let start = Instant::now();
    let mut slices = Vec::with_capacity(count as usize);
    let (mut counters, mut cpu, mut at) = (before, cpu0, start);
    for _ in 0..count {
        fleet.run_for(window / count)?;
        let (now, cpu_now) = (Instant::now(), process_cpu_seconds()?);
        let mut latencies = fleet.take_latencies();
        latencies.sort_unstable();
        let percentile = |q| match latencies.is_empty() {
            true => 0,
            false => percentile_sorted(&latencies, q),
        };
        slices.push(Slice {
            wall_s: (now - at).as_secs_f64(),
            delta: minus(fleet.counters, counters),
            p50_ns: percentile(0.50),
            p99_ns: percentile(0.99),
            cpu_s: cpu_now - cpu,
            speed: gauges.take_speed(),
        });
        (counters, cpu, at) = (fleet.counters, cpu_now, now);
    }
    Ok(Window {
        wall_s: start.elapsed().as_secs_f64(),
        delta: minus(fleet.counters, before),
        slices,
        process_cpu_s: cpu - cpu0,
        generator_cpu_s: thread_cpu_seconds()? - gen0,
    })
}

/// Counter and histogram readings of the server's registry between two
/// snapshots.
struct RegistryDelta<'a> {
    before: &'a MetricsSnapshot,
    after: &'a MetricsSnapshot,
}

impl RegistryDelta<'_> {
    fn count(&self, name: &str) -> f64 {
        (self.after.get(name) - self.before.get(name)) as f64
    }

    /// Mean of the histogram's observations between the snapshots.
    fn mean(&self, name: &str) -> f64 {
        let read = |s: &MetricsSnapshot| {
            s.histogram(name)
                .map_or((0, 0), |bins| (bins.sum(), bins.count()))
        };
        let ((sum0, n0), (sum1, n1)) = (read(self.before), read(self.after));
        ratio((sum1 - sum0) as f64, (n1 - n0) as f64)
    }
}

/// Runs one workload once.
pub fn run(opts: &Options) -> io::Result<Report> {
    std::fs::create_dir_all(&opts.out_dir)?;
    let gauges = CpuGauges::start();
    if opts.trace {
        run_traced(opts, &gauges)
    } else {
        run_untraced(opts, &gauges)
    }
}

fn run_untraced(opts: &Options, gauges: &CpuGauges) -> io::Result<Report> {
    let mut setup_times = Vec::new();
    let mut extra_setups = |tag: &str| -> io::Result<()> {
        for n in 0..EXTRA_SETUPS {
            let (rig, seconds) = Rig::timed_setup(opts, gauges, &format!("{tag}{n}"))?;
            setup_times.push(seconds);
            rig.teardown();
        }
        Ok(())
    };
    extra_setups("before")?;
    let (mut rig, setup_s) = Rig::timed_setup(opts, gauges, "timed")?;

    rig.fleet.run_for(WARMUP)?;
    let since = rig.handle.metrics().snapshot();
    let window = measure(&mut rig.fleet, gauges, opts.window)?;
    let rounds = window.delta.acked as f64;
    let mut report = Report {
        workload: opts.workload.name,
        trace: false,
        metrics: vec![
            Metric::new("rounds_per_s", window.rounds_per_s(), "1/s"),
            Metric::new("round_p50_ms", window.time(|s| s.p50_ns as f64 / 1e6), "ms"),
            Metric::new(
                "cpu_us_per_round",
                window.time(|s| ratio(s.cpu_s * 1e6, s.rounds())),
                "us",
            ),
            Metric::new(
                "device_us_per_round",
                window.time(|s| ratio(s.delta.device_ns as f64 / 1e3, s.rounds())),
                "us",
            ),
            Metric::new(
                "uplink_bytes_per_round",
                ratio(window.delta.uplink_bytes as f64, rounds),
                "B",
            ),
            Metric::new(
                "downlink_bytes_per_round",
                ratio(window.delta.downlink_bytes as f64, rounds),
                "B",
            ),
        ],
        attempted: window.delta.started.max(1),
        failed: window.delta.failed,
        rounds: window.delta.acked,
        checks: Vec::new(),
        notes: vec![format!(
            "{} rounds in {} slices over {:.2} s at {:.3} of nominal machine speed \
             ({:.0} rounds/s as measured)",
            window.delta.acked,
            window.slices.len(),
            window.wall_s,
            window.speed(),
            ratio(rounds, window.wall_s),
        )],
        slices: window.slices.clone(),
    };
    finish(&mut rig, &mut report, &since, window.wall_s)?;
    rig.teardown();

    extra_setups("after")?;
    setup_times.push(setup_s);
    report
        .metrics
        .push(Metric::new("setup_s", median(&mut setup_times), "s"));
    // Read last: the high-water mark covers the whole workload.
    report
        .metrics
        .push(Metric::new("peak_rss_mb", peak_rss_mb()?, "MB"));
    Ok(report)
}

/// Drains the fleet, settles the open round and runs the correctness checks
/// every run shares. Returns the registry snapshot taken after the drain.
fn finish(
    rig: &mut Rig,
    report: &mut Report,
    since: &MetricsSnapshot,
    measured_s: f64,
) -> io::Result<MetricsSnapshot> {
    let w = rig.workload;
    rig.fleet.drain()?;
    // Read the round counters before settling: settling finalizes the open
    // round, which is shutdown work, not the measured protocol.
    let drained = rig.handle.metrics().snapshot();
    rig.handle.settle_rounds();
    let settled = rig.handle.metrics().snapshot();
    let c = rig.fleet.counters;
    let mut checks = Vec::new();
    let mut check = |name: &'static str, ok: bool, detail: String| {
        checks.push(Check { name, ok, detail });
    };

    check(
        "no_failed_rounds",
        c.failed == 0,
        match &rig.fleet.first_failure {
            Some(why) => format!("{} failed; first: {why}", c.failed),
            None => "0 failed".into(),
        },
    );
    // Every ack the fleet accepted is a gradient the server applied, and
    // nothing else was applied. (A finalized round adds its submissions to
    // `checkins_applied`, so after settling no separate term remains.)
    let applied = settled.get("checkins_applied");
    check(
        "acks_equal_applied",
        c.acked == applied && c.submissions == settled.get("round_submissions"),
        format!(
            "fleet acked {} (of them {} masked); server applied {applied}, accepted {} submissions",
            c.acked,
            c.submissions,
            settled.get("round_submissions")
        ),
    );
    let params = rig.handle.params();
    let error = error_rate(&rig.model, &params, &rig.test).map_err(other)?;
    let init_error = error_rate(&rig.model, &rig.model.init_params(), &rig.test).map_err(other)?;
    check(
        "model_learned",
        error < init_error && error <= w.error_ceiling,
        format!(
            "held-out error {error:.4} (initial {init_error:.4}, ceiling {})",
            w.error_ceiling
        ),
    );

    if w.private() {
        let quantized = settled.get("quantized_checkins");
        check(
            "every_checkin_quantized",
            quantized == applied && applied > 0,
            format!("{quantized} of {applied} checkins arrived quantized"),
        );
    }
    if w.name == "wide-dense" {
        let (checkout_frame, checkin_frame, header) = dense_frame_sizes(w);
        let expected = c.acked * (checkout_frame + checkin_frame);
        check(
            "uplink_is_8d_plus_header",
            checkin_frame == 8 * w.param_dim() as u64 + header && c.uplink_bytes == expected,
            format!(
                "checkin frame {checkin_frame} B = 8·{} + {header}; fleet wrote {} B, expected {expected}",
                w.param_dim(),
                c.uplink_bytes
            ),
        );
    }
    if w.rounds {
        let reg = RegistryDelta {
            before: since,
            after: &drained,
        };
        let finalized_per_s = ratio(reg.count("rounds_finalized"), measured_s);
        let expired = reg.count("rounds_expired");
        let useful = ratio(c.submissions as f64, c.masks as f64);
        check(
            "rounds_finalize_and_masks_are_useful",
            finalized_per_s > 0.0 && expired == 0.0 && useful >= 0.9,
            format!(
                "{finalized_per_s:.2} rounds finalized per s, {expired} expired, \
                 {useful:.4} of {} masks accepted",
                c.masks
            ),
        );
    }
    report.checks.extend(checks);
    Ok(drained)
}

/// Frame sizes (length prefix included) of a checkout request, a dense
/// checkin of the workload's shape, and the checkin's fixed header — the
/// checkin frame with an empty gradient body.
fn dense_frame_sizes(w: &Workload) -> (u64, u64, u64) {
    let token = AuthToken::derive(0, AUTH_SECRET);
    let frame = |m: &Message| codec::encode(m).len() as u64 + 4;
    let checkin = |dim: usize| {
        frame(&Message::CheckinRequest(CheckinRequest {
            device_id: 0,
            token,
            checkout_iteration: 0,
            nonce: 1,
            round_id: 0,
            gradient: GradientPayload::Dense(vec![0.5; dim]),
            num_samples: 1,
            error_count: 0,
            label_counts: vec![0; w.classes],
        }))
    };
    let checkout = frame(&Message::CheckoutRequest(CheckoutRequest {
        version: PROTOCOL_VERSION,
        device_id: 0,
        token,
    }));
    (checkout, checkin(w.param_dim()), checkin(0))
}

fn run_traced(opts: &Options, gauges: &CpuGauges) -> io::Result<Report> {
    let w = opts.workload;
    let mut rig = Rig::setup(opts, Workload::server_config, "traced")?;
    rig.fleet.run_for(WARMUP)?;
    let since = rig.handle.metrics().snapshot();
    let half = opts.window / 2;
    let plain = measure(&mut rig.fleet, gauges, half)?;
    rig.fleet.start_tracing();
    let traced = measure(&mut rig.fleet, gauges, half)?;

    let rounds = (plain.delta.acked + traced.delta.acked) as f64;
    let measured_s = plain.wall_s + traced.wall_s;
    let mut report = Report {
        workload: w.name,
        trace: true,
        metrics: Vec::new(),
        attempted: (plain.delta.started + traced.delta.started).max(1),
        failed: plain.delta.failed + traced.delta.failed,
        rounds: rounds as u64,
        checks: Vec::new(),
        notes: Vec::new(),
        slices: Vec::new(),
    };
    let drained = finish(&mut rig, &mut report, &since, measured_s)?;
    let reg = RegistryDelta {
        before: &since,
        after: &drained,
    };
    let c = rig.fleet.counters;
    let tracer = &rig.fleet.tracer;
    let per_round = |name: &str| ratio(reg.count(name), rounds);
    let applied = reg.count("checkins_applied");
    let plain_rounds = plain.delta.acked as f64;
    let busy = ratio(plain.generator_cpu_s, plain.wall_s);
    if busy > 0.95 {
        report.notes.push("generator-bound".into());
    }
    // Times are scaled to nominal machine speed by the speed of the window
    // they were taken in: spans by the traced window's, generator and server
    // CPU by the untraced window's, registry histograms by both windows'.
    let (plain_speed, traced_speed) = (plain.speed(), traced.speed());
    let both_speed = (plain_speed + traced_speed) / 2.0;
    let span_us = |kind| tracer.mean_us(kind) * traced_speed;
    let hist_us = |name: &str| reg.mean(name) * both_speed;

    let mut m = vec![
        // The tail of the round latency, from the untraced window. It is what
        // a device sees, but on a small shared box it counts the host's
        // stalls more than the program's, so it carries no bound (README).
        Metric::new("round_p99_ms", plain.time(|s| s.p99_ns as f64 / 1e6), "ms"),
        // S: spans around the generator's own calls (traced window).
        Metric::new("core.device_checkin_us", span_us(SpanKind::Device), "us"),
        Metric::new("reactor.frame_enqueue_us", span_us(SpanKind::Enqueue), "us"),
        Metric::new("reactor.frame_write_us", span_us(SpanKind::Write), "us"),
        Metric::new("reactor.frame_read_us", span_us(SpanKind::Read), "us"),
        Metric::new("net.connect_us", span_us(SpanKind::Connect), "us"),
        Metric::new(
            "net.close_us",
            ratio(
                traced.delta.close_ns as f64 / 1e3,
                traced.delta.acked as f64,
            ) * traced_speed,
            "us",
        ),
        Metric::new("net.wire_map_us", span_us(SpanKind::WireMap), "us"),
        Metric::new(
            "net.checkout_wait_us",
            span_us(SpanKind::CheckoutWait),
            "us",
        ),
        Metric::new("net.checkin_wait_us", span_us(SpanKind::CheckinWait), "us"),
        Metric::new("rounds.mask_us", span_us(SpanKind::Mask), "us"),
        Metric::new("gen.queue_us", span_us(SpanKind::Queue), "us"),
        Metric::new("gen.arm_us", span_us(SpanKind::Arm), "us"),
        Metric::new("telemetry.traced_round_us", span_us(SpanKind::Round), "us"),
        Metric::new(
            "telemetry.uncovered_share",
            tracer.uncovered_share(),
            "ratio",
        ),
        Metric::new(
            "telemetry.trace_overhead_share",
            1.0 - ratio(traced.rounds_per_s(), plain.rounds_per_s()),
            "ratio",
        ),
        Metric::new("telemetry.machine_speed", both_speed, "ratio"),
        // Generator and server CPU, from the untraced window.
        Metric::new(
            "gen.cpu_us_per_round",
            ratio(plain.generator_cpu_s * 1e6, plain_rounds) * plain_speed,
            "us",
        ),
        Metric::new(
            "server.cpu_us_per_round",
            ratio(
                (plain.process_cpu_s - plain.generator_cpu_s) * 1e6,
                plain_rounds,
            ) * plain_speed,
            "us",
        ),
        Metric::new("gen.busy_share", busy, "ratio"),
        // R: the server's own registry, read from outside.
        Metric::new(
            "proto.quantized_share",
            ratio(reg.count("quantized_checkins"), applied),
            "ratio",
        ),
        Metric::new(
            "reactor.conns_accepted_per_round",
            per_round("conns_accepted"),
            "count",
        ),
        Metric::new(
            "reactor.frame_resumes_per_round",
            per_round("frame_resumes"),
            "count",
        ),
        Metric::new("reactor.parks_per_round", per_round("parks"), "count"),
        Metric::new("net.req_checkout_us", hist_us("req_checkout_us"), "us"),
        Metric::new("net.req_checkin_us", hist_us("req_checkin_us"), "us"),
        Metric::new("agg.epochs_per_round", per_round("epoch_merges"), "count"),
        Metric::new(
            "agg.mean_epoch_size",
            ratio(applied, reg.count("epoch_merges")),
            "count",
        ),
        Metric::new("agg.dedup_replays", reg.count("dedup_replays"), "count"),
        Metric::new(
            "agg.checkin_latency_us",
            hist_us("checkin_latency_us"),
            "us",
        ),
        Metric::new("agg.epoch_merge_us", hist_us("epoch_merge_us"), "us"),
        Metric::new(
            "store.wal_appends_per_round",
            per_round("wal_appends"),
            "count",
        ),
        Metric::new(
            "store.wal_bytes_per_round",
            per_round("wal_append_bytes"),
            "B",
        ),
        Metric::new("store.snapshots", reg.count("snapshots"), "count"),
        Metric::new("store.wal_append_us", hist_us("wal_append_us"), "us"),
        Metric::new("store.snapshot_us", hist_us("snapshot_us"), "us"),
        Metric::new(
            "rounds.finalized_per_s",
            ratio(reg.count("rounds_finalized"), measured_s * both_speed),
            "1/s",
        ),
        Metric::new("rounds.expired", reg.count("rounds_expired"), "count"),
        Metric::new("rounds.finalize_us", hist_us("round_finalize_us"), "us"),
        Metric::new(
            "rounds.useful_share",
            ratio(c.submissions as f64, c.masks as f64),
            "ratio",
        ),
    ];

    // P: isolated probes on what the traced window captured.
    gauges.take_speed();
    let probed = probes::run(w, &rig.fleet.captures, rig.lambda, &opts.out_dir)?;
    let probe_speed = gauges.take_speed();
    for (name, value, unit) in probed {
        m.push(Metric::new(name, value * probe_speed, unit));
    }

    let trace_path = opts.out_dir.join(format!("{}.trace.json", w.name));
    rig.fleet.tracer.write_json(&trace_path, w.name)?;
    report.notes.push(format!(
        "{} traced rounds, {} spans written to {}",
        rig.fleet.tracer.rounds_closed,
        rig.fleet.tracer.completed_spans().len(),
        trace_path.display()
    ));
    rig.teardown();

    // The store's read path, beside its write path: only the durable workload
    // recovers.
    let (recover_s, replay_us) = if w.durable {
        recover(opts, gauges, &mut report)?
    } else {
        (0.0, 0.0)
    };
    m.push(Metric::new("store.recover_s", recover_s, "s"));
    m.push(Metric::new("store.replay_us_per_epoch", replay_us, "us"));
    report.metrics = m;
    Ok(report)
}

/// Fixed-count recovery phase: drive exactly [`RECOVERY_ROUNDS`] rounds into
/// a durable server that never snapshots, kill it, and time the restart on the
/// same directory. Returns `(recover_s, replay µs per epoch)`.
fn recover(opts: &Options, gauges: &CpuGauges, report: &mut Report) -> io::Result<(f64, f64)> {
    let w = opts.workload;
    let mut rig = Rig::setup(opts, Workload::recovery_config, "recover")?;
    // `setup` started each device's first round; the rest complete the count.
    rig.fleet.run_rounds(RECOVERY_ROUNDS - w.devices as u64)?;
    let (iteration, params) = (rig.handle.iteration(), rig.handle.params());
    let Rig {
        handle,
        fleet,
        model,
        data_dir,
        ..
    } = rig;
    let failed = fleet.counters.failed;
    drop(fleet);
    handle.kill();

    let tokens = TokenRegistry::with_derived_tokens(w.devices as u64, AUTH_SECRET);
    gauges.take_speed();
    let start = Instant::now();
    let restarted =
        ReactorServer::start(model, w.recovery_config(&data_dir), tokens).map_err(other)?;
    let recover_s = start.elapsed().as_secs_f64() * gauges.take_speed();
    let replayed = restarted.recovery_report().map_or(0, |r| r.replayed_epochs);
    let bits = |v: &crowd_linalg::Vector| -> Vec<u64> {
        v.as_slice().iter().map(|x| x.to_bits()).collect()
    };
    let same_params = bits(&restarted.params()) == bits(&params);
    report.checks.push(Check {
        name: "recovery_is_bitwise",
        ok: failed == 0
            && replayed == RECOVERY_ROUNDS
            && restarted.iteration() == iteration
            && same_params,
        detail: format!(
            "replayed {replayed} of {RECOVERY_ROUNDS} epochs in {recover_s:.3} s; iteration {} \
             vs {iteration} before the kill; params bitwise equal: {same_params}; {failed} rounds failed",
            restarted.iteration()
        ),
    });
    restarted.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
    Ok((recover_s, ratio(recover_s * 1e6, replayed as f64)))
}
