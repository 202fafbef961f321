//! Isolated single-thread probes: public functions of one layer timed on the
//! first real messages and payloads the traced run captured. A probe says what
//! a layer costs alone — no TCP, no other thread, warm caches — which is the
//! floor under the spans that contain it, not a share of the round.

use crate::fleet::Captures;
use crate::stats::median;
use crate::workload::Workload;
use crowd_agg::AggRuntime;
use crowd_core::config::ServerConfig;
use crowd_core::privacy::Sanitizer;
use crowd_core::server::{EpochAggregate, Server};
use crowd_learning::{minibatch_statistics, MulticlassLogistic};
use crowd_linalg::{kernels, QuantizedVector, Vector};
use crowd_proto::codec;
use crowd_proto::message::Message;
use crowd_store::Store;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Batches per probe; the reported figure is the median batch mean.
const BATCHES: usize = 5;

/// Appends with fsync are ~100× slower than the other probes; a quarter of the
/// captured payloads per batch keeps the probe under a second on a slow disk.
const FSYNC_ITEMS: usize = 64;

/// Shape of the fixed rounds probe: cohort 128, D = 500, 8 dropped.
const ROUNDS_COHORT: u64 = 128;
const ROUNDS_DIM: usize = 500;
const ROUNDS_DROPPED: usize = 8;

/// Median over [`BATCHES`] of `batch()`, which returns one batch's mean
/// nanoseconds per operation.
fn median_ns(mut batch: impl FnMut() -> f64) -> f64 {
    let mut means: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
    median(&mut means)
}

/// Times `op` over every item and returns the mean nanoseconds per item.
fn time_each<T>(items: &[T], mut op: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    for item in items {
        op(black_box(item));
    }
    start.elapsed().as_nanos() as f64 / items.len() as f64
}

fn other(e: impl ToString) -> io::Error {
    io::Error::other(e.to_string())
}

/// Runs every probe that applies to `workload`; a probe of a layer the
/// workload bypasses reports 0. `scratch` is a directory the store probes may
/// create files under.
pub fn run(
    workload: &Workload,
    captures: &Captures,
    lambda: f64,
    scratch: &Path,
) -> io::Result<Vec<(&'static str, f64, &'static str)>> {
    let model = MulticlassLogistic::new(workload.features, workload.classes).map_err(other)?;
    let mut rng = StdRng::seed_from_u64(0xB0B);
    let mut out = Vec::new();

    // learning: the minibatch gradient on the checked-out parameters.
    out.push((
        "learning.minibatch_grad_ns",
        median_ns(|| {
            time_each(&captures.minibatches, |(params, samples)| {
                black_box(minibatch_statistics(&model, params, samples, lambda, &[]).ok());
            })
        }),
        "ns",
    ));

    // dp + linalg quantization: only a private workload runs them.
    let (mut sanitize_ns, mut quantize_ns) = (0.0, 0.0);
    if workload.private() {
        let sanitizer = Sanitizer::new(&workload.privacy(), workload.minibatch).map_err(other)?;
        let stats = captures
            .minibatches
            .iter()
            .map(|(params, samples)| minibatch_statistics(&model, params, samples, lambda, &[]))
            .collect::<Result<Vec<_>, _>>()
            .map_err(other)?;
        sanitize_ns = median_ns(|| {
            time_each(&stats, |s| {
                black_box(sanitizer.sanitize(&mut rng, &s.gradient, s.num_errors, &s.label_counts));
            })
        });
        let noised: Vec<Vector> = stats
            .iter()
            .map(|s| {
                sanitizer
                    .sanitize(&mut rng, &s.gradient, s.num_errors, &s.label_counts)
                    .gradient
            })
            .collect();
        quantize_ns = median_ns(|| {
            time_each(&noised, |g| {
                black_box(QuantizedVector::quantize_stochastic(g.as_slice(), &mut rng).ok());
            })
        });
    }
    out.push(("dp.sanitize_ns", sanitize_ns, "ns"));
    out.push(("linalg.quantize_ns", quantize_ns, "ns"));

    // linalg kernels at the workload's D.
    let vectors: Vec<&Vector> = captures.minibatches.iter().map(|(p, _)| p).collect();
    let mut y = vec![0.0f64; workload.param_dim()];
    out.push((
        "linalg.axpy_ns",
        median_ns(|| time_each(&vectors, |x| kernels::axpy(0.5, x.as_slice(), &mut y))),
        "ns",
    ));
    out.push((
        "linalg.dot_ns",
        median_ns(|| {
            time_each(&vectors, |x| {
                black_box(kernels::dot(x.as_slice(), &y));
            })
        }),
        "ns",
    ));

    // proto: both directions of both exchanges, on the messages as sent.
    for (encode_name, decode_name, messages) in [
        (
            "proto.encode_checkin_ns",
            "proto.decode_checkin_ns",
            &captures.checkins,
        ),
        (
            "proto.encode_checkout_ns",
            "proto.decode_checkout_ns",
            &captures.checkouts,
        ),
    ] {
        let (encode_ns, decode_ns) = codec_ns(messages);
        out.push((encode_name, encode_ns, "ns"));
        out.push((decode_name, decode_ns, "ns"));
    }

    // agg: the runtime alone — one caller, no TCP. One caller cannot fill a
    // batched epoch, so the probe runs per-checkin epochs whatever the
    // workload's epoch size; each batch gets a fresh runtime (and so a fresh
    // dedup table for the captured nonces).
    let mut checkout_means = Vec::new();
    let mut checkin_means = Vec::new();
    for _ in 0..BATCHES {
        let server = Server::new(model, ServerConfig::new()).map_err(other)?;
        let runtime = AggRuntime::new(server).map_err(other)?;
        checkout_means.push(time_each(&captures.payloads, |_| {
            black_box(runtime.checkout());
        }));
        let payloads = captures.payloads.clone();
        let n = payloads.len().max(1) as f64;
        let start = Instant::now();
        for payload in payloads {
            runtime.checkin(payload).map_err(other)?;
        }
        checkin_means.push(start.elapsed().as_nanos() as f64 / n);
    }
    out.push((
        "agg.checkin_inproc_us",
        median(&mut checkin_means) / 1e3,
        "us",
    ));
    out.push(("agg.checkout_inproc_ns", median(&mut checkout_means), "ns"));

    // store: one WAL append per epoch, without and with fsync.
    let (mut log_us, mut log_fsync_us) = (0.0, 0.0);
    if workload.durable {
        let epochs: Vec<EpochAggregate> = captures
            .payloads
            .iter()
            .map(EpochAggregate::from_payload)
            .collect();
        log_us = log_epoch_ns(&model, &epochs, false, scratch)? / 1e3;
        let few = &epochs[..epochs.len().min(FSYNC_ITEMS)];
        log_fsync_us = log_epoch_ns(&model, few, true, scratch)? / 1e3;
    }
    out.push(("store.log_epoch_us", log_us, "us"));
    out.push(("store.log_epoch_fsync_us", log_fsync_us, "us"));

    // rounds: one device's all-pairs net mask and one finalization with
    // dropout compensation, at a fixed shape.
    let (mut net_mask_ns, mut finalize_ns) = (0.0, 0.0);
    if workload.rounds {
        let seed = captures.round.map_or(1, |r| r.seed);
        let cohort: Vec<u64> = (0..ROUNDS_COHORT).collect();
        let gradient = vec![0.25f64; ROUNDS_DIM];
        net_mask_ns = median_ns(|| {
            time_each(&cohort[..16], |&id| {
                black_box(crowd_rounds::net_mask(seed, id, &cohort, ROUNDS_DIM));
            })
        });
        let survivors: Vec<(u64, Vec<u64>)> = cohort[ROUNDS_DROPPED..]
            .iter()
            .map(|&id| {
                let net = crowd_rounds::net_mask(seed, id, &cohort, ROUNDS_DIM);
                (id, crowd_rounds::mask(&gradient, &net))
            })
            .collect();
        finalize_ns = median_ns(|| {
            time_each(&[()], |_| {
                black_box(crowd_rounds::finalize_sum(
                    seed, &cohort, &survivors, ROUNDS_DIM,
                ));
            })
        });
    }
    out.push(("rounds.net_mask_ns", net_mask_ns, "ns"));
    out.push(("rounds.finalize_sum_ns", finalize_ns, "ns"));

    Ok(out)
}

/// Mean encode and decode nanoseconds per message (median over batches).
fn codec_ns(messages: &[Message]) -> (f64, f64) {
    let mut buf: Vec<u8> = Vec::new();
    let encode = median_ns(|| {
        time_each(messages, |m| {
            buf.clear();
            codec::encode_into(m, &mut buf);
            black_box(buf.len());
        })
    });
    let encoded: Vec<Vec<u8>> = messages
        .iter()
        .map(|m| {
            let mut bytes = Vec::new();
            codec::encode_into(m, &mut bytes);
            bytes
        })
        .collect();
    let decode = median_ns(|| {
        time_each(&encoded, |bytes| {
            black_box(codec::decode(bytes).ok());
        })
    });
    (encode, decode)
}

/// Mean nanoseconds per `Store::log_epoch` (median over batches), each batch on
/// a fresh store under `scratch`.
fn log_epoch_ns(
    model: &MulticlassLogistic,
    epochs: &[EpochAggregate],
    fsync: bool,
    scratch: &Path,
) -> io::Result<f64> {
    let mut means = Vec::new();
    for batch in 0..BATCHES {
        let dir = scratch.join(format!("probe-wal-{}-{batch}", u8::from(fsync)));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServerConfig::new()
            .with_data_dir(&dir)
            .with_fsync(fsync)
            .with_snapshot_every(0);
        let (mut store, _server, _report) = Store::open(*model, config).map_err(other)?;
        let mut iteration = 0u64;
        let mut failed = None;
        means.push(time_each(epochs, |epoch| {
            if let Err(e) = store.log_epoch(iteration, epoch, &[]) {
                failed.get_or_insert(e);
            }
            iteration += 1;
        }));
        drop(store);
        std::fs::remove_dir_all(&dir)?;
        if let Some(e) = failed {
            return Err(other(e));
        }
    }
    Ok(median(&mut means))
}
