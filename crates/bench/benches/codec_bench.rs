//! Communication cost (§IV-B2): the paper argues Crowd-ML transmits `N/b`
//! gradients instead of `N` raw samples, a `b/2` reduction. These benches
//! measure the per-message encode/decode cost of the wire protocol for the
//! checkin payload (the dominant message) at several gradient
//! dimensionalities, and — since PR 4 — compare the dense encoding against the
//! sparse one at 95% sparsity, plus the pooled encode path against the
//! allocating one. Decode is measured for every bulk path (dense, sparse,
//! quantized, checkout parameters), and `checkout_reply_d5000` prices an
//! epoch's worth of checkout replies encoded per request against one shared
//! pre-encoded frame.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowd_proto::auth::AuthToken;
use crowd_proto::codec::{decode, encode, encode_into};
use crowd_proto::frame::SharedFrame;
use crowd_proto::message::{CheckinRequest, CheckoutResponse, GradientPayload, Message};
use std::hint::black_box;

fn checkin_with(gradient: GradientPayload) -> Message {
    Message::CheckinRequest(CheckinRequest {
        device_id: 42,
        token: AuthToken::derive(42, 7),
        checkout_iteration: 1000,
        nonce: 0,
        round_id: 0,
        gradient,
        num_samples: 20,
        error_count: 3,
        label_counts: vec![2; 10],
    })
}

fn dense_gradient(dim: usize) -> GradientPayload {
    GradientPayload::Dense((0..dim).map(|i| i as f64 * 1e-3 + 1e-6).collect())
}

/// A gradient with 95% exact zeros, auto-encoded (which picks sparse).
fn sparse_gradient(dim: usize) -> GradientPayload {
    let mut values = vec![0.0; dim];
    for i in (0..dim).step_by(20) {
        values[i] = i as f64 * 1e-3 + 1e-6;
    }
    let payload = GradientPayload::from_dense_auto(values);
    assert!(matches!(payload, GradientPayload::Sparse { .. }));
    payload
}

/// A quantized gradient (wire v5): i16 levels plus a shared scale.
fn quantized_gradient(dim: usize) -> GradientPayload {
    let levels = (0..dim).map(|i| (i % 1000) as i16 - 500).collect();
    GradientPayload::Quantized {
        scale: 1e-4,
        levels,
    }
}

fn checkout_response(dim: usize) -> Message {
    Message::CheckoutResponse(CheckoutResponse {
        iteration: 5,
        params: vec![0.5; dim],
        stopped: false,
        round: None,
    })
}

/// Checkouts answered from one published snapshot in `checkout_reply_d5000`.
const CHECKOUTS_PER_SNAPSHOT: usize = 16;

fn bench_codec(c: &mut Criterion) {
    let mut encode_group = c.benchmark_group("encode_checkin");
    for &dim in &[50usize, 500, 5000] {
        let msg = checkin_with(dense_gradient(dim));
        encode_group.bench_with_input(BenchmarkId::new("dense", dim), &msg, |bench, msg| {
            bench.iter(|| black_box(encode(black_box(msg))))
        });
        let msg = checkin_with(sparse_gradient(dim));
        encode_group.bench_with_input(BenchmarkId::new("sparse95", dim), &msg, |bench, msg| {
            bench.iter(|| black_box(encode(black_box(msg))))
        });
    }
    encode_group.finish();

    let mut decode_group = c.benchmark_group("decode_checkin");
    for &dim in &[50usize, 500, 5000] {
        let bytes = encode(&checkin_with(dense_gradient(dim)));
        decode_group.bench_with_input(BenchmarkId::new("dense", dim), &bytes, |bench, bytes| {
            bench.iter(|| black_box(decode(black_box(bytes)).unwrap()))
        });
        let bytes = encode(&checkin_with(sparse_gradient(dim)));
        decode_group.bench_with_input(BenchmarkId::new("sparse95", dim), &bytes, |bench, bytes| {
            bench.iter(|| black_box(decode(black_box(bytes)).unwrap()))
        });
    }
    for &dim in &[500usize, 5000] {
        let bytes = encode(&checkin_with(quantized_gradient(dim)));
        decode_group.bench_with_input(
            BenchmarkId::new("quantized", dim),
            &bytes,
            |bench, bytes| bench.iter(|| black_box(decode(black_box(bytes)).unwrap())),
        );
    }
    decode_group.finish();

    // The device's side of a round: decoding the parameters it checked out.
    let mut checkout_group = c.benchmark_group("decode_checkout_response");
    for &dim in &[500usize, 5000] {
        let bytes = encode(&checkout_response(dim));
        checkout_group.bench_with_input(
            BenchmarkId::from_parameter(dim),
            &bytes,
            |bench, bytes| bench.iter(|| black_box(decode(black_box(bytes)).unwrap())),
        );
    }
    checkout_group.finish();

    // One epoch's worth of checkouts (16, the wide-dense epoch size) served
    // from one snapshot: copy the parameters into a message and encode it
    // for every request, against one frame encoded once and shared.
    let mut reply_group = c.benchmark_group("checkout_reply_d5000");
    let params: Vec<f64> = (0..5000).map(|i| i as f64 * 1e-3).collect();
    reply_group.bench_function("encode_per_request", |bench| {
        let mut scratch: Vec<u8> = Vec::new();
        bench.iter(|| {
            for _ in 0..CHECKOUTS_PER_SNAPSHOT {
                let reply = Message::CheckoutResponse(CheckoutResponse {
                    iteration: 5,
                    params: black_box(&params).to_vec(),
                    stopped: false,
                    round: None,
                });
                scratch.clear();
                scratch.extend_from_slice(&[0u8; 4]);
                encode_into(&reply, &mut scratch);
                black_box(scratch.len());
            }
        })
    });
    reply_group.bench_function("shared_frame", |bench| {
        bench.iter(|| {
            let frame = SharedFrame::checkout_response(5, false, black_box(&params), None);
            for _ in 1..CHECKOUTS_PER_SNAPSHOT {
                black_box(frame.clone());
            }
            black_box(frame)
        })
    });
    reply_group.finish();

    // The acceptance gate for the sparse transport: encode+decode of a
    // 95%-sparse checkin must beat the dense round trip.
    let mut roundtrip_group = c.benchmark_group("roundtrip_checkin_d5000");
    let dense = checkin_with(dense_gradient(5000));
    roundtrip_group.bench_function("dense", |bench| {
        bench.iter(|| {
            let bytes = encode(black_box(&dense));
            black_box(decode(&bytes).unwrap())
        })
    });
    let sparse = checkin_with(sparse_gradient(5000));
    roundtrip_group.bench_function("sparse95", |bench| {
        bench.iter(|| {
            let bytes = encode(black_box(&sparse));
            black_box(decode(&bytes).unwrap())
        })
    });
    // The quantized transport ships 2-byte levels instead of 8-byte doubles;
    // the round trip should be no slower than dense while ~4× smaller.
    let quantized = checkin_with(quantized_gradient(5000));
    roundtrip_group.bench_function("quantized", |bench| {
        bench.iter(|| {
            let bytes = encode(black_box(&quantized));
            black_box(decode(&bytes).unwrap())
        })
    });
    roundtrip_group.finish();

    // Pooled encode (reused buffer) vs allocating encode.
    let mut encode_path = c.benchmark_group("encode_path_d5000");
    let msg = checkin_with(dense_gradient(5000));
    encode_path.bench_function("alloc", |bench| {
        bench.iter(|| black_box(encode(black_box(&msg))))
    });
    encode_path.bench_function("reused_buffer", |bench| {
        let mut scratch: Vec<u8> = Vec::new();
        bench.iter(|| {
            scratch.clear();
            encode_into(black_box(&msg), &mut scratch);
            black_box(scratch.len())
        })
    });
    encode_path.finish();

    c.bench_function("roundtrip_checkout_response_d500", |bench| {
        let msg = checkout_response(500);
        bench.iter(|| {
            let bytes = encode(black_box(&msg));
            black_box(decode(&bytes).unwrap())
        })
    });
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
