//! Golden bytes of the wire format. `wire.lock` pins the message tags and
//! the protocol version; these pin the byte layout of every message body.
//! Each fixed instance (vectors of dimension 6) must encode to exactly the
//! hex below, and that hex must decode back to the instance. A codec change
//! that moves a single byte fails here, before any peer sees it.

use crowd_proto::codec::{decode, encode};
use crowd_proto::message::{
    BusyReply, CheckinAck, CheckinRequest, CheckoutRequest, CheckoutResponse, ErrorCode,
    ErrorReply, GradientPayload, HistogramReport, Message, MetricsReport, MetricsRequest,
    RoundParams,
};
use crowd_proto::AuthToken;

fn token(seed: u8) -> AuthToken {
    AuthToken::from_bytes(std::array::from_fn(|i| seed.wrapping_add(i as u8)))
}

fn checkin(gradient: GradientPayload) -> Message {
    Message::CheckinRequest(CheckinRequest {
        device_id: 0x0102_0304_0506_0708,
        token: token(0x40),
        checkout_iteration: 9,
        nonce: 0xA5,
        round_id: 2,
        gradient,
        num_samples: 20,
        error_count: -3,
        label_counts: vec![5, -1, 0, 16, 7, 2],
    })
}

const PARAMS: [f64; 6] = [0.5, -1.25, 3.75, f64::MIN_POSITIVE, -0.0, 1e300];

/// `(name, message, hex of its encoding)`.
fn golden() -> Vec<(&'static str, Message, &'static str)> {
    vec![
        (
            "checkout request",
            Message::CheckoutRequest(CheckoutRequest {
                version: 8,
                device_id: 42,
                token: token(0x10),
            }),
            "0108002a00000000000000101112131415161718191a1b1c1d1e1f",
        ),
        (
            "checkout response without round",
            Message::CheckoutResponse(CheckoutResponse {
                iteration: 1234,
                params: PARAMS.to_vec(),
                stopped: true,
                round: None,
            }),
            "02d2040000000000000106000000000000000000e03f000000000000f4bf0000000000000e40000000000000100000000000000000809c7500883ce4377e00",
        ),
        (
            "checkout response with round",
            Message::CheckoutResponse(CheckoutResponse {
                iteration: 77,
                params: PARAMS.to_vec(),
                stopped: false,
                round: Some(RoundParams {
                    round_id: 3,
                    seed: 0xDEAD_BEEF,
                    select_fraction: 0.5,
                    deadline_epochs: 12,
                    population: 64,
                }),
            }),
            "024d000000000000000006000000000000000000e03f000000000000f4bf0000000000000e40000000000000100000000000000000809c7500883ce4377e010300000000000000efbeadde00000000000000000000e03f0c0000004000000000000000",
        ),
        ("dense checkin", checkin(GradientPayload::Dense(PARAMS.to_vec())), "030807060504030201404142434445464748494a4b4c4d4e4f0900000000000000a500000000000000020000000000000014000000fdffffffffffffff0006000000000000000000e03f000000000000f4bf0000000000000e40000000000000100000000000000000809c7500883ce4377e060000000500000000000000ffffffffffffffff0000000000000000100000000000000007000000000000000200000000000000"),
        (
            "sparse checkin",
            checkin(GradientPayload::Sparse {
                dim: 6,
                indices: vec![0, 3, 5],
                values: vec![0.5, -1.25, 1e-12],
            }),
            "030807060504030201404142434445464748494a4b4c4d4e4f0900000000000000a500000000000000020000000000000014000000fdffffffffffffff010600000003000000000000000300000005000000000000000000e03f000000000000f4bf11ea2d819997713d060000000500000000000000ffffffffffffffff0000000000000000100000000000000007000000000000000200000000000000",
        ),
        (
            "quantized checkin",
            checkin(GradientPayload::Quantized {
                scale: 3.5e-5,
                levels: vec![0, -1, 32767, -32768, 12, 256],
            }),
            "030807060504030201404142434445464748494a4b4c4d4e4f0900000000000000a500000000000000020000000000000014000000fdffffffffffffff0206000000d2fbc6d79e59023f0000ffffff7f00800c000001060000000500000000000000ffffffffffffffff0000000000000000100000000000000007000000000000000200000000000000",
        ),
        (
            "masked checkin",
            checkin(GradientPayload::Masked {
                words: vec![0, u64::MAX, 0x0102_0304_0506_0708, 1, 2, 3],
            }),
            "030807060504030201404142434445464748494a4b4c4d4e4f0900000000000000a500000000000000020000000000000014000000fdffffffffffffff03060000000000000000000000ffffffffffffffff0807060504030201010000000000000002000000000000000300000000000000060000000500000000000000ffffffffffffffff0000000000000000100000000000000007000000000000000200000000000000",
        ),
        (
            "checkin ack",
            Message::CheckinAck(CheckinAck {
                accepted: true,
                iteration: 56,
                stopped: false,
                deduped: true,
            }),
            "040138000000000000000001",
        ),
        (
            "error",
            Message::Error(ErrorReply {
                code: ErrorCode::RoundOutdated,
                detail: "round 3".into(),
                round_id: 4,
            }),
            "050707000000726f756e6420330400000000000000",
        ),
        (
            "busy",
            Message::Busy(BusyReply { retry_after_ms: 25 }),
            "0819000000",
        ),
        (
            "metrics request",
            Message::MetricsRequest(MetricsRequest {
                version: 8,
                device_id: 3,
                token: token(0x20),
            }),
            "0908000300000000000000202122232425262728292a2b2c2d2e2f",
        ),
        (
            "metrics report",
            Message::MetricsReport(MetricsReport {
                counters: vec![("applied".into(), 64)],
                gauges: vec![("depth".into(), -1)],
                histograms: vec![HistogramReport {
                    name: "req_us".into(),
                    count: 64,
                    sum: 1024,
                    max: 200,
                    p50: 15,
                    p90: 31,
                    p99: 255,
                    p999: 256,
                }],
            }),
            "0a01000000070000006170706c696564400000000000000001000000050000006465707468ffffffffffffffff01000000060000007265715f757340000000000000000004000000000000c8000000000000000f000000000000001f00000000000000ff000000000000000001000000000000",
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("golden hex parses"))
        .collect()
}

#[test]
fn every_message_encodes_to_its_golden_bytes() {
    let mismatches: Vec<String> = golden()
        .into_iter()
        .filter_map(|(name, message, expected)| {
            let actual = hex(&encode(&message));
            (actual != expected)
                .then(|| format!("{name}:\n  expected {expected}\n  actual   {actual}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn every_golden_encoding_decodes_to_its_message() {
    for (name, message, expected) in golden() {
        let decoded = decode(&unhex(expected)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(decoded, message, "{name}");
        // `-0.0 == 0.0`: compare the re-encoding to catch a lost sign.
        assert_eq!(hex(&encode(&decoded)), expected, "{name}");
    }
}
