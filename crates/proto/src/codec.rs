//! Deterministic binary encoding/decoding of protocol messages.
//!
//! Layout conventions: all integers little-endian; `f64` as IEEE-754 bit patterns;
//! vectors prefixed by a `u32` element count; strings UTF-8 with a `u32` byte
//! length; booleans a single byte. The message itself is `[tag: u8][body]`; the
//! framing layer (`crate::frame`) adds the outer length prefix.
//!
//! The bytes go through [`crate::le`], the reader and writer `crowd-store`'s
//! codec shares: a numeric vector costs one `reserve` to encode, and one
//! count check — against [`MAX_VEC_LEN`] and against what is left of the
//! frame — plus one exactly sized `Vec` to decode. The per-element decoder
//! the bulk reader replaced survives as the test oracle in `codec_reference`.

use crate::auth::AuthToken;
use crate::error::ProtoError;
use crate::le::{
    self, get_bytes, get_count, get_f64, get_i64, get_u16, get_u32, get_u64, get_u8, put_f64,
    put_i64, put_u16, put_u32, put_u64, put_u8, put_vec,
};
use crate::message::{
    BusyReply, CheckinAck, CheckinRequest, CheckoutRequest, CheckoutResponse, ErrorCode,
    ErrorReply, GradientPayload, HistogramReport, Message, MetricsReport, MetricsRequest,
    RoundParams,
};
use crate::Result;

/// Maximum number of elements accepted in any decoded vector (gradients, label
/// counts). Prevents a malicious length prefix from triggering a huge allocation.
pub const MAX_VEC_LEN: usize = 16 * 1024 * 1024;

/// Maximum number of entries accepted in one list of a metrics report. The
/// cap keeps a forged length prefix from sizing a huge allocation.
pub(crate) const MAX_LIST_LEN: usize = 4096;

/// Fewest bytes a metrics-report counter or gauge takes: an empty name's
/// 4-byte length and an 8-byte value.
pub(crate) const COUNTER_MIN: usize = 4 + 8;

/// Fewest bytes a metrics-report histogram takes: an empty name's 4-byte
/// length and seven 8-byte statistics.
pub(crate) const HISTOGRAM_MIN: usize = 4 + 7 * 8;

/// Message tag of [`Message::CheckoutResponse`] ([`Message::tag`] is the table).
const TAG_CHECKOUT_RESPONSE: u8 = 2;

/// Wire tag for a dense gradient encoding inside a checkin.
const GRADIENT_DENSE: u8 = 0;
/// Wire tag for a sparse (indices + values) gradient encoding.
const GRADIENT_SPARSE: u8 = 1;
/// Wire tag for a quantized (shared scale + `i16` levels) gradient encoding
/// (wire v5).
const GRADIENT_QUANTIZED: u8 = 2;
/// Wire tag for a masked (round-cohort `u64` words) gradient encoding
/// (wire v6).
const GRADIENT_MASKED: u8 = 3;

/// Encodes a message into a standalone byte buffer (without the frame length
/// prefix).
pub fn encode(message: &Message) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    encode_into(message, &mut buf);
    buf
}

/// Encodes a message into a caller-provided buffer (without the frame length
/// prefix), appending to whatever it already holds. Reusing one buffer across
/// messages keeps the steady-state encode path allocation-free.
pub fn encode_into(message: &Message, buf: &mut Vec<u8>) {
    put_u8(buf, message.tag());
    match message {
        Message::CheckoutRequest(m) => {
            put_u16(buf, m.version);
            put_u64(buf, m.device_id);
            buf.extend_from_slice(m.token.as_bytes());
        }
        Message::CheckoutResponse(m) => {
            put_checkout_response_body(buf, m.iteration, m.stopped, &m.params, m.round.as_ref());
        }
        Message::CheckinRequest(m) => {
            put_checkin(buf, m);
        }
        Message::CheckinAck(m) => {
            put_u8(buf, m.accepted.into());
            put_u64(buf, m.iteration);
            put_u8(buf, m.stopped.into());
            put_u8(buf, m.deduped.into());
        }
        Message::Error(m) => {
            put_u8(buf, m.code.as_u8());
            put_string(buf, &m.detail);
            put_u64(buf, m.round_id);
        }
        Message::Busy(m) => {
            put_u32(buf, m.retry_after_ms);
        }
        Message::MetricsRequest(m) => {
            put_u16(buf, m.version);
            put_u64(buf, m.device_id);
            buf.extend_from_slice(m.token.as_bytes());
        }
        Message::MetricsReport(m) => {
            put_u32(buf, m.counters.len() as u32);
            for (name, value) in &m.counters {
                put_string(buf, name);
                put_u64(buf, *value);
            }
            put_u32(buf, m.gauges.len() as u32);
            for (name, value) in &m.gauges {
                put_string(buf, name);
                put_i64(buf, *value);
            }
            put_u32(buf, m.histograms.len() as u32);
            for h in &m.histograms {
                put_string(buf, &h.name);
                for stat in [h.count, h.sum, h.max, h.p50, h.p90, h.p99, h.p999] {
                    put_u64(buf, stat);
                }
            }
        }
    }
}

/// Encodes a [`Message::CheckoutResponse`] (tag and body, like
/// [`encode_into`]) from borrowed parts, so a server can encode a reply
/// straight out of its parameter snapshot without first copying the
/// parameters into a [`CheckoutResponse`].
pub(crate) fn encode_checkout_response_into(
    buf: &mut Vec<u8>,
    iteration: u64,
    stopped: bool,
    params: &[f64],
    round: Option<&RoundParams>,
) {
    put_u8(buf, TAG_CHECKOUT_RESPONSE);
    put_checkout_response_body(buf, iteration, stopped, params, round);
}

/// The one definition of the `CheckoutResponse` body layout.
fn put_checkout_response_body(
    buf: &mut Vec<u8>,
    iteration: u64,
    stopped: bool,
    params: &[f64],
    round: Option<&RoundParams>,
) {
    put_u64(buf, iteration);
    put_u8(buf, stopped.into());
    put_vec(buf, params);
    match round {
        None => put_u8(buf, 0),
        Some(r) => {
            put_u8(buf, 1);
            put_u64(buf, r.round_id);
            put_u64(buf, r.seed);
            put_f64(buf, r.select_fraction);
            put_u32(buf, r.deadline_epochs);
            put_u64(buf, r.population);
        }
    }
}

/// Decodes a message from a byte buffer produced by [`encode`].
pub fn decode(mut buf: &[u8]) -> Result<Message> {
    let tag = get_u8(&mut buf, "message tag")?;
    let message = match tag {
        1 => {
            let version = get_u16(&mut buf, "version")?;
            let device_id = get_u64(&mut buf, "device_id")?;
            let token = get_token(&mut buf)?;
            Message::CheckoutRequest(CheckoutRequest {
                version,
                device_id,
                token,
            })
        }
        TAG_CHECKOUT_RESPONSE => {
            let iteration = get_u64(&mut buf, "iteration")?;
            let stopped = get_u8(&mut buf, "stopped")? != 0;
            let params = le::get_vec(&mut buf, MAX_VEC_LEN, "params")?;
            let round = match get_u8(&mut buf, "round presence")? {
                0 => None,
                1 => {
                    let round_id = get_u64(&mut buf, "round_id")?;
                    let seed = get_u64(&mut buf, "round seed")?;
                    let select_fraction = get_f64(&mut buf, "select_fraction")?;
                    if !(select_fraction.is_finite()
                        && select_fraction > 0.0
                        && select_fraction <= 1.0)
                    {
                        return Err(ProtoError::InvalidField {
                            field: "select_fraction",
                            reason: format!("{select_fraction} outside (0, 1]"),
                        });
                    }
                    let deadline_epochs = get_u32(&mut buf, "deadline_epochs")?;
                    let population = get_u64(&mut buf, "round population")?;
                    Some(RoundParams {
                        round_id,
                        seed,
                        select_fraction,
                        deadline_epochs,
                        population,
                    })
                }
                other => {
                    return Err(ProtoError::InvalidField {
                        field: "round presence",
                        reason: format!("expected 0 or 1, got {other}"),
                    })
                }
            };
            Message::CheckoutResponse(CheckoutResponse {
                iteration,
                params,
                stopped,
                round,
            })
        }
        3 => Message::CheckinRequest(get_checkin(&mut buf)?),
        4 => {
            let accepted = get_u8(&mut buf, "accepted")? != 0;
            let iteration = get_u64(&mut buf, "iteration")?;
            let stopped = get_u8(&mut buf, "stopped")? != 0;
            let deduped = get_u8(&mut buf, "deduped")? != 0;
            Message::CheckinAck(CheckinAck {
                accepted,
                iteration,
                stopped,
                deduped,
            })
        }
        5 => {
            let raw_code = get_u8(&mut buf, "error code")?;
            let code = ErrorCode::from_u8(raw_code).ok_or(ProtoError::InvalidField {
                field: "error_code",
                reason: format!("unknown code {raw_code}"),
            })?;
            let detail = get_string(&mut buf, "detail")?;
            let round_id = get_u64(&mut buf, "error round_id")?;
            Message::Error(ErrorReply {
                code,
                detail,
                round_id,
            })
        }
        8 => {
            let retry_after_ms = get_u32(&mut buf, "retry_after_ms")?;
            Message::Busy(BusyReply { retry_after_ms })
        }
        9 => {
            let version = get_u16(&mut buf, "version")?;
            let device_id = get_u64(&mut buf, "device_id")?;
            let token = get_token(&mut buf)?;
            Message::MetricsRequest(MetricsRequest {
                version,
                device_id,
                token,
            })
        }
        10 => {
            let count = get_count(&mut buf, MAX_LIST_LEN, COUNTER_MIN, "metric counters")?;
            let mut counters = Vec::with_capacity(count);
            for _ in 0..count {
                let name = get_string(&mut buf, "counter name")?;
                let value = get_u64(&mut buf, "counter value")?;
                counters.push((name, value));
            }
            let count = get_count(&mut buf, MAX_LIST_LEN, COUNTER_MIN, "metric gauges")?;
            let mut gauges = Vec::with_capacity(count);
            for _ in 0..count {
                let name = get_string(&mut buf, "gauge name")?;
                let value = get_i64(&mut buf, "gauge value")?;
                gauges.push((name, value));
            }
            let count = get_count(&mut buf, MAX_LIST_LEN, HISTOGRAM_MIN, "metric histograms")?;
            let mut histograms = Vec::with_capacity(count);
            for _ in 0..count {
                let name = get_string(&mut buf, "histogram name")?;
                let mut stat = || get_u64(&mut buf, "histogram stats");
                histograms.push(HistogramReport {
                    name,
                    count: stat()?,
                    sum: stat()?,
                    max: stat()?,
                    p50: stat()?,
                    p90: stat()?,
                    p99: stat()?,
                    p999: stat()?,
                });
            }
            Message::MetricsReport(MetricsReport {
                counters,
                gauges,
                histograms,
            })
        }
        other => return Err(ProtoError::UnknownMessageTag(other)),
    };
    if !buf.is_empty() {
        return Err(ProtoError::InvalidField {
            field: "message",
            reason: format!("{} trailing bytes after decoding", buf.len()),
        });
    }
    Ok(message)
}

fn put_checkin(buf: &mut Vec<u8>, m: &CheckinRequest) {
    put_u64(buf, m.device_id);
    buf.extend_from_slice(m.token.as_bytes());
    put_u64(buf, m.checkout_iteration);
    put_u64(buf, m.nonce);
    put_u64(buf, m.round_id);
    put_u32(buf, m.num_samples);
    put_i64(buf, m.error_count);
    put_gradient(buf, &m.gradient);
    put_vec(buf, &m.label_counts);
}

fn put_gradient(buf: &mut Vec<u8>, gradient: &GradientPayload) {
    match gradient {
        GradientPayload::Dense(values) => {
            put_u8(buf, GRADIENT_DENSE);
            put_vec(buf, values);
        }
        GradientPayload::Sparse {
            dim,
            indices,
            values,
        } => {
            put_u8(buf, GRADIENT_SPARSE);
            put_u32(buf, *dim);
            put_vec(buf, indices);
            le::put_run(buf, values);
        }
        GradientPayload::Quantized { scale, levels } => {
            put_u8(buf, GRADIENT_QUANTIZED);
            put_u32(buf, levels.len() as u32);
            put_f64(buf, *scale);
            le::put_run(buf, levels);
        }
        GradientPayload::Masked { words } => {
            put_u8(buf, GRADIENT_MASKED);
            put_vec(buf, words);
        }
    }
}

fn get_gradient(buf: &mut &[u8]) -> Result<GradientPayload> {
    match get_u8(buf, "gradient encoding")? {
        GRADIENT_DENSE => {
            let values = le::get_vec(buf, MAX_VEC_LEN, "gradient")?;
            Ok(GradientPayload::Dense(values))
        }
        GRADIENT_SPARSE => {
            let dim = get_u32(buf, "gradient dim")? as usize;
            if dim > MAX_VEC_LEN {
                return Err(ProtoError::InvalidField {
                    field: "gradient dim",
                    reason: format!("declared dimension {dim} exceeds maximum {MAX_VEC_LEN}"),
                });
            }
            let nnz = get_u32(buf, "gradient nnz")? as usize;
            if nnz > dim {
                return Err(ProtoError::InvalidField {
                    field: "gradient nnz",
                    reason: format!("{nnz} stored coordinates exceed dimension {dim}"),
                });
            }
            let indices: Vec<u32> = le::get_run(buf, nnz, "gradient indices")?;
            let mut prev: Option<u32> = None;
            for &i in &indices {
                if i as usize >= dim || prev.is_some_and(|p| i <= p) {
                    return Err(ProtoError::InvalidField {
                        field: "gradient indices",
                        reason: format!("index {i} out of order or out of range for {dim}"),
                    });
                }
                prev = Some(i);
            }
            let values = le::get_run(buf, nnz, "gradient values")?;
            Ok(GradientPayload::Sparse {
                dim: dim as u32,
                indices,
                values,
            })
        }
        GRADIENT_QUANTIZED => {
            // The levels' bytes are checked after the scale, by `get_run`.
            let dim = get_count(buf, MAX_VEC_LEN, 0, "quantized gradient")?;
            let scale = get_f64(buf, "quantized scale")?;
            // The scale multiplies every reconstructed coordinate; a NaN,
            // infinite, or negative scale would poison the whole aggregate.
            if !scale.is_finite() || scale < 0.0 {
                return Err(ProtoError::InvalidField {
                    field: "quantized scale",
                    reason: format!("scale {scale} is not finite and non-negative"),
                });
            }
            let levels = le::get_run(buf, dim, "quantized levels")?;
            Ok(GradientPayload::Quantized { scale, levels })
        }
        GRADIENT_MASKED => {
            let words = le::get_vec(buf, MAX_VEC_LEN, "masked gradient")?;
            Ok(GradientPayload::Masked { words })
        }
        other => Err(ProtoError::InvalidField {
            field: "gradient encoding",
            reason: format!("unknown encoding {other}"),
        }),
    }
}

fn get_checkin(buf: &mut &[u8]) -> Result<CheckinRequest> {
    let device_id = get_u64(buf, "device_id")?;
    let token = get_token(buf)?;
    let checkout_iteration = get_u64(buf, "checkout_iteration")?;
    let nonce = get_u64(buf, "nonce")?;
    let round_id = get_u64(buf, "round_id")?;
    let num_samples = get_u32(buf, "num_samples")?;
    let error_count = get_i64(buf, "error_count")?;
    let gradient = get_gradient(buf)?;
    let label_counts = le::get_vec(buf, MAX_VEC_LEN, "label_counts")?;
    Ok(CheckinRequest {
        device_id,
        token,
        checkout_iteration,
        nonce,
        round_id,
        gradient,
        num_samples,
        error_count,
        label_counts,
    })
}

fn put_string(buf: &mut Vec<u8>, value: &str) {
    put_u32(buf, value.len() as u32);
    buf.extend_from_slice(value.as_bytes());
}

fn get_token(buf: &mut &[u8]) -> Result<AuthToken> {
    Ok(AuthToken::from_bytes(le::get_array(buf, "auth token")?))
}

fn get_string(buf: &mut &[u8], context: &'static str) -> Result<String> {
    let len = get_count(buf, MAX_VEC_LEN, 1, context)?;
    // Validate in place and copy once, straight from the frame slice — no
    // intermediate Vec<u8>.
    let s = std::str::from_utf8(get_bytes(buf, len, context)?).map_err(|e| {
        ProtoError::InvalidField {
            field: context,
            reason: format!("invalid UTF-8: {e}"),
        }
    })?;
    Ok(s.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::TOKEN_LEN;
    use crate::codec_reference;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::CheckoutRequest(CheckoutRequest {
                version: 1,
                device_id: 42,
                token: AuthToken::derive(42, 7),
            }),
            Message::CheckoutResponse(CheckoutResponse {
                iteration: 1234,
                params: vec![0.5, -1.25, 3.75, f64::MIN_POSITIVE],
                stopped: true,
                round: None,
            }),
            Message::CheckoutResponse(CheckoutResponse {
                iteration: 77,
                params: vec![1.0, 2.0],
                stopped: false,
                round: Some(RoundParams {
                    round_id: 3,
                    seed: 0xDEAD_BEEF,
                    select_fraction: 0.5,
                    deadline_epochs: 12,
                    population: 64,
                }),
            }),
            Message::CheckinRequest(CheckinRequest {
                device_id: 9,
                token: AuthToken::derive(9, 7),
                checkout_iteration: 55,
                nonce: 155,
                round_id: 0,
                gradient: GradientPayload::Dense(vec![1e-9, -2.5, 0.0]),
                num_samples: 20,
                error_count: -3,
                label_counts: vec![5, -1, 0, 16],
            }),
            Message::CheckinRequest(CheckinRequest {
                device_id: 10,
                token: AuthToken::derive(10, 7),
                checkout_iteration: 56,
                nonce: 156,
                round_id: 0,
                gradient: GradientPayload::Sparse {
                    dim: 100,
                    indices: vec![0, 7, 99],
                    values: vec![0.5, -1.25, 1e-12],
                },
                num_samples: 4,
                error_count: 0,
                label_counts: vec![2, 2],
            }),
            Message::CheckinRequest(CheckinRequest {
                device_id: 11,
                token: AuthToken::derive(11, 7),
                checkout_iteration: 57,
                nonce: 157,
                round_id: 0,
                gradient: GradientPayload::Quantized {
                    scale: 3.5e-5,
                    levels: vec![0, -1, 32767, -32768, 12],
                },
                num_samples: 8,
                error_count: 2,
                label_counts: vec![4, 4],
            }),
            Message::CheckinRequest(CheckinRequest {
                device_id: 12,
                token: AuthToken::derive(12, 7),
                checkout_iteration: 58,
                nonce: 158,
                round_id: 3,
                gradient: GradientPayload::Masked {
                    words: vec![0, u64::MAX, 0x0102_0304_0506_0708],
                },
                num_samples: 16,
                error_count: 1,
                label_counts: vec![8, 8],
            }),
            Message::CheckinAck(CheckinAck {
                accepted: true,
                iteration: 56,
                stopped: false,
                deduped: true,
            }),
            Message::Error(ErrorReply {
                code: ErrorCode::Unauthorized,
                detail: "bad token".into(),
                round_id: 0,
            }),
            Message::Error(ErrorReply {
                code: ErrorCode::RoundOutdated,
                detail: "round 3 closed".into(),
                round_id: 4,
            }),
            Message::Busy(BusyReply { retry_after_ms: 25 }),
            Message::MetricsRequest(MetricsRequest {
                version: 4,
                device_id: 3,
                token: AuthToken::derive(3, 7),
            }),
            Message::MetricsReport(MetricsReport {
                counters: vec![("checkins_applied".into(), 64), ("dedup_replays".into(), 2)],
                gauges: vec![("queue_depth".into(), -1), ("conns_active".into(), 7)],
                histograms: vec![HistogramReport {
                    name: "req_checkin_us".into(),
                    count: 64,
                    sum: 1024,
                    max: 200,
                    p50: 15,
                    p90: 31,
                    p99: 255,
                    p999: 255,
                }],
            }),
        ]
    }

    #[test]
    fn round_trip_all_message_types() {
        for msg in sample_messages() {
            let encoded = encode(&msg);
            let decoded = decode(&encoded).unwrap();
            assert_eq!(decoded, msg, "round trip failed for {}", msg.name());
        }
    }

    #[test]
    fn empty_vectors_round_trip() {
        let msg = Message::CheckoutResponse(CheckoutResponse {
            iteration: 0,
            params: vec![],
            stopped: false,
            round: None,
        });
        assert_eq!(decode(&encode(&msg)).unwrap(), msg);
    }

    #[test]
    fn unknown_tag_rejected() {
        // 6 and 7 were the batch checkin pair until wire v8.
        for tag in [0xFFu8, 6, 7] {
            assert!(matches!(
                decode(&[tag]),
                Err(ProtoError::UnknownMessageTag(t)) if t == tag
            ));
        }
        assert!(matches!(decode(&[]), Err(ProtoError::Truncated { .. })));
    }

    #[test]
    fn truncated_buffers_rejected() {
        for msg in sample_messages() {
            let encoded = encode(&msg);
            // Every strict prefix must fail cleanly, never panic.
            for cut in 0..encoded.len() {
                assert!(
                    decode(&encoded[..cut]).is_err(),
                    "prefix of length {cut} of {} unexpectedly decoded",
                    msg.name()
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let msg = Message::CheckinAck(CheckinAck {
            accepted: false,
            iteration: 1,
            stopped: false,
            deduped: false,
        });
        let mut bytes = encode(&msg).to_vec();
        bytes.push(0);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn oversized_vector_length_rejected() {
        // Craft a checkout response that declares a gigantic parameter vector.
        let mut buf = Vec::new();
        put_u8(&mut buf, 2);
        put_u64(&mut buf, 0);
        put_u8(&mut buf, 0);
        put_u32(&mut buf, u32::MAX);
        assert!(matches!(
            decode(&buf),
            Err(ProtoError::InvalidField {
                field: "params",
                ..
            })
        ));
    }

    #[test]
    fn invalid_error_code_rejected() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 5);
        put_u8(&mut buf, 200);
        put_u32(&mut buf, 0);
        assert!(decode(&buf).is_err());
    }

    fn checkin_with(gradient: GradientPayload) -> Message {
        Message::CheckinRequest(CheckinRequest {
            device_id: 1,
            token: AuthToken::derive(1, 7),
            checkout_iteration: 0,
            nonce: 0,
            round_id: 0,
            gradient,
            num_samples: 1,
            error_count: 0,
            label_counts: vec![1],
        })
    }

    /// Satellite guarantee: a 99%-zero gradient is smaller on the wire when
    /// encoded sparsely than densely.
    #[test]
    fn sparse_encoding_of_mostly_zero_gradient_is_smaller_on_the_wire() {
        let dim = 10_000;
        let mut dense = vec![0.0; dim];
        for i in (0..dim).step_by(100) {
            dense[i] = 0.1; // 1% non-zero
        }
        let dense_bytes = encode(&checkin_with(GradientPayload::Dense(dense.clone()))).len();
        let auto = GradientPayload::from_dense_auto(dense);
        assert!(matches!(auto, GradientPayload::Sparse { .. }));
        let sparse_bytes = encode(&checkin_with(auto)).len();
        assert!(
            sparse_bytes * 10 < dense_bytes,
            "sparse {sparse_bytes} B should be far below dense {dense_bytes} B"
        );
    }

    #[test]
    fn malformed_sparse_gradients_rejected() {
        let cases = [
            // Unknown encoding byte is exercised via a corrupted frame below;
            // these are structurally invalid sparse payloads.
            GradientPayload::Sparse {
                dim: 4,
                indices: vec![0, 4],
                values: vec![1.0, 2.0],
            }, // index out of range
            GradientPayload::Sparse {
                dim: 4,
                indices: vec![2, 1],
                values: vec![1.0, 2.0],
            }, // out of order
            GradientPayload::Sparse {
                dim: 4,
                indices: vec![2, 2],
                values: vec![1.0, 2.0],
            }, // duplicate
        ];
        for gradient in cases {
            let bytes = encode(&checkin_with(gradient));
            assert!(decode(&bytes).is_err(), "invalid sparse payload decoded");
        }
        // An unknown gradient-encoding byte is rejected.
        let mut bytes = encode(&checkin_with(GradientPayload::Dense(vec![]))).to_vec();
        // The encoding byte sits right after the fixed checkin header
        // (tag, device_id, token, checkout_iteration, nonce, round_id,
        // num_samples, error_count).
        let offset = 1 + 8 + TOKEN_LEN + 8 + 8 + 8 + 4 + 8;
        assert_eq!(bytes[offset], 0);
        bytes[offset] = 9;
        assert!(decode(&bytes).is_err());
    }

    /// Tentpole guarantee (wire v5): a quantized checkin body is at least 2×
    /// smaller than the dense encoding of the same gradient.
    #[test]
    fn quantized_encoding_is_at_least_twice_as_small_on_the_wire() {
        let dim = 5000;
        let dense_bytes = encode(&checkin_with(GradientPayload::Dense(vec![0.25; dim]))).len();
        let quantized_bytes = encode(&checkin_with(GradientPayload::Quantized {
            scale: 0.25 / 32767.0,
            levels: vec![32767; dim],
        }))
        .len();
        assert!(
            quantized_bytes * 2 < dense_bytes,
            "quantized {quantized_bytes} B should be under half of dense {dense_bytes} B"
        );
    }

    #[test]
    fn malformed_quantized_scale_rejected() {
        for bad_scale in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let bytes = encode(&checkin_with(GradientPayload::Quantized {
                scale: bad_scale,
                levels: vec![1, 2, 3],
            }));
            assert!(
                decode(&bytes).is_err(),
                "scale {bad_scale} unexpectedly decoded"
            );
        }
        // A zero scale (all-zero gradient) is legitimate.
        let bytes = encode(&checkin_with(GradientPayload::Quantized {
            scale: 0.0,
            levels: vec![0, 0],
        }));
        assert!(decode(&bytes).is_ok());
    }

    #[test]
    fn oversized_quantized_dim_rejected() {
        let mut buf = checkin_header();
        put_u8(&mut buf, 2); // quantized encoding
        put_u32(&mut buf, u32::MAX); // dim beyond MAX_VEC_LEN
        assert!(matches!(
            decode(&buf),
            Err(ProtoError::InvalidField {
                field: "quantized gradient",
                ..
            })
        ));
    }

    #[test]
    fn oversized_sparse_nnz_rejected() {
        let mut buf = checkin_header();
        put_u8(&mut buf, 1); // sparse encoding
        put_u32(&mut buf, 8); // dim
        put_u32(&mut buf, 9); // nnz > dim
        assert!(matches!(
            decode(&buf),
            Err(ProtoError::InvalidField {
                field: "gradient nnz",
                ..
            })
        ));
    }

    #[test]
    fn encode_into_reused_buffer_matches_encode() {
        let mut scratch = Vec::new();
        for msg in sample_messages() {
            scratch.clear();
            encode_into(&msg, &mut scratch);
            assert_eq!(&scratch[..], &encode(&msg)[..]);
        }
    }

    #[test]
    fn special_float_values_survive() {
        let msg = Message::CheckoutResponse(CheckoutResponse {
            iteration: 7,
            params: vec![f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 1e300],
            stopped: false,
            round: None,
        });
        let decoded = decode(&encode(&msg)).unwrap();
        if let Message::CheckoutResponse(r) = decoded {
            assert_eq!(r.params[0], f64::INFINITY);
            assert_eq!(r.params[1], f64::NEG_INFINITY);
            assert_eq!(r.params[4], 1e300);
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn checkout_response_tag_matches_the_tag_table() {
        let message = Message::CheckoutResponse(CheckoutResponse {
            iteration: 0,
            params: vec![],
            stopped: false,
            round: None,
        });
        assert_eq!(message.tag(), TAG_CHECKOUT_RESPONSE);
    }

    #[test]
    fn borrowed_checkout_encode_matches_the_owned_message() {
        for msg in sample_messages() {
            let Message::CheckoutResponse(m) = &msg else {
                continue;
            };
            let mut borrowed = Vec::new();
            encode_checkout_response_into(
                &mut borrowed,
                m.iteration,
                m.stopped,
                &m.params,
                m.round.as_ref(),
            );
            assert_eq!(&borrowed[..], &encode(&msg)[..]);
        }
    }

    /// The fixed part of a checkin up to (not including) the gradient
    /// encoding byte.
    fn checkin_header() -> Vec<u8> {
        let mut buf = Vec::new();
        put_u8(&mut buf, 3); // checkin tag
        put_u64(&mut buf, 1);
        buf.extend_from_slice(AuthToken::derive(1, 7).as_bytes());
        put_u64(&mut buf, 0); // checkout_iteration
        put_u64(&mut buf, 0); // nonce
        put_u64(&mut buf, 0); // round_id
        put_u32(&mut buf, 1);
        put_i64(&mut buf, 0);
        buf
    }

    /// A count at the cap is within `MAX_VEC_LEN`, so only the byte-length
    /// check stands between a 20-byte tail and a 128 MiB reservation: every
    /// vector position must answer `Truncated` (which is raised before the
    /// vector is allocated), naming the field.
    #[test]
    fn a_count_at_the_cap_over_a_short_frame_is_truncated_not_allocated() {
        let cap = MAX_VEC_LEN as u32;
        let tail = [0u8; 20];
        let mut cases: Vec<(&'static str, Vec<u8>)> = Vec::new();

        let mut buf = Vec::new();
        put_u8(&mut buf, TAG_CHECKOUT_RESPONSE);
        put_u64(&mut buf, 0);
        put_u8(&mut buf, 0);
        put_u32(&mut buf, cap);
        cases.push(("params", buf));

        let mut buf = checkin_header();
        put_u8(&mut buf, GRADIENT_DENSE);
        put_u32(&mut buf, cap);
        cases.push(("gradient", buf));

        let mut buf = checkin_header();
        put_u8(&mut buf, GRADIENT_SPARSE);
        put_u32(&mut buf, cap); // dim
        put_u32(&mut buf, cap); // nnz
        cases.push(("gradient indices", buf));

        // The values share the indices' count, so by the time they are
        // reached the count is already backed by bytes; the position is
        // covered with the largest count a 20-byte tail cannot back.
        let mut buf = checkin_header();
        put_u8(&mut buf, GRADIENT_SPARSE);
        put_u32(&mut buf, cap); // dim
        put_u32(&mut buf, 2); // nnz
        put_u32(&mut buf, 0);
        put_u32(&mut buf, 1);
        cases.push(("gradient values", buf));

        let mut buf = checkin_header();
        put_u8(&mut buf, GRADIENT_QUANTIZED);
        put_u32(&mut buf, cap);
        put_f64(&mut buf, 1e-3);
        cases.push(("quantized levels", buf));

        let mut buf = checkin_header();
        put_u8(&mut buf, GRADIENT_MASKED);
        put_u32(&mut buf, cap);
        cases.push(("masked gradient", buf));

        let mut buf = checkin_header();
        put_u8(&mut buf, GRADIENT_DENSE);
        put_u32(&mut buf, 0);
        put_u32(&mut buf, cap);
        cases.push(("label_counts", buf));

        for (field, mut buf) in cases {
            if field == "gradient values" {
                buf.extend_from_slice(&tail[..8]);
            } else {
                buf.extend_from_slice(&tail);
            }
            match decode(&buf) {
                Err(ProtoError::Truncated { context }) => assert_eq!(context, field),
                other => panic!("{field}: expected Truncated, got {other:?}"),
            }
        }
    }

    /// A metrics-report list count is checked against the bytes behind it
    /// before it sizes a `Vec`: a 5-byte frame declaring 4096 counters is
    /// refused at the count, not after reserving 4096 entries. The same
    /// holds for the gauge and histogram lists.
    #[test]
    fn a_list_count_over_a_short_frame_is_truncated_not_allocated() {
        let report = |lists_before: usize, field: &'static str| {
            let mut buf = vec![10];
            for _ in 0..lists_before {
                put_u32(&mut buf, 0);
            }
            put_u32(&mut buf, MAX_LIST_LEN as u32);
            (field, buf)
        };
        for (field, buf) in [
            report(0, "metric counters"),
            report(1, "metric gauges"),
            report(2, "metric histograms"),
        ] {
            match decode(&buf) {
                Err(ProtoError::Truncated { context }) => assert_eq!(context, field),
                other => panic!("{field}: expected Truncated, got {other:?}"),
            }
        }
    }

    /// `f64` bit patterns a reinterpreting decoder must carry through
    /// untouched and a converting one would not.
    const F64_BITS: [u64; 10] = [
        0x0000_0000_0000_0000, // +0.0
        0x8000_0000_0000_0000, // -0.0
        0x0000_0000_0000_0001, // smallest subnormal
        0x800F_FFFF_FFFF_FFFF, // largest negative subnormal
        0x7FF8_0000_0000_0000, // canonical quiet NaN
        0x7FF8_0000_DEAD_BEEF, // quiet NaN with a payload
        0xFFF0_0000_0000_0001, // negative signalling NaN
        0x7FF0_0000_0000_0000, // +inf
        0xFFF0_0000_0000_0000, // -inf
        0x3FE0_0000_0000_0000, // 0.5
    ];

    fn arb_f64(rng: &mut StdRng) -> f64 {
        if rng.gen_bool(0.5) {
            f64::from_bits(F64_BITS[rng.gen_range(0..F64_BITS.len())])
        } else {
            f64::from_bits(rng.gen())
        }
    }

    /// Lengths on both sides of the encoder's 256-element block.
    fn arb_len(rng: &mut StdRng) -> usize {
        match rng.gen_range(0..4u32) {
            0 => rng.gen_range(0..4),
            1 => rng.gen_range(250..262),
            _ => rng.gen_range(0..600),
        }
    }

    fn arb_f64_vec(rng: &mut StdRng) -> Vec<f64> {
        (0..arb_len(rng)).map(|_| arb_f64(rng)).collect()
    }

    fn arb_gradient(rng: &mut StdRng) -> GradientPayload {
        match rng.gen_range(0..4u32) {
            0 => GradientPayload::Dense(arb_f64_vec(rng)),
            1 => {
                let dim = rng.gen_range(1..2000u32);
                let mut indices: Vec<u32> = (0..dim).filter(|_| rng.gen_bool(0.2)).collect();
                if rng.gen_bool(0.05) && indices.len() > 1 {
                    indices.swap(0, 1); // out of order: both decoders refuse
                }
                let values = indices.iter().map(|_| arb_f64(rng)).collect();
                GradientPayload::Sparse {
                    dim,
                    indices,
                    values,
                }
            }
            2 => GradientPayload::Quantized {
                // Mostly valid scales; an arbitrary pattern now and then.
                scale: if rng.gen_bool(0.9) {
                    rng.gen::<f64>() * 1e-3
                } else {
                    arb_f64(rng)
                },
                levels: (0..arb_len(rng)).map(|_| rng.gen::<u32>() as i16).collect(),
            },
            _ => GradientPayload::Masked {
                words: (0..arb_len(rng)).map(|_| rng.gen()).collect(),
            },
        }
    }

    fn arb_checkin(rng: &mut StdRng) -> CheckinRequest {
        let device_id = rng.gen();
        CheckinRequest {
            device_id,
            token: AuthToken::derive(device_id, rng.gen()),
            checkout_iteration: rng.gen(),
            nonce: rng.gen(),
            round_id: rng.gen(),
            gradient: arb_gradient(rng),
            num_samples: rng.gen(),
            error_count: rng.gen(),
            label_counts: (0..rng.gen_range(0..300usize)).map(|_| rng.gen()).collect(),
        }
    }

    fn arb_name(rng: &mut StdRng) -> String {
        (0..rng.gen_range(0..12usize))
            .map(|_| char::from(rng.gen_range(b'a'..=b'z')))
            .collect()
    }

    fn arb_message(rng: &mut StdRng) -> Message {
        let device_id = rng.gen();
        let token = AuthToken::derive(device_id, rng.gen());
        // Every live wire tag (6 and 7 retired with batch checkin in v8).
        const TAGS: [u8; 8] = [1, 2, 3, 4, 5, 8, 9, 10];
        match TAGS[rng.gen_range(0..TAGS.len())] {
            1 => Message::CheckoutRequest(CheckoutRequest {
                version: rng.gen::<u32>() as u16,
                device_id,
                token,
            }),
            2 => Message::CheckoutResponse(CheckoutResponse {
                iteration: rng.gen(),
                params: arb_f64_vec(rng),
                stopped: rng.gen(),
                round: rng.gen_bool(0.5).then(|| RoundParams {
                    round_id: rng.gen(),
                    seed: rng.gen(),
                    select_fraction: if rng.gen_bool(0.9) {
                        1.0 - rng.gen::<f64>()
                    } else {
                        arb_f64(rng)
                    },
                    deadline_epochs: rng.gen(),
                    population: rng.gen(),
                }),
            }),
            3 => Message::CheckinRequest(arb_checkin(rng)),
            4 => Message::CheckinAck(CheckinAck {
                accepted: rng.gen(),
                iteration: rng.gen(),
                stopped: rng.gen(),
                deduped: rng.gen(),
            }),
            5 => Message::Error(ErrorReply {
                code: ErrorCode::RoundOutdated,
                detail: arb_name(rng),
                round_id: rng.gen(),
            }),
            8 => Message::Busy(BusyReply {
                retry_after_ms: rng.gen(),
            }),
            9 => Message::MetricsRequest(MetricsRequest {
                version: rng.gen::<u32>() as u16,
                device_id,
                token,
            }),
            _ => Message::MetricsReport(MetricsReport {
                counters: (0..rng.gen_range(0..4usize))
                    .map(|_| (arb_name(rng), rng.gen()))
                    .collect(),
                gauges: (0..rng.gen_range(0..4usize))
                    .map(|_| (arb_name(rng), rng.gen()))
                    .collect(),
                histograms: (0..rng.gen_range(0..3usize))
                    .map(|_| HistogramReport {
                        name: arb_name(rng),
                        count: rng.gen(),
                        sum: rng.gen(),
                        max: rng.gen(),
                        p50: rng.gen(),
                        p90: rng.gen(),
                        p99: rng.gen(),
                        p999: rng.gen(),
                    })
                    .collect(),
            }),
        }
    }

    /// The bulk decoder and the per-element reference agree on `bytes`: the
    /// same value to the bit (re-encoding compares NaN payloads and zero
    /// signs, which `==` on `f64` cannot), or the same error — variant,
    /// field and reason.
    fn assert_decoders_agree(bytes: &[u8]) -> bool {
        let bulk = decode(bytes);
        let reference = codec_reference::decode(bytes);
        match (&bulk, &reference) {
            (Ok(a), Ok(b)) => {
                assert_eq!(format!("{a:?}"), format!("{b:?}"));
                assert_eq!(&encode(a)[..], &encode(b)[..]);
            }
            (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}")),
            _ => panic!("decoders disagree: bulk {bulk:?}, reference {reference:?}"),
        }
        bulk.is_ok()
    }

    #[test]
    fn decoders_agree_on_the_samples_and_all_their_prefixes() {
        for msg in sample_messages() {
            let encoded = encode(&msg);
            assert!(assert_decoders_agree(&encoded));
            for cut in 0..encoded.len() {
                assert!(!assert_decoders_agree(&encoded[..cut]));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Differential contract of the bulk decode: on arbitrary messages
        /// of every variant — and on those bytes flipped, truncated and
        /// extended — `decode` returns exactly what the per-element decoder
        /// returned.
        #[test]
        fn bulk_decode_matches_the_per_element_reference(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let message = arb_message(&mut rng);
            let encoded = encode(&message).to_vec();
            assert_decoders_agree(&encoded);
            // A well-formed message decodes to its own bytes.
            if let Ok(decoded) = decode(&encoded) {
                prop_assert_eq!(&encode(&decoded)[..], &encoded[..]);
            }

            for _ in 0..8 {
                let mut flipped = encoded.clone();
                for _ in 0..rng.gen_range(1..4u32) {
                    // Headers and length prefixes sit up front: aim half of
                    // the flips there.
                    let at = if rng.gen_bool(0.5) {
                        rng.gen_range(0..flipped.len().min(96))
                    } else {
                        rng.gen_range(0..flipped.len())
                    };
                    flipped[at] ^= 1 << rng.gen_range(0..8u32);
                }
                assert_decoders_agree(&flipped);
            }

            for _ in 0..8 {
                let cut = rng.gen_range(0..encoded.len());
                let well_formed = decode(&encoded).is_ok();
                let prefix_ok = assert_decoders_agree(&encoded[..cut]);
                // Every strict prefix of a valid message still fails.
                prop_assert!(!(well_formed && prefix_ok), "prefix {} decoded", cut);
            }

            let mut extended = encoded.clone();
            for _ in 0..rng.gen_range(1..40usize) {
                extended.push(rng.gen::<u32>() as u8);
            }
            assert_decoders_agree(&extended);
        }
    }
}
