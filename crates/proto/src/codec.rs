//! Deterministic binary encoding/decoding of protocol messages.
//!
//! Layout conventions: all integers little-endian; `f64` as IEEE-754 bit patterns;
//! vectors prefixed by a `u32` element count; strings UTF-8 with a `u32` byte
//! length; booleans a single byte. The message itself is `[tag: u8][body]`; the
//! framing layer (`crate::frame`) adds the outer length prefix.
//!
//! Both directions touch a numeric vector's bytes once. Encode reserves once
//! and appends in blocks (`BufMut::put_*_slice_le`). Decode reads the element
//! count, checks `count × width` against what is left of the frame — so no
//! length prefix, however large, allocates before the bytes are known to be
//! there — splits that run off the cursor and converts it in one pass into an
//! exactly sized `Vec`. That `Vec` is the only allocation a decoded vector
//! costs. The per-element decoder this replaced survives as the test oracle
//! in `codec_reference`.

use crate::auth::{AuthToken, TOKEN_LEN};
use crate::error::ProtoError;
use crate::message::{
    BusyReply, CheckinAck, CheckinRequest, CheckoutRequest, CheckoutResponse, ErrorCode,
    ErrorReply, GradientPayload, HistogramReport, Message, MetricsReport, MetricsRequest,
    RoundParams,
};
use crate::Result;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Maximum number of elements accepted in any decoded vector (gradients, label
/// counts). Prevents a malicious length prefix from triggering a huge allocation.
pub const MAX_VEC_LEN: usize = 16 * 1024 * 1024;

/// Maximum number of entries accepted in one list of a metrics report. The
/// cap keeps a forged length prefix from sizing a huge allocation.
pub(crate) const MAX_LIST_LEN: usize = 4096;

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
pub fn encode(message: &Message) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    encode_into(message, &mut buf);
    buf.freeze()
}

/// Encodes a message into a caller-provided buffer (without the frame length
/// prefix), appending to whatever it already holds. Reusing one buffer across
/// messages keeps the steady-state encode path allocation-free.
pub fn encode_into<B: BufMut>(message: &Message, buf: &mut B) {
    buf.put_u8(message.tag());
    match message {
        Message::CheckoutRequest(m) => {
            buf.put_u16_le(m.version);
            buf.put_u64_le(m.device_id);
            buf.put_slice(m.token.as_bytes());
        }
        Message::CheckoutResponse(m) => {
            put_checkout_response_body(buf, m.iteration, m.stopped, &m.params, m.round.as_ref());
        }
        Message::CheckinRequest(m) => {
            put_checkin(buf, m);
        }
        Message::CheckinAck(m) => {
            put_bool(buf, m.accepted);
            buf.put_u64_le(m.iteration);
            put_bool(buf, m.stopped);
            put_bool(buf, m.deduped);
        }
        Message::Error(m) => {
            buf.put_u8(m.code.as_u8());
            put_string(buf, &m.detail);
            buf.put_u64_le(m.round_id);
        }
        Message::Busy(m) => {
            buf.put_u32_le(m.retry_after_ms);
        }
        Message::MetricsRequest(m) => {
            buf.put_u16_le(m.version);
            buf.put_u64_le(m.device_id);
            buf.put_slice(m.token.as_bytes());
        }
        Message::MetricsReport(m) => {
            buf.put_u32_le(m.counters.len() as u32);
            for (name, value) in &m.counters {
                put_string(buf, name);
                buf.put_u64_le(*value);
            }
            buf.put_u32_le(m.gauges.len() as u32);
            for (name, value) in &m.gauges {
                put_string(buf, name);
                buf.put_i64_le(*value);
            }
            buf.put_u32_le(m.histograms.len() as u32);
            for h in &m.histograms {
                put_string(buf, &h.name);
                buf.put_u64_le(h.count);
                buf.put_u64_le(h.sum);
                buf.put_u64_le(h.max);
                buf.put_u64_le(h.p50);
                buf.put_u64_le(h.p90);
                buf.put_u64_le(h.p99);
                buf.put_u64_le(h.p999);
            }
        }
    }
}

/// Encodes a [`Message::CheckoutResponse`] (tag and body, like
/// [`encode_into`]) from borrowed parts, so a server can encode a reply
/// straight out of its parameter snapshot without first copying the
/// parameters into a [`CheckoutResponse`].
pub(crate) fn encode_checkout_response_into<B: BufMut>(
    buf: &mut B,
    iteration: u64,
    stopped: bool,
    params: &[f64],
    round: Option<&RoundParams>,
) {
    buf.put_u8(TAG_CHECKOUT_RESPONSE);
    put_checkout_response_body(buf, iteration, stopped, params, round);
}

/// The one definition of the `CheckoutResponse` body layout.
fn put_checkout_response_body<B: BufMut>(
    buf: &mut B,
    iteration: u64,
    stopped: bool,
    params: &[f64],
    round: Option<&RoundParams>,
) {
    buf.put_u64_le(iteration);
    put_bool(buf, stopped);
    put_f64_vec(buf, params);
    match round {
        None => buf.put_u8(0),
        Some(r) => {
            buf.put_u8(1);
            buf.put_u64_le(r.round_id);
            buf.put_u64_le(r.seed);
            buf.put_f64_le(r.select_fraction);
            buf.put_u32_le(r.deadline_epochs);
            buf.put_u64_le(r.population);
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
            let stopped = get_bool(&mut buf, "stopped")?;
            let params = get_f64_vec(&mut buf, "params")?;
            let round = match get_u8(&mut buf, "round presence")? {
                0 => None,
                1 => {
                    let round_id = get_u64(&mut buf, "round_id")?;
                    let seed = get_u64(&mut buf, "round seed")?;
                    ensure(buf, 8, "select_fraction")?;
                    let select_fraction = buf.get_f64_le();
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
            let accepted = get_bool(&mut buf, "accepted")?;
            let iteration = get_u64(&mut buf, "iteration")?;
            let stopped = get_bool(&mut buf, "stopped")?;
            let deduped = get_bool(&mut buf, "deduped")?;
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
            let count = get_list_len(&mut buf, "metric counters")?;
            let mut counters = Vec::with_capacity(count);
            for _ in 0..count {
                let name = get_string(&mut buf, "counter name")?;
                let value = get_u64(&mut buf, "counter value")?;
                counters.push((name, value));
            }
            let count = get_list_len(&mut buf, "metric gauges")?;
            let mut gauges = Vec::with_capacity(count);
            for _ in 0..count {
                let name = get_string(&mut buf, "gauge name")?;
                let value = get_i64(&mut buf, "gauge value")?;
                gauges.push((name, value));
            }
            let count = get_list_len(&mut buf, "metric histograms")?;
            let mut histograms = Vec::with_capacity(count);
            for _ in 0..count {
                let name = get_string(&mut buf, "histogram name")?;
                ensure(buf, 7 * 8, "histogram stats")?;
                histograms.push(HistogramReport {
                    name,
                    count: buf.get_u64_le(),
                    sum: buf.get_u64_le(),
                    max: buf.get_u64_le(),
                    p50: buf.get_u64_le(),
                    p90: buf.get_u64_le(),
                    p99: buf.get_u64_le(),
                    p999: buf.get_u64_le(),
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

fn put_checkin<B: BufMut>(buf: &mut B, m: &CheckinRequest) {
    buf.put_u64_le(m.device_id);
    buf.put_slice(m.token.as_bytes());
    buf.put_u64_le(m.checkout_iteration);
    buf.put_u64_le(m.nonce);
    buf.put_u64_le(m.round_id);
    buf.put_u32_le(m.num_samples);
    buf.put_i64_le(m.error_count);
    put_gradient(buf, &m.gradient);
    put_i64_vec(buf, &m.label_counts);
}

fn put_gradient<B: BufMut>(buf: &mut B, gradient: &GradientPayload) {
    match gradient {
        GradientPayload::Dense(values) => {
            buf.put_u8(GRADIENT_DENSE);
            put_f64_vec(buf, values);
        }
        GradientPayload::Sparse {
            dim,
            indices,
            values,
        } => {
            buf.put_u8(GRADIENT_SPARSE);
            buf.put_u32_le(*dim);
            buf.put_u32_le(indices.len() as u32);
            buf.put_u32_slice_le(indices);
            buf.put_f64_slice_le(values);
        }
        GradientPayload::Quantized { scale, levels } => {
            buf.put_u8(GRADIENT_QUANTIZED);
            buf.put_u32_le(levels.len() as u32);
            buf.put_f64_le(*scale);
            buf.put_i16_slice_le(levels);
        }
        GradientPayload::Masked { words } => {
            buf.put_u8(GRADIENT_MASKED);
            buf.put_u32_le(words.len() as u32);
            buf.put_u64_slice_le(words);
        }
    }
}

fn get_gradient(buf: &mut &[u8]) -> Result<GradientPayload> {
    match get_u8(buf, "gradient encoding")? {
        GRADIENT_DENSE => Ok(GradientPayload::Dense(get_f64_vec(buf, "gradient")?)),
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
            let raw_indices = take_le::<4>(buf, nnz, "gradient indices")?;
            let mut indices = Vec::with_capacity(nnz);
            let mut prev: Option<u32> = None;
            for raw in raw_indices {
                let i = u32::from_le_bytes(*raw);
                if i as usize >= dim || prev.is_some_and(|p| i <= p) {
                    return Err(ProtoError::InvalidField {
                        field: "gradient indices",
                        reason: format!("index {i} out of order or out of range for {dim}"),
                    });
                }
                prev = Some(i);
                indices.push(i);
            }
            let values = le_vec(take_le(buf, nnz, "gradient values")?, f64::from_le_bytes);
            Ok(GradientPayload::Sparse {
                dim: dim as u32,
                indices,
                values,
            })
        }
        GRADIENT_QUANTIZED => {
            let dim = get_vec_len(buf, "quantized gradient")?;
            ensure(buf, 8, "quantized scale")?;
            let scale = buf.get_f64_le();
            // The scale multiplies every reconstructed coordinate; a NaN,
            // infinite, or negative scale would poison the whole aggregate.
            if !scale.is_finite() || scale < 0.0 {
                return Err(ProtoError::InvalidField {
                    field: "quantized scale",
                    reason: format!("scale {scale} is not finite and non-negative"),
                });
            }
            let levels = le_vec(take_le(buf, dim, "quantized levels")?, i16::from_le_bytes);
            Ok(GradientPayload::Quantized { scale, levels })
        }
        GRADIENT_MASKED => {
            let words = get_u64_vec(buf, "masked gradient")?;
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
    let label_counts = get_i64_vec(buf, "label_counts")?;
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

fn get_list_len(buf: &mut &[u8], context: &'static str) -> Result<usize> {
    let len = get_u32(buf, context)? as usize;
    if len > MAX_LIST_LEN {
        return Err(ProtoError::InvalidField {
            field: context,
            reason: format!("declared list length {len} exceeds maximum {MAX_LIST_LEN}"),
        });
    }
    Ok(len)
}

fn put_bool<B: BufMut>(buf: &mut B, value: bool) {
    buf.put_u8(u8::from(value));
}

fn put_f64_vec<B: BufMut>(buf: &mut B, values: &[f64]) {
    buf.put_u32_le(values.len() as u32);
    buf.put_f64_slice_le(values);
}

fn put_i64_vec<B: BufMut>(buf: &mut B, values: &[i64]) {
    buf.put_u32_le(values.len() as u32);
    buf.put_i64_slice_le(values);
}

fn put_string<B: BufMut>(buf: &mut B, value: &str) {
    buf.put_u32_le(value.len() as u32);
    buf.put_slice(value.as_bytes());
}

fn ensure(buf: &[u8], needed: usize, context: &'static str) -> Result<()> {
    if buf.remaining() < needed {
        Err(ProtoError::Truncated { context })
    } else {
        Ok(())
    }
}

fn get_u8(buf: &mut &[u8], context: &'static str) -> Result<u8> {
    ensure(buf, 1, context)?;
    Ok(buf.get_u8())
}

fn get_u16(buf: &mut &[u8], context: &'static str) -> Result<u16> {
    ensure(buf, 2, context)?;
    Ok(buf.get_u16_le())
}

fn get_u32(buf: &mut &[u8], context: &'static str) -> Result<u32> {
    ensure(buf, 4, context)?;
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut &[u8], context: &'static str) -> Result<u64> {
    ensure(buf, 8, context)?;
    Ok(buf.get_u64_le())
}

fn get_i64(buf: &mut &[u8], context: &'static str) -> Result<i64> {
    ensure(buf, 8, context)?;
    Ok(buf.get_i64_le())
}

fn get_bool(buf: &mut &[u8], context: &'static str) -> Result<bool> {
    Ok(get_u8(buf, context)? != 0)
}

fn get_token(buf: &mut &[u8]) -> Result<AuthToken> {
    ensure(buf, TOKEN_LEN, "auth token")?;
    let mut raw = [0u8; TOKEN_LEN];
    buf.copy_to_slice(&mut raw);
    Ok(AuthToken::from_bytes(raw))
}

fn get_vec_len(buf: &mut &[u8], context: &'static str) -> Result<usize> {
    let len = get_u32(buf, context)? as usize;
    if len > MAX_VEC_LEN {
        return Err(ProtoError::InvalidField {
            field: context,
            reason: format!("declared length {len} exceeds maximum {MAX_VEC_LEN}"),
        });
    }
    Ok(len)
}

/// Splits `count` little-endian values of `N` bytes each off the cursor after
/// one bounds check. `count` comes from [`get_vec_len`] (or is bounded by a
/// value that does), so `count * N` cannot overflow.
fn take_le<'a, const N: usize>(
    buf: &mut &'a [u8],
    count: usize,
    context: &'static str,
) -> Result<&'a [[u8; N]]> {
    ensure(buf, count * N, context)?;
    let (run, rest) = buf.split_at(count * N);
    *buf = rest;
    Ok(run.as_chunks().0)
}

/// Converts a run of little-endian values in one pass into an exactly sized
/// `Vec` — bit patterns preserved (`from_le_bytes` is a reinterpretation, so
/// NaN payloads and signed zeros survive).
fn le_vec<T, const N: usize>(run: &[[u8; N]], from_le_bytes: impl Fn([u8; N]) -> T) -> Vec<T> {
    run.iter().map(|raw| from_le_bytes(*raw)).collect()
}

fn get_f64_vec(buf: &mut &[u8], context: &'static str) -> Result<Vec<f64>> {
    let len = get_vec_len(buf, context)?;
    Ok(le_vec(take_le(buf, len, context)?, f64::from_le_bytes))
}

fn get_i64_vec(buf: &mut &[u8], context: &'static str) -> Result<Vec<i64>> {
    let len = get_vec_len(buf, context)?;
    Ok(le_vec(take_le(buf, len, context)?, i64::from_le_bytes))
}

fn get_u64_vec(buf: &mut &[u8], context: &'static str) -> Result<Vec<u64>> {
    let len = get_vec_len(buf, context)?;
    Ok(le_vec(take_le(buf, len, context)?, u64::from_le_bytes))
}

fn get_string(buf: &mut &[u8], context: &'static str) -> Result<String> {
    let len = get_vec_len(buf, context)?;
    ensure(buf, len, context)?;
    // Validate in place and copy once, straight from the frame slice — no
    // intermediate Vec<u8>.
    let s = std::str::from_utf8(&buf[..len]).map_err(|e| ProtoError::InvalidField {
        field: context,
        reason: format!("invalid UTF-8: {e}"),
    })?;
    let owned = s.to_owned();
    buf.advance(len);
    Ok(owned)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut buf = BytesMut::new();
        buf.put_u8(2);
        buf.put_u64_le(0);
        buf.put_u8(0);
        buf.put_u32_le(u32::MAX);
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
        let mut buf = BytesMut::new();
        buf.put_u8(5);
        buf.put_u8(200);
        buf.put_u32_le(0);
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
        buf.put_u8(2); // quantized encoding
        buf.put_u32_le(u32::MAX); // dim beyond MAX_VEC_LEN
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
        buf.put_u8(1); // sparse encoding
        buf.put_u32_le(8); // dim
        buf.put_u32_le(9); // nnz > dim
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
    fn checkin_header() -> BytesMut {
        let mut buf = BytesMut::new();
        buf.put_u8(3); // checkin tag
        buf.put_u64_le(1);
        buf.put_slice(AuthToken::derive(1, 7).as_bytes());
        buf.put_u64_le(0); // checkout_iteration
        buf.put_u64_le(0); // nonce
        buf.put_u64_le(0); // round_id
        buf.put_u32_le(1);
        buf.put_i64_le(0);
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
        let mut cases: Vec<(&'static str, BytesMut)> = Vec::new();

        let mut buf = BytesMut::new();
        buf.put_u8(TAG_CHECKOUT_RESPONSE);
        buf.put_u64_le(0);
        buf.put_u8(0);
        buf.put_u32_le(cap);
        cases.push(("params", buf));

        let mut buf = checkin_header();
        buf.put_u8(GRADIENT_DENSE);
        buf.put_u32_le(cap);
        cases.push(("gradient", buf));

        let mut buf = checkin_header();
        buf.put_u8(GRADIENT_SPARSE);
        buf.put_u32_le(cap); // dim
        buf.put_u32_le(cap); // nnz
        cases.push(("gradient indices", buf));

        // The values share the indices' count, so by the time they are
        // reached the count is already backed by bytes; the position is
        // covered with the largest count a 20-byte tail cannot back.
        let mut buf = checkin_header();
        buf.put_u8(GRADIENT_SPARSE);
        buf.put_u32_le(cap); // dim
        buf.put_u32_le(2); // nnz
        buf.put_u32_le(0);
        buf.put_u32_le(1);
        cases.push(("gradient values", buf));

        let mut buf = checkin_header();
        buf.put_u8(GRADIENT_QUANTIZED);
        buf.put_u32_le(cap);
        buf.put_f64_le(1e-3);
        cases.push(("quantized levels", buf));

        let mut buf = checkin_header();
        buf.put_u8(GRADIENT_MASKED);
        buf.put_u32_le(cap);
        cases.push(("masked gradient", buf));

        let mut buf = checkin_header();
        buf.put_u8(GRADIENT_DENSE);
        buf.put_u32_le(0);
        buf.put_u32_le(cap);
        cases.push(("label_counts", buf));

        for (field, mut buf) in cases {
            if field == "gradient values" {
                buf.put_slice(&tail[..8]);
            } else {
                buf.put_slice(&tail);
            }
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
