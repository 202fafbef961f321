//! The per-element decoder `codec::decode` replaced, frozen as the oracle of
//! the differential tests in `codec::tests`: every vector is read one
//! element at a time, by plain slice reads that share nothing with the bulk
//! reader in `crate::le`. Test-only — nothing outside `#[cfg(test)]` may call
//! it.

use crate::auth::{AuthToken, TOKEN_LEN};
use crate::codec::{COUNTER_MIN, HISTOGRAM_MIN, MAX_LIST_LEN, MAX_VEC_LEN};
use crate::error::ProtoError;
use crate::message::{
    BusyReply, CheckinAck, CheckinRequest, CheckoutRequest, CheckoutResponse, ErrorCode,
    ErrorReply, GradientPayload, HistogramReport, Message, MetricsReport, MetricsRequest,
    RoundParams,
};
use crate::Result;

const GRADIENT_DENSE: u8 = 0;
const GRADIENT_SPARSE: u8 = 1;
const GRADIENT_QUANTIZED: u8 = 2;
const GRADIENT_MASKED: u8 = 3;

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
        2 => {
            let iteration = get_u64(&mut buf, "iteration")?;
            let stopped = get_bool(&mut buf, "stopped")?;
            let params = get_f64_vec(&mut buf, "params")?;
            let round = match get_u8(&mut buf, "round presence")? {
                0 => None,
                1 => {
                    let round_id = get_u64(&mut buf, "round_id")?;
                    let seed = get_u64(&mut buf, "round seed")?;
                    ensure(buf, 8, "select_fraction")?;
                    let select_fraction = f64::from_le_bytes(next(&mut buf));
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
            let count = get_list_len(&mut buf, COUNTER_MIN, "metric counters")?;
            let mut counters = Vec::with_capacity(count);
            for _ in 0..count {
                let name = get_string(&mut buf, "counter name")?;
                let value = get_u64(&mut buf, "counter value")?;
                counters.push((name, value));
            }
            let count = get_list_len(&mut buf, COUNTER_MIN, "metric gauges")?;
            let mut gauges = Vec::with_capacity(count);
            for _ in 0..count {
                let name = get_string(&mut buf, "gauge name")?;
                let value = get_i64(&mut buf, "gauge value")?;
                gauges.push((name, value));
            }
            let count = get_list_len(&mut buf, HISTOGRAM_MIN, "metric histograms")?;
            let mut histograms = Vec::with_capacity(count);
            for _ in 0..count {
                let name = get_string(&mut buf, "histogram name")?;
                ensure(buf, 7 * 8, "histogram stats")?;
                histograms.push(HistogramReport {
                    name,
                    count: u64::from_le_bytes(next(&mut buf)),
                    sum: u64::from_le_bytes(next(&mut buf)),
                    max: u64::from_le_bytes(next(&mut buf)),
                    p50: u64::from_le_bytes(next(&mut buf)),
                    p90: u64::from_le_bytes(next(&mut buf)),
                    p99: u64::from_le_bytes(next(&mut buf)),
                    p999: u64::from_le_bytes(next(&mut buf)),
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
            ensure(buf, nnz * 4, "gradient indices")?;
            let mut indices = Vec::with_capacity(nnz);
            let mut prev: Option<u32> = None;
            for _ in 0..nnz {
                let i = u32::from_le_bytes(next(buf));
                if i as usize >= dim || prev.is_some_and(|p| i <= p) {
                    return Err(ProtoError::InvalidField {
                        field: "gradient indices",
                        reason: format!("index {i} out of order or out of range for {dim}"),
                    });
                }
                prev = Some(i);
                indices.push(i);
            }
            ensure(buf, nnz * 8, "gradient values")?;
            let values = (0..nnz).map(|_| f64::from_le_bytes(next(buf))).collect();
            Ok(GradientPayload::Sparse {
                dim: dim as u32,
                indices,
                values,
            })
        }
        GRADIENT_QUANTIZED => {
            let dim = get_vec_len(buf, "quantized gradient")?;
            ensure(buf, 8, "quantized scale")?;
            let scale = f64::from_le_bytes(next(buf));
            // The scale multiplies every reconstructed coordinate; a NaN,
            // infinite, or negative scale would poison the whole aggregate.
            if !scale.is_finite() || scale < 0.0 {
                return Err(ProtoError::InvalidField {
                    field: "quantized scale",
                    reason: format!("scale {scale} is not finite and non-negative"),
                });
            }
            ensure(buf, dim * 2, "quantized levels")?;
            let levels = (0..dim).map(|_| i16::from_le_bytes(next(buf))).collect();
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

/// A list count: at most [`MAX_LIST_LEN`] entries, each at least
/// `min_width` bytes, so the bytes behind the count must be there before
/// anything is sized by it.
fn get_list_len(buf: &mut &[u8], min_width: usize, context: &'static str) -> Result<usize> {
    let len = get_u32(buf, context)? as usize;
    if len > MAX_LIST_LEN {
        return Err(ProtoError::InvalidField {
            field: context,
            reason: format!("declared length {len} exceeds maximum {MAX_LIST_LEN}"),
        });
    }
    ensure(buf, len * min_width, context)?;
    Ok(len)
}

fn ensure(buf: &[u8], needed: usize, context: &'static str) -> Result<()> {
    if buf.len() < needed {
        Err(ProtoError::Truncated { context })
    } else {
        Ok(())
    }
}

/// Splits the next `N` bytes off the cursor; the caller has `ensure`d them.
fn next<const N: usize>(buf: &mut &[u8]) -> [u8; N] {
    let (head, rest) = buf
        .split_first_chunk()
        .expect("the caller ensured the bytes");
    *buf = rest;
    *head
}

fn get_u8(buf: &mut &[u8], context: &'static str) -> Result<u8> {
    ensure(buf, 1, context)?;
    Ok(u8::from_le_bytes(next(buf)))
}

fn get_u16(buf: &mut &[u8], context: &'static str) -> Result<u16> {
    ensure(buf, 2, context)?;
    Ok(u16::from_le_bytes(next(buf)))
}

fn get_u32(buf: &mut &[u8], context: &'static str) -> Result<u32> {
    ensure(buf, 4, context)?;
    Ok(u32::from_le_bytes(next(buf)))
}

fn get_u64(buf: &mut &[u8], context: &'static str) -> Result<u64> {
    ensure(buf, 8, context)?;
    Ok(u64::from_le_bytes(next(buf)))
}

fn get_i64(buf: &mut &[u8], context: &'static str) -> Result<i64> {
    ensure(buf, 8, context)?;
    Ok(i64::from_le_bytes(next(buf)))
}

fn get_bool(buf: &mut &[u8], context: &'static str) -> Result<bool> {
    Ok(get_u8(buf, context)? != 0)
}

fn get_token(buf: &mut &[u8]) -> Result<AuthToken> {
    ensure(buf, TOKEN_LEN, "auth token")?;
    Ok(AuthToken::from_bytes(next(buf)))
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

fn get_f64_vec(buf: &mut &[u8], context: &'static str) -> Result<Vec<f64>> {
    let len = get_vec_len(buf, context)?;
    ensure(buf, len * 8, context)?;
    Ok((0..len).map(|_| f64::from_le_bytes(next(buf))).collect())
}

fn get_i64_vec(buf: &mut &[u8], context: &'static str) -> Result<Vec<i64>> {
    let len = get_vec_len(buf, context)?;
    ensure(buf, len * 8, context)?;
    Ok((0..len).map(|_| i64::from_le_bytes(next(buf))).collect())
}

fn get_u64_vec(buf: &mut &[u8], context: &'static str) -> Result<Vec<u64>> {
    let len = get_vec_len(buf, context)?;
    ensure(buf, len * 8, context)?;
    Ok((0..len).map(|_| u64::from_le_bytes(next(buf))).collect())
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
    *buf = &buf[len..];
    Ok(owned)
}
