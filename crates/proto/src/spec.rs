//! The wire decoder stated plainly: every field and every vector element is
//! read on its own, by slice reads that share nothing with the bulk reader
//! in [`crate::le`]. [`decode`] returns bit for bit what
//! [`crate::codec::decode`] returns, errors included. Only tests, and other
//! crates' `spec` functions, call it.

use crate::auth::{AuthToken, TOKEN_LEN};
use crate::codec::{COUNTER_MIN, HISTOGRAM_MIN, MAX_LIST_LEN, MAX_VEC_LEN};
use crate::error::ProtoError;
use crate::message::{
    BusyReply, CheckinAck, CheckinRequest, CheckoutRequest, CheckoutResponse, ErrorCode,
    ErrorReply, GradientPayload, HistogramReport, Message, MetricsReport, MetricsRequest,
    RoundParams,
};
use crate::Result;

/// Decodes a message from a byte buffer produced by
/// [`crate::codec::encode`], one element at a time.
pub fn decode(bytes: &[u8]) -> Result<Message> {
    let mut r = Reader(bytes);
    let message = match r.u8("message tag")? {
        1 => Message::CheckoutRequest(CheckoutRequest {
            version: r.u16("version")?,
            device_id: r.u64("device_id")?,
            token: r.token()?,
        }),
        2 => Message::CheckoutResponse(CheckoutResponse {
            iteration: r.u64("iteration")?,
            stopped: r.bool("stopped")?,
            params: r.vec("params", f64::from_le_bytes)?,
            round: r.round()?,
        }),
        3 => Message::CheckinRequest(CheckinRequest {
            device_id: r.u64("device_id")?,
            token: r.token()?,
            checkout_iteration: r.u64("checkout_iteration")?,
            nonce: r.u64("nonce")?,
            round_id: r.u64("round_id")?,
            num_samples: r.u32("num_samples")?,
            error_count: r.i64("error_count")?,
            gradient: r.gradient()?,
            label_counts: r.vec("label_counts", i64::from_le_bytes)?,
        }),
        4 => Message::CheckinAck(CheckinAck {
            accepted: r.bool("accepted")?,
            iteration: r.u64("iteration")?,
            stopped: r.bool("stopped")?,
            deduped: r.bool("deduped")?,
        }),
        5 => {
            let raw = r.u8("error code")?;
            let code = ErrorCode::from_u8(raw)
                .ok_or_else(|| invalid("error_code", format!("unknown code {raw}")))?;
            Message::Error(ErrorReply {
                code,
                detail: r.string("detail")?,
                round_id: r.u64("error round_id")?,
            })
        }
        8 => Message::Busy(BusyReply {
            retry_after_ms: r.u32("retry_after_ms")?,
        }),
        9 => Message::MetricsRequest(MetricsRequest {
            version: r.u16("version")?,
            device_id: r.u64("device_id")?,
            token: r.token()?,
        }),
        10 => {
            let mut counters = Vec::new();
            for _ in 0..r.list("metric counters", COUNTER_MIN)? {
                counters.push((r.string("counter name")?, r.u64("counter value")?));
            }
            let mut gauges = Vec::new();
            for _ in 0..r.list("metric gauges", COUNTER_MIN)? {
                gauges.push((r.string("gauge name")?, r.i64("gauge value")?));
            }
            let mut histograms = Vec::new();
            for _ in 0..r.list("metric histograms", HISTOGRAM_MIN)? {
                let name = r.string("histogram name")?;
                let stats = r.elems(7, "histogram stats", u64::from_le_bytes)?;
                let [count, sum, max, p50, p90, p99, p999] = stats[..] else {
                    unreachable!("seven stats were read")
                };
                histograms.push(HistogramReport {
                    name,
                    count,
                    sum,
                    max,
                    p50,
                    p90,
                    p99,
                    p999,
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
    if !r.0.is_empty() {
        let reason = format!("{} trailing bytes after decoding", r.0.len());
        return Err(invalid("message", reason));
    }
    Ok(message)
}

fn invalid(field: &'static str, reason: String) -> ProtoError {
    ProtoError::InvalidField { field, reason }
}

/// The bytes not read yet.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    /// The next `N` bytes.
    fn take<const N: usize>(&mut self, context: &'static str) -> Result<[u8; N]> {
        let (head, rest) = self
            .0
            .split_first_chunk()
            .ok_or(ProtoError::Truncated { context })?;
        self.0 = rest;
        Ok(*head)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8> {
        self.take(context).map(u8::from_le_bytes)
    }

    fn u16(&mut self, context: &'static str) -> Result<u16> {
        self.take(context).map(u16::from_le_bytes)
    }

    fn u32(&mut self, context: &'static str) -> Result<u32> {
        self.take(context).map(u32::from_le_bytes)
    }

    fn u64(&mut self, context: &'static str) -> Result<u64> {
        self.take(context).map(u64::from_le_bytes)
    }

    fn i64(&mut self, context: &'static str) -> Result<i64> {
        self.take(context).map(i64::from_le_bytes)
    }

    fn f64(&mut self, context: &'static str) -> Result<f64> {
        self.take(context).map(f64::from_le_bytes)
    }

    fn bool(&mut self, context: &'static str) -> Result<bool> {
        Ok(self.u8(context)? != 0)
    }

    fn token(&mut self) -> Result<AuthToken> {
        self.take::<TOKEN_LEN>("auth token")
            .map(AuthToken::from_bytes)
    }

    /// A `u32` count of at most `max`.
    fn count(&mut self, context: &'static str, max: usize) -> Result<usize> {
        let len = self.u32(context)? as usize;
        if len > max {
            let reason = format!("declared length {len} exceeds maximum {max}");
            return Err(invalid(context, reason));
        }
        Ok(len)
    }

    /// A list count: at most [`MAX_LIST_LEN`] entries of at least
    /// `min_width` bytes each, all of which must be there.
    fn list(&mut self, context: &'static str, min_width: usize) -> Result<usize> {
        let len = self.count(context, MAX_LIST_LEN)?;
        self.ensure(len * min_width, context)?;
        Ok(len)
    }

    fn ensure(&self, needed: usize, context: &'static str) -> Result<()> {
        if self.0.len() < needed {
            return Err(ProtoError::Truncated { context });
        }
        Ok(())
    }

    /// `len` elements of `N` bytes each, all of which must be there before
    /// the first is read.
    fn elems<const N: usize, T>(
        &mut self,
        len: usize,
        context: &'static str,
        from: fn([u8; N]) -> T,
    ) -> Result<Vec<T>> {
        self.ensure(len * N, context)?;
        (0..len).map(|_| self.take(context).map(from)).collect()
    }

    /// A counted vector of at most [`MAX_VEC_LEN`] elements.
    fn vec<const N: usize, T>(
        &mut self,
        context: &'static str,
        from: fn([u8; N]) -> T,
    ) -> Result<Vec<T>> {
        let len = self.count(context, MAX_VEC_LEN)?;
        self.elems(len, context, from)
    }

    fn string(&mut self, context: &'static str) -> Result<String> {
        let bytes = self.vec(context, u8::from_le_bytes)?;
        String::from_utf8(bytes)
            .map_err(|e| invalid(context, format!("invalid UTF-8: {}", e.utf8_error())))
    }

    fn round(&mut self) -> Result<Option<RoundParams>> {
        match self.u8("round presence")? {
            0 => Ok(None),
            1 => {
                let round_id = self.u64("round_id")?;
                let seed = self.u64("round seed")?;
                let select_fraction = self.f64("select_fraction")?;
                if !(select_fraction.is_finite() && select_fraction > 0.0 && select_fraction <= 1.0)
                {
                    let reason = format!("{select_fraction} outside (0, 1]");
                    return Err(invalid("select_fraction", reason));
                }
                Ok(Some(RoundParams {
                    round_id,
                    seed,
                    select_fraction,
                    deadline_epochs: self.u32("deadline_epochs")?,
                    population: self.u64("round population")?,
                }))
            }
            other => Err(invalid(
                "round presence",
                format!("expected 0 or 1, got {other}"),
            )),
        }
    }

    /// A gradient: encoding 0 is dense, 1 sparse, 2 quantized, 3 masked.
    fn gradient(&mut self) -> Result<GradientPayload> {
        match self.u8("gradient encoding")? {
            0 => Ok(GradientPayload::Dense(
                self.vec("gradient", f64::from_le_bytes)?,
            )),
            1 => {
                let dim = self.u32("gradient dim")? as usize;
                if dim > MAX_VEC_LEN {
                    let reason = format!("declared dimension {dim} exceeds maximum {MAX_VEC_LEN}");
                    return Err(invalid("gradient dim", reason));
                }
                let nnz = self.u32("gradient nnz")? as usize;
                if nnz > dim {
                    let reason = format!("{nnz} stored coordinates exceed dimension {dim}");
                    return Err(invalid("gradient nnz", reason));
                }
                let indices = self.elems(nnz, "gradient indices", u32::from_le_bytes)?;
                for (k, &i) in indices.iter().enumerate() {
                    if i as usize >= dim || (k > 0 && i <= indices[k - 1]) {
                        let reason = format!("index {i} out of order or out of range for {dim}");
                        return Err(invalid("gradient indices", reason));
                    }
                }
                Ok(GradientPayload::Sparse {
                    dim: dim as u32,
                    indices,
                    values: self.elems(nnz, "gradient values", f64::from_le_bytes)?,
                })
            }
            2 => {
                let dim = self.count("quantized gradient", MAX_VEC_LEN)?;
                let scale = self.f64("quantized scale")?;
                // The scale multiplies every reconstructed coordinate; a NaN,
                // infinite, or negative scale would poison the whole aggregate.
                if !scale.is_finite() || scale < 0.0 {
                    let reason = format!("scale {scale} is not finite and non-negative");
                    return Err(invalid("quantized scale", reason));
                }
                Ok(GradientPayload::Quantized {
                    scale,
                    levels: self.elems(dim, "quantized levels", i16::from_le_bytes)?,
                })
            }
            3 => Ok(GradientPayload::Masked {
                words: self.vec("masked gradient", u64::from_le_bytes)?,
            }),
            other => Err(invalid(
                "gradient encoding",
                format!("unknown encoding {other}"),
            )),
        }
    }
}
