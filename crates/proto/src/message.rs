//! Protocol message types mirroring the Crowd-ML workflow (Fig. 2).
//!
//! * A device that has filled its minibatch sends a [`CheckoutRequest`]; the server
//!   authenticates it and replies with a [`CheckoutResponse`] carrying the current
//!   parameters `w` and the server iteration at which they were read.
//! * After computing and sanitizing its statistics, the device sends a
//!   [`CheckinRequest`] carrying `(ĝ, n_s, n̂_e, n̂_y^k)`; the server replies with a
//!   [`CheckinAck`] that also tells the device whether the global stopping
//!   criterion has been met.
//! * [`ErrorReply`] reports authentication or protocol failures.

use crate::auth::AuthToken;

/// A checkout request (Device Routine 1 → Server Routine 1).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckoutRequest {
    /// Protocol version of the sender.
    pub version: u16,
    /// Device identifier.
    pub device_id: u64,
    /// Authentication token.
    pub token: AuthToken,
}

/// A checkout response carrying the current model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckoutResponse {
    /// The server iteration `t` at which the parameters were read (used to measure
    /// staleness at checkin time).
    pub iteration: u64,
    /// The flat parameter vector `w`.
    pub params: Vec<f64>,
    /// Whether the stopping criterion has already been met (devices should stop
    /// collecting when set).
    pub stopped: bool,
    /// The current round parameters when the server runs the round-based
    /// cohort protocol (wire v6); `None` on a free-running server.
    pub round: Option<RoundParams>,
}

/// Parameters of the server's current aggregation round (wire v6).
///
/// Published in every checkout. From `(seed, select_fraction, population)` a
/// device derives its role and — when selected — the pairwise masks it shares
/// with the rest of the cohort; no additional coordination messages exist. A
/// checkin tagged with a `round_id` older than the server's current round is
/// refused with [`ErrorCode::RoundOutdated`] and the device resyncs by
/// checking out again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundParams {
    /// Monotonically increasing round counter (starts at 1; 0 on the wire
    /// means "free-run", so it never identifies a round).
    pub round_id: u64,
    /// Seed of this round's cohort selection and pair-mask derivation.
    pub seed: u64,
    /// Fraction of the population selected into the cohort, in `(0, 1]`.
    pub select_fraction: f64,
    /// Rounds expire after this many applied server epochs without cohort
    /// completion; survivors are finalized with dropout compensation.
    pub deadline_epochs: u32,
    /// Device-id population the selection draws from (`0..population`).
    pub population: u64,
}

/// A gradient as it crosses the wire: dense, sparse coordinates when the
/// vector is mostly *exact* zeros, or quantized fixed-point levels when the
/// sender's DP noise floor already dwarfs the quantization error.
///
/// The dense/sparse choice is made per message by measured density
/// ([`GradientPayload::from_dense_auto`]) — never by lossy thresholding — so
/// the server folds sparse and dense uploads into bitwise identical
/// aggregates. At 100k parameters, a 95%-zero gradient shrinks a checkin from
/// ~800 KB to ~60 KB.
///
/// The quantized encoding (wire v5) is different in kind: it is *lossy*, so a
/// device only selects it for DP-noised uploads where the rounding error is
/// provably below the privacy noise already injected (see
/// `crowd_learning::dp::noise_dominates_quantization`). Each coordinate travels as an
/// `i16` level times a shared per-message scale: 2 bytes instead of 8, a ~4×
/// body reduction.
#[derive(Debug, Clone, PartialEq)]
pub enum GradientPayload {
    /// All coordinates, in order.
    Dense(Vec<f64>),
    /// Only the non-zero coordinates.
    Sparse {
        /// Logical dimension of the gradient vector.
        dim: u32,
        /// Strictly increasing coordinate indices, each `< dim`.
        indices: Vec<u32>,
        /// Coordinate values, aligned with `indices`.
        values: Vec<f64>,
    },
    /// Stochastically rounded fixed-point levels with a shared scale; the
    /// receiver reconstructs coordinate `i` as `levels[i] as f64 * scale`.
    Quantized {
        /// Per-message dequantization scale (finite, `>= 0`).
        scale: f64,
        /// One signed 16-bit level per coordinate, in order.
        levels: Vec<i16>,
    },
    /// A round checkin's masked gradient (wire v6): per coordinate, the
    /// IEEE-754 bit pattern plus the device's pairwise net mask, wrapping.
    /// Lossless — the aggregator recovers the exact original bits at round
    /// finalization — and never a raw gradient on the wire.
    Masked {
        /// One masked word per coordinate, in order.
        words: Vec<u64>,
    },
}

impl GradientPayload {
    /// Logical dimension of the carried gradient.
    pub fn dim(&self) -> usize {
        match self {
            GradientPayload::Dense(v) => v.len(),
            GradientPayload::Sparse { dim, .. } => *dim as usize,
            GradientPayload::Quantized { levels, .. } => levels.len(),
            GradientPayload::Masked { words } => words.len(),
        }
    }

    /// Number of explicitly stored coordinates.
    pub fn nnz(&self) -> usize {
        match self {
            GradientPayload::Dense(v) => v.len(),
            GradientPayload::Sparse { indices, .. } => indices.len(),
            GradientPayload::Quantized { levels, .. } => levels.len(),
            GradientPayload::Masked { words } => words.len(),
        }
    }

    /// Bytes of the encoded gradient field (excluding the message framing):
    /// `1 + 4 + 8·dim` dense, `1 + 8 + 12·nnz` sparse, `1 + 12 + 2·dim`
    /// quantized, `1 + 4 + 8·dim` masked.
    pub fn encoded_len(&self) -> usize {
        match self {
            GradientPayload::Dense(v) => 1 + 4 + 8 * v.len(),
            GradientPayload::Sparse { indices, .. } => 1 + 8 + 12 * indices.len(),
            GradientPayload::Quantized { levels, .. } => 1 + 4 + 8 + 2 * levels.len(),
            GradientPayload::Masked { words } => 1 + 4 + 8 * words.len(),
        }
    }

    /// Wraps a dense gradient, switching to the sparse encoding when the
    /// measured count of exact zeros makes it strictly smaller on the wire.
    pub fn from_dense_auto(dense: Vec<f64>) -> Self {
        let nnz = dense.iter().filter(|v| v.to_bits() != 0).count();
        // Sparse body (8 + 12·nnz) vs dense body (4 + 8·dim).
        if 12 * nnz + 4 < 8 * dense.len() {
            let mut indices = Vec::with_capacity(nnz);
            let mut values = Vec::with_capacity(nnz);
            for (i, &v) in dense.iter().enumerate() {
                if v.to_bits() != 0 {
                    indices.push(i as u32);
                    values.push(v);
                }
            }
            GradientPayload::Sparse {
                dim: dense.len() as u32,
                indices,
                values,
            }
        } else {
            GradientPayload::Dense(dense)
        }
    }
}

/// A checkin request carrying the sanitized device statistics (Device Routine 2/3
/// → Server Routine 2).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckinRequest {
    /// Device identifier.
    pub device_id: u64,
    /// Authentication token.
    pub token: AuthToken,
    /// Server iteration at which the device checked out the parameters it used.
    pub checkout_iteration: u64,
    /// Duplicate-detection nonce, unique per checkin *per device* (0 = no
    /// dedup requested). A retried or duplicated checkin carries the same
    /// nonce as the original, so the server can recognize it as the same
    /// logical upload and replay the original acknowledgement instead of
    /// applying — and ε-charging — the gradient twice.
    pub nonce: u64,
    /// The round this checkin contributes to (wire v6), or 0 for an ordinary
    /// free-run checkin. Round checkins carry a [`GradientPayload::Masked`]
    /// gradient and are held until the round finalizes; a stale `round_id`
    /// is refused with [`ErrorCode::RoundOutdated`].
    pub round_id: u64,
    /// The sanitized averaged gradient `ĝ`, dense or sparse.
    pub gradient: GradientPayload,
    /// The (unperturbed) number of samples `n_s` in the minibatch.
    pub num_samples: u32,
    /// The sanitized misclassification count `n̂_e` (may be negative after
    /// perturbation).
    pub error_count: i64,
    /// The sanitized per-class label counts `n̂_y^k` (may be negative).
    pub label_counts: Vec<i64>,
}

/// Acknowledgement of a checkin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckinAck {
    /// Whether the gradient was applied.
    pub accepted: bool,
    /// The server iteration after applying this checkin.
    pub iteration: u64,
    /// Whether the stopping criterion has been met.
    pub stopped: bool,
    /// `true` when this acknowledgement is a dedup replay of a previously
    /// applied checkin (the retry was recognized; nothing was applied or
    /// ε-charged again).
    pub deduped: bool,
}

/// Server → device: the ingest queue is full; retry after a short backoff
/// instead of blocking a handler thread (backpressure, not failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusyReply {
    /// Suggested client backoff in milliseconds (0 = client's choice).
    pub retry_after_ms: u32,
}

/// Operator → server: scrape the server's crowd-scope metric registry
/// (wire v4). Authenticated like a checkout: metrics expose operational
/// detail, so anonymous peers get an error, not a dump.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRequest {
    /// Protocol version of the sender.
    pub version: u16,
    /// Identity the scrape authenticates as (any registered device).
    pub device_id: u64,
    /// Authentication token.
    pub token: AuthToken,
}

/// One histogram in a [`MetricsReport`]: counts plus extracted percentiles
/// (the full bucket vector stays server-side; percentiles are what the
/// paper's scalability claims cite).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramReport {
    /// Metric name (unit suffix included, e.g. `req_checkin_us`).
    pub name: String,
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value (exact).
    pub max: u64,
    /// Median (log₂-bucket upper bound).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

/// Server → operator: the metric registry snapshot, sorted by name within
/// each section so identical registries encode byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Counter `(name, value)` pairs, ascending by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge `(name, value)` pairs, ascending by name.
    pub gauges: Vec<(String, i64)>,
    /// Histograms, ascending by name.
    pub histograms: Vec<HistogramReport>,
}

/// An error reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorReply {
    /// Machine-readable error code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub detail: String,
    /// For [`ErrorCode::RoundOutdated`]: the server's *current* round id, so
    /// the stale device can resync without an extra checkout round-trip.
    /// 0 for every other code.
    pub round_id: u64,
}

/// Machine-readable protocol error codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The device could not be authenticated.
    Unauthorized,
    /// The message was malformed or had an unsupported version.
    BadRequest,
    /// The server is shutting down or the task has ended.
    TaskEnded,
    /// Any other server-side failure.
    Internal,
    /// The server's ingest queue is full; the request should be retried after
    /// a short backoff (backpressure, not failure).
    Busy,
    /// The device has spent its entire privacy budget; the server refuses to
    /// serve it further checkouts or accept its checkins. Terminal for the
    /// device (not retryable): it should stop participating in the task.
    BudgetExhausted,
    /// The checkin's `round_id` no longer names the server's current round
    /// (the round finalized or expired while the device was computing).
    /// Non-fatal and *not* blindly retryable: the device refetches the round
    /// parameters (the reply's `round_id` carries the current round),
    /// re-derives its role, and resubmits against the new round.
    RoundOutdated,
}

impl ErrorCode {
    /// Stable numeric encoding of the code.
    pub fn as_u8(self) -> u8 {
        match self {
            ErrorCode::Unauthorized => 1,
            ErrorCode::BadRequest => 2,
            ErrorCode::TaskEnded => 3,
            ErrorCode::Internal => 4,
            ErrorCode::Busy => 5,
            ErrorCode::BudgetExhausted => 6,
            ErrorCode::RoundOutdated => 7,
        }
    }

    /// Decodes a numeric code.
    pub fn from_u8(value: u8) -> Option<Self> {
        match value {
            1 => Some(ErrorCode::Unauthorized),
            2 => Some(ErrorCode::BadRequest),
            3 => Some(ErrorCode::TaskEnded),
            4 => Some(ErrorCode::Internal),
            5 => Some(ErrorCode::Busy),
            6 => Some(ErrorCode::BudgetExhausted),
            7 => Some(ErrorCode::RoundOutdated),
            _ => None,
        }
    }

    /// `true` when a client should transparently retry after a backoff.
    pub fn is_retryable(self) -> bool {
        matches!(self, ErrorCode::Busy)
    }
}

/// The protocol message envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Device → server: request current parameters.
    CheckoutRequest(CheckoutRequest),
    /// Server → device: current parameters.
    CheckoutResponse(CheckoutResponse),
    /// Device → server: sanitized minibatch statistics.
    CheckinRequest(CheckinRequest),
    /// Server → device: checkin acknowledgement.
    CheckinAck(CheckinAck),
    /// Server → device: error reply.
    Error(ErrorReply),
    /// Server → device: backpressure rejection with a retry hint.
    Busy(BusyReply),
    /// Operator → server: scrape the metric registry (wire v4).
    MetricsRequest(MetricsRequest),
    /// Server → operator: the metric registry snapshot (wire v4).
    MetricsReport(MetricsReport),
}

impl Message {
    /// The one-byte tag used on the wire.
    pub fn tag(&self) -> u8 {
        match self {
            Message::CheckoutRequest(_) => 1,
            Message::CheckoutResponse(_) => 2,
            Message::CheckinRequest(_) => 3,
            Message::CheckinAck(_) => 4,
            Message::Error(_) => 5,
            Message::Busy(_) => 8,
            Message::MetricsRequest(_) => 9,
            Message::MetricsReport(_) => 10,
        }
    }

    /// Short human-readable name for logging.
    pub fn name(&self) -> &'static str {
        match self {
            Message::CheckoutRequest(_) => "checkout_request",
            Message::CheckoutResponse(_) => "checkout_response",
            Message::CheckinRequest(_) => "checkin_request",
            Message::CheckinAck(_) => "checkin_ack",
            Message::Error(_) => "error",
            Message::Busy(_) => "busy",
            Message::MetricsRequest(_) => "metrics_request",
            Message::MetricsReport(_) => "metrics_report",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_distinct() {
        let msgs = [
            Message::CheckoutRequest(CheckoutRequest {
                version: 1,
                device_id: 0,
                token: AuthToken::derive(0, 0),
            }),
            Message::CheckoutResponse(CheckoutResponse {
                iteration: 0,
                params: vec![],
                stopped: false,
                round: None,
            }),
            Message::CheckinRequest(CheckinRequest {
                device_id: 0,
                token: AuthToken::derive(0, 0),
                checkout_iteration: 0,
                nonce: 100,
                round_id: 0,
                gradient: GradientPayload::Dense(vec![]),
                num_samples: 0,
                error_count: 0,
                label_counts: vec![],
            }),
            Message::CheckinAck(CheckinAck {
                accepted: true,
                iteration: 0,
                stopped: false,
                deduped: false,
            }),
            Message::Error(ErrorReply {
                code: ErrorCode::Internal,
                detail: String::new(),
                round_id: 0,
            }),
            Message::Busy(BusyReply { retry_after_ms: 2 }),
            Message::MetricsRequest(MetricsRequest {
                version: 1,
                device_id: 0,
                token: AuthToken::derive(0, 0),
            }),
            Message::MetricsReport(MetricsReport {
                counters: vec![],
                gauges: vec![],
                histograms: vec![],
            }),
        ];
        let mut tags: Vec<u8> = msgs.iter().map(|m| m.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), 8);
        assert_eq!(msgs[0].name(), "checkout_request");
        assert_eq!(msgs[4].name(), "error");
        assert_eq!(msgs[5].name(), "busy");
        assert_eq!(msgs[6].name(), "metrics_request");
        assert_eq!(msgs[7].name(), "metrics_report");
    }

    #[test]
    fn gradient_payload_auto_selection_tracks_wire_size() {
        // 95% zeros: the sparse body (8 + 12·50 = 608) beats 8·1000.
        let mut g = vec![0.0; 1000];
        for i in (0..1000).step_by(20) {
            g[i] = 0.5;
        }
        let sparse = GradientPayload::from_dense_auto(g.clone());
        assert!(matches!(sparse, GradientPayload::Sparse { .. }));
        assert_eq!(sparse.dim(), 1000);
        assert_eq!(sparse.nnz(), 50);
        assert!(sparse.encoded_len() < GradientPayload::Dense(g).encoded_len());
        // A dense gradient stays dense — and exact zeros only: a tiny value is
        // not a zero.
        let dense = GradientPayload::from_dense_auto(vec![1e-300; 100]);
        assert!(matches!(dense, GradientPayload::Dense(_)));
        // Negative zero has a non-zero bit pattern and is preserved.
        let mut nz = vec![0.0; 100];
        nz[3] = -0.0;
        let payload = GradientPayload::from_dense_auto(nz);
        assert_eq!(payload.nnz(), 1);
    }

    #[test]
    fn quantized_payload_is_at_least_twice_as_small_as_dense() {
        let dim = 5000;
        let quantized = GradientPayload::Quantized {
            scale: 1.0 / 32767.0,
            levels: vec![17; dim],
        };
        assert_eq!(quantized.dim(), dim);
        assert_eq!(quantized.nnz(), dim);
        assert_eq!(quantized.encoded_len(), 1 + 4 + 8 + 2 * dim);
        let dense = GradientPayload::Dense(vec![0.1; dim]);
        assert!(
            quantized.encoded_len() * 2 < dense.encoded_len(),
            "quantized {} B vs dense {} B",
            quantized.encoded_len(),
            dense.encoded_len()
        );
    }

    #[test]
    fn error_code_round_trip() {
        for code in [
            ErrorCode::Unauthorized,
            ErrorCode::BadRequest,
            ErrorCode::TaskEnded,
            ErrorCode::Internal,
            ErrorCode::Busy,
            ErrorCode::BudgetExhausted,
            ErrorCode::RoundOutdated,
        ] {
            assert_eq!(ErrorCode::from_u8(code.as_u8()), Some(code));
        }
        assert_eq!(ErrorCode::from_u8(0), None);
        assert_eq!(ErrorCode::from_u8(99), None);
        assert!(ErrorCode::Busy.is_retryable());
        assert!(!ErrorCode::BadRequest.is_retryable());
        assert!(!ErrorCode::BudgetExhausted.is_retryable());
        // RoundOutdated is non-fatal but requires a resync, not a blind
        // retry of the same (stale) payload.
        assert!(!ErrorCode::RoundOutdated.is_retryable());
    }
}
