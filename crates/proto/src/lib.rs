//! Wire protocol for Crowd-ML device/server communication.
//!
//! The paper's prototype exchanges checkouts and checkins over HTTPS with an
//! Apache/MySQL backend; the distributed-systems behaviour the evaluation cares
//! about lives entirely in the *messages* (what a device requests, what it
//! uploads) rather than the transport. This crate defines those messages and a
//! compact, hand-rolled binary encoding:
//!
//! * [`message::Message`] — checkout request/response, checkin request/ack, and an
//!   error variant, mirroring Device Routines 1–3 and Server Routines 1–2;
//! * [`codec`] — deterministic little-endian encoding/decoding built on [`le`];
//! * [`le`] — the little-endian reader and writer the wire codec and
//!   `crowd-store`'s WAL and snapshot codec share;
//! * [`frame`] — length-prefixed framing over any `Read`/`Write` stream, with a
//!   maximum-frame-size guard;
//! * [`auth`] — the device authentication tokens the server checks before
//!   accepting a checkout or checkin;
//! * [`spec`] — the decoder read one element at a time, the reference the
//!   bulk decoder is tested against.

#![forbid(unsafe_code)]

pub mod auth;
pub mod codec;
pub mod error;
pub mod frame;
pub mod le;
pub mod message;
pub mod pool;
pub mod spec;

pub use auth::AuthToken;
pub use error::ProtoError;
pub use message::Message;
pub use pool::{BufPool, OwnedPooledBuf};

/// Result alias for protocol operations.
pub type Result<T> = std::result::Result<T, ProtoError>;

/// Protocol version carried in every checkout request; bumped on incompatible
/// message changes.
///
/// Version 2 introduced the dense/sparse [`message::GradientPayload`] encoding
/// inside checkin requests; version 3 added the duplicate-detection nonce that
/// makes retried checkins idempotent; version 4 added the authenticated
/// [`message::MetricsRequest`]/[`message::MetricsReport`] admin scrape of the
/// server's crowd-scope metric registry; version 5 added the quantized
/// gradient encoding (`i16` levels times a shared scale) that DP-noised
/// uploads select when their noise floor dominates the quantization error;
/// version 6 added the round-based cohort protocol ([`message::RoundParams`]
/// in checkouts, per-checkin `round_id`, the masked gradient encoding, and
/// the `RoundOutdated` resync error); version 7 changed no message but the
/// meaning of a masked word — `crowd-rounds` masks toward `2⌈log₂ n⌉` ring
/// neighbours instead of every cohort peer, and a version-6 device's
/// all-pairs submission would unmask into garbage without any error;
/// version 8 removed the batch checkin message pair (tags 6 and 7), which
/// the paper's one-checkin-per-minibatch protocol never uses.
pub const PROTOCOL_VERSION: u16 = 8;
