//! The device side of the protocol (Device Routines 1–3) without I/O: a
//! [`DeviceSession`] builds every request, and [`on_checkout`], [`on_metrics`]
//! and [`on_checkin`] read every reply. Nothing here opens a socket, reads a
//! clock, sleeps or draws randomness; the client, the chaos driver and the
//! fleet driver move these messages over their own sockets.

use crate::error::NetError;
use crate::Result;
use crowd_core::device::CheckinPayload;
use crowd_linalg::{GradientUpdate, Vector};
use crowd_proto::message::{
    CheckinAck, CheckinRequest, CheckoutRequest, ErrorCode, GradientPayload, Message,
    MetricsReport, MetricsRequest, RoundParams,
};
use crowd_proto::{AuthToken, PROTOCOL_VERSION};
use crowd_rounds::Role;

/// A device's view of a checkout: the parameters and the server iteration they
/// were read at.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckedOutParams {
    /// Server iteration at checkout time.
    pub iteration: u64,
    /// The parameter vector.
    pub params: Vector,
    /// Whether the server reports the task as stopped.
    pub stopped: bool,
    /// The server's current round parameters, when it runs the round-based
    /// cohort protocol (wire v6); `None` on a free-running server.
    pub round: Option<RoundParams>,
}

/// Typed result of one checkin, replacing the old `(accepted, stopped)` pair.
///
/// Budget exhaustion and round staleness arrive on the wire as error replies
/// but are *protocol states*, not failures: they surface as variants here so
/// a caller matches once instead of inspecting error codes. Transport
/// failures and genuine server errors still arrive as `Err`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckinOutcome {
    /// The gradient was applied; the server has advanced to `iteration`.
    Applied {
        /// Server iteration after applying this checkin.
        iteration: u64,
    },
    /// A dedup replay: an earlier attempt of this nonce was already applied
    /// (and ε-charged), so nothing happened twice.
    Deduped,
    /// The task's stopping criterion is met and the device should stop
    /// collecting; `applied` reports whether this checkin still made it in.
    Stopped {
        /// Whether the gradient was applied before the stop was observed.
        applied: bool,
    },
    /// The device's privacy budget is spent; it should end participation.
    BudgetExhausted,
    /// The round this checkin named closed while the device was computing.
    /// Non-fatal: refetch the round parameters (the server's current round is
    /// included here), re-derive the role, and resubmit against the new round.
    RoundOutdated {
        /// The server's current round id.
        current_round: u64,
    },
}

impl CheckinOutcome {
    /// Whether this checkin's gradient was (or had already been) applied.
    pub fn applied(&self) -> bool {
        matches!(
            self,
            CheckinOutcome::Applied { .. }
                | CheckinOutcome::Deduped
                | CheckinOutcome::Stopped { applied: true }
        )
    }

    /// Whether the server reported the task's stopping criterion as met.
    pub fn task_stopped(&self) -> bool {
        matches!(self, CheckinOutcome::Stopped { .. })
    }
}

impl From<CheckinAck> for CheckinOutcome {
    fn from(ack: CheckinAck) -> Self {
        if ack.deduped {
            CheckinOutcome::Deduped
        } else if ack.stopped {
            CheckinOutcome::Stopped {
                applied: ack.accepted,
            }
        } else if ack.accepted {
            CheckinOutcome::Applied {
                iteration: ack.iteration,
            }
        } else {
            // The server only withholds `accepted` once the task stopped;
            // map the combination defensively rather than invent a variant.
            CheckinOutcome::Stopped { applied: false }
        }
    }
}

/// A device's identity on the wire; every request it sends is built here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceSession {
    /// The device id the server authenticates.
    pub device_id: u64,
    /// The device's authentication token.
    pub token: AuthToken,
}

/// A device's view of one aggregation round (wire v6): the published round
/// parameters and the role and cohort every party derives from its seed.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundView {
    /// The round parameters as published by the server.
    pub round: RoundParams,
    /// This device's role in the round.
    pub role: Role,
    /// Ascending cohort ids.
    pub cohort: Vec<u64>,
}

impl DeviceSession {
    /// A checkout (Fig. 2, steps 2–3).
    pub fn checkout_request(&self) -> Message {
        Message::CheckoutRequest(CheckoutRequest {
            version: PROTOCOL_VERSION,
            device_id: self.device_id,
            token: self.token,
        })
    }

    /// A scrape of the server's metric registry (wire v4), authenticated
    /// exactly like a checkout.
    pub fn metrics_request(&self) -> Message {
        Message::MetricsRequest(MetricsRequest {
            version: PROTOCOL_VERSION,
            device_id: self.device_id,
            token: self.token,
        })
    }

    /// A free-running (round-untagged) checkin (Fig. 2, steps 4–5). The
    /// gradient goes on the wire in the device's representation without
    /// densifying: a sparse update ships only its stored coordinates, and a
    /// quantized one its `i16` levels plus the shared scale. The payload's
    /// vectors move into the request.
    pub fn checkin_request(&self, payload: CheckinPayload) -> Message {
        let gradient = match payload.gradient {
            GradientUpdate::Dense(v) => GradientPayload::Dense(v.into_vec()),
            GradientUpdate::Sparse(s) => {
                let (dim, indices, values) = s.into_parts();
                GradientPayload::Sparse {
                    dim: dim as u32,
                    indices,
                    values,
                }
            }
            GradientUpdate::Quantized(q) => {
                let (scale, levels) = q.into_parts();
                GradientPayload::Quantized { scale, levels }
            }
        };
        Message::CheckinRequest(CheckinRequest {
            device_id: self.device_id,
            token: self.token,
            checkout_iteration: payload.checkout_iteration,
            nonce: payload.nonce,
            round_id: 0,
            gradient,
            num_samples: payload.num_samples as u32,
            error_count: payload.error_count,
            label_counts: payload.label_counts,
        })
    }

    /// A `Selected` device's masked share of `round`: each coordinate of the
    /// payload gradient (densified first if sparse or quantized) gets the
    /// device's seed-derived pairwise net mask added to its IEEE-754 bits
    /// (wrapping), so the raw gradient never crosses the wire and the masks
    /// cancel exactly in the finalized cohort sum. Errors with
    /// [`NetError::Round`] for any other role.
    pub fn submit_request(&self, round: &RoundView, payload: &CheckinPayload) -> Result<Message> {
        if round.role != Role::Selected {
            return Err(NetError::Round("only a selected device submits to a round"));
        }
        let densified;
        let dense = match &payload.gradient {
            GradientUpdate::Dense(v) => v.as_slice(),
            sparse_or_quantized => {
                densified = sparse_or_quantized.to_dense();
                densified.as_slice()
            }
        };
        let mask_words =
            crowd_rounds::net_mask(round.round.seed, self.device_id, &round.cohort, dense.len());
        Ok(Message::CheckinRequest(CheckinRequest {
            device_id: self.device_id,
            token: self.token,
            checkout_iteration: payload.checkout_iteration,
            nonce: payload.nonce,
            round_id: round.round.round_id,
            gradient: GradientPayload::Masked {
                words: crowd_rounds::mask(dense, &mask_words),
            },
            num_samples: payload.num_samples as u32,
            error_count: payload.error_count,
            label_counts: payload.label_counts.clone(),
        }))
    }

    /// Derives this device's role and the cohort from the round parameters a
    /// checkout published — no extra coordination messages. Errors with
    /// [`NetError::Round`] when the server runs free.
    pub fn join(&self, checked_out: &CheckedOutParams) -> Result<RoundView> {
        let round = checked_out
            .round
            .ok_or(NetError::Round("the server is not running rounds"))?;
        let cohort = crowd_rounds::cohort(round.seed, round.population, round.select_fraction);
        let role = if cohort.binary_search(&self.device_id).is_ok() {
            Role::Selected
        } else {
            Role::Unselected
        };
        Ok(RoundView {
            round,
            role,
            cohort,
        })
    }
}

/// Reads a checkout reply.
pub fn on_checkout(reply: Message) -> Result<CheckedOutParams> {
    match reply {
        Message::CheckoutResponse(r) => Ok(CheckedOutParams {
            iteration: r.iteration,
            params: Vector::from_vec(r.params),
            stopped: r.stopped,
            round: r.round,
        }),
        other => Err(refusal(other, "checkout_response")),
    }
}

/// Reads a metrics-scrape reply.
pub fn on_metrics(reply: Message) -> Result<MetricsReport> {
    match reply {
        Message::MetricsReport(report) => Ok(report),
        other => Err(refusal(other, "metrics_report")),
    }
}

/// Reads a checkin or round-submission reply: budget exhaustion and round
/// staleness become `Ok` protocol states, every other error reply an error.
pub fn on_checkin(reply: Message) -> Result<CheckinOutcome> {
    match reply {
        Message::CheckinAck(ack) => Ok(ack.into()),
        Message::Error(e) if e.code == ErrorCode::BudgetExhausted => {
            Ok(CheckinOutcome::BudgetExhausted)
        }
        Message::Error(e) if e.code == ErrorCode::RoundOutdated => {
            Ok(CheckinOutcome::RoundOutdated {
                current_round: e.round_id,
            })
        }
        other => Err(refusal(other, "checkin_ack")),
    }
}

/// The error for a reply that is not the `expected` one: the server's own
/// error, or the wrong message.
fn refusal(reply: Message, expected: &'static str) -> NetError {
    match reply {
        Message::Error(e) => NetError::ServerError {
            code: e.code,
            detail: e.detail,
        },
        other => NetError::UnexpectedMessage {
            expected,
            received: other.name(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_linalg::{QuantizedVector, SparseVector};
    use crowd_proto::codec::encode;
    use crowd_proto::message::{CheckoutResponse, ErrorReply};

    fn error(code: ErrorCode, round_id: u64) -> Message {
        Message::Error(ErrorReply {
            code,
            detail: "refused".into(),
            round_id,
        })
    }

    fn ack(accepted: bool, stopped: bool, deduped: bool) -> Message {
        Message::CheckinAck(CheckinAck {
            accepted,
            iteration: 7,
            stopped,
            deduped,
        })
    }

    /// Every reply arm of the three readers, without a socket.
    #[test]
    fn every_reply_arm_reads_to_its_outcome() {
        let checkout = Message::CheckoutResponse(CheckoutResponse {
            iteration: 3,
            params: vec![0.5, -1.0],
            stopped: true,
            round: None,
        });
        let unauthorized = "Err(ServerError { code: Unauthorized, detail: \"refused\" })";
        let checkin_cases = [
            (ack(true, false, false), "Ok(Applied { iteration: 7 })"),
            (ack(true, false, true), "Ok(Deduped)"),
            (ack(true, true, false), "Ok(Stopped { applied: true })"),
            (ack(false, true, false), "Ok(Stopped { applied: false })"),
            (ack(false, false, false), "Ok(Stopped { applied: false })"),
            (error(ErrorCode::BudgetExhausted, 0), "Ok(BudgetExhausted)"),
            (
                error(ErrorCode::RoundOutdated, 9),
                "Ok(RoundOutdated { current_round: 9 })",
            ),
            (error(ErrorCode::Unauthorized, 0), unauthorized),
            (
                checkout.clone(),
                "Err(UnexpectedMessage { expected: \"checkin_ack\", \
                 received: \"checkout_response\" })",
            ),
        ];
        for (reply, expected) in checkin_cases {
            assert_eq!(
                format!("{:?}", on_checkin(reply.clone())),
                expected,
                "{reply:?}"
            );
        }

        let served = on_checkout(checkout).unwrap();
        assert_eq!(served.iteration, 3);
        assert_eq!(served.params.as_slice(), &[0.5, -1.0]);
        assert!(served.stopped && served.round.is_none());
        let refused = on_checkout(error(ErrorCode::Unauthorized, 0));
        assert_eq!(format!("{refused:?}"), unauthorized);
        let wrong = on_checkout(ack(true, false, false));
        assert_eq!(
            format!("{wrong:?}"),
            "Err(UnexpectedMessage { expected: \"checkout_response\", received: \"checkin_ack\" })"
        );

        let report = MetricsReport {
            counters: vec![("checkins".into(), 4)],
            gauges: Vec::new(),
            histograms: Vec::new(),
        };
        let scraped = on_metrics(Message::MetricsReport(report.clone())).unwrap();
        assert_eq!(scraped, report);
        let refused = on_metrics(error(ErrorCode::Unauthorized, 0));
        assert_eq!(format!("{refused:?}"), unauthorized);
        let wrong = on_metrics(ack(true, false, false));
        assert_eq!(
            format!("{wrong:?}"),
            "Err(UnexpectedMessage { expected: \"metrics_report\", received: \"checkin_ack\" })"
        );
    }

    /// The session's requests encode to the bytes of the requests the client
    /// and the fleet driver used to build by hand, for every gradient form.
    #[test]
    fn requests_encode_like_hand_built_ones() {
        let token = AuthToken::derive(2, 5);
        let session = DeviceSession {
            device_id: 2,
            token,
        };
        let payload = |gradient: GradientUpdate| CheckinPayload {
            device_id: 2,
            checkout_iteration: 11,
            nonce: 4,
            gradient,
            num_samples: 3,
            error_count: 1,
            label_counts: vec![2, 1],
        };
        let by_hand = |round_id: u64, gradient: GradientPayload| {
            encode(&Message::CheckinRequest(CheckinRequest {
                device_id: 2,
                token,
                checkout_iteration: 11,
                nonce: 4,
                round_id,
                gradient,
                num_samples: 3,
                error_count: 1,
                label_counts: vec![2, 1],
            }))
        };
        let dense = vec![0.25, 0.0, -1.5, 0.0];
        let sparse = SparseVector::new(4, vec![0, 2], vec![0.25, -1.5]).unwrap();
        let quantized = QuantizedVector::from_parts(0.5, vec![1, 0, -3, 0]).unwrap();
        let cases = [
            (
                Vector::from_vec(dense.clone()).into(),
                GradientPayload::Dense(dense.clone()),
            ),
            (
                GradientUpdate::Sparse(sparse),
                GradientPayload::Sparse {
                    dim: 4,
                    indices: vec![0, 2],
                    values: vec![0.25, -1.5],
                },
            ),
            (
                GradientUpdate::Quantized(quantized),
                GradientPayload::Quantized {
                    scale: 0.5,
                    levels: vec![1, 0, -3, 0],
                },
            ),
        ];
        for (gradient, wire) in cases {
            let request = session.checkin_request(payload(gradient));
            assert_eq!(encode(&request), by_hand(0, wire));
        }

        let round = RoundParams {
            round_id: 6,
            seed: 77,
            select_fraction: 1.0,
            deadline_epochs: 4,
            population: 3,
        };
        let checked_out = CheckedOutParams {
            iteration: 11,
            params: Vector::zeros(4),
            stopped: false,
            round: Some(round),
        };
        let view = session.join(&checked_out).unwrap();
        assert_eq!(
            (view.role, view.cohort.as_slice()),
            (Role::Selected, &[0, 1, 2][..])
        );
        let share = payload(Vector::from_vec(dense.clone()).into());
        let words = crowd_rounds::mask(&dense, &crowd_rounds::net_mask(77, 2, &[0, 1, 2], 4));
        assert_eq!(
            encode(&session.submit_request(&view, &share).unwrap()),
            by_hand(6, GradientPayload::Masked { words })
        );
        let unselected = RoundView {
            role: Role::Unselected,
            ..view
        };
        assert!(matches!(
            session.submit_request(&unselected, &share),
            Err(NetError::Round(_))
        ));
    }
}
