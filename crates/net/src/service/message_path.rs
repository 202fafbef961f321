//! The blocking `Message`-in, `Message`-out checkout and checkin that the
//! reactor path's replies are held to, byte for byte: a checkout copies the
//! published snapshot into a fresh reply, a free-run checkin waits on the
//! blocking `AggRuntime::submit` and a masked one on
//! `AggRuntime::submit_round`. Any other message gets
//! [`ServerCore::handle_message`]'s reply.

use super::*;
use crowd_proto::message::CheckoutResponse;
use std::time::Duration;

/// How long a checkin waits for its epoch to be applied before it reports
/// an internal error. Epochs close on `epoch_size` or the idle flush, so
/// this bound is never approached.
const CHECKIN_WAIT: Duration = Duration::from_secs(30);

/// The reply `core` gives `message`, blocking until it is known.
pub(crate) fn reply(core: &ServerCore, message: Message) -> Message {
    match message {
        Message::CheckoutRequest(req) => {
            if let Some(refusal) = core.checkout_refusal(&req) {
                return refusal;
            }
            let snapshot = core.runtime.snapshot();
            core.metrics.incr(CounterId::CheckoutsServed);
            Message::CheckoutResponse(CheckoutResponse {
                iteration: snapshot.iteration,
                params: snapshot.params.as_slice().to_vec(),
                stopped: snapshot.stopped,
                round: core.round_params(),
            })
        }
        Message::CheckinRequest(req) => {
            if !core.tokens.verify(req.device_id, &req.token) {
                return error_reply(ErrorCode::Unauthorized, "unknown device or bad token");
            }
            note_gradient_encoding(&core.metrics, &req.gradient);
            if matches!(req.gradient, GradientPayload::Masked { .. }) {
                let round = match round_submission_of(req) {
                    Ok(round) => round,
                    Err(reply) => return *reply,
                };
                return match core.runtime.submit_round(round.round_id, round.submission) {
                    Ok(outcome) => Message::CheckinAck(ack_of(outcome)),
                    Err(e) => agg_error_reply(e),
                };
            }
            if let Some(reply) = core.stale_round_reply(req.round_id) {
                return reply;
            }
            let payload = match payload_of(req) {
                Ok(p) => p,
                Err(reply) => return *reply,
            };
            match core
                .runtime
                .submit(payload)
                .and_then(|handle| handle.wait_timeout(CHECKIN_WAIT))
            {
                Ok(outcome) => Message::CheckinAck(ack_of(outcome)),
                Err(e) => agg_error_reply(e),
            }
        }
        other => core.handle_message(other),
    }
}
