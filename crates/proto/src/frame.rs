//! Length-prefixed framing over arbitrary byte streams.
//!
//! Each frame is `[len: u32 little-endian][payload: len bytes]` where the payload
//! is an encoded [`crate::Message`]. The reader enforces a maximum frame size so a
//! corrupt or hostile peer cannot force an unbounded allocation.
//!
//! A reply that many connections receive byte for byte — the checkout reply
//! for one published parameter snapshot — is framed once as a [`SharedFrame`]
//! and written to every socket from that one allocation.

// Request path: a panic here would tear down a server worker mid-epoch.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::codec::{decode, encode_checkout_response_into, encode_into};
use crate::error::ProtoError;
use crate::message::{Message, RoundParams};
use crate::pool::BufPool;
use crate::Result;
use std::io::{Read, Write};
use std::sync::Arc;

/// Default maximum frame size: large enough for a 1M-parameter gradient
/// (8 MiB of floats) plus headers.
pub const DEFAULT_MAX_FRAME: usize = 16 * 1024 * 1024;

/// One complete wire frame (length prefix and encoded message), immutable and
/// shared by reference: cloning bumps a count, and the bytes live until the
/// last holder — e.g. a connection parked mid-write — lets go.
///
/// The only way to make one is to encode a message, so whatever is queued on
/// a socket through this type is a well-formed frame.
#[derive(Debug, Clone)]
pub struct SharedFrame(Arc<Vec<u8>>);

impl SharedFrame {
    /// Frames a `CheckoutResponse` from borrowed parts with one allocation
    /// and one pass over `params`. Byte-identical to [`write_message`] of the
    /// same parts as a [`Message::CheckoutResponse`].
    pub fn checkout_response(
        iteration: u64,
        stopped: bool,
        params: &[f64],
        round: Option<&RoundParams>,
    ) -> SharedFrame {
        // Prefix, tag, iteration, stopped, count, round presence + fields.
        const FIXED: usize = 4 + 1 + 8 + 1 + 4 + 1 + 36;
        let mut buf = Vec::with_capacity(FIXED + 8 * params.len());
        buf.extend_from_slice(&[0u8; 4]);
        encode_checkout_response_into(&mut buf, iteration, stopped, params, round);
        let len = (buf.len() - 4) as u32;
        buf[..4].copy_from_slice(&len.to_le_bytes());
        SharedFrame(Arc::new(buf))
    }

    /// The frame's bytes, length prefix included.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

/// Appends one frame — the length prefix, then `message` encoded — to `buf`.
pub fn encode_frame_into(message: &Message, buf: &mut Vec<u8>) {
    let at = buf.len();
    buf.extend_from_slice(&[0u8; 4]);
    encode_into(message, buf);
    let len = (buf.len() - at - 4) as u32;
    buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Writes one framed message to `writer` with a single `write_all`: prefix
/// and payload leave in one segment even on a `TCP_NODELAY` socket.
pub fn write_message<W: Write>(writer: &mut W, message: &Message) -> Result<()> {
    let mut frame = Vec::with_capacity(64);
    encode_frame_into(message, &mut frame);
    writer.write_all(&frame)?;
    writer.flush()?;
    Ok(())
}

/// Like [`write_message`], but encodes into a pooled buffer instead of
/// allocating a fresh one per message.
pub fn write_message_pooled<W: Write>(
    writer: &mut W,
    message: &Message,
    pool: &BufPool,
) -> Result<()> {
    let mut frame = pool.take_empty();
    encode_frame_into(message, &mut frame);
    writer.write_all(&frame)?;
    writer.flush()?;
    Ok(())
}

/// Reads one framed message, filling a pooled buffer instead of allocating a
/// payload-sized `Vec` per message. Enforces `max_frame` bytes.
pub fn read_message_pooled<R: Read>(
    reader: &mut R,
    pool: &BufPool,
    max_frame: usize,
) -> Result<Message> {
    let mut len_buf = [0u8; 4];
    reader.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > max_frame {
        return Err(ProtoError::FrameTooLarge {
            declared: len,
            max: max_frame,
        });
    }
    let mut payload = pool.take(len);
    reader.read_exact(&mut payload)?;
    decode(&payload)
}

/// Reads one framed message from `reader`, enforcing `max_frame` bytes.
pub fn read_message_with_limit<R: Read>(reader: &mut R, max_frame: usize) -> Result<Message> {
    let mut len_buf = [0u8; 4];
    reader.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > max_frame {
        return Err(ProtoError::FrameTooLarge {
            declared: len,
            max: max_frame,
        });
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    decode(&payload)
}

/// Reads one framed message with the default size limit.
pub fn read_message<R: Read>(reader: &mut R) -> Result<Message> {
    read_message_with_limit(reader, DEFAULT_MAX_FRAME)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::AuthToken;
    use crate::message::{CheckinAck, CheckoutRequest, CheckoutResponse};
    use std::io::Cursor;

    #[test]
    fn write_then_read_round_trip() {
        let messages = vec![
            Message::CheckoutRequest(CheckoutRequest {
                version: 1,
                device_id: 3,
                token: AuthToken::derive(3, 9),
            }),
            Message::CheckoutResponse(CheckoutResponse {
                iteration: 10,
                params: vec![1.0; 500],
                stopped: false,
                round: None,
            }),
            Message::CheckinAck(CheckinAck {
                accepted: true,
                iteration: 11,
                stopped: true,
                deduped: false,
            }),
        ];
        let mut buf = Vec::new();
        for m in &messages {
            write_message(&mut buf, m).unwrap();
        }
        let mut cursor = Cursor::new(buf);
        for m in &messages {
            let read = read_message(&mut cursor).unwrap();
            assert_eq!(&read, m);
        }
        // Stream exhausted: the next read reports an I/O error.
        assert!(matches!(read_message(&mut cursor), Err(ProtoError::Io(_))));
    }

    /// Counts `write` calls; `write_all` over an in-memory sink makes one
    /// call per buffer it is handed.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_leaves_in_one_write_with_unchanged_bytes() {
        let pool = BufPool::default();
        let messages = [
            Message::CheckoutRequest(CheckoutRequest {
                version: 1,
                device_id: 3,
                token: AuthToken::derive(3, 9),
            }),
            Message::CheckoutResponse(CheckoutResponse {
                iteration: 10,
                params: vec![1.0; 5000],
                stopped: false,
                round: None,
            }),
        ];
        for message in &messages {
            let payload = crate::codec::encode(message);
            let mut expected = (payload.len() as u32).to_le_bytes().to_vec();
            expected.extend_from_slice(&payload);

            let mut plain = CountingWriter::default();
            write_message(&mut plain, message).unwrap();
            let mut pooled = CountingWriter::default();
            write_message_pooled(&mut pooled, message, &pool).unwrap();
            for sink in [plain, pooled] {
                assert_eq!(sink.writes, 1, "{message:?}");
                assert_eq!(sink.bytes, expected);
            }
        }
    }

    #[test]
    fn shared_checkout_frame_equals_the_message_path() {
        let round = RoundParams {
            round_id: 9,
            seed: 0xFEED,
            select_fraction: 0.25,
            deadline_epochs: 3,
            population: 1000,
        };
        let nan_payload = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        for params in [vec![], vec![-0.0, nan_payload, 1e-310], vec![0.5; 5000]] {
            for stopped in [false, true] {
                for round in [None, Some(round)] {
                    let frame =
                        SharedFrame::checkout_response(77, stopped, &params, round.as_ref());
                    let mut expected = Vec::new();
                    let message = Message::CheckoutResponse(CheckoutResponse {
                        iteration: 77,
                        params: params.clone(),
                        stopped,
                        round,
                    });
                    write_message(&mut expected, &message).unwrap();
                    assert_eq!(frame.as_bytes(), &expected[..]);
                    // One allocation: the reserve covered the whole frame.
                    assert!(frame.0.capacity() <= expected.len() + 36);
                }
            }
        }
    }

    #[test]
    fn oversized_frame_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = Cursor::new(buf);
        match read_message_with_limit(&mut cursor, 1024) {
            Err(ProtoError::FrameTooLarge { declared, max }) => {
                assert_eq!(declared, u32::MAX as usize);
                assert_eq!(max, 1024);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_payload_is_io_error() {
        let msg = Message::CheckinAck(CheckinAck {
            accepted: true,
            iteration: 2,
            stopped: false,
            deduped: false,
        });
        let mut buf = Vec::new();
        write_message(&mut buf, &msg).unwrap();
        buf.truncate(buf.len() - 1);
        let mut cursor = Cursor::new(buf);
        assert!(matches!(read_message(&mut cursor), Err(ProtoError::Io(_))));
    }

    #[test]
    fn corrupt_payload_is_decode_error() {
        let msg = Message::CheckinAck(CheckinAck {
            accepted: true,
            iteration: 2,
            stopped: false,
            deduped: false,
        });
        let mut buf = Vec::new();
        write_message(&mut buf, &msg).unwrap();
        // Corrupt the message tag inside the frame.
        buf[4] = 0xEE;
        let mut cursor = Cursor::new(buf);
        assert!(matches!(
            read_message(&mut cursor),
            Err(ProtoError::UnknownMessageTag(0xEE))
        ));
    }
}
