//! Resumable per-connection frame state machines.
//!
//! A reactor cannot block, so these state machines accept however many bytes
//! the socket has *right now* and pick up exactly where they left off on the
//! next readiness event. Frames are the wire format of `crowd-proto`:
//! `[len: u32 little-endian][payload: len bytes]`, with the payload decoded
//! into a [`Message`].
//!
//! ## Reading: one `read` per frame
//!
//! [`FrameReader`] reads into a buffer, as many bytes as the socket has, and
//! parses prefix and payload out of it, so a frame whose bytes are all there
//! costs one `read` (a frame larger than the buffer costs two: the buffer
//! grows once the prefix is known). Bytes of a following frame stay buffered
//! and are returned by the next call without a `read`. A `read` that returns
//! fewer bytes than it was offered means the socket was empty, so the reader
//! does not `read` again to see `EAGAIN`: it answers [`ReadEvent::NeedMore`],
//! and once nothing is buffered [`FrameReader::drained`] tells the caller a
//! read would find nothing. Both are sound for a caller whose poller reports
//! bytes that arrive after that `read`: an edge-triggered registration does
//! (the reactor's), and so does re-armed level-triggered interest.
//!
//! The read buffer comes from the shared [`BufPool`]'s scratch shelf
//! ([`BufPool::take_scratch_owned`]) when a `read` needs one, and goes back
//! the moment no unconsumed bytes remain: a connection between requests
//! holds no buffer. The shelf keeps each buffer at the length it was given
//! back with, so the next read is offered a grown buffer whole — no
//! zero-fill, and a frame over the first chunk costs one `read` once a
//! buffer of its size exists. What a read still allocates is the decoded
//! message's own vectors.
//!
//! ## Writing
//!
//! [`FrameWriter`] encodes each reply into a pooled buffer, prefix included.
//! A reply that is already framed ([`SharedFrame`]: the checkout reply every
//! device of one snapshot receives) is queued by reference and written
//! straight from the shared allocation — no per-connection copy.
//!
//! Both machines are transport-agnostic (`Read` / `Write` traits) which is
//! what makes exhaustive fragmentation testing possible: the proptest suite
//! feeds them through adapters that split the stream at arbitrary byte
//! boundaries.

use crowd_proto::codec::decode;
use crowd_proto::frame::{encode_frame_into, SharedFrame};
use crowd_proto::pool::{BufPool, OwnedPooledBuf};
use crowd_proto::{Message, ProtoError};
use std::collections::VecDeque;
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::sync::Arc;

/// Errors that terminate a connection's frame stream.
#[derive(Debug)]
pub enum FrameError {
    /// Hard socket error (not `WouldBlock`/`Interrupted`, which are handled).
    Io(std::io::Error),
    /// The peer sent bytes that do not decode, or an oversized length prefix.
    Proto(ProtoError),
    /// The peer disconnected in the middle of a frame.
    TruncatedFrame {
        /// Bytes of the frame received before EOF (including the prefix).
        got: usize,
        /// Bytes the frame declared (including the prefix).
        expected: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Proto(e) => write!(f, "protocol error: {e}"),
            FrameError::TruncatedFrame { got, expected } => {
                write!(f, "peer closed mid-frame after {got} of {expected} bytes")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<ProtoError> for FrameError {
    fn from(e: ProtoError) -> Self {
        FrameError::Proto(e)
    }
}

/// What a [`FrameReader::poll_read`] call produced.
#[derive(Debug)]
pub enum ReadEvent {
    /// One complete frame, decoded.
    Frame(Message),
    /// No complete frame yet, and the socket had no more bytes at the last
    /// `read`; call again once the poller reports it readable.
    NeedMore,
    /// Clean EOF at a frame boundary.
    Closed,
}

/// The smallest buffer the reader offers a `read`. A frame up to this size
/// (a checkout reply of up to ~500 parameters, any checkin but a wide dense
/// one) costs one call; a larger frame's prefix and head arrive with the
/// first, and the rest, once the buffer has grown, with the second. The
/// grown buffer returns to the pool at its length, so later frames of that
/// size cost one call again.
const READ_CHUNK: usize = 4096;

/// Incremental reader: turns arbitrarily fragmented socket bytes into frames.
///
/// It reads into one pooled buffer, as much as the socket has up to the
/// buffer's length, and decodes each frame straight out of it; the bytes of a
/// following frame stay there for the next call. The buffer is taken from the
/// pool when a read needs it and goes back as soon as no unconsumed bytes
/// remain, so a connection between requests holds none.
pub struct FrameReader {
    pool: Arc<BufPool>,
    max_frame: usize,
    /// The read buffer; `Some` exactly while `start < filled`, and during
    /// a read.
    buf: Option<OwnedPooledBuf>,
    /// `buf[start..filled]` are received bytes not yet returned as a frame.
    start: usize,
    filled: usize,
    /// Whether the last `read` returned fewer bytes than it was offered
    /// (or `WouldBlock`, or EOF): the socket was empty at that moment.
    short_read: bool,
}

impl fmt::Debug for FrameReader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrameReader")
            .field("max_frame", &self.max_frame)
            .field("buffered", &(self.filled - self.start))
            .field("drained", &self.drained())
            .finish()
    }
}

impl FrameReader {
    /// Creates a reader drawing its read buffer from `pool` and rejecting
    /// frames larger than `max_frame` bytes.
    pub fn new(pool: Arc<BufPool>, max_frame: usize) -> Self {
        FrameReader {
            pool,
            max_frame,
            buf: None,
            start: 0,
            filled: 0,
            short_read: false,
        }
    }

    /// Whether bytes of a frame not yet returned have been received — i.e.
    /// whether an EOF now would be a protocol violation.
    pub fn mid_frame(&self) -> bool {
        self.start < self.filled
    }

    /// Whether a [`FrameReader::poll_read`] now could only find the socket
    /// empty: the last `read` returned fewer bytes than it was offered and
    /// nothing is buffered. A caller whose poller has reported nothing for
    /// the socket since that `read` skips the call and saves the `EAGAIN`
    /// syscall: bytes that arrive later are a new readiness event.
    pub fn drained(&self) -> bool {
        self.short_read && !self.mid_frame()
    }

    /// Returns the next frame, reading from `stream` only when the buffer
    /// holds no complete one. Returns after the **first** complete frame
    /// (call again for pipelined frames), after a `read` that left a frame
    /// incomplete and returned fewer bytes than offered (the socket is empty:
    /// no `EAGAIN` probe follows), on `WouldBlock`, or at EOF.
    pub fn poll_read<R: Read>(&mut self, stream: &mut R) -> Result<ReadEvent, FrameError> {
        let mut may_read = true;
        loop {
            let pending = self.filled - self.start;
            // Bytes the frame at `start` spans, prefix included; 4 until the
            // prefix is in.
            let need = match &self.buf {
                Some(buf) if pending >= 4 => {
                    let mut prefix = [0u8; 4];
                    prefix.copy_from_slice(&buf[self.start..self.start + 4]);
                    let len = u32::from_le_bytes(prefix) as usize;
                    if len > self.max_frame {
                        return Err(FrameError::Proto(ProtoError::FrameTooLarge {
                            declared: len,
                            max: self.max_frame,
                        }));
                    }
                    if pending >= 4 + len {
                        let payload = self.start + 4..self.start + 4 + len;
                        let decoded = decode(&buf[payload]);
                        self.consume(4 + len);
                        return Ok(ReadEvent::Frame(decoded?));
                    }
                    4 + len
                }
                _ => 4,
            };
            if !may_read {
                return Ok(ReadEvent::NeedMore);
            }
            let pool = &self.pool;
            let buf = self
                .buf
                .get_or_insert_with(|| pool.take_scratch_owned(READ_CHUNK));
            if buf.len() - self.start < need {
                // The frame does not fit where it starts: move it to the
                // front, and grow past it so the read that completes it can
                // come back short.
                buf.copy_within(self.start..self.filled, 0);
                self.filled = pending;
                self.start = 0;
                if buf.len() < need {
                    buf.resize(need + READ_CHUNK, 0);
                }
            }
            let offered = buf.len() - self.filled;
            match stream.read(&mut buf[self.filled..]) {
                Ok(0) => {
                    self.short_read = true;
                    if pending == 0 {
                        self.consume(0);
                        return Ok(ReadEvent::Closed);
                    }
                    return Err(FrameError::TruncatedFrame {
                        got: pending,
                        expected: need,
                    });
                }
                Ok(n) => {
                    self.filled += n;
                    self.short_read = n < offered;
                    may_read = !self.short_read;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.short_read = true;
                    self.consume(0);
                    return Ok(ReadEvent::NeedMore);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }

    /// Marks `n` buffered bytes as returned, and gives the buffer back to the
    /// pool once none are left.
    fn consume(&mut self, n: usize) {
        self.start += n;
        if self.start == self.filled {
            self.buf = None;
            self.start = 0;
            self.filled = 0;
        }
    }
}

/// What a [`FrameWriter::poll_write`] call produced.
#[derive(Debug, PartialEq, Eq)]
pub enum WriteEvent {
    /// Everything queued has hit the socket.
    Flushed,
    /// The socket would block; wait for writability.
    NeedMore,
}

/// One queued frame: encoded for this connection into a pooled buffer, or a
/// pre-framed reply shared with other connections.
enum Segment {
    Pooled(OwnedPooledBuf),
    Shared(SharedFrame),
}

impl Segment {
    fn bytes(&self) -> &[u8] {
        match self {
            Segment::Pooled(buf) => buf,
            Segment::Shared(frame) => frame.as_bytes(),
        }
    }
}

/// Incremental writer: queues frames and drains them as the socket accepts
/// bytes. A partial write resumes by offset into the front segment, pooled
/// or shared alike; a shared frame stays alive for as long as any writer
/// still holds it queued.
pub struct FrameWriter {
    pool: Arc<BufPool>,
    queue: VecDeque<Segment>,
    /// Bytes of `queue.front()` already written.
    offset: usize,
}

impl fmt::Debug for FrameWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrameWriter")
            .field("queued_frames", &self.queue.len())
            .field("offset", &self.offset)
            .finish()
    }
}

impl FrameWriter {
    /// Creates a writer drawing encode buffers from `pool`.
    pub fn new(pool: Arc<BufPool>) -> Self {
        FrameWriter {
            pool,
            queue: VecDeque::new(),
            offset: 0,
        }
    }

    /// Encodes `message` (with its length prefix) and appends it to the
    /// outbound queue. Call [`FrameWriter::poll_write`] to drain.
    pub fn enqueue(&mut self, message: &Message) {
        let mut buf = self.pool.take_empty_owned();
        encode_frame_into(message, &mut buf);
        self.queue.push_back(Segment::Pooled(buf));
    }

    /// Appends an already framed reply to the outbound queue by reference.
    pub fn enqueue_frame(&mut self, frame: SharedFrame) {
        self.queue.push_back(Segment::Shared(frame));
    }

    /// Whether nothing is queued (all replies flushed).
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Number of queued (fully or partially unwritten) frames.
    pub fn queued_frames(&self) -> usize {
        self.queue.len()
    }

    /// Writes as much as the socket will take without blocking.
    pub fn poll_write<W: Write>(&mut self, stream: &mut W) -> Result<WriteEvent, FrameError> {
        while let Some(front) = self.queue.front().map(Segment::bytes) {
            while self.offset < front.len() {
                match stream.write(&front[self.offset..]) {
                    Ok(0) => {
                        return Err(FrameError::Io(std::io::Error::new(
                            ErrorKind::WriteZero,
                            "socket accepted zero bytes",
                        )))
                    }
                    Ok(n) => self.offset += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(WriteEvent::NeedMore),
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(FrameError::Io(e)),
                }
            }
            self.queue.pop_front();
            self.offset = 0;
        }
        Ok(WriteEvent::Flushed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_proto::auth::AuthToken;
    use crowd_proto::frame::DEFAULT_MAX_FRAME;
    use crowd_proto::message::{
        CheckinAck, CheckinRequest, CheckoutRequest, CheckoutResponse, GradientPayload,
    };
    use proptest::prelude::*;

    fn pool() -> Arc<BufPool> {
        Arc::new(BufPool::default())
    }

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::CheckoutRequest(CheckoutRequest {
                version: 3,
                device_id: 42,
                token: AuthToken::derive(42, 7),
            }),
            Message::CheckoutResponse(CheckoutResponse {
                iteration: 10,
                params: vec![0.5; 257],
                stopped: false,
                round: None,
            }),
            Message::CheckinAck(CheckinAck {
                accepted: true,
                iteration: 11,
                stopped: false,
                deduped: false,
            }),
        ]
    }

    fn encode_frames(messages: &[Message]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for m in messages {
            crowd_proto::frame::write_message(&mut bytes, m).unwrap();
        }
        bytes
    }

    /// A reader that serves a byte stream in caller-chosen chunk sizes, with
    /// a `WouldBlock` between chunks — the worst-case fragmentation a
    /// nonblocking socket can produce.
    struct Fragmented {
        bytes: Vec<u8>,
        pos: usize,
        chunks: Vec<usize>,
        chunk_idx: usize,
        ready: bool,
    }

    impl Fragmented {
        fn new(bytes: Vec<u8>, chunks: Vec<usize>) -> Self {
            Fragmented {
                bytes,
                pos: 0,
                chunks,
                chunk_idx: 0,
                ready: true,
            }
        }

        fn exhausted(&self) -> bool {
            self.pos >= self.bytes.len()
        }
    }

    impl Read for Fragmented {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(std::io::Error::new(ErrorKind::WouldBlock, "not ready"));
            }
            if self.pos >= self.bytes.len() {
                return Ok(0);
            }
            let chunk = self
                .chunks
                .get(self.chunk_idx)
                .copied()
                .unwrap_or(usize::MAX)
                .max(1);
            self.chunk_idx += 1;
            self.ready = false;
            let n = chunk.min(buf.len()).min(self.bytes.len() - self.pos);
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn read_all(reader: &mut FrameReader, stream: &mut Fragmented) -> Vec<Message> {
        let mut out = Vec::new();
        loop {
            match reader.poll_read(stream).unwrap() {
                ReadEvent::Frame(m) => out.push(m),
                ReadEvent::NeedMore => {
                    if stream.exhausted() && !reader.mid_frame() {
                        // a real reactor would wait for readability here
                    }
                    continue;
                }
                ReadEvent::Closed => return out,
            }
        }
    }

    /// A checkout reply larger than the reader's first `read` chunk, so
    /// reading it takes the grow (and, behind another frame, compact) path.
    fn big_checkout(params: usize) -> Message {
        Message::CheckoutResponse(CheckoutResponse {
            iteration: 77,
            params: (0..params).map(|i| i as f64 * 0.5).collect(),
            stopped: false,
            round: None,
        })
    }

    /// A nonblocking socket as the reader sees it: every `read` returns as
    /// many of the bytes that have arrived as fit, `WouldBlock` when none
    /// have, and is counted.
    struct Counting {
        bytes: Vec<u8>,
        pos: usize,
        reads: usize,
    }

    impl Counting {
        fn new(bytes: Vec<u8>) -> Self {
            Counting {
                bytes,
                pos: 0,
                reads: 0,
            }
        }
    }

    impl Read for Counting {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            if self.pos == self.bytes.len() {
                return Err(std::io::Error::new(ErrorKind::WouldBlock, "empty"));
            }
            let n = buf.len().min(self.bytes.len() - self.pos);
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn expect_frame(reader: &mut FrameReader, stream: &mut Counting) -> Message {
        match reader.poll_read(stream) {
            Ok(ReadEvent::Frame(message)) => message,
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn a_whole_frame_costs_one_read_and_no_eagain_probe() {
        let messages = sample_messages();
        for message in &messages {
            let mut stream = Counting::new(encode_frames(std::slice::from_ref(message)));
            let mut reader = FrameReader::new(pool(), DEFAULT_MAX_FRAME);
            assert!(!reader.drained(), "nothing has been read yet");
            assert_eq!(&expect_frame(&mut reader, &mut stream), message);
            assert_eq!(stream.reads, 1);
            assert!(reader.drained(), "a short read leaves the reader drained");
        }
    }

    #[test]
    fn a_frame_buffered_behind_another_costs_no_read() {
        let messages = sample_messages();
        let mut stream = Counting::new(encode_frames(&messages[..2]));
        let mut reader = FrameReader::new(pool(), DEFAULT_MAX_FRAME);
        assert_eq!(expect_frame(&mut reader, &mut stream), messages[0]);
        assert!(reader.mid_frame() && !reader.drained());
        assert_eq!(expect_frame(&mut reader, &mut stream), messages[1]);
        assert_eq!(stream.reads, 1);
        assert!(reader.drained());
    }

    #[test]
    fn a_40_kb_frame_costs_at_most_two_reads() {
        let message = big_checkout(5000);
        let bytes = encode_frames(std::slice::from_ref(&message));
        assert!(bytes.len() > 40_000);
        let mut stream = Counting::new(bytes);
        let mut reader = FrameReader::new(pool(), DEFAULT_MAX_FRAME);
        assert_eq!(expect_frame(&mut reader, &mut stream), message);
        assert!(stream.reads <= 2, "{} reads", stream.reads);
        // The grown buffer offered more than the frame's rest.
        assert!(reader.drained());
    }

    /// A masked round checkin of 500 words: a ~4.1 KB frame, just over the
    /// reader's first chunk.
    fn masked_checkin() -> Message {
        Message::CheckinRequest(CheckinRequest {
            device_id: 3,
            token: AuthToken::derive(3, 7),
            checkout_iteration: 5,
            nonce: 9,
            round_id: 2,
            gradient: GradientPayload::Masked {
                words: (0..500).map(|i| i * 0x9E37_79B9).collect(),
            },
            num_samples: 20,
            error_count: 1,
            label_counts: vec![2; 10],
        })
    }

    #[test]
    fn a_frame_over_the_first_chunk_costs_one_read_after_the_first() {
        let pool = pool();
        let checkin = masked_checkin();
        let bytes = encode_frames(std::slice::from_ref(&checkin));
        assert!(bytes.len() > READ_CHUNK, "{} bytes", bytes.len());
        let mut reader = FrameReader::new(Arc::clone(&pool), DEFAULT_MAX_FRAME);
        let mut writer = FrameWriter::new(Arc::clone(&pool));
        for request in 0..4 {
            let mut stream = Counting::new(bytes.clone());
            assert_eq!(expect_frame(&mut reader, &mut stream), checkin);
            // The first frame grows the buffer once its prefix is in; the
            // grown buffer goes back to the pool and serves the next ones.
            let reads = if request == 0 { 2 } else { 1 };
            assert_eq!(stream.reads, reads, "request {request}");
            assert!(reader.drained());
            // The reply, encoded on the same pool between two requests as a
            // reactor does, must not take the grown buffer.
            writer.enqueue(&sample_messages()[2]);
            let mut sink = Vec::new();
            assert_eq!(writer.poll_write(&mut sink).unwrap(), WriteEvent::Flushed);
        }
    }

    #[test]
    fn oversized_prefix_is_refused_before_a_len_sized_allocation() {
        let pool = pool();
        let max_frame = 1 << 20;
        let mut bytes = ((max_frame + 1) as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0xAB; 64]);
        let mut stream = Counting::new(bytes);
        let mut reader = FrameReader::new(Arc::clone(&pool), max_frame);
        match reader.poll_read(&mut stream) {
            Err(FrameError::Proto(ProtoError::FrameTooLarge { declared, max })) => {
                assert_eq!((declared, max), (max_frame + 1, max_frame));
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        assert_eq!(stream.reads, 1);
        drop(reader);
        assert_eq!(pool.idle_buffers(), 1);
        assert!(pool.take_empty().capacity() < max_frame);
    }

    #[test]
    fn the_read_buffer_returns_to_the_pool_once_consumed() {
        let pool = pool();
        let message = sample_messages().remove(1);
        let bytes = encode_frames(std::slice::from_ref(&message));
        let half = bytes.len() / 2;
        let mut stream = Counting::new(bytes[..half].to_vec());
        let mut reader = FrameReader::new(Arc::clone(&pool), DEFAULT_MAX_FRAME);
        assert!(matches!(
            reader.poll_read(&mut stream),
            Ok(ReadEvent::NeedMore)
        ));
        // Mid-frame, the reader holds the buffer.
        assert_eq!(pool.idle_buffers(), 0);
        assert!(reader.mid_frame());
        stream.bytes.extend_from_slice(&bytes[half..]);
        assert_eq!(expect_frame(&mut reader, &mut stream), message);
        assert_eq!(pool.idle_buffers(), 1);
        // A wake-up that finds nothing takes the buffer and gives it back.
        assert!(matches!(
            reader.poll_read(&mut stream),
            Ok(ReadEvent::NeedMore)
        ));
        assert_eq!(pool.idle_buffers(), 1);
    }

    #[test]
    fn single_byte_fragmentation_reassembles_every_boundary() {
        let messages = sample_messages();
        let bytes = encode_frames(&messages);
        let chunks = vec![1; bytes.len()];
        let mut stream = Fragmented::new(bytes, chunks);
        let mut reader = FrameReader::new(pool(), DEFAULT_MAX_FRAME);
        assert_eq!(read_all(&mut reader, &mut stream), messages);
    }

    #[test]
    fn split_at_every_boundary_of_one_frame() {
        // Exhaustive: for a single frame, split the stream into two reads at
        // every possible byte boundary.
        let messages = vec![sample_messages().remove(0)];
        let bytes = encode_frames(&messages);
        for split in 0..=bytes.len() {
            let mut stream = Fragmented::new(bytes.clone(), vec![split, usize::MAX]);
            let mut reader = FrameReader::new(pool(), DEFAULT_MAX_FRAME);
            assert_eq!(
                read_all(&mut reader, &mut stream),
                messages,
                "failed at split {split}"
            );
        }
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut stream = Fragmented::new(bytes, vec![usize::MAX]);
        let mut reader = FrameReader::new(pool(), 1024);
        loop {
            match reader.poll_read(&mut stream) {
                Ok(ReadEvent::NeedMore) => continue,
                Err(FrameError::Proto(ProtoError::FrameTooLarge { declared, max })) => {
                    assert_eq!(declared, u32::MAX as usize);
                    assert_eq!(max, 1024);
                    break;
                }
                other => panic!("expected FrameTooLarge, got {other:?}"),
            }
        }
    }

    #[test]
    fn mid_frame_disconnect_is_truncation_not_clean_close() {
        let bytes = encode_frames(&sample_messages()[..1]);
        for cut in 1..bytes.len() {
            let mut stream = Fragmented::new(bytes[..cut].to_vec(), vec![usize::MAX]);
            let mut reader = FrameReader::new(pool(), DEFAULT_MAX_FRAME);
            let err = loop {
                match reader.poll_read(&mut stream) {
                    Ok(ReadEvent::NeedMore) => continue,
                    Ok(other) => panic!("cut={cut}: unexpected {other:?}"),
                    Err(e) => break e,
                }
            };
            assert!(
                matches!(err, FrameError::TruncatedFrame { .. }),
                "cut={cut}: expected truncation, got {err:?}"
            );
        }
    }

    #[test]
    fn clean_close_between_frames_is_closed() {
        let bytes = encode_frames(&sample_messages());
        let mut stream = Fragmented::new(bytes, vec![usize::MAX]);
        let mut reader = FrameReader::new(pool(), DEFAULT_MAX_FRAME);
        let got = read_all(&mut reader, &mut stream);
        assert_eq!(got.len(), 3);
        assert!(!reader.mid_frame());
    }

    /// A writer that accepts a bounded number of bytes per call with a
    /// `WouldBlock` in between — forces partial-write resumption.
    struct Throttled {
        accepted: Vec<u8>,
        per_call: usize,
        ready: bool,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(std::io::Error::new(ErrorKind::WouldBlock, "full"));
            }
            self.ready = false;
            let n = self.per_call.min(buf.len()).max(1);
            self.accepted.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Queues `messages`, sending each checkout response whose bit of
    /// `shared_mask` is set through `enqueue_frame` as a pre-framed shared
    /// reply instead of encoding it into a pooled buffer.
    fn enqueue_mixed(writer: &mut FrameWriter, messages: &[Message], shared_mask: u64) {
        for (i, m) in messages.iter().enumerate() {
            match m {
                Message::CheckoutResponse(r) if shared_mask >> (i % 64) & 1 == 1 => {
                    writer.enqueue_frame(SharedFrame::checkout_response(
                        r.iteration,
                        r.stopped,
                        &r.params,
                        r.round.as_ref(),
                    ));
                }
                _ => writer.enqueue(m),
            }
        }
    }

    #[test]
    fn a_parked_writer_keeps_its_shared_frame_alive_and_shares_it() {
        let frame = SharedFrame::checkout_response(3, false, &[0.25; 300], None);
        let expected = frame.as_bytes().to_vec();
        let mut writers: Vec<FrameWriter> = (0..3).map(|_| FrameWriter::new(pool())).collect();
        let mut sinks = Vec::new();
        for writer in &mut writers {
            writer.enqueue_frame(frame.clone());
            let mut sink = Throttled {
                accepted: Vec::new(),
                per_call: 100,
                ready: true,
            };
            // One partial write, then the socket is full: parked mid-frame.
            assert_eq!(writer.poll_write(&mut sink).unwrap(), WriteEvent::NeedMore);
            assert_eq!(sink.accepted.len(), 100);
            sinks.push(sink);
        }
        // The producer lets go (the server moved on to a newer snapshot);
        // the parked writers still drain the same bytes.
        drop(frame);
        for (writer, sink) in writers.iter_mut().zip(&mut sinks) {
            while writer.poll_write(sink).unwrap() != WriteEvent::Flushed {}
            assert!(writer.is_idle());
            assert_eq!(sink.accepted, expected);
        }
    }

    #[test]
    fn partial_writes_resume_and_produce_identical_bytes() {
        let messages = sample_messages();
        let expected = encode_frames(&messages);
        for per_call in [1usize, 3, 7, 64, 4096] {
            let mut writer = FrameWriter::new(pool());
            enqueue_mixed(&mut writer, &messages, per_call as u64);
            assert_eq!(writer.queued_frames(), messages.len());
            let mut sink = Throttled {
                accepted: Vec::new(),
                per_call,
                ready: true,
            };
            loop {
                match writer.poll_write(&mut sink).unwrap() {
                    WriteEvent::Flushed => break,
                    WriteEvent::NeedMore => continue,
                }
            }
            assert!(writer.is_idle());
            assert_eq!(sink.accepted, expected, "per_call={per_call}");
        }
    }

    #[test]
    fn writer_reader_round_trip_through_state_machines() {
        let messages = sample_messages();
        let mut writer = FrameWriter::new(pool());
        for m in &messages {
            writer.enqueue(m);
        }
        let mut sink = Throttled {
            accepted: Vec::new(),
            per_call: 5,
            ready: true,
        };
        while writer.poll_write(&mut sink).unwrap() != WriteEvent::Flushed {}
        let mut stream = Fragmented::new(sink.accepted, vec![9; 10_000]);
        let mut reader = FrameReader::new(pool(), DEFAULT_MAX_FRAME);
        assert_eq!(read_all(&mut reader, &mut stream), messages);
    }

    proptest! {
        /// Any fragmentation of any interleaving of frames reassembles to the
        /// original messages: chunk sizes are adversarial, including 1-byte
        /// reads and chunks spanning frame boundaries.
        #[test]
        fn random_fragmentation_reassembles(
            chunk_sizes in proptest::collection::vec(1usize..64, 1..200),
            reps in 1usize..4,
        ) {
            let mut messages = Vec::new();
            for _ in 0..reps {
                messages.extend(sample_messages());
                messages.push(big_checkout(1000));
            }
            let bytes = encode_frames(&messages);
            let mut stream = Fragmented::new(bytes, chunk_sizes);
            let mut reader = FrameReader::new(pool(), DEFAULT_MAX_FRAME);
            prop_assert_eq!(read_all(&mut reader, &mut stream), messages);
        }

        /// Any per-call write budget drains the queue to exactly the bytes a
        /// blocking writer would have produced — whichever of the checkout
        /// replies in it are pooled encodes and whichever are shared frames.
        #[test]
        fn random_write_throttling_is_lossless(
            per_call in 1usize..128,
            shared_mask in any::<u64>(),
            reps in 1usize..4,
        ) {
            let mut messages = Vec::new();
            for rep in 0..reps {
                messages.extend(sample_messages());
                messages.push(Message::CheckoutResponse(CheckoutResponse {
                    iteration: rep as u64,
                    params: vec![-1.5; 3 + 40 * rep],
                    stopped: rep % 2 == 1,
                    round: None,
                }));
            }
            let expected = encode_frames(&messages);
            let mut writer = FrameWriter::new(pool());
            enqueue_mixed(&mut writer, &messages, shared_mask);
            let mut sink = Throttled { accepted: Vec::new(), per_call, ready: true };
            loop {
                match writer.poll_write(&mut sink).unwrap() {
                    WriteEvent::Flushed => break,
                    WriteEvent::NeedMore => continue,
                }
            }
            prop_assert_eq!(sink.accepted, expected);
        }
    }
}
