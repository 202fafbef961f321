//! A small pool of reusable byte buffers for frame I/O.
//!
//! Every framed message used to allocate a fresh `Vec<u8>` for its payload on
//! the read side and a fresh `BytesMut` on the write side. Under sustained
//! checkin traffic that is two heap round-trips per message of up to
//! megabytes each. A [`BufPool`] keeps previously used buffers on two
//! shelves and hands them out again, and the [`PooledBuf`] /
//! [`OwnedPooledBuf`] guards return them on drop, so steady-state frame
//! handling touches the allocator only while a buffer grows to a new
//! high-water mark:
//!
//! * the **plain** shelf serves [`BufPool::take`] (zero-filled to the
//!   requested length) and the appenders, [`BufPool::take_empty`] and
//!   [`BufPool::take_empty_owned`], which clear what they take;
//! * the **scratch** shelf serves [`BufPool::take_scratch_owned`], for a
//!   socket reader that overwrites before it reads. Its buffers keep the
//!   length (and bytes) they were returned with, so a reader gets back a
//!   buffer already as long as the frames it last read: no zero-fill, and
//!   no second `read` for a frame that outgrew the first chunk. Appenders
//!   never take from it, since clearing a buffer forfeits its length.
//!
//! The pool is a plain mutex around both shelves — taking or returning a
//! buffer is a few nanoseconds, far below the cost of the socket read it
//! serves. The pool is bounded in idle buffers (`max_buffers`, counted across
//! both shelves; a full pool makes room for a returned buffer by dropping
//! one of the other shelf's, so neither kind is starved) and in per-buffer
//! capacity, so an idle server does not hold peak-burst memory forever: a
//! buffer grown past `MAX_POOLED_BYTES` (e.g. by one maximum-size frame from
//! a hostile peer) is dropped on return instead of being parked.

use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Default bound on pooled buffers (per pool, not per connection).
const DEFAULT_MAX_BUFFERS: usize = 32;

/// Largest buffer capacity worth parking on the shelf (4 MiB ≈ a 500k-param
/// dense gradient). Rarer, larger frames fall back to plain allocation, so a
/// burst of maximum-size (16 MiB) frames cannot pin `max_buffers ×` that
/// amount of heap for the server's lifetime.
const MAX_POOLED_BYTES: usize = 4 * 1024 * 1024;

/// Which shelf a buffer is taken from and returned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shelf {
    Plain,
    Scratch,
}

/// The idle buffers, by shelf.
#[derive(Debug, Default)]
struct Shelves {
    plain: Vec<Vec<u8>>,
    scratch: Vec<Vec<u8>>,
}

impl Shelves {
    fn shelf(&mut self, shelf: Shelf) -> &mut Vec<Vec<u8>> {
        match shelf {
            Shelf::Plain => &mut self.plain,
            Shelf::Scratch => &mut self.scratch,
        }
    }

    fn len(&self) -> usize {
        self.plain.len() + self.scratch.len()
    }
}

/// A bounded pair of shelves of reusable byte buffers.
#[derive(Debug)]
pub struct BufPool {
    // audit:lock(proto.buf-pool, 80)
    shelves: Mutex<Shelves>,
    max_buffers: usize,
}

impl Default for BufPool {
    fn default() -> Self {
        BufPool::new(DEFAULT_MAX_BUFFERS)
    }
}

impl BufPool {
    /// Creates a pool retaining at most `max_buffers` idle buffers, across
    /// both shelves.
    pub fn new(max_buffers: usize) -> Self {
        BufPool {
            shelves: Mutex::new(Shelves::default()),
            max_buffers,
        }
    }

    /// Takes a buffer of exactly `len` zero-filled bytes, reusing pooled
    /// storage when available.
    pub fn take(&self, len: usize) -> PooledBuf<'_> {
        let mut buf = self.pop(Shelf::Plain);
        buf.clear();
        buf.resize(len, 0);
        PooledBuf { pool: self, buf }
    }

    /// Takes an empty buffer (length 0, capacity whatever the pooled storage
    /// had), for callers that append — e.g. encoding a message.
    pub fn take_empty(&self) -> PooledBuf<'_> {
        let mut buf = self.pop(Shelf::Plain);
        buf.clear();
        PooledBuf { pool: self, buf }
    }

    fn lock_shelves(&self) -> MutexGuard<'_, Shelves> {
        // A poisoned lock only means another thread panicked mid-push; the
        // shelves are still structurally sound, so keep serving buffers
        // rather than cascading the panic into every connection.
        self.shelves.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pops from `shelf`; a scratch taker falls back to the plain shelf.
    fn pop(&self, shelf: Shelf) -> Vec<u8> {
        let mut shelves = self.lock_shelves();
        let buf = match shelf {
            Shelf::Plain => shelves.plain.pop(),
            Shelf::Scratch => shelves.scratch.pop().or_else(|| shelves.plain.pop()),
        };
        buf.unwrap_or_default()
    }

    fn put(&self, buf: Vec<u8>, shelf: Shelf) {
        if buf.capacity() > MAX_POOLED_BYTES {
            return;
        }
        let mut shelves = self.lock_shelves();
        if shelves.len() >= self.max_buffers {
            // Full: the returned buffer displaces one of the other kind, if
            // there is one, so a burst of one kind cannot lock the other out.
            let other = match shelf {
                Shelf::Plain => Shelf::Scratch,
                Shelf::Scratch => Shelf::Plain,
            };
            if shelves.shelf(other).pop().is_none() {
                return;
            }
        }
        shelves.shelf(shelf).push(buf);
    }

    /// Owned counterpart of [`BufPool::take_empty`]: the returned guard owns
    /// an [`Arc`] handle to the pool instead of borrowing it, so it can be
    /// stored in long-lived state (e.g. a reactor connection's write queue).
    pub fn take_empty_owned(self: &Arc<Self>) -> OwnedPooledBuf {
        let mut buf = self.pop(Shelf::Plain);
        buf.clear();
        OwnedPooledBuf {
            pool: Arc::clone(self),
            buf,
            shelf: Shelf::Plain,
        }
    }

    /// Takes an owned buffer at least `min_len` bytes long whose bytes are
    /// left as its last user wrote them: only growth past the pooled length
    /// is zero-filled. For a caller that overwrites before it reads — a frame
    /// reader filling it from a socket across readiness events — so reuse
    /// costs no memset. The buffer returns to the scratch shelf at whatever
    /// length its user left it, and the next scratch taker gets it so.
    pub fn take_scratch_owned(self: &Arc<Self>, min_len: usize) -> OwnedPooledBuf {
        let mut buf = self.pop(Shelf::Scratch);
        if buf.len() < min_len {
            buf.resize(min_len, 0);
        }
        OwnedPooledBuf {
            pool: Arc::clone(self),
            buf,
            shelf: Shelf::Scratch,
        }
    }

    /// Number of buffers currently idle, on both shelves.
    pub fn idle_buffers(&self) -> usize {
        self.lock_shelves().len()
    }
}

/// A buffer checked out of a [`BufPool`]; returns to the pool on drop.
#[derive(Debug)]
pub struct PooledBuf<'a> {
    pool: &'a BufPool,
    buf: Vec<u8>,
}

impl Deref for PooledBuf<'_> {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl DerefMut for PooledBuf<'_> {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

impl Drop for PooledBuf<'_> {
    fn drop(&mut self) {
        self.pool.put(std::mem::take(&mut self.buf), Shelf::Plain);
    }
}

/// A buffer checked out of an `Arc`-shared [`BufPool`]; returns to the pool
/// on drop. Unlike [`PooledBuf`] it carries no borrow of the pool, at the
/// cost of one reference-count bump per checkout.
#[derive(Debug)]
pub struct OwnedPooledBuf {
    pool: Arc<BufPool>,
    buf: Vec<u8>,
    shelf: Shelf,
}

impl Deref for OwnedPooledBuf {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl DerefMut for OwnedPooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

impl Drop for OwnedPooledBuf {
    fn drop(&mut self) {
        self.pool.put(std::mem::take(&mut self.buf), self.shelf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_returned_and_reused() {
        let pool = BufPool::new(4);
        assert_eq!(pool.idle_buffers(), 0);
        {
            let buf = pool.take(16);
            assert_eq!(buf.len(), 16);
            assert!(buf.iter().all(|&b| b == 0));
        }
        assert_eq!(pool.idle_buffers(), 1);
        {
            let mut buf = pool.take(8);
            assert_eq!(buf.len(), 8);
            // The reused buffer arrives zeroed even after being dirtied.
            buf[0] = 0xFF;
        }
        let again = pool.take(8);
        assert!(again.iter().all(|&b| b == 0));
        drop(again);
        assert_eq!(pool.idle_buffers(), 1);
    }

    #[test]
    fn take_empty_supports_appending() {
        let pool = BufPool::default();
        {
            let mut buf = pool.take_empty();
            buf.extend_from_slice(b"hello");
            assert_eq!(&buf[..], b"hello");
        }
        let reused = pool.take_empty();
        assert!(reused.is_empty());
        assert!(reused.capacity() >= 5, "capacity is retained across reuse");
    }

    #[test]
    fn shelf_is_bounded() {
        let pool = BufPool::new(2);
        let a = pool.take(4);
        let b = pool.take(4);
        let c = pool.take(4);
        drop(a);
        drop(b);
        drop(c);
        assert_eq!(pool.idle_buffers(), 2);
    }

    #[test]
    fn oversized_buffers_are_dropped_not_pooled() {
        let pool = BufPool::new(4);
        {
            let _big = pool.take(MAX_POOLED_BYTES + 1);
        }
        // The over-limit buffer was dropped on return, not parked.
        assert_eq!(pool.idle_buffers(), 0);
        {
            let _ok = pool.take(MAX_POOLED_BYTES / 2);
        }
        assert_eq!(pool.idle_buffers(), 1);
    }

    /// A zero-capacity pool must degrade to plain allocation: every take
    /// works, nothing is ever parked, and drops never panic.
    #[test]
    fn zero_capacity_pool_degrades_to_plain_allocation() {
        let pool = BufPool::new(0);
        for len in [0usize, 1, 64, 4096] {
            let buf = pool.take(len);
            assert_eq!(buf.len(), len);
            assert!(buf.iter().all(|&b| b == 0));
            drop(buf);
            assert_eq!(pool.idle_buffers(), 0, "a 0-capacity shelf parked a buffer");
        }
        let mut appender = pool.take_empty();
        appender.extend_from_slice(b"still works");
        drop(appender);
        assert_eq!(pool.idle_buffers(), 0);
    }

    /// The capacity cap must hold under concurrent put-back: many threads
    /// returning buffers at once can never grow the shelf past `max_buffers`,
    /// and the pool stays usable afterwards.
    #[test]
    fn capacity_cap_holds_under_concurrent_put_back() {
        const CAP: usize = 2;
        const THREADS: usize = 8;
        const ROUNDS: usize = 200;
        let pool = std::sync::Arc::new(BufPool::new(CAP));
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(THREADS));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let pool = std::sync::Arc::clone(&pool);
            let barrier = std::sync::Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                for round in 0..ROUNDS {
                    // Hold a few buffers at once so drops race across threads.
                    let a = pool.take(16 + t);
                    let b = pool.take(32 + round % 7);
                    assert!(a.iter().all(|&x| x == 0));
                    drop(b);
                    drop(a);
                    // The cap is a hard invariant at every instant, not just
                    // at the end.
                    assert!(
                        pool.idle_buffers() <= CAP,
                        "shelf grew past its capacity under concurrent put-back"
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(pool.idle_buffers() <= CAP);
        // Still functional: reuse comes off the shelf, zeroed.
        let buf = pool.take(8);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn owned_buffers_return_to_the_pool_and_outlive_borrows() {
        let pool = std::sync::Arc::new(BufPool::new(4));
        let buf = pool.take_scratch_owned(16);
        assert_eq!(buf.len(), 16);
        assert!(buf.iter().all(|&b| b == 0));
        // The owned guard keeps the pool alive on its own.
        let mut appender = pool.take_empty_owned();
        appender.extend_from_slice(b"abc");
        drop(pool);
        drop(buf);
        drop(appender);
    }

    #[test]
    fn scratch_buffers_are_reused_without_a_fill() {
        let pool = std::sync::Arc::new(BufPool::new(4));
        {
            let mut buf = pool.take_scratch_owned(8);
            buf[0] = 0xAA;
        }
        assert_eq!(pool.idle_buffers(), 1);
        // Reuse keeps the pooled length and bytes...
        let again = pool.take_scratch_owned(4);
        assert_eq!((again.len(), again[0]), (8, 0xAA));
        drop(again);
        // ...and zero-fills only what it grows by.
        let grown = pool.take_scratch_owned(16);
        assert_eq!(grown.len(), 16);
        assert_eq!(grown[0], 0xAA);
        assert!(grown[8..].iter().all(|&b| b == 0));
    }

    #[test]
    fn pool_is_shareable_across_threads() {
        let pool = std::sync::Arc::new(BufPool::default());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let pool = std::sync::Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                for len in [1usize, 100, 10_000] {
                    let buf = pool.take(len);
                    assert_eq!(buf.len(), len);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn scratch_buffers_keep_their_length_across_an_appender_round_trip() {
        let pool = std::sync::Arc::new(BufPool::new(4));
        {
            let mut buf = pool.take_scratch_owned(8);
            buf[7] = 0xAB;
        }
        // An appender on the same pool clears what it takes; it must not
        // take (and shorten) the scratch buffer.
        {
            let mut appender = pool.take_empty_owned();
            appender.extend_from_slice(b"reply");
        }
        let again = pool.take_scratch_owned(4);
        assert_eq!((again.len(), again[7]), (8, 0xAB), "refilled or shortened");
        drop(again);
        // The appender's buffer went back to its own shelf, capacity intact.
        assert!(pool.take_empty().capacity() >= 5);
    }

    #[test]
    fn idle_buffers_counts_both_shelves() {
        let pool = std::sync::Arc::new(BufPool::new(8));
        let scratch = pool.take_scratch_owned(16);
        let owned = pool.take_empty_owned();
        let plain = pool.take(4);
        drop((scratch, owned, plain));
        assert_eq!(pool.idle_buffers(), 3);
    }

    #[test]
    fn the_bound_is_total_across_shelves() {
        let pool = std::sync::Arc::new(BufPool::new(2));
        let held: Vec<OwnedPooledBuf> = (0..3)
            .map(|_| pool.take_scratch_owned(16))
            .chain((0..3).map(|_| pool.take_empty_owned()))
            .collect();
        drop(held);
        assert_eq!(pool.idle_buffers(), 2);
        // A full pool of scratch buffers still keeps an appender's buffer:
        // it displaces a scratch one instead of being dropped.
        let pool = std::sync::Arc::new(BufPool::new(2));
        drop((pool.take_scratch_owned(16), pool.take_scratch_owned(16)));
        {
            let mut appender = pool.take_empty_owned();
            appender.extend_from_slice(&[1; 100]);
        }
        assert_eq!(pool.idle_buffers(), 2);
        assert!(
            pool.take_empty().capacity() >= 100,
            "the appender's buffer was dropped"
        );
        assert_eq!(pool.take_scratch_owned(0).len(), 16);
    }
}
