//! A small pool of reusable byte buffers for frame I/O.
//!
//! Every framed message used to allocate a fresh `Vec<u8>` for its payload on
//! the read side and a fresh `BytesMut` on the write side. Under sustained
//! checkin traffic that is two heap round-trips per message of up to
//! megabytes each. A [`BufPool`] keeps a shelf of previously used buffers;
//! [`BufPool::take`] hands one out (zero-filled to the requested length) and
//! the [`PooledBuf`] guard returns it on drop, so steady-state frame handling
//! touches the allocator only while a buffer grows to a new high-water mark.
//!
//! The pool is a plain mutex around a `Vec` — taking or returning a buffer is
//! a few nanoseconds, far below the cost of the socket read it serves, and the
//! shelf is bounded in both buffer count and per-buffer capacity, so an idle
//! server does not hold peak-burst memory forever: a buffer grown past
//! `MAX_POOLED_BYTES` (e.g. by one maximum-size frame from a hostile peer)
//! is dropped on return instead of being parked.

use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, PoisonError};

/// Default bound on pooled buffers (per pool, not per connection).
const DEFAULT_MAX_BUFFERS: usize = 32;

/// Largest buffer capacity worth parking on the shelf (4 MiB ≈ a 500k-param
/// dense gradient). Rarer, larger frames fall back to plain allocation, so a
/// burst of maximum-size (16 MiB) frames cannot pin `max_buffers ×` that
/// amount of heap for the server's lifetime.
const MAX_POOLED_BYTES: usize = 4 * 1024 * 1024;

/// A bounded shelf of reusable byte buffers.
#[derive(Debug)]
pub struct BufPool {
    // audit:lock(proto.buf-pool, 80)
    shelf: Mutex<Vec<Vec<u8>>>,
    max_buffers: usize,
}

impl Default for BufPool {
    fn default() -> Self {
        BufPool::new(DEFAULT_MAX_BUFFERS)
    }
}

impl BufPool {
    /// Creates a pool retaining at most `max_buffers` idle buffers.
    pub fn new(max_buffers: usize) -> Self {
        BufPool {
            shelf: Mutex::new(Vec::new()),
            max_buffers,
        }
    }

    /// Takes a buffer of exactly `len` zero-filled bytes, reusing pooled
    /// storage when available.
    pub fn take(&self, len: usize) -> PooledBuf<'_> {
        let mut buf = self.pop();
        buf.clear();
        buf.resize(len, 0);
        PooledBuf { pool: self, buf }
    }

    /// Takes an empty buffer (length 0, capacity whatever the pooled storage
    /// had), for callers that append — e.g. encoding a message.
    pub fn take_empty(&self) -> PooledBuf<'_> {
        let mut buf = self.pop();
        buf.clear();
        PooledBuf { pool: self, buf }
    }

    fn pop(&self) -> Vec<u8> {
        // A poisoned shelf only means another thread panicked mid-push; the
        // Vec is still structurally sound, so keep serving buffers rather
        // than cascading the panic into every connection.
        self.shelf
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_default()
    }

    fn put(&self, buf: Vec<u8>) {
        if buf.capacity() > MAX_POOLED_BYTES {
            return;
        }
        let mut shelf = self.shelf.lock().unwrap_or_else(PoisonError::into_inner);
        if shelf.len() < self.max_buffers {
            shelf.push(buf);
        }
    }

    /// Like [`BufPool::take`], but the returned guard owns an [`Arc`] handle
    /// to the pool instead of borrowing it, so it can be stored in long-lived
    /// state (e.g. a reactor connection that accumulates a frame across many
    /// readiness events).
    pub fn take_owned(self: &Arc<Self>, len: usize) -> OwnedPooledBuf {
        let mut buf = self.pop();
        buf.clear();
        buf.resize(len, 0);
        OwnedPooledBuf {
            pool: Arc::clone(self),
            buf,
        }
    }

    /// Owned counterpart of [`BufPool::take_empty`].
    pub fn take_empty_owned(self: &Arc<Self>) -> OwnedPooledBuf {
        let mut buf = self.pop();
        buf.clear();
        OwnedPooledBuf {
            pool: Arc::clone(self),
            buf,
        }
    }

    /// Number of buffers currently idle on the shelf.
    pub fn idle_buffers(&self) -> usize {
        self.shelf
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
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
        self.pool.put(std::mem::take(&mut self.buf));
    }
}

/// A buffer checked out of an `Arc`-shared [`BufPool`]; returns to the pool
/// on drop. Unlike [`PooledBuf`] it carries no borrow of the pool, at the
/// cost of one reference-count bump per checkout.
#[derive(Debug)]
pub struct OwnedPooledBuf {
    pool: Arc<BufPool>,
    buf: Vec<u8>,
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
        self.pool.put(std::mem::take(&mut self.buf));
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
        let buf = pool.take_owned(16);
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
    fn owned_buffers_are_reused_zeroed() {
        let pool = std::sync::Arc::new(BufPool::new(4));
        {
            let mut buf = pool.take_owned(8);
            buf[0] = 0xAA;
        }
        assert_eq!(pool.idle_buffers(), 1);
        let again = pool.take_owned(8);
        assert!(again.iter().all(|&b| b == 0));
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
}
