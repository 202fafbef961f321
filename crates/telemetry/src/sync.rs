//! The workspace's one lock type: non-poisoning wrappers over `std::sync`.
//!
//! A thread that panics while holding one of these locks simply releases it;
//! the next holder gets the data as it was left. Every lock in the workspace
//! guards state whose invariants hold between statements (a queue, a
//! snapshot pointer, the core server), so a poisoned flag would only turn
//! one thread's panic into every later thread's panic. `crowd-proto` stays
//! dependency-free and keeps its buffer pool on `std::sync` directly.
//!
//! Each field holding one of these types registers its place in the global
//! acquisition order with an `// audit:lock(name, rank)` annotation, checked
//! by crowd-audit's `lock-order` rule.

use std::sync::{self, PoisonError, TryLockError};

/// A mutual-exclusion lock whose `lock` never reports poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    // audit:allow(lock-order, the wrapped std lock; the field holding this type carries the rank)
    inner: sync::Mutex<T>,
}

/// The guard [`Mutex::lock`] and [`Mutex::try_lock`] hand out.
pub type MutexGuard<'a, T> = sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// A mutex protecting `value`.
    pub fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Acquires the lock, blocking until it is free.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires the lock if it is free right now; `None` if another thread
    /// holds it. A lock left poisoned by a panic counts as free.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Consumes the mutex and returns the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reader-writer lock with the same non-poisoning contract.
#[derive(Debug)]
pub struct RwLock<T> {
    // audit:allow(lock-order, the wrapped std lock; the field holding this type carries the rank)
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// A lock protecting `value`.
    pub fn new(value: T) -> Self {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }

    /// Acquires a shared read lock, blocking while a writer holds it.
    pub fn read(&self) -> sync::RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires the exclusive write lock, blocking until it is free.
    pub fn write(&self) -> sync::RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Runs `hold` on another thread; `hold` panics with the lock held.
    fn poison<L: Send + Sync + 'static>(lock: &Arc<L>, hold: fn(&L)) {
        let lock = Arc::clone(lock);
        assert!(std::thread::spawn(move || hold(&lock)).join().is_err());
    }

    #[test]
    fn lock_is_not_poisoned_by_panics() {
        let m = Arc::new(Mutex::new(5));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*m.lock(), 5);
    }

    /// `try_lock` on a poisoned mutex hands the data out: the core lock's
    /// guard only ever tries, and a panic must not wedge it shut.
    #[test]
    fn try_lock_after_a_panicking_holder_returns_the_data() {
        let m = Arc::new(Mutex::new(7));
        poison(&m, |m| {
            let _g = m.lock();
            panic!("poison attempt");
        });
        assert!(m.inner.is_poisoned());
        let mut guard = m.try_lock().expect("a poisoned mutex is free, not held");
        *guard += 1;
        drop(guard);
        assert_eq!(*m.lock(), 8);
    }

    #[test]
    fn rwlock_reads_and_writes_after_a_panicking_writer() {
        let l = Arc::new(RwLock::new(vec![1, 2]));
        poison(&l, |l| {
            let mut g = l.write();
            g.push(3);
            panic!("poison attempt");
        });
        assert!(l.inner.is_poisoned());
        assert_eq!(*l.read(), [1, 2, 3]);
        l.write().push(4);
        assert_eq!(*l.read(), [1, 2, 3, 4]);
    }
}
