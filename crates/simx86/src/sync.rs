//! The workspace's locks: `std::sync` locks whose guards come back
//! directly.  A poisoned lock is entered anyway: everything behind
//! these locks is updated in steps that each leave it valid, and the
//! tests panic inside critical sections on purpose (the Busy fail-fast
//! and panic-safety regressions) and then keep using the machine.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{self, PoisonError};

pub use std::sync::MutexGuard;

/// A mutual-exclusion lock that ignores poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// A new unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Block until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reader-writer lock that ignores poisoning.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// A new unlocked lock.
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Block until shared access is held.
    pub fn read(&self) -> sync::RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Block until exclusive access is held.
    pub fn write(&self) -> sync::RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Commit `new` to a cell that only the thread driving CPU `cpu` writes
/// (DESIGN.md "Who may write a CPU"); `seen` is the value that thread
/// just loaded from it.  Release builds store.  Debug builds
/// compare-and-exchange, and a value that moved in between is a second
/// writer — a foreign thread on the owner path — so they panic naming
/// the CPU instead of silently losing one of the two updates.
#[inline]
pub fn owner_store(cell: &AtomicU64, seen: u64, new: u64, cpu: usize, what: &str) {
    #[cfg(debug_assertions)]
    if let Err(found) = cell.compare_exchange(seen, new, Ordering::Relaxed, Ordering::Relaxed) {
        // volint::allow(SWITCH-PANIC): debug builds only, and only on a data race the release build would lose cycles to
        panic!(
            "CPU {cpu}: {what} moved from {seen} to {found} under its owner's update: \
             a thread that does not drive this CPU wrote owner state"
        );
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = (seen, cpu, what);
        cell.store(new, Ordering::Relaxed);
    }
}
