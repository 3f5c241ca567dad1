//! The workspace's locks: `std::sync` locks whose guards come back
//! directly.  A poisoned lock is entered anyway: everything behind
//! these locks is updated in steps that each leave it valid, and the
//! tests panic inside critical sections on purpose (the Busy fail-fast
//! and panic-safety regressions) and then keep using the machine.
//!
//! Also the one way to read a swapped pointer: a [`Published`] slot and
//! the [`SlotCache`] its hot-path readers keep.

use std::cell::RefCell;
use std::rc::Rc;
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

/// A slot that is swapped a few times a second and read on every
/// syscall, page fault or dispatch: a kernel's VO and drivers, a CPU's
/// gate table (DESIGN.md §14b).  A writer stores under the lock and,
/// still holding it, sets a fresh stamp (`Release`); a [`SlotCache`]
/// takes the lock only when the stamp moved.
pub struct Published<V> {
    value: RwLock<V>,
    stamp: AtomicU64,
}

/// Every [`Published`] stamp comes from this one counter, so a stamp
/// names one value of one slot for the life of the process: a copy kept
/// by its stamp alone cannot be taken for another slot's.
static STAMPS: AtomicU64 = AtomicU64::new(1);

impl<V: Clone> Published<V> {
    /// A slot holding `value`, under a stamp no other slot has.
    pub fn new(value: V) -> Self {
        Published {
            value: RwLock::new(value),
            stamp: AtomicU64::new(STAMPS.fetch_add(1, Ordering::Relaxed)),
        }
    }

    /// The value now: a lock and a clone (the cold readers' path).
    pub fn get(&self) -> V {
        self.value.read().clone()
    }

    /// Swap in `value`.
    pub fn publish(&self, value: V) {
        self.publish_if(|_| true, value);
    }

    /// Swap in `value` only if `swap` holds of the value in place: a
    /// publish that swaps nothing leaves the stamp, so no reader
    /// re-reads.  The old value drops after the lock is released: its
    /// drop may run code that reads this slot.
    pub fn publish_if(&self, swap: impl FnOnce(&V) -> bool, value: V) {
        let mut slot = self.value.write();
        if !swap(&slot) {
            return;
        }
        let old = std::mem::replace(&mut *slot, value);
        self.stamp
            .store(STAMPS.fetch_add(1, Ordering::Relaxed), Ordering::Release);
        drop(slot);
        drop(old);
    }
}

/// A reader's copy of a [`Published`] slot's value, as of the stamp it
/// was read at, for the one host thread that holds it (a `Session`, a
/// `thread_local!`).  A reader that sees a new stamp then reads at
/// least that value; one that sees the old stamp uses what it would
/// have read a moment earlier.
pub struct SlotCache<V>(RefCell<Option<(u64, Rc<V>)>>);

impl<V> Default for SlotCache<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> SlotCache<V> {
    /// A cache that has read nothing yet.
    pub const fn new() -> Self {
        SlotCache(RefCell::new(None))
    }

    /// Drop the copy: it may hold the last reference to a machine.
    pub fn clear(&self) {
        let _old = self.0.take();
    }
}

impl<V: Clone> SlotCache<V> {
    /// `slot`'s value: one `Acquire` load of its stamp, and the lock
    /// only when the stamp moved since this cache last read (or it last
    /// read another slot).  The `Rc` keeps the value for the caller
    /// even if the code it runs publishes into the same slot.
    pub fn read(&self, slot: &Published<V>) -> Rc<V> {
        let stamp = slot.stamp.load(Ordering::Acquire);
        if let Some((seen, value)) = &*self.0.borrow() {
            if *seen == stamp {
                return Rc::clone(value);
            }
        }
        self.refresh(slot)
    }

    /// The miss path of [`SlotCache::read`], out of line so that the
    /// hit path inlines into its callers.
    #[cold]
    #[inline(never)]
    fn refresh(&self, slot: &Published<V>) -> Rc<V> {
        let (stamp, value) = {
            let value = slot.value.read();
            (slot.stamp.load(Ordering::Relaxed), Rc::new(value.clone()))
        };
        // The old copy drops after the borrow ends: it may hold the last
        // reference to a machine, or to a table whose handlers are
        // arbitrary code.
        let _old = self.0.replace(Some((stamp, Rc::clone(&value))));
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Weak};

    #[test]
    fn two_slots_never_share_a_stamp() {
        let slots: Vec<Published<u32>> = (0..4).map(Published::new).collect();
        for slot in &slots[..2] {
            slot.publish(7);
        }
        let mut stamps: Vec<u64> = slots
            .iter()
            .map(|s| s.stamp.load(Ordering::Relaxed))
            .collect();
        stamps.sort_unstable();
        stamps.dedup();
        assert_eq!(stamps.len(), slots.len());
        // So one cache reading two slots holding equal values in turn
        // never serves one slot's copy for the other.
        let (a, b) = (Published::new(Arc::new(1)), Published::new(Arc::new(1)));
        let cache = SlotCache::new();
        for _ in 0..2 {
            assert!(Arc::ptr_eq(&cache.read(&a), &a.get()));
            assert!(Arc::ptr_eq(&cache.read(&b), &b.get()));
        }
    }

    #[test]
    fn a_copy_rereads_exactly_when_its_slot_is_published() {
        let slot = Published::new(1);
        let cache = SlotCache::new();
        let first = cache.read(&slot);
        assert!(Rc::ptr_eq(&first, &cache.read(&slot)));
        slot.publish(2);
        let second = cache.read(&slot);
        assert!(!Rc::ptr_eq(&first, &second));
        assert_eq!((*first, *second), (1, 2));
        // Publishing the value in place is a publish all the same.
        slot.publish(2);
        assert!(!Rc::ptr_eq(&second, &cache.read(&slot)));
    }

    #[test]
    fn a_publish_that_swaps_nothing_leaves_the_stamp() {
        let slot = Published::new(1);
        let cache = SlotCache::new();
        let before = cache.read(&slot);
        slot.publish_if(|&v| v == 0, 2);
        assert!(Rc::ptr_eq(&before, &cache.read(&slot)));
        assert_eq!(slot.get(), 1);
        slot.publish_if(|&v| v == 1, 2);
        assert_eq!(*cache.read(&slot), 2);
    }

    #[test]
    fn a_copy_held_across_a_publish_keeps_the_old_value() {
        let old = Arc::new("old");
        let gone: Weak<&str> = Arc::downgrade(&old);
        let slot = Published::new(old);
        let cache = SlotCache::new();
        let held = cache.read(&slot);
        slot.publish(Arc::new("new"));
        assert_eq!(**cache.read(&slot), "new");
        // Neither the slot nor the cache holds it now; the copy does.
        assert_eq!(gone.upgrade().as_deref(), Some(&"old"));
        assert_eq!(**held, "old");
        drop(held);
        assert!(gone.upgrade().is_none());
        cache.clear();
    }
}
