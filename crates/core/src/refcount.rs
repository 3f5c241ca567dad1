//! Reference counting of virtualization-object execution (§5.1.1).
//!
//! "Mercury tracks the execution of virtualization sensitive code by
//! reference counting the execution of a virtualization object on its
//! entry and exit.  Mercury applies a mode switch only when the
//! reference counter reaches zero."
//!
//! The count is shared between the native and virtual VO so a switch
//! request is gated against *any* in-flight sensitive operation.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The shared entry/exit counter.
#[derive(Debug, Default)]
pub struct VoRefCount {
    count: AtomicUsize,
}

impl VoRefCount {
    /// A zeroed counter.
    pub fn new() -> Arc<VoRefCount> {
        Arc::new(VoRefCount::default())
    }

    /// Enter a sensitive section; the guard exits on drop.  The guard
    /// borrows the counter: the paper's one add on entry and one on
    /// exit are the only shared writes a section costs.
    pub fn enter(&self) -> VoGuard<'_> {
        self.count.fetch_add(1, Ordering::AcqRel);
        VoGuard { counter: self }
    }

    /// Current in-flight count.
    pub fn current(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }

    /// Is a mode switch safe right now?
    pub fn is_idle(&self) -> bool {
        self.current() == 0
    }
}

/// RAII guard over a sensitive section.
pub struct VoGuard<'a> {
    counter: &'a VoRefCount,
}

impl Drop for VoGuard<'_> {
    fn drop(&mut self) {
        self.counter.count.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_counts_entry_and_exit() {
        let rc = VoRefCount::new();
        assert!(rc.is_idle());
        {
            let _a = rc.enter();
            assert_eq!(rc.current(), 1);
            {
                let _b = rc.enter();
                assert_eq!(rc.current(), 2);
                assert!(!rc.is_idle());
            }
            assert_eq!(rc.current(), 1);
        }
        assert!(rc.is_idle());
    }

    #[test]
    fn guard_drop_survives_panicking_section() {
        // A panic inside a sensitive section must still run the guard's
        // Drop, or the counter would stay pinned and every future mode
        // switch would be deferred forever.
        let rc = VoRefCount::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = rc.enter();
            assert_eq!(rc.current(), 1);
            panic!("sensitive section blew up");
        }));
        assert!(result.is_err());
        assert!(
            rc.is_idle(),
            "guard drop must restore idleness after a panic"
        );
        // And the counter is still usable afterwards.
        let _g = rc.enter();
        assert_eq!(rc.current(), 1);
    }

    #[test]
    fn concurrent_guards_balance() {
        let rc = VoRefCount::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let rc = Arc::clone(&rc);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        let _g = rc.enter();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(rc.is_idle());
    }
}
