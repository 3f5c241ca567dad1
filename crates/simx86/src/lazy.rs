//! Lazy frame-validation pending set — the hardware half of Mercury's
//! fault-driven attach.
//!
//! Under `TrackingStrategy::LazyValidate` (and as dirty-set overflow
//! protection for `DirtyRecompute`) the attach path admits the guest
//! after synchronously revalidating only the *kernel-critical* dirty
//! frames, and enqueues the remaining dirty frames here.  The MMU then
//! consults the set on every TLB-miss walk: the first guest touch of a
//! deferred frame takes a validation fault that the resident VMM
//! handles below the guest — the frame is revalidated, charged
//! [`costs::LAZY_VALIDATE_FAULT`] + [`costs::PGINFO_RECOMPUTE_PER_FRAME`]
//! cycles, and removed from the set — exactly the demand-paging shape
//! of §5.1.2's recompute, spread over the frames the guest actually
//! uses.
//!
//! Registration mirrors the EPT hook: the switch path installs the set
//! on each CPU ([`crate::Cpu::set_lazy_set`]), which flushes the TLB so
//! no cached translation can bypass the first-touch check, and removes
//! it at detach after draining the stragglers no guest touch ever
//! reached.
//!
//! ```
//! use simx86::lazy::LazySet;
//! use simx86::{costs, Cpu, FrameNum};
//! use std::sync::Arc;
//!
//! let cpu = Arc::new(Cpu::new(0));
//! let set = Arc::new(LazySet::new([FrameNum(7), FrameNum(9)]));
//! cpu.set_lazy_set(Some(Arc::clone(&set)));
//!
//! // First touch of a deferred frame: validation fault taken and
//! // drained transparently, cycles charged, frame leaves the set.
//! let before = cpu.cycles();
//! set.check(&cpu, FrameNum(7)).unwrap();
//! assert_eq!(
//!     cpu.cycles() - before,
//!     costs::LAZY_VALIDATE_FAULT + costs::PGINFO_RECOMPUTE_PER_FRAME
//! );
//! assert_eq!(set.remaining(), 1);
//!
//! // Second touch is free: the frame is already validated.
//! let before = cpu.cycles();
//! set.check(&cpu, FrameNum(7)).unwrap();
//! assert_eq!(cpu.cycles(), before);
//! cpu.set_lazy_set(None);
//! ```

use crate::costs;
use crate::cpu::Cpu;
use crate::fault::Fault;
use crate::mem::FrameNum;
use crate::sync::Mutex;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Frames whose page_info revalidation was deferred by a lazy attach,
/// awaiting their first guest touch.
///
/// The set is shared by every CPU of the machine (one admission window
/// per attach), so membership is behind a mutex and the statistics are
/// atomics — two CPUs faulting on different deferred frames drain them
/// independently.
pub struct LazySet {
    pending: Mutex<BTreeSet<u32>>,
    sealed: AtomicBool,
    validated: AtomicU64,
    cycles_charged: AtomicU64,
}

impl LazySet {
    /// A new pending set over `frames`.
    pub fn new(frames: impl IntoIterator<Item = FrameNum>) -> LazySet {
        LazySet {
            // volint::allow(SWITCH-ALLOC): one bounded (≤ pool size) set per admission window, built once at lazy attach
            pending: Mutex::new(frames.into_iter().map(|f| f.0).collect()),
            sealed: AtomicBool::new(false),
            validated: AtomicU64::new(0),
            cycles_charged: AtomicU64::new(0),
        }
    }

    /// The MMU's first-touch check, called on every TLB-miss walk while
    /// the set is registered.
    ///
    /// A frame not in the set costs one lookup and nothing else.  A
    /// pending frame takes the validation fault: the VMM's fixup charge
    /// ([`costs::LAZY_VALIDATE_FAULT`] +
    /// [`costs::PGINFO_RECOMPUTE_PER_FRAME`]) lands on `cpu` and the
    /// frame leaves the set.  A pending frame touched after [`seal`]
    /// (admission window closed with the deferral still outstanding) is
    /// the invariant breach [`Fault::ValidationPending`] reports.
    ///
    /// [`seal`]: LazySet::seal
    pub fn check(&self, cpu: &Cpu, frame: FrameNum) -> Result<(), Fault> {
        {
            let mut pending = self.pending.lock();
            if !pending.contains(&frame.0) {
                return Ok(());
            }
            if self.sealed.load(Ordering::Acquire) {
                return Err(Fault::ValidationPending { frame: frame.0 });
            }
            pending.remove(&frame.0);
        }
        let cost = costs::LAZY_VALIDATE_FAULT + costs::PGINFO_RECOMPUTE_PER_FRAME;
        cpu.tick(cost);
        self.validated.fetch_add(1, Ordering::Relaxed);
        self.cycles_charged.fetch_add(cost, Ordering::Relaxed);
        merctrace::counter!(cpu.id, "simx86.lazy.validate", 1, cpu.cycles());
        Ok(())
    }

    /// Is `frame` still awaiting validation?
    pub fn contains(&self, frame: FrameNum) -> bool {
        self.pending.lock().contains(&frame.0)
    }

    /// Number of frames still pending.
    pub fn remaining(&self) -> usize {
        self.pending.lock().len()
    }

    /// Close the admission window: from now on a touch of a still-
    /// pending frame is a hard [`Fault::ValidationPending`] instead of
    /// a transparent fixup.  The switch path drains the set *before*
    /// sealing; sealing exists so a missed drain fails loudly.
    pub fn seal(&self) {
        self.sealed.store(true, Ordering::Release);
    }

    /// Has the admission window been closed?
    pub fn is_sealed(&self) -> bool {
        self.sealed.load(Ordering::Acquire)
    }

    /// Remove and return every still-pending frame (the detach path's
    /// bulk drain; the frames are revalidated under the detach clear).
    pub fn drain(&self) -> Vec<FrameNum> {
        std::mem::take(&mut *self.pending.lock())
            .into_iter()
            .map(FrameNum)
            .collect()
    }

    /// Frames validated through the fault path so far.
    pub fn validated(&self) -> u64 {
        self.validated.load(Ordering::Relaxed)
    }

    /// Total cycles charged through the fault path so far.
    pub fn cycles_charged(&self) -> u64 {
        self.cycles_charged.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for LazySet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazySet")
            .field("remaining", &self.remaining())
            .field("sealed", &self.is_sealed())
            .field("validated", &self.validated())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn first_touch_charges_and_drains() {
        let cpu = Cpu::new(0);
        let set = LazySet::new([FrameNum(3), FrameNum(5)]);
        assert_eq!(set.remaining(), 2);

        let c0 = cpu.cycles();
        set.check(&cpu, FrameNum(3)).unwrap();
        assert_eq!(
            cpu.cycles() - c0,
            costs::LAZY_VALIDATE_FAULT + costs::PGINFO_RECOMPUTE_PER_FRAME
        );
        assert_eq!(set.remaining(), 1);
        assert_eq!(set.validated(), 1);

        // Non-pending frames are free.
        let c1 = cpu.cycles();
        set.check(&cpu, FrameNum(3)).unwrap();
        set.check(&cpu, FrameNum(42)).unwrap();
        assert_eq!(cpu.cycles(), c1);
    }

    #[test]
    fn sealed_set_hard_faults_on_pending_touch() {
        let cpu = Cpu::new(0);
        let set = LazySet::new([FrameNum(8)]);
        set.seal();
        let err = set.check(&cpu, FrameNum(8)).unwrap_err();
        assert_eq!(err, Fault::ValidationPending { frame: 8 });
        // Non-pending frames stay fine even when sealed.
        set.check(&cpu, FrameNum(9)).unwrap();
    }

    #[test]
    fn drain_empties_the_set() {
        let set = LazySet::new([FrameNum(1), FrameNum(2), FrameNum(3)]);
        let mut drained = set.drain();
        drained.sort();
        assert_eq!(drained, vec![FrameNum(1), FrameNum(2), FrameNum(3)]);
        assert_eq!(set.remaining(), 0);
    }

    #[test]
    fn registration_on_cpu_flushes_tlb() {
        let cpu = Arc::new(Cpu::new(0));
        let set = Arc::new(LazySet::new([FrameNum(1)]));
        cpu.set_lazy_set(Some(Arc::clone(&set)));
        assert!(cpu.active_lazy_set().is_some());
        cpu.set_lazy_set(None);
        assert!(cpu.active_lazy_set().is_none());
    }
}
