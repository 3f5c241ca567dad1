//! Hardware virtualization assist: VT-x-style non-root execution and an
//! EPT-like second-level translation filter.
//!
//! The paper's §8 names this as Mercury's main future work: "current
//! CPU virtualization such as VT-x enables the encapsulation of
//! virtualization sensitive data into a centralized structure (e.g.,
//! VMCS or VMCB).  This could make the mode switch between the native
//! mode and virtualized mode much easier to implement.  Further, the
//! nested page table or extended page table could ease the tracking of
//! the states of each page."
//!
//! The model captures exactly those two effects:
//!
//! * **Non-root mode** ([`Cpu::set_non_root`](crate::cpu::Cpu::set_non_root)): the guest kernel keeps
//!   running at PL0 — no de-privileging, so no segment-selector fixups
//!   and no read-only page tables.  Selected events (interrupts, device
//!   doorbells) cost a VM exit + re-entry instead.
//! * **EPT** ([`Ept`]): a second-level *permission filter* over machine
//!   frames, built once at warm-up.  The guest writes its own page
//!   tables freely; isolation holds because every translation is
//!   checked against the EPT, and a violation faults to the VMM instead
//!   of reaching foreign memory.  No per-PTE type/count accounting —
//!   which is precisely why the hardware-assisted attach needs no
//!   `page_info` recompute.

use crate::fault::Fault;
use crate::mem::FrameNum;
use crate::sync::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An EPT: which machine frames the guest may reach, plus hit counters.
pub struct Ept {
    allowed: RwLock<Vec<bool>>,
    violations: AtomicU64,
}

impl Ept {
    /// An EPT over a machine with `num_frames` frames, initially
    /// allowing nothing.
    pub fn new(num_frames: usize) -> Arc<Ept> {
        Arc::new(Ept {
            allowed: RwLock::new(vec![false; num_frames]),
            violations: AtomicU64::new(0),
        })
    }

    /// Permit guest access to `frame`.
    pub fn allow(&self, frame: FrameNum) {
        self.allowed.write()[frame.0 as usize] = true;
    }

    /// Permit a whole set (warm-up bulk build).
    pub fn allow_all(&self, frames: &[FrameNum]) {
        let mut a = self.allowed.write();
        for f in frames {
            a[f.0 as usize] = true;
        }
    }

    /// Revoke access to `frame`.
    pub fn revoke(&self, frame: FrameNum) {
        self.allowed.write()[frame.0 as usize] = false;
    }

    /// Check a final translation.  Counts violations.
    pub fn check(&self, frame: FrameNum) -> Result<(), Fault> {
        if self
            .allowed
            .read()
            .get(frame.0 as usize)
            .copied()
            .unwrap_or(false)
        {
            Ok(())
        } else {
            self.violations.fetch_add(1, Ordering::Relaxed);
            Err(Fault::EptViolation { frame: frame.0 })
        }
    }

    /// Frames currently permitted.
    pub fn allowed_count(&self) -> usize {
        self.allowed.read().iter().filter(|&&b| b).count()
    }

    /// EPT violations observed.
    pub fn violations(&self) -> u64 {
        self.violations.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_check_revoke() {
        let ept = Ept::new(8);
        assert!(ept.check(FrameNum(3)).is_err());
        assert_eq!(ept.violations(), 1);
        ept.allow(FrameNum(3));
        assert!(ept.check(FrameNum(3)).is_ok());
        ept.revoke(FrameNum(3));
        assert!(ept.check(FrameNum(3)).is_err());
        assert_eq!(ept.violations(), 2);
    }

    #[test]
    fn bulk_allow() {
        let ept = Ept::new(8);
        ept.allow_all(&[FrameNum(1), FrameNum(2), FrameNum(5)]);
        assert_eq!(ept.allowed_count(), 3);
        assert!(ept.check(FrameNum(5)).is_ok());
        assert!(ept.check(FrameNum(4)).is_err());
    }

    #[test]
    fn out_of_range_is_violation() {
        let ept = Ept::new(2);
        assert!(ept.check(FrameNum(99)).is_err());
    }
}
