//! Background revalidation of dirty frames — the dormant VMM's idle-
//! time scrubber.
//!
//! Under Mercury's dirty-tracking strategies the native kernel marks a
//! table frame dirty in the dormant VMM's [`crate::PageInfoTable`] at
//! every PTE write.  Left alone, the dirty set grows until the next
//! attach pays to revalidate it.  The scrubber lets the system *donate
//! idle simulated cycles* (a serving node's open-loop gap, the
//! kernel's idle loop) to revalidating dirty frames while still
//! native: each donated unit pops one dirty frame, re-derives its
//! accounting against the pre-computed boot baseline, and clears the
//! bit — so the frame re-attaches at the cheap snapshot-restore rate
//! instead of the full scan rate.
//!
//! Soundness: the attach path rebuilds the domain's accounting
//! wholesale from the live tables regardless of dirty bits, so a
//! scrubbed bit can never hide a *stale* validation — it only moves
//! the cycle charge off the switch's critical path.  A PTE write after
//! the scrub re-marks the frame through the native VO's dirty sink.
//!
//! Interplay with idle time (`simx86::evclock`, DESIGN.md §14):
//! donation happens *before* the remainder of an idle gap is ticked
//! away — the donor consumes its budget in priced
//! [`simx86::Cpu::tick`] work, and only the cycles it leaves over are
//! charged as idle.  A non-empty backlog converts the front of every
//! gap into revalidation work first.
//!
//! ```
//! use simx86::{costs, Cpu, FrameNum};
//! use std::sync::Arc;
//! use xenon::scrub::BackgroundScrubber;
//! use xenon::{DomId, PageInfoTable};
//!
//! let table = Arc::new(PageInfoTable::new(8));
//! for f in 0..8 {
//!     table.set_owner(FrameNum(f), Some(DomId(0)));
//! }
//! table.mark_dirty(FrameNum(2));
//! table.mark_dirty(FrameNum(5));
//!
//! let scrubber = BackgroundScrubber::new(Arc::clone(&table), DomId(0));
//! let cpu = Arc::new(Cpu::new(0));
//!
//! // Donate an idle window big enough for one frame: one dirty bit is
//! // retired at the full revalidation rate, the other stays.
//! let used = scrubber.donate(&cpu, costs::PGINFO_RECOMPUTE_PER_FRAME);
//! assert_eq!(used, costs::PGINFO_RECOMPUTE_PER_FRAME);
//! assert_eq!(scrubber.backlog(), 1);
//!
//! // A big window drains the rest and reports the unused remainder
//! // through the return value.
//! let used = scrubber.donate(&cpu, 10 * costs::PGINFO_RECOMPUTE_PER_FRAME);
//! assert_eq!(used, costs::PGINFO_RECOMPUTE_PER_FRAME);
//! assert_eq!(scrubber.backlog(), 0);
//! assert_eq!(scrubber.revalidated(), 2);
//! ```

use crate::domain::DomId;
use crate::page_info::PageInfoTable;
use simx86::{costs, Cpu};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Idle-cycle scrubber over one domain's dirty set.
///
/// Shared by every donor (serving nodes, the kernel idle task), so the
/// statistics are atomics; the per-frame pop itself is serialized by
/// the frame table's lock.
pub struct BackgroundScrubber {
    /// The frame table being scrubbed and the domain whose dirty set
    /// it holds.  A slot, not plain fields: a live-update replaces the
    /// running hypervisor (and with it the authoritative page-info
    /// table), a re-homed OS comes back as a new domain, and a scrubber
    /// left pointing at the decommissioned instance or the departed
    /// domain would never find a dirty frame again.
    /// [`retarget`](BackgroundScrubber::retarget) swaps the slot.
    target: simx86::sync::RwLock<(Arc<PageInfoTable>, DomId)>,
    revalidated: AtomicU64,
    cycles_donated: AtomicU64,
}

impl BackgroundScrubber {
    /// A scrubber over `dom`'s frames in `page_info`.
    pub fn new(page_info: Arc<PageInfoTable>, dom: DomId) -> Arc<BackgroundScrubber> {
        Arc::new(BackgroundScrubber {
            target: simx86::sync::RwLock::new((page_info, dom)),
            revalidated: AtomicU64::new(0),
            cycles_donated: AtomicU64::new(0),
        })
    }

    /// Point the scrubber at `dom`'s frames in `page_info`: a successor
    /// hypervisor's table after a live-update decommissions the
    /// instance this scrubber was built over, or the domain a re-homed
    /// OS came back as.  Statistics carry across: they count work
    /// donated on this node, not work per VMM instance.
    pub fn retarget(&self, page_info: Arc<PageInfoTable>, dom: DomId) {
        *self.target.write() = (page_info, dom);
    }

    /// Donate up to `budget` idle cycles on `cpu`: revalidate dirty
    /// frames at [`costs::PGINFO_RECOMPUTE_PER_FRAME`] each until the
    /// budget cannot cover another frame or the dirty set is empty.
    ///
    /// Returns the cycles actually consumed (ticked on `cpu`); the
    /// caller idles away the remainder.  Never exceeds `budget`, so a
    /// donor on a latency path keeps its deadline.
    pub fn donate(&self, cpu: &Arc<Cpu>, budget: u64) -> u64 {
        let per_frame = costs::PGINFO_RECOMPUTE_PER_FRAME;
        let (table, dom) = self.target.read().clone();
        let mut used = 0u64;
        // volint::bound(16384) — at most one pop per pool frame (64 MiB pool)
        while used + per_frame <= budget {
            if table.take_dirty_frame_for(dom).is_none() {
                break;
            }
            cpu.tick(per_frame);
            used += per_frame;
            self.revalidated.fetch_add(1, Ordering::Relaxed);
            merctrace::counter!(cpu.id, "xenon.scrub.revalidate", 1, cpu.cycles());
        }
        self.cycles_donated.fetch_add(used, Ordering::Relaxed);
        used
    }

    /// Dirty frames still awaiting revalidation.
    pub fn backlog(&self) -> usize {
        let (table, dom) = &*self.target.read();
        table.count_dirty_for(*dom)
    }

    /// Is the backlog empty?  An idle scrubber has no claim on donated
    /// cycles.
    pub fn is_idle(&self) -> bool {
        self.backlog() == 0
    }

    /// Frames revalidated by donated idle cycles so far.
    pub fn revalidated(&self) -> u64 {
        self.revalidated.load(Ordering::Relaxed)
    }

    /// Total idle cycles consumed so far.
    pub fn cycles_donated(&self) -> u64 {
        self.cycles_donated.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for BackgroundScrubber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackgroundScrubber")
            .field("dom", &self.target.read().1)
            .field("backlog", &self.backlog())
            .field("revalidated", &self.revalidated())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simx86::FrameNum;

    fn rig(frames: usize) -> (Arc<PageInfoTable>, Arc<BackgroundScrubber>, Arc<Cpu>) {
        let t = Arc::new(PageInfoTable::new(frames));
        for i in 0..frames {
            t.set_owner(FrameNum(i as u32), Some(DomId(0)));
        }
        let s = BackgroundScrubber::new(Arc::clone(&t), DomId(0));
        (t, s, Arc::new(Cpu::new(0)))
    }

    #[test]
    fn donation_retires_dirty_frames_within_budget() {
        let (t, s, cpu) = rig(16);
        for f in [1u32, 4, 9] {
            t.mark_dirty(FrameNum(f));
        }
        let per = costs::PGINFO_RECOMPUTE_PER_FRAME;
        // Budget for two frames: exactly two retired, cycles charged.
        let c0 = cpu.cycles();
        assert_eq!(s.donate(&cpu, 2 * per + per / 2), 2 * per);
        assert_eq!(cpu.cycles() - c0, 2 * per);
        assert_eq!(s.backlog(), 1);
        assert_eq!(s.revalidated(), 2);
        // Drain the rest.
        assert_eq!(s.donate(&cpu, 100 * per), per);
        assert_eq!(s.backlog(), 0);
        assert_eq!(s.cycles_donated(), 3 * per);
    }

    #[test]
    fn is_idle_tracks_the_backlog() {
        let (t, s, cpu) = rig(4);
        assert!(s.is_idle());
        t.mark_dirty(FrameNum(2));
        assert!(!s.is_idle());
        s.donate(&cpu, costs::PGINFO_RECOMPUTE_PER_FRAME);
        assert!(s.is_idle());
    }

    #[test]
    fn sub_frame_budget_does_nothing() {
        let (t, s, cpu) = rig(4);
        t.mark_dirty(FrameNum(1));
        let c0 = cpu.cycles();
        assert_eq!(s.donate(&cpu, costs::PGINFO_RECOMPUTE_PER_FRAME - 1), 0);
        assert_eq!(cpu.cycles(), c0);
        assert_eq!(s.backlog(), 1);
    }

    #[test]
    fn retarget_moves_the_scrubber_to_a_successor_table() {
        let (t1, s, cpu) = rig(8);
        t1.mark_dirty(FrameNum(1));
        let t2 = Arc::new(PageInfoTable::new(8));
        for i in 0..8 {
            t2.set_owner(FrameNum(i), Some(DomId(0)));
        }
        t2.mark_dirty(FrameNum(3));
        t2.mark_dirty(FrameNum(5));
        s.retarget(Arc::clone(&t2), DomId(0));
        // The backlog now reads the successor's ledger; the old
        // table's dirty bit is no longer this scrubber's business.
        assert_eq!(s.backlog(), 2);
        s.donate(&cpu, 10 * costs::PGINFO_RECOMPUTE_PER_FRAME);
        assert_eq!(s.backlog(), 0);
        assert!(t1.get(FrameNum(1)).dirty, "predecessor table untouched");
        assert_eq!(s.revalidated(), 2, "stats carry across the retarget");
    }

    #[test]
    fn foreign_dirty_frames_are_not_scrubbed() {
        let (t, s, cpu) = rig(4);
        t.set_owner(FrameNum(3), Some(DomId(7)));
        t.mark_dirty(FrameNum(3));
        assert_eq!(s.donate(&cpu, u64::MAX / 2), 0);
        assert!(t.get(FrameNum(3)).dirty, "foreign frame untouched");
    }
}
