//! Frame-accounting strategies across mode switches (§5.1.2).
//!
//! When the VMM is detached it "loses track of the usage information" of
//! the kernel's page frames.  The paper implements two ways to make the
//! VMM's `page_info` table correct again; we add two more that trade
//! native-mode overhead against attach-time latency:
//!
//! * [`TrackingStrategy::RecomputeOnSwitch`] — the paper's original
//!   design.  On attach, walk every frame the OS owns and re-derive
//!   owner/type/count from the live page tables.  Costs nothing in
//!   native mode but dominates the native→virtual switch time ("Mercury
//!   has to recalculate the type and count information for all page
//!   frames during a mode switch, which accounts for the major time to
//!   commit a switch", §7.4).
//! * [`TrackingStrategy::ActiveTracking`] — mirror every native
//!   page-table mutation into the dormant VMM's accounting as it
//!   happens.  The paper measures "about 2%~3% performance overhead
//!   [in native mode] and saves only a small amount of mode switch
//!   time".
//! * [`TrackingStrategy::DirtyRecompute`] — **the default**.  Snapshot
//!   the validation results at detach (and once at boot, so even the
//!   first attach has a baseline) and, while native, merely *set a
//!   dirty bit* on the containing table frame at each PTE write (one
//!   byte store, [`simx86::costs::DIRTY_TRACK_PER_PTE`] ≪ the active
//!   mirror's [`simx86::costs::ACTIVE_TRACK_PER_PTE`]).  Re-attach
//!   revalidates dirty frames at the full scan rate — but only up to
//!   [`SYNC_REVALIDATE_CAP`] of them synchronously; overflow beyond the
//!   cap is deferred to first guest touch through the lazy
//!   validation-fault path ([`simx86::lazy::LazySet`]) — and restores
//!   the clean frames at the snapshot-restore rate.  An idle detach
//!   window makes the re-attach nearly free, and the cap makes the
//!   attach-time accounting phase *statically bounded* regardless of
//!   how much native mode dirtied.
//! * [`TrackingStrategy::LazyValidate`] — the demand-paged extreme:
//!   attach synchronously revalidates only the *kernel-critical* dirty
//!   frames (the page-table frames a guest could subvert the VMM
//!   through) and defers every other dirty frame to its first guest
//!   touch.  Admission latency is O(critical-dirty); the rest of the
//!   validation debt is paid at [`simx86::costs::LAZY_VALIDATE_FAULT`]
//!   per frame, only for frames the guest actually uses.
//!
//! **Modelling note** (see DESIGN.md §7b): the mirror's bookkeeping work
//! is charged per mutation through the native VO
//! ([`simx86::costs::ACTIVE_TRACK_PER_PTE`] /
//! [`simx86::costs::DIRTY_TRACK_PER_PTE`]); at attach time the
//! correctness path reuses the same validator as recompute — at a
//! mirror adoption rate ([`ADOPT_PER_FRAME`]) for active tracking, and
//! at the capped dirty/clean/deferred blended rate
//! ([`TrackingStrategy::attach_cost`]) for the dirty strategies.  A
//! property test asserts all strategies produce identical `page_info`
//! state, which is the invariant the paper's design relies on.

/// Per-frame cost of adopting the actively-maintained mirror at attach
/// (a table copy, not a walk of the page tables).
pub const ADOPT_PER_FRAME: u64 = 3;

/// Per-frame cost of restoring a *clean* frame's accounting from the
/// detach-time snapshot under the dirty strategies (a copy plus the
/// dirty-bit check).
pub const RESTORE_PER_FRAME: u64 = 5;

/// Maximum number of dirty frames [`TrackingStrategy::DirtyRecompute`]
/// revalidates *synchronously* during the attach.  Dirty frames beyond
/// the cap (kernel-critical frames always sort first, so only
/// non-critical frames ever overflow) are deferred to the lazy
/// validation-fault path, which is what makes the attach-time
/// accounting phase statically bounded: at most
/// `SYNC_REVALIDATE_CAP × PGINFO_RECOMPUTE_PER_FRAME` cycles of full-
/// rate scanning no matter how much native mode dirtied.
pub const SYNC_REVALIDATE_CAP: usize = 4096;

/// How the VMM's frame accounting is kept correct across detached
/// periods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrackingStrategy {
    /// Re-derive all type/count state during the attach (the paper's
    /// original design; kept for the legacy full-rate path).
    RecomputeOnSwitch,
    /// Mirror every native page-table mutation while detached.
    ActiveTracking,
    /// Snapshot at detach (and at boot), mark table frames dirty on
    /// native PTE writes, revalidate dirty frames at re-attach — at
    /// most [`SYNC_REVALIDATE_CAP`] of them synchronously, the rest
    /// lazily on first touch.  The default.
    #[default]
    DirtyRecompute,
    /// Dirty tracking plus fault-driven admission: synchronously
    /// revalidate only kernel-critical dirty frames at attach; every
    /// other dirty frame is validated on its first guest touch.
    LazyValidate,
}

impl TrackingStrategy {
    /// Whether the strategy keeps a detach-time dirty baseline (and
    /// therefore wants the boot-time pre-cache, dirty marking through
    /// the native VO, and background revalidation while native).
    pub fn uses_dirty_baseline(self) -> bool {
        matches!(
            self,
            TrackingStrategy::DirtyRecompute | TrackingStrategy::LazyValidate
        )
    }

    /// Cycles per owned frame charged during attach, at the strategy's
    /// *uniform* rate (the dirty strategies' blended rate needs the
    /// dirty partition — see [`TrackingStrategy::attach_cost`]).  Used
    /// by the no-baseline fallback and the switch rollback path.
    pub fn attach_per_frame_cost(self) -> u64 {
        match self {
            TrackingStrategy::RecomputeOnSwitch => simx86::costs::PGINFO_RECOMPUTE_PER_FRAME,
            TrackingStrategy::ActiveTracking => ADOPT_PER_FRAME,
            // Without a detach-time baseline every frame counts as
            // dirty: the fallback is a full recompute.
            TrackingStrategy::DirtyRecompute | TrackingStrategy::LazyValidate => {
                simx86::costs::PGINFO_RECOMPUTE_PER_FRAME
            }
        }
    }

    /// Total attach-time accounting cycles for `owned` frames of which
    /// `dirty` were mutated since the last snapshot, treating every
    /// dirty frame as kernel-critical (`dirty` is ignored by the
    /// uniform-rate strategies).  The switch path, which knows the real
    /// critical partition, uses [`TrackingStrategy::attach_cost_split`].
    pub fn attach_cost(self, owned: usize, dirty: usize) -> u64 {
        self.attach_cost_split(owned, dirty, dirty)
    }

    /// Detach-time accounting cycles for `owned` frames of which
    /// `tables` are currently pinned page-table frames.
    ///
    /// The legacy strategies wipe the whole table — a release pass at
    /// [`simx86::costs::PGINFO_CLEAR_PER_FRAME`] over every owned frame
    /// (the §7.4 "cheap direction", but still O(owned)).  The
    /// dirty-baseline strategies instead *retain* the just-live
    /// accounting as the next attach's snapshot: the only per-frame
    /// work left is dropping the VMM's type restrictions on the pinned
    /// table frames (≤ 256 by construction), so detach is O(tables).
    ///
    /// ```
    /// use mercury::TrackingStrategy;
    /// let owned = 16384;
    /// let legacy = TrackingStrategy::RecomputeOnSwitch.detach_cost(owned, 24);
    /// let dirty = TrackingStrategy::DirtyRecompute.detach_cost(owned, 24);
    /// assert_eq!(legacy, owned as u64 * simx86::costs::PGINFO_CLEAR_PER_FRAME);
    /// assert_eq!(dirty, 24 * simx86::costs::PGINFO_CLEAR_PER_FRAME);
    /// assert!(dirty * 100 < legacy);
    /// ```
    pub fn detach_cost(self, owned: usize, tables: usize) -> u64 {
        if self.uses_dirty_baseline() {
            tables.min(owned) as u64 * simx86::costs::PGINFO_CLEAR_PER_FRAME
        } else {
            owned as u64 * simx86::costs::PGINFO_CLEAR_PER_FRAME
        }
    }

    /// [`TrackingStrategy::attach_cost`] with an explicit partition:
    /// `critical` of the `dirty` frames are kernel-critical and must be
    /// revalidated synchronously before the guest runs.
    ///
    /// * `DirtyRecompute` revalidates dirty frames synchronously up to
    ///   [`SYNC_REVALIDATE_CAP`] (critical frames sort first and the
    ///   cap never truncates them — [`SYNC_REVALIDATE_CAP`] exceeds the
    ///   ≤ 256 kernel table frames by construction); overflow defers at
    ///   [`simx86::costs::LAZY_DEFER_PER_FRAME`].
    /// * `LazyValidate` synchronously revalidates *only* the critical
    ///   dirty frames and defers all others.
    /// * Clean frames restore from the snapshot at
    ///   [`RESTORE_PER_FRAME`] under both.
    pub fn attach_cost_split(self, owned: usize, dirty: usize, critical: usize) -> u64 {
        let scan = simx86::costs::PGINFO_RECOMPUTE_PER_FRAME;
        match self {
            TrackingStrategy::DirtyRecompute => {
                let dirty = dirty.min(owned) as u64;
                let clean = owned as u64 - dirty;
                let sync = dirty.min(SYNC_REVALIDATE_CAP as u64);
                let deferred = dirty - sync;
                sync * scan
                    + clean * RESTORE_PER_FRAME
                    + deferred * simx86::costs::LAZY_DEFER_PER_FRAME
            }
            TrackingStrategy::LazyValidate => {
                let dirty = dirty.min(owned) as u64;
                let critical = (critical as u64).min(dirty);
                let clean = owned as u64 - dirty;
                let deferred = dirty - critical;
                critical * scan
                    + clean * RESTORE_PER_FRAME
                    + deferred * simx86::costs::LAZY_DEFER_PER_FRAME
            }
            _ => self.attach_per_frame_cost() * owned as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirty_recompute_is_the_default_with_a_baseline() {
        assert_eq!(TrackingStrategy::default(), TrackingStrategy::DirtyRecompute);
        assert!(TrackingStrategy::default().uses_dirty_baseline());
        assert!(TrackingStrategy::LazyValidate.uses_dirty_baseline());
        assert!(!TrackingStrategy::RecomputeOnSwitch.uses_dirty_baseline());
        assert!(!TrackingStrategy::ActiveTracking.uses_dirty_baseline());
        // The legacy full recompute still costs far more per frame than
        // adopting the active mirror.
        assert!(
            TrackingStrategy::RecomputeOnSwitch.attach_per_frame_cost()
                > TrackingStrategy::ActiveTracking.attach_per_frame_cost() * 5
        );
    }

    #[test]
    fn dirty_recompute_blends_scan_and_restore_rates() {
        let s = TrackingStrategy::DirtyRecompute;
        // Under the cap, all-dirty degenerates to the full recompute.
        assert_eq!(
            s.attach_cost(100, 100),
            TrackingStrategy::RecomputeOnSwitch.attach_cost(100, 0)
        );
        // All-clean is the snapshot-restore rate: ≥5× cheaper than a
        // full recompute (the warm re-attach acceptance bar).
        assert!(s.attach_cost(100, 0) * 5 <= s.attach_cost(100, 100));
        // Blend is monotone in the dirty count and clamps at `owned`.
        assert!(s.attach_cost(100, 10) < s.attach_cost(100, 20));
        assert_eq!(s.attach_cost(100, 200), s.attach_cost(100, 100));
        // Uniform strategies ignore the dirty count.
        assert_eq!(
            TrackingStrategy::ActiveTracking.attach_cost(100, 50),
            ADOPT_PER_FRAME * 100
        );
    }

    #[test]
    fn sync_cap_bounds_the_dirty_recompute_attach() {
        let s = TrackingStrategy::DirtyRecompute;
        let owned = 16384;
        // Everything dirty: only SYNC_REVALIDATE_CAP frames pay the
        // full scan rate; the rest defer at the enqueue rate.
        let all_dirty = s.attach_cost(owned, owned);
        let expect = SYNC_REVALIDATE_CAP as u64 * simx86::costs::PGINFO_RECOMPUTE_PER_FRAME
            + (owned - SYNC_REVALIDATE_CAP) as u64 * simx86::costs::LAZY_DEFER_PER_FRAME;
        assert_eq!(all_dirty, expect);
        // The cap keeps the worst case well under the legacy full scan.
        assert!(all_dirty * 3 < TrackingStrategy::RecomputeOnSwitch.attach_cost(owned, 0));
        // Below the cap the cost is exactly the uncapped blend.
        assert_eq!(
            s.attach_cost(owned, 100),
            100 * simx86::costs::PGINFO_RECOMPUTE_PER_FRAME
                + (owned - 100) as u64 * RESTORE_PER_FRAME
        );
    }

    #[test]
    fn dirty_baseline_detach_releases_only_pinned_tables() {
        let owned = 16384;
        let clear = simx86::costs::PGINFO_CLEAR_PER_FRAME;
        // Legacy strategies pay the full O(owned) wipe.
        assert_eq!(
            TrackingStrategy::RecomputeOnSwitch.detach_cost(owned, 24),
            owned as u64 * clear
        );
        assert_eq!(
            TrackingStrategy::ActiveTracking.detach_cost(owned, 24),
            owned as u64 * clear
        );
        // Dirty-baseline strategies retain the snapshot and release
        // only the pinned tables: O(tables), clamped at the pool size.
        assert_eq!(TrackingStrategy::DirtyRecompute.detach_cost(owned, 24), 24 * clear);
        assert_eq!(TrackingStrategy::LazyValidate.detach_cost(owned, 24), 24 * clear);
        assert_eq!(
            TrackingStrategy::LazyValidate.detach_cost(16, 9999),
            16 * clear
        );
    }

    #[test]
    fn lazy_validate_pays_only_for_critical_frames_up_front() {
        let s = TrackingStrategy::LazyValidate;
        let owned = 16384;
        // 2000 dirty frames, 50 of them critical: sync work is the 50
        // critical scans; the other 1950 defer.
        let cost = s.attach_cost_split(owned, 2000, 50);
        assert_eq!(
            cost,
            50 * simx86::costs::PGINFO_RECOMPUTE_PER_FRAME
                + (owned - 2000) as u64 * RESTORE_PER_FRAME
                + 1950 * simx86::costs::LAZY_DEFER_PER_FRAME
        );
        // Far cheaper than the capped dirty recompute of the same
        // population, which is itself far cheaper than the full scan.
        assert!(cost < TrackingStrategy::DirtyRecompute.attach_cost_split(owned, 2000, 50));
        // Critical clamps at the dirty population.
        assert_eq!(
            s.attach_cost_split(owned, 10, 100),
            s.attach_cost_split(owned, 10, 10)
        );
        // The two-arg form treats every dirty frame as critical — the
        // conservative (all-synchronous) reading.
        assert_eq!(s.attach_cost(owned, 300), s.attach_cost_split(owned, 300, 300));
    }
}
