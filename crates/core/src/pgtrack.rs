//! Frame-accounting strategies across mode switches (§5.1.2).
//!
//! When the VMM is detached it "loses track of the usage information" of
//! the kernel's page frames.  The paper implements two ways to make the
//! VMM's `page_info` table correct again; we add a third that trades
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
//!   first attach has a baseline) and, while native, charge each PTE
//!   write one word store ([`simx86::costs::DIRTY_TRACK_PER_PTE`] ≪
//!   the active mirror's [`simx86::costs::ACTIVE_TRACK_PER_PTE`]):
//!   memory stamps the table frame it changes.  Re-attach revalidates
//!   the kernel's tables stored to since the snapshot ("dirty" below)
//!   at the full scan rate and restores the clean frames at the
//!   snapshot-restore rate — on the host too: the detach's records are
//!   restored, not re-derived (the boot pre-cache opens the first
//!   native window but retains no records, so the first attach walks).
//!   An idle detach window makes the re-attach nearly free.  The
//!   work-list — the kernel's tables at the window's open and at its
//!   close — is a set of pool frames, so the attach-time accounting
//!   phase never costs more than the whole walk.
//!
//! **Modelling note** (see DESIGN.md §7b): the mirror's bookkeeping work
//! is charged per mutation through the native VO
//! ([`simx86::costs::ACTIVE_TRACK_PER_PTE`] /
//! [`simx86::costs::DIRTY_TRACK_PER_PTE`]).  At attach time active
//! tracking reuses recompute's whole walk at a mirror adoption rate
//! ([`ADOPT_PER_FRAME`]).  The dirty strategy charges the dirty/clean
//! blended rate and does what it says: the detach
//! keeps its records restorable, and the attach restores them and
//! applies the old → new reference delta of each page table written
//! while native — the table's pre-image, kept by the VO's sink at its
//! first write, against the live frame — falling back to the whole
//! walk wherever the retained records do not cover a change
//! ([`xenon::PageInfoTable::reattach`]).  Either way the records and
//! the cycles are the walk's.  A property test asserts all strategies
//! produce identical `page_info` state, which is the invariant the
//! paper's design relies on.
//!
//! **One write clock, Mercury's rounds.**  The baseline is not a copy
//! of anything: it is a checkpoint of memory's write stamps, the
//! native window's open, held by a [`xenon::Rounds`] that lives in the
//! engine's VMM slot beside the VO's sink (so a live-update replaces
//! table, sink and rounds together and no caller re-points a reader).
//! The window opens after a detach's flip, or at the boot pre-cache,
//! with the kernel's page tables of that moment, and closes before the
//! attach's flip, where it adds the tables of that moment; the
//! work-list is those tables stored to inside the window, which is
//! also how the retained records learn which tables changed.  The
//! attach reads the work-list for its charge and clears nothing, and
//! [`Mercury::donate_idle`] runs budgeted rounds on donated idle
//! cycles, so a table revalidated in the background is off the next
//! attach's work-list.  The donation counters
//! ([`SwitchStats::idle_revalidated`](crate::SwitchStats) and
//! `idle_cycles_donated`) count per `Mercury` instance, so a re-homed
//! OS — a new instance — starts them again (no archive reads them
//! across a re-homing: the fleet row records no switch counters).
//! Without a baseline (`RecomputeOnSwitch`, `ActiveTracking`) the
//! attach revalidates everything whatever was written, so there is
//! nothing to donate to.
//!
//! **One table.**  What distinguishes the three strategies is written
//! down once, as a [`LatticeRow`] per strategy
//! ([`TrackingStrategy::row`], the only `match` on the enum in the
//! workspace): the switch engine picks its transition tables from the
//! row, the native VO is built from it, and the accounting rows below —
//! the `run`/`undo` bodies of the `switch.transfer.pginfo_*` phases —
//! charge from it.  Each cost formula lives at the `cpu.tick` that
//! charges it.

use crate::switch::{Mercury, Round, SwitchError};
use simx86::mem::{FrameNum, PhysMemory};
use simx86::{costs, Cpu};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use xenon::{HvError, PageInfoTable};

/// Per-frame cost of adopting the actively-maintained mirror at attach
/// (a table copy, not a walk of the page tables).
pub const ADOPT_PER_FRAME: u64 = 3;

/// Per-frame cost of restoring a *clean* frame's accounting from the
/// detach-time snapshot under a dirty baseline (a copy plus the
/// dirty-bit check).
pub const RESTORE_PER_FRAME: u64 = 5;

/// How the VMM's frame accounting is kept correct across detached
/// periods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrackingStrategy {
    /// Re-derive all type/count state during the attach (the paper's
    /// original design; kept for the legacy full-rate path).
    RecomputeOnSwitch,
    /// Mirror every native page-table mutation while detached.
    ActiveTracking,
    /// Snapshot at detach (and at boot), revalidate at re-attach the
    /// table frames stored to while native.  The default.
    #[default]
    DirtyRecompute,
}

/// One row of the strategy lattice (DESIGN.md §7b): everything the
/// switch engine, the native VO and the reports know about a strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatticeRow {
    /// Cycles the native VO charges per page-table entry written while
    /// the VMM is detached.
    pub native_per_pte: u64,
    /// Whether a detach-time dirty baseline is kept: the snapshot is
    /// retained at detach (`DETACH_RETAIN`, not `DETACH_CLEAR`) and
    /// pre-computed at boot, the native VO keeps the pre-images of
    /// retained tables for the dormant VMM, and attach is O(dirty)
    /// (`ATTACH_DIRTY`, not `ATTACH_FULL`).
    pub dirty_baseline: bool,
    /// Cycles per owned frame of a whole-pool walk: the attach without
    /// a baseline (serial or sharded) and the re-arm of a rolled-back
    /// detach.
    pub walk_per_frame: u64,
}

impl TrackingStrategy {
    /// Every strategy, in lattice order.
    pub const ALL: [TrackingStrategy; 3] = [
        TrackingStrategy::RecomputeOnSwitch,
        TrackingStrategy::ActiveTracking,
        TrackingStrategy::DirtyRecompute,
    ];

    /// This strategy's row of the lattice.
    ///
    /// ```
    /// use mercury::TrackingStrategy;
    /// let paper = TrackingStrategy::RecomputeOnSwitch.row();
    /// let default = TrackingStrategy::default().row();
    /// // The paper's design is free while native and pays at the switch;
    /// // the default pays two cycles per PTE write for an O(dirty) attach.
    /// assert_eq!((paper.native_per_pte, paper.dirty_baseline), (0, false));
    /// assert_eq!((default.native_per_pte, default.dirty_baseline), (2, true));
    /// ```
    pub const fn row(self) -> LatticeRow {
        let scan = costs::PGINFO_RECOMPUTE_PER_FRAME;
        let (native_per_pte, dirty_baseline, walk_per_frame) = match self {
            TrackingStrategy::RecomputeOnSwitch => (0, false, scan),
            TrackingStrategy::ActiveTracking => {
                (costs::ACTIVE_TRACK_PER_PTE, false, ADOPT_PER_FRAME)
            }
            // Without a usable baseline every frame counts as dirty:
            // the whole-pool walk of a dirty strategy is a full scan.
            TrackingStrategy::DirtyRecompute => (costs::DIRTY_TRACK_PER_PTE, true, scan),
        };
        LatticeRow {
            native_per_pte,
            dirty_baseline,
            walk_per_frame,
        }
    }
}

// ---- the accounting rows (§5.1.2) ---------------------------------------------
//
// `run`/`undo` bodies of the `switch.transfer.pginfo_*` phases; the
// tables that name them are in `crate::switch`.

impl Mercury {
    /// Attach-time frame accounting with a dirty baseline (the default,
    /// established at boot and refreshed at every detach) — O(dirty).
    /// Revalidate the work-list (the kernel's page tables stored to
    /// inside the native window), restore the clean frames from the
    /// snapshot, and reattach the records.
    pub(crate) fn account_dirty(&self, r: &Round<'_>) -> Result<(), SwitchError> {
        let cpu = r.cpu;
        let owned = self.kernel().pool_size();
        let p0 = cpu.cycles();
        let dirty = self.revalidation_backlog().len();
        let clean = owned.saturating_sub(dirty);
        // volint::cost(1638400) — every page table is a pool frame and the work-list is deduplicated, so dirty ≤ owned and dirty × PGINFO_RECOMPUTE_PER_FRAME + clean × RESTORE_PER_FRAME ≤ 16384 pool frames × PGINFO_RECOMPUTE_PER_FRAME(100)
        cpu.tick(
            dirty as u64 * costs::PGINFO_RECOMPUTE_PER_FRAME + clean as u64 * RESTORE_PER_FRAME,
        );
        // The validation itself restores the records the detach kept
        // and patches them by the tables written while native — the
        // cycle charge above models the dirty/clean split, and the
        // patch charges the walk's reads it stands for, so a clean
        // frame's restore is a restore.  Correctness never depends on
        // the work-list: the records learn which tables were written
        // from the stamps at the window's close, not from a list idle
        // time retired frames from.  Anything the retained records do not
        // cover falls back to the whole walk from the live tables, one
        // generation increment and all (DESIGN.md §7b).
        let tables = self.kernel().all_table_frames();
        self.reattach_accounting(cpu, &self.hypervisor().page_info, &tables)?;
        self.accounted(cpu, p0);
        Ok(())
    }

    /// Attach-time frame accounting without a baseline (the legacy
    /// strategies): the whole-pool walk, its scan shared with the
    /// rendezvoused peers when there are any (§5.4).
    pub(crate) fn account_full(&self, r: &Round<'_>) -> Result<(), SwitchError> {
        let cpu = r.cpu;
        let p0 = cpu.cycles();
        let per_frame = self.strategy().row().walk_per_frame;
        if self.kernel().machine.num_cpus() > 1 {
            self.sharded_recompute_phase(r, per_frame)?;
        } else {
            // volint::cost(1638400) — worst case serial scan: 16384 pool frames × PGINFO_RECOMPUTE_PER_FRAME(100)
            self.rebuild_accounting(cpu, &self.hypervisor().page_info, per_frame)?;
        }
        self.accounted(cpu, p0);
        Ok(())
    }

    /// Rebuild `table`'s accounting for the kernel's domain from the
    /// live page tables, charging `per_frame` cycles per owned frame
    /// ([`Self::bind_accounting`]).
    pub(crate) fn rebuild_accounting(
        &self,
        cpu: &Arc<Cpu>,
        table: &PageInfoTable,
        per_frame: u64,
    ) -> Result<(), SwitchError> {
        let dom = self.dom0().id;
        self.bind_accounting(|mem, owned, pgds| {
            table
                .recompute_for_at(cpu, mem, dom, owned, pgds, per_frame)
                .map(|()| false)
        })
    }

    /// [`Self::rebuild_accounting`] under a dirty baseline: the
    /// detach's retained records patched by what changed, or the whole
    /// walk where they do not cover it ([`PageInfoTable::reattach`]);
    /// the cycles and the records are the walk's either way.
    /// `tables` is every page-table frame of the kernel, sorted.
    fn reattach_accounting(
        &self,
        cpu: &Arc<Cpu>,
        table: &PageInfoTable,
        tables: &[FrameNum],
    ) -> Result<(), SwitchError> {
        let dom = self.dom0().id;
        self.bind_accounting(|mem, owned, pgds| table.reattach(cpu, mem, dom, owned, pgds, tables))
    }

    /// Account the kernel's domain with `account` (memory, owned
    /// frames, base tables; whether the retained records served) and
    /// bind the base tables to the domain — even if it failed: the
    /// `undo` of the row that called unbinds them, and a caller that is
    /// itself an `undo` has nowhere to report to.
    fn bind_accounting(
        &self,
        account: impl FnOnce(&PhysMemory, usize, &[FrameNum]) -> Result<bool, HvError>,
    ) -> Result<(), SwitchError> {
        let kernel = self.kernel();
        let pgds = kernel.all_pgds();
        let walked = account(&kernel.machine.mem, kernel.pool_size(), &pgds);
        self.dom0().reset_pgds(pgds);
        if walked == Ok(true) {
            self.stats.delta_attaches.fetch_add(1, Ordering::Relaxed);
        }
        let walked = walked.map(drop);
        // volint::allow(SWITCH-ALLOC): map_err string materializes only on the failure path, after the transfer has already aborted
        walked.map_err(|e| SwitchError::Transfer(e.to_string()))
    }

    /// An attach-side accounting row succeeded: publish its makespan.
    fn accounted(&self, cpu: &Arc<Cpu>, p0: u64) {
        self.stats
            .last_pginfo_cycles
            .store(cpu.cycles() - p0, Ordering::Relaxed);
    }

    /// Forget the attach-time accounting again: the kernel stays native.
    pub(crate) fn drop_accounting(&self, _: &Round<'_>) -> Result<(), SwitchError> {
        self.release_accounting();
        Ok(())
    }

    /// The dormant VMM stops tracking: drop the type restrictions and
    /// the domain's base-table list.
    fn release_accounting(&self) {
        self.hypervisor().page_info.clear_types_for(self.dom0().id);
        self.unbind_pgds();
    }

    /// The domain has no base tables the VMM validated.
    fn unbind_pgds(&self) {
        // volint::allow(SWITCH-ALLOC): Vec::new is capacity 0 — no heap touch
        self.dom0().reset_pgds(Vec::new());
    }

    /// Detach-side accounting under a dirty baseline: *retain* the
    /// just-live accounting as the next attach's snapshot and only drop
    /// the type restrictions on the pinned table frames — O(tables)
    /// (DESIGN.md §7b).  The records stay restorable, with the tables
    /// they stand for ([`PageInfoTable::retain`]).
    pub(crate) fn retain_accounting(&self, r: &Round<'_>) -> Result<(), SwitchError> {
        let hv = self.hypervisor();
        hv.deactivate();
        let tables = self.kernel().all_table_frames();
        // volint::cost(6400) — release pass over the ≤ 256 pinned table frames × PGINFO_CLEAR_PER_FRAME(25); the snapshot itself is retained, not wiped
        r.cpu
            .tick(costs::PGINFO_CLEAR_PER_FRAME * tables.len() as u64);
        hv.page_info.retain(self.dom0().id, tables);
        self.unbind_pgds();
        Ok(())
    }

    /// Detach-side accounting without a baseline: wipe it wholesale (a
    /// per-frame release pass — the "cheap direction" of §7.4, but
    /// still O(owned)).
    pub(crate) fn clear_accounting(&self, r: &Round<'_>) -> Result<(), SwitchError> {
        self.hypervisor().deactivate();
        // volint::cost(409600) — 16384 pool frames × PGINFO_CLEAR_PER_FRAME(25)
        r.cpu
            .tick(costs::PGINFO_CLEAR_PER_FRAME * self.kernel().pool_size() as u64);
        self.release_accounting();
        Ok(())
    }

    /// Re-arm the accounting a detach released: the kernel stays virtual.
    pub(crate) fn rearm_accounting(&self, r: &Round<'_>) -> Result<(), SwitchError> {
        let hv = self.hypervisor();
        let _ = self.rebuild_accounting(r.cpu, &hv.page_info, self.strategy().row().walk_per_frame);
        hv.activate();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch::tests::{rig, scratch_walk};
    use crate::vo::VO_INDIRECT;
    use nimbus::kernel::MmapBacking;
    use nimbus::mm::Prot;
    use nimbus::paravirt::{BareOps, PvOps};
    use nimbus::Session;
    use simx86::paging::{Pte, VirtAddr, PAGE_SIZE};

    /// Store an unchanged entry back into each of `tables` through the
    /// kernel's VO: a store that stamps the table and changes nothing.
    fn restore_entries(mercury: &Mercury, tables: &[FrameNum]) {
        let kernel = mercury.kernel();
        let cpu = kernel.machine.boot_cpu();
        for &table in tables {
            let entry = kernel.machine.mem.read_pte(cpu, table, 0).unwrap();
            kernel.pv().set_pte(cpu, table, 0, entry).unwrap();
        }
    }

    /// The lattice pinned against the mechanism: per strategy, what the
    /// native VO, the attach-time accounting phase and the detach are
    /// *measured* to cost, against the figures of DESIGN.md §7b typed
    /// here.  The dirty set is made of real stores: three kernel tables
    /// re-store an entry, and a child alive at the detach exits while
    /// native, leaving its tables freed.
    #[test]
    fn lattice_rows_price_the_mechanism() {
        use TrackingStrategy::*;
        assert_eq!(TrackingStrategy::default(), DirtyRecompute);
        let scan = costs::PGINFO_RECOMPUTE_PER_FRAME;
        // (strategy, native cycles per PTE write, whole-pool attach
        // rate — `None` under a dirty baseline).
        let lattice = [
            (RecomputeOnSwitch, 0, Some(scan)),
            (
                ActiveTracking,
                costs::ACTIVE_TRACK_PER_PTE,
                Some(ADOPT_PER_FRAME),
            ),
            (DirtyRecompute, costs::DIRTY_TRACK_PER_PTE, None),
        ];
        assert_eq!(lattice.map(|row| row.0), TrackingStrategy::ALL);
        let mut detach_rest = Vec::new();
        for (strategy, per_pte, walk) in lattice {
            let (machine, _, mercury) = rig(1, strategy);
            let cpu = machine.boot_cpu();
            let kernel = mercury.kernel();
            let owned = kernel.pool_frames().len();
            let stat = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);

            // Native VO: a 16-entry write to a frame outside the pool
            // costs the bare write, the indirection, and the row's rate
            // per entry.
            let table = machine.allocator.alloc(cpu).unwrap();
            let updates: Vec<(usize, Pte)> = (0..16).map(|i| (i, Pte::ABSENT)).collect();
            let t0 = cpu.cycles();
            BareOps::new(Arc::clone(&machine))
                .set_ptes(cpu, table, &updates)
                .unwrap();
            let bare = cpu.cycles() - t0;
            let t0 = cpu.cycles();
            kernel.pv().set_ptes(cpu, table, &updates).unwrap();
            let counted = cpu.cycles() - t0;
            assert_eq!(counted, bare + VO_INDIRECT + 16 * per_pte, "{strategy:?}");

            // Attach, and return the accounting phase net of the
            // validation walk itself (the scratch walk at rate 0).
            let attach = || {
                mercury.switch_to_virtual(cpu).unwrap();
                stat(&mercury.stats.last_pginfo_cycles) - scratch_walk(&mercury, 0).0
            };

            // First attach, nothing stored: the whole-pool walk, or —
            // pre-cached at boot — an all-clean restore.
            let first = attach();
            let rate = walk.unwrap_or(RESTORE_PER_FRAME);
            assert_eq!(first, rate * owned as u64, "{strategy:?}: first attach");
            // A child with pages of its own, alive at the detach.
            let sess = Session::new(Arc::clone(kernel), 0);
            sess.fork().unwrap();
            assert_eq!(
                sess.waitpid().unwrap(),
                None,
                "the parent blocks, the child runs"
            );
            let va = sess.mmap(8, Prot::RW, MmapBacking::Anon).unwrap();
            sess.poke(va, 1).unwrap();
            // Detach: an O(owned) wipe, or an O(tables) release under a
            // baseline.  The rest of a detach costs the same everywhere.
            mercury.switch_to_native(cpu).unwrap();
            let at_detach = kernel.all_table_frames();
            let released = match walk {
                Some(_) => owned,
                None => at_detach.len(),
            };
            detach_rest.push(
                stat(&mercury.stats.last_detach_cycles)
                    - released as u64 * costs::PGINFO_CLEAR_PER_FRAME,
            );

            sess.exit(0).unwrap();
            assert!(sess.waitpid().unwrap().is_some());
            let live = kernel.all_table_frames();
            restore_entries(&mercury, &live[..3]);
            let dirty = mercury.revalidation_backlog();
            let freed: Vec<FrameNum> = at_detach
                .iter()
                .filter(|f| !live.contains(f))
                .copied()
                .collect();
            if walk.is_none() {
                // The three tables stored to, and the freed tables the
                // exit stored to: nothing else.
                assert!(live[..3].iter().all(|f| dirty.contains(f)), "{strategy:?}");
                let n_live = dirty.iter().filter(|f| live.contains(f)).count();
                let freed_dirty = dirty.iter().filter(|f| freed.contains(f)).count();
                assert!(freed_dirty > 0, "{strategy:?}");
                assert_eq!((n_live, dirty.len()), (3, 3 + freed_dirty), "{strategy:?}");
            }
            let phase = attach();
            if walk.is_some() {
                // No baseline: dirt is not tracked, every attach is the
                // same whole-pool walk.
                assert_eq!(phase, first, "{strategy:?}");
            } else {
                // Dirty frames pay the scan, clean ones the restore.
                let clean = owned - dirty.len();
                let expect = dirty.len() as u64 * scan + clean as u64 * RESTORE_PER_FRAME;
                assert_eq!(phase, expect, "{strategy:?}: {} dirty", dirty.len());
            }
            mercury.switch_to_native(cpu).unwrap();
        }
        assert!(
            detach_rest.windows(2).all(|w| w[0] == w[1]),
            "{detach_rest:?}"
        );
    }

    /// Donated idle time sweeps the attach's work-list: k frames'
    /// worth of budget shrinks it by exactly k, and a table behind the
    /// sweep that is stored to again is back on the list — the attach
    /// pays for it, or the next sweep retires it.
    #[test]
    fn idle_sweep_shrinks_the_attach_work_list_frame_by_frame() {
        let (machine, _, mercury) = rig(1, TrackingStrategy::DirtyRecompute);
        let cpu = machine.boot_cpu();
        let scan = costs::PGINFO_RECOMPUTE_PER_FRAME;
        let owned = mercury.kernel().pool_size() as u64;
        let ten: Vec<FrameNum> = mercury.kernel().all_table_frames()[..10].to_vec();
        // Ten tables stored to, three retired, the lowest stored to again.
        let sweep_three_and_rewrite = || {
            assert_eq!(mercury.revalidation_backlog(), []);
            assert_eq!(mercury.donate_idle(cpu, 50 * scan), 0, "nothing to retire");
            restore_entries(&mercury, &ten);
            let c0 = cpu.cycles();
            assert_eq!(mercury.donate_idle(cpu, 3 * scan + scan / 2), 3 * scan);
            assert_eq!(cpu.cycles() - c0, 3 * scan);
            assert_eq!(mercury.revalidation_backlog()[..], ten[3..]);
            restore_entries(&mercury, &ten[..1]);
            assert_eq!(mercury.revalidation_backlog().len(), 8);
            assert_eq!(mercury.revalidation_backlog()[0], ten[0]);
        };

        // The attach is handed all eight, the re-written one included.
        sweep_three_and_rewrite();
        mercury.switch_to_virtual(cpu).unwrap();
        let phase =
            mercury.stats.last_pginfo_cycles.load(Ordering::Relaxed) - scratch_walk(&mercury, 0).0;
        assert_eq!(phase, 8 * scan + (owned - 8) * RESTORE_PER_FRAME);
        // Virtual: the accounting is live, nothing to donate to.
        assert_eq!(mercury.donate_idle(cpu, 50 * scan), 0);
        mercury.switch_to_native(cpu).unwrap();

        // Or idle time gets there first: the sweep finishes its pass,
        // then a second one retires the frame behind it.
        sweep_three_and_rewrite();
        assert_eq!(mercury.donate_idle(cpu, u64::MAX / 2), 8 * scan);
        assert_eq!(mercury.revalidation_backlog(), []);
        assert_eq!(mercury.stats.idle_revalidated.load(Ordering::Relaxed), 14);
        assert_eq!(
            mercury.stats.idle_cycles_donated.load(Ordering::Relaxed),
            14 * scan
        );
        mercury.switch_to_virtual(cpu).unwrap();
        let phase =
            mercury.stats.last_pginfo_cycles.load(Ordering::Relaxed) - scratch_walk(&mercury, 0).0;
        assert_eq!(phase, owned * RESTORE_PER_FRAME, "an all-clean restore");
    }

    /// Under a dirty baseline, each attach after the first restores
    /// what the detach retained and patches it by the tables
    /// the kernel wrote while native (pages mapped, re-protected and
    /// unmapped in tables that already exist, and a direct-map entry of
    /// a table frame rewritten through the VO, which puts the detach's
    /// flip in a pre-image): the records are the whole walk's, and the
    /// retained records served every time.
    #[test]
    fn a_reattach_from_retained_records_is_the_walk() {
        let (machine, hv, mercury) = rig(1, TrackingStrategy::DirtyRecompute);
        let cpu = machine.boot_cpu();
        let sess = Session::new(Arc::clone(mercury.kernel()), 0);
        let va = sess.mmap(64, Prot::RW, MmapBacking::Anon).unwrap();
        let page = |i: u64| VirtAddr(va.0 + i * PAGE_SIZE);
        sess.poke(page(0), 1).unwrap();
        let served = || mercury.stats.delta_attaches.load(Ordering::Relaxed);
        mercury.switch_to_virtual(cpu).unwrap();
        assert_eq!(served(), 0, "nothing is retained at boot");
        for round in 1..=4u64 {
            mercury.switch_to_native(cpu).unwrap();
            sess.poke(page(round * 3), round).unwrap();
            let prot = [Prot::RO, Prot::RW][round as usize % 2];
            sess.mprotect(page(0), 1, prot).unwrap();
            sess.munmap(page(round * 3 - 2), 1).unwrap();
            let kernel = mercury.kernel();
            let (l1, index) = kernel.kmap().locate(kernel.all_pgds()[0]).unwrap();
            let entry = machine.mem.read_pte(cpu, l1, index).unwrap();
            assert!(entry.writable(), "the detach flipped it writable");
            kernel.pv().set_pte(cpu, l1, index, entry).unwrap();
            mercury.switch_to_virtual(cpu).unwrap();
            assert_eq!(served(), round, "round {round}");
            let walked = scratch_walk(&mercury, 0).1;
            assert_eq!(hv.page_info.snapshot(), walked, "round {round}");
        }
    }

    /// An attach rolled back at any row after the flip reopens the
    /// native window where it opened: the tables the kernel stored to
    /// before the attempt are still the work-list, and the next attach
    /// — which the failed one's two flips leave to the whole walk —
    /// still sees them.
    #[test]
    fn an_attach_rolled_back_past_the_flip_keeps_the_native_window() {
        let (machine, hv, mercury) = rig(1, TrackingStrategy::DirtyRecompute);
        let cpu = machine.boot_cpu();
        let sess = Session::new(Arc::clone(mercury.kernel()), 0);
        let va = sess.mmap(4, Prot::RW, MmapBacking::Anon).unwrap();
        mercury.switch_to_virtual(cpu).unwrap();
        let rows = mercury.phases(crate::Transition::Attach);
        for (i, row) in rows.iter().enumerate().skip(1) {
            mercury.switch_to_native(cpu).unwrap();
            sess.poke(VirtAddr(va.0 + i as u64 * PAGE_SIZE), 7).unwrap();
            sess.mprotect(va, 1, [Prot::RO, Prot::RW][i % 2]).unwrap();
            let before = mercury.revalidation_backlog();
            assert!(!before.is_empty(), "{}", row.name);
            mercury.inject_abort(Some(row.name));
            assert!(mercury.switch_to_virtual(cpu).is_err(), "{}", row.name);
            let after = mercury.revalidation_backlog();
            assert!(
                before.iter().all(|f| after.contains(f)),
                "{}: {after:?}",
                row.name
            );
            mercury.switch_to_virtual(cpu).unwrap();
            assert_eq!(
                hv.page_info.snapshot(),
                scratch_walk(&mercury, 0).1,
                "{}",
                row.name
            );
        }
    }

    /// A retained record wiped — a leaf table's or a writably mapped
    /// frame's, while virtual before the detach or while native — is
    /// repaired by the next attach, as the whole walk repairs it:
    /// retained records stand only for what the validators derived.
    #[test]
    fn a_wiped_retained_record_is_repaired_by_the_next_attach() {
        for while_virtual in [true, false] {
            for leaf_table in [true, false] {
                let (machine, hv, mercury) = rig(1, TrackingStrategy::DirtyRecompute);
                let cpu = machine.boot_cpu();
                mercury.switch_to_virtual(cpu).unwrap();
                // A detach that retained what an attach derived.
                mercury.switch_to_native(cpu).unwrap();
                mercury.switch_to_virtual(cpu).unwrap();
                let wanted =
                    [xenon::PageType::Writable, xenon::PageType::L1][usize::from(leaf_table)];
                let frame = hv
                    .page_info
                    .snapshot()
                    .iter()
                    .position(|rec| rec.typ == wanted);
                let frame = simx86::FrameNum(frame.unwrap() as u32);
                if while_virtual {
                    hv.page_info.corrupt_record(frame);
                }
                mercury.switch_to_native(cpu).unwrap();
                if !while_virtual {
                    hv.page_info.corrupt_record(frame);
                }
                mercury.switch_to_virtual(cpu).unwrap();
                let walked = scratch_walk(&mercury, 0).1;
                let case = format!("{wanted:?} wiped while virtual: {while_virtual}");
                assert_eq!(hv.page_info.snapshot(), walked, "{case}");
            }
        }
    }
}
