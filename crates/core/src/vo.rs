//! Virtualization objects: Mercury's switchable, reference-counted
//! operation tables (§4.2, §5.3).
//!
//! A [`CountedVo`] wraps one of the kernel's paravirt implementations
//! (`BareOps` for the native VO, `XenOps` for the virtual VO) and adds
//! what Mercury needs on top:
//!
//! * **entry/exit reference counting** on every function ("all of these
//!   functions are reference-counted to track the execution of
//!   operating systems in a VO", §5.3);
//! * the small **pointer-indirection cost** the paper attributes to
//!   M-N's residual overhead over native Linux (§7.2: "despite a number
//!   pointer indirection introduced by the virtualization objects ...
//!   Mercury still only incurs negligible overhead");
//! * on the native VO, what the frame-accounting strategy charges per
//!   page-table mutation while the VMM is detached
//!   ([`LatticeRow::native_per_pte`](crate::pgtrack::LatticeRow)): the
//!   **active tracking** mirror of §5.1.2's first strategy, or — under
//!   a dirty baseline, the default — the far cheaper **dirty marking**:
//!   memory stamps the table frame the mutation stores to, so the next
//!   attach revalidates just the written tables.  The sink runs before the
//!   write lands, so at a retained table's first write since the detach
//!   it keeps the frame's pre-image: the old side of the attach's delta
//!   ([`PageInfoTable::reattach`]).  Only a table's first write since the
//!   native window opened takes the frame table's lock; at every other
//!   PTE store the sink is two loads, of the window's epoch and of the
//!   frame's stamp ([`PageInfoTable::note_write`]).

use crate::refcount::VoRefCount;
use nimbus::paravirt::{ExecMode, KernelMap, PvOps};
use nimbus::KernelError;
use simx86::cpu::IdtTable;
use simx86::mem::FrameNum;
use simx86::paging::Pte;
use simx86::{Cpu, Machine};
use std::sync::Arc;
use xenon::PageInfoTable;

/// Cycles charged per VO call: the function-table indirection plus the
/// code/data layout changes the paper attributes M-N's overhead to
/// (Table 1: fork 98 µs → 114 µs over ~400 sensitive ops ≈ 10⁲ cycles
/// per op).
pub const VO_INDIRECT: u64 = 100;

/// A reference-counted virtualization object.
pub struct CountedVo {
    inner: Arc<dyn PvOps>,
    counter: Arc<VoRefCount>,
    /// The native VO's watch on page-table mutations: cycles charged
    /// per entry written and, under a dirty baseline, the sink.  `None`
    /// on the virtual VO — an attached VMM does its own accounting.
    tracking: Option<(u64, Option<DirtySink>)>,
}

/// Under a dirty baseline, where the native VO reports a table frame
/// about to be written: the dormant VMM's frame table, and the memory
/// it keeps pre-images of.
pub type DirtySink = (Arc<PageInfoTable>, Arc<Machine>);

impl CountedVo {
    /// Wrap `inner` with reference counting.  `tracking` is the native
    /// VO's `(cycles per PTE written, pre-image sink)`, `None` for
    /// the virtual VO.
    pub fn new(
        inner: Arc<dyn PvOps>,
        counter: Arc<VoRefCount>,
        tracking: Option<(u64, Option<DirtySink>)>,
    ) -> Arc<CountedVo> {
        Arc::new(CountedVo {
            inner,
            counter,
            tracking,
        })
    }

    /// The shared reference count.
    pub fn counter(&self) -> &Arc<VoRefCount> {
        &self.counter
    }

    #[inline]
    fn enter(&self, cpu: &Arc<Cpu>) -> crate::refcount::VoGuard<'_> {
        cpu.tick(VO_INDIRECT);
        self.counter.enter()
    }

    /// Extra per-entry cost of a native page-table mutation under the
    /// strategies that watch native mode: the full mirror update of
    /// active tracking (§5.1.2), or a dirty baseline's one-word stamp
    /// on the containing table frame.
    #[inline]
    fn track(&self, cpu: &Arc<Cpu>, table: FrameNum, entries: u64) {
        let Some((per_pte, sink)) = &self.tracking else {
            return;
        };
        cpu.tick(per_pte * entries);
        if let Some((pi, machine)) = sink {
            pi.note_write(&machine.mem, table);
        }
    }
}

impl PvOps for CountedVo {
    fn mode(&self) -> ExecMode {
        self.inner.mode()
    }
    fn name(&self) -> &'static str {
        match self.inner.mode() {
            ExecMode::Native => "mercury-native-vo",
            ExecMode::Virtual => "mercury-virtual-vo",
        }
    }

    fn irq_disable(&self, cpu: &Arc<Cpu>) {
        let _g = self.enter(cpu);
        self.inner.irq_disable(cpu)
    }
    fn irq_enable(&self, cpu: &Arc<Cpu>) {
        let _g = self.enter(cpu);
        self.inner.irq_enable(cpu)
    }
    fn load_base_table(&self, cpu: &Arc<Cpu>, pgd: FrameNum) -> Result<(), KernelError> {
        let _g = self.enter(cpu);
        self.inner.load_base_table(cpu, pgd)
    }
    fn load_trap_table(&self, cpu: &Arc<Cpu>, idt: Arc<IdtTable>) -> Result<(), KernelError> {
        let _g = self.enter(cpu);
        self.inner.load_trap_table(cpu, idt)
    }
    fn set_kernel_stack(&self, cpu: &Arc<Cpu>, sp: u64) -> Result<(), KernelError> {
        let _g = self.enter(cpu);
        self.inner.set_kernel_stack(cpu, sp)
    }
    fn syscall_entry(&self, cpu: &Arc<Cpu>) {
        cpu.tick(VO_INDIRECT);
        self.inner.syscall_entry(cpu)
    }
    fn syscall_exit(&self, cpu: &Arc<Cpu>) {
        self.inner.syscall_exit(cpu)
    }
    fn context_switch_extra(&self, cpu: &Arc<Cpu>) {
        let _g = self.enter(cpu);
        self.inner.context_switch_extra(cpu)
    }

    fn set_pte(
        &self,
        cpu: &Arc<Cpu>,
        table: FrameNum,
        index: usize,
        val: Pte,
    ) -> Result<(), KernelError> {
        let _g = self.enter(cpu);
        self.track(cpu, table, 1);
        self.inner.set_pte(cpu, table, index, val)
    }
    fn set_ptes(
        &self,
        cpu: &Arc<Cpu>,
        table: FrameNum,
        updates: &[(usize, Pte)],
    ) -> Result<(), KernelError> {
        let _g = self.enter(cpu);
        self.track(cpu, table, updates.len() as u64);
        self.inner.set_ptes(cpu, table, updates)
    }
    fn flush_tlb(&self, cpu: &Arc<Cpu>) {
        let _g = self.enter(cpu);
        self.inner.flush_tlb(cpu)
    }
    fn flush_tlb_all(&self, cpu: &Arc<Cpu>) {
        let _g = self.enter(cpu);
        self.inner.flush_tlb_all(cpu)
    }
    fn invlpg(&self, cpu: &Arc<Cpu>, vpn: u64) {
        let _g = self.enter(cpu);
        self.inner.invlpg(cpu, vpn)
    }
    fn register_page_table(
        &self,
        cpu: &Arc<Cpu>,
        kmap: &KernelMap,
        frame: FrameNum,
    ) -> Result<(), KernelError> {
        let _g = self.enter(cpu);
        self.track(cpu, frame, 1);
        self.inner.register_page_table(cpu, kmap, frame)
    }
    fn unregister_page_table(
        &self,
        cpu: &Arc<Cpu>,
        kmap: &KernelMap,
        frame: FrameNum,
    ) -> Result<(), KernelError> {
        let _g = self.enter(cpu);
        self.track(cpu, frame, 1);
        self.inner.unregister_page_table(cpu, kmap, frame)
    }
    fn pin_base_table(&self, cpu: &Arc<Cpu>, pgd: FrameNum) -> Result<(), KernelError> {
        let _g = self.enter(cpu);
        // Tracking a pin replays a table-sized validation in the mirror.
        self.track(cpu, pgd, simx86::paging::ENTRIES_PER_TABLE as u64 / 8);
        self.inner.pin_base_table(cpu, pgd)
    }
    fn unpin_base_table(&self, cpu: &Arc<Cpu>, pgd: FrameNum) -> Result<(), KernelError> {
        let _g = self.enter(cpu);
        self.track(cpu, pgd, simx86::paging::ENTRIES_PER_TABLE as u64 / 8);
        self.inner.unpin_base_table(cpu, pgd)
    }

    fn console_write(&self, cpu: &Arc<Cpu>, msg: &str) {
        let _g = self.enter(cpu);
        self.inner.console_write(cpu, msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimbus::paravirt::BareOps;
    use simx86::{Machine, MachineConfig};

    use simx86::costs;

    /// A native VO over a bare machine, tracking at `per_pte` cycles.
    fn rig(per_pte: u64) -> (Arc<Machine>, Arc<CountedVo>, Arc<VoRefCount>) {
        let m = Machine::new(MachineConfig {
            num_cpus: 1,
            mem_frames: 64,
            disk_sectors: 64,
        });
        let rc = VoRefCount::new();
        let vo = CountedVo::new(
            BareOps::new(Arc::clone(&m)),
            Arc::clone(&rc),
            Some((per_pte, None)),
        );
        (m, vo, rc)
    }

    #[test]
    fn ops_delegate_and_leave_count_balanced() {
        let (m, vo, rc) = rig(0);
        let cpu = m.boot_cpu();
        vo.set_pte(cpu, FrameNum(3), 0, Pte::new(5, Pte::WRITABLE))
            .unwrap();
        assert_eq!(m.mem.read_pte(cpu, FrameNum(3), 0).unwrap().frame(), 5);
        assert!(rc.is_idle());
        assert_eq!(vo.mode(), ExecMode::Native);
        assert_eq!(vo.name(), "mercury-native-vo");
    }

    #[test]
    fn indirection_charges_cycles() {
        let (m, vo, _rc) = rig(0);
        let cpu = m.boot_cpu();
        let t0 = cpu.cycles();
        vo.flush_tlb(cpu);
        let counted = cpu.cycles() - t0;

        let bare = BareOps::new(Arc::clone(&m));
        let t0 = cpu.cycles();
        bare.flush_tlb(cpu);
        let direct = cpu.cycles() - t0;
        assert_eq!(counted, direct + VO_INDIRECT);
    }

    #[test]
    fn active_tracking_charges_per_entry() {
        let (m, vo_track, _) = rig(costs::ACTIVE_TRACK_PER_PTE);
        let (m2, vo_plain, _) = rig(0);
        let updates: Vec<(usize, Pte)> = (0..16).map(|i| (i, Pte::ABSENT)).collect();

        let cpu = m.boot_cpu();
        let t0 = cpu.cycles();
        vo_track.set_ptes(cpu, FrameNum(3), &updates).unwrap();
        let tracked = cpu.cycles() - t0;

        let cpu2 = m2.boot_cpu();
        let t0 = cpu2.cycles();
        vo_plain.set_ptes(cpu2, FrameNum(3), &updates).unwrap();
        let plain = cpu2.cycles() - t0;

        assert_eq!(tracked, plain + 16 * costs::ACTIVE_TRACK_PER_PTE);
    }

    #[test]
    fn dirty_tracking_stores_one_table_and_charges_less() {
        let m = Machine::new(MachineConfig {
            num_cpus: 1,
            mem_frames: 64,
            disk_sectors: 64,
        });
        let sink = Arc::new(PageInfoTable::new(64));
        let vo = CountedVo::new(
            BareOps::new(Arc::clone(&m)),
            VoRefCount::new(),
            Some((
                costs::DIRTY_TRACK_PER_PTE,
                Some((Arc::clone(&sink), Arc::clone(&m))),
            )),
        );
        let updates: Vec<(usize, Pte)> = (0..16).map(|i| (i, Pte::ABSENT)).collect();

        let mut rounds = xenon::Rounds::default();
        rounds.rebase(&m.mem, (0..64).map(FrameNum).collect());
        let cpu = m.boot_cpu();
        let t0 = cpu.cycles();
        vo.set_ptes(cpu, FrameNum(3), &updates).unwrap();
        let dirty_cost = cpu.cycles() - t0;

        let (m2, vo_plain, _) = rig(0);
        let cpu2 = m2.boot_cpu();
        let t0 = cpu2.cycles();
        vo_plain.set_ptes(cpu2, FrameNum(3), &updates).unwrap();
        let plain = cpu2.cycles() - t0;

        // The write stored to exactly the containing table frame …
        assert_eq!(rounds.pending(&m.mem, &[]), [FrameNum(3)]);
        // … at the dirty rate, well under the active mirror's.
        assert_eq!(dirty_cost, plain + 16 * costs::DIRTY_TRACK_PER_PTE);
        const {
            assert!(
                costs::DIRTY_TRACK_PER_PTE * 4 <= costs::ACTIVE_TRACK_PER_PTE,
                "dirty marking must stay far cheaper than the active mirror"
            )
        };
    }
}
