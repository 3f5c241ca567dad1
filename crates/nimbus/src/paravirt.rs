//! The paravirt-ops layer: every virtualization-sensitive operation the
//! kernel performs, behind one swappable object.
//!
//! This is the reproduction of the paper's core interface idea (§4.2):
//! "Mercury groups all virtualization sensitive code and data, and
//! defines a unified interface: a virtualization object composed of a
//! function table and a data table."  In Rust the function table is a
//! trait object; swapping the active implementation relocates the
//! kernel's sensitive code in one pointer store.
//!
//! The kernel ships the two non-switching implementations the paper
//! benchmarks against:
//!
//! * [`BareOps`] — direct hardware access; what unmodified native Linux
//!   (N-L) does, and what a VT-x non-root guest does (§8).
//! * [`XenOps`] — hypercalls into a live Xenon; what Xen-Linux (X-0 and
//!   X-U) does.
//!
//! The mercury crate layers reference-counted, switchable
//! virtualization objects (native VO / virtual VO) on top of these.

use crate::error::KernelError;
use simx86::cpu::IdtTable;
use simx86::mem::FrameNum;
use simx86::paging::{Pte, KERNEL_BASE, PAGE_SIZE};
use simx86::{costs, Cpu, VirtAddr};
use std::sync::Arc;
use xenon::{Domain, Hypervisor};

/// The kernel's execution mode (§3.2): on bare hardware or on a VMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Directly on hardware, most privileged.
    Native,
    /// De-privileged on a hypervisor.
    Virtual,
}

/// Locator for the kernel's direct map: which L1 table and slot holds
/// the kernel-space mapping of a given physical frame.
///
/// Page-table frames must have their direct-map entry flipped read-only
/// in virtual mode (§5.1.2: "page table pages, which are read-only in
/// the virtualized modes while writable in the native mode") — this
/// struct is how the paravirt layer and Mercury's state-transfer
/// functions find those entries.
///
/// Slot assignments are *recorded*, not recomputed from frame numbers:
/// after a restore or live migration the kernel's frames are renumbered
/// (the machine-vs-pseudo-physical distinction of §3.2.2), the page
/// tables are rewritten in place, and this map is translated through
/// the relocation — the direct-map *virtual* layout never changes.
#[derive(Debug, Clone, Default)]
pub struct KernelMap {
    /// Kernel L1 tables, as `(l2 index, table frame)` pairs.
    pub l1s: Vec<(usize, FrameNum)>,
    /// Frame → (holding L1 table, slot index, mapped kernel VA).
    pub slots: std::collections::HashMap<u32, (FrameNum, usize, u64)>,
}

impl KernelMap {
    /// The boot-time kernel virtual address for frame `f` (identity
    /// direct map; only valid before any relocation).
    pub fn boot_va_of(f: FrameNum) -> VirtAddr {
        VirtAddr(KERNEL_BASE + f.0 as u64 * PAGE_SIZE)
    }

    /// Record that `frame` is direct-mapped by slot `idx` of `l1` at
    /// virtual address `va`.
    pub fn record(&mut self, frame: FrameNum, l1: FrameNum, idx: usize, va: VirtAddr) {
        self.slots.insert(frame.0, (l1, idx, va.0));
    }

    /// Locate the direct-map entry for `frame`: `(L1 table frame, slot)`.
    pub fn locate(&self, frame: FrameNum) -> Option<(FrameNum, usize)> {
        self.slots.get(&frame.0).map(|&(l1, idx, _)| (l1, idx))
    }

    /// The kernel virtual address `frame` is direct-mapped at.
    pub fn va_of(&self, frame: FrameNum) -> Option<VirtAddr> {
        self.slots.get(&frame.0).map(|&(_, _, va)| VirtAddr(va))
    }

    /// Remap every frame reference through a relocation map (restore /
    /// live migration: new physical frames, same virtual layout).
    pub fn translate(&mut self, map: &std::collections::HashMap<u32, u32>) {
        let tr = |f: u32| *map.get(&f).unwrap_or(&f);
        for (_, l1) in self.l1s.iter_mut() {
            *l1 = FrameNum(tr(l1.0));
        }
        self.slots = self
            .slots
            .iter()
            .map(|(&f, &(l1, idx, va))| (tr(f), (FrameNum(tr(l1.0)), idx, va)))
            .collect();
    }
}

/// The virtualization-sensitive operation table.
///
/// Mode-dependent cost and mechanism live here; the rest of the kernel
/// is mode-oblivious, which is what lets Mercury switch modes without
/// the kernel noticing (§4.3's behaviour-consistency requirement).
pub trait PvOps: Send + Sync {
    /// Which mode this object implements.
    fn mode(&self) -> ExecMode;
    /// Implementation name (diagnostics).
    fn name(&self) -> &'static str;

    // ---- sensitive CPU operations --------------------------------------

    /// Disable interrupt delivery.
    fn irq_disable(&self, cpu: &Arc<Cpu>);
    /// Enable interrupt delivery.
    fn irq_enable(&self, cpu: &Arc<Cpu>);
    /// Load a new page-table base (CR3) on this CPU.
    fn load_base_table(&self, cpu: &Arc<Cpu>, pgd: FrameNum) -> Result<(), KernelError>;
    /// Install the kernel's trap handlers.
    fn load_trap_table(&self, cpu: &Arc<Cpu>, idt: Arc<IdtTable>) -> Result<(), KernelError>;
    /// Record the kernel stack for the next privilege transition.
    fn set_kernel_stack(&self, cpu: &Arc<Cpu>, sp: u64) -> Result<(), KernelError>;
    /// Charge the mode's syscall entry overhead.
    fn syscall_entry(&self, cpu: &Arc<Cpu>);
    /// Charge the mode's syscall exit overhead.
    fn syscall_exit(&self, cpu: &Arc<Cpu>);
    /// Charge the mode's extra context-switch work (segment reloads
    /// bouncing through the VMM, etc.).
    fn context_switch_extra(&self, cpu: &Arc<Cpu>);

    // ---- sensitive MMU operations ---------------------------------------

    /// Write one page-table entry.
    fn set_pte(
        &self,
        cpu: &Arc<Cpu>,
        table: FrameNum,
        index: usize,
        val: Pte,
    ) -> Result<(), KernelError>;

    /// Write a batch of entries in one table (bulk paths: fork's COW
    /// marking, munmap).  Implementations may batch hypercalls.
    fn set_ptes(
        &self,
        cpu: &Arc<Cpu>,
        table: FrameNum,
        updates: &[(usize, Pte)],
    ) -> Result<(), KernelError>;

    /// Flush this CPU's TLB.
    fn flush_tlb(&self, cpu: &Arc<Cpu>);
    /// TLB shootdown: flush every CPU's TLB (mapping teardown on SMP —
    /// remote cores must not keep stale translations).
    fn flush_tlb_all(&self, cpu: &Arc<Cpu>);
    /// Invalidate one page translation.
    fn invlpg(&self, cpu: &Arc<Cpu>, vpn: u64);

    /// Declare that `frame` is now a page table: in virtual mode its
    /// direct-map entry goes read-only so validation can succeed.
    fn register_page_table(
        &self,
        cpu: &Arc<Cpu>,
        kmap: &KernelMap,
        frame: FrameNum,
    ) -> Result<(), KernelError>;

    /// Inverse of [`Self::register_page_table`]: the frame returns to
    /// ordinary (writable-mapped) use.
    fn unregister_page_table(
        &self,
        cpu: &Arc<Cpu>,
        kmap: &KernelMap,
        frame: FrameNum,
    ) -> Result<(), KernelError>;

    /// Pin a base table so it may be loaded into CR3.
    fn pin_base_table(&self, cpu: &Arc<Cpu>, pgd: FrameNum) -> Result<(), KernelError>;
    /// Unpin a base table (process teardown).
    fn unpin_base_table(&self, cpu: &Arc<Cpu>, pgd: FrameNum) -> Result<(), KernelError>;

    // ---- sensitive I/O ---------------------------------------------------

    /// Emit a kernel log line.
    fn console_write(&self, cpu: &Arc<Cpu>, msg: &str);
}

// ===========================================================================
// BareOps: direct hardware access (native Linux, or a VT-x guest)
// ===========================================================================

/// Direct privileged instructions and stores: what an unmodified kernel
/// does, at PL0.
///
/// Natively ([`BareOps::new`]) that is the bare machine.  Under hardware
/// assist ([`BareOps::hvm`], the paper's §8 extension) the kernel runs
/// in VT-x non-root mode at its own PL0, so *nothing is de-privileged*:
/// MMU writes are direct stores (EPT provides isolation), the kernel
/// keeps its own gate table, and page tables need no registration,
/// pinning or read-only flipping.  The costs move instead into VM exits
/// on external interrupts and device I/O, charged by the CPU dispatch
/// path and the drivers, and on the console.  This realizes §8's
/// prediction: "this could make the mode switch ... much easier to
/// implement.  Further, the nested page table or extended page table
/// could ease the tracking of the states of each page."
pub struct BareOps {
    machine: Arc<simx86::Machine>,
    /// `Virtual` for a non-root guest.
    mode: ExecMode,
}

impl BareOps {
    /// Operations against `machine`'s bare hardware.
    pub fn new(machine: Arc<simx86::Machine>) -> Arc<BareOps> {
        Arc::new(BareOps {
            machine,
            mode: ExecMode::Native,
        })
    }

    /// Operations for a non-root guest on `machine`.
    pub fn hvm(machine: Arc<simx86::Machine>) -> Arc<BareOps> {
        Arc::new(BareOps {
            machine,
            mode: ExecMode::Virtual,
        })
    }
}

impl PvOps for BareOps {
    fn mode(&self) -> ExecMode {
        self.mode
    }
    fn name(&self) -> &'static str {
        match self.mode {
            ExecMode::Native => "bare",
            ExecMode::Virtual => "hvm",
        }
    }

    fn irq_disable(&self, cpu: &Arc<Cpu>) {
        cpu.cli().expect("a bare or non-root kernel runs at PL0");
    }
    fn irq_enable(&self, cpu: &Arc<Cpu>) {
        cpu.sti().expect("a bare or non-root kernel runs at PL0");
    }
    fn load_base_table(&self, cpu: &Arc<Cpu>, pgd: FrameNum) -> Result<(), KernelError> {
        // With EPT, guest CR3 loads need not exit.
        cpu.write_cr3(pgd.0)?;
        Ok(())
    }
    fn load_trap_table(&self, cpu: &Arc<Cpu>, idt: Arc<IdtTable>) -> Result<(), KernelError> {
        cpu.lidt(idt)?;
        Ok(())
    }
    fn set_kernel_stack(&self, cpu: &Arc<Cpu>, _sp: u64) -> Result<(), KernelError> {
        cpu.tick(30); // TSS.esp0 store
        Ok(())
    }
    fn syscall_entry(&self, cpu: &Arc<Cpu>) {
        cpu.tick(costs::SYSCALL_NATIVE / 2);
    }
    fn syscall_exit(&self, cpu: &Arc<Cpu>) {
        cpu.tick(costs::SYSCALL_NATIVE / 2);
    }
    fn context_switch_extra(&self, _cpu: &Arc<Cpu>) {}

    fn set_pte(
        &self,
        cpu: &Arc<Cpu>,
        table: FrameNum,
        index: usize,
        val: Pte,
    ) -> Result<(), KernelError> {
        cpu.tick(costs::PTE_WRITE_NATIVE);
        self.machine.mem.write_pte(cpu, table, index, val)?;
        Ok(())
    }

    fn set_ptes(
        &self,
        cpu: &Arc<Cpu>,
        table: FrameNum,
        updates: &[(usize, Pte)],
    ) -> Result<(), KernelError> {
        cpu.tick(costs::PTE_WRITE_NATIVE * updates.len() as u64);
        self.machine.mem.write_ptes(cpu, table, updates)?;
        Ok(())
    }

    fn flush_tlb(&self, cpu: &Arc<Cpu>) {
        cpu.flush_tlb_local();
    }
    fn flush_tlb_all(&self, cpu: &Arc<Cpu>) {
        // IPI shootdown: the cost of notifying each peer, plus the
        // flushes themselves, which each peer is charged now and
        // applies before it next uses its TLB (that stands in for the
        // ack wait).
        for c in &self.machine.cpus {
            if c.id == cpu.id {
                cpu.flush_tlb_local();
            } else {
                cpu.tick(costs::IPI_SEND);
                c.request_tlb_flush();
            }
        }
    }
    fn invlpg(&self, cpu: &Arc<Cpu>, vpn: u64) {
        cpu.invlpg(vpn);
    }

    fn register_page_table(
        &self,
        _cpu: &Arc<Cpu>,
        _kmap: &KernelMap,
        _frame: FrameNum,
    ) -> Result<(), KernelError> {
        // Native kernels keep their page tables writable; under EPT
        // page-table typing is unnecessary.
        Ok(())
    }
    fn unregister_page_table(
        &self,
        _cpu: &Arc<Cpu>,
        _kmap: &KernelMap,
        _frame: FrameNum,
    ) -> Result<(), KernelError> {
        Ok(())
    }
    fn pin_base_table(&self, cpu: &Arc<Cpu>, _pgd: FrameNum) -> Result<(), KernelError> {
        cpu.tick(40); // mm bookkeeping only
        Ok(())
    }
    fn unpin_base_table(&self, cpu: &Arc<Cpu>, _pgd: FrameNum) -> Result<(), KernelError> {
        cpu.tick(40);
        Ok(())
    }

    fn console_write(&self, cpu: &Arc<Cpu>, msg: &str) {
        if self.mode == ExecMode::Virtual {
            // Console I/O exits to the VMM.
            cpu.tick(costs::VMEXIT + costs::VMENTRY);
        }
        self.machine.console.write_line(msg);
    }
}

// ===========================================================================
// XenOps: hypercalls into a live Xenon (classic paravirtualization)
// ===========================================================================

/// Virtual-mode operations: every sensitive op becomes a hypercall (or
/// a shared-info fast path, for the interrupt flag).
pub struct XenOps {
    hv: Arc<Hypervisor>,
    dom: Arc<Domain>,
}

impl XenOps {
    /// Operations for `dom` running on `hv`.
    pub fn new(hv: Arc<Hypervisor>, dom: Arc<Domain>) -> Arc<XenOps> {
        Arc::new(XenOps { hv, dom })
    }

    /// The hypervisor this object talks to.
    pub fn hypervisor(&self) -> &Arc<Hypervisor> {
        &self.hv
    }

    /// The domain this object acts for.
    pub fn domain(&self) -> &Arc<Domain> {
        &self.dom
    }
}

impl PvOps for XenOps {
    fn mode(&self) -> ExecMode {
        ExecMode::Virtual
    }
    fn name(&self) -> &'static str {
        "xen"
    }

    fn irq_disable(&self, cpu: &Arc<Cpu>) {
        // Shared-info virtual IF: no trap, a store the VMM honors.
        cpu.tick(6);
        cpu.set_if_raw(false);
    }
    fn irq_enable(&self, cpu: &Arc<Cpu>) {
        cpu.tick(6);
        cpu.set_if_raw(true);
    }

    fn load_base_table(&self, cpu: &Arc<Cpu>, pgd: FrameNum) -> Result<(), KernelError> {
        self.hv.new_baseptr(cpu, &self.dom, pgd)?;
        Ok(())
    }

    fn load_trap_table(&self, cpu: &Arc<Cpu>, idt: Arc<IdtTable>) -> Result<(), KernelError> {
        let mut entries = Vec::new();
        for v in 0..simx86::cpu::N_VECTORS as u8 {
            if let Some(gate) = idt.gate(v) {
                entries.push((v, Arc::clone(&gate.sink)));
            }
        }
        self.hv.set_trap_table(cpu, &self.dom, entries)?;
        Ok(())
    }

    fn set_kernel_stack(&self, cpu: &Arc<Cpu>, sp: u64) -> Result<(), KernelError> {
        self.hv.stack_switch(cpu, &self.dom, 0, sp)?;
        Ok(())
    }

    fn syscall_entry(&self, cpu: &Arc<Cpu>) {
        cpu.tick(costs::SYSCALL_NATIVE / 2 + costs::SYSCALL_VIRT_EXTRA / 2);
    }
    fn syscall_exit(&self, cpu: &Arc<Cpu>) {
        cpu.tick(costs::SYSCALL_NATIVE / 2 + costs::SYSCALL_VIRT_EXTRA / 2);
    }
    fn context_switch_extra(&self, cpu: &Arc<Cpu>) {
        cpu.tick(costs::CTX_SWITCH_VIRT_EXTRA);
    }

    fn set_pte(
        &self,
        cpu: &Arc<Cpu>,
        table: FrameNum,
        index: usize,
        val: Pte,
    ) -> Result<(), KernelError> {
        self.set_ptes(cpu, table, &[(index, val)])
    }

    fn set_ptes(
        &self,
        cpu: &Arc<Cpu>,
        table: FrameNum,
        updates: &[(usize, Pte)],
    ) -> Result<(), KernelError> {
        // A validated table takes one mmu_update per xenon::MMU_BATCH entries.
        if !self.hv.update_table(cpu, &self.dom, table, updates)? {
            // Unvalidated tables (still being built) take direct writes;
            // the pin validates them wholesale.
            cpu.tick(costs::PTE_WRITE_NATIVE * updates.len() as u64);
            self.hv.machine.mem.write_ptes(cpu, table, updates)?;
        }
        Ok(())
    }

    fn flush_tlb(&self, cpu: &Arc<Cpu>) {
        let _ = self.hv.tlb_flush_local(cpu);
    }
    fn flush_tlb_all(&self, cpu: &Arc<Cpu>) {
        let _ = self.hv.tlb_flush_all(cpu);
    }
    fn invlpg(&self, cpu: &Arc<Cpu>, vpn: u64) {
        let _ = self.hv.invlpg(cpu, vpn);
    }

    fn register_page_table(
        &self,
        cpu: &Arc<Cpu>,
        kmap: &KernelMap,
        frame: FrameNum,
    ) -> Result<(), KernelError> {
        // Flip the frame's direct-map entry read-only so the frame can
        // take a page-table type.
        let Some((l1, index)) = kmap.locate(frame) else {
            return Ok(()); // not direct-mapped (nothing to flip)
        };
        let cur = self.hv.machine.mem.read_pte(cpu, l1, index)?;
        if !cur.present() {
            return Ok(());
        }
        self.set_pte(cpu, l1, index, cur.without_flags(Pte::WRITABLE))?;
        if let Some(va) = kmap.va_of(frame) {
            self.invlpg(cpu, va.vpn());
        }
        Ok(())
    }

    fn unregister_page_table(
        &self,
        cpu: &Arc<Cpu>,
        kmap: &KernelMap,
        frame: FrameNum,
    ) -> Result<(), KernelError> {
        let Some((l1, index)) = kmap.locate(frame) else {
            return Ok(());
        };
        let cur = self.hv.machine.mem.read_pte(cpu, l1, index)?;
        if !cur.present() {
            return Ok(());
        }
        self.set_pte(cpu, l1, index, cur.with_flags(Pte::WRITABLE))?;
        if let Some(va) = kmap.va_of(frame) {
            self.invlpg(cpu, va.vpn());
        }
        Ok(())
    }

    fn pin_base_table(&self, cpu: &Arc<Cpu>, pgd: FrameNum) -> Result<(), KernelError> {
        self.hv.pin_l2(cpu, &self.dom, pgd)?;
        Ok(())
    }
    fn unpin_base_table(&self, cpu: &Arc<Cpu>, pgd: FrameNum) -> Result<(), KernelError> {
        self.hv.unpin_l2(cpu, &self.dom, pgd)?;
        Ok(())
    }

    fn console_write(&self, cpu: &Arc<Cpu>, msg: &str) {
        let _ = self.hv.console_io(cpu, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simx86::{Machine, MachineConfig, PrivLevel};

    fn machine() -> Arc<Machine> {
        Machine::new(MachineConfig {
            num_cpus: 1,
            mem_frames: 2048,
            disk_sectors: 64,
        })
    }

    #[test]
    fn kernel_map_locates_recorded_entries_and_translates() {
        let mut km = KernelMap {
            l1s: vec![(384, FrameNum(10)), (385, FrameNum(11))],
            slots: Default::default(),
        };
        km.record(
            FrameNum(0),
            FrameNum(10),
            0,
            KernelMap::boot_va_of(FrameNum(0)),
        );
        km.record(
            FrameNum(512),
            FrameNum(11),
            0,
            KernelMap::boot_va_of(FrameNum(512)),
        );
        assert_eq!(km.locate(FrameNum(0)), Some((FrameNum(10), 0)));
        assert_eq!(km.locate(FrameNum(512)), Some((FrameNum(11), 0)));
        assert!(km.locate(FrameNum(512 * 3)).is_none());

        // Relocation: frames renumbered, virtual layout unchanged.
        let map: std::collections::HashMap<u32, u32> =
            [(0u32, 100u32), (512, 612), (10, 110), (11, 111)].into();
        let old_va = km.va_of(FrameNum(0)).unwrap();
        km.translate(&map);
        assert_eq!(km.locate(FrameNum(100)), Some((FrameNum(110), 0)));
        assert_eq!(km.va_of(FrameNum(100)), Some(old_va));
        assert!(km.locate(FrameNum(0)).is_none());
        assert_eq!(km.l1s[0].1, FrameNum(110));
    }

    #[test]
    fn bare_ops_write_hardware_directly() {
        let m = machine();
        let ops = BareOps::new(Arc::clone(&m));
        let cpu = m.boot_cpu();
        assert_eq!(ops.mode(), ExecMode::Native);
        ops.set_pte(cpu, FrameNum(5), 3, Pte::new(7, Pte::WRITABLE))
            .unwrap();
        assert_eq!(m.mem.read_pte(cpu, FrameNum(5), 3).unwrap().frame(), 7);
        ops.load_base_table(cpu, FrameNum(5)).unwrap();
        assert_eq!(cpu.read_cr3().unwrap(), 5);
        ops.console_write(cpu, "hello");
        assert!(m.console.contains("hello"));
    }

    #[test]
    fn xen_ops_route_validated_tables_through_hypercalls() {
        let m = machine();
        let hv = Hypervisor::warm_up(&m);
        hv.activate();
        let cpu = m.boot_cpu();
        let quota = m.allocator.alloc_many(cpu, 8).unwrap();
        let dom = hv.create_domain(cpu, "dom0", quota, 0).unwrap();
        let ops = XenOps::new(Arc::clone(&hv), Arc::clone(&dom));
        assert_eq!(ops.mode(), ExecMode::Virtual);

        let f = dom.frames();
        let (pgd, l1, data) = (f[0], f[1], f[2]);
        // Building: direct writes allowed on unvalidated tables.
        ops.set_pte(cpu, pgd, 0, Pte::new(l1.0, Pte::WRITABLE | Pte::USER))
            .unwrap();
        ops.set_pte(cpu, l1, 0, Pte::new(data.0, Pte::WRITABLE | Pte::USER))
            .unwrap();
        let hc_before = hv
            .stats
            .hypercalls
            .load(std::sync::atomic::Ordering::Relaxed);
        ops.pin_base_table(cpu, pgd).unwrap();

        // Now updates go through mmu_update.
        ops.set_pte(cpu, l1, 1, Pte::new(f[3].0, Pte::WRITABLE | Pte::USER))
            .unwrap();
        let hc_after = hv
            .stats
            .hypercalls
            .load(std::sync::atomic::Ordering::Relaxed);
        assert!(hc_after >= hc_before + 2, "pin + update must be hypercalls");

        // And invalid updates are rejected by validation.
        let err = ops
            .set_pte(cpu, l1, 2, Pte::new(l1.0, Pte::WRITABLE))
            .unwrap_err();
        assert!(matches!(err, KernelError::Hypervisor(_)));
    }

    #[test]
    fn xen_ops_set_ptes_is_one_hypercall_per_mmu_batch() {
        use simx86::paging::ENTRIES_PER_TABLE;
        use std::sync::atomic::Ordering::Relaxed;
        let m = machine();
        let hv = Hypervisor::warm_up(&m);
        hv.activate();
        let cpu = m.boot_cpu();
        let quota = m.allocator.alloc_many(cpu, 8).unwrap();
        let dom = hv.create_domain(cpu, "dom0", quota, 0).unwrap();
        let ops = XenOps::new(Arc::clone(&hv), Arc::clone(&dom));
        let f = dom.frames();
        let (pgd, l1, data) = (f[0], f[1], f[2]);
        ops.set_pte(cpu, pgd, 0, Pte::new(l1.0, Pte::WRITABLE | Pte::USER))
            .unwrap();
        ops.pin_base_table(cpu, pgd).unwrap();

        let mut expect = vec![0u64; ENTRIES_PER_TABLE];
        for (round, n) in [0, 1, 2, 3, ENTRIES_PER_TABLE].into_iter().enumerate() {
            // A different value each round, so a store that did not
            // happen cannot hide behind the previous round's.
            let val = Pte::new(data.0, Pte::USER | ((round as u64 & 1) * Pte::ACCESSED));
            let run: Vec<(usize, Pte)> = (0..n).map(|i| (ENTRIES_PER_TABLE - 1 - i, val)).collect();
            let (calls, entries) = (
                hv.stats.hypercalls.load(Relaxed),
                hv.stats.mmu_entries.load(Relaxed),
            );
            ops.set_ptes(cpu, l1, &run).unwrap();
            assert_eq!(
                hv.stats.hypercalls.load(Relaxed) - calls,
                n.div_ceil(xenon::MMU_BATCH) as u64,
                "{n} entries"
            );
            assert_eq!(hv.stats.mmu_entries.load(Relaxed) - entries, n as u64);
            for &(index, pte) in &run {
                expect[index] = pte.0;
            }
            assert_eq!(m.mem.export_frame(l1).unwrap(), expect, "{n} entries");
        }

        // The first failing chunk stops the run with its error: the
        // chunks before it are in the table, the ones after never ran.
        let good = Pte::new(data.0, Pte::USER | Pte::DIRTY);
        let bad = Pte::new(l1.0, Pte::WRITABLE | Pte::USER);
        let run = [
            (0, good),
            (1, good),
            (2, good),
            (3, bad),
            (4, good),
            (5, good),
        ];
        let calls = hv.stats.hypercalls.load(Relaxed);
        let err = ops.set_ptes(cpu, l1, &run).unwrap_err();
        assert!(matches!(err, KernelError::Hypervisor(_)));
        assert_eq!(hv.stats.hypercalls.load(Relaxed) - calls, 2);
        expect[..3].fill(good.0);
        assert_eq!(m.mem.export_frame(l1).unwrap(), expect);
    }

    #[test]
    fn xen_ops_virtual_if_needs_no_privilege() {
        let m = machine();
        let hv = Hypervisor::warm_up(&m);
        hv.activate();
        let cpu = m.boot_cpu();
        let quota = m.allocator.alloc_many(cpu, 4).unwrap();
        let dom = hv.create_domain(cpu, "dom0", quota, 0).unwrap();
        let ops = XenOps::new(hv, dom);
        cpu.set_pl_raw(PrivLevel::Pl1);
        ops.irq_enable(cpu);
        assert!(cpu.interrupts_enabled());
        ops.irq_disable(cpu);
        assert!(!cpu.interrupts_enabled());
    }

    #[test]
    fn xen_ops_register_page_table_flips_direct_map_ro() {
        let m = machine();
        let hv = Hypervisor::warm_up(&m);
        hv.activate();
        let cpu = m.boot_cpu();
        let quota = m.allocator.alloc_many(cpu, 8).unwrap();
        let dom = hv.create_domain(cpu, "dom0", quota, 0).unwrap();
        let ops = XenOps::new(Arc::clone(&hv), Arc::clone(&dom));
        let f = dom.frames();

        // Kernel L1 (f[0]) direct-maps f[2] writable; f[1] is a pgd
        // referencing the kernel L1 so it can be pinned.
        let km_va = KernelMap::boot_va_of(f[2]);
        let mut km = KernelMap {
            l1s: vec![(km_va.l2_index(), f[0])],
            slots: Default::default(),
        };
        km.record(f[2], f[0], km_va.l1_index(), km_va);
        ops.set_pte(cpu, f[0], km_va.l1_index(), Pte::new(f[2].0, Pte::WRITABLE))
            .unwrap();
        ops.set_pte(cpu, f[1], km_va.l2_index(), Pte::new(f[0].0, Pte::WRITABLE))
            .unwrap();
        ops.pin_base_table(cpu, f[1]).unwrap();

        ops.register_page_table(cpu, &km, f[2]).unwrap();
        let pte = m.mem.read_pte(cpu, f[0], km_va.l1_index()).unwrap();
        assert!(!pte.writable(), "direct-map entry must be read-only");

        ops.unregister_page_table(cpu, &km, f[2]).unwrap();
        let pte = m.mem.read_pte(cpu, f[0], km_va.l1_index()).unwrap();
        assert!(pte.writable());
    }

    /// A shootdown is a request the target honours (DESIGN.md "Who may
    /// write a CPU").  CPU 1 translates one page in a loop on its own
    /// thread while CPU 0 remaps the page and calls `flush_tlb_all`:
    /// every translation CPU 1 starts after a `flush_tlb_all` returned
    /// sees a frame at least that new, and at the join CPU 1's clock is
    /// its own ticks plus exactly one `TLB_FLUSH` per shootdown — which
    /// a peer flush through the owner path (`flush_tlb_local` on CPU 1
    /// from CPU 0's thread) loses cycles from, or trips the debug
    /// build's ownership check.
    #[test]
    fn shootdown_reaches_a_peer_that_is_running_on_its_own_thread() {
        use simx86::fault::AccessKind;
        use simx86::mmu::Mmu;
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

        const SHOOTDOWNS: u64 = 10_000;
        const FRAMES: u64 = 8;
        let (pgd, l1, first_data) = (FrameNum(1), FrameNum(2), 16);
        let frame_of = |remap: u64| first_data + (remap % FRAMES) as u32;
        let flags = Pte::WRITABLE | Pte::ACCESSED;

        let m = Machine::new(MachineConfig {
            num_cpus: 2,
            mem_frames: 2048,
            disk_sectors: 64,
        });
        let ops = BareOps::new(Arc::clone(&m));
        let (cpu0, cpu1) = (Arc::clone(&m.cpus[0]), Arc::clone(&m.cpus[1]));
        let va = VirtAddr(0x0020_3000);
        ops.set_pte(&cpu0, pgd, va.l2_index(), Pte::new(l1.0, flags))
            .unwrap();
        ops.set_pte(&cpu0, l1, va.l1_index(), Pte::new(frame_of(0), flags))
            .unwrap();
        ops.load_base_table(&cpu0, pgd).unwrap();
        ops.load_base_table(&cpu1, pgd).unwrap();

        // What a hit and a miss cost CPU 1, measured before it has company.
        let translate = |cpu: &Cpu| Mmu::translate(&m.mem, cpu, va, AccessKind::Read, false);
        let c = cpu1.cycles();
        translate(&cpu1).unwrap();
        let miss_cost = cpu1.cycles() - c;
        translate(&cpu1).unwrap();
        let hit_cost = cpu1.cycles() - c - miss_cost;
        let (hits0, misses0, flushes0) = cpu1.tlb_stats();
        let cycles0 = cpu1.cycles();

        // Remaps begun, and remaps whose flush_tlb_all has returned.
        let (begun, returned) = (AtomicU64::new(0), AtomicU64::new(0));
        let (rounds, stop) = (AtomicU64::new(0), AtomicBool::new(false));
        // Stops the peer however the scope is left, so a failure on
        // either thread is a failed test and not a hung one.
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        std::thread::scope(|s| {
            let _stop = StopOnDrop(&stop);
            let peer = s.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    let oldest = returned.load(Ordering::SeqCst);
                    let frame = translate(&cpu1).unwrap().frame().0;
                    let newest = begun.load(Ordering::SeqCst);
                    assert!(
                        (oldest..=newest).any(|remap| frame_of(remap) == frame),
                        "frame {frame} is of no remap in {oldest}..={newest}: a stale translation"
                    );
                    cpu1.tick(7);
                    cpu1.service_pending();
                    rounds.fetch_add(1, Ordering::SeqCst);
                }
            });
            for remap in 1..=SHOOTDOWNS {
                begun.store(remap, Ordering::SeqCst);
                ops.set_pte(&cpu0, l1, va.l1_index(), Pte::new(frame_of(remap), flags))
                    .unwrap();
                ops.flush_tlb_all(&cpu0);
                returned.store(remap, Ordering::SeqCst);
                // Now and then wait for the peer to translate against
                // this very remap, whatever the host's scheduler does.
                if remap % 100 == 0 {
                    let seen = rounds.load(Ordering::SeqCst);
                    while rounds.load(Ordering::SeqCst) < seen + 2 {
                        assert!(!peer.is_finished(), "the peer's thread died");
                        std::thread::yield_now();
                    }
                }
            }
        });

        let rounds = rounds.load(Ordering::SeqCst);
        let (hits, misses, flushes) = cpu1.tlb_stats();
        assert_eq!(hits - hits0 + misses - misses0, rounds);
        assert!(
            misses - misses0 >= SHOOTDOWNS / 100,
            "the peer refilled after the waits"
        );
        assert_eq!(
            flushes - flushes0,
            SHOOTDOWNS,
            "one flush counted per shootdown"
        );
        assert_eq!(
            cpu1.cycles() - cycles0,
            (hits - hits0) * hit_cost
                + (misses - misses0) * miss_cost
                + rounds * 7
                + SHOOTDOWNS * costs::TLB_FLUSH,
            "the peer's clock is its own ticks plus one TLB_FLUSH per shootdown"
        );
    }
}
