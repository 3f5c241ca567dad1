//! Per-process address spaces: real two-level page tables with COW fork,
//! demand paging and protection changes — all routed through the
//! paravirt layer so the same code runs in native and virtual mode.

use crate::error::KernelError;
use crate::mm::pool::FramePool;
use crate::paravirt::{KernelMap, PvOps};
use simx86::fault::AccessKind;
use simx86::mem::{FrameNum, PhysMemory};
use simx86::paging::{Pte, VirtAddr, ENTRIES_PER_TABLE, PAGE_SIZE, USER_TOP};
use simx86::{costs, Cpu};
use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::Arc;

/// Protection of a VMA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prot {
    /// May user code write?
    pub write: bool,
}

impl Prot {
    /// Read-only.
    pub const RO: Prot = Prot { write: false };
    /// Read-write.
    pub const RW: Prot = Prot { write: true };
}

/// What backs a VMA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmaKind {
    /// Demand-zero anonymous memory.
    Anon,
    /// A file mapping (`mmap` of an inode at `offset`).
    File {
        /// Backing inode.
        inode: u32,
        /// Byte offset of the mapping's first page within the file.
        offset: u64,
    },
    /// Program text/data, shared from a program image's page cache.
    Image {
        /// Program name in the registry.
        prog: String,
        /// First image page this VMA covers.
        page_off: usize,
        /// Pages that are private (copied) rather than shared: writable
        /// data segments.
        private: bool,
    },
}

/// One virtual memory area.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vma {
    /// First byte.
    pub start: u64,
    /// One past the last byte (page aligned).
    pub end: u64,
    /// Protection.
    pub prot: Prot,
    /// Backing.
    pub kind: VmaKind,
}

impl Vma {
    /// Does the VMA contain `va`?
    pub fn contains(&self, va: VirtAddr) -> bool {
        (self.start..self.end).contains(&va.0)
    }

    /// Pages spanned.
    pub fn pages(&self) -> u64 {
        (self.end - self.start) / PAGE_SIZE
    }
}

/// Everything an MM operation needs: the CPU to charge, the active
/// paravirt object, memory, the frame pool and the direct-map locator.
pub struct MmCtx<'a> {
    /// CPU executing the operation.
    pub cpu: &'a Arc<Cpu>,
    /// Active virtualization-sensitive operation table.
    pub pv: &'a Arc<dyn PvOps>,
    /// Physical memory.
    pub mem: &'a PhysMemory,
    /// The kernel's frame pool.
    pub pool: &'a mut FramePool,
    /// Direct-map locator (for page-table registration).
    pub kmap: &'a KernelMap,
}

/// How a page fault was resolved (telemetry for tests and benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultFix {
    /// Demand-zero page mapped.
    DemandZero,
    /// COW broken: private copy made.
    CowCopy,
    /// COW resolved in place (sole owner).
    CowReuse,
    /// File/image page mapped (caller supplied the frame).
    Mapped,
    /// The access violates the VMA's protection: deliver a signal.
    Signal,
}

/// Entries to store into one L1 table: the table, and (index, value)
/// pairs in ascending index order — one `PvOps::set_ptes` call.
type TableRun = (FrameNum, Vec<(usize, Pte)>);

/// A process address space.
///
/// Cloneable: checkpoint/restore carries it in the guest state, with
/// frame numbers translated through the relocation map.
#[derive(Debug, Clone, PartialEq)]
pub struct AddressSpace {
    /// Base (L2) table frame.
    pub pgd: FrameNum,
    /// User-region L1 tables, keyed by L2 index.
    pub user_l1s: Vec<(usize, FrameNum)>,
    /// The VMA list.
    pub vmas: Vec<Vma>,
    /// Has the base table been pinned (and therefore validated)?
    pub pinned: bool,
}

impl AddressSpace {
    /// Build a fresh address space: a zeroed base table carrying the
    /// shared kernel mappings.  Call [`AddressSpace::pin`] once the
    /// initial user mappings are in place.
    pub fn new(
        ctx: &mut MmCtx<'_>,
        kernel_pdes: &[(usize, Pte)],
    ) -> Result<AddressSpace, KernelError> {
        let pgd = ctx.pool.alloc(ctx.cpu).ok_or(KernelError::NoMem)?;
        ctx.mem.zero_frame(ctx.cpu, pgd)?;
        // Kernel mappings are written directly: the table is not yet
        // validated, so this is legal in both modes.
        for &(idx, pde) in kernel_pdes {
            ctx.pv.set_pte(ctx.cpu, pgd, idx, pde)?;
        }
        ctx.pv.register_page_table(ctx.cpu, ctx.kmap, pgd)?;
        Ok(AddressSpace {
            pgd,
            user_l1s: Vec::new(),
            vmas: Vec::new(),
            pinned: false,
        })
    }

    /// Pin the base table (validates the whole tree in virtual mode).
    pub fn pin(&mut self, ctx: &mut MmCtx<'_>) -> Result<(), KernelError> {
        if !self.pinned {
            ctx.pv.pin_base_table(ctx.cpu, self.pgd)?;
            self.pinned = true;
        }
        Ok(())
    }

    /// The L1 table covering `va`, creating it if needed.
    pub fn ensure_l1(
        &mut self,
        ctx: &mut MmCtx<'_>,
        va: VirtAddr,
    ) -> Result<FrameNum, KernelError> {
        let l2 = va.l2_index();
        if let Some((_, f)) = self.user_l1s.iter().find(|(i, _)| *i == l2) {
            return Ok(*f);
        }
        let l1 = ctx.pool.alloc(ctx.cpu).ok_or(KernelError::NoMem)?;
        ctx.mem.zero_frame(ctx.cpu, l1)?;
        ctx.pv.register_page_table(ctx.cpu, ctx.kmap, l1)?;
        ctx.pv.set_pte(
            ctx.cpu,
            self.pgd,
            l2,
            Pte::new(l1.0, Pte::WRITABLE | Pte::USER),
        )?;
        self.user_l1s.push((l2, l1));
        Ok(l1)
    }

    fn l1_of(&self, va: VirtAddr) -> Option<FrameNum> {
        self.user_l1s
            .iter()
            .find(|(i, _)| *i == va.l2_index())
            .map(|(_, f)| *f)
    }

    /// Read the leaf PTE for `va`, if mapped.
    pub fn lookup(&self, ctx: &MmCtx<'_>, va: VirtAddr) -> Result<Option<Pte>, KernelError> {
        let Some(l1) = self.l1_of(va) else {
            return Ok(None);
        };
        let pte = ctx.mem.read_pte(ctx.cpu, l1, va.l1_index())?;
        Ok(pte.present().then_some(pte))
    }

    /// Install a leaf mapping.  The frame must already be owned by the
    /// caller (pool-tracked for Anon, page-cache for images).
    pub fn map_page(
        &mut self,
        ctx: &mut MmCtx<'_>,
        va: VirtAddr,
        frame: FrameNum,
        flags: u64,
    ) -> Result<(), KernelError> {
        debug_assert!(va.0 < USER_TOP, "user mapping outside user region");
        let l1 = self.ensure_l1(ctx, va)?;
        ctx.pv.set_pte(
            ctx.cpu,
            l1,
            va.l1_index(),
            Pte::new(frame.0, flags | Pte::USER),
        )?;
        Ok(())
    }

    /// Add a VMA covering `[start, start + pages*4K)`.
    pub fn add_vma(&mut self, vma: Vma) {
        debug_assert!(vma.start.is_multiple_of(PAGE_SIZE) && vma.end.is_multiple_of(PAGE_SIZE));
        self.vmas.push(vma);
    }

    /// The VMA containing `va`.
    pub fn vma_at(&self, va: VirtAddr) -> Option<&Vma> {
        self.vmas.iter().find(|v| v.contains(va))
    }

    /// Walk the present leaf entries of `pages` pages from `start`,
    /// scanning in each L1 table the range crosses the entries it
    /// covers, and no others, and gather per table the entries `edit`
    /// wants stored (tables with nothing to store are left out).
    fn edit_range(
        &self,
        mem: &PhysMemory,
        cpu: &Cpu,
        start: VirtAddr,
        pages: u64,
        mut edit: impl FnMut(Pte) -> Option<Pte>,
    ) -> Result<Vec<TableRun>, KernelError> {
        let mut runs = Vec::new();
        let mut page = 0;
        while page < pages {
            let va = VirtAddr(start.0 + page * PAGE_SIZE);
            let first = va.l1_index();
            let span = (pages - page).min((ENTRIES_PER_TABLE - first) as u64);
            page += span;
            let Some(l1) = self.l1_of(va) else { continue };
            let mut view = mem.read_table(cpu, l1)?;
            let mut updates = Vec::new();
            let Ok(()) = view.scan(first..first + span as usize, |_, index, pte| {
                if let Some(new) = edit(pte) {
                    updates.push((index, new));
                }
                Ok::<_, Infallible>(())
            });
            if !updates.is_empty() {
                runs.push((l1, updates));
            }
        }
        Ok(runs)
    }

    /// Change protection over a page range (mprotect).  Updates both
    /// the VMA records and any present PTEs, batched per table.
    pub fn protect_range(
        &mut self,
        ctx: &mut MmCtx<'_>,
        start: VirtAddr,
        pages: u64,
        prot: Prot,
    ) -> Result<(), KernelError> {
        let end = start.0 + pages * PAGE_SIZE;
        // Update VMA records (split not supported: whole-VMA protection
        // changes only, which is what the benchmarks need).
        for vma in self.vmas.iter_mut() {
            if vma.start >= start.0 && vma.end <= end {
                vma.prot = prot;
            }
        }
        // Update live PTEs.
        let runs = self.edit_range(ctx.mem, ctx.cpu, start, pages, |pte| {
            let new = if prot.write {
                // COW pages stay read-only until the fault breaks them.
                if pte.cow() {
                    pte
                } else {
                    pte.with_flags(Pte::WRITABLE)
                }
            } else {
                pte.without_flags(Pte::WRITABLE)
            };
            (new != pte).then_some(new)
        })?;
        for (l1, updates) in runs {
            ctx.pv.set_ptes(ctx.cpu, l1, &updates)?;
        }
        // Permissions tightened: every core must drop stale entries.
        ctx.pv.flush_tlb_all(ctx.cpu);
        Ok(())
    }

    /// Unmap a page range, dropping frame references and removing
    /// covered VMAs.  Returns the number of pages that were present.
    pub fn unmap_range(
        &mut self,
        ctx: &mut MmCtx<'_>,
        start: VirtAddr,
        pages: u64,
    ) -> Result<u64, KernelError> {
        let end = start.0 + pages * PAGE_SIZE;
        let mut freed = 0;
        let pool = &mut *ctx.pool;
        let runs = self.edit_range(ctx.mem, ctx.cpu, start, pages, |pte| {
            // Every frame the kernel maps here is the pool's (anonymous
            // and file pages from `alloc`, image pages from the registry,
            // which takes them from `alloc` too), so an entry naming a
            // frame without a count is a corrupted one — the healing
            // scenario's taint points a live PTE at the VMM's pool, and
            // a fork and an exit must survive it (`fork_from` guards its
            // `incref` the same way).  Such a frame is not ours to free.
            if pool.refcount(FrameNum(pte.frame())) > 0 {
                pool.decref(FrameNum(pte.frame()));
            }
            freed += 1;
            Some(Pte::ABSENT)
        })?;
        for (l1, updates) in runs {
            ctx.pv.set_ptes(ctx.cpu, l1, &updates)?;
        }
        // Freed frames may be reused immediately: shoot down all TLBs.
        ctx.pv.flush_tlb_all(ctx.cpu);
        self.vmas.retain(|v| !(v.start >= start.0 && v.end <= end));
        Ok(freed)
    }

    /// Copy-on-write fork: build a child space sharing every present
    /// page read-only.  Writable anonymous pages in both spaces become
    /// COW; the parent's live PTEs are downgraded through the paravirt
    /// layer (a batched `mmu_update` storm in virtual mode — the fork
    /// row of Table 1).
    pub fn fork_from(
        &mut self,
        ctx: &mut MmCtx<'_>,
        kernel_pdes: &[(usize, Pte)],
    ) -> Result<AddressSpace, KernelError> {
        let mut child = AddressSpace::new(ctx, kernel_pdes)?;
        child.vmas = self.vmas.clone();

        for (l2, parent_l1) in self.user_l1s.clone() {
            // Child L1: built with direct writes, registered, hooked in.
            let child_l1 = ctx.pool.alloc(ctx.cpu).ok_or(KernelError::NoMem)?;
            ctx.mem.zero_frame(ctx.cpu, child_l1)?;

            let mut parent_updates: Vec<(usize, Pte)> = Vec::new();
            let mut child_entries: Vec<(usize, Pte)> = Vec::new();
            let mut view = ctx.mem.read_table(ctx.cpu, parent_l1)?;
            let Ok(()) = view.scan(0..ENTRIES_PER_TABLE, |_, idx, pte| {
                let frame = FrameNum(pte.frame());
                let shared = if pte.writable() {
                    // Downgrade both sides to COW read-only.
                    let cow = pte.without_flags(Pte::WRITABLE).with_flags(Pte::COW);
                    parent_updates.push((idx, cow));
                    cow
                } else {
                    pte
                };
                child_entries.push((idx, shared));
                if ctx.pool.refcount(frame) > 0 {
                    ctx.pool.incref(frame);
                }
                Ok::<_, Infallible>(())
            });
            // The reads are on the clock before anything below can
            // stamp it (the paravirt calls carry trace probes).
            drop(view);
            // Direct writes: child table is unvalidated while built.
            ctx.cpu
                .tick(costs::PTE_WRITE_NATIVE * child_entries.len() as u64);
            // volint::allow(VO-BYPASS): table not yet registered with any VO
            ctx.mem.write_ptes(ctx.cpu, child_l1, &child_entries)?;
            if !parent_updates.is_empty() {
                ctx.pv.set_ptes(ctx.cpu, parent_l1, &parent_updates)?;
            }
            ctx.pv.register_page_table(ctx.cpu, ctx.kmap, child_l1)?;
            ctx.pv.set_pte(
                ctx.cpu,
                child.pgd,
                l2,
                Pte::new(child_l1.0, Pte::WRITABLE | Pte::USER),
            )?;
            child.user_l1s.push((l2, child_l1));
        }
        // Parent's downgraded translations must leave the TLB.
        ctx.pv.flush_tlb(ctx.cpu);
        child.pin(ctx)?;
        Ok(child)
    }

    /// Resolve a page fault at `va` for `access`.
    ///
    /// Handles demand-zero and COW; image/file-backed faults return
    /// [`FaultFix::Signal`] only if the access is illegal, otherwise the
    /// caller (the kernel, which can reach the filesystem and program
    /// registry) supplies the frame via [`AddressSpace::map_page`].
    pub fn handle_anon_fault(
        &mut self,
        ctx: &mut MmCtx<'_>,
        va: VirtAddr,
        access: AccessKind,
    ) -> Result<FaultFix, KernelError> {
        ctx.cpu.tick(costs::PF_HANDLER);
        let Some(vma) = self.vma_at(va) else {
            return Ok(FaultFix::Signal);
        };
        // The two facts read below, copied out: the borrow ends here and
        // an image VMA's clone would allocate its program name.
        let (prot, anon) = (vma.prot, matches!(vma.kind, VmaKind::Anon));
        if access == AccessKind::Write && !prot.write {
            ctx.cpu.tick(costs::PROT_FAULT_HANDLER);
            return Ok(FaultFix::Signal);
        }

        // COW break?
        if let Some(pte) = self.lookup(ctx, va)? {
            if pte.cow() && access == AccessKind::Write {
                let old = FrameNum(pte.frame());
                let fix = if ctx.pool.refcount(old) == 1 {
                    // Sole owner: upgrade in place.
                    let l1 = self.l1_of(va).expect("mapped page has an L1");
                    ctx.pv.set_pte(
                        ctx.cpu,
                        l1,
                        va.l1_index(),
                        pte.without_flags(Pte::COW).with_flags(Pte::WRITABLE),
                    )?;
                    FaultFix::CowReuse
                } else {
                    let copy = ctx.pool.alloc(ctx.cpu).ok_or(KernelError::NoMem)?;
                    ctx.mem.copy_frame(ctx.cpu, old, copy)?;
                    let l1 = self.l1_of(va).expect("mapped page has an L1");
                    ctx.pv.set_pte(
                        ctx.cpu,
                        l1,
                        va.l1_index(),
                        Pte::new(
                            copy.0,
                            Pte::WRITABLE | Pte::USER | Pte::DIRTY | Pte::ACCESSED,
                        ),
                    )?;
                    ctx.pool.decref(old);
                    FaultFix::CowCopy
                };
                ctx.pv.invlpg(ctx.cpu, va.vpn());
                return Ok(fix);
            }
            // Present, compatible: spurious (stale TLB) — flush and go.
            ctx.pv.invlpg(ctx.cpu, va.vpn());
            return Ok(FaultFix::Mapped);
        }

        if !anon {
            // Backed kinds are the kernel's job (needs fs / registry).
            return Ok(FaultFix::Signal);
        }
        let frame = ctx.pool.alloc(ctx.cpu).ok_or(KernelError::NoMem)?;
        ctx.mem.zero_frame(ctx.cpu, frame)?;
        let flags = if prot.write {
            Pte::WRITABLE | Pte::ACCESSED
        } else {
            Pte::ACCESSED
        };
        self.map_page(ctx, va.page_base(), frame, flags)?;
        Ok(FaultFix::DemandZero)
    }

    /// Tear the space down: unmap everything, unpin, unregister and free
    /// the table frames.
    pub fn destroy(mut self, ctx: &mut MmCtx<'_>) -> Result<(), KernelError> {
        // Free user data frames.
        let vmas = std::mem::take(&mut self.vmas);
        for vma in &vmas {
            let pages = vma.pages();
            self.unmap_range(ctx, VirtAddr(vma.start), pages)?;
        }
        if self.pinned {
            ctx.pv.unpin_base_table(ctx.cpu, self.pgd)?;
        }
        for (_, l1) in &self.user_l1s {
            ctx.pv.unregister_page_table(ctx.cpu, ctx.kmap, *l1)?;
            ctx.pool.decref(*l1);
        }
        ctx.pv.unregister_page_table(ctx.cpu, ctx.kmap, self.pgd)?;
        ctx.pool.decref(self.pgd);
        Ok(())
    }

    /// All page-table frames of this space (pgd + user L1s) — what
    /// Mercury's state transfer flips between RO and RW (§5.1.2).
    pub fn table_frames(&self) -> Vec<FrameNum> {
        // volint::allow(SWITCH-ALLOC): per-aspace table list (pgd + ≤ 16 user L1s), feeds the CP-side enumeration buffer
        let mut v = vec![self.pgd];
        // volint::allow(SWITCH-ALLOC): extends the same per-aspace table list
        v.extend(self.user_l1s.iter().map(|(_, f)| *f));
        v
    }

    /// Remap all frame references through the restore relocation map.
    pub fn translate(&mut self, map: &HashMap<u32, u32>) {
        if let Some(n) = map.get(&self.pgd.0) {
            self.pgd = FrameNum(*n);
        }
        for (_, f) in self.user_l1s.iter_mut() {
            if let Some(n) = map.get(&f.0) {
                *f = FrameNum(*n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paravirt::BareOps;
    use simx86::{Machine, MachineConfig};

    struct Rig {
        machine: Arc<Machine>,
        pv: Arc<dyn PvOps>,
        pool: FramePool,
        kmap: KernelMap,
    }

    impl Rig {
        fn new() -> Rig {
            let machine = Machine::new(MachineConfig {
                num_cpus: 1,
                mem_frames: 512,
                disk_sectors: 64,
            });
            let frames = machine
                .allocator
                .alloc_many(machine.boot_cpu(), 256)
                .unwrap();
            Rig {
                pv: BareOps::new(Arc::clone(&machine)) as Arc<dyn PvOps>,
                machine,
                pool: FramePool::new(frames),
                kmap: KernelMap::default(),
            }
        }

        fn ctx(&mut self) -> MmCtx<'_> {
            MmCtx {
                cpu: self.machine.boot_cpu(),
                pv: &self.pv,
                mem: &self.machine.mem,
                pool: &mut self.pool,
                kmap: &self.kmap,
            }
        }
    }

    const KPDE: &[(usize, Pte)] = &[];

    fn anon_vma(start: u64, pages: u64, prot: Prot) -> Vma {
        Vma {
            start,
            end: start + pages * PAGE_SIZE,
            prot,
            kind: VmaKind::Anon,
        }
    }

    #[test]
    fn demand_zero_fault_maps_page() {
        let mut rig = Rig::new();
        let mut ctx = rig.ctx();
        let mut asp = AddressSpace::new(&mut ctx, KPDE).unwrap();
        asp.add_vma(anon_vma(0x10000, 4, Prot::RW));
        let va = VirtAddr(0x10000);
        assert!(asp.lookup(&ctx, va).unwrap().is_none());
        let fix = asp
            .handle_anon_fault(&mut ctx, va, AccessKind::Write)
            .unwrap();
        assert_eq!(fix, FaultFix::DemandZero);
        let pte = asp.lookup(&ctx, va).unwrap().unwrap();
        assert!(pte.writable() && pte.user());
    }

    #[test]
    fn fault_outside_vma_is_signal() {
        let mut rig = Rig::new();
        let mut ctx = rig.ctx();
        let mut asp = AddressSpace::new(&mut ctx, KPDE).unwrap();
        let fix = asp
            .handle_anon_fault(&mut ctx, VirtAddr(0x999000), AccessKind::Read)
            .unwrap();
        assert_eq!(fix, FaultFix::Signal);
    }

    #[test]
    fn write_to_readonly_vma_is_signal() {
        let mut rig = Rig::new();
        let mut ctx = rig.ctx();
        let mut asp = AddressSpace::new(&mut ctx, KPDE).unwrap();
        asp.add_vma(anon_vma(0x10000, 1, Prot::RO));
        let fix = asp
            .handle_anon_fault(&mut ctx, VirtAddr(0x10000), AccessKind::Write)
            .unwrap();
        assert_eq!(fix, FaultFix::Signal);
        // Reads are fine.
        let fix = asp
            .handle_anon_fault(&mut ctx, VirtAddr(0x10000), AccessKind::Read)
            .unwrap();
        assert_eq!(fix, FaultFix::DemandZero);
    }

    #[test]
    fn cow_fork_shares_then_copies() {
        let mut rig = Rig::new();
        let mut ctx = rig.ctx();
        let mut parent = AddressSpace::new(&mut ctx, KPDE).unwrap();
        parent.add_vma(anon_vma(0x20000, 2, Prot::RW));
        parent
            .handle_anon_fault(&mut ctx, VirtAddr(0x20000), AccessKind::Write)
            .unwrap();
        let parent_pte = parent.lookup(&ctx, VirtAddr(0x20000)).unwrap().unwrap();
        let shared_frame = FrameNum(parent_pte.frame());
        // Put a value in the page.
        ctx.mem
            .write_word(ctx.cpu, shared_frame.base(), 77)
            .unwrap();

        let mut child = parent.fork_from(&mut ctx, KPDE).unwrap();
        // Both sides read-only COW on the same frame, refcount 2.
        let p = parent.lookup(&ctx, VirtAddr(0x20000)).unwrap().unwrap();
        let c = child.lookup(&ctx, VirtAddr(0x20000)).unwrap().unwrap();
        assert!(p.cow() && !p.writable());
        assert!(c.cow() && !c.writable());
        assert_eq!(p.frame(), c.frame());
        assert_eq!(ctx.pool.refcount(shared_frame), 2);

        // Child writes: gets a private copy with the same contents.
        let fix = child
            .handle_anon_fault(&mut ctx, VirtAddr(0x20000), AccessKind::Write)
            .unwrap();
        assert_eq!(fix, FaultFix::CowCopy);
        let c2 = child.lookup(&ctx, VirtAddr(0x20000)).unwrap().unwrap();
        assert_ne!(c2.frame(), p.frame());
        assert!(c2.writable());
        assert_eq!(
            ctx.mem
                .read_word(ctx.cpu, FrameNum(c2.frame()).base())
                .unwrap(),
            77
        );
        assert_eq!(ctx.pool.refcount(shared_frame), 1);

        // Parent writes: sole owner now, upgrades in place.
        let fix = parent
            .handle_anon_fault(&mut ctx, VirtAddr(0x20000), AccessKind::Write)
            .unwrap();
        assert_eq!(fix, FaultFix::CowReuse);
        let p2 = parent.lookup(&ctx, VirtAddr(0x20000)).unwrap().unwrap();
        assert_eq!(p2.frame(), parent_pte.frame());
        assert!(p2.writable() && !p2.cow());
    }

    #[test]
    fn protect_range_flips_writable() {
        let mut rig = Rig::new();
        let mut ctx = rig.ctx();
        let mut asp = AddressSpace::new(&mut ctx, KPDE).unwrap();
        asp.add_vma(anon_vma(0x30000, 2, Prot::RW));
        asp.handle_anon_fault(&mut ctx, VirtAddr(0x30000), AccessKind::Write)
            .unwrap();
        asp.protect_range(&mut ctx, VirtAddr(0x30000), 2, Prot::RO)
            .unwrap();
        let pte = asp.lookup(&ctx, VirtAddr(0x30000)).unwrap().unwrap();
        assert!(!pte.writable());
        // And a write now signals.
        let fix = asp
            .handle_anon_fault(&mut ctx, VirtAddr(0x30000), AccessKind::Write)
            .unwrap();
        assert_eq!(fix, FaultFix::Signal);
        // Back to RW.
        asp.protect_range(&mut ctx, VirtAddr(0x30000), 2, Prot::RW)
            .unwrap();
        let pte = asp.lookup(&ctx, VirtAddr(0x30000)).unwrap().unwrap();
        assert!(pte.writable());
    }

    #[test]
    fn unmap_range_frees_frames_and_vma() {
        let mut rig = Rig::new();
        let mut ctx = rig.ctx();
        let mut asp = AddressSpace::new(&mut ctx, KPDE).unwrap();
        asp.add_vma(anon_vma(0x40000, 3, Prot::RW));
        for p in 0..3 {
            asp.handle_anon_fault(
                &mut ctx,
                VirtAddr(0x40000 + p * PAGE_SIZE),
                AccessKind::Write,
            )
            .unwrap();
        }
        let avail_before = ctx.pool.available();
        let n = asp.unmap_range(&mut ctx, VirtAddr(0x40000), 3).unwrap();
        assert_eq!(n, 3);
        assert_eq!(ctx.pool.available(), avail_before + 3);
        assert!(asp.vma_at(VirtAddr(0x40000)).is_none());
        assert!(asp.lookup(&ctx, VirtAddr(0x40000)).unwrap().is_none());
    }

    #[test]
    fn destroy_returns_all_frames() {
        let mut rig = Rig::new();
        let mut ctx = rig.ctx();
        let before = ctx.pool.available();
        let mut asp = AddressSpace::new(&mut ctx, KPDE).unwrap();
        asp.add_vma(anon_vma(0x50000, 2, Prot::RW));
        asp.handle_anon_fault(&mut ctx, VirtAddr(0x50000), AccessKind::Write)
            .unwrap();
        asp.pin(&mut ctx).unwrap();
        asp.destroy(&mut ctx).unwrap();
        assert_eq!(ctx.pool.available(), before);
    }

    #[test]
    fn table_frames_lists_pgd_and_l1s() {
        let mut rig = Rig::new();
        let mut ctx = rig.ctx();
        let mut asp = AddressSpace::new(&mut ctx, KPDE).unwrap();
        asp.add_vma(anon_vma(0x10000, 1, Prot::RW));
        asp.handle_anon_fault(&mut ctx, VirtAddr(0x10000), AccessKind::Read)
            .unwrap();
        let tf = asp.table_frames();
        assert_eq!(tf.len(), 2); // pgd + one L1
        assert_eq!(tf[0], asp.pgd);
    }

    #[test]
    fn translate_remaps_table_frames() {
        let mut rig = Rig::new();
        let mut ctx = rig.ctx();
        let mut asp = AddressSpace::new(&mut ctx, KPDE).unwrap();
        asp.add_vma(anon_vma(0x10000, 1, Prot::RW));
        asp.handle_anon_fault(&mut ctx, VirtAddr(0x10000), AccessKind::Read)
            .unwrap();
        let old_pgd = asp.pgd;
        let map: HashMap<u32, u32> = asp
            .table_frames()
            .iter()
            .map(|f| (f.0, f.0 + 1000))
            .collect();
        asp.translate(&map);
        assert_eq!(asp.pgd, FrameNum(old_pgd.0 + 1000));
    }

    /// `fork_from`, `unmap_range` and `protect_range` as they were when
    /// every entry was its own `read_pte`/`write_pte`: the reference the
    /// table-at-a-time versions are checked against.
    mod per_entry {
        use super::*;

        pub fn fork_from(
            parent: &mut AddressSpace,
            ctx: &mut MmCtx<'_>,
        ) -> Result<AddressSpace, KernelError> {
            let mut child = AddressSpace::new(ctx, KPDE)?;
            child.vmas = parent.vmas.clone();
            for (l2, parent_l1) in parent.user_l1s.clone() {
                let child_l1 = ctx.pool.alloc(ctx.cpu).ok_or(KernelError::NoMem)?;
                ctx.mem.zero_frame(ctx.cpu, child_l1)?;
                let mut parent_updates: Vec<(usize, Pte)> = Vec::new();
                for idx in 0..ENTRIES_PER_TABLE {
                    let pte = ctx.mem.read_pte(ctx.cpu, parent_l1, idx)?;
                    if !pte.present() {
                        continue;
                    }
                    let frame = FrameNum(pte.frame());
                    let shared = if pte.writable() {
                        let cow = pte.without_flags(Pte::WRITABLE).with_flags(Pte::COW);
                        parent_updates.push((idx, cow));
                        cow
                    } else {
                        pte
                    };
                    ctx.cpu.tick(costs::PTE_WRITE_NATIVE);
                    ctx.mem.write_pte(ctx.cpu, child_l1, idx, shared)?;
                    if ctx.pool.refcount(frame) > 0 {
                        ctx.pool.incref(frame);
                    }
                }
                if !parent_updates.is_empty() {
                    set_ptes(ctx, parent_l1, &parent_updates)?;
                }
                ctx.pv.register_page_table(ctx.cpu, ctx.kmap, child_l1)?;
                let pde = Pte::new(child_l1.0, Pte::WRITABLE | Pte::USER);
                ctx.pv.set_pte(ctx.cpu, child.pgd, l2, pde)?;
                child.user_l1s.push((l2, child_l1));
            }
            ctx.pv.flush_tlb(ctx.cpu);
            child.pin(ctx)?;
            Ok(child)
        }

        /// `BareOps::set_ptes` as it was: one `set_pte` per entry.
        fn set_ptes(
            ctx: &mut MmCtx<'_>,
            table: FrameNum,
            updates: &[(usize, Pte)],
        ) -> Result<(), KernelError> {
            for &(index, val) in updates {
                ctx.pv.set_pte(ctx.cpu, table, index, val)?;
            }
            Ok(())
        }

        pub fn unmap_range(
            asp: &mut AddressSpace,
            ctx: &mut MmCtx<'_>,
            start: VirtAddr,
            pages: u64,
        ) -> Result<u64, KernelError> {
            let end = start.0 + pages * PAGE_SIZE;
            let mut per_table: HashMap<u32, Vec<(usize, Pte)>> = HashMap::new();
            let mut freed = 0;
            for p in 0..pages {
                let va = VirtAddr(start.0 + p * PAGE_SIZE);
                let Some(l1) = asp.l1_of(va) else { continue };
                let pte = ctx.mem.read_pte(ctx.cpu, l1, va.l1_index())?;
                if !pte.present() {
                    continue;
                }
                per_table
                    .entry(l1.0)
                    .or_default()
                    .push((va.l1_index(), Pte::ABSENT));
                if ctx.pool.refcount(FrameNum(pte.frame())) > 0 {
                    ctx.pool.decref(FrameNum(pte.frame()));
                }
                freed += 1;
            }
            for (l1, updates) in per_table {
                set_ptes(ctx, FrameNum(l1), &updates)?;
            }
            ctx.pv.flush_tlb_all(ctx.cpu);
            asp.vmas.retain(|v| !(v.start >= start.0 && v.end <= end));
            Ok(freed)
        }

        pub fn protect_range(
            asp: &mut AddressSpace,
            ctx: &mut MmCtx<'_>,
            start: VirtAddr,
            pages: u64,
            prot: Prot,
        ) -> Result<(), KernelError> {
            let end = start.0 + pages * PAGE_SIZE;
            for vma in asp.vmas.iter_mut() {
                if vma.start >= start.0 && vma.end <= end {
                    vma.prot = prot;
                }
            }
            let mut per_table: HashMap<u32, Vec<(usize, Pte)>> = HashMap::new();
            for p in 0..pages {
                let va = VirtAddr(start.0 + p * PAGE_SIZE);
                let Some(l1) = asp.l1_of(va) else { continue };
                let pte = ctx.mem.read_pte(ctx.cpu, l1, va.l1_index())?;
                if !pte.present() {
                    continue;
                }
                let new = if !prot.write {
                    pte.without_flags(Pte::WRITABLE)
                } else if pte.cow() {
                    pte
                } else {
                    pte.with_flags(Pte::WRITABLE)
                };
                if new != pte {
                    per_table
                        .entry(l1.0)
                        .or_default()
                        .push((va.l1_index(), new));
                }
            }
            for (l1, updates) in per_table {
                set_ptes(ctx, FrameNum(l1), &updates)?;
            }
            ctx.pv.flush_tlb_all(ctx.cpu);
            Ok(())
        }
    }

    /// Everything a range operation can change: the words of every
    /// table frame, the VMA list, the pool's counts, the clock.
    fn observe(rig: &Rig, spaces: &[&AddressSpace]) -> impl PartialEq + std::fmt::Debug {
        let tables: Vec<Vec<u64>> = spaces
            .iter()
            .flat_map(|asp| asp.table_frames())
            .map(|f| rig.machine.mem.export_frame(f).unwrap())
            .collect();
        let vmas: Vec<Vec<Vma>> = spaces.iter().map(|asp| asp.vmas.clone()).collect();
        let refs: Vec<u32> = rig
            .pool
            .all_frames()
            .into_iter()
            .map(|f| rig.pool.refcount(f))
            .collect();
        let cycles = rig.machine.boot_cpu().cycles();
        (tables, vmas, refs, rig.pool.available(), cycles)
    }

    #[test]
    fn range_operations_match_the_per_entry_reference() {
        // Twin rigs, one stream of operations over an address space
        // whose mappings straddle three leaf tables (one of them not
        // there): table-at-a-time on one side, the per-entry reference
        // on the other.  Same PTE words, pool refcounts, VMAs, return
        // values and cycles after every step.
        const BASE: u64 = 0x3f_0000; // 16 pages short of the 4 MiB line
        const SPAN: u64 = 1200; // pages: into a third leaf table
        faultgen::rng::check(
            "range operations match the per-entry reference",
            40,
            |rng| {
                let mut new_rig = Rig::new();
                let mut old_rig = Rig::new();
                let mut spaces: Vec<(AddressSpace, AddressSpace)> = Vec::new();
                {
                    let (mut new_ctx, mut old_ctx) = (new_rig.ctx(), old_rig.ctx());
                    let mut new_asp = AddressSpace::new(&mut new_ctx, KPDE).unwrap();
                    let mut old_asp = AddressSpace::new(&mut old_ctx, KPDE).unwrap();
                    for asp in [&mut new_asp, &mut old_asp] {
                        asp.add_vma(anon_vma(BASE, SPAN, Prot::RW));
                    }
                    for _ in 0..rng.range(1, 40) {
                        // Leave the middle table (pages 16..528) unmapped
                        // half the time.
                        let page = match rng.below(4) {
                            0 => rng.below(16),
                            1 => rng.range(16, 528),
                            _ => rng.range(528, SPAN),
                        };
                        let va = VirtAddr(BASE + page * PAGE_SIZE);
                        let access = [AccessKind::Read, AccessKind::Write][rng.below(2) as usize];
                        new_asp.handle_anon_fault(&mut new_ctx, va, access).unwrap();
                        old_asp.handle_anon_fault(&mut old_ctx, va, access).unwrap();
                    }
                    spaces.push((new_asp, old_asp));
                }
                for _ in 0..8 {
                    let which = rng.below(spaces.len() as u64) as usize;
                    let start = VirtAddr(BASE + rng.below(SPAN) * PAGE_SIZE);
                    let pages = rng.range(1, SPAN - (start.0 - BASE) / PAGE_SIZE + 1);
                    let may_fork = spaces.len() < 3;
                    let (mut new_ctx, mut old_ctx) = (new_rig.ctx(), old_rig.ctx());
                    let (new_asp, old_asp) = &mut spaces[which];
                    let mut born = None;
                    match rng.below(4) {
                        0 if may_fork => {
                            let new_child = new_asp.fork_from(&mut new_ctx, KPDE).unwrap();
                            let old_child = per_entry::fork_from(old_asp, &mut old_ctx).unwrap();
                            born = Some((new_child, old_child));
                        }
                        1 => {
                            let new = new_asp.unmap_range(&mut new_ctx, start, pages).unwrap();
                            let old = per_entry::unmap_range(old_asp, &mut old_ctx, start, pages);
                            assert_eq!(new, old.unwrap());
                        }
                        _ => {
                            let prot = [Prot::RO, Prot::RW][rng.below(2) as usize];
                            new_asp
                                .protect_range(&mut new_ctx, start, pages, prot)
                                .unwrap();
                            per_entry::protect_range(old_asp, &mut old_ctx, start, pages, prot)
                                .unwrap();
                        }
                    }
                    spaces.extend(born);
                    let new_spaces: Vec<&AddressSpace> = spaces.iter().map(|s| &s.0).collect();
                    let old_spaces: Vec<&AddressSpace> = spaces.iter().map(|s| &s.1).collect();
                    assert_eq!(
                        observe(&new_rig, &new_spaces),
                        observe(&old_rig, &old_spaces)
                    );
                }
            },
        );
    }
}
