//! The memory-management unit: hardware page-table walks.
//!
//! The MMU is pure mechanism.  It reads the two-level tables rooted at
//! the CPU's CR3 out of simulated physical memory, enforces the
//! protection bits (including write protection for supervisor accesses,
//! i.e. CR0.WP=1 semantics — this is what makes read-only page-table
//! pages in virtual mode actually fault), maintains accessed/dirty bits,
//! and fills the per-CPU TLB.
//!
//! Policy — who owns a frame, whether a PTE write is legal — lives in the
//! kernel's paravirt layer and the hypervisor's validators.

use crate::costs;
use crate::cpu::Cpu;
use crate::fault::{AccessKind, Fault};
use crate::mem::{FrameNum, PhysAddr, PhysMemory};
use crate::paging::{Pte, VirtAddr};

/// Stateless MMU entry points.
pub struct Mmu;

impl Mmu {
    /// Translate `va` for the given access, exactly as the hardware
    /// would: TLB first, then a walk of the tables under the CPU's CR3.
    ///
    /// `user_access` marks accesses performed on behalf of user code
    /// (supervisor-only pages then fault).
    pub fn translate(
        mem: &PhysMemory,
        cpu: &Cpu,
        va: VirtAddr,
        access: AccessKind,
        user_access: bool,
    ) -> Result<PhysAddr, Fault> {
        if !va.is_canonical() {
            return Err(Fault::PageNotPresent { va, access });
        }
        let vpn = va.vpn();

        // TLB lookup.  A write through a clean cached entry re-walks so
        // the dirty bit lands in memory, as hardware does.
        if let Some(pte) = cpu.tlb.lookup(vpn) {
            let dirty_ok = access != AccessKind::Write || pte.dirty();
            if dirty_ok {
                Self::check_perms(pte, va, access, user_access)?;
                cpu.tick(costs::TLB_HIT);
                return Ok(PhysAddr(FrameNum(pte.frame()).base().0 + va.page_offset()));
            }
        }

        cpu.tick(costs::TLB_MISS_WALK);
        merctrace::counter!(cpu.id, "simx86.tlb.miss", 1, cpu.cycles());
        let ept = cpu.active_ept();
        if ept.is_some() {
            // Nested walk: every guest-table access re-translates.
            cpu.tick(costs::EPT_WALK_EXTRA);
        }
        let (leaf, table, index) = Self::walk_leaf(mem, cpu, FrameNum(cpu.cr3_raw()), va)?
            .ok_or(Fault::PageNotPresent { va, access })?;
        Self::check_perms(leaf, va, access, user_access)?;
        if let Some(ept) = &ept {
            ept.check(FrameNum(leaf.frame()))?;
        }

        // Set accessed/dirty in the in-memory entry, as hardware does.
        let mut updated = leaf.with_flags(Pte::ACCESSED);
        if access == AccessKind::Write {
            updated = updated.with_flags(Pte::DIRTY);
        }
        if updated != leaf {
            mem.write_pte(cpu, table, index, updated)?;
        }
        cpu.tlb.insert(vpn, updated);
        Ok(PhysAddr(
            FrameNum(updated.frame()).base().0 + va.page_offset(),
        ))
    }

    /// Software walk: find the leaf PTE for `va` under `pgd`, along with
    /// the table frame and slot holding it.  No permission checks, no
    /// TLB, no A/D updates — this is what the kernel, the hypervisor's
    /// validators and Mercury's type/count recomputation use.
    pub fn walk_leaf(
        mem: &PhysMemory,
        cpu: &Cpu,
        pgd: FrameNum,
        va: VirtAddr,
    ) -> Result<Option<(Pte, FrameNum, usize)>, Fault> {
        let l2 = mem.read_pte(cpu, pgd, va.l2_index())?;
        if !l2.present() {
            return Ok(None);
        }
        let l1_table = FrameNum(l2.frame());
        let l1 = mem.read_pte(cpu, l1_table, va.l1_index())?;
        if !l1.present() {
            return Ok(None);
        }
        Ok(Some((l1, l1_table, va.l1_index())))
    }

    fn check_perms(
        pte: Pte,
        va: VirtAddr,
        access: AccessKind,
        user_access: bool,
    ) -> Result<(), Fault> {
        if !pte.present() {
            return Err(Fault::PageNotPresent { va, access });
        }
        if user_access && !pte.user() {
            return Err(Fault::PageProtection { va, access });
        }
        // CR0.WP = 1: even supervisor writes honor the writable bit.
        if access == AccessKind::Write && !pte.writable() {
            return Err(Fault::PageProtection { va, access });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::Cpu;
    use std::sync::Arc;

    /// Hand-build a tiny address space: PGD in frame 1, one L1 table in
    /// frame 2, data page in frame 3 mapped at `va`.
    fn setup(mapping_flags: u64) -> (PhysMemory, Arc<Cpu>, VirtAddr) {
        let mem = PhysMemory::new(8);
        let cpu = Arc::new(Cpu::new(0));
        let va = VirtAddr(0x0020_3000); // l2=1, l1=3
        mem.write_pte(
            &cpu,
            FrameNum(1),
            va.l2_index(),
            Pte::new(2, Pte::WRITABLE | Pte::USER),
        )
        .unwrap();
        mem.write_pte(&cpu, FrameNum(2), va.l1_index(), Pte::new(3, mapping_flags))
            .unwrap();
        cpu.write_cr3(1).unwrap();
        (mem, cpu, va)
    }

    #[test]
    fn translate_hits_mapped_page() {
        let (mem, cpu, va) = setup(Pte::WRITABLE | Pte::USER);
        let pa = Mmu::translate(&mem, &cpu, va, AccessKind::Read, true).unwrap();
        assert_eq!(pa.frame(), FrameNum(3));
        assert_eq!(pa.offset(), va.page_offset());
        // Second access: TLB hit.
        let (h0, _, _) = cpu.tlb_stats();
        Mmu::translate(&mem, &cpu, va, AccessKind::Read, true).unwrap();
        let (h1, _, _) = cpu.tlb_stats();
        assert_eq!(h1, h0 + 1);
    }

    #[test]
    fn unmapped_page_not_present() {
        let (mem, cpu, _) = setup(Pte::WRITABLE | Pte::USER);
        let err =
            Mmu::translate(&mem, &cpu, VirtAddr(0x0100_0000), AccessKind::Read, true).unwrap_err();
        assert!(matches!(err, Fault::PageNotPresent { .. }));
    }

    #[test]
    fn write_to_readonly_faults_even_for_supervisor() {
        let (mem, cpu, va) = setup(Pte::USER); // not writable
        let err = Mmu::translate(&mem, &cpu, va, AccessKind::Write, false).unwrap_err();
        assert!(matches!(err, Fault::PageProtection { .. }));
        // Reads still fine.
        Mmu::translate(&mem, &cpu, va, AccessKind::Read, false).unwrap();
    }

    #[test]
    fn user_access_to_supervisor_page_faults() {
        let (mem, cpu, va) = setup(Pte::WRITABLE); // no USER bit
        let err = Mmu::translate(&mem, &cpu, va, AccessKind::Read, true).unwrap_err();
        assert!(matches!(err, Fault::PageProtection { .. }));
        // Supervisor access is fine.
        Mmu::translate(&mem, &cpu, va, AccessKind::Read, false).unwrap();
    }

    #[test]
    fn walk_sets_accessed_and_dirty() {
        let (mem, cpu, va) = setup(Pte::WRITABLE | Pte::USER);
        Mmu::translate(&mem, &cpu, va, AccessKind::Write, true).unwrap();
        let (leaf, _, _) = Mmu::walk_leaf(&mem, &cpu, FrameNum(1), va)
            .unwrap()
            .unwrap();
        assert!(leaf.accessed());
        assert!(leaf.dirty());
    }

    #[test]
    fn read_does_not_set_dirty() {
        let (mem, cpu, va) = setup(Pte::WRITABLE | Pte::USER);
        Mmu::translate(&mem, &cpu, va, AccessKind::Read, true).unwrap();
        let (leaf, _, _) = Mmu::walk_leaf(&mem, &cpu, FrameNum(1), va)
            .unwrap()
            .unwrap();
        assert!(leaf.accessed());
        assert!(!leaf.dirty());
    }

    #[test]
    fn write_through_clean_tlb_entry_sets_dirty() {
        let (mem, cpu, va) = setup(Pte::WRITABLE | Pte::USER);
        // Prime the TLB with a clean entry.
        Mmu::translate(&mem, &cpu, va, AccessKind::Read, true).unwrap();
        // Now write: must re-walk and set dirty in memory.
        Mmu::translate(&mem, &cpu, va, AccessKind::Write, true).unwrap();
        let (leaf, _, _) = Mmu::walk_leaf(&mem, &cpu, FrameNum(1), va)
            .unwrap()
            .unwrap();
        assert!(leaf.dirty());
    }

    #[test]
    fn stale_tlb_masks_table_change_until_invlpg() {
        // Demonstrates why TLB flushes are part of the paravirt interface.
        let (mem, cpu, va) = setup(Pte::WRITABLE | Pte::USER);
        Mmu::translate(&mem, &cpu, va, AccessKind::Read, true).unwrap();
        // Unmap behind the TLB's back.
        mem.write_pte(&cpu, FrameNum(2), va.l1_index(), Pte::ABSENT)
            .unwrap();
        // Still translates via the stale entry.
        assert!(Mmu::translate(&mem, &cpu, va, AccessKind::Read, true).is_ok());
        cpu.invlpg(va.vpn());
        assert!(Mmu::translate(&mem, &cpu, va, AccessKind::Read, true).is_err());
    }

    #[test]
    fn non_canonical_address_faults() {
        let (mem, cpu, _) = setup(Pte::WRITABLE | Pte::USER);
        let err = Mmu::translate(
            &mem,
            &cpu,
            VirtAddr(crate::paging::VA_TOP + 5),
            AccessKind::Read,
            false,
        )
        .unwrap_err();
        assert!(matches!(err, Fault::PageNotPresent { .. }));
    }
}
