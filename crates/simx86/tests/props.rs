//! Property-based tests for the machine substrate's core data
//! structures: paging arithmetic, physical memory, the TLB against a
//! reference model, and the frame allocator.

use faultgen::rng::check;
use simx86::mem::{FrameNum, PhysAddr, PhysMemory};
use simx86::paging::{Pte, VirtAddr, PAGE_SIZE, VA_TOP};
use simx86::tlb::Tlb;
use simx86::{Cpu, FrameAllocator};
use std::collections::HashMap;
use std::sync::Arc;

/// VA decomposition and recomposition are inverse.
#[test]
fn va_roundtrip() {
    check("va_roundtrip", 256, |rng| {
        let va = VirtAddr(rng.below(VA_TOP));
        let back = VirtAddr::from_indices(va.l2_index(), va.l1_index(), va.page_offset());
        assert_eq!(va, back);
        assert_eq!(va.page_base().0 + va.page_offset(), va.0);
        assert_eq!(va.vpn(), va.0 / PAGE_SIZE);
    });
}

/// PTE frame/flag encoding is lossless for every flag subset.
#[test]
fn pte_encoding_roundtrip() {
    check("pte_encoding_roundtrip", 256, |rng| {
        let frame = rng.below(0x0fff_ffff) as u32;
        let flags = rng.below(1024) & !1; // PRESENT is implied by new()
        let pte = Pte::new(frame, flags);
        assert!(pte.present());
        assert_eq!(pte.frame(), frame);
        assert_eq!(pte.writable(), flags & Pte::WRITABLE != 0);
        assert_eq!(pte.cow(), flags & Pte::COW != 0);
        assert_eq!(pte.user(), flags & Pte::USER != 0);
        // with/without are inverse.
        assert_eq!(
            pte.with_flags(Pte::DIRTY).without_flags(Pte::DIRTY),
            pte.without_flags(Pte::DIRTY)
        );
    });
}

/// Byte-granularity memory access behaves like a flat byte array.
#[test]
fn memory_bytes_match_reference() {
    check("memory_bytes_match_reference", 256, |rng| {
        let mem = PhysMemory::new(2);
        let mut model = vec![0u8; 8192];
        for _ in 0..rng.range(1, 16) {
            let off = rng.below(8192 - 64) as usize;
            let len = rng.range(1, 64) as usize;
            let data = rng.vec(len, |r| r.next_u64() as u8);
            mem.write_bytes(PhysAddr(off as u64), &data).unwrap();
            model[off..off + len].copy_from_slice(&data);
        }
        let mut out = vec![0u8; 8192];
        mem.read_bytes(PhysAddr(0), &mut out).unwrap();
        assert_eq!(out, model);
    });
}

/// The TLB never returns a stale translation after invalidate/flush
/// and never returns a wrong frame (checked against a HashMap model).
#[test]
fn tlb_matches_reference_model() {
    check("tlb_matches_reference_model", 256, |rng| {
        let tlb = Tlb::new(0);
        let mut model: HashMap<u64, Pte> = HashMap::new();
        for _ in 0..rng.range(1, 200) {
            let (op, vpn, frame) = (rng.below(4), rng.below(32), rng.below(1024) as u32);
            match op {
                0 => {
                    let pte = Pte::new(frame, Pte::WRITABLE);
                    tlb.insert(vpn, pte);
                    model.insert(vpn, pte);
                }
                1 => {
                    tlb.invalidate(vpn);
                    model.remove(&vpn);
                }
                2 => {
                    tlb.flush();
                    model.retain(|_, p| p.global());
                }
                _ => {
                    // Lookup may miss (capacity evictions) but must never
                    // contradict the model.
                    if let Some(got) = tlb.lookup(vpn) {
                        assert_eq!(Some(&got), model.get(&vpn));
                    }
                }
            }
        }
    });
}

/// The frame allocator never double-allocates and never loses frames.
#[test]
fn allocator_conserves_frames() {
    check("allocator_conserves_frames", 256, |rng| {
        let total = 64usize;
        let alloc = FrameAllocator::new(total);
        let cpu = Arc::new(Cpu::new(0));
        let mut held: Vec<FrameNum> = Vec::new();
        for _ in 0..rng.range(1, 128) {
            if rng.below(2) == 1 {
                if let Some(f) = alloc.alloc(&cpu) {
                    assert!(!held.contains(&f), "double allocation of {f:?}");
                    held.push(f);
                }
            } else if let Some(f) = held.pop() {
                alloc.free(f);
            }
        }
        assert_eq!(alloc.available() + held.len(), total - 1); // frame 0 reserved
    });
}
