//! Page-table formats and the virtual address-space layout.
//!
//! The simulated architecture uses a 1 GiB virtual address space with a
//! two-level page table: 9 bits of L2 (page directory) index, 9 bits of
//! L1 (page table) index and a 12-bit page offset.  Entries are 64-bit
//! words stored in simulated physical frames, so the MMU genuinely walks
//! memory.
//!
//! The layout follows §3.2.2 of the paper: a fixed slice at the *top* of
//! every address space is reserved for the VMM in **both** execution
//! modes ("Mercury instead unifies the address space layout ... by
//! reserving a fixed portion of virtual address space for the VMM"),
//! mirroring Xen's top-64 MiB reservation.

/// Bytes per page / frame.
pub const PAGE_SIZE: u64 = 4096;
/// 64-bit words per page.
pub const WORDS_PER_PAGE: usize = (PAGE_SIZE / 8) as usize;
/// Entries per page table (both levels).
pub const ENTRIES_PER_TABLE: usize = 512;

/// Bit offset of the L1 index inside a virtual address.
pub const L1_SHIFT: u64 = 12;
/// Bit offset of the L2 index inside a virtual address.
pub const L2_SHIFT: u64 = 21;
/// Total virtual address bits (1 GiB space).
pub const VA_BITS: u64 = 30;
/// One past the highest valid virtual address.
pub const VA_TOP: u64 = 1 << VA_BITS;

/// Start of the user region (grows upward).
pub const USER_BASE: u64 = 0x0000_0000;
/// End of the user region: 768 MiB.
pub const USER_TOP: u64 = 0x3000_0000;
/// Start of the kernel region (direct map of physical memory).
pub const KERNEL_BASE: u64 = 0x3000_0000;
/// End of the kernel direct map: kernel owns 192 MiB of VA.
pub const KERNEL_TOP: u64 = 0x3C00_0000;
/// Start of the region reserved for the VMM in *every* address space
/// (the Xen-style top 64 MiB).  Present in native mode too, so a mode
/// switch never relays out the address space.
pub const HV_BASE: u64 = 0x3C00_0000;
/// One past the end of the VMM reservation (== `VA_TOP`).
pub const HV_TOP: u64 = VA_TOP;

/// A virtual address in the simulated 1 GiB space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(pub u64);

impl std::fmt::Debug for VirtAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VA({:#010x})", self.0)
    }
}

impl VirtAddr {
    /// L2 (page-directory) index of this address.
    #[inline]
    pub fn l2_index(self) -> usize {
        ((self.0 >> L2_SHIFT) & 0x1ff) as usize
    }

    /// L1 (page-table) index of this address.
    #[inline]
    pub fn l1_index(self) -> usize {
        ((self.0 >> L1_SHIFT) & 0x1ff) as usize
    }

    /// Byte offset within the page.
    #[inline]
    pub fn page_offset(self) -> u64 {
        self.0 & (PAGE_SIZE - 1)
    }

    /// The address rounded down to its page base.
    #[inline]
    pub fn page_base(self) -> VirtAddr {
        VirtAddr(self.0 & !(PAGE_SIZE - 1))
    }

    /// Virtual page number (address / 4096).
    #[inline]
    pub fn vpn(self) -> u64 {
        self.0 >> L1_SHIFT
    }

    /// Is this address inside the user region?
    #[inline]
    pub fn is_user(self) -> bool {
        self.0 < USER_TOP
    }

    /// Is this address inside the kernel direct map?
    #[inline]
    pub fn is_kernel(self) -> bool {
        (KERNEL_BASE..KERNEL_TOP).contains(&self.0)
    }

    /// Is this address inside the VMM reservation?
    #[inline]
    pub fn is_hypervisor(self) -> bool {
        (HV_BASE..HV_TOP).contains(&self.0)
    }

    /// Is this a legal address at all?
    #[inline]
    pub fn is_canonical(self) -> bool {
        self.0 < VA_TOP
    }

    /// Rebuild a virtual address from table indices and offset.
    pub fn from_indices(l2: usize, l1: usize, offset: u64) -> VirtAddr {
        debug_assert!(l2 < ENTRIES_PER_TABLE && l1 < ENTRIES_PER_TABLE && offset < PAGE_SIZE);
        VirtAddr(((l2 as u64) << L2_SHIFT) | ((l1 as u64) << L1_SHIFT) | offset)
    }
}

// ---------------------------------------------------------------------------
// PTE format
// ---------------------------------------------------------------------------

/// A page-table entry (used at both levels; at L2 the frame points to an
/// L1 table).
///
/// Bit layout (subset of x86):
/// ```text
///  0 PRESENT     5 ACCESSED     9 COW (software)
///  1 WRITABLE    6 DIRTY       10 PINNED-HINT (software, used by xenon)
///  2 USER        8 GLOBAL
///  bits 12..40: frame number
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct Pte(pub u64);

impl std::fmt::Debug for Pte {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.present() {
            return write!(f, "PTE(absent)");
        }
        write!(
            f,
            "PTE(frame={}{}{}{}{}{})",
            self.frame(),
            if self.writable() { " W" } else { " RO" },
            if self.user() { " U" } else { " S" },
            if self.cow() { " COW" } else { "" },
            if self.dirty() { " D" } else { "" },
            if self.accessed() { " A" } else { "" },
        )
    }
}

impl Pte {
    /// Entry is valid.
    pub const PRESENT: u64 = 1 << 0;
    /// Writes permitted (enforced even for supervisor: CR0.WP=1).
    pub const WRITABLE: u64 = 1 << 1;
    /// User-mode access permitted.
    pub const USER: u64 = 1 << 2;
    /// Hardware-set on any access.
    pub const ACCESSED: u64 = 1 << 5;
    /// Hardware-set on write (feeds live migration's dirty log).
    pub const DIRTY: u64 = 1 << 6;
    /// Survives CR3 reloads (kernel direct-map entries).
    pub const GLOBAL: u64 = 1 << 8;
    /// Software bit: this mapping is copy-on-write.
    pub const COW: u64 = 1 << 9;

    const FRAME_MASK: u64 = 0x0000_00ff_ffff_f000;

    /// An absent entry.
    pub const ABSENT: Pte = Pte(0);

    /// Build a present entry mapping `frame` with the given flag bits.
    pub fn new(frame: u32, flags: u64) -> Pte {
        Pte((((frame as u64) << 12) & Self::FRAME_MASK) | flags | Self::PRESENT)
    }

    /// Is the entry valid?
    #[inline]
    pub fn present(self) -> bool {
        self.0 & Self::PRESENT != 0
    }
    /// May the mapping be written?
    #[inline]
    pub fn writable(self) -> bool {
        self.0 & Self::WRITABLE != 0
    }
    /// May user mode access it?
    #[inline]
    pub fn user(self) -> bool {
        self.0 & Self::USER != 0
    }
    /// Has the page been accessed?
    #[inline]
    pub fn accessed(self) -> bool {
        self.0 & Self::ACCESSED != 0
    }
    /// Has the page been written?
    #[inline]
    pub fn dirty(self) -> bool {
        self.0 & Self::DIRTY != 0
    }
    /// Does the entry survive CR3 reloads?
    #[inline]
    pub fn global(self) -> bool {
        self.0 & Self::GLOBAL != 0
    }
    /// Is the mapping copy-on-write?
    #[inline]
    pub fn cow(self) -> bool {
        self.0 & Self::COW != 0
    }

    /// Frame number this entry maps.
    #[inline]
    pub fn frame(self) -> u32 {
        ((self.0 & Self::FRAME_MASK) >> 12) as u32
    }

    /// Copy of this entry with extra flag bits set.
    #[inline]
    pub fn with_flags(self, flags: u64) -> Pte {
        Pte(self.0 | flags)
    }

    /// Copy of this entry with the given flag bits cleared.
    #[inline]
    pub fn without_flags(self, flags: u64) -> Pte {
        Pte(self.0 & !flags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_decomposition_roundtrips() {
        let va = VirtAddr(0x1234_5678 & (VA_TOP - 1));
        let back = VirtAddr::from_indices(va.l2_index(), va.l1_index(), va.page_offset());
        assert_eq!(va, back);
    }

    #[test]
    fn layout_regions_are_disjoint_and_cover_space() {
        assert_eq!(USER_BASE, 0);
        assert_eq!(USER_TOP, KERNEL_BASE);
        assert_eq!(KERNEL_TOP, HV_BASE);
        assert_eq!(HV_TOP, VA_TOP);
        // The VMM reservation is exactly 64 MiB, like Xen's.
        assert_eq!(HV_TOP - HV_BASE, 64 * 1024 * 1024);
    }

    #[test]
    fn region_predicates() {
        assert!(VirtAddr(0x1000).is_user());
        assert!(VirtAddr(KERNEL_BASE).is_kernel());
        assert!(VirtAddr(HV_BASE).is_hypervisor());
        assert!(!VirtAddr(HV_BASE).is_kernel());
        assert!(VirtAddr(VA_TOP - 1).is_canonical());
        assert!(!VirtAddr(VA_TOP).is_canonical());
    }

    #[test]
    fn pte_bits_roundtrip() {
        let pte = Pte::new(0x1234, Pte::WRITABLE | Pte::USER | Pte::COW);
        assert!(pte.present() && pte.writable() && pte.user() && pte.cow());
        assert!(!pte.dirty());
        assert_eq!(pte.frame(), 0x1234);

        let ro = pte.without_flags(Pte::WRITABLE);
        assert!(!ro.writable());
        assert_eq!(ro.frame(), 0x1234);

        let d = ro.with_flags(Pte::DIRTY);
        assert!(d.dirty());
    }

    #[test]
    fn absent_pte() {
        assert!(!Pte::ABSENT.present());
        assert_eq!(format!("{:?}", Pte::ABSENT), "PTE(absent)");
    }

    #[test]
    fn vpn_and_page_base() {
        let va = VirtAddr(0x0123_4567);
        assert_eq!(va.page_base().0, 0x0123_4000);
        assert_eq!(va.vpn(), 0x0123_4567 >> 12);
    }
}
