//! A small per-CPU translation lookaside buffer.
//!
//! The TLB caches virtual-page → (frame, flags) translations.  Capacity
//! and eviction are deliberately simple (FIFO over a fixed-size table);
//! what matters to the reproduction is *when* flushes happen: CR3 loads
//! flush non-global entries (costly in virtual mode where they become
//! hypercalls), and `invlpg` drops a single page.
//!
//! The table is a tag array beside a PTE array: a translation scans 64
//! page numbers, 512 contiguous bytes, and touches one PTE on a hit.
//! A page number is an address shifted right by twelve, so the all-ones
//! tag is no page's and marks a free slot.

use crate::paging::Pte;

/// TLB capacity in entries.
pub const TLB_ENTRIES: usize = 64;

/// The tag of a slot that holds no translation.  The MMU looks up and
/// inserts pages of canonical addresses only; an `invlpg` of this
/// value (its operand is the guest's to choose) finds a free slot and
/// frees it again.
const EMPTY: u64 = u64::MAX;

/// The TLB itself.  Owned by a [`crate::Cpu`] behind a mutex.
#[derive(Debug)]
pub struct Tlb {
    /// Virtual page number cached in each slot, or [`EMPTY`].  A page
    /// is in at most one slot ([`insert`](Self::insert) replaces in
    /// place).
    tags: [u64; TLB_ENTRIES],
    /// The leaf PTE cached in each slot; stale where the tag is empty.
    ptes: [Pte; TLB_ENTRIES],
    next_slot: usize,
    hits: u64,
    misses: u64,
    flushes: u64,
}

impl Tlb {
    /// An empty TLB.
    pub fn new() -> Tlb {
        Tlb {
            tags: [EMPTY; TLB_ENTRIES],
            ptes: [Pte::ABSENT; TLB_ENTRIES],
            next_slot: 0,
            hits: 0,
            misses: 0,
            flushes: 0,
        }
    }

    /// The slot caching `vpn`, if any.
    #[inline]
    fn find(&self, vpn: u64) -> Option<usize> {
        self.tags.iter().position(|&tag| tag == vpn)
    }

    /// Look up a virtual page number.  Returns the cached leaf PTE.
    pub fn lookup(&mut self, vpn: u64) -> Option<Pte> {
        match self.find(vpn) {
            Some(slot) => {
                self.hits += 1;
                Some(self.ptes[slot])
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Install a translation after a successful walk.
    pub fn insert(&mut self, vpn: u64, pte: Pte) {
        // Replace an existing entry for the same page if present;
        // otherwise the FIFO victim goes, free slots elsewhere or not.
        let slot = self.find(vpn).unwrap_or_else(|| {
            let victim = self.next_slot;
            self.next_slot = (victim + 1) % TLB_ENTRIES;
            victim
        });
        self.tags[slot] = vpn;
        self.ptes[slot] = pte;
    }

    /// Drop every non-global entry (CR3 reload).
    pub fn flush(&mut self) {
        self.flushes += 1;
        for (tag, pte) in self.tags.iter_mut().zip(&self.ptes) {
            if !pte.global() {
                *tag = EMPTY;
            }
        }
    }

    /// Drop everything including global entries (CR4.PGE toggle).
    pub fn flush_all(&mut self) {
        self.flushes += 1;
        self.tags = [EMPTY; TLB_ENTRIES];
    }

    /// Drop a single page's translation (`invlpg`).
    pub fn invalidate(&mut self, vpn: u64) {
        if let Some(slot) = self.find(vpn) {
            // volint::allow(SWITCH-PANIC): find() returns a position in this array
            self.tags[slot] = EMPTY;
        }
    }

    /// (hits, misses, flushes) counters for diagnostics.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.flushes)
    }
}

impl Default for Tlb {
    fn default() -> Self {
        Self::new()
    }
}

/// The TLB this one replaced — a `Vec` of `Option<(vpn, pte)>` scanned
/// slot by slot — kept as the oracle the tag array is checked against.
#[cfg(test)]
mod oracle {
    use super::{Pte, TLB_ENTRIES};

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct TlbEntry {
        pub vpn: u64,
        pub pte: Pte,
    }

    pub struct Tlb {
        pub entries: Vec<Option<TlbEntry>>,
        pub next_slot: usize,
        hits: u64,
        misses: u64,
        flushes: u64,
    }

    impl Tlb {
        pub fn new() -> Tlb {
            Tlb {
                entries: vec![None; TLB_ENTRIES],
                next_slot: 0,
                hits: 0,
                misses: 0,
                flushes: 0,
            }
        }

        pub fn lookup(&mut self, vpn: u64) -> Option<Pte> {
            match self
                .entries
                .iter()
                .flatten()
                .find(|e| e.vpn == vpn)
                .map(|e| e.pte)
            {
                Some(pte) => {
                    self.hits += 1;
                    Some(pte)
                }
                None => {
                    self.misses += 1;
                    None
                }
            }
        }

        pub fn insert(&mut self, vpn: u64, pte: Pte) {
            if let Some(slot) = self
                .entries
                .iter_mut()
                .find(|e| matches!(e, Some(x) if x.vpn == vpn))
            {
                *slot = Some(TlbEntry { vpn, pte });
                return;
            }
            self.entries[self.next_slot] = Some(TlbEntry { vpn, pte });
            self.next_slot = (self.next_slot + 1) % TLB_ENTRIES;
        }

        pub fn flush(&mut self) {
            self.flushes += 1;
            for e in self.entries.iter_mut() {
                if !matches!(e, Some(x) if x.pte.global()) {
                    *e = None;
                }
            }
        }

        pub fn flush_all(&mut self) {
            self.flushes += 1;
            self.entries.iter_mut().for_each(|e| *e = None);
        }

        pub fn invalidate(&mut self, vpn: u64) {
            for e in self.entries.iter_mut() {
                if matches!(e, Some(x) if x.vpn == vpn) {
                    *e = None;
                }
            }
        }

        pub fn stats(&self) -> (u64, u64, u64) {
            (self.hits, self.misses, self.flushes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultgen::rng::check;

    /// Same returns, same counters and the same translation in the same
    /// slot after every step of a random run — global entries, flushes
    /// of both kinds and more live pages than the TLB holds.
    #[test]
    fn tag_array_matches_the_old_tlb_step_by_step() {
        check("tag_array_matches_the_old_tlb_step_by_step", 256, |rng| {
            let mut tlb = Tlb::new();
            let mut old = oracle::Tlb::new();
            for _ in 0..rng.range(1, 800) {
                let vpn = rng.below(3 * TLB_ENTRIES as u64);
                match rng.below(20) {
                    0..=8 => {
                        let global = (rng.below(5) == 0) as u64 * Pte::GLOBAL;
                        let pte = Pte::new(rng.below(1024) as u32, Pte::WRITABLE | global);
                        tlb.insert(vpn, pte);
                        old.insert(vpn, pte);
                    }
                    9..=14 => assert_eq!(tlb.lookup(vpn), old.lookup(vpn)),
                    15..=17 => {
                        tlb.invalidate(vpn);
                        old.invalidate(vpn);
                    }
                    18 => {
                        tlb.flush();
                        old.flush();
                    }
                    _ => {
                        tlb.flush_all();
                        old.flush_all();
                    }
                }
                assert_eq!(tlb.stats(), old.stats());
                assert_eq!(tlb.next_slot, old.next_slot);
                let resident: Vec<Option<oracle::TlbEntry>> = (tlb.tags.iter().zip(&tlb.ptes))
                    .map(|(&vpn, &pte)| (vpn != EMPTY).then_some(oracle::TlbEntry { vpn, pte }))
                    .collect();
                assert_eq!(resident, old.entries);
            }
        });
    }

    #[test]
    fn insert_lookup_invalidate() {
        let mut tlb = Tlb::new();
        assert_eq!(tlb.lookup(5), None);
        tlb.insert(5, Pte::new(42, Pte::WRITABLE));
        assert_eq!(tlb.lookup(5).unwrap().frame(), 42);
        tlb.invalidate(5);
        assert_eq!(tlb.lookup(5), None);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut tlb = Tlb::new();
        tlb.insert(5, Pte::new(1, 0));
        tlb.insert(5, Pte::new(2, 0));
        assert_eq!(tlb.lookup(5).unwrap().frame(), 2);
        // Only one slot used.
        assert_eq!(tlb.tags.iter().filter(|&&t| t != EMPTY).count(), 1);
    }

    #[test]
    fn flush_preserves_global_entries() {
        let mut tlb = Tlb::new();
        tlb.insert(1, Pte::new(10, 0));
        tlb.insert(2, Pte::new(20, Pte::GLOBAL));
        tlb.flush();
        assert_eq!(tlb.lookup(1), None);
        assert_eq!(tlb.lookup(2).unwrap().frame(), 20);
        tlb.flush_all();
        assert_eq!(tlb.lookup(2), None);
    }

    #[test]
    fn eviction_wraps_around() {
        let mut tlb = Tlb::new();
        for i in 0..(TLB_ENTRIES as u64 + 8) {
            tlb.insert(i, Pte::new(i as u32, 0));
        }
        // The earliest entries were evicted; the latest survive.
        assert_eq!(tlb.lookup(0), None);
        assert!(tlb.lookup(TLB_ENTRIES as u64 + 7).is_some());
    }

    #[test]
    fn stats_count() {
        let mut tlb = Tlb::new();
        tlb.insert(9, Pte::new(1, 0));
        tlb.lookup(9);
        tlb.lookup(10);
        tlb.flush();
        let (h, m, f) = tlb.stats();
        assert_eq!((h, m, f), (1, 1, 1));
    }
}
