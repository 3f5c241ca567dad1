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
//!
//! Who writes what (DESIGN.md "Who may write a CPU"): the arrays, the
//! FIFO cursor and the counters are written only by the thread driving
//! the owning CPU, with plain relaxed loads and stores behind `&self`.
//! Any other thread asks for a flush with
//! [`request_shootdown`](Tlb::request_shootdown) — the one locked
//! instruction in this file — and the owner applies it before its next
//! use of the table.

use crate::paging::Pte;
use crate::sync::owner_store;
use std::sync::atomic::{AtomicU64, Ordering};

/// TLB capacity in entries.
pub const TLB_ENTRIES: usize = 64;

/// The tag of a slot that holds no translation.  The MMU looks up and
/// inserts pages of canonical addresses only; an `invlpg` of this
/// value (its operand is the guest's to choose) finds a free slot and
/// frees it again.
const EMPTY: u64 = u64::MAX;

/// The TLB itself, owned by a [`crate::Cpu`].
#[derive(Debug)]
pub struct Tlb {
    /// The owning CPU's id, for the debug-build ownership check.
    cpu: usize,
    /// Virtual page number cached in each slot, or [`EMPTY`].  A page
    /// is in at most one slot ([`insert`](Self::insert) replaces in
    /// place).
    tags: [AtomicU64; TLB_ENTRIES],
    /// The leaf PTE cached in each slot; stale where the tag is empty.
    ptes: [AtomicU64; TLB_ENTRIES],
    next_slot: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    flushes: AtomicU64,
    /// Mailbox: shootdowns requested so far, by any thread.
    shootdowns: AtomicU64,
    /// How many of them the owner has applied.
    applied: AtomicU64,
}

/// Add one to a counter only the owner writes.
#[inline]
fn bump(counter: &AtomicU64) {
    counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

impl Tlb {
    /// An empty TLB for CPU `cpu`.
    pub fn new(cpu: usize) -> Tlb {
        Tlb {
            cpu,
            tags: [const { AtomicU64::new(EMPTY) }; TLB_ENTRIES],
            ptes: [const { AtomicU64::new(Pte::ABSENT.0) }; TLB_ENTRIES],
            next_slot: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            shootdowns: AtomicU64::new(0),
            applied: AtomicU64::new(0),
        }
    }

    /// The slot caching `vpn`, if any.
    #[inline]
    fn find(&self, vpn: u64) -> Option<usize> {
        self.tags
            .iter()
            .position(|tag| tag.load(Ordering::Relaxed) == vpn)
    }

    /// Drop every non-global entry.
    fn drop_non_global(&self) {
        // volint::bound(64) — TLB_ENTRIES slots
        for (tag, pte) in self.tags.iter().zip(&self.ptes) {
            if !Pte(pte.load(Ordering::Relaxed)).global() {
                tag.store(EMPTY, Ordering::Relaxed);
            }
        }
    }

    /// Apply the shootdowns requested since the last use of the table
    /// (one flush covers any number of them); were there any?
    /// `Acquire` pairs with the requester's `AcqRel` bump: the
    /// page-table writes it made before asking are visible to the walk
    /// that refills a flushed entry.
    #[inline]
    fn sync(&self) -> bool {
        let requested = self.shootdowns.load(Ordering::Acquire);
        let pending = requested != self.applied.load(Ordering::Relaxed);
        if pending {
            self.applied.store(requested, Ordering::Relaxed);
            self.drop_non_global();
        }
        pending
    }

    /// Ask the owner to drop every non-global entry before its next
    /// lookup, fill, invalidation or flush — the remote half of a TLB
    /// shootdown, callable from any thread.  Counted as a flush at once.
    pub fn request_shootdown(&self) {
        self.shootdowns.fetch_add(1, Ordering::AcqRel);
    }

    /// Look up a virtual page number.  Returns the cached leaf PTE.
    pub fn lookup(&self, vpn: u64) -> Option<Pte> {
        self.sync();
        match self.find(vpn) {
            Some(slot) => {
                bump(&self.hits);
                Some(Pte(self.ptes[slot].load(Ordering::Relaxed)))
            }
            None => {
                bump(&self.misses);
                None
            }
        }
    }

    /// Install a translation after a successful walk, i.e. after a
    /// [`lookup`](Self::lookup) that missed.  A shootdown requested
    /// since that lookup may postdate the entries the walk read, so the
    /// flush is applied and the fill dropped (the translation itself
    /// stands: it began before that shootdown returned).
    pub fn insert(&self, vpn: u64, pte: Pte) {
        if self.sync() {
            return;
        }
        // Replace an existing entry for the same page if present;
        // otherwise the FIFO victim goes, free slots elsewhere or not.
        let slot = self.find(vpn).unwrap_or_else(|| {
            let victim = self.next_slot.load(Ordering::Relaxed);
            let next = (victim + 1) % TLB_ENTRIES as u64;
            owner_store(&self.next_slot, victim, next, self.cpu, "TLB cursor");
            victim as usize
        });
        self.tags[slot].store(vpn, Ordering::Relaxed);
        self.ptes[slot].store(pte.0, Ordering::Relaxed);
    }

    /// Drop every non-global entry (CR3 reload).
    pub fn flush(&self) {
        // A pending shootdown asks for no more than this does.
        if !self.sync() {
            self.drop_non_global();
        }
        bump(&self.flushes);
    }

    /// Drop everything including global entries (CR4.PGE toggle).
    pub fn flush_all(&self) {
        self.sync();
        bump(&self.flushes);
        // volint::bound(64) — TLB_ENTRIES slots
        for tag in &self.tags {
            tag.store(EMPTY, Ordering::Relaxed);
        }
    }

    /// Drop a single page's translation (`invlpg`).
    pub fn invalidate(&self, vpn: u64) {
        self.sync();
        if let Some(slot) = self.find(vpn) {
            // volint::allow(SWITCH-PANIC): find() returns a position in this array
            self.tags[slot].store(EMPTY, Ordering::Relaxed);
        }
    }

    /// (hits, misses, flushes) counters for diagnostics; a requested
    /// shootdown counts as a flush from the moment it is requested.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.flushes.load(Ordering::Relaxed) + self.shootdowns.load(Ordering::Relaxed),
        )
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

    impl Tlb {
        /// What each slot holds, in the oracle's terms.
        fn resident(&self) -> Vec<Option<oracle::TlbEntry>> {
            (self.tags.iter().zip(&self.ptes))
                .map(|(tag, pte)| {
                    let (vpn, pte) = (tag.load(Ordering::Relaxed), pte.load(Ordering::Relaxed));
                    (vpn != EMPTY).then_some(oracle::TlbEntry { vpn, pte: Pte(pte) })
                })
                .collect()
        }
    }

    /// Same returns, same counters and the same translation in the same
    /// slot after every step of a random run — global entries, flushes
    /// of both kinds, shootdown requests (a flush at once in the old
    /// TLB) and more live pages than the TLB holds.  A fill follows a
    /// lookup of its page, as it does in the MMU; a request leaves the
    /// entries where they are until the next use, so the resident set is
    /// compared once that use has happened.
    #[test]
    fn owner_written_tlb_matches_the_old_tlb_step_by_step() {
        check(
            "owner_written_tlb_matches_the_old_tlb_step_by_step",
            256,
            |rng| {
                let tlb = Tlb::new(0);
                let mut old = oracle::Tlb::new();
                for _ in 0..rng.range(1, 800) {
                    let vpn = rng.below(3 * TLB_ENTRIES as u64);
                    let op = rng.below(22);
                    match op {
                        0..=8 => {
                            let global = (rng.below(5) == 0) as u64 * Pte::GLOBAL;
                            let pte = Pte::new(rng.below(1024) as u32, Pte::WRITABLE | global);
                            assert_eq!(tlb.lookup(vpn), old.lookup(vpn));
                            tlb.insert(vpn, pte);
                            old.insert(vpn, pte);
                        }
                        9..=14 => {
                            assert_eq!(tlb.lookup(vpn), old.lookup(vpn));
                        }
                        15..=17 => {
                            tlb.invalidate(vpn);
                            old.invalidate(vpn);
                        }
                        18 => {
                            tlb.flush();
                            old.flush();
                        }
                        19 => {
                            tlb.flush_all();
                            old.flush_all();
                        }
                        _ => {
                            tlb.request_shootdown();
                            old.flush();
                        }
                    }
                    assert_eq!(tlb.stats(), old.stats());
                    assert_eq!(
                        tlb.next_slot.load(Ordering::Relaxed) as usize,
                        old.next_slot
                    );
                    if op < 20 {
                        assert_eq!(tlb.resident(), old.entries);
                    }
                }
                tlb.sync();
                assert_eq!(tlb.resident(), old.entries);
            },
        );
    }

    #[test]
    fn insert_lookup_invalidate() {
        let tlb = Tlb::new(0);
        assert_eq!(tlb.lookup(5), None);
        tlb.insert(5, Pte::new(42, Pte::WRITABLE));
        assert_eq!(tlb.lookup(5).unwrap().frame(), 42);
        tlb.invalidate(5);
        assert_eq!(tlb.lookup(5), None);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let tlb = Tlb::new(0);
        tlb.insert(5, Pte::new(1, 0));
        tlb.insert(5, Pte::new(2, 0));
        assert_eq!(tlb.lookup(5).unwrap().frame(), 2);
        // Only one slot used.
        assert_eq!(tlb.resident().iter().flatten().count(), 1);
    }

    #[test]
    fn flush_preserves_global_entries() {
        let tlb = Tlb::new(0);
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
        let tlb = Tlb::new(0);
        for i in 0..(TLB_ENTRIES as u64 + 8) {
            tlb.insert(i, Pte::new(i as u32, 0));
        }
        // The earliest entries were evicted; the latest survive.
        assert_eq!(tlb.lookup(0), None);
        assert!(tlb.lookup(TLB_ENTRIES as u64 + 7).is_some());
    }

    #[test]
    fn stats_count() {
        let tlb = Tlb::new(0);
        tlb.insert(9, Pte::new(1, 0));
        tlb.lookup(9);
        tlb.lookup(10);
        tlb.flush();
        let (h, m, f) = tlb.stats();
        assert_eq!((h, m, f), (1, 1, 1));
    }

    #[test]
    fn shootdown_is_applied_before_the_next_use_and_counted_at_once() {
        let tlb = Tlb::new(0);
        tlb.insert(1, Pte::new(10, 0));
        tlb.insert(2, Pte::new(20, Pte::GLOBAL));
        tlb.request_shootdown();
        tlb.request_shootdown();
        assert_eq!(tlb.stats().2, 2, "counted when requested");
        assert_eq!(tlb.lookup(1), None, "applied before the lookup");
        assert_eq!(
            tlb.lookup(2).unwrap().frame(),
            20,
            "a shootdown spares global entries"
        );
        assert_eq!(tlb.stats().2, 2, "and not counted again when applied");
    }

    /// A walk that read its entries before a shootdown may not leave
    /// them in the table after it.
    #[test]
    fn fill_from_a_walk_that_straddles_a_shootdown_is_dropped() {
        let tlb = Tlb::new(0);
        assert_eq!(tlb.lookup(7), None);
        tlb.request_shootdown();
        tlb.insert(7, Pte::new(70, 0));
        assert_eq!(tlb.lookup(7), None);
        // The next walk starts after the flush and may fill.
        tlb.insert(7, Pte::new(71, 0));
        assert_eq!(tlb.lookup(7).unwrap().frame(), 71);
    }

    /// The debug build's ownership check: a cursor that moved between
    /// the owner's load and its store is a second writer.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "CPU 3: TLB cursor")]
    fn second_writer_of_the_cursor_panics_in_debug_builds() {
        let tlb = Tlb::new(3);
        owner_store(&tlb.next_slot, 5, 6, tlb.cpu, "TLB cursor");
    }
}
