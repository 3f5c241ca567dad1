//! A small per-CPU translation lookaside buffer.
//!
//! The TLB caches virtual-page → (frame, flags) translations.  Capacity
//! and eviction are deliberately simple (FIFO over a fixed-size table);
//! what matters to the reproduction is *when* flushes happen: CR3 loads
//! flush non-global entries (costly in virtual mode where they become
//! hypercalls), and `invlpg` drops a single page.
//!
//! The table is three arrays: a fingerprint byte per slot, packed eight
//! to a word, then a tag (the page number) and a PTE per slot.  A
//! translation reads the fingerprint words, compares the tag of each
//! slot whose byte matches the page's, and touches one PTE on a hit.
//! A slot is in use exactly when its fingerprint byte is non-zero, and
//! the byte also says whether the entry is global, so a flush rewrites
//! fingerprint words and touches no tag or PTE.
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

/// Slots per fingerprint word.
const LANES: usize = 8;

/// One in each byte lane of a fingerprint word.
const LOW: u64 = 0x0101_0101_0101_0101;

/// Fingerprint bit: the slot is in use.
const USED: u64 = 0x80;

/// Fingerprint bit: the slot's entry is global.
const GLOBAL: u64 = 0x40;

/// The fingerprint byte of a slot caching `vpn`, [`GLOBAL`] aside: in
/// use, and six bits of the page number — a page and the 63 that share
/// its aligned block of 64 all differ there.
#[inline]
fn fingerprint(vpn: u64) -> u64 {
    USED | ((vpn ^ (vpn >> 6)) & 0x3f)
}

/// The TLB itself, owned by a [`crate::Cpu`].
#[derive(Debug)]
pub struct Tlb {
    /// The owning CPU's id, for the debug-build ownership check.
    cpu: usize,
    /// Slot `s`'s [`fingerprint`] in byte `s % 8` of word `s / 8`; 0 for
    /// a free slot.
    prints: [AtomicU64; TLB_ENTRIES / LANES],
    /// Virtual page number cached in each slot; stale where the slot is
    /// free.  A page is in at most one slot in use
    /// ([`insert`](Self::insert) replaces in place).
    tags: [AtomicU64; TLB_ENTRIES],
    /// The leaf PTE cached in each slot; stale where the slot is free.
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
            prints: [const { AtomicU64::new(0) }; TLB_ENTRIES / LANES],
            tags: [const { AtomicU64::new(0) }; TLB_ENTRIES],
            ptes: [const { AtomicU64::new(Pte::ABSENT.0) }; TLB_ENTRIES],
            next_slot: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            shootdowns: AtomicU64::new(0),
            applied: AtomicU64::new(0),
        }
    }

    /// The slot in use caching `vpn`, if any: the tag of each slot whose
    /// fingerprint matches `vpn`'s, global bit aside, is compared.
    #[inline]
    fn find(&self, vpn: u64) -> Option<usize> {
        let want = fingerprint(vpn) * LOW;
        // volint::bound(8) — TLB_ENTRIES / LANES fingerprint words
        for (word, prints) in self.prints.iter().enumerate() {
            // A lane is zero here exactly where its slot is in use with
            // `vpn`'s fingerprint; a free lane keeps its top bit.
            let lanes = (prints.load(Ordering::Relaxed) ^ want) & !(GLOBAL * LOW);
            // The top bit of each zero lane, and possibly of lanes above
            // one (a borrow): the tag check weeds those out.
            let mut candidates = lanes.wrapping_sub(LOW) & !lanes & (USED * LOW);
            // volint::bound(8) — LANES slots per word
            while candidates != 0 {
                let slot = word * LANES + candidates.trailing_zeros() as usize / 8;
                if self.tags.get(slot)?.load(Ordering::Relaxed) == vpn {
                    return Some(slot);
                }
                candidates &= candidates - 1;
            }
        }
        None
    }

    /// Set slot `slot`'s fingerprint byte to `print` (0 frees the slot).
    #[inline]
    fn set_print(&self, slot: usize, print: u64) {
        let Some(word) = self.prints.get(slot / LANES) else {
            return;
        };
        let shift = slot % LANES * 8;
        let seen = word.load(Ordering::Relaxed);
        let new = (seen & !(0xff << shift)) | (print << shift);
        owner_store(word, seen, new, self.cpu, "TLB fingerprints");
    }

    /// Drop every entry, or every non-global one: a whole fingerprint
    /// word at a time, and only the words that change.
    fn drop_entries(&self, keep_global: bool) {
        // volint::bound(8) — TLB_ENTRIES / LANES fingerprint words
        for word in &self.prints {
            let seen = word.load(Ordering::Relaxed);
            // Each global lane's bit 6, spread over its whole byte.
            let kept = if keep_global {
                seen & (((seen >> 6) & LOW) * 0xff)
            } else {
                0
            };
            if kept != seen {
                owner_store(word, seen, kept, self.cpu, "TLB fingerprints");
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
            self.drop_entries(true);
        }
        pending
    }

    /// Ask the owner to drop every non-global entry before its next
    /// lookup, fill, invalidation or flush — the remote half of a TLB
    /// shootdown, callable from any thread.  Counted as a flush at once.
    pub fn request_shootdown(&self) {
        // volint::allow(FORBIDDEN): the shootdown count is a mailbox any thread bumps
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
        self.set_print(slot, fingerprint(vpn) | (GLOBAL * u64::from(pte.global())));
    }

    /// Drop every non-global entry (CR3 reload).
    pub fn flush(&self) {
        // A pending shootdown asks for no more than this does.
        if !self.sync() {
            self.drop_entries(true);
        }
        bump(&self.flushes);
    }

    /// Drop everything including global entries (CR4.PGE toggle).
    pub fn flush_all(&self) {
        self.sync();
        bump(&self.flushes);
        self.drop_entries(false);
    }

    /// Drop a single page's translation (`invlpg`).
    pub fn invalidate(&self, vpn: u64) {
        self.sync();
        if let Some(slot) = self.find(vpn) {
            self.set_print(slot, 0);
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
/// slot by slot — kept as the oracle the fingerprinted table is checked
/// against.
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
        /// What each slot holds, in the oracle's terms; a slot in use
        /// must carry its entry's fingerprint.
        fn resident(&self) -> Vec<Option<oracle::TlbEntry>> {
            (0..TLB_ENTRIES)
                .map(|slot| {
                    let print = self.prints[slot / LANES].load(Ordering::Relaxed)
                        >> (slot % LANES * 8)
                        & 0xff;
                    let vpn = self.tags[slot].load(Ordering::Relaxed);
                    let pte = Pte(self.ptes[slot].load(Ordering::Relaxed));
                    if print != 0 {
                        let want = fingerprint(vpn) | (GLOBAL * u64::from(pte.global()));
                        assert_eq!(print, want, "slot {slot}'s fingerprint, page {vpn:#x}");
                    }
                    (print != 0).then_some(oracle::TlbEntry { vpn, pte })
                })
                .collect()
        }
    }

    /// Same returns, same counters and the same translation in the same
    /// slot after every step of a random run — global entries, flushes
    /// of both kinds, shootdown requests (a flush at once in the old
    /// TLB), more live pages than the TLB holds and, in runs that flush
    /// rarely, fills that evict a slot in use.  A fill follows a
    /// lookup of its page, as it does in the MMU, and a shootdown may be
    /// requested in between, which drops the fill.  Nearly half the
    /// pages share one fingerprint byte, and `u64::MAX` — a page number
    /// no address has — is looked up, filled and invalidated like any
    /// other.  A request leaves the entries where they are until the
    /// next use, so the resident set is compared once that use has
    /// happened.
    #[test]
    fn owner_written_tlb_matches_the_old_tlb_step_by_step() {
        check(
            "owner_written_tlb_matches_the_old_tlb_step_by_step",
            256,
            |rng| {
                let tlb = Tlb::new(0);
                let mut old = oracle::Tlb::new();
                // Pages with `shared`'s fingerprint: flip the same bits in
                // both six-bit halves, or change the bits above them.
                let shared = rng.below(1 << 12);
                // Ops 24 and up are fills: in a run that draws from more
                // than 24, flushes are rare, the table fills and the FIFO
                // victim is a slot in use.
                let ops = [24, 96, 400][rng.below(3) as usize];
                for _ in 0..rng.range(1, 800) {
                    let vpn = match rng.below(16) {
                        0 => u64::MAX,
                        1..=7 => (shared ^ (rng.below(64) * 0x41)) + (rng.below(3) << 12),
                        _ => rng.below(3 * TLB_ENTRIES as u64),
                    };
                    let op = rng.below(ops);
                    match op {
                        0..=8 | 22 | 24.. => {
                            let global = (rng.below(5) == 0) as u64 * Pte::GLOBAL;
                            let pte = Pte::new(rng.below(1024) as u32, Pte::WRITABLE | global);
                            assert_eq!(tlb.lookup(vpn), old.lookup(vpn));
                            if op == 22 {
                                // The walk straddles a shootdown.
                                tlb.request_shootdown();
                                old.flush();
                            } else {
                                old.insert(vpn, pte);
                            }
                            tlb.insert(vpn, pte);
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
                    if !matches!(op, 20 | 21 | 23) {
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
