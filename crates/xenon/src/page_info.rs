//! Per-frame ownership and type accounting — Xen's `page_info` array.
//!
//! To isolate guests from each other, the hypervisor must know, for every
//! physical frame, *who owns it* and *how it is being used*.  The type
//! system enforces the central invariant of direct ("writable page
//! table"-less) paging:
//!
//! > **A frame acting as a page table must never be mapped writable.**
//!
//! Types are reference-counted: a frame is `L1` while at least one
//! validated L2 entry references it, `Writable` while at least one
//! writable leaf mapping references it, and untyped when unreferenced.
//! Pinning adds an extra type reference so a base table stays validated
//! even while not loaded in CR3.
//!
//! When Mercury detaches the VMM, this table goes stale; §5.1.2 of the
//! paper describes the two strategies Mercury supports to fix it on
//! re-attach — full **recomputation** (the default; dominates the 0.22 ms
//! switch time) and **active tracking** from native mode (2~3 % overhead).
//! Mercury adds a third, **dirty recompute** (snapshot at detach,
//! revalidate on re-attach only the tables stored to while native).
//! All strategies produce this table through the one walk below; a
//! property test in the mercury crate asserts they agree.
//!
//! Which frames were written is not kept here: memory stamps every
//! store ([`PhysMemory::stored_since`]), and a [`Rounds`](crate::Rounds)
//! reads the stamps.  [`PageInfo`] is pure accounting: `==` on a
//! [`PageInfoTable::snapshot`] compares validation state and nothing
//! else.
//!
//! # Retained records
//!
//! A detach under a dirty baseline keeps its records restorable
//! ([`PageInfoTable::retain`]) and the next attach
//! ([`PageInfoTable::reattach`]) restores them and applies, per page
//! table written while native, the old → new reference delta — or
//! walks every table as [`PageInfoTable::recompute_for_at`] does when
//! the retained records do not cover a change.  Which tables were
//! written is told by memory's write stamps; the old side of a written
//! table is the pre-image [`PageInfoTable::note_write`] kept at its
//! first tracked write (DESIGN.md §7b).

use crate::domain::DomId;
use crate::error::HvError;
use simx86::costs;
use simx86::mem::{EpochCell, FrameNum, PhysMemory, TableView, WriteEpoch};
use simx86::paging::{Pte, ENTRIES_PER_TABLE};
use simx86::sync::Mutex;
use simx86::Cpu;
use std::convert::Infallible;

/// How a frame is currently typed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PageType {
    /// No type constraint (unreferenced, or only read-only mapped).
    #[default]
    None,
    /// Leaf page table: referenced by validated L2 entries.
    L1,
    /// Base (directory) table: pinned or loaded in CR3.
    L2,
    /// Mapped writable somewhere: may never become a page table while
    /// the count is non-zero.
    Writable,
}

/// Accounting record for one physical frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PageInfo {
    /// Owning domain, if any.
    pub owner: Option<DomId>,
    /// Current type.
    pub typ: PageType,
    /// References holding the current type.
    pub type_count: u32,
    /// Pinned as a base table (adds one type reference).
    pub pinned: bool,
}

/// The machine-wide frame accounting table.
pub struct PageInfoTable {
    info: Mutex<Records>,
    /// The retained detach's native window: set when the detach's flip
    /// of the tables' direct-map entries is done, so a table stamped
    /// from then on was written while native.  Written with the lock
    /// held, and counts only while a [`Retained`] does; read without
    /// the lock by [`PageInfoTable::note_write`].
    native_since: EpochCell,
}

/// The frame records, as seen with the table's lock held.
///
/// Ownership, typing and the validators are defined once, here, on the
/// locked records: a validator (or a guest's PTE call, with every
/// `mmu_update` it makes) takes the lock once and holds it across every
/// entry it scans and every table it descends into, and
/// [`PageInfoTable`]'s per-call methods are this lock plus one call.
/// Page-table frames are read through [`PhysMemory::read_table`];
/// memory takes no lock of its own, so this lock is what keeps two
/// validators off one table (DESIGN.md §14a).
///
/// A domain's type state is cleared by bumping its **generation**
/// (DESIGN.md §7b): a record's type state (type, count, pin) counts
/// only while the generation it was written under is its owner's.  Every read of
/// type state goes through [`Record::view`], every write through
/// [`Record::live`].
pub(crate) struct Records {
    frames: Vec<Record>,
    generations: Generations,
    /// The domain whose type state is exactly what its page tables
    /// derive: set by a whole walk or a reattach, kept by the
    /// validators, lost to any other write of a record
    /// ([`Records::underived`]).
    derived: Option<DomId>,
    /// What a detach kept for the next attach ([`Retained`]).
    retained: Option<Retained>,
}

/// One frame's words.
type Image = [u64; ENTRIES_PER_TABLE];

/// A detach's accounting, kept restorable for the next attach
/// ([`PageInfoTable::reattach`]): the records stay where they are,
/// counting under the generation the detach retired.
struct Retained {
    dom: DomId,
    /// The generation the kept records count under.
    generation: u32,
    /// Every page-table frame at the detach, sorted: the frames whose
    /// writes the attach must see.  At most [`RETAINED_TABLES`].
    tables: Vec<FrameNum>,
    /// Set by the attach's flip before it writes: bit `i` says
    /// `tables[i]` was written while native.
    written: Option<[u64; RETAINED_TABLES / 64]>,
    /// `preimages[i]`: what `tables[i]` held at its first tracked
    /// write while native, if it had one.
    preimages: [Option<Box<Image>>; RETAINED_TABLES],
}

/// Table frames a detach retains; past this many it keeps nothing.
const RETAINED_TABLES: usize = 256;

/// One frame's stored record: its accounting, and the generation of
/// its owner that accounting was written under.
#[derive(Clone, Copy, Default)]
struct Record {
    info: PageInfo,
    generation: u32,
}

/// Per domain, the generation its records' type state counts under;
/// one slot per `DomId` value, so every domain has one from the start
/// and a lookup's bounds check folds away.  An unowned frame's
/// generation is 0 and never moves.
struct Generations(Box<[u32; DOMAINS]>);

/// One generation slot per `DomId` value.
const DOMAINS: usize = 1 << 16;

impl Record {
    /// The record as it counts, given its owner's current generation:
    /// its type state only while it was written under that generation.
    fn view(&self, generation: u32) -> PageInfo {
        if self.generation == generation {
            self.info
        } else {
            PageInfo::untyped(self.info.owner)
        }
    }

    /// The accounting to write under `generation`, its owner's current
    /// one: a stale record is reset and stamped first.
    fn live(&mut self, generation: u32) -> &mut PageInfo {
        if self.generation != generation {
            let info = self.view(generation);
            *self = Record { info, generation };
        }
        &mut self.info
    }
}

impl Generations {
    fn of(&self, owner: Option<DomId>) -> u32 {
        owner
            .and_then(|dom| self.0.get(usize::from(dom.0)))
            .copied()
            .unwrap_or(0)
    }
}

fn out_of_range(frame: FrameNum) -> HvError {
    HvError::BadFrame {
        frame: frame.0,
        why: "out of range",
    }
}

impl PageInfo {
    /// A record of `owner` with no type, count or pin.
    fn untyped(owner: Option<DomId>) -> PageInfo {
        PageInfo {
            owner,
            ..PageInfo::default()
        }
    }

    /// Take a type reference of kind `typ`.
    fn take_ref(&mut self, typ: PageType) -> Result<(), HvError> {
        if self.typ == PageType::None || self.type_count == 0 {
            self.typ = typ;
            self.type_count = 1;
            Ok(())
        } else if self.typ == typ {
            self.type_count += 1;
            Ok(())
        } else {
            Err(HvError::TypeConflict(match (self.typ, typ) {
                (PageType::L1 | PageType::L2, PageType::Writable) => {
                    "attempt to map a page-table frame writable"
                }
                (PageType::Writable, PageType::L1 | PageType::L2) => {
                    "attempt to use a writably-mapped frame as a page table"
                }
                _ => "incompatible page type",
            }))
        }
    }
}

impl Records {
    /// `frame`'s record as it counts ([`Record::view`]).
    #[inline]
    fn rec(&self, frame: FrameNum) -> Result<PageInfo, HvError> {
        let rec = self
            .frames
            .get(frame.0 as usize)
            .ok_or(out_of_range(frame))?;
        Ok(rec.view(self.generations.of(rec.info.owner)))
    }

    /// `frame`'s record, to write ([`Record::live`]).
    #[inline]
    fn rec_mut(&mut self, frame: FrameNum) -> Result<&mut PageInfo, HvError> {
        let rec = self
            .frames
            .get_mut(frame.0 as usize)
            .ok_or(out_of_range(frame))?;
        if self
            .retained
            .as_ref()
            .is_some_and(|kept| rec.info.owner == Some(kept.dom))
        {
            self.retained = None;
        }
        Ok(rec.live(self.generations.of(rec.info.owner)))
    }

    /// A record is about to be written other than by a validator: no
    /// domain's type state is its tables' derivation any more, and no
    /// retained accounting stands for what `owner` had at its detach.
    fn underived(&mut self, owner: Option<DomId>) {
        self.derived = None;
        self.forget_retained(owner);
    }

    /// A record of `owner` is written: what a detach retained for it
    /// no longer stands.
    fn forget_retained(&mut self, owner: Option<DomId>) {
        if self
            .retained
            .as_ref()
            .is_some_and(|kept| owner == Some(kept.dom))
        {
            self.retained = None;
        }
    }

    /// Owner of `frame`; a frame the machine does not have has none.
    pub(crate) fn owner(&self, frame: FrameNum) -> Option<DomId> {
        self.frames.get(frame.0 as usize)?.info.owner
    }

    /// Current (type, count) of `frame`; a frame the machine does not
    /// have is untyped.
    pub(crate) fn type_of(&self, frame: FrameNum) -> (PageType, u32) {
        self.rec(frame)
            .map_or((PageType::None, 0), |rec| (rec.typ, rec.type_count))
    }

    fn check_owned(&self, frame: FrameNum, dom: DomId, why: &'static str) -> Result<(), HvError> {
        let rec = self
            .frames
            .get(frame.0 as usize)
            .ok_or(out_of_range(frame))?;
        if rec.info.owner == Some(dom) {
            Ok(())
        } else {
            Err(HvError::BadFrame {
                frame: frame.0,
                why,
            })
        }
    }

    /// [`PageInfoTable::corrupt_record`] under the held lock.
    pub(crate) fn corrupt_record(&mut self, frame: FrameNum) {
        self.underived(self.owner(frame));
        if let Ok(rec) = self.rec_mut(frame) {
            *rec = PageInfo::untyped(rec.owner);
        }
    }

    fn set_pinned(&mut self, frame: FrameNum, pinned: bool) -> Result<(), HvError> {
        self.rec_mut(frame)?.pinned = pinned;
        Ok(())
    }

    /// Take a type reference of kind `typ` on `frame`
    /// ([`PageInfoTable::get_type_ref`]).
    #[inline]
    pub(crate) fn get_type_ref(&mut self, frame: FrameNum, typ: PageType) -> Result<(), HvError> {
        // volint::allow(SWITCH-PANIC): API-misuse guard; every caller passes a literal non-None type
        assert_ne!(typ, PageType::None);
        self.rec_mut(frame)?.take_ref(typ)
    }

    /// One L1 entry's claim on its target, in one record lookup: the
    /// target must be owned by `dom`, whose current generation is
    /// `generation`, and a writable entry takes a `Writable` reference
    /// on it.
    fn take_entry_ref(&mut self, pte: Pte, dom: DomId, generation: u32) -> Result<(), HvError> {
        let target = FrameNum(pte.frame());
        let rec = self
            .frames
            .get_mut(target.0 as usize)
            .ok_or(out_of_range(target))?;
        if rec.info.owner != Some(dom) {
            return Err(HvError::BadFrame {
                frame: target.0,
                why: "L1 entry target",
            });
        }
        if held_ref(pte).is_some() {
            rec.live(generation).take_ref(PageType::Writable)?;
        }
        Ok(())
    }

    /// Drop the `Writable` references the first `n` entries of an L1
    /// walk took, re-reading them from its view at no charge.
    fn drop_entry_refs(&mut self, view: &TableView<'_>, n: usize) {
        // volint::bound(512) — n ≤ ENTRIES_PER_TABLE entries already consumed
        for pte in (0..n).filter_map(|i| view.reread(i)) {
            if let Some(target) = held_ref(pte) {
                self.put_type_ref(target, PageType::Writable);
            }
        }
    }

    /// [`PageInfoTable::clear_types_for`] under the held lock: one
    /// increment of `dom`'s generation.  A wrapped generation is one a
    /// stale record of `dom` may still carry, so only then are `dom`'s
    /// records reset, in one pass.
    fn clear_types_for(&mut self, dom: DomId) {
        if self.derived == Some(dom) {
            self.derived = None;
        }
        self.forget_retained(Some(dom));
        let Some(generation) = self.generations.0.get_mut(usize::from(dom.0)) else {
            return;
        };
        *generation = generation.wrapping_add(1);
        if *generation != 0 {
            return;
        }
        let owned = self
            .frames
            .iter_mut()
            .filter(|rec| rec.info.owner == Some(dom));
        // volint::bound(16384) — one step per frame of the 16 384-frame pool, once per 2^32 clears
        for rec in owned {
            *rec = Record {
                info: PageInfo::untyped(Some(dom)),
                generation: 0,
            };
        }
    }

    /// Drop a type reference on `frame`; a frame the machine does not
    /// have holds none.
    #[inline]
    pub(crate) fn put_type_ref(&mut self, frame: FrameNum, typ: PageType) {
        let Ok(rec) = self.rec_mut(frame) else {
            return;
        };
        debug_assert_eq!(rec.typ, typ, "type ref mismatch on frame {}", frame.0);
        debug_assert!(rec.type_count > 0, "type underflow on frame {}", frame.0);
        rec.type_count = rec.type_count.saturating_sub(1);
        if rec.type_count == 0 {
            rec.typ = PageType::None;
        }
    }

    /// Drop one `L1` reference on `l1`; the last one going releases the
    /// table's writable references too.
    pub(crate) fn put_l1_ref(
        &mut self,
        cpu: &Cpu,
        mem: &PhysMemory,
        l1: FrameNum,
    ) -> Result<(), HvError> {
        self.put_type_ref(l1, PageType::L1);
        if self.type_of(l1) == (PageType::None, 0) {
            // Temporarily re-take the reference dropped above so the
            // invariant checks in invalidate_l1 hold.
            self.get_type_ref(l1, PageType::L1)?;
            self.invalidate_l1(cpu, mem, l1)?;
        }
        Ok(())
    }

    /// The entry walk of an L1 validation over the table's `view`: every
    /// present entry must reference a frame owned by `dom`, and a
    /// writable one takes a `Writable` reference on its target.  A
    /// failed walk drops the references it took.
    fn scan_l1(&mut self, view: &mut TableView<'_>, dom: DomId) -> Result<(), HvError> {
        self.forget_retained(Some(dom));
        let generation = self.generations.of(Some(dom));
        view.scan(0..ENTRIES_PER_TABLE, |view, at, pte| {
            let taken = self.take_entry_ref(pte, dom, generation);
            if taken.is_err() {
                // The entry that failed, `at`, took nothing.
                self.drop_entry_refs(view, at);
            }
            taken
        })
    }

    /// [`PageInfoTable::validate_l1`] under the held lock.
    pub(crate) fn validate_l1(
        &mut self,
        cpu: &Cpu,
        mem: &PhysMemory,
        frame: FrameNum,
        dom: DomId,
        charge_per_entry: u64,
    ) -> Result<(), HvError> {
        cpu.tick(charge_per_entry * ENTRIES_PER_TABLE as u64);
        // The table frame itself must be owned by the domain.
        self.check_owned(frame, dom, "L1 table frame")?;
        let mut view = mem.read_table(cpu, frame)?;
        self.scan_l1(&mut view, dom)?;
        let result = self.get_type_ref(frame, PageType::L1);
        if result.is_err() {
            self.drop_entry_refs(&view, ENTRIES_PER_TABLE);
        }
        result
    }

    /// [`PageInfoTable::invalidate_l1`] under the held lock.
    pub(crate) fn invalidate_l1(
        &mut self,
        cpu: &Cpu,
        mem: &PhysMemory,
        frame: FrameNum,
    ) -> Result<(), HvError> {
        let mut view = mem.read_table(cpu, frame)?;
        let Ok(()) = view.scan(0..ENTRIES_PER_TABLE, |_, _, pte| {
            if let Some(target) = held_ref(pte) {
                self.put_type_ref(target, PageType::Writable);
            }
            Ok::<_, Infallible>(())
        });
        self.put_type_ref(frame, PageType::L1);
        Ok(())
    }

    /// [`PageInfoTable::validate_l2`] under the held lock.
    fn validate_l2(
        &mut self,
        cpu: &Cpu,
        mem: &PhysMemory,
        frame: FrameNum,
        dom: DomId,
        charge_per_entry: u64,
    ) -> Result<(), HvError> {
        cpu.tick(charge_per_entry * ENTRIES_PER_TABLE as u64);
        self.check_owned(frame, dom, "L2 table frame")?;
        let mut view = mem.read_table(cpu, frame)?;
        // If the walk fails, the entries below `held` hold an L1 reference.
        let mut held = ENTRIES_PER_TABLE;
        let result = view.scan(0..ENTRIES_PER_TABLE, |view, at, pde| {
            let l1 = FrameNum(pde.frame());
            let (typ, count) = self.type_of(l1);
            let result = if typ != PageType::L1 || count == 0 {
                // validate_l1's final type ref *is* this entry's
                // reference.
                view.settle();
                self.validate_l1(cpu, mem, l1, dom, charge_per_entry)
            } else {
                self.get_type_ref(l1, PageType::L1)
            };
            if result.is_err() {
                held = at;
            }
            result
        });
        let result = result.and_then(|()| self.get_type_ref(frame, PageType::L2));
        if result.is_err() {
            // Last reference first: an L1 this walk validated drops its
            // own entries' references when its count reaches zero.
            view.settle();
            // volint::bound(512) — held ≤ ENTRIES_PER_TABLE entries already consumed
            for pde in (0..held).rev().filter_map(|i| view.reread(i)) {
                if pde.present() {
                    let _ = self.put_l1_ref(cpu, mem, FrameNum(pde.frame()));
                }
            }
        }
        result
    }

    /// [`PageInfoTable::invalidate_l2`] under the held lock.
    fn invalidate_l2(
        &mut self,
        cpu: &Cpu,
        mem: &PhysMemory,
        frame: FrameNum,
    ) -> Result<(), HvError> {
        let mut view = mem.read_table(cpu, frame)?;
        view.scan(0..ENTRIES_PER_TABLE, |view, _, pde| {
            view.settle();
            self.put_l1_ref(cpu, mem, FrameNum(pde.frame()))
        })?;
        self.put_type_ref(frame, PageType::L2);
        Ok(())
    }
}

/// Why a reattach walks the tables after all: the kept accounting does
/// not cover what changed.  Never leaves the table; the walk decides.
fn uncovered() -> HvError {
    HvError::TypeConflict("a change the retained accounting does not cover")
}

/// What a present L1 entry claims of its target: the frame, and
/// whether writably.
fn claim(pte: Pte) -> Option<(u32, bool)> {
    pte.present().then(|| (pte.frame(), pte.writable()))
}

/// The reference a present L1 entry holds on its target, the one
/// [`Records::take_entry_ref`] takes: a `Writable` one on a frame it
/// maps writable.  Every path that gives entries' references back —
/// a failed walk, [`Records::invalidate_l1`], the reattach's delta —
/// puts back what this names.
fn held_ref(pte: Pte) -> Option<FrameNum> {
    (pte.present() && pte.writable()).then(|| FrameNum(pte.frame()))
}

/// What a present directory entry claims: the L1 it names.
fn names(pde: Pte) -> Option<u32> {
    pde.present().then(|| pde.frame())
}

/// Is bit `i` of a one-bit-per-retained-table map set?
fn bit(map: &[u64; RETAINED_TABLES / 64], i: usize) -> bool {
    map.get(i / 64)
        .is_some_and(|word| (word >> (i % 64)) & 1 != 0)
}

fn set_bit(map: &mut [u64; RETAINED_TABLES / 64], i: usize) {
    if let Some(word) = map.get_mut(i / 64) {
        *word |= 1 << (i % 64);
    }
}

impl Records {
    /// [`PageInfoTable::recompute_for_at`] under the held lock: the
    /// whole walk, after which `dom`'s records are its tables'
    /// derivation.
    fn recompute(
        &mut self,
        cpu: &Cpu,
        mem: &PhysMemory,
        dom: DomId,
        owned_frames: usize,
        pgds: &[FrameNum],
        per_frame_cost: u64,
    ) -> Result<(), HvError> {
        self.clear_types_for(dom);
        cpu.tick(per_frame_cost * owned_frames as u64);
        // Bulk validation rides on the per-frame charge above; per-entry
        // work is charged at a nominal rate via memory reads only.
        // volint::bound(64) — one base table per live process
        for &pgd in pgds {
            self.validate_l2(cpu, mem, pgd, dom, 0)?;
            self.set_pinned(pgd, true)?;
        }
        self.derived = Some(dom);
        Ok(())
    }

    /// [`PageInfoTable::retain`] under the held lock; whether it kept
    /// the records.
    fn retain(&mut self, dom: DomId, tables: Vec<FrameNum>) -> bool {
        let (derived, generation) = (self.derived == Some(dom), self.generations.of(Some(dom)));
        self.clear_types_for(dom);
        // A wrapped generation reset every record of `dom`.
        let wrapped = self.generations.of(Some(dom)) == 0;
        if derived && !wrapped && tables.len() <= RETAINED_TABLES && tables.is_sorted() {
            self.retained = Some(Retained {
                dom,
                generation,
                tables,
                written: None,
                preimages: [const { None }; RETAINED_TABLES],
            });
            return true;
        }
        false
    }

    /// [`PageInfoTable::note_write`]'s pre-image: kept at the first
    /// tracked write to a retained table once native mode began at
    /// `since`, and only while nothing has stored to the frame since.
    fn keep_preimage(&mut self, mem: &PhysMemory, frame: FrameNum, since: WriteEpoch) {
        let Some(kept) = &mut self.retained else {
            return;
        };
        let Ok(slot) = kept.tables.binary_search(&frame) else {
            return;
        };
        let Some(preimage @ None) = kept.preimages.get_mut(slot) else {
            return;
        };
        let Ok(words) = mem.words(frame) else { return };
        if mem.stored_since(frame, since) {
            return;
        }
        let mut image = Box::new([0; ENTRIES_PER_TABLE]);
        for (to, word) in image.iter_mut().zip(words) {
            *to = word;
        }
        // Memory stamps a frame before it stores, so a store whose word
        // the copy loaded shows in the stamp now; one whose word it did
        // not load shows at the attach, which then diffs it.
        if !mem.stored_since(frame, since) {
            *preimage = Some(image);
        }
    }

    /// [`PageInfoTable::reattach`]'s delta: restore the retained
    /// records and patch them by what changed, or return `false` having
    /// charged nothing — the records are then the walk's to clear.
    fn reattach_delta(
        &mut self,
        cpu: &Cpu,
        mem: &PhysMemory,
        dom: DomId,
        pgds: &[FrameNum],
        tables: &[FrameNum],
    ) -> bool {
        let Some(kept) = self.retained.take() else {
            return false;
        };
        let Some(written) = kept.written else {
            return false;
        };
        let unmoved = self.generations.of(Some(dom)) == kept.generation.wrapping_add(1);
        let same_tables = kept.tables.as_slice() == tables;
        if kept.dom != dom || !same_tables || !unmoved {
            return false;
        }
        if let Some(generation) = self.generations.0.get_mut(usize::from(dom.0)) {
            *generation = kept.generation;
        }
        let delta = Delta {
            mem,
            kept: &kept,
            pgds,
            written,
        };
        let Ok(l1s) = delta.apply(self, dom) else {
            return false;
        };
        // What the walk reads: every base table and every distinct L1
        // they reach, each whole.
        cpu.tick(costs::MEM_WORD * (ENTRIES_PER_TABLE * (pgds.len() + l1s)) as u64);
        self.derived = Some(dom);
        true
    }

    /// Drop a type reference the delta knows is there: one that is not
    /// fails the reattach rather than the table.
    fn put_held(&mut self, frame: FrameNum, typ: PageType) -> Result<(), HvError> {
        let rec = self.rec_mut(frame)?;
        if rec.typ != typ || rec.type_count == 0 {
            return Err(uncovered());
        }
        rec.type_count -= 1;
        if rec.type_count == 0 {
            rec.typ = PageType::None;
        }
        Ok(())
    }
}

/// One reattach's view of a detach's retained accounting: which table
/// frames changed while native and what they held at the detach.
struct Delta<'a> {
    mem: &'a PhysMemory,
    kept: &'a Retained,
    /// The base tables now.
    pgds: &'a [FrameNum],
    written: [u64; RETAINED_TABLES / 64],
}

impl Delta<'_> {
    /// `frame`'s place among the retained tables.
    fn slot(&self, frame: FrameNum) -> Option<usize> {
        self.kept.tables.binary_search(&frame).ok()
    }

    /// Was retained table `frame` written while native?  A frame that
    /// was no table is not covered.
    fn was_written(&self, frame: FrameNum) -> Result<bool, HvError> {
        let slot = self.slot(frame).ok_or_else(uncovered)?;
        Ok(bit(&self.written, slot))
    }

    /// The live words of `frame`.
    fn live(&self, frame: FrameNum) -> Result<impl Iterator<Item = u64> + '_, HvError> {
        Ok(self.mem.words(frame)?)
    }

    /// An entry of a pre-image as it stood at the detach.  The
    /// pre-image was taken after the detach's flip, and a writable
    /// entry naming a retained table can only be that flip's: the
    /// records the detach kept hold no table mapped writable.
    fn unflip(&self, pte: Pte) -> Pte {
        let flipped = pte.present() && pte.writable() && self.slot(FrameNum(pte.frame())).is_some();
        if flipped {
            pte.without_flags(Pte::WRITABLE)
        } else {
            pte
        }
    }

    /// The pre-image of written table `frame`; none means a store the
    /// sink never saw came first, which is not covered.
    fn preimage(&self, frame: FrameNum) -> Result<&Image, HvError> {
        let slot = self.slot(frame).ok_or_else(uncovered)?;
        let image = self.kept.preimages.get(slot).and_then(Option::as_deref);
        image.ok_or_else(uncovered)
    }

    /// Hand `each` the old and the live entry at every slot where
    /// written table `frame` changed while native.  Equal words are
    /// passed over unread: the flips cancel, so only a native store
    /// makes a pre-image word differ from the live one.
    fn changes(
        &self,
        frame: FrameNum,
        mut each: impl FnMut(Pte, Pte) -> Result<(), HvError>,
    ) -> Result<(), HvError> {
        let image = self.preimage(frame)?;
        // volint::bound(512) — one step per entry of a table
        for (&old, new) in image.iter().zip(self.live(frame)?) {
            if old != new {
                each(self.unflip(Pte(old)), Pte(new))?;
            }
        }
        Ok(())
    }

    /// Hand `each` every entry retained table `frame` held at the
    /// detach.  Unwritten while native, that is its live image: the
    /// attach's flip has undone the detach's.
    fn old(
        &self,
        frame: FrameNum,
        mut each: impl FnMut(Pte) -> Result<(), HvError>,
    ) -> Result<(), HvError> {
        if self.was_written(frame)? {
            // volint::bound(512) — one step per entry of a table
            for &word in self.preimage(frame)? {
                each(self.unflip(Pte(word)))?;
            }
        } else {
            // volint::bound(512) — one step per entry of a table
            for word in self.live(frame)? {
                each(Pte(word))?;
            }
        }
        Ok(())
    }

    /// The written retained tables that are base tables (`true`) or
    /// not (`false`), in frame order.
    fn written(&self, base: bool) -> impl Iterator<Item = FrameNum> + '_ {
        let tables = self.kept.tables.iter().enumerate();
        tables
            .filter(|&(i, _)| bit(&self.written, i))
            .map(|(_, &f)| f)
            .filter(move |f| self.pgds.contains(f) == base)
    }

    /// Patch the restored records from the detach's tables to the live
    /// ones, entry by entry of each written table, and return how many
    /// distinct L1s the base tables reach.  Puts and takes interleave:
    /// a claim the walk would refuse still meets its rival at the later
    /// of the two takes, while a conflict met only on the way (a frame
    /// changing from table to leaf) falls back to the walk, which
    /// decides.
    fn apply(&self, info: &mut Records, dom: DomId) -> Result<usize, HvError> {
        let generation = info.generations.of(Some(dom));
        // The detach's records: every retained table typed, and the
        // base tables now — every one a retained table — exactly the
        // pinned ones.
        // volint::bound(64) — one base table per live process
        for &pgd in self.pgds {
            self.slot(pgd).ok_or_else(uncovered)?;
        }
        // volint::bound(256) — RETAINED_TABLES
        for &f in &self.kept.tables {
            let rec = info.rec(f)?;
            let base = self.pgds.contains(&f);
            let typ = if base { PageType::L2 } else { PageType::L1 };
            if rec.typ != typ || rec.type_count == 0 || rec.pinned != base {
                return Err(uncovered());
            }
        }
        // Directory entries first: an L1 they let go releases what it
        // held at the detach, one they name afresh is validated from
        // its live words, as the walk would; neither is patched below.
        let mut whole = [0u64; RETAINED_TABLES / 64];
        // volint::bound(64) — one base table per live process
        for pgd in self.written(true) {
            self.changes(pgd, |old, new| {
                if names(old) == names(new) {
                    return Ok(());
                }
                if let Some(l1) = names(new).map(FrameNum) {
                    let (typ, count) = info.type_of(l1);
                    if typ != PageType::L1 || count == 0 {
                        self.validate(info, l1, dom, generation)?;
                        set_bit(&mut whole, self.slot(l1).ok_or_else(uncovered)?);
                    } else {
                        info.get_type_ref(l1, PageType::L1)?;
                    }
                }
                if let Some(l1) = names(old).map(FrameNum) {
                    info.put_held(l1, PageType::L1)?;
                    // The count reaches 0 only before any take: takes
                    // are never put back, so a released L1 holds what
                    // it held at the detach.
                    if info.type_of(l1).1 == 0 {
                        self.release(info, l1)?;
                        set_bit(&mut whole, self.slot(l1).ok_or_else(uncovered)?);
                    }
                }
                Ok(())
            })?;
        }
        // Then the entries of the written L1s the directories kept.
        // volint::bound(256) — RETAINED_TABLES
        for l1 in self.written(false) {
            if self.slot(l1).is_none_or(|slot| bit(&whole, slot)) {
                continue;
            }
            self.changes(l1, |old, new| {
                if claim(old) == claim(new) {
                    return Ok(());
                }
                if new.present() {
                    info.take_entry_ref(new, dom, generation)?;
                }
                match held_ref(old) {
                    Some(target) => info.put_held(target, PageType::Writable),
                    None => Ok(()),
                }
            })?;
        }
        // Every L1 the base tables reach is a retained table, so no
        // frame outside them was read from memory the records trust.
        let mut reached = [0u64; RETAINED_TABLES / 64];
        // volint::bound(64) — one base table per live process
        for &pgd in self.pgds {
            // volint::bound(512) — one step per directory entry
            for word in self.live(pgd)? {
                let Some(l1) = names(Pte(word)) else { continue };
                let slot = self.slot(FrameNum(l1)).ok_or_else(uncovered)?;
                if info.type_of(FrameNum(l1)).0 != PageType::L1 {
                    return Err(uncovered());
                }
                set_bit(&mut reached, slot);
            }
        }
        Ok(reached.iter().map(|word| word.count_ones() as usize).sum())
    }

    /// The last reference to `l1` went: give back the references its
    /// detach-time entries held, as [`Records::invalidate_l1`] would
    /// have then.
    fn release(&self, info: &mut Records, l1: FrameNum) -> Result<(), HvError> {
        self.old(l1, |old| match held_ref(old) {
            Some(target) => info.put_held(target, PageType::Writable),
            None => Ok(()),
        })
    }

    /// [`Records::validate_l1`]'s rule over `l1`'s live words — owned
    /// table, [`Records::take_entry_ref`] per present entry, then the
    /// table's own `L1` reference — charging nothing: the reattach
    /// charges the walk's reads once, at the end.  A failure leaves the
    /// references taken for the walk's clear.
    fn validate(
        &self,
        info: &mut Records,
        l1: FrameNum,
        dom: DomId,
        generation: u32,
    ) -> Result<(), HvError> {
        info.check_owned(l1, dom, "L1 table frame")?;
        // volint::bound(512) — one step per entry of a table
        for word in self.live(l1)? {
            if Pte(word).present() {
                info.take_entry_ref(Pte(word), dom, generation)?;
            }
        }
        info.get_type_ref(l1, PageType::L1)
    }
}

impl PageInfoTable {
    /// A table for `num_frames` frames, all unowned and untyped.
    pub fn new(num_frames: usize) -> Self {
        PageInfoTable {
            info: Mutex::new(Records {
                frames: vec![Record::default(); num_frames],
                generations: Generations(vec![0; DOMAINS].try_into().expect("DOMAINS slots")),
                derived: None,
                retained: None,
            }),
            native_since: EpochCell::default(),
        }
    }

    /// Take the table's lock for a run of accounting operations.
    pub(crate) fn records(&self) -> simx86::sync::MutexGuard<'_, Records> {
        self.info.lock()
    }

    /// Number of frames tracked.
    pub fn len(&self) -> usize {
        self.info.lock().frames.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the record for `frame`; a frame the machine does not
    /// have is unowned and untyped.
    pub fn get(&self, frame: FrameNum) -> PageInfo {
        self.info.lock().rec(frame).unwrap_or_default()
    }

    /// Set the owner of `frame` (domain creation / frame transfer).  The
    /// record's type state moves with it as it counted under the old
    /// owner; a frame the machine does not have is ignored.
    pub fn set_owner(&self, frame: FrameNum, owner: Option<DomId>) {
        let mut guard = self.info.lock();
        let info = &mut *guard;
        info.underived(info.owner(frame));
        info.underived(owner);
        if let Some(rec) = info.frames.get_mut(frame.0 as usize) {
            let carried = rec.view(info.generations.of(rec.info.owner));
            *rec = Record {
                info: PageInfo { owner, ..carried },
                generation: info.generations.of(owner),
            };
        }
    }

    /// Owner of `frame`.
    pub fn owner(&self, frame: FrameNum) -> Option<DomId> {
        self.info.lock().owner(frame)
    }

    /// Wipe the type record of one frame in place — the faultgen
    /// `VmmCorrupt` class lands here.  Type, count and pin state are
    /// lost; ownership survives, as real latent
    /// corruption would leave unrelated bytes intact.  The table has no
    /// way to detect this from inside: recovery is a live-update, whose
    /// successor recomputes its records from the guest's page tables
    /// rather than trusting (and so inheriting) these.
    pub fn corrupt_record(&self, frame: FrameNum) {
        self.info.lock().corrupt_record(frame);
    }

    // -- type reference counting ---------------------------------------

    /// Take a type reference of kind `typ` on `frame`.
    ///
    /// Fails when the frame is currently typed incompatibly — the
    /// invariant rejection at the heart of Xen-style isolation (e.g.
    /// mapping a live page table writable).
    ///
    /// A reference taken this way is no table's: the domain's records
    /// stop being its tables' derivation.
    pub fn get_type_ref(&self, frame: FrameNum, typ: PageType) -> Result<(), HvError> {
        let mut info = self.info.lock();
        let owner = info.owner(frame);
        info.underived(owner);
        info.get_type_ref(frame, typ)
    }

    /// Drop a type reference on `frame`, with the same effect on the
    /// domain's derivation as [`Self::get_type_ref`].
    pub fn put_type_ref(&self, frame: FrameNum, typ: PageType) {
        let mut info = self.info.lock();
        let owner = info.owner(frame);
        info.underived(owner);
        info.put_type_ref(frame, typ);
    }

    /// Current (type, count) of a frame.
    pub fn type_of(&self, frame: FrameNum) -> (PageType, u32) {
        self.info.lock().type_of(frame)
    }

    // -- page-table validation ------------------------------------------

    /// Validate the frame as an L1 (leaf) table for `dom`: every present
    /// entry must reference a frame owned by `dom`, and writable entries
    /// take a `Writable` type reference on their target (which therefore
    /// must not be a page table).
    ///
    /// On success the frame itself carries one `L1` type reference.
    /// `charge_per_entry` is the validation cost per scanned slot —
    /// [`costs::PT_PIN_PER_ENTRY`] on the hypercall path, or a cheaper
    /// bulk rate during Mercury's recompute.
    pub fn validate_l1(
        &self,
        cpu: &Cpu,
        mem: &PhysMemory,
        frame: FrameNum,
        dom: DomId,
        charge_per_entry: u64,
    ) -> Result<(), HvError> {
        self.info
            .lock()
            .validate_l1(cpu, mem, frame, dom, charge_per_entry)
    }

    /// Undo [`Self::validate_l1`]: drop the writable references its
    /// entries took, and the frame's own L1 reference.
    pub fn invalidate_l1(
        &self,
        cpu: &Cpu,
        mem: &PhysMemory,
        frame: FrameNum,
    ) -> Result<(), HvError> {
        self.info.lock().invalidate_l1(cpu, mem, frame)
    }

    /// Validate the frame as an L2 (base) table for `dom`: every present
    /// entry must reference an L1 table, validating it first if it is
    /// still untyped.  Each entry takes an `L1` type reference on its
    /// target; the frame itself takes an `L2` reference.
    pub fn validate_l2(
        &self,
        cpu: &Cpu,
        mem: &PhysMemory,
        frame: FrameNum,
        dom: DomId,
        charge_per_entry: u64,
    ) -> Result<(), HvError> {
        self.info
            .lock()
            .validate_l2(cpu, mem, frame, dom, charge_per_entry)
    }

    /// Undo [`Self::validate_l2`].  L1 tables whose last reference drops
    /// are fully invalidated (their writable references released).
    pub fn invalidate_l2(
        &self,
        cpu: &Cpu,
        mem: &PhysMemory,
        frame: FrameNum,
    ) -> Result<(), HvError> {
        self.info.lock().invalidate_l2(cpu, mem, frame)
    }

    /// Pin `frame` as a base table for `dom`: validate and take an
    /// additional pin reference, so the table stays valid while not
    /// loaded.  This is the `MMUEXT_PIN_L2_TABLE` hypercall's engine.
    pub fn pin_l2(
        &self,
        cpu: &Cpu,
        mem: &PhysMemory,
        frame: FrameNum,
        dom: DomId,
    ) -> Result<(), HvError> {
        let mut info = self.info.lock();
        if info.rec(frame)?.pinned {
            return Err(HvError::TypeConflict("frame already pinned"));
        }
        cpu.tick(costs::PT_PIN_BASE);
        info.validate_l2(cpu, mem, frame, dom, costs::PT_PIN_PER_ENTRY)?;
        info.set_pinned(frame, true)
    }

    /// Unpin `dom`'s base table, releasing the whole validation tree
    /// when the last reference drops.  This is `MMUEXT_UNPIN_TABLE`'s
    /// engine.
    pub fn unpin_l2(
        &self,
        cpu: &Cpu,
        mem: &PhysMemory,
        frame: FrameNum,
        dom: DomId,
    ) -> Result<(), HvError> {
        let mut info = self.info.lock();
        info.check_owned(frame, dom, "L2 table frame")?;
        if !info.rec(frame)?.pinned {
            return Err(HvError::TypeConflict("frame not pinned"));
        }
        info.set_pinned(frame, false)?;
        cpu.tick(costs::PT_PIN_BASE);
        info.invalidate_l2(cpu, mem, frame)
    }

    // -- bulk operations (Mercury attach/detach) -------------------------

    /// Wipe all type information for frames owned by `dom`, keeping
    /// ownership.  Used on VMM detach: the dormant VMM stops tracking.
    /// It bumps `dom`'s generation and touches no record.
    pub fn clear_types_for(&self, dom: DomId) {
        self.info.lock().clear_types_for(dom);
    }

    /// Recompute the full type/count state for `dom` from its base
    /// tables — Mercury's default attach-time strategy (§5.1.2).
    ///
    /// Charges [`costs::PGINFO_RECOMPUTE_PER_FRAME`] for every frame the
    /// domain owns (the scan) plus bulk-rate validation of the live
    /// tables.  This is the dominant term in the paper's 0.22 ms
    /// native→virtual switch (§7.4).
    pub fn recompute_for(
        &self,
        cpu: &Cpu,
        mem: &PhysMemory,
        dom: DomId,
        owned_frames: usize,
        pgds: &[FrameNum],
    ) -> Result<(), HvError> {
        self.recompute_for_at(
            cpu,
            mem,
            dom,
            owned_frames,
            pgds,
            costs::PGINFO_RECOMPUTE_PER_FRAME,
        )
    }

    /// [`Self::recompute_for`] with an explicit per-frame scan cost —
    /// Mercury's active-tracking strategy adopts its mirror at a much
    /// cheaper rate than a full recompute scan (§5.1.2).
    pub fn recompute_for_at(
        &self,
        cpu: &Cpu,
        mem: &PhysMemory,
        dom: DomId,
        owned_frames: usize,
        pgds: &[FrameNum],
        per_frame_cost: u64,
    ) -> Result<(), HvError> {
        self.info
            .lock()
            .recompute(cpu, mem, dom, owned_frames, pgds, per_frame_cost)
    }

    /// Detach with a baseline: clear `dom`'s type state as
    /// [`Self::clear_types_for`] does, but keep the records restorable
    /// for [`Self::reattach`], with every page-table frame `tables`
    /// (sorted) they stood for.  Nothing is
    /// kept unless the records are their tables' derivation — a
    /// record wiped or re-owned since the last walk is repaired by the
    /// next one — and the clear did not wrap the generation.
    pub fn retain(&self, dom: DomId, tables: Vec<FrameNum>) {
        let mut info = self.info.lock();
        if info.retain(dom, tables) {
            self.native_since.store(None);
        }
    }

    /// The detach's own stores to the retained tables are done (the
    /// flip of their direct-map entries): a table stamped from `since`,
    /// a checkpoint taken after them, was written while native.  No-op
    /// without a retained detach.
    pub fn open_native_window(&self, since: WriteEpoch) {
        if self.info.lock().retained.is_some() {
            self.native_since.store(Some(since));
        }
    }

    /// The attach is about to store to the retained tables (the flip
    /// back): note, while the stamps still say so, which of them were
    /// written while native.
    pub fn close_native_window(&self, mem: &PhysMemory) {
        if let Some(kept) = &mut self.info.lock().retained {
            let Some(since) = self.native_since.load() else {
                return;
            };
            let mut written = [0; RETAINED_TABLES / 64];
            // volint::bound(256) — RETAINED_TABLES
            for (slot, &table) in kept.tables.iter().enumerate() {
                if mem.stored_since(table, since) {
                    set_bit(&mut written, slot);
                }
            }
            kept.written = Some(written);
        }
    }

    /// The native VO's sink, run before each tracked page-table write:
    /// at the first one to a retained table, keep the frame's pre-image
    /// for the next [`Self::reattach`].
    ///
    /// Only a frame not stored to since the native window opened can
    /// need a pre-image, so the sink takes the lock only then: with no
    /// window open, and at every write after a frame's first since the
    /// window opened, it is two loads: the lock is taken once per table
    /// per native period, not once per PTE store.
    pub fn note_write(&self, mem: &PhysMemory, frame: FrameNum) {
        if self
            .native_since
            .load()
            .is_none_or(|since| mem.stored_since(frame, since))
        {
            return;
        }
        let mut info = self.info.lock();
        // Read again under the lock: a detach may have moved the window.
        if let Some(since) = self.native_since.load() {
            info.keep_preimage(mem, frame, since);
        }
    }

    /// Attach with a baseline: `dom`'s accounting for the base tables
    /// `pgds` and the page-table frames `tables` (sorted), exactly as
    /// [`Self::recompute_for_at`] at no per-frame cost computes and
    /// charges it, but from what the detach retained: the records are
    /// restored and patched by the old → new references of each table
    /// written while native.  The old side is the table's pre-image, or
    /// its live image if it was not written.  Walks the tables whole
    /// instead — before anything is charged — when nothing was
    /// retained (boot, a rolled-back switch, a re-arm), the set of
    /// tables changed, a table was written with no pre-image, a record
    /// was written outside the validators since the last walk, the
    /// generation wrapped, or the patch meets a conflict or a foreign
    /// frame.  Returns whether the retained
    /// accounting served.
    pub fn reattach(
        &self,
        cpu: &Cpu,
        mem: &PhysMemory,
        dom: DomId,
        owned_frames: usize,
        pgds: &[FrameNum],
        tables: &[FrameNum],
    ) -> Result<bool, HvError> {
        let mut info = self.info.lock();
        if info.reattach_delta(cpu, mem, dom, pgds, tables) {
            return Ok(true);
        }
        info.recompute(cpu, mem, dom, owned_frames, pgds, 0)?;
        Ok(false)
    }

    /// All frames owned by `dom`.
    pub fn frames_owned(&self, dom: DomId) -> Vec<FrameNum> {
        self.info
            .lock()
            .frames
            .iter()
            .enumerate()
            .filter(|(_, r)| r.info.owner == Some(dom))
            .map(|(i, _)| FrameNum(i as u32))
            .collect()
    }

    /// Export the full table, every record as it counts (equality
    /// checks in tests; the recompute-vs-active-tracking property test
    /// diffs two of these).
    pub fn snapshot(&self) -> Vec<PageInfo> {
        let info = self.info.lock();
        let view = |rec: &Record| rec.view(info.generations.of(rec.info.owner));
        info.frames.iter().map(view).collect()
    }
}

/// The walk the table-granular validators replaced, kept as the
/// reference they are property-tested against: one `read_pte` (a tick
/// and a load) per slot and one round-trip through the table's lock
/// per accounting primitive.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    fn check_owned(
        t: &PageInfoTable,
        frame: FrameNum,
        dom: DomId,
        why: &'static str,
    ) -> Result<(), HvError> {
        t.info.lock().check_owned(frame, dom, why)
    }

    pub(crate) fn validate_l1(
        t: &PageInfoTable,
        cpu: &Cpu,
        mem: &PhysMemory,
        frame: FrameNum,
        dom: DomId,
        charge_per_entry: u64,
    ) -> Result<(), HvError> {
        cpu.tick(charge_per_entry * ENTRIES_PER_TABLE as u64);
        check_owned(t, frame, dom, "L1 table frame")?;
        let mut taken: Vec<FrameNum> = Vec::new();
        let result = (|| {
            for index in 0..ENTRIES_PER_TABLE {
                let pte = mem.read_pte(cpu, frame, index)?;
                if !pte.present() {
                    continue;
                }
                let target = FrameNum(pte.frame());
                check_owned(t, target, dom, "L1 entry target")?;
                if pte.writable() {
                    t.get_type_ref(target, PageType::Writable)?;
                    taken.push(target);
                }
            }
            t.get_type_ref(frame, PageType::L1)?;
            Ok(())
        })();
        if result.is_err() {
            for f in taken {
                t.put_type_ref(f, PageType::Writable);
            }
        }
        result
    }

    pub(crate) fn invalidate_l1(
        t: &PageInfoTable,
        cpu: &Cpu,
        mem: &PhysMemory,
        frame: FrameNum,
    ) -> Result<(), HvError> {
        for index in 0..ENTRIES_PER_TABLE {
            let pte = mem.read_pte(cpu, frame, index)?;
            if pte.present() && pte.writable() {
                t.put_type_ref(FrameNum(pte.frame()), PageType::Writable);
            }
        }
        t.put_type_ref(frame, PageType::L1);
        Ok(())
    }

    pub(crate) fn validate_l2(
        t: &PageInfoTable,
        cpu: &Cpu,
        mem: &PhysMemory,
        frame: FrameNum,
        dom: DomId,
        charge_per_entry: u64,
    ) -> Result<(), HvError> {
        cpu.tick(charge_per_entry * ENTRIES_PER_TABLE as u64);
        check_owned(t, frame, dom, "L2 table frame")?;
        let mut validated_here: Vec<FrameNum> = Vec::new();
        let mut refs_taken: Vec<FrameNum> = Vec::new();
        let result = (|| {
            for index in 0..ENTRIES_PER_TABLE {
                let pde = mem.read_pte(cpu, frame, index)?;
                if !pde.present() {
                    continue;
                }
                let l1 = FrameNum(pde.frame());
                let (typ, count) = t.type_of(l1);
                if typ != PageType::L1 || count == 0 {
                    validate_l1(t, cpu, mem, l1, dom, charge_per_entry)?;
                    validated_here.push(l1);
                } else {
                    t.get_type_ref(l1, PageType::L1)?;
                    refs_taken.push(l1);
                }
            }
            t.get_type_ref(frame, PageType::L2)?;
            Ok(())
        })();
        if result.is_err() {
            for l1 in refs_taken {
                t.put_type_ref(l1, PageType::L1);
            }
            for l1 in validated_here.into_iter().rev() {
                let _ = invalidate_l1(t, cpu, mem, l1);
            }
        }
        result
    }

    /// The release of one `L1` reference, as `invalidate_l2` and the
    /// `mmu_update` directory path both spelled it.
    pub(crate) fn put_l1_ref(
        t: &PageInfoTable,
        cpu: &Cpu,
        mem: &PhysMemory,
        l1: FrameNum,
    ) -> Result<(), HvError> {
        t.put_type_ref(l1, PageType::L1);
        let (typ, count) = t.type_of(l1);
        if typ == PageType::None && count == 0 {
            t.get_type_ref(l1, PageType::L1)?;
            invalidate_l1(t, cpu, mem, l1)?;
        }
        Ok(())
    }

    pub(crate) fn invalidate_l2(
        t: &PageInfoTable,
        cpu: &Cpu,
        mem: &PhysMemory,
        frame: FrameNum,
    ) -> Result<(), HvError> {
        for index in 0..ENTRIES_PER_TABLE {
            let pde = mem.read_pte(cpu, frame, index)?;
            if pde.present() {
                put_l1_ref(t, cpu, mem, FrameNum(pde.frame()))?;
            }
        }
        t.put_type_ref(frame, PageType::L2);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const D: DomId = DomId(0);

    fn rig(frames: usize) -> (PageInfoTable, PhysMemory, Arc<Cpu>) {
        let t = PageInfoTable::new(frames);
        let mem = PhysMemory::new(frames);
        let cpu = Arc::new(Cpu::new(0));
        for i in 0..frames {
            t.set_owner(FrameNum(i as u32), Some(D));
        }
        (t, mem, cpu)
    }

    #[test]
    fn type_refs_count_and_clear() {
        let (t, _, _) = rig(4);
        t.get_type_ref(FrameNum(1), PageType::Writable).unwrap();
        t.get_type_ref(FrameNum(1), PageType::Writable).unwrap();
        assert_eq!(t.type_of(FrameNum(1)), (PageType::Writable, 2));
        t.put_type_ref(FrameNum(1), PageType::Writable);
        t.put_type_ref(FrameNum(1), PageType::Writable);
        assert_eq!(t.type_of(FrameNum(1)), (PageType::None, 0));
    }

    #[test]
    fn incompatible_types_rejected() {
        let (t, _, _) = rig(4);
        t.get_type_ref(FrameNum(1), PageType::L1).unwrap();
        let err = t.get_type_ref(FrameNum(1), PageType::Writable).unwrap_err();
        assert!(matches!(err, HvError::TypeConflict(_)));
    }

    #[test]
    fn validate_l1_takes_writable_refs() {
        let (t, mem, cpu) = rig(8);
        // Frame 2 is an L1 table mapping frame 3 writable, frame 4 RO.
        mem.write_pte(&cpu, FrameNum(2), 0, Pte::new(3, Pte::WRITABLE | Pte::USER))
            .unwrap();
        mem.write_pte(&cpu, FrameNum(2), 1, Pte::new(4, Pte::USER))
            .unwrap();
        t.validate_l1(&cpu, &mem, FrameNum(2), D, 1).unwrap();
        assert_eq!(t.type_of(FrameNum(2)), (PageType::L1, 1));
        assert_eq!(t.type_of(FrameNum(3)), (PageType::Writable, 1));
        assert_eq!(t.type_of(FrameNum(4)), (PageType::None, 0));
        t.invalidate_l1(&cpu, &mem, FrameNum(2)).unwrap();
        assert_eq!(t.type_of(FrameNum(2)), (PageType::None, 0));
        assert_eq!(t.type_of(FrameNum(3)), (PageType::None, 0));
    }

    #[test]
    fn cannot_map_page_table_writable() {
        let (t, mem, cpu) = rig(8);
        // Frame 2: L1 table. Frame 5: another L1 mapping frame 2 writable.
        mem.write_pte(&cpu, FrameNum(2), 0, Pte::new(3, Pte::WRITABLE))
            .unwrap();
        t.validate_l1(&cpu, &mem, FrameNum(2), D, 1).unwrap();
        mem.write_pte(&cpu, FrameNum(5), 0, Pte::new(2, Pte::WRITABLE))
            .unwrap();
        let err = t.validate_l1(&cpu, &mem, FrameNum(5), D, 1).unwrap_err();
        assert!(matches!(err, HvError::TypeConflict(_)));
        // Failed validation leaked nothing.
        assert_eq!(t.type_of(FrameNum(5)), (PageType::None, 0));
    }

    #[test]
    fn pin_l2_validates_whole_tree() {
        let (t, mem, cpu) = rig(8);
        // PGD in frame 1 → L1 in frame 2 → data frame 3 writable.
        mem.write_pte(&cpu, FrameNum(1), 0, Pte::new(2, Pte::WRITABLE | Pte::USER))
            .unwrap();
        mem.write_pte(&cpu, FrameNum(2), 0, Pte::new(3, Pte::WRITABLE | Pte::USER))
            .unwrap();
        t.pin_l2(&cpu, &mem, FrameNum(1), D).unwrap();
        assert_eq!(t.type_of(FrameNum(1)), (PageType::L2, 1));
        assert_eq!(t.type_of(FrameNum(2)), (PageType::L1, 1));
        assert_eq!(t.type_of(FrameNum(3)), (PageType::Writable, 1));
        assert!(t.get(FrameNum(1)).pinned);

        // Double pin rejected.
        assert!(t.pin_l2(&cpu, &mem, FrameNum(1), D).is_err());

        t.unpin_l2(&cpu, &mem, FrameNum(1), D).unwrap();
        assert_eq!(t.type_of(FrameNum(1)), (PageType::None, 0));
        assert_eq!(t.type_of(FrameNum(2)), (PageType::None, 0));
        assert_eq!(t.type_of(FrameNum(3)), (PageType::None, 0));
        assert!(!t.get(FrameNum(1)).pinned);
    }

    #[test]
    fn shared_l1_between_two_l2s() {
        let (t, mem, cpu) = rig(8);
        // Two PGDs (1 and 4) both referencing L1 in frame 2 — the shape
        // of shared kernel mappings across address spaces.
        mem.write_pte(&cpu, FrameNum(2), 0, Pte::new(3, Pte::WRITABLE))
            .unwrap();
        mem.write_pte(&cpu, FrameNum(1), 0, Pte::new(2, Pte::WRITABLE))
            .unwrap();
        mem.write_pte(&cpu, FrameNum(4), 0, Pte::new(2, Pte::WRITABLE))
            .unwrap();
        t.pin_l2(&cpu, &mem, FrameNum(1), D).unwrap();
        t.pin_l2(&cpu, &mem, FrameNum(4), D).unwrap();
        assert_eq!(t.type_of(FrameNum(2)), (PageType::L1, 2));
        // Frame 3 is writable-mapped once per validation of frame 2 —
        // validated once, so one writable ref.
        assert_eq!(t.type_of(FrameNum(3)), (PageType::Writable, 1));
        t.unpin_l2(&cpu, &mem, FrameNum(1), D).unwrap();
        // Shared L1 still referenced by the other PGD.
        assert_eq!(t.type_of(FrameNum(2)), (PageType::L1, 1));
        assert_eq!(t.type_of(FrameNum(3)), (PageType::Writable, 1));
        t.unpin_l2(&cpu, &mem, FrameNum(4), D).unwrap();
        assert_eq!(t.type_of(FrameNum(2)), (PageType::None, 0));
        assert_eq!(t.type_of(FrameNum(3)), (PageType::None, 0));
    }

    #[test]
    fn foreign_frame_rejected() {
        let (t, mem, cpu) = rig(8);
        t.set_owner(FrameNum(3), Some(DomId(7)));
        mem.write_pte(&cpu, FrameNum(2), 0, Pte::new(3, Pte::WRITABLE))
            .unwrap();
        let err = t.validate_l1(&cpu, &mem, FrameNum(2), D, 1).unwrap_err();
        assert!(matches!(err, HvError::BadFrame { .. }));
    }

    #[test]
    fn recompute_matches_incremental_validation() {
        let (t, mem, cpu) = rig(16);
        mem.write_pte(&cpu, FrameNum(1), 0, Pte::new(2, Pte::WRITABLE))
            .unwrap();
        mem.write_pte(&cpu, FrameNum(2), 0, Pte::new(3, Pte::WRITABLE))
            .unwrap();
        mem.write_pte(&cpu, FrameNum(2), 1, Pte::new(4, 0)).unwrap();

        // Incremental path.
        t.pin_l2(&cpu, &mem, FrameNum(1), D).unwrap();
        let incremental = t.snapshot();

        // From-scratch recompute.
        t.clear_types_for(D);
        t.recompute_for(&cpu, &mem, D, 16, &[FrameNum(1)]).unwrap();
        assert_eq!(incremental, t.snapshot());
    }

    #[test]
    fn recompute_charges_per_owned_frame() {
        let (t, mem, cpu) = rig(16);
        let before = cpu.cycles();
        t.recompute_for(&cpu, &mem, D, 16, &[]).unwrap();
        assert!(cpu.cycles() - before >= 16 * costs::PGINFO_RECOMPUTE_PER_FRAME);
    }

    #[test]
    fn a_frame_the_machine_lacks_reads_unowned_and_untyped() {
        let (t, _, _) = rig(4);
        t.get_type_ref(FrameNum(1), PageType::Writable).unwrap();
        let before = t.snapshot();
        let missing = FrameNum(MISSING);
        t.set_owner(missing, Some(D));
        t.put_type_ref(missing, PageType::Writable);
        t.corrupt_record(missing);
        assert_eq!(t.get(missing), PageInfo::default());
        assert_eq!(t.owner(missing), None);
        assert_eq!(t.type_of(missing), (PageType::None, 0));
        assert!(t.get_type_ref(missing, PageType::L1).is_err());
        assert_eq!(t.snapshot(), before);
    }

    /// Start `dom`'s generation at `generation`, as if that many clears
    /// had run since the table was made.
    fn start_generation(t: &PageInfoTable, dom: DomId, generation: u32) {
        t.info.lock().generations.0[usize::from(dom.0)] = generation;
    }

    /// The clear a generation bump replaces: every record `dom` owns
    /// loses its type state, one at a time.
    fn eager_clear(t: &PageInfoTable, dom: DomId) {
        for f in t.frames_owned(dom) {
            t.corrupt_record(f);
        }
    }

    #[test]
    fn a_record_typed_before_the_generation_wraps_stays_cleared() {
        let (t, mem, cpu) = rig(8);
        // PGD 1 → L1 2 → data frame 3 writable, typed at generation 0.
        mem.write_pte(&cpu, FrameNum(1), 0, Pte::new(2, Pte::WRITABLE))
            .unwrap();
        mem.write_pte(&cpu, FrameNum(2), 0, Pte::new(3, Pte::WRITABLE))
            .unwrap();
        t.pin_l2(&cpu, &mem, FrameNum(1), D).unwrap();
        let typed = t.snapshot();
        let untyped = vec![PageInfo::untyped(Some(D)); 8];
        start_generation(&t, D, u32::MAX - 1);
        assert_eq!(t.snapshot(), untyped);
        t.clear_types_for(D);
        assert_eq!(t.snapshot(), untyped);
        // The generation wraps to 0, the one frames 1–3 were typed under.
        t.clear_types_for(D);
        assert_eq!(
            t.snapshot(),
            untyped,
            "a record typed before the wrap came back"
        );
        t.recompute_for(&cpu, &mem, D, 8, &[FrameNum(1)]).unwrap();
        assert_eq!(t.snapshot(), typed);
    }

    #[test]
    fn clears_across_a_generation_wrap_match_an_eager_pass() {
        faultgen::rng::check("clears across a generation wrap", 200, |rng| {
            let writes = random_tree(rng);
            let (t, mem, cpu) = tree_rig(&writes);
            let (eager, eager_mem, eager_cpu) = tree_rig(&writes);
            // Records typed at generation 0, then as many clears as take
            // the generation to just short of the wrap back to 0.
            for pgd in PGDS.map(FrameNum) {
                assert_eq!(
                    t.pin_l2(&cpu, &mem, pgd, D),
                    eager.pin_l2(&eager_cpu, &eager_mem, pgd, D)
                );
            }
            start_generation(&t, D, u32::MAX - rng.below(4) as u32);
            eager_clear(&eager, D);
            let mut pinned: Vec<FrameNum> = Vec::new();
            for _ in 0..12 {
                match rng.below(3) {
                    0 => {
                        let pgd = FrameNum(rng.range(PGDS.start as u64, PGDS.end as u64) as u32);
                        if pinned.contains(&pgd) {
                            continue;
                        }
                        let got = t.pin_l2(&cpu, &mem, pgd, D);
                        assert_eq!(got, eager.pin_l2(&eager_cpu, &eager_mem, pgd, D));
                        if got.is_ok() {
                            pinned.push(pgd);
                        }
                    }
                    1 => {
                        t.clear_types_for(D);
                        eager_clear(&eager, D);
                        pinned.clear();
                    }
                    _ => {
                        let got = t.recompute_for(&cpu, &mem, D, FRAMES, &pinned);
                        eager_clear(&eager, D);
                        let want = eager.recompute_for(&eager_cpu, &eager_mem, D, FRAMES, &pinned);
                        assert_eq!(got, want);
                        if got.is_err() {
                            t.clear_types_for(D);
                            eager_clear(&eager, D);
                            pinned.clear();
                        }
                    }
                }
                assert_eq!(t.snapshot(), eager.snapshot());
                assert_eq!(cpu.cycles(), eager_cpu.cycles());
            }
        });
    }

    #[test]
    fn owned_frame_queries() {
        let (t, _, _) = rig(4);
        t.set_owner(FrameNum(2), Some(DomId(5)));
        assert_eq!(t.frames_owned(D).len(), 3);
        assert_eq!(t.frames_owned(DomId(5)), vec![FrameNum(2)]);
    }

    /// Frame numbers of the random trees: three base tables, eight
    /// leaf tables, data frames, one frame of another domain, and one
    /// the machine does not have.
    const PGDS: std::ops::Range<u32> = 1..4;
    const L1S: std::ops::Range<u32> = 4..12;
    const DATA: std::ops::Range<u32> = 12..44;
    const FOREIGN: u32 = 44;
    const FRAMES: usize = 48;
    const MISSING: u32 = 4000;

    /// Random L2/L1 trees: shared L1s, and now and then a writable
    /// mapping of a table frame, a foreign or missing target, a
    /// directory slot naming a data frame or the directory itself.
    fn random_tree(rng: &mut faultgen::rng::SplitMix64) -> Vec<(FrameNum, usize, Pte)> {
        let pick = |rng: &mut faultgen::rng::SplitMix64, r: &std::ops::Range<u32>| {
            rng.range(r.start as u64, r.end as u64) as u32
        };
        let mut writes = Vec::new();
        for l1 in L1S {
            for _ in 0..rng.below(12) {
                let target = match rng.below(24) {
                    0 => pick(rng, &L1S),
                    1 => pick(rng, &PGDS),
                    2 => FOREIGN,
                    3 => MISSING,
                    _ => pick(rng, &DATA),
                };
                let flags = [0, Pte::USER, Pte::WRITABLE, Pte::WRITABLE | Pte::USER];
                let pte = Pte::new(target, flags[rng.below(4) as usize]);
                writes.push((FrameNum(l1), rng.below(512) as usize, pte));
            }
        }
        for pgd in PGDS {
            for _ in 0..rng.below(8) {
                let l1 = match rng.below(32) {
                    0 => pick(rng, &DATA),
                    1 => pgd,
                    2 => FOREIGN,
                    3 => MISSING,
                    _ => pick(rng, &L1S),
                };
                let pde = Pte::new(l1, Pte::WRITABLE | Pte::USER);
                writes.push((FrameNum(pgd), rng.below(512) as usize, pde));
            }
        }
        writes
    }

    fn tree_rig(writes: &[(FrameNum, usize, Pte)]) -> (PageInfoTable, PhysMemory, Arc<Cpu>) {
        let (t, mem, cpu) = rig(FRAMES);
        t.set_owner(FrameNum(FOREIGN), Some(DomId(7)));
        for &(table, index, pte) in writes {
            mem.write_pte(&cpu, table, index, pte).unwrap();
        }
        (t, mem, cpu)
    }

    /// One native store to a random table of the random trees: a leaf
    /// entry (now and then writable onto a table, foreign or missing),
    /// or a directory entry moved, cleared or pointed at another L1.
    fn random_store(rng: &mut faultgen::rng::SplitMix64) -> (FrameNum, usize, Pte) {
        let pick = |rng: &mut faultgen::rng::SplitMix64, r: &std::ops::Range<u32>| {
            rng.range(r.start as u64, r.end as u64) as u32
        };
        if rng.below(3) == 0 {
            let pde = match rng.below(16) {
                0 => Pte::ABSENT,
                1 => Pte::new(pick(rng, &DATA), Pte::WRITABLE),
                _ => Pte::new(pick(rng, &L1S), Pte::WRITABLE | Pte::USER),
            };
            return (FrameNum(pick(rng, &PGDS)), rng.below(4) as usize, pde);
        }
        let target = match rng.below(40) {
            0 => pick(rng, &L1S),
            1 => FOREIGN,
            2 => MISSING,
            _ => pick(rng, &DATA),
        };
        let flags = [0, Pte::USER, Pte::WRITABLE, Pte::WRITABLE | Pte::USER];
        let pte = match rng.below(8) {
            0 => Pte::ABSENT,
            _ => Pte::new(
                target,
                flags[rng.below(4) as usize] | (Pte::ACCESSED * rng.below(2)),
            ),
        };
        (FrameNum(pick(rng, &L1S)), rng.below(12) as usize, pte)
    }

    /// Rounds of detach → native stores → attach: the reattach leaves
    /// the records, the verdict and the clock exactly as the whole walk
    /// on a twin machine does, whatever mix of stores the sink saw
    /// (with a pre-image kept) or did not (raw, as a stray store would).
    #[test]
    fn a_reattach_matches_the_whole_walk_round_after_round() {
        let mut served = 0;
        faultgen::rng::check("a reattach matches the whole walk", 300, |rng| {
            // Directories name only the first slots, so stores meet them.
            let mut writes = Vec::new();
            for pgd in PGDS {
                for slot in 0..4 {
                    let l1 = rng.range(L1S.start as u64, L1S.end as u64) as u32;
                    writes.push((FrameNum(pgd), slot, Pte::new(l1, Pte::WRITABLE | Pte::USER)));
                }
            }
            for l1 in L1S {
                for slot in 0..12 {
                    let data = rng.range(DATA.start as u64, DATA.end as u64) as u32;
                    let flags = [Pte::USER, Pte::WRITABLE | Pte::USER][rng.below(2) as usize];
                    writes.push((FrameNum(l1), slot, Pte::new(data, flags)));
                }
            }
            let (t, mem, cpu) = tree_rig(&writes);
            let (twin, twin_mem, twin_cpu) = tree_rig(&writes);
            let pgds: Vec<FrameNum> = PGDS.map(FrameNum).collect();
            let walk = |t: &PageInfoTable, mem: &PhysMemory, cpu: &Cpu| {
                t.recompute_for_at(cpu, mem, D, FRAMES, &pgds, 0)
            };
            assert_eq!(walk(&t, &mem, &cpu), walk(&twin, &twin_mem, &twin_cpu));
            for _ in 0..4 {
                // The kernel's table frames: those the walk typed.
                let mut tables: Vec<FrameNum> = (0..FRAMES as u32)
                    .map(FrameNum)
                    .filter(|&f| matches!(t.type_of(f).0, PageType::L1 | PageType::L2))
                    .collect();
                // Now and then a list that misses one: its stores go
                // unseen, so nothing it reaches may be trusted.
                if rng.below(8) == 0 {
                    tables.retain(|f| f.0 != L1S.start);
                }
                t.retain(D, tables.clone());
                twin.clear_types_for(D);
                t.open_native_window(mem.checkpoint());
                assert_eq!(t.snapshot(), twin.snapshot(), "native: the types are gone");
                for _ in 0..rng.below(6) {
                    let (table, index, pte) = random_store(rng);
                    if rng.below(4) != 0 {
                        t.note_write(&mem, table);
                    }
                    mem.write_pte(&cpu, table, index, pte).unwrap();
                    twin_mem.write_pte(&twin_cpu, table, index, pte).unwrap();
                }
                t.close_native_window(&mem);
                let got = t.reattach(&cpu, &mem, D, FRAMES, &pgds, &tables);
                let want = walk(&twin, &twin_mem, &twin_cpu);
                served += usize::from(got == Ok(true));
                assert_eq!(got.clone().map(drop), want, "same verdict");
                assert_eq!(t.snapshot(), twin.snapshot(), "same accounting");
                assert_eq!(cpu.cycles(), twin_cpu.cycles(), "same cycles");
                if want.is_err() {
                    break;
                }
            }
        });
        assert!(
            served > 300,
            "the retained records served {served} attaches"
        );
    }

    /// The sink keeps the pre-images it kept when every store took the
    /// lock: nothing for the detach's own stores before the window
    /// opens, each retained table's image at its first tracked store
    /// after, and nothing new at its later stores (where the lock is no
    /// longer taken) or for a frame that is not a retained table.  The
    /// reattach then serves, and its records are a cold walk's.
    #[test]
    fn the_sink_keeps_each_tables_first_preimage_and_the_reattach_serves() {
        let pde = |l1| Pte::new(l1, Pte::WRITABLE | Pte::USER);
        let pte = |data| Pte::new(data, Pte::WRITABLE | Pte::USER);
        let tree = [
            (FrameNum(1), 0, pde(4)),
            (FrameNum(1), 1, pde(5)),
            (FrameNum(4), 0, pte(12)),
            (FrameNum(5), 0, pte(13)),
        ];
        // Tracked stores before the window opens (one that moves no
        // reference, as the detach's own flip nets to none) and after.
        let detach = [(FrameNum(4), 0, Pte(pte(12).0 | Pte::ACCESSED))];
        let native = [
            (FrameNum(4), 2, pte(15)),
            (FrameNum(4), 0, Pte::ABSENT),
            (FrameNum(4), 3, pte(16)),
            (FrameNum(5), 7, pte(17)),
            (FrameNum(20), 0, Pte(9)),
        ];
        let (t, mem, cpu) = tree_rig(&tree);
        let pgds = [FrameNum(1)];
        let tables = [FrameNum(1), FrameNum(4), FrameNum(5)];
        t.recompute_for_at(&cpu, &mem, D, FRAMES, &pgds, 0).unwrap();
        let preimages = |t: &PageInfoTable| -> Vec<Option<Vec<u64>>> {
            let info = t.info.lock();
            let kept = info.retained.as_ref().expect("retained");
            (0..tables.len())
                .map(|slot| kept.preimages[slot].as_ref().map(|image| image.to_vec()))
                .collect()
        };
        let store = |(table, index, pte): (FrameNum, usize, Pte)| {
            t.note_write(&mem, table);
            mem.write_pte(&cpu, table, index, pte).unwrap();
        };
        t.retain(D, tables.to_vec());
        detach.into_iter().for_each(store);
        assert_eq!(preimages(&t), [None, None, None], "no window, no pre-image");
        t.open_native_window(mem.checkpoint());
        let opened = tables.map(|table| mem.export_frame(table).unwrap());
        native.into_iter().for_each(store);
        let want = [None, Some(opened[1].clone()), Some(opened[2].clone())];
        assert_eq!(
            preimages(&t),
            want,
            "each table as its first native store found it"
        );
        t.close_native_window(&mem);
        assert_eq!(t.reattach(&cpu, &mem, D, FRAMES, &pgds, &tables), Ok(true));
        let every: Vec<_> = tree.iter().chain(&detach).chain(&native).copied().collect();
        let (cold, cold_mem, cold_cpu) = tree_rig(&every);
        cold.recompute_for_at(&cold_cpu, &cold_mem, D, FRAMES, &pgds, 0)
            .unwrap();
        assert!(
            t.snapshot() == cold.snapshot(),
            "the reattach's records are the walk's"
        );
    }

    #[test]
    fn table_granular_validators_match_the_per_entry_oracle() {
        faultgen::rng::check("validators match the per-entry oracle", 300, |rng| {
            let writes = random_tree(rng);
            let (new_t, new_mem, new_cpu) = tree_rig(&writes);
            let (old_t, old_mem, old_cpu) = tree_rig(&writes);
            let mut pinned: Vec<u32> = Vec::new();
            let mut leaf_valid: Vec<u32> = Vec::new();
            for _ in 0..10 {
                let before = new_t.snapshot();
                let charge = [0, costs::PT_PIN_PER_ENTRY][rng.below(2) as usize];
                let (new, old, must_restore) = match rng.below(4) {
                    // Validate a base table not validated yet.
                    0 | 1 => {
                        let pgd = rng.range(PGDS.start as u64, PGDS.end as u64) as u32;
                        if pinned.contains(&pgd) {
                            continue;
                        }
                        let f = FrameNum(pgd);
                        let new = new_t.validate_l2(&new_cpu, &new_mem, f, D, charge);
                        let old = oracle::validate_l2(&old_t, &old_cpu, &old_mem, f, D, charge);
                        if new.is_ok() {
                            pinned.push(pgd);
                        }
                        (new, old, true)
                    }
                    // Release one that is.
                    2 => {
                        if pinned.is_empty() {
                            continue;
                        }
                        let f =
                            FrameNum(pinned.swap_remove(rng.below(pinned.len() as u64) as usize));
                        let new = new_t.invalidate_l2(&new_cpu, &new_mem, f);
                        let old = oracle::invalidate_l2(&old_t, &old_cpu, &old_mem, f);
                        (new, old, false)
                    }
                    // A leaf table on its own: validate, or release one
                    // validated this way.
                    _ => {
                        if !leaf_valid.is_empty() && rng.below(2) == 0 {
                            let f = FrameNum(leaf_valid.swap_remove(0));
                            if new_t.type_of(f) != (PageType::L1, 1) {
                                // A directory holds it too by now: its
                                // entries are not this caller's to drop.
                                continue;
                            }
                            let new = new_t.invalidate_l1(&new_cpu, &new_mem, f);
                            let old = oracle::invalidate_l1(&old_t, &old_cpu, &old_mem, f);
                            (new, old, false)
                        } else {
                            let l1 = rng.range(L1S.start as u64, DATA.end as u64) as u32;
                            let f = FrameNum(l1);
                            if new_t.type_of(f).1 != 0 {
                                continue;
                            }
                            let new = new_t.validate_l1(&new_cpu, &new_mem, f, D, charge);
                            let old = oracle::validate_l1(&old_t, &old_cpu, &old_mem, f, D, charge);
                            if new.is_ok() {
                                leaf_valid.push(l1);
                            }
                            (new, old, true)
                        }
                    }
                };
                assert_eq!(new, old, "same verdict, same error");
                assert_eq!(new_t.snapshot(), old_t.snapshot(), "same accounting");
                assert_eq!(new_cpu.cycles(), old_cpu.cycles(), "same cycles");
                if must_restore && new.is_err() {
                    assert_eq!(
                        new_t.snapshot(),
                        before,
                        "a failed validation left a reference"
                    );
                }
            }
        });
    }
}
